"""Record the 3-SAT instance pools of the benchmark in pools.json.

    PYTHONPATH=src python3 perfbench/make_pools.py

Solves every pool instance with the pool's strategies and its confirm
strategies, checks each model with `benchgen.clause_satisfied`, and stops if
the strategies disagree on a status.  The pool is stored sorted by the
propagations of the workload's strategies: a deterministic measure of their
work, which a wall time on a shared machine is not.  `workloads.SatPool.draw`
cuts it into strata in that order.  Rerun it when a pool is added or
resized; a pool already recorded at its size is kept, because the recorded
statuses are what later runs check UNSAT answers against.
"""
from __future__ import annotations

import json
import sys

from microasp import parser, strategies
from microasp.cdcl import SAT, TIMEOUT, Budget

from workloads import CONFLICT_BUDGET, POOLS, POOLS_FILE, SOLVER_SEED, model_problem, sat_instance


def record(pool) -> list[dict]:
    entries = []
    for seed in range(pool.size):
        inst = sat_instance(pool.v, pool.ratio, seed)
        propagations = 0
        statuses = {}
        for kind in (*pool.strategies, *pool.confirm):
            result = strategies.solve(
                parser.parse_program(inst.text),
                kind,
                seed=SOLVER_SEED,
                budget=Budget(max_conflicts=CONFLICT_BUDGET),
            )
            if kind in pool.strategies:
                propagations += result.stats.propagations
            if result.status == SAT and model_problem(inst, result.model):
                sys.exit(f"{inst.name}: {kind} returned a wrong model")
            statuses[kind] = result.status
        if len(set(statuses.values())) != 1 or TIMEOUT in statuses.values():
            sys.exit(f"{inst.name}: no agreed status: {statuses}")
        entries.append({"seed": seed, "status": statuses[pool.strategies[0]], "propagations": propagations})
        print(inst.name, statuses[pool.strategies[0]], propagations, flush=True)
    return sorted(entries, key=lambda e: (e["propagations"], e["seed"]))


def main() -> None:
    # A pool already recorded at its size is kept as it is; only new or
    # resized pools are solved.
    recorded = json.loads(POOLS_FILE.read_text()) if POOLS_FILE.is_file() else {}
    pools = {}
    for pool in POOLS:
        kept = recorded.get(pool.key, [])
        pools[pool.key] = kept if len(kept) == pool.size else record(pool)
    POOLS_FILE.write_text(json.dumps(pools, indent=1) + "\n")


if __name__ == "__main__":
    main()
