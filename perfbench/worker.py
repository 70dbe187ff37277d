"""One workload process: build the batch, then solve it in a closed loop.

    PYTHONPATH=src python3 perfbench/worker.py --workload sat-search --seed 1 --seconds 36

`run.py` starts this with PYTHONHASHSEED set.  The batch is solved one solve
at a time, parse to result, and repeated for about `--seconds` (at least
once).  Every answer is checked after its pass, and the SolveStats
counters summed over a pass must be equal in every pass.  The last line of
standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import platform
import resource
import time
from collections import Counter

from microasp import parser, strategies
from microasp.cdcl import Budget

import reference
import tracing
import workloads as wl


def run_pass(workload: wl.Workload, instances, tracer, gauge: bool) -> tuple[float, list[dict], dict]:
    solves = []
    results = {}
    started = time.perf_counter()
    before = reference.timed() if gauge else 0.0
    for inst in instances:
        for kind in workload.strategies:
            # Collect the previous solve's garbage outside the timed region,
            # so that no solve pays for another and the peak RSS is the
            # largest single solve's.
            gc.collect()
            if tracer is not None:
                tracer.solve_id += 1
                root = tracer.open("bench.solve")
            t0 = time.perf_counter()
            result = strategies.solve(
                parser.parse_program(inst.text),
                kind,
                seed=wl.SOLVER_SEED,
                budget=Budget(max_conflicts=wl.CONFLICT_BUDGET),
            )
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(root)
            results[inst.name, kind] = result
            solve = {
                "instance": inst.name,
                "strategy": kind,
                "status": result.status,
                "seconds": seconds,
                "stats": dataclasses.asdict(result.stats),
            }
            if gauge:
                # The reference kernel's time right before and right after
                # the solve: how fast the processor ran around it.
                after = reference.timed()
                solve["reference_s"] = (before + after) / 2
                before = after
            solves.append(solve)
    return time.perf_counter() - started, solves, results


def check_pass(workload: wl.Workload, instances, results: dict) -> list[dict]:
    failures = []
    for inst in instances:
        statuses = {kind: results[inst.name, kind].status for kind in workload.strategies}
        for kind in workload.strategies:
            problem = wl.answer_problem(inst, kind, results[inst.name, kind], statuses)
            if problem is not None:
                failures.append({"instance": inst.name, "strategy": kind, "problem": problem})
    return failures


def summed_counters(solves: list[dict]) -> dict[str, int]:
    total: Counter[str] = Counter()
    for solve in solves:
        total.update(solve["stats"])
    return dict(total)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true", help="record spans around each layer")
    ap.add_argument("--spans", help="file to write the recorded spans to")
    ap.add_argument("--smoke", action="store_true", help="the tiny sizes of the workload")
    ap.add_argument("--setup-only", action="store_true", help="stop before the first solve")
    ap.add_argument("--reference", action="store_true", help="time the reference kernel around each solve")
    args = ap.parse_args()

    workload = (wl.SMOKE_WORKLOADS if args.smoke else wl.WORKLOADS)[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    instances = workload.instances(args.seed)
    ready = time.monotonic()
    # How fast the processor ran just after set-up, for setup_s at
    # reference speed.
    out = {"ready": ready, "setup_reference_s": reference.timed()}
    if args.setup_only:
        print(json.dumps(out))
        return

    # Repeat the batch while at least half a pass, as long as the last one,
    # is left of --seconds: the run measures for about --seconds.
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started + passes[-1]["wall_s"] / 2 <= args.seconds:
        wall, solves, results = run_pass(workload, instances, tracer, args.reference)
        passes.append({"wall_s": wall, "solves": solves, "failures": check_pass(workload, instances, results)})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    counters = summed_counters(passes[0]["solves"])
    for i, p in enumerate(passes[1:], start=2):
        if summed_counters(p["solves"]) != counters:
            raise SystemExit(f"determinism gate: the counters of pass {i} differ from pass 1")
    out.update(
        provenance={
            "python": platform.python_version(),
            "conflict_budget": wl.CONFLICT_BUDGET,
            "solver_seed": wl.SOLVER_SEED,
            "workload_params": workload.params(),
            "instances": [{"name": inst.name, **inst.params} for inst in instances],
        },
        passes=passes,
        counters=counters,
        peak_rss_mb=peak_rss_mb,
    )
    if tracer is not None:
        summary = tracer.summary()
        tracing.check_required(summary, workload.strategies)
        out.update(layers=summary, counts=dict(tracer.counts))
        if args.spans:
            with open(args.spans, "w") as handle:
                json.dump({"fields": ["name", "start", "end", "parent", "solve"], "spans": tracer.spans}, handle)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
