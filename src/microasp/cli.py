"""Command-line front end: solve, generate, oracle, sweeps, benchmark
matrix, and portfolio subcommands.

Exit codes for `solve`: 10 = model found, 20 = unsatisfiable, 30 = budget
exhausted.  JSON reports contain no wall-clock values unless --timing is
given, so identical runs produce byte-identical reports.
"""
from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from . import benchgen, portfolio
from .cdcl import Budget
from .grounder import GroundingError, ground_program
from .oracle import enumerate_stable_models
from .parser import ParseError, parse_program
from .strategies import StrategyKind, solve

SOLVE_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "micro-asp solve report",
    "type": "object",
    "required": [
        "input",
        "strategy",
        "seed",
        "budget",
        "status",
        "exit_code",
        "model",
        "stats",
    ],
    "properties": {
        "input": {"type": "string"},
        "strategy": {"enum": ["full", "lazy", "eager", "post"]},
        "seed": {"type": "integer"},
        "budget": {
            "type": "object",
            "required": ["conflicts", "seconds"],
            "properties": {
                "conflicts": {"type": ["integer", "null"]},
                "seconds": {"type": ["number", "null"]},
            },
            "additionalProperties": False,
        },
        "status": {"enum": ["SAT", "UNSAT", "TIMEOUT"]},
        "exit_code": {"enum": [10, 20, 30]},
        "model": {"type": ["array", "null"], "items": {"type": "string"}},
        "stats": {
            "type": "object",
            "additionalProperties": {"type": "integer"},
        },
        "elapsed_s": {"type": "number"},
    },
    "additionalProperties": False,
}


@dataclass
class RunConfig:
    inputs: list[str] = field(default_factory=list)
    strategy: str = "full"
    seed: int = 0
    conflicts: Optional[int] = None
    timeout_s: Optional[float] = None
    json_output: bool = False
    dump_ground: bool = False
    timing: bool = False

    def budget(self) -> Budget:
        return Budget(max_conflicts=self.conflicts, max_seconds=self.timeout_s)


def _read_program(path: str):
    with open(path) as handle:
        return parse_program(handle.read())


def cmd_solve(cfg: RunConfig) -> int:
    program = _read_program(cfg.inputs[0])
    if cfg.dump_ground:
        gp = ground_program(
            program, include_deferred=cfg.strategy == StrategyKind.FULL.value
        )
        sys.stdout.write(gp.to_text())
        return 0
    started = time.perf_counter()
    result = solve(
        program,
        cfg.strategy,
        seed=cfg.seed,
        budget=cfg.budget(),
    )
    elapsed = time.perf_counter() - started
    model = (
        sorted(str(atom) for atom in result.model)
        if result.model is not None
        else None
    )
    if cfg.json_output:
        report = {
            "input": cfg.inputs[0],
            "strategy": cfg.strategy,
            "seed": cfg.seed,
            "budget": {"conflicts": cfg.conflicts, "seconds": cfg.timeout_s},
            "status": result.status,
            "exit_code": result.exit_code,
            "model": model,
            "stats": asdict(result.stats),
        }
        if cfg.timing:
            report["elapsed_s"] = elapsed
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        if model is not None:
            print(" ".join(model))
            print("SATISFIABLE")
        elif result.status == "UNSAT":
            print("UNSATISFIABLE")
        else:
            print("TIMEOUT")
        if cfg.timing:
            print(f"time: {elapsed:.3f}s")
    return result.exit_code


def cmd_oracle(path: str, max_free: int) -> int:
    program = _read_program(path)
    gp = ground_program(program, include_deferred=True)
    models = enumerate_stable_models(gp, max_free=max_free)
    for model in models:
        print("model: " + " ".join(sorted(str(a) for a in model)))
    print(f"models: {len(models)}")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "marriage":
        text = benchgen.marriage_program_text(
            benchgen.make_marriage(args.n, args.k, args.seed)
        )
    elif args.family == "3sat":
        text = benchgen.sat_program_text(
            benchgen.make_3sat(args.vars, args.ratio, args.seed)
        )
    else:
        sizes = [int(s) for s in args.sizes.split(",") if s]
        text = benchgen.packing_program_text(
            benchgen.make_packing(args.width, args.height, sizes)
        )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _sweep_cell(
    vars_: int,
    ratio: float,
    seed: int,
    strategies: Sequence[str],
    conflicts: Optional[int],
) -> dict[str, tuple[str, int, float]]:
    program = parse_program(
        benchgen.sat_program_text(benchgen.make_3sat(vars_, ratio, seed))
    )
    out = {}
    for strategy in strategies:
        started = time.perf_counter()
        result = solve(
            program,
            strategy,
            seed=seed,
            budget=Budget(max_conflicts=conflicts),
        )
        out[strategy] = (
            result.status,
            result.stats.conflicts,
            time.perf_counter() - started,
        )
    return out


def sweep_3sat(
    vars_: int,
    r_values: Sequence[float],
    seeds: int,
    strategies: Sequence[str],
    conflicts: Optional[int] = None,
) -> list[dict]:
    """Solve `seeds` random instances per ratio with every strategy.

    Rows come back in grid order with mean solve time, mean conflicts, and
    timeout counts per strategy, plus the UNSAT frequency over the decided
    runs of the first strategy.
    """
    cells = [
        _sweep_cell(vars_, ratio, seed, strategies, conflicts)
        for ratio in r_values
        for seed in range(seeds)
    ]
    rows = []
    for i, ratio in enumerate(r_values):
        chunk = cells[i * seeds : (i + 1) * seeds]
        row: dict = {
            "vars": vars_,
            "ratio": ratio,
            "clauses": int(ratio * vars_ + 0.5),
        }
        lead = strategies[0]
        decided = [c[lead][0] for c in chunk if c[lead][0] != "TIMEOUT"]
        row["unsat_freq"] = (
            sum(1 for s in decided if s == "UNSAT") / len(decided)
            if decided
            else 0.0
        )
        for strategy in strategies:
            results = [c[strategy] for c in chunk]
            row[f"{strategy}_mean_time_s"] = statistics.fmean(r[2] for r in results)
            row[f"{strategy}_mean_conflicts"] = statistics.fmean(
                r[1] for r in results
            )
            row[f"{strategy}_timeouts"] = sum(
                1 for r in results if r[0] == "TIMEOUT"
            )
        rows.append(row)
    return rows


def cmd_sweep_3sat(args: argparse.Namespace) -> int:
    r_values = []
    ratio = args.r_min
    while ratio <= args.r_max + 1e-9:
        r_values.append(round(ratio, 6))
        ratio += args.r_step
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    rows = sweep_3sat(
        args.vars, r_values, args.seeds, strategies, args.conflicts
    )
    header = list(rows[0]) if rows else []
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[h] for h in header])
    finally:
        if args.out:
            out.close()
    return 0


ALL_STRATEGIES = tuple(kind.value for kind in StrategyKind)


def bench_matrix(
    paths: Sequence[str],
    family: str,
    conflicts: int,
    seed: int = 0,
) -> list[portfolio.Example]:
    """Run every strategy per instance under one conflict budget.

    The runtime metric is the conflict count (the budget for timeouts); the
    label is the cheapest strategy, ties broken in declaration order, or
    `none` when everything timed out.
    """
    examples = []
    for path in paths:
        program = _read_program(path)
        features = portfolio.extract_features(program, family)
        runtimes: dict[str, float] = {}
        statuses: dict[str, str] = {}
        for strategy in ALL_STRATEGIES:
            result = solve(
                program, strategy, seed=seed, budget=Budget(max_conflicts=conflicts)
            )
            statuses[strategy] = result.status
            runtimes[strategy] = float(
                conflicts if result.status == "TIMEOUT" else result.stats.conflicts
            )
        if all(status == "TIMEOUT" for status in statuses.values()):
            label = "none"
        else:
            best = min(runtimes.values())
            label = next(s for s in ALL_STRATEGIES if runtimes[s] == best)
        examples.append(portfolio.Example(path, features, label, runtimes))
    return examples


def cmd_bench_matrix(args: argparse.Namespace) -> int:
    import glob
    import os

    paths = sorted(glob.glob(os.path.join(args.dir, "*.lp")))
    examples = bench_matrix(paths, args.family, args.conflicts, args.seed)
    schema = portfolio.FEATURE_SCHEMAS[args.family]
    out = args.out or "dataset.csv"
    portfolio.write_dataset(out, examples, schema)
    print(f"wrote {len(examples)} rows to {out}")
    return 0


def cmd_portfolio(args: argparse.Namespace) -> int:
    if args.action == "train":
        examples, _ = portfolio.read_dataset(args.data)
        tree = portfolio.train([(ex.features, ex.label) for ex in examples])
        text = portfolio.tree_to_json(tree)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return 0
    if args.action == "eval":
        examples, _ = portfolio.read_dataset(args.data)
        report = portfolio.cross_validate(examples, folds=args.folds, seed=args.seed)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    with open(args.tree) as handle:
        tree = portfolio.tree_from_json(handle.read())
    if args.features:
        features = {
            part.split("=")[0]: float(part.split("=")[1])
            for part in args.features.split(",")
        }
    else:
        program = _read_program(args.instance)
        features = portfolio.extract_features(program, args.family)
    print(portfolio.predict(tree, features))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="micro-asp",
        description="miniature answer-set solver with deferred-constraint strategies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute one stable model")
    p_solve.add_argument("input")
    p_solve.add_argument(
        "--strategy",
        default="full",
        choices=[k.value for k in StrategyKind],
    )
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--conflicts", type=int, default=None)
    p_solve.add_argument("--timeout-s", type=float, default=None)
    p_solve.add_argument("--json", action="store_true")
    p_solve.add_argument(
        "--dump-ground",
        action="store_true",
        help="print the ground program (sorted) and exit",
    )
    p_solve.add_argument("--timing", action="store_true")

    p_gen = sub.add_parser("gen", help="generate a benchmark instance")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_marriage = gen_sub.add_parser("marriage")
    g_marriage.add_argument("--n", type=int, required=True)
    g_marriage.add_argument("--k", type=int, required=True)
    g_marriage.add_argument("--seed", type=int, default=0)
    g_marriage.add_argument("--out")
    g_sat = gen_sub.add_parser("3sat")
    g_sat.add_argument("--vars", type=int, required=True)
    g_sat.add_argument("--ratio", type=float, required=True)
    g_sat.add_argument("--seed", type=int, default=0)
    g_sat.add_argument("--out")
    g_pack = gen_sub.add_parser("packing")
    g_pack.add_argument("--width", "--w", type=int, required=True, dest="width")
    g_pack.add_argument("--height", "--h", type=int, required=True, dest="height")
    g_pack.add_argument("--sizes", default="", help="comma-separated square sizes")
    g_pack.add_argument("--out")

    p_oracle = sub.add_parser("oracle", help="enumerate all stable models")
    p_oracle.add_argument("input")
    p_oracle.add_argument("--max-free", type=int, default=24)

    p_sweep = sub.add_parser("sweep3sat", help="phase-transition sweep")
    p_sweep.add_argument("--vars", type=int, required=True)
    p_sweep.add_argument("--r-min", type=float, default=3.0)
    p_sweep.add_argument("--r-max", type=float, default=5.5)
    p_sweep.add_argument("--r-step", type=float, default=0.25)
    p_sweep.add_argument("--seeds", type=int, default=50)
    p_sweep.add_argument("--strategies", default="lazy,eager")
    p_sweep.add_argument("--conflicts", type=int, default=None)
    p_sweep.add_argument("--out")

    p_bench = sub.add_parser("bench", help="portfolio dataset from a directory")
    p_bench.add_argument("--dir", required=True)
    p_bench.add_argument(
        "--family", default="generic", choices=sorted(portfolio.FEATURE_SCHEMAS)
    )
    p_bench.add_argument("--conflicts", type=int, default=10000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out")

    p_port = sub.add_parser("portfolio", help="train, evaluate, or apply a selector")
    port_sub = p_port.add_subparsers(dest="action", required=True)
    t = port_sub.add_parser("train")
    t.add_argument("--data", required=True)
    t.add_argument("--out")
    e = port_sub.add_parser("eval")
    e.add_argument("--data", required=True)
    e.add_argument("--folds", type=int, default=10)
    e.add_argument("--seed", type=int, default=0)
    pr = port_sub.add_parser("predict")
    pr.add_argument("--tree", required=True)
    pr.add_argument("--features")
    pr.add_argument("--instance")
    pr.add_argument(
        "--family", default="generic", choices=sorted(portfolio.FEATURE_SCHEMAS)
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            cfg = RunConfig(
                inputs=[args.input],
                strategy=args.strategy,
                seed=args.seed,
                conflicts=args.conflicts,
                timeout_s=args.timeout_s,
                json_output=args.json,
                dump_ground=args.dump_ground,
                timing=args.timing,
            )
            return cmd_solve(cfg)
        if args.command == "oracle":
            return cmd_oracle(args.input, args.max_free)
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "sweep3sat":
            return cmd_sweep_3sat(args)
        if args.command == "bench":
            return cmd_bench_matrix(args)
        return cmd_portfolio(args)
    except (ParseError, GroundingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
