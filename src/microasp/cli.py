"""Command-line front end: solve, generate, oracle, sweeps, benchmark
matrix, and portfolio subcommands.

`solve`, `sweep3sat` and `bench` run every solve through `_timed_solve`,
which times `strategies.solve` alone, not the parsing before it.  The
sweep's grid is the list of clause/variable ratios given to `--ratios`.

Exit codes for `solve`: 10 = model found, 20 = unsatisfiable, 30 = budget
exhausted.  JSON reports contain no wall-clock values unless --timing is
given, so identical runs produce byte-identical reports.
"""
from __future__ import annotations

import argparse
import csv
import glob
import io
import json
import os
import statistics
import sys
import time
from dataclasses import asdict
from typing import Optional, Sequence

from . import benchgen, portfolio
from .cdcl import EXIT_MODEL, EXIT_TIMEOUT, EXIT_UNSAT, SAT, TIMEOUT, UNSAT
from .cdcl import Budget, SolveResult
from .grounder import GroundingError, ground_program
from .model import Program
from .oracle import enumerate_stable_models
from .parser import ParseError, parse_program
from .strategies import StrategyKind, solve

ALL_STRATEGIES = tuple(kind.value for kind in StrategyKind)

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
        "strategy": {"enum": list(ALL_STRATEGIES)},
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
        "status": {"enum": [SAT, UNSAT, TIMEOUT]},
        "exit_code": {"enum": [EXIT_MODEL, EXIT_UNSAT, EXIT_TIMEOUT]},
        "model": {"type": ["array", "null"], "items": {"type": "string"}},
        "stats": {
            "type": "object",
            "additionalProperties": {"type": "integer"},
        },
        "elapsed_s": {"type": "number"},
    },
    "additionalProperties": False,
}


def _read_program(path: str):
    """Parse a program file, read as UTF-8 with universal newlines as text
    mode reads it.  A byte that is not UTF-8 is a `ParseError` at its line
    and column."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _newlines(data[: exc.start].decode("utf-8"))
        line, column = before.count("\n") + 1, len(before) - before.rfind("\n")
        message = f"byte 0x{data[exc.start]:02x} is not UTF-8"
        raise ParseError(message, line, column) from None
    return parse_program(_newlines(text))


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write_out(path: Optional[str], text: str) -> None:
    """Write a command's output to the file at `path`, or to stdout."""
    if path:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _timed_solve(
    program: Program, strategy: str, seed: int, budget: Budget
) -> tuple[SolveResult, float]:
    """Solve a parsed program and return the result with the seconds spent
    in `strategies.solve`."""
    started = time.perf_counter()
    result = solve(program, strategy, seed=seed, budget=budget)
    return result, time.perf_counter() - started


def cmd_solve(args: argparse.Namespace) -> int:
    program = _read_program(args.input)
    if args.dump_ground:
        gp = ground_program(
            program, include_deferred=args.strategy == StrategyKind.FULL.value
        )
        sys.stdout.write(gp.to_text())
        return 0
    result, elapsed = _timed_solve(
        program,
        args.strategy,
        args.seed,
        Budget(max_conflicts=args.conflicts, max_seconds=args.timeout_s),
    )
    model = (
        sorted(str(atom) for atom in result.model)
        if result.model is not None
        else None
    )
    if args.json:
        report = {
            "input": args.input,
            "strategy": args.strategy,
            "seed": args.seed,
            "budget": {"conflicts": args.conflicts, "seconds": args.timeout_s},
            "status": result.status,
            "exit_code": result.exit_code,
            "model": model,
            "stats": asdict(result.stats),
        }
        if args.timing:
            report["elapsed_s"] = elapsed
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        if model is not None:
            print(" ".join(model))
            print("SATISFIABLE")
        elif result.status == UNSAT:
            print("UNSATISFIABLE")
        else:
            print("TIMEOUT")
        if args.timing:
            print(f"time: {elapsed:.3f}s")
    return result.exit_code


def cmd_oracle(args: argparse.Namespace) -> int:
    program = _read_program(args.input)
    gp = ground_program(program, include_deferred=True)
    models = enumerate_stable_models(gp, max_free=args.max_free)
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
    _write_out(args.out, text)
    return 0


def sweep_3sat(
    vars_: int,
    r_values: Sequence[float],
    seeds: int,
    strategies: Sequence[str],
    conflicts: Optional[int] = None,
) -> list[dict]:
    """Solve `seeds` random instances per ratio with every strategy.

    Instance `seed` of a ratio is `make_3sat(vars_, ratio, seed)`, solved
    with solver seed `seed`, each solve timed by `_timed_solve`.  Rows come
    back in the order of `r_values` with mean solve time, mean conflicts,
    and timeout counts per strategy, plus the UNSAT frequency over the
    decided runs of the first strategy.  An empty list of ratios or of
    strategies, or fewer than one seed, is a `ValueError`.
    """
    if not r_values or not strategies or seeds < 1:
        raise ValueError(
            f"a sweep needs at least one ratio, one strategy and one seed, "
            f"got {len(r_values)}, {len(strategies)} and {seeds}"
        )
    budget = Budget(max_conflicts=conflicts)
    rows = []
    for ratio in r_values:
        cells = []
        for seed in range(seeds):
            program = parse_program(
                benchgen.sat_program_text(benchgen.make_3sat(vars_, ratio, seed))
            )
            cells.append(
                {s: _timed_solve(program, s, seed, budget) for s in strategies}
            )
        decided = [
            c[strategies[0]][0].status
            for c in cells
            if c[strategies[0]][0].status != TIMEOUT
        ]
        row: dict = {
            "vars": vars_,
            "ratio": ratio,
            "clauses": int(ratio * vars_ + 0.5),
            "unsat_freq": decided.count(UNSAT) / len(decided) if decided else 0.0,
        }
        for strategy in strategies:
            runs = [c[strategy] for c in cells]
            row[f"{strategy}_mean_time_s"] = statistics.fmean(t for _, t in runs)
            row[f"{strategy}_mean_conflicts"] = statistics.fmean(
                r.stats.conflicts for r, _ in runs
            )
            row[f"{strategy}_timeouts"] = sum(r.status == TIMEOUT for r, _ in runs)
        rows.append(row)
    return rows


def cmd_sweep_3sat(args: argparse.Namespace) -> int:
    ratios = [float(r) for r in args.ratios.split(",") if r.strip()]
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    rows = sweep_3sat(args.vars, ratios, args.seeds, strategies, args.conflicts)
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    _write_out(args.out, text.getvalue())
    return 0


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
    budget = Budget(max_conflicts=conflicts)
    examples = []
    for path in paths:
        program = _read_program(path)
        features = portfolio.extract_features(program, family)
        results = {
            s: _timed_solve(program, s, seed, budget)[0] for s in ALL_STRATEGIES
        }
        runtimes = {
            s: float(conflicts if r.status == TIMEOUT else r.stats.conflicts)
            for s, r in results.items()
        }
        if all(r.status == TIMEOUT for r in results.values()):
            label = "none"
        else:
            best = min(runtimes.values())
            label = next(s for s, runtime in runtimes.items() if runtime == best)
        examples.append(portfolio.Example(path, features, label, runtimes))
    return examples


def cmd_bench_matrix(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.dir):
        raise NotADirectoryError(f"--dir {args.dir} is not a directory")
    paths = sorted(glob.glob(os.path.join(args.dir, "*.lp")))
    examples = bench_matrix(paths, args.family, args.conflicts, args.seed)
    schema = portfolio.FEATURE_SCHEMAS[args.family]
    portfolio.write_dataset(args.out, examples, schema)
    print(f"wrote {len(examples)} rows to {args.out}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    examples, _ = portfolio.read_dataset(args.data)
    tree = portfolio.train([(ex.features, ex.label) for ex in examples])
    _write_out(args.out, portfolio.tree_to_json(tree))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    examples, _ = portfolio.read_dataset(args.data)
    report = portfolio.cross_validate(examples, folds=args.folds, seed=args.seed)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    if not (args.features or args.instance):
        raise ValueError("portfolio predict needs --features or --instance")
    with open(args.tree) as handle:
        tree = portfolio.tree_from_json(handle.read())
    if args.features:
        features = {}
        for part in args.features.split(","):
            name, eq, value = part.partition("=")
            if not eq:
                raise ValueError(f"--features expects name=value pairs, got '{part}'")
            features[name] = float(value)
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
    p_solve.set_defaults(run=cmd_solve)
    p_solve.add_argument("input")
    p_solve.add_argument(
        "--strategy", default=StrategyKind.FULL.value, choices=ALL_STRATEGIES
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
    p_gen.set_defaults(run=cmd_gen)
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
    p_oracle.set_defaults(run=cmd_oracle)
    p_oracle.add_argument("input")
    p_oracle.add_argument("--max-free", type=int, default=24)

    p_sweep = sub.add_parser("sweep3sat", help="phase-transition sweep")
    p_sweep.set_defaults(run=cmd_sweep_3sat)
    p_sweep.add_argument("--vars", type=int, required=True)
    p_sweep.add_argument(
        "--ratios",
        default="3.0,3.25,3.5,3.75,4.0,4.25,4.5,4.75,5.0,5.25,5.5",
        help="comma-separated clause/variable ratios",
    )
    p_sweep.add_argument("--seeds", type=int, default=50)
    p_sweep.add_argument("--strategies", default="lazy,eager")
    p_sweep.add_argument("--conflicts", type=int, default=None)
    p_sweep.add_argument("--out")

    p_bench = sub.add_parser("bench", help="portfolio dataset from a directory")
    p_bench.set_defaults(run=cmd_bench_matrix)
    p_bench.add_argument("--dir", required=True)
    p_bench.add_argument(
        "--family", default="generic", choices=sorted(portfolio.FEATURE_SCHEMAS)
    )
    p_bench.add_argument("--conflicts", type=int, default=10000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default="dataset.csv")

    p_port = sub.add_parser("portfolio", help="train, evaluate, or apply a selector")
    port_sub = p_port.add_subparsers(dest="action", required=True)
    t = port_sub.add_parser("train")
    t.set_defaults(run=cmd_train)
    t.add_argument("--data", required=True)
    t.add_argument("--out")
    e = port_sub.add_parser("eval")
    e.set_defaults(run=cmd_eval)
    e.add_argument("--data", required=True)
    e.add_argument("--folds", type=int, default=10)
    e.add_argument("--seed", type=int, default=0)
    pr = port_sub.add_parser("predict")
    pr.set_defaults(run=cmd_predict)
    pr.add_argument("--tree", required=True)
    given = pr.add_mutually_exclusive_group()
    given.add_argument("--features", help="comma-separated name=value pairs")
    given.add_argument("--instance")
    pr.add_argument(
        "--family", default="generic", choices=sorted(portfolio.FEATURE_SCHEMAS)
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ParseError, GroundingError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
