"""The micro-asp benchmark: solve a fixed batch per workload and report it.

    python3 perfbench/run.py --workload sat-search --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each run starts its workload processes
(`worker.py`) with PYTHONHASHSEED derived from the seed.  `--trace 0` prints
the end-to-end metrics of an untraced run, with solve and set-up times at
reference speed (see reference.py); `--trace 1` prints the per-layer
metrics of a traced run, after checking that its counters equal those of an
untraced run at the same seed.  The last line of standard output is one JSON
object; the full record of the run, raw per-solve times included, is written
to .perfbench_out/.  `--smoke` runs every workload at tiny sizes with both
settings and checks the reported metrics against BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("sat-search", "deferred-ground", "deferred-propagate")
SETUP_REPEATS = 8  # extra processes that only set up, for the median setup_s
RUN_LIMIT_S = 170  # every process of one run ends within this

E2E_UNITS = {
    "solves_per_s": "1/s",
    "solve_geomean_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Span name of each timed layer metric, self time.
LAYER_SPANS = {
    "parser.parse_s": "parser.parse_program",
    "grounder.ground_s": "strategies.ground_program",
    "grounder.check_s": "strategies.ground_deferred_violations",
    "cdcl.build_s": "Solver.__init__",
    "cdcl.search_s": "Solver.solve",
    "strategies.index_s": "ConstraintIndex.__init__",
    "strategies.eager_s": "ConstraintIndex.eager_nogoods",
    "strategies.post_s": "ConstraintIndex.post_nogoods",
}

# SolveStats counter behind each counted layer metric.
LAYER_COUNTERS = {
    "cdcl.conflicts": "conflicts",
    "cdcl.decisions": "decisions",
    "cdcl.propagations": "propagations",
    "cdcl.restarts": "restarts",
    "cdcl.learned": "learned",
    "cdcl.deleted": "deleted",
    "cdcl.unfounded_vetoes": "unfounded_vetoes",
    "strategies.propagator_calls": "propagator_calls",
    "strategies.propagator_nogoods": "propagator_nogoods",
    "strategies.invalidations": "invalidations",
    "strategies.lazy_added": "lazy_added",
}

LAYER_UNITS = {
    **{name: "s" for name in LAYER_SPANS},
    **{name: "count" for name in LAYER_COUNTERS},
    "grounder.atoms": "count",
    "grounder.rules": "count",
    "grounder.check_calls": "count",
    "grounder.check_veto_ratio": "ratio",
    "cdcl.propagations_per_s": "1/s",
    "strategies.nogoods_per_call": "ratio",
    "strategies.propagator_ms_per_call": "ms",
    "timeout_share": "ratio",
    "failed_share": "ratio",
    "wall.solves_per_s": "1/s",
    "wall.solve_geomean_ms": "ms",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "hashseed.changed_counters": "count",
}


class RunFailed(Exception):
    pass


def hash_seeds(seed: int) -> tuple[int, int]:
    """PYTHONHASHSEED for a benchmark seed, and a second one to compare with."""
    first = 1 + seed % 4_294_967_295
    return first, first % 4_294_967_295 + 1


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def tally(runs: list[dict]) -> tuple[list[dict], list[dict]]:
    """Every solve and every failed check of the workers' passes."""
    passes = [p for r in runs for p in r["passes"]]
    return [s for p in passes for s in p["solves"]], [f for p in passes for f in p["failures"]]


def wall_time(solve: dict) -> float:
    return solve["seconds"]


def at_reference_speed(solve: dict) -> float:
    """A solve's time at the speed at which the reference kernel takes
    REFERENCE_S: its wall time over the kernel's time around it."""
    return solve["seconds"] / solve["reference_s"] * reference.REFERENCE_S


def batch_metrics(passes: list[dict], time_of: Callable[[dict], float]) -> tuple[float, float]:
    """solves_per_s and solve_geomean_ms of one worker's passes.

    A solve's time is its median over the passes: its typical time, which a
    burst that slowed one pass does not move.
    """
    per_solve: dict[tuple[str, str], list[float]] = {}
    for p in passes:
        for s in p["solves"]:
            per_solve.setdefault((s["instance"], s["strategy"]), []).append(time_of(s))
    typical = [statistics.median(times) for times in per_solve.values()]
    return len(typical) / math.fsum(typical), 1000 * math.exp(statistics.fmean(math.log(t) for t in typical))


class Runner:
    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, hash_seed: int, seconds: float = 0.0, *flags: str) -> dict:
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--seconds", str(seconds),
            *flags,
        ]
        if self.smoke:
            cmd.append("--smoke")
        pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=pythonpath)
        started = time.monotonic()
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - started),
            )
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"{' '.join(cmd)} ran past the {RUN_LIMIT_S} s limit") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RunFailed(f"{' '.join(cmd)} exited with {proc.returncode}")
        out = json.loads(proc.stdout.splitlines()[-1])
        # CLOCK_MONOTONIC is shared by all processes, so this spans process
        # start, imports and generating the program texts.
        out["setup_s"] = out["ready"] - started
        return out

    def end_to_end(self, hash_seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
        workers = [self.spawn(hash_seed, 0.0, "--setup-only") for _ in range(SETUP_REPEATS)]
        main = self.spawn(hash_seed, seconds, "--reference")
        workers.append(main)
        setups = [w["setup_s"] for w in workers]
        solves_per_s, geomean_ms = batch_metrics(main["passes"], at_reference_speed)
        wall_per_s, wall_geomean_ms = batch_metrics(main["passes"], wall_time)
        metrics = {
            "solves_per_s": solves_per_s,
            "solve_geomean_ms": geomean_ms,
            "setup_s": statistics.median(
                w["setup_s"] / w["setup_reference_s"] * reference.REFERENCE_S for w in workers
            ),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        details = {
            "setup_samples_s": setups,
            "setup_reference_s": [w["setup_reference_s"] for w in workers],
            "wall_solves_per_s": wall_per_s,
            "wall_solve_geomean_ms": wall_geomean_ms,
            "reference_median_s": statistics.median(s["reference_s"] for p in main["passes"] for s in p["solves"]),
        }
        return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, [main], details

    def per_layer(self, hash_seed: int, alt_hash_seed: int) -> tuple[dict, list[dict], dict]:
        plain = self.spawn(hash_seed)
        spans_file = OUT_DIR / f"spans-{self.workload}-seed{self.seed}.json"
        traced = self.spawn(hash_seed, 0.0, "--trace", "--spans", str(spans_file))
        alt = self.spawn(alt_hash_seed)
        if traced["counters"] != plain["counters"]:
            raise RunFailed(
                f"determinism gate: traced counters {traced['counters']} "
                f"differ from untraced counters {plain['counters']}"
            )
        layers = traced["layers"]
        counters = traced["counters"]
        counts = traced["counts"]
        runs = [plain, traced, alt]
        solves, failures = tally(runs)
        values = {name: layers.get(span, {}).get("self_s", 0.0) for name, span in LAYER_SPANS.items()}
        values.update({name: counters[key] for name, key in LAYER_COUNTERS.items()})
        check_calls = layers.get(LAYER_SPANS["grounder.check_s"], {}).get("calls", 0)
        propagate_s = values["strategies.eager_s"] + values["strategies.post_s"]
        traced_wall = traced["passes"][0]["wall_s"]
        plain_per_s, plain_geomean_ms = batch_metrics(plain["passes"], wall_time)
        values.update(
            {
                "grounder.atoms": counts.get("atoms", 0),
                "grounder.rules": counts.get("rules", 0),
                "grounder.check_calls": check_calls,
                "grounder.check_veto_ratio": ratio(counts.get("check_vetoes", 0), check_calls),
                "cdcl.propagations_per_s": ratio(counters["propagations"], values["cdcl.search_s"]),
                "strategies.nogoods_per_call": ratio(counters["propagator_nogoods"], counters["propagator_calls"]),
                "strategies.propagator_ms_per_call": 1000 * ratio(propagate_s, counters["propagator_calls"]),
                "timeout_share": ratio(sum(s["status"] == "TIMEOUT" for s in solves), len(solves)),
                "failed_share": ratio(len(failures), len(solves)),
                "wall.solves_per_s": plain_per_s,
                "wall.solve_geomean_ms": plain_geomean_ms,
                "trace.wall_s": traced_wall,
                "trace.overhead_s": traced_wall - plain["passes"][0]["wall_s"],
                "hashseed.changed_counters": sum(alt["counters"][k] != v for k, v in plain["counters"].items()),
            }
        )
        details = {
            "alt_hash_seed": alt_hash_seed,
            "hash_seed_counters": {str(hash_seed): plain["counters"], str(alt_hash_seed): alt["counters"]},
            "layer_share_of_traced_wall": {k: ratio(values[k], traced_wall) for k in LAYER_SPANS},
            "spans_file": str(spans_file.relative_to(ROOT)),
        }
        return {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}, runs, details


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(workload, seed, smoke)
    hash_seed, alt_hash_seed = hash_seeds(seed)
    if trace:
        metrics, runs, details = runner.per_layer(hash_seed, alt_hash_seed)
    else:
        metrics, runs, details = runner.end_to_end(hash_seed, seconds)
    solves, failures = tally(runs)
    result = {"correct": not failures, "attempted": len(solves), "failed": len(failures), "metrics": metrics}
    record = {
        "result": result,
        "provenance": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "smoke": smoke,
            "git_sha": git_sha(),
            "nproc": os.cpu_count(),
            "hash_seed": hash_seed,
            **runs[0]["provenance"],
        },
        "failures": failures,
        "details": details,
        "runs": runs,
    }
    name = f"{'smoke-' if smoke else ''}{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))
    return result


def smoke() -> int:
    """Every workload at tiny sizes, with and without tracing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run(workload, 1, 0.0, trace, smoke=True)
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{workload} trace={int(trace)}: metrics {got} differ from {section} {expected}")
            if result["failed"]:
                problems.append(f"{workload} trace={int(trace)}: {result['failed']} failed answers")
            print(workload, f"trace={int(trace)}", json.dumps(result))
    for problem in problems:
        print("SMOKE FAILED:", problem, file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "microasp" / "__init__.py").is_file():
        print(f"no micro-asp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
