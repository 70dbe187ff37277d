"""The benchmark's own gates on the smoke sizes of each workload: the worker
must finish, check every answer and reproduce the recorded search counters
and grounding sizes, so a change that moves the search of a strategy, or the
ground program of a benchmark family, fails here first."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

ZERO = dict.fromkeys(
    [
        "decisions",
        "conflicts",
        "restarts",
        "learned",
        "deleted",
        "propagations",
        "invalidations",
        "lazy_added",
        "propagator_calls",
        "propagator_nogoods",
        "unfounded_vetoes",
    ],
    0,
)

# Summed SolveStats of one smoke pass of deferred-propagate at seed 1.
COUNTERS = {
    **ZERO,
    "decisions": 70,
    "conflicts": 29,
    "learned": 29,
    "propagations": 1267,
    "propagator_calls": 637,
    "propagator_nogoods": 89,
}

# Summed SolveStats, and the traced ground atoms and rules summed over the
# solves, of one smoke pass at seed 1.
RECORDED = {
    "deferred-propagate": (COUNTERS, 876, 400),
    "deferred-ground": (
        {
            **ZERO,
            "decisions": 64,
            "conflicts": 24,
            "learned": 22,
            "propagations": 519,
            "invalidations": 15,
            "lazy_added": 50,
        },
        372,
        732,
    ),
    "sat-search": (
        {**ZERO, "decisions": 48, "conflicts": 22, "learned": 21, "propagations": 2189},
        1420,
        660,
    ),
}


def check_smoke(workload):
    env = dict(os.environ, PYTHONHASHSEED="5")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "worker.py"),
            "--workload",
            workload,
            "--seed",
            "1",
            "--smoke",
            "--trace",
        ],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["passes"]
    assert all(p["failures"] == [] for p in record["passes"])
    counters, atoms, rules = RECORDED[workload]
    assert record["counters"] == counters
    assert (record["counts"]["atoms"], record["counts"]["rules"]) == (atoms, rules)


def test_deferred_propagate_smoke_passes_its_gates():
    check_smoke("deferred-propagate")


@pytest.mark.parametrize("workload", ["deferred-ground", "sat-search"])
def test_smoke_passes_its_gates(workload):
    check_smoke(workload)
