"""The benchmark's own gates on the smallest propagator workload: the worker
must finish, check every answer and reproduce the recorded search counters,
so a change that moves the search of `eager` or `post` fails here first."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Summed SolveStats of one smoke pass of deferred-propagate at seed 1.
COUNTERS = {
    "decisions": 70,
    "conflicts": 29,
    "restarts": 0,
    "learned": 29,
    "deleted": 0,
    "propagations": 1267,
    "invalidations": 0,
    "lazy_added": 0,
    "propagator_calls": 637,
    "propagator_nogoods": 89,
    "unfounded_vetoes": 0,
}


def test_deferred_propagate_smoke_passes_its_gates():
    env = dict(os.environ, PYTHONHASHSEED="5")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "worker.py"),
            "--workload",
            "deferred-propagate",
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
    assert record["counters"] == COUNTERS
