"""Golden search counters: every strategy on four small benchmark instances.

The counters are deterministic for a fixed solver seed and must not depend
on the interpreter's hash seed, so a change that moves any of them changed
the search, not only its speed.
"""
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from microasp import benchgen
from microasp.strategies import solve

SRC = Path(__file__).resolve().parents[1] / "src"

INSTANCES = {
    "3sat-v20": lambda: benchgen.gen_3sat(20, 4.26, 1),
    "marriage-n5": lambda: benchgen.gen_marriage(5, 30, 1),
    "packing-4x3": lambda: benchgen.gen_packing(4, 3, (2, 2)),
    "packing-3x3": lambda: benchgen.gen_packing(3, 3, (2, 2)),
}

FIELDS = (
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
)

# (instance, strategy) -> (status, counters in FIELDS order), seed=1.
GOLDEN = {
    ("3sat-v20", "full"): ("SAT", (9, 0, 0, 0, 0, 346, 0, 0, 0, 0, 0)),
    ("3sat-v20", "lazy"): ("SAT", (26, 1, 0, 1, 0, 365, 1, 5, 0, 0, 0)),
    ("3sat-v20", "eager"): ("SAT", (9, 0, 0, 0, 0, 346, 0, 0, 355, 11, 0)),
    ("3sat-v20", "post"): ("SAT", (34, 3, 0, 3, 0, 393, 0, 0, 38, 4, 0)),
    ("marriage-n5", "full"): ("SAT", (4, 0, 0, 0, 0, 116, 0, 0, 0, 0, 0)),
    ("marriage-n5", "lazy"): ("SAT", (7, 1, 0, 1, 0, 145, 1, 4, 0, 0, 0)),
    ("marriage-n5", "eager"): ("SAT", (4, 0, 0, 0, 0, 116, 0, 0, 120, 2, 0)),
    ("marriage-n5", "post"): ("SAT", (7, 1, 0, 1, 0, 145, 0, 0, 9, 4, 0)),
    ("packing-4x3", "full"): ("SAT", (2, 0, 0, 0, 0, 36, 0, 0, 0, 0, 0)),
    ("packing-4x3", "lazy"): ("SAT", (16, 2, 0, 2, 0, 43, 1, 60, 0, 0, 0)),
    ("packing-4x3", "eager"): ("SAT", (2, 0, 0, 0, 0, 36, 0, 0, 38, 9, 0)),
    ("packing-4x3", "post"): ("SAT", (20, 6, 0, 6, 0, 46, 0, 0, 27, 8, 0)),
    ("packing-3x3", "full"): ("UNSAT", (7, 6, 0, 5, 0, 71, 0, 0, 0, 0, 0)),
    ("packing-3x3", "lazy"): ("UNSAT", (32, 15, 0, 14, 0, 120, 13, 28, 0, 0, 0)),
    ("packing-3x3", "eager"): ("UNSAT", (7, 6, 0, 5, 0, 71, 0, 0, 50, 22, 0)),
    ("packing-3x3", "post"): ("UNSAT", (30, 18, 0, 17, 0, 137, 0, 0, 47, 17, 0)),
}


@pytest.mark.parametrize("instance,kind", sorted(GOLDEN))
def test_counters_match_golden(instance, kind):
    result = solve(INSTANCES[instance](), kind, seed=1)
    status, counters = GOLDEN[instance, kind]
    assert result.status == status
    assert dataclasses.asdict(result.stats) == dict(zip(FIELDS, counters))


LAZY_STATS_SCRIPT = """
import dataclasses, json
from microasp import benchgen
from microasp.strategies import solve
result = solve(benchgen.gen_packing(4, 3, (2, 2)), "lazy", seed=1)
print(json.dumps([result.status, dataclasses.asdict(result.stats)]))
"""


def _lazy_stats(hash_seed: str) -> list:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", LAZY_STATS_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return json.loads(out.stdout)


def test_lazy_counters_do_not_depend_on_hash_seed():
    assert _lazy_stats("1") == _lazy_stats("3")
