"""Golden search counters: every strategy on four small benchmark instances,
and the digests of their ground programs.

The counters are deterministic for a fixed solver seed and must not depend
on the interpreter's hash seed, so a change that moves any of them changed
the search, not only its speed.
"""
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from microasp import benchgen, cdcl
from microasp.grounder import ground_program
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
    ("packing-4x3", "lazy"): ("SAT", (16, 2, 0, 2, 0, 43, 1, 26, 0, 0, 0)),
    ("packing-4x3", "eager"): ("SAT", (2, 0, 0, 0, 0, 36, 0, 0, 38, 9, 0)),
    ("packing-4x3", "post"): ("SAT", (20, 6, 0, 6, 0, 46, 0, 0, 27, 8, 0)),
    ("packing-3x3", "full"): ("UNSAT", (7, 6, 0, 5, 0, 71, 0, 0, 0, 0, 0)),
    ("packing-3x3", "lazy"): ("UNSAT", (32, 15, 0, 14, 0, 120, 13, 18, 0, 0, 0)),
    ("packing-3x3", "eager"): ("UNSAT", (7, 6, 0, 5, 0, 71, 0, 0, 50, 22, 0)),
    ("packing-3x3", "post"): ("UNSAT", (30, 18, 0, 17, 0, 137, 0, 0, 47, 17, 0)),
}


@pytest.mark.parametrize("instance,kind", sorted(GOLDEN))
def test_counters_match_golden(instance, kind):
    result = solve(INSTANCES[instance](), kind, seed=1)
    status, counters = GOLDEN[instance, kind]
    assert result.status == status
    assert dataclasses.asdict(result.stats) == dict(zip(FIELDS, counters))


# strategy -> (status, counters in FIELDS order) of gen_3sat(80, 4.26, 3) at
# seed 1, with learned-nogood deletion from 200 active nogoods on (50 more
# per round): a search long enough to restart, delete learned nogoods and
# compact the decision heap, which the instances above never do.
LONG_GOLDEN = {
    "full": ("UNSAT", (450, 373, 6, 372, 208, 39935, 0, 0, 0, 0, 0)),
    "lazy": ("UNSAT", (1025, 538, 10, 538, 331, 56949, 20, 298, 0, 0, 0)),
    "eager": ("UNSAT", (465, 394, 7, 393, 211, 41802, 0, 0, 38940, 339, 0)),
    "post": ("UNSAT", (1904, 704, 13, 703, 390, 68481, 0, 0, 2099, 281, 0)),
}


@pytest.mark.parametrize("kind", sorted(LONG_GOLDEN))
def test_long_search_counters_match_golden(kind, monkeypatch):
    monkeypatch.setattr(cdcl, "DELETION_BASE", 200)
    monkeypatch.setattr(cdcl, "DELETION_STEP", 50)
    result = solve(benchgen.gen_3sat(80, 4.26, 3), kind, seed=1)
    status, counters = LONG_GOLDEN[kind]
    assert result.status == status
    assert dataclasses.asdict(result.stats) == dict(zip(FIELDS, counters))


# instance -> SHA-256 of its ground program's text, deferred constraints kept.
GROUND_SHA256 = {
    "3sat-v20": "9927d2dfb7b7a1493f7429f9ee8838749439c36c19ba629c51715418b0e7be27",
    "marriage-n5": "96fec53c3682bc16732c6af18c5a4060d2834e17f43e7f1a87bbf41167656b37",
    "packing-4x3": "9bbe488799e49b67df855ef4b7a4262fab2e62088083e0e3fa63d8d59c9bf515",
    "packing-3x3": "ba8a418006e0e86bf139c84e60139b2087e4a2e5628f89424d52aaee2507230c",
}


@pytest.mark.parametrize("instance", sorted(GROUND_SHA256))
def test_ground_program_matches_golden(instance):
    text = ground_program(INSTANCES[instance](), include_deferred=True).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == GROUND_SHA256[instance]


LAZY_STATS_SCRIPT = """
import dataclasses, json
from microasp import benchgen
from microasp.grounder import ground_program
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
