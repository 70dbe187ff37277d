"""Golden search counters: every strategy on four small benchmark instances,
and the digests of their ground programs, as sorted text and read in order.

The counters are deterministic for a fixed solver seed and must not depend
on the interpreter's hash seed, so a change that moves any of them changed
the search, not only its speed.
"""
import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from microasp import benchgen, cdcl
from microasp.grounder import ground_program
from microasp.parser import parse_program
from microasp.strategies import solve
from support import CountedReads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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
    "marriage-n5": "ef661f878838aa4d42861bad386ab92a0a6077ccee5166a718dca23157c668bb",
    "packing-4x3": "e17b611a359fc2277e62c533e5a42e0c0a8f426bdaff95b7ab82a1a9475005c0",
    "packing-3x3": "9744ee4dfcc3bd2d280a3ca28acaf11e88b43552bea489b9dc34669beaa0367d",
}


@pytest.mark.parametrize("instance", sorted(GROUND_SHA256))
def test_ground_program_matches_golden(instance):
    text = ground_program(INSTANCES[instance](), include_deferred=True).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == GROUND_SHA256[instance]


def ordered_digest(programs) -> str:
    """SHA-256 of ground programs read in order: the atoms by id, the facts
    and the rules as stored.  `to_text` sorts its lines, so it pins what is
    grounded but not the order, which the solver's build and search follow."""
    data = [
        [[str(atom) for atom in gp.atoms], gp.facts, gp.rules] for gp in programs
    ]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


# instance -> SHA-256 of its ground program read in order, deferred
# constraints kept.
GROUND_ORDER_SHA256 = {
    "3sat-v20": "fc260fc3de7c73c4433fd80c35e4d75b7409c43802a441e5e2b55d4eec4ca149",
    "marriage-n5": "500a8e87f88e0141dc13b0e9d9e549a9e06757a0ce19c8ac42a3988999647c54",
    "packing-4x3": "0237bb15d09a26e58937f29951d68a2c93fe00fec16c1d74534029e9ecfecd08",
    "packing-3x3": "9d13e1c5deae702305fbc06d822b97004f386af0e8dd2e9a26c7a566f457309e",
}


@pytest.mark.parametrize("instance", sorted(GROUND_ORDER_SHA256))
def test_ground_program_order_matches_golden(instance):
    gp = ground_program(INSTANCES[instance](), include_deferred=True)
    assert ordered_digest([gp]) == GROUND_ORDER_SHA256[instance]


# SHA-256 of the ground programs of the benchmark's three workloads at seed
# 1, in workload, instance and strategy order, read in order.
WORKLOADS_ORDER_SHA256 = "86ee37be790dd01a0b252108403ccb02a88aff2838e6f2e88c810b508669114f"


def test_workload_groundings_order_matches_golden():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    programs = [
        ground_program(parse_program(inst.text), include_deferred=kind == "full")
        for workload in workloads.WORKLOADS.values()
        for inst in workload.instances(1)
        for kind in workload.strategies
    ]
    assert len(programs) == 48
    assert ordered_digest(programs) == WORKLOADS_ORDER_SHA256


def load_workloads():
    """perfbench's workload module, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


# (workload, instance, strategy) -> (status, counters in FIELDS order) of
# each solve of the two deferred workloads at benchmark seed 1, run as the
# benchmark runs them.  Their marriages and packings have heads with 9 to 36
# rules, past COMPLETION_MAX_RULES, so these searches run the support
# propagator, which no instance above reaches.
DEFERRED_GOLDEN = {
    ("deferred-ground", "marriage-n14-k30-s288545018", "full"): ("SAT", (29, 1, 0, 1, 0, 955, 0, 0, 0, 0, 0)),
    ("deferred-ground", "marriage-n14-k30-s288545018", "lazy"): ("SAT", (450, 28, 0, 29, 0, 3248, 17, 388, 0, 0, 0)),
    ("deferred-ground", "marriage-n14-k30-s135520872", "full"): ("SAT", (19, 0, 0, 0, 0, 821, 0, 0, 0, 0, 0)),
    ("deferred-ground", "marriage-n14-k30-s135520872", "lazy"): ("SAT", (52, 3, 0, 3, 0, 1135, 2, 26, 0, 0, 0)),
    ("deferred-ground", "marriage-n14-k30-s547756574", "full"): ("SAT", (14, 0, 0, 0, 0, 826, 0, 0, 0, 0, 0)),
    ("deferred-ground", "marriage-n14-k30-s547756574", "lazy"): ("SAT", (107, 11, 0, 11, 0, 1648, 7, 88, 0, 0, 0)),
    ("deferred-ground", "packing-6x6-3.3.2.2.1", "full"): ("SAT", (126, 28, 0, 28, 0, 1233, 0, 0, 0, 0, 0)),
    ("deferred-ground", "packing-6x6-3.3.2.2.1", "lazy"): ("SAT", (2913, 52, 1, 52, 0, 5002, 47, 616, 0, 0, 0)),
    ("deferred-ground", "packing-5x5-3.2.2.2", "full"): ("SAT", (8, 1, 0, 1, 0, 174, 0, 0, 0, 0, 0)),
    ("deferred-ground", "packing-5x5-3.2.2.2", "lazy"): ("SAT", (452, 25, 0, 25, 0, 799, 19, 237, 0, 0, 0)),
    ("deferred-ground", "packing-7x5-4.3.2.1.1", "full"): ("SAT", (6, 0, 0, 0, 0, 286, 0, 0, 0, 0, 0)),
    ("deferred-ground", "packing-7x5-4.3.2.1.1", "lazy"): ("SAT", (688, 12, 0, 12, 0, 1113, 10, 614, 0, 0, 0)),
    ("deferred-ground", "packing-6x6-4.2.2.2.2", "full"): ("SAT", (8, 0, 0, 0, 0, 266, 0, 0, 0, 0, 0)),
    ("deferred-ground", "packing-6x6-4.2.2.2.2", "lazy"): ("SAT", (167, 4, 0, 4, 0, 343, 1, 721, 0, 0, 0)),
    ("deferred-ground", "packing-5x5-3.3", "full"): ("UNSAT", (64, 16, 0, 15, 0, 263, 0, 0, 0, 0, 0)),
    ("deferred-ground", "packing-5x5-3.3", "lazy"): ("UNSAT", (165, 42, 1, 41, 0, 609, 33, 123, 0, 0, 0)),
    ("deferred-ground", "packing-6x6-4.3.1", "full"): ("UNSAT", (94, 30, 0, 29, 0, 1030, 0, 0, 0, 0, 0)),
    ("deferred-ground", "packing-6x6-4.3.1", "lazy"): ("UNSAT", (3785, 125, 2, 124, 0, 5558, 113, 369, 0, 0, 0)),
    ("deferred-propagate", "3sat-v24-r4.26-s38", "eager"): ("SAT", (6, 0, 0, 0, 0, 420, 0, 0, 426, 18, 0)),
    ("deferred-propagate", "3sat-v24-r4.26-s38", "post"): ("SAT", (65, 9, 0, 9, 0, 573, 0, 0, 75, 15, 0)),
    ("deferred-propagate", "3sat-v24-r4.26-s9", "eager"): ("SAT", (14, 2, 0, 2, 0, 488, 0, 0, 494, 24, 0)),
    ("deferred-propagate", "3sat-v24-r4.26-s9", "post"): ("SAT", (85, 23, 0, 23, 0, 829, 0, 0, 107, 29, 0)),
    ("deferred-propagate", "3sat-v24-r4.26-s46", "eager"): ("SAT", (20, 11, 0, 11, 0, 781, 0, 0, 748, 53, 0)),
    ("deferred-propagate", "3sat-v24-r4.26-s46", "post"): ("SAT", (102, 27, 0, 27, 0, 956, 0, 0, 130, 32, 0)),
    ("deferred-propagate", "3sat-v24-r4.26-s51", "eager"): ("SAT", (15, 8, 0, 8, 0, 704, 0, 0, 684, 54, 0)),
    ("deferred-propagate", "3sat-v24-r4.26-s51", "post"): ("SAT", (129, 37, 1, 37, 0, 1237, 0, 0, 163, 48, 0)),
    ("deferred-propagate", "3sat-v24-r4.26-s11", "eager"): ("SAT", (21, 15, 0, 15, 0, 1034, 0, 0, 987, 76, 0)),
    ("deferred-propagate", "3sat-v24-r4.26-s11", "post"): ("SAT", (138, 48, 1, 48, 0, 1594, 0, 0, 182, 59, 0)),
    ("deferred-propagate", "3sat-v24-r4.26-s33", "eager"): ("UNSAT", (13, 11, 0, 10, 0, 839, 0, 0, 800, 73, 0)),
    ("deferred-propagate", "3sat-v24-r4.26-s33", "post"): ("UNSAT", (143, 67, 2, 66, 0, 2144, 0, 0, 183, 63, 0)),
    ("deferred-propagate", "3sat-v24-r4.26-s32", "eager"): ("UNSAT", (16, 16, 0, 15, 0, 1026, 0, 0, 960, 80, 0)),
    ("deferred-propagate", "3sat-v24-r4.26-s32", "post"): ("UNSAT", (134, 59, 1, 58, 0, 2245, 0, 0, 173, 68, 0)),
    ("deferred-propagate", "3sat-v24-r4.26-s12", "eager"): ("UNSAT", (25, 21, 0, 20, 0, 1400, 0, 0, 1317, 91, 0)),
    ("deferred-propagate", "3sat-v24-r4.26-s12", "post"): ("UNSAT", (129, 75, 2, 74, 0, 2470, 0, 0, 170, 57, 0)),
    ("deferred-propagate", "marriage-n10-k30-s450874518", "eager"): ("SAT", (15, 0, 0, 0, 0, 425, 0, 0, 440, 23, 0)),
    ("deferred-propagate", "marriage-n10-k30-s450874518", "post"): ("SAT", (54, 2, 0, 2, 0, 536, 0, 0, 57, 4, 0)),
    ("deferred-propagate", "marriage-n10-k30-s201561926", "eager"): ("SAT", (24, 1, 0, 1, 0, 497, 0, 0, 444, 86, 0)),
    ("deferred-propagate", "marriage-n10-k30-s201561926", "post"): ("SAT", (399, 26, 0, 26, 0, 1483, 0, 0, 425, 50, 0)),
}


def test_deferred_workloads_search_matches_golden(monkeypatch):
    """The search of the deferred workloads is pinned, and it reaches both
    ends of the support propagator: the return on kept open bodies, which
    skips the scan, and the install of a derived nogood.  Each such return
    is checked against the scan it skipped: the head had as many open
    bodies (with no false literal) as it needs to derive nothing, one if
    undefined and two if true.  Every head here is true when it is
    checked."""
    workloads = load_workloads()
    check, install = cdcl.Solver._support_check, cdcl.Solver._install
    installs = []
    paths = Counter()

    def counted_install(solver, lits):
        installs.append(lits)
        return install(solver, lits)

    def spied_check(solver, head):
        if type(solver._defs) is not CountedReads:
            solver._defs = CountedReads(solver._defs)
        assign = solver._assign
        value = assign[head]
        bodies = dict.__getitem__(solver._defs, head)
        open_bodies = sum(-1 not in map(assign.__getitem__, body) for body in bodies)
        scans, installed = solver._defs.reads[head], len(installs)
        result = check(solver, head)
        if len(installs) > installed:
            paths["install"] += 1
        elif value != -1 and solver._defs.reads[head] == scans:
            paths["kept"] += 1
            assert open_bodies > value
        return result

    monkeypatch.setattr(cdcl.Solver, "_install", counted_install)
    monkeypatch.setattr(cdcl.Solver, "_support_check", spied_check)
    found = {}
    for name in ("deferred-ground", "deferred-propagate"):
        workload = workloads.WORKLOADS[name]
        for inst in workload.instances(1):
            for kind in workload.strategies:
                result = solve(
                    parse_program(inst.text),
                    kind,
                    seed=workloads.SOLVER_SEED,
                    budget=cdcl.Budget(max_conflicts=workloads.CONFLICT_BUDGET),
                )
                counters = tuple(getattr(result.stats, f) for f in FIELDS)
                found[name, inst.name, kind] = (result.status, counters)
    assert found == DEFERRED_GOLDEN
    assert paths["install"] and paths["kept"], paths


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
