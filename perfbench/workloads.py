"""The benchmark's workloads and the independent checks of every answer.

A workload is a fixed batch of solves, one per (instance, strategy) pair,
built from the benchmark seed.  The solver sees only the generated program
text; the benchgen instance objects stay here for the checkers.

Random 3-SAT instances come from pools recorded once in `pools.json` by
`make_pools.py`.  Solve time varies about tenfold between instances of one
size, so a batch of a handful of them drawn at random would make the
benchmark measure the draw.  Each pool is therefore sorted by the work
recorded with it (propagations) and cut into equal strata, and a seed draws
one instance from each stratum: every seed gets its own instances but the
same mix of easy and hard ones.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from microasp import benchgen
from microasp.cdcl import SAT, TIMEOUT, UNSAT

CONFLICT_BUDGET = 20_000
SOLVER_SEED = 1
POOLS_FILE = Path(__file__).with_name("pools.json")


@dataclass(frozen=True)
class Instance:
    name: str
    family: str  # "3sat", "marriage" or "packing"
    params: dict
    spec: object  # the benchgen instance, read only by the checkers
    text: str
    expected: Optional[str] = None  # status recorded in the pool, if any


def sat_instance(v: int, ratio: float, seed: int, expected: Optional[str] = None) -> Instance:
    spec = benchgen.make_3sat(v, ratio, seed)
    return Instance(
        f"3sat-v{v}-r{ratio}-s{seed}",
        "3sat",
        {"v": v, "ratio": ratio, "seed": seed},
        spec,
        benchgen.sat_program_text(spec),
        expected,
    )


def marriage_instance(n: int, k: int, seed: int) -> Instance:
    spec = benchgen.make_marriage(n, k, seed)
    return Instance(
        f"marriage-n{n}-k{k}-s{seed}",
        "marriage",
        {"n": n, "k": k, "seed": seed},
        spec,
        benchgen.marriage_program_text(spec),
    )


def packing_instance(width: int, height: int, sizes: tuple[int, ...]) -> Instance:
    spec = benchgen.make_packing(width, height, sizes)
    return Instance(
        f"packing-{width}x{height}-{'.'.join(map(str, sizes))}",
        "packing",
        {"width": width, "height": height, "sizes": list(sizes)},
        spec,
        benchgen.packing_program_text(spec),
    )


@dataclass(frozen=True)
class SatPool:
    """Instance seeds 0..size-1 of uniform 3-SAT at (v, ratio).

    The summed propagations of `strategies`, those of the workload, order
    the pool.  `confirm` are run besides them when the pool is recorded, and
    every status is recorded only when all of these strategies agree on it.
    """

    v: int
    ratio: float
    size: int
    strata: int
    strategies: tuple[str, ...]
    confirm: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return f"3sat-v{self.v}-r{self.ratio}"

    def draw(self, rng: random.Random, recorded: dict) -> list[Instance]:
        entries = recorded[self.key]
        if len(entries) != self.size:
            raise ValueError(f"pool {self.key} holds {len(entries)} entries, not {self.size}")
        width = self.size // self.strata
        picks = [rng.choice(entries[i * width : (i + 1) * width]) for i in range(self.strata)]
        return [sat_instance(self.v, self.ratio, e["seed"], e["status"]) for e in picks]


@dataclass(frozen=True)
class Workload:
    name: str
    strategies: tuple[str, ...]
    pool: Optional[SatPool] = None
    marriages: Optional[tuple[int, int, int]] = None  # (n, k, how many seeds)
    packings: tuple[tuple[int, int, tuple[int, ...]], ...] = ()

    def instances(self, seed: int) -> list[Instance]:
        rng = random.Random(seed)
        out: list[Instance] = []
        if self.pool is not None:
            out += self.pool.draw(rng, json.loads(POOLS_FILE.read_text()))
        if self.marriages is not None:
            n, k, count = self.marriages
            out += [marriage_instance(n, k, rng.randrange(1 << 30)) for _ in range(count)]
        out += [packing_instance(w, h, sizes) for w, h, sizes in self.packings]
        return out

    def params(self) -> dict:
        """The instance parameters, for the provenance of every result."""
        return {
            "strategies": list(self.strategies),
            "sat_pool": None
            if self.pool is None
            else {"v": self.pool.v, "ratio": self.pool.ratio, "size": self.pool.size, "strata": self.pool.strata},
            "marriages": None
            if self.marriages is None
            else dict(zip(("n", "k", "count"), self.marriages)),
            "packings": [[w, h, list(sizes)] for w, h, sizes in self.packings],
        }


WORKLOADS = {
    # CDCL search dominates; no deferred work, the largest learned-clause store.
    "sat-search": Workload(
        "sat-search",
        ("full",),
        pool=SatPool(130, 4.26, size=100, strata=10, strategies=("full",), confirm=("lazy",)),
    ),
    # Grounding the whole program (full) against grounding all but the
    # deferred constraints and checking total candidates (lazy).
    "deferred-ground": Workload(
        "deferred-ground",
        ("full", "lazy"),
        marriages=(14, 30, 3),
        packings=(
            (6, 6, (3, 3, 2, 2, 1)),
            (5, 5, (3, 2, 2, 2)),
            (7, 5, (4, 3, 2, 1, 1)),
            (6, 6, (4, 2, 2, 2, 2)),
            (5, 5, (3, 3)),
            (6, 6, (4, 3, 1)),
        ),
    ),
    # The eager and post propagators join the deferred constraints against
    # the solver assignment.
    "deferred-propagate": Workload(
        "deferred-propagate",
        ("eager", "post"),
        pool=SatPool(24, 4.26, size=64, strata=8, strategies=("eager", "post")),
        marriages=(10, 30, 2),
    ),
}

SMOKE_WORKLOADS = {
    "sat-search": Workload(
        "sat-search",
        ("full",),
        pool=SatPool(20, 4.26, size=8, strata=4, strategies=("full",), confirm=("lazy",)),
    ),
    "deferred-ground": Workload(
        "deferred-ground",
        ("full", "lazy"),
        marriages=(5, 30, 1),
        packings=((4, 3, (2, 2)), (3, 3, (2, 2))),
    ),
    "deferred-propagate": Workload(
        "deferred-propagate",
        ("eager", "post"),
        pool=SatPool(10, 4.26, size=4, strata=2, strategies=("eager", "post")),
        marriages=(4, 30, 1),
    ),
}

POOLS = [w.pool for w in (*WORKLOADS.values(), *SMOKE_WORKLOADS.values()) if w.pool is not None]


# ------------------------------------------------------------------ checks


def model_problem(inst: Instance, model) -> Optional[str]:
    """Why a returned model is not a solution of the instance, or None."""
    if inst.family == "3sat":
        assignment = benchgen.sat_model_assignment(model)
        if sorted(assignment) != list(range(1, inst.spec.v + 1)):
            return "the model leaves a variable unassigned"
        for clause in inst.spec.clauses:
            if not benchgen.clause_satisfied(clause, assignment):
                return f"clause {clause} is false"
        return None
    if inst.family == "marriage":
        matching = benchgen.matching_of_model(model)
        people = range(1, inst.spec.n + 1)
        if sorted(m for m, _ in matching) != list(people) or sorted(w for _, w in matching) != list(people):
            return "the matching is not perfect"
        if not benchgen.is_stable_matching(inst.spec, matching):
            return "the matching is not stable"
        return None
    problems = benchgen.verify_packing(inst.spec, model)
    return "; ".join(problems) or None


def unsat_problem(inst: Instance, kind: str, statuses: dict[str, str]) -> Optional[str]:
    """Why an UNSAT answer is not confirmed, or None.

    `statuses` maps every strategy of the workload to its answer on the
    instance in the same pass.
    """
    if inst.family == "packing":
        feasible = benchgen.packing_feasible_brute(inst.spec)
        if feasible is not None:
            return "the brute-force search packs the squares" if feasible else None
    others = {k: s for k, s in statuses.items() if k != kind}
    if inst.expected is None and not others:
        return "nothing confirms the answer"
    if inst.expected not in (None, UNSAT):
        return f"the recorded status is {inst.expected}"
    wrong = {k: s for k, s in others.items() if s != UNSAT}
    return f"other strategies answered {wrong}" if wrong else None


def answer_problem(inst: Instance, kind: str, result, statuses: dict[str, str]) -> Optional[str]:
    """Why one solve's answer fails its check, or None; a timeout is not checked."""
    if result.status == SAT:
        return model_problem(inst, result.model)
    if result.status == UNSAT:
        return unsat_problem(inst, kind, statuses)
    if result.status == TIMEOUT:
        return None
    return f"unknown status {result.status!r}"
