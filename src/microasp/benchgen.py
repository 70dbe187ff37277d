"""Benchmark instance generators and the independent checkers used to
validate solver output on them.

All generators are deterministic in their seed and emit program text in the
input syntax; the expensive constraints of each family carry the
`%@deferred` annotation.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional

from .model import Atom, Program
from .parser import parse_program


# --------------------------------------------------------------------- 3-SAT


@dataclass(frozen=True)
class SatInstance:
    v: int
    ratio: float
    seed: int
    clauses: tuple[tuple[int, int, int], ...]  # signed variable ids, distinct vars


def make_3sat(v: int, ratio: float, seed: int) -> SatInstance:
    """Uniform random 3-SAT: round(ratio*v) clauses over v variables, three
    distinct variables per clause with independent random signs."""
    if v < 3:
        raise ValueError("need at least 3 variables")
    if not 0 <= ratio < math.inf:
        raise ValueError(f"clause ratio {ratio} is not finite and non-negative")
    rng = random.Random(seed)
    n_clauses = int(ratio * v + 0.5)
    clauses = []
    for _ in range(n_clauses):
        chosen = rng.sample(range(1, v + 1), 3)
        clauses.append(
            tuple(var if rng.getrandbits(1) else -var for var in chosen)
        )
    return SatInstance(v, ratio, seed, tuple(clauses))


def sat_program_text(instance: SatInstance) -> str:
    """Guess a truth value per variable; one deferred constraint forbids a
    clause with all three literals false (sign 1 = positive, 0 = negated)."""
    lines = [f"% 3sat v={instance.v} ratio={instance.ratio} seed={instance.seed}"]
    for i in range(1, instance.v + 1):
        lines.append(f"var({i}).")
    for cid, clause in enumerate(instance.clauses, start=1):
        for slot, lit in enumerate(clause, start=1):
            sign = 1 if lit > 0 else 0
            lines.append(f"clause({cid},{slot},{abs(lit)},{sign}).")
    lines += [
        "t(X) :- var(X), not f(X).",
        "f(X) :- var(X), not t(X).",
        "val(X,1) :- t(X).",
        "val(X,0) :- f(X).",
        "%@deferred",
        ":- clause(C,1,V1,S1), val(V1,F1), F1 != S1, "
        "clause(C,2,V2,S2), val(V2,F2), F2 != S2, "
        "clause(C,3,V3,S3), val(V3,F3), F3 != S3.",
    ]
    return "\n".join(lines) + "\n"


def gen_3sat(v: int, ratio: float, seed: int) -> Program:
    return parse_program(sat_program_text(make_3sat(v, ratio, seed)))


def clause_satisfied(clause: Iterable[int], assignment: dict[int, bool]) -> bool:
    return any(assignment[abs(lit)] == (lit > 0) for lit in clause)


def brute_force_sat(instance: SatInstance) -> bool:
    """Exhaustive satisfiability check: whether one of the 2^v assignments
    satisfies every clause."""
    variables = range(1, instance.v + 1)
    for values in itertools.product((False, True), repeat=instance.v):
        assignment = dict(zip(variables, values))
        if all(clause_satisfied(c, assignment) for c in instance.clauses):
            return True
    return False


def sat_model_assignment(true_atoms: Iterable[Atom]) -> dict[int, bool]:
    """Variable assignment encoded by the t/f atoms of a model."""
    out: dict[int, bool] = {}
    for atom in true_atoms:
        if atom.predicate == "t":
            out[atom.args[0]] = True
        elif atom.predicate == "f":
            out[atom.args[0]] = False
    return out


# ----------------------------------------------------------- stable marriage


@dataclass(frozen=True)
class MarriageInstance:
    n: int
    k: int
    seed: int
    man_scores: dict[tuple[int, int], int]  # (man, woman) -> score
    woman_scores: dict[tuple[int, int], int]  # (woman, man) -> score


def make_marriage(n: int, k: int, seed: int) -> MarriageInstance:
    """Every person scores every candidate 2, except floor(k*n/100) of them
    (chosen uniformly per person) who get the lower score 1."""
    if n <= 0:
        raise ValueError("need a positive number of persons")
    if not 0 <= k <= 100:
        raise ValueError("perturbation percentage must be within 0..100")
    rng = random.Random(seed)
    lowered = k * n // 100
    man_scores = {}
    woman_scores = {}
    for man in range(1, n + 1):
        low = set(rng.sample(range(1, n + 1), lowered))
        for woman in range(1, n + 1):
            man_scores[(man, woman)] = 1 if woman in low else 2
    for woman in range(1, n + 1):
        low = set(rng.sample(range(1, n + 1), lowered))
        for man in range(1, n + 1):
            woman_scores[(woman, man)] = 1 if man in low else 2
    return MarriageInstance(n, k, seed, man_scores, woman_scores)


def marriage_program_text(instance: MarriageInstance) -> str:
    """Guess a perfect matching; the stability condition is deferred."""
    n = instance.n
    lines = [f"% marriage n={n} k={instance.k} seed={instance.seed}"]
    for i in range(1, n + 1):
        lines.append(f"man({i}).")
    for i in range(1, n + 1):
        lines.append(f"woman({i}).")
    for (man, woman), score in sorted(instance.man_scores.items()):
        lines.append(f"manAssignsScore({man},{woman},{score}).")
    for (woman, man), score in sorted(instance.woman_scores.items()):
        lines.append(f"womanAssignsScore({woman},{man},{score}).")
    lines += [
        "match(M,W) :- man(M), woman(W), not nonmatch(M,W).",
        "nonmatch(M,W) :- man(M), woman(W), not match(M,W).",
        ":- match(M,W1), match(M,W2), W1 != W2.",
        ":- match(M1,W), match(M2,W), M1 != M2.",
        "man_matched(M) :- match(M,W).",
        ":- man(M), not man_matched(M).",
        "woman_matched(W) :- match(M,W).",
        ":- woman(W), not woman_matched(W).",
        "%@deferred",
        ":- match(M,W1), manAssignsScore(M,W,Smw), W1 != W, "
        "manAssignsScore(M,W1,Smw1), Smw > Smw1, match(M1,W), "
        "womanAssignsScore(W,M,Swm), womanAssignsScore(W,M1,Swm1), Swm >= Swm1.",
    ]
    return "\n".join(lines) + "\n"


def gen_marriage(n: int, k: int, seed: int) -> Program:
    return parse_program(marriage_program_text(make_marriage(n, k, seed)))


def matching_of_model(true_atoms: Iterable[Atom]) -> frozenset[tuple[int, int]]:
    return frozenset(
        (atom.args[0], atom.args[1])
        for atom in true_atoms
        if atom.predicate == "match"
    )


def is_stable_matching(
    instance: MarriageInstance, matching: Iterable[tuple[int, int]]
) -> bool:
    """No pair (m, w) where m strictly prefers w to his partner while w
    weakly prefers m to hers (the deferred condition, ties included)."""
    wife = dict(matching)
    husband = {w: m for m, w in wife.items()}
    for man, woman in itertools.product(wife, husband):
        if wife[man] == woman:
            continue
        if (
            instance.man_scores[(man, woman)] > instance.man_scores[(man, wife[man])]
            and instance.woman_scores[(woman, man)]
            >= instance.woman_scores[(woman, husband[woman])]
        ):
            return False
    return True


def brute_force_stable_matchings(
    instance: MarriageInstance,
) -> set[frozenset[tuple[int, int]]]:
    n = instance.n
    out = set()
    for perm in itertools.permutations(range(1, n + 1)):
        matching = frozenset((m, w) for m, w in zip(range(1, n + 1), perm))
        if is_stable_matching(instance, matching):
            out.add(matching)
    return out


# ---------------------------------------------------------------- packing


@dataclass(frozen=True)
class PackingInstance:
    width: int
    height: int
    sizes: tuple[int, ...]


def make_packing(width: int, height: int, sizes: Iterable[int]) -> PackingInstance:
    sizes = tuple(sizes)
    if width < 1 or height < 1:
        raise ValueError("rectangle sides must be at least 1")
    if any(s < 1 for s in sizes):
        raise ValueError("square sizes must be positive")
    return PackingInstance(width, height, sizes)


def packing_program_text(instance: PackingInstance) -> str:
    """Guess one grid position per square (0-based corner coordinates);
    single-position and no-overlap constraints are deferred."""
    lines = [
        f"% packing w={instance.width} h={instance.height} "
        f"sizes={','.join(map(str, instance.sizes)) or '-'}"
    ]
    for i, size in enumerate(instance.sizes, start=1):
        lines.append(f"square({i},{size}).")
        for x in range(0, instance.width - size + 1):
            lines.append(f"xdom({i},{x}).")
        for y in range(0, instance.height - size + 1):
            lines.append(f"ydom({i},{y}).")
    lines += [
        "pos(I,X,Y) :- xdom(I,X), ydom(I,Y), not negpos(I,X,Y).",
        "negpos(I,X,Y) :- xdom(I,X), ydom(I,Y), not pos(I,X,Y).",
        "placed(I) :- pos(I,X,Y).",
        ":- square(I,D), not placed(I).",
        "%@deferred",
        ":- pos(I,X,Y), pos(I,X1,Y1), X1 != X.",
        "%@deferred",
        ":- pos(I,X,Y), pos(I,X1,Y1), Y1 != Y.",
        "%@deferred",
        ":- pos(I1,X1,Y1), square(I1,D1), pos(I2,X2,Y2), square(I2,D2), "
        "I1 != I2, W1 = X1+D1, H1 = Y1+D1, "
        "X2 >= X1, X2 < W1, Y2 >= Y1, Y2 < H1.",
        "%@deferred",
        ":- pos(I1,X1,Y1), square(I1,D1), pos(I2,X2,Y2), square(I2,D2), "
        "I1 != I2, W1 = X1+D1, H2 = Y2+D2, "
        "X2 >= X1, X2 < W1, Y2 < Y1, Y1 < H2.",
    ]
    return "\n".join(lines) + "\n"


def gen_packing(width: int, height: int, sizes: Iterable[int]) -> Program:
    return parse_program(packing_program_text(make_packing(width, height, sizes)))


def verify_packing(
    instance: PackingInstance, true_atoms: Iterable[Atom]
) -> list[str]:
    """In-bounds, one-position-per-square, and pairwise-overlap check,
    independent of the encoding.  Returns human-readable problems."""
    problems = []
    positions: dict[int, list[tuple[int, int]]] = {
        i: [] for i in range(1, len(instance.sizes) + 1)
    }
    for atom in true_atoms:
        if atom.predicate == "pos":
            square, x, y = atom.args
            positions[square].append((x, y))
    for square, spots in positions.items():
        size = instance.sizes[square - 1]
        if len(spots) != 1:
            problems.append(f"square {square} has {len(spots)} positions")
            continue
        x, y = spots[0]
        if not (0 <= x and x + size <= instance.width):
            problems.append(f"square {square} crosses the x bound at {x}")
        if not (0 <= y and y + size <= instance.height):
            problems.append(f"square {square} crosses the y bound at {y}")
    placed = [
        (sq, spots[0]) for sq, spots in positions.items() if len(spots) == 1
    ]
    for (s1, (x1, y1)), (s2, (x2, y2)) in itertools.combinations(placed, 2):
        d1 = instance.sizes[s1 - 1]
        d2 = instance.sizes[s2 - 1]
        if x1 < x2 + d2 and x2 < x1 + d1 and y1 < y2 + d2 and y2 < y1 + d1:
            problems.append(f"squares {s1} and {s2} overlap")
    return problems


def packing_feasible_brute(instance: PackingInstance) -> Optional[bool]:
    """Exhaustive placement search; None when the grid is too large."""
    spots_per_square = []
    combos = 1
    for size in instance.sizes:
        spots = [
            (x, y)
            for x in range(0, instance.width - size + 1)
            for y in range(0, instance.height - size + 1)
        ]
        if not spots:
            return False
        combos *= len(spots)
        if combos > 2_000_000:
            return None
        spots_per_square.append(spots)
    for placement in itertools.product(*spots_per_square):
        ok = True
        for (i, (x1, y1)), (j, (x2, y2)) in itertools.combinations(
            enumerate(placement), 2
        ):
            d1, d2 = instance.sizes[i], instance.sizes[j]
            if x1 < x2 + d2 and x2 < x1 + d1 and y1 < y2 + d2 and y2 < y1 + d1:
                ok = False
                break
        if ok:
            return True
    return False
