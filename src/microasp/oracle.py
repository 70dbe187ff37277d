"""Brute-force semantic ground truth for small ground programs.

Stability is checked by the reduct construction: a total interpretation is
stable iff it is a model of the program and its positive atoms equal the
least model of the reduct's definite rules.  The program is read in its
tuple form (head variable or 0, body literals); interpretations and models
are sets of atoms.  The tests check the grounder and the four strategies
against these functions; rule semantics are stated here once, in
`is_model`.
"""
from __future__ import annotations

import itertools
from typing import Iterable

from .grounder import GroundProgram
from .model import Atom

#: Enumeration guard: assignments are enumerated over atoms that are neither
#: facts nor underivable, capped at this many free atoms.
MAX_FREE_ATOMS = 24


def _vars(gp: GroundProgram, atoms: Iterable[Atom]) -> set[int]:
    """The variables of the atoms that are in the program's index."""
    return {gp.atoms.id_of(a) + 1 for a in atoms if a in gp.atoms}


def reduct(gp: GroundProgram, true_atoms: Iterable[Atom]) -> GroundProgram:
    """Delete rules whose negative body is false w.r.t. the interpretation,
    then strip the negative body from the survivors."""
    truths = _vars(gp, true_atoms)
    facts = dict.fromkeys(gp.facts)
    rules: dict[tuple, None] = {}
    for head, body in gp.rules:
        if any(l < 0 and -l in truths for l in body):
            continue
        body = tuple(l for l in body if l > 0)
        if head and not body:
            facts[head] = None
        else:
            rules[head, body] = None
    return GroundProgram(gp.atoms, tuple(facts), tuple(rules))


def least_model(gp: GroundProgram) -> frozenset[Atom]:
    """Least fixpoint of the definite rules of a positive program."""
    derived = set(gp.facts)
    changed = True
    while changed:
        changed = False
        for head, body in gp.rules:
            if head and head not in derived and all(l in derived for l in body):
                derived.add(head)
                changed = True
    return frozenset(gp.atoms.atom(v - 1) for v in derived)


def is_model(gp: GroundProgram, true_atoms: frozenset[Atom]) -> bool:
    """True iff every fact is true and no rule has a true body and a head
    that is not true (a constraint's head, 0, never is)."""
    truths = _vars(gp, true_atoms)
    for head, body in gp.rules:
        if all((abs(l) in truths) == (l > 0) for l in body) and head not in truths:
            return False
    return truths.issuperset(gp.facts)


def is_stable_model(gp: GroundProgram, true_atoms: Iterable[Atom]) -> bool:
    """True iff the total interpretation given by its true atoms is stable."""
    truths = frozenset(true_atoms)
    return is_model(gp, truths) and least_model(reduct(gp, truths)) == truths


def enumerate_stable_models(
    gp: GroundProgram, max_free: int = MAX_FREE_ATOMS
) -> list[frozenset[Atom]]:
    """All stable models, by exhaustive assignment enumeration.

    Facts are pinned true and atoms with no deriving rule are pinned false;
    the remaining atoms are enumerated, guarded at `max_free`.
    """
    heads = {head for head, _ in gp.rules} - set(gp.facts)
    free = [gp.atoms.atom(v - 1) for v in range(1, len(gp.atoms) + 1) if v in heads]
    if len(free) > max_free:
        raise ValueError(
            f"{len(free)} free atoms exceed the enumeration guard of {max_free}"
        )
    models: list[frozenset[Atom]] = []
    base = frozenset(gp.atoms.atom(v - 1) for v in gp.facts)
    for bits in itertools.product((False, True), repeat=len(free)):
        candidate = base | {atom for atom, bit in zip(free, bits) if bit}
        if is_stable_model(gp, candidate):
            models.append(candidate)
    models.sort(key=lambda m: sorted(str(a) for a in m))
    return models

