"""Brute-force semantic ground truth for small ground programs.

Stability is checked by the reduct construction: a total interpretation is
stable iff it is a model of the program and its positive atoms equal the
least model of the reduct's definite rules.  The program is read in its
tuple form (head variable or 0, body literals); interpretations and models
are sets of atoms.  The literal-set predicates at the end (nogoods,
violation, support) state the same semantics one `GroundRule` at a time.
"""
from __future__ import annotations

import itertools
from typing import Iterable

from .grounder import GroundProgram
from .model import Atom, GroundRule, Literal

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
            if not head or head in derived:
                continue
            if all(l in derived for l in body):
                derived.add(head)
                changed = True
    return frozenset(gp.atoms.atom(v - 1) for v in derived)


def is_model(gp: GroundProgram, true_atoms: frozenset[Atom]) -> bool:
    truths = _vars(gp, true_atoms)
    for head, body in gp.rules:
        if all((abs(l) in truths) == (l > 0) for l in body) and head not in truths:
            return False
    return truths.issuperset(gp.facts)


def is_stable_model(gp: GroundProgram, true_atoms: Iterable[Atom]) -> bool:
    """True iff the total interpretation given by its true atoms is stable."""
    truths = frozenset(true_atoms)
    if not is_model(gp, truths):
        return False
    return least_model(reduct(gp, truths)) == truths


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


def nogood_of(rule: GroundRule) -> frozenset[Literal]:
    """Map a ground rule to the set of literals whose joint truth violates it.

    The head contributes its complement, body literals are kept as written;
    a constraint contributes its body alone.
    """
    lits = set(rule.body)
    if rule.head is not None:
        lits.add(Literal(rule.head, False))
    return frozenset(lits)


def nogood_falsified(nogood: Iterable[Literal], interp: set) -> bool:
    """True iff every literal of the nogood is true w.r.t. the interpretation."""
    return all(lit in interp for lit in nogood)


def is_violated(constraint: GroundRule, interp: set) -> bool:
    """A constraint is violated when every literal of its body is true."""
    return all(lit in interp for lit in constraint.body)


def is_supported(atom: Atom, model: set, program: GroundProgram) -> bool:
    """True iff some rule of the program derives `atom` with a fully true body.

    Facts support their own atom unconditionally.
    """
    var = program.atoms.id_of(atom)
    if var is None:
        return False
    if var + 1 in program.facts:
        return True
    return any(
        all(lit in model for lit in program.atoms.render(rule).body)
        for rule in program.rules
        if rule[0] == var + 1
    )


def total_interpretation(true_atoms: Iterable[Atom], universe: Iterable[Atom]) -> set:
    """Build the literal set assigning `true_atoms` true and the rest false."""
    truths = set(true_atoms)
    interp = set()
    for atom in universe:
        interp.add(Literal(atom, atom in truths))
    return interp
