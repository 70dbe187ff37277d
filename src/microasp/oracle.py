"""Brute-force semantic ground truth for small ground programs.

Stability is checked by the reduct construction: a total interpretation is
stable iff it is a model of the program and its positive atoms equal the
least model of the reduct's definite rules.  The literal-set predicates at
the end (nogoods, violation, support) state the same semantics one ground
rule at a time.
"""
from __future__ import annotations

import itertools
from typing import Iterable

from .grounder import GroundProgram
from .model import Atom, GroundRule, Literal

#: Enumeration guard: assignments are enumerated over atoms that are neither
#: facts nor underivable, capped at this many free atoms.
MAX_FREE_ATOMS = 24


def reduct(gp: GroundProgram, true_atoms: Iterable[Atom]) -> GroundProgram:
    """Delete rules whose negative body is false w.r.t. the interpretation,
    then strip the negative body from the survivors."""
    truths = frozenset(true_atoms)
    facts: dict[Atom, None] = {a: None for a in gp.facts}
    rules: dict[GroundRule, None] = {}
    for rule in gp.rules:
        if any(not lit.positive and lit.atom in truths for lit in rule.body):
            continue
        body = tuple(lit for lit in rule.body if lit.positive)
        if rule.head is not None and not body:
            facts[rule.head] = None
        else:
            rules[GroundRule(rule.head, body)] = None
    return GroundProgram(gp.atoms, tuple(facts), tuple(rules))


def least_model(gp: GroundProgram) -> frozenset[Atom]:
    """Least fixpoint of the definite rules of a positive program."""
    derived: set[Atom] = set(gp.facts)
    changed = True
    while changed:
        changed = False
        for rule in gp.rules:
            if rule.head is None or rule.head in derived:
                continue
            if all(lit.atom in derived for lit in rule.body):
                derived.add(rule.head)
                changed = True
    return frozenset(derived)


def is_model(gp: GroundProgram, true_atoms: frozenset[Atom]) -> bool:
    for rule in gp.rules:
        body_true = all(
            (lit.atom in true_atoms) == lit.positive for lit in rule.body
        )
        if body_true and (rule.head is None or rule.head not in true_atoms):
            return False
    return gp.fact_set <= true_atoms


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
    heads = {rule.head for rule in gp.rules if rule.head is not None}
    free = [
        atom for atom in gp.atoms if atom not in gp.fact_set and atom in heads
    ]
    if len(free) > max_free:
        raise ValueError(
            f"{len(free)} free atoms exceed the enumeration guard of {max_free}"
        )
    models: list[frozenset[Atom]] = []
    base = frozenset(gp.fact_set)
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
    if atom in program.fact_set:
        return True
    for rule in program.rules:
        if rule.head == atom and all(lit in model for lit in rule.body):
            return True
    return False


def total_interpretation(true_atoms: Iterable[Atom], universe: Iterable[Atom]) -> set:
    """Build the literal set assigning `true_atoms` true and the rest false."""
    truths = set(true_atoms)
    interp = set()
    for atom in universe:
        interp.add(Literal(atom, atom in truths))
    return interp
