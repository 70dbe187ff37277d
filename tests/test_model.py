import itertools

import pytest
from hypothesis import given, strategies as st

from microasp.model import Atom, GroundRule, Literal
from microasp.grounder import ground_program
from microasp.oracle import (
    is_supported,
    is_violated,
    nogood_of,
    nogood_falsified,
    total_interpretation,
)
from microasp.parser import parse_program
from support import PI1_TEXT


def ga(pred, *args):
    return Atom(pred, args)


A1, B1, C1, D1 = ga("a", 1), ga("b", 1), ga("c", 1), ga("d", 1)


class TestNogoodOf:
    def test_constraint_keeps_body(self):
        g3 = GroundRule(None, (Literal(A1), Literal(B1)))
        assert nogood_of(g3) == frozenset({Literal(A1), Literal(B1)})

    def test_rule_adds_complemented_head(self):
        g1 = GroundRule(A1, (Literal(B1, False),))
        assert nogood_of(g1) == frozenset({Literal(A1, False), Literal(B1, False)})

    def test_fact(self):
        fact = GroundRule(C1, ())
        assert nogood_of(fact) == frozenset({Literal(C1, False)})


class TestIsViolated:
    def test_violated_when_all_body_true(self):
        g6 = GroundRule(None, (Literal(A1), Literal(B1, False)))
        interp = {Literal(A1), Literal(B1, False)}
        assert is_violated(g6, interp)

    def test_not_violated(self):
        g6 = GroundRule(None, (Literal(A1), Literal(B1, False)))
        interp = {Literal(A1, False), Literal(B1)}
        assert not is_violated(g6, interp)

    def test_empty_body_always_violated(self):
        assert is_violated(GroundRule(None, ()), set())


class TestIsSupported:
    @pytest.fixture
    def pi1_gp(self):
        return ground_program(parse_program(PI1_TEXT), include_deferred=True)

    def test_supported_via_rule(self, pi1_gp):
        model = total_interpretation([B1, C1], [A1, B1, C1, D1])
        assert is_supported(B1, model, pi1_gp)

    def test_never_supported_alongside_blocker(self, pi1_gp):
        model = total_interpretation([A1, B1, C1], [A1, B1, C1, D1])
        assert not is_supported(A1, model, pi1_gp)

    def test_fact_supports_itself(self):
        gp = ground_program(parse_program("c(1).\n"))
        model = total_interpretation([C1], [C1])
        assert is_supported(C1, model, gp)


ATOM_POOL = [ga(p, 1) for p in "pqrst"]


@st.composite
def ground_rules(draw):
    body_atoms = draw(st.lists(st.sampled_from(ATOM_POOL), max_size=4, unique=True))
    body = tuple(Literal(a, draw(st.booleans())) for a in body_atoms)
    head = draw(st.sampled_from(ATOM_POOL + [None]))
    return GroundRule(head, body)


@given(ground_rules())
def test_nogood_falsified_iff_rule_unsatisfied(rule):
    """Exhaustive over all assignments of the 5-atom pool: the nogood of a
    rule is falsified exactly when the rule is unsatisfied."""
    nogood = nogood_of(rule)
    for bits in itertools.product([False, True], repeat=len(ATOM_POOL)):
        truths = {a for a, b in zip(ATOM_POOL, bits) if b}
        interp = total_interpretation(truths, ATOM_POOL)
        body_true = all(lit in interp for lit in rule.body)
        satisfied = (not body_true) or (rule.head is not None and rule.head in truths)
        assert nogood_falsified(nogood, interp) == (not satisfied)


@given(ground_rules())
def test_violation_is_nogood_containment(rule):
    constraint = GroundRule(None, rule.body)
    for bits in itertools.product([False, True], repeat=len(ATOM_POOL)):
        truths = {a for a, b in zip(ATOM_POOL, bits) if b}
        interp = total_interpretation(truths, ATOM_POOL)
        assert is_violated(constraint, interp) == (nogood_of(constraint) <= interp)
