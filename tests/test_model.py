import itertools

import pytest
from hypothesis import given, strategies as st

from microasp.cdcl import Solver, canonical
from microasp.grounder import AtomIndex, GroundProgram, ground_program
from microasp.model import Atom, Var
from microasp.oracle import is_model, least_model, reduct
from microasp.parser import parse_program
from support import PI1_TEXT


def ga(pred, *args):
    return Atom(pred, args)


A1, B1, C1 = ga("a", 1), ga("b", 1), ga("c", 1)


class TestAtom:
    def test_str(self):
        assert str(Atom("p")) == "p"
        assert str(ga("p", 1, "a", Var("X"))) == "p(1,a,X)"

    def test_is_ground(self):
        assert Atom("p").is_ground
        assert ga("p", 1, "a").is_ground
        assert not ga("p", 1, Var("X")).is_ground

    def test_arity_and_variables(self):
        atom = ga("p", Var("X"), 2, Var("Y"), Var("X"))
        assert (Atom("p").arity, atom.arity) == (0, 4)
        assert atom.variables() == {"X", "Y"}
        assert ga("p", 1).variables() == set()

    def test_equality_and_hash(self):
        assert ga("p", 1) == Atom("p", (1,))
        assert hash(ga("p", 1)) == hash(Atom("p", (1,)))
        assert ga("p", 1) != ga("p", "1") and ga("p", 1) != ga("q", 1)
        assert Atom("p") == Atom("p", ())
        # A named tuple: equal to the plain tuple of its fields.
        assert ga("p", 1) == ("p", (1,))

    def test_atom_index_key(self):
        index = AtomIndex([ga("p", 1), Atom("q"), ga("p", 1)])
        assert len(index) == 2
        assert index.id_of(Atom("p", (1,))) == 0 and index.id_of(Atom("q")) == 1
        assert ga("p", 2) not in index and index.id_of(ga("p", 2)) is None


def stored_nogoods(facts=(), rules=()):
    """The nogoods the solver stores for a ground program over a(1), b(1)
    and c(1), whose variables are 1, 2 and 3."""
    return set(Solver(GroundProgram(AtomIndex([A1, B1, C1]), facts, rules))._by_lits)


class TestNogoodOf:
    """The nogood of a ground rule, as the solver stores it."""

    def test_constraint_keeps_body(self):
        # :- a(1), b(1).
        assert (1, 2) in stored_nogoods(rules=((0, (1, 2)),))

    def test_rule_adds_complemented_head(self):
        # a(1) :- not b(1).
        assert (-1, -2) in stored_nogoods(rules=((1, (-2,)),))

    def test_fact(self):
        assert (-3,) in stored_nogoods(facts=(3,))


class TestIsViolated:
    """A constraint whose body literals are all true is violated: the
    interpretation is no model."""

    @pytest.fixture
    def gp(self):
        # :- a(1), not b(1).
        return GroundProgram(AtomIndex([A1, B1]), (), ((0, (1, -2)),))

    def test_violated_when_all_body_true(self, gp):
        assert not is_model(gp, frozenset({A1}))

    def test_not_violated(self, gp):
        assert is_model(gp, frozenset({B1}))

    def test_empty_body_always_violated(self):
        gp = GroundProgram(AtomIndex([A1]), (), ((0, ()),))
        assert not is_model(gp, frozenset()) and not is_model(gp, frozenset({A1}))


class TestIsSupported:
    """A true atom is supported when the least model of the reduct derives it."""

    @pytest.fixture
    def pi1_gp(self):
        return ground_program(parse_program(PI1_TEXT), include_deferred=True)

    def test_supported_via_rule(self, pi1_gp):
        assert B1 in least_model(reduct(pi1_gp, [B1, C1]))

    def test_never_supported_alongside_blocker(self, pi1_gp):
        assert A1 not in least_model(reduct(pi1_gp, [A1, B1, C1]))

    def test_fact_supports_itself(self):
        gp = ground_program(parse_program("c(1).\n"))
        assert C1 in least_model(reduct(gp, [C1]))


ATOM_POOL = [ga(p, 1) for p in "pqrst"]


@st.composite
def ground_rules(draw):
    """A ground rule in tuple form over the 5-atom pool, whose variables
    are 1..5: a head variable or 0, and a body of distinct variables, each
    of either sign."""
    body_vars = draw(st.lists(st.integers(1, len(ATOM_POOL)), max_size=4, unique=True))
    body = tuple(v if draw(st.booleans()) else -v for v in body_vars)
    return draw(st.integers(0, len(ATOM_POOL))), body


def assignments():
    """Each total assignment of the pool: its true variables and its true
    literals."""
    for bits in itertools.product((False, True), repeat=len(ATOM_POOL)):
        truths = {v for v, bit in enumerate(bits, 1) if bit}
        yield truths, {v if v in truths else -v for v in range(1, len(ATOM_POOL) + 1)}


def one_rule_program(head, body):
    return GroundProgram(AtomIndex(ATOM_POOL), (), ((head, body),))


@given(ground_rules())
def test_nogood_falsified_iff_rule_unsatisfied(rule):
    """Exhaustive over all assignments of the pool: the nogood of a rule,
    its body and its head's complement, holds exactly when the rule is
    unsatisfied; the solver stores it unless it is a tautology."""
    head, body = rule
    nogood = set(body) | {-head} if head else set(body)
    tautology = head in body
    if nogood and not tautology:
        assert canonical(nogood) in set(Solver(one_rule_program(head, body))._by_lits)
    gp = one_rule_program(head, body)
    for truths, true_lits in assignments():
        holds = not tautology and nogood <= true_lits
        assert holds == (not is_model(gp, frozenset(ATOM_POOL[v - 1] for v in truths)))


@given(ground_rules())
def test_violation_is_nogood_containment(rule):
    """A constraint is violated exactly when its nogood, its body, is
    contained in the true literals."""
    _, body = rule
    gp = one_rule_program(0, body)
    if body:
        assert canonical(body) in set(Solver(gp)._by_lits)
    for truths, true_lits in assignments():
        violated = not is_model(gp, frozenset(ATOM_POOL[v - 1] for v in truths))
        assert violated == (set(body) <= true_lits)
