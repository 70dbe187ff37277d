import itertools

import pytest

from microasp.grounder import (
    AtomIndex,
    BodyPlan,
    GroundingError,
    ground_deferred_violations,
    ground_program,
    ground_rule,
    herbrand_universe,
    naive_ground_program,
)
from microasp.model import Atom, GroundRule, Literal
from microasp.oracle import enumerate_stable_models, is_violated, total_interpretation
from microasp.parser import ParseError, parse_program
from microasp.strategies import ConstraintIndex
from support import PI1_DEFERRED_TEXT, PI1_TEXT, fact_texts, random_program_text, rule_texts


def ga(pred, *args):
    return Atom(pred, args)


def index_of(domains):
    """An index over per-predicate argument rows."""
    return AtomIndex(Atom(pred, row) for pred, rows in domains.items() for row in rows)


def grounded(rule, index):
    """`ground_rule`'s instances over the index, as ground rules."""
    return [index.render(inst) for inst in ground_rule(rule, index)]


class TestHerbrandUniverse:
    def test_pi1(self):
        assert herbrand_universe(parse_program(PI1_TEXT)) == {1}

    def test_empty(self):
        assert herbrand_universe(parse_program("")) == set()

    def test_mixed_constants(self):
        program = parse_program("p(1). p(2). q(a).\n")
        assert herbrand_universe(program) == {1, 2, "a"}


class TestGroundRule:
    def test_constraint_over_unit_domain(self):
        rule = parse_program(":- a(X), b(X).\n").rules[0]
        domains = {"a": [(1,)], "b": [(1,)]}
        assert grounded(rule, index_of(domains)) == [
            GroundRule(None, (Literal(ga("a", 1)), Literal(ga("b", 1))))
        ]

    def test_variable_free_rule_is_itself(self):
        rule = parse_program("a(1) :- not b(1).\n").rules[0]
        out = grounded(rule, AtomIndex([ga("a", 1), ga("b", 1)]))
        assert out == [GroundRule(ga("a", 1), (Literal(ga("b", 1), False),))]

    def test_contradictory_comparison_yields_nothing(self):
        rule = parse_program(":- p(X), X != X.\n").rules[0]
        domains = {"p": [(1,), (2,)]}
        assert ground_rule(rule, index_of(domains)) == []

    def test_instance_count_bound(self):
        rule = parse_program(":- p(X), q(Y).\n").rules[0]
        domain = [(i,) for i in range(3)]
        out = ground_rule(rule, index_of({"p": domain, "q": domain}))
        assert len(out) <= 3 ** 2

    def test_binding_equality(self):
        rule = parse_program(":- p(X), W = X+1, q(W).\n").rules[0]
        domains = {"p": [(1,)], "q": [(2,)]}
        out = grounded(rule, index_of(domains))
        assert out == [GroundRule(None, (Literal(ga("p", 1)), Literal(ga("q", 2))))]

    def test_arithmetic_on_symbol_errors(self):
        rule = parse_program("q(Y) :- p(X), Y = X+1.\n").rules[0]
        with pytest.raises(GroundingError, match="non-integer"):
            ground_rule(rule, index_of({"p": [("a",)]}))

    def test_ordered_comparison_on_symbol_errors(self):
        rule = parse_program(":- p(X), X < a.\n").rules[0]
        with pytest.raises(
            GroundingError, match="ordered comparison on non-integer constant 'a'"
        ):
            ground_rule(rule, index_of({"p": [(1,)]}))


class TestGroundProgram:
    def test_pi1_full(self):
        gp = ground_program(parse_program(PI1_TEXT), include_deferred=True)
        assert rule_texts(gp) == [
            "a(1) :- not b(1)",
            "b(1) :- not a(1)",
            ":- a(1), b(1)",
            "c(1) :- not d(1)",
            "d(1) :- not c(1)",
            ":- a(1), not b(1)",
        ]
        assert gp.facts == ()
        assert len(gp.atoms) == 4

    def test_pi1_deferred_removed(self):
        gp = ground_program(parse_program(PI1_DEFERRED_TEXT))
        assert rule_texts(gp) == [
            "a(1) :- not b(1)",
            "b(1) :- not a(1)",
            "c(1) :- not d(1)",
            "d(1) :- not c(1)",
        ]

    def test_facts_only(self):
        gp = ground_program(parse_program("p(1). p(2). q(a).\n"))
        assert fact_texts(gp) == ["p(1)", "p(2)", "q(a)"]
        assert gp.rules == ()

    def test_fact_simplification(self):
        gp = ground_program(parse_program("p(1). q(X) :- p(X). r(1) :- q(1), not s(1).\n"))
        # q(1) becomes a fact; s(1) is underivable so its literal vanishes
        assert fact_texts(gp) == ["p(1)", "q(1)", "r(1)"]
        assert gp.rules == ()

    def test_derivable_restriction(self):
        gp = ground_program(parse_program("p(1). q(X) :- p(X), r(X).\n"))
        # r has no deriving rule, so q never gets instantiated
        assert fact_texts(gp) == ["p(1)"]
        assert gp.rules == ()

    def test_empty_body_constraint_kept(self):
        gp = ground_program(parse_program("p(1). :- p(1).\n"))
        assert (0, ()) in gp.rules

    def test_dump_text_sorted(self):
        gp = ground_program(parse_program(PI1_TEXT), include_deferred=True)
        lines = gp.to_text().splitlines()
        assert lines == sorted(lines)


def violations(constraints, universe, truths):
    """Ground instances of the constraints violated when exactly `truths`
    hold among the atoms of `universe`, each with its nogood as literals."""
    index = AtomIndex(universe)
    values = [0] + [1 if atom in truths else -1 for atom in index]
    plans = [BodyPlan(c) for c in constraints]
    return [
        (
            plans[ci].render(slots),
            frozenset(Literal(index.atom(abs(l) - 1), l > 0) for l in lits),
        )
        for ci, slots, lits in ground_deferred_violations(plans, index, values)
    ]


class TestGroundDeferredViolations:
    @pytest.fixture
    def deferred(self):
        return parse_program(PI1_DEFERRED_TEXT).deferred_rules()

    @pytest.fixture
    def universe(self):
        return [ga("a", 1), ga("b", 1), ga("c", 1), ga("d", 1)]

    def test_violating_interpretation(self, deferred, universe):
        out = violations(deferred, universe, {ga("a", 1), ga("c", 1)})
        assert [(str(inst), nogood) for inst, nogood in out] == [
            (":- a(1), not b(1)", {Literal(ga("a", 1)), Literal(ga("b", 1), False)})
        ]

    def test_clean_interpretation(self, deferred, universe):
        assert violations(deferred, universe, {ga("b", 1), ga("c", 1)}) == []

    def test_no_constraints(self, universe):
        assert violations([], universe, {ga("a", 1)}) == []

    def test_rejects_non_constraint(self):
        program = parse_program("b(1).\na(1) :- b(1).\n")
        with pytest.raises(ValueError, match="not a constraint"):
            ConstraintIndex(program.rules[1:], ground_program(program))

    def test_matches_naive_instantiation(self):
        """Cross-check the join against filtering the naive instantiation."""
        checked = 0
        for seed in range(160):
            try:
                program = parse_program(random_program_text(seed))
            except ParseError:
                continue
            deferred = program.deferred_rules()
            if not deferred:
                continue
            naive = naive_ground_program(program)
            universe = list(naive.atoms)
            if len(universe) > 8:
                continue
            for bits in itertools.product([False, True], repeat=len(universe)):
                truths = {a for a, b in zip(universe, bits) if b}
                interp = total_interpretation(truths, universe)
                got = set()
                for inst, nogood in violations(deferred, universe, truths):
                    assert nogood == frozenset(inst.body)
                    got.add((inst.head, nogood))
                want = set()
                for rule in deferred:
                    for inst in grounded(rule, index_of(_full_domains(program))):
                        if is_violated(inst, interp):
                            want.add((inst.head, frozenset(inst.body)))
                assert got == want
            checked += 1
            if checked >= 12:
                break
        assert checked >= 5


def _full_domains(program):
    constants = sorted(herbrand_universe(program), key=str)
    out = {}
    for rule in program.rules:
        atoms = ([rule.head] if rule.head else []) + [
            e.atom for e in rule.body if isinstance(e, Literal)
        ]
        for atom in atoms:
            out[atom.predicate] = [
                tuple(c) for c in itertools.product(constants, repeat=atom.arity)
            ]
    return out


def test_simplified_grounding_preserves_stable_models():
    """Simplified and naive instantiation have the same stable models."""
    checked = 0
    for seed in range(120):
        try:
            program = parse_program(random_program_text(seed))
        except ParseError:
            continue
        naive = naive_ground_program(program)
        simplified = ground_program(program, include_deferred=True)
        want = {frozenset(m) for m in enumerate_stable_models(naive)}
        got = {frozenset(m) for m in enumerate_stable_models(simplified)}
        assert got == want, f"seed {seed}"
        checked += 1
    assert checked >= 60
