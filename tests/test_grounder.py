import itertools

import pytest

from microasp import benchgen
from microasp.grounder import (
    AtomIndex,
    BodyPlan,
    GroundingError,
    ground_deferred_violations,
    ground_program,
    ground_rule,
    herbrand_universe,
    iter_matches,
    naive_ground_program,
)
from microasp.model import Atom, Comparison, GroundRule, Literal, Rule, Var
from microasp.oracle import enumerate_stable_models, is_violated, total_interpretation
from microasp.parser import ParseError, parse_program
from microasp.strategies import ConstraintIndex
from support import (
    PI1_DEFERRED_TEXT,
    PI1_TEXT,
    fact_texts,
    random_join_program_text,
    random_program_text,
    rule_texts,
)


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


class TestBodyPlanOrder:
    def test_elements_wait_for_their_variables_in_passes(self):
        rule = parse_program(":- p(X), Z = Y+1, Y = X+1, Z < 5, not q(Z).").rules[0]
        plan = BodyPlan(rule)
        assert [str(lit) for lit in plan.positives] == ["p(X)"]
        assert [[str(e) for e in stage] for stage in plan.stages] == [
            [],
            ["Y = X+1", "Z = Y+1", "Z < 5", "not q(Z)"],
        ]

    def test_equality_binds_its_lone_unbound_side(self):
        X, Y, Z = Var("X"), Var("Y"), Var("Z")
        rule = Rule(None, (Literal(Atom("p", (X,))), Comparison("=", (Y,), (Z,))))
        with pytest.raises(GroundingError, match="unsafe variable Y"):
            BodyPlan(rule)
        program = parse_program("p(1). q(Y) :- p(X), X = Y.\n")
        assert ground_program(program).to_text() == "p(1).\nq(1).\n"

    def test_comparisons_run_in_body_order(self):
        text = "p(a).\np(1).\n:- p(X), {}.\n"
        ground_program(parse_program(text.format("X != a, X < 3")))
        with pytest.raises(GroundingError) as err:
            ground_program(parse_program(text.format("X < 3, X != a")))
        assert str(err.value) == (
            "ordered comparison on non-integer constant 'a'"
            " in rule ':- p(X), X < 3, X != a.' at 3:1"
        )


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


def reference_grounding(program, include_deferred):
    """(atoms, facts, rules, whether a rule other than a fact derived a fact)
    of the instantiation with facts simplified afterwards: the derivable-atom
    fixpoint, `ground_rule` over its index for each kept rule in program
    order, then rounds that drop instances with a fact head or a negative
    literal on a fact and strip fact literals from the rest, a body that
    empties making a fact, until a round changes nothing."""
    kept = [
        rule
        for i, rule in enumerate(program.rules)
        if include_deferred or i not in program.deferred
    ]
    index = AtomIndex()
    changed = True
    while changed:
        changed = False
        for rule in kept:
            if rule.head is None:
                continue
            plan = BodyPlan(rule)
            matches = iter_matches(plan, index, index.undefined, len(rule.body))
            for head in (plan.head(slots) for slots, _ in matches):
                if head not in index:
                    index.add(head)
                    changed = True
    instances = {}  # instance -> whether it is first an instance of a fact
    for rule in kept:
        for inst in ground_rule(rule, index):
            instances.setdefault(inst, rule.is_fact)
    derived = False
    facts = {}
    pending = list(instances.items())
    changed = True
    while changed:
        changed = False
        out = []
        for (head, body), stated in pending:
            if head in facts or any(-lit in facts for lit in body):
                changed = True
                continue
            stripped = tuple(lit for lit in body if lit not in facts)
            if len(stripped) != len(body):
                changed = True
                body = stripped
            if not body and head:
                facts[head] = None
                derived = derived or not stated
                changed = True
                continue
            out.append(((head, body), stated))
        pending = out
    rules = tuple(dict.fromkeys(inst for inst, _ in pending))
    return list(index), tuple(facts), rules, derived


def assert_grounds_as_reference(program):
    for include_deferred in (False, True):
        gp = ground_program(program, include_deferred=include_deferred)
        atoms, facts, rules, derived = reference_grounding(program, include_deferred)
        assert list(gp.atoms) == atoms
        assert gp.rules == rules
        assert set(gp.facts) == set(facts)
        if not derived:
            assert gp.facts == facts


FOLD_CASES = {
    # p has facts and a deriving rule, so p(1) is probed and stripped.
    "mixed predicate": """\
p(1). q(2) :- not t(2). t(2) :- not q(2). p(X) :- q(X).
r(X) :- p(X), not s(X). s(X) :- p(X), not r(X).
""",
    # The extensional fact p(1) and the mixed fact u(1) drop whole instances.
    "negative literal on a fact": """\
p(1). p(2). u(1). u(X) :- p(X), not v(X). v(X) :- p(X), not u(X).
q(X) :- p(X), not p(1). r(X) :- p(X), not u(X). s(X) :- p(X), not q(X).
""",
    # The instances of c(1) and d(1) are built before b(1) and c(1) are
    # derived; c(1) becomes a fact, and d(1)'s instance drops once it does.
    "derived chain": """\
c(1) :- b(1). e(1) :- not d(1). d(1) :- not c(1). b(1) :- a(1). a(1).
f(1) :- c(1), not g(1). g(1) :- not f(1).
""",
    "constraint emptied": "a(1). b(1) :- a(1). :- a(1), b(1).\n",
}


@pytest.mark.parametrize("name", sorted(FOLD_CASES))
def test_folded_grounding_matches_reference_on_hand_cases(name):
    assert_grounds_as_reference(parse_program(FOLD_CASES[name]))


def test_folded_grounding_hand_cases_fold():
    """The hand cases exercise what they are named for."""
    texts = {}
    for name, text in FOLD_CASES.items():
        gp = ground_program(parse_program(text), include_deferred=True)
        texts[name] = (fact_texts(gp), rule_texts(gp))
    facts, rules = texts["mixed predicate"]
    assert facts == ["p(1)"]
    assert "r(1) :- not s(1)" in rules and "r(2) :- p(2), not s(2)" in rules
    facts, rules = texts["negative literal on a fact"]
    assert facts == ["p(1)", "p(2)", "u(1)"]
    assert rules == [
        "u(2) :- not v(2)",
        "v(2) :- not u(2)",
        "r(2) :- not u(2)",
        "s(1) :- not q(1)",
        "s(2) :- not q(2)",
    ]
    assert texts["derived chain"] == (
        ["a(1)", "b(1)", "c(1)"],
        ["e(1) :- not d(1)", "f(1) :- not g(1)", "g(1) :- not f(1)"],
    )
    assert texts["constraint emptied"] == (["a(1)", "b(1)"], [":- "])


def test_folded_grounding_matches_reference_on_random_programs():
    checked = 0
    for seed in range(120):
        try:
            program = parse_program(random_program_text(seed))
        except ParseError:
            continue
        assert_grounds_as_reference(program)
        checked += 1
    assert checked >= 60
    for seed in range(120):
        assert_grounds_as_reference(parse_program(random_join_program_text(seed)))


def test_folded_grounding_matches_reference_on_benchmark_families():
    for program in (
        benchgen.gen_3sat(20, 4.26, 1),
        benchgen.gen_marriage(4, 30, 1),
        benchgen.gen_packing(4, 3, (2, 2)),
    ):
        assert_grounds_as_reference(program)
