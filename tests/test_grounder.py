import itertools
import sys

import pytest

from microasp import benchgen, grounder
from microasp.cdcl import Solver, canonical
from microasp.grounder import (
    AtomIndex,
    BodyPlan,
    GroundProgram,
    GroundingError,
    ground_program,
    ground_rule,
    herbrand_universe,
    naive_ground_program,
)
from microasp.model import Atom, Comparison, Literal, Rule, Var
from microasp.oracle import enumerate_stable_models, reduct
from microasp.parser import ParseError, parse_program
from microasp.strategies import ConstraintIndex, ground_deferred_violations, solve
from support import (
    PI1_DEFERRED_TEXT,
    PI1_TEXT,
    fact_texts,
    instance_of,
    join_in_full,
    random_join_program_text,
    random_program_text,
    rule_texts,
)
from test_cdcl import store_of
from test_golden_counters import INSTANCES as GOLDEN_INSTANCES, load_workloads


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
            Rule(None, (Literal(ga("a", 1)), Literal(ga("b", 1))))
        ]

    def test_variable_free_rule_is_itself(self):
        rule = parse_program("a(1) :- not b(1).\n").rules[0]
        out = grounded(rule, AtomIndex([ga("a", 1), ga("b", 1)]))
        assert out == [Rule(ga("a", 1), (Literal(ga("b", 1), False),))]

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
        assert out == [Rule(None, (Literal(ga("p", 1)), Literal(ga("q", 2))))]

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


@pytest.mark.parametrize(
    "text, culprit",
    [
        ("p(a). p(b).\nq(Z) :- p(X), p(Y), Z = X+Y.\n", "q(Z) :- p(X), p(Y), Z = X+Y."),
        ("p(a).\n:- p(X), X+1 < 3.\n", ":- p(X), X+1 < 3."),
        ("p(1). p(a).\nq(Z) :- p(X), Z = X+1.\n", "q(Z) :- p(X), Z = X+1."),
    ],
)
def test_arithmetic_on_symbol_error_text(text, culprit):
    with pytest.raises(GroundingError) as err:
        ground_program(parse_program(text))
    assert str(err.value) == (
        f"arithmetic on non-integer constant 'a' in rule '{culprit}' at 2:1"
    )


def joined(text):
    """The plan of the text's last rule after joining it in its truth and
    instance forms over the text's facts, and the slots of its matches."""
    program = parse_program(text)
    plan = BodyPlan(program.rules[-1])
    index = AtomIndex(rule.head for rule in program.rules if rule.is_fact)
    budget = len(plan.rule.body)
    undefined = [0] * (len(index) + 1)
    found = [slots for slots, _ in join_in_full([plan], index, undefined, budget).values()]
    assert list(grounder._instances(plan, index, ())) == [
        instance_of(plan.render(slots), index) for slots in found
    ]
    return plan, found


class TestCompiledJoin:
    def test_plans_of_one_shape_share_code_without_program_text(self):
        first, found = joined(
            "alpha(1,kilo). beta(1,2,33). beta(1,50,33).\n"
            ":- alpha(X,kilo), beta(X,Y,33), Y < 44, not gamma(Y,kilo).\n"
        )
        second, other = joined(
            "delta(1,lima). epsilon(1,2,mike). epsilon(1,60,mike).\n"
            ":- delta(X,lima), epsilon(X,Y,mike), Y < 66, not zeta(Y,lima).\n"
        )
        assert found == [["kilo", 33, 44, 1, 2]]
        assert other == [["lima", "mike", 66, 1, 2], ["lima", "mike", 66, 1, 60]]
        for form in (grounder._TRUTH, grounder._INSTANCES):
            source = first._source[form]
            assert source == second._source[form]
            assert sum(src == source for src, _ in grounder._COMPILED) == 1
            for text in ("alpha", "beta", "gamma", "delta", "epsilon", "zeta",
                         "kilo", "lima", "mike", "33", "44", "66"):
                assert text not in source
        assert first._source[grounder._TRUTH] != first._source[grounder._INSTANCES]

    def test_a_seeded_plan_reads_no_truth_of_an_extensional_literal(self):
        """Marriage's scores are facts: the trigger seeded at `match`
        reads the truth of its other `match` loop only, as the seed is the
        trail literal, true, and a seeded plan builds no other form."""
        program = benchgen.gen_marriage(4, 30, 1)
        gp = ground_program(program)
        index = ConstraintIndex(program.deferred_plans(), gp)
        plan = next(s for key, s in index.plans[0].seeded if key == ("match", True))
        values = [0] * (len(gp.atoms) + 1)
        for var in gp.facts:
            values[var] = 1
        atom = next(a for a in gp.atoms if a.predicate == "match")
        lit = gp.atoms.id_of(atom) + 1
        values[lit] = 1
        join, slots, gets, rule, ci = plan.trigger(gp.atoms, 0)
        join(slots, gets, rule, values, 1, lit, atom.args, {}, ci)
        source = plan._source[grounder._TRUTH]
        loops = {lit.atom.predicate: [] for lit in plan.positives}
        for i, lit in enumerate(plan.positives, 1):
            loops[lit.atom.predicate].append(f"values[v{i}]" in source)
        assert loops == {
            "match": [False, True],
            "manAssignsScore": [False, False],
            "womanAssignsScore": [False, False],
        }
        assert list(plan._source) == [grounder._TRUTH]

    def test_plans_that_differ_by_an_operator_do_not_share_code(self):
        facts = "alpha(1,kilo). beta(1,2,33).\n"
        less, _ = joined(facts + ":- alpha(X,kilo), beta(X,Y,33), Y < 44.\n")
        most, _ = joined(facts + ":- alpha(X,kilo), beta(X,Y,33), Y <= 44.\n")
        assert less._source[grounder._TRUTH] != most._source[grounder._TRUTH]

    def test_an_error_in_shared_code_names_its_own_rule(self):
        text = "p(1). t(a).\nq(Z) :- p(X), Z = X+1.\nr(Z) :- t(X), Z = X+2.\n"
        program = parse_program(text)
        index = AtomIndex(rule.head for rule in program.rules if rule.is_fact)
        plans = [BodyPlan(rule) for rule in program.rules[2:]]
        undefined = [0] * (len(index) + 1)
        assert len(join_in_full(plans[:1], index, undefined, 2)) == 1
        with pytest.raises(GroundingError) as err:
            join_in_full(plans[1:], index, undefined, 2)
        assert plans[0]._source[grounder._TRUTH] == plans[1]._source[grounder._TRUTH]
        message = (
            "arithmetic on non-integer constant 'a' in rule"
            " 'r(Z) :- t(X), Z = X+2.' at 3:1"
        )
        assert str(err.value) == message
        with pytest.raises(GroundingError) as err:
            ground_program(program)
        assert str(err.value) == message

    def test_parsing_and_a_second_solve_compile_nothing(self):
        text = (
            "u(1,2,3). u(2,3,4). u(3,4,1). v(3,2). v(4,3). w(3,2).\n"
            "s(X) :- u(X,Y,Z), v(Z,Y), X+Y+Z > 5, not w(Y,X).\n"
            "%@deferred\n"
            ":- u(X,Y,Z), u(Y,Z,W), s(X), W+X+Y >= 7, X != Z.\n"
        )
        before = len(grounder._COMPILED)
        program = parse_program(text)
        assert len(grounder._COMPILED) == before
        kinds = ("full", "lazy", "eager", "post")
        first = [solve(program, kind).status for kind in kinds]
        compiled = len(grounder._COMPILED)
        assert compiled > before
        assert [solve(parse_program(text), kind).status for kind in kinds] == first
        assert len(grounder._COMPILED) == compiled

    def test_groundings_that_differ_only_in_constants_share_code(self):
        text = (
            "p(1,{a}). p(2,{a}). q(X) :- p(X,{a}), not r(X,{b}), X < {n}.\n"
            "r(X,{b}) :- p(X,{a}), not q(X).\n"
        )
        ground_program(parse_program(text.format(a="kilo", b="lima", n=2)))
        compiled = len(grounder._COMPILED)
        program = parse_program(text.format(a="mike", b="oscar", n=3))
        assert rule_texts(ground_program(program)) == [
            "q(1) :- not r(1,oscar)",
            "q(2) :- not r(2,oscar)",
            "r(1,oscar) :- not q(1)",
            "r(2,oscar) :- not q(2)",
        ]
        assert len(grounder._COMPILED) == compiled

    def test_a_body_deeper_than_the_nesting_limit_joins(self):
        n = 3 * grounder._NESTED
        chain = ", ".join(f"e(X{k},X{k + 1})" for k in range(n))
        text = "".join(f"e({k},{k + 1}). " for k in range(n + 1))
        text += f"blocked(21).\nreach(X{n}) :- {chain}, X{n} > {n - 1}, not blocked(X20).\n"
        program = parse_program(text)
        lines = ground_program(program).to_text().split("\n")
        assert f"reach({n})." in lines and f"reach({n + 1})." not in lines
        plan = BodyPlan(program.rules[-1])
        index = AtomIndex(rule.head for rule in program.rules if rule.is_fact)
        values = [0] + [1] * len(index)
        found = list(join_in_full([plan], index, values, 0).values())
        assert [(slots[1], slots[-1], len(lits)) for slots, lits in found] == [(0, n, n)]

    @pytest.mark.parametrize("n", [3000, 50_000])
    def test_a_long_sum_grounds(self, n):
        """A sum of three or more terms is emitted flat; as a chain of `+`
        it nests too deep to compile.  A term repeated is checked once."""
        text = f"d(1).\np(X) :- d(Y), X = {'+'.join(['Y'] * n)}.\n"
        program = parse_program(text)
        gp = ground_program(program)
        assert fact_texts(gp) == ["d(1)", f"p({n})"]
        assert gp.rules == ()
        plan = BodyPlan(program.rules[-1])
        list(grounder._instances(plan, gp.atoms, ()))
        source = plan._source[grounder._INSTANCES]
        assert source.count("is not int") == 1
        assert "_arith(rule, s0)" in source

    @pytest.mark.skipif(
        not grounder._int_digits(), reason="no limit on int digits"
    )
    @pytest.mark.parametrize("kind", ["full", "lazy", "eager", "post"])
    def test_a_sum_too_long_to_print_is_an_error_at_its_rule(self, kind):
        nines = "9" * grounder._int_digits()
        program = parse_program(f"d({nines}).\np(X) :- d(Y), X = Y+Y.\n")
        with pytest.raises(GroundingError) as err:
            solve(program, kind)
        assert str(err.value) == (
            f"sum of over {grounder._int_digits()} digits in rule"
            " 'p(X) :- d(Y), X = Y+Y.' at 2:1"
        )
        fits = parse_program(f"d({nines}).\np(X) :- d(Y), X = Y+0.\n")
        assert solve(fits, kind).status == "SAT"

    @pytest.mark.skipif(
        not grounder._int_digits(), reason="no limit on int digits"
    )
    def test_the_digit_limit_is_read_when_a_join_compiles(self):
        """Joins compiled under one limit are not reused under another."""
        program = parse_program(f"d({'9' * 700}).\np(X) :- d(Y), X = Y+Y.\n")
        assert fact_texts(ground_program(program))[1] == f"p({2 * (10**700 - 1)})"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(700)
        try:
            with pytest.raises(GroundingError, match="sum of over 700 digits"):
                ground_program(program)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(ground_program(program).facts) == 2


def _literals(pred, count, first=0):
    return ", ".join(f"{pred}(X{k})" for k in range(first, count))


def _choice(mark, n):
    """A choice between a(1) and b(1) and a constraint of n positive
    literals against a(1) without b(1), deferred or not."""
    return (
        "d(1).\na(1) :- not b(1).\nb(1) :- not a(1).\n"
        f"{mark}:- a(X0), {_literals('d', n, 1)}, not b(X{n - 1}).\n"
    )


#: Long bodies and a wide head over the one-constant domain: CPython caps
#: indentation at 100 levels, which a join nesting all its loops in one
#: function passes from about 95 positive literals.
LONG_BODIES = {
    "constraint-95": f"d(1).\n:- {_literals('d', 95)}.\n",
    "deferred-95": _choice("%@deferred\n", 95),
    "head-300": (
        f"d(1).\np({','.join(f'X{k}' for k in range(300))}) :- {_literals('d', 300)}.\n"
    ),
    "body-300": _choice("", 300),
}


@pytest.mark.parametrize("kind", ["full", "lazy", "eager", "post"])
@pytest.mark.parametrize("name", sorted(LONG_BODIES))
def test_long_bodies_agree_with_the_oracle(name, kind):
    program = parse_program(LONG_BODIES[name])
    want = enumerate_stable_models(naive_ground_program(program))
    result = solve(program, kind, seed=1)
    assert result.status == ("SAT" if want else "UNSAT")
    if want:
        assert frozenset(result.model) in want


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


    @pytest.mark.parametrize(
        "facts, body, checks",
        [
            ("p(1). q(1). q(a).", "p(X), X < 3, q(Y), X < Y", 2),
            ("p(a).", "p(X), Y = X, Y < 3", 1),
            ("p(a).", "p(X), X != 1, X < 3", 1),
        ],
        ids=["checked-in-an-enclosing-loop", "bound-by-equality", "compared-by-inequality"],
    )
    def test_a_slot_is_checked_to_be_an_integer_once(self, facts, body, checks):
        """`X < 3` checks X in the loop over p, so `X < Y` in the loop over
        q checks Y alone, and the symbol there raises what checking both
        sides raises.  A slot bound by `=` to a single term, or compared by
        `!=`, is not known to hold an integer."""
        program = parse_program(f"{facts}\n:- {body}.\n")
        source = program.plans[-1]._source[grounder._INSTANCES]
        assert source.count("type(") == checks
        with pytest.raises(GroundingError) as err:
            ground_program(program)
        assert str(err.value) == (
            f"ordered comparison on non-integer constant 'a' in rule ':- {body}.' at 2:1"
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
    atoms = AtomIndex(universe)
    values = [0] + [1 if atom in truths else -1 for atom in atoms]
    index = ConstraintIndex([BodyPlan(c) for c in constraints], GroundProgram(atoms, (), ()))
    return [
        (
            index.plans[ci].render(slots),
            frozenset(Literal(atoms.atom(abs(l) - 1), l > 0) for l in lits),
        )
        for (ci, _), (slots, lits) in ground_deferred_violations(index, values).items()
    ]


class TestGroundDeferredViolations:
    @pytest.fixture
    def deferred(self):
        return [plan.rule for plan in parse_program(PI1_DEFERRED_TEXT).deferred_plans()]

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
            ConstraintIndex(program.plans[1:], ground_program(program))

    def test_matches_naive_instantiation(self):
        """Cross-check the join against filtering the naive instantiation."""
        checked = 0
        for seed in range(160):
            try:
                program = parse_program(random_program_text(seed))
            except ParseError:
                continue
            deferred = [plan.rule for plan in program.deferred_plans()]
            if not deferred:
                continue
            naive = naive_ground_program(program)
            universe = list(naive.atoms)
            if len(universe) > 8:
                continue
            for bits in itertools.product([False, True], repeat=len(universe)):
                truths = {a for a, b in zip(universe, bits) if b}
                interp = {Literal(a, a in truths) for a in universe}
                got = set()
                for inst, nogood in violations(deferred, universe, truths):
                    assert nogood == frozenset(inst.body)
                    got.add((inst.head, nogood))
                want = set()
                for rule in deferred:
                    for inst in grounded(rule, index_of(_full_domains(program))):
                        if frozenset(inst.body) <= interp:
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
    fixpoint, then the instance of each match of the truth-form join of each
    kept rule in program order over its index (`instance_of`), then rounds
    that drop instances with a fact head or a negative literal on a fact and
    strip fact literals from the rest, a body that empties making a fact,
    until a round changes nothing."""
    kept = [
        rule
        for i, rule in enumerate(program.rules)
        if include_deferred or i not in program.deferred
    ]
    plans = [BodyPlan(rule) for rule in kept]
    index = AtomIndex()
    undefined = [0]  # the truth of each atom, grown with the index
    changed = True
    while changed:
        changed = False
        for rule, plan in zip(kept, plans):
            if rule.head is None:
                continue
            matches = join_in_full([plan], index, undefined, len(rule.body))
            for head in (plan.render(slots).head for slots, _ in matches.values()):
                if head not in index:
                    index.add(head)
                    undefined.append(0)
                    changed = True
    instances = {}  # instance -> whether it is first an instance of a fact
    for rule, plan in zip(kept, plans):
        for slots, _ in join_in_full([plan], index, undefined, len(rule.body)).values():
            inst = instance_of(plan.render(slots), index)
            if inst is not None:
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
    """The grounding has the reference's atoms, facts and rules with heads,
    in order.  Its constraints are some of the reference's, as the planner
    joins a symmetric pair once (`grounder._symmetric_pairs`), and with the
    same nogoods: the solver's store, which the search reads, is the one
    it builds from the reference, in order, watches included.  Returns the
    number of rules of each, deferred constraints kept."""
    for include_deferred in (False, True):
        gp = ground_program(program, include_deferred=include_deferred)
        atoms, facts, rules, derived = reference_grounding(program, include_deferred)
        assert list(gp.atoms) == atoms
        assert [r for r in gp.rules if r[0]] == [r for r in rules if r[0]]
        constraints = {body for head, body in gp.rules if not head}
        reference = {body for head, body in rules if not head}
        assert constraints <= reference
        assert {canonical(body) for body in constraints} == {
            canonical(body) for body in reference
        }
        assert set(gp.facts) == set(facts)
        if not derived:
            assert gp.facts == facts
        # Derived facts may come in another order; the rules are compared.
        same = GroundProgram(AtomIndex(atoms), gp.facts if derived else facts, rules)
        assert store_of(Solver(gp)) == store_of(Solver(same))
    return len(gp.rules), len(rules)


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
    # At X = Y every positive and every negative literal repeats.
    "repeated literal": """\
d(1). d(2). p(X) :- d(X), not q(X). q(X) :- d(X), not p(X).
r(X,Y) :- p(X), p(Y), p(X), d(Y), not q(Y), not q(X), not q(Y).
""",
    # At X = Y the body holds p(X) and its complement, in either order.
    "literal and its complement": """\
d(1). d(2). p(X) :- d(X), not q(X). q(X) :- d(X), not p(X).
s(X,Y) :- p(X), d(Y), not p(Y). t(X,Y) :- d(Y), not p(Y), p(X).
""",
    # At X = Y the two literals on q with a 1 in one position repeat, as do
    # the two with a 2; at Y = 1 not q(1,X) repeats not q(Y,2), and at X = 1
    # q(X,1) meets its complement not q(1,X).
    "repeat under a constant": """\
d(1). d(2). q(X,Y) :- d(X), d(Y), not w(X,Y). w(X,Y) :- d(X), d(Y), not q(X,Y).
r(X,Y) :- d(X), d(Y), q(X,1), q(Y,1), not q(X,2), not q(Y,2), not q(1,X).
""",
    "head in its own body": """\
d(1). d(2). p(X) :- d(X), not q(X). q(X) :- d(X), not p(X). p(X) :- p(X), d(X).
""",
    # b(1) is derived after c's instances are built and before e's.
    "negative literal on a derived fact": """\
a(1). a(2). c(X) :- a(X), not b(X). b(X) :- a(X), X < 2. e(X) :- a(X), not b(X).
""",
    # 48 positive literals and a repeat on the mixed predicate e, so the
    # instance form probes literals in three nested generators: every third
    # e atom is derived from f and the others are facts.
    "deep body": "".join(
        f"f({k},{k + 1}). " if k % 3 == 0 else f"e({k},{k + 1}). " for k in range(48)
    )
    + "e(X,Y) :- f(X,Y), not g(X,Y). g(X,Y) :- f(X,Y), not e(X,Y).\n"
    + f"reach(X0) :- {', '.join(f'e(X{k},X{k + 1})' for k in range(48))},"
    " e(X0,X1), not g(X0,X1), not e(X3,X2).\n",
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
    _, rules = texts["repeated literal"]
    assert rules[4:] == [
        "r(1,1) :- p(1), not q(1)",
        "r(1,2) :- p(1), p(2), not q(2), not q(1)",
        "r(2,1) :- p(2), p(1), not q(1), not q(2)",
        "r(2,2) :- p(2), not q(2)",
    ]
    _, rules = texts["literal and its complement"]
    assert rules[4:] == [
        "s(1,2) :- p(1), not p(2)",
        "s(2,1) :- p(2), not p(1)",
        "t(2,1) :- not p(1), p(2)",
        "t(1,2) :- not p(2), p(1)",
    ]
    _, rules = texts["repeat under a constant"]
    assert rules[8:] == [
        "r(2,1) :- q(2,1), q(1,1), not q(2,2), not q(1,2)",
        "r(2,2) :- q(2,1), not q(2,2), not q(1,2)",
    ]
    _, rules = texts["head in its own body"]
    assert rules[4:] == ["p(1) :- p(1)", "p(2) :- p(2)"]
    assert texts["negative literal on a derived fact"] == (
        ["a(1)", "a(2)", "b(1)", "c(2)", "e(2)"],
        [],
    )
    _, rules = texts["deep body"]
    kept = ", ".join(f"e({k},{k + 1})" for k in range(0, 48, 3))
    assert rules[-1] == f"reach(0) :- {kept}, not g(0,1)"


def test_a_long_body_on_one_predicate_plans_in_linear_source():
    """4,000 negative literals on one predicate, each with its own constant:
    no two can be on one atom, so the instance form compares none of them,
    and its source stays within a fixed multiple of the truth form's."""
    text = (
        "a(1). a(2). c(3). c(5).\n"
        "b(X,Y) :- a(X), c(Y), not e(X,Y). e(X,Y) :- a(X), c(Y), not b(X,Y).\n"
        f"q(X) :- a(X), {', '.join(f'not b(X,{i})' for i in range(4000))}.\n"
    )
    program = parse_program(text)
    source = program.plans[-1]._source
    assert len(source[grounder._INSTANCES]) < 2 * len(source[grounder._TRUTH])
    assert_grounds_as_reference(program)
    gp = ground_program(program)
    assert "q(1) :- not b(1,3), not b(1,5)" in rule_texts(gp)


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


def assert_bodies_are_distinct_and_complement_free(gp):
    """The guarantee of `GroundProgram` that the solver's build relies on."""
    assert len(set(gp.facts)) == len(gp.facts)
    for _, body in gp.rules:
        assert len(set(body)) == len(body), body
        assert set(body).isdisjoint(-lit for lit in body), body


def test_every_producer_gives_distinct_complement_free_bodies():
    """On the fuzz programs, and on the hand cases for `ground_program`
    alone: the naive instantiation of the deep body would not end."""
    for text in FOLD_CASES.values():
        gp = ground_program(parse_program(text), include_deferred=True)
        assert_bodies_are_distinct_and_complement_free(gp)
    programs = []
    for seed in range(120):
        try:
            programs.append(parse_program(random_program_text(seed)))
        except ParseError:
            pass
        programs.append(parse_program(random_join_program_text(seed)))
    produced = 0
    for program in programs:
        gps = [ground_program(program, include_deferred=d) for d in (False, True)]
        naive = naive_ground_program(program)
        gps.append(naive)
        atoms = list(naive.atoms)
        for k in range(3):
            gps.append(reduct(naive, atoms[k::3]))
        for gp in gps:
            assert_bodies_are_distinct_and_complement_free(gp)
            produced += bool(gp.rules)
    assert produced >= 1000


@pytest.mark.parametrize(
    "case",
    [*GOLDEN_INSTANCES]
    + [f"{w}-seed{seed}" for w in ("deferred-ground", "deferred-propagate") for seed in (1, 7)],
)
def test_golden_and_workload_groundings_store_as_their_reference(case):
    """The benchmark families' symmetric constraints are joined once per
    pair: the golden instances and the two deferred workloads' instances
    ground to the reference's store with fewer constraints."""
    if case in GOLDEN_INSTANCES:
        programs = [GOLDEN_INSTANCES[case]()]
    else:
        workload, seed = case.rsplit("-seed", 1)
        programs = [
            parse_program(inst.text)
            for inst in load_workloads().WORKLOADS[workload].instances(int(seed))
        ]
    grounded = referenced = 0
    for program in programs:
        rules, reference = assert_grounds_as_reference(program)
        grounded += rules
        referenced += reference
    assert (grounded < referenced) == (case != "3sat-v20")


def test_folded_grounding_matches_reference_on_benchmark_families():
    for program in (
        benchgen.gen_3sat(20, 4.26, 1),
        benchgen.gen_marriage(4, 30, 1),
        benchgen.gen_packing(4, 3, (2, 2)),
    ):
        assert_grounds_as_reference(program)


def _choices(predicates):
    """Choice rules over `d(1..3)` for each (predicate, arity)."""
    lines = ["d(1). d(2). d(3)."]
    for pred, arity in predicates:
        args = ",".join(f"V{k}" for k in range(arity))
        domain = ", ".join(f"d(V{k})" for k in range(arity))
        lines.append(f"{pred}({args}) :- {domain}, not n{pred}({args}).")
        lines.append(f"n{pred}({args}) :- {domain}, not {pred}({args}).")
    return "\n".join(lines) + "\n"


SWAP_CHOICES = _choices(
    [("a", 1), ("b", 1), ("c", 1), ("q", 2), ("p", 2), ("match", 2), ("pos", 3)]
)


def _constraints(program):
    return [rule for rule in program.rules if rule.head is None]


# Constraints whose two positive literals on one predicate swap onto each
# other and map the body onto itself.
SYMMETRIC = {
    "marriage, one woman per man": ":- match(M,W1), match(M,W2), W1 != W2.",
    "marriage, one man per woman": ":- match(M1,W), match(M2,W), M1 != M2.",
    "packing, one column per square": ":- pos(I,X,Y), pos(I,X1,Y1), X1 != X.",
    "packing, one row per square": ":- pos(I,X,Y), pos(I,X1,Y1), Y1 != Y.",
    "a binary pair": ":- q(X,Y), q(Y,X).",
    "a unary pair": ":- a(X), a(Y).",
    "negative literals that swap too": ":- a(X), a(Y), not b(X), not b(Y).",
}

# Constraints, and a rule, with no such pair.
ASYMMETRIC = {
    "transitivity": ":- q(X,Y), q(Y,Z), not q(X,Z).",
    "an ordered comparison": ":- a(X), a(Y), X < Y.",
    "a double swap": ":- a(X), a(Y), b(X), b(Y).",
    "a constant against a variable": ":- p(1,X), p(Y,2).",
    "a rule with a head": "c(1) :- a(X), a(Y).",
}


def test_the_benchmark_constraints_named_are_the_generated_ones():
    """The marriage and packing cases above are the generators' own, and
    packing's overlap constraints are the two with sums."""
    texts = {str(r) + "." for r in _constraints(benchgen.gen_marriage(3, 30, 1))}
    texts |= {str(r) + "." for r in _constraints(benchgen.gen_packing(4, 3, (2, 2)))}
    for name, text in SYMMETRIC.items():
        assert (text in texts) == (name.startswith(("marriage", "packing"))), name


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_a_symmetric_pair_is_joined_once(name):
    program = parse_program(SWAP_CHOICES + SYMMETRIC[name] + "\n")
    assert grounder._symmetric_pairs(program.rules[-1]) == [(0, 1)]
    rules, reference = assert_grounds_as_reference(program)
    assert rules < reference


@pytest.mark.parametrize("name", sorted(ASYMMETRIC))
def test_a_body_without_a_symmetric_pair_is_joined_in_full(name):
    program = parse_program(SWAP_CHOICES + ASYMMETRIC[name] + "\n")
    assert grounder._symmetric_pairs(program.rules[-1]) == []
    rules, reference = assert_grounds_as_reference(program)
    assert rules == reference


def test_a_symmetric_body_with_an_ordered_comparison_is_joined_in_full():
    """The swap maps this body onto itself, but only the match that the
    pair would skip reaches `T < 3` with T a symbol: joining it in full
    keeps the error."""
    program = parse_program(
        "a(1,foo). a(9,0).\n:- a(X,S), a(Y,T), T < 3, Y > 4, X > 4, S < 3.\n"
    )
    assert grounder._symmetric_pairs(program.rules[-1]) == []
    with pytest.raises(GroundingError, match="non-integer constant 'foo'"):
        ground_program(program)


def test_packing_overlap_constraints_have_no_symmetric_pair():
    """Swapping their `pos` literals would swap their `square` literals
    too, and they compare sums."""
    overlaps = [
        rule
        for rule in _constraints(benchgen.gen_packing(4, 3, (2, 2)))
        if "square(I1,D1)" in str(rule)
    ]
    assert len(overlaps) == 2
    assert [grounder._symmetric_pairs(rule) for rule in overlaps] == [[], []]


def test_a_symmetric_pair_in_two_generated_parts_is_joined_once():
    """A pair that the nesting limit puts in different generated functions:
    the later one reads the earlier loop's variable as a parameter."""
    n = grounder._NESTED
    facts = " ".join(f"e({k})." for k in range(1, n + 1))
    middle = ", ".join(f"e({k})" for k in range(1, n + 1))
    program = parse_program(
        SWAP_CHOICES + f"{facts}\n:- a(X), {middle}, a(Y), not b(X), not b(Y).\n"
    )
    assert grounder._symmetric_pairs(program.rules[-1]) == [(0, n + 1)]
    source = program.plans[-1]._source[grounder._INSTANCES]
    part = source.index(f"def part{n}(")
    assert source.index(f"if v{n + 2} < v1: continue") > part
    rules, reference = assert_grounds_as_reference(program)
    assert rules < reference
