"""A program is planned once: `Program.plans` serve the parser's safety
check, the grounder and the propagators of every solve of the program,
which must solve as a fresh parse of its text does.  What the plans plan is
shared by every program of one encoding through the table `grounder._PLANS`,
and a program that reuses it must solve as it would in a fresh process."""
import dataclasses
import gc
import json
import os
import subprocess
import sys
import threading
import weakref
from types import MappingProxyType

import pytest

import microasp
from microasp import benchgen, grounder, strategies
from microasp.cdcl import Solver
from microasp.grounder import BodyPlan, GroundingError, ground_program
from microasp.model import Atom, Literal, Program, Rule, Var
from microasp.parser import parse_program
from microasp.strategies import ConstraintIndex, solve
from support import PI1_DEFERRED_TEXT
from test_grounder import assert_grounds_as_reference

KINDS = ["full", "lazy", "eager", "post"]

TEXTS = {
    "3sat": benchgen.sat_program_text(benchgen.make_3sat(20, 4.26, 1)),
    "marriage": benchgen.marriage_program_text(benchgen.make_marriage(5, 30, 1)),
    "packing": benchgen.packing_program_text(benchgen.make_packing(3, 3, [2, 1, 1])),
    "pi1": PI1_DEFERRED_TEXT,
}


def outcome(result):
    return result.status, dataclasses.asdict(result.stats), result.model


def fresh(text):
    """Each strategy's outcome on a parse of its own."""
    return {kind: outcome(solve(parse_program(text), kind, seed=1)) for kind in KINDS}


def enumerate_some(inner=lambda: None):
    """An `on_model` that calls `inner()` at each model and blocks the
    first three models, and the list the models go to."""
    models = []

    def on_model(model):
        inner()
        models.append(model)
        return [[Literal(a) for a in model]] if len(models) < 3 else None

    return on_model, models


@pytest.mark.parametrize("name", sorted(TEXTS))
class TestSharedPlans:
    def test_solving_one_program_again_matches_fresh_parses(self, name):
        want = fresh(TEXTS[name])
        program = parse_program(TEXTS[name])
        for _ in range(2):
            for kind in KINDS:
                assert outcome(solve(program, kind, seed=1)) == want[kind]

    def test_a_solve_inside_another_of_the_same_program(self, name):
        """The inner solves rebind the program's plans to their own atom
        index; the outer solve goes on over its own."""
        text = TEXTS[name]
        want = fresh(text)
        program = parse_program(text)
        for kind in KINDS:
            on_model, models = enumerate_some()
            outer = outcome(solve(parse_program(text), kind, seed=1, on_model=on_model))
            inner = []

            def solve_inner():
                inner.append({k: outcome(solve(program, k, seed=1)) for k in KINDS})

            on_model, nested = enumerate_some(solve_inner)
            assert outcome(solve(program, kind, seed=1, on_model=on_model)) == outer
            assert nested == models
            assert inner and all(got == want for got in inner)

    def test_solves_on_threads(self, name):
        want = fresh(TEXTS[name])
        program = parse_program(TEXTS[name])
        got = []

        def run():
            for kind in KINDS * 2:
                got.append((kind, outcome(solve(program, kind, seed=1))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 4 * 2 * len(KINDS)
        assert all(result == want[kind] for kind, result in got)


class TestPlannedOnce:
    @pytest.fixture
    def seeds(self, monkeypatch):
        """The seed of every plan made, in order."""
        seeds = []
        original = BodyPlan.__init__

        def spy(plan, rule, seed=None, *args):
            seeds.append(seed)
            original(plan, rule, seed, *args)

        monkeypatch.setattr(BodyPlan, "__init__", spy)
        return seeds

    def test_a_solve_plans_no_rule_again(self, seeds):
        """The first propagator solve makes the seeded plans, which every
        later solve shares; no later solve compiles a join."""
        program = parse_program(TEXTS["marriage"])
        assert seeds == [None] * sum(not rule.is_fact for rule in program.rules)
        assert [plan is None for plan in program.plans] == [
            rule.is_fact for rule in program.rules
        ]
        planned = len(seeds)
        for kind in ("full", "lazy"):
            solve(program, kind, seed=1)
        assert len(seeds) == planned
        solve(program, "eager", seed=1)
        assert len(seeds) > planned and None not in seeds[planned:]
        planned = len(seeds)
        solve(program, "post", seed=1)
        assert len(seeds) == planned
        compiled = len(grounder._COMPILED)
        for kind in KINDS:
            solve(program, kind, seed=1)
        assert len(seeds) == planned
        assert len(grounder._COMPILED) == compiled

    def test_a_program_built_directly_plans_at_its_first_solve(self, seeds):
        parsed = parse_program(PI1_DEFERRED_TEXT)
        program = dataclasses.replace(parsed)
        del seeds[:]
        solve(program, "lazy", seed=1)
        assert seeds == [None] * len(program.rules)
        assert program.plans is program.plans
        assert program.extensional == parsed.extensional == frozenset()


@pytest.mark.parametrize("kind", ["lazy", "eager", "post"])
def test_a_deferred_fact_is_rejected_before_search(kind):
    """A fact has no plan; a program built directly may still mark one."""
    base = parse_program("p(1).\n:- p(1).\n")
    with pytest.raises(ValueError, match="not a constraint"):
        solve(Program(base.rules, frozenset({0})), kind)


class TestTriggersByLiteral:
    def test_each_literal_holds_the_triggers_of_its_predicate_and_sign(self):
        program = parse_program(TEXTS["marriage"])
        gp = ground_program(program)
        index = ConstraintIndex(program.deferred_plans(), gp)
        assert len(index._fired) == 2 * len(gp.atoms) + 1
        for var, atom in enumerate(gp.atoms, 1):
            for lit in (var, -var):
                want = [
                    (ci, grounder._compiled(seeded._source[grounder._TRUTH]))
                    for ci, plan in enumerate(index.plans)
                    for key, seeded in plan.seeded
                    if key == (atom.predicate, lit > 0)
                ]
                fired = index._fired[lit]
                assert [(ci, join) for join, _, _, _, ci in fired] == want
                for join, slots, gets, rule, ci in fired:
                    assert rule is index.plans[ci].rule

    def test_eager_joins_nothing_for_a_literal_with_no_trigger(self, monkeypatch):
        joins = []
        original = strategies.iter_matches

        def spy(*args):
            joins.append(args)
            return original(*args)

        monkeypatch.setattr(strategies, "iter_matches", spy)
        program = parse_program(TEXTS["marriage"])
        gp = ground_program(program)
        index = ConstraintIndex(program.deferred_plans(), gp)
        solver = Solver(gp)
        solver.propagate()
        quiet = next(v for v in range(1, len(gp.atoms) + 1) if not index._fired[v])
        index.eager_nogoods(solver, quiet)  # the first call joins in full
        assert len(joins) == 1 and joins[0][0] is index._full
        del joins[:]
        assert index.eager_nogoods(solver, quiet) == [] and joins == []


class TestModel:
    def test_a_variable_is_a_named_tuple_unequal_to_any_ground_term(self):
        x = Var("X")
        assert isinstance(x, tuple) and x == Var("X") and str(x) == "X"
        assert len({x: 0, "X": 1, Var("Y"): 2}) == 3

    def test_a_fact_token_builds_the_rule_its_constructor_would(self):
        """Alone, and in the middle of a run of facts."""
        for text, at, line, column in [
            ("\n  p(1,a).\n", 0, 2, 3),
            ("q(7).\np(1,a).q(2).\n", 1, 2, 1),
        ]:
            rule = parse_program(text).rules[at]
            built = Rule(Atom("p", (1, "a")), line=line, column=column)
            assert rule == built and hash(rule) == hash(built)
            assert type(rule.head) is Atom and rule.head == built.head
            assert vars(rule) == vars(built)
            # Set field by field, the rule's dict shares its class's keys.
            assert sys.getsizeof(vars(rule)) == sys.getsizeof(vars(built))

    def test_parsing_decides_once_whether_a_rule_is_a_fact(self, monkeypatch):
        """`extensional` and `plans` share one decision per rule."""
        calls = []
        is_fact = Rule.is_fact

        def counted(rule):
            calls.append(rule)
            return is_fact.fget(rule)

        monkeypatch.setattr(Rule, "is_fact", property(counted))
        for text in TEXTS.values():
            del calls[:]
            program = parse_program(text)
            assert len(calls) == len(program.rules)
            facts = [rule.is_fact for rule in program.rules]
            assert [plan is None for plan in program.plans] == facts
            assert program.extensional == frozenset(
                rule.head.predicate for rule, fact in zip(program.rules, facts) if fact
            ) - {
                rule.head.predicate
                for rule, fact in zip(program.rules, facts)
                if rule.head is not None and not fact
            }


_FRESH = """
import dataclasses, json, sys
from microasp.parser import parse_program
from microasp.strategies import solve
text = sys.stdin.read()
out = {}
for kind in sys.argv[1:]:
    result = solve(parse_program(text), kind, seed=1)
    model = sorted(map(str, result.model or ()))
    out[kind] = [result.status, dataclasses.asdict(result.stats), model]
print(json.dumps(out))
"""


def fresh_process(text):
    """Each strategy's outcome on the text, solved in a new interpreter, as
    JSON values."""
    src = os.path.dirname(os.path.dirname(microasp.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _FRESH, *KINDS],
        input=text,
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
        timeout=120,
    )
    return json.loads(done.stdout)


def as_json(result):
    """A strategy's outcome as `fresh_process` reads it."""
    model = sorted(map(str, result.model or ()))
    outcome = [result.status, dataclasses.asdict(result.stats), model]
    return json.loads(json.dumps(outcome))


@pytest.fixture
def plans(monkeypatch):
    """The keys of every rule planned, in order, the table emptied first."""
    monkeypatch.setattr(grounder, "_PLANS", {})
    keys = []
    original = BodyPlan._plan

    def spy(rule, seed, extensional):
        keys.append((str(rule), seed))
        return original(rule, seed, extensional)

    monkeypatch.setattr(BodyPlan, "_plan", staticmethod(spy))
    return keys


class TestPlanTable:
    def test_a_program_of_a_known_encoding_plans_nothing(self, plans):
        """Another instance, with other facts and its rules on other lines,
        reuses every plan, seeded ones included, and solves as in a fresh
        process."""
        first = parse_program(TEXTS["3sat"])
        for kind in KINDS:
            solve(first, kind, seed=1)
        assert len(plans) > sum(plan is not None for plan in first.plans)
        del plans[:]
        text = benchgen.sat_program_text(benchgen.make_3sat(22, 4.26, 5))
        program = parse_program(text)
        lines = [(r.line, r.column) for r in program.rules if not r.is_fact]
        assert lines != [(r.line, r.column) for r in first.rules if not r.is_fact]
        got = {kind: as_json(solve(program, kind, seed=1)) for kind in KINDS}
        assert plans == []
        assert all(
            plan.rule is rule for plan, rule in zip(program.plans, program.rules) if plan
        )
        assert got == fresh_process(text)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("d(a).\np(X) :- d(Y), X = Y+1.\n", "2:1"),
            ("d(b).\nd(c).\n\np(X) :- d(Y), X = Y+1.\n", "4:1"),
            ("d(a).\ne(1).\n%@deferred\n:- d(Y), Z = Y+1, e(Z).\n", "4:1"),
            ("e(1).\n\nd(a).\n%@deferred\n  :- d(Y), Z = Y+1, e(Z).\n", "5:3"),
        ],
        ids=["rule", "rule-moved", "deferred", "deferred-moved"],
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_an_error_names_its_own_programs_location(self, text, where, kind):
        """Each program's error is at its own rule, whichever program of the
        encoding planned the rule first."""
        parse_program("d(z).\n\n\np(X) :- d(Y), X = Y+1.\n")
        parse_program("e(0).\nd(z).\n\n:- d(Y), Z = Y+1, e(Z).\n")
        with pytest.raises(GroundingError) as err:
            solve(parse_program(text), kind, seed=1)
        assert str(err.value).endswith(f" at {where}")

    @pytest.mark.parametrize("derived_first", [False, True])
    def test_the_key_holds_which_body_predicates_are_extensional(
        self, plans, derived_first
    ):
        facts_only = "q(1).\nq(2).\np(X) :- q(X).\n"
        derived = "r(1).\nr(3).\nq(X) :- r(X).\np(X) :- q(X).\n"
        texts = [derived, facts_only] if derived_first else [facts_only, derived]
        for text in texts:
            program = parse_program(text)
            assert_grounds_as_reference(program)
        # Once over facts-only `q`, once over derived `q`.
        assert plans.count(("p(X) :- q(X)", None)) == 2

    def test_the_shared_fields_cannot_be_written(self, plans):
        """What the table holds is shared by every program of an encoding,
        so it is made of tuples and read-only mappings only: hashing finds
        any list or dict inside."""
        for text in TEXTS.values():
            program = parse_program(text)
            for kind in KINDS:
                solve(program, kind, seed=1)
        assert len(grounder._PLANS) == len(plans)
        for planned in grounder._PLANS.values():
            for name, value in planned.items():
                if name == "_source":
                    assert isinstance(value, MappingProxyType)
                    value = tuple(value.items())
                hash(value)

    def test_the_table_is_bounded(self, plans):
        for i in range(grounder._MAX_PLANS + 10):
            BodyPlan(parse_program(f"p(X) :- q(X), X != {i}.\n").rules[0])
            assert 0 < len(grounder._PLANS) <= grounder._MAX_PLANS
        assert len(plans) == grounder._MAX_PLANS + 10

    @pytest.mark.parametrize("kind", KINDS)
    def test_the_table_holds_nothing_of_a_solve(self, plans, monkeypatch, kind):
        """The atom index of a solve dies with the solve, while its program
        and plans, the first of their keys, live on: no plan holds it."""
        indexes = []
        original = strategies.ground_program

        def spy(*args, **kwargs):
            gp = original(*args, **kwargs)
            indexes.append(weakref.ref(gp.atoms))
            return gp

        monkeypatch.setattr(strategies, "ground_program", spy)
        program = parse_program(TEXTS["marriage"])
        solve(program, kind, seed=1)
        gc.collect()
        assert indexes and all(ref() is None for ref in indexes)
        assert program.plans
