"""The propagators' seeded joins against the written-order join.

Eager joins outward from each assigned literal and post only from the
literals assigned since its last call; both must find and emit exactly what
the written-order join from the same start (eager) or over the whole body
(post) would.
"""
import random

import pytest

from microasp import benchgen
from microasp.cdcl import Solver
from microasp.grounder import (
    BodyPlan,
    ground_deferred_violations,
    ground_program,
    iter_matches,
)
from microasp.model import Atom, Literal
from microasp.parser import ParseError, parse_program
from microasp.strategies import ConstraintIndex, _canonical, _new_nogoods, solve
from support import PI1_DEFERRED_TEXT, lit_of, random_program_text


def fuzz_programs(n):
    for seed in range(n):
        try:
            program = parse_program(random_program_text(seed))
        except ParseError:
            continue
        if program.deferred:
            yield program


def written_from(index, ci, seed, atom, values, budget):
    """The written-order join from a seed: the matches of the full join that
    put `atom` at body element `seed`, as (ground rule, signed variables)."""
    plan = index.plans[ci]
    at = sum(isinstance(e, Literal) for e in plan.rule.body[:seed])
    out = []
    for slots, lits in iter_matches(plan, index.gp.atoms, values, budget):
        inst = plan.render(slots)
        if inst.body[at].atom == atom:
            out.append((inst, lits))
    return out


def rendered(emitted):
    """Emitted (match, constraint position, nogood) with each match as its
    ground rule."""
    return [(plan.render(slots), ci, nogood) for (plan, slots), ci, nogood in emitted]


def trigger_joins(index, lit, values, budget):
    """For each trigger of `lit`, in trigger order: its constraint position,
    whether its seeded plan's start binds the atom of `lit`, and the
    written-order join from that seed."""
    atom = index.gp.atoms.atom(abs(lit) - 1)
    return [
        (
            ci,
            plan.start(atom.args) is not None,
            written_from(index, ci, plan.seed, atom, values, budget),
        )
        for ci, plan in index._triggers.get((atom.predicate, lit > 0), ())
    ]


class TestSeededPlan:
    def test_positive_seed_first_then_outward(self):
        rule = benchgen.gen_3sat(3, 1.0, 1).deferred_rules()[0]
        plan = BodyPlan(rule, seed=4)  # val(V2,F2)
        assert [str(lit) for lit in plan.positives] == [
            "val(V2,F2)",
            "clause(C,2,V2,S2)",
            "clause(C,1,V1,S1)",
            "val(V1,F1)",
            "clause(C,3,V3,S3)",
            "val(V3,F3)",
        ]
        assert plan.written == (2, 3, 1, 0, 4, 5)
        assert "F2 != S2" in [str(e) for e in plan.stages[2]]

    def test_negative_seed_binds_before_the_first_positive(self):
        rule = parse_program(":- p(X), q(Y), not r(Y).").rules[0]
        plan = BodyPlan(rule, seed=2)
        assert [str(lit) for lit in plan.positives] == ["q(Y)", "p(X)"]
        assert [str(e) for e in plan.stages[0]] == ["not r(Y)"]
        assert plan.written == (1, 0)

    def test_unseeded_plan_is_written_order(self):
        rule = parse_program(":- p(X), q(Y), not r(Y).").rules[0]
        plan = BodyPlan(rule)
        assert [str(lit) for lit in plan.positives] == ["p(X)", "q(Y)"]
        assert plan.written == (0, 1)

    def test_start_checks_constants_and_repeated_variables(self):
        rule = parse_program(":- p(X,1,X,Y), q(Y).").rules[0]
        plan = BodyPlan(rule, seed=0)
        assert str(plan.render(plan.start((2, 1, 2, 3)))) == ":- p(2,1,2,3), q(3)"
        assert plan.start((2, 0, 2, 3)) is None
        assert plan.start((2, 1, 3, 3)) is None


def assert_seeded_matches_written(index, values, budget):
    """With each literal made true in turn, every trigger's seeded matches,
    in key order, are the written-order join's from the same start, match
    for match; returns how many."""
    checked = 0
    for var in range(1, len(index.gp.atoms) + 1):
        for lit in (var, -var):
            vals = list(values)
            vals[var] = 1 if lit > 0 else -1
            joins = trigger_joins(index, lit, vals, budget)
            seeded = iter(index._seeded(lit, vals, budget))
            for ci, started, want in joins:
                if not started:
                    assert want == []
                    continue
                found = next(seeded)
                got = [
                    (plan.render(slots), lits)
                    for (plan, slots), _, lits in (found[k] for k in sorted(found))
                ]
                assert [(s, _canonical(l)) for s, l in got] == [
                    (s, _canonical(l)) for s, l in want
                ]
                assert all(k[0] == ci for k in found)
                checked += len(want)
            assert next(seeded, None) is None
    return checked


class TestSeededJoinDifferential:
    @pytest.mark.parametrize("budget", [1, 0])
    def test_fuzz_programs_under_random_partial_assignments(self, budget):
        rng = random.Random(budget)
        checked = programs = 0
        for program in fuzz_programs(150):
            gp = ground_program(program)
            index = ConstraintIndex(program.deferred_rules(), gp)
            for _ in range(8):
                values = [0] + [rng.choice((-1, 0, 1)) for _ in gp.atoms]
                checked += assert_seeded_matches_written(index, values, budget)
            programs += 1
        assert programs >= 60
        assert checked >= 150

    @pytest.mark.parametrize(
        "make",
        [
            lambda: benchgen.gen_3sat(8, 4.26, 3),
            lambda: benchgen.gen_marriage(4, 30, 1),
            lambda: benchgen.gen_packing(3, 3, (2, 1)),
        ],
        ids=["3sat", "marriage", "packing"],
    )
    def test_benchmark_families(self, make):
        """Multi-literal bodies, where the seeded order differs from the
        written one; facts true, the rest at random."""
        program = make()
        gp = ground_program(program)
        index = ConstraintIndex(program.deferred_rules(), gp)
        rng = random.Random(7)
        facts = set(gp.facts)
        values = [0] + [
            1 if v in facts else rng.choice((-1, 0, 1, 1))
            for v in range(1, len(gp.atoms) + 1)
        ]
        assert assert_seeded_matches_written(index, values, 1) > 0


SPY_PROGRAMS = {
    "pi1": lambda: parse_program(PI1_DEFERRED_TEXT),
    "3sat-v20": lambda: benchgen.gen_3sat(20, 4.26, 1),
    "marriage-n5": lambda: benchgen.gen_marriage(5, 30, 1),
    "packing-4x3": lambda: benchgen.gen_packing(4, 3, (2, 2)),
    "packing-3x3": lambda: benchgen.gen_packing(3, 3, (2, 2)),
}


# Seeded at s(Z), the join runs c(Y,Z), b(X,Y), a(X): it meets Y=1 (X=2)
# before Y=2 (X=1), while the written order meets X=1 first.
REORDERED_TEXT = """\
a(1). a(2).
b(2,1). b(1,2).
c(1,5). c(2,5).
s(5) :- not ns(5).
ns(5) :- not s(5).
%@deferred
:- a(X), b(X,Y), c(Y,Z), s(Z).
"""


def reordered_at_s():
    """A solver with the facts propagated and s(5) decided, and the index."""
    program = parse_program(REORDERED_TEXT)
    gp = ground_program(program)
    index = ConstraintIndex(program.deferred_rules(), gp)
    solver = Solver(gp)
    assert solver.propagate() is None
    assert index.post_nogoods(solver) == []  # the full join; sets the mark
    s5 = lit_of(solver, Atom("s", (5,)))
    solver.decide(s5)
    assert solver.propagate() is None
    return index, solver, s5


def x_values(found):
    """The X of each match, read off a(X), the constraint's first literal."""
    return [plan.render(slots).body[0].atom.args[0] for (plan, slots), _, _ in found]


class TestEagerOrder:
    def test_matches_come_in_written_join_order(self):
        index, solver, s5 = reordered_at_s()
        (found,) = list(index._seeded(s5, solver._assign, 1))
        assert x_values(found.values()) == [2, 1]
        assert x_values(index.eager_nogoods(solver, s5)) == [1, 2]

    @pytest.mark.parametrize("name", ["3sat-v20", "marriage-n5", "packing-3x3"])
    def test_eager_emits_what_the_written_join_would(self, name, monkeypatch):
        """At every call, eager's nogoods are the written-order joins from
        each trigger's start, trigger by trigger, through `_new_nogoods`."""
        original = ConstraintIndex.eager_nogoods
        emitted = []

        def spy(index, solver, lit):
            want = _new_nogoods(
                solver,
                [
                    (inst, ci, lits)
                    for ci, _, matches in trigger_joins(index, lit, solver._assign, 1)
                    for inst, lits in matches
                ],
            )
            got = original(index, solver, lit)
            assert rendered(got) == want
            emitted.extend(got)
            return got

        monkeypatch.setattr(ConstraintIndex, "eager_nogoods", spy)
        solve(SPY_PROGRAMS[name](), "eager", seed=1)
        assert emitted


class PostSpy:
    """Wraps `post_nogoods`: at every call, compares what the delta join
    emits with what the full join plus `_new_nogoods` would emit."""

    def __init__(self, monkeypatch):
        self.delta_calls = self.clamped = 0
        self._last_len = 0
        original = ConstraintIndex.post_nogoods

        def spy(index, solver):
            mark = solver._fixpoint_mark
            full = _new_nogoods(
                solver,
                [
                    (index.plans[ci].render(slots), ci, lits)
                    for ci, slots, lits in ground_deferred_violations(
                        index.plans, index.gp.atoms, solver._assign
                    )
                ],
            )
            got = original(index, solver)
            assert rendered(got) == full
            self.delta_calls += mark > 0
            self.clamped += mark < self._last_len
            self._last_len = len(solver._trail)
            return got

        monkeypatch.setattr(ConstraintIndex, "post_nogoods", spy)


class TestPostDelta:
    @pytest.mark.parametrize("name", sorted(SPY_PROGRAMS))
    def test_delta_emits_what_the_full_join_would(self, name, monkeypatch):
        spy = PostSpy(monkeypatch)
        solve(SPY_PROGRAMS[name](), "post", seed=1)
        assert spy.delta_calls >= 1

    def test_delta_emits_in_full_join_order(self):
        index, solver, _ = reordered_at_s()
        assert solver._fixpoint_mark > 0
        assert x_values(index.post_nogoods(solver)) == [1, 2]

    def test_delta_through_conflicts_and_backjumps(self, monkeypatch):
        spy = PostSpy(monkeypatch)
        result = solve(benchgen.gen_3sat(24, 4.26, 62), "post", seed=1)
        assert result.stats.conflicts >= 10
        assert spy.delta_calls >= 10
        assert spy.clamped >= 1  # a backjump pulled the mark below the trail

    def test_backjump_clamps_the_mark(self):
        program = benchgen.gen_3sat(24, 4.26, 62)
        gp = ground_program(program)
        solver = Solver(gp, seed=1)
        assert solver.propagate() is None
        solver.decide(solver.choose_literal())
        assert solver.propagate() is None
        solver._fixpoint_mark = len(solver._trail)
        solver._backjump(0)
        assert solver._fixpoint_mark == len(solver._trail)


def model_set(program, kind):
    """Every model the strategy enumerates, each blocked in turn."""
    atoms = list(ground_program(program).atoms)
    found = set()

    def block(model):
        found.add(frozenset(model))
        return [
            [Literal(a) for a in model]
            + [Literal(a, False) for a in atoms if a not in model]
        ]

    result = solve(program, kind, seed=1, on_model=block)
    assert result.status == "UNSAT"
    return found


class TestPostEdgeCases:
    @pytest.mark.parametrize("kind", ["full", "lazy", "eager", "post"])
    def test_ground_body_no_trail_literal_triggers(self, kind):
        """`q` is underivable, so `not q` is on no trail: only the full join
        at post's first call sees the violated body."""
        program = parse_program(
            "p :- not r.\nr :- not p.\n%@deferred\n:- not q.\n"
        )
        sink = []
        assert solve(program, kind, seed=1, instance_sink=sink).status == "UNSAT"
        if kind == "post":
            assert [(str(inst), origin) for _, inst, origin in sink] == [
                (":- not q", "post")
            ]

    TEXT = (
        "p(1) :- not np(1).\n"
        "np(1) :- not p(1).\n"
        "q(1) :- not nq(1).\n"
        "nq(1) :- not q(1).\n"
        "%@deferred\n"
        ":- p(X), not q(X).\n"
    )

    def test_negative_literal_falsified_last_is_caught(self):
        program = parse_program(self.TEXT)
        gp = ground_program(program)
        p = gp.atoms.id_of(Atom("p", (1,))) + 1
        q = gp.atoms.id_of(Atom("q", (1,))) + 1
        sink = []
        result = solve(
            program, "post", seed=1, forced_decisions=[p, -q], instance_sink=sink
        )
        assert result.status == "SAT"
        assert [(str(inst), origin) for _, inst, origin in sink] == [
            (":- p(1), not q(1)", "post")
        ]
        assert result.stats.propagator_nogoods == 1
        assert result.stats.invalidations == 0

    def test_negative_seed_model_set_equals_full(self):
        program = parse_program(self.TEXT)
        want = model_set(program, "full")
        assert len(want) == 3
        assert model_set(program, "post") == want
        assert model_set(program, "eager") == want
