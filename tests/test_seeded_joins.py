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
from microasp.grounder import AtomIndex, BodyPlan, ground_program
from microasp.model import Atom, Literal, Var
from microasp.parser import ParseError, parse_program
from microasp.strategies import (
    ConstraintIndex,
    _canonical,
    _new_nogoods,
    ground_deferred_violations,
    solve,
)
from support import PI1_DEFERRED_TEXT, JoinSpy, join_in_full, lit_of, random_program_text


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
    put `atom` at body element `seed`, each as its key, (constraint
    position, the variables of its positive literals in written order), and
    its signed variables."""
    plan = index.plans[ci]
    at = sum(isinstance(e, Literal) for e in plan.rule.body[:seed])
    out = []
    for slots, lits in join_in_full([plan], index.gp.atoms, values, budget).values():
        if plan.render(slots).body[at].atom == atom:
            out.append(((ci, tuple(l for l in lits if l > 0)), lits))
    return out


def seeds(index, lit):
    """(constraint position, seeded plan) of each trigger of `lit`, in the
    order of `index._fired[lit]`."""
    atom = index.gp.atoms.atom(abs(lit) - 1)
    return [
        (ci, seeded)
        for ci, plan in enumerate(index.plans)
        for key, seeded in plan.seeded
        if key == (atom.predicate, lit > 0)
    ]


def seed_matches(plan, atom):
    """Whether the ground atom is an instance of the seed literal's atom:
    equal constants, and each variable at one value."""
    bound = {}
    pattern = plan.rule.body[plan.seed].atom
    return atom.predicate == pattern.predicate and all(
        bound.setdefault(t, a) == a if isinstance(t, Var) else t == a
        for t, a in zip(pattern.args, atom.args, strict=True)
    )


def trigger_joins(index, lit, values, budget):
    """For each trigger of `lit`, in trigger order: its constraint position,
    whether the atom of `lit` is an instance of its seed literal, and the
    written-order join from that seed."""
    atom = index.gp.atoms.atom(abs(lit) - 1)
    return [
        (
            ci,
            seed_matches(plan, atom),
            written_from(index, ci, plan.seed, atom, values, budget),
        )
        for ci, plan in seeds(index, lit)
    ]


def fire(trigger, lit, args, values, budget):
    """What the bound trigger stores when called on a trail literal and the
    arguments of its atom."""
    join, slots, gets, rule, ci = trigger
    found = {}
    join(slots, gets, rule, values, budget, lit, args, found, ci)
    return found


class TestSeededPlan:
    def test_positive_seed_first_then_outward(self):
        rule = benchgen.gen_3sat(3, 1.0, 1).deferred_plans()[0].rule
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
        """The trigger stores the match of an atom that is an instance of
        the seed, and nothing for a wrong constant or a repeated variable
        at two values."""
        rule = parse_program(":- p(X,1,X,Y), q(Y).").rules[0]
        plan = BodyPlan(rule, seed=0)
        atoms = [(2, 1, 2, 3), (2, 0, 2, 3), (2, 1, 3, 3)]
        index = AtomIndex([Atom("p", args) for args in atoms] + [Atom("q", (3,))])
        trigger = plan.trigger(index, 7)
        true = [1] * (len(index) + 1)
        assert fire(trigger, 1, atoms[0], true, 0) == {(7, (1, 4)): ([1, 2, 3], [1, 4])}
        assert fire(trigger, 2, atoms[1], true, 0) == {}
        assert fire(trigger, 3, atoms[2], true, 0) == {}


def assert_seeded_matches_written(index, values, budget):
    """With each literal made true in turn, every trigger's seeded matches,
    in key order, are the written-order join's from the same start, key for
    key; returns how many.  The positive literals of a match fix all its
    slots, so equal keys are equal matches.  A trigger called on an atom
    that is not an instance of its seed literal stores nothing."""
    checked = 0
    for var in range(1, len(index.gp.atoms) + 1):
        for lit in (var, -var):
            vals = list(values)
            vals[var] = 1 if lit > 0 else -1
            joins = trigger_joins(index, lit, vals, budget)
            triggers = index._fired[lit]
            assert len(triggers) == len(joins)
            args = index.gp.atoms.atom(var - 1).args
            for trigger, (ci, started, want) in zip(triggers, joins):
                found = fire(trigger, lit, args, vals, budget)
                if not started:
                    assert want == [] and found == {}
                    continue
                got = [(key, _canonical(found[key][1])) for key in sorted(found)]
                assert got == [(key, _canonical(lits)) for key, lits in want]
                checked += len(want)
    return checked


class TestSeededJoinDifferential:
    @pytest.mark.parametrize("budget", [1, 0])
    def test_fuzz_programs_under_random_partial_assignments(self, budget):
        rng = random.Random(budget)
        checked = programs = 0
        for program in fuzz_programs(150):
            gp = ground_program(program)
            index = ConstraintIndex(program.deferred_plans(), gp)
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
            lambda: parse_program(SYMMETRIC_TEXT),
        ],
        ids=["3sat", "marriage", "packing", "symmetric"],
    )
    def test_benchmark_families(self, make):
        """Multi-literal bodies, where the seeded order differs from the
        written one; facts true, the rest at random.  The two seeded plans
        of the symmetric body join in one text, but each keys its matches
        in written order."""
        program = make()
        gp = ground_program(program)
        index = ConstraintIndex(program.deferred_plans(), gp)
        rng = random.Random(7)
        facts = set(gp.facts)
        values = [0] + [
            1 if v in facts else rng.choice((-1, 0, 1, 1))
            for v in range(1, len(gp.atoms) + 1)
        ]
        assert assert_seeded_matches_written(index, values, 1) > 0


# Both seeded plans of the deferred body join `e` twice, keyed by the
# arguments in the same order, but the plan seeded at `e(Y,X)` meets its
# positive literals in the reverse of written order.
SYMMETRIC_TEXT = """\
n(1). n(2). n(3).
e(X,Y) :- n(X), n(Y), not ne(X,Y).
ne(X,Y) :- n(X), n(Y), not e(X,Y).
%@deferred
:- e(X,Y), e(Y,X).
"""


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
    """A solver with the facts propagated and s(5) decided, the index, and
    the trail's length before the decision."""
    program = parse_program(REORDERED_TEXT)
    gp = ground_program(program)
    index = ConstraintIndex(program.deferred_plans(), gp)
    solver = Solver(gp)
    assert solver.propagate() is None
    assert index.post_nogoods(solver, 0) == []  # the full join
    since = len(solver._trail)
    s5 = lit_of(solver, Atom("s", (5,)))
    solver.decide(s5)
    assert solver.propagate() is None
    return index, solver, s5, since


def x_values(atoms, matches):
    """The X of each match, read off its a(X) literal."""
    return [
        atom.args[0]
        for lits in matches
        for atom in (atoms.atom(l - 1) for l in lits if l > 0)
        if atom.predicate == "a"
    ]


class TestEagerOrder:
    def test_matches_come_in_written_join_order(self):
        index, solver, s5, _ = reordered_at_s()
        atoms = index.gp.atoms
        (trigger,) = index._fired[s5]
        found = fire(trigger, s5, atoms.atom(s5 - 1).args, solver._assign, 1)
        assert x_values(atoms, [lits for _, lits in found.values()]) == [2, 1]
        assert x_values(atoms, index.eager_nogoods(solver, s5)) == [1, 2]

    @pytest.mark.parametrize("name", ["3sat-v20", "marriage-n5", "packing-3x3"])
    def test_eager_emits_what_the_written_join_would(self, name, monkeypatch):
        """At every call, eager's nogoods are the written-order joins from
        each trigger's start, trigger by trigger, through `_new_nogoods`."""

        def compare(run, index, solver, lit):
            want = _new_nogoods(
                [
                    lits
                    for _, _, matches in trigger_joins(index, lit, solver._assign, 1)
                    for _, lits in matches
                ],
            )
            got = run()
            assert got == want
            return got

        spy = JoinSpy(monkeypatch, around=compare)
        solve(SPY_PROGRAMS[name](), "eager", seed=1)
        assert spy.nogoods("eager")


class PostSpy(JoinSpy):
    """A `JoinSpy` that, at every `post_nogoods` call, compares what the
    delta join emits with what the full join plus `_new_nogoods` would
    emit."""

    def __init__(self, monkeypatch):
        self.delta_calls = self.clamped = 0
        self._last_len = 0
        super().__init__(monkeypatch, around=self.compare)

    def compare(self, run, index, solver, since):
        violations = ground_deferred_violations(index, solver._assign)
        full = _new_nogoods([lits for _, lits in violations.values()])
        got = run()
        assert got == full
        self.delta_calls += since > 0
        self.clamped += since < self._last_len
        self._last_len = len(solver._trail)
        return got


class TestPostDelta:
    @pytest.mark.parametrize("name", sorted(SPY_PROGRAMS))
    def test_delta_emits_what_the_full_join_would(self, name, monkeypatch):
        spy = PostSpy(monkeypatch)
        solve(SPY_PROGRAMS[name](), "post", seed=1)
        assert spy.delta_calls >= 1

    def test_delta_emits_in_full_join_order(self):
        index, solver, _, since = reordered_at_s()
        assert since > 0
        assert x_values(index.gp.atoms, index.post_nogoods(solver, since)) == [1, 2]

    def test_delta_through_conflicts_and_backjumps(self, monkeypatch):
        spy = PostSpy(monkeypatch)
        result = solve(benchgen.gen_3sat(24, 4.26, 62), "post", seed=1)
        assert result.stats.conflicts >= 10
        assert spy.delta_calls >= 10
        assert spy.clamped >= 1  # a backjump pulled the mark below the trail

    def test_backjump_clamps_the_mark(self):
        """Each fixpoint call gets the trail's length at the one before,
        cut back to the trail by a backjump in between."""
        program = benchgen.gen_3sat(24, 4.26, 62)
        gp = ground_program(program)
        calls = []

        def hook(solver, since):
            calls.append((since, len(solver._trail)))
            return []

        solver = Solver(gp, seed=1, on_propagation_fixpoint=hook)
        assert solver.propagate() is None
        solver.decide(solver.choose_literal())
        assert solver.propagate() is None
        solver._backjump(0)
        assert solver.propagate() is None
        root, decided = calls[0][1], calls[1][1]
        assert decided > root
        assert calls == [(0, root), (root, decided), (root, root)]


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
    def test_ground_body_no_trail_literal_triggers(self, kind, monkeypatch):
        """`q` is underivable, so `not q` is on no trail: only the full join
        at post's first call sees the violated body.  `q` is outside the
        atom table, so the instance `:- not q` is the empty nogood."""
        program = parse_program(
            "p :- not r.\nr :- not p.\n%@deferred\n:- not q.\n"
        )
        spy = JoinSpy(monkeypatch)
        result = solve(program, kind, seed=1)
        assert result.status == "UNSAT"
        if kind == "post":
            assert spy.returns["post"] == [[()]]
            assert result.stats.propagator_nogoods == 1
            assert result.stats.lazy_added == 0

    TEXT = (
        "p(1) :- not np(1).\n"
        "np(1) :- not p(1).\n"
        "q(1) :- not nq(1).\n"
        "nq(1) :- not q(1).\n"
        "%@deferred\n"
        ":- p(X), not q(X).\n"
    )

    def test_negative_literal_falsified_last_is_caught(self, monkeypatch):
        program = parse_program(self.TEXT)
        gp = ground_program(program)
        p = gp.atoms.id_of(Atom("p", (1,))) + 1
        q = gp.atoms.id_of(Atom("q", (1,))) + 1
        spy = JoinSpy(monkeypatch)
        result = solve(program, "post", seed=1, forced_decisions=[p, -q])
        assert result.status == "SAT"
        assert spy.nogoods("post") == [_canonical((p, -q))]
        assert spy.texts("post") == [":- p(1), not q(1)"]
        assert spy.checks == []
        assert result.stats.propagator_nogoods == 1
        assert result.stats.invalidations == 0

    def test_negative_seed_model_set_equals_full(self):
        program = parse_program(self.TEXT)
        want = model_set(program, "full")
        assert len(want) == 3
        assert model_set(program, "post") == want
        assert model_set(program, "eager") == want
