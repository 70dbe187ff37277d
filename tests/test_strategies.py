import dataclasses

import pytest

from microasp.cdcl import Solver, SolverCallbacks
from microasp.grounder import (
    ground_deferred_violations,
    ground_program,
    ground_rule,
    naive_ground_program,
)
from microasp.model import Atom, GroundRule, Literal, Program
from microasp.oracle import enumerate_stable_models, nogood_of
from microasp.parser import ParseError, parse_program
from microasp.strategies import (
    ConstraintIndex,
    StrategyKind,
    solve,
    solver_nogood,
)
from support import PI1_DEFERRED_TEXT, lit_of, random_program_text

ALL_KINDS = ["full", "lazy", "eager", "post"]


def ga(pred, *args):
    return Atom(pred, args)


@pytest.fixture
def pi1():
    return parse_program(PI1_DEFERRED_TEXT)


class TestSolve:
    def test_lazy_trajectory_through_violating_candidate(self, pi1):
        sink = []
        result = solve(
            pi1, "lazy", forced_decisions=[1, 3], instance_sink=sink
        )
        assert result.status == "SAT"
        assert {str(a) for a in result.model} == {"b(1)", "c(1)"}
        assert result.stats.invalidations == 1
        assert result.stats.lazy_added == 1
        assert [str(inst) for _, inst, _ in sink] == [":- a(1), not b(1)"]

    def test_lazy_never_instantiates_subsumed_constraint(self, pi1):
        blocker = pi1.rules[2]  # :- a(X), b(X)
        for seed in range(40):
            sink = []
            result = solve(pi1, "lazy", seed=seed, instance_sink=sink)
            assert result.status == "SAT"
            assert all(rule is not blocker for rule, _, _ in sink)

    def test_all_strategies_same_model_set(self, pi1):
        gp_full = ground_program(pi1, include_deferred=True)
        oracle = {frozenset(m) for m in enumerate_stable_models(gp_full)}
        for kind in ALL_KINDS:
            result = solve(pi1, kind)
            assert result.status == "SAT"
            assert frozenset(result.model) in oracle

    def test_kind_accepts_enum_and_string(self, pi1):
        assert solve(pi1, StrategyKind.POST).status == "SAT"

    @pytest.mark.parametrize("kind", ["lazy", "eager", "post"])
    def test_deferred_rule_with_head_rejected_before_search(self, kind):
        # UNSAT at level 0, so no total candidate is ever checked.
        base = parse_program("p(1).\n:- p(1).\nq(X) :- p(X).\n")
        program = Program(base.rules, frozenset({2}))
        with pytest.raises(ValueError, match="not a constraint"):
            solve(program, kind)


class TestEagerPropagator:
    def test_worked_example_inference_then_conflict(self, pi1):
        sink = []
        result = solve(pi1, "eager", forced_decisions=[1], instance_sink=sink)
        assert result.status == "SAT"
        origins = {origin for _, _, origin in sink}
        assert origins == {"eager"}
        emitted = {str(inst) for _, inst, _ in sink}
        assert ":- a(1), not b(1)" in emitted
        assert result.stats.propagator_nogoods >= 1
        assert result.stats.propagator_calls >= 1

    def test_untouched_predicate_emits_nothing(self, pi1):
        gp = ground_program(pi1)
        index = ConstraintIndex(pi1.deferred_rules(), gp)
        solver = Solver(gp)
        solver.propagate()
        lit = lit_of(solver, ga("c", 1))
        solver.decide(lit)
        assert index.eager_nogoods(solver, lit) == []

    def test_replay_is_idempotent(self, pi1):
        gp = ground_program(pi1)
        index = ConstraintIndex(pi1.deferred_rules(), gp)
        solver = Solver(gp)
        solver.propagate()
        lit = lit_of(solver, ga("a", 1))
        solver.decide(lit)
        first = [ng for _, _, ng in index.eager_nogoods(solver, lit)]
        again = [ng for _, _, ng in index.eager_nogoods(solver, lit)]
        assert first == again
        for ng in first:
            assert solver.add_nogood(ng) is None or True
        assert index.eager_nogoods(solver, lit) == []  # store-level dedup

    def test_emitted_nogoods_are_ground_instances(self, pi1):
        """Everything eager emits is the nogood of some instance of Grd(C)."""
        naive = naive_ground_program(parse_program(PI1_DEFERRED_TEXT))
        legal = set()
        for rule in pi1.deferred_rules():
            for inst in ground_rule(rule, naive.atoms):
                legal.add(frozenset(nogood_of(naive.atoms.render(inst))))
        sink = []
        solve(pi1, "eager", forced_decisions=[1], instance_sink=sink)
        for _, inst, _ in sink:
            assert frozenset(nogood_of(inst)) in legal


class TestPostPropagator:
    def test_detects_violation_at_fixpoint(self, pi1):
        gp = ground_program(pi1)
        index = ConstraintIndex(pi1.deferred_rules(), gp)
        solver = Solver(gp)
        solver.propagate()
        solver.decide(lit_of(solver, ga("a", 1)))
        assert solver.propagate() is None  # a true, b false by completion
        found = index.post_nogoods(solver)
        a, b = lit_of(solver, ga("a", 1)), lit_of(solver, ga("b", 1))
        assert [ng for _, _, ng in found] == [tuple(sorted((a, -b), key=abs))]

    def test_quiet_fixpoint_emits_nothing(self, pi1):
        gp = ground_program(pi1)
        index = ConstraintIndex(pi1.deferred_rules(), gp)
        solver = Solver(gp)
        solver.propagate()
        solver.decide(-lit_of(solver, ga("a", 1)))
        solver.propagate()
        assert index.post_nogoods(solver) == []

    def test_second_violation_queued_then_applied(self):
        text = (
            "q1(1). q2(1).\n"
            "p(1) :- not np(1).\n"
            "np(1) :- not p(1).\n"
            "%@deferred\n"
            ":- p(X), q1(X).\n"
            "%@deferred\n"
            ":- p(X), q2(X).\n"
        )
        program = parse_program(text)
        gp = ground_program(program)
        p_var = gp.atoms.id_of(ga("p", 1)) + 1
        installed = []

        def spy_fixpoint(solver):
            out = [ng for _, _, ng in index.post_nogoods(solver)]
            installed.extend(out)
            return out

        index = ConstraintIndex(program.deferred_rules(), gp)
        solver = Solver(
            gp,
            callbacks=SolverCallbacks(on_propagation_fixpoint=spy_fixpoint),
            forced_decisions=[p_var],
        )
        result = solver.solve()
        assert result.status == "SAT"
        assert ga("np", 1) in result.model
        assert len(installed) == 2  # both violations were detected together
        for ng in installed:
            assert solver.has_nogood(ng)  # queue conservation
        assert not solver.nogood_queue

    def test_post_with_no_deferred_is_bit_identical_to_full(self):
        for seed in range(30):
            try:
                program = parse_program(random_program_text(seed, max_deferred=0))
            except ParseError:
                continue
            assert not program.deferred
            full = solve(program, "full", seed=seed)
            post = solve(program, "post", seed=seed)
            assert full.status == post.status
            assert full.model == post.model
            assert dataclasses.asdict(full.stats) == dataclasses.asdict(post.stats)


class TestCheckTotalCandidate:
    """The lazy check: post's join over a total assignment of the table."""

    @staticmethod
    def check(program, true_atoms):
        gp = ground_program(program)
        index = ConstraintIndex(program.deferred_rules(), gp)
        values = [0] + [1 if atom in true_atoms else -1 for atom in gp.atoms]
        return gp, [
            (str(index.constraints[ci]), lits)
            for ci, _, lits in ground_deferred_violations(index.plans, gp.atoms, values)
        ]

    def test_accepts_clean_model(self, pi1):
        assert self.check(pi1, {ga("b", 1), ga("c", 1)})[1] == []

    def test_vetoes_with_violations(self, pi1):
        gp, out = self.check(pi1, {ga("a", 1), ga("c", 1)})
        nogood = solver_nogood(
            gp, GroundRule(None, (Literal(ga("a", 1)), Literal(ga("b", 1), False)))
        )
        assert [(c, tuple(lits)) for c, lits in out] == [(":- a(X), not b(X)", nogood)]

    def test_empty_deferred_always_accepts(self, pi1):
        gp = ground_program(pi1)
        values = [0] + [1] * len(gp.atoms)
        assert ground_deferred_violations([], gp.atoms, values) == []


class TestSolverNogoodConversion:
    def test_out_of_table_negative_dropped(self, pi1):
        gp = ground_program(pi1)
        ghost = ga("zzz", 9)
        constraint = GroundRule(None, (Literal(ga("a", 1)), Literal(ghost, False)))
        lits = solver_nogood(gp, constraint)
        assert lits == (gp.atoms.id_of(ga("a", 1)) + 1,)

    def test_out_of_table_positive_skips_nogood(self, pi1):
        gp = ground_program(pi1)
        ghost = ga("zzz", 9)
        constraint = GroundRule(None, (Literal(ghost),))
        assert solver_nogood(gp, constraint) is None


class TestStrategyEquivalenceFuzz:
    def test_small_fuzz(self):
        checked = 0
        for seed in range(120):
            try:
                program = parse_program(random_program_text(seed))
            except ParseError:
                continue
            oracle = {
                frozenset(m)
                for m in enumerate_stable_models(naive_ground_program(program))
            }
            for kind in ALL_KINDS:
                sink = []
                result = solve(program, kind, seed=seed % 5, instance_sink=sink)
                assert (result.status == "SAT") == bool(oracle), (seed, kind)
                if result.status == "SAT":
                    assert frozenset(result.model) in oracle, (seed, kind)
                if kind == "lazy":
                    # monotonicity: every added instance was violated by the
                    # candidate that triggered it (hence by a total check)
                    assert all(origin == "check" for _, _, origin in sink)
            checked += 1
        assert checked >= 60
