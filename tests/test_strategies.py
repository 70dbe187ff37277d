import dataclasses
import gc
import random
import signal
import sys
import threading
import time
from collections import Counter

import pytest

from microasp import benchgen, strategies
from microasp.cdcl import Budget, Solver, SolveStats, canonical
from microasp.grounder import (
    BodyPlan,
    GroundingError,
    ground_program,
    ground_rule,
    naive_ground_program,
)
from microasp.model import Atom, Literal, Program
from microasp.oracle import enumerate_stable_models
from microasp.parser import ParseError, parse_program
from microasp.strategies import (
    ConstraintIndex,
    StrategyKind,
    _spent,
    ground_deferred_violations,
    solve,
    solver_nogood,
)
from support import PI1_DEFERRED_TEXT, PI1_TEXT, JoinSpy, lit_of, random_program_text

ALL_KINDS = ["full", "lazy", "eager", "post"]

#: `d` and `e` are extensional: d(X) holds for both X, so each instance of
#: the deferred constraint is unit from the facts alone.
FACT_UNIT_TEXT = """\
d(1). d(2). e(3).
p(X) :- d(X), not q(X).
q(X) :- d(X), not p(X).
%@deferred
:- d(X), p(X), not e(X).
"""


def ga(pred, *args):
    return Atom(pred, args)


@pytest.fixture
def pi1():
    return parse_program(PI1_DEFERRED_TEXT)


class TestSolve:
    def test_lazy_trajectory_through_violating_candidate(self, pi1, monkeypatch):
        spy = JoinSpy(monkeypatch)
        result = solve(pi1, "lazy", forced_decisions=[1, 3])
        assert result.status == "SAT"
        assert {str(a) for a in result.model} == {"b(1)", "c(1)"}
        assert result.stats.invalidations == 1
        assert result.stats.lazy_added == 1
        checked = [str(plan.render(slots)) for plan, slots, _ in spy.checks]
        assert checked == [":- a(1), not b(1)"]

    def test_lazy_never_instantiates_subsumed_constraint(self, pi1, monkeypatch):
        blocker = pi1.rules[2]  # :- a(X), b(X)
        spy = JoinSpy(monkeypatch)
        for seed in range(40):
            result = solve(pi1, "lazy", seed=seed)
            assert result.status == "SAT"
        assert spy.checks
        assert all(plan.rule is not blocker for plan, _, _ in spy.checks)

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
    def test_worked_example_inference_then_conflict(self, pi1, monkeypatch):
        spy = JoinSpy(monkeypatch)
        result = solve(pi1, "eager", forced_decisions=[1])
        assert result.status == "SAT"
        # every instance came from the eager propagator, none from the check
        assert result.stats.lazy_added == 0 and spy.checks == []
        assert result.stats.propagator_nogoods == len(spy.nogoods("eager")) >= 1
        assert ":- a(1), not b(1)" in spy.texts("eager")
        assert result.stats.propagator_calls >= 1

    def test_untouched_predicate_emits_nothing(self, pi1):
        gp = ground_program(pi1)
        index = ConstraintIndex(pi1.deferred_plans(), gp)
        solver = Solver(gp)
        solver.propagate()
        lit = lit_of(solver, ga("c", 1))
        solver.decide(lit)
        assert index.eager_nogoods(solver, lit) == []

    def test_replay_is_idempotent(self, pi1):
        gp = ground_program(pi1)
        index = ConstraintIndex(pi1.deferred_plans(), gp)
        solver = Solver(gp)
        solver.propagate()
        lit = lit_of(solver, ga("a", 1))
        solver.decide(lit)
        first = index.eager_nogoods(solver, lit)
        again = index.eager_nogoods(solver, lit)
        assert first == again
        for ng in first:
            solver._install(ng)
        assert index.eager_nogoods(solver, lit) == []  # store-level dedup

    def test_a_fact_alone_makes_an_instance_unit_at_level_0(self):
        """No trigger runs from a fact: eager's first call joins the bodies
        in full, and `not p(X)` is inferred before any decision."""
        program = parse_program(FACT_UNIT_TEXT)
        gp = ground_program(program)
        assert program.extensional == {"d", "e"}
        index = ConstraintIndex(program.deferred_plans(), gp)
        solver = Solver(gp, on_literal_true=index.eager_nogoods)
        assert solver.propagate() is None
        assert solver.level == 0
        assert [solver._assign[lit_of(solver, ga("p", x))] for x in (1, 2)] == [-1, -1]
        full = ground_program(program, include_deferred=True)
        oracle = {frozenset(m) for m in enumerate_stable_models(full)}
        assert len(oracle) == 1
        for seed in range(8):
            for kind in ALL_KINDS:
                result = solve(program, kind, seed=seed)
                assert result.status == "SAT"
                assert frozenset(result.model) in oracle
                if kind == "eager":
                    assert result.stats.conflicts == 0

    @pytest.mark.parametrize(
        "make, want",
        [
            (lambda: parse_program(FACT_UNIT_TEXT), {("p", True)}),
            (lambda: benchgen.gen_marriage(4, 30, 1), {("match", True)}),
        ],
        ids=["fact-unit", "marriage"],
    )
    def test_no_trigger_on_an_extensional_predicate(self, make, want):
        """Of either sign: the atoms of `d`, `e` and the scores are facts."""
        program = make()
        gp = ground_program(program)
        index = ConstraintIndex(program.deferred_plans(), gp)
        fired = {
            (atom.predicate, lit > 0)
            for var, atom in enumerate(gp.atoms, 1)
            for lit in (var, -var)
            if index._fired[lit]
        }
        assert fired == want
        assert not {predicate for predicate, _ in fired} & program.extensional

    def test_emitted_nogoods_are_ground_instances(self, pi1, monkeypatch):
        """Everything eager emits is the nogood of some instance of Grd(C):
        a constraint's nogood is the set of its body literals."""
        naive = naive_ground_program(parse_program(PI1_DEFERRED_TEXT))
        legal = {
            frozenset(naive.atoms.render(inst).body)
            for rule in (plan.rule for plan in pi1.deferred_plans())
            for inst in ground_rule(rule, naive.atoms)
        }
        spy = JoinSpy(monkeypatch)
        solve(pi1, "eager", forced_decisions=[1])
        assert spy.nogoods("eager")
        for nogood in spy.nogoods("eager"):
            assert frozenset(spy.atoms.render((0, nogood)).body) in legal


class TestPostPropagator:
    def test_detects_violation_at_fixpoint(self, pi1):
        gp = ground_program(pi1)
        index = ConstraintIndex(pi1.deferred_plans(), gp)
        solver = Solver(gp)
        solver.propagate()
        solver.decide(lit_of(solver, ga("a", 1)))
        assert solver.propagate() is None  # a true, b false by completion
        found = index.post_nogoods(solver, 0)
        a, b = lit_of(solver, ga("a", 1)), lit_of(solver, ga("b", 1))
        assert found == [tuple(sorted((a, -b), key=abs))]

    def test_quiet_fixpoint_emits_nothing(self, pi1):
        gp = ground_program(pi1)
        index = ConstraintIndex(pi1.deferred_plans(), gp)
        solver = Solver(gp)
        solver.propagate()
        solver.decide(-lit_of(solver, ga("a", 1)))
        solver.propagate()
        assert index.post_nogoods(solver, 0) == []

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

        def spy_fixpoint(solver, since):
            out = index.post_nogoods(solver, since)
            installed.extend(out)
            return out

        index = ConstraintIndex(program.deferred_plans(), gp)
        solver = Solver(
            gp,
            on_propagation_fixpoint=spy_fixpoint,
            forced_decisions=[p_var],
        )
        result = solver.solve()
        assert result.status == "SAT"
        assert ga("np", 1) in result.model
        assert len(installed) == 2  # both violations were detected together
        for ng in installed:
            assert canonical(ng) in solver._by_lits  # queue conservation
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
        index = ConstraintIndex(program.deferred_plans(), gp)
        values = [0] + [1 if atom in true_atoms else -1 for atom in gp.atoms]
        return gp, [
            (str(index.plans[ci].rule), lits)
            for (ci, _), (_, lits) in ground_deferred_violations(index, values).items()
        ]

    def test_accepts_clean_model(self, pi1):
        assert self.check(pi1, {ga("b", 1), ga("c", 1)})[1] == []

    def test_vetoes_with_violations(self, pi1):
        gp, out = self.check(pi1, {ga("a", 1), ga("c", 1)})
        nogood = solver_nogood(gp, (Literal(ga("a", 1)), Literal(ga("b", 1), False)))
        assert [(c, tuple(lits)) for c, lits in out] == [(":- a(X), not b(X)", nogood)]

    def test_empty_deferred_always_accepts(self, monkeypatch):
        """A solve with no deferred constraint runs no check, also when a
        model hook needs each total candidate."""
        checks = []

        def spy(*args):
            checks.append(args)
            return {}

        monkeypatch.setattr(strategies, "ground_deferred_violations", spy)
        for kind in ALL_KINDS:
            models = []
            result = solve(parse_program(PI1_TEXT), kind, seed=1, on_model=models.append)
            assert result.status == "SAT" and models == [result.model]
        assert checks == []


class TestHooks:
    """The propagators are `ConstraintIndex`'s methods, installed as the
    solver's hooks, and the seeded plans are built only when one runs."""

    DEFERRED = benchgen.gen_marriage(4, 30, 1)

    def test_lazy_plans_no_seeded_join(self, monkeypatch):
        seeds = []
        original = BodyPlan.__init__

        def spy(plan, rule, seed=None, *args):
            seeds.append(seed)
            original(plan, rule, seed, *args)

        monkeypatch.setattr(BodyPlan, "__init__", spy)
        program = benchgen.gen_marriage(4, 30, 1)  # planned as it is parsed
        assert solve(program, "lazy", seed=1).stats.invalidations >= 1
        assert seeds and set(seeds) == {None}
        solve(program, "eager", seed=1)  # the spy sees a seeded plan
        assert set(seeds) > {None}

    @pytest.mark.parametrize("kind", ["lazy", "eager", "post"])
    def test_each_truth_join_is_bound_once_per_solve(self, kind, monkeypatch):
        """The lazy check binds each deferred plan once, not at each total
        candidate, and a propagator binds each seeded plan once too."""
        program = benchgen.gen_packing(4, 3, (2, 2))  # four deferred
        plans = program.deferred_plans()
        want = list(plans)
        if kind != "lazy":
            want += [seeded for plan in plans for _, seeded in plan.seeded]
        bound = []
        trigger = BodyPlan.trigger

        def spy(plan, index, ci):
            bound.append((str(plan.rule), plan.seed))
            return trigger(plan, index, ci)

        monkeypatch.setattr(BodyPlan, "trigger", spy)
        result = solve(program, kind, seed=3)
        assert result.status == "SAT"
        if kind == "lazy":
            assert result.stats.invalidations >= 2
        assert Counter(bound) == Counter((str(p.rule), p.seed) for p in want)

    @pytest.mark.parametrize("kind", ["eager", "post"])
    def test_each_propagator_call_is_one_hook_call(self, kind, monkeypatch):
        spy = JoinSpy(monkeypatch)
        result = solve(self.DEFERRED, kind, seed=1)
        assert len(spy.returns[kind]) == result.stats.propagator_calls > 0
        assert len(spy.nogoods(kind)) == result.stats.propagator_nogoods
        assert spy.returns["eager" if kind == "post" else "post"] == []


def _unarmed(handler) -> bool:
    """Whether SIGALRM's handler is `handler` and the interval timer is off."""
    return signal.getsignal(signal.SIGALRM) is handler and signal.getitimer(
        signal.ITIMER_REAL
    ) == (0.0, 0.0)


class TestTimeBudget:
    """A time budget is one interval timer that `solve` arms.  It holds
    wherever the solve is, within a loose 2 x budget + 0.5 s, and leaves the
    SIGALRM handler and the timer as it found them."""

    @staticmethod
    def timed(program, kind, seconds):
        started = time.perf_counter()
        result = solve(program, kind, seed=1, budget=Budget(max_seconds=seconds))
        elapsed = time.perf_counter() - started
        assert elapsed <= 2 * seconds + 0.5, elapsed
        assert result.status == "TIMEOUT"
        return result

    def test_eager_without_a_conflict(self):
        """Marriage n=60 under `eager` spends seconds on grounding, the
        build and the search, which meets no conflict."""
        self.timed(benchgen.gen_marriage(60, 30, 1), "eager", 0.3)

    def test_a_slow_build(self, monkeypatch):
        build = Solver._build_static

        def slow(solver):
            time.sleep(2)
            build(solver)

        monkeypatch.setattr(Solver, "_build_static", slow)
        result = self.timed(benchgen.gen_3sat(20, 4.26, 1), "full", 0.2)
        assert result.stats == SolveStats()

    def test_a_slow_propagator_call(self, monkeypatch):
        """The alarm lands in the search, so the stats are the solver's."""
        calls = []

        def around(run, index, solver, lit):
            calls.append(lit)
            if len(calls) == 1:
                time.sleep(2)
            return run()

        JoinSpy(monkeypatch, around)
        result = self.timed(benchgen.gen_3sat(20, 4.26, 1), "eager", 0.2)
        assert len(calls) == result.stats.propagator_calls == 1

    def test_short_budgets_leave_nothing_armed(self):
        """Solves whose alarms land anywhere, from the entry to the return
        and in a gc callback, and one that raises, each restore the handler
        and the hook on dropped exceptions and leave the timer off; none
        raises anything else, and no alarm reaches the handler."""
        stray = []

        def previous(signum, frame):
            stray.append(signum)

        def collecting(phase, info):
            pass

        programs = [benchgen.gen_3sat(20, 4.26, seed) for seed in range(5)]
        rng = random.Random(0)
        statuses = Counter()
        hook = sys.unraisablehook
        old = signal.signal(signal.SIGALRM, previous)
        gc.callbacks.append(collecting)
        try:
            for i in range(240):
                budget = Budget(max_seconds=rng.uniform(1e-4, 5e-3))
                result = solve(programs[i % 5], ALL_KINDS[i % 4], seed=i, budget=budget)
                statuses[result.status] += 1
                assert _unarmed(previous) and sys.unraisablehook is hook, i
            bad = parse_program("d(a).\np(Y) :- d(X), Y = X+1.\n")
            with pytest.raises(GroundingError):
                solve(bad, budget=Budget(max_seconds=5.0))
            assert _unarmed(previous)
        finally:
            gc.callbacks.remove(collecting)
            signal.signal(signal.SIGALRM, old)
        assert stray == []
        assert set(statuses) <= {"SAT", "UNSAT", "TIMEOUT"}
        assert statuses["TIMEOUT"] > 0

    def test_a_dropped_alarm_goes_off_again(self, monkeypatch):
        """An alarm raised in a finalizer is dropped; the solve's hook on
        dropped exceptions sets the timer again, so the slow build that
        follows is cut short."""
        build = Solver._build_static

        class Finalized:
            def __del__(self):
                _spent(signal.SIGALRM, None)

        def slow(solver):
            Finalized()
            time.sleep(2)
            build(solver)

        hook = sys.unraisablehook
        monkeypatch.setattr(Solver, "_build_static", slow)
        started = time.perf_counter()
        result = solve(benchgen.gen_3sat(20, 4.26, 1), budget=Budget(max_seconds=30.0))
        assert time.perf_counter() - started < 1.0
        assert result.status == "TIMEOUT"
        assert sys.unraisablehook is hook

    @pytest.mark.parametrize("where", ["disarm", "restore"])
    def test_an_alarm_while_disarming_gives_timeout(self, pi1, where, monkeypatch):
        """The handler raises right after the timer is disarmed, or in
        `signal.signal`, which runs a pending handler before it changes."""
        setitimer, set_handler = signal.setitimer, signal.signal
        restores = []

        def late_disarm(which, seconds):
            setitimer(which, seconds)
            if seconds == 0 and where == "disarm":
                _spent(signal.SIGALRM, None)

        def late_restore(signum, handler):
            if handler is not _spent and where == "restore" and not restores:
                restores.append(handler)
                _spent(signal.SIGALRM, None)
            return set_handler(signum, handler)

        before = signal.getsignal(signal.SIGALRM)
        monkeypatch.setattr(signal, "setitimer", late_disarm)
        monkeypatch.setattr(signal, "signal", late_restore)
        result = solve(pi1, "lazy", budget=Budget(max_seconds=30.0))
        assert result.status == "TIMEOUT"
        assert result.stats == SolveStats()
        assert _unarmed(before)

    def test_a_nested_timed_solve_is_refused(self, pi1):
        """There is one timer: a timed solve called from a hook of another
        raises `ValueError` before it arms anything, so the outer solve's
        handler and timer are intact after it, and the outer budget holds."""
        before = signal.getsignal(signal.SIGALRM)
        seen = []

        def on_model(model):
            with pytest.raises(ValueError, match="inside another timed solve"):
                solve(pi1, budget=Budget(max_seconds=5.0))
            seen.append(
                (
                    signal.getsignal(signal.SIGALRM) is _spent,
                    signal.getitimer(signal.ITIMER_REAL)[0],
                )
            )

        result = solve(pi1, "lazy", budget=Budget(max_seconds=30.0), on_model=on_model)
        assert result.status == "SAT"
        [(handled, left)] = seen
        assert handled and 0 < left <= 30.0
        assert _unarmed(before)

    def test_off_the_main_thread_is_a_value_error(self, pi1):
        before = signal.getsignal(signal.SIGALRM)
        raised = []

        def run():
            try:
                solve(pi1, budget=Budget(max_seconds=30.0))
            except ValueError as exc:
                raised.append(exc)

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert len(raised) == 1
        assert _unarmed(before)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1.0, 1e12])
    def test_an_invalid_budget_is_a_value_error(self, pi1, seconds):
        before = signal.getsignal(signal.SIGALRM)
        with pytest.raises(ValueError, match=f"time budget of {seconds!r} s"):
            solve(pi1, budget=Budget(max_seconds=seconds))
        assert _unarmed(before)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_a_negative_conflict_budget_is_a_value_error(self, pi1, kind):
        with pytest.raises(ValueError, match="conflict budget of -1 is negative"):
            solve(pi1, kind, budget=Budget(max_conflicts=-1))
        assert solve(pi1, kind, budget=Budget(max_conflicts=0)).status == "SAT"


class TestSolverNogoodConversion:
    def test_out_of_table_negative_dropped(self, pi1):
        gp = ground_program(pi1)
        ghost = ga("zzz", 9)
        body = (Literal(ga("a", 1)), Literal(ghost, False))
        lits = solver_nogood(gp, body)
        assert lits == (gp.atoms.id_of(ga("a", 1)) + 1,)

    def test_out_of_table_positive_skips_nogood(self, pi1):
        gp = ground_program(pi1)
        ghost = ga("zzz", 9)
        assert solver_nogood(gp, (Literal(ghost),)) is None


class TestStrategyEquivalenceFuzz:
    def test_small_fuzz(self):
        checked = lazy_added = 0
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
                result = solve(program, kind, seed=seed % 5)
                assert (result.status == "SAT") == bool(oracle), (seed, kind)
                if result.status == "SAT":
                    assert frozenset(result.model) in oracle, (seed, kind)
                if kind == "lazy":
                    # monotonicity: every added instance was violated by the
                    # candidate that triggered it (hence by a total check)
                    assert result.stats.propagator_calls == 0, seed
                    assert result.stats.propagator_nogoods == 0, seed
                    lazy_added += result.stats.lazy_added
            checked += 1
        assert checked >= 60
        assert lazy_added > 0
