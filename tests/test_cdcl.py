import dataclasses
from collections import Counter

import pytest

from microasp import benchgen, cdcl
from microasp.cdcl import (
    Budget,
    Solver,
    SolverCallbacks,
    SolveStats,
    luby,
    RESTART_UNIT,
)
from microasp.grounder import ground_program
from microasp.model import Atom
from microasp.oracle import enumerate_stable_models, is_stable_model
from microasp.parser import ParseError, parse_program
from microasp.strategies import solve
from support import PI1_TEXT, lit_of, random_program_text


def ga(pred, *args):
    return Atom(pred, args)


def learn(solver, conflict):
    """Resolve a conflict: the nogood learned from it and the level
    backjumped to, or None when the conflict is at level 0."""
    before = len(solver._learned)
    if not solver.resolve_conflict(conflict):
        return None
    if len(solver._learned) > before:
        return solver._learned[-1].lits, solver.level
    return solver._root_units[-1].lits, solver.level


@pytest.fixture
def pi1_gp():
    return ground_program(parse_program(PI1_TEXT), include_deferred=True)


class TestPropagate:
    def test_empty_trail_no_inference(self, pi1_gp):
        solver = Solver(pi1_gp)
        assert solver.propagate() is None
        assert solver._trail == []

    def test_deciding_a_conflicts(self, pi1_gp):
        solver = Solver(pi1_gp)
        solver.propagate()
        a = lit_of(solver, ga("a", 1))
        solver.decide(a)
        conflict = solver.propagate()
        assert conflict is not None
        # the conflict involves the a/b block: every literal mentions a(1) or b(1)
        involved = {abs(l) for l in conflict.lits}
        assert involved <= {abs(a), abs(lit_of(solver, ga("b", 1)))}

    def test_unit_then_support_propagation(self, pi1_gp):
        solver = Solver(pi1_gp)
        solver.propagate()
        solver.decide(-lit_of(solver, ga("a", 1)))
        assert solver.propagate() is None
        assert solver.value_of(lit_of(solver, ga("b", 1))) == 1
        solver.decide(lit_of(solver, ga("c", 1)))
        assert solver.propagate() is None
        assert solver.value_of(lit_of(solver, ga("d", 1))) == -1


class TestAnalyzeConflict:
    def test_worked_trace_learns_unit(self, pi1_gp):
        solver = Solver(pi1_gp)
        solver.propagate()
        a = lit_of(solver, ga("a", 1))
        solver.decide(a)
        conflict = solver.propagate()
        assert learn(solver, conflict) == ((a,), 0)
        result = solver.solve()
        assert result.status == "SAT"
        assert frozenset(str(x) for x in result.model) in (
            {"b(1)", "c(1)"},
            {"b(1)", "d(1)"},
        )

    def test_level_zero_conflict_is_unsat(self):
        gp = ground_program(parse_program("p(1).\n"))
        solver = Solver(gp)
        var = gp.atoms.id_of(ga("p", 1)) + 1
        solver.add_nogood((var,))
        result = solver.solve()
        assert result.status == "UNSAT"

    def test_single_decision_conflict_learns_unit(self):
        for seed in range(30):
            try:
                program = parse_program(random_program_text(seed))
            except ParseError:
                continue
            gp = ground_program(program, include_deferred=True)
            solver = Solver(gp, seed=seed)
            if solver.propagate() is not None or len(solver._trail) == solver._nvars:
                continue
            solver.decide(solver.choose_literal())
            conflict = solver.propagate()
            if conflict is None:
                continue
            outcome = learn(solver, conflict)
            if outcome is None:
                continue
            learned, backjump = outcome
            assert len(learned) == 1 and backjump == 0


class TestComputeStableModel:
    def test_pi1_model(self, pi1_gp):
        result = Solver(pi1_gp).solve()
        assert result.status == "SAT"
        assert is_stable_model(pi1_gp, result.model)

    def test_contradictory_nogoods(self, pi1_gp):
        solver = Solver(pi1_gp)
        var = 1
        solver.add_nogood((var,))
        solver.add_nogood((-var,))
        assert solver.solve().status == "UNSAT"

    def test_empty_program(self):
        gp = ground_program(parse_program(""))
        result = Solver(gp).solve()
        assert result.status == "SAT" and result.model == frozenset()

    def test_exit_codes(self, pi1_gp):
        assert Solver(pi1_gp).solve().exit_code == 10

    def test_conflict_budget_timeout(self):
        text = "\n".join(
            f"p({i}) :- not q({i}). q({i}) :- not p({i})." for i in range(6)
        )
        text += "\n:- p(0), p(1).\n:- q(0), q(1).\n:- p(0), q(1).\n:- q(0), p(1).\n"
        gp = ground_program(parse_program(text), include_deferred=True)
        result = Solver(gp, budget=Budget(max_conflicts=0)).solve()
        assert result.status == "TIMEOUT"
        assert result.exit_code == 30

    def test_vetoed_candidate_resumes(self, pi1_gp):
        seen = []

        def veto_first(solver):
            model = solver.model_atoms()
            if not seen:
                seen.append(model)
                return [tuple(lit_of(solver, a) for a in model)]
            return []

        result = Solver(
            pi1_gp, callbacks=SolverCallbacks(on_total_candidate=veto_first)
        ).solve()
        assert result.status == "SAT"
        assert result.model != seen[0]
        assert is_stable_model(pi1_gp, result.model)


class TestChooseLiteral:
    def test_fresh_heuristic_seed_zero(self, pi1_gp):
        solver = Solver(pi1_gp, seed=0)
        solver.propagate()
        lit = solver.choose_literal()
        assert lit == -1  # lowest-id atom, negative phase

    def test_single_remaining_atom(self, pi1_gp):
        solver = Solver(pi1_gp)
        solver.propagate()
        solver.decide(-lit_of(solver, ga("a", 1)))
        solver.propagate()
        solver.decide(lit_of(solver, ga("c", 1)))
        solver.propagate()
        # only d(1) might remain; everything else is assigned
        assert len(solver._trail) == solver._nvars

    def test_activity_orders_choices(self):
        """Each decision is the undefined variable of highest activity, ties
        broken by the seed permutation, also once conflicts have bumped
        activities."""
        gp = ground_program(benchgen.gen_3sat(60, 4.26, 1), include_deferred=True)
        solver = Solver(gp, seed=1, budget=Budget(max_conflicts=50))
        choose = solver.choose_literal
        picks = []

        def checked_choose():
            act, _, best = min(
                (-solver._activity[v], solver._rank[v], v)
                for v in range(1, solver._nvars + 1)
                if solver._assign[v] == 0
            )
            lit = choose()
            picks.append((abs(lit), best, -act))
            return lit

        solver.choose_literal = checked_choose
        solver.solve()
        assert any(act > 0 for _, _, act in picks)
        assert all(var == best for var, best, _ in picks)

    def test_seeds_permute_ties(self, pi1_gp):
        chosen = set()
        for seed in range(8):
            solver = Solver(pi1_gp, seed=seed)
            solver.propagate()
            chosen.add(abs(solver.choose_literal()))
        assert len(chosen) > 1


def test_vsids_heap_stays_bounded(monkeypatch):
    gp = ground_program(benchgen.gen_3sat(60, 4.26, 1), include_deferred=True)
    solver = Solver(gp, seed=1)
    peak = [len(solver._heap)]
    push = cdcl.heappush

    def counting_push(heap, entry):
        push(heap, entry)
        peak[0] = max(peak[0], len(heap))

    monkeypatch.setattr(cdcl, "heappush", counting_push)
    solver.solve()
    assert solver.stats.conflicts > 0
    assert peak[0] <= 3 * solver._nvars


def test_vsids_rescale_keeps_every_undefined_variable_in_the_heap():
    """Once an activity passes 1e100 every activity is scaled by 1e-100, which
    makes every heap entry's snapshot stale.  The increment starts near the
    threshold, so the rescale comes within a few conflicts rather than after
    about 4.5k.  At every decision, before and after the rescale, the
    kernel's invariants hold: the truth of each negative literal is the
    complement of its atom's, levels never decrease along the trail, and
    each undefined variable has exactly one heap entry at its current
    activity, the one `_heap_act` records."""
    gp = ground_program(benchgen.gen_3sat(180, 4.26, 0), include_deferred=True)
    solver = Solver(gp, seed=1, budget=Budget(max_conflicts=200))
    solver._var_inc = 1e99
    choose = solver.choose_literal
    variables = range(1, solver._nvars + 1)
    broken = []

    def checked_choose():
        assign, activity = solver._assign, solver._activity
        levels = [solver._level_arr[abs(l)] for l in solver._trail]
        valid = Counter(v for _, _, v, snap in solver._heap if snap == activity[v])
        broken.append(
            (
                sum(1 for v in variables if assign[-v] != -assign[v]),
                levels != sorted(levels),
                sum(
                    1
                    for v in variables
                    if assign[v] == 0
                    and (valid[v] != 1 or solver._heap_act[v] != activity[v])
                ),
            )
        )
        return choose()

    solver.choose_literal = checked_choose
    solver.solve()
    assert solver._var_inc < 1e99  # rescaled
    assert len(broken) > 100
    assert set(broken) == {(0, False, 0)}


def test_time_budget_is_checked_at_each_conflict():
    """A spent time budget stops the search at its first conflict, not at
    the first restart."""
    for kind in ("full", "lazy", "eager", "post"):
        result = solve(
            benchgen.gen_3sat(100, 4.26, 1), kind, seed=1, budget=Budget(max_seconds=0.0)
        )
        assert result.status == "TIMEOUT", kind
        assert result.stats.conflicts == 1, kind


def test_time_budget_holds_through_grounding(monkeypatch):
    """A spent time budget stops `full` while it grounds marriage n=20, with
    empty stats and before any Solver is built."""
    built = []
    init = Solver.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "__init__", spy)
    result = solve(
        benchgen.gen_marriage(20, 30, 1), "full", seed=1, budget=Budget(max_seconds=0.0)
    )
    assert result.status == "TIMEOUT"
    assert result.stats == SolveStats()
    assert built == []


class TestNogoodStore:
    def test_has_nogood_canonicalizes(self, pi1_gp):
        solver = Solver(pi1_gp)
        solver.add_nogood([3, -1])
        assert solver._by_lits[(-1, 3)].lits == (-1, 3)
        assert solver.has_nogood([3, -1, 3, -1])
        assert solver.has_nogood((-1, 3))
        assert not solver.has_nogood([3, 1])

    def test_tautology_is_never_stored(self, pi1_gp):
        solver = Solver(pi1_gp)
        stored = dict(solver._by_lits)
        assert solver.add_nogood([2, -2, 3]) is None
        assert solver.add_nogood([-4, 4]) is None
        assert solver._by_lits == stored
        assert not solver.has_nogood([2, -2, 3])

    def test_learned_nogoods_are_not_keyed(self):
        gp = ground_program(benchgen.gen_3sat(60, 4.26, 1), include_deferred=True)
        solver = Solver(gp, seed=1)
        solver.solve()
        assert solver.stats.learned > 0
        stored = {id(ng) for ng in solver._by_lits.values()}
        assert not any(ng.learned for ng in solver._by_lits.values())
        assert not any(id(ng) in stored for ng in solver._learned)


def test_facts_stay_out_of_the_heap(monkeypatch):
    """Facts are assigned at level 0 before the first decision: they get no
    heap entry, and the compaction bound counts only the other variables."""
    gp = ground_program(benchgen.gen_3sat(60, 4.26, 1), include_deferred=True)
    solver = Solver(gp, seed=1)
    facts = set(gp.facts)
    assert facts
    assert all(solver._heap_act[var] == -1.0 for var in facts)
    assert solver._heap_bound == 2 * (solver._nvars - len(facts))
    pushed = []
    push = cdcl.heappush

    def recording_push(heap, entry):
        pushed.append(entry[2])
        push(heap, entry)

    monkeypatch.setattr(cdcl, "heappush", recording_push)
    solver.solve()
    assert solver.stats.conflicts > 0 and pushed
    assert facts.isdisjoint(pushed)
    assert facts.isdisjoint(entry[2] for entry in solver._heap)


class TestRestartsAndDeletion:
    def test_luby_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_restart_thresholds(self, pi1_gp):
        solver = Solver(pi1_gp)
        thresholds = []
        for count in range(1, 4):
            thresholds.append(RESTART_UNIT * luby(count))
        assert thresholds == [32, 32, 64]

    def test_no_learned_deletion_noop(self, pi1_gp):
        solver = Solver(pi1_gp)
        assert solver.delete_constraints_if_needed() == 0

    def test_deletion_keeps_locked_and_glue(self, pi1_gp):
        import microasp.cdcl as cdcl_mod

        solver = Solver(pi1_gp)
        solver.propagate()
        solver.decide(-1)
        solver.propagate()
        locked = solver._reason[2]
        assert locked is not None
        # forge a learned store well past the trigger
        from microasp.cdcl import StoredNogood

        keep_glue = StoredNogood((1, 2), learned=True)
        keep_glue.lbd = 2
        solver._learned.append(keep_glue)
        locked.learned = True
        locked.lbd = 9
        solver._learned.append(locked)
        for i in range(4100):
            ng = StoredNogood((1, 2, 3), learned=True)
            ng.lbd = 5
            ng.activity = float(i)
            solver._learned.append(ng)
        solver.stats.learned = len(solver._learned)
        deleted = solver.delete_constraints_if_needed()
        assert deleted > 0
        assert not keep_glue.deleted
        assert not locked.deleted
        survivors = [ng for ng in solver._learned if ng.lbd == 5]
        acts = [ng.activity for ng in survivors]
        assert min(acts) >= 4100 / 2 - 1  # least active half went away


class TestNonTight:
    def test_positive_loop_has_empty_model(self):
        gp = ground_program(parse_program("a(1) :- a(1).\n"), include_deferred=True)
        result = Solver(gp).solve()
        assert result.status == "SAT" and result.model == frozenset()

    def test_loop_with_external_support(self):
        text = (
            "p(1) :- q(1). q(1) :- p(1). p(1) :- not r(1). r(1) :- not p(1).\n"
        )
        gp = ground_program(parse_program(text), include_deferred=True)
        want = {frozenset(m) for m in enumerate_stable_models(gp)}
        result = Solver(gp).solve()
        assert result.status == "SAT"
        assert frozenset(result.model) in want

    def test_unfounded_veto_counted(self):
        text = (
            "p(1) :- q(1). q(1) :- p(1). p(1) :- s(1).\n"
            "s(1) :- not t(1). t(1) :- not s(1).\n"
        )
        gp = ground_program(parse_program(text), include_deferred=True)
        forced = [
            gp.atoms.id_of(ga("t", 1)) + 1,
            gp.atoms.id_of(ga("p", 1)) + 1,
        ]
        solver = Solver(gp, forced_decisions=forced)
        result = solver.solve()
        assert result.status == "SAT"
        assert ga("p", 1) not in result.model  # p had only circular support
        assert result.stats.unfounded_vetoes >= 1


#: The (COMPLETION_MAX_RULES, COMPLETION_MAX_PRODUCT) that send every atom
#: with defining rules to completion nogoods or to the support propagator.
SUPPORT_PATHS = {"completion": (float("inf"), float("inf")), "propagator": (-1, -1)}


def support_path(monkeypatch, mode):
    rules, product = SUPPORT_PATHS[mode]
    monkeypatch.setattr(cdcl, "COMPLETION_MAX_RULES", rules)
    monkeypatch.setattr(cdcl, "COMPLETION_MAX_PRODUCT", product)


class TestSupportModes:
    def test_modes_agree_with_oracle(self, monkeypatch):
        checked = 0
        for seed in range(120):
            try:
                program = parse_program(random_program_text(seed))
            except ParseError:
                continue
            gp = ground_program(program, include_deferred=True)
            models = {frozenset(m) for m in enumerate_stable_models(gp)}
            for mode in SUPPORT_PATHS:
                support_path(monkeypatch, mode)
                result = Solver(gp, seed=seed % 5).solve()
                assert (result.status == "SAT") == bool(models), (seed, mode)
                if result.status == "SAT":
                    assert frozenset(result.model) in models, (seed, mode)
            checked += 1
        assert checked >= 60

    def test_propagation_fixpoint_invariant(self, pi1_gp, monkeypatch):
        """At a conflict-free fixpoint no nogood is one undefined literal
        away from falsification."""
        for mode in SUPPORT_PATHS:
            support_path(monkeypatch, mode)
            solver = Solver(pi1_gp)
            assert bool(solver._sup_heads) == (mode == "propagator")
            assert solver.propagate() is None
            solver.decide(-1)
            assert solver.propagate() is None
            for ng in solver._by_lits.values():
                statuses = [solver.value_of(l) for l in ng.lits]
                if statuses.count(0) == 1:
                    assert statuses.count(1) < len(ng.lits) - 1


class TestDeterminism:
    def test_identical_runs(self):
        for seed in (0, 3):
            program = parse_program(PI1_TEXT)
            gp1 = ground_program(program, include_deferred=True)
            gp2 = ground_program(program, include_deferred=True)
            r1 = Solver(gp1, seed=seed).solve()
            r2 = Solver(gp2, seed=seed).solve()
            assert r1.model == r2.model
            assert dataclasses.asdict(r1.stats) == dataclasses.asdict(r2.stats)


def test_learned_nogoods_preserve_model_set():
    """Adding the nogood learned from a conflict never changes the set of
    stable models (checked by oracle enumeration before and after)."""
    from microasp.grounder import GroundProgram

    import random

    def check_program(gp, solver, rng, flip=True) -> bool:
        before = {frozenset(m) for m in enumerate_stable_models(gp)}
        conflict = solver.propagate()
        while conflict is None and len(solver._trail) < solver._nvars:
            lit = solver.choose_literal()
            if flip:
                lit = abs(lit) if rng.random() < 0.5 else -abs(lit)
            solver.decide(lit)
            conflict = solver.propagate()
        if conflict is None:
            return False
        outcome = learn(solver, conflict)
        if outcome is None:
            return False
        learned, _ = outcome
        gp2 = GroundProgram(gp.atoms, gp.facts, gp.rules + ((0, learned),))
        after = {frozenset(m) for m in enumerate_stable_models(gp2)}
        assert before == after
        return True

    # deterministic anchor: the worked two-loop example conflicts at level 1
    pi1 = ground_program(parse_program(PI1_TEXT), include_deferred=True)
    anchored = check_program(
        pi1, Solver(pi1, forced_decisions=[1]), random.Random(0), flip=False
    )
    assert anchored

    checked = 0
    for seed in range(400):
        try:
            program = parse_program(random_program_text(seed))
        except ParseError:
            continue
        gp = ground_program(program, include_deferred=True)
        if check_program(gp, Solver(gp, seed=seed % 3), random.Random(seed)):
            checked += 1
    assert checked >= 1
