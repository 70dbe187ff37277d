import dataclasses
import itertools
import math
from collections import Counter

import pytest

from microasp import benchgen, cdcl, strategies
from microasp.cdcl import (
    Budget,
    Solver,
    SolveStats,
    luby,
    RESTART_UNIT,
)
from microasp.grounder import ground_program
from microasp.model import Atom
from microasp.oracle import enumerate_stable_models, is_stable_model
from microasp.parser import ParseError, parse_program
from microasp.strategies import solve
from support import (
    CountedReads,
    PI1_TEXT,
    lit_of,
    random_join_program_text,
    random_program_text,
    rule_texts,
)


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

    def test_support_propagator_infers_the_single_open_body(self):
        """A head with more rules than completion takes gets the support
        propagator: true, with every body but one false, it infers each
        literal of the open body."""
        n = cdcl.COMPLETION_MAX_RULES + 1
        text = "".join(
            f"b({i}) :- not nb({i}). nb({i}) :- not b({i}).\n"
            f"c({i}) :- not nc({i}). nc({i}) :- not c({i}).\n"
            f"h(1) :- b({i}), not c({i}).\n"
            for i in range(1, n + 1)
        )
        solver = Solver(ground_program(parse_program(text)))
        h = lit_of(solver, ga("h", 1))
        assert list(solver._sup_open) == [h]
        assert solver.propagate() is None
        solver.decide(h)
        for i in range(1, n):
            assert solver.propagate() is None
            assert solver.value_of(lit_of(solver, ga("b", n))) == 0
            solver.decide(-lit_of(solver, ga("b", i)))
        assert solver.propagate() is None
        assert solver.value_of(lit_of(solver, ga("b", n))) == 1
        assert solver.value_of(lit_of(solver, ga("c", n))) == -1

    def test_support_propagator_scans_only_once_its_open_bodies_close(self):
        """The support propagator keeps the first two bodies of a head that
        were open (no false literal) at its last scan.  It scans again only
        once fewer of them stay open than the head needs to derive nothing:
        one while the head is undefined, two once it is true."""
        n = cdcl.COMPLETION_MAX_RULES + 1
        text = "".join(
            f"b({i}) :- not nb({i}). nb({i}) :- not b({i}).\n"
            f"c({i}) :- not nc({i}). nc({i}) :- not c({i}).\n"
            f"h(1) :- b({i}), not c({i}).\n"
            for i in range(1, n + 1)
        )
        solver = Solver(ground_program(parse_program(text)))
        solver._defs = defs = CountedReads(solver._defs)
        h = lit_of(solver, ga("h", 1))
        assert solver.propagate() is None
        scans = []
        for i in (1, 3, 2, "h", 5):
            solver.decide(h if i == "h" else -lit_of(solver, ga("b", i)))
            assert solver.propagate() is None
            scans.append(defs.reads[h])
        assert scans == [1, 1, 2, 2, 3]
        assert [solver.value_of(lit_of(solver, ga("b", i))) for i in (4, 6, n)] == [0, 0, 0]


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
        solver._install((var,))
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
        solver._install((var,))
        solver._install((-var,))
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

        result = Solver(pi1_gp, on_total_candidate=veto_first).solve()
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
        valid = Counter(v for neg_act, _, v in solver._heap if -neg_act == activity[v])
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


@pytest.mark.parametrize("ratio, seed, status", [(4.0, 1, "SAT"), (4.26, 0, "UNSAT")])
def test_clause_activity_rescale_keeps_the_order_of_learned_nogoods(ratio, seed, status):
    """Once a learned nogood's activity passes 1e20, every learned activity
    and the increment are scaled by 1e-20.  The increment starts near the
    bound, so the rescale comes within a few dozen conflicts rather than
    after about 46k.  After every bump each learned activity is finite and
    at most 1e20, a rescale keeps the order of the learned activities, and
    the answer is the one a solve without the rescale gives."""
    inst = benchgen.make_3sat(80, ratio, seed)
    program = parse_program(benchgen.sat_program_text(inst))
    gp = ground_program(program, include_deferred=True)
    solver = Solver(gp, seed=1)
    solver._cla_inc = 1e19
    bump = solver._bump_cla
    kept = []

    def checked_bump(ng):
        inc = solver._cla_inc
        bumped = [other.activity + (inc if other is ng else 0.0) for other in solver._learned]
        bump(ng)
        after = [other.activity for other in solver._learned]
        assert all(math.isfinite(a) and a <= 1e20 for a in after)
        if solver._cla_inc < inc:
            order = sorted(range(len(after)), key=bumped.__getitem__)
            kept.append(all(after[i] <= after[j] for i, j in zip(order, order[1:])))

    solver._bump_cla = checked_bump
    result = solver.solve()
    assert kept and all(kept)
    assert result.status == status == Solver(gp, seed=1).solve().status
    if result.model is not None:
        assignment = benchgen.sat_model_assignment(result.model)
        assert all(benchgen.clause_satisfied(c, assignment) for c in inst.clauses)


def _spy_on_builds(monkeypatch) -> list:
    """The Solvers built from here on, in order."""
    built = []
    init = Solver.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "__init__", spy)
    return built


@pytest.mark.parametrize("kind", ["full", "lazy", "eager", "post"])
def test_spent_time_budget_builds_no_solver(kind, monkeypatch):
    """A time budget of 0 is spent on entry: TIMEOUT with empty stats, and
    no Solver is built."""
    built = _spy_on_builds(monkeypatch)
    result = solve(
        benchgen.gen_3sat(100, 4.26, 1), kind, seed=1, budget=Budget(max_seconds=0.0)
    )
    assert result.status == "TIMEOUT"
    assert result.stats == SolveStats()
    assert built == []


def test_time_budget_holds_through_grounding(monkeypatch):
    """A 0.2 s budget stops `full` while it grounds marriage n=45, which
    takes seconds, with empty stats and before any Solver is built."""
    built = _spy_on_builds(monkeypatch)
    grounding = []

    def spy(*args, **kwargs):
        grounding.append("entered")
        gp = ground_program(*args, **kwargs)
        grounding.append("returned")
        return gp

    monkeypatch.setattr(strategies, "ground_program", spy)
    result = solve(
        benchgen.gen_marriage(45, 30, 1), "full", seed=1, budget=Budget(max_seconds=0.2)
    )
    assert result.status == "TIMEOUT"
    assert result.stats == SolveStats()
    assert grounding == ["entered"]
    assert built == []


class TestNogoodStore:
    def test_has_nogood_canonicalizes(self, pi1_gp):
        solver = Solver(pi1_gp)
        solver._install(cdcl.canonical([3, -1]))
        assert solver._by_lits[(-1, 3)].lits == (-1, 3)
        assert cdcl.canonical([3, -1, 3, -1]) in solver._by_lits
        assert cdcl.canonical((-1, 3)) in solver._by_lits
        assert cdcl.canonical([3, 1]) not in solver._by_lits

    def test_tautology_is_never_stored(self, pi1_gp):
        solver = Solver(pi1_gp)
        stored = dict(solver._by_lits)
        assert solver._install(cdcl.canonical([2, -2, 3])) is None
        assert solver._install(cdcl.canonical([-4, 4])) is None
        assert solver._install((-2, 2, 3)) is None
        assert solver._by_lits == stored
        assert cdcl.canonical([2, -2, 3]) not in solver._by_lits

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

    def test_watch_lists_hold_each_live_nogood_at_its_two_watches(self, monkeypatch):
        """The long golden search (restarts and learned-nogood deletion from
        200 active nogoods on).  At every decision no watch list holds a
        deleted nogood, and each live stored or learned nogood of two or
        more literals sits once in the list of each of its two watches and
        in no other list, which the watch loop relies on."""
        monkeypatch.setattr(cdcl, "DELETION_BASE", 200)
        monkeypatch.setattr(cdcl, "DELETION_STEP", 50)
        gp = ground_program(benchgen.gen_3sat(80, 4.26, 3), include_deferred=True)
        solver = Solver(gp, seed=1)
        n = solver._nvars
        decide = solver.decide
        broken = []

        def checked_decide(lit):
            entries = [
                (ng, w)
                for w in itertools.chain(range(1, n + 1), range(-n, 0))
                for ng in solver._watches[w]
            ]
            live = [
                ng
                for ng in itertools.chain(solver._by_lits.values(), solver._learned)
                if len(ng.lits) >= 2
            ]
            expected = Counter(w for ng in live for w in ((ng, ng.w0), (ng, ng.w1)))
            broken.append(
                (
                    sum(1 for ng, _ in entries if ng.deleted),
                    sum(1 for ng in live if ng.w0 == ng.w1),
                    Counter(entries) != expected,
                )
            )
            decide(lit)

        solver.decide = checked_decide
        assert solver.solve().status == "UNSAT"
        assert solver.stats.deleted > 0
        assert len(broken) == solver.stats.decisions > 100
        assert set(broken) == {(0, 0, False)}


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
            assert bool(solver._sup_open) == (mode == "propagator")
            assert solver.propagate() is None
            solver.decide(-1)
            assert solver.propagate() is None
            for ng in solver._by_lits.values():
                statuses = [solver.value_of(l) for l in ng.lits]
                if statuses.count(0) == 1:
                    assert statuses.count(1) < len(ng.lits) - 1


class InstallingSolver(Solver):
    """The reference build: facts, then rules, then completion, each nogood
    stored through `_install` as any nogood added later is."""

    def _build_static(self):
        for var in self.gp.facts:
            self._install((-var,))
        for head, body in self.gp.rules:
            if head:
                self._install(cdcl.canonical((-head, *body)))
                self._defs.setdefault(head, []).append(body)
            else:
                self._install(cdcl.canonical(body))
        for var in range(1, self._nvars + 1):
            if var in self._fact_vars:
                continue
            bodies = self._defs.get(var)
            if not bodies:
                self._install((var,))
                continue
            product = 1
            for body in bodies:
                product *= len(body)
            if (
                len(bodies) <= cdcl.COMPLETION_MAX_RULES
                and product <= cdcl.COMPLETION_MAX_PRODUCT
            ):
                for combo in itertools.product(*bodies):
                    self._install(cdcl.canonical((var, *(-l for l in combo))))
            else:
                self._sup_open[var] = []
                touched = {var}
                touched.update(abs(l) for body in bodies for l in body)
                for v in touched:
                    self._sup_watch.setdefault(v, []).append(var)


def store_of(solver):
    """What the build leaves: every stored nogood in insertion order with
    its watches, every watch list, the root units and conflict, and the
    support data in insertion order."""
    conflict = solver._root_conflict
    return (
        [(key, ng.lits, ng.w0, ng.w1) for key, ng in solver._by_lits.items()],
        [[ng.lits for ng in watchers] for watchers in solver._watches],
        [ng.lits for ng in solver._root_units],
        None if conflict is None else conflict.lits,
        list(solver._defs.items()),
        list(solver._sup_open),
        list(solver._sup_watch.items()),
    )


#: Rules that reach the build's special cases, each with the instance it
#: must ground to, as text.
STORE_CASES = {
    "p :- p. p :- not q. q :- not p.\n": "p :- p",
    "p :- not p.\n": "p :- not p",
    "q(1). q(2). p(1) :- not r. r :- not p(1). p(X) :- q(X), p(X).\n": "p(1) :- p(1)",
    "p(1). :- p(1).\n": ":- ",
}


def store_programs():
    """Ground programs of the benchmark families, the fuzz generators and
    the hand cases."""
    programs = [
        benchgen.gen_3sat(20, 4.26, 1),
        benchgen.gen_marriage(4, 30, 1),
        benchgen.gen_packing(4, 3, (2, 2)),
    ]
    for seed in range(60):
        try:
            programs.append(parse_program(random_program_text(seed)))
        except ParseError:
            pass
        programs.append(parse_program(random_join_program_text(seed)))
    programs.extend(parse_program(text) for text in STORE_CASES)
    for program in programs:
        for include_deferred in (False, True):
            yield ground_program(program, include_deferred=include_deferred)


def test_hand_cases_reach_the_special_cases():
    for text, rule in STORE_CASES.items():
        assert rule in rule_texts(ground_program(parse_program(text)))


@pytest.mark.parametrize("mode", [None, *SUPPORT_PATHS])
def test_build_stores_what_installing_each_nogood_stores(monkeypatch, mode):
    if mode is not None:
        support_path(monkeypatch, mode)
    built = 0
    for gp in store_programs():
        assert store_of(Solver(gp)) == store_of(InstallingSolver(gp))
        built += 1
    assert built >= 200


def test_a_nogood_added_before_the_search_watches_its_first_two_literals(pi1_gp):
    solver = Solver(pi1_gp)
    stored = len(solver._by_lits)
    assert solver._install(cdcl.canonical([4, -3, 1])) is None
    ng = solver._by_lits[(1, -3, 4)]
    assert (ng.w0, ng.w1) == (1, -3)
    assert ng in solver._watches[1] and ng in solver._watches[-3]
    assert ng not in solver._watches[4]
    assert len(solver._by_lits) == stored + 1
    assert solver._trail == []
    assert solver.solve().status == "SAT"


def test_a_fixpoint_hook_that_only_stores_a_nogood_runs_again(pi1_gp):
    """A stored nogood counts as progress for the fixpoint hook, even when
    nothing is assigned: the solver calls the hook again."""
    calls = []

    def hook(solver, since):
        calls.append(len(solver._trail))
        return [(1, 3)] if len(calls) == 1 else []

    solver = Solver(pi1_gp, on_propagation_fixpoint=hook)
    stored = len(solver._by_lits)
    assert solver.propagate() is None
    assert calls == [0, 0] and len(solver._by_lits) == stored + 1


def test_a_fixpoint_hook_nogood_the_store_holds_is_left_out(pi1_gp):
    """Of a stored nogood and a new one, both canonical, the solver stores
    and counts only the new one, and the stored one keeps its watches.  The
    second call returns both again, which adds nothing: no progress."""
    solver = Solver(pi1_gp)
    held = next(ng for ng in solver._by_lits.values() if len(ng.lits) > 1)
    watches = (held.w0, held.w1)
    new = (1, 3)
    assert new not in solver._by_lits
    stored = len(solver._by_lits)
    calls = []

    def hook(solver, since):
        calls.append(since)
        return [held.lits, new]

    solver.on_propagation_fixpoint = hook
    assert solver.propagate() is None
    assert calls == [0, 0]
    assert len(solver._by_lits) == stored + 1 and new in solver._by_lits
    assert solver.stats.propagator_nogoods == 1
    assert solver._by_lits[held.lits] is held and (held.w0, held.w1) == watches
    assert [solver._watches[w].count(held) for w in watches] == [1, 1]


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


def test_a_nogood_with_fewer_than_two_non_true_literals_watches_the_latest_true():
    """Its watches are its non-true literal, if it has one, and then the true
    literals latest on the trail."""
    text = "".join(f"a({i}) :- not b({i}).\nb({i}) :- not a({i}).\n" for i in range(4))
    solver = Solver(ground_program(parse_program(text)))
    a = [lit_of(solver, ga("a", i)) for i in range(4)]
    assert solver.propagate() is None
    for lit in a[:3]:
        solver.decide(lit)
        assert solver.propagate() is None
    assert solver._install(cdcl.canonical([a[1], a[3], a[0]])) is None
    ng = solver._by_lits[cdcl.canonical([a[1], a[3], a[0]])]
    assert (ng.w0, ng.w1) == (a[3], a[1])
    falsified = solver._install(cdcl.canonical([a[1], a[2], a[0]]))
    assert (falsified.w0, falsified.w1) == (a[2], a[1])
