"""The four realizations of deferred constraints.

FULL grounds them with the rest of the program.  LAZY solves without them
and adds the ground instances violated by each stable-model candidate.
EAGER simulates their unit propagation per assigned literal; POST checks for
fully violated instances at each propagation fixpoint.  Eager and post keep
the exhaustive check on total candidates as a safety net, so all four agree
on the returned models.  Each realization gives the solver only nogoods,
each the canonical tuple of a match made once (`_new_nogoods`), and the
solver alone decides which of them are new.
None of them does work for a literal on an extensional predicate (facts and
no other defining rule, `Program.extensional`): it is true from level 0 on,
so no join tests it and no propagator is triggered by it.
"""
from __future__ import annotations

import sys
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .cdcl import TIMEOUT, Budget, BudgetSpent, Solver, SolveResult
from .cdcl import SolveStats, canonical as _canonical
from .grounder import (
    BodyPlan,
    GroundProgram,
    Matches,
    Trigger,
    ground_program,
    iter_matches,
)
from .model import Literal, Program


class StrategyKind(str, Enum):
    FULL = "full"
    LAZY = "lazy"
    EAGER = "eager"
    POST = "post"


def solver_nogood(gp: GroundProgram, body: Iterable[Literal]) -> Optional[tuple[int, ...]]:
    """A nogood of ground literals as solver literals.

    Atoms outside the table can never become true: a positive literal on one
    makes the nogood unfalsifiable (the whole nogood is dropped, None), a
    negative literal on one is permanently true and is simply omitted.
    """
    lits: list[int] = []
    for lit in body:
        idx = gp.atoms.id_of(lit.atom)
        if idx is None:
            if lit.positive:
                return None
            continue
        lits.append(idx + 1 if lit.positive else -(idx + 1))
    return _canonical(lits)


class ConstraintIndex:
    """Joins deferred constraint bodies against the solver assignment.

    The joins run over the program's atom index (`gp.atoms`) and read truth
    off `solver._assign` at query time, so no per-assignment bookkeeping is
    needed.  `plans` are the deferred constraints' plans, the program's own
    (`Program.deferred_plans`), which its every solve shares.  `_full` holds
    their truth joins bound once to the atom index, which `iter_matches`
    runs in full: the lazy check on each total candidate
    (`ground_deferred_violations`) and each propagator's first call.  The
    propagators, `eager_nogoods` and `post_nogoods`, are the solver's hooks
    and return nogoods.  They join outward from a trail literal, through the
    trigger of each body literal it matches (the constraints'
    `BodyPlan.seeded` plans, made once per program), called on the literal
    and its atom's arguments (`Trigger`): eager from each assigned literal,
    allowing one undefined body literal (the one its nogood infers), and
    post from each literal assigned since its last call, allowing none.
    `_fired` holds those triggers by literal, indexed like
    `Solver._assign`, each bound once per solve, at its first read, to its
    compiled join and the `get`s of its tables
    (`BodyPlan.trigger`), so a propagator calls them in a plain loop and a
    literal with none starts no join.  Body literals on the program's
    extensional predicates get no seeded plan, so a fact starts no join;
    each propagator's first call joins every body in full instead (`_full`),
    which covers what the facts alone violate or make unit.  No plan is
    bound twice in a solve.  An index serves one solve: eager's first call
    is the solve's first.

    Every match is stored under (constraint position, the variables of its
    positive literals in written order), and a full join stores them in the
    order of that key.  So sorting a trigger's matches by key restores it:
    eager emits each trigger's matches in it, and post emits the new
    matches in the full join's order.  A call returns each match's
    canonical tuple once, without reading the solver's store, and one that
    matches nothing returns without building a nogood.
    """

    def __init__(self, plans: Sequence[Optional[BodyPlan]], gp: GroundProgram):
        for plan in plans:
            if plan is None:  # a fact has no plan
                raise ValueError("not a constraint: a fact")
            if plan.rule.head is not None:
                raise ValueError(f"not a constraint: '{plan.rule}.'")
        self.plans = list(plans)
        self.gp = gp
        # Whether eager's first call, which also joins every body in full,
        # is still to come.
        self._unjoined = True

    @cached_property
    def _full(self) -> list[Trigger]:
        """The constraints' truth joins bound to the atom index, in plan order."""
        return [plan.trigger(self.gp.atoms, ci) for ci, plan in enumerate(self.plans)]

    @cached_property
    def _fired(self) -> list[Sequence[Trigger]]:
        """The triggers of each literal, indexed like `Solver._assign`, bound
        to the atom index: a literal's are those of the constraints' seeded
        plans whose seed literal has its predicate and sign, in plan order,
        () for none."""
        triggers: dict[tuple[str, bool], list[Trigger]] = {}
        for ci, plan in enumerate(self.plans):
            for key, seeded in plan.seeded:
                triggers.setdefault(key, []).append(seeded.trigger(self.gp.atoms, ci))
        fired: list = [()] * (2 * len(self.gp.atoms) + 1)
        for (predicate, positive), bound in triggers.items():
            for var, _ in self.gp.atoms.table(predicate, ())[()]:
                fired[var if positive else -var] = bound
        return fired

    def eager_nogoods(self, solver: Solver, lit: int) -> list[tuple[int, ...]]:
        """Instances made unit or falsified by `lit` having turned true.

        The join is seeded at every body literal `lit` matches, and the rest
        of the body joins over true atoms with at most one undefined literal
        left (the one the emitted nogood will infer).  A literal on an
        extensional predicate triggers nothing: its atoms are facts, true
        before the first call.  So the first call also joins every body in
        full, in written order, and emits those matches first: they are the
        instances that the facts alone make unit or falsified.  Any later
        instance turns unit when a literal on another predicate is assigned,
        whose trigger finds it.  After the first call, a literal with no
        trigger returns at once.
        """
        triggers = self._fired[lit]
        if not (triggers or self._unjoined):
            return []
        values = solver._assign
        matches: list[list[int]] = []
        if self._unjoined:
            self._unjoined = False
            full = iter_matches(self._full, values, 1)
            matches = [lits for _, lits in full.values()]
        if triggers:
            args = self.gp.atoms.atom(abs(lit) - 1).args
            found: Matches = {}
            for join, slots, gets, rule, ci in triggers:
                join(slots, gets, rule, values, 1, lit, args, found, ci)
                if found:
                    matches += [found[key][1] for key in sorted(found)]
                    found.clear()
        return _new_nogoods(matches) if matches else []

    def post_nogoods(self, solver: Solver, since: int) -> list[tuple[int, ...]]:
        """Instances whose body is fully true under the current trail.

        An instance true at the previous call was emitted then or is stored,
        so only those holding a literal assigned since can be new: the join
        is seeded from each literal from trail position `since` on.  With no
        earlier trail (`since` 0: the first call, or after a backjump to an
        empty trail) the body is joined in full, which also finds instances
        with no literal on the trail.
        """
        values = solver._assign
        if not since:
            full = iter_matches(self._full, values, 0)
            return _new_nogoods([lits for _, lits in full.values()])
        found: Matches = {}
        fired, atom = self._fired, self.gp.atoms.atom
        for lit in solver._trail[since:]:
            triggers = fired[lit]
            if triggers:
                args = atom(abs(lit) - 1).args
                for join, slots, gets, rule, ci in triggers:
                    join(slots, gets, rule, values, 0, lit, args, found, ci)
        if not found:
            return []
        return _new_nogoods([found[key][1] for key in sorted(found)])


def ground_deferred_violations(index: ConstraintIndex, values: Sequence[int]) -> Matches:
    """The lazy check: the matches of the constraint bodies with every
    literal true under `values`, constraint by constraint in the order of
    their keys (`Matches`).  On a total assignment each is a violated
    instance, and its literals are the nogood."""
    return iter_matches(index._full, values, 0)


def _new_nogoods(matches: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """The nogoods of the matches, in order, each once: the canonical tuple
    it is stored and looked up under, sorted here and nowhere else.  The
    solver leaves out those its store holds (`Solver._apply_emitted`)."""
    return list(dict.fromkeys(map(_canonical, matches)))


def _spent(signum, frame) -> None:
    raise BudgetSpent()


def solve(
    program: Program,
    kind: StrategyKind | str = StrategyKind.FULL,
    *,
    seed: int = 0,
    budget: Optional[Budget] = None,
    forced_decisions: Sequence[int] = (),
    on_model: Optional[Callable] = None,
) -> SolveResult:
    """Solve a program under the chosen deferred-constraint strategy.

    `on_model` is called with each accepted model; returning an iterable of
    nogoods (each an iterable of model literals) blocks it and continues the
    search, returning None keeps the model.  The deferred instances a
    strategy adds are counted in the result's stats: the propagators' in
    `propagator_nogoods`, the check's in `lazy_added`.

    A conflict budget below 0 is a `ValueError`.  A time budget (0 to 1e9
    s, which every platform's timer holds; 0 is spent on entry) is one
    `ITIMER_REAL` timer, armed after its SIGALRM handler is installed, and
    nothing else reads a clock.  The handler raises `BudgetSpent` wherever
    the solve is: in the search `Solver.solve` returns TIMEOUT with its
    stats, before it (or while disarming) this returns TIMEOUT with empty
    stats.  It needs Unix `setitimer` and the main thread, elsewhere
    `signal.signal` raises `ValueError`.  There is one timer, so a timed
    solve called from a hook of another timed solve raises `ValueError`
    before it arms anything, and the outer budget holds.  No state
    outliving a solve is left half-updated: `grounder._COMPILED` and a
    plan's `seeded` are each set in one assignment.
    """
    kind = StrategyKind(kind)
    if budget is not None and (budget.max_conflicts or 0) < 0:
        raise ValueError(f"conflict budget of {budget.max_conflicts!r} is negative")
    seconds = budget.max_seconds if budget is not None else None
    if seconds is None:
        return _solve(program, kind, seed, budget, forced_decisions, on_model)
    if not 0 <= seconds <= 1e9:
        raise ValueError(f"time budget of {seconds!r} s is not in [0, 1e9]")
    if seconds == 0:
        return SolveResult(TIMEOUT, None, SolveStats())
    import signal  # only for a timed solve: its import takes about 1 ms

    if signal.getsignal(signal.SIGALRM) is _spent:
        raise ValueError("a timed solve cannot run inside another timed solve")
    hook, disarming = sys.unraisablehook, False

    def retry(unraisable) -> None:
        """An alarm dropped in a gc callback or a finalizer goes off again
        1 ms later."""
        if unraisable.exc_type is not BudgetSpent:
            hook(unraisable)
        elif not disarming:
            signal.setitimer(signal.ITIMER_REAL, 1e-3)

    previous = signal.signal(signal.SIGALRM, _spent)
    sys.unraisablehook = retry
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        result = _solve(program, kind, seed, budget, forced_decisions, on_model)
    except BudgetSpent:
        result = SolveResult(TIMEOUT, None, SolveStats())
    finally:
        # The timer is one-shot and goes off again only once dropped, so
        # one alarm at most is caught here, before or in `signal.signal`.
        try:
            disarming = True
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        except BudgetSpent:
            signal.signal(signal.SIGALRM, previous)
            result = SolveResult(TIMEOUT, None, SolveStats())
        sys.unraisablehook = hook
    return result


def _solve(program, kind, seed, budget, forced_decisions, on_model) -> SolveResult:
    full = kind is StrategyKind.FULL
    gp = ground_program(program, include_deferred=full)
    deferred = [] if full else program.deferred_plans()

    index = ConstraintIndex(deferred, gp) if deferred else None
    eager = index.eager_nogoods if index and kind is StrategyKind.EAGER else None
    post = index.post_nogoods if index and kind is StrategyKind.POST else None
    on_total = None
    if deferred or on_model is not None:
        def on_total(solver: Solver) -> list[tuple[int, ...]]:
            # Through the module's name, which a tracer may wrap.
            violations = index and ground_deferred_violations(index, solver._assign)
            if violations:
                # None is stored, as a stored nogood whose literals are all
                # true is a conflict before any total candidate.
                nogoods = _new_nogoods(lits for _, lits in violations.values())
                solver.stats.invalidations += 1
                solver.stats.lazy_added += len(nogoods)
                return nogoods
            if on_model is not None:
                extra = on_model(solver.model_atoms())
                if extra is not None:
                    converted = (solver_nogood(gp, nogood) for nogood in extra)
                    return [lits for lits in converted if lits is not None]
            return []

    solver = Solver(
        gp,
        seed=seed,
        budget=budget,
        forced_decisions=forced_decisions,
        on_literal_true=eager,
        on_propagation_fixpoint=post,
        on_total_candidate=on_total,
    )
    return solver.solve()
