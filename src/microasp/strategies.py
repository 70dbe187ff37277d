"""The four realizations of deferred constraints.

FULL grounds them with the rest of the program.  LAZY solves without them
and adds the ground instances violated by each stable-model candidate.
EAGER simulates their unit propagation per assigned literal; POST checks for
fully violated instances at each propagation fixpoint.  Eager and post keep
the exhaustive check on total candidates as a safety net, so all four agree
on the returned models.
"""
from __future__ import annotations

import time
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .cdcl import TIMEOUT, Budget, Solver, SolverCallbacks, SolveResult, SolveStats
from .cdcl import canonical as _canonical
from .grounder import (
    BodyPlan,
    GroundProgram,
    GroundingTimeout,
    ground_deferred_violations,
    ground_program,
    iter_matches,
)
from .model import GroundRule, Literal, Program, Rule


class StrategyKind(str, Enum):
    FULL = "full"
    LAZY = "lazy"
    EAGER = "eager"
    POST = "post"


def solver_nogood(gp: GroundProgram, constraint: GroundRule) -> Optional[tuple[int, ...]]:
    """Constraint body as solver literals.

    Atoms outside the table can never become true: a positive literal on one
    makes the nogood unfalsifiable (the whole nogood is dropped, None), a
    negative literal on one is permanently true and is simply omitted.
    """
    lits: list[int] = []
    for lit in constraint.body:
        idx = gp.atoms.id_of(lit.atom)
        if idx is None:
            if lit.positive:
                return None
            continue
        lits.append(idx + 1 if lit.positive else -(idx + 1))
    return _canonical(lits)


#: A join's match: the plan and the slots it matched.
Slots = tuple[BodyPlan, list]

#: Matches of a seeded join by key: (constraint position, the variables of
#: its positive literals in written order) -> (slots, constraint position,
#: signed variables).
Matches = dict[tuple[int, tuple[int, ...]], tuple[Slots, int, list[int]]]


class ConstraintIndex:
    """Joins deferred constraint bodies against the solver assignment.

    The joins run over the program's atom index (`gp.atoms`) and read truth
    off `solver._assign` at query time, so no per-assignment bookkeeping is
    needed.  The lazy check is the full join of each constraint on a total
    candidate, over `plans`.  The propagators join outward from a trail
    literal, through the plan seeded at each body literal it matches (built
    only when `seeded` is set, see `BodyPlan`): eager from each assigned
    literal, allowing one undefined body literal (the one its nogood
    infers), and post from each literal assigned since its last call,
    allowing none.

    A constraint's full join yields its matches in lexicographic order of
    the variables of its positive literals in written order.  A seeded
    match is keyed by (constraint position, those variables), so sorting by
    the key restores that order: eager emits each trigger's matches in it,
    and post emits the new matches in the full join's order.
    """

    def __init__(
        self, constraints: Sequence[Rule], gp: GroundProgram, seeded: bool = True
    ):
        for constraint in constraints:
            if constraint.head is not None:
                raise ValueError(f"not a constraint: '{constraint}.'")
        self.constraints = list(constraints)
        self.gp = gp
        self.plans = [BodyPlan(c) for c in self.constraints]
        self._triggers: dict[tuple[str, bool], list[tuple[int, BodyPlan]]] = {}
        for ci, constraint in enumerate(self.constraints if seeded else ()):
            for ei, elem in enumerate(constraint.body):
                if isinstance(elem, Literal):
                    key = (elem.atom.predicate, elem.positive)
                    self._triggers.setdefault(key, []).append(
                        (ci, BodyPlan(constraint, ei))
                    )

    def _seeded(
        self, lit: int, values: Sequence[int], budget: int
    ) -> Iterator[Matches]:
        """For each body literal that the true literal `lit` matches, in
        trigger order, the matches of the join seeded there, by key."""
        atom = self.gp.atoms.atom(abs(lit) - 1)
        for ci, plan in self._triggers.get((atom.predicate, lit > 0), ()):
            start = plan.start(atom.args)
            if start is None:
                continue
            found: Matches = {}
            for slots, lits in iter_matches(plan, self.gp.atoms, values, budget, start):
                pos = [l for l in lits if l > 0]
                key = (ci, tuple(pos[k] for k in plan.written))
                found[key] = ((plan, slots), ci, lits)
            yield found

    def eager_nogoods(
        self, solver: Solver, lit: int
    ) -> list[tuple[Slots, int, tuple[int, ...]]]:
        """Instances made unit or falsified by `lit` having turned true.

        The join is seeded at every body literal `lit` matches, and the rest
        of the body joins over true atoms with at most one undefined literal
        left (the one the emitted nogood will infer).
        """
        matches: list[tuple[Slots, int, list[int]]] = []
        for found in self._seeded(lit, solver._assign, 1):
            matches += (found[key] for key in sorted(found))
        return _new_nogoods(solver, matches)

    def post_nogoods(
        self, solver: Solver
    ) -> list[tuple[Slots, int, tuple[int, ...]]]:
        """Instances whose body is fully true under the current trail.

        An instance true at the previous call was emitted then or is stored,
        so only those holding a literal assigned since can be new: the join
        is seeded from each of them.  With no earlier trail (the first call,
        or after a backjump to an empty trail) the body is joined in full,
        which also finds instances with no literal on the trail.
        """
        trail = solver._trail
        mark, solver._fixpoint_mark = solver._fixpoint_mark, len(trail)
        if mark == 0:
            matches = [
                ((plan, slots), ci, lits)
                for ci, plan in enumerate(self.plans)
                for slots, lits in iter_matches(plan, self.gp.atoms, solver._assign, 0)
            ]
        else:
            found: Matches = {}
            for lit in trail[mark:]:
                for more in self._seeded(lit, solver._assign, 0):
                    found.update(more)
            matches = [found[key] for key in sorted(found)]
        return _new_nogoods(solver, matches)


def _new_nogoods(solver: Solver, matches: Iterable[tuple]) -> list[tuple]:
    """The (match, constraint position, nogood) of each match whose nogood is
    neither in the store nor a repeat."""
    out: list[tuple] = []
    emitted: set[tuple[int, ...]] = set()
    for match, ci, lits in matches:
        nogood = _canonical(lits)
        if nogood in emitted or solver.has_nogood(nogood):
            continue
        emitted.add(nogood)
        out.append((match, ci, nogood))
    return out


def solve(
    program: Program,
    kind: StrategyKind | str = StrategyKind.FULL,
    *,
    seed: int = 0,
    budget: Optional[Budget] = None,
    forced_decisions: Sequence[int] = (),
    on_model: Optional[Callable] = None,
    instance_sink: Optional[list] = None,
) -> SolveResult:
    """Solve a program under the chosen deferred-constraint strategy.

    `on_model` is called with each accepted model; returning an iterable of
    nogoods (each an iterable of model literals) blocks it and continues the
    search, returning None keeps the model.  `instance_sink`, when given,
    collects (source constraint, ground instance, origin) for every deferred
    instance the strategy materializes.

    A time budget counts from the entry and holds through grounding: a
    deadline that passes there gives TIMEOUT with empty stats.
    """
    started = time.monotonic()
    kind = StrategyKind(kind)
    seconds = budget.max_seconds if budget is not None else None
    deadline = None if seconds is None else started + seconds
    full = kind is StrategyKind.FULL
    try:
        gp = ground_program(program, include_deferred=full, deadline=deadline)
    except GroundingTimeout:
        return SolveResult(TIMEOUT, None, SolveStats())
    deferred: list[Rule] = [] if full else program.deferred_rules()

    callbacks = SolverCallbacks()
    index = (
        ConstraintIndex(deferred, gp, seeded=kind is not StrategyKind.LAZY)
        if deferred
        else None
    )

    def record(match: Slots, ci: int, origin: str) -> None:
        """Add the match's instance, without repeated literals, to the sink."""
        if instance_sink is not None:
            plan, slots = match
            inst = GroundRule(None, tuple(dict.fromkeys(plan.render(slots).body)))
            instance_sink.append((index.constraints[ci], inst, origin))

    if index is not None and kind is StrategyKind.EAGER:

        def on_literal(solver: Solver, lit: int) -> list[tuple[int, ...]]:
            results = []
            for match, ci, nogood in index.eager_nogoods(solver, lit):
                record(match, ci, "eager")
                results.append(nogood)
            return results

        callbacks.on_literal_true = on_literal

    if index is not None and kind is StrategyKind.POST:

        def on_fixpoint(solver: Solver) -> list[tuple[int, ...]]:
            results = []
            for match, ci, nogood in index.post_nogoods(solver):
                record(match, ci, "post")
                results.append(nogood)
            return results

        callbacks.on_propagation_fixpoint = on_fixpoint

    if deferred or on_model is not None:
        plans = index.plans if index is not None else []

        def on_total(solver: Solver) -> list[tuple[int, ...]]:
            violations = ground_deferred_violations(plans, gp.atoms, solver._assign)
            if violations:
                nogoods = []
                matches = (((plans[ci], slots), ci, lits) for ci, slots, lits in violations)
                for match, ci, nogood in _new_nogoods(solver, matches):
                    record(match, ci, "check")
                    nogoods.append(nogood)
                solver.stats.invalidations += 1
                solver.stats.lazy_added += len(nogoods)
                return nogoods
            if on_model is not None:
                extra = on_model(solver.model_atoms())
                if extra is not None:
                    converted = []
                    for nogood in extra:
                        lits = solver_nogood(gp, GroundRule(None, tuple(nogood)))
                        if lits is not None:
                            converted.append(lits)
                    return converted
            return []

        callbacks.on_total_candidate = on_total

    solver = Solver(
        gp,
        seed=seed,
        callbacks=callbacks,
        budget=budget,
        forced_decisions=forced_decisions,
        started=started,
    )
    return solver.solve()
