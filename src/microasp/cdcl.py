"""Conflict-driven search for stable models over a nogood store.

Literals are signed ints: +v asserts the atom with table id v-1 true, -v
asserts it false.  A nogood is falsified when all its literals are true;
unit propagation infers the complement of the last non-true literal of an
otherwise-true nogood.  Support is enforced through completion nogoods for
atoms with few defining rules and through a support propagator above that;
non-tight programs get an unfounded-set check on total candidates.  The
ground program's rules are already in these literals, (head variable or 0,
body), and are installed as given.

The search state is indexed by literal.  `_assign` has 2n+1 entries:
`_assign[v]` is the truth of atom v (1 true, -1 false, 0 undefined) and
`_assign[-v]`, which Python wraps to the upper half, the truth of its
negation, so the truth of any literal is `_assign[lit]`.  `_watches[lit]`
lists the nogoods watching `lit`, visited when it turns true.  Level,
reason, trail position and phase stay indexed by variable.

Unit propagation runs the pending trail in order (`_propagate_trail`): for
each literal it visits the watchers, moves each watch to the first non-true
literal of the nogood or infers the complement of the other watch, then
runs the support propagator and the per-literal hook.  Levels never
decrease along the trail, so a backjump cuts it at the level's start.

A nogood is stored once, under its canonical tuple (`canonical`): its
distinct literals ordered by variable, which is also its `lits`.  A
tautology is never stored, `has_nogood` looks its argument up in the same
form, and learned nogoods are not keyed.

Every undefined variable has exactly one heap entry at its current
activity; `_heap_act[v]` is the activity of v's entry, or -1.0 when it has
none.  A backjump pushes a variable only when that entry is missing or
stale, and the decision is the least such entry among undefined variables.
Facts are true at level 0 through their unit nogoods before the first
decision, so they never get an entry, and the heap is compacted once it
holds twice as many entries as there are other variables.
"""
from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import neg
from typing import Callable, Iterable, Optional, Sequence

from .grounder import GroundProgram
from .model import Atom

SAT = "SAT"
UNSAT = "UNSAT"
TIMEOUT = "TIMEOUT"

EXIT_MODEL = 10
EXIT_UNSAT = 20
EXIT_TIMEOUT = 30

#: Atoms with more defining rules than this get the support propagator
#: instead of completion nogoods.
COMPLETION_MAX_RULES = 8
#: Safety valve: the product expansion of the completion is also capped.
COMPLETION_MAX_PRODUCT = 4096

VSIDS_DECAY = 0.95
RESTART_UNIT = 32
DELETION_BASE = 4000
DELETION_STEP = 500


def luby(i: int) -> int:
    """The reluctant-doubling sequence 1,1,2,1,1,2,4,... (1-indexed)."""
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    while (1 << k) - 1 != i:
        i -= (1 << (k - 1)) - 1
        k = 1
        while (1 << k) - 1 < i:
            k += 1
    return 1 << (k - 1)


def canonical(lits: Iterable[int]) -> tuple[int, ...]:
    """A nogood's canonical tuple: its distinct literals ordered by
    variable, the form it is stored and looked up in."""
    return tuple(sorted(set(lits), key=abs))


@dataclass
class Budget:
    max_conflicts: Optional[int] = None
    max_seconds: Optional[float] = None


@dataclass
class SolveStats:
    decisions: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned: int = 0
    deleted: int = 0
    propagations: int = 0
    invalidations: int = 0
    lazy_added: int = 0
    propagator_calls: int = 0
    propagator_nogoods: int = 0
    unfounded_vetoes: int = 0


@dataclass
class SolveResult:
    status: str
    model: Optional[frozenset[Atom]]
    stats: SolveStats

    @property
    def exit_code(self) -> int:
        return {SAT: EXIT_MODEL, UNSAT: EXIT_UNSAT, TIMEOUT: EXIT_TIMEOUT}[self.status]


@dataclass
class SolverCallbacks:
    """Hooks may only return nogoods to add; they never touch the trail.

    on_literal_true(solver, lit) runs for each trail literal in trail order,
    after that literal's unit and support propagation.
    on_propagation_fixpoint(solver) runs once unit and support propagation
    rest.  on_total_candidate(solver) may veto a total assignment, read off
    `solver._assign`, by returning nogoods; an empty return accepts it.
    """

    on_literal_true: Optional[Callable] = None
    on_propagation_fixpoint: Optional[Callable] = None
    on_total_candidate: Optional[Callable] = None


class StoredNogood:
    __slots__ = ("lits", "w0", "w1", "learned", "deleted", "activity", "lbd")

    def __init__(self, lits: tuple[int, ...], learned: bool = False):
        self.lits = lits
        self.w0 = lits[0] if lits else 0
        self.w1 = lits[1] if len(lits) > 1 else self.w0
        self.learned = learned
        self.deleted = False
        self.activity = 0.0
        self.lbd = 0

    def __repr__(self) -> str:
        return f"Nogood{self.lits}"


class _Stop(Exception):
    pass


class Solver:
    """One CDCL search instance over a ground program.  A time budget counts
    from `started` (a `time.monotonic()` value), or else from construction."""

    def __init__(
        self,
        gp: GroundProgram,
        *,
        seed: int = 0,
        callbacks: Optional[SolverCallbacks] = None,
        budget: Optional[Budget] = None,
        forced_decisions: Sequence[int] = (),
        started: Optional[float] = None,
    ):
        self.gp = gp
        self.seed = seed
        self.callbacks = callbacks or SolverCallbacks()
        self.budget = budget or Budget()
        self.stats = SolveStats()
        self.nogood_queue: deque[tuple[int, ...]] = deque()

        n = len(gp.atoms)
        self._nvars = n
        self._assign = [0] * (2 * n + 1)
        self._level_arr = [0] * (n + 1)
        self._pos = [0] * (n + 1)
        self._reason: list[Optional[StoredNogood]] = [None] * (n + 1)
        self._phase = [False] * (n + 1)
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._prop_head = 0
        # Trail length at the start of the last fixpoint callback: the post
        # propagator joins only the literals assigned since.
        self._fixpoint_mark = 0

        self._watches: list[list[StoredNogood]] = [[] for _ in range(2 * n + 1)]
        self._by_lits: dict[tuple[int, ...], StoredNogood] = {}
        self._learned: list[StoredNogood] = []
        self._fragile: list[StoredNogood] = []
        self._root_units: list[StoredNogood] = []
        self._root_conflict: Optional[StoredNogood] = None
        self._store_count = 0

        self._activity = [0.0] * (n + 1)
        self._var_inc = 1.0
        self._cla_inc = 1.0
        rank = list(range(n + 1))
        if seed:
            import random

            random.Random(seed).shuffle(rank)
        self._rank = rank
        self._fact_vars = set(gp.facts)
        self._heap = [
            (0.0, rank[var], var, 0.0)
            for var in range(1, n + 1)
            if var not in self._fact_vars
        ]
        heapify(self._heap)
        self._heap_act = [0.0] * (n + 1)
        for var in self._fact_vars:
            self._heap_act[var] = -1.0
        self._heap_bound = 2 * len(self._heap)

        self._forced = list(forced_decisions)
        self._forced_at = 0
        self._restart_count = 0
        self._conf_since_restart = 0
        self._n_reductions = 0
        self._start_time = time.monotonic() if started is None else started

        self._defs: dict[int, list[tuple[int, ...]]] = {}
        self._sup_heads: list[int] = []
        self._sup_watch: dict[int, list[int]] = {}
        self._build_static()
        self._tight = self._is_tight()

    # ------------------------------------------------------------------ setup

    def _build_static(self) -> None:
        for var in self.gp.facts:
            self._install((-var,))
        for head, body in self.gp.rules:
            if head:
                self._install((-head, *body))
                self._defs.setdefault(head, []).append(body)
            else:
                self._install(body)

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
                len(bodies) <= COMPLETION_MAX_RULES
                and product <= COMPLETION_MAX_PRODUCT
            ):
                for combo in itertools.product(*bodies):
                    self._install((var, *(-l for l in combo)))
            else:
                self._sup_heads.append(var)
                touched = {var}
                touched.update(abs(l) for body in bodies for l in body)
                for v in touched:
                    self._sup_watch.setdefault(v, []).append(var)

    def _is_tight(self) -> bool:
        """No cycle through positive bodies in the head-dependency graph."""
        graph: dict[int, list[int]] = {}
        for head, bodies in self._defs.items():
            deps = {abs(l) for body in bodies for l in body if l > 0}
            graph[head] = sorted(deps)
        color: dict[int, int] = {}
        for start in graph:
            if color.get(start):
                continue
            stack = [(start, iter(graph.get(start, ())))]
            color[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    c = color.get(nxt, 0)
                    if c == 1:
                        return False
                    if c == 0:
                        color[nxt] = 1
                        stack.append((nxt, iter(graph.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()
        return True

    # ------------------------------------------------------------- assignment

    @property
    def level(self) -> int:
        return len(self._trail_lim)

    def value_of(self, lit: int) -> int:
        """1 if the literal is true, -1 if false, 0 if undefined."""
        return self._assign[lit]

    def _assign_lit(self, lit: int, reason: Optional[StoredNogood]) -> None:
        self._assign[lit] = 1
        self._assign[-lit] = -1
        var = abs(lit)
        self._level_arr[var] = self.level
        self._pos[var] = len(self._trail)
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)
        if reason is not None:
            self.stats.propagations += 1

    def _backjump(self, target: int) -> None:
        trail = self._trail
        if target < len(self._trail_lim):
            start = self._trail_lim[target]
            assign = self._assign
            activity = self._activity
            heap_act = self._heap_act
            heap = self._heap
            rank = self._rank
            for lit in trail[start:]:
                assign[lit] = 0
                assign[-lit] = 0
                var = lit if lit > 0 else -lit
                act = activity[var]
                if heap_act[var] != act:
                    heap_act[var] = act
                    heappush(heap, (-act, rank[var], var, act))
            del trail[start:]
            del self._trail_lim[target:]
        if len(self._heap) > self._heap_bound:
            self._compact_heap()
        if self._prop_head > len(trail):
            self._prop_head = len(trail)
        if self._fixpoint_mark > len(trail):
            self._fixpoint_mark = len(trail)
        if self._fragile:
            self._recheck_fragile()

    def _recheck_fragile(self) -> None:
        """Restore unit inferences of nogoods that were added while falsified
        or unit; plain watch triggers only fire on assignments, not undoes."""
        still: list[StoredNogood] = []
        for ng in self._fragile:
            if ng.deleted:
                continue
            not_true = [l for l in ng.lits if self._assign[l] != 1]
            if len(not_true) >= 2:
                self._rewatch(ng, not_true[0], not_true[1])
                continue
            if len(not_true) == 1 and self._assign[not_true[0]] == 0:
                self._assign_lit(-not_true[0], ng)
            still.append(ng)
        self._fragile = still

    def _rewatch(self, ng: StoredNogood, w0: int, w1: int) -> None:
        for old in (ng.w0, ng.w1):
            if old not in (w0, w1):
                lst = self._watches[old]
                if ng in lst:
                    lst.remove(ng)
        for new in (w0, w1):
            if new not in (ng.w0, ng.w1):
                self._watches[new].append(ng)
        ng.w0, ng.w1 = w0, w1

    # ----------------------------------------------------------------- install

    def has_nogood(self, lits: Iterable[int]) -> bool:
        return canonical(lits) in self._by_lits

    def add_nogood(self, lits: Iterable[int]) -> Optional[StoredNogood]:
        """Add a nogood mid-search; returns the conflict if it is falsified."""
        return self._install(lits)

    def _install(self, lits: Iterable[int]) -> Optional[StoredNogood]:
        """Store a nogood under its canonical tuple, watch it and infer from
        it; returns it when it is falsified.  A tautology or a nogood
        already stored is dropped."""
        distinct = set(lits)
        if not distinct.isdisjoint(map(neg, distinct)):
            return None  # tautological, never falsifiable
        if not distinct:
            ng = StoredNogood(())
            self._root_conflict = ng
            return ng
        key = canonical(distinct)
        if key in self._by_lits:
            return None
        ng = self._by_lits[key] = StoredNogood(key)
        self._store_count += 1
        if len(key) == 1:
            self._root_units.append(ng)
            return None
        if not self._trail:  # nothing assigned: watch the first two literals
            self._watches[key[0]].append(ng)
            self._watches[key[1]].append(ng)
            return None
        assign = self._assign
        not_true = [l for l in key if assign[l] != 1]
        if len(not_true) >= 2:
            ng.w0, ng.w1 = not_true[0], not_true[1]
        else:
            by_depth = sorted(
                (l for l in key if assign[l] == 1),
                key=lambda l: -self._pos[abs(l)],
            )
            if len(not_true) == 1:
                ng.w0 = not_true[0]
                ng.w1 = by_depth[0]
            else:
                ng.w0, ng.w1 = by_depth[0], by_depth[1]
        self._watches[ng.w0].append(ng)
        self._watches[ng.w1].append(ng)
        if len(not_true) == 0:
            if self.level > 0:
                self._fragile.append(ng)
            return ng
        if len(not_true) == 1:
            if self.level > 0:
                self._fragile.append(ng)
            if assign[not_true[0]] == 0:
                self._assign_lit(-not_true[0], ng)
        return None

    # -------------------------------------------------------------- propagate

    def propagate(self) -> Optional[StoredNogood]:
        """Run unit, support, and hook propagation to fixpoint.

        Returns the first falsified nogood, or None at fixpoint.
        """
        cb_fix = self.callbacks.on_propagation_fixpoint
        while True:
            if self._root_conflict is not None:
                return self._root_conflict
            if self._root_units:
                if self.level > 0:
                    self._backjump(0)
                units, self._root_units = self._root_units, []
                for ng in units:
                    lit = ng.lits[0]
                    val = self._assign[lit]
                    if val == 1:
                        return ng
                    if val == 0:
                        self._assign_lit(-lit, ng)
                continue
            if self.nogood_queue:
                conflict = self._install(self.nogood_queue.popleft())
                if conflict is not None:
                    return conflict
                continue
            if self._prop_head < len(self._trail):
                conflict = self._propagate_trail()
                if conflict is not None:
                    return conflict
                continue
            if cb_fix is not None:
                self.stats.propagator_calls += 1
                emitted = list(cb_fix(self))
                if emitted:
                    self.stats.propagator_nogoods += len(emitted)
                    conflict, progressed = self._apply_emitted(emitted)
                    if conflict is not None:
                        return conflict
                    if progressed:
                        continue
            if (
                self._root_units
                or self.nogood_queue
                or self._prop_head < len(self._trail)
            ):
                continue
            return None

    def _apply_emitted(
        self, nogoods: list[tuple[int, ...]]
    ) -> tuple[Optional[StoredNogood], bool]:
        """Install hook-produced nogoods; on conflict the rest join the queue."""
        before_trail = len(self._trail)
        before_store = self._store_count
        for i, lits in enumerate(nogoods):
            conflict = self._install(lits)
            if conflict is not None:
                self.nogood_queue.extend(tuple(l) for l in nogoods[i + 1 :])
                return conflict, True
        progressed = (
            len(self._trail) != before_trail
            or self._store_count != before_store
            or bool(self._root_units)
        )
        return None, progressed

    def _propagate_trail(self) -> Optional[StoredNogood]:
        """Propagate the pending trail literals in order; returns the first
        falsified nogood, or None once the trail is done or a hook has left
        root units or queued nogoods for `propagate`.

        Each literal's watchers are visited in list order.  A watcher whose
        other watch is false stays; otherwise its watch moves to the first
        non-true literal of the nogood outside both watches, or, with none,
        it infers the complement of the other watch, or is falsified if
        that one is true too.
        """
        assign = self._assign
        watches = self._watches
        trail = self._trail
        level_arr = self._level_arr
        pos = self._pos
        reasons = self._reason
        phase = self._phase
        sup_watch = self._sup_watch
        cb_lit = self.callbacks.on_literal_true
        level = len(self._trail_lim)
        head = self._prop_head
        inferred = 0
        conflict = None
        while head < len(trail):
            lit = trail[head]
            head += 1
            watchers = watches[lit]
            n = len(watchers)
            i = j = 0
            while i < n:
                ng = watchers[i]
                i += 1
                if ng.deleted:
                    continue
                w0 = ng.w0
                w1 = ng.w1
                other = w1 if w0 == lit else w0
                ov = assign[other]
                if ov == -1:  # other watch false: cannot falsify now
                    watchers[j] = ng
                    j += 1
                    continue
                for l in ng.lits:
                    if l != w0 and l != w1 and assign[l] != 1:
                        if w0 == lit:
                            ng.w0 = l
                        else:
                            ng.w1 = l
                        watches[l].append(ng)
                        break
                else:
                    watchers[j] = ng
                    j += 1
                    if ov == 1:  # every literal true: falsified
                        conflict = ng
                        break
                    assign[other] = -1
                    assign[-other] = 1
                    if other > 0:
                        var = other
                        phase[var] = False
                    else:
                        var = -other
                        phase[var] = True
                    level_arr[var] = level
                    pos[var] = len(trail)
                    reasons[var] = ng
                    trail.append(-other)
                    inferred += 1
            if j < i:
                del watchers[j:i]
            if conflict is not None:
                break
            if sup_watch:
                for sup_head in sup_watch.get(lit if lit > 0 else -lit, ()):
                    conflict = self._support_check(sup_head)
                    if conflict is not None:
                        break
                if conflict is not None:
                    break
            if cb_lit is not None:
                self.stats.propagator_calls += 1
                emitted = list(cb_lit(self, lit))
                if emitted:
                    self.stats.propagator_nogoods += len(emitted)
                    conflict, _ = self._apply_emitted(emitted)
                    if conflict is not None:
                        break
            if self._root_units or self.nogood_queue or self._root_conflict is not None:
                break
        self._prop_head = head
        self.stats.propagations += inferred
        return conflict

    # ------------------------------------------------------ support propagator

    def _support_check(self, head: int) -> Optional[StoredNogood]:
        """Lazily derive the completion nogood an unsupported head needs."""
        val = self._assign[head]
        if val == -1:
            return None
        open_bodies: list[tuple[int, ...]] = []
        witnesses: list[int] = []
        assign = self._assign
        for body in self._defs[head]:
            false_lit = 0
            for l in body:
                if assign[l] == -1:
                    false_lit = l
                    break
            if false_lit:
                witnesses.append(-false_lit)
            else:
                open_bodies.append(body)
        if not open_bodies:
            return self._install((head, *witnesses))
        if val == 1 and len(open_bodies) == 1:
            for l in open_bodies[0]:
                if assign[l] == 0:
                    conflict = self._install((head, -l, *witnesses))
                    if conflict is not None:
                        return conflict
        return None

    # -------------------------------------------------------------- conflicts

    def _analyze(
        self, conflict: StoredNogood, level: int
    ) -> tuple[tuple[int, ...], int]:
        """First-UIP learned nogood and backjump level, bumping the
        activity of the variables and learned nogoods it resolves on."""
        trail = self._trail
        level_arr = self._level_arr
        activity = self._activity
        var_inc = self._var_inc
        # Every literal resolved on is true, so `seen` holds trail literals.
        seen: set[int] = set()
        tail: list[int] = []
        counter = 0
        reason_lits: Sequence[int] = conflict.lits
        skip = 0
        idx = len(trail) - 1
        if conflict.learned:
            self._bump_cla(conflict)
        while True:
            for l in reason_lits:
                if l == skip or l in seen:
                    continue
                var = l if l > 0 else -l
                lvl = level_arr[var]
                if lvl == 0:
                    continue
                seen.add(l)
                act = activity[var] + var_inc
                activity[var] = act
                if act > 1e100:
                    self._rescale_activity()
                    var_inc = self._var_inc
                if lvl == level:
                    counter += 1
                else:
                    tail.append(l)
            while trail[idx] not in seen:
                idx -= 1
            uip = trail[idx]
            idx -= 1
            counter -= 1
            if counter <= 0:
                break
            reason = self._reason[uip if uip > 0 else -uip]
            if reason.learned:
                self._bump_cla(reason)
            reason_lits = reason.lits
            skip = -uip
        learned = (uip, *tail)
        bj = max((level_arr[abs(l)] for l in tail), default=0)
        return learned, bj

    def resolve_conflict(self, conflict: StoredNogood) -> bool:
        """Learn from a falsified nogood and backjump; False means UNSAT.

        Backjumping may replay inferences of previously added nogoods, so the
        asserted literal can already be set; if it came back with the wrong
        polarity the learned nogood is falsified and is analyzed in turn (at
        a strictly smaller decision level, so this terminates).
        """
        while True:
            if not conflict.lits:
                return False
            maxlvl = max(self._level_arr[abs(l)] for l in conflict.lits)
            if maxlvl == 0:
                return False
            if maxlvl < self.level:
                self._backjump(maxlvl)
            learned, bj = self._analyze(conflict, maxlvl)
            self._backjump(bj)
            self._var_inc /= VSIDS_DECAY
            self._cla_inc /= 0.999
            if len(learned) == 1:
                stored = StoredNogood(learned, learned=True)
                self._store_count += 1
                self._root_units.append(stored)
                self.stats.learned += 1
                return True
            stored = self._attach_learned(learned)
            uip_val = self.value_of(learned[0])
            if uip_val == 0:
                self._assign_lit(-learned[0], stored)
                return True
            if uip_val == -1:  # complement already inferred during backjump
                if self.level > 0:
                    self._fragile.append(stored)
                return True
            conflict = stored  # falsified again; keep resolving

    def _attach_learned(self, learned: tuple[int, ...]) -> StoredNogood:
        ng = StoredNogood(learned, learned=True)
        self._store_count += 1
        ng.lbd = len({self._level_arr[abs(l)] for l in learned})
        ng.activity = self._cla_inc
        ng.w0 = learned[0]
        ng.w1 = max(learned[1:], key=lambda l: self._pos[abs(l)])
        self._watches[ng.w0].append(ng)
        self._watches[ng.w1].append(ng)
        self._learned.append(ng)
        self.stats.learned += 1
        return ng

    def _rescale_activity(self) -> None:
        """Scale every activity by 1e-100 once one passes 1e100.  Every heap
        entry is stale then: one fresh entry per undefined variable."""
        activity = self._activity
        for v in range(1, self._nvars + 1):
            activity[v] *= 1e-100
        self._var_inc *= 1e-100
        self._heap = []
        for v in range(1, self._nvars + 1):
            if self._assign[v] == 0:
                self._heap.append((-activity[v], self._rank[v], v, activity[v]))
                self._heap_act[v] = activity[v]
            else:
                self._heap_act[v] = -1.0
        heapify(self._heap)

    def _compact_heap(self) -> None:
        """Drop the stale entries.  `choose_literal` skips every one of them,
        so no decision changes."""
        activity = self._activity
        self._heap = [e for e in self._heap if e[3] == activity[e[2]]]
        heapify(self._heap)

    def _bump_cla(self, ng: StoredNogood) -> None:
        ng.activity += self._cla_inc
        if ng.activity > 1e20:
            for other in self._learned:
                other.activity *= 1e-20
            self._cla_inc *= 1e-20

    # -------------------------------------------------------------- decisions

    def choose_literal(self) -> int:
        """Next decision literal: forced ones first, then best VSIDS score
        with ties broken by the seed permutation; phase saving, negative
        first."""
        while self._forced_at < len(self._forced):
            lit = self._forced[self._forced_at]
            self._forced_at += 1
            if self._assign[lit] == 0:
                return lit
        heap = self._heap
        while heap:
            _, _, var, snap = heappop(heap)
            if snap != self._activity[var]:
                continue
            # The variable's entry is gone; `_backjump` pushes it again when
            # it becomes undefined.
            self._heap_act[var] = -1.0
            if self._assign[var] != 0:
                continue
            return var if self._phase[var] else -var
        raise RuntimeError("choose_literal called with no undefined atoms")

    def decide(self, lit: int) -> None:
        self._trail_lim.append(len(self._trail))
        self._assign_lit(lit, None)
        self.stats.decisions += 1

    # ------------------------------------------------------- restart, deletion

    def restart_if_needed(self) -> bool:
        if self._conf_since_restart < RESTART_UNIT * luby(self._restart_count + 1):
            return False
        self._restart_count += 1
        self._conf_since_restart = 0
        self.stats.restarts += 1
        self._backjump(0)
        self._check_deadline()
        return True

    def delete_constraints_if_needed(self) -> int:
        active = self.stats.learned - self.stats.deleted
        if active <= DELETION_BASE + DELETION_STEP * self._n_reductions:
            return 0
        self._n_reductions += 1
        locked = {
            self._reason[abs(l)] for l in self._trail if self._reason[abs(l)]
        }
        candidates = [
            ng
            for ng in self._learned
            if not ng.deleted and ng.lbd > 2 and ng not in locked
        ]
        candidates.sort(key=lambda ng: ng.activity)
        victims = candidates[: len(candidates) // 2]
        for ng in victims:
            ng.deleted = True
        self.stats.deleted += len(victims)
        self._learned = [ng for ng in self._learned if not ng.deleted]
        return len(victims)

    # ------------------------------------------------------------- total check

    def model_atoms(self) -> frozenset[Atom]:
        return frozenset(
            self.gp.atoms.atom(v - 1)
            for v in range(1, self._nvars + 1)
            if self._assign[v] == 1
        )

    def _unfounded_nogoods(self) -> list[tuple[int, ...]]:
        founded = set(self._fact_vars)
        changed = True
        while changed:
            changed = False
            for head, bodies in self._defs.items():
                if self._assign[head] != 1 or head in founded:
                    continue
                for body in bodies:
                    if all(self._assign[l] == 1 for l in body) and all(
                        abs(l) in founded for l in body if l > 0
                    ):
                        founded.add(head)
                        changed = True
                        break
        unfounded = [
            v
            for v in range(1, self._nvars + 1)
            if self._assign[v] == 1 and v not in founded
        ]
        if not unfounded:
            return []
        uset = set(unfounded)
        witnesses: list[int] = []
        for head in unfounded:
            for body in self._defs.get(head, ()):
                if any(l > 0 and abs(l) in uset for l in body):
                    continue  # internal to the loop
                false_lit = 0
                for l in body:
                    if self._assign[l] == -1:
                        false_lit = l
                        break
                if not false_lit:
                    raise RuntimeError("external body of an unfounded set is true")
                witnesses.append(-false_lit)
        base = tuple(dict.fromkeys(witnesses))
        return [(v, *base) for v in unfounded]

    def _total_checks(self) -> list[tuple[int, ...]]:
        if not self._tight:
            vetoes = self._unfounded_nogoods()
            if vetoes:
                self.stats.unfounded_vetoes += 1
                return vetoes
        if self.callbacks.on_total_candidate is not None:
            return [tuple(ng) for ng in self.callbacks.on_total_candidate(self)]
        return []

    # ------------------------------------------------------------------ solve

    def _check_deadline(self) -> None:
        if self.budget.max_seconds is not None:
            if time.monotonic() - self._start_time > self.budget.max_seconds:
                raise _Stop()

    def _note_conflict(self) -> None:
        self.stats.conflicts += 1
        self._conf_since_restart += 1
        if (
            self.budget.max_conflicts is not None
            and self.stats.conflicts > self.budget.max_conflicts
        ):
            raise _Stop()
        self._check_deadline()

    def solve(self) -> SolveResult:
        try:
            while True:
                conflict = self.propagate()
                if conflict is not None:
                    self._note_conflict()
                    if not self.resolve_conflict(conflict):
                        return SolveResult(UNSAT, None, self.stats)
                    continue
                if len(self._trail) == self._nvars:
                    vetoes = self._total_checks()
                    if not vetoes:
                        return SolveResult(SAT, self.model_atoms(), self.stats)
                    conflict, progressed = self._apply_emitted(vetoes)
                    if conflict is not None:
                        self._note_conflict()
                        if not self.resolve_conflict(conflict):
                            return SolveResult(UNSAT, None, self.stats)
                    elif not progressed:
                        raise RuntimeError("total-candidate veto made no progress")
                    continue
                self.restart_if_needed()
                self.delete_constraints_if_needed()
                self.decide(self.choose_literal())
        except _Stop:
            return SolveResult(TIMEOUT, None, self.stats)

