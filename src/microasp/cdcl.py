"""Conflict-driven search for stable models over a nogood store.

Literals are signed ints: +v asserts the atom with table id v-1 true, -v
asserts it false.  A nogood is falsified when all its literals are true;
unit propagation infers the complement of the last non-true literal of an
otherwise-true nogood.  Support is enforced through completion nogoods for
atoms with few defining rules and through a support propagator above that;
non-tight programs get an unfounded-set check on total candidates.  The
ground program's rules are already in these literals, (head variable or 0,
body), and the build (`_build_static`) stores each fact's unit in a loop of
its own, then rules and completion in one loop, each nogood ordered by
variable, a pair by one comparison, and made without a call to its class.
Most atoms of a generated instance are facts, and most of the others have
one body of one literal, whose completion is one pair made directly
(`_completion`).  Nogoods added later go through `_install`, which also
infers from them.

The search state is indexed by literal.  `_assign` has 2n+1 entries:
`_assign[v]` is the truth of atom v (1 true, -1 false, 0 undefined) and
`_assign[-v]`, which Python wraps to the upper half, the truth of its
negation, so the truth of any literal is `_assign[lit]`.  `_watches[lit]`
lists the nogoods watching `lit`, visited when it turns true.  Level,
reason, trail position and phase stay indexed by variable.

A stored nogood of two or more literals watches two of them, `w0` and `w1`,
an unordered pair: it sits once in the list of each and in no other, and
nothing reads which of the two is `w0`.  No list holds a deleted nogood:
the deletion takes its victims out of their watches' lists.  A nogood's
`rest` is what a watch move scans: its literals, or () for a pair, which
has no literal besides its watches.

Unit propagation runs the pending trail in order (`_propagate_trail`): for
each literal it visits the watchers, moves each watch to the first non-true
literal of the nogood or infers the complement of the other watch, then
runs the support propagator and the per-literal hook.  `propagate` first
assigns the root units at level 0, in place, as an inference is assigned.
Levels never decrease along the trail, so a backjump cuts it at the
level's start.

The support propagator covers heads with too many rules for completion
nogoods (`_support_check`).  A body is open while none of its literals is
false.  An undefined head with one open body, or a true head with two,
derives nothing, so per head the propagator keeps the first two open
bodies of its last scan and scans again only once too few of them are
still open.

A nogood is stored once, under its canonical tuple (`canonical`): its
distinct literals ordered by variable, which is also its `lits`.  A
tautology is never stored, a hook that holds a canonical tuple looks it up
in `_by_lits` itself, and learned nogoods are not keyed.

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
import math
from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush, nlargest
from operator import neg
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
    """The reluctant-doubling sequence 1,1,2,1,1,2,4,... (1-indexed): its
    term at i = 2^k - 1 is 2^(k-1), and past that i it starts over."""
    while i & (i + 1):  # i is not 2^k - 1
        i -= (1 << (i.bit_length() - 1)) - 1
    return (i + 1) >> 1


def canonical(lits: Iterable[int]) -> tuple[int, ...]:
    """A nogood's canonical tuple: its distinct literals ordered by
    variable, the form it is stored and looked up in."""
    return tuple(sorted(set(lits), key=abs))


@dataclass
class Budget:
    """Limits on one solve, None for none.  `max_seconds` is wall time from
    the entry to `strategies.solve`, whose docstring says what it needs."""

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


class StoredNogood:
    """A stored nogood: its literals `lits` and its two watches.  `rest` is
    what the watch loop scans for a new watch: `lits` for three literals or
    more, () for fewer, which hold no literal besides their watches."""

    __slots__ = ("lits", "rest", "w0", "w1", "learned", "deleted", "activity", "lbd")

    def __init__(self, lits: tuple[int, ...], learned: bool = False):
        self.lits = lits
        self.rest = lits if len(lits) > 2 else ()
        self.w0 = lits[0] if lits else 0
        self.w1 = lits[1] if len(lits) > 1 else self.w0
        self.learned = learned
        self.deleted = False
        self.activity = 0.0
        self.lbd = 0

    def __repr__(self) -> str:
        return f"Nogood{self.lits}"


class BudgetSpent(Exception):
    """A budget ran out: raised by the solver past `max_conflicts`, and by
    the interval timer that `strategies.solve` arms for `max_seconds`."""


class Solver:
    """One CDCL search instance over a ground program.  Of a budget it
    enforces only `max_conflicts`; `strategies.solve` enforces the time.

    The hooks extend the search; they may only return nogoods to add and
    never touch the trail.  `on_literal_true(solver, lit)` runs for each
    trail literal in trail order, after that literal's unit and support
    propagation.  `on_propagation_fixpoint(solver, since)` runs once unit
    and support propagation rest; `since` is the trail's length at its
    previous call (0 at the first), cut back by each backjump to the
    trail's new length, so the literals assigned since that call are
    `solver._trail[since:]`.  `on_total_candidate(solver)` may veto a
    total assignment, read off `solver._assign`, by returning nogoods; an
    empty return accepts it.  Each hook returns a list of nogoods, each a
    tuple of solver literals, that the solver takes as given: it neither
    copies nor keeps the list.

    A decision heap entry is `(-activity, rank, var)`: the least entry is
    the most active variable, ties broken by the seed's permutation `rank`,
    and the entry is stale once `-activity` is no longer the variable's.
    """

    def __init__(
        self,
        gp: GroundProgram,
        *,
        seed: int = 0,
        budget: Optional[Budget] = None,
        forced_decisions: Sequence[int] = (),
        on_literal_true: Optional[Callable] = None,
        on_propagation_fixpoint: Optional[Callable] = None,
        on_total_candidate: Optional[Callable] = None,
    ):
        self.gp = gp
        self.on_literal_true = on_literal_true
        self.on_propagation_fixpoint = on_propagation_fixpoint
        self.on_total_candidate = on_total_candidate
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
        # Trail length at the last fixpoint hook call, passed to the next.
        self._fixpoint_mark = 0

        self._watches: list[list[StoredNogood]] = [[] for _ in range(2 * n + 1)]
        self._by_lits: dict[tuple[int, ...], StoredNogood] = {}
        self._learned: list[StoredNogood] = []
        self._fragile: list[StoredNogood] = []
        self._root_units: list[StoredNogood] = []
        self._root_conflict: Optional[StoredNogood] = None

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
            (0.0, rank[var], var)
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

        self._defs: dict[int, list[tuple[int, ...]]] = {}
        # Up to two bodies of each support head that were open at its last
        # scan (`_support_check`), by head in build order.
        self._sup_open: dict[int, list[tuple[int, ...]]] = {}
        self._sup_watch: dict[int, list[int]] = {}
        self._build_static()
        self._tight = self._is_tight()

    # ------------------------------------------------------------------ setup

    def _build_static(self) -> None:
        """Store the ground program's nogoods under their canonical tuples,
        tautologies left out: each fact's unit in a loop of its own, then in
        one loop each rule's nogood, recording each head's bodies in
        `_defs`, then each atom's completion (`_completion`).  Nothing is
        assigned yet, so a nogood watches its first two literals and infers
        nothing, a unit waits in `_root_units` for the first `propagate`,
        and an empty one is the root conflict.

        The facts are distinct and come first, so each unit is new.  A
        rule's body holds distinct literals and no complement (see
        `GroundProgram`), and its variables are distinct, so its nogood is
        tautological only if the head is in the body, repeats a literal
        only if the head's complement is, and is canonical once ordered by
        variable: a pair by one comparison, a longer one by a sort.  Each
        nogood is made without a call to `StoredNogood`, its slots set here
        as its `__init__` sets them."""
        by_lits = self._by_lits
        watches = self._watches
        units = self._root_units
        defs = self._defs
        new = object.__new__
        for var in self.gp.facts:
            ng = new(StoredNogood)
            ng.lits = unit = (-var,)
            ng.rest = ()
            ng.w0 = ng.w1 = -var
            ng.learned = ng.deleted = False
            ng.activity = 0.0
            ng.lbd = 0
            by_lits[unit] = ng
            units.append(ng)
        # The completion reads `_defs` only once the rules are all stored:
        # `chain` starts a generator at its turn.
        for head, body in itertools.chain(self.gp.rules, self._completion()):
            if head:
                defs.setdefault(head, []).append(body)
                if head in body:
                    continue
                if -head not in body:
                    body = (-head, *body)
            size = len(body)
            if size == 2:
                w0, w1 = body
                if abs(w1) < abs(w0):
                    w0, w1 = w1, w0
                    body = (w0, w1)
            elif size > 2:
                body = tuple(sorted(body, key=abs))
                w0, w1 = body[0], body[1]
            elif size:
                w0 = w1 = body[0]
            else:
                self._root_conflict = StoredNogood(())
                continue
            if body in by_lits:
                continue
            ng = by_lits[body] = new(StoredNogood)
            ng.lits = body
            ng.rest = body if size > 2 else ()
            ng.w0 = w0
            ng.w1 = w1
            ng.learned = ng.deleted = False
            ng.activity = 0.0
            ng.lbd = 0
            if size == 1:
                units.append(ng)
            else:
                watches[w0].append(ng)
                watches[w1].append(ng)

    def _completion(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Each atom's completion nogoods as constraints (0, literals): the
        unit of an atom without a rule, and for a head with few enough
        bodies, one nogood per choice of a literal from each, tautologies
        left out.  A head whose only body is one literal l gets its nogood
        (head, -l) directly, within the same caps: none if l is the head,
        the unit (head,) if l is its complement.  A head with too many
        bodies gets the support propagator instead, recorded with the
        variables that wake it."""
        defs = self._defs
        fact_vars = self._fact_vars
        # Whether the caps admit a head whose only body is one literal.
        single = COMPLETION_MAX_RULES >= 1 and COMPLETION_MAX_PRODUCT >= 1
        for var in range(1, self._nvars + 1):
            if var in fact_vars:
                continue
            bodies = defs.get(var)
            if not bodies:
                yield 0, (var,)
                continue
            if single and len(bodies) == 1 and len(bodies[0]) == 1:
                lit = bodies[0][0]
                if lit != var:
                    yield 0, (var,) if lit == -var else (var, -lit)
                continue
            if (
                len(bodies) <= COMPLETION_MAX_RULES
                and math.prod(map(len, bodies)) <= COMPLETION_MAX_PRODUCT
            ):
                for combo in itertools.product(*bodies):
                    distinct = {var, *(-l for l in combo)}
                    if distinct.isdisjoint(map(neg, distinct)):
                        yield 0, tuple(distinct)
            else:
                self._sup_open[var] = []
                touched = {var}
                touched.update(abs(l) for body in bodies for l in body)
                for v in touched:
                    self._sup_watch.setdefault(v, []).append(var)

    def _is_tight(self) -> bool:
        """No cycle through positive bodies in the head-dependency graph."""
        graph: dict[int, list[int]] = {}
        for head, bodies in self._defs.items():
            graph[head] = {l for body in bodies for l in body if l > 0}
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
                    heappush(heap, (-act, rank[var], var))
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

    def _install(self, lits: Iterable[int]) -> Optional[StoredNogood]:
        """Store a nogood under its canonical tuple, watch it and infer from
        it; returns it when it is falsified.  A tautology or a nogood
        already stored is dropped.  Its watches are two literals that are
        not true, or else the latest true ones."""
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
        if len(key) == 1:
            self._root_units.append(ng)
            return None
        assign = self._assign
        not_true = [l for l in key if assign[l] != 1]
        if len(not_true) >= 2:
            ng.w0, ng.w1 = not_true[0], not_true[1]
        else:
            # Trail positions are distinct, so the latest are unique.
            pos = self._pos
            latest = [(pos[abs(l)], l) for l in key if assign[l] == 1]
            if not_true:
                ng.w0, ng.w1 = not_true[0], max(latest)[1]
            else:
                (_, ng.w0), (_, ng.w1) = nlargest(2, latest)
        self._watches[ng.w0].append(ng)
        self._watches[ng.w1].append(ng)
        if len(not_true) < 2:
            if self.level > 0:
                self._fragile.append(ng)
            if not not_true:
                return ng
            if assign[not_true[0]] == 0:
                self._assign_lit(-not_true[0], ng)
        return None

    # -------------------------------------------------------------- propagate

    def propagate(self) -> Optional[StoredNogood]:
        """Run unit, support, and hook propagation to fixpoint.

        Root units come first, at level 0 after a backjump to it: each
        infers the complement of its literal, assigned in place as
        `_propagate_trail` assigns an inference, or is falsified.  Returns
        the first falsified nogood, or None at fixpoint.
        """
        cb_fix = self.on_propagation_fixpoint
        while True:
            if self._root_conflict is not None:
                return self._root_conflict
            if self._root_units:
                if self.level > 0:
                    self._backjump(0)
                units, self._root_units = self._root_units, []
                # Each unit infers the complement of its literal at level 0,
                # assigned as `_propagate_trail` assigns an inference.
                assign, trail = self._assign, self._trail
                level_arr, pos, reasons, phase = (
                    self._level_arr, self._pos, self._reason, self._phase
                )
                inferred = 0
                for ng in units:
                    lit = ng.lits[0]
                    val = assign[lit]
                    if val == 1:
                        self.stats.propagations += inferred
                        return ng
                    if val == 0:
                        assign[lit] = -1
                        assign[-lit] = 1
                        var = lit if lit > 0 else -lit
                        phase[var] = lit < 0
                        level_arr[var] = 0
                        pos[var] = len(trail)
                        reasons[var] = ng
                        trail.append(-lit)
                        inferred += 1
                self.stats.propagations += inferred
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
                since, self._fixpoint_mark = self._fixpoint_mark, len(self._trail)
                emitted = cb_fix(self, since)
                if emitted:
                    self.stats.propagator_nogoods += len(emitted)
                    conflict, progressed = self._apply_emitted(emitted)
                    if conflict is not None:
                        return conflict
                    if progressed:
                        continue
            return None

    def _apply_emitted(
        self, nogoods: list[tuple[int, ...]]
    ) -> tuple[Optional[StoredNogood], bool]:
        """Install hook-produced nogoods; on conflict the rest join the queue.
        Progress is a longer trail or a larger store; a unit is stored too."""
        before = (len(self._trail), len(self._by_lits))
        for i, lits in enumerate(nogoods):
            conflict = self._install(lits)
            if conflict is not None:
                self.nogood_queue.extend(nogoods[i + 1 :])
                return conflict, True
        return None, (len(self._trail), len(self._by_lits)) != before

    def _propagate_trail(self) -> Optional[StoredNogood]:
        """Propagate the pending trail literals in order; returns the first
        falsified nogood, or None once the trail is done or a hook has left
        root units or queued nogoods for `propagate`.

        Each literal's watchers are visited in list order.  A watcher whose
        other watch is false stays; otherwise its watch moves to the first
        non-true literal of its `rest` other than the other watch (the
        visited literal is true, so the truth test skips it), or, with
        none, it infers the complement of the other watch, or is falsified
        if that one is true too.  A pair's `rest` is empty, so a pair is
        never scanned.  The list is compacted in place as it is
        visited, so the watchers that stay keep their order.  Only the
        support propagator and the per-literal hook can leave root units,
        queued nogoods or a root conflict, so a solve with neither runs
        just the watch loop.
        """
        assign = self._assign
        watches = self._watches
        trail = self._trail
        level_arr = self._level_arr
        pos = self._pos
        reasons = self._reason
        phase = self._phase
        sup_watch = self._sup_watch
        cb_lit = self.on_literal_true
        hooked = bool(sup_watch) or cb_lit is not None
        level = len(self._trail_lim)
        head = self._prop_head
        size = len(trail)
        inferred = 0
        conflict = None
        while head < size:
            lit = trail[head]
            head += 1
            watchers = watches[lit]
            j = moved = 0
            for ng in watchers:
                other = ng.w0
                if other == lit:
                    other = ng.w1
                ov = assign[other]
                if ov == -1:  # other watch false: cannot falsify now
                    watchers[j] = ng
                    j += 1
                    continue
                for l in ng.rest:
                    if assign[l] != 1 and l != other:
                        ng.w0, ng.w1 = other, l
                        watches[l].append(ng)
                        moved += 1
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
                    pos[var] = size
                    reasons[var] = ng
                    trail.append(-other)
                    size += 1
                    inferred += 1
            if moved:
                del watchers[j : j + moved]
            if conflict is not None:
                break
            if hooked:
                if sup_watch:
                    for sup_head in sup_watch.get(lit if lit > 0 else -lit, ()):
                        conflict = self._support_check(sup_head)
                        if conflict is not None:
                            break
                    if conflict is not None:
                        break
                if cb_lit is not None:
                    self.stats.propagator_calls += 1
                    emitted = cb_lit(self, lit)
                    if emitted:
                        self.stats.propagator_nogoods += len(emitted)
                        conflict, _ = self._apply_emitted(emitted)
                        if conflict is not None:
                            break
                if self._root_units or self.nogood_queue or self._root_conflict is not None:
                    break
                size = len(trail)
        self._prop_head = head
        self.stats.propagations += inferred
        return conflict

    # ------------------------------------------------------ support propagator

    def _support_check(self, head: int) -> Optional[StoredNogood]:
        """Lazily derive the completion nogood an unsupported head needs.

        A body is open while none of its literals is false.  A scan derives
        nothing for a false head, for an undefined one with an open body
        and for a true one with two.  So a scan stops at two open bodies
        and keeps them in `_sup_open`, and while as many of them as the
        head needs are still open, the next call returns at once.  With
        fewer, a false literal of each closed body witnesses the nogood
        derived: the head false with no open body, or each literal of the
        one open body true under a true head.  Each of the latter holds the
        complement of an undefined literal, so it is never falsified: it
        only infers that literal.
        """
        assign = self._assign
        val = assign[head]
        if val == -1:
            return None
        opened = self._sup_open[head]
        if len(opened) > val:
            for l in opened[0]:
                if assign[l] == -1:
                    break
            else:
                if not val:
                    return None
                for l in opened[1]:
                    if assign[l] == -1:
                        break
                else:
                    return None
        opened = []
        witnesses: list[int] = []
        for body in self._defs[head]:
            for l in body:
                if assign[l] == -1:
                    witnesses.append(-l)
                    break
            else:
                opened.append(body)
                if len(opened) == 2:
                    break
        self._sup_open[head] = opened
        if len(opened) > val:
            return None
        if not opened:
            return self._install((head, *witnesses))
        for l in opened[0]:
            if assign[l] == 0:
                self._install((head, -l, *witnesses))
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
        bj = 0  # the highest level in `tail`
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
                    if lvl > bj:
                        bj = lvl
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
        return (uip, *tail), bj

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
                self._heap.append((-activity[v], self._rank[v], v))
                self._heap_act[v] = activity[v]
            else:
                self._heap_act[v] = -1.0
        heapify(self._heap)

    def _compact_heap(self) -> None:
        """Drop the stale entries.  `choose_literal` skips every one of them,
        so no decision changes."""
        activity = self._activity
        self._heap = [e for e in self._heap if -e[0] == activity[e[2]]]
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
            neg_act, _, var = heappop(heap)
            if -neg_act != self._activity[var]:
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
        return True

    def delete_constraints_if_needed(self) -> int:
        """Past the current limit on active learned nogoods, delete the less
        active half of those with LBD above 2 that are no inference's
        reason; returns how many went.  Each victim leaves the lists of its
        two watches, whose other entries keep their order."""
        active = self.stats.learned - self.stats.deleted
        if active <= DELETION_BASE + DELETION_STEP * self._n_reductions:
            return 0
        self._n_reductions += 1
        locked = {
            self._reason[abs(l)] for l in self._trail if self._reason[abs(l)]
        }
        candidates = [ng for ng in self._learned if ng.lbd > 2 and ng not in locked]
        candidates.sort(key=lambda ng: ng.activity)
        victims = candidates[: len(candidates) // 2]
        for ng in victims:
            ng.deleted = True
        watches = self._watches
        for lit in {w for ng in victims for w in (ng.w0, ng.w1)}:
            watches[lit] = [ng for ng in watches[lit] if not ng.deleted]
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
        if self.on_total_candidate is not None:
            return self.on_total_candidate(self)
        return []

    # ------------------------------------------------------------------ solve

    def solve(self) -> SolveResult:
        try:
            while True:
                conflict = self.propagate()
                if conflict is None and len(self._trail) == self._nvars:
                    vetoes = self._total_checks()
                    if not vetoes:
                        return SolveResult(SAT, self.model_atoms(), self.stats)
                    conflict, progressed = self._apply_emitted(vetoes)
                    if conflict is None:
                        if not progressed:
                            raise RuntimeError("total-candidate veto made no progress")
                        continue
                if conflict is not None:
                    self.stats.conflicts += 1
                    self._conf_since_restart += 1
                    limit = self.budget.max_conflicts
                    if limit is not None and self.stats.conflicts > limit:
                        raise BudgetSpent()
                    if not self.resolve_conflict(conflict):
                        return SolveResult(UNSAT, None, self.stats)
                    continue
                self.restart_if_needed()
                self.delete_constraints_if_needed()
                self.decide(self.choose_literal())
        except BudgetSpent:
            return SolveResult(TIMEOUT, None, self.stats)

