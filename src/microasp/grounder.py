"""Bottom-up grounding over derivable atoms, and the one body join that the
grounder and all three deferred-constraint strategies run.

The join is compiled.  `BodyPlan` turns a rule body, once, into steps over
a list of slots: the rule's constants and then its variables, in the order
the plan binds them.  Each positive literal probes the `AtomIndex` table of
its predicate keyed by the positions bound when it is reached, and binds its
free positions; comparisons and negative literals run as soon as their
variables are bound, a negative literal as a probe of its all-positions
table.  Facts skip the join: a fact's head enters the index at its turn in
the first round of the fixpoint and its variable is a fact of the program.

A ground program is solver literals: each instance is (head variable or 0,
body literals in written order), a literal being a signed atom variable,
read off the match's slots by probing each atom's all-positions table
(`BodyPlan.instance`).  `AtomIndex.render` turns an instance back into
atoms for text.

The grounder folds facts into each instance as it builds it
(`BodyPlan.instance` given the fact variables), with no pass afterwards.
The literals of extensional predicates (those with facts and no other
defining rule) are not even probed, as they always hold.  An instance with
a fact head or a negative literal on a fact is dropped, and other fact
literals leave its body.  A body that empties makes a derived fact, which
reaches the instances built before it through a worklist from its variable
to the instances holding it.

`iter_matches` reads each atom's truth from a list indexed by solver
variable and lets at most `budget` body literals be undefined:

* grounding: `AtomIndex.undefined` (all 0) with an unbounded budget, so
  truth prunes nothing;
* the lazy check: the solver assignment with budget 0 on a total candidate;
* the eager propagator: the solver assignment with budget 1, through the
  plan seeded at each body literal the assigned literal matches;
* the post propagator: the solver assignment with budget 0, in full at its
  first call, then through the seeded plans of each literal assigned since
  its last call.

Each match of a plan in written order comes in lexicographic order of the
variables of its positive literals; a seeded plan's `written` permutation
recovers that key from a match's literals.
"""
from __future__ import annotations

import itertools
import time
from operator import ge, gt, itemgetter, le, lt
from typing import Callable, Container, Iterable, Iterator, Optional, Sequence

from .model import (
    Atom,
    BodyElement,
    GroundRule,
    Literal,
    Program,
    Rule,
    Term,
    Var,
)

#: A row of an atom table: (solver variable, arguments).
Row = tuple[int, tuple]

#: A ground rule as solver literals: (head variable or 0, body literals).
Instance = tuple[int, tuple[int, ...]]


class GroundingError(Exception):
    """A rule that cannot be grounded: `message` says why, and the text
    adds the rule's source location in the parser's style, if it has one."""

    def __init__(self, message: str, rule: Rule):
        self.message = message
        where = f" at {rule.line}:{rule.column}" if rule.line else ""
        super().__init__(f"{message}{where}")


class GroundingTimeout(Exception):
    """The deadline given to `ground_program` passed while it grounded."""


def _key_of(positions: Sequence[int]) -> Callable:
    """The key of a sequence at `positions`: () for none, the value itself
    for one, a tuple for more.  Tables and plans build keys alike."""
    if not positions:
        return lambda seq: ()
    return itemgetter(*positions)


class AtomIndex:
    """Ground atoms with dense ids, and keyed tables for joins.

    An atom's id is its insertion rank (0-based) and its solver variable is
    id + 1.  `table(predicate, positions)` maps the values at the given
    argument positions (a key as built by `_key_of`) to the rows `(var,
    args)` holding them, in insertion order.  A table is built on first use
    and kept current by `add`.  `undefined` maps every variable to 0: the
    truth the grounder joins under.
    """

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._atoms: list[Atom] = []
        self._ids: dict[Atom, int] = {}
        self._rows: dict[str, list[Row]] = {}
        self._tables: dict[str, dict[tuple[int, ...], tuple[Callable, dict]]] = {}
        self.undefined: list[int] = [0]
        for atom in atoms:
            self.add(atom)

    def add(self, atom: Atom) -> None:
        if atom in self._ids:
            return
        self._ids[atom] = len(self._atoms)
        self._atoms.append(atom)
        self.undefined.append(0)
        row = (len(self._atoms), atom.args)
        self._rows.setdefault(atom.predicate, []).append(row)
        tables = self._tables.get(atom.predicate)
        if tables:
            for key, table in tables.values():
                table.setdefault(key(atom.args), []).append(row)

    def table(self, predicate: str, positions: tuple[int, ...]) -> dict:
        if not positions:
            return {(): self._rows.setdefault(predicate, [])}
        tables = self._tables.setdefault(predicate, {})
        if positions not in tables:
            key = _key_of(positions)
            table: dict = {}
            for row in self._rows.get(predicate, ()):
                table.setdefault(key(row[1]), []).append(row)
            tables[positions] = (key, table)
        return tables[positions][1]

    def id_of(self, atom: Atom) -> Optional[int]:
        return self._ids.get(atom)

    def atom(self, idx: int) -> Atom:
        return self._atoms[idx]

    def render(self, rule: Instance) -> GroundRule:
        """An instance over this index as atoms and literals."""
        head, body = rule
        return GroundRule(
            self._atoms[head - 1] if head else None,
            tuple(Literal(self._atoms[abs(l) - 1], l > 0) for l in body),
        )

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._ids

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)


class GroundProgram:
    """Ground rules and constraints over a dense atom index, as solver
    literals: `facts` holds the variables of the fact atoms and `rules` the
    instances (head variable or 0, body literals in written order)."""

    def __init__(
        self,
        atoms: AtomIndex,
        facts: tuple[int, ...],
        rules: tuple[Instance, ...],
    ):
        self.atoms = atoms
        self.facts = facts
        self.rules = rules

    def to_text(self) -> str:
        """Textual form with lexicographically sorted statements."""
        lines = [f"{self.atoms.atom(var - 1)}." for var in self.facts]
        lines.extend(f"{self.atoms.render(rule)}." for rule in self.rules)
        return "\n".join(sorted(lines)) + ("\n" if lines else "")

    def __repr__(self) -> str:
        return (
            f"GroundProgram(atoms={len(self.atoms)}, facts={len(self.facts)}, "
            f"rules={len(self.rules)})"
        )


def _rule_terms(rule: Rule) -> Iterator[Term]:
    if rule.head is not None:
        yield from rule.head.args
    for elem in rule.body:
        if isinstance(elem, Literal):
            yield from elem.atom.args
        else:
            yield from elem.lhs
            yield from elem.rhs


def herbrand_universe(program: Program) -> set[Term]:
    """All constants syntactically present in the program."""
    return {
        term
        for rule in program.rules
        for term in _rule_terms(rule)
        if not isinstance(term, Var)
    }


def _sum_of(slots: Sequence[int], rule: Rule) -> Callable:
    """The value of a term sum read from the slots at `slots`."""
    if len(slots) == 1:
        return itemgetter(slots[0])

    def total(values: list) -> int:
        terms = [values[s] for s in slots]
        for term in terms:
            if not isinstance(term, int):
                raise GroundingError(
                    f"arithmetic on non-integer constant '{term}' in rule '{rule}.'",
                    rule,
                )
        return sum(terms)

    return total


_ORDERED = {"<": lt, "<=": le, ">": gt, ">=": ge}


def _test(op: str, left: Callable, right: Callable, rule: Rule) -> Callable:
    """A comparison's truth under a match's slots.  An ordered comparison
    takes integers only."""
    if op == "=":
        return lambda slots: left(slots) == right(slots)
    if op == "!=":
        return lambda slots: left(slots) != right(slots)
    compare = _ORDERED[op]

    def ordered(slots: list) -> bool:
        a, b = left(slots), right(slots)
        if isinstance(a, int) and isinstance(b, int):
            return compare(a, b)
        bad = b if isinstance(a, int) else a
        raise GroundingError(
            f"ordered comparison on non-integer constant '{bad}' in rule '{rule}.'",
            rule,
        )

    return ordered


# Stage operations: (kind, a, b).
_TEST = 0  # a(slots) is the comparison's truth
_BIND = 1  # slots[a] = b(slots), a binding `=`
_NEG = 2  # a negative literal: probe table a at key b(slots)


class BodyPlan:
    """One rule body planned and compiled to a join over slot lists.

    Positive literals are matched in written order.  A plan seeded at body
    element `seed` joins outward from a start that binds the seed's
    variables (`start`): a positive seed is matched first, then each next
    positive literal is the first left in written order that shares a bound
    variable, or failing that the first left.  `written[k]` is the plan
    position of the k-th positive literal in written order.

    Each constant and variable gets a slot, the variables in the order the
    plan binds them; a variable has a slot once it is bound.  Each positive
    literal becomes a step: the table keyed by its positions bound on
    arrival, the slots that make the key, the free positions it binds (a
    run of consecutive slots) and the checks of variables repeated within
    it.  Before the first step and after each one, the comparisons and
    negative literals not yet placed are taken in body order, in passes
    until one places nothing: a negative literal whose terms all have slots
    becomes a probe of its predicate's all-positions table, a comparison
    whose sides are bound a test, and an `=` with one side bound and a lone
    unbound variable on the other an assignment to that variable.
    `positives` lists the positive literals in plan order and `stages[i]`
    the elements placed after the first i of them.  A rule variable that
    gets no slot is unsafe, a `GroundingError`.

    The head and each body literal in written order are compiled to the
    same probe, from which `instance` reads a match's ground rule; positive
    literals on the `extensional` predicates, whose atoms are all facts,
    are left out.
    """

    def __init__(
        self,
        rule: Rule,
        seed: Optional[int] = None,
        extensional: Container[str] = frozenset(),
    ):
        self.rule = rule
        self.seed = seed
        at = [
            i for i, e in enumerate(rule.body) if isinstance(e, Literal) and e.positive
        ]
        order = list(range(len(at)))
        if seed is not None:
            reached = rule.body[seed].atom.variables()
            order = [at.index(seed)] if seed in at else []
            left = [k for k in range(len(at)) if k not in order]
            while left:
                k = next(
                    (k for k in left if rule.body[at[k]].atom.variables() & reached),
                    left[0],
                )
                order.append(k)
                left.remove(k)
                reached |= rule.body[at[k]].atom.variables()
        self.written = tuple(order.index(k) for k in range(len(at)))
        self.positives = [rule.body[at[k]] for k in order]

        slot: dict[Term, int] = {}
        for term in _rule_terms(rule):
            if not isinstance(term, Var):
                slot.setdefault(term, len(slot))
        initial: list = list(slot)
        accesses: dict[tuple[str, tuple[int, ...]], int] = {}

        def access(predicate: str, positions: tuple[int, ...]) -> int:
            return accesses.setdefault((predicate, positions), len(accesses))

        def probe(atom: Atom) -> tuple[int, Callable]:
            """The table holding the atom's variable, and its key."""
            table = access(atom.predicate, tuple(range(len(atom.args))))
            return table, _key_of([slot[t] for t in atom.args])

        def bind(var: Var) -> int:
            slot[var] = len(initial)
            initial.append(None)
            return slot[var]

        def match(args: tuple[Term, ...]):
            """Positions known before `args` is matched, the (position,
            slot) pairs it binds and those of variables it repeats."""
            known = tuple(pos for pos, t in enumerate(args) if t in slot)
            binds, repeats = [], []
            for pos, term in enumerate(args):
                if pos in known:
                    continue
                if term in slot:
                    repeats.append((pos, slot[term]))
                else:
                    binds.append((pos, bind(term)))
            return known, binds, repeats

        def value(terms: tuple[Term, ...]) -> Callable:
            return _sum_of([slot[t] for t in terms], rule)

        def operation(elem: BodyElement) -> Optional[tuple]:
            """The element's operation under the slots bound so far, or
            None when it cannot be placed yet."""
            if isinstance(elem, Literal):
                if all(t in slot for t in elem.atom.args):
                    return (_NEG, *probe(elem.atom))
                return None
            lhs, rhs = elem.lhs, elem.rhs
            left = all(t in slot for t in lhs)
            right = all(t in slot for t in rhs)
            if left and right:
                return _TEST, _test(elem.op, value(lhs), value(rhs), rule), None
            if elem.op != "=" or not (left or right):
                return None
            target, terms = (lhs, rhs) if right else (rhs, lhs)
            if len(target) != 1:
                return None
            return _BIND, bind(target[0]), value(terms)

        rest = [e for e in rule.body if not (isinstance(e, Literal) and e.positive)]
        self.stages: list[list[BodyElement]] = []

        def place() -> tuple:
            """The operations of the elements left that can be placed now,
            which make the next stage."""
            placed, ops = [], []
            while True:
                before = len(placed)
                for elem in list(rest):
                    op = operation(elem)
                    if op is not None:
                        rest.remove(elem)
                        placed.append(elem)
                        ops.append(op)
                if len(placed) == before:
                    break
            self.stages.append(placed)
            return tuple(ops)

        if seed is not None:
            args = rule.body[seed].atom.args
            known, self._seed_binds, repeats = match(args)
            self._seed_checks = [(pos, slot[args[pos]]) for pos in known] + repeats
        self._stage0 = place()
        self._steps = []
        for lit in self.positives:
            args = lit.atom.args
            known, binds, repeats = match(args)
            free = [pos for pos, _ in binds]
            lo = binds[0][1] if binds else 0
            self._steps.append((
                access(lit.atom.predicate, known),
                _key_of([slot[args[pos]] for pos in known]),
                len(free),
                lo,
                lo + len(free),
                free[0] if free else 0,
                itemgetter(*free) if len(free) > 1 else None,
                tuple(repeats),
                place(),
            ))
        unsafe = sorted(name for name in rule.variables() if Var(name) not in slot)
        if unsafe:
            raise GroundingError(f"unsafe variable {unsafe[0]} in rule '{rule}.'", rule)

        literals = [e for e in rule.body if isinstance(e, Literal)]
        self._probes = [
            (*probe(e.atom), 1 if e.positive else -1)
            for e in literals
            if not (e.positive and e.atom.predicate in extensional)
        ]
        self._literals = [
            (e.atom.predicate, [slot[t] for t in e.atom.args], e.positive)
            for e in literals
        ]
        if rule.head is not None:
            self._head_probe = probe(rule.head)
            self._head = (rule.head.predicate, [slot[t] for t in rule.head.args])
        self._accesses = list(accesses)
        self._initial = initial
        # The tables of the index last joined over, which `add` keeps current.
        self._index: Optional[AtomIndex] = None
        self._tables: list[dict] = []

    def start(self, args: tuple[Term, ...]) -> Optional[list]:
        """Slots binding the seed literal's variables to the arguments of a
        ground atom, or None when the atom does not match the seed."""
        slots = self._initial[:]
        for pos, s in self._seed_binds:
            slots[s] = args[pos]
        for pos, s in self._seed_checks:
            if args[pos] != slots[s]:
                return None
        return slots

    def head(self, slots: list) -> Atom:
        predicate, head = self._head
        return Atom(predicate, tuple([slots[s] for s in head]))

    def render(self, slots: list) -> GroundRule:
        """The rule under a match's slots as atoms: every body literal in
        written order, those on atoms outside the index included."""
        return GroundRule(
            self.head(slots) if self.rule.head is not None else None,
            tuple(
                Literal(Atom(predicate, tuple([slots[s] for s in at])), positive)
                for predicate, at, positive in self._literals
            ),
        )

    def instance(
        self, slots: list, facts: Container[int] = frozenset()
    ) -> Optional[Instance]:
        """A match's ground rule over the index last joined: (head variable
        or 0, body literals in written order), with the fact variables
        `facts` folded in.  A negative literal on an atom outside the index
        holds and is dropped, as are a repeated literal, a positive literal
        on a fact and one on an `extensional` predicate, which is not
        probed.  A head or a negative literal on a fact, or a literal and
        its complement, give None.  The head must be in the index."""
        tables = self._tables
        head = 0
        if self.rule.head is not None:
            table, key = self._head_probe
            head = tables[table][key(slots)][0][0]
            if head in facts:
                return None
        body: list[int] = []
        for table, key, sign in self._probes:
            rows = tables[table].get(key(slots))
            if not rows:
                continue
            var = rows[0][0]
            if var in facts:
                if sign < 0:
                    return None
                continue
            lit = sign * var
            if lit in body:
                continue
            if -lit in body:
                return None
            body.append(lit)
        return head, tuple(body)


def _run(ops: tuple, slots: list, tables: list, values, budget: int, lits: list) -> int:
    """Run a stage's operations; the budget left, or -1 when one fails."""
    for kind, a, b in ops:
        if kind == _TEST:
            if not a(slots):
                return -1
        elif kind == _BIND:
            slots[a] = b(slots)
        else:
            rows = tables[a].get(b(slots))
            if rows:  # an atom outside the index is false: the literal holds
                var = rows[0][0]
                val = values[var]
                if val == 1:
                    return -1
                if val == 0:
                    if budget == 0:
                        return -1
                    budget -= 1
                lits.append(-var)
    return budget


def iter_matches(
    plan: BodyPlan,
    index: AtomIndex,
    values: Sequence[int],
    budget: int,
    start: Optional[list] = None,
) -> Iterator[tuple[list, list[int]]]:
    """Matches of the body over the atoms of the index, from the slots
    `start` made by `plan.start` or else from none bound.

    `values[var]` is the truth of the atom with that variable: 1 true, -1
    false, 0 undefined.  A match holds no false body literal and at most
    `budget` undefined ones.  An atom outside the index is false, so a
    positive literal on one fails and a negative one holds.  Each match
    comes as its slots and the body literals on index atoms as signed
    variables, both lists the caller owns; `plan.instance` and
    `plan.render` read a match's ground rule.  The module docstring lists
    the truth and budget each caller joins under.
    """
    if plan._index is not index:
        plan._tables = [index.table(p, positions) for p, positions in plan._accesses]
        plan._index = index
    tables = plan._tables
    slots = plan._initial[:] if start is None else start
    lits: list[int] = []
    if plan._stage0:
        budget = _run(plan._stage0, slots, tables, values, budget, lits)
        if budget < 0:
            return
    steps = plan._steps
    last = len(steps) - 1
    if last < 0:
        yield slots, lits
        return
    # Depth-first over the steps: at step i, rows[i] iterates the probed
    # table bucket, with budgets[i] left and lits[:marks[i]] matched before.
    rows: list = [()] * len(steps)
    budgets = [budget] * len(steps)
    marks = [len(lits)] * len(steps)
    rows[0] = iter(tables[steps[0][0]].get(steps[0][1](slots), ()))
    i = 0
    while i >= 0:
        _, _, nbind, lo, hi, first, free, repeats, ops = steps[i]
        have, mark = budgets[i], marks[i]
        for var, args in rows[i]:
            val = values[var]
            if val == -1:
                continue
            left = have
            if val == 0:
                if left == 0:
                    continue
                left -= 1
            if nbind == 1:
                slots[lo] = args[first]
            elif nbind:
                slots[lo:hi] = free(args)
            if repeats and any(args[pos] != slots[s] for pos, s in repeats):
                continue
            del lits[mark:]
            lits.append(var)
            if ops:
                left = _run(ops, slots, tables, values, left, lits)
                if left < 0:
                    continue
            if i == last:
                yield slots[:], lits[:]
                continue
            i += 1
            rows[i] = iter(tables[steps[i][0]].get(steps[i][1](slots), ()))
            budgets[i] = left
            marks[i] = len(lits)
            break
        else:
            i -= 1


def _derivable_matches(plan: BodyPlan, index: AtomIndex) -> Iterator[list]:
    """Slots matching the positive body over the index's atoms; as every
    atom is undefined and every body literal may be, truth and negative
    literals prune nothing."""
    for slots, _ in iter_matches(plan, index, index.undefined, len(plan.rule.body)):
        yield slots


def ground_rule(rule: Rule, index: AtomIndex) -> list[Instance]:
    """Instances of one rule over the atoms of an index, which must hold
    their heads and the atoms of their negative literals.

    Positive body literals match the index and comparisons are evaluated
    away.
    """
    plan = BodyPlan(rule)
    out: dict[Instance, None] = {}
    for slots in _derivable_matches(plan, index):
        inst = plan.instance(slots)
        if inst is not None:
            out[inst] = None
    return list(out)


def _watch(
    matches: Iterator[list], deadline: float, ticks: Iterator[int]
) -> Iterator[list]:
    """The matches, raising `GroundingTimeout` at every 1024th tick once the
    monotonic clock has passed the deadline."""
    for slots in matches:
        if not next(ticks) & 1023 and time.monotonic() > deadline:
            raise GroundingTimeout()
        yield slots


def ground_program(
    program: Program,
    include_deferred: bool = False,
    deadline: Optional[float] = None,
) -> GroundProgram:
    """Ground the program (deferred constraints excluded unless requested).

    Instantiation is bottom-up over derivable atoms: positive body literals
    only match atoms derivable by some rule, so the result is usually far
    smaller than the full instantiation while having the same stable models.
    The index of the derivable atoms becomes the program's atom table.
    Each rule other than a fact is compiled once, for the fixpoint and the
    instantiation; a fact is added without a join.

    Facts are folded into each instance as it is built, and a predicate
    with facts and no other defining rule is extensional: its literals are
    not probed.  An instance whose body empties is a derived fact, which
    reaches the instances built before it through `_fold_derived`.

    With a `deadline` (a `time.monotonic()` value), the fixpoint and the
    instantiation each check the clock every 1024 matches and raise
    `GroundingTimeout` once it has passed.
    """
    kept = [
        rule
        for i, rule in enumerate(program.rules)
        if include_deferred or i not in program.deferred
    ]
    defined = [
        (rule.head.predicate, rule.is_fact) for rule in kept if rule.head is not None
    ]
    extensional = {p for p, fact in defined if fact} - {
        p for p, fact in defined if not fact
    }
    plans = [
        None if rule.is_fact else BodyPlan(rule, None, extensional) for rule in kept
    ]
    index = AtomIndex()

    def matches(plan: BodyPlan, ticks: Iterator[int]) -> Iterator[list]:
        found = _derivable_matches(plan, index)
        return found if deadline is None else _watch(found, deadline, ticks)

    ticks = itertools.count(1)
    changed = True
    while changed:
        changed = False
        for rule, plan in zip(kept, plans):
            if rule.head is None:
                continue
            if plan is None:
                heads: Iterable[Atom] = (rule.head,)
            else:
                heads = (plan.head(slots) for slots in matches(plan, ticks))
            for head in heads:
                if head not in index:
                    index.add(head)
                    changed = True

    ticks = itertools.count(1)
    facts = dict.fromkeys(
        index.id_of(rule.head) + 1 for rule in kept if rule.is_fact
    )
    found: list[int] = []
    instances: dict[Instance, None] = {}
    for plan in plans:
        if plan is None:
            continue
        for slots in matches(plan, ticks):
            inst = plan.instance(slots, facts)
            if inst is None:
                continue
            if inst[0] and not inst[1]:
                facts[inst[0]] = None
                found.append(inst[0])
            else:
                instances[inst] = None
    rules = _fold_derived(list(instances), facts, found) if found else tuple(instances)
    return GroundProgram(index, tuple(facts), rules)


def _fold_derived(
    pending: list[Optional[Instance]], facts: dict[int, None], queue: list[int]
) -> tuple[Instance, ...]:
    """The instances with the derived facts in `queue` folded in, and the
    facts they derive in turn added to `facts`.  Each instance is visited
    once for each derived fact it holds."""
    holders: dict[int, list[int]] = {}
    for i, (head, body) in enumerate(pending):
        for var in (head, *map(abs, body)):
            holders.setdefault(var, []).append(i)
    while queue:
        fact = queue.pop()
        for i in holders.get(fact, ()):
            inst = pending[i]
            if inst is None:
                continue
            head, body = inst
            if head == fact or -fact in body:
                pending[i] = None
                continue
            body = tuple(lit for lit in body if lit != fact)
            if head and not body:
                pending[i] = None
                if head not in facts:
                    facts[head] = None
                    queue.append(head)
                continue
            pending[i] = head, body
    return tuple(dict.fromkeys(inst for inst in pending if inst is not None))


def naive_ground_program(program: Program) -> GroundProgram:
    """Full instantiation over the Herbrand base, with no simplification.

    Reference semantics for oracle cross-checks; exponential in rule arity.
    """
    constants = sorted(
        herbrand_universe(program),
        key=lambda t: (0, t, "") if isinstance(t, int) else (1, 0, t),
    )
    arities: dict[str, int] = {}
    for rule in program.rules:
        atoms = [rule.head] if rule.head is not None else []
        atoms.extend(
            e.atom for e in rule.body if isinstance(e, Literal)
        )
        for atom in atoms:
            arities[atom.predicate] = atom.arity
    domain = AtomIndex(
        Atom(pred, args)
        for pred, arity in arities.items()
        for args in itertools.product(constants, repeat=arity)
    )
    table = AtomIndex()

    def var(lit: int) -> int:
        """The table's literal for a literal over the domain."""
        atom = domain.atom(abs(lit) - 1)
        table.add(atom)
        return (table.id_of(atom) + 1) * (1 if lit > 0 else -1)

    facts: dict[int, None] = {}
    rules: dict[Instance, None] = {}
    for rule in program.rules:
        for head, body in ground_rule(rule, domain):
            head = var(head) if head else 0
            body = tuple(map(var, body))
            if head and not body:
                facts[head] = None
            else:
                rules[head, body] = None
    return GroundProgram(table, tuple(facts), tuple(rules))


def ground_deferred_violations(
    plans: Sequence[BodyPlan], index: AtomIndex, values: Sequence[int]
) -> list[tuple[int, list, list[int]]]:
    """Matches of the constraint bodies with every literal true under `values`.

    On a total assignment each match is a violated instance and its literals
    are the nogood.  Matches come constraint by constraint in plan order,
    each constraint's in index order, as (plan position, slots, signed
    variables).
    """
    return [
        (ci, slots, lits)
        for ci, plan in enumerate(plans)
        for slots, lits in iter_matches(plan, index, values, 0)
    ]
