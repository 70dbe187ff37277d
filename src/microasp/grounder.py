"""Bottom-up grounding over derivable atoms, and the one body join that the
grounder and all three deferred-constraint strategies run.

The join is compiled to Python.  `BodyPlan` plans a rule body once over a
list of slots, the rule's constants and then its variables in the order the
plan binds them, and emits the source of its join: a nested `for` per
positive literal over the bucket of its predicate's `AtomIndex` table keyed
by the positions bound when it is reached, unpacking the free positions
into slot locals.  Comparisons become Python operators and a binding `=` an
assignment, each as soon as its variables are bound; a negative literal is
a probe of its all-positions table.  The source names slots, tables and
operators only, so the constants come in through the slots list, and
plans of one shape share one compiled function (`_compiled`).  A program
has a plan for each of its rules (`Program.plans`, made when it is parsed),
and every solve of it grounds and checks through those plans, the
propagators' seeded plans included, made at the first solve that reads
them.  What a plan plans is the same for every program of one encoding,
so it is planned once per process and shared through a bounded table
(`_PLANS`, see `BodyPlan`): a program of an encoding met before pays only
a lookup per plan.

A join has two forms.  The truth form reads each atom's truth from a
list indexed by solver variable, lets at most `budget` body literals be
undefined and stores each match's slots and literals in the caller's dict
under its key (`Matches`).  A plan seeded at a body literal is called on a
trail literal: it first binds the seed literal's variables from the
arguments of that literal's atom, and takes the literal itself as the
seed's.  `BodyPlan.trigger` binds any plan's truth form to an index
(`Trigger`) and `iter_matches` runs bound unseeded plans in full; a solve
binds each truth join once (`strategies.ConstraintIndex`).  The callers
join over a `GroundProgram` of the plan's program, where the plan's
extensional predicates hold facts only, so a positive literal on one is
taken as true without a read.  They are:

* the lazy check: every body in full over the solver assignment with
  budget 0 on a total candidate, its stored literals the nogoods;
* the eager propagator: the solver assignment with budget 1, every body in
  full at its first call, when every fact is true, then the trigger of
  each body literal the assigned literal matches;
* the post propagator: the solver assignment with budget 0, every body in
  full at its first call, then the triggers of each literal assigned since
  its last call.

Both propagators seed plans only at literals on predicates that are not
extensional: a fact is true before their first call and never changes.

Grounding runs the instance form (`_instances`) in the rounds of the
fixpoint, whose last round is the instantiation (`ground_program`).  It
leaves truth, budget and negative literals out of the join, as they prune
nothing under all-undefined truth with a budget of the body's length, and
yields each match's instance: (head variable or 0, body literals in written
order), a literal being a signed atom variable.  A positive literal's
variable comes from its loop's row, and the head's and each negative
literal's from a probe of the atom's all-positions table; a head not found
is added.  Facts are folded in as the instance is built: the literals of
extensional predicates (those with facts and no other defining rule) are
not even read, an instance with a fact head or a negative literal on a fact
is dropped, and other fact literals leave its body.  `AtomIndex.render`
turns an instance back into a ground `Rule` for text.

Each match of a plan in written order comes in lexicographic order of the
variables of its positive literals; the truth form keys each match by (the
constraint's position, those variables), which a seeded plan reads in
written order through its `written` permutation.  The instance form of a
constraint uses that order to join a symmetric pair once: where swapping
two positive literals a < b on one predicate maps the body onto itself
(`_symmetric_pairs`), such as `:- match(M,W1), match(M,W2), W1 != W2.`, it
skips a match whose row at b has a lower variable than its row at a.  The
match it skips has the literals of one that came before it, so the
nogoods, their first occurrences and the solver's store are those of the
full join.
"""
from __future__ import annotations

import itertools
import sys
import threading
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Container, Iterable, Iterator, Optional, Sequence

from .model import (
    Atom,
    BodyElement,
    Comparison,
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

#: A plan's truth form bound to the tables of one index, for one constraint
#: position: (join, slots, gets, rule, ci), bound once per solve.  The call
#: `join(slots, gets, rule, values, budget, lit, args, found, ci)` joins the
#: body under the truth `values` with at most `budget` undefined body
#: literals (see `iter_matches`) and stores each match in `found`
#: (`Matches`).  A seeded plan is called on a trail literal `lit`, true in
#: `values`, and the arguments `args` of its atom.  It first binds the seed
#: literal's variables from `args`: an atom with a constant other than the
#: seed's, or with two values where the seed repeats a variable, stores
#: nothing.  The seed literal of a match is then `lit` itself, never looked
#: up or read.  An unseeded plan reads neither `lit` nor `args`.
Trigger = tuple[Callable, tuple, list, Rule, int]

#: The matches of truth joins, by key: (constraint position, the variables of
#: its positive literals in written order) -> (slots, signed variables).
Matches = dict[tuple[int, tuple[int, ...]], tuple[list, list[int]]]


class GroundingError(Exception):
    """A rule that cannot be grounded: `message` says why and `rule` is
    the rule, and the text adds its source location in the parser's style,
    if it has one."""

    def __init__(self, message: str, rule: Rule):
        self.message = message
        self.rule = rule
        where = f" at {rule.line}:{rule.column}" if rule.line else ""
        super().__init__(f"{message}{where}")


class AtomIndex:
    """Ground atoms with dense ids, and keyed tables for joins.

    An atom's id is its insertion rank (0-based) and its solver variable is
    id + 1.  `table(predicate, positions)` maps the values at the given
    argument positions (the key `operator.itemgetter` builds: the value
    itself for one position, a tuple for more) to the rows `(var, args)`
    holding them, in insertion order.  A table is built on first use
    and kept current by `add`.
    """

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._atoms: list[Atom] = []
        self._ids: dict[Atom, int] = {}
        self._rows: dict[str, list[Row]] = {}
        self._tables: dict[str, dict[tuple[int, ...], tuple[Callable, dict]]] = {}
        for atom in atoms:
            self.add(atom)

    def add(self, atom: Atom) -> int:
        """The atom's solver variable, adding the atom if it is new."""
        idx = self._ids.setdefault(atom, len(self._atoms))
        if idx < len(self._atoms):
            return idx + 1
        self._atoms.append(atom)
        row = (len(self._atoms), atom.args)
        self._rows.setdefault(atom.predicate, []).append(row)
        tables = self._tables.get(atom.predicate)
        if tables:
            for key, table in tables.values():
                table.setdefault(key(atom.args), []).append(row)
        return row[0]

    def table(self, predicate: str, positions: tuple[int, ...]) -> dict:
        if not positions:
            return {(): self._rows.setdefault(predicate, [])}
        tables = self._tables.setdefault(predicate, {})
        if positions not in tables:
            key = itemgetter(*positions)
            table: dict = {}
            for row in self._rows.get(predicate, ()):
                table.setdefault(key(row[1]), []).append(row)
            tables[positions] = (key, table)
        return tables[positions][1]

    def id_of(self, atom: Atom) -> Optional[int]:
        return self._ids.get(atom)

    def atom(self, idx: int) -> Atom:
        return self._atoms[idx]

    def render(self, rule: Instance) -> Rule:
        """An instance over this index as a rule of atoms and literals."""
        head, body = rule
        return Rule(
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
    instances (head variable or 0, body literals in written order).

    Every producer (`ground_program`, `naive_ground_program`,
    `oracle.reduct`) guarantees that `facts` holds each variable once and
    that each body holds distinct literals and never a literal and its
    complement.  The solver relies on it to store the rules' nogoods
    without a set: see `cdcl.Solver._build_static`.

    A constraint's instances need not be every match of its body: the
    grounder joins a symmetric pair once (see the module docstring), and
    the instances left out are ones whose set of literals an earlier
    instance holds.  So the nogoods, in the order of their first
    occurrence, are those of the full instantiation."""

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


#: Source that fails a comparison: the Python operator of its negation,
#: which for integers and for `=`/`!=` on any terms is `not` of the operator.
_FAILS = {"=": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}

#: Nested loops per generated function: CPython compiles at most 20 nested
#: blocks and 100 levels of indentation, so each further run of loops goes
#: into a sibling function, which takes the names bound so far.
_NESTED = 16

#: The forms of a join: the truth form that `BodyPlan.trigger` binds, and
#: the instance form that grounding runs.
_TRUTH, _INSTANCES = "truth", "instances"
_FORMS = (_TRUTH, _INSTANCES)

#: The limit on the digits of an integer's text, 0 for none.
_int_digits: Callable[[], int] = getattr(sys, "get_int_max_str_digits", lambda: 0)

#: Compiled joins by source and digit limit, shared by every plan of one
#: shape.  The source holds no program text, so the entries are bounded by
#: the plan shapes met.
_COMPILED: dict[tuple[str, int], Callable] = {}

#: The planned fields of every `BodyPlan` (`BodyPlan._plan`), by the rule's
#: value, the seed and the rule's body predicates that are extensional,
#: shared by the plans of every program of one encoding.  The table holds
#: rules and what was planned for them only, never an index or anything
#: else of a solve, and it is cleared once it holds `_MAX_PLANS` entries.
_PLANS: dict[tuple[Rule, Optional[int], frozenset[str]], dict[str, object]] = {}
_MAX_PLANS = 512
_PLANS_LOCK = threading.Lock()  # held to clear and fill the table


def _compiled(source: str) -> Callable:
    """The function `join` that a join's source defines, its sums
    bound by `=` held to the present digit limit, compiled at its first
    use under that limit."""
    digits = _int_digits()
    join = _COMPILED.get((source, digits))
    if join is None:
        scope = dict(
            Atom=Atom,
            _new=tuple.__new__,
            _arith=_arith,
            _ordered=_ordered,
            _too_long=_too_long,
        )
        scope["_long"] = 10**digits if digits else float("inf")
        exec(compile(source, "<join>", "exec"), scope)
        join = _COMPILED[source, digits] = scope["join"]
    return join


def _arith(rule: Rule, *terms) -> None:
    """Fail a sum on its first term that is not an integer."""
    bad = next(t for t in terms if not isinstance(t, int))
    raise GroundingError(
        f"arithmetic on non-integer constant '{bad}' in rule '{rule}.'", rule
    )


def _ordered(rule: Rule, a, b) -> None:
    """Fail an ordered comparison on its first side that is not an integer."""
    bad = b if isinstance(a, int) else a
    raise GroundingError(
        f"ordered comparison on non-integer constant '{bad}' in rule '{rule}.'", rule
    )


def _too_long(rule: Rule) -> None:
    """Fail a sum too long for `str` to print."""
    raise GroundingError(f"sum of over {_int_digits()} digits in rule '{rule}.'", rule)


def _not_ints(names: Iterable[str]) -> str:
    return " or ".join(f"type({n}) is not int" for n in names)


def _symmetric_pairs(rule: Rule) -> list[tuple[int, int]]:
    """The pairs (a, b) of positive literals of a constraint, by written
    position among its positive literals, whose swap maps the body onto
    itself, a being the nearest positive literal before b on b's predicate.

    The swap is the renaming of variables that maps literal a onto b and b
    onto a, argument by argument; a constant must meet an equal constant.
    Every other positive literal must stay itself, and the set of the
    other elements must stay the same, `X != Y` being `Y != X`.  A body with
    a sum or an ordered comparison has no pair: an ordered comparison can
    fail on a symbol, and the match that fails first could be one a swap
    leaves out.  Of the matches that the swaps map onto one another, the
    first in match order comes with each b's variable no lower than its
    a's.  Each check reads only the elements that hold a variable the swap
    moves, so a long body is checked in time about linear in its length.
    """
    if rule.head is not None:
        return []
    positives = [e.atom for e in rule.body if isinstance(e, Literal) and e.positive]
    rest = [e for e in rule.body if not (isinstance(e, Literal) and e.positive)]
    for elem in rest:
        if isinstance(elem, Comparison) and (
            elem.op not in ("=", "!=") or len(elem.lhs) + len(elem.rhs) > 2
        ):
            return []

    def form(elem: BodyElement, swap: dict) -> tuple:
        """A negative literal or a comparison under the swap, the sides of
        a comparison unordered."""
        if isinstance(elem, Literal):
            return elem.atom.predicate, tuple(swap.get(t, t) for t in elem.atom.args)
        return elem.op, frozenset(swap.get(t, t) for t in elem.lhs + elem.rhs)

    holders: dict[Var, set[int]] = {}  # the positive literals holding a variable
    for k, atom in enumerate(positives):
        for t in atom.args:
            if isinstance(t, Var):
                holders.setdefault(t, set()).add(k)
    touching: dict[Var, list[BodyElement]] = {}  # the other elements holding it
    for elem in rest:
        terms = elem.atom.args if isinstance(elem, Literal) else elem.lhs + elem.rhs
        for t in set(terms):
            if isinstance(t, Var):
                touching.setdefault(t, []).append(elem)
    unchanged = {form(elem, {}) for elem in rest}
    last: dict[tuple[str, int], int] = {}
    pairs = []
    for b, atom_b in enumerate(positives):
        a = last.get((atom_b.predicate, atom_b.arity))
        last[atom_b.predicate, atom_b.arity] = b
        if a is None:
            continue
        swap: dict[Var, Var] = {}
        for s, t in zip(positives[a].args, atom_b.args):
            if not (isinstance(s, Var) and isinstance(t, Var)):
                if s != t:
                    break
            elif swap.setdefault(s, t) != t or swap.setdefault(t, s) != s:
                break
        else:
            moved = [s for s, t in swap.items() if s != t]
            if all(holders[s] <= {a, b} for s in moved) and all(
                form(elem, swap) in unchanged
                for s in moved
                for elem in touching.get(s, ())
            ):
                pairs.append((a, b))
    return pairs


class BodyPlan:
    """One rule body planned once and emitted as the source of its join.

    Positive literals are matched in written order.  A plan seeded at body
    element `seed` joins outward from the seed literal, whose variables its
    trigger binds from the arguments it is called on: a positive seed is
    matched first, then each next positive literal is the first left in
    written order that shares a bound variable, or failing that the first
    left.  The seed literal itself is the trail literal the trigger is
    called on, true: a positive seed's loop is an assignment of it, and a
    negative seed's probe is replaced by it.  `written[k]` is the plan
    position of the k-th positive literal in written order.

    Each constant and variable gets a slot, the variables in the order the
    plan binds them; a variable has a slot once it is bound.  Each positive
    literal becomes a `for` over the bucket of the table keyed by its
    positions bound on arrival, unpacking its free positions into slot
    locals and testing the variables repeated within it.  Before the first
    loop and inside each one, the comparisons and negative literals not yet
    placed are taken in body order, in passes until one places nothing: a
    negative literal whose terms all have slots becomes a probe of its
    predicate's all-positions table, a comparison whose sides are bound a
    test with its operator, and an `=` with one side bound and a lone
    unbound variable on the other an assignment to that variable.  Each
    distinct term of a sum of several, and each single-term side of an
    ordered comparison, is first checked to be an integer, as Python would
    concatenate two symbols or order them, unless its slot is known to hold
    one: an integer constant, a slot an earlier or enclosing line checked,
    or one bound to a sum.  The check still names every term or side, so a
    failing one raises what checking them all would.  A sum bound by `=`
    must have no more digits than `str` prints.  `positives` lists the
    positive literals in plan order and `stages[i]` the elements placed
    after the first i of them.  A rule variable that gets no slot is
    unsafe, a `GroundingError`.

    Each line of the source belongs to one or both forms (`_FORMS`), which
    share the loops and comparisons.  Both leave out what a positive literal
    on an `extensional` predicate would test, as its atoms are all facts:
    the truth form reads no truth value and spends no budget on its loop,
    and the instance form leaves it out of the body.  Its variable is still
    among a truth-form match's literals.  The instance form folds the other
    fact variables in, and for each pair (a, b) of `_symmetric_pairs`, a
    constraint's only, skips a match right after loop b when b's variable
    is lower than a's: of two matches that the swap exchanges it keeps the
    first.  `_source` holds the source of each form the plan runs: both
    for an unseeded plan, the truth form for a seeded one, whose source
    binds and checks the seed first (see `Trigger`).  The truth form stores
    each match under its key, in its `part{i}` functions too.  Two seeded
    plans can share all but the key, as the two of `:- e(X,Y), e(Y,X).` do,
    so the key is in the source that `_compiled` is keyed by.  A form is
    compiled at its first join (`_compiled`), never here: a program's plans
    are made when it is parsed, for its safety check, and a solve may run
    only some of their forms.  `seeded` holds the plans seeded at the body
    literals on predicates that are not `extensional`, made at its first
    read and kept.

    A rule is planned once per process (`_plan`): the planned fields come
    from the table `_PLANS`, keyed by the rule's value (which leaves out its
    line and column), the seed and the rule's body predicates that are
    extensional, and cleared once it holds `_MAX_PLANS` entries.  The plans
    of every program of one encoding share those fields, so each is a
    tuple or a read-only mapping: `_initial` is passed to joins as their
    slots, which are the constants only for a seeded plan.  Each plan
    keeps its own `rule`, so a `GroundingError` and `render` read the
    program's own rule, and its own `extensional` and `seeded`; the table
    holds no index, no `get` and no plan.
    An unsafe rule fails in `_plan` at each program's own rule, as a plan
    that fails is not kept.

    A plan serves any solve of its program, also two at once (a solve
    started from a hook of another, or solves on threads): it keeps no
    state of a solve, as its caller holds each join bound to an index's
    tables, and two reads of `seeded` that race make equal lists.
    """

    def __init__(
        self,
        rule: Rule,
        seed: Optional[int] = None,
        extensional: Container[str] = frozenset(),
    ):
        # All that planning reads of `extensional`.
        extensional_body = frozenset(
            e.atom.predicate
            for e in rule.body
            if isinstance(e, Literal) and e.atom.predicate in extensional
        )
        key = (rule, seed, extensional_body)
        planned = _PLANS.get(key)
        if planned is None:
            planned = self._plan(rule, seed, extensional)
            with _PLANS_LOCK:
                if len(_PLANS) >= _MAX_PLANS:
                    _PLANS.clear()
                _PLANS[key] = planned
        self.__dict__.update(planned)
        self.rule = rule
        self.seed = seed
        self.extensional = extensional

    @staticmethod
    def _plan(
        rule: Rule, seed: Optional[int], extensional: Container[str]
    ) -> dict[str, object]:
        """The planned fields of `BodyPlan(rule, seed, extensional)`: its
        permutation, literals and stages, and the sources of its forms, with
        the slots their constants start in and the tables they read.  What is
        planned here depends on the rule's value, the seed and which of the
        body's predicates are extensional, never on the rule's location."""
        at = [
            i for i, e in enumerate(rule.body) if isinstance(e, Literal) and e.positive
        ]
        order = list(range(len(at)))
        if seed is not None:
            reached = rule.body[seed].atom.variables()
            shared = [rule.body[i].atom.variables() for i in at]
            order = [at.index(seed)] if seed in at else []
            left = [k for k in range(len(at)) if k not in order]
            while left:
                k = next((k for k in left if shared[k] & reached), left[0])
                order.append(k)
                left.remove(k)
                reached |= shared[k]
        written = tuple(order.index(k) for k in range(len(at)))
        positives = [rule.body[at[k]] for k in order]
        # The seed literal, which a trigger gets as the trail literal `lit`.
        seed_lit = None if seed is None else rule.body[seed]

        slot: dict[Term, int] = {}
        for term in _rule_terms(rule):
            if not isinstance(term, Var):
                slot.setdefault(term, len(slot))
        initial: list = list(slot)
        accesses: dict[tuple[str, tuple[int, ...]], int] = {}
        # The slots known to hold an integer from here on: the integer
        # constants', and each one an earlier or enclosing line checked or
        # bound to a sum.
        ints = {f"s{k}" for k, term in enumerate(initial) if type(term) is int}

        def access(predicate: str, positions: tuple[int, ...]) -> int:
            return accesses.setdefault((predicate, positions), len(accesses))

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

        lines: list[tuple[int, tuple[str, ...], str]] = []
        depth, skip, budget, lits = 1, "return", "b0", []

        def emit(text: str, forms: tuple[str, ...] = _FORMS) -> None:
            """Add a line of the join's source to the given forms."""
            lines.append((depth, forms, text))

        def names(terms: Iterable[Term]) -> list[str]:
            return [f"s{slot[t]}" for t in terms]

        def key(terms: Iterable[Term]) -> str:
            """The source of a table key, built as the table's
            `operator.itemgetter` builds it."""
            keys = names(terms)
            return keys[0] if len(keys) == 1 else f"({', '.join(keys)})"

        def probe(atom: Atom) -> str:
            """The source of the rows of the atom's all-positions table that
            hold it: its variable's, or None."""
            table = access(atom.predicate, tuple(range(len(atom.args))))
            return f"g{table}({key(atom.args)})"

        def total(terms: tuple[Term, ...]) -> str:
            """The source of a term sum, each distinct term of a sum of
            several checked first to be an integer.  Three or more terms
            are summed flat, as a chain of `+` nests as deep as it is long
            when it compiles."""
            summed = names(terms)
            if len(summed) > 1:
                distinct = list(dict.fromkeys(summed))
                unchecked = [n for n in distinct if n not in ints]
                if unchecked:
                    emit(f"if {_not_ints(unchecked)}: _arith(rule, {', '.join(distinct)})")
                    ints.update(unchecked)
            return f"sum(({', '.join(summed)}))" if len(summed) > 2 else " + ".join(summed)

        def placed(elem: BodyElement) -> bool:
            """Emit the element if the slots bound so far let it run."""
            if isinstance(elem, Literal):
                if not all(t in slot for t in elem.atom.args):
                    return False
                if elem is seed_lit and "lit" not in lits:
                    # The seed literal, placed once: the trail literal, true.
                    lits.append("lit")
                    return True
                n = f"n{len(lits)}"
                lits.append(f"*{n}")
                for text in (
                    f"{n} = {probe(elem.atom)}",
                    f"if {n}:",
                    f"    x = values[{n}[0][0]]",
                    f"    if x > 0 or not (x or {budget}): {skip}",
                    f"    if not x: {budget} -= 1",
                    f"    {n} = (-{n}[0][0],)",
                    f"else: {n} = ()",
                ):
                    emit(text, (_TRUTH,))
                return True
            lhs, rhs = elem.lhs, elem.rhs
            left = all(t in slot for t in lhs)
            right = all(t in slot for t in rhs)
            if left and right:
                a, b = total(lhs), total(rhs)
                sides = [
                    side
                    for side, terms in ((a, lhs), (b, rhs))
                    if len(terms) == 1 and side not in ints
                ]
                if elem.op not in ("=", "!=") and sides:
                    emit(f"if {_not_ints(sides)}: _ordered(rule, {a}, {b})")
                    ints.update(sides)
                emit(f"if {a} {_FAILS[elem.op]} {b}: {skip}")
                return True
            if elem.op != "=" or not (left or right):
                return False
            target, terms = (lhs, rhs) if right else (rhs, lhs)
            if len(target) != 1:
                return False
            value, bound = total(terms), f"s{bind(target[0])}"
            emit(f"{bound} = {value}")
            if len(terms) > 1:
                emit(f"if abs({bound}) >= _long: _too_long(rule)")
                ints.add(bound)
            return True

        rest = [e for e in rule.body if not (isinstance(e, Literal) and e.positive)]
        stages: list[list[BodyElement]] = []

        def place() -> None:
            """Emit the elements left that can run now: the next stage."""
            stage: list[BodyElement] = []
            while True:
                before = len(stage)
                for elem in list(rest):
                    if placed(elem):
                        rest.remove(elem)
                        stage.append(elem)
                if len(stage) == before:
                    break
            stages.append(stage)

        constants = len(initial)
        if seed is not None:
            # The truth form binds the seed's variables from the arguments of
            # the atom it is called on, and checks its constants and the
            # variables repeated within it.
            args = rule.body[seed].atom.args
            known, binds, repeats = match(args)
            checks = [(pos, slot[args[pos]]) for pos in known] + repeats
            row = [f"r{pos}" for pos in range(len(args))]
            for pos, s in binds:
                row[pos] = f"s{s}"
            if row:
                emit(f"{', '.join(row)}, = args")
            if checks:
                emit(f"if {' or '.join(f'r{pos} != s{s}' for pos, s in checks)}: return")
        # Loop a's number by loop b's, for each symmetric pair (a, b).
        swapped = {} if seed is not None else {
            b + 1: a + 1 for a, b in _symmetric_pairs(rule)
        }
        place()
        for i, lit in enumerate(positives, 1):
            if i % _NESTED == 0:
                for form, own in (
                    (_TRUTH, ["values", budget, *(l.lstrip("*") for l in lits), "found", "ci"]),
                    (_INSTANCES, ["facts", "add", *(f"v{k}" for k in range(1, i))]),
                ):
                    params = ", ".join(["rule", "gets", *own, *names(slot)])
                    call = "yield from " if form == _INSTANCES else ""
                    emit(f"{call}part{i}({params})", (form,))
                    lines.append((0, (form,), f"def part{i}({params}):"))
                lines.append((1, _FORMS, ""))  # unpacks `gets`: filled in last
                depth = 1
            if i == 1 and lit is seed_lit:
                # The first loop's one row would be the trail literal's
                # atom, bound already and true.
                emit("v1 = lit", (_TRUTH,))
                lits.append("v1")
                place()
                continue
            args = lit.atom.args
            known, binds, repeats = match(args)
            row = ["_"] * len(args)
            for pos, s in binds:
                row[pos] = f"s{s}"
            for pos, _ in repeats:
                row[pos] = f"r{pos}"
            table = access(lit.atom.predicate, known)
            emit(
                f"for v{i}, ({', '.join(row)}{',' * (len(row) == 1)}) in "
                f"g{table}({key(args[pos] for pos in known)}, ()):"
            )
            depth, skip = depth + 1, "continue"
            if i in swapped:
                emit(f"if v{i} < v{swapped[i]}: continue", (_INSTANCES,))
            if lit.atom.predicate not in extensional:
                emit(f"x = values[v{i}]", (_TRUTH,))
                emit("if x < 0: continue", (_TRUTH,))
                emit(f"b{i} = {budget} if x else {budget} - 1", (_TRUTH,))
                budget = f"b{i}"
                emit(f"if {budget} < 0: continue", (_TRUTH,))
            for pos, s in repeats:
                emit(f"if r{pos} != s{s}: continue")
            lits.append(f"v{i}")
            place()
        unsafe = sorted(name for name in rule.variables() if Var(name) not in slot)
        if unsafe:
            raise GroundingError(f"unsafe variable {unsafe[0]} in rule '{rule}.'", rule)
        # A match is stored as all its slots and its literals, under its key:
        # the variables of its positive literals in written order.
        every = f"[{', '.join(f's{k}' for k in range(len(initial)))}]"
        stored = "".join(f"v{w + 1}, " for w in written)
        emit(f"found[ci, ({stored})] = {every}, [{', '.join(lits)}]", (_TRUTH,))
        if seed is not None:
            # A seeded plan binds its variables itself, so its slots are the
            # constants.
            del initial[constants:]
            every = f"[{', '.join(f's{k}' for k in range(constants))}]"

        literals = [e for e in rule.body if isinstance(e, Literal)]
        # The instance form reads the j-th body literal into `l{j}`, 0 where
        # it leaves the body, and the body is the tuple of those not 0.  Two
        # literals can only be on one atom if they share a predicate and
        # agree at each position where both hold a constant, and only such
        # pairs, found through `held` without a scan of every pair, are
        # compared: a repeat leaves the body, and a literal with its
        # complement drops the instance, as a fact head or a negative literal
        # on a fact does.  A seeded plan only ever runs the truth form, so it
        # builds none of this.
        if seed is None:

            def instance(text: str) -> None:
                emit(text, (_INSTANCES,))

            loops = iter(written)
            atoms = [
                f"v{next(loops) + 1}" if e.positive else f"x{j}"
                for j, e in enumerate(literals)
            ]
            # The literals by (predicate, sign), and by (predicate, sign,
            # position, constant, None for a variable) those holding it there.
            held: dict[tuple, set[int]] = {}
            for k, e in enumerate(literals):
                group = (e.atom.predicate, e.positive)
                held.setdefault(group, set()).add(k)
                for pos, t in enumerate(e.atom.args):
                    at = (*group, pos, None if isinstance(t, Var) else t)
                    held.setdefault(at, set()).add(k)

            def same(j: int, positive: bool, upto: int) -> list[str]:
                """` == ` tests of the j-th literal's atom against those of the
                literals of a sign before `upto` that could be on that atom."""
                group = (literals[j].atom.predicate, positive)
                could = held.get(group, set())
                for pos, t in enumerate(literals[j].atom.args):
                    if not isinstance(t, Var):
                        at = held.get((*group, pos, None), set())
                        could = could & (at | held.get((*group, pos, t), set()))
                return [f"{atoms[j]} == {atoms[k]}" for k in sorted(could) if k < upto]

            head = "0"
            if rule.head is not None:
                head = "h"
                fields = "".join(f"{n}, " for n in names(rule.head.args))
                instance(f"h = {probe(rule.head)}")
                # `tuple.__new__` builds the atom without the Python-level
                # `__new__` of the named tuple.
                added = f"add(_new(Atom, (rule.head.predicate, ({fields}))))"
                instance(f"h = h[0][0] if h else {added}")
                instance(f"if h in facts: {skip}")
            body = []
            for j, elem in enumerate(literals):
                var = atoms[j]
                if elem.positive:
                    if elem.atom.predicate not in extensional:
                        left = " or ".join([f"{var} in facts", *same(j, True, j)])
                        instance(f"l{j} = 0 if {left} else {var}")
                        body.append(f"l{j}")
                    continue
                body.append(f"l{j}")
                on_facts = [f"{var} in facts", *same(j, True, len(literals))]
                dropped = " or ".join(on_facts)
                repeats = same(j, False, j)
                instance(f"{var} = {probe(elem.atom)}")
                instance(f"if {var}:")
                instance(f"    {var} = {var}[0][0]")
                instance(f"    if {dropped}: {skip}")
                if repeats:
                    instance(f"    l{j} = 0 if {' or '.join(repeats)} else -{var}")
                else:
                    instance(f"    l{j} = -{var}")
                instance(f"else: {var} = l{j} = 0")
            instance(f"body = ({''.join(f'{l}, ' for l in body)})")
            if body:
                instance("if 0 in body: body = tuple(filter(None, body))")
            instance(f"yield {head}, body")

        literal_slots = tuple(
            (e.atom.predicate, tuple([slot[t] for t in e.atom.args]), e.positive)
            for e in literals
        )
        head_slots = None
        if rule.head is not None:
            head_slots = (rule.head.predicate, tuple([slot[t] for t in rule.head.args]))
        gets = f"[{', '.join(f'g{k}' for k in range(len(accesses)))}] = gets"
        lines[:0] = [
            (0, (_TRUTH,), "def join(slots, gets, rule, values, b0, lit, args, found, ci):"),
            (0, (_INSTANCES,), "def join(slots, gets, rule, facts, add):"),
            (1, _FORMS, f"{every} = slots"),
            (1, _FORMS, gets),
        ]

        def source_of(form: str) -> str:
            return "".join(
                f"{'    ' * depth}{text or gets}\n"
                for depth, forms, text in lines
                if form in forms
            )

        forms = _FORMS if seed is None else (_TRUTH,)
        source = MappingProxyType({form: source_of(form) for form in forms})
        return dict(
            written=written,
            positives=tuple(positives),
            stages=tuple(map(tuple, stages)),
            _source=source,
            _accesses=tuple(accesses),
            _initial=tuple(initial),
            _literals=literal_slots,
            _head=head_slots,
        )

    @cached_property
    def seeded(self) -> list[tuple[tuple[str, bool], BodyPlan]]:
        """The plan seeded at each body literal on a predicate that is not
        extensional, in body order, with the literal's (predicate, sign)."""
        rule, extensional = self.rule, self.extensional
        return [
            ((elem.atom.predicate, elem.positive), BodyPlan(rule, ei, extensional))
            for ei, elem in enumerate(rule.body)
            if isinstance(elem, Literal) and elem.atom.predicate not in extensional
        ]

    def _gets(self, index: AtomIndex) -> list[Callable]:
        """The `get`s of the index's tables that the plan's joins read."""
        return [index.table(p, positions).get for p, positions in self._accesses]

    def trigger(self, index: AtomIndex, ci: int) -> Trigger:
        """The plan's truth form bound to the index's tables, for the
        constraint at position `ci` (see `Trigger`): once per solve."""
        join = _compiled(self._source[_TRUTH])
        return join, self._initial, self._gets(index), self.rule, ci

    def render(self, slots: list) -> Rule:
        """The ground rule under a match's slots: every body literal in
        written order, those on atoms outside the index included."""
        head = None
        if self.rule.head is not None:
            predicate, at = self._head
            head = Atom(predicate, tuple([slots[s] for s in at]))
        return Rule(
            head,
            tuple(
                Literal(Atom(predicate, tuple([slots[s] for s in at])), positive)
                for predicate, at, positive in self._literals
            ),
        )


def iter_matches(
    joins: Iterable[Trigger], values: Sequence[int], budget: int
) -> Matches:
    """The matches of unseeded plans' truth forms, bound to one index's
    tables (`BodyPlan.trigger`), run in turn into one dict: the full join
    of the lazy check and of both propagators' first calls.

    `values[var]` is the truth of the atom with that variable: 1 true, -1
    false, 0 undefined.  A match holds no false body literal and at most
    `budget` undefined ones.  A positive literal on a predicate a plan was
    given as extensional is taken as true, whatever `values` says: the
    index must hold only facts of it, true in `values`.  An atom outside
    the index is false, so a positive literal on one fails and a negative
    one holds.  Each match is stored as its slots and the body literals on
    index atoms as signed variables, both lists the caller owns;
    `plan.render` reads a match's ground rule.  An unseeded plan joins in
    written order, so its matches come in the order of their keys, and the
    dict holds them plan by plan in that order.  The module docstring lists
    the truth and budget each caller joins under.
    """
    found: Matches = {}
    for join, slots, gets, rule, ci in joins:
        join(slots, gets, rule, values, budget, 0, (), found, ci)
    return found


def _instances(
    plan: BodyPlan, index: AtomIndex, facts: Container[int]
) -> Iterator[Instance]:
    """The instance of each match of the positive body over the index's
    atoms, with the fact variables `facts` folded in (see `BodyPlan`); a
    match whose instance is dropped yields nothing.  A head not yet in the
    index is added to it, and the rest of the join sees it."""
    join = _compiled(plan._source[_INSTANCES])
    return join(plan._initial, plan._gets(index), plan.rule, facts, index.add)


def ground_rule(rule: Rule, index: AtomIndex) -> list[Instance]:
    """The instances of one rule over the atoms of an index, each once, in
    the order of its first match, a symmetric pair of a constraint joined
    once (see `BodyPlan`); heads not in the index are added to it.

    Positive body literals match the index and comparisons are evaluated
    away.  A negative literal on an atom outside the index and a repeated
    literal leave the body, and a body holding a literal and its
    complement drops the instance.
    """
    return list(dict.fromkeys(_instances(BodyPlan(rule), index, ())))


def ground_program(program: Program, include_deferred: bool = False) -> GroundProgram:
    """Ground the program (deferred constraints excluded unless requested).

    Instantiation is bottom-up over derivable atoms: positive body literals
    only match atoms derivable by some rule, so the result is usually far
    smaller than the full instantiation while having the same stable models.
    The index of the derivable atoms becomes the program's atom table.
    The rules join through the program's own plans (`Program.plans`, None
    for a fact) over its extensional predicates (`Program.extensional`),
    which deferred constraints, defining nothing, leave the same.

    The fixpoint runs in rounds.  The first adds each fact's head at its
    turn, and no later round visits a fact.  In every round each rule with
    a head runs its instance form, which adds the heads it derives.  A
    round that adds atoms is dropped, as a negative literal on an atom
    derived later in it has left a body; the round that adds none is the
    instantiation.  Constraints add no atoms and are joined once, after it,
    in their places in rule order.  An instance whose body empties is a
    derived fact, which reaches the instances built before it through
    `_fold_derived`.
    """
    kept = [
        (rule, plan)
        for i, (rule, plan) in enumerate(zip(program.rules, program.plans))
        if include_deferred or i not in program.deferred
    ]
    planned = [(rule, plan) for rule, plan in kept if plan is not None]
    index = AtomIndex()
    given: dict[int, None] = {}  # the fact rules' variables
    visited = kept  # the first round's rules: the facts too
    size = -1
    while size != len(index):
        size = len(index)
        # Each planned rule's instances in this round, None for a constraint.
        facts, joined = dict(given), []
        for rule, plan in visited:
            if plan is None:
                given[index.add(rule.head)] = None
                continue
            own = None if rule.head is None else []
            joined.append(own)
            if own is not None:
                for inst in _instances(plan, index, facts):
                    if inst[1]:
                        own.append(inst)
                    else:
                        facts[inst[0]] = None
        visited = planned
    instances = dict.fromkeys(itertools.chain.from_iterable(
        _instances(plan, index, facts) if own is None else own
        for (_, plan), own in zip(planned, joined)
    ))
    found = list(facts)[len(given):]
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
        var = table.add(domain.atom(abs(lit) - 1))
        return var if lit > 0 else -var

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

