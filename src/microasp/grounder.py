"""Bottom-up grounding over derivable atoms, and the one body join that the
grounder and all three deferred-constraint strategies run.

Rules are instantiated by matching positive body literals left to right
against the set of derivable atoms; comparisons are evaluated (or, for `=`,
used to bind a variable) as soon as their inputs are bound.  Facts are
simplified out of bodies and rules with a definitely false body are dropped.

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
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .model import (
    Atom,
    BodyElement,
    Comparison,
    GroundRule,
    Literal,
    Program,
    Rule,
    Term,
    Var,
    binding_stages,
)

Substitution = dict  # variable name -> ground term (an int or a str)


class GroundingError(Exception):
    pass


class AtomIndex:
    """Ground atoms with dense ids, grouped for joins.

    An atom's id is its insertion rank (0-based) and its solver variable is
    id + 1.  Rows `(var, args)` are kept per predicate and per (predicate,
    argument position, value), in insertion order.  `undefined` maps every
    variable to 0: the truth the grounder joins under.
    """

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._atoms: list[Atom] = []
        self._ids: dict[Atom, int] = {}
        self._rows: dict[str, list[tuple[int, tuple[Term, ...]]]] = {}
        self._buckets: dict[
            tuple[str, int, Term], list[tuple[int, tuple[Term, ...]]]
        ] = {}
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
        for i, term in enumerate(atom.args):
            self._buckets.setdefault((atom.predicate, i, term), []).append(row)

    def id_of(self, atom: Atom) -> Optional[int]:
        return self._ids.get(atom)

    def atom(self, idx: int) -> Atom:
        return self._atoms[idx]

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._ids

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def candidates(
        self, predicate: str, args: tuple[Term, ...], subst: Substitution
    ) -> list[tuple[int, tuple[Term, ...]]]:
        """Rows possibly matching the pattern, via its most selective bound arg."""
        rows = self._rows.get(predicate)
        if not rows:
            return []
        best = rows
        for i, arg in enumerate(args):
            term = subst.get(arg.name) if isinstance(arg, Var) else arg
            if term is None:
                continue
            bucket = self._buckets.get((predicate, i, term))
            if bucket is None:
                return []
            if len(bucket) < len(best):
                best = bucket
        return best


class GroundProgram:
    """Ground rules and constraints over a dense atom index."""

    def __init__(
        self,
        atoms: AtomIndex,
        facts: tuple[Atom, ...],
        rules: tuple[GroundRule, ...],
    ):
        self.atoms = atoms
        self.facts = facts
        self.rules = rules
        self.fact_set = frozenset(facts)

    def to_text(self) -> str:
        """Textual form with lexicographically sorted statements."""
        lines = [f"{atom}." for atom in self.facts]
        lines.extend(f"{rule}." for rule in self.rules)
        return "\n".join(sorted(lines)) + ("\n" if lines else "")

    def __repr__(self) -> str:
        return (
            f"GroundProgram(atoms={len(self.atoms)}, facts={len(self.facts)}, "
            f"rules={len(self.rules)})"
        )


def herbrand_universe(program: Program) -> set[Term]:
    """All constants syntactically present in the program."""
    constants: set[Term] = set()

    def scan_terms(terms: Iterable[Term]) -> None:
        for term in terms:
            if not isinstance(term, Var):
                constants.add(term)

    for rule in program.rules:
        if rule.head is not None:
            scan_terms(rule.head.args)
        for elem in rule.body:
            if isinstance(elem, Literal):
                scan_terms(elem.atom.args)
            else:
                scan_terms(elem.lhs)
                scan_terms(elem.rhs)
    return constants


def substitute_atom(atom: Atom, subst: Substitution) -> Atom:
    if not atom.args:
        return atom
    return Atom(
        atom.predicate,
        tuple(subst[t.name] if isinstance(t, Var) else t for t in atom.args),
    )


def _unify(
    args: tuple[Term, ...], row: tuple[Term, ...], subst: Substitution
) -> Optional[Substitution]:
    out = subst
    for pat, val in zip(args, row):
        if isinstance(pat, Var):
            bound = out.get(pat.name)
            if bound is None:
                if out is subst:
                    out = dict(subst)
                out[pat.name] = val
            elif bound != val:
                return None
        elif pat != val:
            return None
    return out


def _eval_side(
    terms: tuple[Term, ...], subst: Substitution, rule: Rule
) -> Optional[Term]:
    """Ground value of a term sum, or None while a variable is unbound."""
    values: list[Term] = []
    for term in terms:
        if isinstance(term, Var):
            bound = subst.get(term.name)
            if bound is None:
                return None
            values.append(bound)
        else:
            values.append(term)
    if len(values) == 1:
        return values[0]
    for value in values:
        if not isinstance(value, int):
            raise GroundingError(
                f"arithmetic on non-integer constant '{value}' in rule '{rule}.'"
            )
    return sum(values)


def _compare(op: str, left: Term, right: Term, rule: Rule) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if not (isinstance(left, int) and isinstance(right, int)):
        bad = right if isinstance(left, int) else left
        raise GroundingError(
            f"ordered comparison on non-integer constant '{bad}' in rule '{rule}.'"
        )
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    return left >= right


def _apply_comparison(
    cmp: Comparison, subst: Substitution, rule: Rule
) -> Optional[Substitution]:
    """Evaluate a comparison; a binding `=` extends the substitution instead."""
    left = _eval_side(cmp.lhs, subst, rule)
    right = _eval_side(cmp.rhs, subst, rule)
    if left is not None and right is not None:
        return subst if _compare(cmp.op, left, right, rule) else None
    if cmp.op == "=":
        if left is None and len(cmp.lhs) == 1 and right is not None:
            out = dict(subst)
            out[cmp.lhs[0].name] = right
            return out
        if right is None and len(cmp.rhs) == 1 and left is not None:
            out = dict(subst)
            out[cmp.rhs[0].name] = left
            return out
    raise GroundingError(f"comparison '{cmp}' not evaluable in rule '{rule}.'")


class BodyPlan:
    """Precomputed join order for one rule body.

    Positive literals are matched in written order.  A plan seeded at body
    element `seed` joins outward from a start substitution that binds the
    seed's variables: a positive seed is matched first, then each next
    positive literal is the first left in written order that shares a bound
    variable, or failing that the first left.  `written[k]` is the plan
    position of the k-th positive literal in written order.
    """

    def __init__(self, rule: Rule, seed: Optional[int] = None):
        self.rule = rule
        at = [
            i for i, e in enumerate(rule.body) if isinstance(e, Literal) and e.positive
        ]
        order = list(range(len(at)))
        bound: set[str] = set()
        if seed is not None:
            bound = rule.body[seed].atom.variables()
            order = [at.index(seed)] if seed in at else []
            left = [k for k in range(len(at)) if k not in order]
            reached = set(bound)
            while left:
                k = next(
                    (k for k in left if rule.body[at[k]].atom.variables() & reached),
                    left[0],
                )
                order.append(k)
                left.remove(k)
                reached |= rule.body[at[k]].atom.variables()
        self.written = tuple(order.index(k) for k in range(len(at)))
        self.positives, self.stages, unsafe = binding_stages(
            rule, [rule.body[at[k]] for k in order], bound
        )
        if unsafe:
            raise GroundingError(
                f"unsafe variable {sorted(unsafe)[0]} in rule '{rule}.'"
            )


def iter_matches(
    plan: BodyPlan,
    index: AtomIndex,
    values: Sequence[int],
    budget: int,
    start: Optional[Substitution] = None,
) -> Iterator[tuple[Substitution, list[int]]]:
    """Matches of the body over the atoms of the index, extending `start`.

    `values[var]` is the truth of the atom with that variable: 1 true, -1
    false, 0 undefined.  A match holds no false body literal and at most
    `budget` undefined ones.  An atom outside the index is false, so a
    positive literal on one fails and a negative one holds.  Comparisons
    prune (or bind) as soon as evaluable.  Each match comes with its
    complete substitution and the body literals on index atoms as signed
    variables.  The module docstring lists the truth and budget each
    caller joins under.
    """
    rule = plan.rule
    id_of = index.id_of

    def stage(
        elems: list[BodyElement], subst: Substitution, budget: int, lits: list[int]
    ) -> Optional[tuple[Substitution, int]]:
        for elem in elems:
            if isinstance(elem, Comparison):
                subst = _apply_comparison(elem, subst, rule)
                if subst is None:
                    return None
                continue
            idx = id_of(substitute_atom(elem.atom, subst))  # negative, bound
            if idx is None:
                continue
            val = values[idx + 1]
            if val == 1:
                return None
            if val == 0:
                if budget == 0:
                    return None
                budget -= 1
            lits.append(-(idx + 1))
        return subst, budget

    def rec(
        i: int, subst: Substitution, budget: int, lits: list[int]
    ) -> Iterator[tuple[Substitution, list[int]]]:
        if i == len(plan.positives):
            yield subst, lits
            return
        pattern = plan.positives[i].atom
        elems = plan.stages[i + 1]
        for var, row in index.candidates(pattern.predicate, pattern.args, subst):
            val = values[var]
            if val == -1:
                continue
            nb = budget
            if val == 0:
                if nb == 0:
                    continue
                nb -= 1
            nxt = _unify(pattern.args, row, subst)
            if nxt is None:
                continue
            nlits = lits + [var]
            if elems:
                staged = stage(elems, nxt, nb, nlits)
                if staged is None:
                    continue
                nxt, nb = staged
            yield from rec(i + 1, nxt, nb, nlits)

    lits: list[int] = []
    staged = stage(plan.stages[0], dict(start or {}), budget, lits)
    if staged is not None:
        yield from rec(0, staged[0], staged[1], lits)


def _derivable_matches(plan: BodyPlan, index: AtomIndex) -> Iterator[Substitution]:
    """Substitutions matching the positive body over the index's atoms; as
    every atom is undefined and every body literal may be, truth and
    negative literals prune nothing."""
    for subst, _ in iter_matches(plan, index, index.undefined, len(plan.rule.body)):
        yield subst


def _instantiate(
    rule: Rule, subst: Substitution, keep_negative: Callable[[Atom], bool]
) -> Optional[GroundRule]:
    """Ground rule instance for a complete substitution, or None if inert.

    Negative literals failing `keep_negative` are dropped as definitely true;
    a body holding an atom both positively and negatively never fires.
    """
    head = substitute_atom(rule.head, subst) if rule.head is not None else None
    body: list[Literal] = []
    seen: set[Literal] = set()
    for elem in rule.body:
        if not isinstance(elem, Literal):
            continue
        atom = substitute_atom(elem.atom, subst)
        if not elem.positive and not keep_negative(atom):
            continue
        lit = Literal(atom, elem.positive)
        if lit in seen:
            continue
        if lit.negated() in seen:
            return None
        seen.add(lit)
        body.append(lit)
    return GroundRule(head, tuple(body))


def ground_rule(rule: Rule, index: AtomIndex) -> list[GroundRule]:
    """Instances of one rule over the atoms of an index.

    Positive body literals match the index, comparisons are evaluated away,
    and negative literals are kept verbatim.
    """
    out: dict[GroundRule, None] = {}
    for subst in _derivable_matches(BodyPlan(rule), index):
        inst = _instantiate(rule, subst, keep_negative=lambda atom: True)
        if inst is not None:
            out[inst] = None
    return list(out)


def ground_program(program: Program, include_deferred: bool = False) -> GroundProgram:
    """Ground the program (deferred constraints excluded unless requested).

    Instantiation is bottom-up over derivable atoms: positive body literals
    only match atoms derivable by some rule, so the result is usually far
    smaller than the full instantiation while having the same stable models.
    The index of the derivable atoms becomes the program's atom table.
    """
    kept = [
        rule
        for i, rule in enumerate(program.rules)
        if include_deferred or i not in program.deferred
    ]
    head_plans = [BodyPlan(r) for r in kept if r.head is not None]
    index = AtomIndex()
    changed = True
    while changed:
        changed = False
        for plan in head_plans:
            for subst in _derivable_matches(plan, index):
                head = substitute_atom(plan.rule.head, subst)
                if head not in index:
                    index.add(head)
                    changed = True

    instances: dict[GroundRule, None] = {}
    for rule in kept:
        for subst in _derivable_matches(BodyPlan(rule), index):
            inst = _instantiate(rule, subst, keep_negative=lambda atom: atom in index)
            if inst is not None:
                instances[inst] = None

    # Fact propagation: definitely true atoms vanish from bodies, rules with a
    # definitely false literal vanish entirely.
    facts: dict[Atom, None] = {}
    pending = list(instances)
    changed = True
    while changed:
        changed = False
        out: list[GroundRule] = []
        for inst in pending:
            if inst.head is not None and inst.head in facts:
                changed = True
                continue
            body: list[Literal] = []
            dropped = False
            for lit in inst.body:
                if lit.atom in facts:
                    if lit.positive:
                        continue
                    dropped = True
                    break
                body.append(lit)
            if dropped:
                changed = True
                continue
            if len(body) != len(inst.body):
                changed = True
                inst = GroundRule(inst.head, tuple(body))
            if not inst.body and inst.head is not None:
                facts[inst.head] = None
                changed = True
                continue
            out.append(inst)
        pending = out

    unique: dict[GroundRule, None] = {}
    for inst in pending:
        unique[inst] = None
    return GroundProgram(index, tuple(facts), tuple(unique))


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
    facts: dict[Atom, None] = {}
    rules: dict[GroundRule, None] = {}
    for rule in program.rules:
        for inst in ground_rule(rule, domain):
            if inst.head is not None:
                table.add(inst.head)
            for lit in inst.body:
                table.add(lit.atom)
            if inst.head is not None and not inst.body:
                facts[inst.head] = None
            else:
                rules[inst] = None
    return GroundProgram(table, tuple(facts), tuple(rules))


def ground_deferred_violations(
    plans: Sequence[BodyPlan], index: AtomIndex, values: Sequence[int]
) -> list[tuple[int, Substitution, list[int]]]:
    """Matches of the constraint bodies with every literal true under `values`.

    On a total assignment each match is a violated instance and its literals
    are the nogood.  Matches come constraint by constraint in plan order,
    each constraint's in index order, as (plan position, substitution,
    signed variables).
    """
    return [
        (ci, subst, lits)
        for ci, plan in enumerate(plans)
        for subst, lits in iter_matches(plan, index, values, 0)
    ]
