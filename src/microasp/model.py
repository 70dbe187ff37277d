"""AST types for the input language and their ground counterparts.

Variables start with an uppercase letter, constants do not.  A ground term
is the Python value it denotes: an `int` for an integer constant, a `str`
for a symbolic one.  A variable is a `Var`, so `isinstance(t, Var)` is the
one test that tells them apart.  An `Atom` is a named tuple (predicate,
args), so it is built, hashed and compared in C, and a ground atom is a
tuple of plain values.  Rules have at most one head atom; a rule without a
head is a constraint and a rule with a ground head and empty body is a fact.
A ground rule read back from the solver's literals (`AtomIndex.render`,
`BodyPlan.render`) is a `Rule` too, with ground literals only in its body.
Where a body's comparisons and negative literals are evaluated, and so
which rules are safe, is decided by the join planner, `grounder.BodyPlan`;
a `Program` makes a plan for each of its rules once and keeps the plans.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

if TYPE_CHECKING:
    from .grounder import BodyPlan


class Var(NamedTuple):
    """A variable; the only term that is not the value it denotes.  Being a
    named tuple, it hashes in C, and it never equals a ground term, which is
    an `int` or a `str`."""

    name: str

    def __str__(self) -> str:
        return self.name


#: A ground term is the value it denotes, an `int` or a `str` symbol.
Term = Union[int, str, Var]


class Atom(NamedTuple):
    """A predicate applied to argument terms.  Being a tuple, an atom
    equals any (predicate, args) tuple with the same values."""

    predicate: str
    args: tuple[Term, ...] = ()

    @property
    def is_ground(self) -> bool:
        return Var not in map(type, self.args)

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> set[str]:
        return {t.name for t in self.args if isinstance(t, Var)}

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(str(t) for t in self.args)})"


@dataclass(frozen=True)
class Literal:
    """An atom or its negation-as-failure complement."""

    atom: Atom
    positive: bool = True

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"


@dataclass(frozen=True)
class Comparison:
    """lhs OP rhs where each side is a sum of terms (only + is supported)."""

    op: str
    lhs: tuple[Term, ...]
    rhs: tuple[Term, ...]

    def variables(self) -> set[str]:
        return {t.name for t in self.lhs + self.rhs if isinstance(t, Var)}

    def __str__(self) -> str:
        left = "+".join(str(t) for t in self.lhs)
        right = "+".join(str(t) for t in self.rhs)
        return f"{left} {self.op} {right}"


BodyElement = Union[Literal, Comparison]


@dataclass(frozen=True)
class Rule:
    head: Optional[Atom]
    body: tuple[BodyElement, ...] = ()
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    @property
    def is_constraint(self) -> bool:
        return self.head is None

    @property
    def is_fact(self) -> bool:
        return self.head is not None and self.head.is_ground and not self.body

    def variables(self) -> set[str]:
        out: set[str] = set()
        if self.head is not None:
            out |= self.head.variables()
        for elem in self.body:
            if isinstance(elem, Literal):
                out |= elem.atom.variables()
            else:
                out |= elem.variables()
        return out

    def __str__(self) -> str:
        body = ", ".join(str(e) for e in self.body)
        if self.head is None:
            return f":- {body}"
        if not self.body:
            return str(self.head)
        return f"{self.head} :- {body}"


@dataclass(frozen=True)
class Program:
    """Parsed program plus the indices of constraints marked for deferral.

    A program's plans are made once: `extensional` and `plans` are
    computed at their first read and kept with the program (a
    `cached_property` writes the instance `__dict__`, which a frozen
    dataclass allows).  The parser reads `plans` for its safety check, and
    every solve of the program grounds and joins through them, the seeded
    ones of `BodyPlan.seeded` included, so a plan holds no state of one
    solve.  The plans are the program's own objects, holding its own rules,
    but what they plan is planned once per encoding per process: the plans
    of every program with equal rules over equal extensional predicates
    share it (see `grounder.BodyPlan`).
    """

    rules: tuple[Rule, ...] = ()
    deferred: frozenset[int] = frozenset()

    def deferred_plans(self) -> list[Optional[BodyPlan]]:
        return [self.plans[i] for i in sorted(self.deferred)]

    @cached_property
    def _facts(self) -> tuple[bool, ...]:
        """Whether each rule is a fact, decided once per rule for both
        `extensional` and `plans`."""
        return tuple([rule.is_fact for rule in self.rules])

    @cached_property
    def extensional(self) -> frozenset[str]:
        """The predicates with facts and no other defining rule.  Deferred
        constraints define nothing, so a solve that leaves them out of its
        ground program has the same set."""
        fact, other = set(), set()
        for rule, is_fact in zip(self.rules, self._facts):
            if rule.head is not None:
                (fact if is_fact else other).add(rule.head.predicate)
        return frozenset(fact - other)

    @cached_property
    def plans(self) -> tuple[Optional[BodyPlan], ...]:
        """Each rule's `BodyPlan` over the extensional predicates, None for
        a fact.  Planning fails on the first unsafe rule in rule order with
        a `GroundingError`."""
        from .grounder import BodyPlan  # the planner imports this module

        extensional = self.extensional
        return tuple(
            None if is_fact else BodyPlan(rule, None, extensional)
            for rule, is_fact in zip(self.rules, self._facts)
        )

