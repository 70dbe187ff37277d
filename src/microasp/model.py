"""AST types for the input language and their ground counterparts.

Variables start with an uppercase letter, constants do not.  A ground term
is the Python value it denotes: an `int` for an integer constant, a `str`
for a symbolic one.  A variable is a `Var`, so `isinstance(t, Var)` is the
one test that tells them apart, and ground atoms hash and compare as tuples
of plain values.  Rules have at most one head atom; a rule without a head
is a constraint and a rule with a ground head and empty body is a fact.
Where a body's comparisons and negative literals are evaluated, and so
which rules are safe, is decided by the join planner, `grounder.BodyPlan`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass(frozen=True)
class Var:
    """A variable; the only term that is not the value it denotes."""

    name: str

    def __str__(self) -> str:
        return self.name


#: A ground term is the value it denotes, an `int` or a `str` symbol.
Term = Union[int, str, Var]


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()

    @property
    def is_ground(self) -> bool:
        return not any(isinstance(t, Var) for t in self.args)

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
    """Parsed program plus the indices of constraints marked for deferral."""

    rules: tuple[Rule, ...] = ()
    deferred: frozenset[int] = frozenset()

    def deferred_rules(self) -> list[Rule]:
        return [self.rules[i] for i in sorted(self.deferred)]


@dataclass(frozen=True)
class GroundRule:
    """A variable-free rule as atoms, comparisons evaluated away: how a
    ground program's (head variable, body literals) instance reads as text
    or as a set of literals."""

    head: Optional[Atom]
    body: tuple[Literal, ...] = ()

    def __str__(self) -> str:
        body = ", ".join(str(lit) for lit in self.body)
        if self.head is None:
            return f":- {body}"
        if not self.body:
            return str(self.head)
        return f"{self.head} :- {body}"
