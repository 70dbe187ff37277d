"""AST types for the input language, their ground counterparts, and the
body evaluation order shared by the parser's safety check and the grounder.

Variables start with an uppercase letter, constants do not.  A ground term
is the Python value it denotes: an `int` for an integer constant, a `str`
for a symbolic one.  A variable is a `Var`, so `isinstance(t, Var)` is the
one test that tells them apart, and ground atoms hash and compare as tuples
of plain values.  Rules have at most one head atom; a rule without a head
is a constraint and a rule with a ground head and empty body is a fact.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union


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


#: Operators allowed in comparisons.  Order comparisons require integers on
#: both sides; (in)equality also applies to symbolic constants.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


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


def binding_stages(
    rule: Rule,
    positives: Optional[list[Literal]] = None,
    bound: Iterable[str] = (),
) -> tuple[list[Literal], list[list[BodyElement]], set[str]]:
    """Order body evaluation for safety checking and for join planning.

    Positive literals are matched in the order given, by default left to
    right in written order, with the variables in `bound` bound before the
    first; each comparison or negative literal is slotted in at the earliest
    point where its variables are bound.  An `=` comparison with a lone
    unbound variable on one side binds it once the other side is bound.

    Returns (positives, stages, unsafe) where stages[i] holds the elements
    evaluable once positives[:i] are matched (stages has len(positives)+1
    entries) and unsafe names the variables never bound.
    """
    if positives is None:
        positives = [e for e in rule.body if isinstance(e, Literal) and e.positive]
    rest: list[BodyElement] = [
        e for e in rule.body if not (isinstance(e, Literal) and e.positive)
    ]
    stages: list[list[BodyElement]] = [[] for _ in range(len(positives) + 1)]
    bound = set(bound)

    def place(stage: int) -> None:
        changed = True
        while changed:
            changed = False
            for elem in list(rest):
                if isinstance(elem, Literal):
                    if elem.atom.variables() <= bound:
                        stages[stage].append(elem)
                        rest.remove(elem)
                        changed = True
                else:
                    lhs_vars = {t.name for t in elem.lhs if isinstance(t, Var)}
                    rhs_vars = {t.name for t in elem.rhs if isinstance(t, Var)}
                    if lhs_vars | rhs_vars <= bound:
                        stages[stage].append(elem)
                        rest.remove(elem)
                        changed = True
                    elif elem.op == "=":
                        # One side is a lone unbound variable, the other fully
                        # bound: the comparison acts as an assignment.
                        if (
                            len(elem.lhs) == 1
                            and isinstance(elem.lhs[0], Var)
                            and elem.lhs[0].name not in bound
                            and rhs_vars <= bound
                        ):
                            bound.add(elem.lhs[0].name)
                            stages[stage].append(elem)
                            rest.remove(elem)
                            changed = True
                        elif (
                            len(elem.rhs) == 1
                            and isinstance(elem.rhs[0], Var)
                            and elem.rhs[0].name not in bound
                            and lhs_vars <= bound
                        ):
                            bound.add(elem.rhs[0].name)
                            stages[stage].append(elem)
                            rest.remove(elem)
                            changed = True

    place(0)
    for i, lit in enumerate(positives):
        bound |= lit.atom.variables()
        place(i + 1)
    unsafe = rule.variables() - bound
    for elem in rest:  # elements that never became evaluable
        if isinstance(elem, Literal):
            unsafe |= elem.atom.variables() - bound
        else:
            unsafe |= elem.variables() - bound
    return positives, stages, unsafe
