"""Parser for the ASCII input language.

Grammar: `head :- body.` where `:-` and the body are optional for facts,
`not ` marks default negation, `,` separates body elements, and `%` starts
a line comment.  A `%@deferred` comment line immediately before a constraint
marks it for deferred treatment.
"""
from __future__ import annotations

import re

from .grounder import BodyPlan, GroundingError
from .model import Atom, Comparison, Literal, Program, Rule, Term, Var


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.message = message
        self.line = line
        self.column = column
        where = f" at {line}:{column}" if line else ""
        super().__init__(f"{message}{where}")


class SafetyError(ParseError):
    """A variable is not bound by any positive body literal or binding `=`."""


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<int>\d+)
      | (?P<ident>[a-z][A-Za-z0-9_]*)
      | (?P<var>[A-Z][A-Za-z0-9_]*)
      | (?P<punct>:-|!=|<=|>=|[().,+=<>|;])
    """,
    re.VERBOSE,
)

_DEFERRED_MARK = "%@deferred"


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        tok = m.group()
        col = pos - line_start + 1
        if kind == "ws":
            line += tok.count("\n")
            if "\n" in tok:
                line_start = pos + tok.rindex("\n") + 1
        elif kind == "comment":
            if tok.strip() == _DEFERRED_MARK:
                tokens.append(_Token("deferred", tok, line, col))
        else:
            tokens.append(_Token(kind, tok, line, col))
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._at = 0
        self._arity: dict[str, int] = {}

    def _peek(self) -> _Token:
        return self._tokens[self._at]

    def _next(self) -> _Token:
        tok = self._tokens[self._at]
        self._at += 1
        return tok

    def _expect(self, text: str) -> _Token:
        tok = self._next()
        if tok.text != text:
            raise ParseError(
                f"expected {text!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return tok

    def _fail(self, message: str) -> ParseError:
        tok = self._peek()
        return ParseError(message, tok.line, tok.column)

    def parse(self) -> Program:
        rules: list[Rule] = []
        deferred: set[int] = set()
        while self._peek().kind != "eof":
            mark = None
            if self._peek().kind == "deferred":
                mark = self._next()
            rule = self._statement()
            if mark is not None:
                if not rule.is_constraint:
                    raise ParseError(
                        f"{_DEFERRED_MARK} must precede a constraint",
                        mark.line,
                        mark.column,
                    )
                deferred.add(len(rules))
            rules.append(rule)
        program = Program(tuple(rules), frozenset(deferred))
        for rule in program.rules:
            self._check_safety(rule)
        return program

    def _statement(self) -> Rule:
        start = self._peek()
        head = None
        body: tuple = ()
        if self._peek().text == ":-":
            self._next()
            body = self._body()
        else:
            head = self._atom()
            nxt = self._peek()
            if nxt.text in ("|", ";", ","):
                raise ParseError(
                    "disjunctive heads are not supported", nxt.line, nxt.column
                )
            if nxt.text == ":-":
                self._next()
                body = self._body()
        self._expect(".")
        return Rule(head, body, line=start.line, column=start.column)

    def _body(self) -> tuple:
        elems = [self._body_element()]
        while self._peek().text == ",":
            self._next()
            elems.append(self._body_element())
        return tuple(elems)

    def _body_element(self):
        tok = self._peek()
        if tok.kind == "ident" and tok.text == "not":
            self._next()
            return Literal(self._atom(), positive=False)
        if tok.kind == "ident" and self._tokens[self._at + 1].text == "(":
            return Literal(self._atom())
        # A term sum: either the left side of a comparison or a 0-ary atom.
        lhs = self._term_sum()
        op_tok = self._peek()
        if op_tok.text in ("=", "!=", "<", "<=", ">", ">="):
            self._next()
            rhs = self._term_sum()
            return Comparison(op_tok.text, lhs, rhs)
        if len(lhs) == 1 and isinstance(lhs[0], str):
            return Literal(self._nullary(lhs[0]))
        raise ParseError(
            "expected a comparison operator", op_tok.line, op_tok.column
        )

    def _nullary(self, name: str) -> Atom:
        self._check_arity(name, 0, self._tokens[self._at - 1])
        return Atom(name)

    def _atom(self) -> Atom:
        tok = self._next()
        if tok.kind != "ident":
            raise ParseError(
                f"expected a predicate name, found {tok.text!r}", tok.line, tok.column
            )
        args: tuple[Term, ...] = ()
        if self._peek().text == "(":
            self._next()
            parts = [self._term()]
            while self._peek().text == ",":
                self._next()
                parts.append(self._term())
            self._expect(")")
            args = tuple(parts)
        self._check_arity(tok.text, len(args), tok)
        return Atom(tok.text, args)

    def _check_arity(self, predicate: str, arity: int, tok: _Token) -> None:
        known = self._arity.setdefault(predicate, arity)
        if known != arity:
            raise ParseError(
                f"predicate {predicate}/{arity} previously used with arity {known}",
                tok.line,
                tok.column,
            )

    def _term_sum(self) -> tuple[Term, ...]:
        terms = [self._term()]
        while self._peek().text == "+":
            self._next()
            terms.append(self._term())
        return tuple(terms)

    def _term(self) -> Term:
        tok = self._next()
        if tok.kind == "int":
            return int(tok.text)
        if tok.kind == "var":
            return Var(tok.text)
        if tok.kind == "ident":
            if tok.text == "not":
                raise ParseError("'not' is reserved", tok.line, tok.column)
            return tok.text
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.column)

    def _check_safety(self, rule: Rule) -> None:
        """Plan the body of a rule with variables, which fails when one of
        them is unsafe."""
        if not rule.variables():
            return
        try:
            BodyPlan(rule)
        except GroundingError as exc:
            raise SafetyError(exc.message, rule.line, rule.column) from None


def parse_program(text: str) -> Program:
    """Parse program text; raises ParseError or SafetyError on bad input."""
    return _Parser(_tokenize(text)).parse()


def program_to_text(program: Program) -> str:
    """Render a program in the input syntax, annotations included."""
    lines = []
    for i, rule in enumerate(program.rules):
        if i in program.deferred:
            lines.append(_DEFERRED_MARK)
        lines.append(f"{rule}.")
    return "\n".join(lines) + ("\n" if lines else "")
