"""Parser for the ASCII input language.

Grammar: `head :- body.` where `:-` and the body are optional for facts,
`not ` marks default negation, `,` separates body elements, and `%` starts
a line comment.  A `%@deferred` comment line immediately before a constraint
marks it for deferred treatment.

Most statements of a generated instance are ground facts, so the tokenizer
takes a run of plain facts whole.  At the start of a statement (the start of
the input, or after a `.` token with only whitespace, comments and
`%@deferred` marks in between) it first tries `_FACT_RE`: `name(c1,...,cn).`
with no blanks inside, each `ci` an integer or a symbol other than `not`,
and an optional newline.  It builds the `Rule` of each match in one loop
for as long as the next match starts where the last one ended, and the run
becomes one `facts` token holding those rules; a blank line, a comment or a
mark ends a run.  The parser checks each rule's arity in text order, at the
rule's line and column.  A fact whose integer is too long for `int` ends its
run as a `fact` token of its own, which the parser reports at that integer,
as the general parser would.  Anything else, including a fact with blanks
inside or with no arguments, goes through the general tokenizer and
parser, so errors and their locations do not depend on the fast path: the
tokenizer finishes before the parser raises any error.

The safety check is the program's plans: `parse` plans every rule that is
not a fact (`Program.plans`), and the planner's `GroundingError` for the
first unsafe rule becomes a `SafetyError` at that rule.  The plans are kept
with the program, so its solves plan no rule again, and a rule planned for
an earlier program of the encoding is not planned again at all (see
`grounder.BodyPlan`).
"""
from __future__ import annotations

import re
from typing import NoReturn, Sequence

from .grounder import GroundingError
from .model import Atom, Comparison, Literal, Program, Rule, Term, Var

_new_rule, _new_atom, _set = object.__new__, tuple.__new__, object.__setattr__


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

# A whole ground fact: its predicate, its arguments, and the newline right
# after it, if there is one.
_FACT_RE = re.compile(
    r"""( [a-z][A-Za-z0-9_]* )
        \( ( (?:\d+|(?!not[,)])[a-z][A-Za-z0-9_]*)
             (?:,(?:\d+|(?!not[,)])[a-z][A-Za-z0-9_]*))* ) \)\.
      (\n?)
    """,
    re.VERBOSE,
)

_DEFERRED_MARK = "%@deferred"


class _Token:
    """A token; a `facts` token is a run of facts, and holds their rules."""

    __slots__ = ("kind", "text", "line", "column", "rules")

    def __init__(
        self, kind: str, text: str, line: int, column: int, rules: Sequence[Rule] = ()
    ):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column
        self.rules = rules


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 0
    at_statement = True
    while pos < len(text):
        if at_statement:
            fact = _FACT_RE.match
            m = fact(text, pos)
            if m is not None:
                run: list[Rule] = []
                while m is not None:
                    name, args, newline = m.groups()
                    try:
                        terms = tuple(
                            [int(t) if t[0].isdigit() else t for t in args.split(",")]
                        )
                    except ValueError:
                        break
                    rule = _new_rule(Rule)
                    _set(rule, "head", _new_atom(Atom, (name, terms)))
                    _set(rule, "body", ())
                    _set(rule, "line", line)
                    _set(rule, "column", pos - line_start + 1)
                    run.append(rule)
                    pos = m.end()
                    if newline:
                        line += 1
                        line_start = pos
                    m = fact(text, pos)
                if run:
                    tokens.append(_Token("facts", "", run[0].line, run[0].column, run))
                if m is not None:  # an integer too long: `_overlong` reports it
                    end, column = m.end(2) + 2, pos - line_start + 1
                    tokens.append(_Token("fact", text[pos:end], line, column))
                    pos = end
                continue
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
            at_statement = tok == "."
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


def _integer(digits: str, line: int, column: int) -> int:
    """The value of an integer token; one longer than `int` converts
    (`sys.get_int_max_str_digits()` digits) is a parse error."""
    try:
        return int(digits)
    except ValueError:
        message = f"integer of {len(digits)} digits is too long"
        raise ParseError(message, line, column) from None


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
            raise _unexpected(tok, repr(text))
        return tok

    def parse(self) -> Program:
        rules: list[Rule] = []
        deferred: set[int] = set()
        while self._peek().kind != "eof":
            mark = None
            if self._peek().kind == "deferred":
                mark = self._next()
            tok = self._peek()
            if tok.kind == "facts":
                self._next()
                for rule in tok.rules:
                    head = rule.head
                    self._check_arity(head.predicate, len(head.args), rule)
                    if mark is not None:
                        raise _misplaced(mark)
                rules += tok.rules
                continue
            if tok.kind == "fact":
                _overlong(tok)
            rule = self._statement()
            if mark is not None:
                if not rule.is_constraint:
                    raise _misplaced(mark)
                deferred.add(len(rules))
            rules.append(rule)
        program = Program(tuple(rules), frozenset(deferred))
        try:
            program.plans  # planned once, here: the safety check
        except GroundingError as exc:
            raise SafetyError(exc.message, exc.rule.line, exc.rule.column) from None
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
            raise _unexpected(tok, "a predicate name")
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

    def _check_arity(self, predicate: str, arity: int, tok: _Token | Rule) -> None:
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
            return _integer(tok.text, tok.line, tok.column)
        if tok.kind == "var":
            return Var(tok.text)
        if tok.kind == "ident":
            if tok.text == "not":
                raise ParseError("'not' is reserved", tok.line, tok.column)
            return tok.text
        raise _unexpected(tok, "a term")


def _overlong(tok: _Token) -> NoReturn:
    """Raise the error at a fact token, a fact that ended its run by an
    integer too long for `int`: the error of that integer, where it starts."""
    name, args = tok.text[:-2].split("(")
    column = tok.column + len(name) + 1
    for t in args.split(","):
        if t[0].isdigit():
            _integer(t, tok.line, column)
        column += len(t) + 1


def _misplaced(mark: _Token) -> ParseError:
    """The error at a `%@deferred` mark before a statement that is not a
    constraint."""
    return ParseError(f"{_DEFERRED_MARK} must precede a constraint", mark.line, mark.column)


def _unexpected(tok: _Token, expected: str) -> ParseError:
    """The error at a token other than the one expected; the end of input
    has no text, so the message names it."""
    found = tok.text or "end of input"
    return ParseError(f"expected {expected}, found {found!r}", tok.line, tok.column)


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
