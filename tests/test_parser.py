import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from microasp import benchgen, parser
from microasp.model import Atom, Comparison, Literal, Program, Rule, Var
from microasp.parser import ParseError, SafetyError, parse_program, program_to_text
from support import PI1_DEFERRED_TEXT, PI1_TEXT, random_program_text


def test_single_rule():
    program = parse_program("a(1) :- not b(1).\n")
    assert len(program.rules) == 1
    rule = program.rules[0]
    assert rule.head == Atom("a", (1,))
    assert rule.body == (Literal(Atom("b", (1,)), False),)


def test_empty_input():
    assert parse_program("").rules == ()


def test_comments_are_skipped():
    program = parse_program("% intro\na(1). % trailing\n")
    assert len(program.rules) == 1


def test_unsafe_negative_variable():
    with pytest.raises(SafetyError, match="unsafe variable X"):
        parse_program(":- not p(X).\n")


def test_safety_error_names_the_rule_and_its_location_once():
    with pytest.raises(SafetyError) as err:
        parse_program(":- not p(X).\n")
    assert str(err.value) == "unsafe variable X in rule ':- not p(X).' at 1:1"
    assert (err.value.line, err.value.column) == (1, 1)


def test_unsafe_head_variable():
    with pytest.raises(SafetyError, match="unsafe variable Y"):
        parse_program("a(Y) :- b(X).\n")


def test_positive_occurrence_makes_safe():
    parse_program(":- p(X).\n")


def test_binding_equality_makes_safe():
    program = parse_program(":- p(X), W = X+1, q(W).\n")
    assert len(program.rules) == 1


def test_unbindable_comparison_variable_is_unsafe():
    with pytest.raises(SafetyError):
        parse_program(":- p(X), W < X.\n")


def test_equality_of_two_unbound_variables_is_unsafe():
    with pytest.raises(SafetyError, match="unsafe variable Y"):
        parse_program(":- p(X), Y = Z.\n")
    parse_program(":- p(X), X = Y.\n")


def test_disjunctive_head_rejected():
    with pytest.raises(ParseError, match="disjunctive"):
        parse_program("a(1) | b(1) :- c(1).\n")
    with pytest.raises(ParseError, match="disjunctive"):
        parse_program("a(1); b(1).\n")


def test_arity_mismatch():
    with pytest.raises(ParseError, match="arity"):
        parse_program("p(1). p(1,2).\n")


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("a(1).\nb(1) :- ,\n")
    assert err.value.line == 2


def test_deferred_annotation():
    program = parse_program(PI1_DEFERRED_TEXT)
    assert sorted(program.deferred) == [2, 5]
    assert all(program.rules[i].is_constraint for i in program.deferred)


def test_deferred_on_non_constraint_rejected():
    with pytest.raises(ParseError, match="deferred"):
        parse_program("%@deferred\na(1) :- not b(1).\n")


def test_comparison_parse():
    program = parse_program(":- p(X), q(Y), X+1 <= Y.\n")
    cmp = program.rules[0].body[2]
    assert isinstance(cmp, Comparison)
    assert cmp.op == "<="
    assert cmp.lhs == (Var("X"), 1)


def test_term_values():
    program = parse_program(":- p(1,a,X).\n")
    assert program.rules[0].body[0].atom.args == (1, "a", Var("X"))


def test_nullary_atoms():
    program = parse_program("p :- q, not r.\n")
    assert program.rules[0].head == Atom("p")
    assert program.rules[0].body == (Literal(Atom("q")), Literal(Atom("r"), False))


def test_fact_forms():
    program = parse_program("p(1).\nq(a).\n")
    assert all(rule.is_fact for rule in program.rules)


def test_round_trip_pi1():
    program = parse_program(PI1_DEFERRED_TEXT)
    assert parse_program(program_to_text(program)) == program


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_random(seed):
    try:
        program = parse_program(random_program_text(seed))
    except ParseError:
        return
    again = parse_program(program_to_text(program))
    assert again == program


@pytest.mark.parametrize(
    "text,message",
    [
        ("p(1).\np(1,2).", "predicate p/2 previously used with arity 1 at 2:1"),
        ("p(a,not).", "'not' is reserved at 1:5"),
        ("%@deferred\np(1).", "%@deferred must precede a constraint at 1:1"),
        ("p(1)", "expected '.', found 'end of input' at 1:5"),
        ("p(1).\n%@deferred\n", "expected a predicate name, found 'end of input' at 3:1"),
        ("p(", "expected a term, found 'end of input' at 1:3"),
    ],
)
def test_fact_statement_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert str(err.value) == message


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", int)(), reason="no limit on int digits"
)
@pytest.mark.parametrize(
    "text,facts,where",
    [
        ("q(1).\nab(x,{big},2).\n", 2, "2:6"),
        ("q(X) :- p(X), X = {big}.\np(1).\n", 1, "1:19"),
        ("q(1).\nq(2).ab(x,{big},2).\nq(3).\nab(1,2,3).\n", 5, "2:11"),
        ("q(1).\nab(x,{big},2).\nq(1,2).\n", 3, "2:6"),
    ],
    ids=["fact", "term", "fact-in-a-run", "before-an-arity-error"],
)
def test_an_overlong_integer_is_a_parse_error_at_its_token(text, facts, where):
    big = "9" * (sys.get_int_max_str_digits() + 1)
    text = text.format(big=big)
    assert _fact_tokens(text) == facts
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert str(err.value) == f"integer of {len(big)} digits is too long at {where}"
    assert _parsed(text) == _general_parsed(text)


def test_fact_statement_locations_and_values():
    program = parse_program("p(1).q(1,2).")
    assert [(r.line, r.column) for r in program.rules] == [(1, 1), (1, 6)]
    assert _runs("p(1).q(1,2).") == [2]
    program = parse_program("p(1). not(2).")
    assert program.rules[1].head == Atom("not", (2,))
    assert (program.rules[1].line, program.rules[1].column) == (1, 7)
    assert parse_program("q(007).").rules[0].head == Atom("q", (7,))
    # A run ends at a comment line, a blank line and a `%@deferred` line.
    text = "p(1).\nq(a).\n% c\nr(1).\n\np(2).p(3).\n%@deferred\n:- p(1).\ns(b).\n"
    program = parse_program(text)
    assert [(r.line, r.column) for r in program.rules] == [
        (1, 1), (2, 1), (4, 1), (6, 1), (6, 6), (8, 1), (9, 1)
    ]
    assert program.deferred == {5}
    assert _runs(text) == [2, 1, 2, 1]
    # An error inside a run is at its own fact; one at the tokenizer wins.
    for text, message in [
        ("%@deferred\np(1).q(1).\n", "%@deferred must precede a constraint at 1:1"),
        ("p(1).\n%@deferred\np(1,2).\n", "predicate p/2 previously used with arity 1 at 3:1"),
        ("p(1).\np(2).p(1,2).\np(3).\n", "predicate p/2 previously used with arity 1 at 2:6"),
        ("p(1).\np(1,2).\np(3).$\n", "unexpected character '$' at 3:6"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert str(err.value) == message
        assert _parsed(text) == _general_parsed(text)


@pytest.mark.parametrize(
    "text,runs,message",
    [
        (
            "p(1).\nq(1).\n\np(2).\nq(1,2).\n",
            [2, 2],
            "predicate q/2 previously used with arity 1 at 5:1",
        ),
        (
            "p(1).\n% a comment\np(2).p(3).p(4,5).\n",
            [1, 3],
            "predicate p/2 previously used with arity 1 at 3:11",
        ),
        (
            "q(X) :- p(X,Y).\np(1,2).\nr(1).\np(3).\n",
            [3],
            "predicate p/1 previously used with arity 2 at 4:1",
        ),
        (
            "p(1).\n%@deferred\np(2).\nq(1).\n",
            [1, 2],
            "%@deferred must precede a constraint at 2:1",
        ),
    ],
    ids=["runs-split-by-a-blank", "runs-split-by-a-comment", "an-earlier-rule", "a-mark"],
)
def test_a_run_of_facts_raises_at_its_first_fact_at_fault(text, runs, message):
    """A run's arities are checked against those used before it, so an
    error is the first in text order, at its own fact, as the general
    parser raises it; a mark before a run is misplaced even where its
    arities agree."""
    assert _runs(text) == runs
    with pytest.raises(ParseError) as err:
        parse_program(text)
    assert str(err.value) == message
    assert _parsed(text) == _general_parsed(text)


# The parser with the whole-fact token switched off: every statement goes
# through the general tokenizer and parser.
_NO_FACT = re.compile(r"(?!)")


def _parsed(text: str):
    """The program and its rule locations, or the error the text raises."""
    try:
        program = parse_program(text)
    except ParseError as exc:
        return type(exc), str(exc)
    return program, [(rule.line, rule.column) for rule in program.rules]


def _general_parsed(text: str):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parser, "_FACT_RE", _NO_FACT)
        return _parsed(text)


def _runs(text: str) -> list[int]:
    """The number of facts in each run the tokenizer takes whole."""
    return [len(tok.rules) for tok in parser._tokenize(text) if tok.kind == "facts"]


def _fact_tokens(text: str) -> int:
    """The facts the tokenizer takes whole: those of its runs, and those
    that end a run by an integer too long."""
    return sum(
        len(tok.rules) if tok.kind == "facts" else tok.kind == "fact"
        for tok in parser._tokenize(text)
    )


@pytest.mark.parametrize(
    "text",
    [
        benchgen.sat_program_text(benchgen.make_3sat(20, 4.26, 3)),
        benchgen.marriage_program_text(benchgen.make_marriage(5, 5, 3)),
        benchgen.packing_program_text(benchgen.make_packing(4, 4, (2, 2, 1))),
    ],
    ids=["3sat", "marriage", "packing"],
)
def test_fact_token_matches_general_parser_on_families(text):
    assert _fact_tokens(text) > 0
    fast = _parsed(text)
    assert isinstance(fast[0], Program)
    assert fast == _general_parsed(text)


def test_fact_token_matches_general_parser_on_random_programs():
    seen = 0
    for seed in range(200):
        text = random_program_text(seed)
        seen += _fact_tokens(text)
        assert _parsed(text) == _general_parsed(text), seed
    assert seen > 0


_NAMES = {"p": 1, "q": 2, "not": 1, "r_2": 3}
_CONSTS = ["1", "007", "42", "a", "nota", "zB_9"] * 8 + ["not"]
_BLANKS = ["", "", "", " ", "\n", " \t", "% note\n"]


@st.composite
def _fact_heavy_text(draw):
    """Statements, mostly facts, with blanks placed inside and around them:
    trailing comments, `%@deferred` marks, nullary facts, rules,
    constraints, and several statements on one line."""
    blank = st.sampled_from(_BLANKS)
    out = []
    for _ in range(draw(st.integers(1, 8))):
        form = draw(st.sampled_from(["fact"] * 4 + ["nullary", "rule", "constraint"]))
        if draw(st.integers(0, 2 if form == "constraint" else 30)) == 0:
            out.append("%@deferred\n")
        if form == "nullary":
            stmt = draw(st.sampled_from(["s", "t"])) + draw(blank) + "."
        elif form == "rule":
            stmt = "p(X) :- q(X," + draw(st.sampled_from(_CONSTS)) + ")."
        elif form == "constraint":
            stmt = ":- p(1)" + draw(st.sampled_from(["", ", not s", ", q(X,Y)"])) + "."
        else:
            name = draw(st.sampled_from(sorted(_NAMES)))
            args = [draw(st.sampled_from(_CONSTS)) for _ in range(_NAMES[name])]
            if draw(st.integers(0, 30)) == 0:
                args.append("1")
            tight = draw(st.booleans())
            seps = ["" if tight else draw(blank) for _ in range(len(args) + 3)]
            inner = "".join(a + sep + "," for a, sep in zip(args, seps))[:-1]
            stmt = name + seps[-3] + "(" + seps[-2] + inner + ")" + seps[-1] + "."
        out.append(stmt + draw(st.sampled_from(["", " ", "\n", " % c\n", "  "])))
    return "".join(out)


_BIG = "9" * (getattr(sys, "get_int_max_str_digits", int)() + 1)


@settings(max_examples=300, deadline=None)
@given(_fact_heavy_text())
@example("p(1).\nq(a,b).\n% c\np(2).\n\np(3).p(4).\n%@deferred\n:- p(1).\np(5).\n")
@example("p(1).\n%@deferred\np(2).q(1,2).\n")
@example("p(1).p(2).\np(1,2).p(3).\n")
@example("p(1).p(2).\np(1,2).p(3).\n:- p(X), $.\n")
@example(f"p(1).\np({_BIG}).p(1,2).\np(2).\n")
@example(f"p(1).p(1,2).\np({_BIG}).\n")
def test_fact_token_matches_general_parser_on_blanks(text):
    assert _parsed(text) == _general_parsed(text)
