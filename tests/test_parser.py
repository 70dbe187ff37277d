import pytest
from hypothesis import given, settings, strategies as st

from microasp.model import Atom, Comparison, Literal, Rule, Var
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
