import pytest

from microasp.grounder import ground_program, naive_ground_program
from microasp.model import Atom, GroundRule, Literal
from microasp.oracle import enumerate_stable_models, is_stable_model, least_model, reduct
from microasp.parser import ParseError, parse_program
from support import PI1_TEXT, fact_texts, random_program_text, rule_texts


def ga(pred, *args):
    return Atom(pred, args)


A1, B1, C1, D1 = ga("a", 1), ga("b", 1), ga("c", 1), ga("d", 1)


@pytest.fixture
def pi1_gp():
    return ground_program(parse_program(PI1_TEXT), include_deferred=True)


class TestReduct:
    def test_worked_example(self, pi1_gp):
        red = reduct(pi1_gp, [B1, C1])
        assert fact_texts(red) == ["b(1)", "c(1)"]
        assert rule_texts(red) == [":- a(1), b(1)"]

    def test_positive_program_unchanged(self):
        gp = ground_program(parse_program("p(1). q(1) :- p(1), r(1).\n"))
        red = reduct(gp, [ga("p", 1)])
        assert set(red.facts) == set(gp.facts)
        assert set(red.rules) == set(gp.rules)

    def test_all_negative_bodies_false(self, pi1_gp):
        red = reduct(pi1_gp, [A1, B1, C1, D1])
        # every rule with a negative body literal over a true atom vanishes
        assert rule_texts(red) == [":- a(1), b(1)"]
        assert red.facts == ()

    def test_monotone_in_flipped_atoms(self):
        """Turning a false atom true can only remove reduct rules."""
        checked = 0
        for seed in range(60):
            try:
                program = parse_program(random_program_text(seed))
            except ParseError:
                continue
            gp = ground_program(program, include_deferred=True)
            atoms = list(gp.atoms)
            if not atoms:
                continue
            base = set(atoms[::2]) - {atoms[0]}
            without = set(reduct(gp, base).rules)
            with_flip = set(reduct(gp, base | {atoms[0]}).rules)
            assert with_flip <= without
            checked += 1
        assert checked >= 20


class TestIsStableModel:
    def test_worked_example_model(self, pi1_gp):
        assert is_stable_model(pi1_gp, [B1, C1])

    def test_unsupported_superset_rejected(self, pi1_gp):
        assert not is_stable_model(pi1_gp, [A1, B1, C1])

    def test_self_loop(self):
        gp = ground_program(parse_program("a(1) :- a(1).\n"), include_deferred=True)
        # grounding drops the tautological rule but keeps nothing derivable
        assert is_stable_model(gp, []) or len(gp.atoms) == 0

    def test_self_loop_naive(self):
        gp = naive_ground_program(parse_program("a(1) :- a(1).\n"))
        assert not is_stable_model(gp, [A1])
        assert is_stable_model(gp, [])


class TestEnumerate:
    def test_pi1(self, pi1_gp):
        models = enumerate_stable_models(pi1_gp)
        assert [sorted(str(a) for a in m) for m in models] == [
            ["b(1)", "c(1)"],
            ["b(1)", "d(1)"],
        ]

    def test_even_loop(self):
        gp = ground_program(
            parse_program("a(1) :- not b(1). b(1) :- not a(1).\n"),
            include_deferred=True,
        )
        models = enumerate_stable_models(gp)
        assert sorted(sorted(str(a) for a in m) for m in models) == [["a(1)"], ["b(1)"]]

    def test_incoherent_constraint(self):
        gp = ground_program(parse_program("p(1). :- p(1).\n"))
        assert enumerate_stable_models(gp) == []

    def test_facts_are_pinned(self):
        text = "\n".join(f"p({i})." for i in range(40)) + "\n"
        gp = ground_program(parse_program(text))
        models = enumerate_stable_models(gp)
        assert len(models) == 1 and len(models[0]) == 40

    def test_guard(self):
        text = "\n".join(
            f"q({i}) :- not r({i}). r({i}) :- not q({i})." for i in range(13)
        )
        gp = ground_program(parse_program(text), include_deferred=True)
        with pytest.raises(ValueError, match="guard"):
            enumerate_stable_models(gp, max_free=24)


def test_least_model_ignores_constraints():
    gp = ground_program(parse_program("p(1). q(1) :- p(1).\n"))
    assert least_model(gp) == {ga("p", 1), ga("q", 1)}
