import random

import pytest

from microasp import benchgen as bg
from microasp.model import Atom, Literal
from microasp.parser import parse_program
from microasp.strategies import solve


def ga(pred, *args):
    return Atom(pred, args)


class TestSatGenerator:
    def test_clause_count_rounding(self):
        inst = bg.make_3sat(220, 4.26, 0)
        assert len(inst.clauses) == 937

    def test_distinct_variables_per_clause(self):
        inst = bg.make_3sat(9, 4.0, 5)
        for clause in inst.clauses:
            assert len({abs(l) for l in clause}) == 3

    def test_deterministic_in_seed(self):
        assert bg.make_3sat(20, 4.0, 9) == bg.make_3sat(20, 4.0, 9)
        assert bg.make_3sat(20, 4.0, 9) != bg.make_3sat(20, 4.0, 10)

    def test_minimum_variables(self):
        with pytest.raises(ValueError):
            bg.make_3sat(2, 4.0, 0)

    def test_program_parses_with_one_deferred_constraint(self):
        program = bg.gen_3sat(6, 2.0, 1)
        assert len(program.deferred) == 1
        constraint = program.deferred_rules()[0]
        assert constraint.is_constraint

    def test_solver_agrees_with_brute_force(self):
        for seed in range(12):
            for ratio in (3.0, 4.3, 5.8):
                inst = bg.make_3sat(8, ratio, seed)
                program = parse_program(bg.sat_program_text(inst))
                want = bg.brute_force_sat(inst)
                got = solve(program, "lazy", seed=seed)
                assert (got.status == "SAT") == want
                if got.status == "SAT":
                    assignment = bg.sat_model_assignment(got.model)
                    assert all(
                        bg.clause_satisfied(c, assignment) for c in inst.clauses
                    )

    def test_random_assignment_satisfaction_probability(self):
        """Frequency of satisfying k random clauses tracks (7/8)^k."""
        rng = random.Random(123)
        k = 4
        inst = bg.make_3sat(12, k / 12, 77)
        assert len(inst.clauses) == k
        hits = 0
        trials = 20000
        for _ in range(trials):
            assignment = {v: rng.random() < 0.5 for v in range(1, 13)}
            if all(bg.clause_satisfied(c, assignment) for c in inst.clauses):
                hits += 1
        assert abs(hits / trials - (7 / 8) ** k) < 0.02


class TestMarriageGenerator:
    def test_uniform_scores_at_k0(self):
        inst = bg.make_marriage(4, 0, 3)
        assert set(inst.man_scores.values()) == {2}
        assert set(inst.woman_scores.values()) == {2}

    def test_every_matching_stable_at_k0(self):
        inst = bg.make_marriage(3, 0, 3)
        assert len(bg.brute_force_stable_matchings(inst)) == 6

    def test_lowered_count_is_floor(self):
        inst = bg.make_marriage(7, 50, 1)
        for man in range(1, 8):
            lowered = sum(
                1 for w in range(1, 8) if inst.man_scores[(man, w)] == 1
            )
            assert lowered == 7 * 50 // 100

    def test_single_couple(self):
        inst = bg.make_marriage(1, 100, 0)
        assert bg.brute_force_stable_matchings(inst) == {frozenset({(1, 1)})}
        result = solve(bg.gen_marriage(1, 100, 0), "lazy")
        assert bg.matching_of_model(result.model) == frozenset({(1, 1)})

    def test_full_perturbation_equals_brute_force_count(self):
        inst = bg.make_marriage(3, 100, 7)
        want = bg.brute_force_stable_matchings(inst)
        found = set()

        def block(model):
            found.add(bg.matching_of_model(model))
            return [[Literal(a) for a in model if a.predicate == "match"]]

        result = solve(bg.gen_marriage(3, 100, 7), "lazy", on_model=block)
        assert result.status == "UNSAT"
        assert found == want
        assert len(found) == 6

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            bg.make_marriage(0, 0, 0)
        with pytest.raises(ValueError):
            bg.make_marriage(3, 101, 0)

    def test_deterministic(self):
        assert bg.marriage_program_text(
            bg.make_marriage(5, 40, 2)
        ) == bg.marriage_program_text(bg.make_marriage(5, 40, 2))


class TestPackingGenerator:
    def test_trivial_fit(self):
        inst = bg.make_packing(2, 2, [1, 1])
        result = solve(parse_program(bg.packing_program_text(inst)), "post")
        assert result.status == "SAT"
        assert bg.verify_packing(inst, result.model) == []

    def test_oversized_square_unsat(self):
        result = solve(bg.gen_packing(1, 1, [2]), "lazy")
        assert result.status == "UNSAT"

    def test_empty_sizes_coherent(self):
        result = solve(bg.gen_packing(3, 2, []), "eager")
        assert result.status == "SAT"
        assert not any(a.predicate == "pos" for a in result.model)

    def test_checker_flags_overlap(self):
        inst = bg.make_packing(2, 2, [2, 1])
        fake = [ga("pos", 1, 0, 0), ga("pos", 2, 1, 1)]
        problems = bg.verify_packing(inst, fake)
        assert any("overlap" in p for p in problems)

    def test_checker_flags_out_of_bounds_and_multiplicity(self):
        inst = bg.make_packing(2, 2, [1, 1])
        fake = [ga("pos", 1, 5, 0), ga("pos", 1, 0, 0), ga("pos", 2, 1, 1)]
        problems = bg.verify_packing(inst, fake)
        assert any("positions" in p for p in problems)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            bg.make_packing(0, 2, [1])
        with pytest.raises(ValueError):
            bg.make_packing(2, 2, [0])

    def test_brute_force_matches_solver(self):
        cases = [
            (2, 2, [2]),
            (2, 2, [2, 1]),
            (3, 2, [2, 1]),
            (2, 1, [1, 1, 1]),
            (3, 3, [2, 2]),
        ]
        for width, height, sizes in cases:
            inst = bg.make_packing(width, height, sizes)
            want = bg.packing_feasible_brute(inst)
            result = solve(parse_program(bg.packing_program_text(inst)), "post")
            assert (result.status == "SAT") == want, (width, height, sizes)
