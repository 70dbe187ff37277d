"""Differential fuzz of the compiled join over the whole body language.

`random_join_program_text` programs join binary predicates on shared and
repeated variables, put constants in argument positions, compare with `!=`,
`<` and `=`, bind with `W = X+Y` and negate literals over bound variables.
Every plan the grounder and the strategies compile, written or seeded, must
yield what a brute-force instantiation of its rule yields under random
partial assignments, in the same order; each match's instance must be the
brute-force one as solver literals; and every strategy must find exactly
the stable models the oracle finds.
"""
import itertools
import operator
import random

import pytest

from microasp.grounder import (
    BodyPlan,
    herbrand_universe,
    ground_program,
    iter_matches,
    naive_ground_program,
)
from microasp.model import Atom, Comparison, GroundRule, Literal, Var
from microasp.oracle import MAX_FREE_ATOMS, enumerate_stable_models
from microasp.parser import parse_program
from microasp.strategies import solve
from support import random_join_program_text

OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: The oracle enumerates 2^free candidates; programs above this are skipped.
FREE_ATOMS = 10
assert FREE_ATOMS <= MAX_FREE_ATOMS


def value(term, subst):
    return subst[term.name] if isinstance(term, Var) else term


def ground(atom, subst):
    return Atom(atom.predicate, tuple(value(t, subst) for t in atom.args))


def render(rule, subst):
    """The rule under a substitution, every body literal in written order."""
    return GroundRule(
        ground(rule.head, subst) if rule.head is not None else None,
        tuple(
            Literal(ground(e.atom, subst), e.positive)
            for e in rule.body
            if isinstance(e, Literal)
        ),
    )


def brute_instance(rule, subst, index):
    """The rule's instance under a substitution as (head variable or 0, body
    literals in written order): a negative literal on an atom outside the
    index holds and is dropped, a repeated literal is dropped, and a literal
    with its complement in the body gives None."""
    body = []
    for elem in rule.body:
        if not isinstance(elem, Literal):
            continue
        idx = index.id_of(ground(elem.atom, subst))
        if idx is None:
            continue
        lit = idx + 1 if elem.positive else -(idx + 1)
        if -lit in body:
            return None
        if lit not in body:
            body.append(lit)
    head = index.id_of(ground(rule.head, subst)) + 1 if rule.head is not None else 0
    return head, tuple(body)


def candidate_substitutions(rule, index, constants):
    """Every substitution over the rule's variables under which its
    comparisons hold and its positive literals are atoms of the index, each
    with its ground body literals: the naive instantiation, before truth.
    Values range over the constants and their pairwise sums."""
    domain = sorted(set(constants) | {a + b for a in constants for b in constants})
    names = sorted(rule.variables())
    out = []
    for values in itertools.product(domain, repeat=len(names)):
        subst = dict(zip(names, values))
        if not all(
            OPS[e.op](
                sum(value(t, subst) for t in e.lhs), sum(value(t, subst) for t in e.rhs)
            )
            for e in rule.body
            if isinstance(e, Comparison)
        ):
            continue
        lits = [(e, ground(e.atom, subst)) for e in rule.body if isinstance(e, Literal)]
        if all(atom in index for e, atom in lits if e.positive):
            out.append((subst, lits))
    return out


def brute_matches(plan, candidates, index, values, budget, seed_atom=None):
    """The candidates a join under `values` and `budget` must yield, as
    (substitution, sorted signed variables), in lexicographic order of the
    variables of the plan's positive literals in plan order."""
    seed = plan.rule.body[plan.seed] if plan.seed is not None else None
    out = []
    for subst, lits in candidates:
        if seed is not None and ground(seed.atom, subst) != seed_atom:
            continue
        signed, undefined, holds = [], 0, True
        for elem, atom in lits:
            idx = index.id_of(atom)
            if idx is None:  # only a negative literal gets here: it holds
                continue
            truth = values[idx + 1] * (1 if elem.positive else -1)
            if truth == -1:
                holds = False
                break
            undefined += truth == 0
            signed.append(idx + 1 if elem.positive else -(idx + 1))
        if not holds or undefined > budget:
            continue
        key = tuple(index.id_of(ground(lit.atom, subst)) for lit in plan.positives)
        out.append((key, subst, sorted(set(signed))))
    out.sort(key=lambda m: m[0])
    return [(subst, signed) for _, subst, signed in out]


def joined(plan, index, values, budget, start=None):
    return [
        (plan.render(slots), sorted(set(lits)))
        for slots, lits in iter_matches(plan, index, values, budget, start)
    ]


def rendered(rule, matches):
    return [(render(rule, subst), signed) for subst, signed in matches]


def fuzz_programs(seeds):
    """(seed, program, naive ground program) of each program within the
    oracle's reach."""
    for seed in seeds:
        program = parse_program(random_join_program_text(seed))
        naive = naive_ground_program(program)
        free = {head for head, _ in naive.rules if head} - set(naive.facts)
        if len(free) <= FREE_ATOMS:
            yield seed, program, naive


@pytest.mark.parametrize("chunk", range(4))
def test_plans_match_brute_force_instantiation(chunk):
    rng = random.Random(chunk)
    checked = programs = 0
    for seed, program, _ in fuzz_programs(range(chunk, 320, 4)):
        index = ground_program(program).atoms
        constants = sorted(herbrand_universe(program))
        for rule in program.rules:
            if rule.is_fact:
                continue
            candidates = candidate_substitutions(rule, index, constants)
            plans = [BodyPlan(rule)] + [
                BodyPlan(rule, ei)
                for ei, e in enumerate(rule.body)
                if isinstance(e, Literal)
            ]
            for _ in range(3):
                values = [0] + [rng.choice((-1, 0, 1)) for _ in index]
                for budget, plan in itertools.product((0, 1), plans):
                    if plan.seed is None:
                        want = brute_matches(plan, candidates, index, values, budget)
                        assert joined(plan, index, values, budget) == rendered(
                            rule, want
                        ), seed
                        checked += len(want)
                        continue
                    seed_lit = rule.body[plan.seed]
                    for var, atom in enumerate(index, start=1):
                        if atom.predicate != seed_lit.atom.predicate:
                            continue
                        vals = list(values)
                        vals[var] = 1 if seed_lit.positive else -1
                        want = brute_matches(
                            plan, candidates, index, vals, budget, atom
                        )
                        start = plan.start(atom.args)
                        if start is None:
                            assert want == [], seed
                            continue
                        assert joined(plan, index, vals, budget, start) == rendered(
                            rule, want
                        ), seed
                        checked += len(want)
        programs += 1
    assert programs >= 60
    assert checked >= 500


@pytest.mark.parametrize("chunk", range(4))
def test_instances_match_brute_force(chunk):
    """Each match of each rule over the grounder's final index gives the
    brute-force instance of its substitution."""
    checked = pairs = dropped = 0
    for seed, program, _ in fuzz_programs(range(chunk, 320, 4)):
        index = ground_program(program).atoms
        constants = sorted(herbrand_universe(program))
        for rule in program.rules:
            if rule.is_fact:
                continue
            plan = BodyPlan(rule)
            candidates = candidate_substitutions(rule, index, constants)
            budget = len(rule.body)
            matches = brute_matches(plan, candidates, index, index.undefined, budget)
            want = [brute_instance(rule, subst, index) for subst, _ in matches]
            got = [
                plan.instance(slots)
                for slots, _ in iter_matches(plan, index, index.undefined, budget)
            ]
            assert got == want, seed
            checked += len(want)
            pairs += want.count(None)
            dropped += sum(
                len(inst[1]) < len(render(rule, subst).body)
                for inst, (subst, _) in zip(want, matches)
                if inst is not None
            )
    assert checked >= 150
    assert pairs >= 1
    assert dropped >= 10


def model_set(program, kind, atoms):
    """Every model the strategy enumerates, each blocked in turn."""
    found = set()

    def block(model):
        found.add(frozenset(model))
        return [
            [Literal(a) for a in model]
            + [Literal(a, False) for a in atoms if a not in model]
        ]

    assert solve(program, kind, seed=1, on_model=block).status == "UNSAT"
    return found


@pytest.mark.parametrize("chunk", range(4))
def test_strategies_find_the_oracle_models(chunk):
    programs = with_models = 0
    for seed, program, naive in fuzz_programs(range(chunk, 320, 4)):
        want = set(enumerate_stable_models(naive))
        atoms = list(ground_program(program).atoms)
        for kind in ("full", "lazy", "eager", "post"):
            result = solve(program, kind, seed=1)
            assert result.status == ("SAT" if want else "UNSAT"), (seed, kind)
            assert result.model is None or result.model in want, (seed, kind)
            assert model_set(program, kind, atoms) == want, (seed, kind)
        programs += 1
        with_models += len(want) > 1
    assert programs >= 60
    assert with_models >= 10
