"""Differential fuzz of the compiled join over the whole body language.

`random_join_program_text` programs join binary predicates on shared and
repeated variables, put constants in argument positions, compare with `!=`,
`<` and `=`, bind with `W = X+Y` and negate literals over bound variables.
Every plan the grounder and the strategies compile, written or seeded, must
yield what a brute-force instantiation of its rule yields under random
partial assignments, in the same order; the instances the grounder builds
must be the brute-force ones as solver literals; and every strategy must find exactly
the stable models the oracle finds.
"""
import itertools
import operator
import random

import pytest

from microasp.grounder import (
    BodyPlan,
    _instances,
    _symmetric_pairs,
    herbrand_universe,
    ground_program,
    ground_rule,
    naive_ground_program,
)
from microasp.model import Atom, Comparison, Literal, Rule, Var
from microasp.oracle import MAX_FREE_ATOMS, enumerate_stable_models, is_stable_model
from microasp.parser import parse_program
from microasp.strategies import solve
from support import (
    JOIN_CONSTS,
    JOIN_PREDS,
    instance_of,
    join_in_full,
    random_join_program_text,
)
from test_grounder import assert_grounds_as_reference

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
    return Rule(
        ground(rule.head, subst) if rule.head is not None else None,
        tuple(
            Literal(ground(e.atom, subst), e.positive)
            for e in rule.body
            if isinstance(e, Literal)
        ),
    )


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


def stored(plan, found):
    """The matches a plan's truth form stored, as (key, ground rule, sorted
    signed variables) in the order stored."""
    return [
        (key, plan.render(slots), sorted(set(lits)))
        for key, (slots, lits) in found.items()
    ]


def joined(plan, index, values, budget):
    """What the unseeded plan's full join stores."""
    return stored(plan, join_in_full([plan], index, values, budget))


def triggered(plan, index, values, budget, lit, args):
    """What the plan's trigger stores when called on a trail literal and
    the arguments of its atom."""
    join, slots, gets, rule, ci = plan.trigger(index, 0)
    found = {}
    join(slots, gets, rule, values, budget, lit, args, found, ci)
    return stored(plan, found)


def keyed(plan, index, matches):
    """Each match as its truth form stores it: its key, (0, the variables
    of the positive literals in written order), its ground rule and its
    signed variables."""
    positives = [e.atom for e in plan.rule.body if isinstance(e, Literal) and e.positive]
    return [
        (
            (0, tuple(index.id_of(ground(atom, subst)) + 1 for atom in positives)),
            render(plan.rule, subst),
            signed,
        )
        for subst, signed in matches
    ]


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
                        assert joined(plan, index, values, budget) == keyed(
                            plan, index, want
                        ), seed
                        checked += len(want)
                        continue
                    seed_lit = rule.body[plan.seed]
                    for var, atom in enumerate(index, start=1):
                        if atom.predicate != seed_lit.atom.predicate:
                            continue
                        vals = list(values)
                        vals[var] = 1 if seed_lit.positive else -1
                        lit = var if seed_lit.positive else -var
                        want = brute_matches(
                            plan, candidates, index, vals, budget, atom
                        )
                        assert triggered(
                            plan, index, vals, budget, lit, atom.args
                        ) == keyed(plan, index, want), seed
                        checked += len(want)
        programs += 1
    assert programs >= 60
    assert checked >= 500


@pytest.mark.parametrize("chunk", range(4))
def test_instances_match_brute_force(chunk):
    """The instance form of each rule over the grounder's final index yields
    the brute-force instance of each substitution in match order, skipping
    those that give None, and `ground_rule` yields each of them once."""
    checked = pairs = dropped = 0
    for seed, program, _ in fuzz_programs(range(chunk, 320, 4)):
        index = ground_program(program).atoms
        constants = sorted(herbrand_universe(program))
        for rule in program.rules:
            if rule.is_fact:
                continue
            plan = BodyPlan(rule)
            candidates = candidate_substitutions(rule, index, constants)
            budget, undefined = len(rule.body), [0] * (len(index) + 1)
            matches = brute_matches(plan, candidates, index, undefined, budget)
            want = [instance_of(render(rule, subst), index) for subst, _ in matches]
            kept = [inst for inst in want if inst is not None]
            assert list(_instances(plan, index, ())) == kept, seed
            assert ground_rule(rule, index) == list(dict.fromkeys(kept)), seed
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


def model_set(program, kind, atoms, cap=None):
    """Every model the strategy enumerates, each blocked in turn, or the
    first `cap` of them."""
    found = set()

    def block(model):
        found.add(frozenset(model))
        if len(found) == cap:
            return None
        return [
            [Literal(a) for a in model]
            + [Literal(a, False) for a in atoms if a not in model]
        ]

    status = solve(program, kind, seed=1, on_model=block).status
    assert status == ("SAT" if len(found) == cap else "UNSAT")
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


#: The agreement test's inputs: constants wider than `JOIN_CONSTS`, the
#: generator seeds, how many programs with a deferred constraint must have
#: more free atoms than the oracle enumerates, and the block, if any, that
#: ends each program.  Over nine constants a program grounds to up to
#: about 340 free atoms.  The double-swap block's constraint is deferred,
#: so `full` grounds it and the others join it in full, and a pair that
#: the grounder joins once but must not changes `full`'s models.  The
#: guess-constraints block's constraints have seeds with constants, which
#: a trigger that skipped its checks would match wrongly, and they make
#: `post` backjump past instances that its mark must not skip.
WIDE = {
    "consts1-5": ([1, 2, 3, 4, 5], range(200), 25, {}),
    "consts1-9": (list(range(1, 10)), range(80), 15, {}),
    "double-swap": ([1, 2, 3, 4, 5], range(40), 10, {"double_swap": True}),
    "guess-constraints": ([1, 2, 3, 4, 5], range(40), 10, {"guess_constraints": True}),
}
#: The models the agreement test enumerates per strategy at most.
MODEL_CAP = 30


@pytest.mark.parametrize("wide", sorted(WIDE))
def test_strategies_agree_beyond_the_oracle(wide):
    """Over wider constants many programs have more free atoms than the
    oracle enumerates, but stability is cheap to check: every strategy's
    models are stable models of the whole program, the four statuses
    agree, and so do the model sets found by blocking, unless each reaches
    the cap.  Eager and post leave the total-candidate check nothing to
    add, as each violated instance is theirs to find."""
    consts, seeds, at_least, block = WIDE[wide]
    beyond = 0
    for seed in seeds:
        text = random_join_program_text(seed, consts=consts, **block)
        program = parse_program(text)
        ground = ground_program(program, include_deferred=True)
        atoms = list(ground.atoms)
        statuses, model_sets = set(), []
        for kind in ("full", "lazy", "eager", "post"):
            result = solve(program, kind, seed=1)
            statuses.add(result.status)
            if kind in ("eager", "post"):
                assert result.stats.lazy_added == 0, (seed, kind)
            models = model_set(program, kind, atoms, MODEL_CAP)
            if result.model is not None:
                models.add(result.model)
            assert all(is_stable_model(ground, m) for m in models), (seed, kind)
            model_sets.append(models)
        assert len(statuses) == 1, seed
        if any(len(models) < MODEL_CAP for models in model_sets):
            assert all(models == model_sets[0] for models in model_sets), seed
        free = {head for head, _ in ground.rules if head} - set(ground.facts)
        beyond += bool(program.deferred) and len(free) > MAX_FREE_ATOMS
    assert beyond >= at_least


def symmetric_constraints_text(seed: int) -> str:
    """One to three constraints over the fuzz predicates, each with two
    positive literals on one predicate whose swap maps the body onto
    itself, with choice rules for that predicate.

    Each argument position of the pair holds the literal's own variable
    (`X0` against `Y0`), a shared variable `Z` or a constant, or, for a
    binary predicate, the two own variables crossed.  Around the pair go a
    `!=` between own variables, negative literals that swap with each
    other, and a literal and a comparison on `Z` alone, in shuffled order.
    Some are deferred.
    """
    rng = random.Random(seed)
    lines = []
    for _ in range(rng.randint(1, 3)):
        pred = rng.choice(list(JOIN_PREDS))
        arity = JOIN_PREDS[pred]
        if arity == 2 and rng.random() < 0.25:
            first, second = ["X0", "Y0"], ["Y0", "X0"]
        else:
            first, second = [], []
            for k in range(arity):
                kind = rng.choice(["own", "own", "shared", "constant"])
                if kind == "own":
                    first.append(f"X{k}")
                    second.append(f"Y{k}")
                else:
                    term = "Z" if kind == "shared" else str(rng.choice(JOIN_CONSTS))
                    first.append(term)
                    second.append(term)
        elems = [f"{pred}({','.join(first)})", f"{pred}({','.join(second)})"]
        own = [(x, y) for x, y in zip(first, second) if x != y]
        if own and rng.random() < 0.6:
            x, y = rng.choice(own)
            elems.append(f"{x} != {y}" if rng.random() < 0.5 else f"{y} != {x}")
        if own and rng.random() < 0.5:
            x, y = rng.choice(own)
            neg = rng.choice(["a", "b", "c"])
            elems += [f"not {neg}({x})", f"not {neg}({y})"]
        if own and rng.random() < 0.3:
            x, y = rng.choice(own)
            elems += [f"not e({x},{y})", f"not e({y},{x})"]
        if "Z" in first:
            if rng.random() < 0.5:
                elems.append(f"{rng.choice(['d', 'a'])}(Z)")
            if rng.random() < 0.3:
                elems.append("Z != 2")
        rng.shuffle(elems)
        args = ",".join(f"V{k}" for k in range(arity))
        domain = ", ".join(f"d(V{k})" for k in range(arity))
        lines.append(f"{pred}({args}) :- {domain}, not n{pred}({args}).")
        lines.append(f"n{pred}({args}) :- {domain}, not {pred}({args}).")
        if rng.random() < 0.4:
            lines.append("%@deferred")
        lines.append(":- " + ", ".join(elems) + ".")
    return "\n".join(lines) + "\n"


def symmetric_programs(seeds):
    """(seed, program) of each fuzz program with symmetric constraints added."""
    for seed in seeds:
        text = random_join_program_text(seed) + symmetric_constraints_text(seed)
        yield seed, parse_program(text)


def test_symmetric_constraints_store_as_their_reference():
    """Every constraint the generator writes has a pair, and the grounding
    of each program stores what its reference grounding stores."""
    fewer = 0
    for seed, program in symmetric_programs(range(120)):
        added = parse_program(symmetric_constraints_text(seed)).rules
        assert all(_symmetric_pairs(rule) for rule in added if rule.head is None), seed
        rules, reference = assert_grounds_as_reference(program)
        fewer += rules < reference
    assert fewer >= 60


def test_symmetric_instances_are_the_brute_force_ones_less_the_swapped():
    """A constraint's instance form yields the brute-force instance of each
    match in match order, but for the matches whose positive literal b has
    a lower variable than a, for each pair (a, b) of `_symmetric_pairs`."""
    dropped = 0
    for seed, program in symmetric_programs(range(60)):
        index = ground_program(program).atoms
        constants = sorted(herbrand_universe(program))
        for rule in program.rules:
            pairs = _symmetric_pairs(rule)
            if not pairs:
                continue
            plan = BodyPlan(rule)
            want = []
            for subst, _ in candidate_substitutions(rule, index, constants):
                key = [index.id_of(ground(lit.atom, subst)) for lit in plan.positives]
                if any(key[b] < key[a] for a, b in pairs):
                    dropped += 1
                    continue
                want.append((key, instance_of(render(rule, subst), index)))
            want.sort(key=lambda m: m[0])
            kept = [inst for _, inst in want if inst is not None]
            assert list(_instances(plan, index, ())) == kept, seed
    assert dropped >= 100
