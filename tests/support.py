"""Shared fixtures: the running two-loop example, the random-program
generators used by the equivalence fuzz, a spy on what the
deferred-constraint joins return, a dict that counts its reads and the
full join of a list of plans."""
from __future__ import annotations

import random
from collections import Counter

PI1_TEXT = """\
a(1) :- not b(1).
b(1) :- not a(1).
:- a(X), b(X).
c(1) :- not d(1).
d(1) :- not c(1).
:- a(X), not b(X).
"""

PI1_DEFERRED_TEXT = """\
a(1) :- not b(1).
b(1) :- not a(1).
%@deferred
:- a(X), b(X).
c(1) :- not d(1).
d(1) :- not c(1).
%@deferred
:- a(X), not b(X).
"""

FUZZ_PREDS = ["a", "b", "c", "d"]
FUZZ_CONSTS = [1, 2]


def random_program_text(seed: int, max_deferred: int = 4) -> str:
    """A random normal program over at most 8 ground atoms (4 unary
    predicates, 2 constants), mixing ground and single-variable rules,
    positive cycles included.  Deferred marks go on a random subset of
    constraints."""
    rng = random.Random(seed)
    lines: list[str] = []
    deferred_at: list[int] = []
    n_deferred = 0

    def atom(var: bool = False) -> str:
        pred = rng.choice(FUZZ_PREDS)
        return f"{pred}(X)" if var else f"{pred}({rng.choice(FUZZ_CONSTS)})"

    for _ in range(rng.randint(1, 12)):
        lifted = rng.random() < 0.45
        body: list[str] = []
        if lifted:
            body.append(atom(var=True))
            for _ in range(rng.randint(0, 2)):
                neg = rng.random() < 0.4
                body.append(("not " if neg else "") + atom(var=rng.random() < 0.5))
        else:
            for _ in range(rng.randint(0, 3)):
                neg = rng.random() < 0.4
                body.append(("not " if neg else "") + atom())
        if rng.random() < 0.3 and body:
            if n_deferred < max_deferred and rng.random() < 0.5:
                deferred_at.append(len(lines))
                n_deferred += 1
            lines.append(":- " + ", ".join(body) + ".")
        else:
            head = atom(var=lifted and rng.random() < 0.7)
            if body:
                lines.append(head + " :- " + ", ".join(body) + ".")
            else:
                lines.append(
                    head.replace("(X)", f"({rng.choice(FUZZ_CONSTS)})") + "."
                )
    out: list[str] = []
    for i, line in enumerate(lines):
        if i in deferred_at:
            out.append("%@deferred")
        out.append(line)
    return "\n".join(out) + "\n"


JOIN_PREDS = {"a": 1, "b": 1, "c": 1, "e": 2, "r": 2}
JOIN_CONSTS = [1, 2]
JOIN_VARS = ["X", "Y", "Z", "U"]

# Rules whose positive bodies close a cycle.
JOIN_LOOPS = [
    "a(X) :- b(X).\nb(X) :- a(X).",
    "e(X,Y) :- e(Y,X).",
    "r(X,Z) :- r(X,Y), e(Y,Z).",
    "a(X) :- e(X,Y), a(Y).",
]


def random_join_program_text(
    seed: int,
    max_deferred: int = 3,
    consts: list[int] = JOIN_CONSTS,
    double_swap: bool = False,
) -> str:
    """A random normal program over unary and binary predicates and the
    constants `consts`, 1 and 2 by default, with a domain fact `d(c).` for
    each constant c.

    Bodies join up to three positive literals on shared variables, repeat
    variables (`e(X,X)`) and put constants in argument positions.  They
    compare with `!=`, `<` and `=`, bind a variable with `W = X+1` or
    `W = X+Y` (its value may lie outside the atoms), and hold negative
    literals over bound variables, two of them in `not e(X,Y)`.  Positive
    loops come from `JOIN_LOOPS`.  Heads use only variables that a positive
    literal binds, so grounding stays finite.  Deferred marks go on a random
    subset of constraints.

    With `double_swap`, a block follows whose deferred constraint holds a
    double swap, two pairs of positive literals on one predicate each that
    a swap of X and Y exchanges: `:- q(X), q(Y), s(X), s(Y), X != Y.` in a
    random order.  `s` holds three of `consts` (so it needs three), and `q`
    is guessed over them.  The constraint is the only one on `q`, so its
    nogoods decide which choices of `q` are models: at most one of the
    three.  The atoms of `q` come in the order of `d`, and the facts of `s`
    in one that keeps some pairs of constants and reverses others, so
    whichever way the body orders each pair's variables, a grounder that
    joined both pairs once would drop both matches of some two constants.
    The block's draws come after the rest, so the rest of the program is
    the one drawn without it.
    """
    rng = random.Random(seed)
    lines = [f"d({c})." for c in consts]
    deferred_at: list[int] = []

    def args_of(pred: str, pool: list[str]) -> list[str]:
        return [
            rng.choice(pool)
            if pool and rng.random() < 0.75
            else str(rng.choice(consts))
            for _ in range(JOIN_PREDS[pred])
        ]

    def atom(pred: str, args: list[str]) -> str:
        return f"{pred}({','.join(args)})"

    def body() -> tuple[list[str], list[str]]:
        """Body elements and the variables its positive literals bind."""
        bound: list[str] = []
        elems: list[str] = []
        for _ in range(rng.randint(1, 3)):
            pred = rng.choice(["d", "d", *JOIN_PREDS])
            args = []
            for _ in range(JOIN_PREDS.get(pred, 1)):
                roll = rng.random()
                if bound and roll < 0.4:
                    args.append(rng.choice(bound))
                elif roll < 0.85:
                    var = rng.choice(JOIN_VARS)
                    args.append(var)
                    if var not in bound:
                        bound.append(var)
                else:
                    args.append(str(rng.choice(consts)))
            elems.append(atom(pred, args))
        pool = list(bound)
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.3 and pool:
                x, y = rng.choice(pool), rng.choice(pool + ["2"])
                elems.append(f"{x} {rng.choice(['!=', '<', '='])} {y}")
            elif roll < 0.5 and pool and "W" not in pool:
                x = rng.choice(pool)
                elems.append(f"W = {x}+{rng.choice([1] + pool)}")
                pool.append("W")
                if rng.random() < 0.5:
                    elems.append(atom(rng.choice(["e", "r"]), [rng.choice(pool), "W"]))
            elif roll < 0.8 and len(pool) >= 2:
                x, y = rng.sample(pool, 2)
                elems.append(f"not {rng.choice(['e', 'r'])}({x},{y})")
            else:
                pred = rng.choice(list(JOIN_PREDS))
                elems.append("not " + atom(pred, args_of(pred, pool)))
        rng.shuffle(elems)
        return elems, bound

    for _ in range(rng.randint(2, 7)):
        roll = rng.random()
        if roll < 0.15:
            pred = rng.choice(list(JOIN_PREDS))
            lines.append(atom(pred, args_of(pred, [])) + ".")
        elif roll < 0.3:
            pred = rng.choice(list(JOIN_PREDS))
            args = JOIN_VARS[: JOIN_PREDS[pred]]
            domain = ", ".join(f"d({v})" for v in args)
            yes, no = atom(pred, args), atom("n" + pred, args)
            lines.append(f"{yes} :- {domain}, not {no}.")
            lines.append(f"{no} :- {domain}, not {yes}.")
        elif roll < 0.4:
            lines.append(rng.choice(JOIN_LOOPS))
        elif roll < 0.65:
            elems, _ = body()
            if len(deferred_at) < max_deferred and rng.random() < 0.6:
                deferred_at.append(len(lines))
            lines.append(":- " + ", ".join(elems) + ".")
        else:
            elems, bound = body()
            pred = rng.choice(list(JOIN_PREDS))
            head = atom(pred, args_of(pred, bound))
            if rng.random() < 0.5:
                # a choice between the head and its complement
                elems.append("not n" + head)
                lines.append(f"n{head} :- {', '.join(elems[:-1] + ['not ' + head])}.")
            lines.append(f"{head} :- {', '.join(elems)}.")
    if double_swap:
        low, middle, high = sorted(rng.sample(consts, 3))
        lines += [f"s({c})." for c in (middle, high, low)]
        lines.append("q(X) :- d(X), s(X), not nq(X).")
        lines.append("nq(X) :- d(X), s(X), not q(X).")
        elems = ["q(X)", "q(Y)", "s(X)", "s(Y)", "X != Y"]
        rng.shuffle(elems)
        deferred_at.append(len(lines))
        lines.append(":- " + ", ".join(elems) + ".")
    out: list[str] = []
    for i, line in enumerate(lines):
        if i in deferred_at:
            out.append("%@deferred")
        out.append(line)
    return "\n".join(out) + "\n"


def rule_texts(gp) -> list[str]:
    """The rules of a ground program as text, in order."""
    return [str(gp.atoms.render(rule)) for rule in gp.rules]


def fact_texts(gp) -> list[str]:
    """The facts of a ground program as text, sorted."""
    return sorted(str(gp.atoms.atom(var - 1)) for var in gp.facts)


def instance_of(rule, index):
    """A ground rule's instance over the index as the grounder builds it
    with no facts, or None: a negative literal on an atom outside the index
    holds and leaves the body, as does a repeated literal, and a literal
    with its complement in the body drops the instance."""
    body = []
    for lit in rule.body:
        if lit.atom not in index:
            continue
        var = index.id_of(lit.atom) + 1
        signed = var if lit.positive else -var
        if -signed in body:
            return None
        if signed not in body:
            body.append(signed)
    head = index.id_of(rule.head) + 1 if rule.head is not None else 0
    return head, tuple(body)


def lit_of(solver, atom) -> int:
    """The positive solver literal of an atom of the solver's program."""
    return solver.gp.atoms.id_of(atom) + 1


class CountedReads(dict):
    """A dict that counts its reads by key, in `reads`.  As a solver's
    `_defs` it counts the support propagator's scans of each head's bodies,
    the only reads by `[]`."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = Counter()

    def __getitem__(self, key):
        self.reads[key] += 1
        return super().__getitem__(key)


class JoinSpy:
    """What the deferred-constraint joins return during solves, recorded by
    wrapping them through `monkeypatch`.

    `returns["eager"]` and `returns["post"]` hold, call by call, the lists
    of nogoods that `ConstraintIndex.eager_nogoods` and `post_nogoods`
    return.  `checks` holds each violation that
    `strategies.ground_deferred_violations` stores, as (plan, slots,
    signed variables): `plan.render(slots)` is its instance and `plan.rule`
    its constraint.  `atoms` is the atom index the last propagator read.
    When given, `around(run, index, solver, *args)` stands in for each
    propagator call `run()` on those arguments and returns what `run()`
    returned.
    """

    def __init__(self, monkeypatch, around=None):
        from microasp import strategies

        self.returns = {"eager": [], "post": []}
        self.checks = []
        self.atoms = None
        cls = strategies.ConstraintIndex
        eager, post = cls.eager_nogoods, cls.post_nogoods
        check = strategies.ground_deferred_violations

        def keep(origin, method, index, solver, *args):
            def run():
                return method(index, solver, *args)

            got = run() if around is None else around(run, index, solver, *args)
            self.atoms = index.gp.atoms
            self.returns[origin].append(got)
            return got

        def spy_eager(index, solver, lit):
            return keep("eager", eager, index, solver, lit)

        def spy_post(index, solver, since):
            return keep("post", post, index, solver, since)

        def spy_check(index, values):
            found = check(index, values)
            self.checks += [
                (index.plans[ci], slots, lits)
                for (ci, _), (slots, lits) in found.items()
            ]
            return found

        monkeypatch.setattr(cls, "eager_nogoods", spy_eager)
        monkeypatch.setattr(cls, "post_nogoods", spy_post)
        monkeypatch.setattr(strategies, "ground_deferred_violations", spy_check)

    def nogoods(self, origin: str) -> list:
        """Every nogood the propagator of `origin` returned, in order."""
        return [nogood for got in self.returns[origin] for nogood in got]

    def texts(self, origin: str) -> list[str]:
        """Those nogoods as constraints, their literals in variable order."""
        return [str(self.atoms.render((0, nogood))) for nogood in self.nogoods(origin)]


def join_in_full(plans, index, values, budget):
    """`grounder.iter_matches` over the unseeded plans, each bound to the
    index's tables for its position in `plans`."""
    from microasp.grounder import iter_matches

    return iter_matches(
        [plan.trigger(index, ci) for ci, plan in enumerate(plans)], values, budget
    )
