"""Shared fixtures: the running two-loop example and the random-program
generator used by the equivalence fuzz."""
from __future__ import annotations

import random

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


def random_join_program_text(seed: int, max_deferred: int = 3) -> str:
    """A random normal program over unary and binary predicates and the
    constants 1 and 2, with the domain facts `d(1). d(2).`

    Bodies join up to three positive literals on shared variables, repeat
    variables (`e(X,X)`) and put constants in argument positions.  They
    compare with `!=`, `<` and `=`, bind a variable with `W = X+1` or
    `W = X+Y` (its value may lie outside the atoms), and hold negative
    literals over bound variables, two of them in `not e(X,Y)`.  Positive
    loops come from `JOIN_LOOPS`.  Heads use only variables that a positive
    literal binds, so grounding stays finite.  Deferred marks go on a random
    subset of constraints.
    """
    rng = random.Random(seed)
    lines = [f"d({c})." for c in JOIN_CONSTS]
    deferred_at: list[int] = []

    def args_of(pred: str, pool: list[str]) -> list[str]:
        return [
            rng.choice(pool)
            if pool and rng.random() < 0.75
            else str(rng.choice(JOIN_CONSTS))
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
                    args.append(str(rng.choice(JOIN_CONSTS)))
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


def lit_of(solver, atom) -> int:
    """The positive solver literal of an atom of the solver's program."""
    return solver.gp.atoms.id_of(atom) + 1
