"""`AtomIndex` tables keyed by (predicate, bound positions) stay current as
atoms are added after they were built, as they are during the grounder's
fixpoint."""
import pytest

from microasp.grounder import AtomIndex, ground_program, naive_ground_program
from microasp.model import Atom
from microasp.oracle import enumerate_stable_models, least_model, reduct
from microasp.parser import parse_program
from microasp.strategies import solve


def ga(pred, *args):
    return Atom(pred, args)


def test_table_sees_atoms_added_after_it_was_built():
    index = AtomIndex([ga("e", 1, 2), ga("e", 2, 3)])
    by_first = index.table("e", (0,))
    both = index.table("e", (0, 1))
    assert by_first[1] == [(1, (1, 2))]
    assert 3 not in by_first
    index.add(ga("e", 1, 3))
    index.add(ga("e", 3, 1))
    index.add(ga("e", 1, 3))  # already there: no second row
    assert index.table("e", (0,)) is by_first
    assert by_first[1] == [(1, (1, 2)), (3, (1, 3))]
    assert by_first[3] == [(4, (3, 1))]
    assert both[1, 3] == [(3, (1, 3))]
    assert index.table("e", (1,))[1] == [(4, (3, 1))]  # built now, from every row
    assert index.table("e", ())[()] == [
        (1, (1, 2)),
        (2, (2, 3)),
        (3, (1, 3)),
        (4, (3, 1)),
    ]


def test_table_of_an_absent_predicate_fills_in():
    index = AtomIndex()
    assert index.table("q", (0,)) == {}
    assert index.table("q", ())[()] == []
    index.add(ga("q", 5))
    assert index.table("q", (0,))[5] == [(1, (5,))]
    assert index.table("q", ())[()] == [(1, (5,))]


# `reach` is probed by its first argument from round one of the fixpoint on,
# and most of its atoms are derived after that table was built.
REACH_TEXT = """\
edge(1,2). edge(2,3).
edge(3,1) :- not cut.
cut :- not edge(3,1).
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- edge(X,Y), reach(Y,Z).
%@deferred
:- reach(X,Z), reach(Z,X), X < Z, not edge(Z,X).
"""

REACH_GROUND = """\
:- reach(2,1).
:- reach(3,1), not edge(3,1).
:- reach(3,2).
cut :- not edge(3,1).
edge(1,2).
edge(2,3).
edge(3,1) :- not cut.
reach(1,1) :- reach(2,1).
reach(1,2).
reach(1,3).
reach(2,1) :- reach(3,1).
reach(2,2) :- reach(3,2).
reach(2,3).
reach(3,1) :- edge(3,1), reach(1,1).
reach(3,1) :- edge(3,1).
reach(3,2) :- edge(3,1).
reach(3,3) :- edge(3,1).
"""


def test_recursive_program_grounds_every_derivable_atom():
    program = parse_program(REACH_TEXT)
    gp = ground_program(program, include_deferred=True)
    assert gp.to_text() == REACH_GROUND
    naive = naive_ground_program(program)
    # With every negative literal dropped, the least model is the set of
    # atoms some rule may derive: the grounder's atoms.
    assert set(gp.atoms) == least_model(reduct(naive, ()))
    assert {str(a) for a in gp.atoms if a.predicate == "reach"} == {
        f"reach({x},{y})" for x in (1, 2, 3) for y in (1, 2, 3)
    }


@pytest.mark.parametrize("kind", ["full", "lazy", "eager", "post"])
def test_recursive_program_models_match_the_oracle(kind):
    program = parse_program(REACH_TEXT)
    (want,) = enumerate_stable_models(naive_ground_program(program))
    assert "cut" in {str(a) for a in want}
    result = solve(program, kind, seed=1)
    assert result.status == "SAT"
    assert result.model == want
