import itertools

import pytest

from fiberwalk.errors import InvalidStateError, UnsupportedLevelsError
from fiberwalk.families import cycle_graph
from fiberwalk.graphs import LabeledGraph
from fiberwalk.latin import (
    LatinSquare,
    are_orthogonal,
    latin_table,
    mols,
    verify_disconnection,
)
from fiberwalk.tables import Table

SETH_TABLE = Table(
    {
        (1, 1, 1, 1): 1, (1, 2, 2, 2): 1, (1, 3, 3, 3): 1,
        (2, 1, 2, 3): 1, (2, 2, 3, 1): 1, (2, 3, 1, 2): 1,
        (3, 1, 3, 2): 1, (3, 2, 1, 3): 1, (3, 3, 2, 1): 1,
    }
)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_mols_latin_and_pairwise_orthogonal(q):
    squares = mols(q)
    assert len(squares) == q - 1
    for s1, s2 in itertools.combinations(squares, 2):
        assert are_orthogonal(s1, s2)


def test_mols_unsupported_order():
    with pytest.raises(UnsupportedLevelsError):
        mols(6)
    with pytest.raises(UnsupportedLevelsError):
        mols(11)


def test_latin_square_validation():
    with pytest.raises(InvalidStateError):
        LatinSquare(2, ((1, 1), (2, 2)))
    with pytest.raises(InvalidStateError):
        LatinSquare(2, ((1, 2), (1, 2)))


def test_are_orthogonal_cases():
    l1, l2 = mols(3)
    assert are_orthogonal(l1, l2)
    assert not are_orthogonal(l1, l1)
    only = mols(2)[0]
    assert not are_orthogonal(only, only)
    with pytest.raises(InvalidStateError):
        are_orthogonal(l1, only)


def test_latin_table_reproduces_pinned_table():
    g = cycle_graph(4, level=3)
    assert latin_table(g, mols(3)) == SETH_TABLE


def test_latin_table_needs_enough_squares():
    g = cycle_graph(4, level=2)
    with pytest.raises(InvalidStateError):
        latin_table(g, mols(2))  # one square exists, two needed


def test_latin_table_two_way_margins_all_ones():
    # every vertex PAIR (not only edges) sees each value pair exactly once
    for n, q in ((4, 3), (5, 4)):
        g = cycle_graph(n, level=q)
        t = latin_table(g, mols(q)[: n - 2])
        assert t.degree == q * q
        for a, b in itertools.combinations(range(n), 2):
            counts = {}
            for s, c in t.items():
                counts[(s[a], s[b])] = counts.get((s[a], s[b]), 0) + c
            assert counts == {p: 1 for p in itertools.product(range(1, q + 1), repeat=2)}


def test_verify_disconnection_c4_order3():
    g = cycle_graph(4, level=3)
    rep = verify_disconnection(g, latin_table(g, mols(3)))
    assert rep.precondition_failures == []
    assert rep.component_size == 1
    assert rep.margins_strictly_positive
    assert rep.interior and rep.interior_method == "facets"
    assert rep.fiber_has_second_element
    assert rep.isolated_interior_point


def test_verify_disconnection_c4_order4():
    g = cycle_graph(4, level=4)
    rep = verify_disconnection(g, latin_table(g, mols(4)[:2]))
    assert rep.precondition_failures == []
    assert rep.component_size == 1
    assert rep.margins_strictly_positive
    assert rep.interior and rep.interior_method == "uniform-mixture"
    assert rep.fiber_has_second_element


def test_verify_disconnection_preconditions():
    k3 = LabeledGraph.build(3, [(1, 2), (2, 3), (1, 3)], [3, 3, 3])
    rep = verify_disconnection(k3, Table({(1, 1, 1): 1}))
    assert "triangle" in rep.precondition_failures[0]
    path = LabeledGraph.build(3, [(1, 2), (2, 3)], [3, 3, 3])
    rep = verify_disconnection(path, Table({(1, 1, 1): 1}))
    assert any("cut vertex" in f for f in rep.precondition_failures)


def test_isolation_stable_under_symbol_relabeling(shared_seth_cone):
    # permute the symbols inside each square; the image table is still stuck
    g = cycle_graph(4, level=3)
    perm = {1: 2, 2: 3, 3: 1}
    relabeled = [
        LatinSquare(3, tuple(tuple(perm[v] for v in row) for row in sq.cells))
        for sq in mols(3)
    ]
    rep = verify_disconnection(g, latin_table(g, relabeled))
    assert rep.component_size == 1 and rep.fiber_has_second_element
