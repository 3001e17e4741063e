import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberwalk.errors import InvalidStateError, TooLargeError
from fiberwalk.graphs import (
    LabeledGraph,
    cone_graph,
    global_markov_moves,
    margin_map,
    margins,
    maximal_cliques,
)
from fiberwalk.presets import resolve
from fiberwalk.tables import Move, Table, state_index

from reference import (
    CIStatement,
    ci_quadratic_moves,
    dedup_moves,
    global_markov_statements,
    separates,
)


def test_separates_c4(c4):
    assert separates(c4, {1}, {3}, {2, 4})
    assert not separates(c4, {1}, {2}, {3, 4})


def test_separates_k23(k23):
    assert separates(k23, {3}, {4, 5}, {1, 2})


def test_separates_symmetric(c5, k23):
    rng = random.Random(11)
    for g in (c5, k23):
        verts = list(g.vertices)
        for _ in range(30):
            rng.shuffle(verts)
            a, b, c = {verts[0]}, {verts[1]}, set(verts[2:4])
            assert separates(g, a, b, c) == separates(g, b, a, c)


def test_separates_rejects_overlap(c4):
    with pytest.raises(ValueError):
        separates(c4, {1}, {1}, {2})
    with pytest.raises(ValueError):
        separates(c4, set(), {1}, {2})


def test_statements_c4(c4):
    sts = global_markov_statements(c4)
    assert len(sts) == 2
    assert sts[0] == CIStatement(frozenset({1}), frozenset({3}), frozenset({2, 4}))
    assert sts[1] == CIStatement(frozenset({2}), frozenset({4}), frozenset({1, 3}))


def test_statements_complete_graph_empty(k3):
    assert global_markov_statements(k3) == []


def test_statements_k23(k23):
    sts = set(global_markov_statements(k23))
    assert CIStatement(frozenset({3}), frozenset({4, 5}), frozenset({1, 2})) in sts
    assert CIStatement(frozenset({1}), frozenset({2}), frozenset({3, 4, 5})) in sts
    assert len(sts) == 7


def test_statements_exhaustive_oracle(c4):
    # independent oracle: filter all 3^4 labelings by the separation test
    expected = set()
    for labels in itertools.product((0, 1, 2), repeat=4):
        a = frozenset(v for v in range(1, 5) if labels[v - 1] == 0)
        b = frozenset(v for v in range(1, 5) if labels[v - 1] == 1)
        c = frozenset(v for v in range(1, 5) if labels[v - 1] == 2)
        if a and b and separates(c4, a, b, c):
            if min(a) > min(b):
                a, b = b, a
            expected.add((a, b, c))
    got = {(s.part_a, s.part_b, s.part_c) for s in global_markov_statements(c4)}
    assert got == expected


def test_statements_cap():
    g = LabeledGraph.build(13, [(i, i + 1) for i in range(1, 13)], [2] * 13)
    with pytest.raises(TooLargeError):
        global_markov_statements(g)


def test_ci_moves_c4_pinned(c4):
    st = CIStatement(frozenset({2}), frozenset({4}), frozenset({1, 3}))
    moves = ci_quadratic_moves(st, c4.levels)
    assert len(moves) == 4
    pinned = Move(
        Table({(1, 1, 1, 1): 1, (1, 2, 1, 2): 1}),
        Table({(1, 2, 1, 1): 1, (1, 1, 1, 2): 1}),
    ).canonical()
    assert any(m.key() == pinned.key() for m in moves)


def test_ci_moves_count_formula(k23, c5):
    # |X_C| * C(|X_A|,2) * C(|X_B|,2) distinct moves per statement
    st = CIStatement(frozenset({3}), frozenset({4, 5}), frozenset({1, 2}))
    moves = ci_quadratic_moves(st, k23.levels)
    xa, xb, xc = 2, 4, 4
    assert len(moves) == xc * (xa * (xa - 1) // 2) * (xb * (xb - 1) // 2)
    for st in global_markov_statements(c5):
        xa = 2 ** len(st.part_a)
        xb = 2 ** len(st.part_b)
        xc = 2 ** len(st.part_c)
        assert len(ci_quadratic_moves(st, c5.levels)) == (
            xc * (xa * (xa - 1) // 2) * (xb * (xb - 1) // 2)
        )


def test_ci_moves_k23_first_group(k23):
    st = CIStatement(frozenset({1}), frozenset({2}), frozenset({3, 4, 5}))
    moves = ci_quadratic_moves(st, k23.levels)
    assert len(moves) == 8
    # tableau pattern: rows (1,1,K),(2,2,K) against (1,2,K),(2,1,K)
    for k in itertools.product((1, 2), repeat=3):
        m = Move(
            Table({(1, 1) + k: 1, (2, 2) + k: 1}),
            Table({(1, 2) + k: 1, (2, 1) + k: 1}),
        ).canonical()
        assert any(x.key() == m.key() for x in moves)


def test_global_markov_moves_counts(c4):
    assert len(global_markov_moves(c4)) == 8
    k2 = LabeledGraph.build(2, [(1, 2)], [2, 2])
    assert global_markov_moves(k2) == []


def statement_moves(g):
    """The reference path: every covering statement's moves, deduplicated."""
    return dedup_moves(
        m for s in global_markov_statements(g) for m in ci_quadratic_moves(s, g.levels)
    )


def assert_same_move_lists(got, expected):
    assert len(got) == len(expected)
    for m, r in zip(got, expected):
        assert (m.plus.items(), m.minus.items()) == (r.plus.items(), r.minus.items())
        assert (m.plus.degree, m.minus.degree, hash(m.plus), hash(m.minus)) == (
            r.plus.degree, r.minus.degree, hash(r.plus), hash(r.minus))


@pytest.mark.parametrize("name, count", [
    ("c4", 8), ("c5", 80), ("k23", 56), ("g48", 32), ("seth-c4-3", 162), ("k33", 192),
])
def test_global_markov_moves_pinned_presets(name, count):
    g = resolve(name).graph
    moves = global_markov_moves(g)
    assert len(moves) == count
    assert_same_move_lists(moves, statement_moves(g))


def statement_move_work(g):
    """Moves the reference path builds before deduplication: sum over the
    statements of |X_C| * C(|X_A|, 2) * C(|X_B|, 2)."""
    def cells(part):
        k = 1
        for v in part:
            k *= g.levels.levels[v - 1]
        return k

    return sum(
        cells(s.part_c) * (cells(s.part_a) * (cells(s.part_a) - 1) // 2)
        * (cells(s.part_b) * (cells(s.part_b) - 1) // 2)
        for s in global_markov_statements(g)
    )


# the reference path builds some tens of thousands of moves a second, so the
# drawn graphs keep its work below this: on sparse graphs of six or seven
# vertices it would take tens of seconds
REFERENCE_WORK = 4000


@st.composite
def small_graphs(draw):
    """Graphs on 2-7 vertices with levels 2-3: the first k of a shuffled
    list of vertex pairs are the edges.  Where the reference path's work
    would pass REFERENCE_WORK, the levels become binary and, if that is not
    enough, the next pairs of the list are added as edges."""
    n = draw(st.integers(2, 7))
    pairs = draw(st.permutations(list(itertools.combinations(range(1, n + 1), 2))))
    k = draw(st.integers(0, len(pairs)))
    levels = draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
    g = LabeledGraph.build(n, pairs[:k], levels)
    if statement_move_work(g) > REFERENCE_WORK:
        g = LabeledGraph.build(n, pairs[:k], [2] * n)
    while statement_move_work(g) > REFERENCE_WORK:
        k += 1
        g = LabeledGraph.build(n, pairs[:k], [2] * n)
    return g


@settings(max_examples=40)
@example(LabeledGraph.build(4, [], [2, 3, 2, 2]))
@example(LabeledGraph.build(6, itertools.combinations(range(1, 7), 2), [3, 2, 3, 2, 2, 3]))
@example(LabeledGraph.build(5, [(1, 2), (3, 4), (4, 5)], [2, 2, 2, 2, 3]))
@given(small_graphs())
def test_global_markov_moves_match_statement_path(g):
    assert_same_move_lists(global_markov_moves(g), statement_moves(g))


def test_global_markov_moves_cap():
    g = LabeledGraph.build(13, [(i, i + 1) for i in range(1, 13)], [2] * 13)
    with pytest.raises(TooLargeError):
        global_markov_moves(g)


def test_all_generated_moves_margin_neutral(c4, c5, k23):
    for g in (c4, c5, k23):
        am = margin_map(g)
        for m in global_markov_moves(g):
            assert margins(am, m.plus) == margins(am, m.minus)


def test_margin_map_dimensions(c4, k3, k23):
    am = margin_map(c4)
    assert (len(am.cliques), am.n_rows, am.n_cols) == (4, 16, 16)
    am3 = margin_map(k3)
    assert (len(am3.cliques), am3.n_rows, am3.n_cols) == (1, 8, 8)
    am23 = margin_map(k23)
    assert (len(am23.cliques), am23.n_rows, am23.n_cols) == (6, 24, 32)


def test_margins_zero_and_unit(c4):
    am = margin_map(c4)
    assert margins(am, Table()) == (0,) * 16
    y = margins(am, Table({(1, 1, 1, 1): 1}))
    for start in am.block_starts:
        assert y[start] == 1
        assert sum(y[start : start + 4]) == 1


def test_margins_additive(c4):
    am = margin_map(c4)
    rng = random.Random(5)
    states = list(c4.levels.states())
    for _ in range(50):
        t1 = Table({s: rng.randint(1, 3) for s in rng.sample(states, 3)})
        t2 = Table({s: rng.randint(1, 3) for s in rng.sample(states, 3)})
        y1, y2, y12 = margins(am, t1), margins(am, t2), margins(am, t1 + t2)
        assert tuple(a + b for a, b in zip(y1, y2)) == y12


@pytest.mark.parametrize(
    "cells, message",
    [
        ({(1, 1, 1): 1}, "state (1, 1, 1) has arity 3, expected 4"),
        ({(1, 1, 1, 1): 2, (1, 1, 3, 1): 1}, "coordinate 3 of state (1, 1, 3, 1) outside 1..2"),
        ({(2, 0, 1, 1): 1, (1, 1, 1): 1}, "state (1, 1, 1) has arity 3, expected 4"),
        # a coordinate the state dict cannot find falls back to the state check
        ({(1, 1, "1", 1): 1}, "coordinate 3 of state (1, 1, '1', 1) outside 1..2"),
    ],
)
def test_margins_rejects_bad_states(c4, cells, message):
    with pytest.raises(InvalidStateError) as err:
        margins(margin_map(c4), Table(cells))
    assert str(err.value) == message


@settings(max_examples=60)
@given(st.sampled_from(["seth-c4-3", "k33"]), st.randoms(use_true_random=False))
def test_margins_match_the_per_cell_sum(name, rng):
    am = margin_map(resolve(name).graph)
    states = am.space.states_by_index
    t = Table({s: rng.randint(1, 5) for s in rng.sample(states, rng.randint(0, len(states)))})
    expected = [0] * am.n_rows
    for s, c in t.items():
        for r in am.rows_of_cell(state_index(s, am.space)):
            expected[r] += c
    assert margins(am, t) == tuple(expected)


def test_margins_seth_table_all_ones():
    from fiberwalk.presets import resolve

    preset = resolve("seth-c4-3")
    am = margin_map(preset.graph)
    assert margins(am, preset.pinned_table) == (1,) * 36


def test_cone_graph(c4, k3):
    pyr = cone_graph(c4, 2)
    assert pyr.n_vertices == 5 and len(pyr.edges) == 8
    assert pyr.levels.levels == (2, 2, 2, 2, 2)
    assert maximal_cliques(pyr) == [(1, 2, 5), (1, 4, 5), (2, 3, 5), (3, 4, 5)]
    k4 = cone_graph(k3, 2)
    assert len(k4.edges) == 6 and maximal_cliques(k4) == [(1, 2, 3, 4)]


def test_chordal_graphs_fibers_connected_by_quadrics():
    # decomposable graphs: quadratic moves alone connect every small fiber
    from fiberwalk.engine import verify_markov_basis

    for edges, n in [([(1, 2), (2, 3)], 3), ([(1, 2), (2, 3), (1, 3), (3, 4)], 4)]:
        g = LabeledGraph.build(n, edges, [2] * n)
        verdict = verify_markov_basis(global_markov_moves(g), margin_map(g), 4)
        assert verdict.passed
