import random

import pytest

from fiberwalk.engine import (
    are_connected,
    connected_component,
    enumerate_fiber,
    pack_table,
    verify_markov_basis,
)
from fiberwalk.errors import FiberTooLargeError, TooLargeError
from fiberwalk.families import cycle_markov_basis, cycle_quadratic_moves, cycle_quartic_moves
from fiberwalk.graphs import global_markov_moves, margin_map, margins
from fiberwalk.tables import Move, StateSpace, Table, apply_move

N2 = StateSpace((2,))
JUMPS = [
    Move(Table({(1,): 2}), Table({(2,): 2})),
    Move(Table({(1,): 3}), Table({(2,): 3})),
]


def pt(a, b):
    return Table({(1,): a, (2,): b})


def test_component_swap_pair(c4):
    start = Table({(1, 1, 1, 1): 1, (1, 2, 1, 2): 1})
    rep = connected_component(start, global_markov_moves(c4), c4.levels)
    assert rep.size == 2 and not rep.truncated
    assert Table({(1, 2, 1, 1): 1, (1, 1, 1, 2): 1}) in set(rep.members)


def test_component_no_moves(c4):
    rep = connected_component(Table.unit((1, 1, 1, 1)), [], c4.levels)
    assert rep.size == 1


def test_component_truncation(c4):
    start = Table({(1, 1, 1, 1): 1, (1, 2, 1, 2): 1})
    rep = connected_component(start, global_markov_moves(c4), c4.levels, node_cap=1)
    assert rep.truncated and rep.size == 1 and rep.members is None


def test_component_is_equivalence_class(c5):
    # size and member set do not depend on the start point
    moves = cycle_markov_basis(5)
    start = Table(
        {(1, 1, 1, 1, 1): 1, (2, 2, 2, 2, 2): 1, (1, 2, 1, 2, 1): 1, (2, 1, 2, 1, 2): 1}
    )
    rep = connected_component(start, moves, c5.levels)
    assert rep.size == 12
    rng = random.Random(17)
    for other in rng.sample(rep.members, 3):
        rep2 = connected_component(other, moves, c5.levels)
        assert rep2.size == rep.size
        assert set(rep2.members) == set(rep.members)


def test_component_invariant_under_relabeling(c4):
    # rotating the cycle relabels moves and tables consistently
    rot = {1: 2, 2: 3, 3: 4, 4: 1}

    def rot_state(s):
        out = [0] * 4
        for v, c in enumerate(s, start=1):
            out[rot[v] - 1] = c
        return tuple(out)

    def rot_table(t):
        return Table({rot_state(s): c for s, c in t.items()})

    moves = cycle_markov_basis(4)
    moves_rot = [Move(rot_table(m.plus), rot_table(m.minus)) for m in moves]
    start = Table({(1, 1, 2, 2): 1, (2, 2, 1, 1): 1, (1, 2, 2, 1): 1, (2, 1, 1, 2): 1})
    a = connected_component(start, moves, c4.levels)
    b = connected_component(rot_table(start), moves_rot, c4.levels)
    assert a.size == b.size
    assert {rot_table(t) for t in a.members} == set(b.members)


def test_component_members_share_margins_and_degree(c4):
    am = margin_map(c4)
    start = Table({(1, 1, 2, 2): 1, (2, 2, 1, 1): 1, (1, 2, 2, 1): 1, (2, 1, 1, 2): 1})
    rep = connected_component(start, cycle_markov_basis(4), c4.levels)
    assert rep.size > 1
    key = margins(am, start)
    for t in rep.members:
        assert t.degree == start.degree
        assert margins(am, t) == key


def test_are_connected_reflexive():
    res = are_connected(pt(1, 0), pt(1, 0), JUMPS, N2)
    assert res.connected and res.path == []


def test_are_connected_jump_walk():
    res = are_connected(pt(3, 1), pt(1, 3), JUMPS, N2)
    assert res.connected
    res = are_connected(pt(1, 0), pt(0, 1), JUMPS, N2)
    assert res.status == "not-connected"


def test_are_connected_path_replays():
    res = are_connected(pt(5, 0), pt(0, 5), JUMPS, N2)
    assert res.connected
    cur = pt(5, 0)
    for step in res.path:
        cur = apply_move(cur, step.move if step.forward else step.move.reverse())
    assert cur == pt(0, 5)


def test_are_connected_inconclusive_under_cap():
    res = are_connected(pt(6, 0), pt(0, 6), JUMPS, N2, node_cap=1)
    assert res.status == "inconclusive"


def test_enumerate_fiber_degree_zero(c4):
    am = margin_map(c4)
    assert enumerate_fiber(am, (0,) * 16) == frozenset({Table()})


def test_enumerate_fiber_swap_pair(c4):
    am = margin_map(c4)
    start = Table({(1, 1, 1, 1): 1, (1, 2, 1, 2): 1})
    fib = enumerate_fiber(am, margins(am, start))
    assert fib == frozenset(
        {start, Table({(1, 2, 1, 1): 1, (1, 1, 1, 2): 1})}
    )


def test_enumerate_fiber_cap(c4):
    am = margin_map(c4)
    start = Table({(1, 1, 1, 1): 1, (1, 2, 1, 2): 1})
    with pytest.raises(FiberTooLargeError):
        enumerate_fiber(am, margins(am, start), size_cap=1)


def test_enumerate_fiber_closed_under_moves(c4):
    am = margin_map(c4)
    moves = cycle_markov_basis(4)
    start = Table({(1, 1, 1, 1): 2, (2, 2, 2, 2): 2})
    fib = enumerate_fiber(am, margins(am, start))
    assert start in fib
    for t in fib:
        for m in moves:
            for mm in (m, m.reverse()):
                if t.dominates(mm.minus):
                    assert apply_move(t, mm) in fib


def test_enumerate_fiber_seth_margins_contains_permuted_image():
    from fiberwalk.presets import resolve

    preset = resolve("seth-c4-3")
    am = margin_map(preset.graph)
    t = preset.pinned_table
    fib = enumerate_fiber(am, margins(am, t), size_cap=50_000)
    assert t in fib
    image = Table({(3 - s[0] if s[0] != 3 else 3,) + s[1:]: c for s, c in t.items()})
    assert image in fib and image != t
    assert len(fib) >= 2


def test_enumerate_fiber_beyond_recursion_limit():
    from fiberwalk.families import cycle_graph

    am = margin_map(cycle_graph(4, level=6))  # 1296 cells
    t = Table({(1, 2, 3, 4): 1})
    assert enumerate_fiber(am, margins(am, t)) == frozenset({t})


def test_verify_markov_basis_c4(c4):
    am = margin_map(c4)
    assert verify_markov_basis(cycle_markov_basis(4), am, 4).passed


def test_verify_markov_basis_quadrics_fail_with_quartic_witness(c4):
    am = margin_map(c4)
    verdict = verify_markov_basis(cycle_quadratic_moves(4), am, 4)
    assert not verdict.passed and verdict.witness_degree == 4
    u, v = verdict.witness
    assert margins(am, u) == margins(am, v)
    assert any({m.plus, m.minus} == {u, v} for m in cycle_quartic_moves(4))


def test_verify_markov_basis_budget():
    space = StateSpace((2,) * 6)
    from fiberwalk.graphs import LabeledGraph, margin_map as mm

    g = LabeledGraph.build(6, [(i, i + 1) for i in range(1, 6)], [2] * 6)
    with pytest.raises(TooLargeError):
        verify_markov_basis([], mm(g), 12)


def test_degree_enumeration_matches_multiset_count(c4):
    from math import comb

    from fiberwalk.engine import _degree_tables, unpack_table

    am = margin_map(c4)
    for d in (1, 2, 3, 4):
        pairs = list(_degree_tables(am, d))
        tables = [b for b, _ in pairs]
        assert len(tables) == comb(16 + d - 1, d)
        assert len(set(tables)) == len(tables)
        assert all(sum(b) == d for b in tables)
        # one key per margin tuple, ordered exactly as the tuples are
        tuples = {}
        for b, key in pairs:
            marg = margins(am, unpack_table(b, c4.levels))
            assert tuples.setdefault(key, marg) == marg
        assert len(set(tuples.values())) == len(tuples)
        assert [tuples[k] for k in sorted(tuples)] == sorted(tuples.values())


def test_pack_table_caps_degree_at_one_byte():
    # every cell fits a byte, but a move could pile all 256 units into one
    assert pack_table(pt(255, 0), N2) == bytes([255, 0])
    with pytest.raises(TooLargeError):
        pack_table(pt(200, 56), N2)
    with pytest.raises(TooLargeError):
        connected_component(pt(200, 100), JUMPS, N2)
