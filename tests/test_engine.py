import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberwalk.engine import (
    are_connected,
    connected_component,
    enumerate_fiber,
    pack_table,
    verify_markov_basis,
)
from fiberwalk.errors import (
    FiberTooLargeError,
    InvalidMoveError,
    InvalidStateError,
    MoveNotApplicableError,
    TooLargeError,
)
from fiberwalk.families import (
    K2NShape,
    cycle_graph,
    cycle_markov_basis,
    cycle_quadratic_moves,
    cycle_quartic_moves,
    k2n_graph,
    k2n_markov_basis,
    k2n_shape_of,
)
from fiberwalk.graphs import LabeledGraph, global_markov_moves, margin_map, margins
from fiberwalk.presets import resolve
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
    # a cap beyond any C size is no cap, on either kernel
    rep = connected_component(start, global_markov_moves(c4), c4.levels, node_cap=2 ** 63)
    assert not rep.truncated and rep.size == 2


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


C4_QUADRIC_WITNESS = (
    Table([((1, 2, 1, 2), 1), ((1, 2, 2, 1), 1), ((2, 1, 1, 1), 1), ((2, 1, 2, 2), 1)]),
    Table([((1, 2, 1, 1), 1), ((1, 2, 2, 2), 1), ((2, 1, 1, 2), 1), ((2, 1, 2, 1), 1)]),
)


@pytest.mark.parametrize("model, bound, expected", [
    ("c4-basis", 6, (True, 39873, None, None)),
    ("path3-global-markov", 6, (True, 13375, None, None)),
    ("c4-quadrics", 6, (False, 1666, 4, C4_QUADRIC_WITNESS)),
])
def test_verify_markov_basis_pins_higher_degrees(c4, model, bound, expected):
    graph, moves = {
        "c4-basis": (c4, cycle_markov_basis(4)),
        "path3-global-markov": (PATH3, global_markov_moves(PATH3)),
        "c4-quadrics": (c4, cycle_quadratic_moves(4)),
    }[model]
    verdict = verify_markov_basis(moves, margin_map(graph), bound)
    assert (verdict.passed, verdict.fibers_checked, verdict.witness_degree,
            verdict.witness) == expected


def test_verify_markov_basis_refuses_moves_that_change_margins(c4):
    # linked through a table outside their fiber, the quartic witness would
    # count as connected, and the check would run on to a later fiber
    am = margin_map(c4)
    quadrics = cycle_quadratic_moves(4)
    u, v = C4_QUADRIC_WITNESS
    x = Table({(1, 1, 1, 1): 4})
    moves = quadrics + [Move(x, u), Move(v, x)]
    with pytest.raises(InvalidMoveError, match=f"move {len(quadrics)} changes the margins"):
        verify_markov_basis(moves, am, 4)
    # the check refuses before it enumerates a table, whatever the degree bound
    with pytest.raises(InvalidMoveError, match="changes the margins"):
        verify_markov_basis(moves, am, 1)
    # parts above the byte range are compared by margin tuple: scaled by 256,
    # a count in the first cell, 1111, would carry into the margin key
    m = next(m for m in quadrics if (1, 1, 1, 1) in m.plus.support + m.minus.support)
    scaled = Move(m.plus.scale(256), m.minus.scale(256))
    assert verify_markov_basis(quadrics + [scaled], am, 3).passed


def test_verify_markov_basis_follows_chains_of_top_degree_moves():
    # three independent binary variables: the degree-2 fiber with every
    # margin (1, 1) holds four tables that share no cell; without three of
    # its six moves, its first table d reaches c by a move, b only through
    # c, and a only through b
    graph = LabeledGraph.build(3, [], [2, 2, 2])

    def pair(x, y):
        return Table([(x, 1), (y, 1)])

    a, b = pair((1, 1, 1), (2, 2, 2)), pair((1, 1, 2), (2, 2, 1))
    c, d = pair((1, 2, 1), (2, 1, 2)), pair((1, 2, 2), (2, 1, 1))
    moves = [m for m in global_markov_moves(graph)
             if {m.plus, m.minus} not in ({a, c}, {a, d}, {b, d})]
    assert len(moves) == 9
    verdict = verify_markov_basis(moves, margin_map(graph), 3)
    assert verdict.passed and verdict.fibers_checked == 99
    assert reference_verdict(moves, graph, 3) == (True, 99, None, None)


def test_occupied_cells_for_every_count():
    from fiberwalk.engine import _occupied

    ones = int.from_bytes(b"\x01" * 3, "big")
    key = 0b1011 << 24  # margin key bits above the cells stay out of the mask
    for c in range(256):
        for cells in ((c, 0, 0), (0, c, 255), (255, c, 1), (c, c, c)):
            x = key + int.from_bytes(bytes(cells), "big")
            assert _occupied(x, ones) == int.from_bytes(bytes(255 if b else 0 for b in cells), "big")


def test_a_bad_start_is_reported_before_bad_moves(c4):
    space = c4.levels
    good = Table({(1, 1, 1, 1): 1})
    bad = Table({(1, 1, 1, 1): 1, (1, 3, 1, 1): 1})
    bad_moves = [Move(Table({(5, 1, 1, 1): 1}), Table({(1, 1, 1, 2): 1}))]
    with pytest.raises(InvalidStateError, match=r"coordinate 2 of state \(1, 3, 1, 1\)"):
        connected_component(bad, bad_moves, space)
    with pytest.raises(InvalidStateError, match=r"coordinate 2 of state \(1, 3, 1, 1\)"):
        are_connected(good, bad, bad_moves, space)
    with pytest.raises(InvalidStateError, match=r"coordinate 1 of state \(5, 1, 1, 1\)"):
        connected_component(good, bad_moves, space)
    # the degree is checked before the states
    with pytest.raises(TooLargeError, match="packed byte range"):
        connected_component(bad + good.scale(255), [], space)


def test_verify_markov_basis_budget():
    space = StateSpace((2,) * 6)
    from fiberwalk.graphs import LabeledGraph, margin_map as mm

    g = LabeledGraph.build(6, [(i, i + 1) for i in range(1, 6)], [2] * 6)
    with pytest.raises(TooLargeError):
        verify_markov_basis([], mm(g), 12)


def test_degree_enumeration_matches_multiset_count(c4):
    from math import comb

    from fiberwalk.engine import _cell_codes, _degree_tables, unpack_table

    am = margin_map(c4)
    cells = 8 * 16
    for d in (1, 2, 3, 4):
        ints = _degree_tables(_cell_codes(am, d.bit_length() + 1), d)
        # the packed cells are the low bytes, big-endian; the margin key sits above
        pairs = [((t & ((1 << cells) - 1)).to_bytes(16, "big"), t >> cells) for t in ints]
        tables = [b for b, _ in pairs]
        assert len(tables) == comb(16 + d - 1, d)
        assert len(set(tables)) == len(tables)
        assert all(sum(b) == d for b in tables)
        assert all(pack_table(unpack_table(b, c4.levels), c4.levels) == b for b in tables)
        # the integers compare as (key, packed bytes) do
        assert sorted(ints) == [(k << cells) + int.from_bytes(b, "big")
                                for b, k in sorted(pairs, key=lambda p: (p[1], p[0]))]
        # one key per margin tuple, ordered exactly as the tuples are
        tuples = {}
        for b, key in pairs:
            marg = margins(am, unpack_table(b, c4.levels))
            assert tuples.setdefault(key, marg) == marg
        assert len(set(tuples.values())) == len(tuples)
        assert [tuples[k] for k in sorted(tuples)] == sorted(tuples.values())


def test_verify_markov_basis_refuses_degrees_above_byte_range(c4, monkeypatch):
    from fiberwalk import engine

    def enumerate_nothing(codes, degree):
        raise AssertionError("enumerated tables before refusing the degree")

    monkeypatch.setattr(engine, "_degree_tables", enumerate_nothing)
    am = margin_map(c4)
    with pytest.raises(TooLargeError, match="packed byte range"):
        verify_markov_basis(cycle_markov_basis(4), am, 256)


@functools.lru_cache(maxsize=None)
def _fibers(graph, degree):
    """Every table of the degree, and its fibers in margin-tuple order, each
    sorted by packed bytes; the same for every move set, so built once."""
    am, space = margin_map(graph), graph.levels
    tables = [Table([(s, 1) for s in combo])
              for combo in itertools.combinations_with_replacement(space.states(), degree)]
    fibers = {}
    for t in tables:
        fibers.setdefault(margins(am, t), []).append(t)
    return tables, [sorted(fibers[key], key=lambda t: pack_table(t, space))
                    for key in sorted(fibers)]


def reference_verdict(moves, graph, degree_bound):
    """verify_markov_basis by brute force: every move tried on every table
    with tables.apply_move, a union-find, then the canonical witness rule
    (lowest degree, smallest margin tuple, the two smallest tables by
    packed bytes in distinct components)."""
    checked = 0
    for d in range(1, degree_bound + 1):
        tables, fibers = _fibers(graph, d)
        parent = {t: t for t in tables}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for t in tables:
            for m in moves:
                try:
                    image = apply_move(t, m)
                except MoveNotApplicableError:
                    continue
                parent[find(t)] = find(image)
        for members in fibers:
            checked += 1
            apart = [t for t in members if find(t) != find(members[0])]
            if apart:
                return False, checked, d, (members[0], apart[0])
    return True, checked, None, None


PATH3 = LabeledGraph.build(3, [(1, 2), (2, 3)], [2, 3, 2])
REFERENCE_MODELS = {
    "c4": (cycle_graph(4), cycle_markov_basis(4)),
    "k22": (k2n_graph(K2NShape((2, 2))), k2n_markov_basis(K2NShape((2, 2)))),
    "path3": (PATH3, global_markov_moves(PATH3)),
}


@st.composite
def stray_moves(draw, states):
    """Degree 1-4, multi-count parts, and (nearly always) new margins."""
    e = draw(st.integers(1, 4))
    plus = draw(st.lists(st.sampled_from(states), min_size=e, max_size=e))
    rest = [s for s in states if s not in plus]
    minus = draw(st.lists(st.sampled_from(rest), min_size=e, max_size=e))
    return Move(Table([(s, 1) for s in plus]), Table([(s, 1) for s in minus]))


@st.composite
def basis_cases(draw):
    graph, basis = REFERENCE_MODELS[draw(st.sampled_from(sorted(REFERENCE_MODELS)))]
    states = list(graph.levels.states())
    if draw(st.booleans()):
        # most of the basis: fibers connect up to where a dropped move is needed
        dropped = draw(st.sets(st.sampled_from(basis), max_size=2))
        moves = [m for m in basis if m not in dropped]
    else:
        moves = []
    moves += draw(st.lists(st.sampled_from(basis), max_size=8))  # duplicates too
    doubled = draw(st.lists(st.sampled_from(basis), max_size=1))
    moves += [Move(m.plus.scale(2), m.minus.scale(2)) for m in doubled]
    moves += draw(st.lists(stray_moves(states), max_size=3))
    moves = draw(st.permutations(moves))
    return graph, moves, draw(st.sampled_from([4, 3, 2, 1] if len(states) <= 12 else [3, 2, 1]))


@settings(max_examples=100)
@given(basis_cases())
def test_verify_markov_basis_matches_brute_force(case):
    graph, moves, degree = case
    am = margin_map(graph)
    changing = [k for k, m in enumerate(moves) if margins(am, m.plus) != margins(am, m.minus)]
    if changing:
        with pytest.raises(InvalidMoveError, match=f"move {changing[0]} changes the margins"):
            verify_markov_basis(moves, am, degree)
        moves = [m for k, m in enumerate(moves) if k not in changing]
    verdict = verify_markov_basis(moves, am, degree)
    got = (verdict.passed, verdict.fibers_checked, verdict.witness_degree, verdict.witness)
    assert got == reference_verdict(moves, graph, degree)


@pytest.mark.parametrize("name", ["c4", "k23"])
def test_closed_form_basis_closures_are_whole_fibers(name):
    graph = resolve(name).graph
    basis = cycle_markov_basis(4) if name == "c4" else k2n_markov_basis(k2n_shape_of(graph))
    am = margin_map(graph)
    space = graph.levels
    assert verify_markov_basis(basis, am, 3).passed

    @settings(max_examples=50)
    @given(st.lists(st.sampled_from(list(space.states())), min_size=1, max_size=3))
    def closure_is_fiber(cells):
        t = Table([(s, 1) for s in cells])
        fiber = enumerate_fiber(am, margins(am, t))
        rep = connected_component(t, basis, space)
        assert rep.member_set == {pack_table(x, space) for x in fiber}

    closure_is_fiber()


def test_contains_looks_up_packed_members(c4):
    am = margin_map(c4)
    quartic = cycle_quartic_moves(4)[0]
    rep = connected_component(quartic.plus, global_markov_moves(c4), c4.levels)
    members = set(rep.members)
    fiber = enumerate_fiber(am, margins(am, quartic.plus))
    # the quadratic moves leave the quartic's other side out of the component
    assert quartic.minus in fiber and quartic.minus not in members
    assert rep.member_set == frozenset(rep.packed)
    for t in fiber | {Table.unit((1, 1, 1, 1)), Table()}:
        assert rep.contains(t) == (t in members)
    # tables that cannot be packed are not members
    for probe in (Table({(1, 1, 1, 1): 256}), Table({(1, 1, 1, 3): 1}), Table({(1, 1, 1): 1})):
        assert not rep.contains(probe)
    swap = Table({(1, 1, 1, 1): 1, (1, 2, 1, 2): 1})
    truncated = connected_component(swap, global_markov_moves(c4), c4.levels, node_cap=1)
    assert truncated.truncated and not truncated.contains(swap)


def test_pack_table_caps_degree_at_one_byte():
    # every cell fits a byte, but a move could pile all 256 units into one
    assert pack_table(pt(255, 0), N2) == bytes([255, 0])
    with pytest.raises(TooLargeError):
        pack_table(pt(200, 56), N2)
    with pytest.raises(TooLargeError):
        connected_component(pt(200, 100), JUMPS, N2)
