import hashlib
import itertools
import random
import re
from math import comb, prod

import pytest

from fiberwalk.engine import connected_component
from fiberwalk.errors import NoClosedFormError, TooLargeError, UnsupportedLevelsError
from fiberwalk.families import (
    MAX_CYCLE_N,
    MAX_K2N_WORK,
    K2NShape,
    closed_form_family,
    closed_form_primes,
    cycle_graph,
    cycle_markov_basis,
    cycle_prime_witnesses,
    cycle_quadratic_moves,
    cycle_quartic_moves,
    k2n_basis_work,
    k2n_facet_inequalities,
    k2n_graph,
    k2n_markov_basis,
    k2n_prime_witnesses,
    k2n_prime_work,
    k2n_quadratic_moves,
    k2n_quartic_moves,
    pyramid_prime_count,
    pyramid_prime_witnesses,
)
from fiberwalk.graphs import LabeledGraph, cone_graph, global_markov_moves, margin_map, margins
from fiberwalk.presets import resolve
from fiberwalk.tables import Move, Table

from reference import members


def keys(moves):
    return {m.key() for m in moves}


def digest(moves):
    return hashlib.sha256(repr([m.key() for m in moves]).encode()).hexdigest()


# count and sha256 of repr([m.key() for m in cycle_quadratic_moves(n)]), as
# built by the former two-cut swap generator
CYCLE_QUADRIC_PINS = {
    4: (8, "d33f73371e41f5fb68c870886142a486323e8a368daef6d04317eac7e636e750"),
    5: (80, "0555fa493d972e7c9eeefce21fb9f715e3eac8b217edf54d8a599c997e05c451"),
    6: (576, "73c298b213c65cadaf8ace83e48861186793053af813bd273b027143e977ad45"),
    7: (3584, "445278f4fabb247c3f37b2d2c6bec803c3e5be7fdf3f3296ec05303450b0b26a"),
    8: (20480, "8275cb581a718deb634c70ed0a829f86a6d5c4f9c8e68705d4b75d0031916df1"),
}


@pytest.mark.parametrize("n", sorted(CYCLE_QUADRIC_PINS))
def test_cycle_quadrics_pinned(n):
    moves = cycle_quadratic_moves(n)
    assert (len(moves), digest(moves)) == CYCLE_QUADRIC_PINS[n]


# count and sha256 of repr([m.key() for m in ...]), as built with a dedup pass
# over every sign pattern (cycles) and every slice choice (K(2,m))
CYCLE_QUARTIC_PINS = {
    3: (1, "15c8f963af24a456dda72a77ca06c51fcbc2eba50fe295fa3f6b73cae144179f"),
    4: (8, "94eb5aefbb63c3879b1f2e4252fb298b7a9fcb38581325c4b1f5609b76f97189"),
    5: (40, "c26785598254c763dd5f5778437507571b57834e16264ca950e235e304b26209"),
    6: (160, "9e326ed377c3015f3ebf45f31d1f0ee321a888bbdbef07690b2468e8ea5eb772"),
    7: (560, "225b247f8e099b795b2950512a5745c737e46d0a551fbd1c9d16999fd719777b"),
    8: (1792, "11a75d8480f264d9420291a9c4b5ac3be36ffb54c63e63cfd9c5dcd43e0d712a"),
}
K2N_QUARTIC_PINS = {
    (2, 2): (32, "bd24c856f059b9b09799b872956082be7e7f1ccef6da9af8256095426988a1b1"),
    (2, 3): (129, "8d9a1b6b1834a6a621cc29545dfefc8043888da502108c3e449c0abcd9203a72"),
    (2, 2, 2): (768, "3b956a01913b294d63b9d9ecb3c72a5b6401998d3aa57b15cd0472de22b18e59"),
    (3, 3): (486, "dfd52cec36fe97f9506cb313dd3c73f6c833769d9e58239b71d526f16dba551a"),
}


@pytest.mark.parametrize("n", sorted(CYCLE_QUARTIC_PINS))
def test_cycle_quartics_pinned_and_built_once(n):
    moves = cycle_quartic_moves(n)
    assert (len(moves), digest(moves)) == CYCLE_QUARTIC_PINS[n]
    # three cut positions, and one sign pattern per block up to flips
    assert len(moves) == comb(n, 3) * 2 ** (n - 3)


@pytest.mark.parametrize("free", sorted(K2N_QUARTIC_PINS))
def test_k2n_quartics_pinned_and_built_once(free):
    moves = k2n_quartic_moves(K2NShape(free))
    assert (len(moves), digest(moves)) == K2N_QUARTIC_PINS[free]
    # a distinguished vertex, two of its values, and the other vertices'
    # values in each of the four first-group slices
    assert len(moves) == sum(
        comb(d, 2) * prod(free[:a] + free[a + 1:]) ** 4 for a, d in enumerate(free)
    )


@pytest.mark.parametrize("n", range(4, MAX_CYCLE_N + 1))
def test_cycle_prime_witnesses_are_distinct(n):
    ws = [w for w in cycle_prime_witnesses(n) if not w.is_toric]
    assert len(ws) == comb(n, 3) * 2 ** (n - 3)
    assert len({w.table for w in ws}) == len(ws)


@pytest.mark.parametrize("free", [(2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2), (2, 6)])
def test_k2n_prime_witnesses_are_distinct(free):
    ws = [w for w in k2n_prime_witnesses(K2NShape(free)) if not w.is_toric]
    assert len({w.table for w in ws}) == len({w.id for w in ws}) == len(ws)


def swap_runs(m: Move) -> int:
    """Runs of the swapped side around the cycle: each position is 'a' where
    the minus part's first cell keeps the plus part's first cell's value and
    the two plus cells differ, 'b' where it takes the second's, and '.'
    where the plus cells agree; the dots dropped, the word is read as a ring."""
    (x, _), (y, _) = m.plus.items()
    p = m.minus.support[0]
    word = "".join("." if a == b else "a" if c == a else "b" for a, b, c in zip(x, y, p))
    ring = word.replace(".", "")
    # rotate so that the ring starts at a change, then count the groups
    start = next(i for i in range(len(ring)) if ring[i] != ring[i - 1])
    return sum(1 for _ in itertools.groupby(ring[start:] + ring[:start]))


@pytest.mark.parametrize("n", range(4, MAX_CYCLE_N + 1))
def test_cycle_quadrics_leave_out_only_interleaved_splits(n):
    every = global_markov_moves(cycle_graph(n))
    kept = keys(cycle_quadratic_moves(n))
    assert kept <= keys(every)
    left_out = [m for m in every if m.key() not in kept]
    assert {swap_runs(m) for m in every if m.key() in kept} == {2}
    # from n = 8 on, splits such as {1,5} | {3,7} given {2,4,6,8} alternate
    # four times around the cycle; no two cut positions give them
    assert len(left_out) == (128 if n == 8 else 0)
    assert all(swap_runs(m) == 4 for m in left_out)


def test_cycle_quartic_counts():
    assert len(cycle_quartic_moves(4)) == 8
    assert len(cycle_quartic_moves(5)) == 40
    assert len(cycle_quartic_moves(6)) == 160


def test_cycle_quartic_pinned_example():
    target = Move(
        Table({(1, 1, 1, 1): 1, (1, 2, 2, 2): 1, (2, 1, 2, 2): 1, (2, 2, 1, 1): 1}),
        Table({(1, 1, 2, 2): 1, (1, 2, 1, 1): 1, (2, 1, 1, 1): 1, (2, 2, 2, 2): 1}),
    ).canonical()
    assert target.key() in keys(cycle_quartic_moves(4))


def test_cycle_basis_guards():
    with pytest.raises(UnsupportedLevelsError):
        cycle_markov_basis(3)
    # the lone quartic of the no-three-way interaction model
    only = cycle_quartic_moves(3)
    assert len(only) == 1 and only[0].degree == 4
    assert cycle_quadratic_moves(3) == []


def test_cycle_witness_counts_and_shape(c4):
    w4 = cycle_prime_witnesses(4)
    w5 = cycle_prime_witnesses(5)
    assert len(w4) == 9 and len(w5) == 41
    assert sum(1 for w in w4 if w.is_toric) == 1
    for w in w4:
        if w.is_toric:
            continue
        assert w.table.degree == 8
        assert all(c == 1 for _, c in w.table.items())
        # the prime's variables are the cells off the witness support
        variables = set(c4.levels.states()) - set(w.table.support)
        assert len(variables) == 16 - 8
        assert set(w.table.support).isdisjoint(variables)


@pytest.mark.parametrize("n", [4, 5])
def test_cycle_witness_margins_never_strictly_positive(n):
    am = margin_map(cycle_graph(n))
    for w in cycle_prime_witnesses(n):
        if not w.is_toric:
            assert 0 in margins(am, w.table)


@pytest.mark.parametrize("n", [4, 5])
def test_cycle_moves_margin_neutral(n):
    am = margin_map(cycle_graph(n))
    for m in cycle_markov_basis(n):
        assert margins(am, m.plus) == margins(am, m.minus)


@pytest.mark.parametrize("n", [4, 5])
def test_quadrics_touch_cycle_primes_symmetrically(n):
    # a quadric uses a prime variable on its plus side iff it does on minus
    quads = cycle_quadratic_moves(n)
    for w in cycle_prime_witnesses(n):
        if w.is_toric:
            continue
        support = set(w.table.support)
        for m in quads:
            plus_touch = not set(m.plus.support) <= support
            minus_touch = not set(m.minus.support) <= support
            assert plus_touch == minus_touch


@pytest.mark.parametrize("n", [4, 5])
def test_every_cycle_prime_avoided_by_some_quartic(n):
    quartics = cycle_quartic_moves(n)
    for w in cycle_prime_witnesses(n):
        if w.is_toric:
            continue
        support = set(w.table.support)
        assert any(
            set(m.plus.support) <= support and set(m.minus.support) <= support
            for m in quartics
        )


# prod(d) diagonal swaps, one per second-group state, plus the block swaps
# inside the four (i,j)-slices: (2,3) has 6 and 4 * 3
K2N_QUADRATIC_COUNTS = {
    (2, 2): 8, (2, 3): 18, (3, 3): 45, (2, 2, 2): 56, (2, 4): 32, (2, 2, 3): 144,
    (2, 2, 2, 2): 416, (4, 4): 160, (2, 7): 98, (3, 3, 3): 999,
}


def test_k2n_quadratic_move_counts():
    counts = {free: len(k2n_quadratic_moves(K2NShape(free))) for free in K2N_QUADRATIC_COUNTS}
    assert counts == K2N_QUADRATIC_COUNTS


def test_k2n_first_group_swaps_present(k23_shape):
    quads = keys(k2n_quadratic_moves(k23_shape))
    for k in itertools.product((1, 2), repeat=3):
        m = Move(
            Table({(1, 1) + k: 1, (2, 2) + k: 1}),
            Table({(1, 2) + k: 1, (2, 1) + k: 1}),
        ).canonical()
        assert m.key() in quads


def test_k2n_quartics_margin_neutral_and_degree4(k22_shape, k22):
    am = margin_map(k22)
    quartics = k2n_quartic_moves(k22_shape)
    assert quartics
    for m in quartics:
        assert m.degree == 4
        assert margins(am, m.plus) == margins(am, m.minus)


def test_k2n_witness_counts(k22_shape, k23_shape):
    assert len(k2n_prime_witnesses(k22_shape)) == 9
    assert len(k2n_prime_witnesses(k23_shape)) == 37
    g48 = K2NShape((2, 4))
    assert len(k2n_prime_witnesses(g48)) == 201


def test_k2n_n4_requires_equal_slices(k22_shape):
    ids = [w.id for w in k2n_prime_witnesses(k22_shape) if not w.is_toric]
    assert all("a=3" in i and "b=3" in i or "a=4" in i and "b=4" in i for i in ids)


def test_k2n_witness_structure(k23_shape):
    space = k23_shape.space
    for w in k2n_prime_witnesses(k23_shape):
        if w.is_toric:
            continue
        pattern = r"P\[a=(\d),C=\{(\d+)\},b=(\d),D=\{(\d+)\}\]"
        a, c_set, b, d_set = re.fullmatch(pattern, w.id).groups()
        a, b = int(a), int(b)
        c_set, d_set = {int(k) for k in c_set}, {int(k) for k in d_set}
        # the slice prime's variables, as the paper defines them
        variables = {
            x for x in space.states()
            if x[:2] == (1, 1) and x[a - 1] in c_set
            or x[:2] == (1, 2) and x[b - 1] in d_set
            or x[:2] == (2, 1) and x[b - 1] not in d_set
            or x[:2] == (2, 2) and x[a - 1] not in c_set
        }
        assert len(variables) == 16
        assert set(w.table.support) == set(space.states()) - variables


def test_k2n_quads_touch_primes_symmetrically(k23_shape):
    quads = k2n_quadratic_moves(k23_shape)
    for w in k2n_prime_witnesses(k23_shape):
        if w.is_toric:
            continue
        support = set(w.table.support)
        for m in quads:
            assert (set(m.plus.support) <= support) == (set(m.minus.support) <= support)


def test_facet_inequality_counts(k22, k22_shape, k23, k23_shape):
    for g, shape, count in ((k22, k22_shape, 8), (k23, k23_shape, 24)):
        fams = k2n_facet_inequalities(shape, margin_map(g))
        assert len(fams) == len(set(fams)) == count


@pytest.mark.parametrize("free", [(2, 2), (2, 2, 2), (2, 2, 2, 2)])
def test_facet_inequalities_valid_on_unit_tables(free):
    shape = K2NShape(free)
    am = margin_map(k2n_graph(shape))
    fams = k2n_facet_inequalities(shape, am)
    for col in am.columns():
        assert all(f.evaluate(col) >= 0 for f in fams)


def test_matching_functional_vanishes_on_slice_primes(k23_shape):
    # P(a,C,b,D) with a != b sits exactly on the functional with the same
    # (a, C, b) and the complementary D
    am = margin_map(k2n_graph(k23_shape))
    fams = k2n_facet_inequalities(k23_shape, am)
    for w in k2n_prime_witnesses(k23_shape):
        if w.is_toric:
            continue
        a, b = re.match(r"P\[a=(\d+),.*b=(\d+),", w.id).groups()
        if a == b:
            continue
        y = margins(am, w.table)
        assert any(f.evaluate(y) == 0 for f in fams)


def test_quartic_times_diagonal_pad_connected_by_quadrics(k22_shape, k23_shape):
    # padding both quartic terms with a diagonal pair lets quadrics connect them
    rng = random.Random(9)
    for shape, sample in ((k22_shape, None), (k23_shape, 12)):
        g = k2n_graph(shape)
        quads = k2n_quadratic_moves(shape)
        quartics = k2n_quartic_moves(shape)
        if sample is not None:
            quartics = rng.sample(quartics, sample)
        k_states = list(itertools.product(*(range(1, d + 1) for d in shape.free_levels)))
        for f in quartics:
            k = rng.choice(k_states)
            pad = Table({(1, 1) + k: 1, (2, 2) + k: 1})
            rep = connected_component(f.plus + pad, quads, g.levels, node_cap=5000)
            assert not rep.truncated
            assert (f.minus + pad) in set(members(rep))


def test_pyramid_prime_count():
    assert pyramid_prime_count(9, 2) == 81
    assert pyramid_prime_count(1, 5) == 1
    assert pyramid_prime_count(41, 2) == 1681


def test_pyramid_witness_composition(c4):
    ws = pyramid_prime_witnesses(c4, cycle_prime_witnesses(4), 2)
    assert len(ws) == 81
    assert sum(1 for w in ws if w.is_toric) == 1
    # mixed layers: toric layer contributes all 16 cells, prime layer 8
    mixed = [w for w in ws if not w.is_toric and "toric" in w.id]
    assert mixed and all(len(w.table) == 16 + 8 for w in mixed)
    pure = [w for w in ws if not w.is_toric and "toric" not in w.id]
    assert pure and all(len(w.table) == 16 for w in pure)


def test_witness_dedup_is_stable(k23_shape):
    a = [w.id for w in k2n_prime_witnesses(k23_shape)]
    b = [w.id for w in k2n_prime_witnesses(k23_shape)]
    assert a == b
    assert len(set(a)) == len(a)


RELABELLED_C4 = LabeledGraph.build(4, [(1, 2), (2, 4), (4, 3), (3, 1)], [2] * 4)


@pytest.mark.parametrize("graph, family", [
    (resolve("c4").graph, "cycle"),
    (resolve("c5").graph, "cycle"),
    (resolve("c6").graph, "cycle"),
    (resolve("k22").graph, "k2n"),
    (resolve("k23").graph, "k2n"),
    (resolve("g48").graph, "k2n"),
    (resolve("k2n", k2n_levels=(3, 3)).graph, "k2n"),
    (resolve("square-pyramid").graph, "pyramid"),
    (resolve("k33").graph, None),
    (resolve("g154").graph, None),
    (resolve("seth-c4-3").graph, None),
    (RELABELLED_C4, None),
])
def test_closed_form_family_from_the_labelled_graph(graph, family):
    assert closed_form_family(graph) == family


def test_closed_form_primes_dispatch(c4, k23_shape):
    assert closed_form_primes(c4) == cycle_prime_witnesses(4)
    assert closed_form_primes(k2n_graph(k23_shape)) == k2n_prime_witnesses(k23_shape)
    pyramid = closed_form_primes(resolve("square-pyramid").graph)
    assert pyramid == pyramid_prime_witnesses(c4, cycle_prime_witnesses(4), 2)
    for graph in (RELABELLED_C4, resolve("seth-c4-3").graph):
        with pytest.raises(NoClosedFormError):
            closed_form_primes(graph)


def test_cycle_families_refuse_cycles_above_the_cap():
    n = MAX_CYCLE_N + 1
    for build in (cycle_quadratic_moves, cycle_quartic_moves, cycle_markov_basis,
                  cycle_prime_witnesses):
        with pytest.raises(TooLargeError):
            build(n)
    with pytest.raises(TooLargeError):
        closed_form_primes(cone_graph(cycle_graph(n), 2))


def test_k2n_families_refuse_shapes_above_the_cap():
    # quartics x 8 cells x N coordinates; (a, C, b, D) x cells
    k23, g48 = K2NShape((2, 2, 2)), K2NShape((2, 4))
    assert k2n_basis_work(k23) == 3 * 4 ** 4 * 8 * 5
    assert k2n_basis_work(g48) == (4 ** 4 + 6 * 2 ** 4) * 8 * 4
    assert len(k2n_quartic_moves(k23)) <= 3 * 4 ** 4
    assert k2n_prime_work(k23) == 3 * 3 * 2 * 2 * 32
    assert k2n_prime_work(g48) == (2 * 2 + 14 * 14) * 32
    # the largest sizes in use stay under the cap
    assert k2n_basis_work(K2NShape((2, 2, 2, 2))) <= MAX_K2N_WORK
    assert k2n_prime_work(K2NShape((2, 6))) <= MAX_K2N_WORK
    for shape in (K2NShape((2, 2, 2, 3)), K2NShape((2, 2, 20))):
        for build in (k2n_quartic_moves, k2n_markov_basis):
            with pytest.raises(TooLargeError):
                build(shape)
    for free in ((2, 7), (2, 8)):
        with pytest.raises(TooLargeError):
            k2n_prime_witnesses(K2NShape(free))
        with pytest.raises(TooLargeError):
            closed_form_primes(k2n_graph(K2NShape(free)))
