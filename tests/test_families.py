import itertools
import random

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


def keys(moves):
    return {m.key() for m in moves}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cycle_quadrics_match_global_markov_moves(n):
    assert keys(cycle_quadratic_moves(n)) == keys(global_markov_moves(cycle_graph(n)))


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


def test_cycle_witness_counts_and_shape():
    w4 = cycle_prime_witnesses(4)
    w5 = cycle_prime_witnesses(5)
    assert len(w4) == 9 and len(w5) == 41
    assert sum(1 for w in w4 if w.is_toric) == 1
    for w in w4:
        if w.is_toric:
            continue
        assert w.table.degree == 8
        assert all(c == 1 for _, c in w.table.items())
        assert len(w.variables) == 16 - 8
        assert set(w.table.support).isdisjoint(w.variables)


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
        for m in quads:
            plus_touch = bool(set(m.plus.support) & w.variables)
            minus_touch = bool(set(m.minus.support) & w.variables)
            assert plus_touch == minus_touch


@pytest.mark.parametrize("n", [4, 5])
def test_every_cycle_prime_avoided_by_some_quartic(n):
    quartics = cycle_quartic_moves(n)
    for w in cycle_prime_witnesses(n):
        if w.is_toric:
            continue
        assert any(
            set(m.plus.support).isdisjoint(w.variables)
            and set(m.minus.support).isdisjoint(w.variables)
            for m in quartics
        )


def test_k2n_quadrics_match_global_markov_moves(k23_shape, k23):
    assert keys(k2n_quadratic_moves(k23_shape)) == keys(global_markov_moves(k23))


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
        assert len(w.variables) == 16
        assert set(w.table.support) == set(space.states()) - w.variables


def test_k2n_quads_touch_primes_symmetrically(k23_shape):
    quads = k2n_quadratic_moves(k23_shape)
    for w in k2n_prime_witnesses(k23_shape):
        if w.is_toric:
            continue
        for m in quads:
            assert bool(set(m.plus.support) & w.variables) == bool(
                set(m.minus.support) & w.variables
            )


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
    import re

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
            assert (f.minus + pad) in set(rep.members)


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
    # quartics (before dedup) x 8 cells x N coordinates; (a, C, b, D) x cells
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
