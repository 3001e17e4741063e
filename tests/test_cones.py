import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fiberwalk.cones import (
    Functional,
    _inverse_columns,
    _reduce,
    build_disconnection_witness,
    check_margin_property,
    cone_facets,
    facets_of_columns,
    find_disconnecting_move,
    integer_rank,
    is_relative_interior,
    is_strictly_positive,
)
from fiberwalk.errors import InvalidWitnessMoveError, TooLargeError
from fiberwalk.families import (
    cycle_prime_witnesses,
    k2n_facet_inequalities,
    k2n_prime_witnesses,
    k2n_quartic_moves,
)
from fiberwalk.graphs import margin_map, margins
from fiberwalk.presets import resolve
from fiberwalk.tables import Move, Table


def test_facets_orthant():
    fs = facets_of_columns([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert sorted(f.coeffs for f in fs) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_facets_single_ray_empty():
    assert facets_of_columns([(1, 2, 3)]) == []


def test_facets_column_budget():
    with pytest.raises(TooLargeError):
        facets_of_columns([(1, i) for i in range(200)])


def test_cone_facets_refuses_wide_maps_before_elimination(monkeypatch):
    from fiberwalk import cones

    calls = []
    monkeypatch.setattr(cones, "_independent_subset", lambda vectors: calls.append(1) or [])
    am = margin_map(resolve("k2n", k2n_levels=(2, 80)).graph)
    with pytest.raises(TooLargeError, match="640 columns exceed the budget of 128"):
        cone_facets(am)
    assert calls == []


# facet count and sha256 of the sorted facet list (compact JSON) per preset:
# facet enumeration must reproduce these lists byte for byte
PINNED_FACETS = {
    "c4": (24, "897b0a2a029422a685ff2fd97699731c61cfe0846b80e0887d630c4ab79a4b16"),
    "c5": (36, "b5bdee14eaf1b7f8149f83122d536c4717975347b4f7dbfa67bf89cea0e39503"),
    "k23": (48, "34b49341276cb3e0d3f952d3dde67290fad12165302ea228d4fb431dfd491e00"),
    "g48": (80, "78457ba660f9c89956506f7c1d00106f81214ee28476ad6772239bf396eddad7"),
    "square-pyramid": (48, "ceedfbe0cee12adcd79bc7c33a3c7e8f28ada2690cc0ea903d546211acf1e112"),
    "seth-c4-3": (1116, "eab7f6d03425eba1f0cae2d9ab82f1e653bcc21c8315ff48cb8d5f906c288b68"),
    "k33": (684, "7e6e2d4a6b46bda7333fc9d8f12bac8163e3b9690bc0b193e83c5fd68fd49c0f"),
}


@pytest.mark.parametrize("name", sorted(PINNED_FACETS))
def test_preset_facet_lists_are_pinned(name, preset_facets):
    facets = preset_facets(name)
    coeffs = [f.coeffs for f in facets]
    assert coeffs == sorted(coeffs)
    blob = json.dumps(coeffs, separators=(",", ":")).encode()
    assert (len(facets), hashlib.sha256(blob).hexdigest()) == PINNED_FACETS[name]


def _rref(rows, n):
    """Reduced row echelon form over the rationals: (rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(n):
        piv = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        top = len(pivots)
        rows[top], rows[piv] = rows[piv], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[top])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def _primitive(vec):
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def brute_force_facets(cols):
    """Facet normals from every (r-1)-subset of the columns, in their span."""
    d = len(cols[0])
    basis = []
    for c in cols:
        if len(_rref(basis + [c], d)[1]) > len(basis):
            basis.append(c)
    r = len(basis)
    if r <= 1:
        return []  # a ray, a line or the origin: no facets by convention
    normals = set()
    for sub in itertools.combinations(cols, r - 1):
        # h = sum z_k basis_k with h . s = 0 for every s in the subset
        eqs = [[sum(a * b for a, b in zip(bk, s)) for bk in basis] for s in sub]
        red, pivots = _rref(eqs, r)
        if len(pivots) != r - 1:
            continue
        free = next(k for k in range(r) if k not in pivots)
        z = [Fraction(0)] * r
        z[free] = Fraction(1)
        for row, p in zip(red, pivots):
            z[p] = -row[free]
        h = _primitive([sum(zk * bk[i] for zk, bk in zip(z, basis)) for i in range(d)])
        vals = [sum(a * b for a, b in zip(h, c)) for c in cols]
        if all(v <= 0 for v in vals):
            h, vals = tuple(-x for x in h), [-v for v in vals]
        if all(v >= 0 for v in vals) and any(vals):
            normals.add(h)
    return sorted(normals)


@st.composite
def column_sets(draw):
    """<= 8 integer columns of dimension <= 5 whose span has rank <= k.

    Columns are combinations of k generators, mostly with nonnegative
    coefficients (pointed cones), plus zero and duplicate columns.
    """
    d = draw(st.integers(2, 5))
    k = draw(st.integers(2, d))
    gens = draw(st.lists(st.lists(st.integers(-2, 3), min_size=d, max_size=d),
                         min_size=k, max_size=k))
    low = draw(st.sampled_from([0, 0, 0, -1]))
    coefs = draw(st.lists(st.lists(st.integers(low, 2), min_size=k, max_size=k),
                          min_size=2, max_size=8))
    cols = [tuple(sum(a * g[i] for a, g in zip(cs, gens)) for i in range(d)) for cs in coefs]
    extra = draw(st.lists(st.sampled_from(cols + [(0,) * d]), max_size=2))
    return (cols + extra)[:8]


@settings(max_examples=300)
@given(column_sets(), st.randoms(use_true_random=False))
def test_facets_match_brute_force(cols, rng):
    got = [f.coeffs for f in facets_of_columns(cols)]
    assert got == brute_force_facets(cols)
    shuffled = cols[:]
    rng.shuffle(shuffled)
    assert [f.coeffs for f in facets_of_columns(shuffled)] == got


@st.composite
def full_rank_matrices(draw):
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(len(_rref(rows, n)[1]) == n)
    return rows


@given(full_rank_matrices())
def test_inverse_columns_match_a_fraction_solve(rows):
    n = len(rows)
    got = _inverse_columns([tuple(row) for row in rows])
    for j, col in enumerate(got):
        assert _reduce(col) == col
        image = [sum(a * b for a, b in zip(row, col)) for row in rows]
        assert image[j] > 0
        assert image[:j] + image[j + 1:] == [0] * (n - 1)
    # [rows | I] reduces to [I | rows^-1]; column j of the inverse, made
    # primitive, is the expected r_j
    inverse, _ = _rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)], 2 * n)
    assert got == [_primitive([inverse[i][n + j] for i in range(n)]) for j in range(n)]


@pytest.mark.parametrize("name", ["c5", "k23", "g48", "square-pyramid"])
def test_facets_do_not_depend_on_column_order(name):
    # 32 columns: the adjacency tables of every insertion span several bytes
    cols = margin_map(resolve(name).graph).columns()
    rng = random.Random(name)
    for _ in range(3):
        rng.shuffle(cols)
        coeffs = [f.coeffs for f in facets_of_columns(cols)]
        blob = json.dumps(coeffs, separators=(",", ":")).encode()
        assert (len(coeffs), hashlib.sha256(blob).hexdigest()) == PINNED_FACETS[name]


def _cell_symmetries(g):
    """Cell maps of every graph automorphism and, per vertex, of a
    transposition and a cycle of its levels."""
    n, levels = g.n_vertices, g.levels.levels
    maps = []
    for perm in itertools.permutations(range(n)):
        if all(levels[perm[v]] == levels[v] for v in range(n)) and {
            tuple(sorted((perm[u - 1] + 1, perm[v - 1] + 1))) for u, v in g.edges
        } == g.edges:
            maps.append(lambda x, perm=perm: tuple(x[perm.index(w)] for w in range(n)))
    for v in range(n):
        d = levels[v]
        for relabel in ({1: 2, 2: 1}, {k: k % d + 1 for k in range(1, d + 1)}):
            maps.append(lambda x, v=v, relabel=relabel: x[:v] + (relabel.get(x[v], x[v]),) + x[v + 1:])
    return maps


@pytest.mark.parametrize("name", ["seth-c4-3", "k33"])
def test_facet_lists_are_closed_under_symmetries(name, preset_facets):
    am = margin_map(resolve(name).graph)
    states = list(am.space.states())
    supports = [set() for _ in range(am.n_rows)]
    for idx, x in enumerate(states):
        for row in am.rows_of_cell(idx):
            supports[row].add(x)
    row_of = {frozenset(s): row for row, s in enumerate(supports)}
    facets = {f.coeffs for f in preset_facets(name)}
    symmetries = _cell_symmetries(am.graph)
    assert len(symmetries) == {"seth-c4-3": 8 + 8, "k33": 72 + 12}[name]
    for sigma in symmetries:
        # a cell symmetry permutes the margin rows: row i goes to the row
        # whose support is the image of row i's support
        target = [row_of[frozenset(map(sigma, s))] for s in supports]
        for h in facets:
            image = [0] * am.n_rows
            for i, c in enumerate(h):
                image[target[i]] = c
            assert tuple(image) in facets


def test_facet_exactness_on_preset_cones(c4, c5, k23):
    # every facet is >= 0 on all columns and tight on a rank-(r-1) subset
    for g in (c4, c5, k23):
        am = margin_map(g)
        cols = am.columns()
        r = integer_rank(cols)
        for f in cone_facets(am):
            evals = [f.evaluate(c) for c in cols]
            assert all(v >= 0 for v in evals)
            tight = [c for c, v in zip(cols, evals) if v == 0]
            assert integer_rank(tight) == r - 1


def test_k22_facets_contain_family_inequalities(k22, k22_shape):
    am = margin_map(k22)
    cols = am.columns()
    facet_evals = {_reduce(tuple(f.evaluate(c) for c in cols)) for f in cone_facets(am)}
    fam = k2n_facet_inequalities(k22_shape, am)
    assert len(fam) == 8
    for f in fam:
        ev = _reduce(tuple(f.evaluate(c) for c in cols))
        assert ev in facet_evals


def test_strict_positivity():
    assert is_strictly_positive((1, 2, 3))
    assert not is_strictly_positive((1, 0, 3))
    assert is_strictly_positive(())


def test_relative_interior_full_table(c4):
    am = margin_map(c4)
    facets = cone_facets(am)
    full = Table({s: 1 for s in c4.levels.states()})
    assert is_relative_interior(am, margins(am, full), facets)
    unit = Table.unit((1, 1, 1, 1))
    assert not is_relative_interior(am, margins(am, unit), facets)


def test_relative_interior_seth_margins(preset_facets):
    preset = resolve("seth-c4-3")
    am = margin_map(preset.graph)
    facets = preset_facets("seth-c4-3")  # rank-25 cone, still within the facet budget
    assert is_relative_interior(am, margins(am, preset.pinned_table), facets)


def test_relative_interior_implies_strict_positivity(c4):
    # margin rows are valid inequalities of these cones, so interior points
    # must have strictly positive margins; checked instance by instance
    import random

    am = margin_map(c4)
    facets = cone_facets(am)
    rng = random.Random(31)
    states = list(c4.levels.states())
    for _ in range(60):
        t = Table({s: rng.randint(1, 3) for s in rng.sample(states, rng.randint(1, 8))})
        y = margins(am, t)
        if is_relative_interior(am, y, facets):
            assert is_strictly_positive(y)


def test_cycle_witness_margins_fail_strict_positivity(c4):
    # the pinned quartic support misses two diagonal pairs on some edge
    am = margin_map(c4)
    pinned = Table(
        {(1, 1, 1, 1): 1, (1, 2, 2, 2): 1, (2, 1, 2, 2): 1, (2, 2, 1, 1): 1,
         (1, 1, 2, 2): 1, (1, 2, 1, 1): 1, (2, 1, 1, 1): 1, (2, 2, 2, 2): 1}
    )
    w = next(w for w in cycle_prime_witnesses(4) if w.table == pinned)
    y = margins(am, w.table)
    assert not is_strictly_positive(y)
    # edge (3,4) block misses the off-diagonal cells
    ci = am.cliques.index((3, 4))
    block = y[am.block_starts[ci] : am.block_starts[ci] + 4]
    assert block == (4, 0, 0, 4)


def test_check_margin_property_c4(c4):
    am = margin_map(c4)
    ws = [w for w in cycle_prime_witnesses(4) if not w.is_toric]
    assert check_margin_property(ws, am).holds
    assert check_margin_property(ws, am, cone_facets(am)).holds


def test_check_margin_property_k23(k23, k23_shape):
    am = margin_map(k23)
    ws = [w for w in k2n_prime_witnesses(k23_shape) if not w.is_toric]
    verdict = check_margin_property(ws, am)
    assert not verdict.holds
    assert verdict.failing_witness.id == "P[a=3,C={1},b=4,D={1}]"
    assert check_margin_property(ws, am, cone_facets(am)).holds
    fam = k2n_facet_inequalities(k23_shape, am)
    assert check_margin_property(ws, am, fam).holds


def test_check_margin_property_permutation_invariant(k23, k23_shape):
    am = margin_map(k23)
    ws = [w for w in k2n_prime_witnesses(k23_shape) if not w.is_toric]
    rng = random.Random(23)
    shuffled = ws[:]
    rng.shuffle(shuffled)
    a = check_margin_property(ws, am)
    b = check_margin_property(shuffled, am)
    assert a.holds == b.holds
    assert a.failing_witness.id == b.failing_witness.id


def test_build_disconnection_witness(k23, k23_shape):
    am = margin_map(k23)
    w = next(
        x for x in k2n_prime_witnesses(k23_shape) if x.id == "P[a=3,C={1},b=4,D={1}]"
    )
    f = find_disconnecting_move(k2n_quartic_moves(k23_shape), w)
    u0, v0 = build_disconnection_witness(w, f, 0, am)
    assert (u0, v0) == (f.plus, f.minus)
    u, v = build_disconnection_witness(w, f, 1, am)
    assert u.degree == 20 and v.degree == 20
    assert margins(am, u) == margins(am, v)
    assert is_strictly_positive(margins(am, u))


def test_build_disconnection_witness_rejects_touching_move(k23, k23_shape):
    w = next(
        x for x in k2n_prime_witnesses(k23_shape) if x.id == "P[a=3,C={1},b=4,D={1}]"
    )
    var = sorted(w.variables)[0]
    other = sorted(w.table.support)[0]
    bad = Move(Table({var: 1}), Table({other: 1}))
    with pytest.raises(InvalidWitnessMoveError):
        build_disconnection_witness(w, bad, 1, margin_map(k23))


def test_functional_primitive():
    f = Functional((2, 4, -6))
    assert f.coeffs == (1, 2, -3)
    assert f.evaluate((1, 1, 1)) == 0
