import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fiberwalk.cones import (
    Functional,
    _extreme_rays,
    _inverse_columns,
    _reduce,
    _transpose,
    build_disconnection_witness,
    check_margin_property,
    cone_facets,
    facets_of_columns,
    find_disconnecting_move,
    integer_rank,
    is_relative_interior,
    is_strictly_positive,
)
from fiberwalk.engine import connected_component, enumerate_fiber
from fiberwalk.errors import InvalidWitnessMoveError, TooLargeError
from fiberwalk.families import (
    cycle_prime_witnesses,
    k2n_facet_inequalities,
    k2n_prime_witnesses,
    k2n_quartic_moves,
)
from fiberwalk.graphs import global_markov_moves, margin_map, margins
from fiberwalk.presets import resolve
from fiberwalk.tables import Move, Table

from reference import members


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


# shape (constraints, rank, rays) and sha256 of the raw `_extreme_rays` output
# (compact JSON, in the order returned) on the matrix `facets_of_columns`
# builds per preset; the facet pins sort their lists, so they cannot see a
# change of insertion or ray order
PINNED_RAYS = {
    "seth-c4-3": (81, 25, 1116, "a71a45869444df01aa55f5974cca2b2a87b15f86bf62e7e5a90230869ad54710"),
    "k33": (64, 16, 684, "eb9582a47d70867e93e4de8e96594e9dd300fc003ef25f53ad728655f2d0871c"),
}


@pytest.mark.parametrize("name", sorted(PINNED_RAYS))
def test_raw_extreme_rays_are_pinned(name):
    from fiberwalk import cones

    seen = []

    def record(constraints):
        rays = _extreme_rays(constraints)
        seen.append((len(constraints), len(constraints[0]), rays))
        return rays

    with mock.patch.object(cones, "_extreme_rays", record):
        cone_facets(margin_map(resolve(name).graph))
    [(n, r, rays)] = seen
    blob = json.dumps(rays, separators=(",", ":")).encode()
    assert (n, r, len(rays), hashlib.sha256(blob).hexdigest()) == PINNED_RAYS[name]


@st.composite
def pointed_cone_matrices(draw):
    """20-30 rows of rank r in 4..5, each with m . (1, ..., 1) > 0, so that
    {z : Mz >= 0} is full-dimensional and pointed.  Enough insertions kill
    and replace rays for the ray ids to be renumbered."""
    r = draw(st.integers(4, 5))
    rows = []
    for _ in range(draw(st.integers(20, 30))):
        row = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
        row[0] += max(0, 1 - sum(row))
        rows.append(tuple(row))
    assume(integer_rank(rows) == r)
    return rows


@settings(max_examples=40)
@given(pointed_cone_matrices())
def test_extreme_rays_are_exact_across_renumbering(rows):
    from fiberwalk import cones

    r = len(rows[0])
    firsts = []

    def spy(masks, width, first=0):
        firsts.append(first)
        return _transpose(masks, width, first)

    # the first transpose builds the starting bitsets from id 0, and each
    # step's transpose numbers its new rays from n_ids >= r > 0; a later
    # transpose from id 0 renumbers
    with mock.patch.object(cones, "_transpose", spy):
        rays = _extreme_rays(rows)
    assert firsts[0] == 0 and 0 in firsts[1:]
    for z in rays:
        assert _reduce(z) == z and any(z)
        vals = [sum(a * b for a, b in zip(row, z)) for row in rows]
        assert min(vals) >= 0
        assert integer_rank([row for row, v in zip(rows, vals) if v == 0]) == r - 1
    assert len(set(rays)) == len(rays)
    assert not set(rays) & {tuple(-x for x in z) for z in rays}
    assert set(_extreme_rays(rows[::-1])) == set(rays)


@given(
    st.integers(1, 70).flatmap(
        lambda width: st.tuples(
            st.just(width),
            st.lists(st.integers(0, 2**width - 1), max_size=40),
            st.integers(0, 100),
        )
    )
)
@example((1, [], 0))
@example((9, [0, 1, 0, 0b101], 3))
def test_transpose_matches_its_definition(case):
    width, masks, first = case
    expected = [
        sum(1 << (first + i) for i, t in enumerate(masks) if t >> c & 1) for c in range(width)
    ]
    assert _transpose(masks, width, first) == expected
    assert _transpose(masks, width) == [s >> first for s in expected]


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
    unit = Table({(1, 1, 1, 1): 1})
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


def test_k23_counterexample_splits_its_whole_fiber(k23, k23_shape):
    # the witness-disconnect pair at c = 1: strictly positive margins, yet the
    # quadratic moves split its fiber, and u's component leaves v out
    am = margin_map(k23)
    w = next(
        x for x in k2n_prime_witnesses(k23_shape) if x.id == "P[a=3,C={1},b=4,D={1}]"
    )
    f = find_disconnecting_move(k2n_quartic_moves(k23_shape), w)
    u, v = build_disconnection_witness(w, f, 1, am)
    assert u.degree == 20 and is_strictly_positive(margins(am, u))
    fiber = enumerate_fiber(am, margins(am, u))
    assert len(fiber) == 196 and {u, v} <= fiber
    components = _quadric_components(fiber, k23)
    assert sorted(map(len, components)) == [1, 1, 16, 16, 81, 81]
    (home,) = [comp for comp in components if u in comp]
    assert len(home) == 81 and v not in home


def test_k23_positive_margins_split_at_degree_8(k23, preset_facets):
    # a strictly positive fiber on the cone's boundary, well below the
    # degree-20 witness pair: its 8 tables fall into two components of 4
    am = margin_map(k23)
    cells = ("11111", "11121", "12111", "12212", "21121", "21222", "22211", "22221")
    t = Table({tuple(map(int, c)): 1 for c in cells})
    y = margins(am, t)
    assert y == (3, 1, 1, 3, 3, 1, 1, 3, 3, 1, 3, 1, 3, 1, 1, 3, 1, 3, 3, 1, 3, 1, 3, 1)
    assert is_strictly_positive(y)
    assert not is_relative_interior(am, y, preset_facets("k23"))
    fiber = enumerate_fiber(am, y)
    assert len(fiber) == 8 and t in fiber
    assert sorted(map(len, _quadric_components(fiber, k23))) == [4, 4]


def _quadric_components(fiber, g):
    """The fiber's components under the graph's quadratic moves."""
    moves = global_markov_moves(g)
    left, components = set(fiber), []
    while left:
        comp = set(members(connected_component(min(left), moves, g.levels)))
        assert comp <= left
        left -= comp
        components.append(comp)
    return components


def _strictly_positive_table(am, degree, rng):
    """A random table of degree at least `degree` with every margin positive:
    while some row is empty, add a random cell of that row, then random cells."""
    states = am.space.states_by_index
    counts = [0] * len(states)
    covered = [0] * am.n_rows
    while 0 in covered or sum(counts) < degree:
        if 0 in covered:
            row = covered.index(0)
            i = rng.choice([i for i in range(len(states)) if row in am.rows_of_cell(i)])
        else:
            i = rng.randrange(len(states))
        counts[i] += 1
        for row in am.rows_of_cell(i):
            covered[row] += 1
    return Table({s: c for s, c in zip(states, counts) if c})


# Table 1's positive-margins rows, at degrees whose fibers list in well under
# 0.1 s (up to about 1,100 tables)
@pytest.mark.parametrize("name, degrees", [
    ("c4", (8, 12)), ("c5", (8, 9)), ("g48", (8, 10)), ("square-pyramid", (8, 10)),
])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_positive_margin_fibers_are_connected_by_quadrics(name, degrees, data):
    from fiberwalk.presets import table1_expected

    assert table1_expected()[name]["positive_margins"] is True
    g = resolve(name).graph
    am = margin_map(g)
    rng = data.draw(st.randoms(use_true_random=False))
    start = _strictly_positive_table(am, data.draw(st.integers(*degrees)), rng)
    key = margins(am, start)
    assert is_strictly_positive(key)
    component = set(members(connected_component(start, global_markov_moves(g), g.levels)))
    assert component == set(enumerate_fiber(am, key))


# Table 1's interior-point rows (all five), at degrees whose drawn fibers
# list in well under 0.1 s
@pytest.mark.parametrize("name, degrees", [
    ("c4", (6, 14)), ("c5", (6, 9)), ("g48", (8, 12)), ("square-pyramid", (10, 14)),
    ("k23", (6, 11)),
])
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_interior_margin_fibers_are_connected_by_quadrics(name, degrees, data, preset_facets):
    from fiberwalk.presets import table1_expected

    assert table1_expected()[name]["interior_point"] is True
    g = resolve(name).graph
    am = margin_map(g)
    rng = data.draw(st.randoms(use_true_random=False))
    start = _strictly_positive_table(am, data.draw(st.integers(*degrees)), rng)
    key = margins(am, start)
    assume(is_relative_interior(am, key, preset_facets(name)))
    component = set(members(connected_component(start, global_markov_moves(g), g.levels)))
    assert component == set(enumerate_fiber(am, key))


@pytest.mark.parametrize("c", [1, 2])
def test_k23_counterexamples_lie_on_the_cone_boundary(c, k23, k23_shape, preset_facets):
    # k23 has positive_margins false but interior_point true: the
    # witness-disconnect pairs split a strictly positive fiber, so their
    # margins must sit on a facet
    am = margin_map(k23)
    w = next(
        x for x in k2n_prime_witnesses(k23_shape) if x.id == "P[a=3,C={1},b=4,D={1}]"
    )
    u, v = build_disconnection_witness(w, find_disconnecting_move(k2n_quartic_moves(k23_shape), w),
                                       c, am)
    key = margins(am, u)
    assert margins(am, v) == key and is_strictly_positive(key)
    assert not is_relative_interior(am, key, preset_facets("k23"))


def test_build_disconnection_witness_rejects_touching_move(k23, k23_shape):
    w = next(
        x for x in k2n_prime_witnesses(k23_shape) if x.id == "P[a=3,C={1},b=4,D={1}]"
    )
    support = set(w.table.support)
    var = next(x for x in k23.levels.states() if x not in support)
    other = sorted(support)[0]
    bad = Move(Table({var: 1}), Table({other: 1}))
    with pytest.raises(InvalidWitnessMoveError):
        build_disconnection_witness(w, bad, 1, margin_map(k23))


def test_functional_primitive():
    f = Functional((2, 4, -6))
    assert f.coeffs == (1, 2, -3)
    assert f.evaluate((1, 1, 1)) == 0
