"""The compiled kernel must replicate the pure kernel bit for bit, and both
must give what trying every move in order gives.

The compiled module under test is built from the current `_fast.c` into a
temporary directory, so these tests never run on a stale build.  They skip
only when no C compiler is found.  Both kernels try only the moves their
index lets through for a table: the compiled one those filed under the
table's nonzero cells, the pure one those not blocked by its per-byte
tables of zero cells.  So the property tests at the end compare both with a
full scan written here, over tables that span several bytes of 8 cells, and
compare the pure kernel's unblocked moves with their definition.
"""

import importlib.util
import os
import random
import shlex
import shutil
import sysconfig
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fiberwalk
from fiberwalk._kernel import pure
from fiberwalk.engine import connected_component, pack_table
from fiberwalk.families import cycle_markov_basis, cycle_graph
from fiberwalk.graphs import global_markov_moves
from fiberwalk.k33 import k33_graph, k33_witness
from fiberwalk.tables import MAX_CELLS, Move, StateSpace, Table, state_index

from reference import members

KERNEL_SOURCE = Path(__file__).resolve().parents[1] / "src" / "fiberwalk" / "_kernel" / "_fast.c"
MODULE = "fiberwalk._kernel._fast"


@pytest.fixture(scope="module")
def fast(tmp_path_factory):
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"no C compiler found (CC={cc!r}); the compiled kernel cannot be built")
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    tmp = tmp_path_factory.mktemp("fast_kernel")
    cmd = build_ext(Distribution({"ext_modules": [Extension(MODULE, [str(KERNEL_SOURCE)])]}))
    cmd.build_lib, cmd.build_temp = str(tmp / "lib"), str(tmp / "temp")
    cmd.ensure_finalized()
    cmd.run()
    # loaded without entering sys.modules, so the suite's own backend is untouched
    spec = importlib.util.spec_from_file_location(MODULE, cmd.get_ext_fullpath(MODULE))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.BACKEND == "fast"
    return module


def as_pairs(moves, space):
    out = []
    for m in moves:
        minus = tuple((state_index(s, space), c) for s, c in m.minus.items())
        plus = tuple((state_index(s, space), c) for s, c in m.plus.items())
        out.append((minus, plus))
    return out


@pytest.fixture(scope="module")
def workload():
    g = cycle_graph(5)
    moves = as_pairs(cycle_markov_basis(5), g.levels)
    rng = random.Random(99)
    n = g.levels.total_cells
    tables = []
    for _ in range(300):
        cells = bytearray(n)
        for _ in range(rng.randint(1, 6)):
            cells[rng.randrange(n)] += 1
        tables.append(bytes(cells))
    return moves, tables


def test_neighbors_parity(fast, workload):
    moves, tables = workload
    pp, pf = pure.pack_moves(moves), fast.pack_moves(moves)
    assert len(pp) == len(pf) == len(moves)
    for t in tables:
        assert pure.forward_neighbors(t, pp) == fast.forward_neighbors(t, pf)
        assert pure.neighbors_signed(t, pp) == fast.neighbors_signed(t, pf)


def test_component_parity(fast, workload):
    moves, tables = workload
    pp, pf = pure.pack_moves(moves), fast.pack_moves(moves)
    for t in tables[:40]:
        vp, tp = pure.component(t, pp, 500)
        vf, tf = fast.component(t, pf, 500)
        assert (vp, tp) == (vf, tf)


def test_component_truncation_parity(fast, workload):
    moves, _ = workload
    g = cycle_graph(5)
    start = pack_table(
        Table({(1, 1, 1, 1, 1): 1, (2, 2, 2, 2, 2): 1, (1, 2, 1, 2, 1): 1, (2, 1, 2, 1, 2): 1}),
        g.levels,
    )
    pp, pf = pure.pack_moves(moves), fast.pack_moves(moves)
    for cap in (1, 2, 5, 11, 12, 13):
        assert pure.component(start, pp, cap) == fast.component(start, pf, cap)


def test_k33_component_parity(fast):
    g = k33_graph()
    wit = k33_witness()
    moves = as_pairs(global_markov_moves(g), g.levels)
    start = pack_table(wit.u_plus + wit.w + wit.w, g.levels)
    pp, pf = pure.pack_moves(moves), fast.pack_moves(moves)
    assert pure.component(start, pp, 4096) == fast.component(start, pf, 4096)


def test_fast_kernel_rejects_out_of_range_cells(fast):
    with pytest.raises(ValueError):
        fast.pack_moves([(((-1, 1),), ((0, 1),))])
    pm = fast.pack_moves([(((0, 1),), ((4, 1),))])
    short = bytes([1, 0, 0, 0])
    with pytest.raises(ValueError):
        fast.forward_neighbors(short, pm)
    with pytest.raises(ValueError):
        fast.neighbors_signed(short, pm)
    with pytest.raises(ValueError):
        fast.component(short, pm, 10)
    assert fast.forward_neighbors(short + b"\0", pm) == [bytes([0, 0, 0, 0, 1])]


def test_inplace_build_is_current():
    """An in-place build older than _fast.c would run the suite on an old kernel."""
    if fiberwalk.kernel_backend != "fast":
        return
    built = Path(fiberwalk._kernel.impl.__file__)
    source = built.with_name("_fast.c")  # absent when installed without sources
    # build_ext --inplace copies the module with its mtime cut to whole seconds
    if source.exists():
        assert int(built.stat().st_mtime) >= int(source.stat().st_mtime), (
            f"{built.name} is older than _fast.c; rerun `python setup.py build_ext --inplace`"
        )


# ---------------------------------------------------------------------------
# both kernels against a full scan over random packed move sets


@pytest.fixture(scope="module", params=["pure", "fast"])
def kernel(request):
    return pure if request.param == "pure" else request.getfixturevalue("fast")


def full_scan_apply(t, sub, add):
    if any(t[i] < c for i, c in sub):
        return None
    out = bytearray(t)
    for i, c in sub:
        out[i] -= c
    for i, c in add:
        out[i] += c
    return bytes(out)


def full_scan_signed(t, moves):
    out = []
    for k, (minus, plus) in enumerate(moves):
        for fwd, sub, add in ((True, minus, plus), (False, plus, minus)):
            nb = full_scan_apply(t, sub, add)
            if nb is not None:
                out.append((k, fwd, nb))
    return out


def full_scan_component(start, moves, cap):
    visited, frontier = {start}, [start]
    while frontier:
        nxt = []
        for t in sorted(frontier):
            for _, _, nb in full_scan_signed(t, moves):
                if nb not in visited:
                    if len(visited) >= cap:
                        return visited, True
                    visited.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return visited, False


@st.composite
def packed_cases(draw):
    """Degree-keeping moves over up to 20 cells, and tables over those cells.

    The cells span up to three bytes of the pure kernel's zero patterns.  A
    part may hold a cell more than once over (count > 1), may share cells
    with the other part, may carry a zero count, and may be empty (a move
    that subtracts nothing applies to every table).
    """
    n_cells = draw(st.integers(1, 20))
    cell = st.integers(0, n_cells - 1)
    moves = []
    for _ in range(draw(st.integers(0, 14))):
        minus = Counter(draw(st.lists(cell, max_size=4)))
        degree = sum(minus.values())
        plus = Counter(draw(st.lists(cell, min_size=degree, max_size=degree)))
        free = [c for c in range(n_cells) if c not in minus]
        if free and draw(st.booleans()):
            minus[draw(st.sampled_from(free))] = 0
        moves.append((
            tuple(draw(st.permutations(sorted(minus.items())))),
            tuple(draw(st.permutations(sorted(plus.items())))),
        ))
    table = st.lists(st.integers(0, 3), min_size=n_cells, max_size=n_cells).map(bytes)
    tables = draw(st.lists(table, min_size=1, max_size=6))
    return moves, tables


@given(packed_cases())
def test_neighbors_match_full_scan(kernel, case):
    moves, tables = case
    pm = kernel.pack_moves(moves)
    assert len(pm) == len(moves)
    for t in tables:
        signed = full_scan_signed(t, moves)
        assert kernel.neighbors_signed(t, pm) == signed
        assert kernel.forward_neighbors(t, pm) == [nb for _, fwd, nb in signed if fwd]


@given(packed_cases(), st.integers(1, 300))
def test_component_matches_full_scan(kernel, case, cap):
    moves, tables = case
    pm = kernel.pack_moves(moves)
    for t in tables[:2]:
        assert kernel.component(t, pm, cap) == full_scan_component(t, moves, cap)


@given(packed_cases(), st.integers(0, 17))
def test_pure_unblocked_moves_subtract_only_from_nonzero_cells(case, pad):
    """An index that let more moves through would still give the right
    images, as the borrow test rejects them, but would try them in vain.
    Zero cells that no move uses, appended to the table, block nothing."""
    moves, tables = case
    pm = pure.pack_moves(moves)
    for t in tables:
        want = 0
        for k, (minus, plus) in enumerate(moves):
            for d, sub in ((2 * k, minus), (2 * k + 1, plus)):
                if all(t[i] for i, c in sub if c > 0):
                    want |= 1 << d
        for table in (t, t + bytes(pad)):
            unblocked = pm.layout(len(table))[2]
            assert unblocked(table) == want


@st.composite
def byte_range_cases(draw):
    """A table at the edges of the one-byte cell range, and moves on it.

    The table has degree at most 255 and one cell that may hold all of it.
    Moves subtract counts just below, at and above what that cell holds, up
    to and past the table's degree and past a 16-bit field.  Their parts
    fall on the first cell (the most significant field of the pure kernel's
    ints), the last cell or any cell.  Moves keep their degree, so no image
    leaves the range.  The table has up to 20 cells, so the first and the
    last cell may fall in different bytes of the pure kernel's zero patterns.
    """
    n_cells = draw(st.integers(1, 20))
    edge = st.sampled_from([0, n_cells - 1]) | st.integers(0, n_cells - 1)
    table = bytearray(n_cells)
    big = draw(st.integers(0, 255))
    table[draw(edge)] = big
    spare = 255 - big
    for i in draw(st.lists(edge, max_size=4)):
        count = draw(st.integers(0, spare))
        table[i] += count
        spare -= count
    degree = 255 - spare
    counts = st.sampled_from(
        sorted({1, max(big - 1, 1), max(big, 1), big + 1, degree + 1, 2 ** 16 + 1}))
    moves = []
    for _ in range(draw(st.integers(1, 8))):
        minus = Counter()
        for _ in range(draw(st.integers(1, 2))):
            minus[draw(edge)] += draw(counts)
        k = sum(minus.values())
        first = draw(st.integers(0, k))
        plus = Counter({draw(edge): first})
        plus[draw(edge)] += k - first
        moves.append((tuple(sorted(minus.items())), tuple(sorted(plus.items()))))
    return moves, bytes(table)


@given(byte_range_cases(), st.integers(1, 60))
def test_byte_range_edges_match_full_scan(kernel, case, cap):
    moves, t = case
    pm = kernel.pack_moves(moves)
    signed = full_scan_signed(t, moves)
    assert kernel.neighbors_signed(t, pm) == signed
    assert kernel.forward_neighbors(t, pm) == [nb for _, fwd, nb in signed if fwd]
    assert kernel.component(t, pm, cap) == full_scan_component(t, moves, cap)


def test_closure_on_the_largest_space():
    """Two quadratic moves on 16 binary vertices, MAX_CELLS cells.

    On the path 1 - 2 - ... - 16, vertex 5 and vertex 12 each separate the
    vertices before them from those after, so swapping the coordinates past
    either of them between two states that agree there keeps every edge
    margin.  The pure kernel indexes only the bytes of zero patterns that
    hold a cell some move subtracts from: 6 cells, 6 of 8,192 bytes.
    """
    space = StateSpace((2,) * 16)
    assert space.total_cells == MAX_CELLS

    def state(code):
        return tuple(int(c) for c in code)

    u, v = state("1111111111111111"), state("2222122222212222")
    past5 = (state("1111122222212222"), state("2222111111111111"))
    past12 = (state("1111111111112222"), state("2222122222211111"))
    moves = [Move(Table(dict.fromkeys(plus, 1)), Table({u: 1, v: 1})) for plus in (past5, past12)]

    def edge_margins(states):
        return Counter((e, s[e], s[e + 1]) for s in states for e in range(15))

    for plus in (past5, past12):
        assert edge_margins(plus) == edge_margins((u, v))

    start = Table({u: 1, v: 1})
    expected = {start, Table(dict.fromkeys(past5, 1)), Table(dict.fromkeys(past12, 1))}
    rep = connected_component(start, moves, space)
    assert (rep.size, rep.truncated) == (3, False)
    assert set(members(rep)) == expected

    pm = pure.pack_moves(as_pairs(moves, space))
    assert pure.component(pack_table(start, space), pm, 10) == (
        {pack_table(m, space) for m in expected}, False)
    subtracted = {state_index(s, space) for s in (u, v, *past5, *past12)}
    index = pm.layout(MAX_CELLS)[3]
    assert set(index) == {(MAX_CELLS - 1 - i) // 8 for i in subtracted}
    assert len(index) == 6
