"""The compiled kernel must replicate the pure kernel bit for bit, and both
must give what trying every move in order gives.

The compiled module under test is built from the current `_fast.c` into a
temporary directory, so these tests never run on a stale build.  They skip
only when no C compiler is found.  Both kernels try only the moves their
support index files under a table's nonzero cells, so the property tests at
the end compare them with a full scan written here.
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
from fiberwalk.engine import pack_table
from fiberwalk.families import cycle_markov_basis, cycle_graph
from fiberwalk.graphs import global_markov_moves
from fiberwalk.k33 import k33_graph, k33_witness
from fiberwalk.tables import Table, state_index

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
    """Degree-keeping moves over a few cells, and tables over those cells.

    A part may hold a cell more than once over (count > 1), may share cells
    with the other part, may carry a zero count, and may be empty (a move
    that subtracts nothing applies to every table).
    """
    n_cells = draw(st.integers(1, 7))
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
