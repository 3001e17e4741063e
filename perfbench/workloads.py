#!/usr/bin/env python3
"""Seeded inputs and known answers for the benchmark workloads.

    python3 perfbench/workloads.py --workload walk --seed 7 --out DIR

writes the input files of one workload run into DIR, plus `plan.json`:
the instance list (the `fiberwalk` argv of each instance) and the answer
each instance must give.  The same seed writes byte-identical files.

The seed never changes how much work an instance is.  It shuffles and
re-orients move lists, and maps the pinned tables and graphs through a
symmetry (a graph automorphism plus per-vertex level flips, or a vertex
relabeling).  Fiber sizes, component sizes, facet counts and verdicts are
invariant under those maps, so runs made with different seeds time the
same questions asked in different coordinates.

Answers that are not pinned numbers are computed here, before any timing,
by code other than the code path an instance times: fiber enumeration for
closures under a Markov basis, and a breadth-first search over
`tables.apply_move` for closures under moves that are not one.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("basis", "walk", "cone")

WHY = {
    "basis": "sparse low-degree tables reject nearly every move at its first cell: "
    "the forward kernel scan plus enumeration and union-find in engine",
    "walk": "dense high-degree tables apply many moves: BFS closures, bidirectional "
    "search, path replay, unpacking and the member dump",
    "cone": "exact double-description facet enumeration; kernel and engine idle",
}

C5_CAP = 20_000
CONNECT_CAP = 50_000

# Start tables of the walk workload, as "cell[xcount]" codes (one digit per
# vertex).  They were drawn uniformly at degree 12-16 (c5) and 10-12 (k33
# closures) from a fixed random stream and kept for their closure sizes:
# one c5 table whose fiber exceeds the cap, and the rest small enough for
# the member dump.
C5_STARTS = {
    "c5-trunc": "11122x2 11212 11221 12111 12222 21112 21211 21212 22111 22112x2 "
    "22121 22211 22212",
    "c5-7683": "11111 11221 12211 12212 21112 21122 21211 21212 21222 22121 22221x2",
    "c5-2045": "11222 12111 12112x2 21111 21211 21221x2 22121x2 22122 22211 22222",
    "c5-5714": "11112x3 11121 12111 12112 12121 12122 12211 12212 12222 21221 22121 22212",
}
K33_STARTS = {
    "k33-1136": "111211 111221 121111 122111 122112 122212 122221 211211 212121x2 221221",
    "k33-1977": "111211 112211 112212 122111 122121 122122 221111 221112 221121 221211 "
    "222111 222221",
}
# (u, v) pairs: u drawn at degree 14-16, v = u after a 40-step random walk
# under the quadratic moves of K(3,3).
K33_PAIRS = {
    "k33-conn-a": (
        "111221 121122 121212 122122 122222 211122 211211 211222 212112 212122x2 221211 "
        "221221 222212",
        "111121 111222 112112 112222 121222 211112 211221 212122 221211x2 221222 222122x2 "
        "222212",
    ),
    "k33-conn-b": (
        "111121 121111 121221 122111 122121x2 212121 212212 221122x2 221221 221222 "
        "222111 222211 222222",
        "112111 121121x2 122121x2 122211 211121 211222 221112 221221 221222 222111 "
        "222112 222221 222222",
    ),
}

# Pinned answers of the basis workload (the order and orientation of the
# moves change none of them).  Witness pairs are canonical: lowest degree,
# smallest margin key, then the two smallest tables in distinct components.
BASIS_CASES = [
    # (id, preset, move family, max degree, passed, fibers_checked, witness)
    ("c5-cycle-basis-d4", "c5", "cycle-basis", 4, True, 26529, None),
    ("k23-k2n-basis-d3", "k23", "k2n-basis", 3, True, 5156, None),
    ("k23-quadratic-d4", "k23", "k2n-quadratic", 4, False, 11394,
     ("11222 12221 21211 22212", "11221 12222 21212 22211")),
    ("c5-quadratic-d4", "c5", "cycle-quadratic", 4, False, 10571,
     ("12122 12212 21111 21221", "12112 12222 21121 21211")),
]

K33_EXPECTED = {
    "moves": 192, "c18a": 18, "c18b": 18, "c90": 90, "disjoint": True,
    "contains_both_endpoints": True, "path_length": 9, "inconclusive": False,
}


def parse_cells(code: str) -> list[tuple[tuple[int, ...], int]]:
    out = []
    for tok in code.split():
        cell, _, count = tok.partition("x")
        out.append((tuple(int(ch) for ch in cell), int(count or 1)))
    return out


def write_json(path: Path, obj) -> str:
    """Write obj as canonical JSON; returns the name the plan refers to it by
    (instances run from inside the output directory)."""
    path.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    return path.name


# ---------------------------------------------------------------------------
# symmetries: a map is (perm, flips); vertex v goes to perm[v] (0-based) and
# its level c to levels+1-c when flips[v]


def map_state(s, perm, flips, levels):
    y = [0] * len(s)
    for v, c in enumerate(s):
        y[perm[v]] = levels[v] + 1 - c if flips[v] else c
    return tuple(y)


def map_cells(cells, sym, levels):
    perm, flips = sym
    return [(map_state(s, perm, flips, levels), c) for s, c in cells]


def cycle_symmetry(rng: random.Random, n: int):
    shift, sign = rng.randrange(n), rng.choice((1, -1))
    perm = [(sign * v + shift) % n for v in range(n)]
    return perm, [rng.random() < 0.5 for _ in range(n)]


def k33_symmetry(rng: random.Random):
    left, right = [0, 1, 2], [3, 4, 5]
    rng.shuffle(left)
    rng.shuffle(right)
    perm = left + right if rng.random() < 0.5 else right + left
    return perm, [rng.random() < 0.5 for _ in range(6)]


def graph_json(n: int, edges, levels) -> dict:
    return {"vertices": n, "d": list(levels), "edges": [list(e) for e in edges]}


def relabeled_graph(rng: random.Random, n: int, edges, levels) -> dict:
    """The graph under a random vertex relabeling, edges in shuffled order."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    new_levels = [0] * n
    for v in range(n):
        new_levels[perm[v] - 1] = levels[v]
    new_edges = [sorted((perm[a - 1], perm[b - 1])) for a, b in edges]
    rng.shuffle(new_edges)
    return graph_json(n, new_edges, new_levels)


def moves_json(rng: random.Random, moves) -> list:
    """Moves in seeded order, each in a seeded orientation."""
    from checks import cells_json

    out = []
    for m in moves:
        plus, minus = m.plus.items(), m.minus.items()
        if rng.random() < 0.5:
            plus, minus = minus, plus
        out.append({"plus": cells_json(plus), "minus": cells_json(minus)})
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# workloads: each returns the instance list


def make_basis(rng: random.Random, out: Path) -> list[dict]:
    from checks import cells_json
    from fiberwalk.families import (
        K2NShape, cycle_markov_basis, cycle_quadratic_moves, k2n_markov_basis,
        k2n_quadratic_moves,
    )

    families = {
        "cycle-basis": lambda: cycle_markov_basis(5),
        "cycle-quadratic": lambda: cycle_quadratic_moves(5),
        "k2n-basis": lambda: k2n_markov_basis(K2NShape((2, 2, 2))),
        "k2n-quadratic": lambda: k2n_quadratic_moves(K2NShape((2, 2, 2))),
    }
    edges = {
        "c5": [[i, i % 5 + 1] for i in range(1, 6)],
        "k23": [[i, j] for i in (1, 2) for j in (3, 4, 5)],
    }
    instances = []
    for case_id, preset, family, degree, passed, fibers, witness in BASIS_CASES:
        moves = families[family]()
        path = write_json(out / f"{case_id}-moves.json", moves_json(rng, moves))
        expect = {"passed": passed, "max_degree": degree, "fibers_checked": fibers,
                  "n_moves": len(moves)}
        if witness:
            expect["witness_degree"] = degree
            expect["witness"] = [cells_json(parse_cells(w)) for w in witness]
        instances.append({
            "id": case_id,
            "argv": ["verify-basis", "--preset", preset, "--moves", path,
                     "--max-degree", str(degree)],
            "kind": "basis",
            "expect": expect,
            "moves": path,
            "edges": edges[preset],
        })
    return instances


def make_walk(rng: random.Random, out: Path) -> list[dict]:
    from checks import bfs_closure, cells_json, digest_tables
    from fiberwalk.engine import enumerate_fiber
    from fiberwalk.errors import FiberTooLargeError
    from fiberwalk.families import cycle_graph, cycle_markov_basis
    from fiberwalk.graphs import global_markov_moves, margin_map, margins
    from fiberwalk.k33 import k33_graph
    from fiberwalk.tables import Table

    instances = []
    c5 = cycle_graph(5)
    c5_levels = c5.levels.levels
    c5_file = write_json(out / "c5.json", graph_json(5, sorted(c5.edges), c5_levels))
    c5_moves = write_json(out / "c5-basis.json", moves_json(rng, cycle_markov_basis(5)))
    am = margin_map(c5)
    for case_id, code in C5_STARTS.items():
        cells = map_cells(parse_cells(code), cycle_symmetry(rng, 5), c5_levels)
        start = write_json(out / f"{case_id}.json", {"d": list(c5_levels),
                                                     "cells": cells_json(cells)})
        # closures under a Markov basis are whole fibers
        try:
            fiber = enumerate_fiber(am, margins(am, Table(cells)), size_cap=C5_CAP)
        except FiberTooLargeError:
            expect = {"size": C5_CAP, "truncated": True}
        else:
            expect = {"size": len(fiber), "truncated": False,
                      "members": digest_tables(t.items() for t in fiber)}
        instances.append({
            "id": case_id,
            "argv": ["component", "--graph", c5_file, "--moves", c5_moves,
                     "--start", start, "--cap", str(C5_CAP)],
            "kind": "component",
            "expect": expect,
        })

    k33 = k33_graph()
    k33_levels = k33.levels.levels
    k33_file = write_json(out / "k33.json", graph_json(6, sorted(k33.edges), k33_levels))
    quadratic = global_markov_moves(k33)
    for case_id, code in K33_STARTS.items():
        cells = map_cells(parse_cells(code), k33_symmetry(rng), k33_levels)
        start = write_json(out / f"{case_id}.json", {"d": list(k33_levels),
                                                     "cells": cells_json(cells)})
        closure = bfs_closure(cells, quadratic)
        instances.append({
            "id": case_id,
            "argv": ["component", "--graph", k33_file, "--global-markov", "--start", start],
            "kind": "component",
            "expect": {"size": len(closure), "truncated": False,
                       "members": digest_tables(t.items() for t in closure)},
        })
    for case_id, (u_code, v_code) in K33_PAIRS.items():
        sym = k33_symmetry(rng)
        files = []
        for side, code in (("u", u_code), ("v", v_code)):
            cells = map_cells(parse_cells(code), sym, k33_levels)
            files.append(write_json(out / f"{case_id}-{side}.json",
                                    {"d": list(k33_levels), "cells": cells_json(cells)}))
        instances.append({
            "id": case_id,
            "argv": ["connected", "--graph", k33_file, "--global-markov", "--u", files[0],
                     "--v", files[1], "--cap", str(CONNECT_CAP)],
            "kind": "connected",
            "expect": {"status": "connected"},
            "u": files[0],
            "v": files[1],
        })
    instances.append({"id": "k33-pinned", "argv": ["k33"], "kind": "exact",
                      "expect": K33_EXPECTED})
    return instances


def make_cone(rng: random.Random, out: Path) -> list[dict]:
    c4 = [(1, 2), (2, 3), (3, 4), (4, 1)]
    c4_file = write_json(out / "c4-level3.json", relabeled_graph(rng, 4, c4, [3] * 4))
    k33 = [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)]
    k33_file = write_json(out / "k33.json", relabeled_graph(rng, 6, k33, [2] * 6))
    expected_rows = json.loads((SRC / "fiberwalk" / "data" / "table1_expected.json").read_text())
    return [
        {
            "id": "latin-c4-level3",
            "argv": ["latin", "disconnect", "--graph", c4_file, "--order", "3"],
            "kind": "exact",
            "expect": {"precondition_failures": [], "component_size": 1,
                       "margins_strictly_positive": True, "interior": True,
                       "interior_method": "facets", "fiber_has_second_element": True,
                       "isolated_interior_point": True},
        },
        {
            "id": "facets-k33",
            "argv": ["facets", "--graph", k33_file],
            "kind": "exact",
            "expect": {"n_facets": 684, "rank": 16, "n_cols": 64, "n_rows": 36},
        },
        {
            "id": "table1",
            "argv": ["table1"],
            "kind": "table1",
            "expect": {"all_match": True, "rows": expected_rows},
        },
    ]


MAKERS = {"basis": make_basis, "walk": make_walk, "cone": make_cone}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one run into out and return its plan."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    plan = {"workload": workload, "seed": seed, "why": WHY[workload],
            "instances": MAKERS[workload](rng, out)}
    write_json(out / "plan.json", plan)
    return plan


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory inside the checkout")
    args = p.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out).resolve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
