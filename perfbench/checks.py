"""Verdict checks: compare each instance's envelope with its known answer.

Import this module before any tracer is installed: it binds the library
functions it uses at import time, so its own calls stay out of the trace.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from fiberwalk.errors import FiberwalkError
from fiberwalk.graphs import global_markov_moves
from fiberwalk.jsonio import graph_from_json
from fiberwalk.tables import Move, Table, apply_move


def cells_json(cells) -> list:
    """Cells as the wire format writes them: sorted [[state], count] pairs."""
    merged: dict[tuple[int, ...], int] = {}
    for s, c in cells:
        merged[tuple(s)] = merged.get(tuple(s), 0) + c
    return [[list(s), c] for s, c in sorted(merged.items())]


def digest_tables(tables) -> str:
    """Order-free digest of a collection of tables given as cell lists."""
    keys = sorted(json.dumps(cells_json(t), separators=(",", ":")) for t in tables)
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def bfs_closure(start, moves) -> set:
    """Component of start under moves in both orientations, by apply_move."""
    directed = list(moves) + [m.reverse() for m in moves]
    start = Table(start)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for t in frontier:
            for m in directed:
                if t.dominates(m.minus):
                    nb = apply_move(t, m)
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
        frontier = nxt
    return seen


def _table(cells) -> Table:
    return Table([(tuple(s), c) for s, c in cells])


def _move(data) -> Move:
    return Move(_table(data["plus"]), _table(data["minus"]))


def edge_margins(cells, edges) -> Counter:
    """Two-way margins over the given edges, counted directly."""
    out = Counter()
    for s, c in cells:
        for a, b in edges:
            out[(a, b, s[a - 1], s[b - 1])] += c
    return out


class Checker:
    """Holds what the checks of one run share: loaded inputs and results
    already verified by the slower independent checks."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._verified: set = set()
        self._moves: dict = {}

    def _load(self, name: str):
        return json.loads((self.workdir / name).read_text())

    def _graph_moves(self, name: str) -> frozenset:
        if name not in self._moves:
            moves = global_markov_moves(graph_from_json(self._load(name)))
            self._moves[name] = frozenset(moves) | {m.reverse() for m in moves}
        return self._moves[name]

    def problems(self, inst: dict, code: int, envelope: dict) -> list[str]:
        """Every way the envelope differs from the instance's known answer."""
        if code != 0:
            return [f"exit code {code}"]
        result = envelope.get("result")
        if result is None:
            return [f"no result: {envelope.get('error')!r}"]
        expect = inst["expect"]
        out = []
        for key, want in expect.items():
            if key in ("members", "witness", "rows"):
                continue
            if result.get(key) != want:
                out.append(f"{key}: got {result.get(key)!r}, want {want!r}")
        kind = inst["kind"]
        if kind == "basis" and "witness" in expect:
            out += self._check_witness(inst, result)
        elif kind == "component" and "members" in expect:
            got = result.get("members")
            if got is None or digest_tables(m["cells"] for m in got) != expect["members"]:
                out.append("members differ from the independent closure")
        elif kind == "connected":
            out += self._check_path(inst, result)
        elif kind == "table1":
            for name, want in expect["rows"].items():
                row = result["rows"].get(name, {})
                for key, value in want.items():
                    if row.get(key) != value:
                        out.append(f"table1 {name}.{key}: got {row.get(key)!r}, want {value!r}")
        return out

    def _check_witness(self, inst: dict, result: dict) -> list[str]:
        got = [cells_json(w["cells"]) for w in result.get("witness", [])]
        if got != inst["expect"]["witness"]:
            return [f"witness {got!r} is not the canonical pair"]
        key = (inst["id"], json.dumps(got))
        if key in self._verified:
            return []
        u, v = got
        if edge_margins(u, inst["edges"]) != edge_margins(v, inst["edges"]):
            return ["witness tables have different margins"]
        moves = [_move(m) for m in self._load(inst["moves"])]
        if _table(v) in bfs_closure(_table(u).items(), moves):
            return ["witness tables are connected by the moves"]
        self._verified.add(key)
        return []

    def _check_path(self, inst: dict, result: dict) -> list[str]:
        path = result.get("path") or []
        if result.get("path_length") != len(path):
            return ["path_length disagrees with the path"]
        allowed = self._graph_moves(inst["argv"][inst["argv"].index("--graph") + 1])
        cur = _table(self._load(inst["u"])["cells"])
        for step in path:
            m = _move(step["move"])
            if m not in allowed:
                return [f"path uses a move outside the quadratic moves: {m!r}"]
            try:
                cur = apply_move(cur, m if step["forward"] else m.reverse())
            except FiberwalkError as exc:
                return [f"path replay: {exc}"]
        if cur != _table(self._load(inst["v"])["cells"]):
            return ["path replay does not end at v"]
        return []
