"""Spans around the public functions of each fiberwalk layer.

A `Tracer` replaces each traced function at every place it is bound: the
defining module and every fiberwalk module that imported it by name
(`cli`, `k33` and `latin` bind `engine`/`cones` functions that way), and
the kernel functions on both `fiberwalk._kernel` and the backend module.
Spans are kept in memory as [name, start, end, parent, instance], and only
while an instance is running; `write` saves them at the end of a run.

Span names are "<layer>.<function>"; the `_kernel` layer is named
`kernel`.  `per_layer_metrics` turns the spans and the counters recorded
at the same boundaries into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("_kernel", "engine", "cones", "graphs", "families", "tables", "latin", "k33",
          "jsonio", "cli")
KERNEL_API = ("pack_moves", "neighbors_signed", "forward_neighbors", "component")
# Per-cell helpers: one call costs less than recording its span would.
UNTRACED = frozenset({"tables.state_index", "tables.state_at"})
# Name groups summed into one metric, counting nested calls once.
GROUPS = {
    "families.markov_basis": ("families.cycle_markov_basis", "families.k2n_markov_basis"),
    "families.prime_witnesses": ("families.cycle_prime_witnesses",
                                 "families.k2n_prime_witnesses",
                                 "families.pyramid_prime_witnesses"),
}


def layer_name(layer: str) -> str:
    return layer.lstrip("_")


class Tracer:
    """Wraps the layers' public functions and records spans and counters."""

    def __init__(self, parity_backend=None):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.rank_inputs: list = []
        # bound before install, which also wraps the backend module's names
        self._parity_fns = ({n: getattr(parity_backend, n) for n in KERNEL_API}
                            if parity_backend is not None else None)
        self.parity_failures: list[str] = []
        self._pure_moves: dict = {}
        self._stack: list[int] = []
        self._instance = None
        self._patches: list = []

    # -- recording -------------------------------------------------------

    @contextmanager
    def instance(self, instance_id: str):
        """Root span of one instance; spans are recorded only inside one."""
        self._instance = instance_id
        try:
            with self.span("instance"):
                yield
        finally:
            self._instance = None

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._instance]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._instance is None:
                return fn(*args, **kwargs)
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return traced

    # -- counters and parity at the boundaries ---------------------------

    def _count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def _parity(self, fn_name: str, got, args) -> None:
        """Replays a kernel call on the second backend and compares."""
        if self._parity_fns is None:
            return
        with self.span("trace.parity"):
            t, pm = args[0], args[1]
            ref = self._parity_fns[fn_name](t, self._pure_moves[id(pm)][1], *args[2:])
        if ref != got:
            self.parity_failures.append(f"{self._instance}: {fn_name} differs from pure")

    def _observers(self) -> dict:
        def pack_moves(args, kwargs, out):
            if self._parity_fns is not None:
                with self.span("trace.parity"):
                    self._pure_moves[id(out)] = (out, self._parity_fns["pack_moves"](args[0]))

        def forward_neighbors(args, kwargs, out):
            self._count("kernel.forward_neighbors.tried", len(args[1]))
            self._count("kernel.forward_neighbors.applied", len(out))
            self._parity("forward_neighbors", out, args)

        def neighbors_signed(args, kwargs, out):
            self._count("kernel.neighbors_signed.tried", 2 * len(args[1]))
            self._count("kernel.neighbors_signed.applied", len(out))
            self._parity("neighbors_signed", out, args)

        def component(args, kwargs, out):
            self._count("kernel.component.nodes", len(out[0]))
            self._count("kernel.component.truncated", int(out[1]))
            self._parity("component", out, args)

        def verify_markov_basis(args, kwargs, out):
            self._count("engine.fibers_checked", out.fibers_checked)

        def are_connected(args, kwargs, out):
            self._count("engine.are_connected.path_len", len(out.path or ()))

        def facets_of_columns(args, kwargs, out):
            self._count("cones.facets_of_columns.facets", len(out))
            self.rank_inputs.append(args[0] if args else kwargs["columns"])

        return {
            "kernel.pack_moves": pack_moves,
            "kernel.forward_neighbors": forward_neighbors,
            "kernel.neighbors_signed": neighbors_signed,
            "kernel.component": component,
            "engine.verify_markov_basis": verify_markov_basis,
            "engine.are_connected": are_connected,
            "cones.facets_of_columns": facets_of_columns,
        }

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every fiberwalk binding site."""
        observers = self._observers()
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"fiberwalk.{layer}"]
            if layer == "_kernel":
                fns = {n: getattr(mod, n) for n in KERNEL_API}
            else:
                fns = {n: f for n, f in vars(mod).items()
                       if inspect.isfunction(f) and f.__module__ == mod.__name__
                       and not n.startswith("_")}
            for n, fn in fns.items():
                name = f"{layer_name(layer)}.{n}"
                if name in UNTRACED:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(name, fn, observers.get(name)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fiberwalk" or mod_name.startswith("fiberwalk.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write(self, path, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(a - t0, 9), round(b - t0, 9), p, inst]
                for n, a, b, p, inst in self.spans]
        doc = {"meta": meta, "fields": ["name", "start_s", "end_s", "parent", "instance"],
               "names": names, "spans": rows}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


PER_LAYER = [
    ("kernel.forward_neighbors.calls", "count"),
    ("kernel.forward_neighbors.busy_s", "s"),
    ("kernel.forward_neighbors.tried", "count"),
    ("kernel.forward_neighbors.applied", "count"),
    ("kernel.forward_neighbors.apply_ratio", "ratio"),
    ("kernel.neighbors_signed.calls", "count"),
    ("kernel.neighbors_signed.busy_s", "s"),
    ("kernel.neighbors_signed.applied", "count"),
    ("kernel.neighbors_signed.apply_ratio", "ratio"),
    ("kernel.component.calls", "count"),
    ("kernel.component.busy_s", "s"),
    ("kernel.component.nodes", "count"),
    ("kernel.component.nodes_per_s", "1/s"),
    ("kernel.component.truncated", "count"),
    ("kernel.pack_moves.calls", "count"),
    ("kernel.pack_moves.busy_s", "s"),
    ("engine.verify_markov_basis.busy_s", "s"),
    ("engine.verify_markov_basis.self_s", "s"),
    ("engine.tables_enumerated", "count"),
    ("engine.fibers_checked", "count"),
    ("engine.connected_component.busy_s", "s"),
    ("engine.connected_component.self_s", "s"),
    ("engine.are_connected.busy_s", "s"),
    ("engine.are_connected.self_s", "s"),
    ("engine.are_connected.path_len", "count"),
    ("engine.pack_table.calls", "count"),
    ("engine.pack_table.busy_s", "s"),
    ("engine.unpack_table.calls", "count"),
    ("engine.unpack_table.busy_s", "s"),
    ("cones.facets_of_columns.calls", "count"),
    ("cones.facets_of_columns.busy_s", "s"),
    ("cones.facets_of_columns.facets", "count"),
    ("cones.facets_of_columns.max_rank", "count"),
    ("cones.integer_rank.calls", "count"),
    ("cones.integer_rank.busy_s", "s"),
    ("cones.check_margin_property.calls", "count"),
    ("cones.check_margin_property.busy_s", "s"),
    ("graphs.margin_map.calls", "count"),
    ("graphs.margin_map.busy_s", "s"),
    ("graphs.margins.calls", "count"),
    ("graphs.margins.busy_s", "s"),
    ("graphs.global_markov_moves.calls", "count"),
    ("graphs.global_markov_moves.busy_s", "s"),
    ("families.markov_basis.busy_s", "s"),
    ("families.prime_witnesses.busy_s", "s"),
    ("latin.verify_disconnection.busy_s", "s"),
    ("latin.verify_disconnection.self_s", "s"),
    ("k33.k33_run.busy_s", "s"),
    ("jsonio.load.calls", "count"),
    ("jsonio.load.busy_s", "s"),
    ("jsonio.table_to_json.calls", "count"),
    ("jsonio.table_to_json.busy_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.envelope_bytes", "bytes"),
] + [(f"{layer_name(layer)}.self_s", "s") for layer in LAYERS] + [
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]


def per_layer_metrics(tracer: Tracer, traced_run_s: float, untraced_run_s: float) -> dict:
    """name -> (value, unit) for every entry of PER_LAYER.

    busy_s is the wall time inside a function's spans, counting a call
    nested in another call of the same name once; self_s subtracts the
    time covered by child spans.  Call after `uninstall`.
    """
    from fiberwalk.cones import integer_rank

    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]

    def under(i: int, names) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][3]
        return False

    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    group_of = {n: g for g, names in GROUPS.items() for n in names}
    enumerated = 0
    for i, (name, _, _, _, _) in enumerate(spans):
        calls[name] += 1
        own = dur[i] - child[i]
        self_s[name] += own
        layer_self[name.partition(".")[0]] += own
        if not under(i, {name}):
            busy[name] += dur[i]
        group = group_of.get(name)
        if group and not under(i, GROUPS[group]):
            busy[group] += dur[i]
        if name == "kernel.forward_neighbors" and under(i, {"engine.verify_markov_basis"}):
            enumerated += 1

    c = tracer.counters
    values = {
        "engine.tables_enumerated": enumerated,
        "cones.facets_of_columns.max_rank": max(
            (integer_rank([tuple(col) for col in cols]) for cols in tracer.rank_inputs),
            default=0),
        "trace.run_s": traced_run_s,
        "trace.overhead_s": traced_run_s - untraced_run_s,
        "trace.spans": len(spans),
    }
    for fn in ("forward_neighbors", "neighbors_signed"):
        tried = c[f"kernel.{fn}.tried"]
        values[f"kernel.{fn}.apply_ratio"] = c[f"kernel.{fn}.applied"] / tried if tried else 0.0
    comp_busy = busy["kernel.component"]
    values["kernel.component.nodes_per_s"] = (
        c["kernel.component.nodes"] / comp_busy if comp_busy else 0.0)

    out = {}
    for name, unit in PER_LAYER:
        if name in values:
            v = values[name]
        elif name in c:
            v = c[name]
        else:
            base, _, field = name.rpartition(".")
            if field == "calls":
                v = calls[base]
            elif field == "busy_s":
                v = busy[base]
            elif field == "self_s":
                v = layer_self[base] if base in {layer_name(x) for x in LAYERS} else self_s[base]
            else:
                v = 0
        out[name] = (v, unit)
    return out
