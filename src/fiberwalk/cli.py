"""The `fiberwalk` command-line interface.

Every subcommand emits one JSON envelope on stdout, as one compact line
(`--json FILE` gets the same text):

    {"experiment": ..., "params": ..., "result": ..., "elapsed_ms": ...,
     "kernel_backend": ..., "version": ...}

An error envelope holds "error" in place of "result"; both name the kernel
backend that ran ("fast" or "pure") and the package version.  Exit codes:
0 success (and all pinned expectations matched), 1 computation or mismatch
error, 2 usage error; a reader that closes stdout early does not change it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__, jsonio, kernel_backend
from .cones import (
    build_disconnection_witness,
    check_margin_property,
    cone_facets,
    find_disconnecting_move,
    is_strictly_positive,
)
from .engine import DEFAULT_NODE_CAP, are_connected, connected_component, verify_markov_basis
from .errors import FiberwalkError
from .families import (
    K2NShape,
    check_cycle_size,
    closed_form_family,
    closed_form_primes,
    cycle_graph,
    cycle_markov_basis,
    k2n_facet_inequalities,
    k2n_graph,
    k2n_markov_basis,
    k2n_quartic_moves,
    k2n_shape_of,
    pyramid_prime_count,
)
from .graphs import global_markov_moves, margin_map, margins
from .k33 import SEARCH_MAX_PAIRS, k33_run, k33_search
from .latin import DISCONNECT_NODE_CAP, latin_table, mols, verify_disconnection
from .presets import PRESET_NAMES, Preset, resolve, table1_expected

MEMBER_DUMP_LIMIT = 10_000
# where main writes member text into the envelope text; inside a JSON string
# every quote is escaped, so only a "members" key can match
MEMBERS_SLOT = '"members": null'


class _Text:
    """A result value whose JSON text is already built, in pieces: main
    writes them into the envelope as they are."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: list[str]):
        self.pieces = pieces


def _load_model(args) -> Preset:
    name, k2n_levels = getattr(args, "preset", None), getattr(args, "k2n_levels", None)
    if k2n_levels is not None and name != "k2n":
        raise FiberwalkError("--k2n-levels needs --preset k2n")
    if name:
        return resolve(name, k2n_levels=tuple(k2n_levels or ()))
    if getattr(args, "graph", None):
        g = jsonio.graph_from_json(jsonio.load(args.graph))
        return Preset(name=args.graph, graph=g, space=g.levels)
    raise FiberwalkError("need --graph FILE or --preset NAME")


def _load_graph(args) -> Preset:
    preset = _load_model(args)
    if preset.graph is None:
        raise FiberwalkError(f"{args.command} needs a graph; preset {preset.name} has none")
    return preset


def _load_table(path: str, preset: Preset):
    table, space = jsonio.table_from_json(jsonio.load(path))
    if space != preset.space:
        raise FiberwalkError(
            f"table levels {list(space.levels)} are not the model's {list(preset.space.levels)}"
        )
    return table


def _load_moves(args, preset: Preset):
    if getattr(args, "moves", None):
        return jsonio.moves_from_json(jsonio.load(args.moves))
    if preset.pinned_moves and not getattr(args, "global_markov", False):
        return preset.pinned_moves
    if preset.graph is None:
        raise FiberwalkError(f"preset {preset.name} has no graph; supply --moves")
    return global_markov_moves(preset.graph)


# ---------------------------------------------------------------------------
# subcommand handlers, named cmd_<command> with "-" as "_" (main finds them
# by that name): each returns (result_dict, exit_code)


def cmd_component(args):
    preset = _load_model(args)
    if args.start:
        start = _load_table(args.start, preset)
    elif preset.pinned_table is not None:
        start = preset.pinned_table
    else:
        raise FiberwalkError("need --start FILE (or a preset with a pinned table)")
    moves = _load_moves(args, preset)
    rep = connected_component(start, moves, preset.space, node_cap=args.cap)
    result = {"size": rep.size, "truncated": rep.truncated}
    if not rep.truncated and (rep.size <= MEMBER_DUMP_LIMIT or args.dump):
        result["members"] = _Text(jsonio.packed_tables_text(rep.packed, preset.space))
    return result, 0


def cmd_connected(args):
    preset = _load_model(args)
    u = _load_table(args.u, preset)
    v = _load_table(args.v, preset)
    moves = _load_moves(args, preset)
    res = are_connected(u, v, moves, preset.space, node_cap=args.cap)
    result = {"status": res.status}
    if res.path is not None:
        result["path_length"] = len(res.path)
        result["path"] = [
            {"move": jsonio.move_to_json(s.move), "forward": s.forward} for s in res.path
        ]
    return result, 0


def cmd_verify_basis(args):
    preset = _load_graph(args)
    if args.family and args.family != closed_form_family(preset.graph):
        raise FiberwalkError(f"--family {args.family} is not the graph's closed-form family")
    if args.family == "cycle":
        moves = cycle_markov_basis(preset.graph.n_vertices)
    elif args.family == "k2n":
        moves = k2n_markov_basis(k2n_shape_of(preset.graph))
    else:
        moves = _load_moves(args, preset)
    verdict = verify_markov_basis(moves, margin_map(preset.graph), args.max_degree)
    result = {
        "passed": verdict.passed,
        "max_degree": verdict.degree_bound,
        "fibers_checked": verdict.fibers_checked,
        "n_moves": len(moves),
    }
    if verdict.witness:
        result["witness_degree"] = verdict.witness_degree
        result["witness"] = [
            jsonio.table_to_json(verdict.witness[0], preset.space),
            jsonio.table_to_json(verdict.witness[1], preset.space),
        ]
    return result, 0


def cmd_facets(args):
    am = margin_map(_load_graph(args).graph)
    facets = cone_facets(am)
    return {
        "rank": am.rank,
        "n_rows": am.n_rows,
        "n_cols": am.n_cols,
        "row_labels": [am.row_label(i) for i in range(am.n_rows)],
        "n_facets": len(facets),
        "facets": [list(f.coeffs) for f in facets],
    }, 0


def cmd_check_margins(args):
    if args.mode == "positive" and args.facet_source == "family":
        raise FiberwalkError("--facet-source family needs --mode interior")
    graph = _load_graph(args).graph
    am = margin_map(graph)
    witnesses = closed_form_primes(graph)
    facets = None
    facet_source = None
    if args.mode == "interior":
        if args.facet_source == "family":
            facets = k2n_facet_inequalities(k2n_shape_of(graph), am)
            facet_source = "family-inequalities(mirrored)"
        else:
            facets = cone_facets(am)
            facet_source = "brute-force"
    verdict = check_margin_property(witnesses, am, facets)
    result = {
        "mode": "positive-margins" if args.mode == "positive" else "interior-point",
        "holds": verdict.holds,
        "n_witnesses": len(witnesses),
        "facet_source": facet_source,
        "failing_witness": verdict.failing_witness.id if verdict.failing_witness else None,
    }
    return result, 0


def cmd_witness_disconnect(args):
    preset = _load_graph(args)
    shape = k2n_shape_of(preset.graph)
    am = margin_map(preset.graph)
    witnesses = closed_form_primes(preset.graph)
    if args.prime == "toric":  # family primes lists it last, with no witness
        raise FiberwalkError(
            "prime 'toric' is the toric ideal: it has no witness monomial to pad with"
        )
    if args.prime:
        try:
            w = next(x for x in witnesses if x.id == args.prime)
        except StopIteration:
            raise FiberwalkError(f"unknown prime id {args.prime!r}")
    else:
        y_ok = [x for x in witnesses if is_strictly_positive(margins(am, x.table))]
        if not y_ok:
            raise FiberwalkError("no strictly-positive witness; nothing to disconnect")
        w = y_ok[0]
    f = find_disconnecting_move(k2n_quartic_moves(shape), w)
    u, v = build_disconnection_witness(w, f, args.c, am)
    moves = global_markov_moves(preset.graph)
    comp = connected_component(u, moves, preset.space, node_cap=args.cap)
    separated = None if comp.truncated else not comp.contains(v)
    return {
        "prime": w.id,
        "c": args.c,
        "degree": u.degree,
        "margins_strictly_positive": is_strictly_positive(margins(am, u)),
        "component_size": comp.size,
        "truncated": comp.truncated,
        "disconnected": separated,
        "u": jsonio.table_to_json(u, preset.space),
        "v": jsonio.table_to_json(v, preset.space),
    }, 0


def cmd_family(args):
    if args.what == "cycle-basis":
        moves = cycle_markov_basis(args.n)
        return {"n_moves": len(moves), "moves": jsonio.moves_to_json(moves)}, 0
    if args.what == "k2n-basis":
        shape = K2NShape(tuple(args.levels))
        moves = k2n_markov_basis(shape)
        return {"n_moves": len(moves), "moves": jsonio.moves_to_json(moves)}, 0
    if args.what == "primes":
        if args.graph == "cycle":
            if args.levels is not None:
                raise FiberwalkError("--levels needs --graph k2n")
            if args.n is None:
                raise FiberwalkError("family primes --graph cycle needs --n")
            check_cycle_size(args.n)  # before the graph, which is O(n) to build
            graph = cycle_graph(args.n)
        elif args.n is not None:
            raise FiberwalkError("--n needs --graph cycle")
        elif len(args.levels or ()) < 2:
            raise FiberwalkError("family primes --graph k2n needs --levels, two or more of them")
        else:
            graph = k2n_graph(K2NShape(tuple(args.levels)))
        ws = closed_form_primes(graph)
        result = {"n_min_primes": len(ws) + 1}  # and the toric ideal
        if not args.count_only:
            result["primes"] = [
                {
                    "id": w.id,
                    "origin": w.origin,
                    "n_variables": graph.levels.total_cells - len(w.table),
                    "witness": jsonio.table_to_json(w.table, graph.levels),
                }
                for w in ws
            ] + [{"id": "toric", "origin": "toric", "n_variables": 0, "witness": None}]
        return result, 0


def cmd_latin(args):
    if args.what == "mols":
        squares = mols(args.q)
        return {
            "order": args.q,
            "n_squares": len(squares),
            "squares": [[list(r) for r in sq.cells] for sq in squares],
        }, 0
    if args.what == "disconnect":
        preset = _load_graph(args)
        g = preset.graph
        squares = mols(args.order)[: g.n_vertices - 2]
        t = latin_table(g, squares)
        rep = verify_disconnection(g, t, node_cap=args.cap)
        return {
            "order": args.order,
            "precondition_failures": rep.precondition_failures,
            "component_size": rep.component_size,
            "margins_strictly_positive": rep.margins_strictly_positive,
            "interior": rep.interior,
            "interior_method": rep.interior_method,
            "fiber_has_second_element": rep.fiber_has_second_element,
            "isolated_interior_point": rep.isolated_interior_point,
        }, 0


def cmd_k33(args):
    if args.search:
        preset = resolve(args.on)
        found = k33_search(max_pairs=args.max_pairs, graph=preset.graph)
        if found is None:
            return {"search": True, "on": args.on, "found": False}, 0
        return {
            "search": True,
            "on": args.on,
            "found": True,
            "pairs_tried": found["pairs_tried"],
            "u_plus": jsonio.table_to_json(found["u_plus"], preset.space),
            "u_minus": jsonio.table_to_json(found["u_minus"], preset.space),
            "w": jsonio.table_to_json(found["w"], preset.space),
        }, 0
    if args.on != "k33" or args.max_pairs != SEARCH_MAX_PAIRS:
        raise FiberwalkError("--on and --max-pairs need --search")
    return k33_run(), 0


def _table1_row(name: str) -> dict:
    graph = resolve(name).graph
    am = margin_map(graph)
    family = closed_form_family(graph)
    witnesses = closed_form_primes(graph)
    count = len(witnesses) + 1  # and the toric ideal
    count_source = "enumeration"
    if family == "pyramid":
        # a layer's choices: a listed base prime or the base's toric ideal
        base = len(closed_form_primes(cycle_graph(graph.n_vertices - 1))) + 1
        apex = graph.levels.levels[-1]
        formula = pyramid_prime_count(base, apex)
        if formula != count:
            raise FiberwalkError(f"{formula} primes by formula but {count} composed")
        count_source = f"layer-product formula ({base}^{apex}), cross-checked by composition"
    pos = check_margin_property(witnesses, am)
    facets = cone_facets(am)
    interior = check_margin_property(witnesses, am, facets)
    row = {
        "positive_margins": pos.holds,
        "interior_point": interior.holds,
        "n_min_primes": count,
        "count_source": count_source,
        "facet_source": "brute-force",
        "n_facets": len(facets),
    }
    if family == "k2n":
        fam = k2n_facet_inequalities(k2n_shape_of(graph), am)
        row["interior_point_family_route"] = check_margin_property(witnesses, am, fam).holds
        row["facet_source"] += " + family-inequalities(mirrored)"
    return row


def cmd_table1(args):
    names = ["c4", "square-pyramid", "g48", "k23", "c5"]
    rows = {name: _table1_row(name) for name in names}
    expected = table1_expected()
    all_match = True
    for name in names:
        exp = expected[name]
        row = rows[name]
        row["expected"] = exp
        # the family-inequality route, where a model has one, must agree with brute force
        row["match"] = all(row[k] == exp[k] for k in exp) and (
            row.get("interior_point_family_route", row["interior_point"]) == row["interior_point"]
        )
        all_match = all_match and row["match"]
    return {"rows": rows, "all_match": all_match}, (0 if all_match else 1)


# ---------------------------------------------------------------------------


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


@functools.cache  # built on first use, then shared by every main call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fiberwalk",
        description="fiber connectivity and marginal-cone experiments on contingency tables",
    )
    p.add_argument("--json", metavar="FILE", help="also write the report to FILE")
    # accepted after the subcommand too; SUPPRESS keeps a prefix --json intact
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", metavar="FILE", default=argparse.SUPPRESS,
                        help="also write the report to FILE")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        kw.setdefault("parents", []).append(shared)
        return sub.add_parser(name, **kw)

    def add_graph_opts(sp):
        sp.add_argument("--graph", help="graph JSON file")
        sp.add_argument("--preset", choices=PRESET_NAMES, help="named model")
        sp.add_argument("--k2n-levels", type=int, nargs="*", help="levels for the k2n preset")

    def add_move_opts(sp):
        source = sp.add_mutually_exclusive_group()
        source.add_argument("--moves", help="moves JSON file")
        source.add_argument("--global-markov", action="store_true",
                            help="use the graph's quadratic moves")

    sp = add_parser("component", help="BFS closure of a table under moves")
    add_graph_opts(sp)
    sp.add_argument("--start", help="table JSON file")
    add_move_opts(sp)
    sp.add_argument("--cap", type=int, default=DEFAULT_NODE_CAP)
    sp.add_argument("--dump", action="store_true",
                    help="list the members even when there are more than "
                         f"MEMBER_DUMP_LIMIT = {MEMBER_DUMP_LIMIT:,}")

    sp = add_parser("connected", help="bidirectional search between two tables")
    add_graph_opts(sp)
    sp.add_argument("--u", required=True)
    sp.add_argument("--v", required=True)
    add_move_opts(sp)
    sp.add_argument("--cap", type=int, default=DEFAULT_NODE_CAP)

    sp = add_parser("verify-basis", help="do the moves connect every fiber up to a degree?")
    add_graph_opts(sp)
    basis = sp.add_mutually_exclusive_group()
    basis.add_argument("--moves")
    basis.add_argument("--family", choices=["cycle", "k2n"])
    sp.add_argument("--max-degree", type=int, required=True)

    sp = add_parser("facets", help="exact facets of the marginal cone")
    add_graph_opts(sp)

    sp = add_parser("check-margins", help="margin-property verdict from prime witnesses")
    add_graph_opts(sp)
    sp.add_argument("--mode", choices=["positive", "interior"], required=True)
    sp.add_argument("--facet-source", choices=["brute", "family"], default="brute")

    sp = add_parser("witness-disconnect", help="padded pair splitting a positive fiber")
    add_graph_opts(sp)
    sp.add_argument("--prime", help="prime id (default: first strictly-positive witness)")
    sp.add_argument("--c", type=int, default=1, help="padding multiplier")
    sp.add_argument("--cap", type=int, default=DEFAULT_NODE_CAP)

    sp = add_parser("family", help="closed-form move/prime families")
    fam_sub = sp.add_subparsers(dest="what", required=True)
    f1 = fam_sub.add_parser("cycle-basis", parents=[shared])
    f1.add_argument("n", type=int)
    f2 = fam_sub.add_parser("k2n-basis", parents=[shared])
    f2.add_argument("levels", type=int, nargs="+", help="second-group levels d3 d4 ...")
    f3 = fam_sub.add_parser("primes", parents=[shared])
    f3.add_argument("--graph", choices=["cycle", "k2n"], required=True,
                    help="which closed-form family")
    f3.add_argument("--n", type=int, help="cycle length")
    f3.add_argument("--levels", type=int, nargs="*", help="k2n second-group levels")
    f3.add_argument("--count-only", action="store_true")

    sp = add_parser("latin", help="orthogonal Latin squares and isolation reports")
    lat_sub = sp.add_subparsers(dest="what", required=True)
    l1 = lat_sub.add_parser("mols", parents=[shared])
    l1.add_argument("q", type=int)
    l2 = lat_sub.add_parser("disconnect", parents=[shared])
    add_graph_opts(l2)
    l2.add_argument("--order", type=int, required=True)
    l2.add_argument("--cap", type=int, default=DISCONNECT_NODE_CAP)

    sp = add_parser("k33", help="the pinned six-vertex experiment")
    sp.add_argument("--search", action="store_true", help="re-search the witness")
    sp.add_argument("--on", choices=["k33", "g154"], default="k33",
                    help="model the --search scans")
    sp.add_argument("--max-pairs", type=nonnegative_int, default=SEARCH_MAX_PAIRS,
                    help="bound the candidate pairs --search tries; 0 tries none and "
                         "enumerates no table")

    sp = add_parser("table1", help="summary-table reproduction with pinned expectations")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up on each call, not kept in the shared parser, so a rebound
    # cmd_ name is the one that runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    t0 = time.perf_counter()
    params = {k: v for k, v in vars(args).items() if k != "json" and v is not None}
    envelope = {
        "experiment": args.command,
        "params": params,
        "kernel_backend": kernel_backend,
        "version": __version__,
    }
    try:
        envelope["result"], code = handler(args)
    except FiberwalkError as exc:
        envelope["error"], code = str(exc), 1
    envelope["elapsed_ms"] = int((time.perf_counter() - t0) * 1000)
    # compact output keeps the C encoder; member text takes a slot in it and
    # every piece is written as it is, never joined into one string
    spliced = []

    def slot(value):
        if not isinstance(value, _Text):
            raise TypeError(f"{type(value).__name__} is not JSON serializable")
        spliced.append(value.pieces)
        return None

    text = json.dumps(envelope, sort_keys=True, default=slot)
    if spliced:
        head, _, tail = text.partition(MEMBERS_SLOT)
        pieces = [head + '"members": ', *spliced[0], tail + "\n"]
    else:
        pieces = [text + "\n"]
    # the file copy first, so a reader that closes stdout early cannot lose it
    out = getattr(args, "json", None)
    if out:
        try:
            with open(out, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            print(f"fiberwalk: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
            code = code or 1
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; keep the interpreter's final flush quiet too
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
