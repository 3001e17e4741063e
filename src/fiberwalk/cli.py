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
from .engine import are_connected, connected_component, verify_markov_basis
from .errors import FiberwalkError
from .families import (
    K2NShape,
    check_cycle_size,
    closed_form_family,
    closed_form_primes,
    cycle_graph,
    cycle_markov_basis,
    k2n_facet_inequalities,
    k2n_markov_basis,
    k2n_quartic_moves,
    k2n_shape_of,
    pyramid_prime_count,
)
from .graphs import global_markov_moves, margin_map, margins
from .k33 import k33_run, k33_search
from .latin import latin_table, mols, verify_disconnection
from .presets import PRESET_NAMES, Preset, resolve, table1_expected

MEMBER_DUMP_LIMIT = 10_000


def _load_model(args) -> Preset:
    if getattr(args, "preset", None):
        return resolve(args.preset, k2n_levels=tuple(getattr(args, "k2n_levels", ()) or ()))
    if getattr(args, "graph", None):
        g = jsonio.graph_from_json(jsonio.load(args.graph))
        return Preset(name=args.graph, graph=g, space=g.levels)
    raise FiberwalkError("need --graph FILE or --preset NAME")


def _load_graph(args) -> Preset:
    preset = _load_model(args)
    if preset.graph is None:
        raise FiberwalkError(f"{args.command} needs a graph; preset {preset.name} has none")
    return preset


def _load_moves(args, preset: Preset):
    if getattr(args, "moves", None):
        return jsonio.moves_from_json(jsonio.load(args.moves))
    if preset.pinned_moves and not getattr(args, "global_markov", False):
        return preset.pinned_moves
    if preset.graph is None:
        raise FiberwalkError(f"preset {preset.name} has no graph; supply --moves")
    return global_markov_moves(preset.graph)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (result_dict, exit_code)


def cmd_component(args):
    preset = _load_model(args)
    if args.start:
        start, _ = jsonio.table_from_json(jsonio.load(args.start))
    elif preset.pinned_table is not None:
        start = preset.pinned_table
    else:
        raise FiberwalkError("need --start FILE (or a preset with a pinned table)")
    moves = _load_moves(args, preset)
    rep = connected_component(start, moves, preset.space, node_cap=args.cap)
    result = {"size": rep.size, "truncated": rep.truncated}
    if rep.packed is not None and (rep.size <= MEMBER_DUMP_LIMIT or args.dump):
        result["members"] = jsonio.packed_tables_to_json(rep.packed, preset.space)
    return result, 0


def cmd_connected(args):
    preset = _load_model(args)
    u, _ = jsonio.table_from_json(jsonio.load(args.u))
    v, _ = jsonio.table_from_json(jsonio.load(args.v))
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
    graph = _load_graph(args).graph
    am = margin_map(graph)
    witnesses = [w for w in closed_form_primes(graph) if not w.is_toric]
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
    witnesses = [w for w in closed_form_primes(preset.graph) if not w.is_toric]
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
            if args.n is None:
                raise FiberwalkError("family primes --graph cycle needs --n")
            check_cycle_size(args.n)  # before the graph, which is O(n) to build
            graph = cycle_graph(args.n)
        else:
            graph = resolve("k2n", k2n_levels=tuple(args.levels or ())).graph
        ws = closed_form_primes(graph)
        result = {"n_min_primes": len(ws)}
        if not args.count_only:
            result["primes"] = [
                {
                    "id": w.id,
                    "origin": w.origin,
                    "n_variables": len(w.variables),
                    "witness": jsonio.table_to_json(w.table, graph.levels) if w.table else None,
                }
                for w in ws
            ]
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
        target = resolve(args.on).graph if args.on != "k33" else None
        found = k33_search(
            max_pairs=args.max_pairs, max_tables=args.max_tables, graph=target
        )
        if found is None:
            return {"search": True, "on": args.on, "found": False}, 0
        space = resolve(args.on).space
        return {
            "search": True,
            "on": args.on,
            "found": True,
            "pairs_tried": found["pairs_tried"],
            "u_plus": jsonio.table_to_json(found["u_plus"], space),
            "u_minus": jsonio.table_to_json(found["u_minus"], space),
            "w": jsonio.table_to_json(found["w"], space),
        }, 0
    return k33_run(cap=args.cap), 0


def _table1_row(name: str) -> dict:
    graph = resolve(name).graph
    am = margin_map(graph)
    family = closed_form_family(graph)
    witnesses = closed_form_primes(graph)
    count = len(witnesses)
    count_source = "enumeration + dedup"
    if family == "pyramid":
        base = len(closed_form_primes(cycle_graph(graph.n_vertices - 1)))
        apex = graph.levels.levels[-1]
        count = pyramid_prime_count(base, apex)
        count_source = f"layer-product formula ({base}^{apex}), cross-checked by composition"
        if count != len(witnesses):
            raise FiberwalkError(f"{count} primes by formula but {len(witnesses)} composed")
    checkable = [w for w in witnesses if not w.is_toric]
    pos = check_margin_property(checkable, am)
    facets = cone_facets(am)
    interior = check_margin_property(checkable, am, facets)
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
        row["interior_point_family_route"] = check_margin_property(checkable, am, fam).holds
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

    sp = add_parser("component", help="BFS closure of a table under moves")
    add_graph_opts(sp)
    sp.add_argument("--start", help="table JSON file")
    sp.add_argument("--moves", help="moves JSON file")
    sp.add_argument("--global-markov", action="store_true", help="use the graph's quadratic moves")
    sp.add_argument("--cap", type=int, default=1_000_000)
    sp.add_argument("--dump", action="store_true", help="emit members even above the dump limit")
    sp.set_defaults(func=cmd_component)

    sp = add_parser("connected", help="bidirectional search between two tables")
    add_graph_opts(sp)
    sp.add_argument("--u", required=True)
    sp.add_argument("--v", required=True)
    sp.add_argument("--moves")
    sp.add_argument("--global-markov", action="store_true")
    sp.add_argument("--cap", type=int, default=1_000_000)
    sp.set_defaults(func=cmd_connected)

    sp = add_parser("verify-basis", help="do the moves connect every fiber up to a degree?")
    add_graph_opts(sp)
    basis = sp.add_mutually_exclusive_group()
    basis.add_argument("--moves")
    basis.add_argument("--family", choices=["cycle", "k2n"])
    sp.add_argument("--max-degree", type=int, required=True)
    sp.set_defaults(func=cmd_verify_basis)

    sp = add_parser("facets", help="exact facets of the marginal cone")
    add_graph_opts(sp)
    sp.set_defaults(func=cmd_facets)

    sp = add_parser("check-margins", help="margin-property verdict from prime witnesses")
    add_graph_opts(sp)
    sp.add_argument("--mode", choices=["positive", "interior"], required=True)
    sp.add_argument("--facet-source", choices=["brute", "family"], default="brute")
    sp.set_defaults(func=cmd_check_margins)

    sp = add_parser("witness-disconnect", help="padded pair splitting a positive fiber")
    add_graph_opts(sp)
    sp.add_argument("--prime", help="prime id (default: first strictly-positive witness)")
    sp.add_argument("--c", type=int, default=1, help="padding multiplier")
    sp.add_argument("--cap", type=int, default=1_000_000)
    sp.set_defaults(func=cmd_witness_disconnect)

    sp = add_parser("family", help="closed-form move/prime families")
    fam_sub = sp.add_subparsers(dest="what", required=True)
    f1 = fam_sub.add_parser("cycle-basis", parents=[shared])
    f1.add_argument("n", type=int)
    f1.set_defaults(func=cmd_family)
    f2 = fam_sub.add_parser("k2n-basis", parents=[shared])
    f2.add_argument("levels", type=int, nargs="+", help="second-group levels d3 d4 ...")
    f2.set_defaults(func=cmd_family)
    f3 = fam_sub.add_parser("primes", parents=[shared])
    f3.add_argument("--graph", choices=["cycle", "k2n"], required=True,
                    help="which closed-form family")
    f3.add_argument("--n", type=int, help="cycle length")
    f3.add_argument("--levels", type=int, nargs="*", help="k2n second-group levels")
    f3.add_argument("--count-only", action="store_true")
    f3.set_defaults(func=cmd_family)

    sp = add_parser("latin", help="orthogonal Latin squares and isolation reports")
    lat_sub = sp.add_subparsers(dest="what", required=True)
    l1 = lat_sub.add_parser("mols", parents=[shared])
    l1.add_argument("q", type=int)
    l1.set_defaults(func=cmd_latin)
    l2 = lat_sub.add_parser("disconnect", parents=[shared])
    add_graph_opts(l2)
    l2.add_argument("--order", type=int, required=True)
    l2.add_argument("--cap", type=int, default=100_000)
    l2.set_defaults(func=cmd_latin)

    sp = add_parser("k33", help="the pinned six-vertex experiment")
    sp.add_argument("--search", action="store_true", help="re-search the witness (slow)")
    sp.add_argument("--on", choices=["k33", "g154"], default="k33",
                    help="model the --search scans")
    sp.add_argument("--max-pairs", type=nonnegative_int, default=200,
                    help="bound the candidate pairs --search tries after it has enumerated "
                         "every degree-4 table; any N > 0 still enumerates all of them")
    sp.add_argument("--max-tables", type=nonnegative_int, default=None,
                    help="bound the degree-4 enumeration phase of --search")
    sp.add_argument("--cap", type=int, default=4096)
    sp.set_defaults(func=cmd_k33)

    sp = add_parser("table1", help="summary-table reproduction with pinned expectations")
    sp.set_defaults(func=cmd_table1)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    params = {
        k: v for k, v in vars(args).items() if k not in ("func", "json") and v is not None
    }
    envelope = {
        "experiment": args.command,
        "params": params,
        "kernel_backend": kernel_backend,
        "version": __version__,
    }
    try:
        envelope["result"], code = args.func(args)
    except FiberwalkError as exc:
        envelope["error"], code = str(exc), 1
    envelope["elapsed_ms"] = int((time.perf_counter() - t0) * 1000)
    # the C encoder only runs without indent; compact output is one line
    text = json.dumps(envelope, sort_keys=True) + "\n"
    # the file copy first, so a reader that closes stdout early cannot lose it
    out = getattr(args, "json", None)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"fiberwalk: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
            code = code or 1
    try:
        sys.stdout.write(text)
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
