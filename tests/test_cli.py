import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberwalk
from fiberwalk import jsonio, k33
from fiberwalk.cli import build_parser, main
from fiberwalk.engine import _cell_codes, connected_component, unpack_table
from fiberwalk.families import cycle_graph
from fiberwalk.graphs import LabeledGraph, global_markov_moves
from fiberwalk.presets import resolve
from fiberwalk.tables import Table

from conftest import dump

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_component_preset_and_files(tmp_path, capsys):
    g = cycle_graph(4)
    start = Table({(1, 1, 1, 1): 1, (1, 2, 1, 2): 1})
    gpath, tpath = str(tmp_path / "g.json"), str(tmp_path / "t.json")
    dump(jsonio.graph_to_json(g), gpath)
    dump(jsonio.table_to_json(start, g.levels), tpath)
    code, rep = run(
        capsys, "component", "--graph", gpath, "--start", tpath, "--global-markov"
    )
    assert code == 0
    assert rep["experiment"] == "component"
    assert rep["result"]["size"] == 2 and rep["result"]["truncated"] is False
    assert len(rep["result"]["members"]) == 2


@pytest.mark.parametrize("argv, exit_code, body", [
    (["facets", "--preset", "c4"], 0, "result"),
    (["facets", "--preset", "e-simple"], 1, "error"),
])
def test_envelope_names_kernel_and_version(tmp_path, capsys, argv, exit_code, body):
    out = tmp_path / "report.json"
    code, rep = run(capsys, *argv, "--json", str(out))
    assert code == exit_code and body in rep
    assert rep["kernel_backend"] == fiberwalk.kernel_backend
    assert rep["kernel_backend"] in ("fast", "pure")
    assert rep["version"] == fiberwalk.__version__
    assert json.loads(out.read_text()) == rep


def test_component_seth_preset(capsys):
    code, rep = run(capsys, "component", "--preset", "seth-c4-3", "--global-markov")
    assert code == 0
    assert rep["result"]["size"] == 1


def test_connected_e_simple(tmp_path, capsys):
    from fiberwalk.tables import StateSpace

    space = StateSpace((2,))
    upath, vpath = str(tmp_path / "u.json"), str(tmp_path / "v.json")
    dump(jsonio.table_to_json(Table({(1,): 3, (2,): 1}), space), upath)
    dump(jsonio.table_to_json(Table({(1,): 1, (2,): 3}), space), vpath)
    code, rep = run(capsys, "connected", "--preset", "e-simple", "--u", upath, "--v", vpath)
    assert code == 0
    assert rep["result"]["status"] == "connected"
    assert rep["result"]["path_length"] == 1


# two connected K(3,3) pairs of degree 16: cells "xyzuvw", "x2" for a count of 2
K33_CONNECTED = {
    "k33-conn-a": (
        "111221 121122 121212 122122 122222 211122 211211 211222 212112 212122x2 221211 "
        "221221 222212",
        "111121 111222 112112 112222 121222 211112 211221 212122 221211x2 221222 222122x2 "
        "222212",
        8, "fa3ec7623a6e48ce9c6b302b1f591bc44b820e3820b5373dc7aae8076de32ca9",
    ),
    "k33-conn-b": (
        "111121 121111 121221 122111 122121x2 212121 212212 221122x2 221221 221222 "
        "222111 222211 222222",
        "112111 121121x2 122121x2 122211 211121 211222 221112 221221 221222 222111 "
        "222112 222221 222222",
        9, "b7426fe67d86c25b5d5a2974c7237aa8fc31dcb9f797c363a6d6aaab76f0b30c",
    ),
}


@pytest.mark.parametrize("case", sorted(K33_CONNECTED))
def test_connected_k33_paths_are_pinned(tmp_path, capsys, case):
    """The whole result, path included: the search is deterministic."""
    *codes, length, digest = K33_CONNECTED[case]
    space = resolve("k33").space
    files = []
    for side, code in zip("uv", codes):
        cells = []
        for tok in code.split():
            cell, _, count = tok.partition("x")
            cells.append((tuple(map(int, cell)), int(count or 1)))
        files.append(str(tmp_path / f"{side}.json"))
        dump(jsonio.table_to_json(Table(cells), space), files[-1])
    code, rep = run(capsys, "connected", "--preset", "k33", "--global-markov",
                    "--u", files[0], "--v", files[1])
    r = rep["result"]
    assert code == 0 and r["status"] == "connected" and r["path_length"] == length
    blob = json.dumps(r, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_verify_basis_family(capsys):
    code, rep = run(
        capsys, "verify-basis", "--preset", "c4", "--family", "cycle", "--max-degree", "4"
    )
    assert code == 0 and rep["result"]["passed"] is True


def test_facets_report(capsys):
    code, rep = run(capsys, "facets", "--preset", "c4")
    assert code == 0
    r = rep["result"]
    assert r["rank"] == 9 and r["n_facets"] == 24
    assert len(r["facets"]) == 24 and len(r["row_labels"]) == 16
    assert r["row_labels"][0] == "(1,2; 1,1)"


def test_check_margins_cli(capsys):
    code, rep = run(capsys, "check-margins", "--preset", "k23", "--mode", "positive")
    assert code == 0
    assert rep["result"]["holds"] is False
    assert rep["result"]["failing_witness"] == "P[a=3,C={1},b=4,D={1}]"
    code, rep = run(
        capsys, "check-margins", "--preset", "k23", "--mode", "interior",
        "--facet-source", "family",
    )
    assert code == 0 and rep["result"]["holds"] is True


@pytest.mark.parametrize("preset", ["k23", "c5"])
def test_family_facets_without_interior_mode_are_refused(capsys, preset):
    # positive mode reads no facets, so it must not echo a facet source it ignored
    code, rep = run(capsys, "check-margins", "--preset", preset, "--mode", "positive",
                    "--facet-source", "family")
    assert code == 1 and "result" not in rep
    assert rep["error"] == "--facet-source family needs --mode interior"


def test_witness_disconnect_cli(capsys):
    code, rep = run(capsys, "witness-disconnect", "--preset", "k23", "--c", "1")
    assert code == 0
    r = rep["result"]
    assert r["degree"] == 20
    assert r["margins_strictly_positive"] is True
    assert r["disconnected"] is True


@pytest.mark.parametrize("prime, error", [
    ("toric", "prime 'toric' is the toric ideal: it has no witness monomial to pad with"),
    ("nope", "unknown prime id 'nope'"),
])
def test_witness_disconnect_refuses_a_prime_without_a_witness(capsys, prime, error):
    code, rep = run(capsys, "witness-disconnect", "--preset", "k23", "--prime", prime)
    assert code == 1 and rep["error"] == error


def test_family_and_latin_cli(capsys, shared_seth_cone):
    code, rep = run(capsys, "family", "primes", "--graph", "k2n", "--levels", "2", "4",
                    "--count-only")
    assert code == 0 and rep["result"]["n_min_primes"] == 201
    code, rep = run(capsys, "family", "cycle-basis", "4")
    assert code == 0 and rep["result"]["n_moves"] == 16
    code, rep = run(capsys, "latin", "mols", "5")
    assert code == 0 and rep["result"]["n_squares"] == 4
    code, rep = run(capsys, "latin", "disconnect", "--preset", "seth-c4-3", "--order", "3")
    assert code == 0 and rep["result"]["isolated_interior_point"] is True


def test_k33_cli(capsys):
    code, rep = run(capsys, "k33")
    assert code == 0
    assert (rep["result"]["c18a"], rep["result"]["c18b"], rep["result"]["c90"]) == (18, 18, 90)


@pytest.mark.parametrize("argv", [
    ["--on", "g154"],
    ["--max-pairs", "0"],
    ["--on", "g154", "--max-pairs", "0"],
])
def test_k33_refuses_search_options_without_search(capsys, argv):
    code, rep = run(capsys, "k33", *argv)
    assert code == 1 and rep["error"] == "--on and --max-pairs need --search"
    # their defaults, spelled out, still run the pinned experiment
    code, rep = run(capsys, "k33", "--on", "k33", "--max-pairs", "200")
    assert code == 0 and rep["result"]["c90"] == 90


# sha256 of json.dumps(result, sort_keys=True) of the table1 envelope
TABLE1_RESULT_SHA256 = "2008c393080c4b1c3f6e9eb909976b38df20b5f6c35340c54e33115795b46d74"


def test_table1_cli(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code, rep = run(capsys, "--json", out, "table1")
    assert code == 0
    assert rep["result"]["all_match"] is True
    sources = {name: row["count_source"] for name, row in rep["result"]["rows"].items()}
    assert sources == {
        "c4": "enumeration",
        "c5": "enumeration",
        "g48": "enumeration",
        "k23": "enumeration",
        "square-pyramid": "layer-product formula (9^2), cross-checked by composition",
    }
    with open(out) as fh:
        assert json.load(fh)["result"]["all_match"] is True
    blob = json.dumps(rep["result"], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == TABLE1_RESULT_SHA256


# one command per exit code that prints an envelope
ENVELOPE_COMMANDS = [
    (["latin", "mols", "3"], 0),
    (["component", "--preset", "c4"], 1),  # no start table
    (["component", "--preset", "seth-c4-3", "--global-markov"], 0),  # member text spliced in
]


@pytest.mark.parametrize("argv, exit_code", ENVELOPE_COMMANDS)
def test_envelope_is_one_line_and_the_file_gets_the_same(tmp_path, capsys, argv, exit_code):
    out = tmp_path / "report.json"
    assert main([*argv, "--json", str(out)]) == exit_code
    text = capsys.readouterr().out
    assert text.endswith("\n") and text.count("\n") == 1
    assert out.read_text() == text


def test_unwritable_json_file_is_reported_and_stdout_still_written(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "report.json"
    assert main(["latin", "mols", "3", "--json", str(out)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["result"]["n_squares"] == 2
    assert f"cannot write {out}" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv, exit_code", ENVELOPE_COMMANDS)
def test_closed_stdout_keeps_the_exit_code_without_a_traceback(tmp_path, argv, exit_code):
    src = str(Path(fiberwalk.__file__).resolve().parent.parent)
    out = tmp_path / "report.json"
    # the read end is closed before the child starts, so its write must fail
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fiberwalk.cli", *argv, "--json", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == exit_code
    assert json.loads(out.read_text())["experiment"] == argv[0]


C5_START = Table({(1, 1, 2, 2, 1): 2, (1, 1, 2, 2, 2): 1, (1, 2, 1, 1, 2): 1,
                  (1, 2, 1, 2, 2): 1, (1, 2, 2, 1, 1): 1, (2, 1, 1, 2, 2): 1,
                  (2, 1, 2, 2, 2): 1})  # a c5 fiber of 70 tables under the quadratic moves


def with_c5_member_dicts(text):
    """The envelope text that json.dumps writes when the members are the
    table_to_json dicts of the library's closure of C5_START."""
    preset = resolve("c5")
    rep = connected_component(C5_START, global_markov_moves(preset.graph), preset.space)
    envelope = json.loads(text)
    envelope["result"]["members"] = [jsonio.table_to_json(unpack_table(b, preset.space),
                                                          preset.space)
                                     for b in rep.packed]
    return json.dumps(envelope, sort_keys=True) + "\n"


def component_c5(tmp_path, name="t.json"):
    tpath = str(tmp_path / name)
    dump(jsonio.table_to_json(C5_START, resolve("c5").space), tpath)
    return ["component", "--preset", "c5", "--start", tpath, "--global-markov"]


def test_component_members_come_straight_from_packed_tables(tmp_path, capsys):
    assert main(component_c5(tmp_path)) == 0
    text = capsys.readouterr().out
    assert json.loads(text)["result"]["size"] == 70
    assert text == with_c5_member_dicts(text)


def test_component_dump_writes_the_same_text_to_the_file_and_stdout(tmp_path, capsys,
                                                                     monkeypatch):
    import fiberwalk.cli as cli

    monkeypatch.setattr(cli, "MEMBER_DUMP_LIMIT", 69)
    argv, out = component_c5(tmp_path), tmp_path / "report.json"
    code, rep = run(capsys, *argv)
    assert code == 0 and rep["result"]["size"] == 70 and "members" not in rep["result"]
    assert main([*argv, "--dump", "--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert out.read_bytes() == text.encode()
    assert text == with_c5_member_dicts(text)


def test_component_sorts_no_members_it_does_not_write(tmp_path, capsys, monkeypatch):
    import fiberwalk.cli as cli

    reports = []

    def kept(*args, **kwargs):
        reports.append(connected_component(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "connected_component", kept)
    monkeypatch.setattr(cli, "MEMBER_DUMP_LIMIT", 69)
    argv = component_c5(tmp_path)
    code, rep = run(capsys, *argv)
    assert code == 0 and rep["result"]["size"] == 70 and "members" not in rep["result"]
    assert "packed" not in vars(reports[-1])  # no sorted member tuple was built
    code, rep = run(capsys, *argv, "--dump")
    assert len(rep["result"]["members"]) == 70 and "packed" in vars(reports[-1])


def test_member_slot_text_in_a_parameter_is_not_spliced(tmp_path, capsys):
    from fiberwalk.cli import MEMBERS_SLOT

    argv = component_c5(tmp_path, f"{MEMBERS_SLOT} {MEMBERS_SLOT}.json")
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert json.loads(text)["params"]["start"] == argv[4]
    assert text == with_c5_member_dicts(text)


def test_json_flag_after_subcommand(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code, _ = run(capsys, "k33", "--json", out)
    assert code == 0
    with open(out) as fh:
        assert json.load(fh)["result"]["c90"] == 90


def test_table1_deterministic_result(capsys):
    _, rep1 = run(capsys, "table1")
    _, rep2 = run(capsys, "table1")
    assert json.dumps(rep1["result"], sort_keys=True) == json.dumps(
        rep2["result"], sort_keys=True
    )


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    code = main(["component", "--preset", "c4"])  # missing --start
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    assert "error" in out


def test_component_degree_above_byte_range(tmp_path, capsys):
    tpath = str(tmp_path / "t.json")
    with open(tpath, "w") as fh:
        json.dump({"d": [2], "cells": [[[1], 200], [[2], 100]]}, fh)
    code, rep = run(capsys, "component", "--preset", "e-simple", "--start", tpath)
    assert code == 1
    assert "degree 300" in rep["error"]


def test_table1_family_route_must_agree(monkeypatch, capsys):
    import fiberwalk.cli as cli

    row_of = cli._table1_row

    def flipped(name):
        row = row_of(name)
        if name == "g48":
            row["interior_point_family_route"] = not row["interior_point_family_route"]
        return row

    monkeypatch.setattr(cli, "_table1_row", flipped)
    code, rep = run(capsys, "table1")
    assert code == 1 and rep["result"]["all_match"] is False
    assert [n for n, row in rep["result"]["rows"].items() if not row["match"]] == ["g48"]


def test_check_margins_graph_file_with_family(tmp_path, capsys):
    g = cycle_graph(5)
    gpath = str(tmp_path / "c5.json")
    dump(jsonio.graph_to_json(g), gpath)
    code, rep = run(capsys, "check-margins", "--graph", gpath, "--mode", "positive")
    assert code == 0 and rep["result"]["holds"] is True


@pytest.mark.parametrize("option", ["--max-pairs"])
def test_k33_search_negative_cap_is_a_usage_error(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["k33", "--search", option, "-1"])
    assert exc.value.code == 2
    assert f"argument {option}: must be >= 0" in capsys.readouterr().err


def test_k33_has_no_cap_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["k33", "--cap", "4096"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 4096" in capsys.readouterr().err


def test_main_builds_the_parser_once(capsys):
    build_parser.cache_clear()
    for _ in range(2):
        assert run(capsys, "latin", "mols", "3")[0] == 0
        with pytest.raises(SystemExit):
            main(["k33", "--max-pairs", "-1"])
        assert "argument --max-pairs: must be >= 0" in capsys.readouterr().err
    assert build_parser.cache_info().misses == 1
    # the shared parser prints what a new one does
    assert build_parser().format_help() == build_parser.__wrapped__().format_help()


def test_k33_bounded_search_smoke(capsys):
    # the witness comes at pair 140, so 5 pairs find nothing
    code, rep = run(capsys, "k33", "--search", "--max-pairs", "5")
    assert code == 0
    assert rep["result"]["found"] is False


def test_k33_search_finds_nothing_on_g154(capsys):
    code, rep = run(capsys, "k33", "--search", "--on", "g154")
    assert code == 0
    assert rep["result"] == {"search": True, "on": "g154", "found": False}


def test_k33_search_with_no_pairs_enumerates_nothing(monkeypatch, capsys):
    calls = []

    def counted(am, width):
        calls.append(am)
        return _cell_codes(am, width)

    monkeypatch.setattr(k33, "_cell_codes", counted)
    code, rep = run(capsys, "k33", "--search", "--max-pairs", "0")
    assert code == 0
    assert rep["result"]["found"] is False
    assert calls == []
    # one pair on the small c4 model does enumerate
    k33.k33_search(max_pairs=1, graph=resolve("c4").graph)
    assert len(calls) == 1


def write_graph(tmp_path, name):
    path = str(tmp_path / f"{name}.json")
    dump(jsonio.graph_to_json(resolve(name).graph), path)
    return path


@pytest.mark.parametrize("name", ["c4", "c5", "k23", "g48", "square-pyramid"])
@pytest.mark.parametrize("mode", ["positive", "interior"])
def test_check_margins_graph_file_matches_preset(tmp_path, capsys, name, mode):
    gpath = write_graph(tmp_path, name)
    code, by_preset = run(capsys, "check-margins", "--preset", name, "--mode", mode)
    assert code == 0
    code, by_file = run(capsys, "check-margins", "--graph", gpath, "--mode", mode)
    assert code == 0 and by_file["result"] == by_preset["result"]


@pytest.mark.parametrize("argv", [
    # the 3-level 4-cycle has no closed-form primes (its interior table is isolated)
    ["check-margins", "--preset", "seth-c4-3", "--mode", "interior"],
    ["verify-basis", "--preset", "k23", "--family", "cycle", "--max-degree", "2"],
    ["check-margins", "--preset", "c4", "--mode", "interior", "--facet-source", "family"],
    ["witness-disconnect", "--preset", "c5"],
])
def test_family_must_be_the_graphs_own(capsys, argv):
    code, rep = run(capsys, *argv)
    assert code == 1 and "error" in rep and "result" not in rep


@pytest.mark.parametrize("argv", [
    ["check-margins", "--preset", "k23", "--family", "cycle", "--mode", "positive"],
    ["check-margins", "--graph", "c4.json", "--family", "k2n", "--mode", "positive"],
    ["witness-disconnect", "--graph", "c4.json", "--family", "k2n"],
])
def test_family_option_removed(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_witness_disconnect_graph_file(tmp_path, capsys):
    code, rep = run(capsys, "witness-disconnect", "--graph", write_graph(tmp_path, "k23"))
    assert code == 0 and rep["result"]["disconnected"] is True
    code, rep = run(capsys, "witness-disconnect", "--graph", write_graph(tmp_path, "c4"))
    assert code == 1 and "error" in rep


def test_relabelled_graph_file_has_no_family(tmp_path, capsys):
    gpath = str(tmp_path / "c4-relabelled.json")
    dump({"vertices": 4, "d": [2, 2, 2, 2], "edges": [[1, 2], [2, 4], [4, 3], [3, 1]]},
         gpath)
    code, rep = run(capsys, "check-margins", "--graph", gpath, "--mode", "positive")
    assert code == 1 and "error" in rep


@pytest.mark.parametrize("argv", [
    ["check-margins", "--preset", "e-simple", "--mode", "positive"],
    ["latin", "disconnect", "--preset", "e-simple", "--order", "3"],
    ["verify-basis", "--preset", "e-simple", "--max-degree", "2"],
    ["facets", "--preset", "e-simple"],
    ["witness-disconnect", "--preset", "e-simple"],
    ["family", "primes", "--graph", "cycle"],
    ["family", "primes", "--graph", "k2n"],
])
def test_incomplete_input_is_an_error_envelope(capsys, argv):
    code, rep = run(capsys, *argv)
    assert code == 1 and "error" in rep


@pytest.mark.parametrize("content, needle", [
    (None, "cannot read"),
    ("{not json", "not valid JSON"),
    ("[1, 2]", "must be an object"),
    ('{"d": [2], "cells": [[[1], "x"]]}', "integer"),
    ('{"d": [2], "cells": [[[1], 2.7]]}', "integer"),
    ('{"d": [2, 2, 2, 2], "cells": [[[true, 1, 2, 1], 1]]}', "coordinate must be an integer"),
    ('{"d": [2, 2, 2, 2], "cells": [[[1.0, 1, 2, 1], 1]]}', "coordinate must be an integer"),
    ('{"d": [2.5, 2], "cells": []}', "level must be an integer, not 2.5"),
    ('{"d": ["2", 2], "cells": []}', "level must be an integer, not '2'"),
    ('{"d": [2, 2.0], "cells": []}', "level must be an integer, not 2.0"),
    ('{"d": [true, 2], "cells": []}', "level must be an integer, not True"),
], ids=["missing", "malformed", "list", "string-count", "fractional-count", "bool-coordinate",
        "float-coordinate", "fractional-level", "string-level", "float-level", "bool-level"])
def test_bad_table_file_is_an_error_envelope(tmp_path, capsys, content, needle):
    path = tmp_path / "start.json"
    if content is not None:
        path.write_text(content)
    code, rep = run(capsys, "component", "--preset", "e-simple", "--start", str(path))
    assert code == 1 and needle in rep["error"]


@pytest.mark.parametrize("content, needle", [
    ('{"move": []}', '"moves"'),
    ("[[1, 2]]", "must be an object"),
    ('[{"plus": [[[1], 2.0]], "minus": [[[2], 2]]}]', "integer"),
    ('[{"plus": [[[true, 1, 1, 1], 1]], "minus": [[[2, 1, 1, 1], 1]]}]',
     "coordinate must be an integer"),
    ('[{"plus": [[[1, 1, 1, 1], 1]], "minus": [[[2.0, 1, 1, 1], 1]]}]',
     "coordinate must be an integer"),
    ('[{"plus": [[[1, 1, 1, 1], 1]], "minus": [[[3, 1, 1, 1], 1]]}]',
     "coordinate 1 of state (3, 1, 1, 1) outside 1..2"),
    ('[{"plus": [[[1, 1, 1, 1], 1]], "minus": [[[2, 1, 1, 1], 1]]}]',
     "move 0 changes the margins"),
], ids=["no-moves-key", "list-of-lists", "float-count", "bool-coordinate", "float-coordinate",
        "state-out-of-range", "margin-changing"])
def test_bad_moves_file_is_an_error_envelope(tmp_path, capsys, content, needle):
    path = tmp_path / "moves.json"
    path.write_text(content)
    code, rep = run(capsys, "verify-basis", "--preset", "c4", "--moves", str(path),
                    "--max-degree", "2")
    assert code == 1 and needle in rep["error"]


def test_bad_graph_file_is_an_error_envelope(tmp_path, capsys):
    path = tmp_path / "g.json"
    edges = '"edges": [[1, 2]]'
    for content, needle in [
        ('[{"vertices": 4}]', "must be an object"),
        ('{"vertices": 2, "d": [2.5, 2], %s}' % edges, "level must be an integer, not 2.5"),
        ('{"vertices": 2, "d": ["2", 2], %s}' % edges, "level must be an integer, not '2'"),
        ('{"vertices": 2, "d": [2, 2.0], %s}' % edges, "level must be an integer, not 2.0"),
        ('{"vertices": 2, "d": [true, 2], %s}' % edges, "level must be an integer, not True"),
    ]:
        path.write_text(content)
        code, rep = run(capsys, "facets", "--graph", str(path))
        assert code == 1 and needle in rep["error"], content


def test_quadratic_moves_of_a_13_vertex_graph_are_refused(tmp_path, capsys):
    gpath, tpath = str(tmp_path / "g.json"), str(tmp_path / "t.json")
    path = LabeledGraph.build(13, [(i, i + 1) for i in range(1, 13)], [2] * 13)
    dump(jsonio.graph_to_json(path), gpath)
    dump({"d": [2] * 13, "cells": [[[1] * 13, 1]]}, tpath)
    code, rep = run(capsys, "component", "--graph", gpath, "--start", tpath)
    assert code == 1 and rep["error"] == "quadratic moves capped at 12 vertices"


def test_readme_command_lines_parse():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv and argv[0] == "fiberwalk"]
    assert len(commands) >= 16
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: fiberwalk {shlex.join(argv)}")


def test_verify_basis_family_and_moves_are_exclusive(tmp_path, capsys):
    mpath = str(tmp_path / "empty.json")
    dump([], mpath)
    with pytest.raises(SystemExit) as exc:
        main(["verify-basis", "--preset", "c4", "--family", "cycle", "--moves", mpath,
              "--max-degree", "2"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    code, rep = run(capsys, "verify-basis", "--preset", "c4", "--moves", mpath,
                    "--max-degree", "2")
    assert code == 0 and rep["result"]["n_moves"] == 0 and rep["result"]["passed"] is False


def c4_table_args(command, f):
    """The start table (`component`) or the two tables (`connected`) on c4."""
    return ["--start", f["u"]] if command == "component" else ["--u", f["u"], "--v", f["v"]]


@pytest.mark.parametrize("command", ["component", "connected"])
def test_moves_file_and_global_markov_are_exclusive(fuzz_files, tmp_path, capsys, command):
    mpath = str(tmp_path / "empty.json")
    dump([], mpath)
    argv = [command, "--preset", "c4", *c4_table_args(command, fuzz_files)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--moves", mpath, "--global-markov"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    _, by_file = run(capsys, *argv, "--moves", mpath)
    _, by_graph = run(capsys, *argv, "--global-markov")
    if command == "component":
        assert (by_file["result"]["size"], by_graph["result"]["size"]) == (1, 2)
    else:
        assert by_file["result"]["status"] == "not-connected"
        assert by_graph["result"]["status"] == "connected"


@pytest.mark.parametrize("cap", ["0", "-3"])
@pytest.mark.parametrize("command", ["component", "connected"])
def test_component_and_connected_refuse_the_same_caps(fuzz_files, capsys, command, cap):
    code, rep = run(capsys, command, "--preset", "c4", *c4_table_args(command, fuzz_files),
                    "--global-markov", "--cap", cap)
    assert code == 1 and rep["error"] == "node_cap must be >= 1"


@pytest.mark.parametrize("command, side", [
    ("component", "u"), ("connected", "u"), ("connected", "v"),
])
def test_table_file_on_other_levels_is_refused(fuzz_files, tmp_path, capsys, command, side):
    # every cell lies inside 1..2, so only the levels tell it from a c4 table
    path = str(tmp_path / "levels3.json")
    dump({"d": [3, 3, 3, 3], "cells": [[[1, 1, 1, 1], 1], [[1, 2, 1, 2], 1]]}, path)
    files = {**fuzz_files, side: path}
    code, rep = run(capsys, command, "--preset", "c4", *c4_table_args(command, files),
                    "--global-markov")
    assert code == 1
    assert rep["error"] == "table levels [3, 3, 3, 3] are not the model's [2, 2, 2, 2]"


@pytest.mark.parametrize("model", [
    ["--preset", "c4", "--k2n-levels", "2", "2"],
    ["--preset", "k23", "--k2n-levels", "2", "2", "2"],
    ["--preset", "c4", "--k2n-levels"],
    ["--graph", "{c4}", "--k2n-levels", "2", "2"],
])
def test_k2n_levels_without_the_k2n_preset_is_an_error(fuzz_files, capsys, model):
    model = [a.format(**fuzz_files) for a in model]
    code, rep = run(capsys, "component", *model, "--start", fuzz_files["u"], "--global-markov")
    assert code == 1 and rep["error"] == "--k2n-levels needs --preset k2n"
    code, rep = run(capsys, "facets", *model)
    assert code == 1 and rep["error"] == "--k2n-levels needs --preset k2n"


@pytest.mark.parametrize("argv, error", [
    (["--graph", "cycle", "--n", "4", "--levels", "2", "9"], "--levels needs --graph k2n"),
    (["--graph", "cycle", "--n", "4", "--levels"], "--levels needs --graph k2n"),
    (["--graph", "k2n", "--levels", "2", "2", "--n", "7"], "--n needs --graph cycle"),
    (["--graph", "k2n"], "family primes --graph k2n needs --levels, two or more of them"),
    (["--graph", "k2n", "--levels", "2"],
     "family primes --graph k2n needs --levels, two or more of them"),
])
def test_family_primes_refuses_the_other_familys_option(capsys, argv, error):
    code, rep = run(capsys, "family", "primes", *argv, "--count-only")
    assert code == 1 and rep["error"] == error


@pytest.mark.parametrize("argv, cells, n_variables", [
    (["--graph", "cycle", "--n", "4"], 16, 8),
    (["--graph", "k2n", "--levels", "2", "3"], 24, 12),
    (["--graph", "k2n", "--levels", "2", "4"], 32, 16),
])
def test_family_primes_counts_the_variables_outside_each_witness(capsys, argv, cells,
                                                                 n_variables):
    code, rep = run(capsys, "family", "primes", *argv)
    assert code == 0
    *primes, toric = rep["result"]["primes"]
    assert toric == {"id": "toric", "origin": "toric", "n_variables": 0, "witness": None}
    assert {p["n_variables"] for p in primes} == {n_variables}
    assert all(len(p["witness"]["cells"]) == cells - n_variables for p in primes)


@pytest.mark.parametrize("argv", [
    ["family", "cycle-basis", "9"],
    ["family", "primes", "--graph", "cycle", "--n", "9", "--count-only"],
    ["family", "primes", "--graph", "cycle", "--n", str(10 ** 30), "--count-only"],
])
def test_cycle_family_above_the_cap_is_refused_at_once(capsys, argv):
    from fiberwalk.families import MAX_CYCLE_N

    assert MAX_CYCLE_N == 8
    t0 = time.perf_counter()
    code, rep = run(capsys, *argv)
    # generating the n = 9 families takes seconds; refusing them takes none
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and "n = 8" in rep["error"]


@pytest.mark.parametrize("argv", [
    ["family", "primes", "--graph", "k2n", "--levels", "2", "7", "--count-only"],
    ["family", "primes", "--graph", "k2n", "--levels", "2", "8", "--count-only"],
    ["family", "k2n-basis", "2", "2", "2", "3"],
    ["family", "k2n-basis", "2", "2", "20"],
])
def test_k2n_family_above_the_cap_is_refused_at_once(capsys, argv):
    from fiberwalk.families import MAX_K2N_WORK

    t0 = time.perf_counter()
    code, rep = run(capsys, *argv)
    # generating these takes seconds or more; refusing them takes none
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and f"{MAX_K2N_WORK:,}" in rep["error"]


# ---------------------------------------------------------------------------
# bounded fuzzing of the numeric options: an envelope or a usage error, never
# a traceback


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    c4, c3 = cycle_graph(4), cycle_graph(3)
    files = {
        "u": Table({(1, 1, 1, 1): 1, (1, 2, 1, 2): 1}),
        "v": Table({(1, 1, 1, 2): 1, (1, 2, 1, 1): 1}),
    }
    paths = {}
    for name, t in files.items():
        paths[name] = str(d / f"{name}.json")
        dump(jsonio.table_to_json(t, c4.levels), paths[name])
    for name, g in (("c3", c3), ("c4", c4)):
        paths[name] = str(d / f"{name}.json")
        dump(jsonio.graph_to_json(g), paths[name])
    return paths


# Small, negative and huge values.  Every case below stays cheap whatever
# value it draws: the work an option would start at a large value is refused
# at the boundary, or another option of the case bounds it, or (`k33
# --search`) the search stops at its witness, in about 1.5 s.
NUMBER = st.integers(-3, 3) | st.integers(-(10 ** 6), -1) | st.sampled_from(
    [10 ** 6, 2 ** 63, 10 ** 30])


def fuzz_cases(f):
    """Per numeric option of each subcommand, the argv of a case given its
    number; `table1` has no numeric option."""
    return {
        "component": lambda n: ["component", "--preset", "c4", "--start", f["u"],
                                "--global-markov", "--cap", n],
        "connected": lambda n: ["connected", "--preset", "c4", "--u", f["u"], "--v", f["v"],
                                "--global-markov", "--cap", n],
        "verify-basis": lambda n: ["verify-basis", "--preset", "c4", "--family", "cycle",
                                   "--max-degree", n],
        "facets": lambda n: ["facets", "--preset", "k2n", "--k2n-levels", n, "2"],
        "check-margins": lambda n: ["check-margins", "--preset", "k2n", "--k2n-levels", "2", n,
                                    "--mode", "interior"],
        "witness-disconnect --c": lambda n: ["witness-disconnect", "--preset", "k23", "--c", n],
        "witness-disconnect --cap": lambda n: ["witness-disconnect", "--preset", "k23",
                                               "--cap", n],
        "family cycle-basis": lambda n: ["family", "cycle-basis", n],
        "family k2n-basis": lambda n: ["family", "k2n-basis", "2", n],
        "family primes --n": lambda n: ["family", "primes", "--graph", "cycle", "--n", n],
        "family primes --levels": lambda n: ["family", "primes", "--graph", "k2n",
                                             "--levels", n, "2"],
        "latin mols": lambda n: ["latin", "mols", n],
        "latin disconnect --order": lambda n: ["latin", "disconnect", "--graph", f["c3"],
                                               "--order", n],
        "latin disconnect --cap": lambda n: ["latin", "disconnect", "--graph", f["c3"],
                                             "--order", "2", "--cap", n],
        "k33 --max-pairs": lambda n: ["k33", "--search", "--max-pairs", n],
    }


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_numeric_options_give_an_envelope_or_a_usage_error(fuzz_files, data):
    cases = fuzz_cases(fuzz_files)
    name = data.draw(st.sampled_from(sorted(cases)), label="case")
    argv = cases[name](str(data.draw(NUMBER, label="value")))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the value
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code != 2:
        envelope = json.loads(out.getvalue())
        assert ("error" in envelope) == (code == 1), (argv, envelope)
