import json

import pytest

from fiberwalk import jsonio
from fiberwalk.cli import main
from fiberwalk.families import cycle_graph
from fiberwalk.tables import Table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_component_preset_and_files(tmp_path, capsys):
    g = cycle_graph(4)
    start = Table({(1, 1, 1, 1): 1, (1, 2, 1, 2): 1})
    gpath, tpath = str(tmp_path / "g.json"), str(tmp_path / "t.json")
    jsonio.dump(jsonio.graph_to_json(g), gpath)
    jsonio.dump(jsonio.table_to_json(start, g.levels), tpath)
    code, rep = run(
        capsys, "component", "--graph", gpath, "--start", tpath, "--global-markov"
    )
    assert code == 0
    assert rep["experiment"] == "component"
    assert rep["result"]["size"] == 2 and rep["result"]["truncated"] is False
    assert len(rep["result"]["members"]) == 2


def test_component_seth_preset(capsys):
    code, rep = run(capsys, "component", "--preset", "seth-c4-3", "--global-markov")
    assert code == 0
    assert rep["result"]["size"] == 1


def test_connected_e_simple(tmp_path, capsys):
    from fiberwalk.tables import StateSpace

    space = StateSpace((2,))
    upath, vpath = str(tmp_path / "u.json"), str(tmp_path / "v.json")
    jsonio.dump(jsonio.table_to_json(Table({(1,): 3, (2,): 1}), space), upath)
    jsonio.dump(jsonio.table_to_json(Table({(1,): 1, (2,): 3}), space), vpath)
    code, rep = run(capsys, "connected", "--preset", "e-simple", "--u", upath, "--v", vpath)
    assert code == 0
    assert rep["result"]["status"] == "connected"
    assert rep["result"]["path_length"] == 1


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


def test_witness_disconnect_cli(capsys):
    code, rep = run(capsys, "witness-disconnect", "--preset", "k23", "--c", "1")
    assert code == 0
    r = rep["result"]
    assert r["degree"] == 20
    assert r["margins_strictly_positive"] is True
    assert r["disconnected"] is True


def test_family_and_latin_cli(capsys):
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


def test_table1_cli(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code, rep = run(capsys, "--json", out, "table1")
    assert code == 0
    assert rep["result"]["all_match"] is True
    with open(out) as fh:
        assert json.load(fh)["result"]["all_match"] is True


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
    jsonio.dump(jsonio.graph_to_json(g), gpath)
    code, rep = run(
        capsys, "check-margins", "--graph", gpath, "--family", "cycle", "--mode", "positive"
    )
    assert code == 0 and rep["result"]["holds"] is True


def test_k33_bounded_search_smoke(capsys):
    # tightly bounded: exercises the search loop, asserts nothing was found
    # within the tiny budget (the full search is a long-running opt-in)
    code, rep = run(capsys, "k33", "--search", "--max-pairs", "5", "--max-tables", "2000")
    assert code == 0
    assert rep["result"]["found"] is False
