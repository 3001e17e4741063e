import random

from fiberwalk import _kernel
from fiberwalk.engine import are_connected, connected_component
from fiberwalk.graphs import global_markov_moves, margin_map, margins
from fiberwalk.k33 import k33_graph, k33_run, k33_witness
from fiberwalk.tables import apply_move


def test_witness_is_well_posed():
    g = k33_graph()
    am = margin_map(g)
    wit = k33_witness()
    assert wit.u_plus.degree == 4 and wit.u_minus.degree == 4 and wit.w.degree == 2
    assert margins(am, wit.u_plus) == margins(am, wit.u_minus)
    assert set(wit.u_plus.support).isdisjoint(wit.u_minus.support)


def test_component_sizes_18_18_90():
    rep = k33_run()
    assert rep["c18a"] == 18
    assert rep["c18b"] == 18
    assert rep["c90"] == 90
    assert rep["disjoint"] is True
    assert rep["contains_both_endpoints"] is True
    assert not rep["inconclusive"]
    assert rep["path_length"] >= 1  # recorded, never pinned


def test_k33_run_packs_its_moves_once(monkeypatch):
    """Its three closures and the path search share one packed move set."""
    calls = []
    pack_moves = _kernel.pack_moves
    monkeypatch.setattr(_kernel, "pack_moves", lambda moves: calls.append(1) or pack_moves(moves))
    assert k33_run()["c90"] == 90
    assert len(calls) == 1


def test_padded_pair_connected_with_replayable_path():
    g = k33_graph()
    wit = k33_witness()
    moves = global_markov_moves(g)
    u = wit.u_plus + wit.w + wit.w
    v = wit.u_minus + wit.w + wit.w
    res = are_connected(u, v, moves, g.levels, node_cap=4096)
    assert res.connected
    cur = u
    for step in res.path:
        cur = apply_move(cur, step.move if step.forward else step.move.reverse())
    assert cur == v


def test_single_pad_components_disjoint_and_closed():
    g = k33_graph()
    wit = k33_witness()
    moves = global_markov_moves(g)
    a = connected_component(wit.u_plus + wit.w, moves, g.levels, node_cap=4096)
    b = connected_component(wit.u_minus + wit.w, moves, g.levels, node_cap=4096)
    assert not (set(a.members) & set(b.members))
    # closure: no member has a neighbor outside its component
    for rep in (a, b):
        members = set(rep.members)
        for t in members:
            for m in moves:
                for mm in (m, m.reverse()):
                    if t.dominates(mm.minus):
                        assert apply_move(t, mm) in members


def test_components_independent_of_move_order():
    g = k33_graph()
    wit = k33_witness()
    moves = global_markov_moves(g)
    rng = random.Random(41)
    shuffled = moves[:]
    rng.shuffle(shuffled)
    a = connected_component(wit.u_plus + wit.w + wit.w, moves, g.levels, node_cap=4096)
    b = connected_component(wit.u_plus + wit.w + wit.w, shuffled, g.levels, node_cap=4096)
    assert set(a.members) == set(b.members)
