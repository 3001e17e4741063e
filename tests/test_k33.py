import itertools
import random

import pytest

from fiberwalk import _kernel
from fiberwalk.engine import are_connected, connected_component, pack_table
from fiberwalk.graphs import global_markov_moves, margin_map, margins
from fiberwalk.k33 import k33_graph, k33_run, k33_search, k33_witness
from fiberwalk.presets import resolve
from fiberwalk.tables import Table, apply_move

from reference import members


def cells(*codes: str) -> Table:
    return Table([(tuple(int(c) for c in code), 1) for code in codes])


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
    assert res.status == "connected"
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
    assert not (set(members(a)) & set(members(b)))
    # closure: no member has a neighbor outside its component
    for rep in (a, b):
        inside = set(members(rep))
        for t in inside:
            for m in moves:
                for mm in (m, m.reverse()):
                    if t.dominates(mm.minus):
                        assert apply_move(t, mm) in inside


def test_components_independent_of_move_order():
    g = k33_graph()
    wit = k33_witness()
    moves = global_markov_moves(g)
    rng = random.Random(41)
    shuffled = moves[:]
    rng.shuffle(shuffled)
    a = connected_component(wit.u_plus + wit.w + wit.w, moves, g.levels, node_cap=4096)
    b = connected_component(wit.u_plus + wit.w + wit.w, shuffled, g.levels, node_cap=4096)
    assert set(members(a)) == set(members(b))


def test_search_rederives_the_witness_at_pair_140():
    found = k33_search()
    u = cells("211221", "212222", "221212", "222121")
    v = cells("211222", "212221", "221211", "222122")
    w = cells("111111", "111122")
    assert found == {"u_plus": u, "u_minus": v, "w": w, "pairs_tried": 140}
    g = k33_graph()
    moves = global_markov_moves(g)
    a = connected_component(u + w, moves, g.levels, node_cap=4096)
    b = connected_component(v + w, moves, g.levels, node_cap=4096)
    joint = connected_component(u + w + w, moves, g.levels, node_cap=4096)
    assert (a.size, b.size, joint.size) == (18, 18, 90)
    assert not (a.truncated or b.truncated or joint.truncated)
    assert a.visited.isdisjoint(b.visited)
    assert joint.contains(v + w + w)


def table_pairs(graph):
    """The search's candidate pairs built from Tables, as packed bytes: the
    degree-4 0/1 tables grouped by margins, classes in margin order, each
    in state-combination order, and the pairs with disjoint supports."""
    am = margin_map(graph)
    by_margin = {}
    for combo in itertools.combinations(graph.levels.states(), 4):
        t = Table([(s, 1) for s in combo])
        by_margin.setdefault(margins(am, t), []).append(t)
    return [
        (pack_table(u, graph.levels), pack_table(v, graph.levels))
        for key in sorted(by_margin)
        for u, v in itertools.combinations(by_margin[key], 2)
        if set(u.support).isdisjoint(v.support)
    ]


def searched_pairs(monkeypatch, graph):
    """The pairs k33_search tries, in order: the start of each degree-4
    closure (pads raise the degree) and the first table looked up in it."""
    events = []
    component = _kernel.component

    class Lookups(set):
        def __contains__(self, b):
            events.append(("lookup", b))
            return set.__contains__(self, b)

    def recording(start, pm, cap):
        events.append(("start", start))
        visited, truncated = component(start, pm, cap)
        return Lookups(visited), truncated

    monkeypatch.setattr(_kernel, "component", recording)
    k33_search(max_pairs=10 ** 6, graph=graph)
    return [(a, b) for (ka, a), (kb, b) in zip(events, events[1:])
            if ka == "start" and sum(a) == 4 and kb == "lookup"]


@pytest.mark.parametrize("name", ["c4", "k22"])
def test_search_tries_the_pairs_in_table_order(monkeypatch, name):
    graph = resolve(name).graph
    expected = table_pairs(graph)
    assert len(expected) == 90  # every candidate: no witness on these models
    assert searched_pairs(monkeypatch, graph) == expected
