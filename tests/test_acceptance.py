"""Acceptance suite: one test per pinned criterion.

Each criterion prints a single PASS/FAIL line (run pytest with -s to see
them all); wall-clock budgets are part of the criteria and are asserted.
"""

import itertools
import time
from contextlib import contextmanager

from fiberwalk.cones import (
    _reduce,
    build_disconnection_witness,
    check_margin_property,
    cone_facets,
    find_disconnecting_move,
    integer_rank,
    is_strictly_positive,
)
from fiberwalk.engine import connected_component, verify_markov_basis
from fiberwalk.families import (
    K2NShape,
    cycle_graph,
    cycle_markov_basis,
    cycle_prime_witnesses,
    cycle_quadratic_moves,
    cycle_quartic_moves,
    k2n_facet_inequalities,
    k2n_graph,
    k2n_markov_basis,
    k2n_prime_witnesses,
    k2n_quartic_moves,
    pyramid_prime_count,
    pyramid_prime_witnesses,
)
from fiberwalk.graphs import global_markov_moves, margin_map, margins
from fiberwalk.k33 import k33_run
from fiberwalk.latin import latin_table, mols, verify_disconnection
from fiberwalk.presets import resolve
from fiberwalk.tables import Move, StateSpace, Table


@contextmanager
def criterion(num: int, budget_s: float, desc: str):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {num}: FAIL ({time.time() - t0:.1f}s) {desc}")
        raise
    dt = time.time() - t0
    verdict = "PASS" if dt < budget_s else "FAIL"
    print(f"\ncriterion {num}: {verdict} ({dt:.1f}s, budget {budget_s:.0f}s) {desc}")
    assert dt < budget_s, f"criterion {num} exceeded its {budget_s}s budget ({dt:.1f}s)"


def test_criterion_1_prime_counts():
    with criterion(1, 10, "minimal-prime counts: 9 / 41 / 37 / 201 / 81"):
        assert len(cycle_prime_witnesses(4)) == 9
        assert len(cycle_prime_witnesses(5)) == 41
        assert len(k2n_prime_witnesses(K2NShape((2, 2, 2)))) == 37
        assert len(k2n_prime_witnesses(K2NShape((2, 4)))) == 201
        assert pyramid_prime_count(9, 2) == 81
        composed = pyramid_prime_witnesses(cycle_graph(4), cycle_prime_witnesses(4), 2)
        assert len(composed) == 81


def test_criterion_2_property_verdicts():
    with criterion(2, 60, "margin-property verdicts for the five named models"):
        expected = {
            "c4": (True, True),
            "c5": (True, True),
            "k23": (False, True),
            "g48": (True, True),
            "square-pyramid": (True, True),
        }
        witnesses = {
            "c4": cycle_prime_witnesses(4),
            "c5": cycle_prime_witnesses(5),
            "k23": k2n_prime_witnesses(K2NShape((2, 2, 2))),
            "g48": k2n_prime_witnesses(K2NShape((2, 4))),
            "square-pyramid": pyramid_prime_witnesses(
                cycle_graph(4), cycle_prime_witnesses(4), 2
            ),
        }
        for name, (want_pos, want_int) in expected.items():
            g = resolve(name).graph
            am = margin_map(g)
            ws = [w for w in witnesses[name] if not w.is_toric]
            pos = check_margin_property(ws, am).holds
            facets = cone_facets(am)
            interior = check_margin_property(ws, am, facets).holds
            assert (pos, interior) == (want_pos, want_int), name

        # the bipartite model double-checked via the explicit inequality family
        shape = K2NShape((2, 2, 2))
        am = margin_map(k2n_graph(shape))
        ws = [w for w in k2n_prime_witnesses(shape) if not w.is_toric]
        fam = k2n_facet_inequalities(shape, am)
        assert check_margin_property(ws, am, fam).holds
        # and each of the 24 inequalities is itself a brute-force facet
        assert len(fam) == 24
        cols = am.columns()
        facet_evals = {
            _reduce(tuple(f.evaluate(c) for c in cols)) for f in cone_facets(am)
        }
        for f in fam:
            assert _reduce(tuple(f.evaluate(c) for c in cols)) in facet_evals


def test_criterion_3_bipartite_component_sizes():
    with criterion(3, 5, "six-vertex experiment: components 18 / 18 disjoint, 90 joint"):
        rep = k33_run()
        assert rep["c18a"] == 18 and rep["c18b"] == 18
        assert rep["disjoint"] is True
        assert rep["c90"] == 90 and rep["contains_both_endpoints"] is True


def test_criterion_4_isolated_tables():
    with criterion(4, 5, "isolated interior tables at orders 3 and 4 on the 4-cycle"):
        for q in (3, 4):
            g = cycle_graph(4, level=q)
            t = latin_table(g, mols(q)[:2])
            rep = verify_disconnection(g, t)
            assert rep.precondition_failures == []
            assert rep.component_size == 1
            assert rep.margins_strictly_positive is True
            assert rep.fiber_has_second_element is True
            assert rep.interior is True


def test_criterion_5_markov_basis_verification():
    with criterion(5, 600, "basis checks: cycles (deg 4/4/3) and bipartite (deg 4)"):
        assert verify_markov_basis(cycle_markov_basis(4), margin_map(cycle_graph(4)), 4).passed
        assert verify_markov_basis(cycle_markov_basis(5), margin_map(cycle_graph(5)), 4).passed
        assert verify_markov_basis(cycle_markov_basis(6), margin_map(cycle_graph(6)), 3).passed

        verdict = verify_markov_basis(cycle_quadratic_moves(4), margin_map(cycle_graph(4)), 4)
        assert not verdict.passed
        u, v = verdict.witness
        assert any({m.plus, m.minus} == {u, v} for m in cycle_quartic_moves(4))

        for free in ((2, 2), (2, 2, 2)):
            shape = K2NShape(free)
            am = margin_map(k2n_graph(shape))
            assert verify_markov_basis(k2n_markov_basis(shape), am, 4).passed


def test_criterion_6_disconnection_witnesses():
    with criterion(6, 30, "positive-margin fibers split by padded quartics, c in 1..3"):
        shape = K2NShape((2, 2, 2))
        g = k2n_graph(shape)
        am = margin_map(g)
        w = next(
            x for x in k2n_prime_witnesses(shape) if x.id == "P[a=3,C={1},b=4,D={1}]"
        )
        f = find_disconnecting_move(k2n_quartic_moves(shape), w)
        moves = global_markov_moves(g)
        for c in (1, 2, 3):
            u, v = build_disconnection_witness(w, f, c, am)
            assert margins(am, u) == margins(am, v)
            assert is_strictly_positive(margins(am, u))
            comp = connected_component(u, moves, g.levels, node_cap=100_000)
            assert not comp.truncated
            assert not comp.contains(v)


def test_criterion_7_two_cell_walk_closed_form():
    with criterion(7, 1, "two-cell walk connectivity matches the closed form, sums <= 10"):
        space = StateSpace((2,))
        moves = [
            Move(Table({(1,): 2}), Table({(2,): 2})),
            Move(Table({(1,): 3}), Table({(2,): 3})),
        ]
        points = [(a, s - a) for s in range(11) for a in range(s + 1)]
        label = {}
        for s in range(11):
            todo = [(a, s - a) for a in range(s + 1)]
            seen = set()
            for p in todo:
                if p in seen:
                    continue
                rep = connected_component(Table({(1,): p[0], (2,): p[1]}), moves, space)
                members = {(t.get((1,)), t.get((2,))) for t in rep.members}
                seen |= members
                for q in members:
                    label[q] = p
        for u in points:
            for v in points:
                rule = u == v or (
                    sum(u) == sum(v) and min(max(u), max(v)) >= 2
                )
                assert (label[u] == label[v]) == rule, (u, v)


def test_criterion_8_invariant_suites():
    with criterion(8, 60, "move neutrality, orthogonality, facet exactness, inequality validity"):
        # every generated move is margin-neutral on every named model
        for name in ("c4", "c5", "k23", "g48", "square-pyramid", "k33", "seth-c4-3"):
            g = resolve(name).graph
            am = margin_map(g)
            for m in global_markov_moves(g):
                assert margins(am, m.plus) == margins(am, m.minus)

        # orthogonal-square family exhaustive up to order 9
        for q in (2, 3, 4, 5, 7, 8, 9):
            squares = mols(q)
            assert len(squares) == q - 1
            from fiberwalk.latin import are_orthogonal

            for s1, s2 in itertools.combinations(squares, 2):
                assert are_orthogonal(s1, s2)

        # facet exactness on the five named cones
        for name in ("c4", "c5", "k23", "g48", "square-pyramid"):
            am = margin_map(resolve(name).graph)
            cols = am.columns()
            r = integer_rank(cols)
            facets = cone_facets(am)
            assert facets
            for f in facets:
                evals = [f.evaluate(c) for c in cols]
                assert all(v >= 0 for v in evals)
                tight = [c for c, v in zip(cols, evals) if v == 0]
                assert integer_rank(tight) == r - 1

        # bipartite inequality validity on every unit table, three sizes
        for free in ((2, 2), (2, 2, 2), (2, 2, 2, 2)):
            shape = K2NShape(free)
            am = margin_map(k2n_graph(shape))
            fam = k2n_facet_inequalities(shape, am)
            for col in am.columns():
                assert all(f.evaluate(col) >= 0 for f in fam)
