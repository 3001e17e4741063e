"""Closed-form move and prime families for binary cycles, complete bipartite
graphs K_{2,m} with a binary first group, and cones over binary cycles.

Everything here is generated directly from the defining patterns (block
swaps on cyclic arcs, slice swaps on tensor coordinates) and then
canonically deduplicated; the graph-side machinery in fiberwalk.graphs is
deliberately not reused, so the two routes can be cross-checked in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, prod
from typing import Iterable, Optional

from .cones import Functional
from .errors import InvalidStateError, NoClosedFormError, TooLargeError, UnsupportedLevelsError
from .graphs import LabeledGraph, MarginMap, cone_graph
from .tables import Move, State, StateSpace, Table, dedup_moves


@dataclass(frozen=True)
class PrimeWitness:
    """A minimal-prime descriptor: its generating cells and witness table.

    The witness table is the exponent vector of the product of all cells
    *not* generating the prime.  The toric component is a marker with no
    variables and no witness table.
    """

    id: str
    variables: frozenset[State]
    table: Optional[Table]
    origin: str  # "cycle" | "k2n" | "pyramid" | "toric"

    @property
    def is_toric(self) -> bool:
        return self.table is None


def toric_marker() -> PrimeWitness:
    return PrimeWitness(id="toric", variables=frozenset(), table=None, origin="toric")


# ---------------------------------------------------------------------------
# binary cycles


def cycle_graph(n: int, level: int = 2) -> LabeledGraph:
    if n < 3:
        raise InvalidStateError("cycles need at least 3 vertices")
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    return LabeledGraph.build(n, edges, [level] * n)


# The largest binary cycle whose closed-form families are generated.  At
# n = 8 the Markov basis has 22,272 moves and the primes number 1,793 (about
# 3 s and 1.5 s on one 2-core x86_64 machine); at n = 9 they are 115,968
# moves in about 16 s and 5,377 primes in about 6.5 s.
MAX_CYCLE_N = 8


def check_cycle_size(n: int) -> None:
    if n > MAX_CYCLE_N:
        raise TooLargeError(
            f"closed-form cycle families are generated up to n = {MAX_CYCLE_N}, not n = {n}"
        )


def _flip(block: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(3 - c for c in block)


def cycle_quadratic_moves(n: int) -> list[Move]:
    """Swap moves between two opposite arcs of the binary n-cycle.

    For every pair of non-adjacent positions, two cells agreeing at those
    positions trade one of the two arcs between them.
    """
    if n < 4:
        return []
    check_cycle_size(n)
    moves = []
    pos = list(range(n))
    for k, l in itertools.combinations(pos, 2):
        arc1 = [(k + 1 + i) % n for i in range(l - k - 1)]
        arc2 = [(l + 1 + i) % n for i in range(n - (l - k) - 1)]
        if not arc1 or not arc2:
            continue
        arc1_vals = list(itertools.product((1, 2), repeat=len(arc1)))
        arc2_vals = list(itertools.product((1, 2), repeat=len(arc2)))
        for a, b in itertools.product((1, 2), repeat=2):
            for va, va2 in itertools.combinations(arc1_vals, 2):
                for vb, vb2 in itertools.combinations(arc2_vals, 2):
                    def cell(x1, x2):
                        coords = [0] * n
                        coords[k], coords[l] = a, b
                        for p, c in zip(arc1, x1):
                            coords[p] = c
                        for p, c in zip(arc2, x2):
                            coords[p] = c
                        return tuple(coords)

                    plus = Table([(cell(va, vb), 1), (cell(va2, vb2), 1)])
                    minus = Table([(cell(va2, vb), 1), (cell(va, vb2), 1)])
                    moves.append(Move(plus, minus))
    return dedup_moves(moves)


def cycle_quartic_moves(n: int) -> list[Move]:
    """Sign-pattern quartics: three cyclic blocks, rows flip two blocks at
    a time on one side and the complementary patterns on the other.
    """
    if n < 3:
        raise InvalidStateError("quartics need at least 3 positions")
    check_cycle_size(n)
    moves = []
    for cuts in itertools.combinations(range(n), 3):
        c1, c2, c3 = cuts
        blocks = [
            [p % n for p in range(c1 + 1, c2 + 1)],
            [p % n for p in range(c2 + 1, c3 + 1)],
            [p % n for p in range(c3 + 1, c1 + 1 + n)],
        ]

        def cell(va, vb, vc):
            coords = [0] * n
            for p, c in zip(blocks[0], va):
                coords[p] = c
            for p, c in zip(blocks[1], vb):
                coords[p] = c
            for p, c in zip(blocks[2], vc):
                coords[p] = c
            return tuple(coords)

        for va in itertools.product((1, 2), repeat=len(blocks[0])):
            for vb in itertools.product((1, 2), repeat=len(blocks[1])):
                for vc in itertools.product((1, 2), repeat=len(blocks[2])):
                    fa, fb, fc = _flip(va), _flip(vb), _flip(vc)
                    plus = Table(
                        [(cell(va, vb, vc), 1), (cell(va, fb, fc), 1),
                         (cell(fa, vb, fc), 1), (cell(fa, fb, vc), 1)]
                    )
                    minus = Table(
                        [(cell(va, vb, fc), 1), (cell(va, fb, vc), 1),
                         (cell(fa, vb, vc), 1), (cell(fa, fb, fc), 1)]
                    )
                    moves.append(Move(plus, minus))
    return dedup_moves(moves)


def cycle_markov_basis(n: int) -> list[Move]:
    """Quadratic plus quartic moves connecting every fiber of the binary n-cycle."""
    if n < 4:
        raise UnsupportedLevelsError("cycle basis needs n >= 4")
    return dedup_moves(cycle_quadratic_moves(n) + cycle_quartic_moves(n))


def cycle_prime_witnesses(n: int) -> list[PrimeWitness]:
    """One witness per distinct quartic support, plus the toric marker.

    The prime generated by all cells dividing neither quartic term is
    witnessed by the quartic's own support (all eight cells, count one).
    """
    if n < 4:
        raise UnsupportedLevelsError("cycle witnesses need n >= 4")
    space = StateSpace((2,) * n)
    seen: dict[frozenset[State], PrimeWitness] = {}
    for f in cycle_quartic_moves(n):
        support = frozenset(f.plus.support) | frozenset(f.minus.support)
        variables = frozenset(x for x in space.states() if x not in support)
        if variables in seen:
            continue
        label = ".".join("".join(map(str, s)) for s in sorted(support))
        seen[variables] = PrimeWitness(
            id=f"P_f[{label}]",
            variables=variables,
            table=f.plus + f.minus,
            origin="cycle",
        )
    out = sorted(seen.values(), key=lambda w: w.id)
    out.append(toric_marker())
    return out


# ---------------------------------------------------------------------------
# complete bipartite K_{2, m} with binary first group


@dataclass(frozen=True)
class K2NShape:
    """Levels of the second-group vertices 3..N; the first two are binary."""

    free_levels: tuple[int, ...]

    def __post_init__(self):
        if len(self.free_levels) < 2:
            raise InvalidStateError("need at least two second-group vertices (N >= 4)")
        if any(d < 2 for d in self.free_levels):
            raise InvalidStateError("levels must be >= 2")
        object.__setattr__(self, "free_levels", tuple(self.free_levels))

    @property
    def n_total(self) -> int:
        return len(self.free_levels) + 2

    @property
    def space(self) -> StateSpace:
        return StateSpace((2, 2) + self.free_levels)

    def level_of(self, vertex: int) -> int:
        return self.free_levels[vertex - 3]


# The largest closed-form K(2,m) family generated, counted in cells written
# or visited (`k2n_basis_work`, `k2n_prime_work`).  By `elapsed_ms` on one
# 2-core x86_64 machine, `family k2n-basis 2 2 2 2` (786,432) takes 1.2 s
# and `family primes --graph k2n --levels 2 6` (184,704) 0.5 s; `--levels
# 2 7` (889,280) took 2.0 s and `k2n-basis 2 2 2 3` (3,575,808) 6.0 s.
MAX_K2N_WORK = 800_000


def k2n_basis_work(shape: K2NShape) -> int:
    """Cell coordinates the quartics write: sum over a of C(d_a, 2) times
    (product of the other levels)^4 moves, each of 8 cells of N coordinates.
    The quadratic moves are fewer, so they are not counted."""
    levels = shape.free_levels
    moves = sum(
        comb(d, 2) * prod(levels[:a] + levels[a + 1:]) ** 4 for a, d in enumerate(levels)
    )
    return moves * 8 * shape.n_total


def k2n_prime_work(shape: K2NShape) -> int:
    """Cells the slice-prime loop visits: every cell for each (a, C, b, D).
    A level above 64 is counted as 64, which is far above the cap already."""
    levels = shape.free_levels
    subsets = [2 ** min(d, 64) - 2 for d in levels]
    if shape.n_total == 4:
        pairs = sum(c * c for c in subsets)
    else:
        pairs = sum(subsets) ** 2
    return pairs * shape.space.total_cells


def _check_k2n_work(what: str, work: int) -> None:
    if work > MAX_K2N_WORK:
        raise TooLargeError(
            f"the closed-form k2n {what} needs {work:,} steps, above the cap of {MAX_K2N_WORK:,}"
        )


def k2n_graph(shape: K2NShape) -> LabeledGraph:
    n = shape.n_total
    edges = [(i, a) for i in (1, 2) for a in range(3, n + 1)]
    return LabeledGraph.build(n, edges, (2, 2) + shape.free_levels)


def _free_states(shape: K2NShape, vertices: list[int]):
    return itertools.product(*(range(1, shape.level_of(v) + 1) for v in vertices))


def k2n_quadratic_moves(shape: K2NShape) -> list[Move]:
    """Diagonal swaps in the 2x2 first-group slice, and block swaps inside
    each (i,j)-slice across every bipartition of the second group.
    """
    n = shape.n_total
    free = list(range(3, n + 1))
    moves = []
    # first-group diagonal swap per second-group state
    for k in _free_states(shape, free):
        plus = Table([((1, 1) + k, 1), ((2, 2) + k, 1)])
        minus = Table([((1, 2) + k, 1), ((2, 1) + k, 1)])
        moves.append(Move(plus, minus))
    # in-slice swaps: bipartition the second group, trade one side
    for i, j in itertools.product((1, 2), repeat=2):
        for r in range(1, len(free)):
            for s_verts in itertools.combinations(free, r):
                t_verts = [v for v in free if v not in s_verts]
                s_vals = list(_free_states(shape, list(s_verts)))
                t_vals = list(_free_states(shape, t_verts))

                def cell(sv, tv):
                    coords = [0] * n
                    coords[0], coords[1] = i, j
                    for v, c in zip(s_verts, sv):
                        coords[v - 1] = c
                    for v, c in zip(t_verts, tv):
                        coords[v - 1] = c
                    return tuple(coords)

                for sv, sv2 in itertools.combinations(s_vals, 2):
                    for tv, tv2 in itertools.combinations(t_vals, 2):
                        plus = Table([(cell(sv, tv), 1), (cell(sv2, tv2), 1)])
                        minus = Table([(cell(sv2, tv), 1), (cell(sv, tv2), 1)])
                        moves.append(Move(plus, minus))
    return dedup_moves(moves)


def k2n_quartic_moves(shape: K2NShape) -> list[Move]:
    """Quartics trading a distinguished coordinate's two values between the
    diagonal and antidiagonal first-group slices.
    """
    _check_k2n_work("basis", k2n_basis_work(shape))
    n = shape.n_total
    free = list(range(3, n + 1))
    moves = []
    for a in free:
        others = [v for v in free if v != a]
        da = shape.level_of(a)
        for k1, k2 in itertools.combinations(range(1, da + 1), 2):
            for l11 in _free_states(shape, others):
                for l12 in _free_states(shape, others):
                    for l21 in _free_states(shape, others):
                        for l22 in _free_states(shape, others):

                            def cell(i, j, ka, other_vals):
                                coords = [0] * n
                                coords[0], coords[1] = i, j
                                coords[a - 1] = ka
                                for v, c in zip(others, other_vals):
                                    coords[v - 1] = c
                                return tuple(coords)

                            plus = Table(
                                [(cell(1, 1, k1, l11), 1), (cell(1, 2, k2, l12), 1),
                                 (cell(2, 1, k2, l21), 1), (cell(2, 2, k1, l22), 1)]
                            )
                            minus = Table(
                                [(cell(1, 1, k2, l11), 1), (cell(1, 2, k1, l12), 1),
                                 (cell(2, 1, k1, l21), 1), (cell(2, 2, k2, l22), 1)]
                            )
                            moves.append(Move(plus, minus))
    return dedup_moves(moves)


def k2n_markov_basis(shape: K2NShape) -> list[Move]:
    quartics = k2n_quartic_moves(shape)  # first: it refuses a shape above the cap
    return dedup_moves(k2n_quadratic_moves(shape) + quartics)


def k2n_prime_witnesses(shape: K2NShape) -> list[PrimeWitness]:
    """Slice primes P(a,C,b,D), deduplicated by variable set, plus toric.

    Variables: cells with (x1,x2)=(1,1) and x_a in C; (1,2) and x_b in D;
    (2,1) and x_b not in D; (2,2) and x_a not in C.  For N=4 only a=b
    occurs.  C and D run over nonempty proper subsets.
    """
    _check_k2n_work("primes", k2n_prime_work(shape))
    n = shape.n_total
    free = list(range(3, n + 1))
    space = shape.space
    pair_iter = (
        [(a, a) for a in free] if n == 4 else itertools.product(free, repeat=2)
    )
    seen: dict[frozenset[State], PrimeWitness] = {}
    for a, b in pair_iter:
        da, db = shape.level_of(a), shape.level_of(b)
        c_subsets = [
            frozenset(c)
            for r in range(1, da)
            for c in itertools.combinations(range(1, da + 1), r)
        ]
        d_subsets = [
            frozenset(d)
            for r in range(1, db)
            for d in itertools.combinations(range(1, db + 1), r)
        ]
        for c_set in c_subsets:
            for d_set in d_subsets:
                variables = set()
                for x in space.states():
                    i, j = x[0], x[1]
                    xa, xb = x[a - 1], x[b - 1]
                    if (
                        (i == 1 and j == 1 and xa in c_set)
                        or (i == 1 and j == 2 and xb in d_set)
                        or (i == 2 and j == 1 and xb not in d_set)
                        or (i == 2 and j == 2 and xa not in c_set)
                    ):
                        variables.add(x)
                variables = frozenset(variables)
                if variables in seen:
                    continue
                witness = Table([(x, 1) for x in space.states() if x not in variables])
                fmt = lambda s: "".join(map(str, sorted(s)))
                seen[variables] = PrimeWitness(
                    id=f"P[a={a},C={{{fmt(c_set)}}},b={b},D={{{fmt(d_set)}}}]",
                    variables=variables,
                    table=witness,
                    origin="k2n",
                )
    out = sorted(seen.values(), key=lambda w: w.id)
    out.append(toric_marker())
    return out


def k2n_facet_inequalities(shape: K2NShape, am: MarginMap) -> list[Functional]:
    """The explicit valid inequalities of the bipartite marginal cone, whose
    margin map `am` is that of `k2n_graph(shape)`.

    One functional per (a != b, C, D): the (1,a)-margins over C, plus the
    (2,a)-margins over the complement of C, plus the (2,b)-margins at
    x_2=1 over D, minus the (1,b)-margins at x_1=1 over D.

    The pairs run ordered: the half with a > b is the image of the half
    with a < b under swapping the two distinguished second-group vertices,
    and is needed to pin every slice prime onto a vanishing functional
    (P(a,C,b,D) vanishes exactly on the functional with indices
    (a, C, b, complement of D)).
    """
    n = shape.n_total

    def row(i: int, a: int, xi: int, xa: int) -> int:
        clique = (i, a)
        ci = am.cliques.index(clique)
        return am.block_starts[ci] + (xi - 1) * shape.level_of(a) + (xa - 1)

    out = []
    free = list(range(3, n + 1))
    for a, b in itertools.permutations(free, 2):
        da, db = shape.level_of(a), shape.level_of(b)
        c_subsets = [
            set(c) for r in range(1, da) for c in itertools.combinations(range(1, da + 1), r)
        ]
        d_subsets = [
            set(d) for r in range(1, db) for d in itertools.combinations(range(1, db + 1), r)
        ]
        for c_set in c_subsets:
            for d_set in d_subsets:
                coeffs = [0] * am.n_rows
                for k in range(1, da + 1):
                    if k in c_set:
                        coeffs[row(1, a, 1, k)] += 1
                    else:
                        coeffs[row(2, a, 2, k)] += 1
                for l in d_set:
                    coeffs[row(2, b, 1, l)] += 1
                    coeffs[row(1, b, 1, l)] -= 1
                out.append(Functional(tuple(coeffs)))
    return out


# ---------------------------------------------------------------------------
# cones over a base graph (disjoint layers per apex level)


def pyramid_prime_count(base_count: int, d0: int) -> int:
    """Minimal primes of a coned model: one base component per apex level."""
    if base_count < 1 or d0 < 2:
        raise InvalidStateError("need base_count >= 1 and apex level >= 2")
    return base_count ** d0


def pyramid_prime_witnesses(
    base_graph: LabeledGraph, base_witnesses: Iterable[PrimeWitness], d0: int
) -> list[PrimeWitness]:
    """Compose coned-graph witnesses layerwise from base witnesses.

    Each apex level carries an independent base component (monomial prime
    or toric); a toric layer contributes every layer cell to the witness
    monomial and no variables.  The all-toric tuple is the coned graph's
    toric component and is returned as the marker.
    """
    base_space = base_graph.levels
    base_list = sorted(
        [w for w in base_witnesses if not w.is_toric], key=lambda w: w.id
    )
    choices = base_list + [toric_marker()]
    out = []
    for combo in itertools.product(choices, repeat=d0):
        if all(w.is_toric for w in combo):
            continue
        variables = set()
        cells = []
        for level, w in enumerate(combo, start=1):
            if w.is_toric:
                cells.extend((x + (level,), 1) for x in base_space.states())
            else:
                cells.extend((s + (level,), c) for s, c in w.table.items())
                variables.update(x + (level,) for x in w.variables)
        label = ",".join(w.id for w in combo)
        out.append(
            PrimeWitness(
                id=f"pyr[{label}]",
                variables=frozenset(variables),
                table=Table(cells),
                origin="pyramid",
            )
        )
    out.sort(key=lambda w: w.id)
    out.append(toric_marker())
    return out


# ---------------------------------------------------------------------------
# the family of a labelled graph


def closed_form_family(g: LabeledGraph) -> Optional[str]:
    """"cycle", "k2n" or "pyramid" when g is exactly `cycle_graph(n)`, a
    `k2n_graph` or `cone_graph(cycle_graph(n), d0)`, else None.

    Equality covers edges, levels and vertex labels: the witnesses name
    cells by vertex, so a relabelled copy is not recognised.
    """
    n, levels = g.n_vertices, g.levels.levels
    if n >= 3 and g == cycle_graph(n):
        return "cycle"
    if n >= 4 and g == k2n_graph(K2NShape(levels[2:])):
        return "k2n"
    if n >= 4 and g == cone_graph(cycle_graph(n - 1), levels[-1]):
        return "pyramid"
    return None


def k2n_shape_of(g: LabeledGraph) -> K2NShape:
    """The shape of a graph recognised as "k2n"; NoClosedFormError otherwise."""
    if closed_form_family(g) != "k2n":
        raise NoClosedFormError("the k2n formulas need a canonically labelled k2n graph")
    return K2NShape(g.levels.levels[2:])


def closed_form_primes(g: LabeledGraph) -> list[PrimeWitness]:
    """The prime witnesses of g's closed-form family; NoClosedFormError if none."""
    family = closed_form_family(g)
    if family == "cycle":
        return cycle_prime_witnesses(g.n_vertices)
    if family == "k2n":
        return k2n_prime_witnesses(K2NShape(g.levels.levels[2:]))
    if family == "pyramid":
        base = cycle_graph(g.n_vertices - 1)
        return pyramid_prime_witnesses(base, closed_form_primes(base), g.levels.levels[-1])
    raise NoClosedFormError("not a canonically labelled cycle, k2n graph or cone over a cycle")
