"""Closed-form move and prime families for binary cycles, complete bipartite
graphs K_{2,m} with a binary first group, and cones over binary cycles.

The quartics and the prime witnesses are generated directly from their
defining patterns (sign patterns on cyclic blocks, slice patterns on
tensor coordinates), each move and each prime built once.  The quadratic
moves are the graph's global-Markov moves from fiberwalk.graphs: all of
them for K(2,m), and for the cycle those that swap two opposite arcs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, prod
from typing import Iterable, Optional

from .cones import Functional
from .errors import InvalidStateError, NoClosedFormError, TooLargeError, UnsupportedLevelsError
from .graphs import LabeledGraph, MarginMap, _block_states, cone_graph, global_markov_moves
from .tables import Move, State, StateSpace, Table


@dataclass(frozen=True)
class PrimeWitness:
    """A minimal-prime descriptor: its witness table.

    The witness table is the exponent vector of the product of all cells
    *not* generating the prime, so the prime's variables are the cells
    outside the table's support.  The toric component is a marker with no
    variables and no witness table.
    """

    id: str
    table: Optional[Table]
    origin: str  # "cycle" | "k2n" | "pyramid" | "toric"

    @property
    def is_toric(self) -> bool:
        return self.table is None


def toric_marker() -> PrimeWitness:
    return PrimeWitness(id="toric", table=None, origin="toric")


# ---------------------------------------------------------------------------
# binary cycles


def cycle_graph(n: int, level: int = 2) -> LabeledGraph:
    if n < 3:
        raise InvalidStateError("cycles need at least 3 vertices")
    edges = [(i, i % n + 1) for i in range(1, n + 1)]
    return LabeledGraph.build(n, edges, [level] * n)


# The largest binary cycle whose closed-form families are generated.  At
# n = 8 the Markov basis has 22,272 moves and the primes number 1,793 (about
# 0.8 s and 0.15 s by `elapsed_ms`, pure kernel, on one 2-core x86_64
# machine); at n = 9 they are 115,968 moves in about 5.3 s and 5,377 primes
# in about 0.5 s.
MAX_CYCLE_N = 8


def check_cycle_size(n: int) -> None:
    if n > MAX_CYCLE_N:
        raise TooLargeError(
            f"closed-form cycle families are generated up to n = {MAX_CYCLE_N}, not n = {n}"
        )


def _patterns(length: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The binary value patterns of a block that start at 1, each with its flip."""
    return [
        ((1,) + rest, (2,) + tuple(3 - c for c in rest))
        for rest in itertools.product((1, 2), repeat=length - 1)
    ]


def _part(*cells: State) -> Table:
    return Table._trusted(tuple((x, 1) for x in sorted(cells)))


def _label_changes(m: Move) -> int:
    """With plus part {x, y} and minus part {p, q}, label each position
    where x and y differ by whether p keeps x's value there; the number of
    label changes, read cyclically in position order."""
    (x, _), (y, _) = m.plus.items()
    p = m.minus.support[0]
    labels = [a == c for a, b, c in zip(x, y, p) if a != b]
    return sum(s != t for s, t in zip(labels, labels[1:] + labels[:1]))


def cycle_quadratic_moves(n: int) -> list[Move]:
    """Swap moves between two opposite arcs of the binary n-cycle: the
    global-Markov moves whose labels (`_label_changes`) change exactly twice.

    A move splits the differing positions D into unions of components of
    G[D]: cycle neighbours in D share a label, a position off D lies between
    any two runs, and two runs sit on the opposite arcs of two cuts.  From
    n = 8 on, interleaved splits such as {1,5} | {3,7} change four times.
    """
    if n < 4:
        return []
    check_cycle_size(n)
    return [m for m in global_markov_moves(cycle_graph(n)) if _label_changes(m) == 2]


def cycle_quartic_moves(n: int) -> list[Move]:
    """Sign-pattern quartics: three cyclic blocks, rows flip two blocks at
    a time on one side and the complementary patterns on the other.

    Flipping two of the blocks keeps a quartic and flipping one reverses
    it, so each block's first value is fixed at 1: the C(n,3)·2^(n-3)
    quartics are each built once.
    """
    if n < 3:
        raise InvalidStateError("quartics need at least 3 positions")
    check_cycle_size(n)
    moves = []
    for c1, c2, c3 in itertools.combinations(range(n), 3):
        # the blocks are c1+1..c2, c2+1..c3 and c3+1..c1 (mod n), so a cell
        # is the third block's tail, the first two blocks, then its head
        def cell(a, b, c, head=n - 1 - c3):
            return c[head:] + a + b + c[:head]

        for a, fa in _patterns(c2 - c1):
            for b, fb in _patterns(c3 - c2):
                for c, fc in _patterns(n - c3 + c1):
                    plus = _part(cell(a, b, c), cell(a, fb, fc), cell(fa, b, fc), cell(fa, fb, c))
                    minus = _part(cell(a, b, fc), cell(a, fb, c), cell(fa, b, c), cell(fa, fb, fc))
                    moves.append(Move(plus, minus).canonical())
    return sorted(moves, key=Move.key)


def cycle_markov_basis(n: int) -> list[Move]:
    """Quadratic plus quartic moves connecting every fiber of the binary n-cycle."""
    if n < 4:
        raise UnsupportedLevelsError("cycle basis needs n >= 4")
    return sorted(cycle_quadratic_moves(n) + cycle_quartic_moves(n), key=Move.key)


def cycle_prime_witnesses(n: int) -> list[PrimeWitness]:
    """One witness per quartic, plus the toric marker.

    The prime generated by all cells dividing neither quartic term is
    witnessed by the quartic's own support (all eight cells, count one).
    No two quartics share a support, so each prime is built once.
    """
    if n < 4:
        raise UnsupportedLevelsError("cycle witnesses need n >= 4")
    out = []
    for f in cycle_quartic_moves(n):
        table = f.plus + f.minus
        label = ".".join("".join(map(str, s)) for s in table.support)
        out.append(PrimeWitness(id=f"P_f[{label}]", table=table, origin="cycle"))
    out.sort(key=lambda w: w.id)
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
# or visited (`k2n_basis_work`, `k2n_prime_work`).  By `elapsed_ms`, pure
# kernel, on one 2-core x86_64 machine, `family k2n-basis 2 2 2 2` (786,432)
# takes about 0.8 s and `family primes --graph k2n --levels 2 6` (184,704)
# 0.25 s; `--levels 2 7` (889,280) took 1.3 s and `k2n-basis 2 2 2 3`
# (3,575,808) 3.9 s.
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


def k2n_quadratic_moves(shape: K2NShape) -> list[Move]:
    """The graph's global-Markov quadratic moves.  In K(2,m) an induced
    subgraph G[D] is disconnected exactly when D = {1, 2} (the diagonal
    swaps in the 2x2 first-group slice) or D is two or more second-group
    vertices (the block swaps inside each (i,j)-slice)."""
    return global_markov_moves(k2n_graph(shape))


def k2n_quartic_moves(shape: K2NShape) -> list[Move]:
    """Quartics trading a distinguished coordinate's two values between the
    diagonal and antidiagonal first-group slices; each is built once.
    """
    _check_k2n_work("basis", k2n_basis_work(shape))
    free = list(range(3, shape.n_total + 1))
    moves = []
    for a in free:
        rests = list(_block_states(shape.space, [v for v in free if v != a]))

        def cell(i, j, k, rest, cut=a - 3):
            return (i, j) + rest[:cut] + (k,) + rest[cut:]

        for k1, k2 in itertools.combinations(range(1, shape.level_of(a) + 1), 2):
            for l11, l12, l21, l22 in itertools.product(rests, repeat=4):
                plus = _part(cell(1, 1, k1, l11), cell(1, 2, k2, l12),
                             cell(2, 1, k2, l21), cell(2, 2, k1, l22))
                minus = _part(cell(1, 1, k2, l11), cell(1, 2, k1, l12),
                              cell(2, 1, k1, l21), cell(2, 2, k2, l22))
                moves.append(Move(plus, minus).canonical())
    return sorted(moves, key=Move.key)


def k2n_markov_basis(shape: K2NShape) -> list[Move]:
    quartics = k2n_quartic_moves(shape)  # first: it refuses a shape above the cap
    return sorted(k2n_quadratic_moves(shape) + quartics, key=Move.key)


def _proper_subsets(d: int) -> list[frozenset[int]]:
    """The nonempty proper subsets of 1..d, by size, then lexicographically."""
    return [frozenset(c) for r in range(1, d) for c in itertools.combinations(range(1, d + 1), r)]


def k2n_prime_witnesses(shape: K2NShape) -> list[PrimeWitness]:
    """Slice primes P(a,C,b,D), plus toric.

    Variables: cells with (x1,x2)=(1,1) and x_a in C; (1,2) and x_b in D;
    (2,1) and x_b not in D; (2,2) and x_a not in C.  For N=4 only a=b
    occurs.  C and D run over nonempty proper subsets.  The witness is the
    product of the other cells; its (1,1) slice fixes (a, C) and its (1,2)
    slice fixes (b, D), so each prime is built once.
    """
    _check_k2n_work("primes", k2n_prime_work(shape))
    n = shape.n_total
    free = list(range(3, n + 1))
    states = shape.space.states_by_index
    pair_iter = (
        [(a, a) for a in free] if n == 4 else itertools.product(free, repeat=2)
    )
    out = []
    for a, b in pair_iter:
        da, db = shape.level_of(a), shape.level_of(b)
        d_subsets = _proper_subsets(db)
        for c_set in _proper_subsets(da):
            for d_set in d_subsets:
                # the cells off the variables: on the (1,1) and (2,2) slices
                # those with x_a in C just at (2,2), on (1,2) and (2,1) those
                # with x_b in D just at (2,1)
                cells = tuple(
                    (x, 1)
                    for x in states
                    if (x[a - 1] in c_set if x[0] == x[1] else x[b - 1] in d_set) == (x[0] == 2)
                )
                fmt = lambda s: "".join(map(str, sorted(s)))
                out.append(PrimeWitness(
                    id=f"P[a={a},C={{{fmt(c_set)}}},b={b},D={{{fmt(d_set)}}}]",
                    table=Table._trusted(cells),
                    origin="k2n",
                ))
    out.sort(key=lambda w: w.id)
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
    row = am.row_of  # keyed by (clique, clique state)
    out = []
    free = list(range(3, shape.n_total + 1))
    for a, b in itertools.permutations(free, 2):
        da, db = shape.level_of(a), shape.level_of(b)
        d_subsets = _proper_subsets(db)
        for c_set in _proper_subsets(da):
            for d_set in d_subsets:
                coeffs = [0] * am.n_rows
                for k in range(1, da + 1):
                    if k in c_set:
                        coeffs[row[(1, a), (1, k)]] += 1
                    else:
                        coeffs[row[(2, a), (2, k)]] += 1
                for l in d_set:
                    coeffs[row[(2, b), (1, l)]] += 1
                    coeffs[row[(1, b), (1, l)]] -= 1
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
        cells = []
        for level, w in enumerate(combo, start=1):
            if w.is_toric:
                cells.extend((x + (level,), 1) for x in base_space.states())
            else:
                cells.extend((s + (level,), c) for s, c in w.table.items())
        label = ",".join(w.id for w in combo)
        # the apex level is the last coordinate: the layers' cells are distinct
        # but interleave in state order
        out.append(
            PrimeWitness(
                id=f"pyr[{label}]",
                table=Table._trusted(tuple(sorted(cells))),
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
