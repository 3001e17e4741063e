"""Exact integer cone geometry over marginal matrices.

Facet enumeration works in the span of the matrix columns: a basis of the
span turns the polar cone into a full-dimensional pointed cone in rank-many
coordinates, whose extreme rays are the facet normals.  They are found by
double description in exact integer arithmetic, inserting constraints in
input order, from starting rays that a fraction-free Gauss–Jordan inverse
of the basis constraints gives.  Two rays are adjacent when no third ray is
tight on all of their common tight constraints (the combinatorial test of
Fukuda and Prodon).  The rays tight on a common set are an AND of bitsets
over the ray indices, read from one 256-entry table per byte of processed
constraints.  Margin-property verdicts evaluate prime-witness monomials
against those functionals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import and_, mul
from typing import Optional, Sequence

from .errors import InvalidStateError, InvalidWitnessMoveError, TooLargeError
from .graphs import MarginMap, margins
from .tables import Move, Table

MAX_FACET_COLUMNS = 128
MAX_FACET_RANK = 25


def _reduce(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, x)
    return vec if g in (0, 1) else tuple(x // g for x in vec)


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


@dataclass(frozen=True)
class Functional:
    """Primitive integer linear functional over margin-map rows."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not any(self.coeffs):
            raise InvalidStateError("zero functional")
        object.__setattr__(self, "coeffs", _reduce(tuple(self.coeffs)))

    def evaluate(self, y: Sequence[int]) -> int:
        if len(y) != len(self.coeffs):
            raise InvalidStateError("length mismatch in functional evaluation")
        return _dot(self.coeffs, y)


def _independent_subset(vectors: list[tuple[int, ...]]) -> list[int]:
    """Indices of a greedy maximal independent subset (integer elimination)."""
    rows: list[list[int]] = []
    picked = []
    for idx, vec in enumerate(vectors):
        v = list(vec)
        for r in rows:
            lead = next(i for i, x in enumerate(r) if x)
            if v[lead]:
                f1, f2 = r[lead], v[lead]
                v = [f1 * a - f2 * b for a, b in zip(v, r)]
                g = 0
                for x in v:
                    g = gcd(g, x)
                if g > 1:
                    v = [x // g for x in v]
        if any(v):
            rows.append(v)
            picked.append(idx)
    return picked


def integer_rank(vectors: list[tuple[int, ...]]) -> int:
    return len(_independent_subset(vectors))


def _inverse_columns(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Primitive integer vectors r_j with rows · r_j = d_j e_j, d_j > 0.

    Fraction-free Gauss–Jordan elimination on [rows | I]: each step sets
    row_i = (pv * row_i - f * pivot_row) // prev for every other row i,
    where pv is this pivot and prev the one before, and every division is
    exact.  The last pivot is the determinant d of the row-swapped matrix,
    which ends as d·I on the left with d·rows⁻¹ on the right, so column j
    of the right block times sign(d) solves rows · r_j = |d| e_j.
    """
    r = len(rows)
    aug = [list(row) + [int(i == j) for j in range(r)] for i, row in enumerate(rows)]
    prev = 1
    for col in range(r):
        piv = next(i for i in range(col, r) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        pivot_row = aug[col]
        pv = pivot_row[col]
        for i in range(r):
            if i != col:
                f = aug[i][col]
                aug[i] = [(pv * a - f * b) // prev for a, b in zip(aug[i], pivot_row)]
        prev = pv
    sign = 1 if prev > 0 else -1
    return [_reduce(tuple([sign * row[r + j] for row in aug])) for j in range(r)]


def _extreme_rays(constraints: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extreme rays of {z : Mz >= 0} for full-rank M (pointed cone).

    Double description: initialize from an invertible constraint subset,
    insert the remaining constraints one at a time (basis first, then input
    order), pairing adjacent positive/negative rays.  Adjacency is the
    combinatorial test: no third ray is tight on every constraint of the
    pair's common tight set.  A pair whose common set has fewer than r - 2
    constraints cannot span a 2-face and is dropped at once.  Only when
    some pair is left, the rays' tight masks are transposed into one bitset
    over ray indices per processed constraint, and each group of 8
    processed constraints gets a 256-entry table whose entry v is the AND
    of the bitsets of the set bits of v (entry 0 is every ray).  The rays
    tight on a common set are then the AND of one table entry per byte of
    the set, and the pair is adjacent when that leaves the pair alone.
    """
    r = len(constraints[0])
    base_idx = _independent_subset(constraints)
    if len(base_idx) != r:
        raise InvalidStateError("constraint matrix is rank deficient")
    base = [constraints[i] for i in base_idx]
    rays = _inverse_columns(base)
    order = base_idx + [i for i in range(len(constraints)) if i not in set(base_idx)]
    processed: list[int] = list(base_idx)
    tight = []
    for ray in rays:
        mask = 0
        for pos, ci in enumerate(processed):
            if _dot(constraints[ci], ray) == 0:
                mask |= 1 << pos
        tight.append(mask)

    need = r - 2  # an adjacent pair spans a 2-face: its common set has rank r - 2
    for ci in order[r:]:
        m = constraints[ci]
        vals = [_dot(m, ray) for ray in rays]
        pos_tight = [(ip, tight[ip]) for ip, v in enumerate(vals) if v > 0]
        neg_tight = [(im, tight[im]) for im, v in enumerate(vals) if v < 0]
        pairs = [
            (ip, im, common)
            for ip, tight_p in pos_tight
            for im, t in neg_tight
            if (common := tight_p & t).bit_count() >= need
        ]
        new_rays = []
        new_tight = []
        if pairs:
            # zero[c]: bitset of the rays tight on processed constraint c
            zero = [0] * len(processed)
            for i, t in enumerate(tight):
                bit_i = 1 << i
                while t:
                    low = t & -t
                    zero[low.bit_length() - 1] |= bit_i
                    t ^= low
            tables = []
            for lo in range(0, len(zero), 8):
                tab = [(1 << len(rays)) - 1]
                for z in zero[lo : lo + 8]:
                    tab += [x & z for x in tab]
                tables.append(tab)
            nbytes = len(tables)
            entry = list.__getitem__
            for ip, im, common in pairs:
                rest = reduce(and_, map(entry, tables, common.to_bytes(nbytes, "little")))
                if rest != (1 << ip) | (1 << im):
                    continue
                vp, vm = vals[ip], vals[im]
                ray = tuple([vp * b - vm * a for a, b in zip(rays[ip], rays[im])])
                new_rays.append(_reduce(ray))
                new_tight.append(common)
            del zero, tables
        bit = 1 << len(processed)
        keep = [i for i, v in enumerate(vals) if v >= 0]
        rays = [rays[i] for i in keep] + new_rays
        tight = [tight[i] | (bit if vals[i] == 0 else 0) for i in keep] + [
            t | bit for t in new_tight
        ]
        processed.append(ci)
    return rays


def _check_column_budget(n: int) -> None:
    if n > MAX_FACET_COLUMNS:
        raise TooLargeError(f"{n} columns exceed the budget of {MAX_FACET_COLUMNS}")


def facets_of_columns(
    columns: list[tuple[int, ...]], basis_idx: Optional[Sequence[int]] = None
) -> list[Functional]:
    """Facet normals of the cone generated by integer column vectors.

    Complete and irredundant; normals are primitive, evaluate >= 0 on every
    column, and come in a deterministic order.  Cones of rank <= 1 (a ray
    or the origin) have no facets and yield the empty list.  `basis_idx`
    passes the indices `_independent_subset(columns)` would pick (as
    `MarginMap.column_basis` holds them), so a caller that has them does not
    eliminate twice.
    """
    cols = [tuple(c) for c in columns]
    nonzero = [c for c in cols if any(c)]
    _check_column_budget(len(nonzero))
    if not nonzero:
        return []
    if basis_idx is None:
        basis_idx = _independent_subset(cols)
    r = len(basis_idx)
    if r > MAX_FACET_RANK:
        raise TooLargeError(f"rank {r} exceeds the budget of {MAX_FACET_RANK}")
    if r <= 1:
        return []
    basis = [cols[i] for i in basis_idx]
    m_rows = [tuple(_dot(b, c) for b in basis) for c in nonzero]
    rays = _extreme_rays(m_rows)
    basis_t = list(zip(*basis))
    normals = {_reduce(tuple([sum(map(mul, z, bt)) for bt in basis_t])) for z in rays}
    return [Functional(h) for h in sorted(normals)]


def cone_facets(am: MarginMap) -> list[Functional]:
    """Facets of the marginal cone (generated by the matrix columns).

    Margin-map columns are never zero, so the column budget is checked on
    n_cols before `column_basis` runs its elimination.
    """
    _check_column_budget(am.n_cols)
    return facets_of_columns(am.columns(), am.column_basis)


def is_strictly_positive(y: Sequence[int]) -> bool:
    return all(v > 0 for v in y)


def is_relative_interior(am: MarginMap, y: Sequence[int], facets: Sequence[Functional]) -> bool:
    """True iff y avoids every facet (strictly inside its span's cone)."""
    am.validate_key(tuple(y))
    return all(f.evaluate(y) > 0 for f in facets)


@dataclass
class PropertyVerdict:
    holds: bool
    failing_witness: Optional[object] = None  # PrimeWitness

    def __bool__(self) -> bool:
        return self.holds


def check_margin_property(
    witnesses: Sequence[object],
    am: MarginMap,
    facets: Optional[Sequence[Functional]] = None,
) -> PropertyVerdict:
    """Decide a margin property from prime-witness monomials.

    Without facets, positive margins: every witness must have a zero margin
    entry.  With facets, interior point: every witness must sit on a valid
    inequality, i.e. some margin row or some given facet functional vanishes
    on it (margin rows are themselves valid inequalities of the cone).  The
    failing witness is the first by id that does not; the check stops there.
    """
    for w in sorted(witnesses, key=lambda w: w.id):
        if w.table is None:
            raise InvalidStateError(f"{w.id}: toric marker has no witness monomial")
        y = margins(am, w.table)
        if 0 in y or (facets is not None and any(f.evaluate(y) == 0 for f in facets)):
            continue
        return PropertyVerdict(holds=False, failing_witness=w)
    return PropertyVerdict(holds=True)


def move_avoids_variables(f: Move, variables: frozenset) -> bool:
    touched = set(f.plus.support) | set(f.minus.support)
    return not (touched & variables)


def find_disconnecting_move(moves: Sequence[Move], witness) -> Move:
    """First canonical move whose two terms avoid the prime's variables."""
    for m in moves:
        if move_avoids_variables(m, witness.variables):
            return m
    raise InvalidWitnessMoveError(f"no supplied move avoids the variables of {witness.id}")


def build_disconnection_witness(witness, f: Move, c: int, am: MarginMap) -> tuple[Table, Table]:
    """The pair (f.plus + c*u_P, f.minus + c*u_P) used to split a fat fiber."""
    if c < 0:
        raise InvalidStateError("multiplier c must be nonnegative")
    if witness.table is None:
        raise InvalidWitnessMoveError(f"{witness.id} is a toric marker")
    if not move_avoids_variables(f, witness.variables):
        raise InvalidWitnessMoveError("move touches the prime's generating variables")
    pad = witness.table.scale(c)
    u, v = f.plus + pad, f.minus + pad
    if margins(am, u) != margins(am, v):
        raise AssertionError("disconnection pair has unequal margins; move not margin-neutral")
    return (u, v)
