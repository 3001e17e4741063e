"""Exact integer cone geometry over marginal matrices.

Facet enumeration works in the span of the matrix columns: a basis of the
span turns the polar cone into a full-dimensional pointed cone in rank-many
coordinates, whose extreme rays are the facet normals.  They are found by
double description in exact integer arithmetic, inserting constraints in
input order, from starting rays that a fraction-free Gauss–Jordan inverse
of the basis constraints gives.  Two rays are adjacent when no third ray is
tight on all of their common tight constraints (the combinatorial test of
Fukuda and Prodon).  The rays tight on a common set are an AND of bitsets
over ray ids, read from one 256-entry table per byte of processed
constraints; a ray keeps its id while it lives, so the bitsets persist
across insertions and each step adds only its new rays and its constraint.
Each step first tries a pair against the rays that blocked its last few
rejected pairs; bitsets are transposed in bulk, through binary strings.
Margin-property verdicts evaluate prime-witness monomials against those
functionals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import and_, mul, or_
from typing import Optional, Sequence

from .errors import InvalidStateError, InvalidWitnessMoveError, TooLargeError
from .graphs import MarginMap, margins
from .tables import Move, Table

MAX_FACET_COLUMNS = 128
MAX_FACET_RANK = 25


def _reduce(vec: tuple[int, ...]) -> tuple[int, ...]:
    g = gcd(*vec)
    return vec if g in (0, 1) else tuple([x // g for x in vec])


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


def _transpose(masks: list[int], width: int, first: int = 0) -> list[int]:
    """sets[c]: the bitset of the ids first + i whose masks[i] has bit c set.

    Masks lie below 2**width.  Written in `width` binary digits, last mask
    first, column j of the digits read in binary is the set of bit width-1-j.
    """
    if not masks:
        return [0] * width
    rows = [format(t, f"0{width}b") for t in reversed(masks)]
    return [int("".join(col), 2) << first for col in zip(*rows)][::-1]


def _extreme_rays(constraints: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extreme rays of {z : Mz >= 0} for full-rank M (pointed cone).

    Double description: initialize from an invertible constraint subset,
    insert the remaining constraints one at a time (basis first, then input
    order), pairing adjacent positive/negative rays.  Adjacency is the
    combinatorial test: no third ray is tight on every constraint of the
    pair's common tight set.  A pair whose common set has fewer than r - 2
    constraints cannot span a 2-face and is dropped at once.

    Each ray keeps an id while it lives, and zero[c], the bitset over ids of
    the rays tight on processed constraint c, persists across steps: a step
    ORs its new rays' ids into the sets of their tight constraints, with one
    bulk transpose of their masks, and appends the set of the inserted
    constraint.  Dead rays stay in zero; the mask of live ids masks them
    out.  Only when some pair is left, each group of 8 processed constraints
    gets a 256-entry table whose entry v is the AND of the sets of the set
    bits of v, and entry 0 is the live mask.  The rays tight on a common set
    are then the AND of one table entry per byte of the set, and the pair is
    adjacent when that leaves the pair alone.  Before that AND, a pair is
    tried against the step's last 8 blockers: a live ray other than the pair
    that is tight on the whole common set proves the pair not adjacent.  A
    pair the AND rejects adds its lowest-id survivor as a blocker.  Neither
    changes which pairs are adjacent or their order.  Live rays in id order
    are the list order, so renumbering them 0, 1, ... with one transpose of
    their tight masks, done when ids outnumber live rays 2:1, keeps the
    bitsets narrow and changes nothing else.
    """
    r = len(constraints[0])
    base_idx = _independent_subset(constraints)
    if len(base_idx) != r:
        raise InvalidStateError("constraint matrix is rank deficient")
    base = [constraints[i] for i in base_idx]
    rays = _inverse_columns(base)
    in_base = set(base_idx)
    tight = []
    for ray in rays:
        mask = 0
        for pos, row in enumerate(base):
            if _dot(row, ray) == 0:
                mask |= 1 << pos
        tight.append(mask)
    ids = list(range(r))
    n_ids = r
    live = (1 << r) - 1
    zero = _transpose(tight, r)

    need = r - 2  # an adjacent pair spans a 2-face: its common set has rank r - 2
    for ci in range(len(constraints)):
        if ci in in_base:
            continue
        m = constraints[ci]
        vals = [sum(map(mul, m, ray)) for ray in rays]
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
            tables = []
            for lo in range(0, len(zero), 8):
                tab = [live]
                for z in zero[lo : lo + 8]:
                    tab += [x & z for x in tab]
                tables.append(tab)
            nbytes = len(tables)
            entry = list.__getitem__
            where = dict(zip(ids, range(len(ids))))
            blockers = []  # (position, tight mask) of the last 8 rays that blocked a pair
            for ip, im, common in pairs:
                for w, t in blockers:
                    if common & t == common and w != ip and w != im:
                        break
                else:
                    rest = reduce(and_, map(entry, tables, common.to_bytes(nbytes, "little")))
                    rest ^= (1 << ids[ip]) | (1 << ids[im])
                    if rest:
                        w = where[(rest & -rest).bit_length() - 1]
                        blockers = [(w, tight[w])] + blockers[:7]
                        continue
                    vp, vm = vals[ip], vals[im]
                    ray = tuple([vp * b - vm * a for a, b in zip(rays[ip], rays[im])])
                    new_rays.append(_reduce(ray))
                    new_tight.append(common)
            del tables
        keep = []
        on_ci = 0
        for k, v in enumerate(vals):
            if v > 0:
                keep.append(k)
            elif v == 0:
                keep.append(k)
                on_ci |= 1 << ids[k]
            else:
                live ^= 1 << ids[k]
        first = n_ids
        n_ids += len(new_tight)
        zero = list(map(or_, zero, _transpose(new_tight, len(zero), first)))
        new_ids = ((1 << len(new_tight)) - 1) << first
        on_ci |= new_ids
        live |= new_ids
        bit = 1 << len(zero)
        zero.append(on_ci)
        rays = [rays[k] for k in keep] + new_rays
        tight = [tight[k] | (bit if vals[k] == 0 else 0) for k in keep] + [
            t | bit for t in new_tight
        ]
        ids = [ids[k] for k in keep] + list(range(first, n_ids))
        if n_ids >= 2 * len(rays):
            ids = list(range(len(rays)))
            n_ids = len(rays)
            live = (1 << n_ids) - 1
            zero = _transpose(tight, len(zero))
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


def move_avoids_variables(f: Move, witness) -> bool:
    """True when f uses none of the prime's variables: every cell of f lies
    in the support of the witness monomial (the toric marker has no
    variables)."""
    if witness.table is None:
        return True
    support = set(witness.table.support)
    return all(s in support for s in f.plus.support + f.minus.support)


def find_disconnecting_move(moves: Sequence[Move], witness) -> Move:
    """First canonical move whose two terms avoid the prime's variables."""
    for m in moves:
        if move_avoids_variables(m, witness):
            return m
    raise InvalidWitnessMoveError(f"no supplied move avoids the variables of {witness.id}")


def build_disconnection_witness(witness, f: Move, c: int, am: MarginMap) -> tuple[Table, Table]:
    """The pair (f.plus + c*u_P, f.minus + c*u_P) used to split a fat fiber."""
    if c < 0:
        raise InvalidStateError("multiplier c must be nonnegative")
    if witness.table is None:
        raise InvalidWitnessMoveError(f"{witness.id} is a toric marker")
    if not move_avoids_variables(f, witness):
        raise InvalidWitnessMoveError("move touches the prime's generating variables")
    pad = witness.table.scale(c)
    u, v = f.plus + pad, f.minus + pad
    if margins(am, u) != margins(am, v):
        raise AssertionError("disconnection pair has unequal margins; move not margin-neutral")
    return (u, v)
