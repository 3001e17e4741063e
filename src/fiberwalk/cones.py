"""Exact integer cone geometry over marginal matrices.

Facet enumeration works in the span of the matrix columns: a basis of the
span turns the polar cone into a full-dimensional pointed cone in rank-many
coordinates, whose extreme rays are the facet normals.  They are found by
double description in exact integer arithmetic, inserting constraints in
input order.  Two rays are adjacent when no third ray is tight on all of
their common tight constraints (the combinatorial test of Fukuda and
Prodon); the test runs on bitsets, one per constraint over the ray
indices, and looks only at the constraints of the common set.
Margin-property verdicts evaluate prime-witness monomials against those
functionals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import (
    InvalidStateError,
    InvalidWitnessMoveError,
    MissingFacetsError,
    TooLargeError,
)
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
    return sum(x * y for x, y in zip(a, b))


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
    """Integer vectors r_j with rows · r_j = d_j e_j, d_j > 0 (Fraction solve)."""
    r = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(r)] for i, row in enumerate(rows)]
    for col in range(r):
        piv = next(i for i in range(col, r) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(r):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    cols = []
    for j in range(r):
        col = [aug[i][r + j] for i in range(r)]
        denom = 1
        for x in col:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ivec = tuple(int(x * denom) for x in col)
        cols.append(_reduce(ivec))
    return cols


def _extreme_rays(constraints: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extreme rays of {z : Mz >= 0} for full-rank M (pointed cone).

    Double description: initialize from an invertible constraint subset,
    insert the remaining constraints one at a time (basis first, then input
    order), pairing adjacent positive/negative rays.  Adjacency is the
    combinatorial test: no third ray is tight on every constraint of the
    pair's common tight set.  Each insertion transposes the rays' tight
    masks into one bitset over ray indices per processed constraint; a pair
    whose common set has fewer than r - 2 constraints cannot span a 2-face
    and is dropped at once, otherwise the bitsets of its common set are
    ANDed until only the pair itself is left (adjacent) or the set runs out
    (not adjacent).
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
        keep = [i for i, v in enumerate(vals) if v >= 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new_rays = []
        new_tight = []
        pos = [i for i, v in enumerate(vals) if v > 0]
        # zero[c]: bitset of the rays tight on processed constraint c
        zero = [0] * len(processed)
        for i, t in enumerate(tight):
            bit_i = 1 << i
            while t:
                low = t & -t
                zero[low.bit_length() - 1] |= bit_i
                t ^= low
        everyone = (1 << len(rays)) - 1
        neg_tight = [(im, tight[im]) for im in neg]
        for ip in pos:
            tight_p = tight[ip]
            bit_p = 1 << ip
            for im, common in [
                (im, tight_p & t) for im, t in neg_tight if (tight_p & t).bit_count() >= need
            ]:
                pair = bit_p | (1 << im)
                rest = everyone
                left = common
                while left and rest != pair:
                    low = left & -left
                    rest &= zero[low.bit_length() - 1]
                    left ^= low
                if rest != pair:
                    continue
                vp, vm = vals[ip], vals[im]
                ray = _reduce(tuple(vp * b - vm * a for a, b in zip(rays[ip], rays[im])))
                new_rays.append(ray)
                new_tight.append(common)
        del zero
        bit = 1 << len(processed)
        rays = [rays[i] for i in keep] + new_rays
        tight = [tight[i] | (bit if vals[i] == 0 else 0) for i in keep] + [
            t | bit for t in new_tight
        ]
        processed.append(ci)
    return rays


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
    if len(nonzero) > MAX_FACET_COLUMNS:
        raise TooLargeError(f"{len(nonzero)} columns exceed the budget of {MAX_FACET_COLUMNS}")
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
    normals = set()
    for z in rays:
        h = tuple(sum(zk * bk[i] for zk, bk in zip(z, basis)) for i in range(len(cols[0])))
        normals.add(_reduce(h))
    return [Functional(h) for h in sorted(normals)]


def cone_facets(am: MarginMap) -> list[Functional]:
    """Facets of the marginal cone (generated by the matrix columns)."""
    return facets_of_columns(am.columns(), am.column_basis)


def is_strictly_positive(y: Sequence[int]) -> bool:
    return all(v > 0 for v in y)


def is_relative_interior(am: MarginMap, y: Sequence[int], facets: Optional[list[Functional]]) -> bool:
    """True iff y avoids every facet (strictly inside its span's cone)."""
    if facets is None:
        raise MissingFacetsError("relative-interior test needs the facet list")
    am.validate_key(tuple(y))
    return all(f.evaluate(y) > 0 for f in facets)


@dataclass
class PropertyVerdict:
    holds: bool
    mode: str
    failing_witness: Optional[object] = None  # PrimeWitness
    margin_profile: dict = None  # per-witness evaluation record

    def __bool__(self) -> bool:
        return self.holds


def check_margin_property(
    witnesses: Sequence[object],
    am: MarginMap,
    mode: str,
    facets: Optional[Sequence[Functional]] = None,
) -> PropertyVerdict:
    """Decide a margin property from prime-witness monomials.

    positive-margins: every witness must have a zero margin entry.
    interior-point:   every witness must sit on a valid inequality, i.e.
    some margin row or some supplied facet functional vanishes on it
    (margin rows are themselves valid inequalities of the cone).
    """
    if mode not in ("positive-margins", "interior-point"):
        raise InvalidStateError(f"unknown mode {mode!r}")
    if mode == "interior-point" and facets is None:
        raise MissingFacetsError("interior-point mode needs facets (or family functionals)")
    profile = {}
    failing = None
    holds = True
    for w in sorted(witnesses, key=lambda w: w.id):
        if w.table is None:
            raise InvalidStateError(f"{w.id}: toric marker has no witness monomial")
        y = margins(am, w.table)
        zero_rows = [i for i, v in enumerate(y) if v == 0]
        record = {"zero_margin_rows": zero_rows}
        if mode == "positive-margins":
            ok = bool(zero_rows)
        else:
            tight = [i for i, f in enumerate(facets) if f.evaluate(y) == 0]
            record["tight_facets"] = tight
            ok = bool(zero_rows) or bool(tight)
        record["ok"] = ok
        profile[w.id] = record
        if not ok and failing is None:
            failing = w
            holds = False
    return PropertyVerdict(holds=holds, mode=mode, failing_witness=failing, margin_profile=profile)


def move_avoids_variables(f: Move, variables: frozenset) -> bool:
    touched = set(f.plus.support) | set(f.minus.support)
    return not (touched & variables)


def find_disconnecting_move(moves: Sequence[Move], witness) -> Move:
    """First canonical move whose two terms avoid the prime's variables."""
    for m in moves:
        if move_avoids_variables(m, witness.variables):
            return m
    raise InvalidWitnessMoveError(f"no supplied move avoids the variables of {witness.id}")


def build_disconnection_witness(
    witness,
    f: Move,
    c: int,
    am: Optional[MarginMap] = None,
) -> tuple[Table, Table]:
    """The pair (f.plus + c*u_P, f.minus + c*u_P) used to split a fat fiber."""
    if c < 0:
        raise InvalidStateError("multiplier c must be nonnegative")
    if witness.table is None:
        raise InvalidWitnessMoveError(f"{witness.id} is a toric marker")
    if not move_avoids_variables(f, witness.variables):
        raise InvalidWitnessMoveError("move touches the prime's generating variables")
    pad = witness.table.scale(c)
    u, v = f.plus + pad, f.minus + pad
    if am is not None and margins(am, u) != margins(am, v):
        raise AssertionError("disconnection pair has unequal margins; move not margin-neutral")
    return (u, v)
