"""Ideal arithmetic in Hermite normal form and the mutual-visibility test.

Ideals are canonical upper-triangular integer matrices whose rows generate
the ideal as a Z-module over the field basis: positive diagonal, entries
above the diagonal reduced into [0, diag of their column).  Canonical form
makes equality exact matrix equality and the norm the diagonal product.

Visibility is decided by one batched kernel, ``visible_mask``, instead of an
HNF per tuple.  The ideal (d_1, ..., d_m) is the Z-span of the m*n rows
d_i * e_j, and the index of a full-rank sublattice of Z^n is the gcd of the
n x n minors of any generating matrix.  So the differences generate O
exactly when that gcd is 1; it is 0 only when every d_i is 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numfield import AlgInt, FieldSpec, mul_coords


@dataclass(frozen=True)
class IdealHNF:
    """An ideal of O as a canonical Hermite-normal-form Z-module."""

    field: FieldSpec
    hnf: tuple[tuple[int, ...], ...]
    is_zero: bool
    norm: int

    def rows(self) -> list[AlgInt]:
        return [AlgInt(self.field, r) for r in self.hnf]

    def __repr__(self):
        if self.is_zero:
            return "IdealHNF(zero)"
        return f"IdealHNF({self.hnf}, norm={self.norm})"


@dataclass(frozen=True)
class PointTuple:
    """An m-tuple of algebraic integers (a lattice point of O^m)."""

    points: tuple[AlgInt, ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("empty point tuple")
        f = self.points[0].field
        if any(p.field != f for p in self.points):
            raise ValueError("point coordinates from mixed fields")

    @property
    def field(self) -> FieldSpec:
        return self.points[0].field

    @property
    def m(self) -> int:
        return len(self.points)

    def coords_lists(self) -> list[list[int]]:
        return [list(p.coords) for p in self.points]


def point(field: FieldSpec, coords: Sequence[Sequence[int]]) -> PointTuple:
    """Build a PointTuple from m coordinate vectors."""
    return PointTuple(tuple(field.element(c) for c in coords))


def points_from_json(field: FieldSpec, data) -> list[PointTuple]:
    """Parse S = [[[0,0],[0,0]], ...]: a list of m-tuples of coordinate vectors."""
    return [point(field, entry) for entry in data]


def points_to_json(S: Sequence[PointTuple]) -> list:
    return [[list(p.coords) for p in s.points] for s in S]


def dedupe_points(S: Sequence[PointTuple]) -> list[PointTuple]:
    """Order-preserving deduplication."""
    seen = set()
    out = []
    for s in S:
        key = tuple(p.coords for p in s.points)
        if key not in seen:
            seen.add(key)
            out.append(s)
    return out


def validate_point_set(S: Sequence[PointTuple], field: FieldSpec,
                       m: int) -> list[PointTuple]:
    """Check that S is a nonempty subset of the given O^m; deduplicate."""
    if not S:
        raise ValueError("S must be nonempty")
    S = dedupe_points(S)
    for s in S:
        if s.field != field or s.m != m:
            raise ValueError("S entries must all live in the given O^m")
    return S


# ----------------------------------------------------------------------
# HNF machinery
# ----------------------------------------------------------------------

def _hnf_rows(rows: list[list[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """Row-style HNF of a full-rank Z-module given by generator rows."""
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(n):
        pivots = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not pivots:
            raise ValueError("generators do not span a full-rank module")
        while len(pivots) > 1:
            pivots.sort(key=lambda r: abs(r[col]))
            a = pivots[0]
            kept = [a]
            for r in pivots[1:]:
                q = r[col] // a[col]
                red = [x - q * y for x, y in zip(r, a)]
                if red[col] != 0:
                    kept.append(red)
                elif any(red):
                    rest.append(red)
            pivots = kept
        piv = pivots[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
        work = rest
    # reduce entries above each diagonal into [0, diag)
    for j in range(n - 1, 0, -1):
        dj = basis[j][j]
        for i in range(j):
            q = basis[i][j] // dj
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[j])]
    return tuple(tuple(r) for r in basis)


def _from_rows(field: FieldSpec, rows: list[list[int]]) -> IdealHNF:
    n = field.degree
    if not any(any(r) for r in rows):
        zero = tuple((0,) * n for _ in range(n))
        return IdealHNF(field, zero, True, 0)
    h = _hnf_rows(rows, n)
    norm = 1
    for i in range(n):
        norm *= h[i][i]
    return IdealHNF(field, h, False, norm)


def ideal_from_generators(gens: Sequence[AlgInt]) -> IdealHNF:
    """The ideal generated by ``gens``: HNF of the Z-span of {g * e_i}."""
    if not gens:
        raise ValueError("empty generator list")
    field = gens[0].field
    if any(g.field != field for g in gens):
        raise ValueError("generators from mixed fields")
    n = field.degree
    rows = []
    for g in gens:
        for i in range(n):
            e = [0] * n
            e[i] = 1
            rows.append(list(mul_coords(field, g.coords, e)))
    return _from_rows(field, rows)


def unit_ideal(field: FieldSpec) -> IdealHNF:
    return ideal_from_generators([field.one()])


def ideal_sum(I: IdealHNF, J: IdealHNF) -> IdealHNF:
    """I + J, the ideal gcd."""
    if I.field != J.field:
        raise ValueError("ideals over different fields")
    if I.is_zero:
        return J
    if J.is_zero:
        return I
    return _from_rows(I.field, [list(r) for r in I.hnf + J.hnf])


def ideal_mul(I: IdealHNF, J: IdealHNF) -> IdealHNF:
    if I.field != J.field:
        raise ValueError("ideals over different fields")
    if I.is_zero or J.is_zero:
        return _from_rows(I.field, [[0] * I.field.degree])
    rows = [list(mul_coords(I.field, a, b)) for a in I.hnf for b in J.hnf]
    return _from_rows(I.field, rows)


def contains(I: IdealHNF, a: AlgInt) -> bool:
    """Whether the element a lies in I (exact triangular solve over Z)."""
    if I.field != a.field:
        raise ValueError("mismatched field")
    if I.is_zero:
        return a.is_zero()
    n = I.field.degree
    c = list(a.coords)
    for i in range(n):
        q, r = divmod(c[i], I.hnf[i][i])
        if r:
            return False
        if q:
            for j in range(i, n):
                c[j] -= q * I.hnf[i][j]
    return True


def ideal_divides(P: IdealHNF, I: IdealHNF) -> bool:
    """Containment I <= P, i.e. P | I for ideals of a Dedekind domain."""
    return all(contains(P, r) for r in I.rows())


def mobius(I: IdealHNF, split: Callable[[FieldSpec, int], Sequence]) -> int:
    """Moebius function on ideals: (-1)^r on squarefree products, else 0.

    ``split`` maps (field, rational prime) to the prime ideals above it; any
    prime dividing I lies above a rational prime dividing N(I).
    """
    if I.is_zero:
        raise ValueError("Moebius function undefined on the zero ideal")
    if I.norm == 1:
        return 1
    divisors = []
    for p in _prime_factors(I.norm):
        for P in split(I.field, p):
            if ideal_divides(P.hnf, I):
                divisors.append(P)
    prod = 1
    for P in divisors:
        prod *= P.norm
    if prod == I.norm:
        return -1 if len(divisors) % 2 else 1
    return 0


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ----------------------------------------------------------------------
# visibility
# ----------------------------------------------------------------------

CHUNK = 4096  # lanes per kernel pass; bounds the kernel's scratch memory


def is_visible(z: PointTuple, x: PointTuple) -> bool:
    """Mutual visibility: the coordinate differences generate the unit ideal.

    Decided by ``visible_mask``: the gcd of the maximal minors of the
    differences' multiplication rows is the index of the ideal they
    generate, so it is 1 exactly when that ideal is O.  A point is not
    visible from itself (the zero differences generate the zero ideal).
    """
    return is_visible_from_all(z, [x])


def is_visible_from_all(z: PointTuple, S: Sequence[PointTuple]) -> bool:
    """Membership in V(S): simultaneously visible from every point of S."""
    if not S:
        raise ValueError("S must be nonempty")
    S = dedupe_points(S)
    if any(x.field != z.field or x.m != z.m for x in S):
        raise ValueError("points with mismatched field or length")
    if z.m < 2:
        raise ValueError("visibility needs tuples of length >= 2")
    return bool(visible_mask(np.array([z.coords_lists()], dtype=object), S)[0])


def visible_mask(z: np.ndarray, S: Sequence[PointTuple]) -> np.ndarray:
    """For each lane z[k] of an (lanes, m, n) integer array: is it in V(S)?

    Lanes are tested ``CHUNK`` at a time and only while still visible from
    the points of S tested so far.  The arithmetic is int64 when the
    entries' bound proves every minor and partial sum fits, else exact
    Python integers (``dtype=object``); the code is the same either way.
    """
    field = S[0].field
    n = field.degree
    T = np.array(field.mult_tensor, dtype=object)
    s_rows = [s.coords_lists() for s in S]
    # every row entry is a sum_a d[a] * T[a][j][k], so |entry| <= E; every
    # Leibniz term of a minor is <= E^n and every partial sum <= n! E^n
    zmax = int(np.abs(z).max(initial=0))
    smax = max(abs(c) for rows in s_rows for r in rows for c in r)
    E = (zmax + smax) * int(np.abs(T).sum(axis=0).max())
    dtype = np.int64 if math.factorial(n) * E ** n < 2 ** 63 else object
    z = z.astype(dtype, copy=False)
    T = T.astype(dtype)
    s_arrs = [np.array(rows, dtype=dtype) for rows in s_rows]
    m = len(s_rows[0])
    blocks = [tuple(range(i * n, (i + 1) * n)) for i in range(m)]
    minors = blocks + [c for c in itertools.combinations(range(m * n), n)
                       if c not in blocks]
    # Leibniz terms of an n x n determinant: (sign, permutation)
    perms = [((-1) ** sum(a > b for a, b in itertools.combinations(p, 2)), p)
             for p in itertools.permutations(range(n))]
    ok = np.ones(len(z), dtype=bool)
    for lo in range(0, len(z), CHUNK):
        part = ok[lo:lo + CHUNK]  # a view: writes land in ok
        for s in s_arrs:
            live = np.flatnonzero(part)
            if not len(live):
                break
            part[live] = _unit_ideal_lanes(z[lo + live] - s, T, minors, perms)
    return ok


def _unit_ideal_lanes(d: np.ndarray, T: np.ndarray, minors, perms) -> np.ndarray:
    """Whether each lane's differences d[k] (m x n) generate O.

    Row j of block i is d_i * e_j.  The block minors (+-N(d_i)) come first,
    then the mixed ones; a lane leaves as soon as its gcd reaches 1.
    """
    k, m, n = d.shape
    rows = np.tensordot(d, T, axes=([2], [0])).reshape(k, m * n, n)
    g = np.zeros(k, dtype=d.dtype)
    left = np.arange(k)
    for rs in minors:
        det = sum(sign * np.prod([rows[:, r, c] for r, c in zip(rs, p)], axis=0)
                  for sign, p in perms)
        g = np.gcd(g, det)
        more = g != 1
        rows, g, left = rows[more], g[more], left[more]
        if not len(left):
            break
    out = np.ones(k, dtype=bool)
    out[left] = False
    return out
