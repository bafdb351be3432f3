"""Point sets, the ideal-index kernel, and ideals in Hermite normal form.

One kernel, ``ideal_index``, computes the index |O/(d_1, ..., d_r)| of the
ideal a few differences generate, for a batch of lanes held on the last axis,
so each matrix entry is one vector.  The ideal is the Z-span of the r*n rows
d_i * e_j (``ideal_rows``), and the index of a full-rank sublattice of Z^n is
the gcd of the n x n minors of any generating matrix (``rows_index``); the gcd
is 0 only when every d_i is 0.  Visibility asks whether the index is 1, the
sieve's prime bound takes it with r = 1 (|N(d)|), ``predict``'s
difference-ideal lemma takes it over S, and the direct count calls its parts.

``ideal_from_generators`` builds the ideal a few coordinate vectors generate
as a canonical upper-triangular integer matrix whose rows generate it as a
Z-module over the field basis: positive diagonal, entries above the diagonal
reduced into [0, diag of their column).  No command runs it: it is the
independent reference the tests check the kernel against, with the product
and membership test in ``tests/oracles.py``.

An element of O is its coordinate vector over the field basis, a point of
O^m is m of them, and ``point`` is the one check of both.  S is one
read-only (k, m, n) array from ``point_set``; callers pass the field along
with it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from .numfield import FieldSpec, _unit, as_int, mul_coords


@dataclass(frozen=True, slots=True)
class IdealHNF:
    """An ideal of O as a canonical Hermite-normal-form Z-module."""

    field: FieldSpec
    hnf: tuple[tuple[int, ...], ...]
    is_zero: bool
    norm: int

    def __repr__(self):
        if self.is_zero:
            return "IdealHNF(zero)"
        return f"IdealHNF({self.hnf}, norm={self.norm})"


def point(field: FieldSpec,
          coords: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """A point of O^m: its m coordinate vectors over the field basis, as int
    tuples.  The one coordinate check: vector by vector, ``as_int`` of each
    entry, then the length n."""
    out = []
    for c in coords:
        c = tuple(as_int(x) for x in c)
        if len(c) != field.degree:
            raise ValueError(f"expected {field.degree} coordinates, got {len(c)}")
        out.append(c)
    return tuple(out)


def point_set(field: FieldSpec, S, m: int) -> np.ndarray:
    """S as one read-only ``(k, m, n)`` array of Python ints (``dtype=object``).

    S may hold ``point`` results, JSON lists or the rows of an earlier point
    set.  A repeated point is dropped (the first is kept); an empty S, a
    point without m coordinates, a number where a list belongs and a
    coordinate vector that ``point`` refuses (wrong length, a bool, a
    fraction) raise ``ValueError``.  This is the one place S is validated.
    """
    try:
        pts = list(dict.fromkeys(point(field, s) for s in S))
    except TypeError:  # int() of null, or iterating a number
        raise ValueError("S must list points, each m lists of n integers") from None
    if not pts:
        raise ValueError("S must be nonempty")
    if any(len(s) != m for s in pts):
        raise ValueError(f"every point of S must have m = {m} coordinates")
    arr = np.array(pts, dtype=object)
    arr.flags.writeable = False
    return arr


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


def ideal_from_generators(field: FieldSpec, gens) -> IdealHNF:
    """The ideal generated by the coordinate vectors ``gens``, read through
    ``point``: HNF of the Z-span of {g * e_i}."""
    gens = point(field, gens)
    if not gens:
        raise ValueError("empty generator list")
    n = field.degree
    return _from_rows(field, [list(mul_coords(field, g, _unit(n, i)))
                              for g in gens for i in range(n)])


# ----------------------------------------------------------------------
# visibility
# ----------------------------------------------------------------------

CHUNK = 4096  # lanes per visible_mask pass: rows of r*n*n*CHUNK*8 bytes on int64


def is_visible(field: FieldSpec, z, x) -> bool:
    """Mutual visibility of two points of O^m (coordinate vectors over the
    basis of ``field``): their differences generate the unit ideal.

    Decided by ``visible_mask``: the gcd of the maximal minors of the
    differences' multiplication rows is the index of the ideal they
    generate, so it is 1 exactly when that ideal is O.  A point is not
    visible from itself (the zero differences generate the zero ideal).
    """
    return is_visible_from_all(field, z, [x])


def is_visible_from_all(field: FieldSpec, z, S) -> bool:
    """Membership of the point z in V(S): visible from every point of S,
    which ``point_set`` validates against z's length m >= 2."""
    z = point(field, z)
    if len(z) < 2:
        raise ValueError("visibility needs tuples of length >= 2")
    S = point_set(field, S, len(z))
    return bool(visible_mask(field, np.array([z], dtype=object), S)[0])


def visible_mask(field: FieldSpec, z: np.ndarray, S: np.ndarray) -> np.ndarray:
    """For each lane z[k] of a (lanes, m, n) integer array: is it in V(S)?

    S is a ``point_set`` array (k, m, n).  Lanes are tested ``CHUNK`` at a
    time and only while still visible from the points of S tested so far;
    a lane sees s when ``ideal_index`` of its differences is 1.
    """
    ok = np.ones(len(z), dtype=bool)
    for lo in range(0, len(z), CHUNK):
        part = ok[lo:lo + CHUNK]  # a view: writes land in ok
        for s in S:
            live = np.flatnonzero(part)
            if not len(live):
                break
            part[live] = ideal_index(field, z[lo + live], s) == 1
    return ok


def ideal_index(field: FieldSpec, z: np.ndarray, s) -> np.ndarray:
    """The index |O/I| of the ideal I = (z_1 - s_1, ..., z_r - s_r) for each
    lane z[k] of a (lanes, r, n) integer array; s broadcasts against z (one
    point, or one per lane).

    I is the Z-span of the r*n rows (z_i - s_i) e_j (``ideal_rows``), and the
    index is the gcd of all their n x n minors (``rows_index`` from 0, block
    minors +-N(z_i - s_i) first): 0 if every difference is 0, |N| if r = 1."""
    rows = ideal_rows(field, z, s)
    return rows_index(rows, minors(*z.shape[1:]), np.zeros(len(z), rows.dtype))


def ideal_rows(field: FieldSpec, z: np.ndarray, s) -> np.ndarray:
    """The rows (z_i - s_i) e_j of each lane z[k] of a (lanes, r, n) integer
    array, lanes last, (r*n, n, lanes); s broadcasts against z.  They are int64
    when n! E^n < 2^63, else Python ints (``dtype=object``): E = (max|z| +
    max|s|) max_{j,k} sum_a |T[a][j][k]| bounds each entry, n! E^n any minor."""
    k, r, n = z.shape
    T, rowsum = _tensor(field)
    s = np.array(s, dtype=object)
    # min/max as Python ints: -(-2^63) does not wrap
    zmax = max(-int(z.min(initial=0)), int(z.max(initial=0)))
    E = (zmax + max(map(abs, s.flat), default=0)) * rowsum
    dtype = np.int64 if math.factorial(n) * E ** n < 2 ** 63 else object
    d = z.astype(dtype, copy=False) - s.astype(dtype)
    return np.matmul(T.astype(dtype), d.transpose(1, 2, 0)).reshape(r * n, n, k)


def rows_index(rows: np.ndarray, rsets, g: np.ndarray) -> np.ndarray:
    """gcd(g, the minors of ``rows`` on the row sets ``rsets``) for each lane,
    in the rows' dtype, as g is.  A lane whose gcd is 1 stays (gcd(1, x) = 1)
    until half the lanes are; then the others are compacted."""
    out, kept = np.ones(len(g), dtype=rows.dtype), np.arange(len(g))  # a lane compacted away: 1
    for rs in rsets:
        g = np.gcd(g, _det(rows, rs))
        live = np.flatnonzero(g != 1)
        if 2 * len(live) <= len(g):
            rows, g, kept = rows.take(live, axis=2), g[live], kept[live]
            if not len(live):
                break
    out[kept] = g
    return out


# cached: every ideal_rows call on a field reads this one array, ~10 us to build
@lru_cache(maxsize=None)
def _tensor(field: FieldSpec) -> tuple[np.ndarray, int]:
    """M[j*n + k, a] = T[a][j][k], taking x to its rows x e_j, and max_{j,k} sum_a |T|."""
    M = np.array(field.mult_tensor, dtype=object).transpose(1, 2, 0)
    return M.reshape(-1, field.degree), int(np.abs(M).sum(axis=2).max())


# cached: a table keyed by small integers, the same at every call
@lru_cache(maxsize=None)
def minors(r: int, n: int) -> tuple:
    """The row sets of the n x n minors of r blocks of n rows, blocks first."""
    blocks = [tuple(range(i * n, (i + 1) * n)) for i in range(r)]
    return tuple(blocks + [c for c in itertools.combinations(range(r * n), n)
                           if c not in blocks])


def _det(rows: np.ndarray, rs) -> np.ndarray:
    """Leibniz determinant of the rows ``rs`` of each lane of (*, n, lanes)."""
    det = 0  # 0 + the first term is a fresh array; the rest add in place
    for add, p in _leibniz(rows.shape[1]):
        det = add(det, reduce(operator.mul, (rows[r, c] for r, c in zip(rs, p))))
    return det


# cached: a table keyed by small integers, the same at every call
@lru_cache(maxsize=None)
def _leibniz(n: int) -> tuple:
    """The terms (iadd or isub, by sign; permutation) of an n x n determinant."""
    return tuple((operator.isub if sum(a > b for a, b in itertools.combinations(p, 2)) % 2
                  else operator.iadd, p) for p in itertools.permutations(range(n)))
