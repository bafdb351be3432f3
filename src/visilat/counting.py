"""Empirical counting of visible tuples over cube and ball regions.

Three routes: a direct count (exact: every tuple of region^m, chunk by
chunk, through the batched gcd-of-minors kernel ``ideals.visible_mask``), a
prime-ideal sieve (exact: residue marking over a numpy boolean array), and a
Monte Carlo estimator (the same kernel on uniform samples) for regions beyond
enumeration caps.  The direct count never touches prime ideals or residues,
so sieve == direct is an independent check and must hold exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import ideals as il
from . import primes as pr
from .errors import CapExceeded
from .ideals import IdealHNF, PointTuple
from .numfield import AlgInt, FieldSpec, _det_bareiss, norm_of_coords

DEFAULT_REGION_CAP = 2 ** 22
DEFAULT_TUPLE_CAP = 2 ** 31

# pi to 49 decimal places; enough that ball-volume normalization error is
# far below every tolerance in play
PI = Fraction(31415926535897932384626433832795028841971693993751, 10 ** 49)


@dataclass(frozen=True)
class Region:
    """A cube C[L] or ball B[R] of coordinate vectors over the field basis.

    ``basis_transform`` rows, when given, are a replacement Z-basis in
    coordinates of the field basis (must be unimodular): the region becomes
    {a . T : a in the cube/ball}, i.e. the same shape over the new basis.
    """

    field: FieldSpec
    shape: str
    size: Fraction
    basis_transform: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        if self.shape not in ("cube", "ball"):
            raise ValueError(f"unknown region shape {self.shape!r}")
        if self.size <= 0:
            raise ValueError("region size must be positive")
        if self.shape == "cube" and self.size.denominator != 1:
            raise ValueError("cube side L must be an integer")
        if self.basis_transform is not None:
            T = self.basis_transform
            n = self.field.degree
            if len(T) != n or any(len(r) != n for r in T):
                raise ValueError("basis transform must be n x n")
            if abs(_det_bareiss([list(r) for r in T])) != 1:
                raise ValueError("basis transform must be unimodular")

    @property
    def L(self) -> int:
        return int(self.size)

    def volume(self) -> Fraction:
        """Continuous volume: (2L)^n for cubes, V_n R^n for balls.

        Used for the main term of the ideal-count checks; empirical density
        estimates divide by the exact tuple count instead.
        """
        n = self.field.degree
        if self.shape == "cube":
            return Fraction((2 * self.L) ** n)
        return _ball_volume_unit(n) * self.size ** n

    def label(self) -> str:
        if self.shape == "cube":
            base = f"cube:L={self.L}"
        else:
            r = self.size
            base = f"ball:R={int(r) if r.denominator == 1 else float(r)}"
        if self.basis_transform is not None:
            base += ":T=" + str([list(r) for r in self.basis_transform]).replace(" ", "")
        return base


def cube_region(field: FieldSpec, L: int, basis_transform=None) -> Region:
    return Region(field, "cube", Fraction(int(L)),
                  _norm_transform(basis_transform))


def ball_region(field: FieldSpec, R, basis_transform=None) -> Region:
    return Region(field, "ball", Fraction(R),
                  _norm_transform(basis_transform))


def _norm_transform(T):
    if T is None:
        return None
    return tuple(tuple(int(x) for x in row) for row in T)


def _ball_volume_unit(n: int) -> Fraction:
    """Volume of the unit n-ball as an exact rational in pi."""
    if n % 2 == 0:
        k = n // 2
        return PI ** k / math.factorial(k)
    k = (n - 1) // 2
    return Fraction(2 * math.factorial(k) * 4 ** k, math.factorial(n)) * PI ** k


@dataclass(frozen=True)
class CountResult:
    """Outcome of one counting run over region^m."""

    visible_count: int
    total_tuples: int
    density_estimate: Fraction
    method: str
    region: Region
    mc_stderr: Optional[float] = None
    prime_norm_bound: Optional[int] = None


@dataclass(frozen=True)
class IdealCountCheck:
    """Observed vs expected count of ideal points in a region."""

    count: int
    main_term: Fraction
    error: Fraction
    normalized_error: float


# ----------------------------------------------------------------------
# region enumeration
# ----------------------------------------------------------------------

def region_coords(region: Region,
                  region_cap: int = DEFAULT_REGION_CAP) -> np.ndarray:
    """The region's coordinate vectors as a read-only ``(W, n)`` int64 array.

    Rows are in lexicographic order of the untransformed coordinates; the
    cap is checked on an upper bound of W before anything is built.  For a
    ball it is V_n (R + sqrt(n)/2)^n, as the disjoint unit cubes centred on
    the points all lie in that ball; sqrt(n)/2 is rounded up and the floor
    gets 1 added, so rounding cannot undercount.
    The array of the latest region is cached (callers loop region-major).
    """
    n = region.field.degree
    half_diag = Fraction(math.isqrt(n * 10 ** 8) + 1, 2 * 10 ** 4)
    est = ((2 * region.L + 1) ** n if region.shape == "cube" else
           math.floor(_ball_volume_unit(n) * (region.size + half_diag) ** n) + 1)
    if est > region_cap:
        raise CapExceeded("region exceeds enumeration cap", estimate=est)
    return _region_array(region)


@lru_cache(maxsize=1)
def _region_array(region: Region) -> np.ndarray:
    # one coordinate at a time (a product of aranges, in lexicographic
    # order); a ball drops prefixes whose squared length exceeds floor(R^2)
    axis = np.arange(-region.L, region.L + 1, dtype=np.int64)
    pts = np.zeros((1, 0), dtype=np.int64)
    for _ in range(region.field.degree):
        pts = np.concatenate([np.repeat(pts, len(axis), axis=0),
                              np.tile(axis, len(pts))[:, None]], axis=1)
        if region.shape == "ball":
            pts = pts[(pts * pts).sum(axis=1) <= int(region.size ** 2)]
    pts = _transform(region, pts)
    pts.flags.writeable = False
    return pts


def _transform(region: Region, pts: np.ndarray) -> np.ndarray:
    """Region vectors a mapped to a . T for the region and the MC sampler.

    Every partial sum of sum_i a_i T_ij is at most max|a| * max_j sum_i
    |T_ij|, and max|a| <= L (floor(R) for a ball); int64 is exact below 2^63.
    """
    T = region.basis_transform
    if T is None:
        return pts
    bound = max(region.L, 1) * max(sum(abs(row[j]) for row in T)
                                   for j in range(len(T)))
    if bound >= 2 ** 63:
        raise CapExceeded("basis transform would overflow int64",
                          estimate=bound)
    return pts @ np.array(T, dtype=np.int64)


def enumerate_region(region: Region,
                     region_cap: int = DEFAULT_REGION_CAP) -> list[AlgInt]:
    """The rows of ``region_coords`` as field elements, in the same order."""
    f = region.field
    return [AlgInt(f, tuple(c))
            for c in region_coords(region, region_cap).tolist()]


# ----------------------------------------------------------------------
# direct counting
# ----------------------------------------------------------------------

def count_visible_direct(field: FieldSpec, S: Sequence[PointTuple], m: int,
                         region: Region,
                         region_cap: int = DEFAULT_REGION_CAP,
                         tuple_cap: int = DEFAULT_TUPLE_CAP) -> CountResult:
    """Exact count of visible tuples by testing every tuple in region^m.

    Tuples are built ``il.CHUNK`` at a time from flat indices into the
    region and tested by the visibility kernel, so no W^m array is ever
    held.  No prime ideal is consulted, which keeps this count an
    independent check on the sieve.
    """
    S = _check_inputs(field, S, m, region)
    coords = region_coords(region, region_cap)
    W = len(coords)
    total = W ** m
    if total > tuple_cap:
        raise CapExceeded("tuple space exceeds cap", estimate=total)
    visible = 0
    for lo in range(0, total, il.CHUNK):
        idx = np.unravel_index(np.arange(lo, min(lo + il.CHUNK, total)),
                               (W,) * m)
        visible += int(il.visible_mask(coords[np.stack(idx, axis=1)],
                                       S).sum())
    return CountResult(visible_count=visible, total_tuples=total,
                       density_estimate=Fraction(visible, total),
                       method="direct", region=region)


# ----------------------------------------------------------------------
# sieve counting
# ----------------------------------------------------------------------

def count_visible_sieve(field: FieldSpec, S: Sequence[PointTuple], m: int,
                        region: Region,
                        region_cap: int = DEFAULT_REGION_CAP,
                        tuple_cap: int = DEFAULT_TUPLE_CAP,
                        seed: int = 0) -> CountResult:
    """Exact count by marking residue classes of all small-norm primes.

    An invisible tuple z (z != s) has all coordinates of z - s in some prime
    P, and any nonzero coordinate bounds N(P) by its norm, so primes of norm
    <= B := max |N(a - s_i)| suffice.  Marks are a union of coordinate-wise
    residue matches, stored in an m-dimensional boolean array.
    """
    S = _check_inputs(field, S, m, region)
    coords = region_coords(region, region_cap)
    W = len(coords)
    total = W ** m
    if total > tuple_cap:
        raise CapExceeded("tuple space exceeds cap", estimate=total)

    rows = coords.tolist()
    B = 1
    for key in {p.coords for s in S for p in s.points}:
        for c in rows:
            d = [x - y for x, y in zip(c, key)]
            if any(d):
                B = max(B, abs(norm_of_coords(field, d)))

    marks = np.zeros((W,) * m, dtype=bool)

    index_of = {tuple(c): i for i, c in enumerate(rows)}
    for s in S:
        idx = [index_of.get(p.coords) for p in s.points]
        if all(i is not None for i in idx):
            marks[tuple(idx)] = True

    if B >= 2:
        points = np.array([s.coords_lists() for s in S], dtype=object)
        for P in pr.primes_up_to_norm(field, B, seed):
            ids = pr.residue_ids(P, coords)
            for targets in pr.residue_ids(P, points).tolist():
                sel = [np.nonzero(ids == t)[0] for t in targets]
                if all(len(x) for x in sel):
                    marks[np.ix_(*sel)] = True

    visible = total - int(marks.sum())
    return CountResult(visible_count=visible, total_tuples=total,
                       density_estimate=Fraction(visible, total),
                       method="sieve", region=region,
                       prime_norm_bound=B)


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------

def mc_estimate(field: FieldSpec, S: Sequence[PointTuple], m: int,
                region: Region, samples: int, seed: int) -> CountResult:
    """Estimate the visible density from uniform i.i.d. tuples of region^m.

    Coordinates come from a counter-based Philox stream keyed by the seed,
    so results are reproducible; the samples go through the same
    visibility kernel as the direct count.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    S = _check_inputs(field, S, m, region)
    n = field.degree
    gen = np.random.Generator(np.random.Philox(key=seed))
    need = samples * m
    if region.shape == "cube":
        L = region.L
        flat = gen.integers(-L, L + 1, size=(need, n), dtype=np.int64)
    else:
        L, r2 = region.L, int(region.size ** 2)
        got = []
        count = 0
        while count < need:
            batch = gen.integers(-L, L + 1, size=(2 * need + 64, n),
                                 dtype=np.int64)
            keep = batch[(batch * batch).sum(axis=1) <= r2]
            got.append(keep)
            count += len(keep)
        flat = np.concatenate(got)[:need]
    flat = _transform(region, flat)
    hits = int(il.visible_mask(flat.reshape(samples, m, n), S).sum())
    phat = hits / samples
    stderr = math.sqrt(phat * (1 - phat) / samples)
    return CountResult(visible_count=hits, total_tuples=samples,
                       density_estimate=Fraction(hits, samples),
                       method="mc", region=region, mc_stderr=stderr)


# ----------------------------------------------------------------------
# ideal lattice counting checks
# ----------------------------------------------------------------------

def ideal_count_check(field: FieldSpec, I: IdealHNF, region: Region,
                      region_cap: int = DEFAULT_REGION_CAP) -> IdealCountCheck:
    """Count |I ∩ region| and compare with volume/N(I).

    The normalized error divides by (R/N^(1/n))^(n-1) for balls and by
    (2L/N^(1/n) + 1)^(n-1) for cubes, the shape the counting bound says is
    O(1) uniformly in the ideal and the region size.
    """
    if I.is_zero:
        raise ValueError("zero ideal")
    if I.field != field:
        raise ValueError("mismatched field")
    coords = region_coords(region, region_cap)
    count = _count_members(I, coords)
    n = field.degree
    vol = region.volume()
    main = vol / I.norm
    error = abs(Fraction(count) - main)
    radius_ratio = float(region.size) / I.norm ** (1.0 / n)
    if region.shape == "ball":
        denom = radius_ratio ** (n - 1)
    else:
        denom = (2 * radius_ratio + 1) ** (n - 1)
    return IdealCountCheck(count=count, main_term=main, error=error,
                           normalized_error=float(error) / denom)


def _count_members(I: IdealHNF, coords: np.ndarray) -> int:
    """How many rows of a ``(W, n)`` integer array lie in the nonzero I.

    The triangular solve of ``il.contains`` on all rows at once: entry i
    must be divisible by h_ii, then q_i = floor(c_i / h_ii) times HNF row i
    is subtracted.  With A = max|a| and H the largest HNF entry, |q_1| <= A
    and, as h_ij < h_jj above the diagonal, |q_j| <= A + 1 + sum_{i<j} |q_i|
    <= 2^(j-1) (A+1); so every product q_i h_ij and every entry after step i
    is <= A + H (A+1) (2^i - 1) < H 2^n (A+1).  Below 2^63 the solve runs
    in int64, else on Python integers (``dtype=object``), same code.
    """
    n = I.field.degree
    h = I.hnf
    hmax = max(abs(x) for row in h for x in row)
    amax = int(np.abs(coords).max(initial=0))
    dtype = np.int64 if hmax * 2 ** n * (amax + 1) < 2 ** 63 else object
    c = coords.astype(dtype)  # a copy: coords may be the cached region
    ok = np.ones(len(c), dtype=bool)
    for i in range(n):
        q, r = c[:, i] // h[i][i], c[:, i] % h[i][i]
        ok &= r == 0
        if i + 1 < n:
            c[:, i + 1:] -= q[:, None] * np.array(h[i][i + 1:], dtype=dtype)
    return int(ok.sum())


def _check_inputs(field: FieldSpec, S: Sequence[PointTuple], m: int,
                  region: Region) -> list[PointTuple]:
    if region.field != field:
        raise ValueError("region belongs to a different field")
    if m < 2:
        raise ValueError("m must be >= 2")
    return il.validate_point_set(S, field, m)
