"""Predicted densities: truncated Euler products with rigorous tail
intervals, and the exact finite-window CRT oracle.

All products and sums are exact rationals; the truncation interval [lo, hi]
is guaranteed to contain the infinite product.  The truncated product is kept
as an unreduced integer pair num/den: reducing it would take a gcd of two
integers of ~10^5 digits, and a report reads only 30 directed digits and a
float from it.  It multiplies norms, not prime ideals: only the few rational
primes whose s(P) or splitting is not known in advance are split into
``PrimeIdeal`` objects; the splitting engine gives the norms at the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import primes as pr
from .errors import CapExceeded
from .ideals import point_set
from .numfield import FieldSpec, rational_primes_up_to
from .primes import PrimeIdeal

DEFAULT_CRT_CAP = 10 ** 8  # cells of the CRT oracle's state space


@dataclass(frozen=True)
class PredictionInterval:
    """Rigorous bracket for the Euler product over all prime ideals.

    hi = num/den is the truncated product itself (every omitted factor is
    <= 1), held unreduced with den = (prod N(P))^m; lo multiplies in a lower
    bound for the omitted tail, lo = hi max(0, 1 - tail) with ``tail`` the
    relative tail bound.  ``lo`` and ``hi`` are built as Fractions when read;
    ``lo_ratio`` and ``mid_ratio`` give lo and (lo + hi) / 2 unreduced.  A zero
    certificate is a prime where S covers every residue tuple, forcing
    density exactly 0 (num = 0, den = 1).
    """

    num: int
    den: int
    cutoff_X: int
    zero_certificate: Optional[PrimeIdeal] = None
    tail: Fraction = Fraction(0)

    def _times(self, f: Fraction) -> tuple[int, int]:
        return self.num * f.numerator, self.den * f.denominator

    @property
    def lo_ratio(self) -> tuple[int, int]:
        """hi max(0, 1 - tail) as an unreduced (numerator, denominator)."""
        return self._times(max(Fraction(0), 1 - self.tail))

    @property
    def mid_ratio(self) -> tuple[int, int]:
        """(lo + hi) / 2 = hi (2 - min(tail, 1)) / 2, unreduced."""
        return self._times(Fraction(2 - min(self.tail, 1), 2))

    @property
    def lo(self) -> Fraction:
        return Fraction(*self.lo_ratio)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.num, self.den)


@dataclass(frozen=True)
class ExactDensity:
    """Density of the finite-window visible set, computed two ways."""

    value: Fraction
    per_prime_factors: tuple


def predicted_density(field: FieldSpec, S, m: int,
                      X: int) -> PredictionInterval:
    """Truncated product of (1 - s(P)/N(P)^m) over N(P) <= X plus tail bound.

    ``primes.split_prime`` splits the p <= X that divide
    ``primes.difference_norm_product`` (the only p where s(P) < |S|, from
    ``s_of_prime``) and those with p^m <= |S| (the only other p where s(P) =
    N(P)^m, a zero certificate, can hold; the least by ``sort_key`` wins).
    At every other p, ramified or not, s(P) = |S| and ``factor_degrees``
    gives c primes of norm p^d, multiplied in once and raised to the c-th power.

    Tail: at most n prime ideals share any prime-power norm, each omitted
    factor u = s(p)/N(p)^m is <= 1/2 (X is raised if needed), and
    -log(1-u) <= 2u, so the tail product is >= exp(-2 n |S| T) >= 1 - 2n|S|T
    with T = sum_{k>X} k^-m <= 1/((m-1) X^(m-1)).
    """
    if m < 2:
        raise ValueError("m must be >= 2 (the product may diverge to 0)")
    if X < 2:
        raise ValueError("X must be >= 2")
    S = point_set(field, S, m)
    k = len(S)
    while 2 * k > X ** m:
        X += 1
    dprod = pr.difference_norm_product(field, S)
    ps = np.array(rational_primes_up_to(X), dtype=np.int64)
    # Python integers only where dprod passes int64: 78 498 of them take 3 MiB at X = 10^6
    special = (ps <= _root(k, m)) | (dprod % (ps if dprod < 2 ** 63 else ps.astype(object)) == 0)
    zeros, nums, norms = [], [], []
    for P in [P for p in ps[special].tolist() for P in pr.split_prime(field, p) if P.norm <= X]:
        s = pr.s_of_prime(S, P) if dprod % P.under_p == 0 else k
        if s == P.norm ** m:
            zeros.append(P)
        nums.append(P.norm ** m - s)
        norms.append(P.norm)
    if zeros:
        return PredictionInterval(0, 1, X, zero_certificate=min(
            zeros, key=PrimeIdeal.sort_key))
    parts, ps = [(nums, norms, 1)], ps[~special]
    counts = pr.factor_degrees(field, ps)
    for d in range(1, field.degree + 1):
        fits = ps <= _root(X, d)
        for c in range(1, field.degree // d + 1):
            N = (ps[fits & (counts[:, d - 1] == c)].astype(object) ** d).tolist()
            parts.append(([x ** m - k for x in N], N, c))
    slack = Fraction(2 * field.degree * k, (m - 1) * X ** (m - 1))
    return PredictionInterval(_product([_product(a) ** c for a, _, c in parts]),
                              _product([_product(b) ** c for _, b, c in parts]) ** m,
                              X, tail=slack)


def _root(x: int, m: int) -> int:
    """The largest r with r^m <= x, for x below 2^53."""
    r = int(x ** (1 / m)) + 1
    while r ** m > x:
        r -= 1
    return r


def _product(xs: list[int]) -> int:
    """Product by a balanced tree: factors of equal size meet, so big-int
    multiplication is not quadratic as in a running product."""
    while len(xs) > 1:
        xs = [math.prod(xs[i:i + 2]) for i in range(0, len(xs), 2)]
    return xs[0] if xs else 1


def window_density(field: FieldSpec, S, m: int, t: int,
                   crt_cap: int = DEFAULT_CRT_CAP) -> ExactDensity:
    """``exact_window_density`` over E_t, the primes above the first t
    rational primes.  Those above one p have norms multiplying to at least
    2, so the state space is at least 2^(m t): a window with m t >=
    crt_cap.bit_length() is refused before any prime is split."""
    if m * t >= crt_cap.bit_length():
        raise CapExceeded("CRT state space exceeds cap",
                          estimate=f">= 2^{m * t}")
    return exact_window_density(field, S, m, pr.window_first_t(field, t),
                                crt_cap)


def exact_window_density(field: FieldSpec, S, m: int, primes: Sequence[PrimeIdeal],
                         crt_cap: int = DEFAULT_CRT_CAP) -> ExactDensity:
    """Density of the set visible modulo every prime of ``primes``, by
    product formula and CRT oracle.

    (a) product over the primes of (N^m - s(P))/N^m, s(P) by ``s_of_prime``;
    (b) cell-by-cell count over the full residue state space
        prod_P (O/P)^m of tuples avoiding every reduced point of S.
    The two must agree exactly.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if not primes:
        raise ValueError("empty prime window")
    S = point_set(field, S, m)

    state = math.prod(P.norm ** m for P in primes)
    if state > crt_cap:
        raise CapExceeded("CRT state space exceeds cap", estimate=state)

    factors = [(P, Fraction(P.norm ** m - pr.s_of_prime(S, P), P.norm ** m))
               for P in primes]
    value_a = math.prod((f for _, f in factors), start=Fraction(1))

    # oracle: mark each prime's forbidden residue m-tuples, then AND the
    # allowed masks cell-wise across the whole product space and count.  A
    # tuple's m f residues in F_p, base p, are one cell code in [0, N^m).
    acc = None
    for P in primes:
        allowed = np.ones(P.norm ** m, dtype=bool)
        r = pr.residues([P], S.reshape(-1, field.degree))[1][0]
        allowed[r.reshape(len(S), -1) @ P.under_p ** np.arange(m * P.f)] = False
        acc = allowed if acc is None else (acc[:, None] & allowed[None, :]).reshape(-1)
    count = int(acc.sum())
    value_b = Fraction(count, state)

    if value_a != value_b:
        raise RuntimeError(
            f"window density mismatch: product {value_a} != oracle {value_b}")
    return ExactDensity(value=value_a, per_prime_factors=tuple(factors))


# ----------------------------------------------------------------------
# display helpers
# ----------------------------------------------------------------------

def decimal_str(x, places: int = 30, direction: str = "nearest") -> str:
    """Decimal expansion of a rational in [0, ~10) with directed rounding;
    x is a Fraction or an unreduced (numerator, denominator > 0) pair."""
    num, den = (x.numerator, x.denominator) if isinstance(x, Fraction) else x
    if num < 0:
        raise ValueError("negative values not expected here")
    scale = 10 ** places
    q, r = divmod(num * scale, den)
    if r and direction == "up":
        q += 1
    elif r and direction == "nearest" and 2 * r >= den:
        q += 1
    whole, frac = divmod(q, scale)
    return f"{whole}.{frac:0{places}d}"
