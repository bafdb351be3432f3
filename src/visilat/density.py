"""Predicted densities: truncated Euler products with rigorous tail
intervals, Moebius-sum zeta reciprocals, and the exact finite-window CRT
oracle.

All products and sums are exact rationals; the truncation interval [lo, hi]
is guaranteed to contain the infinite product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import primes as pr
from .errors import CapExceeded
from .ideals import PointTuple, validate_point_set
from .numfield import FieldSpec
from .primes import PrimeIdeal, PrimeWindow


@dataclass(frozen=True)
class PredictionInterval:
    """Rigorous bracket for the Euler product over all prime ideals.

    hi is the truncated product itself (every omitted factor is <= 1); lo
    multiplies in a lower bound for the omitted tail.  A zero certificate is
    a prime where S covers every residue tuple, forcing density exactly 0.
    """

    lo: Fraction
    hi: Fraction
    cutoff_X: int
    partial_product: Fraction
    zero_certificate: Optional[PrimeIdeal] = None


@dataclass(frozen=True)
class ExactDensity:
    """Density of the finite-window visible set, computed two ways."""

    value: Fraction
    window: PrimeWindow
    per_prime_factors: tuple


def predicted_density(field: FieldSpec, S: Sequence[PointTuple], m: int,
                      X: int, seed: int = 0) -> PredictionInterval:
    """Truncated product of (1 - s(p)/N(p)^m) over N(p) <= X plus tail bound.

    Tail: at most n prime ideals share any prime-power norm, each omitted
    factor u = s(p)/N(p)^m is <= 1/2 (X is raised if needed), and
    -log(1-u) <= 2u, so the tail product is >= exp(-2 n |S| T) >= 1 - 2n|S|T
    with T = sum_{k>X} k^-m <= 1/((m-1) X^(m-1)).
    """
    if m < 2:
        raise ValueError("m must be >= 2 (the product may diverge to 0)")
    if X < 2:
        raise ValueError("X must be >= 2")
    S = validate_point_set(S, field, m)
    while 2 * len(S) > X ** m:
        X += 1
    nums, dens = [], []
    for P in pr.primes_up_to_norm(field, X, seed):
        s = pr.s_of_prime(S, P)
        Nm = P.norm ** m
        if s == Nm:
            return PredictionInterval(Fraction(0), Fraction(0), X,
                                      Fraction(0), zero_certificate=P)
        nums.append(Nm - s)
        dens.append(Nm)
    partial = Fraction(_product(nums), _product(dens))
    tail = Fraction(1, (m - 1) * X ** (m - 1))
    slack = 2 * field.degree * len(S) * tail
    lo = partial * max(Fraction(0), 1 - slack)
    return PredictionInterval(lo, partial, X, partial)


def _product(xs: list[int]) -> int:
    """Product by a balanced tree: factors of equal size meet, so big-int
    multiplication is not quadratic as in a running product."""
    while len(xs) > 1:
        xs = [math.prod(xs[i:i + 2]) for i in range(0, len(xs), 2)]
    return xs[0] if xs else 1


def zeta_recip_truncated(field: FieldSpec, s: int, X: int,
                         seed: int = 0) -> Fraction:
    """Sum of mu(I)/N(I)^s over squarefree ideals of norm <= X.

    Squarefree ideals are enumerated as products of distinct prime ideals;
    everything else has mu = 0 and is skipped.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    if X < 1:
        raise ValueError("X must be >= 1")
    total = Fraction(1)  # the unit ideal
    if X < 2:
        return total
    plist = pr.primes_up_to_norm(field, X, seed)
    norms = [P.norm for P in plist]

    def walk(i: int, q: int, sign: int):
        nonlocal total
        for j in range(i, len(norms)):
            nq = q * norms[j]
            if nq > X:
                break
            total += Fraction(sign, nq ** s)
            walk(j + 1, nq, -sign)

    walk(0, 1, -1)
    return total


def exact_window_density(field: FieldSpec, S: Sequence[PointTuple], m: int,
                         window: PrimeWindow, crt_cap: int = 10 ** 8,
                         ) -> ExactDensity:
    """Density of the window-visible set, by product formula and CRT oracle.

    (a) product over window primes of (N^m - s(p))/N^m;
    (b) cell-by-cell count over the full residue state space
        prod_p (O/p)^m of tuples avoiding every reduced point of S.
    The two must agree exactly.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if not window.primes:
        raise ValueError("empty prime window")
    S = validate_point_set(S, field, m)

    state = 1
    for P in window.primes:
        state *= P.norm ** m
    if state > crt_cap:
        raise CapExceeded("CRT state space exceeds cap", estimate=state)

    factors = []
    value_a = Fraction(1)
    for P in window.primes:
        s = pr.s_of_prime(S, P)
        Nm = P.norm ** m
        f = Fraction(Nm - s, Nm)
        factors.append((P, f))
        value_a *= f

    # oracle: mark each prime's forbidden residue m-tuples, then AND the
    # allowed masks cell-wise across the whole product space and count.  A
    # tuple of residue ids (each in [0, N)) is one cell code in [0, N^m).
    points = np.array([s.coords_lists() for s in S], dtype=object)
    acc = None
    for P in window.primes:
        N = P.norm
        allowed = np.ones(N ** m, dtype=bool)
        allowed[pr.residue_ids(P, points) @ N ** np.arange(m)] = False
        acc = allowed if acc is None else (acc[:, None] & allowed[None, :]).reshape(-1)
    count = int(acc.sum())
    value_b = Fraction(count, state)

    if value_a != value_b:
        raise RuntimeError(
            f"window density mismatch: product {value_a} != oracle {value_b}")
    return ExactDensity(value=value_a, window=window,
                        per_prime_factors=tuple(factors))


# ----------------------------------------------------------------------
# display helpers
# ----------------------------------------------------------------------

def decimal_str(x: Fraction, places: int = 30, direction: str = "nearest") -> str:
    """Decimal expansion of a rational in [0, ~10) with directed rounding."""
    if x < 0:
        raise ValueError("negative values not expected here")
    scale = 10 ** places
    num = x.numerator * scale
    q, r = divmod(num, x.denominator)
    if r and direction == "up":
        q += 1
    elif r and direction == "nearest" and 2 * r >= x.denominator:
        q += 1
    whole, frac = divmod(q, scale)
    return f"{whole}.{frac:0{places}d}"
