"""Number fields with a power integral basis and exact coordinate arithmetic.

Three kinds of field are supported:

* ``rational``:  K = Q, O = Z, basis {1}.
* ``quadratic``: K = Q(sqrt(d)) for squarefree integer d not in {0, 1}.  The
  basis generator is (1 + sqrt(d))/2 when d = 1 (mod 4) and sqrt(d)
  otherwise, so {1, theta} is always a Z-basis of the full ring of integers.
* ``monogenic``: K = Q[x]/(f) for a monic integer polynomial f, refused
  unless it is irreducible over Q by one exact test (Zassenhaus at one prime
  above Mignotte's bound, on the splitting engine of ``primes``), under the
  caller's assertion that Z[theta] is the full ring of integers.

Elements are integer coordinate vectors over the fixed basis {1, theta, ...,
theta^(n-1)}, multiplied by ``mul_coords`` in exact Python integers.
Polynomials are coefficient tuples, constant term first.  Every kind is built
from the minimal polynomial f of theta alone: the multiplication tensor is
theta^(i+j) mod f, a norm is the determinant of multiplication by the element,
and the discriminant is disc(f) = (-1)^(n(n-1)/2) N(f'(theta)).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import FieldError

# Quadratic fields whose ring of integers is known to be a PID; everything
# else gets a warning because the density theory assumes a PID.
PID_WHITELIST = {-1, -2, -3, -7, -11, 2, 3, 5, 13}
QUADRATIC_D_BOUND = 2 ** 63  # a quadratic d is refused from |d| = this on
IRREDUCIBLE_PRIMES = 4       # the irreducibility test factors f mod this many primes


@dataclass(frozen=True)
class FieldSpec:
    """A number field K together with its ring of integers O.

    ``mult_tensor[i][j][k]`` gives the coefficient of e_k in e_i * e_j, so the
    tensor fully determines multiplication in O over the basis.
    ``gen_minpoly`` is the monic minimal polynomial of the basis generator
    theta (constant term first); the basis is always {1, theta, ...,
    theta^(n-1)}.
    """

    kind: str
    degree: int
    basis_labels: tuple[str, ...]
    mult_tensor: tuple
    gen_minpoly: tuple[int, ...]
    d: int | None = None

    @property
    def discriminant(self) -> int:
        """disc(f) = (-1)^(n(n-1)/2) N(f'(theta)) of the power basis; f' has
        degree n - 1, so its coefficients are f'(theta)'s coordinates."""
        f, n = self.gen_minpoly, self.degree
        fprime = [i * f[i] for i in range(1, n + 1)]
        return (-1) ** (n * (n - 1) // 2) * norm_of_coords(self, fprime)

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        if self.kind == "quadratic":
            return {"kind": "quadratic", "d": self.d}
        return {"kind": "monogenic", "minpoly": list(self.gen_minpoly)}

    def __repr__(self):
        return f"FieldSpec({json.dumps(self.to_json())}, n={self.degree})"


def mul_coords(field: FieldSpec, a: Sequence[int],
               b: Sequence[int]) -> tuple[int, ...]:
    """Coordinate-level product via the multiplication tensor."""
    n = field.degree
    T = field.mult_tensor
    out = [0] * n
    for i in range(n):
        ai = a[i]
        if not ai:
            continue
        Ti = T[i]
        for j in range(n):
            bj = b[j]
            if not bj:
                continue
            Tij = Ti[j]
            c = ai * bj
            for k in range(n):
                if Tij[k]:
                    out[k] += c * Tij[k]
    return tuple(out)


def norm_of_coords(field: FieldSpec, a: Sequence[int]) -> int:
    """Exact field norm: det of multiplication by the element ``a``."""
    n = field.degree
    return _det_bareiss([mul_coords(field, a, _unit(n, i)) for i in range(n)])


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def _det_bareiss(mat: Sequence[Sequence[int]]) -> int:
    """Fraction-free exact determinant of an integer matrix."""
    m = [list(row) for row in mat]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# ----------------------------------------------------------------------
# field construction
# ----------------------------------------------------------------------

def make_field(kind: str, d: int | None = None,
               minpoly: Sequence[int] | None = None) -> FieldSpec:
    """Build a validated FieldSpec of the given kind.

    ``quadratic`` needs a squarefree d not in {0, 1}, |d| < 2^63; ``monogenic``
    a monic irreducible integer polynomial (constant term first), and trusts
    the caller that its power basis is integral.  A field other than Q whose d
    is not on ``PID_WHITELIST`` (every monogenic field) gets one warning.
    """
    if kind == "rational":
        mp, labels, d = (0, 1), ("1",), None
    elif kind == "quadratic":
        if d is None:
            raise FieldError("quadratic field needs d")
        d = _int("d", d)
        if abs(d) >= QUADRATIC_D_BOUND or d in (0, 1) or not _is_squarefree(d):
            raise FieldError(f"d={d} must be squarefree, not 0 or 1, and below 2^63 in size")
        if d % 4 == 1:
            # theta = (1 + sqrt(d))/2, minimal polynomial x^2 - x + (1-d)/4
            mp, labels = ((1 - d) // 4, -1, 1), ("1", f"(1+sqrt({d}))/2")
        else:
            mp, labels = (-d, 0, 1), ("1", f"sqrt({d})")
    elif kind == "monogenic":
        if not isinstance(minpoly, (list, tuple)):
            raise FieldError("monogenic field needs a minimal polynomial")
        mp = tuple(_int("minimal polynomial coefficient", c) for c in minpoly)
        d = None
        while len(mp) > 1 and mp[-1] == 0:
            mp = mp[:-1]
        n = len(mp) - 1
        if n < 2:
            raise FieldError("monogenic minimal polynomial must have degree >= 2")
        if mp[-1] != 1:
            raise FieldError("minimal polynomial must be monic")
        labels = ("1", "theta") + tuple(f"theta^{k}" for k in range(2, n))
    else:
        raise FieldError(f"unknown field kind {kind!r}")
    field = FieldSpec(kind=kind, degree=len(mp) - 1, basis_labels=labels,
                      mult_tensor=_power_basis_tensor(mp), gen_minpoly=mp, d=d)
    if kind == "monogenic" and not _poly_irreducible(field):
        raise FieldError("minimal polynomial is reducible over Q")
    if kind != "rational" and d not in PID_WHITELIST:
        warnings.warn(f"{field!r} is not on the class-number-one whitelist; "
                      "density formulas assume O is a PID", stacklevel=2)
    return field


def field_from_json(data: dict | str) -> FieldSpec:
    """Parse a field descriptor like {"kind":"quadratic","d":-1}."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise FieldError(f"field descriptor must be a JSON object, got {data!r}")
    return make_field(data.get("kind"), d=data.get("d"),
                      minpoly=data.get("minpoly"))


def as_int(x) -> int:
    """int(x), but a bool (NumPy's too), an infinite or NaN float and any number
    with a fraction are refused (2.0 is 2); a string takes int()'s rule ("2" is 2)."""
    if (isinstance(x, (bool, np.bool_)) or isinstance(x, float) and not x.is_integer()
            or not isinstance(x, str) and int(x) != x):
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def as_real(x) -> Fraction:
    """Fraction(x), but a bool (NumPy's too), an infinite or NaN float or "1/0" is refused."""
    if isinstance(x, (bool, np.bool_)) or isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"{x!r} is not a finite number")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} is not a finite number") from None


def _int(what: str, x) -> int:
    try:
        return as_int(x)
    except (TypeError, ValueError, OverflowError):
        raise FieldError(f"{what} must be an integer, got {x!r}") from None


def _theta_powers(minpoly: Sequence[int], count: int) -> list[list[int]]:
    """theta^0, ..., theta^(count-1) reduced mod the minimal polynomial."""
    cur = list(_unit(len(minpoly) - 1, 0))
    out = []
    for _ in range(count):
        out.append(cur)
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c - top * m for c, m in zip(cur, minpoly)]
    return out


def _power_basis_tensor(minpoly: tuple[int, ...]) -> tuple:
    """e_i * e_j = theta^(i+j) reduced mod the minimal polynomial."""
    n = len(minpoly) - 1
    powers = _theta_powers(minpoly, 2 * n - 1)
    return tuple(tuple(tuple(powers[i + j]) for j in range(n))
                 for i in range(n))


# ----------------------------------------------------------------------
# integer utilities for construction-time validation and prime tables
# ----------------------------------------------------------------------

def _is_squarefree(d: int) -> bool:
    """No square divides d != 0: past the primes up to the cube root of |d|,
    what is left has at most two prime factors, so is squarefree unless a square."""
    d, ps = abs(d), np.array(rational_primes_up_to(round(abs(d) ** (1 / 3)) + 1))
    for p in ps[d % ps == 0].tolist():
        if d % (p * p) == 0:
            return False
        d //= p
    return d == 1 or math.isqrt(d) ** 2 != d


def _poly_irreducible(field: FieldSpec) -> bool:
    """Zassenhaus at one prime.  f is reducible when disc f = 0, or when a
    monic h of degree k <= n/2 divides it over Z.  By Mignotte, |h_j| <=
    C(k, j) |f|_2 <= M; at a p > 2M with f mod p squarefree, h is the lift to
    (-p/2, p/2] of a product of f's irreducible factors mod p.  Of the first
    ``IRREDUCIBLE_PRIMES`` such p, the one with the fewest factors is split
    unless it has one; a refused f leaves no entry in the engine's memo."""
    from . import primes  # primes imports this module

    f, n, disc = field.gen_minpoly, field.degree, field.discriminant
    if not disc:  # f and f' share a factor
        return False
    ps, p = [], 2 * math.comb(n // 2, n // 4) * (math.isqrt(sum(c * c for c in f)) + 1)
    while len(ps) < IRREDUCIBLE_PRIMES:
        p += 1
        if disc % p and primes.is_prime(p):
            ps.append(p)
    if (counts := primes.factor_degrees(field, ps).sum(1)).min() == 1:
        return True
    p = ps[counts.argmin()]
    gs = [P.gpoly for P in primes.split_primes(field, [p])[0]]
    for sub in (s for k in range(1, len(gs)) for s in itertools.combinations(gs, k)
                if sum(map(len, s)) - k <= n // 2):
        h = (functools.reduce(np.convolve, sub, np.ones(1, dtype=object)) + p // 2) % p - p // 2
        r = np.array(f, dtype=object)
        for i in reversed(range(len(h) - 1, n + 1)):  # r mod h over Z
            r[i + 1 - len(h):i + 1] -= r[i] * h
        if not r.any():
            del primes._SPLIT[field]
            return False
    return True


def first_rational_primes(t: int) -> list[int]:
    """The first t rational primes."""
    x = 16
    while len(primes := rational_primes_up_to(x)) < t:
        x *= 2
    return primes[:t]


def rational_primes_up_to(x: int) -> list[int]:
    """All rational primes <= x by sieve."""
    if x < 2:
        return []
    mark = bytearray([1]) * (x + 1)
    mark[0] = mark[1] = 0
    for p in range(2, math.isqrt(x) + 1):
        if mark[p]:
            mark[p * p::p] = bytearray(len(mark[p * p::p]))
    return np.flatnonzero(np.frombuffer(mark, np.uint8)).tolist()
