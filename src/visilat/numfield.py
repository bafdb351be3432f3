"""Number fields with a power integral basis and exact coordinate arithmetic.

Three kinds of field are supported:

* ``rational``:  K = Q, O = Z, basis {1}.
* ``quadratic``: K = Q(sqrt(d)) for squarefree integer d not in {0, 1}.  The
  basis generator is (1 + sqrt(d))/2 when d = 1 (mod 4) and sqrt(d)
  otherwise, so {1, theta} is always a Z-basis of the full ring of integers.
* ``monogenic``: K = Q[x]/(f) for a monic irreducible integer polynomial f,
  under the caller's assertion that Z[theta] is the full ring of integers.

Elements are integer coordinate vectors over the fixed basis {1, theta, ...,
theta^(n-1)}, multiplied by ``mul_coords`` in exact Python integers.
Polynomials are coefficient tuples, constant term first.  Every kind is built
from the minimal polynomial f of theta alone: the multiplication tensor is
theta^(i+j) mod f, a norm is the determinant of multiplication by the element,
and the discriminant is disc(f) = (-1)^(n(n-1)/2) N(f'(theta)).
"""

from __future__ import annotations

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

    def element(self, coords: Sequence[int]) -> "AlgInt":
        coords = tuple(as_int(c) for c in coords)
        if len(coords) != self.degree:
            raise ValueError(
                f"expected {self.degree} coordinates, got {len(coords)}")
        return AlgInt(self, coords)

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        if self.kind == "quadratic":
            return {"kind": "quadratic", "d": self.d}
        return {"kind": "monogenic", "minpoly": list(self.gen_minpoly)}

    def __repr__(self):
        return f"FieldSpec({json.dumps(self.to_json())}, n={self.degree})"


@dataclass(frozen=True)
class AlgInt:
    """An element of O as an integer coordinate vector over the basis."""

    field: FieldSpec
    coords: tuple[int, ...]

    def __repr__(self):
        return f"AlgInt{self.coords}"


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

    ``quadratic`` needs a squarefree d not in {0, 1}; ``monogenic`` needs a
    monic irreducible integer polynomial (constant term first) and trusts the
    caller that its power basis is integral.  A field other than Q whose d
    is not on ``PID_WHITELIST`` (every monogenic field) gets one warning.
    """
    if kind == "rational":
        mp, labels, d = (0, 1), ("1",), None
    elif kind == "quadratic":
        if d is None:
            raise FieldError("quadratic field needs d")
        d = _int("d", d)
        if d in (0, 1) or not _is_squarefree(d):
            raise FieldError(f"d={d} must be squarefree and not 0 or 1")
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
        if not _poly_irreducible(mp):
            raise FieldError("minimal polynomial is reducible over Q")
        labels = ("1", "theta") + tuple(f"theta^{k}" for k in range(2, n))
    else:
        raise FieldError(f"unknown field kind {kind!r}")
    field = FieldSpec(kind=kind, degree=len(mp) - 1, basis_labels=labels,
                      mult_tensor=_power_basis_tensor(mp), gen_minpoly=mp, d=d)
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
    """int(x), but a bool or a float with a fraction is refused (2.0 is 2)."""
    if isinstance(x, bool) or isinstance(x, float) and not x.is_integer():
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def as_real(x) -> Fraction:
    """Fraction(x), but a bool, an infinite or NaN float or "1/0" is refused."""
    if isinstance(x, bool) or isinstance(x, float) and not math.isfinite(x):
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
    d = abs(d)
    if d == 0:
        return False
    if d % 4 == 0:
        return False
    f = 3
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 2
    return True


def _poly_irreducible(coeffs: tuple[int, ...]) -> bool:
    """Monic f is irreducible if f mod p is, for some p; sympy decides only
    when no p < 100 shows it (x^4 + 1 is reducible mod every prime)."""
    from .primes import poly_factor_mod_p  # primes imports this module

    for p in rational_primes_up_to(100):
        if [e for _, e in poly_factor_mod_p(coeffs, p)] == [1]:  # one factor
            return True
    from sympy import Poly, Symbol

    return Poly(list(reversed(coeffs)), Symbol("x")).is_irreducible


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
