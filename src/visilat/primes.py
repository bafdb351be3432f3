"""Prime ideal splitting, enumeration by norm, and residue-field reduction.

Rational primes split according to the factorization of the basis
generator's minimal polynomial modulo p (valid here because every supported
field carries a power integral basis).  Polynomials over F_p are coefficient
tuples, constant term first, coefficients in [0, p).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import numfield
from .ideals import IdealHNF, PointTuple, ideal_from_generators
from .numfield import AlgInt, FieldSpec


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime ideal (p, g(theta)) with residue field F_p[x]/(g)."""

    field: FieldSpec
    under_p: int
    f: int
    e: int
    gpoly: tuple[int, ...]
    hnf: IdealHNF
    norm: int

    def sort_key(self):
        return (self.norm, self.under_p, self.gpoly)

    def __repr__(self):
        return f"PrimeIdeal(p={self.under_p}, f={self.f}, e={self.e}, g={list(self.gpoly)})"


@dataclass(frozen=True)
class PrimeWindow:
    """E_t: all prime ideals above the first t rational primes."""

    t: int
    primes: tuple[PrimeIdeal, ...]


@dataclass(frozen=True)
class ResidueElem:
    """Image of an element in O/P, as a polynomial of degree < f over F_p."""

    prime: PrimeIdeal
    rep: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.rep)


# ----------------------------------------------------------------------
# arithmetic of polynomials over F_p (tuples, constant term first)
# ----------------------------------------------------------------------

def _ptrim(a: Sequence[int]) -> tuple[int, ...]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _pdeg(a: tuple[int, ...]) -> int:
    return len(a) - 1


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _ptrim([( (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                   for i in range(n)])


def _psub(a, b, p):
    n = max(len(a), len(b))
    return _ptrim([( (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                   for i in range(n)])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pdivmod(a, b, p):
    """Division with remainder by a nonzero polynomial b."""
    b = _ptrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], p - 2, p) if b[-1] != 1 else 1
    rem = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(rem) - len(b), -1, -1):
        c = (rem[i + len(b) - 1] * inv) % p
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                rem[i + j] = (rem[i + j] - c * bj) % p
    return _ptrim(q), _ptrim(rem)


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pmonic(a, p):
    a = _ptrim(a)
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return tuple((c * inv) % p for c in a)


def _pgcd(a, b, p):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return _pmonic(a, p)


def _ppowmod(base, exp: int, mod, p):
    result = (1,)
    base = _pmod(base, mod, p)
    while exp:
        if exp & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        base = _pmod(_pmul(base, base, p), mod, p)
        exp >>= 1
    return result


def _pderiv(a, p):
    return _ptrim([(i * a[i]) % p for i in range(1, len(a))])


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ----------------------------------------------------------------------
# factorization over F_p
# ----------------------------------------------------------------------

def poly_factor_mod_p(poly: Sequence[int], p: int,
                      seed: int = 0) -> list[tuple[tuple[int, ...], int]]:
    """Complete factorization of a monic polynomial over F_p.

    Squarefree + distinct-degree + (randomized, seeded) equal-degree
    splitting.  Returns (irreducible factor, multiplicity) pairs sorted by
    (degree, coefficients).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    f = _pmonic(tuple(c % p for c in poly), p)
    if _pdeg(f) < 1:
        raise ValueError("constant polynomial")
    rng = random.Random((seed, p, f).__hash__())
    factors = _factor_monic(f, p, rng)
    factors.sort(key=lambda fm: (_pdeg(fm[0]), fm[0]))
    return factors


def _factor_monic(f, p, rng) -> list[tuple[tuple[int, ...], int]]:
    if _pdeg(f) == 0:
        return []
    fp = _pderiv(f, p)
    if not fp:
        # f = g(x^p) = g(x)^p since coefficients are Frobenius-fixed
        g = _ptrim([f[i] for i in range(0, len(f), p)])
        return [(q, m * p) for q, m in _factor_monic(g, p, rng)]
    sqf, _ = _pdivmod(f, _pgcd(f, fp, p), p)
    result = []
    rem = f
    for q in _irreducibles_of_squarefree(_pmonic(sqf, p), p, rng):
        mult = 0
        while True:
            quo, r = _pdivmod(rem, q, p)
            if r:
                break
            rem = quo
            mult += 1
        result.append((q, mult))
    if _pdeg(rem) > 0:
        # leftover multiplicities all divisible by p; its derivative vanishes
        result.extend(_factor_monic(rem, p, rng))
    return result


def _irreducibles_of_squarefree(f, p, rng) -> list[tuple[int, ...]]:
    """Distinct-degree then equal-degree splitting of a squarefree monic f."""
    out = []
    h = (0, 1)
    cur = f
    d = 0
    while _pdeg(cur) >= 2 * (d + 1):
        d += 1
        h = _ppowmod(h, p, cur, p)
        g = _pgcd(cur, _psub(h, (0, 1), p), p)
        if _pdeg(g) > 0:
            out.extend(_equal_degree_split(g, d, p, rng))
            cur, _ = _pdivmod(cur, g, p)
            cur = _pmonic(cur, p)
            h = _pmod(h, cur, p)
    if _pdeg(cur) > 0:
        out.append(cur)
    return out


def _equal_degree_split(g, d, p, rng) -> list[tuple[int, ...]]:
    """Cantor-Zassenhaus split of a product of degree-d irreducibles."""
    if _pdeg(g) == d:
        return [g]
    while True:
        h = _ptrim([rng.randrange(p) for _ in range(_pdeg(g))])
        if not h:
            continue
        u = _pgcd(g, h, p)
        if 0 < _pdeg(u) < _pdeg(g):
            break
        if p == 2:
            acc = h
            t = h
            for _ in range(d - 1):
                t = _pmod(_pmul(t, t, p), g, p)
                acc = _padd(acc, t, p)
            u = _pgcd(g, acc, p)
        else:
            w = _ppowmod(h, (p ** d - 1) // 2, g, p)
            u = _pgcd(g, _psub(w, (1,), p), p)
        if 0 < _pdeg(u) < _pdeg(g):
            break
    rest, _ = _pdivmod(g, u, p)
    return (_equal_degree_split(u, d, p, rng)
            + _equal_degree_split(_pmonic(rest, p), d, p, rng))


# ----------------------------------------------------------------------
# splitting of rational primes
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _split_prime_cached(field: FieldSpec, p: int, seed: int) -> tuple[PrimeIdeal, ...]:
    out = _split_quadratic(field, p) or _split_prime_cz(field, p, seed)
    if sum(P.e * P.f for P in out) != field.degree:
        raise RuntimeError(f"sum of e*f != degree at p={p}")
    return tuple(sorted(out, key=lambda P: P.gpoly))


def _split_prime_cz(field: FieldSpec, p: int, seed: int) -> list[PrimeIdeal]:
    """Dedekind splitting by Cantor-Zassenhaus, with an HNF per factor."""
    out = []
    for g, e in poly_factor_mod_p(field.gen_minpoly, p, seed=seed):
        f = _pdeg(g)
        gen = numfield.element_from_poly(field, g)
        hnf = ideal_from_generators([field.element([p] + [0] * (field.degree - 1)), gen])
        norm = p ** f
        if hnf.norm != norm:
            raise RuntimeError(
                f"splitting inconsistency at p={p}: HNF norm {hnf.norm} != p^f {norm}")
        out.append(PrimeIdeal(field=field, under_p=p, f=f, e=e, gpoly=g,
                              hnf=hnf, norm=norm))
    return out


def _split_quadratic(field: FieldSpec, p: int) -> list[PrimeIdeal] | None:
    """Splitting of an odd p not dividing D = b^2 - 4c in closed form, where
    x^2 + bx + c is theta's minimal polynomial; None for any other p.  Euler's
    criterion on D tells inert from split; a split p has roots r = (-b +-
    sqrt D)/2, factors x - r and prime ideals (p, theta - r), whose HNF rows
    are 1 - r^-1 theta (theta itself when r = 0) and p theta."""
    if field.degree != 2 or p == 2:
        return None
    c, b, _ = field.gen_minpoly
    D = (b * b - 4 * c) % p
    if not D:
        return None
    if pow(D, (p - 1) // 2, p) != 1:
        hnf = IdealHNF(field, ((p, 0), (0, p)), False, p * p)
        return [PrimeIdeal(field, p, 2, 1, (c % p, b % p, 1), hnf, p * p)]
    t, half, out = _sqrt_mod(D, p), (p + 1) // 2, []
    for r in ((t - b) * half % p, (-t - b) * half % p):
        if (r * r + b * r + c) % p:
            raise RuntimeError(f"closed-form root {r} of {field.gen_minpoly} fails mod {p}")
        rows = ((1, -pow(r, -1, p) % p), (0, p)) if r else ((p, 0), (0, 1))
        out.append(PrimeIdeal(field, p, 1, 1, (-r % p, 1),
                              IdealHNF(field, rows, False, p), p))
    return out


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of a nonzero square a modulo an odd prime p, by
    Tonelli-Shanks with the smallest non-residue (deterministic)."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q 2^s with q odd
    q = (p - 1) >> s
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i = next(i for i in range(1, s) if pow(t, 1 << i, p) == 1)
        u = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, u * u % p, t * u * u % p, r * u % p
    return r


def split_prime(field: FieldSpec, p: int, seed: int = 0) -> list[PrimeIdeal]:
    """All prime ideals above the rational prime p, sorted by gpoly."""
    return list(_split_prime_cached(field, p, seed))


def primes_up_to_norm(field: FieldSpec, X: int, seed: int = 0) -> list[PrimeIdeal]:
    """All prime ideals of norm <= X, sorted by (norm, p, gpoly)."""
    if X < 2:
        raise ValueError("X must be >= 2")
    out = []
    for p in numfield.rational_primes_up_to(X):
        out.extend(P for P in split_prime(field, p, seed) if P.norm <= X)
    out.sort(key=PrimeIdeal.sort_key)
    return out


def window_first_t(field: FieldSpec, t: int, seed: int = 0) -> PrimeWindow:
    """E_t: primes above the first t rational primes, sorted by (p, gpoly)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    primes = []
    for p in numfield.first_rational_primes(t):
        primes.extend(split_prime(field, p, seed))
    primes.sort(key=lambda P: (P.under_p, P.gpoly))
    return PrimeWindow(t=t, primes=tuple(primes))


# ----------------------------------------------------------------------
# residue fields
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def reduction_rows(P: PrimeIdeal) -> tuple[tuple[int, ...], ...]:
    """Row i = image of theta^i in F_p[x]/(g), padded to length f."""
    p, g, f = P.under_p, P.gpoly, P.f
    n = P.field.degree
    rows = []
    cur = (1,)
    for _ in range(n):
        rows.append(tuple(cur) + (0,) * (f - len(cur)))
        cur = _pmod(_pmul(cur, (0, 1), p), g, p)
    return tuple(rows)


def residue_ids(P: PrimeIdeal, coords: np.ndarray) -> np.ndarray:
    """Residue class mod P of every row of an ``(..., n)`` coordinate array.

    Each class is packed base p into [0, N(P)), so two rows share an id
    exactly when their difference lies in P; the shape is coords.shape[:-1].
    An int64 array whose entries are at most A in size, with n A (p-1) <
    2^63, goes straight into the product with ``reduction_rows``.  Otherwise
    coordinates are reduced mod p first, so huge entries stay exact; then a
    row times ``reduction_rows`` is <= n (p-1)^2 and the packing < N(P).
    The work is int64 when those fit, else Python integers (``object``).
    """
    p, n = P.under_p, P.field.degree
    r = np.asarray(coords)
    # min/max as Python ints: -(-2^63) does not wrap
    if (r.dtype == np.int64 and r.size and P.norm <= 2 ** 63 and n * (p - 1)
            * max(-int(r.min()), int(r.max())) < 2 ** 63):
        dtype = np.int64
    else:
        fits = n * (p - 1) ** 2 < 2 ** 63 and P.norm <= 2 ** 63
        dtype = np.int64 if fits else object
        # a 0-d p of the working dtype makes object rows reduce exactly
        r = (r % np.array(p, dtype=dtype)).astype(dtype, copy=False)
    r = r @ np.array(reduction_rows(P), dtype=dtype)
    return (r % p) @ np.array([p ** j for j in range(P.f)], dtype=dtype)


def reduce(a: AlgInt, P: PrimeIdeal) -> ResidueElem:
    """The projection O -> O/P (a ring homomorphism): ``residue_ids`` digits."""
    if a.field != P.field:
        raise ValueError("mismatched field")
    p = P.under_p
    code = int(residue_ids(P, np.array(a.coords, dtype=object)))
    return ResidueElem(P, tuple(code // p ** j % p for j in range(P.f)))


def s_of_prime(S: Sequence[PointTuple], P: PrimeIdeal) -> int:
    """s(p) = number of distinct rows of ``residue_ids`` over S modulo P."""
    if not S:
        raise ValueError("S must be nonempty")
    ids = residue_ids(P, np.array([s.coords_lists() for s in S], dtype=object))
    return len({tuple(row) for row in ids.tolist()})
