"""Prime ideal splitting, enumeration by norm, and residue-field reduction.

Rational primes split according to the factorization of the basis
generator's minimal polynomial modulo p (valid here because every supported
field carries a power integral basis).  Polynomials over F_p are coefficient
tuples, constant term first, coefficients in [0, p).  A prime ideal is
(p, g(theta)) for an irreducible factor g of multiplicity e: the program
reads its p, f = deg g, e and residue map, and never its Z-basis.

``residues`` is the one encoder of coordinates as residues in F_p^f, for a
chunk of primes at once (a lies in P exactly when its residue is 0):
``s_of_prime`` and the CRT oracle reduce the points of S with it, and the
sieve and the lemma check the rows of the region's basis and of S, from
which one closed form finds a residue class's rows run by run of the region
(``counting._class_runs``).  The Euler product needs s(P) only at primes
above a p dividing ``difference_norm_product``; s(P) = |S| at all others.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import numfield
from .ideals import ideal_index
# perfbench/test_perfbench.py::test_traced_children_left_modules_unpatched looks it up
from .ideals import ideal_from_generators  # noqa: F401
from .numfield import FieldSpec


@dataclass(frozen=True, slots=True)
class PrimeIdeal:
    """A prime ideal (p, g(theta)) with residue field F_p[x]/(g)."""

    field: FieldSpec
    under_p: int
    f: int
    e: int
    gpoly: tuple[int, ...]
    norm: int

    def sort_key(self):
        return (self.norm, self.under_p, self.gpoly)

    def __repr__(self):
        return f"PrimeIdeal(p={self.under_p}, f={self.f}, e={self.e}, g={list(self.gpoly)})"


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

def poly_factor_mod_p(poly: Sequence[int],
                      p: int) -> list[tuple[tuple[int, ...], int]]:
    """Complete factorization of a monic polynomial over F_p.

    Squarefree + distinct-degree + equal-degree splitting.  Returns
    (irreducible factor, multiplicity) pairs sorted by (degree,
    coefficients).  F_p[x] has unique factorization, so the random choices
    of equal-degree splitting (a private generator keyed by p and the
    polynomial) cannot change the result.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    f = _pmonic(tuple(c % p for c in poly), p)
    if _pdeg(f) < 1:
        raise ValueError("constant polynomial")
    rng = random.Random(hash((p, f)))
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
def _split_prime_cached(field: FieldSpec, p: int) -> tuple[PrimeIdeal, ...]:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    out = _split_quadratic(field, p) or _split_prime_cz(field, p)
    if sum(P.e * P.f for P in out) != field.degree:
        raise RuntimeError(f"sum of e*f != degree at p={p}")
    return tuple(sorted(out, key=lambda P: P.gpoly))


def _split_prime_cz(field: FieldSpec, p: int) -> list[PrimeIdeal]:
    """Dedekind splitting by Cantor-Zassenhaus: a prime (p, g(theta)) of
    norm p^deg g for each irreducible factor g of multiplicity e.  It has
    that norm exactly when g divides the minimal polynomial f mod p, so the
    factorization is checked whole: the product of the g^e must be f."""
    factors = poly_factor_mod_p(field.gen_minpoly, p)
    prod = (1,)
    for g, e in factors:
        for _ in range(e):
            prod = _pmul(prod, g, p)
    if prod != tuple(c % p for c in field.gen_minpoly):
        raise RuntimeError(f"factors {factors} do not multiply to "
                           f"{field.gen_minpoly} mod {p}")
    return [PrimeIdeal(field, p, _pdeg(g), e, g, p ** _pdeg(g))
            for g, e in factors]


def quadratic_f(field: FieldSpec, p: int) -> int | None:
    """Residue degree of the primes above p by Euler's criterion on D = b^2 -
    4c, where x^2 + bx + c is theta's minimal polynomial: 1 when p splits
    into two primes of norm p, 2 when p is inert; None unless the field is
    quadratic and p is odd and does not divide D."""
    if field.degree != 2 or p == 2:
        return None
    c, b, _ = field.gen_minpoly
    D = (b * b - 4 * c) % p
    if not D:
        return None
    return 1 if pow(D, (p - 1) // 2, p) == 1 else 2


def _split_quadratic(field: FieldSpec, p: int) -> list[PrimeIdeal] | None:
    """Splitting of p in closed form wherever ``quadratic_f`` decides it;
    None for any other p.  A split p has roots r = (-b +- sqrt D)/2 of x^2 +
    bx + c, factors x - r and prime ideals (p, theta - r)."""
    f = quadratic_f(field, p)
    if f is None:
        return None
    c, b, _ = field.gen_minpoly
    if f == 2:
        return [PrimeIdeal(field, p, 2, 1, (c % p, b % p, 1), p * p)]
    t, half, out = _sqrt_mod((b * b - 4 * c) % p, p), (p + 1) // 2, []
    for r in ((t - b) * half % p, (-t - b) * half % p):
        if (r * r + b * r + c) % p:
            raise RuntimeError(f"closed-form root {r} of {field.gen_minpoly} fails mod {p}")
        out.append(PrimeIdeal(field, p, 1, 1, (-r % p, 1), p))
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


def split_prime(field: FieldSpec, p: int) -> list[PrimeIdeal]:
    """All prime ideals above the rational prime p, sorted by gpoly."""
    return list(_split_prime_cached(field, p))


def primes_up_to_norm(field: FieldSpec, X: int,
                      ps: Sequence[int] | None = None) -> list[PrimeIdeal]:
    """All prime ideals of norm <= X, sorted by (norm, p, gpoly); only those
    above the rational primes ``ps`` when it is given."""
    if X < 2:
        raise ValueError("X must be >= 2")
    out = [P for p in (numfield.rational_primes_up_to(X) if ps is None else ps)
           for P in split_prime(field, p) if P.norm <= X]
    out.sort(key=PrimeIdeal.sort_key)
    return out


def window_first_t(field: FieldSpec, t: int) -> tuple[PrimeIdeal, ...]:
    """E_t: primes above the first t rational primes, sorted by (p, gpoly)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return tuple(P for p in numfield.first_rational_primes(t)
                 for P in split_prime(field, p))


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


def residues(plist: Sequence[PrimeIdeal], coords: np.ndarray, b: int = 0):
    """(p, r): the residues in F_p^f of the rows of an ``(R, n)`` coordinate
    array mod each prime of plist, r of shape (len(plist), R, F) zero-padded
    to the largest f, and p the rational primes, of shape (len(plist), 1, 1).
    Rows share a class mod P when their residues agree; P is the class of 0.
    Coordinates are reduced mod p first, so huge entries stay exact.  A sum
    of n products of residues and integers up to max(p-1, b) in size, here or
    in a caller's later products, is below n (p-1) max(p-1, b): the work is
    int64 while that is below 2^63, else Python integers (``object``).
    """
    n, F, top = np.shape(coords)[1], max(P.f for P in plist), max(P.under_p for P in plist)
    dt = np.int64 if n * (top - 1) * max(top - 1, b) < 2 ** 63 else object
    p = np.array([P.under_p for P in plist], dtype=dt)[:, None, None]
    rho = np.zeros((len(plist), n, F), dtype=dt)
    for i, P in enumerate(plist):
        rho[i, :, :P.f] = reduction_rows(P)
    return p, (coords % p).astype(dt) @ rho % p


def s_of_prime(S, P: PrimeIdeal) -> int:
    """s(P): the number of distinct residue tuples mod P (``residues``) of the
    points of S, a ``point_set`` array (k, m, n) or a list of points."""
    r = residues([P], np.array(S, dtype=object).reshape(-1, P.field.degree))[1][0]
    return len({tuple(row) for row in r.reshape(len(S), -1).tolist()})


def difference_norm_product(field: FieldSpec, S) -> int:
    """Product of the norms N(D_st) of the difference ideals D_st = (s_1 -
    t_1, ..., s_m - t_m) over the pairs of points of S: each an
    ``ideal_index`` lane, 0 when S repeats a point.

    Points s != t of S share a residue tuple mod P exactly when P contains
    D_st, and then N(P) | N(D_st).  So s(P) = |S| at every P above a rational
    prime p that does not divide this product (the difference-ideal lemma).
    """
    S = np.array(S, dtype=object)
    i, j = np.triu_indices(len(S), 1)
    return math.prod(ideal_index(field, S[i], S[j]).tolist())
