"""Prime ideal splitting, enumeration by norm, and residue-field reduction.

Rational primes split according to the factorization of the basis
generator's minimal polynomial f modulo p (valid here because every supported
field carries a power integral basis).  A prime ideal is (p, g(theta)) for a
monic irreducible factor g of f mod p of multiplicity e: the program reads its
p, f = deg g, e and residue map, and never its Z-basis.

One engine, ``split_primes``, splits an array of rational primes at once,
each p a lane of numpy arrays.  Its Frobenius stage squares x^(p^d) mod (f, p)
through the multiplication tensor and takes gcds with x^(p^d) - x, the
products of the factors of each degree d, which alone give the norms at an
unramified p (``factor_degrees``); its splitting stage parts them by
Cantor-Zassenhaus and divides each factor out of f as often as it goes.

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

LANE_BYTES = 2 ** 17      # the engine's working set per chunk of lanes, at int64
CACHE_SIZE = 1024         # entries of each field's split memo and of split_prime's lru_cache
SPLIT_LANES = 256         # a round draws about this many h, 1 to 16 for each piece
SPLIT_ROUNDS = 64         # each stays whole through a round with probability about 1/2

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


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with n - 1 = d 2^s: exact for n < 3.3e24 by
    the bases 2 to 41, and below 3 215 031 751 by 2, 3, 5 and 7 alone."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)[:4 if n < 3215031751 else 13]
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # a is no witness: a^d = 1 or a^(d 2^i) = -1, i < s
    return all((x := pow(a, (n - 1) >> s, n)) == 1
               or n - 1 in [x := x * x % n if i else x for i in range(s)] for a in bases)


# ----------------------------------------------------------------------
# the splitting engine: f mod many primes at once
# ----------------------------------------------------------------------

def split_primes(field: FieldSpec, ps: Sequence[int]) -> list[tuple[PrimeIdeal, ...]]:
    """The prime ideals above each rational prime of ps (taken to be prime),
    sorted by gpoly; the last ``CACHE_SIZE`` p split over a field are kept
    in its ``splits``.
    A factorization is refused (RuntimeError) unless each factor g divides f
    (e >= 1 times) and the e deg g sum to deg f: for distinct irreducible g,
    the product of the g^e is then f, which no draw of the splitting stage
    can change."""
    memo, rng = field.splits, random.Random(0)  # fixed draws
    for p, f, T, ram in _lanes(field, [p for p in dict.fromkeys(ps) if p not in memo]):
        lane, g = _equal_degree(*_frobenius(p, f, T, ram), p, T, rng)
        f, deg, e = f[:, lane], _deg(g), np.zeros(len(lane), np.int64)
        for _ in range(field.degree):
            quo, r = _divmod(f, g, p[lane])
            e += (div := ~(r != 0).any(0))
            f = np.where(div, quo, f)
        ideals = [[] for _ in p]
        for i, q, row, k, ei in zip(*(a.tolist() for a in (lane, p[lane], g.T, deg, e))):
            ideals[i].append(PrimeIdeal(field, q, k, ei, tuple(row[:k + 1]), q ** k))
        # a g that does not divide f counts n + 1 towards the sum
        bad = np.bincount(lane, np.where(e > 0, e * deg, len(f)), len(p)) != field.degree
        if bad.any():
            Ps = ideals[np.argmax(bad)]
            raise RuntimeError(f"factors {sorted((P.gpoly, P.e) for P in Ps)} do not multiply to "
                               f"{field.gen_minpoly} mod {Ps[0].under_p}")
        memo.update((Ps[0].under_p, tuple(sorted(Ps, key=lambda P: P.gpoly))) for Ps in ideals)
    out = [memo[p] for p in ps]
    for p in list(memo)[:max(0, len(memo) - CACHE_SIZE)]:
        del memo[p]
    return out


def factor_degrees(field: FieldSpec, ps: Sequence[int]) -> np.ndarray:
    """counts[i, d - 1], the number of distinct irreducible factors of degree
    d of f mod ps[i], from the Frobenius stage alone: the number of primes of
    norm p^d above p."""
    out, n = [np.zeros((0, field.degree))], field.degree
    for p, f, T, ram in _lanes(field, ps):
        lane, d, g = _frobenius(p, f, T, ram)
        out.append(np.bincount(lane * n + d - 1, _deg(g) // d, len(p) * n).reshape(-1, n))
    return np.concatenate(out).astype(np.int64)


# The engine's arrays are lanes-last: column l of a (w, L) array is a
# polynomial mod p[l], row i its coefficient of x^i, or an element mod (f,
# p[l]), row i its coordinate on theta^i.

def _lanes(field: FieldSpec, ps: Sequence[int]):
    """The primes ps a chunk at a time under ``LANE_BYTES``, as lanes (p, f, T,
    ram): f mod p; T, the multiplication tensor as n rows of n^2 over n rows
    of that tensor times theta; ram, where p divides disc f (else f mod p is
    squarefree).  Every sum the engine forms is below 2 n^2 t (p-1)^2, t the
    largest |entry| of T: a chunk is int64 while that is below 2^63 at its
    largest p, else Python integers (``object``)."""
    n, f = field.degree, np.array(field.gen_minpoly, dtype=object)[:, None]
    T = np.array(field.mult_tensor, dtype=object).reshape(n * n, n).T
    T = np.concatenate((T, np.roll(T, 1, axis=0) - T[-1] * (f[:-1] + (np.arange(n) == 0)[:, None])))
    t, step = max(1, *map(abs, T.flat)), max(1, LANE_BYTES // (8 * (n + 1) ** 2))
    # f and disc f, int64 where they fit (numpy takes [2^63, 2^64) as uint64)
    fd = np.array(field.gen_minpoly + (field.discriminant,), dtype=object)[:, None]
    fd = fd.astype(np.int64) if max(map(abs, fd.flat)) < 2 ** 63 else fd
    for lo in range(0, len(ps), step):
        chunk = ps[lo:lo + step]
        dt = np.int64 if 2 * n * n * t * (int(np.max(chunk)) - 1) ** 2 < 2 ** 63 else object
        p = np.array(chunk, dtype=dt)
        yield p, (r := fd % p)[:-1].astype(dt), T.astype(dt), r[-1] == 0


def _frobenius(p, f, T, ram):
    """The Frobenius stage: pieces (lane, d, g), g the product of the distinct
    irreducible factors of degree d of f mod p[lane], the gcd of x^(p^d) - x
    with what is left of f, which then loses each factor of g to its full
    power.  What is left of degree below 2d is 1 or irreducible."""
    n = len(f) - 1
    x = np.zeros((n, len(p)), f.dtype) + (np.arange(n) == 1)[:, None]  # theta, for n >= 2
    rest, pieces = f, []

    def x_step(r, bit):  # r^2, times x where the bit is set: the two halves of T
        return np.where(bit, (o := T @ (r[:, None] * r[None]).reshape(n * n, -1))[n:], o[:n]) % p

    for d in range(1, n // 2 + 1):
        if not (live := _deg(rest) >= 2 * d).any():
            break
        h = _power(_one(x), p if d == 1 else p.astype(object) ** d, x_step)
        g = _gcd(_poly(h - x) % p, rest, p)
        found = live & (_deg(g) > 0)
        pieces.append((np.flatnonzero(found), np.full(found.sum(), d), g[:, found]))
        rest, j = np.where(found, _divmod(rest, g, p)[0], rest), np.flatnonzero(found & ram)
        while len(j):  # where p | disc f, divide by gcd(rest, g) until that is 1
            u = _gcd(rest[:, j], g[:, j], p[j])
            j, u = j[(keep := _deg(u) > 0)], u[:, keep]
            rest[:, j] = _divmod(rest[:, j], u, p[j])[0]
    last = _deg(rest)
    pieces.append((np.flatnonzero(last > 0), last[last > 0], rest[:, last > 0]))
    lane, d, g = zip(*pieces)
    return np.concatenate(lane), np.concatenate(d), np.concatenate(g, axis=1)


def _equal_degree(lane, d, g, p, T, rng):
    """The splitting stage (Cantor-Zassenhaus): (lane, g) for the irreducible
    factors of pieces g of degree-d irreducibles mod p[lane].  For a random h
    mod (f, p), g's gcd with h^((p^d - 1)/2) - 1, or at p = 2 with the trace
    h + ... + h^(2^(d-1)), is a proper factor about half the time."""
    out = []
    for _ in range(SPLIT_ROUNDS):
        done = _deg(g) == d
        out.append((lane[done], g[:, done]))
        lane, d, g = lane[~done], d[~done], g[:, ~done]
        if not len(lane):
            return np.concatenate([a for a, _ in out]), np.concatenate([b for _, b in out], axis=1)
        r = np.repeat(np.arange(len(lane)), k := min(16, max(1, SPLIT_LANES // len(lane))))
        ex = (p[lane].astype(object) ** d - 1) // 2  # int64 where it fits
        q, e, ex = p[lane][r], d[r], (ex if ex.max() >= 2 ** 63 else ex.astype(np.int64))[r]
        h = np.frombuffer(rng.randbytes(8 * (len(g) - 1) * len(q)), np.int64)
        u, odd = (h := h.reshape(-1, len(q)) % q).copy(), q % 2 == 1
        if odd.any():
            qo, ho = q[odd], h[:, odd]
            u[:, odd] = _power(_one(ho), ex[odd], lambda y, bit: np.where(
                bit, _mul(s := _mul(y, y, qo, T), ho, qo, T), s))
            u[0, odd] -= 1
        for i in range(1, e[~odd].max(initial=1)):  # p = 2
            h[:, ~odd] = _mul(h[:, ~odd], h[:, ~odd], q[~odd], T)
            u[:, ~odd] += np.where(i < e[~odd], h[:, ~odd], 0)
        u = _gcd(_poly(u) % q, g[:, r], q)
        ok = ((_deg(u) > 0) & (_deg(u) < _deg(g)[r])).reshape(-1, k)
        hit, pick = ok.any(1), np.arange(len(lane)) * k + ok.argmax(1)
        u, q = u[:, pick[hit]], q[pick[hit]]
        lane, d = (np.concatenate((a[~hit], a[hit], a[hit])) for a in (lane, d))
        g = np.concatenate((g[:, ~hit], u, _divmod(g[:, hit], u, q)[0]), axis=1)
    raise RuntimeError(f"a piece of degree {_deg(g).max()} did not split in {SPLIT_ROUNDS} rounds")


def _mul(a, b, p, T):
    """a b mod (f, p), lane by lane, on coordinates (the first n rows of T)."""
    return T[:len(a)] @ (a[:, None] * b[None]).reshape(-1, a.shape[1]) % p


def _power(one, e, step):
    """one times a^e, lane by lane, left to right over the bits of e: step(r,
    bit) is r^2, times a where the bit is set."""
    for bit in (e >> np.arange(int(e.max(initial=0)).bit_length())[::-1, None]) & 1 != 0:
        one = step(one, bit)
    return one


def _one(x):
    return np.zeros_like(x) + (np.arange(len(x)) == 0)[:, None]


def _poly(c):
    """Coordinates as a polynomial of degree < n, in n + 1 rows."""
    return np.concatenate((c, np.zeros((1, c.shape[1]), c.dtype)))


def _deg(a):
    """Each lane's degree; -1 for the zero polynomial."""
    return (np.arange(1, len(a) + 1)[:, None] * (a != 0)).max(0) - 1


def _shift(b, s):
    """x^s b lane by lane (s >= 0), cut to b's rows."""
    idx = np.arange(len(b))[:, None] - s
    return np.where(idx >= 0, b[np.maximum(idx, 0), np.arange(b.shape[1])], 0)


def _gcd(a, b, p):
    """Monic gcd of each lane's a and b: each step cancels the leading term of
    the one of higher degree, a <- lc(b) a - lc(a) x^(deg a - deg b) b.  A
    nonzero constant gcd is 1; lc^-1 = lc^(p-2) is taken only where lc > 1."""
    cols = np.arange(a.shape[1])
    while True:
        da, db = _deg(a), _deg(b)
        a, b = np.where(da < db, b, a), np.where(da < db, a, b)
        da, db = np.maximum(da, db), np.minimum(da, db)
        if not (live := db >= 0).any():
            break
        a = np.where(live, (b[db, cols] * a - a[da, cols] * _shift(b, da - db)) % p, a)
    a = np.where(da == 0, _one(a), a)
    lead = a[np.maximum(da, 0), cols]
    q, c = p[fix := np.flatnonzero(lead > 1)], lead[fix]
    inv = _power(np.ones_like(c), q - 2, lambda r, bit: np.where(bit, (s := r * r % q) * c % q, s))
    a[:, fix] = a[:, fix] * inv % q
    return a


def _divmod(a, b, p):
    """Quotient and remainder of each lane's a by its monic b."""
    q, r, db, cols = np.zeros_like(a), a, _deg(b), np.arange(a.shape[1])
    for i in reversed(range(db.min(initial=len(a)), len(a))):
        s, c = np.maximum(i - db, 0), np.where(i >= db, r[i], 0)
        q[s, cols] += c
        r = (r - c * _shift(b, s)) % p
    return q, r


# ----------------------------------------------------------------------
# splitting of rational primes
# ----------------------------------------------------------------------

# redundant with field.splits, but perfbench's split_cache metric reads it
@lru_cache(maxsize=CACHE_SIZE)
def _split_prime_cached(field: FieldSpec, p: int) -> tuple[PrimeIdeal, ...]:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return split_primes(field, [p])[0]


def split_prime(field: FieldSpec, p: int) -> list[PrimeIdeal]:
    """All prime ideals above the rational prime p, sorted by gpoly."""
    return list(_split_prime_cached(field, p))


def primes_up_to_norm(field: FieldSpec, X: int,
                      ps: Sequence[int] | None = None) -> list[PrimeIdeal]:
    """All prime ideals of norm <= X, sorted by (norm, p, gpoly); only those
    above the rational primes ``ps`` when it is given."""
    if X < 2:
        raise ValueError("X must be >= 2")
    if ps is None:
        ps = numfield.rational_primes_up_to(X)
    elif not_prime := [p for p in ps if not is_prime(p)]:
        raise ValueError(f"{not_prime[0]} is not prime")
    out = [P for Ps in split_primes(field, ps) for P in Ps if P.norm <= X]
    out.sort(key=PrimeIdeal.sort_key)
    return out


def window_first_t(field: FieldSpec, t: int) -> tuple[PrimeIdeal, ...]:
    """E_t: primes above the first t rational primes, sorted by (p, gpoly)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return tuple(P for Ps in split_primes(field, numfield.first_rational_primes(t)) for P in Ps)


# ----------------------------------------------------------------------
# residue fields
# ----------------------------------------------------------------------

def reduction_rows(P: PrimeIdeal) -> tuple[tuple[int, ...], ...]:
    """Row i = theta^i in F_p[x]/(g), padded to length f: x times row i - 1."""
    p, g = P.under_p, P.gpoly
    rows = [(1,) + (0,) * (P.f - 1)]
    while len(rows) < P.field.degree:
        rows.append(tuple((c - rows[-1][-1] * gc) % p for c, gc in zip((0,) + rows[-1][:-1], g)))
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
