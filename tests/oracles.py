"""Reference implementations the tests check the program against.

None of these runs in a `visilat` command: the HNF product of two ideals,
exact ideal membership, the Moebius sum for 1/zeta_K(s), a polynomial
evaluated at the basis generator, a prime ideal P = (p, g(theta)) rebuilt as
an HNF from its splitting data, the difference of two elements, the
difference-ideal norm product built from one HNF per pair of points, each
coordinate row's residue class mod P packed base p by scaled adds,
|P ∩ region| by a scan of every row, and Monte Carlo samples drawn by
numpy.random.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from visilat import counting as ct
from visilat import ideals as il
from visilat import numfield as nf
from visilat import primes as pr


def ideal_mul(I, J):
    """I J, the HNF of the products of their Z-bases."""
    if I.field != J.field:
        raise ValueError("ideals over different fields")
    if I.is_zero or J.is_zero:
        return il._from_rows(I.field, [[0] * I.field.degree])
    rows = [list(nf.mul_coords(I.field, a, b)) for a in I.hnf for b in J.hnf]
    return il._from_rows(I.field, rows)


def contains(I, a):
    """Whether the coordinate vector a lies in I (exact triangular solve over Z)."""
    c = list(il.point(I.field, [a])[0])
    if I.is_zero:
        return not any(c)
    n = I.field.degree
    for i in range(n):
        q, r = divmod(c[i], I.hnf[i][i])
        if r:
            return False
        if q:
            for j in range(i, n):
                c[j] -= q * I.hnf[i][j]
    return True


def zeta_recip_truncated(field, s: int, X: int) -> Fraction:
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
    norms = [P.norm for P in pr.primes_up_to_norm(field, X)]

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


def element_from_poly(field, coeffs):
    """Evaluate an integer polynomial (constant first) at the basis generator."""
    powers = nf._theta_powers(field.gen_minpoly, len(coeffs))
    return tuple(sum(c * pw[k] for c, pw in zip(coeffs, powers))
                 for k in range(field.degree))


def prime_hnf(P):
    """(p, g(theta)) built by the reference HNF, apart from the splitting."""
    p, n = P.under_p, P.field.degree
    return il.ideal_from_generators(P.field, [[p] + [0] * (n - 1),
                                              element_from_poly(P.field, P.gpoly)])


def sub(a, b):
    """a - b for the coordinate vectors a and b of two elements of one field."""
    return tuple(x - y for x, y in zip(a, b))


def difference_norm_product(field, S):
    """The product of N(D_st) over the pairs of S, one HNF per pair."""
    diffs = ([sub(a, b) for a, b in zip(s, t)]
             for s, t in itertools.combinations(S, 2))
    return math.prod(il.ideal_from_generators(field, d).norm for d in diffs)


def residue_ids(P, coords):
    """Residue class mod P of every row of an ``(..., n)`` coordinate array.

    Each class is packed base p into [0, N(P)), so two rows share an id
    exactly when their difference lies in P; the shape is coords.shape[:-1].
    Coordinates are reduced mod p first, so huge entries stay exact; then a
    row times ``reduction_rows`` is <= n (p-1)^2 and the packing < N(P).
    The work is int64 when those fit, else Python integers (``object``).
    A degree-1 prime's id is its one residue; nothing is packed.
    """
    p, n = P.under_p, P.field.degree
    dtype = np.int64 if n * (p - 1) ** 2 < 2 ** 63 and P.norm <= 2 ** 63 else object
    # a 0-d p of the working dtype makes object rows reduce exactly
    r = (np.asarray(coords) % np.array(p, dtype=dtype)).astype(dtype, copy=False)
    red = np.array(pr.reduction_rows(P), dtype=dtype)
    # scaled adds, as numpy's integer matmul is slower; x - x // p * p is x % p
    # (numpy divides by a scalar faster than it takes remainders; wraps cancel)
    x = sum((r[..., i, None] * red[i] for i in range(1, n)), r[..., :1] * red[0])
    x = x - x // p * p
    return x[..., 0] if P.f == 1 else x @ p ** np.arange(P.f, dtype=dtype)


def ideal_count(P, region):
    """|P ∩ region|: the rows of ``region_coords`` whose residue id is 0."""
    return int((residue_ids(P, ct.region_coords(region)) == 0).sum())


def mc_points_reference(field, m, region, samples, seed):
    """The (samples, m, n) array ``ct.mc_estimate`` gives the visibility
    kernel, drawn by numpy.random's Philox generator keyed by the seed; a ball
    keeps its rows from batches of 2 samples m + 64 rows."""
    n, need = field.degree, samples * m
    gen = np.random.Generator(np.random.Philox(key=seed))
    L, r2 = region.L, int(region.size ** 2)
    if region.shape == "cube":
        flat = gen.integers(-L, L + 1, size=(need, n), dtype=np.int64)
    else:
        dt = np.int64 if n * L * L < 2 ** 63 else object
        got, count = [], 0
        while count < need:
            batch = gen.integers(-L, L + 1, size=(2 * need + 64, n), dtype=np.int64)
            keep = batch[(batch.astype(dt, copy=False) ** 2).sum(axis=1) <= r2]
            got.append(keep)
            count += len(keep)
        flat = np.concatenate(got)[:need]
    return ct._transform(region, flat).reshape(samples, m, n)
