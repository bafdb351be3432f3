"""Reference implementations the tests check the program against.

None of these runs in a `visilat` command: the HNF product of two ideals,
exact ideal membership, the Moebius sum for 1/zeta_K(s), a polynomial
evaluated at the basis generator, a prime ideal P = (p, g(theta)) rebuilt as
an HNF from its splitting data, and the difference-ideal norm product built
from one HNF per pair of points.
"""

import itertools
import math
from fractions import Fraction

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
    """Whether the element a lies in I (exact triangular solve over Z)."""
    if I.field != a.field:
        raise ValueError("mismatched field")
    if I.is_zero:
        return not any(a.coords)
    n = I.field.degree
    c = list(a.coords)
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
    return nf.AlgInt(field, tuple(sum(c * pw[k] for c, pw in zip(coeffs, powers))
                                  for k in range(field.degree)))


def prime_hnf(P):
    """(p, g(theta)) built by the reference HNF, apart from the splitting."""
    p, n = P.under_p, P.field.degree
    return il.ideal_from_generators([P.field.element([p] + [0] * (n - 1)),
                                     element_from_poly(P.field, P.gpoly)])


def difference_norm_product(field, S):
    """The product of N(D_st) over the pairs of S, one HNF per pair."""
    diffs = ([field.element(a) - field.element(b) for a, b in zip(s, t)]
             for s, t in itertools.combinations(S, 2))
    return math.prod(il.ideal_from_generators(d).norm for d in diffs)
