import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from visilat import density as dn
from visilat import ideals as il
from visilat import primes as pr
from visilat.errors import CapExceeded

from conftest import origin
from oracles import residue_ids, zeta_recip_truncated


def inv_zeta2():
    # 6/pi^2 independent of any Euler product in the package
    return Fraction(6) / Fraction(math.pi) ** 2


def catalan():
    # alternating series, summed backwards; error below 1e-10
    return sum((-1) ** k / (2 * k + 1) ** 2 for k in reversed(range(10 ** 5)))


def test_inv_zeta2_bracket(rational):
    iv = dn.predicted_density(rational, [origin(rational, 2)], 2, 10 ** 4)
    assert iv.lo <= inv_zeta2() <= iv.hi
    assert iv.hi - iv.lo < Fraction(1, 1000)
    assert iv.zero_certificate is None


def test_zero_certificate(rational):
    S = [il.point(rational, [[a], [b]]) for a in (0, 1) for b in (0, 1)]
    iv = dn.predicted_density(rational, S, 2, 100)
    assert iv.lo == iv.hi == Fraction(*iv.mid_ratio) == 0
    assert iv.zero_certificate is not None
    assert iv.zero_certificate.under_p == 2


@pytest.mark.parametrize("fname", ["rational", "gaussian", "golden"])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_mid_is_mean_of_endpoints(request, fname, size):
    # mid is hi times a small rational; it must equal (lo + hi) / 2 exactly,
    # at a tail slack below 1 (X large) and above it (X = 2, lo = 0)
    field = request.getfixturevalue(fname)
    S = [origin(field, 2)] + [
        il.point(field, [[k] + [1] * (field.degree - 1), [1 - k] * field.degree])
        for k in range(1, size)]
    for X in (2, 50, 10 ** 3):
        iv = dn.predicted_density(field, S, 2, X)
        assert iv.lo == iv.hi * max(0, 1 - iv.tail)
        assert Fraction(*iv.mid_ratio) == (iv.lo + iv.hi) / 2


def reference_product(field, S, m, X):
    """(X, hi, tail, zero certificate) from every prime ideal of
    ``primes_up_to_norm``, its ``s_of_prime`` and a Fraction product."""
    S = il.point_set(field, S, m)
    while 2 * len(S) > X ** m:
        X += 1
    hi, zero = Fraction(1), None
    for P in pr.primes_up_to_norm(field, X):
        s = pr.s_of_prime(S, P)
        if s == P.norm ** m and zero is None:
            zero = P
        hi *= 1 - Fraction(s, P.norm ** m)
    if zero is not None:
        return X, hi, Fraction(0), zero
    return X, hi, Fraction(2 * field.degree * len(S), (m - 1) * X ** (m - 1)), None


def assert_matches_reference(field, S, m, X):
    iv = dn.predicted_density(field, S, m, X)
    cutoff, hi, tail, zero = reference_product(field, S, m, X)
    assert (iv.cutoff_X, iv.tail, iv.zero_certificate) == (cutoff, tail, zero)
    assert Fraction(iv.num, iv.den) == iv.hi == hi
    assert iv.lo == hi * max(0, 1 - tail)
    return iv


@pytest.mark.parametrize("fname", ["rational", "gaussian", "sqrt_m7", "golden",
                                   "cubic"])
def test_product_matches_reference(request, fname):
    # points that differ by multiples of 6 and 35 collide mod primes above
    # 2, 3, 5 and 7; the unit square {0, 1}^2 has p^m <= |S| at p = 2
    field = request.getfixturevalue(fname)
    n = field.degree
    for m in (2, 3):
        rng = random.Random(m)
        base = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        shifted = [[[x + step * rng.randint(1, 3) for x in row] for row in base]
                   for step in (6, 35)]
        square = [[[a] + [0] * (n - 1), [b] + [0] * (n - 1)] + [[0] * n] * (m - 2)
                  for a in (0, 1) for b in (0, 1)]
        for S in ([base], [base] + shifted[:1], [base] + shifted, square):
            for X in (2, 50, 10 ** 3):
                assert_matches_reference(field, S, m, X)


def test_zero_certificate_smallest_norm_first(gaussian):
    # S covers every residue pair mod the inert 3 (norm 9) and mod (2 + i)
    # (norm 5, where i = -2), and is 0 mod (1 + i), so 2 certifies nothing:
    # the certificate is the norm-5 prime, though p = 3 comes first
    def crt(u, v, a):
        return next([x, y] for x in range(30) for y in range(30)
                    if (x - u) % 3 == (y - v) % 3 == 0
                    and (x - 2 * y - a) % 5 == 0 and (x + y) % 2 == 0)

    S = [[crt(*divmod(i // 9, 3), i % 25 // 5), crt(*divmod(i % 9, 3), i % 5)]
         for i in range(81)]
    by_p = {P.under_p: P for P in pr.primes_up_to_norm(gaussian, 9)}
    assert pr.s_of_prime(S, by_p[2]) == 1 and pr.s_of_prime(S, by_p[3]) == 81
    iv = assert_matches_reference(gaussian, S, 2, 50)
    assert iv.zero_certificate.norm == 5
    assert iv.lo == iv.hi == Fraction(*iv.mid_ratio) == 0
    # 10 (u + vi) over every residue pair mod 3: only the inert 3 certifies,
    # and it divides no difference norm, so p^m <= |S| alone finds it
    S = [[[10 * a, 10 * b], [10 * c, 10 * d]]
         for a, b, c, d in itertools.product(range(3), repeat=4)]
    assert pr.difference_norm_product(gaussian, S) % 3
    assert assert_matches_reference(gaussian, S, 2, 50).zero_certificate == by_p[3]


def test_predict_splits_only_special_primes(gaussian):
    # S = {0, s} with D = (6 + 3i, 15) = 3 (2 + i) of norm 45: only 2
    # (ramified), 3 and 5 become prime ideals; every other p <= 10^4 is
    # counted by Euler's criterion alone
    S = [origin(gaussian, 2), il.point(gaussian, [[6, 3], [15, 0]])]
    assert il.ideal_from_generators(
        [gaussian.element([6, 3]), gaussian.element([15, 0])]).norm == 45
    pr._split_prime_cached.cache_clear()
    try:
        iv = dn.predicted_density(gaussian, S, 2, 10 ** 4)
        assert pr._split_prime_cached.cache_info().currsize == 3
    finally:
        pr._split_prime_cached.cache_clear()
    assert iv.hi == reference_product(gaussian, S, 2, 10 ** 4)[1]


def test_gaussian_bracket(gaussian):
    iv = dn.predicted_density(gaussian, [origin(gaussian, 2)], 2, 10 ** 4)
    truth = 1 / (float(Fraction(math.pi) ** 2 / 6) * catalan())
    assert float(iv.lo) <= truth <= float(iv.hi)
    assert abs(truth - 0.66370) < 5e-5


def test_m_below_two_rejected(rational):
    with pytest.raises(ValueError):
        dn.predicted_density(rational, [origin(rational, 2)], 1, 100)


def test_cutoff_raised_for_large_s(rational):
    S = [il.point(rational, [[k], [k + 1]]) for k in range(5)]
    iv = dn.predicted_density(rational, S, 2, 2)
    assert 2 * len(S) <= iv.cutoff_X ** 2


def test_interval_nesting(rational, gaussian):
    for field in (rational, gaussian):
        S = [origin(field, 2)]
        ivs = [dn.predicted_density(field, S, 2, X) for X in (100, 1000, 10000)]
        for prev, cur in zip(ivs, ivs[1:]):
            assert prev.lo <= cur.lo and cur.hi <= prev.hi
        assert ivs[-1].hi - ivs[-1].lo < ivs[0].hi - ivs[0].lo


def test_monotone_in_s(rational):
    S = [origin(rational, 2)]
    grown = S + [il.point(rational, [[1], [2]])]
    a = dn.predicted_density(rational, S, 2, 500)
    b = dn.predicted_density(rational, grown, 2, 500)
    assert b.hi <= a.hi


def test_inv_zeta3_bracket(rational):
    iv = dn.predicted_density(rational, [origin(rational, 3)], 3, 2000)
    zeta3 = sum(1 / k ** 3 for k in reversed(range(1, 10 ** 5))) + 1 / (2 * (10 ** 5) ** 2)
    assert float(iv.lo) <= 1 / zeta3 <= float(iv.hi)


def test_admissible_factors(rational):
    # S = {(0,0),(1,1)} is admissible: every factor is 1 - 2/p^2
    S = [origin(rational, 2), il.point(rational, [[1], [1]])]
    w = pr.window_first_t(rational, 4)
    ed = dn.exact_window_density(rational, S, 2, w)
    for P, f in ed.per_prime_factors:
        assert f == Fraction(P.norm ** 2 - 2, P.norm ** 2)


def test_zeta_recip_truncated(rational, gaussian):
    assert zeta_recip_truncated(rational, 2, 1) == 1
    z = zeta_recip_truncated(rational, 2, 1000)
    assert abs(float(z) - float(inv_zeta2())) < 2e-3
    # cross-method consistency for Q(i)
    zi = zeta_recip_truncated(gaussian, 2, 1000)
    iv = dn.predicted_density(gaussian, [origin(gaussian, 2)], 2, 1000)
    assert abs(float(zi) - float((iv.lo + iv.hi) / 2)) < 8e-3


def test_exact_window_examples(rational, gaussian):
    w = pr.window_first_t(rational, 2)
    ed = dn.exact_window_density(rational, [origin(rational, 2)], 2, w)
    assert ed.value == Fraction(2, 3)

    w25 = pr.split_prime(gaussian, 2) + pr.split_prime(gaussian, 5)
    ed2 = dn.exact_window_density(gaussian, [origin(gaussian, 2)], 2, w25)
    assert ed2.value == Fraction(1728, 2500)

    S = [il.point(rational, [[a], [b]]) for a in (0, 1) for b in (0, 1)]
    w2 = pr.window_first_t(rational, 1)
    assert dn.exact_window_density(rational, S, 2, w2).value == 0


def _crt_density(S, m, primes):
    """The share of the cells of prod_P (O/P)^m that no point of S occupies,
    a cell coded by the reference's residue ids."""
    acc = np.ones(1, dtype=bool)
    for P in primes:
        allowed = np.ones(P.norm ** m, dtype=bool)
        allowed[residue_ids(P, S) @ P.norm ** np.arange(m)] = False
        acc = (acc[:, None] & allowed[None, :]).reshape(-1)
    return Fraction(int(acc.sum()), len(acc))


@pytest.mark.parametrize("fname", ["gaussian", "sqrt_m7", "cubic"])
def test_oracle_cells_match_residue_ids(request, fname):
    # the oracle's cell code of a point, its m f residues base p, is its m
    # residue ids base N = p^f; on windows of at most 10^6 cells the density
    # equals a CRT count over the reference's ids
    field = request.getfixturevalue(fname)
    n, rng, counted = field.degree, random.Random(61), 0
    for t in (1, 2, 3):
        primes = pr.window_first_t(field, t)
        for m in (2, 3):
            for _ in range(3):
                S = il.point_set(field, [[[rng.randint(-3, 3) for _ in range(n)]
                                          for _ in range(m)]
                                         for _ in range(rng.randint(1, 5))], m)
                for P in primes:
                    r = pr.residues([P], S.reshape(-1, n))[1][0]
                    codes = r.reshape(len(S), -1) @ P.under_p ** np.arange(m * P.f)
                    assert codes.tolist() == (residue_ids(P, S)
                                              @ P.norm ** np.arange(m)).tolist()
                if math.prod(P.norm ** m for P in primes) <= 10 ** 6:
                    assert (dn.exact_window_density(field, S, m, primes).value
                            == _crt_density(S, m, primes)), (t, m, S)
                    counted += 1
    assert counted >= 9


def test_exact_window_cap(rational):
    w = pr.window_first_t(rational, 3)
    with pytest.raises(CapExceeded) as err:
        dn.exact_window_density(rational, [origin(rational, 2)], 2, w,
                                crt_cap=10)
    assert err.value.estimate == 900


def test_window_density_refuses_before_splitting(rational, monkeypatch):
    # E_3 of Q has state space 30^2 = 900; with crt_cap = 255 < 2^8 it is
    # refused after splitting, and E_4 (2^(m t) = 256) before any split
    S = [origin(rational, 2)]
    assert dn.window_density(rational, S, 2, 3) == dn.exact_window_density(
        rational, S, 2, pr.window_first_t(rational, 3))
    with pytest.raises(CapExceeded) as err:
        dn.window_density(rational, S, 2, 3, crt_cap=255)
    assert err.value.estimate == 900
    monkeypatch.setattr(pr, "window_first_t", None)
    with pytest.raises(CapExceeded) as err:
        dn.window_density(rational, S, 2, 4, crt_cap=255)
    assert err.value.estimate == ">= 2^8"


def test_exact_window_empty_rejected(rational):
    w = ()
    with pytest.raises(ValueError):
        dn.exact_window_density(rational, [origin(rational, 2)], 2, w)


def test_decimal_str():
    assert dn.decimal_str(Fraction(2, 3), 6, "down") == "0.666666"
    assert dn.decimal_str(Fraction(2, 3), 6, "up") == "0.666667"
    assert dn.decimal_str(Fraction(1), 4, "down") == "1.0000"
    assert dn.decimal_str(Fraction(0), 4, "up") == "0.0000"
