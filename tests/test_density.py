import math
from fractions import Fraction

import pytest

from visilat import density as dn
from visilat import ideals as il
from visilat import primes as pr
from visilat.errors import CapExceeded

from conftest import origin


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
    assert iv.lo == iv.hi == iv.mid == 0
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
        assert isinstance(iv.mid, Fraction) and iv.mid == (iv.lo + iv.hi) / 2


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
    assert dn.zeta_recip_truncated(rational, 2, 1) == 1
    z = dn.zeta_recip_truncated(rational, 2, 1000)
    assert abs(float(z) - float(inv_zeta2())) < 2e-3
    # cross-method consistency for Q(i)
    zi = dn.zeta_recip_truncated(gaussian, 2, 1000)
    iv = dn.predicted_density(gaussian, [origin(gaussian, 2)], 2, 1000)
    assert abs(float(zi) - float((iv.lo + iv.hi) / 2)) < 8e-3


def test_exact_window_examples(rational, gaussian):
    w = pr.window_first_t(rational, 2)
    ed = dn.exact_window_density(rational, [origin(rational, 2)], 2, w)
    assert ed.value == Fraction(2, 3)

    w25 = pr.PrimeWindow(t=0, primes=tuple(
        pr.split_prime(gaussian, 2) + pr.split_prime(gaussian, 5)))
    ed2 = dn.exact_window_density(gaussian, [origin(gaussian, 2)], 2, w25)
    assert ed2.value == Fraction(1728, 2500)

    S = [il.point(rational, [[a], [b]]) for a in (0, 1) for b in (0, 1)]
    w2 = pr.window_first_t(rational, 1)
    assert dn.exact_window_density(rational, S, 2, w2).value == 0


def test_exact_window_cap(rational):
    w = pr.window_first_t(rational, 3)
    with pytest.raises(CapExceeded) as err:
        dn.exact_window_density(rational, [origin(rational, 2)], 2, w,
                                crt_cap=10)
    assert err.value.estimate == 900


def test_exact_window_empty_rejected(rational):
    w = pr.PrimeWindow(t=0, primes=())
    with pytest.raises(ValueError):
        dn.exact_window_density(rational, [origin(rational, 2)], 2, w)


def test_decimal_str():
    assert dn.decimal_str(Fraction(2, 3), 6, "down") == "0.666666"
    assert dn.decimal_str(Fraction(2, 3), 6, "up") == "0.666667"
    assert dn.decimal_str(Fraction(1), 4, "down") == "1.0000"
    assert dn.decimal_str(Fraction(0), 4, "up") == "0.0000"
