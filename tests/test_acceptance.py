"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import random
import time
import warnings
from fractions import Fraction

from visilat import counting as ct
from visilat import density as dn
from visilat import ideals as il
from visilat import numfield as nf
from visilat import primes as pr

from conftest import origin
from oracles import zeta_recip_truncated


def report(k, ok, detail):
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def inv_zeta2():
    return Fraction(6) / Fraction(math.pi) ** 2


def catalan():
    # alternating series summed backwards; truncation error < 2.5e-11
    return sum((-1) ** k / (2 * k + 1) ** 2 for k in reversed(range(10 ** 5)))


def inv_zeta3():
    K = 10 ** 5
    tail = 0.5 / K ** 2  # zeta(3) tail sum lies in [1/(2(K+1)^2), 1/(2K^2)]
    return 1 / (sum(1.0 / k ** 3 for k in reversed(range(1, K + 1))) + tail)


def interval_distance(value, lo, hi):
    return max(0.0, float(lo) - value, value - float(hi))


def test_criterion_1_z2_density():
    field = nf.make_field("rational")
    S = [origin(field, 2)]
    t0 = time.monotonic()
    iv = dn.predicted_density(field, S, 2, 10 ** 4)
    res = ct.count_visible_sieve(field, S, 2, ct.cube_region(field, 1000))
    elapsed = time.monotonic() - t0
    density = float(res.density_estimate)
    diff = abs(density - float(inv_zeta2()))
    width = iv.hi - iv.lo
    ok = (diff < 0.005 and width < Fraction(1, 1000)
          and iv.lo <= inv_zeta2() <= iv.hi and elapsed < 60)
    assert report(1, ok,
                  f"sieve density {density:.6f}, |density - 6/pi^2| = {diff:.2e}, "
                  f"interval width {float(width):.2e}, {elapsed:.1f}s")


def test_criterion_2_z3_density():
    field = nf.make_field("rational")
    S = [origin(field, 3)]
    t0 = time.monotonic()
    iv = dn.predicted_density(field, S, 3, 10 ** 4)
    res = ct.count_visible_sieve(field, S, 3, ct.cube_region(field, 150))
    elapsed = time.monotonic() - t0
    density = float(res.density_estimate)
    dist = interval_distance(density, iv.lo, iv.hi)
    contains = float(iv.lo) <= inv_zeta3() <= float(iv.hi)
    ok = dist < 0.01 and contains and elapsed < 120
    assert report(2, ok,
                  f"cube L=150 density {density:.6f}, distance to interval "
                  f"{dist:.2e}, contains 1/zeta(3)={contains}, {elapsed:.1f}s")


def test_criterion_3_two_point_sets():
    field = nf.make_field("rational")
    S = [origin(field, 2), il.point(field, [[1], [1]])]
    iv = dn.predicted_density(field, S, 2, 10 ** 4)
    res = ct.count_visible_sieve(field, S, 2, ct.cube_region(field, 800))
    dist = interval_distance(float(res.density_estimate), iv.lo, iv.hi)

    S2 = [origin(field, 2), il.point(field, [[2], [2]])]
    s_ok = True
    for P in pr.primes_up_to_norm(field, 50):
        want = 1 if P.under_p == 2 else 2
        s_ok = s_ok and pr.s_of_prime(S2, P) == want
    ok = dist < 0.01 and s_ok
    assert report(3, ok,
                  f"admissible S: distance to prod(1-2/p^2) interval {dist:.2e}; "
                  f"s(2)=1, s(p>2)=2 verified={s_ok}")


def test_criterion_4_number_fields():
    G = catalan()
    truth = 1 / (float(Fraction(math.pi) ** 2 / 6) * G)
    details = []
    ok = True
    for d, external in ((-1, truth), (2, None)):
        field = nf.make_field("quadratic", d=d)
        S = [origin(field, 2)]
        t0 = time.monotonic()
        iv = dn.predicted_density(field, S, 2, 10 ** 4)
        worst = 0.0
        for region in (ct.ball_region(field, 60), ct.cube_region(field, 60)):
            res = ct.count_visible_sieve(field, S, 2, region)
            worst = max(worst, interval_distance(
                float(res.density_estimate), iv.lo, iv.hi))
        elapsed = time.monotonic() - t0
        ok = ok and worst < 0.015 and elapsed < 300
        if external is not None:
            contained = float(iv.lo) <= external <= float(iv.hi)
            ok = ok and contained
            details.append(f"Q(i): worst dist {worst:.2e}, contains "
                           f"1/(zeta(2)G)={contained}, {elapsed:.0f}s")
        else:
            details.append(f"Q(sqrt2): worst dist {worst:.2e}, {elapsed:.0f}s")
    assert report(4, ok, "; ".join(details))


def test_criterion_5_exact_oracle_identity():
    rng = random.Random(505)
    fields = [nf.make_field("rational"), nf.make_field("quadratic", d=-1),
              nf.make_field("quadratic", d=-3), nf.make_field("quadratic", d=2)]
    checked = 0
    for _ in range(20):
        field = rng.choice(fields)
        m = rng.choice([2, 3])
        S = [il.point(field, [[rng.randint(-5, 5) for _ in range(field.degree)]
                              for _ in range(m)])
             for _ in range(rng.randint(1, 4))]
        t = rng.randint(1, 3)
        while t > 1:
            window = pr.window_first_t(field, t)
            state = 1
            for P in window:
                state *= P.norm ** m
            if state <= 10 ** 6:
                break
            t -= 1
        window = pr.window_first_t(field, t)
        # exact_window_density raises if product and CRT enumeration differ
        ed = dn.exact_window_density(field, S, m, window, crt_cap=10 ** 6)
        prod = Fraction(1)
        for _, f in ed.per_prime_factors:
            prod *= f
        assert ed.value == prod
        checked += 1
    assert report(5, checked == 20,
                  f"{checked}/20 randomized window configs: product == CRT "
                  "enumeration exactly")


def test_criterion_6_sieve_equals_direct():
    rng = random.Random(606)
    agreements = 0
    for _ in range(30):
        d = rng.choice([-1, -2, -3, -7, -11, 2, 3, 5, 13])
        field = nf.make_field("quadratic", d=d)
        L = rng.randint(2, 8)
        S = [il.point(field, [[rng.randint(-5, 5), rng.randint(-5, 5)]
                              for _ in range(2)])
             for _ in range(rng.randint(1, 3))]
        region = ct.cube_region(field, L)
        a = ct.count_visible_direct(field, S, 2, region)
        b = ct.count_visible_sieve(field, S, 2, region)
        assert a.visible_count == b.visible_count, (d, L, S)
        agreements += 1
    assert report(6, agreements == 30,
                  f"{agreements}/30 randomized configs: sieve == direct exactly")


def test_criterion_7_counting_lemmas():
    field = nf.make_field("quadratic", d=-1)
    radii = list(range(20, 201, 20))
    details = []
    ok = True
    for shape, mk in (("ball", ct.ball_region), ("cube", ct.cube_region)):
        lo_half, hi_half, worst = 0.0, 0.0, 0.0
        for P in pr.primes_up_to_norm(field, 100):
            for R in radii:
                chk = ct.ideal_count_check(field, P, mk(field, R))
                worst = max(worst, chk.normalized_error)
                if R <= 100:
                    lo_half = max(lo_half, chk.normalized_error)
                else:
                    hi_half = max(hi_half, chk.normalized_error)
        # bounded, not decaying: any power-law growth would far exceed 10%
        # between the two halves of a doubled radius range
        grows = hi_half > 1.10 * lo_half
        ok = ok and not grows
        details.append(f"{shape}: max normalized error {worst:.3f} "
                       f"(R<=100 max {lo_half:.3f}, R>100 max {hi_half:.3f})")
    assert report(7, ok, "; ".join(details))


def test_criterion_8_zeta_cross_check():
    field = nf.make_field("rational")
    X = 1000
    z = zeta_recip_truncated(field, 2, X)
    iv = dn.predicted_density(field, [origin(field, 2)], 2, X)
    mid = (iv.lo + iv.hi) / 2
    # Moebius tail over Q: one ideal per norm, |tail| <= 1/((s-1) X^(s-1));
    # the interval's own tail allowance is its half-width
    bound = Fraction(1, X) + (iv.hi - iv.lo) / 2
    diff = abs(z - mid)
    ok = diff <= bound
    assert report(8, ok, f"|moebius sum - interval midpoint| = {float(diff):.2e}"
                         f" <= {float(bound):.2e}")


def test_criterion_9_basis_independence():
    field = nf.make_field("quadratic", d=-1)
    S = [origin(field, 2)]
    plain = ct.count_visible_sieve(field, S, 2, ct.cube_region(field, 60))
    sheared = ct.count_visible_sieve(
        field, S, 2,
        ct.cube_region(field, 60, basis_transform=[[1, 1], [0, 1]]))
    diff = abs(float(plain.density_estimate) - float(sheared.density_estimate))
    ok = diff < 0.02
    assert report(9, ok,
                  f"cube L=60 densities with/without unimodular shear differ "
                  f"by {diff:.2e}")
