import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from visilat import counting as ct
from visilat import density as dn
from visilat import ideals as il
from visilat import numfield as nf
from visilat import primes as pr
from visilat.errors import CapExceeded

from conftest import origin


def test_enumerate_examples(rational, gaussian):
    cube = ct.enumerate_region(ct.cube_region(rational, 2))
    assert [a.coords for a in cube] == [(-2,), (-1,), (0,), (1,), (2,)]
    assert len(ct.region_coords(ct.ball_region(gaussian, 1))) == 5
    assert len(ct.region_coords(ct.ball_region(gaussian, 2))) == 13


def test_ball_matches_grid_bruteforce(gaussian):
    got = set(map(tuple, ct.region_coords(ct.ball_region(gaussian, 5)).tolist()))
    want = {(a, b) for a in range(-5, 6) for b in range(-5, 6)
            if a * a + b * b <= 25}
    assert got == want


def test_enumerate_lexicographic(gaussian):
    coords = ct.region_coords(ct.cube_region(gaussian, 2)).tolist()
    assert coords == sorted(coords)


def brute_region(field, shape, size, T=None):
    # independent enumeration: the whole box in itertools.product order,
    # filtered to the ball, then mapped through the basis transform
    n = field.degree
    L = int(size)
    out = []
    for a in itertools.product(range(-L, L + 1), repeat=n):
        if shape == "ball" and sum(x * x for x in a) > Fraction(size) ** 2:
            continue
        if T is not None:
            a = tuple(sum(a[i] * T[i][j] for i in range(n)) for j in range(n))
        out.append(list(a))
    return out


@pytest.mark.parametrize("fname", ["rational", "gaussian", "cubic"])
@pytest.mark.parametrize("shape,size", [("cube", 1), ("cube", 3),
                                        ("ball", 1), ("ball", Fraction(5, 2)),
                                        ("ball", 4)])
def test_region_coords_matches_bruteforce(request, fname, shape, size):
    field = request.getfixturevalue(fname)
    make = ct.cube_region if shape == "cube" else ct.ball_region
    got = ct.region_coords(make(field, size))
    assert got.dtype == np.int64 and got.shape[1] == field.degree
    assert got.tolist() == brute_region(field, shape, size)


def test_region_coords_basis_transform(cubic):
    T = [[1, 2, -1], [0, 1, 3], [0, 0, 1]]
    for shape, make in (("cube", ct.cube_region), ("ball", ct.ball_region)):
        got = ct.region_coords(make(cubic, 3, basis_transform=T))
        assert got.tolist() == brute_region(cubic, shape, 3, T)


def test_region_coords_read_only(gaussian):
    region = ct.ball_region(gaussian, 3)
    coords = ct.region_coords(region)
    with pytest.raises(ValueError):
        coords[0, 0] = 7
    assert ct.region_coords(region) is coords  # the cached array


def test_transform_overflow_refused(gaussian):
    # a . T would wrap around in int64; every route refuses instead
    region = ct.cube_region(gaussian, 3, basis_transform=[[1, 2 ** 62],
                                                          [0, 1]])
    S = [origin(gaussian, 2)]
    with pytest.raises(CapExceeded):
        ct.region_coords(region)
    with pytest.raises(CapExceeded):
        ct.count_visible_direct(gaussian, S, 2, region)
    with pytest.raises(CapExceeded):
        ct.count_visible_sieve(gaussian, S, 2, region)
    with pytest.raises(CapExceeded):
        ct.mc_estimate(gaussian, S, 2, region, samples=200, seed=1)
    # one step less is exact: L * (2^60 + 1) < 2^63
    ok = ct.cube_region(gaussian, 3, basis_transform=[[1, 2 ** 60], [0, 1]])
    assert ct.region_coords(ok).tolist() == brute_region(
        gaussian, "cube", 3, [[1, 2 ** 60], [0, 1]])


def test_region_cap(gaussian):
    with pytest.raises(CapExceeded) as err:
        ct.region_coords(ct.cube_region(gaussian, 100), region_cap=100)
    assert err.value.estimate == 201 ** 2


def _ball_count(n, size):
    # integer points of the n-ball, by convolving squared lengths
    r2 = math.floor(Fraction(size) ** 2)
    ways = [1] + [0] * r2  # ways[k]: vectors so far of squared length k
    for _ in range(n):
        new = [0] * (r2 + 1)
        for k, w in enumerate(ways):
            for x in range(-math.isqrt(r2 - k), math.isqrt(r2 - k) + 1):
                new[k + x * x] += w
        ways = new
    return sum(ways)


def _x_n_minus_x_minus_1(n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return nf.make_field("monogenic", minpoly=[-1, -1] + [0] * (n - 2) + [1])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_ball_estimate_bounds_count(rational, gaussian, n):
    field = {1: rational, 2: gaussian}.get(n) or _x_n_minus_x_minus_1(n)
    sizes = [1, Fraction(5, 2), 4, 8] + ([20, Fraction(101, 3)] if n <= 3 else [])
    for size in sizes:
        region = ct.ball_region(field, size)
        count = _ball_count(n, size)
        if count < 10 ** 5:
            assert len(ct.region_coords(region)) == count
        with pytest.raises(CapExceeded) as err:
            ct.region_coords(region, region_cap=count - 1)
        assert err.value.estimate >= count


def test_degree6_ball_within_default_cap(monkeypatch):
    # x^6 - x - 1, R = 8: 1 395 261 points, a third of the default cap
    region = ct.ball_region(_x_n_minus_x_minus_1(6), 8)
    assert _ball_count(6, 8) == 1395261
    monkeypatch.setattr(ct, "_region_array", lambda r: "built")
    assert ct.region_coords(region) == "built"
    with pytest.raises(CapExceeded) as err:
        ct.region_coords(region, region_cap=1395260)
    assert err.value.estimate < 3.2e6


def test_region_validation(gaussian):
    with pytest.raises(ValueError):
        ct.cube_region(gaussian, 0)
    with pytest.raises(ValueError):
        ct.cube_region(gaussian, 5, basis_transform=[[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        ct.ball_region(gaussian, 5, basis_transform=[[1, 1]])


def test_direct_tiny(rational):
    res = ct.count_visible_direct(rational, [origin(rational, 2)], 2,
                                  ct.cube_region(rational, 1))
    assert (res.visible_count, res.total_tuples) == (8, 9)
    assert res.density_estimate == Fraction(8, 9)


def test_direct_vs_plain_gcd(rational):
    # independent oracle: integer gcd over the whole grid
    L = 2
    S = [origin(rational, 2)]
    res = ct.count_visible_direct(rational, S, 2, ct.cube_region(rational, L))
    grid = range(-L, L + 1)
    want = sum(1 for z1 in grid for z2 in grid if math.gcd(z1, z2) == 1)
    assert res.visible_count == want


def test_zero_difference_rule(rational):
    # points of S inside the region are never counted visible
    S = [il.point(rational, [[a], [b]]) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    res = ct.count_visible_direct(rational, S, 2, ct.cube_region(rational, 1))
    assert res.visible_count == 0


def test_sieve_equals_direct_examples(rational, gaussian):
    S = [origin(rational, 2)]
    r = ct.cube_region(rational, 1)
    assert ct.count_visible_sieve(rational, S, 2, r).visible_count == 8
    Sg = [origin(gaussian, 2)]
    rg = ct.cube_region(gaussian, 3)
    a = ct.count_visible_direct(gaussian, Sg, 2, rg)
    b = ct.count_visible_sieve(gaussian, Sg, 2, rg)
    assert a.visible_count == b.visible_count


def test_sieve_equals_direct_randomized():
    rng = random.Random(2024)
    for _ in range(6):
        d = rng.choice([-1, -2, -3, 2, 5])
        field = nf.make_field("quadratic", d=d)
        L = rng.randint(2, 4)
        S = [il.point(field, [[rng.randint(-4, 4), rng.randint(-4, 4)]
                              for _ in range(2)])
             for _ in range(rng.randint(1, 2))]
        region = ct.cube_region(field, L)
        a = ct.count_visible_direct(field, S, 2, region)
        b = ct.count_visible_sieve(field, S, 2, region)
        assert a.visible_count == b.visible_count


def test_sieve_equals_direct_m3(rational):
    S = [origin(rational, 3), il.point(rational, [[1], [2], [1]])]
    region = ct.cube_region(rational, 4)
    a = ct.count_visible_direct(rational, S, 3, region)
    b = ct.count_visible_sieve(rational, S, 3, region)
    assert a.visible_count == b.visible_count


def test_direct_and_mc_never_touch_primes(gaussian, monkeypatch):
    # the direct count and MC must not become a second sieve: they run with
    # prime enumeration and residue reduction disabled
    def boom(*args, **kwargs):
        raise AssertionError("prime machinery used")

    monkeypatch.setattr(pr, "primes_up_to_norm", boom)
    monkeypatch.setattr(pr, "reduce", boom)
    monkeypatch.setattr(pr, "residue_ids", boom)
    S = [origin(gaussian, 2), il.point(gaussian, [[1, 0], [2, 1]])]
    region = ct.cube_region(gaussian, 2)
    direct = ct.count_visible_direct(gaussian, S, 2, region)
    pts = ct.enumerate_region(region)
    want = sum(1 for a in pts for b in pts
               if all(il.ideal_from_generators([a - x, b - y]).norm == 1
                      for x, y in (s.points for s in S)))
    assert direct.visible_count == want
    mc = ct.mc_estimate(gaussian, S, 2, region, samples=500, seed=4)
    assert 0 < mc.visible_count < 500


def test_tuple_cap(rational):
    with pytest.raises(CapExceeded):
        ct.count_visible_direct(rational, [origin(rational, 2)], 2,
                                ct.cube_region(rational, 10), tuple_cap=100)


def test_region_negation_symmetry(gaussian):
    # counts are invariant under region negation with S -> -S; cubes and
    # balls are symmetric, so count(S) == count(-S)
    S = [il.point(gaussian, [[1, 0], [2, 1]])]
    negS = [il.point(gaussian, [[-1, 0], [-2, -1]])]
    region = ct.cube_region(gaussian, 3)
    a = ct.count_visible_sieve(gaussian, S, 2, region)
    b = ct.count_visible_sieve(gaussian, negS, 2, region)
    assert a.visible_count == b.visible_count


def test_mc_degenerate(rational):
    z = il.point(rational, [[0], [0]])
    res = ct.mc_estimate(rational, [z], 2, ct.ball_region(rational, Fraction(1, 2)),
                         samples=200, seed=1)
    assert res.visible_count == 0 and res.density_estimate == 0


def test_mc_deterministic(gaussian):
    S = [origin(gaussian, 2)]
    r = ct.cube_region(gaussian, 50)
    a = ct.mc_estimate(gaussian, S, 2, r, samples=500, seed=9)
    b = ct.mc_estimate(gaussian, S, 2, r, samples=500, seed=9)
    assert a.visible_count == b.visible_count


def test_mc_against_exact(rational):
    S = [origin(rational, 2)]
    region = ct.cube_region(rational, 20)
    exact = ct.count_visible_sieve(rational, S, 2, region)
    mc = ct.mc_estimate(rational, S, 2, region, samples=4000, seed=42)
    tol = 5 * mc.mc_stderr
    assert abs(float(mc.density_estimate) -
               float(exact.density_estimate)) <= tol


def test_mc_against_inv_zeta2(rational):
    mc = ct.mc_estimate(rational, [origin(rational, 2)], 2,
                        ct.cube_region(rational, 500), samples=20000, seed=42)
    assert abs(float(mc.density_estimate) - 6 / math.pi ** 2) <= 5 * mc.mc_stderr


def test_mc_ball_sampling(gaussian):
    res = ct.mc_estimate(gaussian, [origin(gaussian, 2)], 2,
                         ct.ball_region(gaussian, 30), samples=2000, seed=3)
    assert 0.5 < float(res.density_estimate) < 0.8


def test_mc_sample_floor(rational):
    with pytest.raises(ValueError):
        ct.mc_estimate(rational, [origin(rational, 2)], 2,
                       ct.cube_region(rational, 5), samples=50, seed=0)


def test_ideal_count_check_examples(rational, gaussian):
    O = il.unit_ideal(gaussian)
    chk = ct.ideal_count_check(gaussian, O, ct.cube_region(gaussian, 5))
    assert chk.count == 11 ** 2
    assert chk.error == 11 ** 2 - 10 ** 2

    two = il.ideal_from_generators([rational.element([2])])
    chk2 = ct.ideal_count_check(rational, two, ct.cube_region(rational, 10))
    assert chk2.count == 11 and chk2.main_term == 10 and chk2.error == 1

    onepi = il.ideal_from_generators([gaussian.element((1, 1))])
    ball = ct.ball_region(gaussian, 5)
    brute = sum(1 for c in ct.region_coords(ball).tolist()
                if il.contains(onepi, gaussian.element(c)))
    chk3 = ct.ideal_count_check(gaussian, onepi, ball)
    assert chk3.count == brute
    assert chk3.normalized_error <= 4.0

    with pytest.raises(ValueError):
        ct.ideal_count_check(gaussian, il.ideal_from_generators(
            [gaussian.zero()]), ball)


def test_member_count_matches_contains(gaussian):
    rng = random.Random(77)
    coords = ct.region_coords(ct.ball_region(gaussian, 6))
    for _ in range(5):
        g = gaussian.element((rng.randint(1, 5), rng.randint(-4, 4)))
        I = il.ideal_from_generators([g])
        fast = ct._count_members(I, coords)
        slow = sum(1 for c in coords.tolist()
                   if il.contains(I, gaussian.element(c)))
        assert fast == slow

    # coordinates near 2^61: H 2^n (A+1) >= 2^63, so the solve must run on
    # Python integers (the spy sees the object copy); int64 would wrap
    dtypes = []

    class Spy(np.ndarray):
        def astype(self, dtype, *args, **kwargs):
            dtypes.append(np.dtype(dtype))
            return super().astype(dtype, *args, **kwargs)

    for _ in range(5):
        g = gaussian.element((rng.randint(2, 5), rng.randint(-4, 4)))
        I = il.ideal_from_generators([g])
        rows = []
        for _ in range(60):
            x = gaussian.element((rng.randint(2 ** 58, 2 ** 59),
                                  -rng.randint(2 ** 58, 2 ** 59)))
            d = rng.choice([(0, 0), (1, 0), (0, 1)])
            rows.append([c + e for c, e in zip((g * x).coords, d)])
        big = np.array(rows, dtype=np.int64).view(Spy)
        assert int(np.abs(big).max()) > 2 ** 60
        dtypes.clear()
        fast = ct._count_members(I, big)
        assert dtypes == [np.dtype(object)]
        slow = sum(1 for c in rows if il.contains(I, gaussian.element(c)))
        assert fast == slow and 0 < slow < len(rows)


def test_basis_transform_counts(gaussian):
    # same cube over a sheared basis: counts differ, densities stay close
    S = [origin(gaussian, 2)]
    base = ct.count_visible_sieve(gaussian, S, 2, ct.cube_region(gaussian, 15))
    sheared = ct.count_visible_sieve(
        gaussian, S, 2, ct.cube_region(gaussian, 15,
                                       basis_transform=[[1, 1], [0, 1]]))
    assert base.total_tuples == sheared.total_tuples
    assert abs(float(base.density_estimate) -
               float(sheared.density_estimate)) < 0.05


def test_convergence_trend(gaussian):
    S = [origin(gaussian, 2)]
    iv = dn.predicted_density(gaussian, S, 2, 2000)
    mid = float((iv.lo + iv.hi) / 2)
    errs = []
    for L in (10, 20, 40):
        res = ct.count_visible_sieve(gaussian, S, 2, ct.cube_region(gaussian, L))
        errs.append(abs(float(res.density_estimate) - mid))
    assert errs[-1] <= errs[0] + 0.01
    assert errs[-1] < 0.02


def test_volume():
    Qi = nf.make_field("quadratic", d=-1)
    assert ct.cube_region(Qi, 3).volume() == 36
    ball = ct.ball_region(Qi, 2)
    assert abs(float(ball.volume()) - math.pi * 4) < 1e-12
