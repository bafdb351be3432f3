import itertools
import math
import random
import time
import tracemalloc
import warnings
import weakref
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
from oracles import contains, ideal_count, mc_points_reference, prime_hnf, residue_ids, sub
from test_ideals import KERNEL_FIELDS


def test_enumerate_examples(rational, gaussian):
    cube = ct.region_coords(ct.cube_region(rational, 2)).tolist()
    assert [tuple(c) for c in cube] == [
        (-2,), (-1,), (0,), (1,), (2,)]
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


def test_region_coords_fresh_array(gaussian):
    # each call builds its own rows: a write to one result reaches no other
    region = ct.ball_region(gaussian, 3)
    coords = ct.region_coords(region)
    coords[0, 0] = 7
    assert ct.region_coords(region).tolist() == brute_region(gaussian, "ball", 3)


def test_region_coords_kept_by_no_cache(gaussian):
    # the rows live as long as their caller holds them
    coords = weakref.ref(ct.region_coords(ct.cube_region(gaussian, 3)))
    assert coords() is None


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


def test_degree6_ball_within_default_cap():
    # x^6 - x - 1, R = 8: 1 395 261 points, a third of the default cap
    region = ct.ball_region(_x_n_minus_x_minus_1(6), 8)
    assert _ball_count(6, 8) == 1395261
    ct._check_cap(region, ct.DEFAULT_REGION_CAP)  # region_coords's check, no rows built
    with pytest.raises(CapExceeded) as err:
        ct.region_coords(region, region_cap=1395260)
    assert err.value.estimate < 3.2e6


@pytest.mark.parametrize("n, R", [(3, 30), (4, 12)])
def test_ball_build_memory(n, R):
    # building a ball allocates little beyond the result itself
    region = ct.ball_region(_x_n_minus_x_minus_1(n), R)
    tracemalloc.start()
    try:
        coords = ct.region_coords(region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(coords) == _ball_count(n, R)
    assert peak <= 3 * coords.nbytes


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


# the direct count against the kernel: ``il.visible_mask`` over the full tuple
# array of a tiny region, W^m at most ~20 000 tuples, on the kernel's fields;
# (degree, m) -> (cube L or None, ball R)
TINY = {(1, 2): (30, 30), (1, 3): (10, 10), (2, 2): (4, 5), (2, 3): (2, 2),
        (3, 2): (2, 2), (3, 3): (1, 1), (4, 2): (1, 1), (4, 3): (None, 1)}


def _kernel_count(field, S, m, region):
    coords = ct.region_coords(region)
    W = len(coords)
    tuples = coords[np.stack(np.unravel_index(np.arange(W ** m), (W,) * m), axis=1)]
    return int(il.visible_mask(field, tuples, il.point_set(field, S, m)).sum())


def _direct_spied(field, S, m, region, monkeypatch):
    """The direct count, and the starting gcds it gave ``il.rows_index``
    for mixed minors (m blocks of rows)."""
    starts, kernel = [], il.rows_index

    def spy(rows, rsets, g):
        if len(rows) == m * field.degree:
            starts.append(g.copy())
        return kernel(rows, rsets, g)

    monkeypatch.setattr(il, "rows_index", spy)
    res = ct.count_visible_direct(field, S, m, region)
    monkeypatch.undo()
    return res.visible_count, np.concatenate(starts) if starts else np.zeros(0)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kind,kw", KERNEL_FIELDS)
def test_direct_matches_kernel(kind, kw, m, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = nf.make_field(kind, **kw)
    n = field.degree
    L, R = TINY[n, m]
    # a unimodular shear of the basis: e_i -> e_i + e_(i+1)
    T = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    rng = random.Random(f"{kind}{kw}{m}")
    # the origin, a point with a repeated coordinate, and a random one
    S = [origin(field, m), il.point(field, [[1] + [0] * (n - 1)] * m),
         il.point(field, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)])]
    regions = [ct.ball_region(field, R), ct.ball_region(field, R, basis_transform=T)]
    if L is not None:
        regions += [ct.cube_region(field, L), ct.cube_region(field, L, basis_transform=T)]
    for region in regions:
        got, starts = _direct_spied(field, S, m, region, monkeypatch)
        assert got == _kernel_count(field, S, m, region)
        # only lanes whose norms share a factor reach the mixed minors
        assert len(starts) and (starts != 1).all()


def test_direct_object_path_near_2_40(gaussian, monkeypatch):
    # S near 2^40: every minor bound passes int64, so the rows are Python ints,
    # and the sieve refuses the prime bound B (~2^81) that the count does not need
    big = 2 ** 40
    S = [il.point(gaussian, [[big, 0], [0, big]]), il.point(gaussian, [[big + 1, 1], [2, -big]]),
         origin(gaussian, 2)]
    region = ct.cube_region(gaussian, 2)
    dtypes, rows_of = [], il.ideal_rows
    monkeypatch.setattr(il, "ideal_rows", lambda *a: dtypes.append(rows_of(*a).dtype)
                        or rows_of(*a))
    res = ct.count_visible_direct(gaussian, S, 2, region)
    assert dtypes == [np.dtype(object)]
    monkeypatch.undo()
    assert res.visible_count == _kernel_count(gaussian, S, 2, region)
    with pytest.raises(CapExceeded):
        ct.count_visible_sieve(gaussian, S, 2, region)


class _GcdTables:
    """numpy as ``counting`` sees it, keeping the bytes of each np.gcd.outer."""

    def __init__(self):
        self.gcd, self.tables = self, []

    def __getattr__(self, name):
        return getattr(np, name)

    def __call__(self, *args):
        return np.gcd(*args)

    def outer(self, a, b):
        out = np.gcd.outer(a, b)
        self.tables.append(out.nbytes)
        return out


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("prefixes", [1, 3, 40])
def test_direct_blocks_keep_tables_under_block_bytes(sqrt_m7, monkeypatch, m, prefixes):
    # BLOCK_BYTES patched to hold `prefixes` prefixes of W lanes a block: the
    # count is the kernel's, and each gcd table stays under BLOCK_BYTES
    S = [origin(sqrt_m7, m), il.point(sqrt_m7, [[1, 0]] + [[0, 1]] * (m - 1)),
         il.point(sqrt_m7, [[2, -1]] * m)]
    region = ct.cube_region(sqrt_m7, 3 if m == 2 else 1)
    W = len(ct.region_coords(region))
    block = 8 * m * 2 * 2 * W * prefixes
    spy = _GcdTables()
    monkeypatch.setattr(ct, "BLOCK_BYTES", block)
    monkeypatch.setattr(ct, "np", spy)
    got = ct.count_visible_direct(sqrt_m7, S, m, region).visible_count
    monkeypatch.undo()
    assert got == _kernel_count(sqrt_m7, S, m, region)
    blocks = -(-W ** (m - 1) // prefixes)
    assert len(spy.tables) == len(S) * blocks and max(spy.tables) <= block


def test_direct_counts_z_equal_s_invisible(rational, gaussian):
    # z = s: every difference is 0, the zero ideal; the only tuple of a
    # one-point region is not visible from itself
    assert ct.count_visible_direct(rational, [origin(rational, 2)], 2,
                                   ct.ball_region(rational, Fraction(1, 2))).visible_count == 0
    s = il.point(gaussian, [[1, 0], [0, 1]])
    region = ct.cube_region(gaussian, 1)
    want = _kernel_count(gaussian, [s], 2, region)
    assert ct.count_visible_direct(gaussian, [s], 2, region).visible_count == want
    # s is one of the 81 tuples; every other tuple with a unit difference sees s
    pts = ct.region_coords(region).tolist()
    assert want == sum(1 for a in pts for b in pts
                       if il.ideal_from_generators(gaussian, [sub(a, s[0]), sub(b, s[1])]).norm == 1)
    assert want < 81


def test_sieve_equals_direct_examples(rational, gaussian):
    S = [origin(rational, 2)]
    r = ct.cube_region(rational, 1)
    assert ct.count_visible_sieve(rational, S, 2, r).visible_count == 8
    Sg = [origin(gaussian, 2)]
    rg = ct.cube_region(gaussian, 3)
    a = ct.count_visible_direct(gaussian, Sg, 2, rg)
    b = ct.count_visible_sieve(gaussian, Sg, 2, rg)
    assert a.visible_count == b.visible_count


def test_sieve_equals_direct_m3(rational):
    S = [origin(rational, 3), il.point(rational, [[1], [2], [1]])]
    region = ct.cube_region(rational, 4)
    a = ct.count_visible_direct(rational, S, 3, region)
    b = ct.count_visible_sieve(rational, S, 3, region)
    assert a.visible_count == b.visible_count


@pytest.mark.parametrize("fname, m, L", [("gaussian", 3, 2), ("cubic", 3, 1),
                                          ("cubic", 2, 2)])
def test_sieve_equals_direct_beyond_q(request, fname, m, L):
    field = request.getfixturevalue(fname)
    n = field.degree
    S = [origin(field, m),
         il.point(field, [[(i + j) % 3 - 1 for j in range(n)] for i in range(m)])]
    for region in (ct.cube_region(field, L), ct.ball_region(field, L)):
        a = ct.count_visible_direct(field, S, m, region)
        b = ct.count_visible_sieve(field, S, m, region)
        assert a.visible_count == b.visible_count


def test_sieve_equals_direct_degree4_ball():
    # x^4 - x - 1, ball R=2: 89 rows, fewer than the 125 points of the box of
    # prefixes (u_1, u_2, u_3), so the region's runs alone locate the rows
    field = _x_n_minus_x_minus_1(4)
    S = [origin(field, 2), il.point(field, [[1, 0, 0, 0], [0, 1, 0, 0]])]
    region = ct.ball_region(field, 2)
    a = ct.count_visible_direct(field, S, 2, region)
    b = ct.count_visible_sieve(field, S, 2, region)
    assert a.total_tuples == 89 ** 2
    assert a.visible_count == b.visible_count == 7302


def test_sieve_marks_points_of_s(rational):
    # on Q, cube L=1, S = {origin}: B = 1, so no prime is sieved and the
    # origin's cell is marked only as a point of S
    region = ct.cube_region(rational, 1)
    for m in (2, 3):
        S = [origin(rational, m)]
        res = ct.count_visible_sieve(rational, S, m, region)
        assert res.prime_norm_bound == 1
        assert res.visible_count == 3 ** m - 1
        assert ct.count_visible_direct(rational, S, m, region).visible_count == 3 ** m - 1
    # every cell a point of S (primes sieved too): nothing is visible
    S = [il.point(rational, [[a], [b]]) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    assert ct.count_visible_sieve(rational, S, 2, region).visible_count == 0


def test_sieve_memory(gaussian):
    # the sieve streams over the first coordinate: no W^m array is held
    region = ct.cube_region(gaussian, 30)
    S = [origin(gaussian, 2), il.point(gaussian, [[1, 2], [-1, 0]])]
    W = len(ct.region_coords(region))
    ct.count_visible_sieve(gaussian, S, 2, region)  # fills the split cache
    tracemalloc.start()
    try:
        res = ct.count_visible_sieve(gaussian, S, 2, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.total_tuples == W ** 2
    assert peak <= W ** 2 / 8


def test_sieve_memory_m3(gaussian):
    # the prefixes (z_1, z_2) are indexed one block of z_1 rows at a time:
    # no array grows with W^2 or with the number of prefixes
    region = ct.cube_region(gaussian, 12)
    S = [origin(gaussian, 3), il.point(gaussian, [[1, 2], [-1, 0], [2, 1]])]
    ct.count_visible_sieve(gaussian, S, 3, region)  # fills the split cache
    tracemalloc.start()
    try:
        res = ct.count_visible_sieve(gaussian, S, 3, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.total_tuples == 625 ** 3
    assert peak <= 4 * 2 ** 20


def test_sieve_memory_cube60(gaussian):
    # W = 14 641, 229 words a set: a block's accumulator and OR layer stay
    # within BLOCK_BYTES, so the peak is the sets of the pairs of norm <= 511,
    # the row lists of the others and the index
    region = ct.cube_region(gaussian, 60)
    S = [origin(gaussian, 2), il.point(gaussian, [[1, 2], [-1, 0]])]
    ct.count_visible_sieve(gaussian, S, 2, region)  # fills the split cache
    tracemalloc.start()
    try:
        res = ct.count_visible_sieve(gaussian, S, 2, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.total_tuples == 121 ** 4
    assert peak <= 2.5 * 2 ** 20


BITSET_BLOCKS = pytest.mark.parametrize("block", [None, 4096, 64])
BITSET_CASES = pytest.mark.parametrize("fname, m, L", [
    ("rational", 2, 31), ("rational", 2, 32),  # W = 63, 65: a part-filled word
    ("gaussian", 3, 2), ("cubic", 3, 1), ("rational", 4, 4)])
# DENSE_WORDS patched so that every pair keeps its last selection as a row
# list, or every pair as a W-bit set
SWITCH = pytest.mark.parametrize("dense_words", [0, 2 ** 62], ids=["all-sparse", "all-dense"])


def _sieve_equals_direct_on_cube(field, monkeypatch, block, m, L):
    # a small BLOCK_BYTES cuts the rows into many blocks (one row each at 64);
    # S has points inside the region and one outside it
    if block:
        monkeypatch.setattr(ct, "BLOCK_BYTES", block)
    n = field.degree
    S = [origin(field, m),
         il.point(field, [[(i + j) % 3 - 1 for j in range(n)] for i in range(m)]),
         il.point(field, [[L + 1 + i] + [1] * (n - 1) for i in range(m)])]
    region = ct.cube_region(field, L)
    a = ct.count_visible_direct(field, S, m, region)
    b = ct.count_visible_sieve(field, S, m, region)
    assert a.visible_count == b.visible_count


@BITSET_BLOCKS
@BITSET_CASES
def test_sieve_bitsets_equal_direct(request, monkeypatch, block, fname, m, L):
    _sieve_equals_direct_on_cube(request.getfixturevalue(fname), monkeypatch, block, m, L)


@SWITCH
@BITSET_BLOCKS
@BITSET_CASES
def test_sieve_row_lists_and_bitsets_equal_direct(request, monkeypatch, dense_words,
                                                  block, fname, m, L):
    monkeypatch.setattr(ct, "DENSE_WORDS", dense_words)
    _sieve_equals_direct_on_cube(request.getfixturevalue(fname), monkeypatch, block, m, L)


@pytest.mark.parametrize("dense_words", [None, 0, 2 ** 62],
                         ids=["default", "all-sparse", "all-dense"])
def test_sieve_Qi_L20_across_the_switch(gaussian, monkeypatch, dense_words):
    # W = 1 681 rows, 27 words a set, B = 800: at the default switch the
    # primes of norm <= 8 W / 27 (~498) keep W-bit sets and the others row
    # lists; 1 881 688 is the direct count (the gate in test_gates)
    if dense_words is not None:
        monkeypatch.setattr(ct, "DENSE_WORDS", dense_words)
    res = ct.count_visible_sieve(gaussian, [origin(gaussian, 2)], 2, ct.cube_region(gaussian, 20))
    assert (res.visible_count, res.prime_norm_bound) == (1881688, 800)
    dense = {P.norm * 27 <= ct.DENSE_WORDS * 1681
             for P in pr.primes_up_to_norm(gaussian, res.prime_norm_bound)}
    assert dense == ({True, False} if dense_words is None else {dense_words > 0})


# (field, m, b, basis transform): on Q, a run of 2b + 1 rows meets a class
# mod 5 = 2b + 1 once or twice and mod 7 = 2b + 3 at most once; in Z[i], 5 =
# 2b + 1 and 13 = 2b + 3 split; the transform has rho'_2 = 4 + 13 = 0 mod
# (17, theta - 13); m = 3; and degree 3
COSET_CASES = [("rational", 2, 2, None), ("gaussian", 2, 2, None),
               ("gaussian", 2, 5, None), ("gaussian", 3, 2, None),
               ("gaussian", 2, 3, [[5, 1], [4, 1]]), ("cubic", 3, 1, None)]


@pytest.mark.parametrize("block", [None, 64])
@pytest.mark.parametrize("fname, m, b, T", COSET_CASES)
def test_sieve_coset_boundary_equals_direct(request, monkeypatch, block, fname,
                                            m, b, T):
    # S's second point is b + 3 from the origin along the first coordinate,
    # so 2b + 1 and 2b + 3 divide difference norms; a BLOCK_BYTES of 64 puts
    # one prime in each chunk of _selections
    if block:
        monkeypatch.setattr(ct, "BLOCK_BYTES", block)
    field = request.getfixturevalue(fname)
    n = field.degree
    S = [origin(field, m),
         il.point(field, [[b + 3] + [0] * (n - 1)] * (m - 1) + [[1] * n])]
    for region in (ct.cube_region(field, b, T), ct.ball_region(field, b, T)):
        a = ct.count_visible_direct(field, S, m, region)
        c = ct.count_visible_sieve(field, S, m, region)
        assert a.visible_count == c.visible_count, region.label()


def test_sieve_equals_direct_randomized(monkeypatch):
    # seeded random configs, sieve == direct exactly: degrees 1 to 4, m = 2
    # and 3, cubes and balls, unimodular transforms, and S near the region,
    # so that primes with p <= 2b + 1 and with f >= 2 are among those sieved;
    # all 90 trials within 20 s
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fields = [nf.make_field("rational"), _x_n_minus_x_minus_1(3),
                  _x_n_minus_x_minus_1(4)] + [
            nf.make_field("quadratic", d=d) for d in (-1, -2, -3, -5, 2, 5)]
    sieved, real = [], ct._selections
    monkeypatch.setattr(ct, "_selections", lambda region, plist, S: sieved.extend(
        (region.L, P) for P in plist) or real(region, plist, S))
    rng = random.Random(1515)
    for trial in range(90):
        field = fields[trial % len(fields)]
        n = field.degree
        T = None
        if rng.random() < 0.5:
            # lower times upper unitriangular: unimodular
            lo, up = ([[int(i == j) or (rng.randint(-2, 2) if (j < i) == low else 0)
                        for j in range(n)] for i in range(n)] for low in (True, False))
            T = [[sum(lo[i][k] * up[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
        b = rng.randint(1, {1: 10, 2: 2}.get(n, 1))
        region = (ct.cube_region(field, b, T) if rng.random() < 0.5 else
                  ct.ball_region(field, Fraction(rng.randint(2 * b, 2 * b + 1), 2), T))
        W = len(ct.region_coords(region))
        m = 3 if W ** 3 <= 20000 and rng.random() < 0.5 else 2
        S = [il.point(field, [[rng.randint(-b - 2, b + 2) for _ in range(n)]
                              for _ in range(m)]) for _ in range(rng.randint(1, 3))]
        a = ct.count_visible_direct(field, S, m, region)
        c = ct.count_visible_sieve(field, S, m, region)
        assert a.visible_count == c.visible_count, (trial, region.label(), m, S)
    assert any(P.f >= 2 for _, P in sieved)
    assert any(P.under_p <= 2 * b + 1 for b, P in sieved)
    assert time.perf_counter() - start <= 20


@pytest.fixture
def sieve_spy(monkeypatch):
    """Per sieve call: the accumulator shape of each block, through
    np.bitwise_count, and the pairs whose first selection holds each row."""
    spy = {"acc": [], "first": []}
    count, select = np.bitwise_count, ct._selections
    monkeypatch.setattr(np, "bitwise_count", lambda a: spy["acc"].append(a.shape) or count(a))

    def selections(region, plist, S):
        for g, row in select(region, plist, S):
            spy["first"].append(row[g % spy["m"] == 0])
            yield g, row
    monkeypatch.setattr(ct, "_selections", selections)

    def sieve(field, S, m, region):
        spy.update(acc=[], first=[], m=m)
        res = ct.count_visible_sieve(field, S, m, region)
        W = len(ct.region_coords(region))
        assert res.visible_count == ct.count_visible_direct(field, S, m, region).visible_count
        return np.bincount(np.concatenate(spy["first"]), minlength=W), spy["acc"]
    return sieve


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("fname, L", [("rational", 6), ("gaussian", 2)])
def test_sieve_block_with_uncaught_rows(request, sieve_spy, fname, m, L):
    # S = {origin}: a row z_1 that is a unit lies in no class of 0, so no pair
    # catches it; every row is in one block, which has no prefix for those
    field = request.getfixturevalue(fname)
    pairs, acc = sieve_spy(field, [origin(field, m)], m, ct.cube_region(field, L))
    assert len(acc) == 1 and 0 in pairs[1:-1]
    if m == 2:
        assert acc[0][0] == np.count_nonzero(pairs) < len(pairs)


def test_sieve_block_of_unequal_prefixes(gaussian, sieve_spy):
    # the first coordinates of S are 0 mod 10, so row 0 is caught by a pair
    # for every prime above 2 and 5 and every point of S, and by every prime
    # dividing a first coordinate; one block ORs 5 to 123 sets into its rows
    S = [il.point(gaussian, [[10 * a, 10 * b], [a - b, a + 2 * b]])
         for a, b in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (-1, 2)]]
    region = ct.cube_region(gaussian, 4)
    pairs, acc = sieve_spy(gaussian, S, 2, region)
    caught = pairs[pairs > 0]
    assert len(acc) == 1 and pairs[40] == caught.max() > 10 * caught.min()


@pytest.mark.parametrize("fname, L", [("rational", 6), ("gaussian", 2)])
def test_sieve_m3_row_past_cap(request, monkeypatch, sieve_spy, fname, L):
    # cap = 256 // (32 nw) = 8 prefixes: row 0, caught by every prime with
    # the origin, has more prefixes (0, z_2) than that and is a block alone
    monkeypatch.setattr(ct, "BLOCK_BYTES", 256)
    field = request.getfixturevalue(fname)
    n = field.degree
    S = [origin(field, 3), il.point(field, [[1] + [0] * (n - 1), [2] * n, [0] * n])]
    region = ct.cube_region(field, L)
    assert len(ct.region_coords(region)) <= 64
    _, acc = sieve_spy(field, S, 3, region)
    assert len(acc) > 1 and max(a for a, _ in acc) > 8


@pytest.mark.parametrize("fname, L", [("rational", 40), ("gaussian", 4),
                                      ("sqrt_m7", 5)])
def test_sieve_one_prefix_per_block(request, monkeypatch, sieve_spy, fname, L):
    # BLOCK_BYTES = 64 and W > 64, two words a set: cap = 1, so for m = 2
    # every caught row is the one prefix of its own block
    monkeypatch.setattr(ct, "BLOCK_BYTES", 64)
    field = request.getfixturevalue(fname)
    n = field.degree
    S = [origin(field, 2), il.point(field, [[2] + [1] * (n - 1), [1] * n]),
         il.point(field, [[L + 1] * n, [3] + [0] * (n - 1)])]
    region = ct.cube_region(field, L)
    assert 64 < len(ct.region_coords(region)) <= 128
    pairs, acc = sieve_spy(field, S, 2, region)
    assert max(a for a, _ in acc) == 1
    assert sum(a for a, _ in acc) == np.count_nonzero(pairs)


def _last_basis_residue(region, P):
    """rho'_n: the residue mod P of the region's last basis row."""
    n = region.field.degree
    return pr.residues([P], ct._transform(region, np.eye(n, dtype=np.int64))[-1:])[1][0, 0]


@pytest.mark.parametrize("block", [None, 64])
def test_class_rows_equal_residue_scan(gaussian, cubic, monkeypatch, block):
    # for every prime of norm <= 200 and every point of S, the rows of its
    # selection are the rows a scan of oracles.residue_ids finds: p <= 2b + 1
    # (at b = 1 the ramified prime above 2 has two rows per run and class), f
    # = 2 and 3, v = rho'_n = 0 mod P (under [[5, 1], [4, 1]] at (17, theta -
    # 13), and under T0 at a prime above 5), a coordinate of S past 2^63, and
    # the degree-4 ball, which has fewer rows (89) than its box of prefixes
    # (125)
    if block:
        monkeypatch.setattr(ct, "BLOCK_BYTES", block)
    five = pr.split_prime(gaussian, 5)[0]
    T0 = [[1, 0], [-pr.reduction_rows(five)[1][0], 1]]
    v_zero, degrees = set(), set()
    for region in [ct.cube_region(gaussian, 1), ct.cube_region(gaussian, 4),
                   ct.ball_region(gaussian, 5),
                   ct.cube_region(gaussian, 3, [[5, 1], [4, 1]]),
                   ct.ball_region(gaussian, 4, T0), ct.ball_region(cubic, 3),
                   ct.ball_region(_x_n_minus_x_minus_1(4), 2)]:
        n = region.field.degree
        coords = ct.region_coords(region)
        S = np.array([[0] * n, [1] + [0] * (n - 1), [7] + [0] * (n - 1),
                      [-1] * n, [2, -3, 5, 1][:n], [10 ** 20 + 3] + [1] * (n - 1)],
                     dtype=object)
        plist = pr.primes_up_to_norm(region.field, 200)
        g, rows = (np.concatenate(x) for x in zip(*ct._selections(region, plist, S)))
        want = 0
        for i, P in enumerate(plist):
            ids = residue_ids(P, coords)
            for k, t in enumerate(residue_ids(P, S).tolist()):
                assert sorted(rows[g == len(S) * i + k]) == np.flatnonzero(ids == t).tolist(), (P, k)
                want += int((ids == t).sum())
            if not _last_basis_residue(region, P).any():
                v_zero.add((region, P))
        assert len(g) == want
        degrees |= {P.f for P in plist}
    assert degrees == {1, 2, 3, 4}
    assert {(P.under_p, r.basis_transform) for r, P in v_zero} >= {
        (17, ((5, 1), (4, 1))), (5, tuple(map(tuple, T0)))}


def test_sieve_enumerates_a_sheared_cube_once(gaussian, monkeypatch):
    # the rows and the closed form's runs come from the region's one run
    # table, so a transformed region's runs are built once and its rows once
    # a count: at n = 2 the table is one _run_rows call on width-0 prefixes,
    # the rows one on the table's width-1 prefixes
    region = ct.cube_region(gaussian, 4, [[1, 1], [0, 1]])
    widths, run_rows = [], ct._run_rows
    monkeypatch.setattr(ct, "_run_rows", lambda pre, h: widths.append(pre.shape[1])
                        or run_rows(pre, h))
    res = ct.count_visible_sieve(gaussian, [origin(gaussian, 2)], 2, region)
    assert widths == [0, 1]
    assert res.visible_count == ct.count_visible_direct(
        gaussian, [origin(gaussian, 2)], 2, region).visible_count
    assert widths == [0, 1, 1]


@SWITCH
def test_sieve_sheared_cube_row_lists_and_bitsets(gaussian, monkeypatch, dense_words):
    monkeypatch.setattr(ct, "DENSE_WORDS", dense_words)
    region = ct.cube_region(gaussian, 4, [[1, 1], [0, 1]])
    S = [origin(gaussian, 2), il.point(gaussian, [[1, 2], [-1, 0]])]
    assert (ct.count_visible_sieve(gaussian, S, 2, region).visible_count
            == ct.count_visible_direct(gaussian, S, 2, region).visible_count)


def test_class_rows_memory(gaussian):
    # every prime of norm <= 4000, the small ones with many rows per run
    # included, goes in chunks whose temporaries stay under BLOCK_BYTES
    region = ct.cube_region(gaussian, 30)
    plist = pr.primes_up_to_norm(gaussian, 4000)
    S = np.array([[0, 0], [1, 0], [2, 0], [3, 0]], dtype=object)
    list(ct._selections(region, plist, S))  # fills the region and residue caches
    tracemalloc.start()
    try:
        rows = sum(len(g) for g, _ in ct._selections(region, plist, S))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows > 4 * 61 ** 2 and peak < ct.BLOCK_BYTES


def _prime_factors(v):
    out, p = set(), 2
    while p * p <= v:
        while v % p == 0:
            out.add(p)
            v //= p
        p += 1
    return out | ({v} if v > 1 else set())


def test_sieve_far_point_splits_only_divisors(gaussian, monkeypatch):
    # S far from a 25-point cube: B = 4 008 008, but only the rational primes
    # that divide a difference norm are split, and the count takes < 1 s
    region = ct.cube_region(gaussian, 2)
    S = [il.point(gaussian, [[2000, 0], [2000, 0]])]
    split = []
    monkeypatch.setattr(pr, "split_primes",
                        lambda f, ps, real=pr.split_primes: split.extend(ps) or real(f, ps))
    t0 = time.perf_counter()
    res = ct.count_visible_sieve(gaussian, S, 2, region)
    assert time.perf_counter() - t0 < 1
    assert res.prime_norm_bound == 4008008
    assert res.visible_count == ct.count_visible_direct(gaussian, S, 2, region).visible_count
    norms = {(x - 2000) ** 2 + y ** 2 for x in range(-2, 3) for y in range(-2, 3)}
    assert sorted(split) == sorted(set().union(*map(_prime_factors, norms)))
    assert ct._prime_divisors(np.array([0, 1, 12, 49, 2 * 97])) == [2, 3, 7, 97]


@pytest.mark.parametrize("block_bytes", [64, ct.BLOCK_BYTES])
def test_prime_divisors_match_brute_factorization(monkeypatch, block_bytes):
    # one prime per block, and every prime in one block: 0, 1, a square, a
    # prime cofactor above sqrt(max), repeats and values divided many times
    rng = random.Random(41)
    vals = [0, 1, 97 ** 2, 2 ** 10 * 3 ** 5 * 5 ** 3, 7 ** 4 * 11 ** 2,
            1000003, 2 * 1000003, 3 ** 14]
    vals += [rng.randrange(2, 10 ** 7) for _ in range(200)]
    vals += vals[::7]
    monkeypatch.setattr(ct, "BLOCK_BYTES", block_bytes)
    got = ct._prime_divisors(np.array(vals, dtype=np.int64))
    assert got == sorted(set().union(*map(_prime_factors, vals)))
    assert 1000003 in got


def test_sieve_prime_bound_cap(gaussian, monkeypatch):
    # the primes trial-dividing the norms go up to sqrt(B): sqrt(B) is held
    # to region_cap before any norm is factored or prime is split
    region = ct.cube_region(gaussian, 2)
    S = [il.point(gaussian, [[100, 0], [100, 0]])]
    B = 102 ** 2 + 2 ** 2  # N(-2 + 2i - 100), the farthest difference
    assert ct.count_visible_sieve(gaussian, S, 2, region,
                                  region_cap=math.isqrt(B)).prime_norm_bound == B
    # B ~ 10^12: sqrt(B) is under the default cap, and the count is exact
    far = [il.point(gaussian, [[10 ** 6, 0], [10 ** 6, 0]])]
    t0 = time.perf_counter()
    res = ct.count_visible_sieve(gaussian, far, 2, region)
    assert time.perf_counter() - t0 < 1
    assert res.prime_norm_bound == (10 ** 6 + 2) ** 2 + 4
    assert res.visible_count == ct.count_visible_direct(gaussian, far, 2, region).visible_count
    monkeypatch.setattr(pr, "primes_up_to_norm", None)  # must not be reached
    monkeypatch.setattr(ct, "_prime_divisors", None)
    with pytest.raises(CapExceeded) as exc:
        ct.count_visible_sieve(gaussian, S, 2, region, region_cap=math.isqrt(B) - 1)
    assert exc.value.estimate == B
    # 10^15 gives norms past int64: trial division would need the primes to 10^15
    for x in (10 ** 9, 10 ** 15):
        far = [il.point(gaussian, [[x, 0], [x, 0]])]
        with pytest.raises(CapExceeded) as exc:
            ct.count_visible_sieve(gaussian, far, 2, region)
        assert exc.value.estimate == (x + 2) ** 2 + 4


def _norm_bound_by_rows(field, S, coords):
    # the sieve's former per-row loop, kept here as the oracle for B
    B = 1
    for key in {v for s in S for v in s}:
        for c in coords.tolist():
            d = [x - y for x, y in zip(c, key)]
            if any(d):
                B = max(B, abs(nf.norm_of_coords(field, d)))
    return B


@pytest.mark.parametrize("fname", ["rational", "gaussian", "golden", "cubic"])
def test_prime_norm_bound_matches_rows(request, fname):
    field = request.getfixturevalue(fname)
    n = field.degree
    rng = random.Random(61)
    S = [origin(field, 2)] + [
        il.point(field, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(2)])
        for _ in range(2)]
    keys = {v for s in S for v in s}
    regions = [ct.cube_region(field, 3), ct.ball_region(field, 7 - 2 * n)]
    if n == 2:
        # coordinates near 2^42 put the norms on the object path
        regions.append(ct.cube_region(field, 3, basis_transform=[[1, 2 ** 40], [0, 1]]))
    for region in regions:
        coords = ct.region_coords(region)
        for key in keys:
            norms = il.ideal_index(field, coords[:, None], key)
            assert norms.dtype == (object if region.basis_transform else np.int64)
            assert norms.tolist() == [
                abs(nf.norm_of_coords(field, [x - y for x, y in zip(c, key)]))
                for c in coords.tolist()]
        want = _norm_bound_by_rows(field, S, coords)
        if region.basis_transform is None:
            assert ct.count_visible_sieve(field, S, 2, region).prime_norm_bound == want
        else:
            # a B this large cannot be sieved with: the sieve's max, taken here
            assert want == max(int(il.ideal_index(field, coords[:, None], key).max())
                               for key in keys)


def test_direct_and_mc_never_touch_primes(gaussian, monkeypatch):
    # the direct count and MC must not become a second sieve: they run with
    # prime enumeration and residue reduction disabled
    def boom(*args, **kwargs):
        raise AssertionError("prime machinery used")

    monkeypatch.setattr(pr, "primes_up_to_norm", boom)
    monkeypatch.setattr(pr, "residues", boom)
    S = [origin(gaussian, 2), il.point(gaussian, [[1, 0], [2, 1]])]
    region = ct.cube_region(gaussian, 2)
    direct = ct.count_visible_direct(gaussian, S, 2, region)
    pts = ct.region_coords(region).tolist()
    want = sum(1 for a in pts for b in pts
               if all(il.ideal_from_generators(gaussian, [sub(a, x), sub(b, y)]).norm == 1
                      for x, y in S))
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


@pytest.mark.parametrize("R", [2 ** 31 - 1, 2 ** 31, 2 ** 33])
def test_mc_ball_samples_lie_in_ball(gaussian, monkeypatch, R):
    # on Q(i) a squared length reaches 2^63 once L >= 2^31; past that the
    # filter squares on Python integers, so no sample outside the ball is kept
    seen = []

    def spy(field, z, S):
        seen.append(z)
        return np.zeros(len(z), dtype=bool)

    monkeypatch.setattr(il, "visible_mask", spy)
    res = ct.mc_estimate(gaussian, [origin(gaussian, 2)], 2,
                         ct.ball_region(gaussian, R), samples=1000, seed=5)
    assert res.visible_count == 0
    (z,) = seen
    assert z.shape == (1000, 2, 2)
    assert all(x * x + y * y <= R * R for x, y in z.reshape(-1, 2).tolist())


MC_SIZES = [("cube", 1), ("cube", 7), ("cube", 2 ** 31 - 1), ("cube", 2 ** 31),
            ("cube", 2 ** 33), ("cube", 3 * 2 ** 61), ("cube", 2 ** 63 - 1),
            ("ball", Fraction(1, 2)), ("ball", 1), ("ball", 7), ("ball", 2 ** 31 - 1),
            ("ball", 2 ** 31), ("ball", 2 ** 33), ("ball", 3 * 2 ** 61)]
MC_SEEDS = [0, 1, 2 ** 64 + 7, 2 ** 128 - 1]
MC_FIELDS = [("rational", {}), ("quadratic", {"d": -7}),
             ("monogenic", {"minpoly": [-1, -1, 0, 1]})]
# every size at every seed, the field, m and the sample count turning with
# them; a degree-5 ball needs several of the old 2 samples m + 64 row batches
# and straddles chunks of the stream, and one cube takes a basis transform
MC_CASES = [(MC_FIELDS[(i + j) % 3], shape, size, 2 + (i + j) % 2, (101, 2000)[j % 2], seed, None)
            for i, (shape, size) in enumerate(MC_SIZES) for j, seed in enumerate(MC_SEEDS)] + [
    (("monogenic", {"minpoly": [-1, -1, 0, 0, 0, 1]}), "ball", 7, 3, 2000, 5, None),
    (("monogenic", {"minpoly": [-1, -1, 0, 1]}), "cube", 7, 2, 2000, 11,
     ((1, 2, 0), (0, 1, 0), (0, 3, 1)))]


@pytest.mark.parametrize("fkw, shape, size, m, samples, seed, T", MC_CASES, ids=[
    f"{kind}-{shape}{size}-m{m}-{samples}-seed{seed}" + ("-T" if T else "")
    for (kind, _), shape, size, m, samples, seed, T in MC_CASES])
def test_mc_samples_equal_numpy_random(monkeypatch, fkw, shape, size, m, samples, seed, T):
    # the in-repo Philox stream draws, bit for bit, what numpy.random drew
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = nf.make_field(fkw[0], **fkw[1])
    region = (ct.cube_region if shape == "cube" else ct.ball_region)(field, size, T)
    seen = []

    def spy(field, z, S):
        seen.append(z)
        return np.zeros(len(z), dtype=bool)

    monkeypatch.setattr(il, "visible_mask", spy)
    ct.mc_estimate(field, [origin(field, m)], m, region, samples=samples, seed=seed)
    want = mc_points_reference(field, m, region, samples, seed)
    (z,) = seen
    assert z.dtype == want.dtype and z.shape == want.shape == (samples, m, field.degree)
    assert np.array_equal(z, want)


def test_mc_sample_floor(rational):
    with pytest.raises(ValueError):
        ct.mc_estimate(rational, [origin(rational, 2)], 2,
                       ct.cube_region(rational, 5), samples=50, seed=0)


def test_ideal_count_check_examples(rational, gaussian):
    two = pr.split_prime(rational, 2)[0]
    chk = ct.ideal_count_check(rational, two, ct.cube_region(rational, 10))
    assert chk.count == 11 and chk.main_term == 10 and chk.error == 1

    onepi = pr.split_prime(gaussian, 2)[0]
    chk2 = ct.ideal_count_check(gaussian, onepi, ct.ball_region(gaussian, 5))
    assert chk2.main_term == Fraction(25, 2) * ct.PI
    assert chk2.normalized_error <= 4.0

    with pytest.raises(ValueError):
        ct.ideal_count_check(rational, onepi, ct.cube_region(rational, 10))


@pytest.mark.parametrize("fname, R", [("cubic", "1e-200"), ("gaussian", "1e-400")])
def test_ideal_count_check_tiny_ball(request, fname, R):
    # (R / N^(1/n))^(n-1) underflows to 0.0: the normalized error is inf
    field = request.getfixturevalue(fname)
    for P in pr.primes_up_to_norm(field, 5):
        chk = ct.ideal_count_check(field, P, ct.ball_region(field, R))
        assert chk.count == 1 and chk.error == 1 - chk.main_term
        assert chk.normalized_error == math.inf


def test_ideal_count_check_refuses_region_of_other_field(gaussian, sqrt_m7):
    P = pr.split_prime(gaussian, 5)[0]
    with pytest.raises(ValueError, match="mismatched field"):
        ct.ideal_count_check(gaussian, P, ct.cube_region(sqrt_m7, 10))


@pytest.mark.parametrize("fname, region", [
    ("gaussian", ("ball", 6)), ("golden", ("cube", 5)), ("cubic", ("cube", 4))],
    ids=["gaussian", "golden", "cubic"])
def test_ideal_count_check_matches_contains(request, fname, region):
    # every prime of norm <= 30: ramified ones and f = 2, 3 included
    field = request.getfixturevalue(fname)
    reg = (ct.cube_region if region[0] == "cube" else ct.ball_region)(
        field, region[1])
    rows = ct.region_coords(reg).tolist()
    kinds = set()
    for P in pr.primes_up_to_norm(field, 30):
        kinds.add((P.e, P.f))
        hnf = prime_hnf(P)
        brute = sum(1 for c in rows if contains(hnf, c))
        assert ct.ideal_count_check(field, P, reg).count == brute, P
    want = {"gaussian": {(2, 1), (1, 2)}, "golden": {(2, 1), (1, 2)},
            "cubic": {(2, 1), (1, 2), (1, 3)}}[fname]
    assert want <= kinds


def test_ideal_count_check_spans_blocks(gaussian):
    # 141^2 = 19 881 rows in 141 runs, against the scan of every row
    cube = ct.cube_region(gaussian, 70)
    assert len(ct.region_coords(cube)) > 2 ** 14
    for P in pr.primes_up_to_norm(gaussian, 30):
        assert ct.ideal_count_check(gaussian, P, cube).count == ideal_count(P, cube), P


def test_ideal_count_check_matches_scan():
    # the closed form over the runs against the scan of every row: f = 1, 2,
    # 3, ramified primes, v = rho'_n = 0 mod p ((5, theta) in Q(sqrt-5), (2,
    # theta) for x^3 - 2, and a transform whose last row P contains), cubes,
    # balls with R < 1 and R = 2.5, and seeded unimodular transforms
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fields = [nf.make_field("rational")] + [
            nf.make_field("quadratic", d=d) for d in (-1, -5, 2)] + [
            nf.make_field("monogenic", minpoly=f)
            for f in ([-1, -1, 0, 1], [-2, 0, 0, 1], [1, 0, 0, 0, 1])]
    rng = random.Random(1951)
    kinds, zero_v = set(), 0
    for field in fields:
        n = field.degree
        for P in pr.primes_up_to_norm(field, 30):
            kinds.add((P.e, P.f))
            # upper unitriangular with small entries: unimodular
            T = [[int(i == j) or (rng.randint(-3, 3) if j > i else 0)
                  for j in range(n)] for i in range(n)]
            regions = [ct.cube_region(field, rng.randint(1, 5)),
                       ct.ball_region(field, "0.7"), ct.ball_region(field, "2.5"),
                       ct.cube_region(field, rng.randint(1, 4), T),
                       ct.ball_region(field, rng.randint(2, 6), T)]
            if P.f == 1 and n > 1:
                # last row e_n - rho_n e_1: its residue is 0 mod P
                T0 = [[int(i == j) for j in range(n)] for i in range(n)]
                T0[-1][0] = -pr.reduction_rows(P)[-1][0]
                regions.append(ct.ball_region(field, 4, T0))
            for region in regions:
                zero_v += not _last_basis_residue(region, P).any()
                assert (ct.ideal_count_check(field, P, region).count
                        == ideal_count(P, region)), (P, region)
    assert {(1, 1), (2, 1), (1, 2), (1, 3), (3, 1)} <= kinds
    assert zero_v >= 20


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
