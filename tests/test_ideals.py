import json
import math
import random
import warnings

import numpy as np
import pytest

from visilat import ideals as il
from visilat import numfield as nf

from conftest import origin
from oracles import contains, ideal_mul, sub


def test_generator_examples(rational, gaussian):
    I = il.ideal_from_generators(rational, [[4], [6]])
    assert I.hnf == ((2,),) and I.norm == 2
    assert il.ideal_from_generators(gaussian, [(1, 0)]).norm == 1
    assert il.ideal_from_generators(gaussian, [(1, 1)]).norm == 2


def test_zero_ideal(gaussian):
    Z = il.ideal_from_generators(gaussian, [(0, 0)])
    assert Z.is_zero and Z.norm == 0
    assert contains(Z, (0, 0))
    assert not contains(Z, (1, 0))


def test_integer_gcd_agreement(rational):
    # principal-ideal arithmetic over Z is plain gcd, on the whole box
    for a in range(-50, 51):
        for b in range(-50, 51):
            I = il.ideal_from_generators(rational, [[a], [b]])
            assert I.norm == math.gcd(a, b)


def test_gcd_laws(gaussian):
    # I + J is the ideal the union of their Z-bases generates; equal sums
    # from different generator lists must reach one canonical HNF
    rng = random.Random(3)
    O = il.ideal_from_generators(gaussian, [(1, 0)])

    def rand_ideal():
        while True:
            g = (rng.randint(-6, 6), rng.randint(-6, 6))
            if any(g):
                return il.ideal_from_generators(gaussian, [g])

    def add(I, J):
        return il.ideal_from_generators(gaussian, I.hnf + J.hnf)

    for _ in range(25):
        I, J, K = rand_ideal(), rand_ideal(), rand_ideal()
        assert add(I, J) == add(J, I)
        assert add(add(I, J), K) == add(I, add(J, K))
        assert add(I, I) == I
        assert add(I, O) == O


def test_norm_multiplicative_on_products(gaussian, root2):
    rng = random.Random(5)
    for field in (gaussian, root2):
        for _ in range(30):
            a = (rng.randint(-8, 8), rng.randint(-8, 8))
            b = (rng.randint(-8, 8), rng.randint(-8, 8))
            if not any(a) or not any(b):
                continue
            I = il.ideal_from_generators(field, [a])
            J = il.ideal_from_generators(field, [b])
            assert ideal_mul(I, J).norm == I.norm * J.norm


def test_mul_by_unit_ideal(gaussian):
    I = il.ideal_from_generators(gaussian, [(3, 1)])
    assert ideal_mul(I, il.ideal_from_generators(gaussian, [(1, 0)])) == I


def test_closure_under_basis_multiplication(gaussian, cubic):
    rng = random.Random(9)
    for field in (gaussian, cubic):
        for _ in range(10):
            g = [rng.randint(-5, 5) for _ in range(field.degree)]
            if not any(g):
                continue
            I = il.ideal_from_generators(field, [g])
            for row in I.hnf:
                for i in range(field.degree):
                    unit = [int(j == i) for j in range(field.degree)]
                    assert contains(I, nf.mul_coords(field, row, unit))


def test_contains_vs_brute_force(gaussian):
    rng = random.Random(17)
    for _ in range(8):
        g = (rng.randint(1, 4), rng.randint(-3, 3))
        I = il.ideal_from_generators(gaussian, [g])
        r1, r2 = I.hnf
        span = set()
        for x in range(-12, 13):
            for y in range(-12, 13):
                span.add((x * r1[0] + y * r2[0], x * r1[1] + y * r2[1]))
        for cx in range(-6, 7):
            for cy in range(-6, 7):
                assert contains(I, (cx, cy)) == ((cx, cy) in span)


def test_visibility_examples(rational, gaussian):
    o = origin(rational, 2)
    assert il.is_visible(rational, il.point(rational, [[2], [3]]), o)
    assert not il.is_visible(rational, il.point(rational, [[2], [4]]), o)
    og = origin(gaussian, 2)
    z = il.point(gaussian, [[1, 1], [1, -1]])  # both coords in (1+i)
    assert not il.is_visible(gaussian, z, og)
    assert not il.is_visible(gaussian, og, og)  # zero difference


def test_visibility_symmetry(gaussian):
    rng = random.Random(23)
    for _ in range(40):
        z = il.point(gaussian, [[rng.randint(-5, 5), rng.randint(-5, 5)]
                                for _ in range(2)])
        x = il.point(gaussian, [[rng.randint(-5, 5), rng.randint(-5, 5)]
                                for _ in range(2)])
        assert il.is_visible(gaussian, z, x) == il.is_visible(gaussian, x, z)


def test_visibility_matches_pure_hnf_route(gaussian):
    # the batched minors kernel must agree with the raw ideal computation
    rng = random.Random(29)
    o = origin(gaussian, 2)
    for _ in range(200):
        z = il.point(gaussian, [[rng.randint(-6, 6), rng.randint(-6, 6)]
                                for _ in range(2)])
        diffs = [sub(a, b) for a, b in zip(z, o)]
        want = il.ideal_from_generators(gaussian, diffs).norm == 1
        assert il.is_visible(gaussian, z, o) == want


def _hnf_indices(field, diffs):
    return [il.ideal_from_generators(field, lane).norm for lane in diffs]


KERNEL_FIELDS = [("rational", {}), ("quadratic", {"d": -1}),
                 ("quadratic", {"d": -7}), ("quadratic", {"d": 5}),
                 ("monogenic", {"minpoly": [-1, -1, 0, 1]}),
                 ("monogenic", {"minpoly": [-1, -1, 0, 0, 1]})]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind,kw", KERNEL_FIELDS)
def test_kernel_matches_hnf(kind, kw, m, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = nf.make_field(kind, **kw)
    n = field.degree
    # a tiny chunk makes the lanes below straddle several chunk boundaries
    monkeypatch.setattr(il, "CHUNK", 7)
    dtypes = []
    kernel = il.ideal_index

    def spy(*args):
        out = kernel(*args)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(il, "ideal_index", spy)
    rng = random.Random(f"{kind}{kw}{m}")

    def multiples(g, size):
        """m differences in the ideal (g), cofactor entries in [-size, size]."""
        return [list(nf.mul_coords(field, g, [rng.randint(-size, size)
                                              for _ in range(n)]))
                for _ in range(m)]

    one = (1,) + (0,) * (n - 1)
    # near 2^40 every minor bound exceeds int64 once n >= 2; n = 1 needs 2^62
    for base in (0, 2 ** 40 if n > 1 else 2 ** 62):
        s = [[base + rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        zero_block = multiples(one, 4)
        zero_block[0] = [0] * n
        diffs = [[[0] * n] * m, zero_block]
        for _ in range(40):
            # a common factor g makes lanes invisible that the norms miss
            g = [rng.randint(-2, 2) for _ in range(n)]
            diffs += [multiples(g, 3), multiples(one, 6)]
            if base:  # int64 minors of these would overflow
                diffs.append(multiples(g, base >> 2))
        lanes = np.array([[[a + b for a, b in zip(d, c)] for d, c in zip(lane, s)]
                          for lane in diffs], dtype=object)
        x = il.point(field, s)
        del dtypes[:]
        got = il.visible_mask(field, lanes, il.point_set(field, [x], m))
        want = _hnf_indices(field, diffs)
        assert got.tolist() == [w == 1 for w in want]
        assert not got[0]
        assert len(dtypes) == -(-len(lanes) // 7)
        assert set(dtypes) == {np.dtype(object if base else np.int64)}
        index = kernel(field, lanes, x)
        assert index.tolist() == want
        assert index[0] == 0 and len(set(want)) > 3
        if m == 1:  # the index is |N|; a random element is seldom a unit
            assert want == [abs(nf.norm_of_coords(field, d)) for (d,) in diffs]
        else:
            assert 0 < sum(got) < len(want)


@pytest.mark.parametrize("base", [0, 2 ** 40])
def test_kernel_compaction_paths(gaussian, base, monkeypatch):
    """Every way lanes leave the kernel, on the int64 path and (near 2^40)
    the object path: the index matches the HNF reference, and the lanes are
    compacted exactly when half of them or more have reached gcd 1."""
    widths = []  # the lanes in the arrays at each minor
    det = il._det
    monkeypatch.setattr(il, "_det", lambda rows, rs: widths.append(rows.shape[2])
                        or det(rows, rs))
    s = [[base, 0], [0, base]]
    rng = random.Random(41)

    def times(g):
        """g times a random cofactor with a nonzero second coordinate."""
        return list(nf.mul_coords(gaussian, g, [rng.randint(-5, 5), rng.randint(1, 5)]))

    unit, two, five = [0, 1], [1, 1], [1, 2]  # norms 1, 2 and 5

    def minor_widths(diffs):
        z = np.array([[[a + b for a, b in zip(d, c)] for d, c in zip(lane, s)]
                      for lane in diffs], dtype=np.int64).reshape(-1, 2, 2)
        z.flags.writeable = False  # the kernel must not write to its input
        del widths[:]
        got = il.ideal_index(gaussian, z, s)
        assert got.dtype == np.dtype(object if base else np.int64)
        assert got.tolist() == _hnf_indices(gaussian, diffs)
        return widths[:]

    # a unit first difference: every lane leaves at the first block minor
    assert minor_widths([[unit, times(two)] for _ in range(8)]) == [8]
    # all differences in the prime above 2: no lane ever leaves
    assert minor_widths([[times(two), times(two)] for _ in range(8)]) == [8] * 6
    # gcd(2, 5) = 1 at the second block minor for 4 of 10 lanes, then for 6
    stay = [[times(two), times(two)] for _ in range(6)]
    leave = [[two, five]] * 6
    assert minor_widths(stay + leave[:4]) == [10] * 6
    assert minor_widths(stay[:4] + leave) == [10, 10] + [4] * 4
    assert minor_widths([]) == [0]


@pytest.mark.parametrize("kind,kw", KERNEL_FIELDS)
def test_kernel_dtype_switch(kind, kw):
    """r = 2 lanes whose bound n! E^n lies just under and just over 2^63 take
    the int64 and the object path; both agree with the HNF reference."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = nf.make_field(kind, **kw)
    n, T = field.degree, field.mult_tensor
    rowsum = max(sum(abs(T[a][j][k]) for a in range(n))
                 for j in range(n) for k in range(n))
    top = round((2 ** 63 / math.factorial(n)) ** (1 / n))  # largest E < the bound
    while math.factorial(n) * top ** n >= 2 ** 63:
        top -= 1
    while math.factorial(n) * (top + 1) ** n < 2 ** 63:
        top += 1
    rng = random.Random(f"{kind}{kw}")
    for M, dtype in ((top // rowsum, np.int64), (top // rowsum + 1, object)):
        # s = 0, so E = M * rowsum; the first two lanes reach +-M everywhere
        diffs = [[[M] * n, [M] * n], [[M] * n, [-M] * n]]
        diffs += [[[rng.randint(-M, M) for _ in range(n)] for _ in range(2)]
                  for _ in range(6)]
        got = il.ideal_index(field, np.array(diffs, dtype=object), [[0] * n] * 2)
        assert got.dtype == np.dtype(dtype)
        assert got.tolist() == _hnf_indices(field, diffs)


def test_is_visible_from_all(rational):
    S = [origin(rational, 2), il.point(rational, [[1], [1]])]
    assert il.is_visible_from_all(rational, il.point(rational, [[2], [3]]), S)
    assert not il.is_visible_from_all(rational, il.point(rational, [[3], [5]]), S)
    assert not il.is_visible_from_all(rational, S[0], S)  # z in S
    with pytest.raises(ValueError):
        il.is_visible_from_all(rational, S[0], [])


def test_point_validation(rational, gaussian):
    with pytest.raises(ValueError):  # a Q(i) vector read over Q's basis
        il.point(rational, [[1], [1, 0]])
    z = il.point(rational, [[1], [2], [3]])
    with pytest.raises(ValueError):
        il.is_visible(rational, z, origin(rational, 2))


@pytest.mark.parametrize("check, coords, exc, msg", [
    (il.point, [[1], [0, 0]], ValueError, "expected 2 coordinates, got 1"),
    (il.point, [[True, 0], [0, 0]], ValueError, "True is not an integer"),
    (il.point, [[2.5, 0], [0, 0]], ValueError, "2.5 is not an integer"),
    # every entry of a vector before its length, one vector after another
    (il.point, [[True], [0, 0]], ValueError, "True is not an integer"),
    (il.point, [[1], [True, 0]], ValueError, "expected 2 coordinates, got 1"),
    (il.point, [3, [0, 0]], TypeError, "'int' object is not iterable"),
    (il.point_set, [[None, 0], [0, 0]], ValueError,
     "S must list points, each m lists of n integers"),
    (il.point_set, [3, [0, 0]], ValueError,
     "S must list points, each m lists of n integers")],
    ids=["short", "bool", "fraction", "entries-first", "in-order", "number",
         "null-in-S", "number-in-S"])
def test_point_refusals(gaussian, check, coords, exc, msg):
    """``point`` is the one coordinate check; ``point_set`` reads S through it."""
    args = (gaussian, [coords], 2) if check is il.point_set else (gaussian, coords)
    with pytest.raises(exc) as info:
        check(*args)
    assert type(info.value) is exc and str(info.value) == msg


def test_point_set_shape_order_and_dedupe(gaussian):
    a, o = il.point(gaussian, [[1, 0], [0, 1]]), origin(gaussian, 2)
    S = il.point_set(gaussian, [a, o, a], 2)
    assert S.tolist() == [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]  # first kept
    assert S.shape == (2, 2, 2) and S.dtype == object
    assert not S.flags.writeable
    with pytest.raises(ValueError):
        S[0, 0, 0] = 5
    again = il.point_set(gaussian, S, 2)
    assert again.shape == S.shape and again.tolist() == S.tolist()
    from_json = il.point_set(gaussian, json.loads(json.dumps(S.tolist())), 2)
    assert from_json.shape == S.shape and (from_json == S).all()


def test_point_set_big_coordinates_exact(rational):
    big = [[[2 ** 70], [-2 ** 70 - 1]], [[2 ** 70 + 1], [3]]]
    S = il.point_set(rational, big, 2)
    assert S.tolist() == big
    assert all(type(x) is int for x in S.flat)
    assert (il.point_set(rational, S, 2) == S).all()


@pytest.mark.parametrize("S, m", [
    ([], 2),                    # empty
    ([[[0], [0], [0]]], 2),     # m = 3 given for m = 2
    ([[[0, 0], [0, 0]]], 2),    # degree 2 given over Q
    ([[[True], [0]]], 2),       # a bool coordinate
    ([[[0.5], [0]]], 2),        # a fractional coordinate
    ([[[None], [0]]], 2),       # a null coordinate
    ([[1, 2]], 2),              # numbers where vectors belong
    (5, 2)],                    # a number for S
    ids=["empty", "wrong-m", "wrong-degree", "bool", "fraction", "null",
         "flat-point", "number"])
def test_point_set_refusals(rational, S, m):
    with pytest.raises(ValueError):
        il.point_set(rational, S, m)


def test_points_json_roundtrip(gaussian):
    S = [il.point(gaussian, [[0, 0], [0, 0]]), il.point(gaussian, [[1, 0], [1, 0]])]
    data = il.point_set(gaussian, S, 2).tolist()
    assert data == [[[0, 0], [0, 0]], [[1, 0], [1, 0]]]
    back = il.point_set(gaussian, data, 2)
    assert [il.point(gaussian, s) for s in back] == S
