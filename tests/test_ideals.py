import math
import random
import warnings

import numpy as np
import pytest

from visilat import ideals as il
from visilat import numfield as nf
from visilat import primes as pr

from conftest import origin


def test_generator_examples(rational, gaussian):
    I = il.ideal_from_generators([rational.element([4]), rational.element([6])])
    assert I.hnf == ((2,),) and I.norm == 2
    assert il.ideal_from_generators([gaussian.one()]).norm == 1
    assert il.ideal_from_generators([gaussian.element((1, 1))]).norm == 2


def test_zero_ideal(gaussian):
    Z = il.ideal_from_generators([gaussian.zero()])
    assert Z.is_zero and Z.norm == 0
    assert il.contains(Z, gaussian.zero())
    assert not il.contains(Z, gaussian.one())


def test_mixed_fields_rejected(rational, gaussian):
    with pytest.raises(ValueError):
        il.ideal_from_generators([rational.element([2]), gaussian.one()])


def test_integer_gcd_agreement(rational):
    # principal-ideal arithmetic over Z is plain gcd, on the whole box
    for a in range(-50, 51):
        for b in range(-50, 51):
            I = il.ideal_from_generators(
                [rational.element([a]), rational.element([b])])
            assert I.norm == math.gcd(a, b)


def test_gcd_laws(gaussian):
    rng = random.Random(3)
    O = il.unit_ideal(gaussian)

    def rand_ideal():
        while True:
            g = gaussian.element((rng.randint(-6, 6), rng.randint(-6, 6)))
            if not g.is_zero():
                return il.ideal_from_generators([g])

    for _ in range(25):
        I, J, K = rand_ideal(), rand_ideal(), rand_ideal()
        assert il.ideal_sum(I, J) == il.ideal_sum(J, I)
        assert il.ideal_sum(il.ideal_sum(I, J), K) == il.ideal_sum(I, il.ideal_sum(J, K))
        assert il.ideal_sum(I, I) == I
        assert il.ideal_sum(I, O) == O


def test_norm_multiplicative_on_products(gaussian, root2):
    rng = random.Random(5)
    for field in (gaussian, root2):
        for _ in range(30):
            a = field.element((rng.randint(-8, 8), rng.randint(-8, 8)))
            b = field.element((rng.randint(-8, 8), rng.randint(-8, 8)))
            if a.is_zero() or b.is_zero():
                continue
            I = il.ideal_from_generators([a])
            J = il.ideal_from_generators([b])
            assert il.ideal_mul(I, J).norm == I.norm * J.norm


def test_mul_by_unit_ideal(gaussian):
    I = il.ideal_from_generators([gaussian.element((3, 1))])
    assert il.ideal_mul(I, il.unit_ideal(gaussian)) == I


def test_closure_under_basis_multiplication(gaussian, cubic):
    rng = random.Random(9)
    for field in (gaussian, cubic):
        for _ in range(10):
            g = field.element([rng.randint(-5, 5) for _ in range(field.degree)])
            if g.is_zero():
                continue
            I = il.ideal_from_generators([g])
            for row in I.rows():
                for i in range(field.degree):
                    assert il.contains(I, row * field.basis_element(i))


def test_contains_vs_brute_force(gaussian):
    rng = random.Random(17)
    for _ in range(8):
        g = gaussian.element((rng.randint(1, 4), rng.randint(-3, 3)))
        I = il.ideal_from_generators([g])
        r1, r2 = I.hnf
        span = set()
        for x in range(-12, 13):
            for y in range(-12, 13):
                span.add((x * r1[0] + y * r2[0], x * r1[1] + y * r2[1]))
        for cx in range(-6, 7):
            for cy in range(-6, 7):
                a = gaussian.element((cx, cy))
                assert il.contains(I, a) == ((cx, cy) in span)


def test_visibility_examples(rational, gaussian):
    o = origin(rational, 2)
    assert il.is_visible(il.point(rational, [[2], [3]]), o)
    assert not il.is_visible(il.point(rational, [[2], [4]]), o)
    og = origin(gaussian, 2)
    z = il.point(gaussian, [[1, 1], [1, -1]])  # both coords in (1+i)
    assert not il.is_visible(z, og)
    assert not il.is_visible(og, og)  # zero difference


def test_visibility_symmetry(gaussian):
    rng = random.Random(23)
    for _ in range(40):
        z = il.point(gaussian, [[rng.randint(-5, 5), rng.randint(-5, 5)]
                                for _ in range(2)])
        x = il.point(gaussian, [[rng.randint(-5, 5), rng.randint(-5, 5)]
                                for _ in range(2)])
        assert il.is_visible(z, x) == il.is_visible(x, z)


def test_visibility_matches_pure_hnf_route(gaussian):
    # the batched minors kernel must agree with the raw ideal computation
    rng = random.Random(29)
    o = origin(gaussian, 2)
    for _ in range(200):
        z = il.point(gaussian, [[rng.randint(-6, 6), rng.randint(-6, 6)]
                                for _ in range(2)])
        diffs = [a - b for a, b in zip(z.points, o.points)]
        assert il.is_visible(z, o) == (il.ideal_from_generators(diffs).norm == 1)


KERNEL_FIELDS = [("rational", {}), ("quadratic", {"d": -1}),
                 ("quadratic", {"d": -7}), ("quadratic", {"d": 5}),
                 ("monogenic", {"minpoly": [-1, -1, 0, 1]})]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kind,kw", KERNEL_FIELDS)
def test_kernel_matches_hnf(kind, kw, m, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = nf.make_field(kind, **kw)
    n = field.degree
    # a tiny chunk makes the lanes below straddle several chunk boundaries
    monkeypatch.setattr(il, "CHUNK", 7)
    dtypes = []
    kernel = il._unit_ideal_lanes

    def spy(d, *args):
        dtypes.append(d.dtype)
        return kernel(d, *args)

    monkeypatch.setattr(il, "_unit_ideal_lanes", spy)
    rng = random.Random(f"{kind}{kw}{m}")

    def multiples(g, size):
        """m differences in the ideal (g), cofactor entries in [-size, size]."""
        return [list((g * field.element([rng.randint(-size, size)
                                         for _ in range(n)])).coords)
                for _ in range(m)]

    # near 2^40 every minor bound exceeds int64 once n >= 2; n = 1 needs 2^62
    for base in (0, 2 ** 40 if n > 1 else 2 ** 62):
        s = [[base + rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        zero_block = multiples(field.one(), 4)
        zero_block[0] = [0] * n
        diffs = [[[0] * n] * m, zero_block]
        for _ in range(40):
            # a common factor g makes lanes invisible that the norms miss
            g = field.element([rng.randint(-2, 2) for _ in range(n)])
            diffs += [multiples(g, 3), multiples(field.one(), 6)]
            if base:  # int64 minors of these would overflow
                diffs.append(multiples(g, base >> 2))
        lanes = [[[a + b for a, b in zip(d, c)] for d, c in zip(lane, s)]
                 for lane in diffs]
        x = il.point(field, s)
        del dtypes[:]
        got = il.visible_mask(np.array(lanes, dtype=object), [x])
        want = [il.ideal_from_generators(
            [field.element(d) for d in lane]).norm == 1 for lane in diffs]
        assert got.tolist() == want
        assert not got[0]
        assert 0 < sum(want) < len(want)
        assert len(dtypes) == -(-len(lanes) // 7)
        assert set(dtypes) == {np.dtype(object if base else np.int64)}


def test_is_visible_from_all(rational):
    S = [origin(rational, 2), il.point(rational, [[1], [1]])]
    assert il.is_visible_from_all(il.point(rational, [[2], [3]]), S)
    assert not il.is_visible_from_all(il.point(rational, [[3], [5]]), S)
    assert not il.is_visible_from_all(S[0], S)  # z in S
    with pytest.raises(ValueError):
        il.is_visible_from_all(S[0], [])


def test_point_validation(rational, gaussian):
    with pytest.raises(ValueError):
        il.PointTuple((rational.element([1]), gaussian.one()))
    z = il.point(rational, [[1], [2], [3]])
    with pytest.raises(ValueError):
        il.is_visible(z, origin(rational, 2))


def test_points_json_roundtrip(gaussian):
    S = [il.point(gaussian, [[0, 0], [0, 0]]), il.point(gaussian, [[1, 0], [1, 0]])]
    data = il.points_to_json(S)
    assert data == [[[0, 0], [0, 0]], [[1, 0], [1, 0]]]
    back = il.points_from_json(gaussian, data)
    assert back == S


def test_mobius_examples(rational, gaussian):
    assert il.mobius(il.unit_ideal(gaussian), pr.split_prime) == 1
    two = il.ideal_from_generators([gaussian.element((2, 0))])
    five = il.ideal_from_generators([gaussian.element((5, 0))])
    onepi = il.ideal_from_generators([gaussian.element((1, 1))])
    assert il.mobius(two, pr.split_prime) == 0       # (1+i)^2
    assert il.mobius(five, pr.split_prime) == 1      # splits into two primes
    assert il.mobius(onepi, pr.split_prime) == -1
    with pytest.raises(ValueError):
        il.mobius(il.ideal_from_generators([gaussian.zero()]), pr.split_prime)


def _mu_int(k):
    m, cnt, d = k, 0, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            cnt += 1
        d += 1
    if m > 1:
        cnt += 1
    return -1 if cnt % 2 else 1


def test_mobius_matches_integer_moebius(rational):
    for k in range(1, 61):
        I = il.ideal_from_generators([rational.element([k])])
        assert il.mobius(I, pr.split_prime) == _mu_int(k)
