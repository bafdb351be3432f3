import random
import warnings

import numpy as np
import pytest

from visilat import ideals as il
from visilat import numfield as nf
from visilat import primes as pr

from conftest import origin


def test_factor_examples():
    assert pr.poly_factor_mod_p((1, 0, 1), 5) == [((2, 1), 1), ((3, 1), 1)]
    assert pr.poly_factor_mod_p((1, 0, 1), 3) == [((1, 0, 1), 1)]
    assert pr.poly_factor_mod_p((1, 0, 1), 2) == [((1, 1), 2)]


def test_factor_rejects_composite_modulus():
    with pytest.raises(ValueError):
        pr.poly_factor_mod_p((1, 0, 1), 6)


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def _has_root(f, p):
    return any(sum(c * pow(x, i, p) for i, c in enumerate(f)) % p == 0
               for x in range(p))


def test_factor_reconstruction_and_irreducibility():
    rng = random.Random(101)
    for p in (2, 3, 5, 7, 13):
        for _ in range(20):
            deg = rng.randint(1, 4)
            f = tuple(rng.randrange(p) for _ in range(deg)) + (1,)
            factors = pr.poly_factor_mod_p(f, p)
            prod = (1,)
            for g, m in factors:
                assert g[-1] == 1
                for _ in range(m):
                    prod = _pmul(prod, g, p)
                # degree 2 or 3 over F_p is irreducible iff it has no root
                if 2 <= len(g) - 1 <= 3:
                    assert not _has_root(g, p)
            assert prod == f


def test_factor_deterministic_under_seed():
    f = (2, 0, 3, 0, 1, 1)
    assert pr.poly_factor_mod_p(f, 13, seed=5) == pr.poly_factor_mod_p(f, 13, seed=5)


def test_split_examples(gaussian):
    five = pr.split_prime(gaussian, 5)
    assert [(P.f, P.e, P.norm) for P in five] == [(1, 1, 5), (1, 1, 5)]
    three = pr.split_prime(gaussian, 3)
    assert [(P.f, P.e, P.norm) for P in three] == [(2, 1, 9)]
    two = pr.split_prime(gaussian, 2)
    assert [(P.f, P.e, P.norm) for P in two] == [(1, 2, 2)]


def test_split_completeness(gaussian, root2, golden, eisenstein, cubic):
    for field in (gaussian, root2, golden, eisenstein, cubic):
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            primes = pr.split_prime(field, p)
            assert sum(P.e * P.f for P in primes) == field.degree
            prod = il.unit_ideal(field)
            for P in primes:
                for _ in range(P.e):
                    prod = il.ideal_mul(prod, P.hnf)
            pideal = il.ideal_from_generators(
                [field.element([p] + [0] * (field.degree - 1))])
            assert prod == pideal


def test_prime_hnf_is_maximal(gaussian, cubic):
    for field in (gaussian, cubic):
        for p in (2, 3, 5, 7):
            for P in pr.split_prime(field, p):
                assert il.contains(P.hnf, field.element(
                    [p] + [0] * (field.degree - 1)))
                assert P.norm == P.hnf.norm == p ** P.f


def _quadratic_fields():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # d = -5, 10 are not PIDs
        fields = [nf.make_field("quadratic", d=d)
                  for d in (-1, -2, -3, -7, -11, 2, 3, 5, 13, -5, 10)]
        return fields + [nf.make_field("monogenic", minpoly=[3, 1, 1])]


SMALL_PRIMES = nf.rational_primes_up_to(3000)


def _disc_mod(field, p):
    c, b, _ = field.gen_minpoly
    return (b * b - 4 * c) % p


@pytest.mark.parametrize("field", _quadratic_fields(), ids=repr)
def test_split_closed_form_matches_cantor_zassenhaus(field):
    # the closed form and the general path agree tuple for tuple; the
    # primes below 3000 include p = 2, the ramified p and a root r = 0
    kinds = set()
    for p in SMALL_PRIMES:
        got = pr.split_prime(field, p)
        want = sorted(pr._split_prime_cz(field, p, 0), key=lambda P: P.gpoly)
        assert got == want, p
        kinds.update((P.e, P.f) for P in got)
        if p > 2 and _disc_mod(field, p) and got[0].gpoly == (0, 1):
            kinds.add("root 0")
    assert {(1, 1), (1, 2), (2, 1)} <= kinds
    c = field.gen_minpoly[0]
    assert ("root 0" in kinds) == any(c % p == 0 and _disc_mod(field, p)
                                      for p in SMALL_PRIMES[1:])


@pytest.mark.parametrize("field", _quadratic_fields(), ids=repr)
def test_closed_form_hnf_is_ideal_of_generators(field):
    for p in SMALL_PRIMES[1:]:
        if not _disc_mod(field, p):
            continue
        for P in pr.split_prime(field, p):
            gen = nf.element_from_poly(field, P.gpoly)
            assert P.hnf == il.ideal_from_generators([field.element([p, 0]), gen])


def test_closed_form_path_runs(gaussian, monkeypatch):
    # Cantor-Zassenhaus refuses every odd p, so only the closed form can
    # split them (disc = -4); nothing falls back to the general path
    factor = pr.poly_factor_mod_p

    def spy(poly, p, seed=0):
        if p != 2:
            raise AssertionError(f"Cantor-Zassenhaus called at p={p}")
        return factor(poly, p, seed)

    monkeypatch.setattr(pr, "poly_factor_mod_p", spy)
    pr._split_prime_cached.cache_clear()
    try:
        primes = pr.primes_up_to_norm(gaussian, 10 ** 4)
    finally:
        pr._split_prime_cached.cache_clear()
    assert len(primes) == 1 + 2 * 609 + 13  # p = 2, split p < 10^4, inert p < 100
    assert all(P.norm == P.hnf.norm for P in primes)


def test_primes_up_to_norm(rational, gaussian, root2):
    assert [P.norm for P in pr.primes_up_to_norm(rational, 10)] == [2, 3, 5, 7]
    assert [P.norm for P in pr.primes_up_to_norm(gaussian, 5)] == [2, 5, 5]
    q2 = pr.primes_up_to_norm(root2, 2)
    assert len(q2) == 1 and q2[0].norm == 2 and q2[0].e == 2


def test_primes_sorted_deterministically(gaussian):
    ps = pr.primes_up_to_norm(gaussian, 100)
    assert ps == sorted(ps, key=pr.PrimeIdeal.sort_key)


def test_window(gaussian):
    w = pr.window_first_t(gaussian, 3)
    assert w.t == 3
    assert [P.under_p for P in w.primes] == [2, 3, 5, 5]
    for p in {P.under_p for P in w.primes}:
        assert sum(P.e * P.f for P in w.primes if P.under_p == p) == 2


def test_reduce_examples(gaussian):
    P2 = pr.split_prime(gaussian, 2)[0]
    assert pr.reduce(gaussian.element((3, 2)), P2).rep == (1,)
    P5 = [P for P in pr.split_prime(gaussian, 5) if P.gpoly == (3, 1)][0]
    assert pr.reduce(gaussian.element((0, 1)), P5).rep == (2,)  # P = (5, i-2)
    # anything in P reduces to zero
    assert pr.reduce(gaussian.element((1, 1)), P2).is_zero()


def test_reduce_is_ring_hom(gaussian, cubic):
    rng = random.Random(31)
    for field in (gaussian, cubic):
        for p in (2, 3, 5, 7):
            for P in pr.split_prime(field, p):
                for _ in range(20):
                    a = field.element([rng.randint(-9, 9)
                                       for _ in range(field.degree)])
                    b = field.element([rng.randint(-9, 9)
                                       for _ in range(field.degree)])
                    ra, rb = pr.reduce(a, P), pr.reduce(b, P)
                    assert pr.reduce(a + b, P).rep == tuple(
                        (x + y) % p for x, y in zip(
                            ra.rep, rb.rep))
                    prod = [0] * (2 * P.f - 1)
                    for i, x in enumerate(ra.rep):
                        for j, y in enumerate(rb.rep):
                            prod[i + j] += x * y
                    red = pr._pmod(tuple(c % p for c in prod), P.gpoly, p)
                    red = red + (0,) * (P.f - len(red))
                    assert pr.reduce(a * b, P).rep == red


def test_reduce_zero_iff_contains(gaussian):
    rng = random.Random(37)
    for p in (2, 3, 5, 13):
        for P in pr.split_prime(gaussian, p):
            for _ in range(30):
                a = gaussian.element((rng.randint(-15, 15), rng.randint(-15, 15)))
                assert pr.reduce(a, P).is_zero() == il.contains(P.hnf, a)


@pytest.mark.parametrize("fname", ["gaussian", "golden", "cubic"])
def test_residue_ids(request, fname):
    field = request.getfixturevalue(fname)
    n = field.degree
    rng = random.Random(53)
    rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(40)]
    coords = np.array(rows, dtype=np.int64)
    for p in (2, 3, 5, 7):
        for P in pr.split_prime(field, p):
            ids = pr.residue_ids(P, coords)
            assert ids.shape == (len(rows),)
            assert ids.min() >= 0 and ids.max() < P.norm
            for i, a in enumerate(rows):
                for j, b in enumerate(rows):
                    diff = field.element([x - y for x, y in zip(a, b)])
                    assert (ids[i] == ids[j]) == il.contains(P.hnf, diff)
            # rows of S far beyond int64 keep their exact class
            big = np.array([[x + rng.choice([1, -1]) * p * 2 ** 70
                             for x in r] for r in rows[:5]], dtype=object)
            assert pr.residue_ids(P, big).tolist() == ids[:5].tolist()
            assert pr.residue_ids(P, big[None]).tolist() == [ids[:5].tolist()]
            # int64 rows near +-2^62, or -2^63 (whose int64 abs wraps), must
            # be reduced before the product; they agree with the object path
            near = [[s * 2 ** 62 + x for x in r] for r in rows[:5] for s in (1, -1)]
            for huge in (near, [[-2 ** 63] * n, [1] * n]):
                huge = np.array(huge, dtype=np.int64)
                assert (pr.residue_ids(P, huge).tolist()
                        == pr.residue_ids(P, huge.astype(object)).tolist())


def test_s_of_prime_examples(rational):
    o = origin(rational, 2)
    P2 = pr.split_prime(rational, 2)[0]
    P3 = pr.split_prime(rational, 3)[0]
    assert pr.s_of_prime([o], P2) == 1
    S = [o, il.point(rational, [[3], [3]])]
    assert pr.s_of_prime(S, P3) == 1
    assert pr.s_of_prime(S, P2) == 2
    S2 = [o, il.point(rational, [[1], [1]])]
    for p in (2, 3, 5, 7, 11):
        assert pr.s_of_prime(S2, pr.split_prime(rational, p)[0]) == 2


def test_s_of_prime_saturates_for_admissible_sets(gaussian):
    # pairwise-visible S: s(p) = |S| once N(p)^m exceeds the pairwise bound
    S = [origin(gaussian, 2), il.point(gaussian, [[1, 0], [0, 1]])]
    bound = max(abs((a - b).norm())
                for s, t in [(S[0], S[1])]
                for a, b in zip(s.points, t.points) if not (a - b).is_zero())
    for P in pr.primes_up_to_norm(gaussian, 50):
        if P.norm ** 2 > bound:
            assert pr.s_of_prime(S, P) == len(S)


def test_is_prime():
    assert pr.is_prime(2) and pr.is_prime(10 ** 9 + 7)
    assert not pr.is_prime(1) and not pr.is_prime(561) and not pr.is_prime(10 ** 9)
