import math
import random
import warnings

import numpy as np
import pytest

from visilat import ideals as il
from visilat import numfield as nf
from visilat import primes as pr

from conftest import origin
from oracles import (contains, difference_norm_product, ideal_mul, prime_hnf,
                     residue_ids, sub)


FIELDS = [("rational", {}), ("quadratic", {"d": -1}), ("quadratic", {"d": 5}),
          ("quadratic", {"d": -5}), ("monogenic", {"minpoly": [-1, -1, 0, 1]}),
          ("monogenic", {"minpoly": [1, -3, 0, 1]}), ("monogenic", {"minpoly": [1, 0, 0, 0, 1]}),
          ("monogenic", {"minpoly": [-1, -1, 0, 0, 1]}), ("monogenic", {"minpoly": [1] * 7})]
SMALL_PRIMES = nf.rational_primes_up_to(3000)
FIELD_IDS = ["Q", "Q(i)", "Q(sqrt5)", "Q(sqrt-5)", "x3-x-1", "x3-3x+1", "x4+1", "x4-x-1",
             "x6+...+1"]


def _field(kind, kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # not on the class-number-one whitelist
        return nf.make_field(kind, **kw)


def _spec(f):
    """A FieldSpec of any monic f, reducible over Q or not, for the engine."""
    n = len(f) - 1
    return nf.FieldSpec("monogenic", n, ("1",) * n, nf._power_basis_tensor(tuple(f)), tuple(f))


def _factors(field, ps):
    """The engine's (g, e) pairs for each p of ps."""
    return [tuple((P.gpoly, P.e) for P in Ps) for Ps in pr.split_primes(field, ps)]


def _sympy_factors(f, p):
    """The factorization of f mod p by sympy, in the engine's form."""
    from sympy import Poly, Symbol

    fl = Poly(list(reversed(f)), Symbol("x"), modulus=p).factor_list()[1]
    return tuple(sorted((tuple(int(c) % p for c in reversed(g.all_coeffs())), e)
                        for g, e in fl))


def test_engine_examples(gaussian):
    # x^2 + 1 splits mod 5, is inert mod 3 and is (x + 1)^2 mod 2
    assert _factors(gaussian, [5, 3, 2]) == [
        (((2, 1), 1), ((3, 1), 1)), (((1, 0, 1), 1),), (((1, 1), 2),)]
    assert pr.factor_degrees(gaussian, [5, 3, 2]).tolist() == [[2, 0], [0, 1], [1, 0]]
    assert pr.split_primes(gaussian, []) == [] and pr.factor_degrees(gaussian, []).shape == (0, 2)


def test_factor_mod_2_equal_degree():
    # x^6 + ... + 1 = (x^3 + x + 1)(x^3 + x^2 + 1) mod 2: the Frobenius stage
    # hands over one piece of two cubics, and only the splitting stage's
    # trace map at p = 2 can part them
    cyclo7 = _field("monogenic", {"minpoly": [1] * 7})
    assert pr.factor_degrees(cyclo7, [2]).tolist() == [[0, 0, 2, 0, 0, 0]]
    assert _factors(cyclo7, [2]) == [(((1, 0, 1, 1), 1), ((1, 1, 0, 1), 1))]


@pytest.mark.parametrize("kind, kw", FIELDS, ids=FIELD_IDS)
def test_engine_matches_sympy(kind, kw):
    # the engine against an independent factorization at every p <= 3000
    field = _field(kind, kw)
    got = _factors(field, SMALL_PRIMES)
    assert got == [_sympy_factors(field.gen_minpoly, p) for p in SMALL_PRIMES]


@pytest.mark.parametrize("kind, kw", FIELDS, ids=FIELD_IDS)
def test_factor_degrees_match_split_prime(kind, kw):
    # at every unramified p <= 3000 the Frobenius stage alone counts the
    # primes of each norm p^d that the whole engine finds, one p at a time
    # (split_prime) or all at once
    field = _field(kind, kw)
    ps = [p for p in SMALL_PRIMES if field.discriminant % p]
    want = [[[len(g) - 1 for g, _ in fac].count(d) for d in range(1, field.degree + 1)]
            for fac in _factors(field, ps)]
    assert pr.factor_degrees(field, ps).tolist() == want
    for p, row in list(zip(ps, want))[:40]:
        fs = [P.f for P in pr.split_prime(field, p)]
        assert row == [fs.count(d) for d in range(1, field.degree + 1)], p


def test_engine_lanes_past_int64(gaussian, cubic):
    # a chunk is int64 while 2 n^2 t (p-1)^2 < 2^63, t the largest entry of
    # the multiplication tensor, else object: primes on both sides of that
    # switch and near 10^12 (a far-away S in the sieve) agree with sympy,
    # alone or in one chunk
    for field in (gaussian, cubic):
        n, t = field.degree, max(abs(c) for c in np.ravel(field.mult_tensor))
        edge = math.isqrt((2 ** 63 - 1) // (2 * n * n * t)) + 1  # the largest p passing
        below = next(p for p in range(edge, 0, -1) if pr.is_prime(p))
        above = next(p for p in range(edge + 1, 2 * edge) if pr.is_prime(p))
        assert [next(pr._lanes(field, [p]))[0].dtype for p in (below, above)] == [np.int64, object]
        ps = [below, above, 999999999989, 1000000000039]
        want = [_sympy_factors(field.gen_minpoly, p) for p in ps]
        assert _factors(field, ps) == want
        assert [_factors(field, [p])[0] for p in ps] == want


def test_engine_coefficients_past_int64():
    # coefficients and discriminants in [2^63, 2^64), where numpy would take
    # uint64, and beyond: reduced mod p exactly, ramified p included
    for f in ((2 ** 63 + 5, 3, 1), (1, 2 ** 64 - 59, 0, 1), (-(3 ** 45), 7, 2 ** 70, 1)):
        ps = [p for p in SMALL_PRIMES[:60]] + [p for p in SMALL_PRIMES if _spec(f).discriminant % p == 0]
        assert _factors(_spec(f), ps) == [_sympy_factors(f, p) for p in ps]


def test_splitting_stage_gives_up_on_a_piece_it_cannot_split(monkeypatch):
    # x^2 + 1 is irreducible mod 3, no product of linear factors: no draw
    # parts it, and the stage stops after SPLIT_ROUNDS rounds; a fresh field
    # has no splits to answer from
    monkeypatch.setattr(pr, "_frobenius", lambda *a: (
        np.array([0]), np.array([1]), np.array([[1], [0], [1], [0]])))
    with pytest.raises(RuntimeError, match="did not split in 64 rounds"):
        pr.split_primes(_spec((-1, -1, 0, 1)), [3])


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
    # random monic f of degree 1 to 6 over small p, repeated factors and
    # p = 2 included: the factors multiply back to f, and those of degree 2
    # or 3 have no root
    rng = random.Random(101)
    for p in (2, 3, 5, 7, 13):
        for _ in range(20):
            f = (1,)
            for _ in range(rng.randint(1, 3)):
                g = tuple(rng.randrange(p) for _ in range(rng.randint(1, 2))) + (1,)
                f = _pmul(f, _pmul(g, g, p) if rng.random() < 0.3 else g, p)
            (factors,) = _factors(_spec(f), [p])
            prod = (1,)
            for g, m in factors:
                assert g[-1] == 1
                for _ in range(m):
                    prod = _pmul(prod, g, p)
                # degree 2 or 3 over F_p is irreducible iff it has no root
                if 2 <= len(g) - 1 <= 3:
                    assert not _has_root(g, p)
            assert prod == f


def test_factor_independent_of_global_random():
    # x^5 - x has five linear factors mod 13, so the splitting stage draws
    # random elements; they come from fixed draws, not a global generator
    for f in ((2, 0, 3, 0, 1, 1), (0, 12, 0, 0, 0, 1)):
        random.seed(1)
        np.random.seed(1)
        first = _factors(_spec(f), [13])
        random.seed(2)
        np.random.seed(2)
        state = random.getstate(), np.random.get_state()[1].tolist()
        assert _factors(_spec(f), [13]) == first
        assert (random.getstate(), np.random.get_state()[1].tolist()) == state


def _digits(a, P):
    """The residue of a mod P as f digits over F_p, read off pr.residues."""
    return tuple(pr.residues([P], np.array([a], dtype=object))[1][0, 0].tolist())


def test_split_examples(gaussian):
    five = pr.split_prime(gaussian, 5)
    assert [(P.f, P.e, P.norm) for P in five] == [(1, 1, 5), (1, 1, 5)]
    three = pr.split_prime(gaussian, 3)
    assert [(P.f, P.e, P.norm) for P in three] == [(2, 1, 9)]
    two = pr.split_prime(gaussian, 2)
    assert [(P.f, P.e, P.norm) for P in two] == [(1, 2, 2)]


def test_split_completeness(gaussian, root2, golden, eisenstein, cubic):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cyclo7 = nf.make_field("monogenic", minpoly=[1] * 7)
    # the 7th cyclotomic field: 2 splits into two primes of degree f = 3
    assert cyclo7.discriminant == -16807
    assert [(P.e, P.f) for P in pr.split_prime(cyclo7, 2)] == [(1, 3), (1, 3)]
    for field in (gaussian, root2, golden, eisenstein, cubic, cyclo7):
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            primes = pr.split_prime(field, p)
            assert sum(P.e * P.f for P in primes) == field.degree
            prod = il.ideal_from_generators(field, [[1] + [0] * (field.degree - 1)])
            for P in primes:
                for _ in range(P.e):
                    prod = ideal_mul(prod, prime_hnf(P))
            pideal = il.ideal_from_generators(field, [[p] + [0] * (field.degree - 1)])
            assert prod == pideal


def test_prime_hnf_is_maximal(gaussian, cubic):
    for field in (gaussian, cubic):
        for p in (2, 3, 5, 7):
            for P in pr.split_prime(field, p):
                assert contains(prime_hnf(P), [p] + [0] * (field.degree - 1))
                assert P.norm == prime_hnf(P).norm == p ** P.f


def _quadratic_fields():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # d = -5, 10 are not PIDs
        fields = [nf.make_field("quadratic", d=d)
                  for d in (-1, -2, -3, -7, -11, 2, 3, 5, 13, -5, 10)]
        return fields + [nf.make_field("monogenic", minpoly=[3, 1, 1])]


@pytest.mark.parametrize("field", _quadratic_fields(), ids=repr)
def test_quadratic_primes_are_ideals_of_generators(field):
    # every P is (p, g(theta)) of norm N(P), and the P above p multiply, with
    # their e, back to (p); split, inert and ramified p all occur below 3000
    kinds, window = set(), pr.window_first_t(field, len(SMALL_PRIMES))
    for p in SMALL_PRIMES:
        prod = il.ideal_from_generators(field, [[1, 0]])
        for P in (P for P in window if P.under_p == p):
            assert prime_hnf(P).norm == P.norm
            kinds.add((P.e, P.f))
            for _ in range(P.e):
                prod = ideal_mul(prod, prime_hnf(P))
        assert prod == il.ideal_from_generators(field, [[p, 0]])
    assert kinds == {(1, 1), (1, 2), (2, 1)}


def test_primes_up_to_norm_is_one_batch(gaussian, monkeypatch):
    # every rational prime up to the bound goes through one engine call, and
    # none through split_prime's cache
    calls = []
    split = pr.split_primes
    monkeypatch.setattr(pr, "split_primes", lambda f, ps: calls.append(len(ps)) or split(f, ps))
    pr._split_prime_cached.cache_clear()
    primes = pr.primes_up_to_norm(gaussian, 10 ** 4)
    assert calls == [1229] and pr._split_prime_cached.cache_info().currsize == 0
    assert len(primes) == 1 + 2 * 609 + 13  # p = 2, split p < 10^4, inert p < 100
    assert all(P.norm == prime_hnf(P).norm for P in primes)


def test_split_caches_are_bounded(gaussian):
    # a norm enumeration leaves split_prime's cache and the field's splits
    # within their fixed size
    assert pr._split_prime_cached.cache_info().maxsize == pr.CACHE_SIZE
    assert len(pr.primes_up_to_norm(gaussian, 10 ** 5)) == 9601
    assert pr._split_prime_cached.cache_info().currsize <= pr.CACHE_SIZE
    assert len(gaussian.splits) == pr.CACHE_SIZE


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
    assert [P.under_p for P in w] == [2, 3, 5, 5]
    for p in {P.under_p for P in w}:
        assert sum(P.e * P.f for P in w if P.under_p == p) == 2


def test_reduce_examples(gaussian):
    P2 = pr.split_prime(gaussian, 2)[0]
    assert _digits((3, 2), P2) == (1,)
    P5 = [P for P in pr.split_prime(gaussian, 5) if P.gpoly == (3, 1)][0]
    assert _digits((0, 1), P5) == (2,)  # P = (5, i-2)
    # anything in P reduces to zero
    assert not any(_digits((1, 1), P2))


def _prem(a, g, p):
    """The remainder of a by the monic g over F_p, as deg g coefficients."""
    a, k = list(a) + [0] * len(g), len(g) - 1
    for i in range(len(a) - 1, k - 1, -1):
        a[i - k:i + 1] = [(x - a[i] * y) % p for x, y in zip(a[i - k:i + 1], g)]
    return tuple(x % p for x in a[:k])


def test_reduce_is_ring_hom(gaussian, cubic):
    rng = random.Random(31)
    for field in (gaussian, cubic):
        for p in (2, 3, 5, 7):
            for P in pr.split_prime(field, p):
                for _ in range(20):
                    a = [rng.randint(-9, 9) for _ in range(field.degree)]
                    b = [rng.randint(-9, 9) for _ in range(field.degree)]
                    ra, rb = _digits(a, P), _digits(b, P)
                    a_plus_b = [x + y for x, y in zip(a, b)]
                    assert _digits(a_plus_b, P) == tuple(
                        (x + y) % p for x, y in zip(ra, rb))
                    prod = [0] * (2 * P.f - 1)
                    for i, x in enumerate(ra):
                        for j, y in enumerate(rb):
                            prod[i + j] += x * y
                    red = _prem(prod, P.gpoly, p)
                    ab = nf.mul_coords(field, a, b)
                    assert _digits(ab, P) == red


def test_reduce_zero_iff_contains(gaussian):
    rng = random.Random(37)
    for p in (2, 3, 5, 13):
        for P in pr.split_prime(gaussian, p):
            for _ in range(30):
                a = (rng.randint(-15, 15), rng.randint(-15, 15))
                assert (not any(_digits(a, P))) == contains(prime_hnf(P), a)


@pytest.mark.parametrize("fname", ["gaussian", "golden", "cubic"])
def test_residue_ids(request, fname):
    field = request.getfixturevalue(fname)
    n = field.degree
    rng = random.Random(53)
    rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(40)]
    coords = np.array(rows, dtype=np.int64)
    for p in (2, 3, 5, 7):
        plist = pr.split_prime(field, p)
        # the primes above p at once: each one's residues, zero-padded
        q, chunk = pr.residues(plist, coords)
        assert q.ravel().tolist() == [p] * len(plist)
        assert chunk.shape == (len(plist), len(rows), max(P.f for P in plist))
        for P, padded in zip(plist, chunk):
            _, (res,) = pr.residues([P], coords)
            assert res.shape == (len(rows), P.f)
            assert res.min() >= 0 and res.max() < p
            assert padded[:, :P.f].tolist() == res.tolist() and not padded[:, P.f:].any()
            for i, a in enumerate(rows):
                for j, b in enumerate(rows):
                    diff = [x - y for x, y in zip(a, b)]
                    assert (res[i] == res[j]).all() == contains(prime_hnf(P), diff)
            # rows of S far beyond int64 keep their exact class
            big = np.array([[x + rng.choice([1, -1]) * p * 2 ** 70
                             for x in r] for r in rows[:5]], dtype=object)
            assert pr.residues([P], big)[1][0].tolist() == res[:5].tolist()
            # int64 rows near +-2^62, or -2^63 (whose int64 abs wraps), must
            # be reduced before the product; they agree with the object path
            near = [[s * 2 ** 62 + x for x in r] for r in rows[:5] for s in (1, -1)]
            for huge in (near, [[-2 ** 63] * n, [1] * n]):
                huge = np.array(huge, dtype=np.int64)
                assert (pr.residues([P], huge)[1].tolist()
                        == pr.residues([P], huge.astype(object), 2 ** 63)[1].tolist())


def test_residues_dtype_switch(gaussian, cubic):
    # int64 exactly while n (p-1) max(p-1, b) < 2^63, else object, with the
    # same residues on both sides: b at the switch, and p on either side of
    # 2^31, where 2 (p-1)^2 passes 2^63 in Q(i); the residues, packed base p,
    # are the reference's residue ids
    rng = random.Random(59)
    at_zero = set()
    for field, ps in ((gaussian, (2, 7, 2 ** 31 - 1, 2 ** 31 + 11, 8589934627)),
                      (cubic, (2, 5, 2 ** 31 - 1))):
        n = field.degree
        coords = np.array([[rng.randint(-10 ** 12, 10 ** 12) for _ in range(n)]
                           for _ in range(20)], dtype=np.int64)
        for p in ps:
            plist = pr.split_prime(field, p)
            edge = (2 ** 63 - 1) // (n * (p - 1))  # the largest b with n (p-1) b < 2^63
            got = set()
            for b in (0, edge, edge + 1):
                _, r = pr.residues(plist, coords, b)
                want = np.int64 if n * (p - 1) * max(p - 1, b) < 2 ** 63 else object
                assert r.dtype == want, (p, b)
                at_zero |= {(n, p, want)} if b == 0 else set()
                got.add(str(r.tolist()))
                for P, res in zip(plist, r):
                    packed = np.array(res[:, :P.f], dtype=object) @ p ** np.arange(P.f, dtype=object)
                    assert packed.tolist() == residue_ids(P, coords).tolist(), (p, b)
            assert len(got) == 1
    assert {(2, 2 ** 31 - 1, np.int64), (2, 2 ** 31 + 11, object)} <= at_zero


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
    bound = max(abs(nf.norm_of_coords(gaussian, d))
                for s, t in [(S[0], S[1])]
                for d in (sub(a, b) for a, b in zip(s, t)) if any(d))
    for P in pr.primes_up_to_norm(gaussian, 50):
        if P.norm ** 2 > bound:
            assert pr.s_of_prime(S, P) == len(S)


def test_s_of_prime_past_int64_norm(gaussian):
    # the inert p = 8 589 934 627 > 2^33 has N(P) = p^2 > 2^66: residues are
    # never packed, so nothing bounds N(P); (p, 0) and (0, p) lie in P
    p = 8589934627
    (P,) = pr.split_prime(gaussian, p)
    assert P.f == 2 and P.norm > 2 ** 66
    S = [origin(gaussian, 2), il.point(gaussian, [[p, 0], [0, p]]),
         il.point(gaussian, [[1, 0], [0, 0]])]
    assert pr.s_of_prime(S, P) == 2


def _lemma_s(S, plist):
    """s(P) by the difference-ideal lemma, as the Euler product takes it."""
    prod = pr.difference_norm_product(plist[0].field, S)
    return [pr.s_of_prime(S, P) if prod % P.under_p == 0 else len(S)
            for P in plist]


@pytest.mark.parametrize("fname", ["rational", "gaussian", "golden", "cubic"])
def test_difference_lemma_matches_s_of_prime(request, fname):
    # the difference-ideal lemma against s_of_prime's residue tuples, on
    # every P of norm <= 10^4; the points differ by multiples of 30, 7, 2^40
    # and 2^70, so their residues collide at 2, 3, 5 and 7 at least
    field = request.getfixturevalue(fname)
    n = field.degree
    plist = pr.primes_up_to_norm(field, 10 ** 4)
    rng = random.Random(67)
    a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(2)]
    shifted = [[x + 30 * (i + 1) for i, x in enumerate(r)] for r in a]
    S3 = [il.point(field, a), il.point(field, shifted),
          il.point(field, [[x + 7 * (r[0] + 2) for x in r] for r in a])]
    # differences past int64: their norms are exact Python integers
    big = [[il.point(field, a), il.point(field, [[x + e for x in r] for r in a])]
           for e in (2 ** 40, 2 ** 70)]
    # a repeated point: a zero difference ideal of norm 0 divisible by every p
    dup = [S3[0], S3[1], S3[0]]
    # 5 = (2 + i)(2 - i) in Z[i]: the difference (2 + i, 4 + 2i) lies in one
    # prime above 5 and not in its conjugate
    split = ([[origin(field, 2), il.point(field, [[2, 1], [4, 2]])]]
             if fname == "gaussian" else [])
    assert {P.f for P in plist} >= ({1, 2, 3} if fname == "cubic" else {1})
    assert _lemma_s(S3[:1], plist) == [1] * len(plist)
    for S in [S3[:1], S3[:2], S3, dup] + big + split:
        got = _lemma_s(S, plist)
        assert got == [pr.s_of_prime(S, P) for P in plist]
        assert min(got) < len(S) or len(S) == 1
    assert _lemma_s(dup, plist) == _lemma_s(S3[:2], plist)
    for S in split:
        assert sorted(_lemma_s(S, pr.split_prime(field, 5))) == [1, 2]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kind, kw", [
    ("rational", {}), ("quadratic", {"d": -1}),
    ("monogenic", {"minpoly": [-1, -1, 0, 1]}), ("monogenic", {"minpoly": [1, 0, 0, 0, 1]})],
    ids=["degree1", "degree2", "degree3", "degree4"])
def test_difference_norm_product_matches_hnf(kind, kw, m):
    # the kernel's one call over the pairs of S against one HNF per pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = nf.make_field(kind, **kw)
    n = field.degree
    rng = random.Random(f"{kind}{kw}{m}")

    def near(a, g):
        """a + g c for a random cofactor c: differences lie in (g)."""
        c = [rng.randint(-3, 3) for _ in range(n)]
        return [x + y for x, y in zip(a, nf.mul_coords(field, g, c))]

    wants = []
    for base in (0, 2 ** 40):  # near 2^40 a degree >= 2 takes the object path
        for k in (2, 3, 4):
            g = [rng.randint(1, 3)] + [rng.randint(-1, 1) for _ in range(n - 1)]
            a = [[base + rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            S = [[near(r, g) for r in a] for _ in range(k)]
            want = difference_norm_product(field, S)
            assert pr.difference_norm_product(field, S) == want
            wants.append(want)
        assert pr.difference_norm_product(field, S + S[:1]) == 0
    assert len(set(wants)) > 3
    lanes = np.array(S[:2], dtype=object)
    assert il.ideal_index(field, lanes, S[2]).dtype == (object if n > 1 else np.int64)


def test_split_refuses_a_non_divisor(monkeypatch):
    # x^3 - x - 1 = (x + 2)(x^2 + 5x + 3) mod 7; a splitting stage that gave
    # x in place of x + 2 keeps the degree sum 3, but x divides f no time; a
    # fresh field has no splits to answer from
    field = _spec((-1, -1, 0, 1))
    monkeypatch.setattr(pr, "_equal_degree", lambda *a: (
        np.array([0, 0]), np.array([[0, 3], [1, 5], [0, 1], [0, 0]])))
    with pytest.raises(RuntimeError, match=r"\[\(\(0, 1\), 0\), \(\(3, 5, 1\), 1\)\] do not multiply"):
        pr.split_primes(field, [7])
    pr._split_prime_cached.cache_clear()
    with pytest.raises(RuntimeError, match="do not multiply"):
        pr.split_prime(field, 7)
    assert 7 not in field.splits


@pytest.mark.parametrize("fname", ["gaussian", "golden", "cubic"])
def test_split_refuses_a_composite(request, fname):
    # the closed form for quadratic fields would take 15 for a prime of norm
    # 225; every field refuses it, and so does a norm enumeration over it
    field = request.getfixturevalue(fname)
    for p in (15, 21, 25):
        with pytest.raises(ValueError, match=f"{p} is not prime"):
            pr.split_prime(field, p)
    with pytest.raises(ValueError, match="15 is not prime"):
        pr.primes_up_to_norm(field, 100, [15])


def test_is_prime():
    assert pr.is_prime(2) and pr.is_prime(10 ** 9 + 7) and pr.is_prime(2 ** 61 - 1)
    assert not pr.is_prime(1) and not pr.is_prime(561) and not pr.is_prime(10 ** 9)
    # strong pseudoprimes to every prime base up to 7, 23 and 37: the last
    # passes all twelve bases 2, ..., 37 and is caught by 41
    for n in (3215031751, 3825123056546413051, 318665857834031151167461, (2 ** 31 - 1) ** 2):
        assert not pr.is_prime(n)
    assert [n for n in range(200) if pr.is_prime(n)] == nf.rational_primes_up_to(199)
