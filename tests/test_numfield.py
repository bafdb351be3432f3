import math
import os
import random
import subprocess
import sys
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import visilat
from visilat import counting as ct
from visilat import ideals as il
from visilat import numfield as nf
from visilat import primes as pr
from visilat.errors import FieldError

from oracles import element_from_poly


def test_gaussian_field(gaussian):
    assert gaussian.degree == 2
    assert gaussian.discriminant == -4
    assert gaussian.basis_labels == ("1", "sqrt(-1)")
    assert gaussian.gen_minpoly == (1, 0, 1)


def test_rational_field(rational):
    assert rational.degree == 1
    assert rational.discriminant == 1
    assert rational.mult_tensor == (((1,),),)


def test_golden_field(golden):
    # d = 5 = 1 (mod 4): half-integer basis, discriminant d itself
    assert golden.discriminant == 5
    assert golden.gen_minpoly == (-1, -1, 1)
    assert nf.mul_coords(golden, (0, 1), (0, 1)) == (1, 1)  # theta^2 = theta + 1


def test_reject_bad_d():
    # |d| >= 2^63 is refused before any squarefree test
    for d in (0, 1, 4, 12, 18, -8, 2 ** 63, -(2 ** 63), 10 ** 30 + 3):
        with pytest.raises(FieldError, match=f"d={d} must"):
            nf.make_field("quadratic", d=d)


def test_squarefree_matches_trial_division():
    def naive(d):
        return all(d % (k * k) for k in range(2, math.isqrt(abs(d)) + 1))

    for d in list(range(-3000, 0)) + list(range(2, 3000)):
        assert nf._is_squarefree(d) == naive(d), d
    # 2^63 - 1 = 7^2 73 127 337 92737 649657; 2^63 - 25 is prime
    assert not nf._is_squarefree(-(2 ** 63 - 1)) and nf._is_squarefree(2 ** 63 - 25)
    rng = random.Random(5)
    for _ in range(2000):
        d = rng.choice([-1, 1]) * rng.randint(2, 10 ** 7)
        assert nf._is_squarefree(d) == naive(d), d


@pytest.mark.parametrize("d, ok", [(7 * (10 ** 6 + 3) ** 2, False),
                                   (999983 * 1000003 * 999979, True),
                                   (-(10 ** 15 + 37), True)])
def test_squarefree_large_d_is_fast(d, ok):
    # the primes up to the cube root of |d|, then one square test: not a
    # loop up to sqrt(|d|)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if ok:
            assert nf.make_field("quadratic", d=d).d == d
        else:
            with pytest.raises(FieldError, match="squarefree"):
                nf.make_field("quadratic", d=d)
    assert time.perf_counter() - start < 0.1


def test_reject_bad_minpoly():
    with pytest.raises(FieldError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            nf.make_field("monogenic", minpoly=[-1, 0, 1])  # x^2 - 1
    with pytest.raises(FieldError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            nf.make_field("monogenic", minpoly=[0, 0, 2])  # not monic


SWINNERTON_DYER_8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]  # roots +-sqrt2 +-sqrt3 +-sqrt5


@pytest.mark.parametrize("mp", [[-1, 0, 0, 1],          # (x - 1)(x^2 + x + 1)
                                [4, 0, 0, 0, 1],        # (x^2 + 2x + 2)(x^2 - 2x + 2)
                                [0, 1, 0, 0, 0, 1],     # x (x^4 + 1)
                                [1, 0, -1, 2, 0, 0, 1],  # x^6 + 2x^3 - x^2 + 1
                                [1, -2, 1],             # (x - 1)^2: disc 0
                                [-2 ** 64, 1, -2 ** 64, 1]])  # (x - 2^64)(x^2 + 1)
def test_reducible_minpoly_refused(mp):
    # x^6 + 2x^3 - x^2 + 1 = (x^3 - x + 1)(x^3 + x + 1)
    with pytest.raises(FieldError, match="reducible"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            nf.make_field("monogenic", minpoly=mp)


@pytest.mark.parametrize("mp", [[1, 0, 0, 0, 1], [1, 0, -10, 0, 1], SWINNERTON_DYER_8,
                                [2, 2 ** 65, 0, 1]],
                         ids=["x^4+1", "x^4-10x^2+1", "swinnerton-dyer-8", "eisenstein-2^65"])
def test_reducible_mod_every_prime_accepted(mp):
    # the first three split mod every prime, so no single p shows them
    # irreducible: the lifts of the products of their factors mod one p
    # divide none of them; x^3 + 2^65 x + 2 is Eisenstein at 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        field = nf.make_field("monogenic", minpoly=mp)
    assert field.gen_minpoly == tuple(mp)
    if mp[1] < 2 ** 65:
        assert not pr.factor_degrees(field, nf.rational_primes_up_to(100))[:, -1].any()


def test_irreducibility_matches_sympy():
    # seeded: 320 monic f of degree 2-8, half of them built as products
    from sympy import Poly, Symbol

    rng = random.Random(29)

    def monic(n, c):
        return [rng.randint(-c, c) for _ in range(n)] + [1]

    refused = 0
    for i in range(320):
        if i % 2:
            a = rng.randint(1, 4)
            mp = np.polymul(monic(a, 4)[::-1], monic(rng.randint(1, 8 - a), 4)[::-1])
            mp = [int(c) for c in mp[::-1]]
        else:
            mp = monic(rng.randint(2, 8), 9)
        want = Poly(mp[::-1], Symbol("x")).is_irreducible
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                nf.make_field("monogenic", minpoly=mp)
                got = True
            except FieldError:
                got = False
                refused += 1
        assert got == want, mp
    assert 160 <= refused < 320


def test_monogenic_fields_without_sympy():
    # a fresh interpreter that cannot import sympy builds and refuses fields,
    # loads a cubic config, and runs the field subcommand
    code = ("import sys, warnings\n"
            "sys.modules['sympy'] = None\n"
            "warnings.simplefilter('ignore')\n"
            "from visilat import numfield as nf\n"
            "from visilat.errors import FieldError\n"
            f"for mp in ([1, 0, 0, 0, 1], [-1, -1, 0, 1], {SWINNERTON_DYER_8}):\n"
            "    nf.make_field('monogenic', minpoly=mp)\n"
            "for mp in ([-1, 0, 1], [0, 1, 0, 0, 0, 1]):\n"
            "    try:\n"
            "        nf.make_field('monogenic', minpoly=mp)\n"
            "    except FieldError:\n"
            "        continue\n"
            "    raise SystemExit(f'{mp} accepted')\n"
            "from visilat import experiment\n"
            "experiment.load_config({'field': {'kind': 'monogenic',"
            " 'minpoly': [-1, -1, 0, 1]}, 'm': 2,"
            " 's': [[[0, 0, 0], [0, 0, 0]]], 'modes': ['mc', 'lemma-check'],"
            " 'regions': [{'shape': 'ball', 'R': 30}]})\n"
            # the field subcommand builds x^4+1 (exit 0) and refuses x^2-1 (exit 3)
            "import contextlib, io\n"
            "from visilat.cli import main\n"
            "for mp, want in (('[1,0,0,0,1]', 0), ('[-1,0,1]', 3)):\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stderr(err):\n"
            "        code = main(['field', '--field',"
            " '{\"kind\":\"monogenic\",\"minpoly\":%s}' % mp])\n"
            "    assert code == want and 'Traceback' not in err.getvalue(), (mp, code)\n")
    src = os.path.dirname(os.path.dirname(visilat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_whitelist_warning():
    with pytest.warns(UserWarning):
        nf.make_field("quadratic", d=10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        nf.make_field("monogenic", minpoly=[-1, -1, 0, 1])
    assert [str(w.message) for w in caught] == [
        'FieldSpec({"kind": "monogenic", "minpoly": [-1, -1, 0, 1]}, n=3) is '
        "not on the class-number-one whitelist; density formulas assume O is a PID"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # whitelisted, the last four by Baker-Stark: no warning
        for d in (2, -19, -43, -67, -163):
            nf.make_field("quadratic", d=d)


def test_mul_examples(gaussian, root2):
    assert nf.mul_coords(gaussian, (2, 1), (2, -1)) == (5, 0)
    assert nf.mul_coords(gaussian, (2, 1), (1, 0)) == (2, 1)
    assert nf.mul_coords(root2, (1, 1), (1, -1)) == (-1, 0)


def test_norm_examples(gaussian, root2, rational, cubic):
    assert nf.norm_of_coords(gaussian, (2, 1)) == 5
    for f in (gaussian, root2, rational, cubic):
        assert nf.norm_of_coords(f, (1,) + (0,) * (f.degree - 1)) == 1
    assert nf.norm_of_coords(root2, (1, 1)) == -1


def test_norm_multiplicative(gaussian, root2, golden, cubic):
    rng = random.Random(7)
    for field in (gaussian, root2, golden, cubic):
        for _ in range(50):
            a = [rng.randint(-9, 9) for _ in range(field.degree)]
            b = [rng.randint(-9, 9) for _ in range(field.degree)]
            ab = nf.mul_coords(field, a, b)
            assert nf.norm_of_coords(field, ab) == (nf.norm_of_coords(field, a)
                                                    * nf.norm_of_coords(field, b))


def test_ring_laws(gaussian, golden, cubic):
    rng = random.Random(11)
    for field in (gaussian, golden, cubic):
        for _ in range(30):
            a, b, c = ([rng.randint(-5, 5) for _ in range(field.degree)]
                       for _ in range(3))

            def mul(x, y):
                return nf.mul_coords(field, x, y)

            def add(x, y):
                return tuple(s + t for s, t in zip(x, y))

            assert mul(a, b) == mul(b, a)
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_quadratic_norm_closed_form():
    rng = random.Random(13)
    for d in (-1, -2, 2, 3, -7, 5, 13):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field = nf.make_field("quadratic", d=d)
        for _ in range(40):
            x, y = rng.randint(-20, 20), rng.randint(-20, 20)
            got = nf.norm_of_coords(field, (x, y))
            if d % 4 == 1:
                # x + y(1+sqrt(d))/2 has norm x^2 + xy + y^2 (1-d)/4
                assert got == x * x + x * y + y * y * (1 - d) // 4
            else:
                assert got == x * x - d * y * y


def test_cubic_discriminants(cubic):
    # depressed cubic x^3 + ax + b has discriminant -4a^3 - 27b^2
    assert cubic.discriminant == -23
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f2 = nf.make_field("monogenic", minpoly=[-2, 0, 0, 1])  # x^3 - 2
    assert f2.discriminant == -108


def test_discriminant_matches_sympy():
    # disc(f) = (-1)^(n(n-1)/2) N(f'(theta)) against sympy's resultant
    from sympy import Poly, Symbol, discriminant

    x = Symbol("x")
    rng = random.Random(17)
    checked = 0
    while checked < 12:
        n = rng.randint(2, 6)
        mp = [rng.randint(-6, 6) for _ in range(n)] + [1]
        poly = Poly(list(reversed(mp)), x)
        if not poly.is_irreducible:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            field = nf.make_field("monogenic", minpoly=mp)
        assert field.discriminant == discriminant(poly)
        checked += 1


def test_field_descriptor_refusals():
    # one dispatch: make_field's own message for every malformed descriptor
    for data, says in (([1], "JSON object"), ("null", "JSON object"),
                       ({"kind": "quadratic"}, "needs d"),
                       ({"kind": "quadratic", "d": [3]}, "d must be an integer"),
                       ({"kind": "monogenic"}, "needs a minimal polynomial"),
                       ({"kind": "monogenic", "minpoly": 5}, "minimal polynomial"),
                       ({"kind": "monogenic", "minpoly": [1, None, 1]},
                        "coefficient must be an integer"),
                       ({}, "unknown field kind None")):
        with pytest.raises(FieldError, match=says):
            nf.field_from_json(data)


def test_first_rational_primes():
    assert nf.first_rational_primes(0) == []
    assert nf.first_rational_primes(10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert nf.first_rational_primes(1000) == nf.rational_primes_up_to(7919)


def test_element_from_poly(gaussian):
    assert element_from_poly(gaussian, (1, 0, 1)) == (0, 0)
    assert element_from_poly(gaussian, (3, 2)) == (3, 2)


def test_field_json_roundtrip(rational, gaussian, cubic):
    for f in (rational, gaussian):
        assert nf.field_from_json(f.to_json()) == f
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert nf.field_from_json(cubic.to_json()) == cubic


@pytest.mark.parametrize("x", [Fraction(5, 2), Decimal("2.5"), np.float32(2.5),
                               2.5, True, np.True_, float("inf")],
                         ids=["Fraction", "Decimal", "float32", "float", "bool",
                              "numpy-bool", "inf"])
def test_as_int_refuses_non_integral_numbers(gaussian, x):
    # int() would truncate each fraction to 2 (or read True as 1)
    with pytest.raises(ValueError, match="is not an integer"):
        nf.as_int(x)
    with pytest.raises(ValueError, match="is not an integer"):
        ct.cube_region(gaussian, x)
    with pytest.raises(ValueError, match="is not an integer"):
        il.point(gaussian, [[x, 0], [0, 0]])


@pytest.mark.parametrize("x", [True, np.True_, np.False_], ids=["bool", "numpy-bool",
                                                                  "numpy-false"])
def test_as_real_refuses_bools(gaussian, x):
    # Fraction(np.True_) raises TypeError: a bool is refused as a bool, by name
    with pytest.raises(ValueError, match="is not a finite number"):
        nf.as_real(x)
    with pytest.raises(ValueError, match="is not a finite number"):
        ct.ball_region(gaussian, x)


@pytest.mark.parametrize("x", [Fraction(4, 2), Decimal("2"), np.float32(2.0), 2.0,
                               np.int64(2), "2"],
                         ids=["Fraction", "Decimal", "float32", "float", "int64", "str"])
def test_as_int_keeps_integral_numbers_and_strings(x):
    # a string takes int()'s rule: "2" is 2
    got = nf.as_int(x)
    assert got == 2 and type(got) is int


def test_element_validation(gaussian):
    with pytest.raises(ValueError):
        il.point(gaussian, [(1,)])
