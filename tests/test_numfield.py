import os
import random
import subprocess
import sys
import warnings

import pytest

import visilat
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
    for d in (0, 1, 4, 12, 18, -8):
        with pytest.raises(FieldError):
            nf.make_field("quadratic", d=d)


def test_reject_bad_minpoly():
    with pytest.raises(FieldError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            nf.make_field("monogenic", minpoly=[-1, 0, 1])  # x^2 - 1
    with pytest.raises(FieldError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            nf.make_field("monogenic", minpoly=[0, 0, 2])  # not monic


@pytest.mark.parametrize("mp", [[-1, 0, 0, 1],          # (x - 1)(x^2 + x + 1)
                                [4, 0, 0, 0, 1],        # (x^2 + 2x + 2)(x^2 - 2x + 2)
                                [0, 1, 0, 0, 0, 1],     # x (x^4 + 1)
                                [1, 0, -1, 2, 0, 0, 1]])  # x^6 + 2x^3 - x^2 + 1
def test_reducible_minpoly_refused(mp):
    # x^6 + 2x^3 - x^2 + 1 = (x^3 - x + 1)(x^3 + x + 1)
    with pytest.raises(FieldError, match="reducible"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            nf.make_field("monogenic", minpoly=mp)


def test_x4_plus_1_accepted_through_sympy():
    # reducible mod every prime, so no small p proves it irreducible and
    # the decision falls to sympy
    assert all([e for _, e in pr.poly_factor_mod_p([1, 0, 0, 0, 1], p)] != [1]
               for p in nf.rational_primes_up_to(100))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert nf.make_field("monogenic", minpoly=[1, 0, 0, 0, 1]).degree == 4


def test_cubic_config_does_not_import_sympy():
    # x^3 - x - 1 is irreducible mod 2: a fresh interpreter loading a cubic
    # config never imports sympy
    code = ("import sys, warnings\n"
            "warnings.simplefilter('ignore')\n"
            "from visilat import experiment\n"
            "experiment.load_config({'field': {'kind': 'monogenic',"
            " 'minpoly': [-1, -1, 0, 1]}, 'm': 2,"
            " 's': [[[0, 0, 0], [0, 0, 0]]], 'modes': ['mc', 'lemma-check'],"
            " 'regions': [{'shape': 'ball', 'R': 30}]})\n"
            "assert 'sympy' not in sys.modules\n")
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
        nf.make_field("quadratic", d=2)  # whitelisted: no warning


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
    assert element_from_poly(gaussian, (1, 0, 1)).coords == (0, 0)
    assert element_from_poly(gaussian, (3, 2)).coords == (3, 2)


def test_field_json_roundtrip(rational, gaussian, cubic):
    for f in (rational, gaussian):
        assert nf.field_from_json(f.to_json()) == f
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert nf.field_from_json(cubic.to_json()) == cubic


def test_element_validation(gaussian):
    with pytest.raises(ValueError):
        gaussian.element((1,))
