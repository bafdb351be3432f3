import ast
import importlib
import pkgutil

import pytest

import visilat
from visilat import density as dn
from visilat import ideals as il
from visilat import numfield as nf
from visilat import primes as pr

from test_readme import quick_start

# names no command uses: deleted, or moved to tests/oracles.py
GONE = [(il, "unit_ideal"), (il, "ideal_sum"), (il, "ideal_mul"),
        (il, "contains"), (dn, "zeta_recip_truncated"),
        (dn.PredictionInterval, "mid"), (nf, "AlgInt"), (nf.FieldSpec, "element"),
        (nf.FieldSpec, "zero"), (nf.FieldSpec, "one"), (nf, "element_from_poly"),
        (pr, "residue_ids"), (pr, "poly_factor_mod_p"), (pr, "quadratic_f")]


def test_all_names_resolve():
    assert len(set(visilat.__all__)) == len(visilat.__all__)
    for name in visilat.__all__:
        assert getattr(visilat, name) is not None, name


def test_readme_quick_start_names_exported():
    imported = [a.name for node in ast.walk(ast.parse(quick_start()))
                if isinstance(node, ast.ImportFrom) and node.module == "visilat"
                for a in node.names]
    assert imported and set(imported) <= set(visilat.__all__)


@pytest.mark.parametrize("owner, name", GONE,
                         ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in GONE])
def test_test_only_names_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(visilat, name) and name not in visilat.__all__


def test_kept_caches():
    # the lru_caches left in the program; the other per-field and per-region
    # caches live on the FieldSpec (splits) and the Region (runs)
    found = {f"{info.name}.{name}" for info in pkgutil.iter_modules(visilat.__path__)
             for name, obj in vars(importlib.import_module(f"visilat.{info.name}")).items()
             if hasattr(obj, "cache_info") and obj.__module__ == f"visilat.{info.name}"}
    assert found == {"primes._split_prime_cached", "ideals._tensor", "ideals.minors",
                     "ideals._leibniz"}
