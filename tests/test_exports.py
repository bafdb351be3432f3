import ast

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
        (dn.PredictionInterval, "mid"), (nf.AlgInt, "__add__"),
        (nf.AlgInt, "__neg__"), (nf.AlgInt, "__mul__"), (nf.AlgInt, "__sub__"),
        (nf.AlgInt, "is_zero"), (nf.AlgInt, "norm"), (nf.FieldSpec, "zero"),
        (nf.FieldSpec, "one"), (nf, "element_from_poly"), (pr, "residue_ids")]


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
