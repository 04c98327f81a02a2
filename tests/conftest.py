"""Shared test fixtures."""

import json
from importlib import resources

import pytest

from qshift import partitions
from qshift.qseries import Series, mul, product_series

from oracles import first_difference, linear_combine


def _sum_by_series(terms, n):
    """(k, c) of the first nonzero coefficient through q^n of a sum of
    part_by_part.PartsTerm, or None, by the Series route: each term's
    product from product_series, times its sparse sums by mul, shifted
    to q^e and added with linear_combine, then compared with zero at
    order n by oracles.first_difference."""
    if not terms:
        return None
    parts = []
    for t in terms:
        m = n - t.e
        x = product_series(t.finite, t.inverse, m, t.scale)
        for s in t.sparse:
            coeffs = [0] * (max(m, 0) + 1)
            for e, c in s:
                if e <= m:
                    coeffs[e] += c
            x = mul(x, Series(0, coeffs, m))
        parts.append((t.c, Series(x.offset + t.e, x.coeffs, n)))
    total = linear_combine(parts)
    k = first_difference(total, Series.zero(n))
    return None if k is None else (k, total.coeff(k))


@pytest.fixture(autouse=True)
def cold_inference_memo():
    """Each test starts with partitions.infer_relation's memo empty, so a
    patched _cancelled, _pack_sparse or _cleared_width is reached, and a
    build count does not depend on which tests ran before."""
    partitions._infer.cache_clear()


@pytest.fixture
def series_route():
    """The reference both zero tests must match: theta.first_nonzero and
    part_by_part.first_nonzero_by_parts."""
    return _sum_by_series


@pytest.fixture(scope="session")
def catalog_doc():
    """The shipped data/catalog.json as decoded JSON.  Shared by every
    test: copy a record before mutating it."""
    path = resources.files("qshift").joinpath("data/catalog.json")
    return json.loads(path.read_text())
