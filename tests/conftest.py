"""Shared test fixtures."""

import pytest

from qshift.qseries import Series, linear_combine, mul, product_series


def _sum_by_series(terms, n):
    """(k, c) of the first nonzero coefficient through q^n of a sum of
    qseries.Term, or None, by the Series route: each term's product from
    product_series, times its sparse sums by mul, shifted to q^e and
    added with linear_combine, then compared with zero by
    first_difference."""
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
    k = total.first_difference(Series.zero(n))
    return None if k is None else (k, total.coeff(k))


@pytest.fixture
def series_route():
    """The reference the packed zero test qseries._first_nonzero must match."""
    return _sum_by_series
