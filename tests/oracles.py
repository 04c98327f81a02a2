"""Reference code that only the tests use, kept out of the library.

Each function here is a slow, direct form of something the library
computes another way, or a helper the tests build expectations with:

    linear_combine       an integer combination of Series, term by term
    truncate             a Series cut to a lower order
    first_difference     the first exponent where two Series of one
                         order differ
    ramanujan_f_product  f(a, b) by the triple product, against the sums
                         of theta.ramanujan_f_sum
    enumerate_params     the search space tuple by tuple, against the
                         search's blockwise prefilter
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, Sequence

from qshift.jacobi import FourParams
from qshift.qseries import Series, product_series
from qshift.search import SearchConfig
from qshift.theta import FArgs


def linear_combine(terms: Sequence[tuple[int, Series]]) -> Series:
    """Integer linear combination; result order is the minimum input order."""
    if not terms:
        raise ValueError("linear_combine needs at least one term")
    order = min(s.order for _, s in terms)
    lo = min(s.offset for _, s in terms)
    acc = [0] * (order - lo + 1)
    for c, s in terms:
        if c == 0 or s.is_zero():
            continue
        base = s.offset - lo
        top = min(len(s.coeffs), order - s.offset + 1)
        for i in range(top):
            acc[base + i] += c * s.coeffs[i]
    return Series(lo, acc, order)


def truncate(s: Series, order: int) -> Series:
    """s to the lower order; s itself when order is not below its own."""
    if order >= s.order:
        return s
    return Series(s.offset, s.coeffs, order)


def first_difference(a: Series, b: Series) -> int | None:
    """Smallest exponent where a and b differ, None when they are equal.
    Both must have the same order: a comparison below either order would
    check less than it names."""
    if a.order != b.order:
        raise ValueError(f"orders differ: {a.order} and {b.order}")
    for k in range(min(a.offset, b.offset), a.order + 1):
        if a.coeff(k) != b.coeff(k):
            return k
    return None


class UnsupportedNegativeExponent(ValueError):
    """Product form needs both exponents positive."""


def ramanujan_f_product(args: FArgs, n: int) -> Series:
    """f(a, b) = (-a; ab)_inf (-b; ab)_inf (ab; ab)_inf for the arguments
    a = sa q^ea and b = sb q^eb named by args = (sa, ea, sb, eb)."""
    sa, ea, sb, eb = args
    if ea < 1 or eb < 1:
        raise UnsupportedNegativeExponent(
            f"product form needs positive exponents, got {ea}, {eb}")
    m = ea + eb
    sab = sa * sb
    # (sigma q^e; ab) has the signs sigma * sab^j
    return product_series([sigma * sab ** j * k
                           for e, sigma in ((ea, -sa), (eb, -sb), (m, sab))
                           for j, k in enumerate(range(e, n + 1, m))], (), n)


def enumerate_params(cfg: SearchConfig) -> Iterator[FourParams]:
    """All tuples of the search space in lexicographic (n,a,b,c,x,y) order."""
    for n in cfg.n_values:
        bound = cfg.bound_for(n)
        rng = range(1, bound + 1)
        for a in rng:
            for b in rng:
                for c in rng:
                    for x in rng:
                        for y in range(x, bound + 1):
                            if gcd(gcd(gcd(a, b), gcd(c, x)), y) == 1:
                                yield FourParams(a, b, c, x, y, n)
