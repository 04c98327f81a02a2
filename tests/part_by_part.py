"""The part-by-part zero test, kept as an oracle for theta.first_nonzero.

A theta.Term becomes a PartsTerm (parts_term): every atom is expanded
part by part into factors (1 - s q^k), numerator atoms as finite factors
and denominator atoms as inverse ones, and every theta sum is listed as
a sparse sum.  first_nonzero_by_parts then packs each term with
qseries._pack_product, 1/(1 - q^k) as one shift-add per doubling of k,
and reads the sum's first nonzero coefficient at its lowest set bit.
The series_route fixture (conftest.py) checks the same PartsTerms with
Series arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from qshift.qseries import (
    _coeff_bits,
    _limb_width,
    _lowest_limb,
    _pack_product,
    _pack_sparse,
)
from qshift.theta import _monomial_parts, ramanujan_f_terms


class PartsTerm(NamedTuple):
    """c q^e scale prod sparse prod_fin (1 - s q^k) / prod_inv (1 - s q^k),
    a sparse sum as (exponent >= 0, coefficient) pairs and a factor as
    j = s*k, as _pack_product takes it; e may be negative."""

    c: int
    e: int
    sparse: Sequence[Sequence[tuple[int, int]]] = ()
    finite: Sequence[int] = ()
    inverse: Sequence[int] = ()
    scale: int = 1


def parts_term(t, n: int) -> PartsTerm:
    """A theta.Term with its atoms' factors and its sums' terms listed
    to order n - e."""
    inner = n - t.e
    scale, finite, inverse = _monomial_parts(t.num, t.den, inner)
    return PartsTerm(t.c, t.e, [ramanujan_f_terms(*s, inner) for s in t.sums],
                     finite, inverse, scale)


def first_nonzero_by_parts(terms, n: int) -> tuple[int, int] | None:
    """(k, c): the first nonzero coefficient c, at q^k, of the sum of the
    PartsTerms through q^n, or None when the sum vanishes through q^n.

    Terms with e > n are skipped.  With L the least e left, each term is
    packed to its own order n - e (its sparse sums by _pack_sparse, then
    _pack_product started from that value), shifted up e - L limbs and
    added in, and the sum is reduced mod 2^(w*(n-L+1)).  The limb width
    w is _coeff_bits of each term's factors plus the bit length of each
    sparse sum's L1 norm, plus the bit length of sum |c|, rounded up to
    whole bytes with HEADROOM_BITS to spare (_limb_width): wider than
    theta.cleared_build's B + bitlen(sum |c|) + 1, so the read stays
    exact.
    """
    live = [t for t in terms if t.e <= n]
    if not live:
        return None
    lo = min(t.e for t in live)
    bits = max(_coeff_bits(t.finite, t.inverse, n - t.e, t.scale)
               + sum(sum(abs(c) for _, c in s).bit_length() for s in t.sparse)
               for t in live)
    w = _limb_width(bits + sum(abs(t.c) for t in live).bit_length())
    acc = 0
    for t in live:
        m = n - t.e
        x = t.scale
        for s in t.sparse:
            x = _pack_sparse(x, s, m, w)
        x = _pack_product(t.finite, t.inverse, m, w, x)
        acc += (t.c * x) << ((t.e - lo) * w)
    acc &= (1 << (w * (n - lo + 1))) - 1
    k = _lowest_limb(acc, w)
    if k is None:
        return None
    c = (acc >> (k * w)) & ((1 << w) - 1)
    if c >> (w - 1):
        c -= 1 << w
    return lo + k, c
