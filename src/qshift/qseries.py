"""Truncated Laurent series over arbitrary-precision integers.

A Series tracks the coefficients of q^k for offset <= k <= order exactly.
Coefficients below the offset are zero; coefficients above the order are
unknown (truncated away).  All coefficient arithmetic is exact integer
arithmetic: no modular shortcuts, and no floats except in sizing limbs.

Long convolutions are evaluated by Kronecker substitution: coefficients
are packed into fixed-width limbs of one big Python integer, so a series
product becomes a single integer multiply.  Every product of factors
(1 - s q^k)^(+-1), s = +-1, times a packed start value (Pochhammer
symbols, theta atoms and monomials, residue products) comes from one
packed builder, _pack_product: a factor is a shift-and-subtract or
shift-and-add, one per doubling of its part for an inverse factor.  A
product with a sparse sum (a theta sum) is _pack_sparse, one shift-and-add
per term.  Limb widths come from proven coefficient bounds (or from the
actual operand magnitudes), so the packing is always exact.  The bound
for a product (_coeff_bits) holds whatever the signs, is evaluated in
floats with a stated rounding margin, and is taken per product, so a
sparse set of parts gets narrow limbs.

The special checks and theta zero-sums are signed sums of such products
that must vanish, with one zero test, _first_nonzero: the sum is packed
at one limb width and its first nonzero coefficient read at its lowest
set bit.
"""

from __future__ import annotations

from math import ceil, exp, expm1, fsum, log, log1p, pi, sqrt
from typing import Iterable, NamedTuple, Sequence


class NonUnitLeading(ValueError):
    """Inversion requires a leading coefficient of +1 or -1."""


class BeyondOrder(ValueError):
    """Requested a coefficient beyond the tracked truncation order."""


class InvalidExponent(ValueError):
    """Pochhammer exponent or step out of range."""


class EmptySet(ValueError):
    """A residue set must be nonempty."""


class ResidueOutOfRange(ValueError):
    """Residues must lie in 1..floor(M/2)."""


# ----------------------------------------------------------------------
# packed-limb helpers
# ----------------------------------------------------------------------

def _pack(coeffs: Sequence[int], nbytes: int) -> int:
    """Pack signed coefficients into limbs of nbytes bytes each."""
    n = len(coeffs)
    pos = bytearray(n * nbytes)
    neg = bytearray(n * nbytes)
    for i, c in enumerate(coeffs):
        if c > 0:
            pos[i * nbytes:(i + 1) * nbytes] = c.to_bytes(nbytes, "little")
        elif c < 0:
            neg[i * nbytes:(i + 1) * nbytes] = (-c).to_bytes(nbytes, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack_signed(x: int, nbytes: int, count: int) -> list[int]:
    """Recover count signed limbs; requires every |limb| < 2^(8*nbytes-1).

    x may be a true integer or a representative mod 2^(8*nbytes*count);
    both decode identically because the biased value lands in range.
    """
    w = 8 * nbytes
    half = 1 << (w - 1)
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * count, "little")
    total = w * count
    y = (x + bias) & ((1 << total) - 1)
    raw = y.to_bytes(count * nbytes, "little")
    return [
        int.from_bytes(raw[i * nbytes:(i + 1) * nbytes], "little") - half
        for i in range(count)
    ]


HEADROOM_BITS = 24
_LN2 = log(2)


def _coeff_bits(finite: Sequence[int], inverse: Sequence[int], n: int,
                scale: int = 1) -> int:
    """Bits b with every coefficient of q^0..q^n of a product below 2^b.

    The product is scale * prod_fin (1 - s q^k) / prod_inv (1 - s q^k),
    each factor given as j = s*k, as _pack_product builds it; the bound
    also covers every partial product of that build.

    For any 0 < x < 1 and j <= n, a series with nonnegative coefficients
    c_i gives c_j x^j <= sum c_i x^i.  The product is dominated
    coefficient by coefficient by D = prod_fin (1+q^k) prod_inv 1/(1-q^k),
    since (1+q^k) dominates (1 - s q^k), sum q^ik dominates sum s^i q^ik,
    and products of dominated series are dominated.  Hence

        |c_j| <= x^-n prod_fin (1+x^k) prod_inv 1/(1-x^k).

    Flipping a factor's sign changes neither D nor its partial products:
    1/(1 - s q^k) is built as (1 + s q^k)(1+q^2k)(1+q^4k)..., dominated
    step by step by the build of 1/(1-q^k), and a partial product of D is
    dominated by D, whose remaining factors have nonnegative coefficients
    and constant term 1.  |scale| <= 2^c, c = (|scale| - 1).bit_length(),
    adds c bits.  Any x gives a bound.  The one taken is x = e^-t with
    t = pi sqrt(F/12 + I/6) / n for F finite and I inverse parts: for
    parts of densities F/n and I/n the log of the product is about
    (F pi^2/12 + I pi^2/6)/(n t), and this t minimizes n*t plus that, so
    the bound is close to the best one.

    The logarithm is evaluated in floats.  k*t is rounded once, and
    exp, expm1, log and log1p are accurate to a few ulps, so each term
    is within 2^-50 (1 + |term|) of its exact value at this t; fsum adds
    them with a single rounding.  The returned figure adds a margin of
    1 + (bits + N) 2^-32 bits, N = F + I, far above that error for any
    N < 2^40.
    """
    c = (abs(scale) - 1).bit_length()
    if not finite and not inverse:
        return 1 + c  # the empty product is scale
    t = pi * sqrt(len(finite) / 12 + len(inverse) / 6) / max(n, 1)
    terms = [log1p(exp(-abs(j) * t)) for j in finite]
    terms += (-log(-expm1(-abs(j) * t)) for j in inverse)
    bits = (n * t + fsum(terms)) / _LN2
    return ceil(bits + 1 + (bits + len(terms)) * 2 ** -32) + c


def _limb_width(bits: int) -> int:
    """Limb width in bits (whole bytes) for coefficients below 2^bits.

    HEADROOM_BITS spare bits leave room for a sign and for a sum or
    difference of a few such coefficients without leaving the limb.
    """
    return 8 * ((bits + HEADROOM_BITS + 7) // 8)


def _pack_product(finite: Iterable[int], inverse: Iterable[int], n: int,
                  w: int, start: int = 1) -> int:
    """start * prod_fin (1 - s q^k) / prod_inv (1 - s q^k) to order n in
    w-bit signed limbs, each factor given as j = s*k (k >= 1).

    start is a packed series (an integer c is the constant c).  A finite
    factor is one shift-subtract (s = 1) or shift-add (s = -1).
    1/(1-q^k) is (1+q^k)(1+q^2k)(1+q^4k)... up to order n, one shift-add
    per doubling, and 1/(1+q^k) is (1-q^k)(1+q^2k)(1+q^4k)....  The result
    is reduced mod 2^(w*(n+1)), which every step respects, since a shift
    moves only limbs past order n out of it; _unpack_signed decodes it
    when w exceeds _coeff_bits(finite, inverse, n, start) + 1 for a
    constant start.
    """
    mask = (1 << (w * (n + 1))) - 1
    x = start & mask
    for j in finite:
        if j > 0:
            x = (x - (x << (j * w))) & mask
        else:
            x = (x + (x << (-j * w))) & mask
    for j in inverse:
        k = abs(j)
        if j < 0:
            x = (x - (x << (k * w))) & mask
            k <<= 1
        while k <= n:
            x = (x + (x << (k * w))) & mask
            k <<= 1
    return x


def _pack_sparse(x: int, terms: Iterable[tuple[int, int]], n: int,
                 w: int) -> int:
    """x * sum c q^e mod 2^(w*(n+1)), for x packed in w-bit limbs and
    sparse terms (e, c) with e >= 0.

    One shift-add per term: x cut to its limbs below n + 1 - e, shifted
    up e limbs, times c.  Like _pack_product, this is arithmetic in
    Z[q]/(q^(n+1)) carried through q -> 2^w, so it is exact mod
    2^(w*(n+1)) whatever the size of the coefficients.
    """
    top = w * (n + 1)
    acc = 0
    for e, c in terms:
        s = e * w
        if s >= top:
            continue
        t = (x & ((1 << (top - s)) - 1)) << s
        if c == 1:
            acc += t
        elif c == -1:
            acc -= t
        else:
            acc += c * t
    return acc & ((1 << top) - 1)


def _lowest_limb(x: int, w: int) -> int | None:
    """Index of the first nonzero limb of x, None when x == 0.

    Exact when x represents a series mod 2^(w*(n+1)) whose first nonzero
    coefficient is below 2^(w-1) in magnitude (see _first_nonzero).
    """
    return ((x & -x).bit_length() - 1) // w if x else None


class Term(NamedTuple):
    """c q^e scale prod sparse prod_fin (1 - s q^k) / prod_inv (1 - s q^k),
    a sparse sum as (exponent >= 0, coefficient) pairs and a factor as
    j = s*k, as _pack_product takes it; e may be negative."""

    c: int
    e: int
    sparse: Sequence[Sequence[tuple[int, int]]] = ()
    finite: Sequence[int] = ()
    inverse: Sequence[int] = ()
    scale: int = 1


def _first_nonzero(terms: Iterable[Term], n: int) -> tuple[int, int] | None:
    """(k, c): the first nonzero coefficient c, at q^k, of the sum of the
    terms through q^n, or None when the sum vanishes through q^n.

    Terms with e > n are skipped.  With L the least e left, each term is
    packed to its own order n - e (its sparse sums by _pack_sparse, then
    _pack_product started from that value), shifted up e - L limbs and
    added in, and the sum is reduced mod 2^(w*(n-L+1)).  q -> 2^w
    followed by that reduction is a ring homomorphism from
    Z[q]/(q^(n-L+1)), and every step is a ring operation there, so the
    result is exactly the image of q^-L times the sum.

    One limb width w serves the whole sum.  A term's coefficients through
    q^(n-e) are below B = 2^b, b = _coeff_bits(finite, inverse, n - e,
    scale) plus the bit length of each sparse sum's L1 norm, since a
    sparse factor multiplies the largest coefficient by at most its L1
    norm.  So the first nonzero coefficient has |c| <= sum |c_i| max B_i
    < 2^(w-1), and the packed sum is 2^(w*k) (c + 2^w R) with c not a
    multiple of 2^w: its lowest set bit lies in limb k, which read as a
    signed w-bit integer is c, however far later limbs overflow.
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


# ----------------------------------------------------------------------
# Series
# ----------------------------------------------------------------------

class Series:
    """Immutable truncated Laurent series with exact integer coefficients.

    coeffs[i] is the coefficient of q^(offset+i); order is the largest
    tracked exponent.  Canonical form strips leading zeros into the
    offset; the zero-up-to-order series is stored as offset=order,
    coeffs=(0,).  Equality compares coefficients up to the smaller order.
    """

    __slots__ = ("offset", "coeffs", "order")

    def __init__(self, offset: int, coeffs: Iterable[int], order: int | None = None):
        cs = list(coeffs)
        if order is None:
            if not cs:
                raise ValueError("empty coefficients need an explicit order")
            order = offset + len(cs) - 1
        want = order - offset + 1
        if want < len(cs):
            cs = cs[:max(want, 0)]
        elif want > len(cs):
            cs.extend([0] * (want - len(cs)))
        lead = next((i for i, c in enumerate(cs) if c), len(cs))
        if lead:
            cs = cs[lead:]
            offset += lead
        if not cs or order < offset:
            offset = order
            cs = [0]
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(order: int) -> "Series":
        return Series(order, (0,), order)

    @staticmethod
    def one(order: int) -> "Series":
        return Series(0, (1,), order)

    @staticmethod
    def monomial(k: int, order: int, c: int = 1) -> "Series":
        return Series(k, (c,), order)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        """True when every tracked coefficient vanishes."""
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def coeff(self, k: int) -> int:
        if k > self.order:
            raise BeyondOrder(f"coefficient of q^{k} beyond order {self.order}")
        if k < self.offset:
            return 0
        return self.coeffs[k - self.offset]

    def truncate(self, order: int) -> "Series":
        if order >= self.order:
            return self
        return Series(self.offset, self.coeffs, order)

    def valuation(self) -> int | None:
        """Lowest exponent with a nonzero coefficient, or None if zero."""
        return None if self.is_zero() else self.offset

    # -- comparison -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.first_difference(other) is None

    __hash__ = None  # equality is order-relative; hashing would be unsound

    def first_difference(self, other: "Series") -> int | None:
        """Smallest exponent (up to the shared order) where coefficients differ."""
        top = min(self.order, other.order)
        lo = min(self.offset, other.offset)
        for k in range(lo, top + 1):
            a = self.coeffs[k - self.offset] if self.offset <= k else 0
            b = other.coeffs[k - other.offset] if other.offset <= k else 0
            if a != b:
                return k
        return None

    # -- rendering ----------------------------------------------------------

    def __repr__(self) -> str:
        shown = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            k = self.offset + i
            term = f"{c}" if k == 0 else (f"{c}*q^{k}" if c not in (1, -1) else ("-" if c == -1 else "") + f"q^{k}")
            shown.append(term)
            if len(shown) == 8:
                shown.append("...")
                break
        body = " + ".join(shown).replace("+ -", "- ") if shown else "0"
        return f"Series({body}; order={self.order})"

    # -- operator sugar (thin wrappers over module functions) -----------

    def __add__(self, other: "Series") -> "Series":
        return linear_combine([(1, self), (1, other)])

    def __sub__(self, other: "Series") -> "Series":
        return linear_combine([(1, self), (-1, other)])

    def __mul__(self, other: "Series") -> "Series":
        return mul(self, other)

    def __neg__(self) -> "Series":
        return shift_scale(self, -1, 0)


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------

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


def _mul_schoolbook(a: Sequence[int], b: Sequence[int], count: int) -> list[int]:
    out = [0] * min(len(a) + len(b) - 1, count)
    top = len(out)
    for i, ai in enumerate(a):
        if ai == 0 or i >= top:
            continue
        jmax = min(len(b), top - i)
        for j in range(jmax):
            out[i + j] += ai * b[j]
    return out


def _mul_packed(a: Sequence[int], b: Sequence[int], count: int) -> list[int]:
    maxa = max(abs(c) for c in a)
    maxb = max(abs(c) for c in b)
    bits = (maxa.bit_length() + maxb.bit_length()
            + min(len(a), len(b)).bit_length() + 2)
    nbytes = (bits + 7) // 8
    prod = _pack(a, nbytes) * _pack(b, nbytes)
    full = len(a) + len(b) - 1
    return _unpack_signed(prod, nbytes, full)[:count]


def _mul_coeffs(a: Sequence[int], b: Sequence[int], count: int) -> list[int]:
    """First count coefficients of a*b: schoolbook for small inputs, packed
    above 4096 coefficient pairs (16x16 is faster schoolbook, 32x32 packed)."""
    if len(a) * len(b) <= 4096:
        return _mul_schoolbook(a, b, count)
    return _mul_packed(a, b, count)


def mul(a: Series, b: Series) -> Series:
    """Cauchy product, truncated at min(order_a, order_b).

    No check calls mul or invert.  Both stay as the reference oracle the
    tests compare the packed builders with, and bench/tracing.py binds
    both names.
    """
    order = min(a.order, b.order)
    if a.is_zero() or b.is_zero():
        return Series.zero(order)
    off = a.offset + b.offset
    count = order - off + 1
    if count <= 0:
        return Series.zero(order)
    return Series(off, _mul_coeffs(a.coeffs, b.coeffs, count), order)


def _invert_unit(u: Sequence[int], count: int) -> list[int]:
    """Inverse of a unit power series (u[0] == 1) to count coefficients."""
    v = [1]
    while len(v) < count:
        t = min(2 * len(v), count)
        w = [-c for c in _mul_coeffs(u[:t], v, t)]
        w[0] += 2
        v = _mul_coeffs(v, w, t)
        v.extend([0] * (t - len(v)))
    return v


def invert(a: Series) -> Series:
    """Multiplicative inverse; requires leading coefficient +-1.
    A reference oracle, kept for the reasons given at mul."""
    if a.is_zero():
        raise NonUnitLeading("cannot invert the zero series")
    lead = a.coeffs[0]
    if lead not in (1, -1):
        raise NonUnitLeading(f"leading coefficient {lead} is not a unit")
    u = a.coeffs if lead == 1 else tuple(-c for c in a.coeffs)
    v = _invert_unit(u, len(a.coeffs))
    if lead == -1:
        v = [-c for c in v]
    return Series(-a.offset, v, a.order - 2 * a.offset)


def shift_scale(a: Series, sign: int, k: int) -> Series:
    """sign * q^k * a."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    cs = a.coeffs if sign == 1 else tuple(-c for c in a.coeffs)
    return Series(a.offset + k, cs, a.order + k)


# ----------------------------------------------------------------------
# product generators
# ----------------------------------------------------------------------

def product_series(finite: Sequence[int], inverse: Sequence[int], n: int,
                   scale: int = 1) -> Series:
    """scale * prod_fin (1 - s q^k) / prod_inv (1 - s q^k) to order n.

    Each factor is given as j = s*k with k >= 1 and s = +-1; parts past
    n change nothing.  One packed build (_pack_product) in limbs sized by
    _coeff_bits; below order 0 the product is the zero series.
    """
    if n < 0:
        return Series.zero(n)
    w = _limb_width(_coeff_bits(finite, inverse, n, scale))
    x = _pack_product(finite, inverse, n, w, scale)
    return Series(0, _unpack_signed(x, w // 8, n + 1), n)


def pochhammer(e: int, m: int, sigma: int, n: int) -> Series:
    """(sigma*q^e; q^m)_inf truncated at order n."""
    if e < 1 or m < 1:
        raise InvalidExponent(f"pochhammer needs e >= 1 and m >= 1, got e={e}, m={m}")
    if sigma not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return product_series([sigma * k for k in range(e, n + 1, m)], (), n)


def _expand_parts(residues: Iterable[int], modulus: int, limit: int) -> list[int]:
    """All k <= limit with k = +-s (mod modulus) for some s in residues."""
    rs = sorted(set(residues))
    if not rs:
        raise EmptySet("residue set is empty")
    half = modulus // 2
    for s in rs:
        if not (1 <= s <= half):
            raise ResidueOutOfRange(f"residue {s} outside 1..{half} for modulus {modulus}")
    out = set()
    for s in rs:
        out.update(range(s, limit + 1, modulus))
        out.update(range(modulus - s, limit + 1, modulus))
    return sorted(out)


def residue_product(residues: Iterable[int], modulus: int, n: int) -> Series:
    """prod over parts k = +-s (mod modulus) of 1/(1-q^k), truncated at n.

    The coefficient of q^j is the number of partitions of j into such parts.
    """
    return product_series((), _expand_parts(residues, modulus, n), n)
