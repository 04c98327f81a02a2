"""Truncated Laurent series over arbitrary-precision integers.

A Series tracks the coefficients of q^k for offset <= k <= order exactly.
Coefficients below the offset are zero; coefficients above the order are
unknown (truncated away).  All coefficient arithmetic is exact integer
arithmetic: no modular shortcuts, and no floats except in sizing limbs.

Long convolutions and product accumulations are evaluated by Kronecker
substitution: coefficients are packed into fixed-width limbs of one big
Python integer, so a series product becomes a single integer multiply and
a two-term factor like (1 - q^k) becomes a shift-and-subtract.  Limb
widths are chosen from proven coefficient bounds (or from the actual
operand magnitudes), so the packing is always exact.  The bound for a
product over a given set of parts (_coeff_bits) is evaluated in floats
with a stated rounding margin, per set of parts, so a sparse residue set
gets narrow limbs.
"""

from __future__ import annotations

from math import ceil, exp, expm1, fsum, log, log1p, pi, sqrt
from typing import Iterable, Sequence


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


def _unpack_unsigned(x: int, nbytes: int, count: int) -> list[int]:
    """Recover count nonnegative limbs from a nonnegative packed integer."""
    raw = x.to_bytes(count * nbytes, "little")
    return [
        int.from_bytes(raw[i * nbytes:(i + 1) * nbytes], "little")
        for i in range(count)
    ]


HEADROOM_BITS = 24
_LN2 = log(2)


def _coeff_bits(parts: Sequence[int], n: int, inverse: bool) -> int:
    """Bits b with every coefficient of q^0..q^n of a product below 2^b.

    inverse=True bounds prod 1/(1-q^k), whose coefficients are
    nonnegative; inverse=False bounds the magnitudes of prod (1-q^k).
    Each bound also covers every partial product built on the way to
    order n, so a packed build never carries across limbs.

    For any 0 < x < 1 and j <= n, a series with nonnegative coefficients
    c_i gives c_j x^j <= sum c_i x^i, hence

        c_j <= x^-n prod 1/(1-x^k)   for prod 1/(1-q^k), and
        |c_j| <= x^-n prod (1+x^k)   for prod (1-q^k),

    the second because prod (1+q^k) dominates prod (1-q^k) coefficient
    by coefficient.  Partial products are dominated by the full one, since
    the remaining factors have nonnegative coefficients and constant term
    1 (1/(1-q^k) is built as (1+q^k)(1+q^2k)(1+q^4k)...).  Any x gives a
    bound.  The one taken is x = e^-t with t = pi sqrt(N/6) / n for
    1/(1-q^k) and t = pi sqrt(N/12) / n for (1-q^k), N = len(parts): for
    parts of density N/n the log of the product is about
    (N/n)(pi^2/6)/t, resp. (N/n)(pi^2/12)/t, and this t minimizes n*t
    plus that, so the bound is close to the best one.

    The logarithm is evaluated in floats.  k*t is rounded once, and
    exp, expm1, log and log1p are accurate to a few ulps, so each term
    is within 2^-50 (1 + |term|) of its exact value at this t; fsum adds
    them with a single rounding.  The returned figure adds a margin of
    1 + (bits + N) 2^-32 bits, far above that error for any N < 2^40.
    """
    if not parts:
        return 1  # the empty product is 1
    t = pi * sqrt(len(parts) / (6 if inverse else 12)) / n
    if inverse:
        terms = (-log(-expm1(-k * t)) for k in parts)
    else:
        terms = (log1p(exp(-k * t)) for k in parts)
    bits = (n * t + fsum(terms)) / _LN2
    return ceil(bits + 1 + (bits + len(parts)) * 2 ** -32)


def _limb_width(bits: int) -> int:
    """Limb width in bits (whole bytes) for coefficients below 2^bits.

    HEADROOM_BITS spare bits leave room for a sign and for a sum or
    difference of a few such coefficients without leaving the limb.
    """
    return 8 * ((bits + HEADROOM_BITS + 7) // 8)


def _pack_inverse(parts: Iterable[int], n: int, w: int) -> int:
    """prod over parts of 1/(1-q^k) to order n, packed in w-bit limbs.

    Each factor is (1+q^k)(1+q^2k)(1+q^4k)... up to order n: one
    shift-add per doubling.  w must exceed _coeff_bits(parts, n, True).
    """
    mask = (1 << (w * (n + 1))) - 1
    x = 1
    for k in parts:
        sh = k
        while sh <= n:
            x = (x + (x << (sh * w))) & mask
            sh <<= 1
    return x


def _pack_finite(parts: Iterable[int], n: int, w: int) -> int:
    """prod over parts of (1-q^k) to order n, packed in w-bit signed limbs.

    One shift-subtract per part.  The result is the packed value reduced
    mod 2^(w*(n+1)); _unpack_signed decodes it when w exceeds
    _coeff_bits(parts, n, False) + 1.
    """
    mask = (1 << (w * (n + 1))) - 1
    x = 1
    for k in parts:
        x = (x - (x << (k * w))) & mask
    return x


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


def mul(a: Series, b: Series) -> Series:
    """Cauchy product, truncated at min(order_a, order_b)."""
    order = min(a.order, b.order)
    if a.is_zero() or b.is_zero():
        return Series.zero(order)
    off = a.offset + b.offset
    count = order - off + 1
    if count <= 0:
        return Series.zero(order)
    if len(a.coeffs) * len(b.coeffs) <= 4096:
        cs = _mul_schoolbook(a.coeffs, b.coeffs, count)
    else:
        cs = _mul_packed(a.coeffs, b.coeffs, count)
    return Series(off, cs, order)


def _invert_unit(u: Sequence[int], count: int) -> list[int]:
    """Inverse of a unit power series (u[0] == 1) to count coefficients."""
    v = [1]
    while len(v) < count:
        t = min(2 * len(v), count)
        uv = (_mul_schoolbook(u[:t], v, t) if t * t <= 4096
              else _mul_packed(u[:t], v, t))
        w = [-c for c in uv]
        w[0] += 2
        v = (_mul_schoolbook(v, w, t) if t * t <= 4096
             else _mul_packed(v, w, t))
        v.extend([0] * (t - len(v)))
    return v


def invert(a: Series) -> Series:
    """Multiplicative inverse; requires leading coefficient +-1."""
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

def _poch_general(e: int, m: int, sigma: int, base_sigma: int, n: int) -> Series:
    """prod_{j>=0, e+j*m<=n} (1 - sigma * base_sigma^j * q^(e+j*m)).

    Flipping the sign of a factor's q term does not change the
    dominating product prod (1+q^k), so _coeff_bits bounds the limbs.
    """
    if e < 1 or m < 1:
        raise InvalidExponent(f"pochhammer needs e >= 1 and m >= 1, got e={e}, m={m}")
    if sigma not in (1, -1) or base_sigma not in (1, -1):
        raise ValueError("signs must be +1 or -1")
    exps = range(e, n + 1, m)
    w = _limb_width(_coeff_bits(exps, n, False))
    mask = (1 << (w * (n + 1))) - 1
    x = 1
    s = sigma
    for k in exps:
        if s == 1:
            x = (x - (x << (k * w))) & mask
        else:
            x = (x + (x << (k * w))) & mask
        s *= base_sigma
    return Series(0, _unpack_signed(x, w // 8, n + 1), n)


def pochhammer(e: int, m: int, sigma: int, n: int) -> Series:
    """(sigma*q^e; q^m)_inf truncated at order n."""
    return _poch_general(e, m, sigma, 1, n)


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


def _residue_product_packed(residues: Iterable[int], modulus: int,
                            n: int) -> tuple[int, int]:
    """residue_product packed: (x, w) with limb j of width w bits holding
    the coefficient of q^j, for j = 0..n.

    The width comes from _coeff_bits for these very parts, so it grows
    with the residue set's density instead of with p(n).
    """
    parts = _expand_parts(residues, modulus, n)
    w = _limb_width(_coeff_bits(parts, n, True))
    return _pack_inverse(parts, n, w), w


def residue_product(residues: Iterable[int], modulus: int, n: int) -> Series:
    """prod over parts k = +-s (mod modulus) of 1/(1-q^k), truncated at n.

    The coefficient of q^j is the number of partitions of j into such parts.
    """
    x, w = _residue_product_packed(residues, modulus, n)
    return Series(0, _unpack_unsigned(x, w // 8, n + 1), n)
