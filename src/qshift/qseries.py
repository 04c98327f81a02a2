"""Packed q-series kernels over arbitrary-precision integers, and the
Series layer that checks them.

All arithmetic is exact integer arithmetic, with floats only in sizing
limbs.  Coefficients are packed into fixed-width limbs of one big
Python integer (Kronecker substitution).  Every product of factors
(1 - s q^k)^(+-1), s = +-1, times a packed start value (Pochhammer
symbols, theta atoms and monomials, residue products) comes from one
packed builder, _pack_product: a factor is a shift-and-subtract or
shift-and-add, one per doubling of its part for an inverse factor.  A
product with a sparse sum (a theta sum) is _pack_sparse, one shift-and-add
per term.  Limb widths come from proven coefficient bounds (or from the
actual operand magnitudes), so the packing is always exact.  The bound
for a product of parts (_coeff_bits) holds whatever the signs, is
evaluated in floats with a stated rounding margin (_bits_above), and is
taken per product, so a sparse set of parts gets narrow limbs.
product_series, which unpacks whole bytes, rounds its bound up to bytes
with HEADROOM_BITS to spare (_limb_width).  theta's cleared builds
size their limbs exactly instead (theta._plan), from a bound on the
products of theta sums they multiply, rounded with the same margin, or,
past the densest partition figure (densest_bits, the widest limb the
order ceiling assumes), the lesser of that and this bound on their
terms' parts, plus the bit length of the sum of |c| plus one sign bit.

A signed sum of packed series that must vanish is tested at its lowest
set bit (_lowest_limb): at a limb width that holds its first nonzero
coefficient, that bit lies in the limb of that coefficient however far
later limbs overflow.  Products of theta sums have one builder on top
of _pack_sparse, theta._pack_sums; theta._plan clears and sizes every
zero-sum of theta terms, theta.first_nonzero, the one cleared zero
test, builds it, and theta.read_cleared reads it.

The Series layer (Series, mul, invert, shift_scale, product_series,
pochhammer, residue_product, and theta's atom_series, monomial_series
and ramanujan_f_sum) is an oracle, not a production path.  A Series
holds the exact coefficients of q^offset..q^order, and mul is one
Kronecker multiply (_mul_coeffs).  The layer's one library caller is
selftest's counting check, residue_product against the DP
partitions.count_partitions_table; the tests use it as their
reference, and bench/tracing.py binds its names.
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
    terms += [-log(-expm1(-abs(j) * t)) for j in inverse]
    return _bits_above(n * t + fsum(terms), len(terms)) + c


def _bits_above(nats: float, count: int) -> int:
    """ceil(bits + 1 + (bits + count) 2^-32), bits = nats / ln 2: a
    whole number of bits above a bound e^nats evaluated in floats as a
    sum of count logarithms, each within 2^-50 (1 + |log|) of its exact
    value, with _coeff_bits' margin; theta's sums bound is rounded the
    same way."""
    bits = nats / _LN2
    return ceil(bits + 1 + (bits + count) * 2 ** -32)


def densest_bits(n: int) -> float:
    """pi sqrt(2n/3) / ln 2: p(n) <= e^(pi sqrt(2n/3)), so the densest
    residue product, every part, has coefficients through q^n of at most
    2^densest_bits(n).  The one home of this figure: cli.order_ceiling
    sizes the widest limb from it, and theta._plan's fallback to the
    parts bound fires above it."""
    return pi * sqrt(2 * n / 3) / _LN2


def _limb_width(bits: int) -> int:
    """Limb width in bits (whole bytes) for coefficients below 2^bits,
    as product_series unpacks them.

    HEADROOM_BITS spare bits leave room for a sign and for a sum or
    difference of a few such coefficients without leaving the limb.
    The cleared builds do not use it: theta._plan adds to the bound
    only the bits its sum of terms needs.
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

    One shift-add per term: x shifted up e limbs and cut to its limbs
    below n + 1, times c.  The cut only keeps the summands short: the
    sum is reduced mod 2^(w*(n+1)) at the end.  Like _pack_product, this
    is arithmetic in Z[q]/(q^(n+1)) carried through q -> 2^w, so it is
    exact mod 2^(w*(n+1)) whatever the size of the coefficients.
    """
    top = w * (n + 1)
    mask = (1 << top) - 1
    acc = 0
    for e, c in terms:
        s = e * w
        if s >= top:
            continue
        t = (x << s) & mask
        if c == 1:
            acc += t
        elif c == -1:
            acc -= t
        else:
            acc += c * t
    return acc & mask


def _lowest_limb(x: int, w: int) -> int | None:
    """Index of the first nonzero limb of x, None when x == 0; x may be
    negative, as x & -x is its lowest set bit either way.

    Exact when x represents a series whose first nonzero coefficient is
    below 2^(w-1) in magnitude: then x = 2^(w*k) (c + 2^w R) with c not
    a multiple of 2^w (see theta.read_cleared).
    """
    return ((x & -x).bit_length() - 1) // w if x else None


# ----------------------------------------------------------------------
# Series
# ----------------------------------------------------------------------

class Series:
    """Immutable truncated Laurent series with exact integer coefficients.

    coeffs[i] is the coefficient of q^(offset+i); order is the largest
    tracked exponent.  Canonical form strips leading zeros into the
    offset; the zero-up-to-order series is stored as offset=order,
    coeffs=(0,).  The order is always given.  Equality is exact: offset,
    order and coefficients all agree, so series of different orders are
    never equal.
    """

    __slots__ = ("offset", "coeffs", "order")

    def __init__(self, offset: int, coeffs: Iterable[int], order: int):
        cs = list(coeffs)
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

    # -- comparison -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return ((self.offset, self.order, self.coeffs)
                == (other.offset, other.order, other.coeffs))

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


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------

def _mul_coeffs(a: Sequence[int], b: Sequence[int], count: int) -> list[int]:
    """First count coefficients of a*b by one Kronecker multiply: limbs
    of bits(max|a|) + bits(max|b|) + bits(min(len a, len b)) + 2 bits
    hold every coefficient of the product and its sign."""
    maxa = max(abs(c) for c in a)
    maxb = max(abs(c) for c in b)
    bits = (maxa.bit_length() + maxb.bit_length()
            + min(len(a), len(b)).bit_length() + 2)
    nbytes = (bits + 7) // 8
    prod = _pack(a, nbytes) * _pack(b, nbytes)
    full = len(a) + len(b) - 1
    return _unpack_signed(prod, nbytes, full)[:count]


def mul(a: Series, b: Series) -> Series:
    """Cauchy product, truncated at min(order_a, order_b).

    No library check calls mul or invert.  The Series layer is the
    oracle the tests and selftest compare the packed builders and the
    DP with, and bench/tracing.py binds its names.
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
            raise ResidueOutOfRange(
                f"residue {s} outside 1..{half} for modulus {modulus} "
                f"(sets are folded: list r, not {modulus} - r)")
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
