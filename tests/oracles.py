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
    derive_batch         jacobi.derive_identity in numpy over many tuples
                         of one base, against the outcome each tuple reads
                         from its class cell in the search
    cleared_powers       a zero-sum's terms cleared of negative powers of
                         their theta sums, against theta._plan's clearing
    sums_nats,           the limb bound B of theta._plan from its
    sums_bound,          definition: the sums bound in 60-digit Decimal,
    parts_bound,         the parts bound of its fallback, and the two
    cleared_bound        combined as the plan combines them
    cleared_product      a cleared product's coefficients, packed in
                         limbs wide enough for any product of its factors
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_CEILING, Decimal, localcontext
from functools import lru_cache
from math import gcd, log, pi, sqrt
from typing import Iterator, Sequence

import numpy as np

from qshift.jacobi import FAILURE_REASONS, FourParams, _four2_exprs
from qshift.partitions import SHIFTED, SHIFTLESS, PartitionIdentity
from qshift.qseries import (
    Series,
    _coeff_bits,
    _unpack_signed,
    product_series,
)
from qshift.search import SearchConfig
from qshift.theta import (
    DegenerateZero,
    FArgs,
    _monomial_parts,
    atom_sums,
    ramanujan_f_sum,
    ramanujan_f_terms,
)


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


# ----------------------------------------------------------------------
# the search's reduction over a batch of tuples, in numpy
# ----------------------------------------------------------------------

# Exponents and bases up to this size keep every quantity in derive_batch
# within int64; see its docstring.
_BATCH_LIMIT = 1 << 24


@dataclass(frozen=True)
class BatchDerivation:
    """jacobi.derive_identity over a batch of tuples sharing one base n.

    Row i describes tuple i.  reason[i] is 0 on success and otherwise
    1 + the index of the failure in FAILURE_REASONS.  For a success,
    shifted[i] and shift[i] give the kind and a, and S[i] and T[i] are
    boolean masks over the residues 0..n of modulus 2n; primitive[i]
    tells whether gcd(2n, S, T) = 1.  Other fields of a failed row are
    unspecified.
    """

    n: int
    reason: np.ndarray
    shifted: np.ndarray
    shift: np.ndarray
    S: np.ndarray
    T: np.ndarray
    primitive: np.ndarray

    def identity(self, i: int) -> PartitionIdentity:
        """The identity derived from the successful row i."""
        return PartitionIdentity(
            2 * self.n,
            frozenset(np.flatnonzero(self.S[i]).tolist()),
            frozenset(np.flatnonzero(self.T[i]).tolist()),
            SHIFTED if self.shifted[i] else SHIFTLESS,
            int(self.shift[i]))


def _normalize_batch(e: np.ndarray, m: int):
    """theta.normalize_atom on every bracket [e : m] of the array e:
    (odd sign, qshift, residue)."""
    k = e // m
    r0 = e - k * m
    if not r0.all():
        raise DegenerateZero(f"a bracket [e : {m}] with e divisible by {m} vanishes")
    return k & 1, -(k * r0 + m * (k * (k - 1) // 2)), np.minimum(r0, m - r0)


def _residue_counts(r: np.ndarray, n: int) -> np.ndarray:
    """Multiset of residues 0..n in each column of r, as (columns, n+1) counts."""
    rows = r.shape[1]
    flat = r + (n + 1) * np.arange(rows)
    return np.bincount(flat.ravel(), minlength=rows * (n + 1)).reshape(rows, n + 1)


def _reduce_batch(sign: int, qexp: np.ndarray, core, shared, n: int):
    """jacobi._term on a batch of one four2 term, as jacobi.four2_terms
    builds it.

    Returns (odd, qexp, left): the sign parity, the q-exponent and the
    denominator counts minus the numerator counts.  A negative count is
    a numerator atom that found nothing to cancel against.
    """
    m = 2 * n
    base = np.stack(core + shared)
    num_odd, num_shift, num_r = _normalize_batch(2 * np.stack(core), m)
    den_odd, den_shift, den_r = _normalize_batch(
        np.concatenate([base, base + n]), m)
    odd = (int(sign < 0) + num_odd.sum(axis=0) + den_odd.sum(axis=0)) & 1
    qexp = qexp + num_shift.sum(axis=0) - den_shift.sum(axis=0)
    left = _residue_counts(den_r, n) - _residue_counts(num_r, n)
    return odd, qexp, left


def _classify_batch(odd1, q1, left1, odd2, q2, left2):
    """jacobi._classify_reduced on a batch of reduced term pairs.

    Takes each term's sign parity, q-exponent and leftover counts and
    returns (reason, shifted, shift, plus, minus) with the reasons
    tested in the same order as _classify_reduced.
    """
    incomplete = (left1 < 0).any(axis=1) | (left2 < 0).any(axis=1)
    repeated = (left1 > 1).any(axis=1) | (left2 > 1).any(axis=1)
    equal = (left1 == left2).all(axis=1)
    first_plus = odd1 == 0
    plus_q = np.where(first_plus, q1, q2)
    minus_q = np.where(first_plus, q2, q1)
    shifted = (plus_q == 0) & (minus_q >= 1)
    shiftless = (plus_q == minus_q) & (plus_q < 0)
    unrecognized = (odd1 == odd2) | ~(shifted | shiftless)
    reason = np.select([incomplete, repeated, equal, unrecognized],
                       [1, 2, 3, 4], 0)
    shift = np.where(shifted, minus_q, -plus_q)
    plus = np.where(first_plus[:, None], left1, left2) == 1
    minus = np.where(first_plus[:, None], left2, left1) == 1
    return reason, shifted, shift, plus, minus


def derive_batch(n: int, a, b, c, x, y) -> BatchDerivation:
    """jacobi.derive_identity for every tuple (a, b, c, x, y) of the
    broadcast integer arrays, all over base n, plus the primitivity test:
    the per-tuple oracle for the codes the search reads from its cubes.

    Each term's 20 atoms are normalized with k = e // 2n and
    r0 = e - 2n k; the leftover denominator is the 16-atom residue
    multiset minus the 4-atom numerator.  Raises DegenerateZero if any
    atom of any row vanishes, and ValueError if n or an exponent is not
    below 2^24.

    Exactness: all arithmetic is int64.  With exponents in [1, n-1], the
    search default, every core or shared expression lies in (-2n, 2n),
    so atom exponents lie in (-4n, 4n), k is in {-2, -1, 0, 1}, each
    |qshift| = |k r0 + 2n k(k-1)/2| < 4n + 6n, and a term's q-exponent,
    20 shifts plus a prefactor below 2n, stays below 202n.  For any
    exponents and n below 2^24, atom exponents E stay below 2^27 and
    |k| <= E/2n + 1, so |k r0| < E + 2n < 2^28 and
    2n k(k-1)/2 <= (E + 4n)^2 / 4n < 2^54; 20 shifts sum to below 2^60.
    """
    args = [np.asarray(v, dtype=np.int64) for v in (a, b, c, x, y)]
    if not 1 <= n < _BATCH_LIMIT or any(
            v.size and np.abs(v).max() >= _BATCH_LIMIT for v in args):
        raise ValueError(f"base and exponents must lie below {_BATCH_LIMIT}")
    terms, shared = _four2_exprs(*np.broadcast_arrays(*args))
    (odd1, q1, left1), (odd2, q2, left2) = (
        _reduce_batch(sign, qexp, core, shared, n)
        for sign, qexp, core in terms)
    reason, shifted, shift, S, T = _classify_batch(odd1, q1, left1,
                                                    odd2, q2, left2)
    present = np.where(S | T, np.arange(n + 1), 0)
    primitive = np.gcd(np.gcd.reduce(present, axis=1), 2 * n) == 1
    return BatchDerivation(n, reason, shifted, shift, S, T, primitive)


# ----------------------------------------------------------------------
# the cleared build's limb bound
# ----------------------------------------------------------------------

def cleared_powers(terms, n: int) -> dict[int, tuple[int, dict]]:
    """{i: (scale, {args: p})} for each live term i (e <= n): the term
    times the unit V = prod_f f^(-l_f), l_f the least power of f in any
    live term or 0, as c q^e scale prod f(args)^p with every p > 0, each
    atom written as its theta sums by theta.atom_sums."""
    powers = {}
    for i, t in enumerate(terms):
        if t.e > n:
            continue
        scale, power = 1, {}
        for atoms, sign in ((t.num, 1), (t.den, -1)):
            for a in atoms:
                c, sums = atom_sums(a)
                scale *= c if sign > 0 else 1
                for args, p in sums:
                    power[args] = power.get(args, 0) + sign * p
        for args in t.sums:
            power[args] = power.get(args, 0) + 1
        powers[i] = scale, power
    every = {args for _, power in powers.values() for args in power}
    least = {args: min(0, *(power.get(args, 0) for _, power in
                            powers.values())) for args in every}
    return {i: (scale, {args: q for args in every
                        if (q := power.get(args, 0) - least[args])})
            for i, (scale, power) in powers.items()}


def _is_euler(args: FArgs) -> bool:
    return args == (-1, args[1], -1, 2 * args[1])


def _factor_terms(args: FArgs, p: int, n: int) -> list[tuple[int, int]]:
    """The terms of f(args) (p = 1), or for f = E_m of E_m^3 (p = 3) by
    Jacobi's identity E_m^3 = sum_k (-1)^k (2k+1) q^(m k(k+1)/2), to
    order n."""
    if p == 1:
        return ramanujan_f_terms(*args, n)
    m = args[1]
    return [(m * k * (k + 1) // 2, (-1) ** k * (2 * k + 1))
            for k in range(n + 1) if m * k * (k + 1) // 2 <= n]


def _split(power: dict) -> list[tuple[FArgs, int, int]]:
    """(args, p, k): k factors f^p, a power 3j + i of an E_m taken as j
    cubes (p = 3) and i single factors, any other sum's power as single
    factors, as theta's build multiplies them in."""
    out = []
    for args, q in power.items():
        if _is_euler(args) and q >= 3:
            out.append((args, 3, q // 3))
            q %= 3
        if q:
            out.append((args, 1, q))
    return out


def sums_nats(terms, n: int) -> tuple[float, dict[int, tuple[Decimal, int]]]:
    """(t, {i: (nats, count)}): the sums bound of theta._plan from its
    definition, in 60-digit Decimal at the plan's float t = h / (2 span):
    for each live term, nats = (n - e) t + sum k ln F(e^-t) over its
    cleared factors (_split), F the sum of |c| e^(-e t) over a factor's
    terms through q^span, span = n - L for L the least live e, and count
    the number of its factors, times 1 + h/2^17 rounded down past
    h = 2^17; h is the largest number of factors with each cube counted
    twice."""
    cleared = cleared_powers(terms, n)
    span = n - min(terms[i].e for i in cleared)
    split = {i: _split(power) for i, (_, power) in cleared.items()}
    h = max(sum(k * (2 if p == 3 else 1) for _, p, k in f)
            for f in split.values())
    t = h / (2 * max(span, 1))
    out = {}
    with localcontext() as ctx:
        ctx.prec = 60
        dt = Decimal(t)
        x = (-dt).exp()
        for i, f in split.items():
            nats = (n - terms[i].e) * dt
            for args, p, k in f:
                nats += k * sum(abs(c) * x ** e for e, c in
                                _factor_terms(args, p, span)).ln()
            count = sum(k for _, _, k in f)
            out[i] = nats, count + (count * h >> 17)
    return t, out


def sums_bound(terms, n: int) -> int:
    """The sums bound of theta._plan from its definition: the largest,
    over the live terms, of ceil(bits + 1 + (bits + count) 2^-32) +
    bitlen(|scale| - 1), bits = nats / ln 2 (sums_nats), in Decimal."""
    cleared = cleared_powers(terms, n)
    _, nats = sums_nats(terms, n)
    bound = 0
    with localcontext() as ctx:
        ctx.prec = 60
        for i, (x, count) in nats.items():
            bits = x / Decimal(2).ln()
            whole = (bits + 1 + (bits + count) * Decimal(2) ** -32
                     ).to_integral_value(rounding=ROUND_CEILING)
            bound = max(bound, int(whole)
                        + (abs(cleared[i][0]) - 1).bit_length())
    return bound


def parts_bound(terms, n: int) -> int:
    """The parts bound of theta._plan's fallback: the largest, over the
    live terms, of _coeff_bits of the term's atoms' parts at order
    n - e plus the bit length of each named sum's L1 norm through
    q^(n-L), L the least live e."""
    live = [t for t in terms if t.e <= n]
    span = n - min(t.e for t in live)
    bound = 0
    for t in live:
        scale, finite, inverse = _monomial_parts(t.num, t.den, n - t.e)
        l1 = {s: sum(abs(c) for _, c in ramanujan_f_terms(*s, span))
              for s in set(t.sums)}
        bound = max(bound, _coeff_bits(finite, inverse, n - t.e, scale)
                    + sum(l1[s].bit_length() for s in t.sums))
    return bound


def cleared_bound(terms, n: int) -> int:
    """B, the bound theta._plan sizes the cleared build of the live
    terms with: the sums bound, or, when that exceeds the densest
    figure pi sqrt(2 span / 3) / ln 2, span = n - L, the lesser of it
    and the parts bound."""
    span = n - min(t.e for t in terms if t.e <= n)
    bound = sums_bound(terms, n)
    if bound <= pi * sqrt(2 * span / 3) / log(2):
        return bound
    return min(bound, parts_bound(terms, n))


@lru_cache(maxsize=256)
def _factor_series(args: FArgs, p: int, n: int) -> tuple[tuple, int]:
    """(pairs, l1): the nonzero (exponent, coefficient) pairs of
    f(args)^p to order n, f(args) from ramanujan_f_sum and E_m^3 from
    Jacobi's identity (_factor_terms), and the sum of their |c|."""
    if p == 1:
        f = ramanujan_f_sum(args, n)
        pairs = [(f.offset + k, c) for k, c in enumerate(f.coeffs) if c]
    else:
        pairs = _factor_terms(args, p, n)
    return tuple(pairs), sum(abs(c) for _, c in pairs)


def cleared_product(scale: int, power: dict, n: int) -> list[int]:
    """The coefficients of scale * prod f(args)^p through q^n, each
    factor as _split lists it and from _factor_series, multiplied in
    packed limbs of W bits, W whole bytes with a bit to spare above the
    bit length of |scale| times the product of the factors' L1 norms:
    no coefficient of a partial product exceeds that, so no limb
    overflows."""
    factors = [(*_factor_series(args, p, n), k) for args, p, k in _split(power)]
    bound = abs(scale)
    for _, l1, k in factors:
        bound *= l1 ** k
    nbytes = (bound.bit_length() + 8) // 8
    W = 8 * nbytes
    mask = (1 << W * (n + 1)) - 1
    x = scale
    for f, _, k in factors:
        for _ in range(k):
            acc = 0
            for e, c in f:  # x's limbs below n + 1 - e, shifted up e
                y = (x & (mask >> e * W)) << e * W
                acc = acc + y if c == 1 else acc - y if c == -1 else acc + c * y
            x = acc & mask
    return _unpack_signed(x, nbytes, n + 1)
