"""Four-parameter theta relations instantiated at integer exponents.

The engine behind every derivation here is one four-bracket relation
(jkb below) together with reformulations of it.  Writing [e1,..,ek : m]
for a product of bracket atoms and (e1,..,ek : m) for parens, with every
symbol a power of q, the instantiated relations are:

    jkb       [z, t, x+t+y, z+y-x : n] - [x+t, z+y, t+y, z-x : n]
                  = q^(z-x) [y, x, x+t-z, z+t+y : n]
    four      -q^(b+2c) [b-c, a-x, a-y, x+y-b-c : n]
                  + q^(a+2c) [a-c, b-x, b-y, x+y-a-c : n]
                  = q^(a+2b) [a-b, c-x, c-y, x+y-a-b : n]
    four2     the same relation with both sides divided by the right
              side and every product rewritten with base 2n: two terms
              summing to 1, each a quotient of bracket atoms
    kal       (ex, ey, 2ex-ey, ex+2ey : n)
                  - q^(ex-ey) (ex, ey, 2ey-ex, 2ex+ey : n)
                  = [2ex, 2ey, ex+ey, ex-ey : n]
    qpp/qp    the quintuple product, in a paren form with base 3n and a
              pure-bracket form with base 6n

Shifted and shiftless partition identities fall out of four2 when both
numerators cancel completely into the denominators and what is left has
one of two sign/exponent shapes; derive_identity performs exactly that
symbolic reduction on one tuple, and derive_batch performs it in numpy
on many tuples of one base, as the search does.  Both report failures
as values so bulk search can build statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partitions import SHIFTED, SHIFTLESS, PartitionIdentity, VerifyReport
from .qseries import _first_nonzero
from .theta import (
    BRACKET,
    PAREN,
    DegenerateZero,
    ThetaMonomial,
    bracket,
    make_monomial,
    monomial_term,
    paren,
)

INCOMPLETE_CANCELLATION = "incomplete-cancellation"
REPEATED_ATOM = "repeated-atom"
EQUAL_SETS = "equal-sets"
UNRECOGNIZED_SIGN_PATTERN = "unrecognized-sign-pattern"

FAILURE_REASONS = (
    INCOMPLETE_CANCELLATION,
    REPEATED_ATOM,
    EQUAL_SETS,
    UNRECOGNIZED_SIGN_PATTERN,
)


@dataclass(frozen=True)
class FourParams:
    """Exponents (a, b, c, x, y) over the base q^n."""

    a: int
    b: int
    c: int
    x: int
    y: int
    n: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.x, self.y) < 1:
            raise ValueError("exponents must be positive")
        if self.n < 1:
            raise ValueError("base must be positive")

    def exponents(self) -> tuple[int, int, int, int, int]:
        return (self.a, self.b, self.c, self.x, self.y)


@dataclass(frozen=True)
class JkbParams:
    """Exponents (z, t, x, y) over the base q^n."""

    z: int
    t: int
    x: int
    y: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("base must be positive")


@dataclass(frozen=True)
class RawTerm:
    """A quotient of bracket products before canonicalization.

    num and den hold (exponent, step) pairs that may be far outside the
    canonical range; reduce_term folds them.
    """

    sign: int
    qexp: int
    num: tuple[tuple[int, int], ...]
    den: tuple[tuple[int, int], ...]


def reduce_term(t: RawTerm) -> ThetaMonomial:
    """Canonicalize every bracket and cancel numerator against denominator."""
    sign, qexp = t.sign, t.qexp
    num, den = [], []
    for e, m in t.num:
        s, shift, atom = bracket(e, m)
        sign *= s
        qexp += shift
        num.append(atom)
    for e, m in t.den:
        s, shift, atom = bracket(e, m)
        sign *= s
        qexp -= shift
        den.append(atom)
    return make_monomial(sign, qexp, num, den)


def _product_term(sign: int, qexp: int,
                  specs: Sequence[tuple[int, int, str]]) -> ThetaMonomial:
    """Normalized monomial for sign * q^qexp * prod of atoms given raw."""
    atoms = []
    for e, m, kind in specs:
        s, shift, atom = bracket(e, m) if kind == BRACKET else paren(e, m)
        sign *= s
        qexp += shift
        atoms.append(atom)
    return make_monomial(sign, qexp, atoms)


# ----------------------------------------------------------------------
# instantiated relations
# ----------------------------------------------------------------------

def jkb_instance(p: JkbParams):
    """Monomials (L1, L2, R) with L1 - L2 = R."""
    z, t, x, y, n = p.z, p.t, p.x, p.y, p.n
    L1 = _product_term(1, 0, [(z, n, BRACKET), (t, n, BRACKET),
                              (x + t + y, n, BRACKET), (z + y - x, n, BRACKET)])
    L2 = _product_term(1, 0, [(x + t, n, BRACKET), (z + y, n, BRACKET),
                              (t + y, n, BRACKET), (z - x, n, BRACKET)])
    R = _product_term(1, z - x, [(y, n, BRACKET), (x, n, BRACKET),
                                 (x + t - z, n, BRACKET), (z + t + y, n, BRACKET)])
    return L1, L2, R


def four_instance(p: FourParams):
    """Monomials (L1, L2, R) with L1 + L2 = R."""
    a, b, c, x, y, n = p.a, p.b, p.c, p.x, p.y, p.n
    L1 = _product_term(-1, b + 2 * c,
                       [(b - c, n, BRACKET), (a - x, n, BRACKET),
                        (a - y, n, BRACKET), (x + y - b - c, n, BRACKET)])
    L2 = _product_term(1, a + 2 * c,
                       [(a - c, n, BRACKET), (b - x, n, BRACKET),
                        (b - y, n, BRACKET), (x + y - a - c, n, BRACKET)])
    R = _product_term(1, a + 2 * b,
                      [(a - b, n, BRACKET), (c - x, n, BRACKET),
                       (c - y, n, BRACKET), (x + y - a - b, n, BRACKET)])
    return L1, L2, R


def four_instance_signed(params: Sequence[tuple[int, int]], n: int):
    """The same relation with each parameter a signed power sigma * q^e.

    params is five (sigma, e) pairs for a, b, c, x, y.  A bracket whose
    argument carries sigma = -1 becomes a paren atom.  Returns
    (L1, L2, R) with L1 + L2 = R.
    """
    (sa, ea), (sb, eb), (sc, ec), (sx, ex), (sy, ey) = params

    def spec(sigma, e):
        return (e, n, BRACKET if sigma == 1 else PAREN)

    L1 = _product_term(-sb, eb + 2 * ec,
                       [spec(sb * sc, eb - ec), spec(sa * sx, ea - ex),
                        spec(sa * sy, ea - ey),
                        spec(sx * sy * sb * sc, ex + ey - eb - ec)])
    L2 = _product_term(sa, ea + 2 * ec,
                       [spec(sa * sc, ea - ec), spec(sb * sx, eb - ex),
                        spec(sb * sy, eb - ey),
                        spec(sx * sy * sa * sc, ex + ey - ea - ec)])
    R = _product_term(sa, ea + 2 * eb,
                      [spec(sa * sb, ea - eb), spec(sc * sx, ec - ex),
                       spec(sc * sy, ec - ey),
                       spec(sx * sy * sa * sb, ex + ey - ea - eb)])
    return L1, L2, R


def _four2_exprs(a, b, c, x, y):
    """The linear expressions of the four2 terms, for ints or numpy arrays.

    Returns ((sign, qexp, core) for each term, shared).  A term is
    sign * q^qexp * prod [2e : 2n] over its core, divided by the product
    of [e : 2n] [e+n : 2n] over its core and the shared expressions.
    """
    shared = (a - b, c - x, c - y, x + y - a - b)
    t1 = (-1, 2 * c - a - b, (b - c, a - x, a - y, x + y - b - c))
    t2 = (1, 2 * c - 2 * b, (a - c, b - x, b - y, x + y - a - c))
    return (t1, t2), shared


def four2_terms(p: FourParams) -> tuple[RawTerm, RawTerm]:
    """The two base-2n quotient terms whose series sum to 1."""
    n, m = p.n, 2 * p.n
    terms, shared = _four2_exprs(*p.exponents())
    return tuple(
        RawTerm(sign, qexp,
                tuple((2 * e, m) for e in core),
                tuple((e + k, m) for e in core + shared for k in (0, n)))
        for sign, qexp, core in terms)


def kalvade_instance(ex: int, ey: int, n: int):
    """Monomials (T1, T2, R) with T1 - T2 = R."""
    T1 = _product_term(1, 0, [(ex, n, PAREN), (ey, n, PAREN),
                              (2 * ex - ey, n, PAREN), (ex + 2 * ey, n, PAREN)])
    T2 = _product_term(1, ex - ey, [(ex, n, PAREN), (ey, n, PAREN),
                                    (2 * ey - ex, n, PAREN),
                                    (2 * ex + ey, n, PAREN)])
    R = _product_term(1, 0, [(2 * ex, n, BRACKET), (2 * ey, n, BRACKET),
                             (ex + ey, n, BRACKET), (ex - ey, n, BRACKET)])
    return T1, T2, R


@dataclass(frozen=True)
class QuintupleForms:
    """The quintuple product in its paren form (base 3n) and bracket form
    (base 6n); each triple satisfies L1 - L2 = R."""

    qpp: tuple[ThetaMonomial, ThetaMonomial, ThetaMonomial]
    qp: tuple[ThetaMonomial, ThetaMonomial, ThetaMonomial]


def quintuple_instance(ex: int, n: int) -> QuintupleForms:
    m3, m6 = 3 * n, 6 * n
    shared = [(ex, m3, PAREN), (ex + n, m3, PAREN), (ex + 2 * n, m3, PAREN)]
    qpp = (
        _product_term(1, 0, shared + [(3 * ex + n, m3, PAREN)]),
        _product_term(1, ex, shared + [(-3 * ex + n, m3, PAREN)]),
        _product_term(1, 0, [(2 * ex, m3, BRACKET), (2 * ex + n, m3, BRACKET),
                             (2 * ex + 2 * n, m3, BRACKET), (n, m3, BRACKET)]),
    )
    qp = (
        _product_term(1, 0, [(-3 * ex + n, m6, BRACKET),
                             (-3 * ex + 4 * n, m6, BRACKET),
                             (6 * ex + 2 * n, m6, BRACKET)]),
        _product_term(1, ex, [(3 * ex + n, m6, BRACKET),
                              (3 * ex + 4 * n, m6, BRACKET),
                              (-6 * ex + 2 * n, m6, BRACKET)]),
        _product_term(1, 0, [(e, m6, BRACKET) for e in
                             (n, 2 * n, ex, ex + n, ex + 2 * n, ex + 3 * n,
                              ex + 4 * n, ex + 5 * n, 2 * ex + n, 2 * ex + 3 * n,
                              2 * ex + 5 * n, 3 * ex + n, 3 * ex + 4 * n,
                              -3 * ex + n, -3 * ex + 4 * n)]),
    )
    return QuintupleForms(qpp, qp)


# ----------------------------------------------------------------------
# derivation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Derivation:
    """Outcome of the symbolic reduction of the two base-2n terms."""

    params: FourParams
    terms: tuple[ThetaMonomial, ThetaMonomial]
    identity: PartitionIdentity | None = None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.identity is not None


def _classify_reduced(p: FourParams, r1: ThetaMonomial,
                      r2: ThetaMonomial) -> Derivation:
    terms = (r1, r2)

    def fail(reason):
        return Derivation(p, terms, reason=reason)

    if r1.num or r2.num:
        return fail(INCOMPLETE_CANCELLATION)
    if len(set(r1.den)) != len(r1.den) or len(set(r2.den)) != len(r2.den):
        return fail(REPEATED_ATOM)
    if set(r1.den) == set(r2.den):
        return fail(EQUAL_SETS)
    if r1.sign * r2.sign != -1:
        return fail(UNRECOGNIZED_SIGN_PATTERN)
    plus, minus = (r1, r2) if r1.sign == 1 else (r2, r1)
    if plus.qexp == 0 and minus.qexp >= 1:
        kind, a = SHIFTED, minus.qexp
    elif plus.qexp == minus.qexp and plus.qexp < 0:
        kind, a = SHIFTLESS, -plus.qexp
    else:
        return fail(UNRECOGNIZED_SIGN_PATTERN)
    ident = PartitionIdentity(
        2 * p.n,
        frozenset(atom.r for atom in plus.den),
        frozenset(atom.r for atom in minus.den),
        kind, a)
    return Derivation(p, terms, identity=ident)


def derive_identity(p: FourParams) -> Derivation:
    """Symbolically reduce the two quotient terms and read off an identity.

    Succeeds when both numerators cancel completely, both leftover
    denominators are repetition-free and distinct, and the signs and
    prefactors form the shifted pattern (plus-term exponent 0, minus-term
    exponent a >= 1: p(S,n) = p(T,n-a)) or the shiftless pattern (both
    exponents -a, opposite signs: p(S,n) = p(T,n) except at a).  S is
    always the denominator of the positive term.  Failure reasons are
    returned as values; degenerate parameters raise DegenerateZero.
    """
    t1, t2 = four2_terms(p)
    return _classify_reduced(p, reduce_term(t1), reduce_term(t2))


# Exponents and bases up to this size keep every quantity in derive_batch
# within int64; see its docstring.
_BATCH_LIMIT = 1 << 24


@dataclass(frozen=True)
class BatchDerivation:
    """derive_identity over a batch of tuples sharing one base n.

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
    """normalize_atom on every element: (odd sign, qshift, residue)."""
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
    """reduce_term on a batch of one four2 term.

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
    """_classify_reduced on a batch of reduced term pairs.

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
    """derive_identity for every tuple (a, b, c, x, y) of the broadcast
    integer arrays, all over base n, plus the primitivity test.

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


def verify_zero_combination(terms: Sequence[ThetaMonomial], n: int) -> VerifyReport:
    """Check that the monomials sum to the zero series up to order n, by
    the packed zero test; a failure's witness is (coefficient there, 0)."""
    if not terms:
        raise ValueError("need at least one term")
    hit = _first_nonzero([monomial_term(t, n) for t in terms], n)
    if hit is None:
        return VerifyReport(True, n)
    k, c = hit
    return VerifyReport(False, n, k, (c, 0))
