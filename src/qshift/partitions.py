"""Partition identities over folded residue classes.

A folded residue set S modulo M names the parts k with k = +-s (mod M)
for some s in S.  Writing p(S, n) for the number of partitions of n into
such parts, two kinds of identity are supported:

    shifted    p(S, n) = p(T, n - a) for all n >= a
               equivalently  P_S(q) - q^a P_T(q) = 1
    shiftless  p(S, n) = p(T, n) for all n != a, with p(S,a) = p(T,a) + 1
               equivalently  P_S(q) - P_T(q) = q^a

where P_S is the generating function prod 1/(1 - q^k) over the parts.
Verification is exact to a configurable order n.  verify_identity and
infer_relation share one kernel: P_S and P_T are built as packed
integers (one fixed-width limb per coefficient, see qseries), the
relation becomes a single big-integer difference that is zero exactly
when it holds, and only a failing check decodes the limbs it reports.
count_partitions is an independent dynamic-programming oracle for the
same numbers.

The module also carries two special families with their own proofs: the
classical Rogers-Ramanujan shifted identities (moduli 55 and 70 in
disguise), and the modulus-72 identity labeled Thm-72.2 in the shipped
catalog, whose verification walks the chain of theta-function
dissections its proof is built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .qseries import (
    Series,
    _expand_parts,
    _residue_product_packed,
    invert,
    linear_combine,
    mul,
    pochhammer,
    shift_scale,
)
from .theta import (
    BRACKET,
    Atom,
    FMono,
    make_monomial,
    monomial_series,
    ramanujan_f_sum,
)

SHIFTED = "shifted"
SHIFTLESS = "shiftless"


class InvalidIdentity(ValueError):
    """Structurally malformed partition identity."""


class OrderTooSmall(ValueError):
    """Verification order too small to say anything."""


class InconsistentScaling(ValueError):
    """Residue gcd does not divide the shift."""


@dataclass(frozen=True)
class PartitionIdentity:
    """An a-shifted or shiftless identity between residue sets mod M."""

    M: int
    S: frozenset[int]
    T: frozenset[int]
    kind: str
    a: int

    def __post_init__(self):
        object.__setattr__(self, "S", frozenset(self.S))
        object.__setattr__(self, "T", frozenset(self.T))
        if self.M < 2:
            raise InvalidIdentity(f"modulus {self.M} too small")
        if self.kind not in (SHIFTED, SHIFTLESS):
            raise InvalidIdentity(f"unknown kind {self.kind!r}")
        if self.a < 1:
            raise InvalidIdentity(f"shift {self.a} must be positive")
        half = self.M // 2
        for name, side in (("S", self.S), ("T", self.T)):
            if not side:
                raise InvalidIdentity(f"{name} is empty")
            bad = [r for r in side if not 1 <= r <= half]
            if bad:
                raise InvalidIdentity(
                    f"{name} residues {sorted(bad)} outside 1..{half} mod {self.M}")
        if self.S == self.T:
            raise InvalidIdentity("S and T coincide")

    def key(self) -> tuple:
        """Deterministic sort key: (M, sorted S, sorted T, kind, a)."""
        return (self.M, tuple(sorted(self.S)), tuple(sorted(self.T)),
                self.kind, self.a)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a coefficient check up to the given order."""

    ok: bool
    order: int
    first_fail: int | None = None
    witness: tuple[int, int] | None = None  # (left count, right count) there


# ----------------------------------------------------------------------
# counting
# ----------------------------------------------------------------------

def parts_of(S, M: int, limit: int) -> list[int]:
    """Ascending parts k <= limit with k = +-s (mod M), s in S."""
    return _expand_parts(S, M, limit)


def count_partitions_table(S, M: int, n: int) -> list[int]:
    """p(S, 0..n) by direct dynamic programming (the slow oracle)."""
    table = [1] + [0] * n
    for k in parts_of(S, M, n):
        for j in range(k, n + 1):
            table[j] += table[j - k]
    return table


def count_partitions(S, M: int, n: int) -> int:
    """p(S, n): partitions of n into parts = +-s (mod M), s in S."""
    if n < 0:
        return 0
    return count_partitions_table(S, M, n)[n]


# ----------------------------------------------------------------------
# verification and inference
# ----------------------------------------------------------------------

def _mismatch(xs: int, xt: int, w: int, n: int, kind: str, a: int):
    """First failure of the relation between packed P_S and P_T, or None.

    xs and xt hold the coefficients of P_S and P_T to order n in limbs of
    w bits (qseries._residue_product_packed).  The relation is one packed
    difference

        shifted    d = xs - ((xt << a*w) & mask) - 1
        shiftless  d = xs - xt - (1 << a*w)

    whose signed limb k is d_k = lhs_k - rhs_k - want_k, the defect at
    q^k.  _partition_nbytes keeps every limb of xs and xt below
    2^(w-24), so |d_k| < 2^(w-1) and d = sum d_k 2^(w*k) is exact: if k
    is the first index with d_k != 0, then d = 2^(w*k) (d_k + 2^w R) and
    d_k is not a multiple of 2^w.  Hence d == 0 iff the relation holds at
    every index 0..n, and otherwise the lowest set bit of d lies inside
    limb k.  Only then are the two single limbs of the witness read.

    Returns (k, (lhs, rhs)) with lhs the coefficient of P_S at q^k and
    rhs that of q^a P_T (shifted) or P_T (shiftless) there.
    """
    mask = (1 << (w * (n + 1))) - 1
    if kind == SHIFTED:
        d = xs - ((xt << (a * w)) & mask) - 1
    else:
        d = xs - xt - (1 << (a * w))
    if d == 0:
        return None
    k = ((d & -d).bit_length() - 1) // w
    j = k - a if kind == SHIFTED else k
    limb = (1 << w) - 1
    rhs = (xt >> (j * w)) & limb if j >= 0 else 0
    return k, ((xs >> (k * w)) & limb, rhs)


def _lowest_limb(x: int, w: int) -> int | None:
    """Index of the first nonzero signed limb of x, None when x == 0.

    Exact when every limb is below 2^(w-1) in magnitude (see _mismatch).
    """
    return ((x & -x).bit_length() - 1) // w if x else None


def verify_identity(ident: PartitionIdentity, n: int) -> VerifyReport:
    """Check the identity's q-series form exactly to order n."""
    if n < ident.a + 2:
        raise OrderTooSmall(f"order {n} cannot see a shift of {ident.a}")
    xs, w = _residue_product_packed(ident.S, ident.M, n)
    xt, _ = _residue_product_packed(ident.T, ident.M, n)
    bad = _mismatch(xs, xt, w, n, ident.kind, ident.a)
    if bad is None:
        return VerifyReport(True, n)
    return VerifyReport(False, n, *bad)


def infer_relation(S, T, M: int, n: int):
    """Find (kind, a) relating the given sets, or None.

    Tries the one shifted candidate (a = the smallest part, where P_S - 1
    first differs from zero), then the one shiftless candidate (where P_S
    first differs from P_T), with the shift capped at n // 2 so a match
    is seen well inside the order.  Both series have constant term 1, so
    a candidate is never 0.  A returned relation holds at every index
    0..n, exactly as verify_identity would check it.  The orientation is
    as given: S is the unshifted (or larger) side.
    """
    S, T = frozenset(S), frozenset(T)
    if S == T:
        return None
    xs, w = _residue_product_packed(S, M, n)
    xt, _ = _residue_product_packed(T, M, n)
    cap = n // 2
    for kind, a in ((SHIFTED, _lowest_limb(xs - 1, w)),
                    (SHIFTLESS, _lowest_limb(xs - xt, w))):
        if (a is not None and a <= cap
                and _mismatch(xs, xt, w, n, kind, a) is None):
            return (kind, a)
    return None


def normalize_gcd(ident: PartitionIdentity) -> PartitionIdentity:
    """Undo a q -> q^g substitution when all residues and M share a factor g."""
    g = gcd(ident.M, *ident.S, *ident.T)
    if g == 1:
        return ident
    if ident.a % g:
        raise InconsistentScaling(
            f"residue gcd {g} does not divide the shift {ident.a}")
    return PartitionIdentity(
        ident.M // g,
        frozenset(s // g for s in ident.S),
        frozenset(t // g for t in ident.T),
        ident.kind,
        ident.a // g,
    )


# ----------------------------------------------------------------------
# special checks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    first_fail: int | None = None


@dataclass(frozen=True)
class SpecialReport:
    ok: bool
    order: int
    checks: tuple[CheckResult, ...]


def _check(name: str, lhs: Series, rhs: Series) -> CheckResult:
    k = lhs.first_difference(rhs)
    return CheckResult(name, k is None, k)


def _product_pool(r1: int, r2: int, m: int, n: int) -> Series:
    """1 / ((q^r1; q^m)(q^r2; q^m)) to order n."""
    return invert(mul(pochhammer(r1, m, 1, n), pochhammer(r2, m, 1, n)))


def rogers_ramanujan_check(n: int) -> SpecialReport:
    """The two classical shifted identities built from G and H.

    G(q) has parts +-1 (mod 5), H(q) has parts +-2 (mod 5); the checks are
    H(q)G(q^11) - q^2 G(q)H(q^11) = 1 and
    H(q^2)G(q^7) - q G(q^2)H(q^7) = (q; q^2) / (q^7; q^14).
    """
    if n < 20:
        raise OrderTooSmall(f"order {n} below the minimum of 20")

    def G(k, order):
        return _product_pool(k, 4 * k, 5 * k, order)

    def H(k, order):
        return _product_pool(2 * k, 3 * k, 5 * k, order)

    one = Series.one(n)
    lhs1 = linear_combine([
        (1, mul(H(1, n), G(11, n))),
        (-1, shift_scale(mul(G(1, n), H(11, n)), 1, 2)),
    ])
    c1 = _check("H(q)G(q^11) - q^2 G(q)H(q^11) = 1", lhs1, one)

    lhs2 = linear_combine([
        (1, mul(H(2, n), G(7, n))),
        (-1, shift_scale(mul(G(2, n), H(7, n)), 1, 1)),
    ])
    rhs2 = mul(pochhammer(1, 2, 1, n), invert(pochhammer(7, 14, 1, n)))
    c2 = _check("H(q^2)G(q^7) - q G(q^2)H(q^7) = (q;q^2)/(q^7;q^14)", lhs2, rhs2)

    checks = (c1, c2)
    return SpecialReport(all(c.ok for c in checks), n, checks)


THEOREM_72_2 = PartitionIdentity(
    72,
    frozenset({1, 3, 5, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19,
               23, 25, 27, 29, 31, 32, 33, 34, 35}),
    frozenset({1, 2, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 18, 19, 21,
               22, 23, 25, 26, 27, 29, 31, 32, 35}),
    SHIFTED,
    1,
)


def verify_theorem_72_2(n: int) -> SpecialReport:
    """Walk the theta-dissection chain behind catalog entry Thm-72.2.

    Checks, each to order n: the equivalent bracket-quotient form of the
    identity; the 2-dissections of f(q, -q^2) and f(-q, q^2); the
    3-dissection of f(q, q); the square dissection of f(q,q)f(q^2,q^2);
    the product form of f(q^9,q^9) - q f(q^3,q^15); the derived
    difference identity those combine into; and the partition identity
    itself.
    """
    if n < 50:
        raise OrderTooSmall(f"order {n} below the minimum of 50")

    def f(sa, ea, sb, eb):
        return ramanujan_f_sum(FMono(sa, ea), FMono(sb, eb), n)

    def br(exponents):
        return tuple(Atom(e, 72, BRACKET) for e in exponents)

    checks = []

    # bracket-quotient form of the identity
    union = sorted(set(range(1, 36)) - {4, 6, 20, 24, 28, 30})
    lhs = linear_combine([
        (1, monomial_series(make_monomial(1, 0, br((2, 15, 21, 22, 26))), n)),
        (-1, monomial_series(make_monomial(1, 1, br((3, 10, 14, 33, 34))), n)),
    ])
    rhs = monomial_series(
        make_monomial(1, 0, br(range(1, 36)), br((4, 6, 20, 24, 28, 30))), n)
    checks.append(_check(
        "[2,15,21,22,26:72] - q[3,10,14,33,34:72] = [1..35:72]/[4,6,20,24,28,30:72]",
        lhs, rhs))

    # 2-dissections
    fp = f(-1, 5, -1, 7)
    fm = shift_scale(f(-1, 1, -1, 11), 1, 1)
    checks.append(_check("f(q,-q^2) = f(-q^5,-q^7) + q f(-q,-q^11)",
                         f(1, 1, -1, 2), fp + fm))
    checks.append(_check("f(-q,q^2) = f(-q^5,-q^7) - q f(-q,-q^11)",
                         f(-1, 1, 1, 2), fp - fm))

    # 3-dissection of f(q, q)
    t3d_rhs = linear_combine([
        (1, f(1, 9, 1, 9)),
        (2, shift_scale(f(1, 3, 1, 15), 1, 1)),
    ])
    checks.append(_check("f(q,q) = f(q^9,q^9) + 2q f(q^3,q^15)",
                         f(1, 1, 1, 1), t3d_rhs))

    # dissection of the square-type product
    terr_rhs = linear_combine([
        (1, mul(f(1, 3, 1, 3), f(1, 6, 1, 6))),
        (2, shift_scale(mul(f(1, 1, 1, 5), f(1, 2, 1, 10)), 1, 1)),
    ])
    checks.append(_check(
        "f(q,q)f(q^2,q^2) = f(q^3,q^3)f(q^6,q^6) + 2q f(q,q^5)f(q^2,q^10)",
        mul(f(1, 1, 1, 1), f(1, 2, 1, 2)), terr_rhs))

    # product form of the 3-dissection head
    psi_lhs = linear_combine([
        (1, f(1, 9, 1, 9)),
        (-1, shift_scale(f(1, 3, 1, 15), 1, 1)),
    ])
    psi_rhs = mul(f(-1, 1, -1, 3), pochhammer(3, 6, -1, n))
    checks.append(_check("f(q^9,q^9) - q f(q^3,q^15) = f(-q,-q^3)(-q^3;q^6)",
                         psi_lhs, psi_rhs))

    # the derived difference identity combining the above
    hwg6_lhs = linear_combine([
        (1, mul(f(1, 2, 1, 2), f(1, 9, 1, 9))),
        (-1, mul(f(1, 3, 1, 3), f(1, 6, 1, 6))),
    ])
    hwg6_rhs = linear_combine([
        (2, shift_scale(mul(mul(f(1, 6, 1, 30), f(-1, 1, -1, 3)),
                            pochhammer(3, 6, -1, n)), 1, 2)),
    ])
    checks.append(_check(
        "f(q^2,q^2)f(q^9,q^9) - f(q^3,q^3)f(q^6,q^6)"
        " = 2q^2 f(q^6,q^30)f(-q,-q^3)(-q^3;q^6)",
        hwg6_lhs, hwg6_rhs))

    # the partition identity itself
    rep = verify_identity(THEOREM_72_2, n)
    checks.append(CheckResult("p(S,n) = p(T,n-1) at modulus 72",
                              rep.ok, rep.first_fail))

    checks = tuple(checks)
    return SpecialReport(all(c.ok for c in checks), n, checks)
