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
infer_relation share one kernel, which works after cancelling the
factors both sides share, as the paper's proofs cancel the brackets
[r:M] common to both sides.  With U = S & T, P_S = P_U P_{S-U} and
P_T = P_U P_{T-U}, so the relation holds to order n iff

    shifted    P_{S-U} - q^a P_{T-U} = E_U
    shiftless  P_{S-U} - P_{T-U}     = q^a E_U

does, where E_U = 1/P_U = prod (1 - q^k) over the parts of U.  P_U is
a unit series (constant term 1), so the two forms first fail at the
same index, and first_fail is that of the uncancelled relation.

The kernel then clears denominators in theta-sum form, as the paper's
proofs use Jacobi's triple product on each bracket [r:M].  With
E = (q^M; q^M), each residue class gives prod (1 - q^k) = g_r / E, where
g_r = f(-q^r, -q^(M-r)) is a sum of about 2 sqrt(2n/M) signed powers of
q (for r = M/2 it is the pentagonal sum (q^r; q^r)).  Multiplying the
cancelled relation by the unit Theta_{S-U} Theta_{T-U} E^|U|
(Theta_X = prod_X g_r) turns all three series into products of sparse
sums, and E^3 is Jacobi's sparser sum.  Each series is one packed
integer (one limb per coefficient, see qseries) built by one shift-add
per sparse term; the cleared relation is one big-integer difference
that is zero exactly when the relation holds.  The limb width comes
from a proven bound on the cancelled products (qseries._coeff_bits),
far below the width p(n) would need: only the first nonzero
coefficient of the difference has to fit in a limb (see _mismatch).
Only a failing check builds its witness, the two partition counts at
the failing index.  count_partitions is an independent
dynamic-programming oracle for the same numbers.

The module also carries two special families with their own proofs: the
classical Rogers-Ramanujan shifted identities (moduli 55 and 70 in
disguise), and the modulus-72 identity labeled Thm-72.2 in the shipped
catalog, whose verification walks the chain of theta-function
dissections its proof is built from.  Each of their series checks is a
named relation, terms (qseries.Term) whose sum vanishes, checked by the
one packed zero test qseries._first_nonzero to the reported order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qseries import (
    Term,
    _coeff_bits,
    _expand_parts,
    _first_nonzero,
    _limb_width,
    _lowest_limb,
    _pack_product,
    _pack_sparse,
)
from .theta import (
    BRACKET,
    Atom,
    make_monomial,
    monomial_term,
    ramanujan_f_terms,
)

SHIFTED = "shifted"
SHIFTLESS = "shiftless"


class InvalidIdentity(ValueError):
    """Structurally malformed partition identity."""


class OrderTooSmall(ValueError):
    """Verification order too small to say anything."""


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

def _euler_cube_terms(m: int, n: int) -> list[tuple[int, int]]:
    """(q^m; q^m)^3 = sum_{k >= 0} (-1)^k (2k+1) q^(m k(k+1)/2) (Jacobi)
    to order n: about sqrt(2n/m) terms, fewer than one factor E has."""
    terms = []
    k = 0
    while (e := m * k * (k + 1) // 2) <= n:
        terms.append((e, -(2 * k + 1) if k % 2 else 2 * k + 1))
        k += 1
    return terms


def _cancelled(S, T, M: int, n: int) -> tuple[int, int, int, int]:
    """The three packed series the kernel compares, at one limb width.

    With A = S - T, B = T - S and U = S & T (residue sets, whose classes
    are disjoint), the cancelled relation compares P_A, P_B and
    E_U = prod (1 - q^k) over the parts of U (P_X = prod 1/(1 - q^k)
    over the parts of X).  By the triple product each class r gives
    prod (1 - q^k) = g_r / E, so with Theta_X = prod_X g_r

        P_A = E^|A| / Theta_A,  P_B = E^|B| / Theta_B,  E_U = Theta_U / E^|U|.

    Multiplying all three by the unit Theta_A Theta_B E^|U| (constant
    term 1) clears every denominator.  Returns (ya, yb, yu, w) with

        ya = E^(|A|+|U|) Theta_B,  yb = E^(|B|+|U|) Theta_A,
        yu = Theta_U Theta_A Theta_B,

    each packed in w-bit limbs mod 2^(w*(n+1)) and built by one
    shift-add per sparse term (qseries._pack_sparse): Theta_A and
    Theta_B are built once and reused, and each full three factors of E
    are one factor E^3.  E = f(-q^M, -q^(2M)), and g_r = f(-q^r, -q^(M-r))
    for 2r < M; for 2r = M the class is the single progression
    (q^r; q^M), so g_r = (q^r; q^r) = f(-q^r, -q^(2r)).

    w is the width the uncleared series need: every coefficient of P_A
    and P_B lies in [0, 2^b) and every one of E_U in (-2^b, 2^b), b the
    largest of the three _coeff_bits bounds, and w >= b + 24.  The
    cleared series' own coefficients may overflow their limbs; only the
    first nonzero coefficient of a difference has to fit (see _mismatch).
    """
    ps = set(_expand_parts(S, M, n))
    pt = set(_expand_parts(T, M, n))
    pa, pb, pu = sorted(ps - pt), sorted(pt - ps), sorted(ps & pt)
    w = _limb_width(max(_coeff_bits((), pa, n), _coeff_bits((), pb, n),
                        _coeff_bits(pu, (), n)))
    A, B, U = sorted(S - T), sorted(T - S), sorted(S & T)
    E = ramanujan_f_terms(-1, M, -1, 2 * M, n)
    E3 = _euler_cube_terms(M, n)

    def g(r):
        return ramanujan_f_terms(-1, r, -1, M - r if 2 * r < M else M, n)

    def build(x, factors):
        for terms in factors:
            x = _pack_sparse(x, terms, n, w)
        return x

    def e_power(p):
        return [E3] * (p // 3) + [E] * (p % 3)

    ta = build(1, (g(r) for r in A))
    tb = build(1, (g(r) for r in B))
    # Theta_U Theta_A Theta_B from the larger of Theta_A and Theta_B
    start, rest = (ta, B) if len(A) >= len(B) else (tb, A)
    yu = build(start, (g(r) for r in rest + U))
    return (build(tb, e_power(len(A) + len(U))),
            build(ta, e_power(len(B) + len(U))), yu, w)


def _mismatch(packed, n: int, kind: str, a: int) -> int | None:
    """First index 0..n where the relation fails, or None if it holds.

    packed is _cancelled(S, T, M, n).  With U = S & T, P_S = P_U P_{S-U}
    and P_T = P_U P_{T-U}, and _cancelled multiplies the bracket below by
    a unit V (constant term 1), so

        P_S - q^a P_T - 1  = P_U V^-1 (ya - q^a yb - yu)
        P_S - P_T - q^a    = P_U V^-1 (ya - yb - q^a yu).

    The cleared defect is one packed difference

        shifted    d = ya - (yb << a*w) - yu
        shiftless  d = ya - yb - (yu << a*w)

    taken mod 2^(w*(n+1)).  P_U V^-1 has constant term 1, so the cleared
    defect's first nonzero coefficient c, at index k, is the uncleared
    bracket's (P_{S-U} - q^a P_{T-U} - E_U, or the shiftless one) and the
    relation's first failing index, and |c| < 3 * 2^b < 2^(w-1) (see
    _cancelled).  By the argument of qseries._first_nonzero (packing is
    a ring homomorphism), the lowest set bit of d lies in limb k however
    far the later cleared coefficients overflow their limbs.
    """
    ya, yb, yu, w = packed
    mask = (1 << (w * (n + 1))) - 1
    if kind == SHIFTED:
        d = (ya - (yb << (a * w)) - yu) & mask
    else:
        d = (ya - yb - (yu << (a * w))) & mask
    return _lowest_limb(d, w)


def _count(S, M: int, k: int) -> int:
    """p(S, k) read from a packed product to order k (0 for k < 0)."""
    if k < 0:
        return 0
    parts = _expand_parts(S, M, k)
    w = _limb_width(_coeff_bits((), parts, k))
    return _pack_product((), parts, k, w) >> (k * w)


def verify_identity(ident: PartitionIdentity, n: int) -> VerifyReport:
    """Check the identity's q-series form exactly to order n.

    A failing check reports the first failing index k and the witness
    (p(S, k), p(T, k - a)) for a shifted identity or (p(S, k), p(T, k))
    for a shiftless one; only then are those two counts built.
    """
    if n < ident.a + 2:
        raise OrderTooSmall(f"order {n} cannot see a shift of {ident.a}")
    S, T, M, a = ident.S, ident.T, ident.M, ident.a
    k = _mismatch(_cancelled(S, T, M, n), n, ident.kind, a)
    if k is None:
        return VerifyReport(True, n)
    j = k - a if ident.kind == SHIFTED else k
    return VerifyReport(False, n, k, (_count(S, M, k), _count(T, M, j)))


def infer_relation(S, T, M: int, n: int):
    """Find (kind, a) relating the given sets, or None.

    Tries the one shifted candidate, then the one shiftless candidate,
    each with the shift capped at n // 2 so a match is seen well inside
    the order.  P_S - 1 starts at the smallest part, min(S), so that is
    the only possible shifted shift; P_S - P_T = P_U (P_{S-U} - P_{T-U})
    starts where P_{S-U} - P_{T-U} does, and so does ya - yb, which is
    that difference times a unit, with the same first coefficient (see
    _mismatch); that is the only possible shiftless shift.  Both products have constant term 1, so a
    candidate is never 0.  A returned relation holds at every index 0..n,
    exactly as verify_identity would check it.  The orientation is as
    given: S is the unshifted (or larger) side.
    """
    S, T = frozenset(S), frozenset(T)
    if S == T:
        return None
    packed = _cancelled(S, T, M, n)
    ya, yb, _, w = packed
    cap = n // 2
    for kind, a in ((SHIFTED, min(S)), (SHIFTLESS, _lowest_limb(ya - yb, w))):
        if (a is not None and a <= cap
                and _mismatch(packed, n, kind, a) is None):
            return (kind, a)
    return None


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


def _zero_checks(relations, n: int) -> tuple[CheckResult, ...]:
    """Each (name, terms) relation checked through q^n by the packed zero
    test; first_fail is the first exponent where the sum is nonzero."""
    hits = [(name, _first_nonzero(terms, n)) for name, terms in relations]
    return tuple(CheckResult(name, hit is None, hit and hit[0])
                 for name, hit in hits)


def _rr_relations(n: int):
    """The Rogers-Ramanujan checks as (name, terms) relations to order n;
    G(q^k) has the parts +-k (mod 5k), H(q^k) the parts +-2k (mod 5k)."""
    def G(k):
        return [*range(k, n + 1, 5 * k), *range(4 * k, n + 1, 5 * k)]

    def H(k):
        return [*range(2 * k, n + 1, 5 * k), *range(3 * k, n + 1, 5 * k)]

    return (
        ("H(q)G(q^11) - q^2 G(q)H(q^11) = 1",
         (Term(1, 0, inverse=H(1) + G(11)), Term(-1, 2, inverse=G(1) + H(11)),
          Term(-1, 0))),
        ("H(q^2)G(q^7) - q G(q^2)H(q^7) = (q;q^2)/(q^7;q^14)",
         (Term(1, 0, inverse=H(2) + G(7)), Term(-1, 1, inverse=G(2) + H(7)),
          Term(-1, 0, finite=range(1, n + 1, 2),
               inverse=range(7, n + 1, 14)))),
    )


def rogers_ramanujan_check(n: int) -> SpecialReport:
    """The two classical shifted identities built from G and H.

    G(q) has parts +-1 (mod 5), H(q) has parts +-2 (mod 5); the checks are
    H(q)G(q^11) - q^2 G(q)H(q^11) = 1 and
    H(q^2)G(q^7) - q G(q^2)H(q^7) = (q; q^2) / (q^7; q^14).
    """
    if n < 20:
        raise OrderTooSmall(f"order {n} below the minimum of 20")
    checks = _zero_checks(_rr_relations(n), n)
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


def _thm72_relations(n: int):
    """The seven series checks of the Thm-72.2 chain as (name, terms)
    relations to order n: the bracket-quotient form of the identity; the
    2-dissections of f(q, -q^2) and f(-q, q^2); the 3-dissection of
    f(q, q); the square dissection of f(q,q)f(q^2,q^2); the product form
    of f(q^9,q^9) - q f(q^3,q^15); and the derived difference identity
    those combine into."""
    def f(sa, ea, sb, eb):
        return ramanujan_f_terms(sa, ea, sb, eb, n)

    def F(c, e, *sums, finite=()):
        return Term(c, e, sparse=sums, finite=finite)

    def br(sign, qexp, num, den=()):
        return monomial_term(make_monomial(
            sign, qexp, [Atom(r, 72, BRACKET) for r in num],
            [Atom(r, 72, BRACKET) for r in den]), n)

    def neg3(e):  # the factors of (-q^3; q^6) to order n - e
        return [-k for k in range(3, n - e + 1, 6)]

    return (
        ("[2,15,21,22,26:72] - q[3,10,14,33,34:72]"
         " = [1..35:72]/[4,6,20,24,28,30:72]",
         (br(1, 0, (2, 15, 21, 22, 26)), br(-1, 1, (3, 10, 14, 33, 34)),
          br(-1, 0, range(1, 36), (4, 6, 20, 24, 28, 30)))),
        ("f(q,-q^2) = f(-q^5,-q^7) + q f(-q,-q^11)",
         (F(1, 0, f(1, 1, -1, 2)), F(-1, 0, f(-1, 5, -1, 7)),
          F(-1, 1, f(-1, 1, -1, 11)))),
        ("f(-q,q^2) = f(-q^5,-q^7) - q f(-q,-q^11)",
         (F(1, 0, f(-1, 1, 1, 2)), F(-1, 0, f(-1, 5, -1, 7)),
          F(1, 1, f(-1, 1, -1, 11)))),
        ("f(q,q) = f(q^9,q^9) + 2q f(q^3,q^15)",
         (F(1, 0, f(1, 1, 1, 1)), F(-1, 0, f(1, 9, 1, 9)),
          F(-2, 1, f(1, 3, 1, 15)))),
        ("f(q,q)f(q^2,q^2) = f(q^3,q^3)f(q^6,q^6) + 2q f(q,q^5)f(q^2,q^10)",
         (F(1, 0, f(1, 1, 1, 1), f(1, 2, 1, 2)),
          F(-1, 0, f(1, 3, 1, 3), f(1, 6, 1, 6)),
          F(-2, 1, f(1, 1, 1, 5), f(1, 2, 1, 10)))),
        ("f(q^9,q^9) - q f(q^3,q^15) = f(-q,-q^3)(-q^3;q^6)",
         (F(1, 0, f(1, 9, 1, 9)), F(-1, 1, f(1, 3, 1, 15)),
          F(-1, 0, f(-1, 1, -1, 3), finite=neg3(0)))),
        ("f(q^2,q^2)f(q^9,q^9) - f(q^3,q^3)f(q^6,q^6)"
         " = 2q^2 f(q^6,q^30)f(-q,-q^3)(-q^3;q^6)",
         (F(1, 0, f(1, 2, 1, 2), f(1, 9, 1, 9)),
          F(-1, 0, f(1, 3, 1, 3), f(1, 6, 1, 6)),
          F(-2, 2, f(1, 6, 1, 30), f(-1, 1, -1, 3), finite=neg3(2)))),
    )


def verify_theorem_72_2(n: int) -> SpecialReport:
    """Walk the theta-dissection chain behind catalog entry Thm-72.2.

    Checks, each to order n: the seven series relations of
    _thm72_relations, and the partition identity itself.
    """
    if n < 50:
        raise OrderTooSmall(f"order {n} below the minimum of 50")
    checks = _zero_checks(_thm72_relations(n), n)
    rep = verify_identity(THEOREM_72_2, n)
    checks += (CheckResult("p(S,n) = p(T,n-1) at modulus 72",
                           rep.ok, rep.first_fail),)
    return SpecialReport(all(c.ok for c in checks), n, checks)
