"""Partition identities over folded residue classes.

A folded residue set S modulo M names the parts k with k = +-s (mod M)
for some s in S.  Writing p(S, n) for the number of partitions of n into
such parts, two kinds of identity are supported:

    shifted    p(S, n) = p(T, n - a) for all n >= a
               equivalently  P_S(q) - q^a P_T(q) = 1
    shiftless  p(S, n) = p(T, n) for all n != a, with p(S,a) = p(T,a) + 1
               equivalently  P_S(q) - P_T(q) = q^a

where P_S is the generating function prod 1/(1 - q^k) over the parts.
Verification is exact to a configurable order n.  verify_identity
checks a given relation.  infer_relation finds the relation two sets
satisfy, in whichever orientation holds it, as the unit action
(equivalence.act) needs for an image, whose shift may have changed
sides.  Both decide a relation the same way, after cancelling the
factors both sides share, as the paper's proofs cancel the brackets
[r:M] common to both sides.  With U = S & T, P_S = P_U P_{S-U} and
P_T = P_U P_{T-U}, so the relation holds to order n iff

    shifted    P_{S-U} - q^a P_{T-U} = E_U
    shiftless  P_{S-U} - P_{T-U}     = q^a E_U

does, where E_U = 1/P_U = prod (1 - q^k) over the parts of U.  P_U is
a unit series (constant term 1), so the two forms first fail at the
same index, and first_fail is that of the uncancelled relation.

The relation is then cleared of denominators as the paper's proofs
clear them, by Jacobi's triple product.  With class r the bracket
[r:M] for 2r < M and [M/2:2M] = (q^(M/2); q^M) for 2r = M, the
cancelled relation is three theta terms on the class monomials
1/[S-U], 1/[T-U] and [U] (_monomials), written once, with each term's
c and q-power, by _relation_terms, like the special relations below.
Cleared, with A = S-U, B = T-U and U of sizes a, b, u, Theta_X the
product of X's class sums and E = E_M, the three are Theta_B E^(a+u),
Theta_A E^(b+u) and Theta_A Theta_B Theta_U.  One kernel decides it,
the cleared zero test theta.first_nonzero, which folds the hub [U]
with the term that shares the smaller of Theta_A and Theta_B with it;
for a shifted shift s and a > b,

    Theta_B (E^(a+u) - Theta_A Theta_U) - q^s Theta_A E^(b+u),

so each class sum is multiplied in once.  verify_identity checks its
identity's relation so.  infer_relation has at most three candidates
per pair of sets: the shifted ones at min(S) and min(T), and the
shiftless one at d = min(S ^ T), as P_S - P_T = P_U (P_{S-U} -
P_{T-U}) starts +-q^d, + iff d is in S, each P starting 1 + q^min.
An exact screen on the two sets' partition counts through a short
prefix (count_partitions_table, _counts_hold) drops every candidate
whose counts already disagree there, and first_nonzero checks each
one left, as verify_identity checks an identity: on the catalog's
orbits one candidate per pair.  infer_relation's outcome is memoized
per unordered pair, modulus and order, so a U(M) orbit meeting a
folded pair again checks it once.  Only a failing check builds its
witness, the two counts at the failing index, from count_partitions.
So every partition count the module reports comes from one DP,
count_partitions_table; qseries.residue_product, a packed product of
the same parts, is the independent route that selftest checks it
against.

The module also carries two special families with their own proofs: the
classical Rogers-Ramanujan shifted identities (moduli 55 and 70 in
disguise), and the modulus-72 identity labeled Thm-72.2 in the shipped
catalog, whose verification walks the chain of theta-function
dissections its proof is built from.  Each of their series checks is a
named relation, terms (theta.Term) of atoms and theta sums whose sum
vanishes, checked to the reported order by the cleared zero test
theta.first_nonzero, which writes every atom as its theta sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .qseries import _expand_parts
from .theta import BRACKET, PAREN, Atom, Term, first_nonzero

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

def count_partitions_table(S, M: int, n: int) -> list[int]:
    """p(S, 0..n) by direct dynamic programming: the one source of the
    partition counts the library reports (infer_relation's screen,
    verify_identity's witness, the expand command)."""
    table = [1] + [0] * n
    for k in _expand_parts(S, M, n):
        for j in range(k, n + 1):
            table[j] += table[j - k]
    return table


def count_partitions(S, M: int, n: int) -> int:
    """p(S, n): partitions of n into parts = +-s (mod M), s in S, and 0
    for n < 0; verify_identity's failure witness reads its two counts
    here."""
    if n < 0:
        return 0
    return count_partitions_table(S, M, n)[n]


# ----------------------------------------------------------------------
# verification and inference
# ----------------------------------------------------------------------

def _class(r: int, M: int) -> Atom:
    """Class r mod M: [r:M], or [M/2:2M] = (q^(M/2); q^M) for 2r = M."""
    return Atom(r, 2 * M if 2 * r == M else M, BRACKET)


def _monomials(S, T, M: int) -> tuple[Term, Term, Term]:
    """The class monomials 1/[S-T], 1/[T-S] and [S&T] as terms with
    c = 1 and e = 0; the classes of distinct residues are disjoint."""
    A, B, U = (tuple(_class(r, M) for r in sorted(rs))
               for rs in (S - T, T - S, S & T))
    return Term(1, 0, den=A), Term(1, 0, den=B), Term(1, 0, num=U)


def _relation_terms(X, Y, M: int, kind: str, a: int) -> list[Term]:
    """The one statement of the cancelled relation of (X, Y): three
    terms c q^e on the class monomials (_monomials),

        shifted    1/[X-Y] - q^a/[Y-X] - [X&Y]
        shiftless  1/[X-Y] - 1/[Y-X]   - q^a [X&Y]

    whose sum vanishes through q^n iff the relation holds through q^n,
    checked by theta.first_nonzero in verify_identity and
    infer_relation alike.
    """
    eb, eu = (a, 0) if kind == SHIFTED else (0, a)
    A, B, U = _monomials(X, Y, M)
    return [A, B._replace(c=-1, e=eb), U._replace(c=-1, e=eu)]


def verify_identity(ident: PartitionIdentity, n: int) -> VerifyReport:
    """Check the identity's q-series form exactly to order n: its
    _relation_terms, by the cleared zero test theta.first_nonzero,
    which multiplies each class sum in once.

    A failing check reports the first failing index k and the witness
    (p(S, k), p(T, k - a)) for a shifted identity or (p(S, k), p(T, k))
    for a shiftless one; only then are those two counts built, by
    count_partitions (p(T, k - a) = 0 for k < a).
    """
    if n < ident.a + 2:
        raise OrderTooSmall(f"order {n} cannot see a shift of {ident.a}")
    S, T, M, a = ident.S, ident.T, ident.M, ident.a
    hit = first_nonzero(_relation_terms(S, T, M, ident.kind, a), n)
    if hit is None:
        return VerifyReport(True, n)
    k, _ = hit
    j = k - a if ident.kind == SHIFTED else k
    return VerifyReport(False, n, k, (count_partitions(S, M, k),
                                      count_partitions(T, M, j)))


def infer_relation(S, T, M: int, n: int) -> PartitionIdentity | None:
    """The relation between two residue sets, oriented, or None.

    In orientation (X, Y), P_X - 1 starts at min(X), the only possible
    shifted shift.  P_S - P_T = P_{S&T} (P_{S-T} - P_{T-S}), each P
    starting 1 + q^min, starts +-q^d at d = min(S ^ T), + iff d is in
    S: the only possible shiftless shift, oriented (X, Y) with d in X,
    tested only when d <= n.  Each of these three candidates is decided
    once, as verify_identity decides an identity: its _relation_terms
    by theta.first_nonzero, after a screen on partition counts that
    drops only candidates that test would reject (_infer).

    A unit action can exchange which side carries the shift, and at
    most one orientation satisfies a relation, so one candidate holding
    is normalization, not choice; the identity returned holds at every
    index 0..n, the whole of what verify_identity would check.  An order
    that cannot tell the relation raises OrderTooSmall, as
    verify_identity does for a shift it cannot see, and asks for a
    larger order:

    - the one candidate that holds has a shift a > n // 2 (order 2a);
    - n < a + 2, a the least shift that holds;
    - none holds and n < d: P_S - P_T vanishes through q^n, so a
      shiftless relation at d cannot be seen;
    - more than one holds, as at tiny orders, where the counts of two
      sides can match by coincidence.

    None of this depends on the order of the two sets, so the outcome
    is memoized per (unordered pair, M, n) in the process (_infer): a
    U(M) orbit, and every later act on its identities in one process
    (selftest's round trips), meets the same folded pairs again, and
    one check answers each.  The memo holds the sets and the frozen
    identity or None; OrderTooSmall is not memoized (lru_cache keeps no
    exceptions), so a pair that raises is checked again, and raises the
    same error, on every call.
    """
    S, T = frozenset(S), frozenset(T)
    if S == T:
        return None
    return _infer(frozenset((S, T)), M, n)


def _counts_hold(px: list[int], py: list[int], kind: str, a: int) -> bool:
    """Whether the counts px = p(X, 0..k) and py = p(Y, 0..k) keep the
    relation of (X, Y) at every index j through k: p(X, j) - p(Y, j - a)
    = [j = 0] shifted, p(X, j) - p(Y, j) = [j = a] shiftless."""
    if kind == SHIFTED:
        return all(x - (py[j - a] if j >= a else 0) == (j == 0)
                   for j, x in enumerate(px))
    return all(x - y == (j == a) for j, (x, y) in enumerate(zip(px, py)))


@lru_cache(maxsize=512)
def _infer(pair: frozenset, M: int, n: int) -> PartitionIdentity | None:
    """infer_relation of the unordered pair of distinct sets, S the side
    holding d = min(S ^ T), where P_S - P_T starts +q^d.

    The candidates are shifted at min(S) and at min(T) and, if d <= n,
    shiftless at d.  The screen reads both sets' counts through k =
    min(n, 2 max(min S, min T, d) + 2) from count_partitions_table and
    drops every candidate _counts_hold rejects there.  A candidate that
    fails at some j <= k <= n fails through n too, so the screen changes
    no outcome.  The prefix runs through 2a + 2, or n, for every
    candidate's shift a, the order an accepted relation needs anyway
    (a <= n // 2 and a + 2 <= n), and costs less than one cleared
    build.  Each candidate left holds iff theta.first_nonzero finds its
    _relation_terms zero through q^n.  Its bound of 512 holds the 238
    folded pairs of the catalog's orbits at one order.
    """
    d = min(frozenset.symmetric_difference(*pair))
    S, T = sorted(pair, key=lambda X: d not in X)
    candidates = [(S, T, SHIFTED, min(S)), (T, S, SHIFTED, min(T))]
    if d <= n:
        candidates.append((S, T, SHIFTLESS, d))
    k = min(n, 2 * max(min(S), min(T), d) + 2)
    counts = {X: count_partitions_table(X, M, k) for X in pair}
    held = [(X, Y, kind, a) for X, Y, kind, a in candidates
            if _counts_hold(counts[X], counts[Y], kind, a)
            and first_nonzero(_relation_terms(X, Y, M, kind, a), n) is None]
    if not held:
        if n < d:
            raise OrderTooSmall(f"order {n} cannot see a shift of {d}")
        return None
    X, Y, kind, a = min(held, key=lambda c: c[3])
    if len(held) == 1 and a > n // 2:
        raise OrderTooSmall(f"order {n} cannot infer a shift of {a}, "
                            f"which needs order {2 * a}")
    if n < a + 2:
        raise OrderTooSmall(f"order {n} cannot see a shift of {a}")
    if len(held) > 1:
        raise OrderTooSmall(f"order {n} cannot tell apart the "
                            f"{len(held)} relations that hold through it")
    return PartitionIdentity(M, X, Y, kind, a)


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
    """Each (name, terms) relation checked through q^n by the cleared
    zero test; first_fail is the first exponent where the sum is
    nonzero."""
    hits = [(name, first_nonzero(terms, n)) for name, terms in relations]
    return tuple(CheckResult(name, hit is None, hit and hit[0])
                 for name, hit in hits)


def _rr_relations():
    """The Rogers-Ramanujan checks as (name, terms) relations:
    G(q^k) = 1/[k:5k] has the parts +-k (mod 5k), H(q^k) = 1/[2k:5k] the
    parts +-2k (mod 5k), and (q;q^2)/(q^7;q^14) = [1:4]/[7:28]."""
    def G(k):
        return Atom(k, 5 * k, BRACKET)

    def H(k):
        return Atom(2 * k, 5 * k, BRACKET)

    return (
        ("H(q)G(q^11) - q^2 G(q)H(q^11) = 1",
         (Term(1, 0, den=(H(1), G(11))), Term(-1, 2, den=(G(1), H(11))),
          Term(-1, 0))),
        ("H(q^2)G(q^7) - q G(q^2)H(q^7) = (q;q^2)/(q^7;q^14)",
         (Term(1, 0, den=(H(2), G(7))), Term(-1, 1, den=(G(2), H(7))),
          Term(-1, 0, num=(Atom(1, 4, BRACKET),),
               den=(Atom(7, 28, BRACKET),)))),
    )


def rogers_ramanujan_check(n: int) -> SpecialReport:
    """The two classical shifted identities built from G and H.

    G(q) has parts +-1 (mod 5), H(q) has parts +-2 (mod 5); the checks are
    H(q)G(q^11) - q^2 G(q)H(q^11) = 1 and
    H(q^2)G(q^7) - q G(q^2)H(q^7) = (q; q^2) / (q^7; q^14).
    """
    if n < 20:
        raise OrderTooSmall(f"order {n} below the minimum of 20")
    checks = _zero_checks(_rr_relations(), n)
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


def _thm72_relations():
    """The six series checks of the Thm-72.2 chain as (name, terms)
    relations: the 2-dissections of f(q, -q^2) and f(-q, q^2); the
    3-dissection of f(q, q); the square dissection of f(q,q)f(q^2,q^2);
    the product form of f(q^9,q^9) - q f(q^3,q^15); and the derived
    difference identity those combine into.  (-q^3; q^6) is the paren
    (3:12).  The identity's bracket-quotient form [T-S] - q[S-T] = [S|T]
    is not among them: it is the cancelled relation times the unit
    [S-T][T-S] (constant term 1), so it first fails where the identity,
    checked once, does; a shiftless shift would sit at min(S ^ T)."""
    def F(c, e, *sums, num=()):
        return Term(c, e, num=num, sums=sums)

    neg3 = (Atom(3, 12, PAREN),)
    return (
        ("f(q,-q^2) = f(-q^5,-q^7) + q f(-q,-q^11)",
         (F(1, 0, (1, 1, -1, 2)), F(-1, 0, (-1, 5, -1, 7)),
          F(-1, 1, (-1, 1, -1, 11)))),
        ("f(-q,q^2) = f(-q^5,-q^7) - q f(-q,-q^11)",
         (F(1, 0, (-1, 1, 1, 2)), F(-1, 0, (-1, 5, -1, 7)),
          F(1, 1, (-1, 1, -1, 11)))),
        ("f(q,q) = f(q^9,q^9) + 2q f(q^3,q^15)",
         (F(1, 0, (1, 1, 1, 1)), F(-1, 0, (1, 9, 1, 9)),
          F(-2, 1, (1, 3, 1, 15)))),
        ("f(q,q)f(q^2,q^2) = f(q^3,q^3)f(q^6,q^6) + 2q f(q,q^5)f(q^2,q^10)",
         (F(1, 0, (1, 1, 1, 1), (1, 2, 1, 2)),
          F(-1, 0, (1, 3, 1, 3), (1, 6, 1, 6)),
          F(-2, 1, (1, 1, 1, 5), (1, 2, 1, 10)))),
        ("f(q^9,q^9) - q f(q^3,q^15) = f(-q,-q^3)(-q^3;q^6)",
         (F(1, 0, (1, 9, 1, 9)), F(-1, 1, (1, 3, 1, 15)),
          F(-1, 0, (-1, 1, -1, 3), num=neg3))),
        ("f(q^2,q^2)f(q^9,q^9) - f(q^3,q^3)f(q^6,q^6)"
         " = 2q^2 f(q^6,q^30)f(-q,-q^3)(-q^3;q^6)",
         (F(1, 0, (1, 2, 1, 2), (1, 9, 1, 9)),
          F(-1, 0, (1, 3, 1, 3), (1, 6, 1, 6)),
          F(-2, 2, (1, 6, 1, 30), (-1, 1, -1, 3), num=neg3))),
    )


THM72_MIN_ORDER = 50


def verify_theorem_72_2(n: int) -> SpecialReport:
    """Walk the theta-dissection chain behind catalog entry Thm-72.2.

    Checks, each to order n: the six series relations of
    _thm72_relations, and the partition identity itself, once, by
    verify_identity (times the unit [S-T][T-S], constant term 1, it is
    the bracket-quotient form, failing first at the same index; a
    shiftless shift would be min(S ^ T), where P_S - P_T starts).
    """
    if n < THM72_MIN_ORDER:
        raise OrderTooSmall(
            f"order {n} below the minimum of {THM72_MIN_ORDER}")
    checks = _zero_checks(_thm72_relations(), n)
    rep = verify_identity(THEOREM_72_2, n)
    checks += (CheckResult("p(S,n) = p(T,n-1) at modulus 72",
                           rep.ok, rep.first_fail),)
    return SpecialReport(all(c.ok for c in checks), n, checks)
