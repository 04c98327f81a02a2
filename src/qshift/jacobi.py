"""Four-parameter theta relations instantiated at integer exponents.

Every derivation here is one four-parameter theta relation and a
reformulation of it.  Writing [e1,..,ek : m] for a product of bracket
atoms and (e1,..,ek : m) for parens, with every symbol a power of q, the
instantiated relations are:

    four      -q^(b+2c) [b-c, a-x, a-y, x+y-b-c : n]
                  + q^(a+2c) [a-c, b-x, b-y, x+y-a-c : n]
                  = q^(a+2b) [a-b, c-x, c-y, x+y-a-b : n]
    four2     the same relation with both sides divided by the right
              side and every product rewritten with base 2n: two terms
              summing to 1, each a quotient of bracket atoms
    qp        the quintuple product in a pure-bracket form with base 6n

four takes signed parameters, where an argument -q^e turns a bracket
into a paren; the unsigned relation has every sign +1.  Each relation
has one generator (four_terms, four2_terms, quintuple_terms) that
returns its terms as theta monomials summing to zero, every term built
from raw (exponent, step, kind) atom specs by the one term builder
_term, which normalizes each atom with theta.normalize_atom.

Shifted and shiftless partition identities fall out of four2 when both
numerators cancel completely into the denominators and what is left has
one of two sign/exponent shapes; derive_identity performs exactly that
symbolic reduction on one tuple, and reports failures as values so bulk
search can build statistics.  The search calls it once per distinct
survivor key of a diagonal (the reduction lemma in search's docstring)
and reads the outcome back for every tuple with that key, so this
module is pure Python and only the search imports numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .partitions import SHIFTED, SHIFTLESS, PartitionIdentity, VerifyReport
from .theta import (
    BRACKET,
    PAREN,
    Term,
    first_nonzero,
    make_monomial,
    normalize_atom,
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


def _term(sign: int, qexp: int, num: Sequence[tuple[int, int, str]],
          den: Sequence[tuple[int, int, str]] = ()) -> Term:
    """The monomial sign * q^qexp * prod(num) / prod(den) from raw atom
    specs (e, m, kind), whose exponents may lie far outside the canonical
    range: every atom goes through theta.normalize_atom, and atoms common
    to both sides cancel (make_monomial)."""
    atoms = [], []
    for side, specs, to_q in zip(atoms, (num, den), (1, -1)):
        for e, m, kind in specs:
            s, shift, atom = normalize_atom(e, m, kind)
            sign *= s
            qexp += to_q * shift
            side.append(atom)
    return make_monomial(sign, qexp, *atoms)


# ----------------------------------------------------------------------
# instantiated relations, each as terms that sum to zero
# ----------------------------------------------------------------------

def four_terms(params: Sequence[tuple[int, int]],
               n: int) -> tuple[Term, Term, Term]:
    """The four relation as terms (L1, L2, -R) that sum to zero.

    params is five (sigma, e) pairs for a, b, c, x, y, each parameter a
    signed power sigma * q^e; the unsigned relation has every sigma = +1.
    A bracket whose argument carries sigma = -1 becomes a paren atom.
    """
    (sa, ea), (sb, eb), (sc, ec), (sx, ex), (sy, ey) = params

    def spec(sigma, e):
        return (e, n, BRACKET if sigma == 1 else PAREN)

    return (
        _term(-sb, eb + 2 * ec,
              [spec(sb * sc, eb - ec), spec(sa * sx, ea - ex),
               spec(sa * sy, ea - ey),
               spec(sx * sy * sb * sc, ex + ey - eb - ec)]),
        _term(sa, ea + 2 * ec,
              [spec(sa * sc, ea - ec), spec(sb * sx, eb - ex),
               spec(sb * sy, eb - ey),
               spec(sx * sy * sa * sc, ex + ey - ea - ec)]),
        _term(-sa, ea + 2 * eb,
              [spec(sa * sb, ea - eb), spec(sc * sx, ec - ex),
               spec(sc * sy, ec - ey),
               spec(sx * sy * sa * sb, ex + ey - ea - eb)]),
    )


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


def four2_terms(p: FourParams) -> tuple[Term, Term, Term]:
    """The four2 relation as terms (T1, T2, -1) that sum to zero: T1 and
    T2 are the two base-2n quotient terms, reduced, whose sum is 1."""
    n, m = p.n, 2 * p.n
    terms, shared = _four2_exprs(*p.exponents())
    t1, t2 = (
        _term(sign, qexp, [(2 * e, m, BRACKET) for e in core],
              [(e + k, m, BRACKET) for e in core + shared for k in (0, n)])
        for sign, qexp, core in terms)
    return t1, t2, Term(-1, 0)


def quintuple_terms(ex: int, n: int) -> tuple[Term, Term, Term]:
    """The quintuple product in its bracket form with base 6n, as terms
    (L1, -L2, -R) that sum to zero."""
    m6 = 6 * n
    return (
        _term(1, 0, [(-3 * ex + n, m6, BRACKET), (-3 * ex + 4 * n, m6, BRACKET),
                     (6 * ex + 2 * n, m6, BRACKET)]),
        _term(-1, ex, [(3 * ex + n, m6, BRACKET), (3 * ex + 4 * n, m6, BRACKET),
                       (-6 * ex + 2 * n, m6, BRACKET)]),
        _term(-1, 0, [(e, m6, BRACKET) for e in
                      (n, 2 * n, ex, ex + n, ex + 2 * n, ex + 3 * n,
                       ex + 4 * n, ex + 5 * n, 2 * ex + n, 2 * ex + 3 * n,
                       2 * ex + 5 * n, 3 * ex + n, 3 * ex + 4 * n,
                       -3 * ex + n, -3 * ex + 4 * n)]),
    )


# ----------------------------------------------------------------------
# derivation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Derivation:
    """Outcome of the symbolic reduction of the two base-2n terms."""

    params: FourParams
    terms: tuple[Term, Term]
    identity: PartitionIdentity | None = None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.identity is not None


def _classify_reduced(p: FourParams, r1: Term, r2: Term) -> Derivation:
    terms = (r1, r2)

    def fail(reason):
        return Derivation(p, terms, reason=reason)

    if r1.num or r2.num:
        return fail(INCOMPLETE_CANCELLATION)
    if len(set(r1.den)) != len(r1.den) or len(set(r2.den)) != len(r2.den):
        return fail(REPEATED_ATOM)
    if set(r1.den) == set(r2.den):
        return fail(EQUAL_SETS)
    if r1.c * r2.c != -1:
        return fail(UNRECOGNIZED_SIGN_PATTERN)
    plus, minus = (r1, r2) if r1.c == 1 else (r2, r1)
    if plus.e == 0 and minus.e >= 1:
        kind, a = SHIFTED, minus.e
    elif plus.e == minus.e and plus.e < 0:
        kind, a = SHIFTLESS, -plus.e
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
    t1, t2, _ = four2_terms(p)
    return _classify_reduced(p, t1, t2)


def verify_zero_combination(terms: Sequence[Term], n: int) -> VerifyReport:
    """Check that the terms sum to the zero series up to order n, by
    the cleared zero test (theta.first_nonzero); a failure's witness is
    (coefficient there, 0)."""
    if not terms:
        raise ValueError("need at least one term")
    hit = first_nonzero(terms, n)
    if hit is None:
        return VerifyReport(True, n)
    k, c = hit
    return VerifyReport(False, n, k, (c, 0))
