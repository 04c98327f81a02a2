"""Theta-product atoms, monomials, and two-variable theta series.

Two kinds of atom, both parameterized by a residue r and a step m:

    bracket [r:m] = (q^r; q^m)_inf * (q^(m-r); q^m)_inf
    paren   (r:m) = (-q^r; q^m)_inf * (-q^(m-r); q^m)_inf

Both are symmetric under r -> m-r, and both satisfy a quasi-periodicity
in r with period m:

    [e+m : m] = -q^(-e) [e : m]          (e+m : m) = q^(-e) (e : m)

so any integer exponent reduces to a canonical residue 0 < r <= m/2
(brackets) or 0 <= r <= m/2 (parens) times a sign and a power of q.
A bracket with e divisible by m contains the factor (1 - 1) and is
identically zero; the parenthesized analogue is 2(-q^m; q^m)^2 instead.

A ThetaMonomial is sign * q^qexp * (product of atoms) / (product of
atoms), with numerator and denominator stored as sorted multisets;
monomial_term makes it a term of the packed zero test
(qseries._first_nonzero), and monomial_series expands that term.

The two-variable series f(a, b) = sum_k a^(k(k+1)/2) b^(k(k-1)/2) is
supported for arguments of the form sigma * q^e.  Its one generator,
ramanujan_f_terms, lists its sparse terms; the triple-product
factorization f(a, b) = (-a; ab)_inf (-b; ab)_inf (ab; ab)_inf is
available separately so the two can be checked against each other.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from .qseries import NonUnitLeading, Series, Term, product_series, shift_scale


class DegenerateZero(ValueError):
    """Bracket atom with exponent divisible by the step: identically zero."""


class Divergent(ValueError):
    """Theta series whose exponents do not go to infinity."""


class UnsupportedNegativeExponent(ValueError):
    """Product form needs both exponents positive."""


BRACKET = "bracket"
PAREN = "paren"


class Atom(NamedTuple):
    """Canonical theta atom: residue r, step m, bracket or paren kind."""

    r: int
    m: int
    kind: str


# ----------------------------------------------------------------------
# normalization
# ----------------------------------------------------------------------

def normalize_atom(e: int, m: int) -> tuple[int, int, int]:
    """Reduce the bracket [e : m] to sign * q^qshift * [r : m].

    Returns (sign, qshift, r) with 0 < r <= m/2.  Raises DegenerateZero
    when e is divisible by m, since the product then vanishes.
    """
    if m < 1:
        raise ValueError(f"step must be positive, got {m}")
    k, r0 = divmod(e, m)
    if r0 == 0:
        raise DegenerateZero(f"[{e} : {m}] vanishes (exponent divisible by step)")
    sign = -1 if k % 2 else 1
    qshift = -(k * r0 + m * k * (k - 1) // 2)
    return sign, qshift, min(r0, m - r0)


def normalize_paren(e: int, m: int) -> tuple[int, int]:
    """Reduce the paren (e : m) to q^qshift * (r : m).

    Returns (qshift, r) with 0 <= r <= m/2.  Never vanishes: r may be 0,
    where (0 : m) = 2 (-q^m; q^m)^2.
    """
    if m < 1:
        raise ValueError(f"step must be positive, got {m}")
    k, r0 = divmod(e, m)
    qshift = -(k * r0 + m * k * (k - 1) // 2)
    return qshift, min(r0, m - r0)


def bracket(e: int, m: int) -> tuple[int, int, Atom]:
    """Like normalize_atom but packaging the residue as an Atom."""
    sign, qshift, r = normalize_atom(e, m)
    return sign, qshift, Atom(r, m, BRACKET)


def paren(e: int, m: int) -> tuple[int, int, Atom]:
    """Like normalize_paren but packaging the residue as an Atom (sign 1)."""
    qshift, r = normalize_paren(e, m)
    return 1, qshift, Atom(r, m, PAREN)


# ----------------------------------------------------------------------
# atom and monomial series
# ----------------------------------------------------------------------

def _atom_factors(a: Atom, n: int) -> tuple[int, list[int]]:
    """(scale, factors) with a = scale * prod (1 - s q^k) to order n,
    each factor given as s*k, as product_series takes them."""
    r, m = a.r, a.m
    if a.kind == BRACKET:
        if not 0 < r <= m // 2:
            raise ValueError(f"bracket residue {r} not canonical for step {m}")
        return 1, [*range(r, n + 1, m), *range(m - r, n + 1, m)]
    if a.kind == PAREN:
        if not 0 <= r <= m // 2:
            raise ValueError(f"paren residue {r} not canonical for step {m}")
        if r == 0:
            return 2, [-k for k in range(m, n + 1, m)] * 2
        return 1, [-k for k in (*range(r, n + 1, m), *range(m - r, n + 1, m))]
    raise ValueError(f"unknown atom kind {a.kind!r}")


@lru_cache(maxsize=None)
def atom_series(r: int, m: int, kind: str, n: int) -> Series:
    """Series expansion of a canonical atom to order n."""
    scale, factors = _atom_factors(Atom(r, m, kind), n)
    return product_series(factors, (), n, scale)


@dataclass(frozen=True)
class ThetaMonomial:
    """sign * q^qexp * prod(num) / prod(den), atoms as sorted multisets."""

    sign: int
    qexp: int
    num: tuple[Atom, ...] = ()
    den: tuple[Atom, ...] = ()


def make_monomial(sign: int, qexp: int,
                  num: Iterable[Atom] = (), den: Iterable[Atom] = ()) -> ThetaMonomial:
    """Build a ThetaMonomial, cancelling atoms common to both sides."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    ncount = Counter(num)
    dcount = Counter(den)
    common = ncount & dcount
    return ThetaMonomial(
        sign, qexp,
        tuple(sorted((ncount - common).elements())),
        tuple(sorted((dcount - common).elements())),
    )


def monomial_neg(a: ThetaMonomial) -> ThetaMonomial:
    return ThetaMonomial(-a.sign, a.qexp, a.num, a.den)


def monomial_term(mono: ThetaMonomial, n: int) -> Term:
    """The monomial as a qseries.Term with its factors listed to order
    n - qexp: the parts of numerator atoms are finite factors, those of
    denominator atoms inverse ones (a denominator (0 : m), constant term
    2, is not a unit: NonUnitLeading)."""
    inner = n - mono.qexp
    scale, finite, inverse = 1, [], []
    for a in mono.num:
        c, factors = _atom_factors(a, inner)
        scale *= c
        finite += factors
    for a in mono.den:
        c, factors = _atom_factors(a, inner)
        if c != 1:
            raise NonUnitLeading(f"{atom_str(a)} has constant term {c}")
        inverse += factors
    return Term(mono.sign, mono.qexp, finite=finite, inverse=inverse,
                scale=scale)


def monomial_series(mono: ThetaMonomial, n: int) -> Series:
    """Expand a monomial to order n in one packed build of its term
    (monomial_term) at order n - qexp."""
    t = monomial_term(mono, n)
    acc = product_series(t.finite, t.inverse, n - t.e, t.scale)
    return shift_scale(acc, t.c, t.e)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def atom_str(a: Atom) -> str:
    return (f"[{a.r}:{a.m}]" if a.kind == BRACKET else f"({a.r}:{a.m})")


def monomial_str(mono: ThetaMonomial) -> str:
    head = "-" if mono.sign == -1 else ""
    if mono.qexp:
        head += f"q^{mono.qexp} " if mono.qexp != 1 else "q "
    num = "".join(atom_str(a) for a in mono.num) or "1"
    if mono.den:
        return f"{head}{num} / {''.join(atom_str(a) for a in mono.den)}"
    return f"{head}{num}"


# ----------------------------------------------------------------------
# two-variable theta series f(a, b)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FMono:
    """An argument sigma * q^e for the two-variable theta series."""

    sigma: int
    e: int

    def __post_init__(self):
        if self.sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")


def ramanujan_f_terms(sa: int, ea: int, sb: int, eb: int,
                      n: int) -> list[tuple[int, int]]:
    """f(sa q^ea, sb q^eb) = sum over all integers k of a^(k(k+1)/2)
    b^(k(k-1)/2) to order n, as one (exponent, sign) term per k; exponents
    may repeat.  k = j >= 0 and k = -j (a and b swapped) are two walks in
    j whose exponent steps by (ea + eb) j + e; once that step is positive
    it stays so, and the walk stops at the first exponent past n."""
    t = ea + eb
    if t <= 0:
        raise Divergent(f"f needs e_a + e_b >= 1, got {ea} + {eb}")
    terms = []
    for s1, e1, s2, j in ((sa, ea, sb, 0), (sb, eb, sa, 1)):
        signs = (1, s1, s1 * s2, s2)
        x = e1 * j
        while x <= n or t * j + e1 <= 0:
            if x <= n:
                terms.append((x, signs[j % 4]))
            x += t * j + e1
            j += 1
    return terms


def ramanujan_f_sum(a: FMono, b: FMono, n: int) -> Series:
    """f(a, b) to order n as a Series (see ramanujan_f_terms)."""
    terms = ramanujan_f_terms(a.sigma, a.e, b.sigma, b.e, n)
    lo = min((e for e, _ in terms), default=n)
    coeffs = [0] * (n - lo + 1)
    for e, c in terms:
        coeffs[e - lo] += c
    return Series(lo, coeffs, n)


def ramanujan_f_product(a: FMono, b: FMono, n: int) -> Series:
    """f(a, b) = (-a; ab)_inf (-b; ab)_inf (ab; ab)_inf."""
    if a.e < 1 or b.e < 1:
        raise UnsupportedNegativeExponent(
            f"product form needs positive exponents, got {a.e}, {b.e}")
    m = a.e + b.e
    sab = a.sigma * b.sigma
    # (sigma q^e; ab) has the signs sigma * sab^j
    return product_series([sigma * sab ** j * k
                           for e, sigma in ((a.e, -a.sigma), (b.e, -b.sigma), (m, sab))
                           for j, k in enumerate(range(e, n + 1, m))], (), n)
