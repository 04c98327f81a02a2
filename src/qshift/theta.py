"""Theta-product atoms, monomials, and two-variable theta series.

Two kinds of atom, both parameterized by a residue r and a step m:

    bracket [r:m] = (q^r; q^m)_inf * (q^(m-r); q^m)_inf
    paren   (r:m) = (-q^r; q^m)_inf * (-q^(m-r); q^m)_inf

Both are symmetric under r -> m-r, and both satisfy a quasi-periodicity
in r with period m:

    [e+m : m] = -q^(-e) [e : m]          (e+m : m) = q^(-e) (e : m)

so normalize_atom, the one normalizer, reduces any integer exponent to
a canonical residue 0 < r <= m/2 (brackets) or 0 <= r <= m/2 (parens)
times a sign and a power of q.  A bracket with e divisible by m contains
the factor (1 - 1) and is identically zero; the parenthesized analogue
is 2(-q^m; q^m)^2 instead.

A Term is c * q^e * (product of theta sums) * (product of atoms) /
(product of atoms), with numerator and denominator stored as sorted
multisets.  A monomial is a Term with c = +-1 and no sums (make_monomial);
monomial_series expands one part by part and monomial_str renders one.

The two-variable series f(a, b) = sum_k a^(k(k+1)/2) b^(k(k-1)/2) is
supported for arguments of the form sigma * q^e, named by the 4-tuple
FArgs (sa, ea, sb, eb).  Its one generator, ramanujan_f_terms, lists its
sparse terms; ramanujan_f_sum gathers them into a Series.

By the triple product every atom is a quotient of such sparse sums
(atom_sums, the one table from atoms to theta sums).  Every zero-sum of
theta terms, the special relations, the catalog's aux steps and the
partition relations alike, is cleared and sized by one plan, _plan:
each term is multiplied by the unit that clears its sums' negative
powers, so it is a product of sparse sums, in one limb width, a bound
B plus the bit length of sum |c| plus a sign bit (_cleared_width).  B
bounds the cleared products the build multiplies, from each sparse
sum's absolute values at one point (_sums_bits); past the densest
partition figure (qseries.densest_bits) it is the lesser of that and
the parts bound on the uncleared terms (_parts_bits).  The hub, the
term with the most distinct sums, starts from the largest part it
shares with another term.  Such a product has one builder, _pack_sums,
one packed shift-add per sparse term, with the term lists from one
bounded memo, _sum_terms.  One reader, read_cleared, reads a signed,
shifted sum of built terms at its lowest limb.  One build follows the
plan, the cleared zero test first_nonzero, the one check of every
zero-sum: it reads one sum once, so it first folds the hub with one
term that shares sums with it, and those sums are multiplied in once,
not twice as in a term-by-term build.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import exp, fsum, log
from typing import Iterable, NamedTuple, Sequence

from .qseries import (
    NonUnitLeading,
    Series,
    _bits_above,
    _coeff_bits,
    _lowest_limb,
    _pack_sparse,
    densest_bits,
    product_series,
    shift_scale,
)


class DegenerateZero(ValueError):
    """Bracket atom with exponent divisible by the step: identically zero."""


class Divergent(ValueError):
    """Theta series whose exponents do not go to infinity."""


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

def normalize_atom(e: int, m: int, kind: str) -> tuple[int, int, Atom]:
    """Reduce the atom [e : m] (kind BRACKET) or (e : m) (kind PAREN) to
    sign * q^qshift * Atom(r, m, kind), the one atom normalizer.

    Returns (sign, qshift, atom) with 0 < r <= m/2 for a bracket and
    0 <= r <= m/2 for a paren, whose sign is always 1: with e = k m + r0,
    [e : m] = (-1)^k q^qshift [r0 : m] and (e : m) = q^qshift (r0 : m).
    Raises DegenerateZero for a bracket whose e is divisible by m, since
    the product then vanishes; a paren never vanishes, and (0 : m) =
    2 (-q^m; q^m)^2.
    """
    if m < 1:
        raise ValueError(f"step must be positive, got {m}")
    k, r0 = divmod(e, m)
    if kind == BRACKET:
        if r0 == 0:
            raise DegenerateZero(
                f"[{e} : {m}] vanishes (exponent divisible by step)")
        sign = -1 if k % 2 else 1
    elif kind == PAREN:
        sign = 1
    else:
        raise ValueError(f"unknown atom kind {kind!r}")
    qshift = -(k * r0 + m * k * (k - 1) // 2)
    return sign, qshift, Atom(min(r0, m - r0), m, kind)


# ----------------------------------------------------------------------
# atom and monomial series
# ----------------------------------------------------------------------

def _check_canonical(a: Atom) -> None:
    r, m = a.r, a.m
    if a.kind == BRACKET:
        if not 0 < r <= m // 2:
            raise ValueError(f"bracket residue {r} not canonical for step {m}")
    elif a.kind == PAREN:
        if not 0 <= r <= m // 2:
            raise ValueError(f"paren residue {r} not canonical for step {m}")
    else:
        raise ValueError(f"unknown atom kind {a.kind!r}")


def _atom_factors(a: Atom, n: int) -> tuple[int, list[int]]:
    """(scale, factors) with a = scale * prod (1 - s q^k) to order n,
    each factor given as s*k, as product_series takes them."""
    _check_canonical(a)
    r, m = a.r, a.m
    if a.kind == BRACKET:
        return 1, [*range(r, n + 1, m), *range(m - r, n + 1, m)]
    if r == 0:
        return 2, [-k for k in range(m, n + 1, m)] * 2
    return 1, [-k for k in (*range(r, n + 1, m), *range(m - r, n + 1, m))]


@lru_cache(maxsize=None)
def atom_series(r: int, m: int, kind: str, n: int) -> Series:
    """Series expansion of a canonical atom to order n."""
    scale, factors = _atom_factors(Atom(r, m, kind), n)
    return product_series(factors, (), n, scale)


# f(sa q^ea, sb q^eb) named by its arguments (sa, ea, sb, eb)
FArgs = tuple[int, int, int, int]


class Term(NamedTuple):
    """c q^e prod(sums) prod(num) / prod(den): atoms as sorted multisets
    (make_monomial sorts and cancels them), and sums f(sa q^ea, sb q^eb)
    named by their arguments, with ea, eb >= 1; e may be negative.  A
    theta monomial is a Term with c = +-1 and no sums."""

    c: int
    e: int
    num: Sequence[Atom] = ()
    den: Sequence[Atom] = ()
    sums: Sequence[FArgs] = ()


def make_monomial(sign: int, qexp: int,
                  num: Iterable[Atom] = (), den: Iterable[Atom] = ()) -> Term:
    """The monomial sign * q^qexp * prod(num) / prod(den) as a Term,
    cancelling atoms common to both sides."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    ncount = Counter(num)
    dcount = Counter(den)
    common = ncount & dcount
    return Term(
        sign, qexp,
        tuple(sorted((ncount - common).elements())),
        tuple(sorted((dcount - common).elements())),
    )


def _monomial_parts(num: Iterable[Atom], den: Iterable[Atom],
                    n: int) -> tuple[int, list[int], list[int]]:
    """(scale, finite, inverse) with prod(num) / prod(den) = scale *
    prod_fin (1 - s q^k) / prod_inv (1 - s q^k) to order n, each factor
    given as s*k: the parts of numerator atoms are finite factors, those
    of denominator atoms inverse ones (a denominator (0 : m), constant
    term 2, is not a unit: NonUnitLeading)."""
    scale, finite, inverse = 1, [], []
    for a in num:
        c, factors = _atom_factors(a, n)
        scale *= c
        finite += factors
    for a in den:
        c, factors = _atom_factors(a, n)
        if c != 1:
            raise NonUnitLeading(f"{atom_str(a)} has constant term {c}")
        inverse += factors
    return scale, finite, inverse


def monomial_series(mono: Term, n: int) -> Series:
    """Expand a monomial to order n in one packed build of its parts
    (_monomial_parts) at order n - e.  A term with theta sums is no
    monomial: ValueError."""
    if mono.sums:
        raise ValueError(f"a monomial has no theta sums, got {mono.sums}")
    inner = n - mono.e
    scale, finite, inverse = _monomial_parts(mono.num, mono.den, inner)
    acc = product_series(finite, inverse, inner, scale)
    return shift_scale(acc, mono.c, mono.e)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def atom_str(a: Atom) -> str:
    return (f"[{a.r}:{a.m}]" if a.kind == BRACKET else f"({a.r}:{a.m})")


def monomial_str(mono: Term) -> str:
    """A monomial as text, for example "-q^3 [3:42] / (0:3)".  A term
    with theta sums or a coefficient other than +-1 is no monomial:
    ValueError."""
    if mono.sums or mono.c not in (1, -1):
        raise ValueError(f"not a monomial: coefficient {mono.c}, "
                         f"theta sums {tuple(mono.sums)}")
    head = "-" if mono.c == -1 else ""
    if mono.e:
        head += f"q^{mono.e} " if mono.e != 1 else "q "
    num = "".join(atom_str(a) for a in mono.num) or "1"
    if mono.den:
        return f"{head}{num} / {''.join(atom_str(a) for a in mono.den)}"
    return f"{head}{num}"


# ----------------------------------------------------------------------
# two-variable theta series f(a, b)
# ----------------------------------------------------------------------

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


def ramanujan_f_sum(args: FArgs, n: int) -> Series:
    """f(args) to order n as a Series (see ramanujan_f_terms)."""
    terms = ramanujan_f_terms(*args, n)
    lo = min((e for e, _ in terms), default=n)
    coeffs = [0] * (n - lo + 1)
    for e, c in terms:
        coeffs[e - lo] += c
    return Series(lo, coeffs, n)


# ----------------------------------------------------------------------
# atoms as theta sums, and the cleared zero test
# ----------------------------------------------------------------------

def euler_args(m: int) -> FArgs:
    """E_m = (q^m; q^m)_inf = f(-q^m, -q^(2m))."""
    return (-1, m, -1, 2 * m)


def euler_cube_terms(m: int, n: int) -> list[tuple[int, int]]:
    """E_m^3 = sum_{k >= 0} (-1)^k (2k+1) q^(m k(k+1)/2) (Jacobi) to
    order n: about sqrt(2n/m) terms, fewer than one factor E_m has."""
    terms = []
    k = 0
    while (e := m * k * (k + 1) // 2) <= n:
        terms.append((e, -(2 * k + 1) if k % 2 else 2 * k + 1))
        k += 1
    return terms


def atom_sums(a: Atom) -> tuple[int, tuple[tuple[FArgs, int], ...]]:
    """(scale, ((args, power), ...)) with the atom equal to
    scale * prod f(args)^power, the one table from atoms to theta sums.
    With E_m = f(-q^m, -q^(2m)) the triple product gives, for
    0 < 2r < m,

        [r:m]  = f(-q^r, -q^(m-r)) / E_m     (r:m)  = f(q^r, q^(m-r)) / E_m

    and (q^r; q^2r) = E_r / E_2r, (-q^r; q^2r) = E_2r^2 / (E_r E_4r),
    (-q^m; q^m) = E_2m / E_m, so

        [r:2r] = E_r^2 / E_2r^2              (r:2r) = E_2r^4 / (E_r^2 E_4r^2)
        (0:m)  = 2 E_2m^2 / E_m^2.

    Every sum has arguments of positive exponent, so constant term 1.
    """
    _check_canonical(a)
    r, m = a.r, a.m
    if 0 < 2 * r < m:
        sign = -1 if a.kind == BRACKET else 1
        return 1, (((sign, r, sign, m - r), 1), (euler_args(m), -1))
    if a.kind == BRACKET:
        return 1, ((euler_args(r), 2), (euler_args(m), -2))
    if r == 0:
        return 2, ((euler_args(2 * m), 2), (euler_args(m), -2))
    return 1, ((euler_args(m), 4), (euler_args(r), -2),
               (euler_args(2 * m), -2))


@lru_cache(maxsize=128)
def _sum_terms(args: FArgs, p: int, n: int) -> tuple[tuple[int, int], ...]:
    """The sparse terms of f(args)^p to order n: for p = 1 those of
    ramanujan_f_terms, and for p = 3, with f(args) = E_m, Jacobi's sum
    (euler_cube_terms).  The one table of theta-sum term lists, memoized
    per (args, p, n) in the process like atom_series.

    Its bound of 128 holds every list one check needs.  The partition
    kernel's build at modulus M and order n takes at most M + 6 (the
    class sums, E_M, E_M^3 and E_2M, at n and, for a term at q^a, at
    n - a; _plan's sums bound reads them at n): 88 at M = 82 and 33 on
    the catalog, so every image one classification builds, and every
    identity verify_identity checks, takes them from here.  A special
    relation or aux zero-sum of the catalog takes at most 37 at orders
    300, 1000 and 3000: each term's sums at its order or a sharer's,
    and every cleared sum at n - L too, for the limb width.  A run over
    many moduli, orders or relations keeps the latest 128, each about
    2 sqrt(2n/m) pairs long.  A tuple, so no caller can change a shared
    list.
    """
    if min(args[1], args[3]) < 1:
        raise ValueError(f"f{args} has no constant term 1")
    return tuple(euler_cube_terms(args[1], n) if p == 3
                 else ramanujan_f_terms(*args, n))


def _factors(powers):
    """(args, p, k) for each sparse factor of prod f(args)^power over the
    (args, power >= 0) of the map powers: k factors f(args)^p, with
    every three factors of an E_m = f(-q^m, -q^(2m)) taken as one factor
    E_m^3 (p = 3, Jacobi's sum, fewer terms than E_m has), so a power
    3j + i is j cubes and i single factors (p = 1)."""
    for args, p in powers.items():
        if p >= 3 and args == euler_args(args[1]):
            yield args, 3, p // 3
            p %= 3
        if p:
            yield args, 1, p


def _pack_sums(x: int, powers, n: int, w: int) -> int:
    """x * prod f(args)^p mod 2^(w*(n+1)) over the (args, p >= 0) of the
    map powers, for x packed in w-bit limbs: the one builder of products
    of theta sums.

    One qseries._pack_sparse per sparse factor (_factors), its terms
    from _sum_terms.  Each step is exact mod 2^(w*(n+1)) and
    multiplication there is commutative, so the integer returned does
    not depend on the order of the factors; it is reduced mod
    2^(w*(n+1)), by one mask when every power is 0.
    """
    if not any(powers.values()):
        return x & ((1 << (w * (n + 1))) - 1)
    for args, p, k in _factors(powers):
        terms = _sum_terms(args, p, n)
        for _ in range(k):
            x = _pack_sparse(x, terms, n, w)
    return x


def _sum_powers(t: Term) -> tuple[int, dict[FArgs, int]]:
    """(scale, {args: p}) with the term = c q^e scale prod f(args)^p
    (atom_sums).  A denominator (0:m), constant term 2, is no unit:
    NonUnitLeading."""
    scale, power = 1, {}
    for atoms, sign in ((t.num, 1), (t.den, -1)):
        for a in atoms:
            c, sums = atom_sums(a)
            if sign < 0 and c != 1:
                raise NonUnitLeading(f"{atom_str(a)} has constant term {c}")
            scale *= c
            for args, p in sums:
                power[args] = power.get(args, 0) + sign * p
    for args in t.sums:
        power[args] = power.get(args, 0) + 1
    return scale, power


def _cleared_width(bits: int, total: int) -> int:
    """The cleared build's limb width, bits + bitlen(total) + 1, for
    products (or terms) below 2^bits with sum |c| = total: their signed
    sum's coefficients lie below 2^(w-1) (see _plan)."""
    return bits + total.bit_length() + 1


def _sums_bits(cleared: dict[int, dict[FArgs, int]],
               order: dict[int, int], scale: dict[int, int],
               span: int) -> int:
    """Bits b with every coefficient of each cleared product scale_i
    prod_j f_j^(p_j) through q^(order_i) below 2^b, order_i <= span:
    the sums bound of _plan.

    A product of series is dominated coefficient by coefficient by the
    product of the series of their absolute values, so for 0 < x <= 1
    and k <= order_i its coefficient at q^k is at most

        x^-order_i |scale_i| prod_j F_j(x)^(p_j),    F_j(x) = sum |c| x^e

    over the factors _pack_sums multiplies in (_factors: an E_m^3 is one
    factor, Jacobi's sum), each F_j over its terms through q^span.  Any
    x gives a bound; the one taken is x = e^-t, t = h / (2 span), with h
    the largest count over the products of their single factors plus
    twice their cubes.  A theta sum through q^span has its terms at
    quadratic exponents, so F(e^-t) grows as t^(-1/2), and a cube's
    (2k+1) weights make it t^-1: the log of the bound is about
    span t + (h/2) ln(1/t), least at this t.  Each F_j is evaluated
    once.  As in qseries._coeff_bits, e*t <= h/2 is rounded once, exp
    and log are accurate to a few ulps and fsum rounds each F_j >= 1
    once, so each log is within 2^-50 (1 + h/2) of its exact value at
    this t, and a product's sum of them within its count of factors
    times that, plus a few ulps of the sum.  _bits_above's margin,
    (bits + count) 2^-32 bits, holds that for h below 2^17; past it the
    count is taken as count (1 + h/2^17), which holds it for any h.
    |scale_i| <= 2^c, c = (|scale_i| - 1).bit_length(), adds c bits.
    """
    factors = {i: list(_factors(power)) for i, power in cleared.items()}
    h = max(sum(k * (2 if p == 3 else 1) for _, p, k in f)
            for f in factors.values())
    t = h / (2 * max(span, 1))
    logs: dict[tuple[FArgs, int], float] = {}
    bits = 0
    for i, f in factors.items():
        total = order[i] * t
        for args, p, k in f:
            if (args, p) not in logs:
                logs[args, p] = log(fsum([abs(c) * exp(-e * t) for e, c in
                                          _sum_terms(args, p, span)]))
            total += k * logs[args, p]
        count = sum(k for _, _, k in f)
        bits = max(bits, _bits_above(total, count + (count * h >> 17))
                   + (abs(scale[i]) - 1).bit_length())
    return bits


def _parts_bits(terms: Sequence[Term], live: Sequence[int], n: int,
                span: int) -> int:
    """Bits b with every coefficient of each live uncleared term through
    q^(n-e) below 2^b: the parts bound of _plan's fallback,
    qseries._coeff_bits of the term's atoms' parts at order n - e
    (numerator parts finite, denominator parts inverse, with the scale)
    plus the bit length of each named sum's L1 norm through q^span, as a
    sparse factor multiplies the largest coefficient by at most its L1
    norm."""
    bits = 0
    for i in live:
        t = terms[i]
        scale, finite, inverse = _monomial_parts(t.num, t.den, n - t.e)
        bits = max(bits, _coeff_bits(finite, inverse, n - t.e, scale)
                   + sum(sum(abs(c) for _, c in _sum_terms(args, 1, span))
                         .bit_length() for args in t.sums))
    return bits


class _Plan(NamedTuple):
    """What the cleared build of some terms through q^n decides before
    it builds anything (_plan): the limb width w, and for each live term
    i (e <= n) its order n - e, its scale and its cleared powers; the
    hub; each other live term's sums shared with the hub; and the lead,
    the other term whose shared sums start the hub."""

    w: int
    order: dict[int, int]
    scale: dict[int, int]
    cleared: dict[int, dict[FArgs, int]]
    hub: int
    shared: dict[int, dict[FArgs, int]]
    lead: int | None

    def finish(self, i: int, x: int, done: dict[FArgs, int]) -> int:
        """Term i's cleared product times its scale, to its order, from
        x, the packed product of the part done of it."""
        s = self.scale[i]
        return _pack_sums(x if s == 1 else s * x,
                          {args: p - done.get(args, 0)
                           for args, p in self.cleared[i].items()},
                          self.order[i], self.w)


def _plan(terms: Sequence[Term], n: int) -> _Plan | None:
    """The sizing, clearing and sharing of the terms' cleared build
    through q^n, or None when no term is live: the one plan, which
    first_nonzero builds with one pair folded.

    Clearing.  By atom_sums each term is c q^e s prod_j f_j^(p_j) over
    sparse sums f_j.  With l_j the least power of f_j in any term with
    e <= n, or 0 when none is negative, V = prod_j f_j^(-l_j) is a unit
    with V(0) = 1, every f_j having constant term 1, and the cleared
    product s prod_j f_j^(p_j - l_j) of V times a term has no negative
    power.

    Sharing.  The hub is the term whose cleared product has the most
    distinct sums, the last on a tie.  Every other term shares with it
    the sums both hold (each to the lesser power), and the lead is the
    first whose shared sums have the greatest total power: the hub
    starts from those, built once.

    Sizing.  read_cleared needs only |c| < 2^(w-1) for the first
    nonzero coefficient c of the terms' sum D through q^n.  V(0) = 1,
    so c is also the first nonzero coefficient of V D = sum c_i q^(e_i)
    y_i over the live terms, y_i term i's cleared product: a bound on
    the ys through q^(n-e_i) sizes w as well as a bound on the terms.
    With B that bound, C = sum |c_i| over the live terms and l the bit
    length of C, so C < 2^l, w = B + l + 1 (_cleared_width), and

        |c| <= sum |c_i| |y_i,(k-e_i)| <= C (2^B - 1) < 2^(B+l) = 2^(w-1),

    however the terms are grouped.  The same holds with B a bound on
    the uncleared terms t_i, as D = sum c_i q^(e_i) t_i.

    B is the sums bound on the ys (_sums_bits): for 0 < x <= 1 each y
    is dominated through q^(n-e) by x^-(n-e) |s| prod_j F_j(x)^(p_j),
    F_j(x) = sum |c| x^e over the terms of the factor f_j (an E_m^3 one
    factor) through q^(n-L), L the least e <= n, each F_j evaluated
    once, at x = e^-t with t = h / (2 (n - L)), h the most factors of
    one y with a cube counted twice, where the bound's logarithm is
    least for quadratic-exponent sums.  When the sums bound exceeds
    qseries.densest_bits(n - L), the widest limb cli.order_ceiling
    assumes, B is the lesser of it and the parts bound on the uncleared
    terms (_parts_bits): with many classes per order, as in a dense pair
    at a large modulus, a product of sparse sums has a loose bound and
    the parts bound is the better.  The test costs one comparison; on
    the catalog and the special relations at orders 200 and above it
    never fires.

    A denominator (0:m), constant term 2, is no unit: NonUnitLeading,
    even in a term past the order.
    """
    summed = [_sum_powers(t) for t in terms]
    live = [i for i, t in enumerate(terms) if t.e <= n]
    if not live:
        return None
    lo = min(terms[i].e for i in live)
    order = {i: n - terms[i].e for i in live}
    scale = {i: summed[i][0] for i in live}
    powers = {i: summed[i][1] for i in live}
    least: dict[FArgs, int] = {}
    for power in powers.values():
        for args, p in power.items():
            least[args] = min(least.get(args, 0), p)
    cleared = {i: {args: q for args in {**least, **power}
                   if (q := power.get(args, 0) - least.get(args, 0))}
               for i, power in powers.items()}
    bits = _sums_bits(cleared, order, scale, n - lo)
    if bits > densest_bits(n - lo):
        bits = min(bits, _parts_bits(terms, live, n, n - lo))
    w = _cleared_width(bits, sum(abs(terms[i].c) for i in live))
    hub = max(live, key=lambda i: (len(cleared[i]), i))
    shared = {i: {args: min(p, cleared[hub][args])
                  for args, p in cleared[i].items() if args in cleared[hub]}
              for i in live if i != hub}
    lead = max(shared, key=lambda i: sum(shared[i].values()), default=None)
    return _Plan(w, order, scale, cleared, hub, shared, lead)


def _build_others(plan: _Plan, skip: int | None
                  ) -> tuple[dict[int, int], tuple[int, dict[FArgs, int]]]:
    """({i: y}, (x, done)): the cleared product y of every live term but
    the hub and skip, each from the sums it shares with the hub, built
    once at the higher of their two orders, and the hub's start, x the
    packed product of its part done (the lead's shared sums, or 1 and
    nothing)."""
    ys, start = {}, (1, {})
    order = plan.order
    for i, done in plan.shared.items():
        if i != skip:
            x = _pack_sums(1, done, max(order[i], order[plan.hub]), plan.w)
            ys[i] = plan.finish(i, x, done)
            if i == plan.lead:
                start = x, done
    return ys, start


def read_cleared(w: int, built: Sequence[tuple[int, int, int]],
                 n: int) -> tuple[int, int] | None:
    """(k, c): the first nonzero coefficient c, at q^k, of the sum D of
    the terms c q^e t listed as (c, e, y), y the packed cleared t, or
    None when D vanishes through q^n: the one reader of cleared sums.

    Contract: the ys come from one build of a _plan, which gave w, of
    terms with the atoms and sums of the ts (first_nonzero's, its one
    caller, whose folded pair is one such y), each built to an order of
    at least n - e, and the plan sized for a sum of |c| at least that
    of the terms read.  So each y is V t through q^(n-e), for one unit
    V with V(0) = 1, and the plan's sizing holds D's first
    nonzero coefficient below 2^(w-1), the one coefficient this reader
    needs in range.  With L the least e <= n (terms past n are
    skipped), each y is shifted up e - L limbs, times c, and added in.
    q -> 2^w followed by reduction mod 2^(w*(n-L+1)) is a ring
    homomorphism from Z[q]/(q^(n-L+1)), so the sum, reduced, would be
    the image P of q^-L V D.  V D has D's first nonzero index k and coefficient c,
    however far its later coefficients overflow, and |c| < 2^(w-1), so
    P = 2^(w(k-L)) (c + 2^w R) with c not a multiple of 2^w: its lowest
    set bit lies in limb k - L, and that limb read as a signed w-bit
    integer is c.  The sum is not reduced: it is P + 2^(w*(n-L+1)) Z for
    an integer Z, perhaps negative, and every set bit of the second part
    lies at limb n - L + 1 or above.  So when D vanishes through q^n,
    P = 0 and the sum's lowest set bit, if any, lies past limb n - L;
    otherwise the sum agrees with P below limb n - L + 1, and so below
    and in limb k - L <= n - L, which gives k and c as above.  The two's
    complement bits of a negative sum obey the same congruences.
    """
    lo = min((e for _, e, _ in built if e <= n), default=n)
    acc = 0
    for c, e, y in built:
        if e <= n:  # neither a zero shift nor c = +-1 copies y
            x = y << (e - lo) * w if e > lo else y
            acc = acc + x if c == 1 else acc - x if c == -1 else acc + c * x
    k = _lowest_limb(acc, w)
    if k is None or k > n - lo:
        return None
    c = (acc & ((1 << (k + 1) * w) - 1)) >> (k * w)
    if c >> (w - 1):
        c -= 1 << w
    return lo + k, c


def first_nonzero(terms: Sequence[Term], n: int) -> tuple[int, int] | None:
    """The cleared zero test: read_cleared's (k, c) of the terms' sum
    through q^n, or None, off one build from their _plan, with the hub
    folded with one term.

    Folding.  With G_i the sums term i shares with the hub and l the
    lead, the hub's cleared product is G_l G_j R for any other live
    term j whose G_j is not empty and shares no sum with G_l.  Take the
    j with the largest G_j (the first on a tie), with cleared product
    G_j J, and L = min(e_h, e_j):

        c_h q^e_h G_l G_j R + c_j q^e_j G_j J
            = q^L G_j (c_h q^(e_h-L) G_l R + c_j q^(e_j-L) J).

    The two cofactors are built, the hub's from its start G_l, each
    times its c and shifted up its e - L limbs, and added; G_j is then
    multiplied in once, where a term-by-term build (_build_others for
    every term, the hub finished from its start) multiplies it in
    twice, once as j's start and once into the hub.  The sum goes to
    read_cleared as one term (1, L, y).  With no such j every term is
    built term by term.

    Exactness.  Packing in w-bit limbs is a ring map Z[q]/(q^(n-e+1))
    -> Z/2^(w(n-e+1)), q -> 2^w, so each cofactor, built to its own
    order n - e, is the image of V times it there, V the build's unit;
    shifted up e - L limbs it is the image of q^(e-L) V times it in
    Z/2^(w(n-L+1)), and so is the sum, times c, and its product with
    G_j, as multiplication commutes: y is the image of q^-L V times
    the two terms' sum through q^(n-L), what read_cleared asks of a
    term with c = 1 and e = L.  The limb width is the plan's, sized
    for the sum of all the terms however they are grouped, so
    read_cleared's lowest-limb contract is unchanged, and the test
    gives the (k, c) that read_cleared reads off the term-by-term
    build.  The hub's start is dropped as soon as the hub's cofactor
    is built.

    A denominator (0:m) raises NonUnitLeading, even past the order.
    """
    plan = _plan(terms, n)
    if plan is None:
        return None
    w, hub, shared = plan.w, plan.hub, plan.shared
    lead = shared.get(plan.lead, {})
    j = max((i for i, g in shared.items() if g and lead.keys().isdisjoint(g)),
            key=lambda i: sum(shared[i].values()), default=None)
    ys, (x, done) = _build_others(plan, j)
    built = [(terms[i].c, terms[i].e, y) for i, y in ys.items()]
    if j is None:
        built.append((terms[hub].c, terms[hub].e, plan.finish(hub, x, done)))
    else:
        th, tj = terms[hub], terms[j]
        lo = min(th.e, tj.e)
        y = th.c * (plan.finish(hub, x, {**done, **shared[j]})
                    << (th.e - lo) * w)
        del x
        y += tj.c * (plan.finish(j, 1, shared[j]) << (tj.e - lo) * w)
        built.append((1, lo, _pack_sums(y, shared[j], n - lo, w)))
    return read_cleared(w, built, n)
