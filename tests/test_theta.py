"""Tests for theta atoms, monomials, and the two-variable series.

The independent oracle here is the bilateral sum

    sum over k of c^k * q^(m*k(k-1)/2 + e*k)      c = -1 or +1

computed term by term with a dictionary.  By the triple product it equals
[e:m] * (q^m; q^m)_inf for c = -1 and (e:m) * (q^m; q^m)_inf for c = +1,
for every integer e, which exercises the full normalization including
signs, q-shifts, folding, and the degenerate cases.
"""

import random
from collections import Counter
from math import isqrt, log

import pytest

from qshift import partitions, theta
from qshift.corpus import load_corpus
from qshift.jacobi import _term
from qshift.qseries import (
    HEADROOM_BITS,
    NonUnitLeading,
    Series,
    densest_bits,
    invert,
    mul,
    pochhammer,
    shift_scale,
)
from qshift.theta import (
    BRACKET,
    PAREN,
    Atom,
    DegenerateZero,
    Divergent,
    Term,
    atom_series,
    atom_str,
    atom_sums,
    first_nonzero,
    make_monomial,
    monomial_series,
    monomial_str,
    normalize_atom,
    ramanujan_f_sum,
    read_cleared,
)

from oracles import (
    UnsupportedNegativeExponent,
    cleared_bound,
    cleared_build,
    cleared_powers,
    cleared_product,
    parts_bound,
    ramanujan_f_product,
    sums_nats,
)
from part_by_part import first_nonzero_by_parts, parts_term
from test_partitions import THM72_QUOTIENT


def bilateral_sum_oracle(e, m, c, n):
    """sum_k c^k q^(m k(k-1)/2 + e k) as a Series of order n."""
    acc = {}
    bound = isqrt(2 * n // m + 4) + (2 * abs(e) + m) // m + 4
    for k in range(-bound, bound + 1):
        exp = m * k * (k - 1) // 2 + e * k
        if exp > n:
            continue
        acc[exp] = acc.get(exp, 0) + (c if k % 2 else 1)
    lo = min(acc)
    return Series(lo, [acc.get(k, 0) for k in range(lo, n + 1)], n)


# ----------------------------------------------------------------------
# normalization: hand-checked table
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "e,m,want",
    [
        (3, 10, (1, 0, 3)),
        (7, 10, (1, 0, 3)),
        (13, 10, (-1, -3, 3)),
        (-3, 10, (-1, -3, 3)),
        (5, 10, (1, 0, 5)),
        (1, 2, (1, 0, 1)),
        (23, 10, (1, -16, 3)),
        (-13, 10, (1, -16, 3)),
    ],
)
def test_normalize_atom_table(e, m, want):
    sign, qshift, r = want
    assert normalize_atom(e, m, BRACKET) == (sign, qshift,
                                             Atom(r, m, BRACKET))


def test_normalize_atom_degenerate():
    for e in (0, 10, -10, 30):
        with pytest.raises(DegenerateZero):
            normalize_atom(e, 10, BRACKET)
    with pytest.raises(DegenerateZero):
        normalize_atom(5, 1, BRACKET)


def test_normalize_paren_allows_zero_residue():
    def fold(e, m):
        sign, qshift, atom = normalize_atom(e, m, PAREN)
        assert sign == 1 and atom.m == m and atom.kind == PAREN
        return qshift, atom.r

    assert fold(0, 7) == (0, 0)
    assert fold(7, 7) == (0, 0)  # (m:m) = q^0 (0:m)
    assert fold(14, 7) == (-7, 0)
    assert fold(13, 10) == (-3, 3)


def test_normalize_atom_both_kinds():
    # one exponent, both kinds: the same q-shift and residue, and the
    # sign (-1)^k only for the bracket
    assert normalize_atom(13, 10, BRACKET) == (-1, -3, Atom(3, 10, BRACKET))
    assert normalize_atom(13, 10, PAREN) == (1, -3, Atom(3, 10, PAREN))
    with pytest.raises(ValueError, match="unknown atom kind"):
        normalize_atom(13, 10, "other")
    for kind in (BRACKET, PAREN):
        with pytest.raises(ValueError, match="step must be positive"):
            normalize_atom(3, 0, kind)


# ----------------------------------------------------------------------
# normalization: sum-oracle grid
# ----------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 11, 12])
def test_bracket_normalization_against_sum(m):
    n = 5 * m
    for e in range(-3 * m, 3 * m + 1):
        want = bilateral_sum_oracle(e, m, -1, n)
        if e % m == 0:
            assert want == Series.zero(n)
            with pytest.raises(DegenerateZero):
                normalize_atom(e, m, BRACKET)
            continue
        sign, qshift, atom = normalize_atom(e, m, BRACKET)
        inner = mul(atom_series(*atom, n - qshift),
                    pochhammer(m, m, 1, n - qshift))
        assert shift_scale(inner, sign, qshift) == want, (e, m)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 11, 12])
def test_paren_normalization_against_sum(m):
    n = 5 * m
    for e in range(-3 * m, 3 * m + 1):
        want = bilateral_sum_oracle(e, m, 1, n)
        sign, qshift, atom = normalize_atom(e, m, PAREN)
        inner = mul(atom_series(*atom, n - qshift),
                    pochhammer(m, m, 1, n - qshift))
        assert sign == 1
        assert shift_scale(inner, 1, qshift) == want, (e, m)


def test_paren_zero_residue_series():
    # (0:3) = 2(-q^3; q^3)^2 = 2 + 4q^3 + 6q^6 + ...
    s = atom_series(0, 3, PAREN, 6)
    assert [s.coeff(k) for k in (0, 3, 6)] == [2, 4, 6]


def test_atom_series_rejects_noncanonical():
    with pytest.raises(ValueError):
        atom_series(7, 10, BRACKET, 20)
    with pytest.raises(ValueError):
        atom_series(0, 10, BRACKET, 20)
    with pytest.raises(ValueError):
        atom_series(6, 10, PAREN, 20)


# ----------------------------------------------------------------------
# monomials
# ----------------------------------------------------------------------


def test_make_monomial_cancels_common_atoms():
    a = Atom(1, 6, BRACKET)
    b = Atom(2, 6, BRACKET)
    c = Atom(1, 7, BRACKET)
    mono = make_monomial(1, 0, num=(a, b), den=(b, c))
    assert mono.num == (a,)
    assert mono.den == (c,)


def test_make_monomial_keeps_multiplicity():
    a = Atom(2, 9, BRACKET)
    mono = make_monomial(-1, 2, num=(a, a, a), den=(a,))
    assert mono.num == (a, a)
    assert mono.den == ()


def test_monomial_series_sign_and_shift():
    a = Atom(1, 4, BRACKET)
    plain = monomial_series(make_monomial(1, 0, num=(a,)), 10)
    shifted = monomial_series(make_monomial(-1, 3, num=(a,)), 13)
    assert shifted == shift_scale(plain, -1, 3)


def test_monomial_series_ratio_cancels_numerically():
    a = Atom(1, 6, BRACKET)
    b = Atom(2, 6, BRACKET)
    mono = Term(1, 0, num=(a, b), den=(b,))  # bypass cancellation
    assert monomial_series(mono, 40) == atom_series(1, 6, BRACKET, 40)


def test_monomial_series_rejects_theta_sums():
    # a Term with sums is no monomial, and its sums must not be dropped
    mono = Term(1, 0, (Atom(1, 5, BRACKET),), sums=((-1, 1, -1, 2),))
    with pytest.raises(ValueError, match="theta sums"):
        monomial_series(mono, 20)
    assert monomial_series(mono._replace(sums=()), 20) == \
        atom_series(1, 5, BRACKET, 20)


def test_monomial_past_the_order_is_zero():
    a = Atom(1, 5, BRACKET)
    for qexp in (21, 22, 25, 100):
        for mono in (make_monomial(1, qexp, (a,)),
                     make_monomial(-1, qexp, (a,), (Atom(2, 5, PAREN),))):
            s = monomial_series(mono, 20)
            assert (s.offset, s.order, s.coeffs) == (20, 20, (0,)), qexp


def test_monomial_denominator_paren_zero_is_not_a_unit():
    # (0:m) has constant term 2, so 1/(0:m) has no integer expansion
    for qexp in (0, 5, 30):
        mono = make_monomial(1, qexp, (Atom(1, 4, BRACKET),), (Atom(0, 4, PAREN),))
        with pytest.raises(NonUnitLeading):
            monomial_series(mono, 20)


def test_monomial_numerator_paren_zero_keeps_its_factor_two():
    z = Atom(0, 3, PAREN)
    s = monomial_series(make_monomial(1, 0, (z, z, Atom(1, 3, BRACKET))), 30)
    want = mul(mul(atom_series(0, 3, PAREN, 30), atom_series(0, 3, PAREN, 30)),
               atom_series(1, 3, BRACKET, 30))
    assert s.coeff(0) == 4
    assert s == want


def random_monomials(seed, count):
    """Seeded monomials over mixed steps, with repeats and both kinds."""
    rng = random.Random(seed)
    for _ in range(count):
        atoms = []
        for _ in range(rng.randint(0, 7)):
            m = rng.randint(1, 14)
            if rng.random() < 0.5 and m >= 2:
                atoms.append(Atom(rng.randint(1, m // 2), m, BRACKET))
            else:
                atoms.append(Atom(rng.randint(0, m // 2), m, PAREN))
        num = atoms[:rng.randint(0, len(atoms))]
        den = [a for a in atoms[len(num):] if a.r]  # (0:m) is no unit
        yield Term(rng.choice((1, -1)), rng.randint(-5, 20),
                   tuple(num), tuple(den))


def test_monomial_series_matches_mul_and_invert():
    for mono in random_monomials(8080, 120):
        n = 150
        inner = n - mono.e
        num = Series(0, (1,), inner)
        for a in mono.num:
            num = mul(num, atom_series(a.r, a.m, a.kind, inner))
        den = Series(0, (1,), inner)
        for a in mono.den:
            den = mul(den, atom_series(a.r, a.m, a.kind, inner))
        want = shift_scale(mul(num, invert(den)), mono.c, mono.e)
        got = monomial_series(mono, n)
        assert (got.offset, got.order, got.coeffs) == (
            want.offset, want.order, want.coeffs), mono


def test_empty_monomial_is_signed_power():
    assert monomial_series(make_monomial(-1, 2, (), ()), 8) == Series(2, [-1], 8)


# ----------------------------------------------------------------------
# paren -> bracket rewrite, as four2 performs it
# ----------------------------------------------------------------------


def paren_as_brackets(e, m):
    """(e : m) = [2e : 2m] / ([e : 2m] [e+m : 2m]), reduced."""
    return _term(1, 0, [(2 * e, 2 * m, BRACKET)],
                 [(e, 2 * m, BRACKET), (e + m, 2 * m, BRACKET)])


def test_paren_to_bracket_small_case():
    # (1:3) = [2:6] / ([1:6][4:6]); after folding [4:6] = [2:6] this is 1/[1:6]
    mono = paren_as_brackets(1, 3)
    assert mono.c == 1 and mono.e == 0
    assert mono.num == ()
    assert mono.den == (Atom(1, 6, BRACKET),)


@pytest.mark.parametrize("m", [2, 3, 5, 9])
def test_paren_to_bracket_matches_paren_series(m):
    n = 6 * m
    for e in range(-2 * m, 2 * m + 1):
        if e % m == 0:
            with pytest.raises(DegenerateZero):
                paren_as_brackets(e, m)
            continue
        _, qshift, atom = normalize_atom(e, m, PAREN)
        want = shift_scale(atom_series(*atom, n - qshift), 1, qshift)
        assert monomial_series(paren_as_brackets(e, m), n) == want, (e, m)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def test_atom_and_monomial_rendering():
    a = Atom(3, 42, BRACKET)
    p = Atom(0, 3, PAREN)
    assert atom_str(a) == "[3:42]"
    assert atom_str(p) == "(0:3)"
    mono = make_monomial(-1, 3, num=(a,), den=(p,))
    assert monomial_str(mono) == "-q^3 [3:42] / (0:3)"
    assert monomial_str(make_monomial(1, 0, (), ())) == "1"


def test_monomial_str_rejects_non_monomials():
    # a coefficient other than +-1, or theta sums, would be dropped
    with pytest.raises(ValueError, match="not a monomial"):
        monomial_str(Term(-3, 2, num=(Atom(1, 5, BRACKET),)))
    with pytest.raises(ValueError, match="not a monomial"):
        monomial_str(Term(2, 0, sums=((1, 1, 1, 1),)))
    with pytest.raises(ValueError, match="not a monomial"):
        monomial_str(Term(1, 0, sums=((-1, 1, -1, 2),)))


# ----------------------------------------------------------------------
# two-variable theta series
# ----------------------------------------------------------------------


def test_f_sum_pentagonal():
    # f(-q, -q^2) is Euler's product
    got = ramanujan_f_sum((-1, 1, -1, 2), 60)
    assert got == pochhammer(1, 1, 1, 60)


def test_f_sum_matches_bilateral_oracle():
    # f(-q^e, -q^(m-e)) has the bracket-type bilateral expansion
    for m, e in [(5, 2), (7, 3), (9, 4)]:
        got = ramanujan_f_sum((-1, e, -1, m - e), 80)
        assert got == bilateral_sum_oracle(e, m, -1, 80)


@pytest.mark.parametrize("sa", [1, -1])
@pytest.mark.parametrize("sb", [1, -1])
def test_f_sum_equals_f_product(sa, sb):
    n = 120
    for ea in range(1, 7):
        for eb in range(1, 7):
            args = (sa, ea, sb, eb)
            assert ramanujan_f_sum(args, n) == ramanujan_f_product(args, n), args


def test_f_sum_allows_one_nonpositive_exponent():
    # converges whenever e_a + e_b >= 1
    # exponent is k^2 - 2k: minimum -1 at k=1, and k=0, k=2 both land on q^0
    got = ramanujan_f_sum((1, -1, 1, 3), 30)
    assert got.offset == -1
    assert got.coeff(-1) == 1
    assert got.coeff(0) == 2


def test_f_sum_divergent():
    with pytest.raises(Divergent):
        ramanujan_f_sum((1, 0, 1, 0), 10)
    with pytest.raises(Divergent):
        ramanujan_f_sum((1, 5, 1, -5), 10)


def test_f_product_needs_positive_exponents():
    with pytest.raises(UnsupportedNegativeExponent):
        ramanujan_f_product((1, 0, 1, 3), 10)


# ----------------------------------------------------------------------
# atoms as theta sums, and the cleared zero test
# ----------------------------------------------------------------------

# every canonical atom of steps 1..12, the r = m/2 and (0:m) forms among
# them
CANONICAL_ATOMS = [Atom(r, m, kind) for m in range(1, 13)
                   for kind in (BRACKET, PAREN)
                   for r in range(0 if kind == PAREN else 1, m // 2 + 1)]


def test_atom_sums_equal_the_atom_series():
    # scale * prod f(args)^power by mul and invert of ramanujan_f_sum
    # against the atom expanded part by part
    n = 150
    for a in CANONICAL_ATOMS:
        scale, powers = atom_sums(a)
        got = Series(0, [scale], n)
        for args, p in powers:
            assert args[1] >= 1 and args[3] >= 1  # constant term 1
            f = ramanujan_f_sum(args, n)
            for _ in range(abs(p)):
                got = mul(got, f if p > 0 else invert(f))
        assert got == atom_series(a.r, a.m, a.kind, n), a


def test_atom_sums_rejects_noncanonical():
    for a in (Atom(7, 10, BRACKET), Atom(0, 10, BRACKET),
              Atom(6, 10, PAREN), Atom(1, 4, "other")):
        with pytest.raises(ValueError):
            atom_sums(a)


def catalog_relations():
    """The eight special relations, the Thm-72.2 bracket quotient and
    the 34 aux zero-sums, as Terms."""
    rels = [terms for _, terms in (partitions._rr_relations()
                                   + partitions._thm72_relations()
                                   + (THM72_QUOTIENT,))]
    rels += [step.terms for e in load_corpus() for step in e.aux_steps or ()]
    return rels


@pytest.mark.parametrize("n", [120, 300])
def test_first_nonzero_matches_both_oracles_on_the_catalog(n, series_route):
    # every relation holds; with one term dropped it fails, and the
    # cleared test, the part-by-part test and the Series route agree on
    # where and with which coefficient
    rels = catalog_relations()
    assert len(rels) == 9 + 34
    for terms in rels:
        for i in range(-1, len(terms)):
            rel = terms if i < 0 else terms[:i] + terms[i + 1:]
            by_parts = [parts_term(t, n) for t in rel]
            want = series_route(by_parts, n)
            assert (want is None) == (i < 0)
            assert first_nonzero(rel, n) == want, (rel, n)
            assert first_nonzero_by_parts(by_parts, n) == want


@pytest.mark.parametrize("args", [(-1, 2, -1, 5), (1, 1, 1, 3),
                                  (-1, 3, -1, 6), (-1, 1, -1, 2)])
def test_first_nonzero_builds_each_power_of_a_sum(args):
    # f(a, b) = f(b, a) named both ways, so each term holds one power of
    # one sum: only f(-q^m, -q^(2m)) = E_m is built as cubes E_m^3, and
    # its cubes must equal the plain product of the other name
    sa, ea, sb, eb = args
    for p in range(1, 8):
        rel = [Term(1, 0, sums=(args,) * p),
               Term(-1, 0, sums=((sb, eb, sa, ea),) * p)]
        assert first_nonzero(rel, 200) is None, p
        # one more factor: f^p (1 - f) starts at -sa q^ea, as ea < eb
        more = rel[1]._replace(sums=((sb, eb, sa, ea),) * (p + 1))
        assert first_nonzero([rel[0], more], 200) == (ea, -sa), p


# sparse factors over the 43 catalog relations: (cleared_build, first_nonzero)
FOLD_TOTALS = {1000: (560, 533)}


@pytest.mark.parametrize("n", [300, 1000])
def test_first_nonzero_folds_no_more_than_the_cleared_build(monkeypatch, n):
    # the fold multiplies the sums a term shares with the hub in once:
    # never more sparse factors than the term-by-term build, and fewer
    # on the Thm-72.2 bracket quotient (45 against 50 at order 1000)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = theta._pack_sparse
    monkeypatch.setattr(theta, "_pack_sparse", counted)
    quotient = THM72_QUOTIENT[1]
    built = folded = 0
    for terms in catalog_relations():
        calls.clear()
        w, ys = cleared_build(terms, n)
        assert read_cleared(w, [(t.c, t.e, y) for t, y in zip(terms, ys)],
                            n) is None
        cleared = len(calls)
        calls.clear()
        assert first_nonzero(terms, n) is None
        assert len(calls) <= cleared, terms
        if terms == quotient:
            assert len(calls) < cleared
            if n == 1000:
                assert (cleared, len(calls)) == (50, 45)
        built += cleared
        folded += len(calls)
    assert folded < built
    assert FOLD_TOTALS.get(n, (built, folded)) == (built, folded)


def random_sum_term(rng, n):
    atoms = rng.sample(CANONICAL_ATOMS, rng.randint(0, 4))
    split = rng.randint(0, len(atoms))
    sums = [(rng.choice((1, -1)), rng.randint(1, 6),
             rng.choice((1, -1)), rng.randint(1, 6))
            for _ in range(rng.randint(0, 2))]
    return Term(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-6, n),
                tuple(atoms[:split]),
                tuple(a for a in atoms[split:] if a.r),  # (0:m) is no unit
                tuple(sums))


def test_first_nonzero_matches_series_route(monkeypatch, series_route):
    # random sums; a term cancelled by a copy carrying one more atom
    # leaves c q^e X (1 - atom), so most sums first differ well above
    # their lowest exponent.  Many fold the hub with one term, so the
    # fold is checked against the Series route too: with its two terms
    # at different e, with a scale 2 ((0:m) in a numerator) in the pair,
    # and beside a term past the order
    folds = []

    def spied(plan, skip):
        if skip is not None:
            folds.append((plan, skip))
        return build_others(plan, skip)

    build_others = theta._build_others
    monkeypatch.setattr(theta, "_build_others", spied)
    rng = random.Random(2718)
    seen = set()
    folded = Counter()
    for _ in range(250):
        n = rng.randint(0, 80)
        terms = []
        for _ in range(rng.randint(1, 3)):
            t = random_sum_term(rng, n)
            extra = rng.choice(CANONICAL_ATOMS)
            terms += [t, t._replace(c=-t.c, num=(*t.num, extra))]
        terms += [random_sum_term(rng, n) for _ in range(rng.randint(0, 1))]
        terms += [random_sum_term(rng, n)._replace(e=n + rng.randint(1, 9))
                  for _ in range(rng.randint(0, 2))]
        rng.shuffle(terms)
        want = series_route([parts_term(t, n) for t in terms], n)
        folds.clear()
        assert first_nonzero(terms, n) == want, (terms, n)
        seen.add(want is None)
        for plan, j in folds:
            pair = (plan.hub, j)
            folded["cases"] += 1
            folded["different e"] += terms[j].e != terms[plan.hub].e
            folded["scale 2"] += 2 in (plan.scale[i] for i in pair)
            folded["past the order"] += any(t.e > n for t in terms)
    assert seen == {True, False}
    assert folded["cases"] >= 30, folded
    assert min(folded.values()) >= 1, folded


def test_first_nonzero_reads_past_overflowing_limbs(monkeypatch,
                                                    series_route):
    # 1/[1:2] - 1/([1:2][20:40]) = -(2q^20 + ...)/[1:2], [20:40] =
    # (q^20; q^40)^2: the first coefficient is -2 at q^17 and the later
    # ones, and the cleared products', are far wider than a 16-bit limb
    n = 120
    terms = [Term(1, -3, den=(Atom(1, 2, BRACKET),)),
             Term(-1, -3, den=(Atom(1, 2, BRACKET), Atom(20, 40, BRACKET)))]
    by_parts = [parts_term(t, n) for t in terms]
    assert series_route(by_parts, n) == (17, -2)
    assert max(monomial_series(make_monomial(
        1, 0, (), (Atom(1, 2, BRACKET),)), n).coeffs) >= 1 << 16
    monkeypatch.setattr(theta, "_cleared_width", lambda bits, total: 16)
    assert cleared_build(terms, n)[0] == 16
    assert first_nonzero(terms, n) == (17, -2)


@pytest.mark.parametrize("total", [1, 3, 7, (1 << 23) - 1, (1 << 24) - 1,
                                   (1 << 60) - 1])
def test_cleared_build_sizes_limbs_as_bound_plus_sum_of_c(total):
    # w = B + bitlen(sum |c|) + 1 over the live terms, B the bound of
    # their cleared products from its definition (oracles.cleared_bound,
    # in Decimal), the widest of them with the scale 2 of a numerator
    # (0:5); a term past the order counts in neither
    n = 150
    c2 = total // 2
    terms = [Term(total - c2, -2, den=(Atom(1, 2, BRACKET),)),
             Term(1 << 90, n + 1, den=(Atom(1, 2, BRACKET),) * 9)]
    if c2:
        terms.append(Term(-c2, 3, (Atom(2, 7, BRACKET), Atom(0, 5, PAREN)),
                          (Atom(3, 8, PAREN),), ((1, 1, -1, 3),)))
    live = [t for t in terms if t.e <= n]
    assert sum(abs(t.c) for t in live) == total
    assert cleared_build(terms, n)[0] == \
        cleared_bound(terms, n) + total.bit_length() + 1


def verify_terms(ident):
    """The three terms verify_identity checks for a partition identity."""
    return partitions._relation_terms(ident.S, ident.T, ident.M,
                                      ident.kind, ident.a)


def plan_bound(terms, n):
    """The B of the terms' plan: its width less bitlen(sum |c|) + 1."""
    plan = theta._plan(terms, n)
    return plan, plan.w - sum(abs(terms[i].c)
                              for i in plan.order).bit_length() - 1


@pytest.mark.parametrize("n", [50, 300, 1000, 3000])
def test_the_plan_bounds_every_cleared_product(monkeypatch, n):
    # soundness of the sums bound: for every catalog entry's verify
    # relation and the 43 special and aux relations, the plan clears
    # the terms as their definition does, and no coefficient of a
    # cleared product, computed with limbs wide enough for the product
    # of its factors' L1 norms, has more than B bits.  From order 200 on
    # the sums bound alone sizes them: the parts fallback never fires
    fallbacks = []
    parts_bits = theta._parts_bits
    monkeypatch.setattr(theta, "_parts_bits",
                        lambda *a: fallbacks.append(a) or parts_bits(*a))
    rels = catalog_relations() + [verify_terms(e.identity)
                                  for e in load_corpus()]
    for terms in rels:
        plan, B = plan_bound(terms, n)
        cleared = cleared_powers(terms, n)
        assert plan.cleared == {i: p for i, (_, p) in cleared.items()}
        assert plan.scale == {i: s for i, (s, _) in cleared.items()}
        for i, (scale, power) in cleared.items():
            top = max(map(abs, cleared_product(scale, power, n - terms[i].e)))
            assert top.bit_length() <= B, (terms, i, n)
        # the premise of cli.order_ceiling: no wider than the larger of
        # the densest figure and the parts bound
        span = n - min(terms[i].e for i in plan.order)
        assert B <= max(densest_bits(span), parts_bound(terms, n))
    assert not fallbacks or n < 200


@pytest.mark.parametrize("n", [50, 1000, 3000])
def test_the_sums_bound_floats_stay_inside_the_margin(monkeypatch, n):
    # each term's log bound, evaluated in floats, against 60-digit
    # Decimal at the same t: off by far less than the margin
    # qseries._bits_above adds, (bits + count) 2^-32 bits
    seen = []
    bits_above = theta._bits_above
    monkeypatch.setattr(theta, "_bits_above",
                        lambda nats, count: seen.append((nats, count))
                        or bits_above(nats, count))
    rels = catalog_relations() + [verify_terms(e.identity)
                                  for e in load_corpus()[::7]]
    for terms in rels:
        seen.clear()
        plan, B = plan_bound(terms, n)
        _, exact = sums_nats(terms, n)
        assert [count for _, count in seen] == [c for _, c in exact.values()]
        for (nats, count), (want, _) in zip(seen, exact.values()):
            bits = float(want) / log(2)
            assert abs(nats - float(want)) / log(2) < (bits + count) * 2 ** -40
        assert B == cleared_bound(terms, n)


def test_the_sums_bound_margin_grows_past_2_17_factors(monkeypatch):
    # a float error of up to 2^-50 (1 + h/2) per factor outgrows the
    # plain margin past h = 2^17, so the count it is taken over grows
    # as count (1 + h/2^17): 1.5 * 2^17 factors count 2.5 times
    seen = []
    bits_above = theta._bits_above
    monkeypatch.setattr(theta, "_bits_above",
                        lambda nats, count: seen.append(count)
                        or bits_above(nats, count))
    for k in (1 << 17) - 1, 3 << 16:
        terms = [Term(1, 0, sums=((1, 1, -1, 3),) * k), Term(-1, 0)]
        seen.clear()
        B = plan_bound(terms, 40)[1]
        assert seen == [k + (k * k >> 17), 0]
        assert B == cleared_bound(terms, 40)


@pytest.mark.parametrize("k", [1, HEADROOM_BITS - 3, HEADROOM_BITS - 2,
                               HEADROOM_BITS, 40, 100])
def test_first_nonzero_widens_limbs_past_the_headroom(k):
    # c/[1:2] - c = 2c q + ...: the limbs take the bit length of sum |c|
    # on top of the bound, however large, so a wide first coefficient is
    # still read whole
    c = (1 << k) - 1
    assert first_nonzero([Term(c, 0, den=(Atom(1, 2, BRACKET),)),
                          Term(-c, 0)], 30) == (1, 2 * c)
    assert first_nonzero([Term(-c, 5)], 30) == (5, -c)


def test_first_nonzero_compares_through_q_n():
    n = 50
    base = Term(1, -4, (Atom(2, 7, BRACKET),), (Atom(3, 8, PAREN),),
                ((1, 1, -1, 3),))
    pair = [base, base._replace(c=-1)]
    assert first_nonzero(pair, n) is None
    # a lone coefficient at q^n fails at n; at q^(n+1) it is not seen
    assert first_nonzero(pair + [Term(3, n)], n) == (n, 3)
    assert first_nonzero(pair + [Term(3, n + 1)], n) is None
    assert first_nonzero([Term(-2, n + 1)], n) is None
    # q^(n-10) [10:20] - q^(n-10) = -2 q^n + ..., one limb below the order
    edge = Term(1, n - 10, (Atom(10, 20, BRACKET),))
    assert first_nonzero([edge, Term(-1, n - 10)], n) == (n, -2)
    assert first_nonzero([edge._replace(e=n - 9), Term(-1, n - 9)], n) is None


def test_first_nonzero_refuses_a_sum_without_constant_term_one():
    # f(q^0, q^3) = 2 + ...: no unit, so it cannot be cleared
    with pytest.raises(ValueError):
        first_nonzero([Term(1, 0, sums=((1, 0, 1, 3),))], 10)
