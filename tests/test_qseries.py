"""Tests for the truncated-series core.

Oracles here are deliberately naive: a dynamic-programming partition
counter, schoolbook convolution, and factor-by-factor product expansion.
The fast implementations must agree with them exactly.
"""

import math
import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshift import qseries
from qshift.qseries import (
    BeyondOrder,
    EmptySet,
    InvalidExponent,
    NonUnitLeading,
    ResidueOutOfRange,
    Series,
    Term,
    _coeff_bits,
    _expand_parts,
    _first_nonzero,
    _mul_packed,
    _mul_schoolbook,
    invert,
    linear_combine,
    mul,
    pochhammer,
    product_series,
    residue_product,
    shift_scale,
)

# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------


def count_partitions_into(parts, n):
    """Partitions of 0..n into parts from the given set, by direct DP."""
    table = [1] + [0] * n
    for k in sorted(set(parts)):
        for j in range(k, n + 1):
            table[j] += table[j - k]
    return table


def parts_from_residues(residues, modulus, limit):
    keep = {r % modulus for r in residues} | {(-r) % modulus for r in residues}
    return [k for k in range(1, limit + 1) if k % modulus in keep]


def poch_oracle(e, m, sigma, n):
    """(sigma*q^e; q^m)_inf by multiplying factors one at a time."""
    acc = Series.one(n)
    exp = e
    while exp <= n:
        factor = [0] * (n + 1)
        factor[0] = 1
        factor[exp] = -sigma
        acc = mul(acc, Series(0, factor, n))
        exp += m
    return acc


# ----------------------------------------------------------------------
# construction and canonical form
# ----------------------------------------------------------------------


def test_leading_zeros_fold_into_offset():
    s = Series(2, [0, 0, 3, 1], 5)
    assert s.offset == 4
    assert s.coeffs == (3, 1)
    assert s.order == 5


def test_short_coefficients_pad_to_order():
    s = Series(0, [1, 2], 4)
    assert s.coeffs == (1, 2, 0, 0, 0)


def test_long_coefficients_truncate_to_order():
    s = Series(0, [1, 2, 3, 4], 1)
    assert s.coeffs == (1, 2)
    assert s.order == 1


def test_order_below_offset_gives_zero():
    s = Series(5, [1, 2], 3)
    assert s.is_zero()
    assert s.offset == 3 and s.order == 3


def test_all_zero_coefficients_give_zero():
    s = Series(-2, [0, 0, 0], 4)
    assert s.is_zero()
    assert s.valuation() is None


def test_implicit_order_from_coefficients():
    s = Series(3, [1, 0, 5])
    assert s.order == 5
    assert s.coeff(5) == 5


def test_series_is_immutable():
    s = Series.one(3)
    with pytest.raises(AttributeError):
        s.order = 10


# ----------------------------------------------------------------------
# equality up to the common order
# ----------------------------------------------------------------------


def test_equal_up_to_common_order():
    a = Series(0, [1, 2, 3], 2)
    b = Series(0, [1, 2, 3, 9, 9], 4)
    assert a == b
    assert b == a


def test_unequal_within_common_order():
    a = Series(0, [1, 2, 3], 2)
    b = Series(0, [1, 2, 4], 2)
    assert a != b
    assert a.first_difference(b) == 2


def test_zero_equals_zero_of_other_order():
    assert Series.zero(3) == Series.zero(100)


def test_first_difference_none_when_agreeing():
    a = Series(0, [1, 2], 1)
    b = Series(0, [1, 2, 7], 2)
    assert a.first_difference(b) is None


# ----------------------------------------------------------------------
# coefficient access
# ----------------------------------------------------------------------


def test_coeff_below_offset_is_zero():
    s = Series(3, [4, 5], 4)
    assert s.coeff(0) == 0
    assert s.coeff(-10) == 0
    assert s.coeff(3) == 4


def test_coeff_beyond_order_raises():
    s = Series(0, [1], 2)
    with pytest.raises(BeyondOrder):
        s.coeff(3)


def test_truncate_drops_high_terms():
    s = Series(0, [1, 2, 3, 4], 3)
    t = s.truncate(1)
    assert t.order == 1
    assert t.coeffs == (1, 2)
    assert s.truncate(10) is s


# ----------------------------------------------------------------------
# linear combinations, shifts
# ----------------------------------------------------------------------


def test_linear_combine_basic():
    a = Series(0, [1, 1, 1], 2)
    b = Series(1, [2, 2], 2)
    c = linear_combine([(1, a), (-1, b)])
    assert [c.coeff(k) for k in range(3)] == [1, -1, -1]


def test_linear_combine_takes_minimum_order():
    a = Series(0, [1] * 10, 9)
    b = Series(0, [1] * 3, 2)
    assert linear_combine([(1, a), (1, b)]).order == 2


def test_operator_sugar_matches_linear_combine():
    a = Series(0, [1, 2, 3], 2)
    b = Series(0, [5, 0, 1], 2)
    assert a + b == linear_combine([(1, a), (1, b)])
    assert a - b == linear_combine([(1, a), (-1, b)])
    assert (-a) == shift_scale(a, -1, 0)


def test_shift_scale_moves_offset_and_order():
    a = Series(1, [1, 2], 2)
    b = shift_scale(a, -1, 3)
    assert b.offset == 4
    assert b.order == 5
    assert b.coeffs == (-1, -2)


# ----------------------------------------------------------------------
# multiplication
# ----------------------------------------------------------------------


def test_mul_small_example():
    a = Series(0, [1, 1], 5)  # 1 + q
    sq = mul(a, a)
    assert [sq.coeff(k) for k in range(3)] == [1, 2, 1]


def test_mul_offsets_add():
    a = Series(2, [3], 10)
    b = Series(-1, [5], 10)
    c = mul(a, b)
    assert c.offset == 1
    assert c.coeff(1) == 15


def test_mul_order_is_minimum():
    a = Series(0, [1, 1], 3)
    b = Series(0, [1, 1], 7)
    assert mul(a, b).order == 3


def test_mul_by_zero():
    a = Series(0, [1, 2], 5)
    assert mul(a, Series.zero(5)).is_zero()


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=14),
    st.lists(st.integers(-9, 9), min_size=1, max_size=14),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
@settings(deadline=None)
def test_mul_matches_dict_convolution(acs, bcs, aoff, boff):
    order = aoff + boff + 6
    a = Series(aoff, acs, aoff + len(acs) - 1)
    b = Series(boff, bcs, boff + len(bcs) - 1)
    got = mul(a, b)
    want = {}
    for i, ac in enumerate(acs):
        for j, bc in enumerate(bcs):
            k = aoff + i + boff + j
            want[k] = want.get(k, 0) + ac * bc
    for k in range(got.offset, got.order + 1):
        assert got.coeff(k) == want.get(k, 0)


@given(
    st.lists(st.integers(-(10**25), 10**25), min_size=1, max_size=40),
    st.lists(st.integers(-(10**25), 10**25), min_size=1, max_size=40),
)
@settings(deadline=None)
def test_packed_convolution_matches_schoolbook(a, b):
    count = len(a) + len(b) - 1
    assert _mul_packed(a, b, count) == _mul_schoolbook(a, b, count)


@st.composite
def nonneg_offset_series(draw):
    offset = draw(st.integers(0, 5))
    cs = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=10))
    pad = draw(st.integers(0, 3))
    return Series(offset, cs, offset + len(cs) - 1 + pad)


@given(nonneg_offset_series(), nonneg_offset_series())
@settings(deadline=None)
def test_mul_commutative(a, b):
    assert mul(a, b) == mul(b, a)


@given(nonneg_offset_series(), nonneg_offset_series(), nonneg_offset_series())
@settings(deadline=None, max_examples=60)
def test_mul_associative(a, b, c):
    left = mul(mul(a, b), c)
    right = mul(a, mul(b, c))
    assert left == right
    assert left.order == right.order


@given(nonneg_offset_series(), nonneg_offset_series(), nonneg_offset_series())
@settings(deadline=None, max_examples=60)
def test_mul_distributes_over_sum(a, b, c):
    assert mul(a, b + c) == mul(a, b) + mul(a, c)


# ----------------------------------------------------------------------
# inversion
# ----------------------------------------------------------------------


@st.composite
def unit_leading_series(draw):
    lead = draw(st.sampled_from([1, -1]))
    rest = draw(st.lists(st.integers(-6, 6), max_size=10))
    offset = draw(st.integers(-3, 5))
    cs = [lead] + rest
    return Series(offset, cs, offset + len(cs) - 1)


@given(unit_leading_series())
@settings(deadline=None)
def test_mul_by_inverse_is_one(a):
    b = invert(a)
    assert b.offset == -a.offset
    assert b.order == a.order - 2 * a.offset
    prod = mul(a, b)
    assert prod == Series.one(prod.order)


def test_invert_geometric():
    a = Series(0, [1, -1], 6)  # 1 - q
    b = invert(a)
    assert [b.coeff(k) for k in range(7)] == [1] * 7


def test_invert_requires_unit_leading():
    with pytest.raises(NonUnitLeading):
        invert(Series(0, [2, 1], 4))
    with pytest.raises(NonUnitLeading):
        invert(Series.zero(4))


def test_invert_negative_leading():
    a = Series(1, [-1, 3], 5)
    prod = mul(a, invert(a))
    assert prod == Series.one(prod.order)


# ----------------------------------------------------------------------
# pochhammer products
# ----------------------------------------------------------------------


def test_euler_product_pentagonal_expansion():
    s = pochhammer(1, 1, 1, 15)
    want = [0] * 16
    for k, sign in ((0, 1), (1, -1), (2, -1), (5, 1), (7, 1), (12, -1), (15, -1)):
        want[k] = sign
    assert [s.coeff(k) for k in range(16)] == want


def test_pochhammer_beyond_order_is_one():
    assert pochhammer(5, 1, 1, 4) == Series.one(4)


def test_pochhammer_small_negative_sign():
    s = pochhammer(1, 2, -1, 3)  # (1+q)(1+q^3)
    assert [s.coeff(k) for k in range(4)] == [1, 1, 0, 1]


def test_pochhammer_rejects_bad_exponents():
    with pytest.raises(InvalidExponent):
        pochhammer(0, 1, 1, 5)
    with pytest.raises(InvalidExponent):
        pochhammer(1, 0, 1, 5)


@given(
    st.integers(1, 8),
    st.integers(1, 6),
    st.sampled_from([1, -1]),
    st.integers(0, 60),
)
@settings(deadline=None, max_examples=60)
def test_pochhammer_matches_factor_product(e, m, sigma, n):
    assert pochhammer(e, m, sigma, n) == poch_oracle(e, m, sigma, n)


def test_distinct_parts_equal_odd_parts():
    # Euler: prod (1+q^k) = prod 1/(1-q^(2k-1))
    n = 80
    assert pochhammer(1, 1, -1, n) == residue_product({1}, 2, n)


# ----------------------------------------------------------------------
# residue products
# ----------------------------------------------------------------------


def test_odd_part_counts():
    s = residue_product({1}, 2, 8)
    assert [s.coeff(k) for k in range(9)] == [1, 1, 1, 2, 2, 3, 4, 5, 6]


def test_residues_one_mod_three():
    s = residue_product({1}, 3, 6)
    # parts 1, 2, 4, 5, ...
    assert s.coeff(3) == 2  # 1+1+1, 1+2
    assert s.coeff(4) == 4  # 4, 2+2, 2+1+1, 1+1+1+1


def test_residue_product_rejects_empty_set():
    with pytest.raises(EmptySet):
        residue_product(set(), 5, 10)


def test_residue_product_rejects_out_of_range():
    with pytest.raises(ResidueOutOfRange):
        residue_product({3}, 5, 10)
    with pytest.raises(ResidueOutOfRange):
        residue_product({0}, 5, 10)


def test_half_modulus_residue_allowed():
    s = residue_product({2}, 4, 8)
    # parts 2, 6, 10, ... (2 and -2 coincide mod 4)
    assert [s.coeff(k) for k in range(9)] == [1, 0, 1, 0, 1, 0, 2, 0, 2]


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_residue_product_matches_direct_count(data):
    modulus = data.draw(st.integers(2, 24))
    half = modulus // 2
    residues = data.draw(
        st.sets(st.integers(1, half), min_size=1, max_size=half)
    )
    n = data.draw(st.integers(0, 120))
    got = residue_product(residues, modulus, n)
    want = count_partitions_into(parts_from_residues(residues, modulus, n), n)
    assert [got.coeff(k) for k in range(n + 1)] == want


def test_inverse_of_euler_product_counts_all_partitions():
    n = 100
    inv = invert(pochhammer(1, 1, 1, n))
    want = count_partitions_into(range(1, n + 1), n)
    assert [inv.coeff(k) for k in range(n + 1)] == want


def test_large_order_spot_check():
    # parts not divisible by 4, checked at order 1000 against a direct DP
    n = 1000
    got = residue_product({1, 2}, 4, n)
    want = count_partitions_into(parts_from_residues({1, 2}, 4, n), n)
    assert [got.coeff(k) for k in range(n + 1)] == want


# ----------------------------------------------------------------------
# limb-width bound
# ----------------------------------------------------------------------


def random_residue_sets(seed, count):
    """Seeded (modulus, residue set, order) triples, order up to 400."""
    rng = random.Random(seed)
    for _ in range(count):
        modulus = rng.randint(2, 90)
        half = modulus // 2
        residues = rng.sample(range(1, half + 1), rng.randint(1, half))
        yield modulus, residues, rng.randint(0, 400)


def test_coeff_bits_bound_partition_counts():
    for modulus, residues, n in random_residue_sets(20261018, 150):
        parts = _expand_parts(residues, modulus, n)
        table = count_partitions_into(parts, n)
        assert _coeff_bits((), parts, n) >= max(table).bit_length()


def test_coeff_bits_bound_finite_products():
    for modulus, residues, n in random_residue_sets(1729, 150):
        parts = _expand_parts(residues, modulus, n)
        # prod (1-q^k) over the parts, built from pochhammer factors
        prod = Series.one(n)
        for r in {s for r0 in residues for s in (r0, modulus - r0)}:
            prod = mul(prod, pochhammer(r, modulus, 1, n))
        biggest = max(abs(c) for c in prod.coeffs)
        assert _coeff_bits(parts, (), n) >= biggest.bit_length()


def random_mixed_products(seed, count):
    """Seeded (finite, inverse, n, scale, product) with signed parts: the
    finite parts from pochhammer factors over one residue set, the
    inverse ones from a residue product over another, same modulus."""
    rng = random.Random(seed)
    for _ in range(count):
        modulus = rng.randint(2, 60)
        half = modulus // 2
        n = rng.randint(1, 300)
        fin_res = rng.sample(range(1, half + 1), rng.randint(0, half))
        inv_res = rng.sample(range(1, half + 1), rng.randint(0, half))
        scale = rng.choice((1, 1, 2, 3, 4, 5))
        prod = Series(0, [scale], n)
        finite = []
        for r0 in fin_res:
            for r in {r0, modulus - r0}:
                sigma = rng.choice((1, -1))
                prod = mul(prod, pochhammer(r, modulus, sigma, n))
                finite += [sigma * k for k in range(r, n + 1, modulus)]
        inverse = _expand_parts(inv_res, modulus, n) if inv_res else []
        if inv_res:
            prod = mul(prod, residue_product(inv_res, modulus, n))
        yield finite, inverse, n, scale, prod


def test_coeff_bits_bound_mixed_products():
    for finite, inverse, n, scale, prod in random_mixed_products(31337, 120):
        biggest = max(abs(c) for c in prod.coeffs)
        assert _coeff_bits(finite, inverse, n, scale) >= biggest.bit_length()


def test_coeff_bits_counts_the_scale():
    # the empty product times the scale is the scale itself
    for scale in range(1, 70):
        assert _coeff_bits((), (), 10, scale) >= scale.bit_length()
    # 2(-q^3; q^3)^2, the paren (0:3), has coefficients 2, 4, 6, ...
    n = 120
    parts = [-k for k in range(3, n + 1, 3)] * 2
    biggest = max(abs(c) for c in product_series(parts, (), n, 2).coeffs)
    assert _coeff_bits(parts, (), n, 2) >= biggest.bit_length()


def exact_bound_bits(finite, inverse, n, scale=1):
    """The bound of _coeff_bits at its documented t, in 60-digit decimals."""
    t = math.pi * math.sqrt(len(finite) / 12 + len(inverse) / 6) / n
    with localcontext() as ctx:
        ctx.prec = 60
        td = Decimal(t)
        total = n * td
        for j in finite:
            total += (1 + (-abs(j) * td).exp()).ln()
        for j in inverse:
            total += -(1 - (-abs(j) * td).exp()).ln()
        return total / Decimal(2).ln() + (abs(scale) - 1).bit_length()


def test_coeff_bits_float_margin():
    # the float evaluation plus its margin stays a full bit above the
    # same bound evaluated exactly
    for modulus, residues, n in random_residue_sets(5, 40):
        parts = _expand_parts(residues, modulus, n)
        if not parts:
            continue
        for finite, inverse in ((parts, ()), ((), parts)):
            exact = exact_bound_bits(finite, inverse, n)
            assert _coeff_bits(finite, inverse, n) >= exact + 1
    for finite, inverse, n, scale, _ in random_mixed_products(6, 40):
        if finite or inverse:
            exact = exact_bound_bits(finite, inverse, n, scale)
            assert _coeff_bits(finite, inverse, n, scale) >= exact + 1


# ----------------------------------------------------------------------
# the packed product builder
# ----------------------------------------------------------------------


def factor_oracle(factors, n):
    """prod (1 - s q^k) over factors j = s*k, one mul per factor."""
    acc = Series.one(n)
    for j in factors:
        k = abs(j)
        if k <= n:
            acc = mul(acc, Series(0, [1] + [0] * (k - 1) + [-1 if j > 0 else 1], n))
    return acc


def test_product_series_matches_mul_and_invert():
    rng = random.Random(4242)
    for _ in range(150):
        n = rng.randint(0, 300)
        top = rng.choice((5, 20, 300))
        finite = [rng.choice((1, -1)) * rng.randint(1, top)
                  for _ in range(rng.randint(0, 12))]
        inverse = [rng.choice((1, -1)) * rng.randint(1, top)
                   for _ in range(rng.randint(0, 12))]
        finite += finite[:2]  # repeated parts
        inverse += inverse[:2]
        scale = rng.choice((1, 1, 2, 3))
        want = mul(factor_oracle(finite, n), invert(factor_oracle(inverse, n)))
        want = Series(want.offset, [scale * c for c in want.coeffs], n)
        got = product_series(finite, inverse, n, scale)
        assert (got.offset, got.order, got.coeffs) == (
            want.offset, want.order, want.coeffs), (finite, inverse, n)


def test_product_series_signed_inverse_factors():
    n = 30
    # 1/(1+q) = 1 - q + q^2 - ...
    s = product_series((), [-1], n)
    assert [s.coeff(k) for k in range(n + 1)] == [(-1) ** k for k in range(n + 1)]
    # (1+q^3)/(1+q^3) = 1
    assert product_series([-3], [-3], n) == Series.one(n)
    # 1/(1+q^2) = 1 - q^2 + q^4 - ..., with k = 2 first doubled to 4
    s = product_series((), [-2], n)
    assert [s.coeff(k) for k in range(n + 1)] == [
        (-1) ** (k // 2) if k % 2 == 0 else 0 for k in range(n + 1)]


def test_product_series_below_order_zero_is_zero():
    for n in (-1, -2, -50):
        s = product_series([1, -2], [3, -4], n, 2)
        assert (s.offset, s.order, s.coeffs) == (n, n, (0,))
        assert pochhammer(1, 5, 1, n) == Series.zero(n)
        assert residue_product({1}, 5, n).order == n


# ----------------------------------------------------------------------
# the packed zero test
# ----------------------------------------------------------------------


def random_term(rng, n):
    def parts():
        return [rng.choice((1, -1)) * rng.randint(1, n + 3)
                for _ in range(rng.randint(0, 6))]

    sparse = [[(rng.randint(0, n + 5), rng.choice((1, -1, 2, -3)))
               for _ in range(rng.randint(1, 5))]
              for _ in range(rng.randint(0, 2))]
    return Term(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)),
                rng.randint(-8, n), sparse=sparse, finite=parts(),
                inverse=parts(), scale=rng.choice((1, 2)))


def test_first_nonzero_matches_series_route(series_route):
    # random sums; a term cancelled by a copy carrying one more finite
    # factor (1 - s q^p) leaves c s q^(e+p) X, so most sums first differ
    # well above their lowest exponent
    rng = random.Random(6151)
    seen = set()
    for _ in range(300):
        n = rng.randint(0, 80)
        terms = []
        for _ in range(rng.randint(1, 3)):
            t = random_term(rng, n)
            p = rng.choice((1, -1)) * rng.randint(1, n + 2)
            terms += [t, t._replace(c=-t.c, finite=[*t.finite, p])]
        terms += [random_term(rng, n) for _ in range(rng.randint(0, 1))]
        terms += [random_term(rng, n)._replace(e=n + rng.randint(1, 9))
                  for _ in range(rng.randint(0, 2))]
        rng.shuffle(terms)
        want = series_route(terms, n)
        assert _first_nonzero(terms, n) == want, (terms, n)
        seen.add(want is None)
    assert seen == {True, False}


def test_first_nonzero_reads_past_overflowing_limbs(monkeypatch, series_route):
    # P - P/(1 - q^40) = -q^40 P/(1 - q^40), P = 1/(q;q): the first
    # coefficient is -1 and the later ones are partition counts, far
    # wider than a 16-bit limb
    n = 120
    parts = list(range(1, n + 1))
    terms = [Term(1, -3, inverse=parts),
             Term(-1, -3, sparse=[[(0, 1)]], inverse=parts + [40])]
    assert series_route(terms, n) == (37, -1)
    assert max(product_series((), parts, n).coeffs) >= 1 << 16
    monkeypatch.setattr(qseries, "_limb_width", lambda bits: 16)
    assert _first_nonzero(terms, n) == (37, -1)


def test_first_nonzero_compares_through_q_n():
    n = 50
    base = Term(1, -4, sparse=[[(0, 1), (7, -3)]], finite=[2, -5],
                inverse=[3])
    pair = [base, base._replace(c=-1)]
    assert _first_nonzero(pair, n) is None
    # a lone coefficient at q^n fails at n; at q^(n+1) it is not seen
    assert _first_nonzero(pair + [Term(3, n)], n) == (n, 3)
    assert _first_nonzero(pair + [Term(3, n + 1)], n) is None
    assert _first_nonzero([Term(-2, n + 1)], n) is None
    # q^(n-10) (1 - q^10) - q^(n-10) = -q^n, one limb below the order
    edge = Term(1, n - 10, finite=[10])
    assert _first_nonzero([edge, Term(-1, n - 10)], n) == (n, -1)
    assert _first_nonzero([edge._replace(e=n - 9), Term(-1, n - 9)], n) is None
