"""Tests for the instantiated four-parameter theta relations.

Every relation exported by the module is checked against the series
engine: the assembled monomials of each instance must sum to zero (or to
one for the base-2n quotient form) to a generous order, over both
hand-picked and seeded random parameters.  Derivations are additionally
cross-checked by verifying the produced partition identity numerically,
and the tests' numpy batch reduction (oracles.derive_batch), the
per-tuple oracle for the search's reduction, is checked tuple by tuple
against the single-tuple one.
"""

import random
from math import gcd

import numpy as np
import pytest

from qshift import search
from qshift.corpus import AuxStep, replay_aux_terms
from qshift.jacobi import (
    EQUAL_SETS,
    FAILURE_REASONS,
    INCOMPLETE_CANCELLATION,
    REPEATED_ATOM,
    UNRECOGNIZED_SIGN_PATTERN,
    FourParams,
    _classify_reduced,
    _term,
    derive_identity,
    four2_terms,
    four_terms,
    quintuple_terms,
    verify_zero_combination,
)
from qshift.partitions import SHIFTED, SHIFTLESS, VerifyReport, verify_identity
from qshift.qseries import NonUnitLeading, Series
from qshift.theta import (
    BRACKET,
    PAREN,
    Atom,
    DegenerateZero,
    make_monomial,
    monomial_series,
)

from oracles import (
    _classify_batch,
    derive_batch,
    first_difference,
    linear_combine,
)


def assert_sums_to_zero(terms, order):
    report = verify_zero_combination(terms, order)
    assert report.ok, (report.first_fail, report.witness)


def brackets(rs, m):
    return [Atom(r, m, BRACKET) for r in rs]


def four_unsigned(p):
    """The unsigned four instance at p: four_terms with every sign +1."""
    return four_terms([(1, e) for e in p.exponents()], p.n)


# ----------------------------------------------------------------------
# reducing raw terms: the term builder _term
# ----------------------------------------------------------------------

def b16(*exponents):
    return [(e, 16, BRACKET) for e in exponents]


class TestReduceTerm:
    def test_folding_and_cancellation(self):
        mono = _term(1, 0, b16(3, 19), b16(3))
        assert mono == make_monomial(-1, -3, brackets([3], 16))

    def test_denominator_shift_direction(self):
        plain = _term(1, 0, (), b16(3))
        shifted = _term(1, 0, (), b16(19))
        assert plain.den == shifted.den
        assert shifted.c == -1 and shifted.e == 3

    def test_golden_quotient_reduction(self):
        r1, r2, one = four2_terms(FourParams(1, 2, 4, 12, 13, 16))
        assert one == make_monomial(-1, 0)
        assert r1.num == () and r2.num == ()
        assert (r1.c, r1.e) == (-1, 1)
        assert (r2.c, r2.e) == (1, 0)
        assert sorted(a.r for a in r1.den) == [1, 2, 3, 5, 7, 8, 9, 11, 12, 13, 14, 15]
        assert sorted(a.r for a in r2.den) == [1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15]
        assert all(a.m == 32 and a.kind == BRACKET for a in r1.den + r2.den)


# ----------------------------------------------------------------------
# the master relations as series identities
# ----------------------------------------------------------------------

class TestFour:
    def test_golden_monomials(self):
        terms = four_unsigned(FourParams(1, 3, 6, 9, 12, 42))
        L1, L2, minus_R = terms
        assert L1 == make_monomial(1, -7, brackets([3, 8, 11, 12], 42))
        assert L2 == make_monomial(-1, -7, brackets([5, 6, 9, 14], 42))
        assert minus_R == make_monomial(1, -4, brackets([2, 3, 6, 17], 42))
        assert_sums_to_zero(terms, 150)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateZero):
            four_unsigned(FourParams(1, 2, 18, 5, 9, 16))

    def test_random_instances(self):
        rng = random.Random(414213)
        done = 0
        while done < 40:
            n = rng.randint(2, 14)
            a, b, c, x, y = (rng.randint(1, 3 * n) for _ in range(5))
            try:
                terms = four_unsigned(FourParams(a, b, c, x, y, n))
            except DegenerateZero:
                continue
            assert_sums_to_zero(terms, 150)
            done += 1


class TestFourSigned:
    def test_golden_mixed_signs(self):
        params = ((-1, 1), (1, 3), (1, 6), (-1, 9), (1, 9))
        terms = four_terms(params, 24)
        L1, L2, minus_R = terms
        assert L1 == make_monomial(
            -1, -4,
            [Atom(3, 24, BRACKET), Atom(8, 24, BRACKET),
             Atom(8, 24, PAREN), Atom(9, 24, PAREN)])
        assert L2 == make_monomial(
            1, -4,
            [Atom(6, 24, BRACKET), Atom(11, 24, BRACKET),
             Atom(5, 24, PAREN), Atom(6, 24, PAREN)])
        assert minus_R == make_monomial(
            -1, -1,
            [Atom(3, 24, BRACKET), Atom(10, 24, BRACKET),
             Atom(2, 24, PAREN), Atom(3, 24, PAREN)])
        assert_sums_to_zero(terms, 150)

    def test_all_plus_matches_unsigned(self):
        # the unsigned four step replays as four_terms with every sign +1
        p = FourParams(1, 3, 6, 9, 12, 42)
        plain = replay_aux_terms(AuxStep("four", p.exponents(), p.n, ()))
        signed = four_terms(tuple((1, e) for e in p.exponents()), p.n)
        assert plain == signed
        assert all(a.kind == BRACKET for t in plain for a in t.num)

    def test_random_signed_instances(self):
        rng = random.Random(732050)
        done = 0
        while done < 30:
            n = rng.randint(2, 12)
            params = tuple((rng.choice((1, -1)), rng.randint(1, 2 * n))
                           for _ in range(5))
            try:
                terms = four_terms(params, n)
            except DegenerateZero:
                continue
            assert_sums_to_zero(terms, 120)
            done += 1


class TestFour2:
    @staticmethod
    def quotient_sum(p, order):
        t1, t2, _ = four2_terms(p)
        return linear_combine([
            (1, monomial_series(t1, order)),
            (1, monomial_series(t2, order)),
        ])

    def test_golden_sums_to_one(self):
        total = self.quotient_sum(FourParams(1, 2, 4, 12, 13, 16), 150)
        assert total == Series(0, (1,), 150)
        assert_sums_to_zero(four2_terms(FourParams(1, 2, 4, 12, 13, 16)), 150)

    def test_random_instances_sum_to_one(self):
        rng = random.Random(236067)
        done = 0
        while done < 25:
            n = rng.randint(2, 10)
            a, b, c, x, y = (rng.randint(1, 2 * n) for _ in range(5))
            p = FourParams(a, b, c, x, y, n)
            try:
                total = self.quotient_sum(p, 100)
            except DegenerateZero:
                continue
            assert total == Series(0, (1,), 100), p
            done += 1


# ----------------------------------------------------------------------
# derivation of partition identities
# ----------------------------------------------------------------------

class TestDerive:
    def test_shifted_golden(self):
        d = derive_identity(FourParams(1, 2, 4, 12, 13, 16))
        assert d.ok and d.reason is None
        ident = d.identity
        assert ident.M == 32 and ident.kind == SHIFTED and ident.a == 1
        assert ident.S == frozenset({1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15})
        assert ident.T == frozenset({1, 2, 3, 5, 7, 8, 9, 11, 12, 13, 14, 15})
        assert verify_identity(ident, 200).ok

    def test_shiftless_golden(self):
        d = derive_identity(FourParams(1, 2, 4, 8, 9, 20))
        assert d.ok
        ident = d.identity
        assert ident.M == 40 and ident.kind == SHIFTLESS and ident.a == 2
        assert ident.S == frozenset({1, 2, 5, 6, 7, 8, 9, 11, 12, 13, 15, 19})
        assert ident.T == frozenset({1, 3, 4, 5, 6, 7, 8, 13, 14, 15, 17, 19})
        assert verify_identity(ident, 200).ok

    def test_incomplete_cancellation(self):
        d = derive_identity(FourParams(1, 2, 3, 4, 5, 16))
        assert not d.ok and d.reason == INCOMPLETE_CANCELLATION
        assert d.identity is None
        assert any(t.num for t in d.terms)

    def test_repeated_atom(self):
        d = derive_identity(FourParams(1, 2, 3, 11, 12, 16))
        assert not d.ok and d.reason == REPEATED_ATOM

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateZero):
            derive_identity(FourParams(1, 2, 18, 5, 9, 16))

    def test_equal_sets_branch(self):
        p = FourParams(1, 2, 3, 4, 5, 16)
        den = tuple(brackets([1, 2, 3], 32))
        r1 = make_monomial(1, 0, (), den)
        r2 = make_monomial(-1, 1, (), den)
        assert _classify_reduced(p, r1, r2).reason == EQUAL_SETS

    def test_unrecognized_sign_patterns(self):
        p = FourParams(1, 2, 3, 4, 5, 16)
        d1 = make_monomial(1, 0, (), brackets([1, 2, 3], 32))
        d2 = make_monomial(1, 1, (), brackets([1, 2, 5], 32))
        assert _classify_reduced(p, d1, d2).reason == UNRECOGNIZED_SIGN_PATTERN
        d3 = make_monomial(-1, 2, (), brackets([1, 2, 5], 32))
        d4 = make_monomial(1, 1, (), brackets([1, 2, 3], 32))
        assert _classify_reduced(p, d3, d4).reason == UNRECOGNIZED_SIGN_PATTERN

    def test_every_success_verifies(self):
        rng = random.Random(645751)
        found = 0
        for _ in range(4000):
            n = rng.choice((16, 20))
            b, c = rng.randint(2, 2 * n - 1), rng.randint(2, 2 * n - 1)
            x = rng.randint(2, 2 * n - 1)
            y = rng.randint(x, 2 * n - 1)
            if len({1, b, c, x, y}) != 5:
                continue
            try:
                d = derive_identity(FourParams(1, b, c, x, y, n))
            except DegenerateZero:
                continue
            if d.ok:
                assert verify_identity(d.identity, 120).ok, d.params
                found += 1
        assert found >= 5


# ----------------------------------------------------------------------
# batch derivation and the quintuple form
# ----------------------------------------------------------------------

def batch_columns(pairs, n):
    """_classify_batch arguments for a list of reduced term pairs: each
    term's sign parity, q-exponent, and den minus num residue counts."""
    cols = []
    for k in (0, 1):
        terms = [pair[k] for pair in pairs]
        left = np.zeros((len(terms), n + 1), dtype=np.int64)
        for i, t in enumerate(terms):
            for atom in t.den:
                left[i, atom.r] += 1
            for atom in t.num:
                left[i, atom.r] -= 1
        cols += [np.array([t.c < 0 for t in terms], dtype=np.int64),
                 np.array([t.e for t in terms], dtype=np.int64), left]
    return cols


def assert_batch_row(batch, i, d):
    """Row i of a BatchDerivation says what the Derivation d says."""
    if d.ok:
        assert batch.reason[i] == 0, d.params
        assert batch.identity(i) == d.identity
        ident = d.identity
        assert batch.primitive[i] == (gcd(ident.M, *ident.S, *ident.T) == 1)
    else:
        assert batch.reason[i] > 0, d.params
        assert FAILURE_REASONS[batch.reason[i] - 1] == d.reason


class TestDeriveBatch:
    def test_classifier_branches_match_scalar_classifier(self):
        # equal-sets and both unrecognized-sign-pattern shapes are never
        # reached by a four2 tuple of the tested bases, so feed them directly
        p = FourParams(1, 2, 3, 4, 5, 16)
        den123 = tuple(brackets([1, 2, 3], 32))
        den125 = tuple(brackets([1, 2, 5], 32))
        pairs = [
            (make_monomial(1, 0, (), den123), make_monomial(-1, 1, (), den123)),
            (make_monomial(1, 0, (), den123), make_monomial(1, 1, (), den125)),
            (make_monomial(-1, 2, (), den125), make_monomial(1, 1, (), den123)),
            (make_monomial(-1, 0, (), den125), make_monomial(1, 0, (), den123)),
            (make_monomial(1, -2, (), den123), make_monomial(-1, -2, (), den125)),
            (make_monomial(-1, 3, (), den125), make_monomial(1, 0, (), den123)),
            (make_monomial(1, 0, (), den123 + den123[:1]),
             make_monomial(-1, 1, (), den125)),
            (make_monomial(1, 0, (), den123),
             make_monomial(-1, 1, (), den125 + den125[:1])),
            (make_monomial(1, 0, brackets([7], 32), den123),
             make_monomial(-1, 1, (), den125)),
        ]
        reason, shifted, shift, plus, minus = _classify_batch(
            *batch_columns(pairs, 16))
        want = [_classify_reduced(p, r1, r2) for r1, r2 in pairs]
        assert [FAILURE_REASONS[k - 1] if k else None for k in reason] == \
            [d.reason for d in want]
        assert [d.reason for d in want] == [
            EQUAL_SETS, UNRECOGNIZED_SIGN_PATTERN, UNRECOGNIZED_SIGN_PATTERN,
            UNRECOGNIZED_SIGN_PATTERN, None, None, REPEATED_ATOM,
            REPEATED_ATOM, INCOMPLETE_CANCELLATION]
        for i in (4, 5):
            ident = want[i].identity
            assert bool(shifted[i]) == (ident.kind == SHIFTED)
            assert shift[i] == ident.a
            assert set(np.flatnonzero(plus[i])) == ident.S
            assert set(np.flatnonzero(minus[i])) == ident.T

    def test_golden_and_failure_tuples(self):
        tuples = [(1, 2, 4, 12, 13), (1, 2, 3, 4, 5), (1, 2, 3, 11, 12)]
        batch = derive_batch(16, *np.array(tuples).T)
        for i, t in enumerate(tuples):
            assert_batch_row(batch, i, derive_identity(FourParams(*t, 16)))
        shiftless = derive_batch(20, 1, 2, 4, [8], [9])
        assert_batch_row(shiftless, 0, derive_identity(FourParams(1, 2, 4, 8, 9, 20)))
        assert shiftless.identity(0).kind == SHIFTLESS
        doubled = derive_batch(32, 2, 4, 8, 24, [26])
        assert_batch_row(doubled, 0, derive_identity(FourParams(2, 4, 8, 24, 26, 32)))
        assert doubled.reason[0] == 0 and not doubled.primitive[0]

    @pytest.mark.parametrize("n", [16, 20])
    def test_agrees_with_derive_identity_on_every_survivor(self, n):
        tuples = []
        bound = n - 1
        # diagonal by diagonal, each diagonal's cube built once
        t = search._base_tables(n, bound)
        for d in range(1 - bound, bound):
            cube, _ = search._outcome_cube(t, d)
            for a in range(max(1, 1 - d), min(bound, bound - d) + 1):
                keep = search._prefilter(t, cube, a, a + d) >= search._DERIVED
                tuples += [(a, a + d, c, x, y) for c, x, y in zip(
                    t.C[keep].tolist(), t.X[keep].tolist(), t.Y[keep].tolist())]
        batch = derive_batch(n, *np.array(tuples).T)
        for i, t in enumerate(tuples):
            assert_batch_row(batch, i, derive_identity(FourParams(*t, n)))
        assert (batch.reason == 0).any()

    def test_degenerate_and_out_of_range_raise(self):
        with pytest.raises(DegenerateZero):
            derive_batch(16, 1, 2, [4, 18], [12, 5], [13, 9])
        with pytest.raises(ValueError):
            derive_batch(16, 1, 2, 4, 12, [1 << 24])
        with pytest.raises(ValueError):
            derive_batch(1 << 24, 1, 2, 4, 12, 13)


class TestQuintuple:
    @pytest.mark.parametrize("ex,n", [(2, 5), (1, 4), (2, 9), (3, 7)])
    def test_sums_to_zero(self, ex, n):
        assert_sums_to_zero(quintuple_terms(ex, n), 120)

    def test_bracket_form_golden(self):
        L1, minus_L2, minus_R = quintuple_terms(2, 9)
        assert L1 == make_monomial(1, 0, brackets([3, 24, 24], 54))
        assert minus_L2 == make_monomial(-1, 2, brackets([6, 12, 15], 54))
        want = [2, 3, 5, 7, 9, 11, 12, 13, 15, 16, 18, 20, 23, 24, 25]
        assert minus_R == make_monomial(-1, 0, brackets(want, 54))

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateZero):
            quintuple_terms(1, 3)


# ----------------------------------------------------------------------
# zero-combination checking
# ----------------------------------------------------------------------

class TestVerifyZeroCombination:
    def test_bracket_rearrangement_passes(self):
        terms = [
            make_monomial(1, 0, brackets([5, 6, 9, 14], 42)),
            make_monomial(-1, 0, brackets([3, 8, 11, 12], 42)),
            make_monomial(-1, 3, brackets([2, 3, 6, 17], 42)),
        ]
        assert verify_zero_combination(terms, 200).ok

    def test_cancelling_pair_passes(self):
        terms = [
            make_monomial(1, 0, brackets([1], 4)),
            make_monomial(-1, 0, brackets([1], 4)),
        ]
        assert verify_zero_combination(terms, 50).ok

    def test_reports_failure_exponent(self):
        L1, L2, minus_R = four_unsigned(FourParams(1, 3, 6, 9, 12, 42))
        R = minus_R._replace(c=-minus_R.c)
        report = verify_zero_combination([L1, L2, R], 80)
        assert not report.ok
        total = linear_combine([(1, monomial_series(t, 80))
                                for t in (L1, L2, R)])
        assert report.first_fail == first_difference(total, Series.zero(80))
        assert report.witness is not None and report.witness[0] != 0

    def test_paren_zero_denominator_raises(self):
        # (0:m) has constant term 2, so it is no unit, even past the order
        for qexp in (0, 60):
            mono = make_monomial(1, qexp, brackets([1], 4), (Atom(0, 4, PAREN),))
            with pytest.raises(NonUnitLeading):
                verify_zero_combination([mono], 50)

    def test_empty_combination_rejected(self):
        with pytest.raises(ValueError):
            verify_zero_combination([], 50)

    def test_terms_past_the_order_are_zero(self):
        # q^qexp with qexp > n + 1 puts the whole term past order n
        for qexp in (51, 52, 80):
            far = make_monomial(1, qexp, brackets([1], 5), brackets([2], 5))
            assert verify_zero_combination([far], 50) == VerifyReport(True, 50)
        near = make_monomial(-1, 30, brackets([1], 5))
        report = verify_zero_combination(
            [near, make_monomial(1, 60, brackets([2], 5))], 50)
        assert (report.ok, report.first_fail, report.witness) == (
            False, 30, (-1, 0))
