"""Tests for partition identities, counting, inference, and special checks.

The counting oracle is the plain DP in count_partitions_table; the series
pipeline must agree with it everywhere.  Identity fixtures are small
literal residue sets whose truth or falsity the tests themselves verify
from both sides.
"""

import hashlib
import random
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshift import partitions, theta
from qshift.corpus import load_corpus
from qshift.qseries import (
    EmptySet,
    ResidueOutOfRange,
    Series,
    _coeff_bits,
    _expand_parts,
    _pack,
    _pack_sparse,
    _unpack_signed,
    mul,
    pochhammer,
    product_series,
    residue_product,
    shift_scale,
)
from qshift.partitions import (
    SHIFTED,
    SHIFTLESS,
    InvalidIdentity,
    OrderTooSmall,
    PartitionIdentity,
    THEOREM_72_2,
    _cancelled,
    count_partitions,
    count_partitions_table,
    infer_relation,
    rogers_ramanujan_check,
    verify_identity,
    verify_theorem_72_2,
)
from qshift.theta import (
    BRACKET,
    Atom,
    Term,
    atom_series,
    euler_cube_terms,
    first_nonzero,
    make_monomial,
    monomial_series,
    ramanujan_f_terms,
    read_cleared,
)

from oracles import (
    cleared_bound,
    first_difference,
    linear_combine,
    sums_bound,
)
from part_by_part import first_nonzero_by_parts, parts_term

# a modulus-32 shifted pair used as the standing fixture
S32 = frozenset({1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15})
T32 = frozenset({1, 2, 3, 5, 7, 8, 9, 11, 12, 13, 14, 15})
ID32 = PartitionIdentity(32, S32, T32, SHIFTED, 1)

# a modulus-40 shiftless pair; S is the side with the larger count at n=2
S40 = frozenset({1, 2, 5, 6, 7, 8, 9, 11, 12, 13, 15, 19})
T40 = frozenset({1, 3, 4, 5, 6, 7, 8, 13, 14, 15, 17, 19})
ID40 = PartitionIdentity(40, S40, T40, SHIFTLESS, 2)


# ----------------------------------------------------------------------
# parts and counting
# ----------------------------------------------------------------------


def test_parts_of_folded_classes():
    assert _expand_parts({1}, 4, 10) == [1, 3, 5, 7, 9]
    assert _expand_parts({2}, 4, 10) == [2, 6, 10]


def test_parts_of_large_set():
    got = _expand_parts(S32, 32, 33)
    missing = sorted(set(range(1, 34)) - set(got))
    # 1..33 minus the classes +-2, +-12, +-14 and the 0 and 16 classes
    assert missing == [2, 12, 14, 16, 18, 20, 30, 32]


def test_parts_of_rejects_bad_residues():
    with pytest.raises(ResidueOutOfRange):
        _expand_parts({17}, 32, 10)
    with pytest.raises(EmptySet):
        _expand_parts(set(), 32, 10)


def test_count_small_values():
    # all parts up to 5 available: the classical p(5) = 7
    assert count_partitions({1, 2, 3, 4, 5}, 11, 5) == 7
    # odd parts only: 4 = 3+1 = 1+1+1+1
    assert count_partitions({1}, 4, 4) == 2
    assert count_partitions({1}, 4, 0) == 1
    assert count_partitions({1}, 4, -3) == 0


@given(st.data())
@settings(deadline=None, max_examples=40)
def test_count_agrees_with_series(data):
    modulus = data.draw(st.integers(2, 20))
    half = modulus // 2
    residues = data.draw(st.sets(st.integers(1, half), min_size=1, max_size=half))
    n = data.draw(st.integers(0, 80))
    table = count_partitions_table(residues, modulus, n)
    series = residue_product(residues, modulus, n)
    assert table == [series.coeff(k) for k in range(n + 1)]


# ----------------------------------------------------------------------
# identity structure
# ----------------------------------------------------------------------


def test_identity_requires_distinct_sets():
    with pytest.raises(InvalidIdentity):
        PartitionIdentity(32, S32, S32, SHIFTED, 1)


def test_identity_requires_nonempty_sets():
    with pytest.raises(InvalidIdentity):
        PartitionIdentity(32, frozenset(), T32, SHIFTED, 1)


def test_identity_requires_residues_in_range():
    with pytest.raises(InvalidIdentity):
        PartitionIdentity(32, frozenset({1, 17}), T32, SHIFTED, 1)
    with pytest.raises(InvalidIdentity):
        PartitionIdentity(32, frozenset({0, 1}), T32, SHIFTED, 1)


def test_identity_requires_known_kind_and_positive_shift():
    with pytest.raises(InvalidIdentity):
        PartitionIdentity(32, S32, T32, "sideways", 1)
    with pytest.raises(InvalidIdentity):
        PartitionIdentity(32, S32, T32, SHIFTED, 0)


def test_identity_key_is_deterministic():
    assert ID32.key() == (32, tuple(sorted(S32)), tuple(sorted(T32)), SHIFTED, 1)


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------


def test_verify_shifted_fixture_passes():
    assert verify_identity(ID32, 400).ok
    # q -> q^2 doubles the modulus, every residue and the shift
    doubled = PartitionIdentity(
        64, frozenset(2 * s for s in S32), frozenset(2 * t for t in T32),
        SHIFTED, 2)
    assert verify_identity(doubled, 150).ok


def test_verify_shiftless_fixture_passes():
    assert verify_identity(ID40, 400).ok


def test_verify_shiftless_counts_differ_only_at_a():
    # independent cross-check through the DP oracle
    s = count_partitions_table(S40, 40, 60)
    t = count_partitions_table(T40, 40, 60)
    diffs = [n for n in range(61) if s[n] != t[n]]
    assert diffs == [2]
    assert s[2] == t[2] + 1


def test_verify_mutated_identity_fails_with_witness():
    bad = PartitionIdentity(32, (S32 - {4}) | {2}, T32, SHIFTED, 1)
    rep = verify_identity(bad, 200)
    assert not rep.ok
    assert rep.first_fail is not None and rep.first_fail <= 50
    lhs, rhs = rep.witness
    assert lhs != rhs or rep.first_fail == 0


def test_verify_wrong_shift_fails():
    rep = verify_identity(PartitionIdentity(32, S32, T32, SHIFTED, 2), 100)
    assert not rep.ok


def test_verify_wrong_kind_fails():
    rep = verify_identity(PartitionIdentity(32, S32, T32, SHIFTLESS, 1), 100)
    assert not rep.ok


def test_verify_order_too_small():
    with pytest.raises(OrderTooSmall):
        verify_identity(ID32, 2)


def test_verify_monotone_in_order():
    # passing at some order implies passing at every smaller legal order
    assert verify_identity(ID32, 300).ok
    assert verify_identity(ID32, 40).ok
    assert verify_identity(ID32, 3).ok


# ----------------------------------------------------------------------
# inference
# ----------------------------------------------------------------------


def test_infer_recovers_shifted():
    assert infer_relation(S32, T32, 32, 200) == ID32


def test_infer_recovers_shiftless():
    assert infer_relation(S40, T40, 40, 200) == ID40


def test_infer_is_orientation_sensitive():
    # with the sides swapped the relation still orients the identity
    assert infer_relation(T32, S32, 32, 200) == ID32
    assert infer_relation(T40, S40, 40, 200) == ID40


def test_infer_refuses_an_order_too_small_for_the_shift():
    # n < a + 2 cannot see the shift; a > n // 2 asks for order 2a
    with pytest.raises(OrderTooSmall, match="cannot see a shift of 1"):
        infer_relation(S32, T32, 32, 2)
    ident = next(e.identity for e in load_corpus()
                 if e.label == "Thm-42.2-iii")
    assert (ident.kind, ident.a) == (SHIFTLESS, 8)
    for S, T in ((ident.S, ident.T), (ident.T, ident.S)):
        with pytest.raises(OrderTooSmall, match="needs order 16"):
            infer_relation(S, T, 42, 15)
        assert infer_relation(S, T, 42, 16) == ident


def test_infer_never_calls_a_catalog_identity_a_non_relation():
    # below d = min(S ^ T) the two sides' counts agree, so a shiftless
    # relation at d cannot be seen: that is too small an order, not None
    unseen = set()
    for e in load_corpus():
        ident = e.identity
        d = min(ident.S ^ ident.T)
        for n in range(2, 2 * d + 2):
            for S, T in ((ident.S, ident.T), (ident.T, ident.S)):
                try:
                    got = infer_relation(S, T, ident.M, n)
                except OrderTooSmall as exc:
                    if (ident.kind == SHIFTLESS and n < d
                            and f"cannot see a shift of {d}" in str(exc)):
                        unseen.add((e.label, n))
                    continue
                assert got == ident, (e.label, n)
    assert len(unseen) == 103
    assert len({label for label, _ in unseen}) == 31


def test_infer_equal_sets_gives_nothing():
    assert infer_relation(S32, S32, 32, 100) is None


def test_infer_unrelated_sets_gives_nothing():
    assert infer_relation({1, 2}, {3, 4}, 9, 100) is None


# ----------------------------------------------------------------------
# kernel edge cases: shapes of U = S & T that no catalog entry has
# ----------------------------------------------------------------------


def oracle_verdict(ident, n):
    """(ok, first_fail, witness) of the relation by the DP oracle."""
    return counts_verdict(count_partitions_table(ident.S, ident.M, n),
                          count_partitions_table(ident.T, ident.M, n),
                          ident.kind, ident.a)


def counts_verdict(ps, pt, kind, a):
    """(ok, first_fail, witness) of the relation on the counts
    ps = p(S, 0..n) and pt = p(T, 0..n)."""
    for k in range(len(ps)):
        if kind == SHIFTED:
            rhs = pt[k - a] if k >= a else 0
            want = 1 if k == 0 else 0
        else:
            rhs = pt[k]
            want = 1 if k == a else 0
        if ps[k] - rhs != want:
            return False, k, (ps[k], rhs)
    return True, None, None


def brute_relations(S, T, M, n):
    """Each (kind, a), shifted first, with a the least shift of that
    kind the DP oracle confirms through n: every shifted shift past n
    acts as n + 1, since q^a P_T vanishes through n, and a shiftless
    relation shows its q^a only for a <= n."""
    ps = count_partitions_table(S, M, n)
    pt = count_partitions_table(T, M, n)
    found = []
    for kind, top in ((SHIFTED, n + 1), (SHIFTLESS, n)):
        a = next((a for a in range(1, top + 1)
                  if counts_verdict(ps, pt, kind, a)[0]), None)
        if a is not None:
            found.append((kind, a))
    return found


def brute_infer(S, T, M, n):
    """What infer_relation(S, T, M, n) must give, by brute force: None
    when no relation holds through n in either orientation, (S, T) or
    (T, S), and the counts of the two sides differ somewhere through n;
    the identity when exactly one holds, with a shift up to n // 2 and
    n >= a + 2; else OrderTooSmall.  Counts that agree through n leave
    room for a shiftless relation past n, which the order cannot see."""
    held = [(X, Y, kind, a) for X, Y in ((S, T), (T, S))
            for kind, a in brute_relations(X, Y, M, n)]
    if not held:
        same = (count_partitions_table(S, M, n)
                == count_partitions_table(T, M, n))
        return OrderTooSmall if same else None
    if len(held) > 1 or held[0][3] > n // 2 or n < held[0][3] + 2:
        return OrderTooSmall
    return PartitionIdentity(M, *held[0])


def inferred(S, T, M, n):
    """infer_relation's identity or None, or OrderTooSmall if it raises
    that."""
    try:
        return infer_relation(S, T, M, n)
    except OrderTooSmall:
        return OrderTooSmall


def edge_pairs(shape, count, seed):
    """Seeded (M, S, T) with S inside T, T inside S, S and T disjoint, or
    exactly one shared residue."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        M = rng.randint(5, 40)
        pool = list(range(1, M // 2 + 1))
        rng.shuffle(pool)
        if shape in ("S<T", "T<S"):
            big = pool[:rng.randint(2, len(pool))]
            small = big[:rng.randint(1, len(big) - 1)]
            S, T = (small, big) if shape == "S<T" else (big, small)
        else:
            shared = pool[:1] if shape == "singleton" else []
            rest = pool[len(shared):]
            if len(rest) < 2:  # too few residues left for two sides
                continue
            cut = rng.randint(1, len(rest) - 1)
            S = shared + rest[:rng.randint(1, cut)]
            T = shared + rest[cut:cut + rng.randint(1, len(rest) - cut)]
        out.append((M, frozenset(S), frozenset(T)))
    return out


SHAPES = ("S<T", "T<S", "disjoint", "singleton")


@pytest.mark.parametrize("shape", SHAPES)
def test_verify_edge_shapes_match_oracle(shape):
    rng = random.Random(shape)
    for M, S, T in edge_pairs(shape, 20, seed=len(shape)):
        common = S & T
        assert (S < T, T < S, not common, len(common) == 1)[SHAPES.index(shape)]
        for kind in (SHIFTED, SHIFTLESS):
            n = rng.randint(8, 150)
            for a in (1, rng.randint(2, n - 2)):
                ident = PartitionIdentity(M, S, T, kind, a)
                rep = verify_identity(ident, n)
                assert rep.order == n
                assert (rep.ok, rep.first_fail, rep.witness) == \
                    oracle_verdict(ident, n), (ident, n)


@pytest.mark.parametrize("shape", SHAPES)
def test_infer_edge_shapes_match_brute_force(shape):
    for M, S, T in edge_pairs(shape, 12, seed=100 + len(shape)):
        for n in (4, 60):
            assert inferred(S, T, M, n) == brute_infer(S, T, M, n)
            assert inferred(T, S, M, n) == brute_infer(T, S, M, n)


@pytest.mark.parametrize("shape", SHAPES)
def test_infer_edge_shapes_match_brute_force_at_tiny_orders(shape):
    # where the counts of two sides match by coincidence, more than one
    # candidate can hold; each is tested, and any doubt is a refusal
    outcomes = set()
    for M, S, T in edge_pairs(shape, 12, seed=300 + len(shape)):
        for n in range(2, 9):
            got = inferred(S, T, M, n)
            assert got == brute_infer(S, T, M, n), (M, S, T, n)
            assert inferred(T, S, M, n) == brute_infer(T, S, M, n)
            outcomes.add(got if got in (None, OrderTooSmall) else got.kind)
    assert OrderTooSmall in outcomes


# ----------------------------------------------------------------------
# the theta-sum kernel: sparse factors against their products
# ----------------------------------------------------------------------


def sparse_series(terms, n):
    coeffs = [0] * (n + 1)
    for e, c in terms:
        if e <= n:
            coeffs[e] += c
    return Series(0, coeffs, n)


# (M, r, n): r = M/2 among them, n below the second term among them
FACTOR_CASES = [(32, 1, 300), (32, 7, 500), (32, 16, 400), (40, 19, 300),
                (41, 20, 300), (5, 2, 200), (82, 41, 600), (6, 3, 150),
                (72, 35, 30), (72, 35, 36), (72, 36, 30), (9, 4, 1),
                (50, 10, 0), (64, 3, 3000)]


def f_series(sa, ea, sb, eb, n):
    return sparse_series(ramanujan_f_terms(sa, ea, sb, eb, n), n)


@pytest.mark.parametrize("M, r, n", FACTOR_CASES)
def test_jacobi_terms_equal_their_product(M, r, n):
    # g_r = prod over k = +-r (mod M) and k = 0 (mod M) of (1 - q^k):
    # f(-q^r, -q^(M-r)), or f(-q^r, -q^(2r)) = E_r for r = M/2
    parts = _expand_parts({r}, M, n) + list(range(M, n + 1, M))
    other = M - r if 2 * r < M else M
    assert f_series(-1, r, -1, other, n) == product_series(parts, (), n)


@pytest.mark.parametrize("M, r, n", FACTOR_CASES)
def test_euler_terms_and_cube(M, r, n):
    # E = (q^M; q^M) = f(-q^M, -q^(2M)), and Jacobi's sum for E^3
    E = f_series(-1, M, -1, 2 * M, n)
    assert E == product_series(range(M, n + 1, M), (), n)
    assert sparse_series(euler_cube_terms(M, n), n) == mul(mul(E, E), E)
    assert f_series(-1, r, -1, 2 * r, n) == \
        product_series(range(r, n + 1, r), (), n)


def test_pack_sparse_matches_mul():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(0, 120)
        x = [rng.randint(-50, 50) for _ in range(n + 1)]
        terms = [(rng.randint(0, n + 5), rng.choice((1, -1, 3, -5)))
                 for _ in range(rng.randint(0, 6))]
        w = 32  # every coefficient below stays far inside 2^31
        packed = _pack_sparse(_pack(x, w // 8) % (1 << w * (n + 1)),
                              terms, n, w)
        got = Series(0, _unpack_signed(packed, w // 8, n + 1), n)
        assert got == mul(Series(0, x, n), sparse_series(terms, n))


def test_cancelled_equals_cleared_products():
    # class r is g_r / E_M with g_r = E_M prod_{k = +-r (mod M)} (1 - q^k)
    # for 2r < M, and [M/2:2M] = g / E_2M with g = f(-q^(M/2), -q^(3M/2))
    # = E_2M prod_{k = M/2 (mod M)} (1 - q^k); so with N the residues
    # r < M/2 of S | T and h = 1 when M/2 is in S | T, each cleared
    # series is a finite product times E_M^N E_2M^h: ya = prod_{T-S},
    # yb = prod_{S-T}, yu = prod_{S|T} (1 - q^k) times that; packing is a
    # ring homomorphism, so the packed residues must agree
    rng = random.Random(3)
    remainders = set()
    halves = 0
    for _ in range(80):
        M = rng.randint(5, 40)
        pool = list(range(1, M // 2 + 1))
        S = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
        T = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
        if S == T:
            continue
        n = rng.randint(0, 200)
        ya, yb, yu, w = _cancelled(S, T, M, n)
        below = [r for r in S | T if 2 * r < M]
        E = list(range(M, n + 1, M)) * len(below)
        if len(below) < len(S | T):
            E += range(2 * M, n + 1, 2 * M)
            halves += 1
        for got, side in ((ya, T - S), (yb, S - T), (yu, S | T)):
            parts = _expand_parts(side, M, n) if side else []
            want = product_series(parts + E, (), n).coeffs
            # the cleared coefficients may overflow a limb: pack exactly
            packed = sum(c << (w * i) for i, c in enumerate(want))
            assert got == packed % (1 << w * (n + 1))
        assert w == set_difference_width(S, T, M, n)
        remainders.add((len(S) % 3, len(T) % 3))
    assert len(remainders) == 9  # every count of lone E factors on each side
    assert halves >= 10
    for e in load_corpus():
        S, T, M = e.identity.S, e.identity.T, e.identity.M
        assert _cancelled(S, T, M, 300)[3] == \
            set_difference_width(S, T, M, 300), e.label


# sha256 of every catalog entry's (ya, yb, yu, w), in catalog order: no
# entry holds the residue M/2, so the unit is Theta_A Theta_B E_M^|U| and
# ya, yb, yu are E_M^(|A|+|U|) Theta_B, E_M^(|B|+|U|) Theta_A and
# Theta_U Theta_A Theta_B, each Theta_X the product of its class sums
CATALOG_BUILDS = {
    300: "0860db0d85dbe3344bcb1a0c7d662de6eca6d043510c3f9702d6a673a2d818e4",
    1000: "011b2a5cf8bb326fdba3b22cea7f539ed4b21748af0f17ff975e6109f50d0383",
}


@pytest.mark.parametrize("n", sorted(CATALOG_BUILDS))
def test_cancelled_pins_the_catalog_builds(monkeypatch, n):
    # the integers, the width from the oracle's cleared bound
    # (set_difference_width), and one _pack_sparse per factor, shared as
    # the kernel shared them
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = theta._pack_sparse
    monkeypatch.setattr(theta, "_pack_sparse", counted)
    digest = hashlib.sha256()
    for e in load_corpus():
        S, T, M = e.identity.S, e.identity.T, e.identity.M
        assert not M % 2 or M // 2 not in S | T
        a, b, u = len(S - T), len(T - S), len(S & T)
        calls.clear()
        packed = _cancelled(S, T, M, n)
        assert len(calls) == a + b + u + min(a, b) + sum(
            p // 3 + p % 3 for p in (a + u, b + u)), e.label
        assert packed[3] == set_difference_width(S, T, M, n), e.label
        for x in packed:
            digest.update(x.to_bytes((x.bit_length() + 8) // 8, "little"))
    assert digest.hexdigest() == CATALOG_BUILDS[n]


def test_the_half_class_is_one_progression():
    # the kernel's class M/2 is [M/2:2M]: [r:4r] = (q^r; q^2r), so
    # 1/[M/2:2M] counts the partitions into parts = M/2 (mod M)
    for r, n in ((1, 0), (1, 40), (2, 90), (3, 7), (5, 200), (20, 300),
                 (41, 500)):
        assert atom_series(r, 4 * r, BRACKET, n) == pochhammer(r, 2 * r, 1, n)
        assert monomial_series(Term(1, 0, den=(Atom(r, 4 * r, BRACKET),)),
                               n) == residue_product({r}, 2 * r, n)


def set_difference_width(S, T, M, n):
    """The limb width B + bitlen(3) + 1 of _cancelled's three terms
    1/[S-T], 1/[T-S] and [S&T], each with |c| = 1, B their cleared
    bound from its definition (oracles.cleared_bound)."""
    return cleared_bound(relation_terms(S, T, M, SHIFTLESS, 0), n) + \
        (3).bit_length() + 1


def parts_width(S, T, M, n):
    """The same width with B the parts bound, sized from the full part
    sets of S and T: the classes of distinct residues are disjoint, so
    S - T, T - S and S & T give the same parts."""
    ps, pt = set(_expand_parts(S, M, n)), set(_expand_parts(T, M, n))
    return max(_coeff_bits((), sorted(ps - pt), n),
               _coeff_bits((), sorted(pt - ps), n),
               _coeff_bits(sorted(ps & pt), (), n)) + (3).bit_length() + 1


@pytest.mark.parametrize("M, n", [(120, 100), (400, 1000), (1000, 3000)])
def test_dense_pairs_fall_back_to_the_parts_bound(monkeypatch, M, n):
    # with many classes per order the sums bound exceeds the densest
    # figure pi sqrt(2n/3) / ln 2, and the plan takes the parts bound:
    # the width is exactly the one the parts alone give, and narrower
    # than the sums bound's
    fallbacks = []
    parts_bits = theta._parts_bits
    monkeypatch.setattr(theta, "_parts_bits",
                        lambda *a: fallbacks.append(a) or parts_bits(*a))
    half = M // 2
    for S, T in (({r for r in range(1, half + 1) if r % 2},
                  {r for r in range(1, half + 1) if not r % 2}),
                 (set(range(1, half // 2 + 1)),
                  set(range(half // 2 + 1, half + 1)))):
        S, T = frozenset(S), frozenset(T)
        fallbacks.clear()
        w = _cancelled(S, T, M, n)[3]
        assert len(fallbacks) == 1, (M, S, T)
        assert w == parts_width(S, T, M, n) == set_difference_width(S, T, M, n)
        sums = sums_bound(relation_terms(S, T, M, SHIFTLESS, 0), n)
        assert w < sums + (3).bit_length() + 1, (M, S, T)


def swapped(packed):
    ya, yb, yu, w = packed
    return yb, ya, yu, w


@pytest.mark.parametrize("n", [0, 1, 2, 50, 300])
def test_cancelled_is_symmetric_on_the_catalog(n):
    # act tests both orientations of an image on one build, so the
    # swapped build must be the same four integers, not just congruent
    for e in load_corpus():
        S, T, M = e.identity.S, e.identity.T, e.identity.M
        assert _cancelled(T, S, M, n) == swapped(_cancelled(S, T, M, n)), \
            e.label


def test_cancelled_is_symmetric_on_edge_shapes():
    rng = random.Random(17)
    pairs = [(M, S, T) for shape in ("S<T", "T<S", "disjoint")
             for M, S, T in edge_pairs(shape, 15, seed=200 + len(shape))]
    pairs += [(i.M, i.S, i.T) for i in half_residue_cases(15, seed=7)]
    assert any(M % 2 == 0 and M // 2 in S ^ T for M, S, T in pairs)
    for M, S, T in pairs:
        for n in (0, 1, rng.randint(2, 40), rng.randint(41, 300)):
            assert _cancelled(T, S, M, n) == swapped(_cancelled(S, T, M, n)), \
                (M, S, T, n)


def test_cancelled_packs_one_sparse_factor_at_a_time(monkeypatch):
    # Theta_A and Theta_B once, yu from the larger of them, and ya, yb
    # from them times E^p as floor(p/3) cubes and p mod 3 single factors
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = theta._pack_sparse
    monkeypatch.setattr(theta, "_pack_sparse", counted)
    for e in load_corpus():
        S, T, M = e.identity.S, e.identity.T, e.identity.M
        a, b, u = len(S - T), len(T - S), len(S & T)
        calls.clear()
        _cancelled(S, T, M, 300)
        assert len(calls) == a + b + u + min(a, b) + sum(
            p // 3 + p % 3 for p in (a + u, b + u)), e.label


def single_residue_mutant(ident, rng):
    """The identity with one residue of S or T swapped for one that
    side lacks (sides that come out equal are drawn again)."""
    half = ident.M // 2
    while True:
        side = rng.choice(("S", "T"))
        old = getattr(ident, side)
        new = (old - {rng.choice(sorted(old))}) | {
            rng.choice([r for r in range(1, half + 1) if r not in old])}
        S, T = (new, ident.T) if side == "S" else (ident.S, new)
        if S != T:
            return PartitionIdentity(ident.M, S, T, ident.kind, ident.a)


@pytest.mark.parametrize("n", [300, 1000])
def test_verify_multiplies_each_class_sum_in_once(monkeypatch, n):
    # verify_identity folds [S&T] with the term whose class sums it
    # shares and does not start from, so Theta_A, Theta_B and Theta_U
    # go in once each: min(a, b) factors fewer than _cancelled, whose
    # pin stands.  Its verdict and first_fail are read_cleared's over
    # _cancelled, on the entry and on a seeded single-residue mutant
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = theta._pack_sparse
    monkeypatch.setattr(theta, "_pack_sparse", counted)
    rng = random.Random(n)
    failed = 0
    for entry in load_corpus():
        ident = entry.identity
        a, b, u = (len(x) for x in (ident.S - ident.T, ident.T - ident.S,
                                    ident.S & ident.T))
        calls.clear()
        assert verify_identity(ident, n).ok, entry.label
        assert len(calls) == a + b + u + sum(
            p // 3 + p % 3 for p in (a + u, b + u)), entry.label
        for case in (ident, single_residue_mutant(ident, rng)):
            ya, yb, yu, w = _cancelled(case.S, case.T, case.M, n)
            hit = read_cleared(w, [(c, e, y) for (c, e), y in zip(
                partitions._relation(case.kind, case.a), (ya, yb, yu))], n)
            rep = verify_identity(case, n)
            assert (rep.ok, rep.first_fail) == (hit is None, hit and hit[0]), \
                (entry.label, case)
            failed += not rep.ok
    assert failed == 238


def dp_first_fail(ident, n):
    """(k, (p(S, k), p(T, j))), the identity's first failing index
    through n and its two counts, j = k - a (shifted) or k (shiftless),
    from count_partitions_table, or None: the tables are built to a low
    order first, doubled until they show a failure or reach n."""
    S, T, M, a = ident.S, ident.T, ident.M, ident.a
    top = min(n, 4 * M)
    while True:
        ps = count_partitions_table(S, M, top)
        pt = count_partitions_table(T, M, top)
        for k in range(top + 1):
            j = k - a if ident.kind == SHIFTED else k
            right = pt[j] if j >= 0 else 0
            extra = (k == 0) if ident.kind == SHIFTED else (k == a)
            if ps[k] != right + extra:
                return k, (ps[k], right)
        if top == n:
            return None
        top = min(n, 2 * top)


def test_mutants_fail_at_the_dp_first_fail_at_order_3000():
    # narrower limbs still read a false identity's first failure: a
    # seeded single-residue mutant of every catalog entry fails at the
    # first index where the DP counts break the relation, with those
    # counts as its witness
    n = 3000
    rng = random.Random(n)
    for entry in load_corpus():
        case = single_residue_mutant(entry.identity, rng)
        rep = verify_identity(case, n)
        want = dp_first_fail(case, n)
        assert want is not None, case
        assert (rep.ok, rep.first_fail, rep.witness) == (False, *want), case


def image_pairs():
    """Every distinct ordered folded pair (S, T, M) a unit alpha in
    1..M/2 makes of a catalog entry: 476, each unordered pair twice."""
    pairs = set()
    for e in load_corpus():
        S, T, M = e.identity.S, e.identity.T, e.identity.M
        for alpha in range(1, M // 2 + 1):
            if gcd(alpha, M) == 1:
                pairs.add(tuple(frozenset(min(alpha * r % M, -alpha * r % M)
                                          for r in side) for side in (S, T))
                          + (M,))
    return sorted(pairs, key=repr)


def classes(rs, M):
    """Class r as the bracket [r:M], or [M/2:2M] for 2r = M, for each r
    of rs in ascending order."""
    return [Atom(r, 2 * M if 2 * r == M else M, BRACKET) for r in sorted(rs)]


def relation_terms(X, Y, M, kind, a):
    """The relation of (X, Y) written out from its definition: shifted
    1/[X-Y] - q^a/[Y-X] - [X&Y], shiftless 1/[X-Y] - 1/[Y-X] - q^a [X&Y],
    with class r the bracket [r:M], or [M/2:2M] for 2r = M."""
    eb, eu = (a, 0) if kind == SHIFTED else (0, a)
    return [Term(1, 0, den=classes(X - Y, M)),
            Term(-1, eb, den=classes(Y - X, M)),
            Term(-1, eu, num=classes(X & Y, M))]


@pytest.mark.parametrize("n", [300, 1000])
def test_every_candidate_reads_as_its_own_zero_test(n):
    # the reader's contract: a relation read off the shared build, at
    # any shift up to n, gives the (k, c) of the cleared zero test on
    # its own terms, for every candidate relation infer_relation tests:
    # both shifted ones and the shiftless one at d = min(S ^ T),
    # oriented from the side holding d
    if n == 300:
        pairs = image_pairs()
        assert len(pairs) == 476
    else:
        pairs = [(e.identity.S, e.identity.T, e.identity.M)
                 for e in load_corpus()]
    for S, T, M in pairs:
        ya, yb, yu, w = _cancelled(S, T, M, n)
        d = min(S ^ T)
        assert d <= n
        shiftless = ((S, T, ya, yb, SHIFTLESS, d) if d in S
                     else (T, S, yb, ya, SHIFTLESS, d))
        for X, Y, yx, yy, kind, a in ((S, T, ya, yb, SHIFTED, min(S)),
                                      (T, S, yb, ya, SHIFTED, min(T)),
                                      shiftless):
            read = read_cleared(w, [(c, e, y) for (c, e), y in zip(
                partitions._relation(kind, a), (yx, yy, yu))], n)
            assert read == first_nonzero(relation_terms(X, Y, M, kind, a),
                                         n), (X, Y, M, kind, a)


def shift_cases(source):
    """(S, T, M, n) pairs for the shiftless-shift rule: the 476 image
    pairs at order 300, the catalog at 1000, the half-residue shapes at
    160, and every image pair and half-residue shape with d = min(S ^ T)
    >= 2 at the orders 1 .. d - 1 below it."""
    halves = [(i.S, i.T, i.M) for i in half_residue_cases(30, seed=7)]
    if source == "images-300":
        return [(S, T, M, 300) for S, T, M in image_pairs()]
    if source == "catalog-1000":
        return [(e.identity.S, e.identity.T, e.identity.M, 1000)
                for e in load_corpus()]
    if source == "half-residue":
        return [(S, T, M, 160) for S, T, M in halves]
    return [(S, T, M, n) for S, T, M in image_pairs() + halves
            for n in range(1, min(S ^ T))]


@pytest.mark.parametrize("source", ["images-300", "catalog-1000",
                                    "half-residue", "below-d"])
def test_the_shiftless_shift_is_the_least_residue_of_one_side(source):
    # P_S - P_T = P_{S&T} (P_{S-T} - P_{T-S}), and each P starts
    # 1 + q^min: p(S, k) and p(T, k) first differ at k = d = min(S ^ T),
    # by +1 if d is in S and -1 if it is in T, and the cleared read of
    # ya - yb says the same; through an order below d both see no
    # difference
    cases = shift_cases(source)
    assert len(cases) >= 30
    for S, T, M, n in cases:
        d = min(S ^ T)
        want = (d, 1 if d in S else -1) if d <= n else None
        top = min(n, d)
        ps = count_partitions_table(S, M, top)
        pt = count_partitions_table(T, M, top)
        got = next(((k, ps[k] - pt[k]) for k in range(top + 1)
                    if ps[k] != pt[k]), None)
        assert got == want, (S, T, M, n)
        ya, yb, _, w = _cancelled(S, T, M, n)
        assert read_cleared(w, [(1, 0, ya), (-1, 0, yb)], n) == want, \
            (S, T, M, n)


def test_one_inference_makes_one_build_and_at_most_three_reads(
        monkeypatch):
    # _infer reads the two shifted candidates, and the shiftless one
    # only for d = min(S ^ T) <= n, off one cleared_build, whether it
    # returns an identity, None, or raises OrderTooSmall
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in ("cleared_build", "read_cleared"):
        monkeypatch.setattr(partitions, name,
                            counted(name, getattr(partitions, name)))
    outcomes = Counter()
    cases = [(e.identity.S, e.identity.T, e.identity.M, n)
             for e in load_corpus()
             for n in {2, min(e.identity.S ^ e.identity.T) - 1, 40, 300}
             if n >= 1]
    cases += [(S, T, M, n) for shape in SHAPES
              for M, S, T in edge_pairs(shape, 6, seed=500 + len(shape))
              for n in (1, 4, 60)]
    for S, T, M, n in cases:
        partitions._infer.cache_clear()
        calls.clear()
        got = inferred(S, T, M, n)
        assert calls == {"cleared_build": 1,
                         "read_cleared": 2 + (min(S ^ T) <= n)}, \
            (S, T, M, n)
        outcomes[got if got in (None, OrderTooSmall) else got.kind] += 1
    assert set(outcomes) == {None, OrderTooSmall, SHIFTED, SHIFTLESS}


def residue_product_verdict(ident, n):
    """First failing index of the relation built from residue_product."""
    ps = residue_product(ident.S, ident.M, n)
    pt = residue_product(ident.T, ident.M, n)
    if ident.kind == SHIFTED:
        lhs = linear_combine([(1, ps), (-1, shift_scale(pt, 1, ident.a))])
        rhs = Series(0, (1,), n)
    else:
        lhs = linear_combine([(1, ps), (-1, pt)])
        rhs = Series(ident.a, (1,), n)
    return first_difference(lhs, rhs)


def test_kernel_matches_residue_product_relation():
    rng = random.Random(11)
    for ident in (ID32, ID40, THEOREM_72_2):
        half = ident.M // 2
        cases = [ident, PartitionIdentity(ident.M, ident.S, ident.T,
                                          ident.kind, ident.a + 1)]
        for _ in range(4):
            side = rng.choice(("S", "T"))
            old = getattr(ident, side)
            new = (old - {rng.choice(sorted(old))}) | {
                rng.choice([r for r in range(1, half + 1) if r not in old])}
            S, T = (new, ident.T) if side == "S" else (ident.S, new)
            if S != T:
                cases.append(PartitionIdentity(ident.M, S, T, ident.kind,
                                               ident.a))
        for case in cases:
            rep = verify_identity(case, 250)
            assert rep.first_fail == residue_product_verdict(case, 250)
            assert rep.ok == (rep.first_fail is None)


# ----------------------------------------------------------------------
# residue M/2: one progression, g = (q^(M/2); q^(M/2)); no catalog entry
# has it
# ----------------------------------------------------------------------


def half_residue_cases(count, seed):
    """Seeded relations with M/2 in S only, T only or both, of two shapes
    that hold to a low order: S = {a} + X, T = {a} + Y shifted by a (as
    1/(1-q^a) - 1 = q^a/(1-q^a)), and S = {a} + X, T = {2a} + Y shiftless
    at a (as P_a - P_2a = q^a + q^3a + ...)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        h = rng.randint(6, 24)
        a = rng.randint(1, h // 3)
        kind = rng.choice((SHIFTED, SHIFTLESS))
        pool = [r for r in range(2 * a + 1, h) if r != 2 * a]
        rng.shuffle(pool)
        X = set(pool[:rng.randint(0, 2)])
        Y = set(pool[2:2 + rng.randint(0, 2)])
        where = rng.choice(("S", "T", "both"))
        if where != "T":
            X.add(h)
        if where != "S":
            Y.add(h)
        S = frozenset({a} | X)
        T = frozenset({a if kind == SHIFTED else 2 * a} | Y)
        if S != T:
            out.append(PartitionIdentity(2 * h, S, T, kind, a))
    return out


def test_half_residue_verify_matches_oracle():
    held = 0
    for ident in half_residue_cases(40, seed=5):
        assert ident.M // 2 in ident.S | ident.T
        ok, k, _ = oracle_verdict(ident, 160)
        assert not ok  # each shape breaks by the order of its classes
        orders = [n for n in (k - 1, k, k + 15, 160) if n >= ident.a + 2]
        for n in orders:
            rep = verify_identity(ident, n)
            assert (rep.ok, rep.first_fail, rep.witness) == \
                oracle_verdict(ident, n), (ident, n)
            held += rep.ok
        # mutated relations: the other kind and the next shift
        other = SHIFTLESS if ident.kind == SHIFTED else SHIFTED
        for mutant in (PartitionIdentity(ident.M, ident.S, ident.T, other,
                                         ident.a),
                       PartitionIdentity(ident.M, ident.S, ident.T,
                                         ident.kind, ident.a + 1)):
            for n in orders:
                if n >= mutant.a + 2:
                    rep = verify_identity(mutant, n)
                    assert (rep.ok, rep.first_fail, rep.witness) == \
                        oracle_verdict(mutant, n), (mutant, n)
    assert held >= 20  # enough of the relations hold at some order


def test_half_residue_infer_matches_brute_force():
    found = set()
    refused = set()
    for ident in half_residue_cases(30, seed=6):
        S, T, M = ident.S, ident.T, ident.M
        k = oracle_verdict(ident, 160)[1]
        for n in sorted({4, k - 1, k + 10, 60}):
            got = inferred(S, T, M, n)
            assert got == brute_infer(S, T, M, n), (ident, n)
            assert inferred(T, S, M, n) == brute_infer(T, S, M, n)
            if isinstance(got, PartitionIdentity):
                found.add(got.kind)
            elif got is OrderTooSmall and n == k - 1:
                refused.add(ident.kind)
    # the shiftless shape, P_a - P_2a = q^a + q^3a + ..., holds only
    # while (T, S) holds shifted by 2a as well, so it is never inferred
    assert found == {SHIFTED}
    assert SHIFTLESS in refused


# ----------------------------------------------------------------------
# special checks
# ----------------------------------------------------------------------


def test_rogers_ramanujan_smoke():
    rep = rogers_ramanujan_check(120)
    assert rep.ok
    assert len(rep.checks) == 2
    assert all(c.first_fail is None for c in rep.checks)


def test_rogers_ramanujan_order_floor():
    with pytest.raises(OrderTooSmall):
        rogers_ramanujan_check(10)


SPECIAL_RELATIONS = ([(rogers_ramanujan_check, "_rr_relations", i)
                      for i in range(2)]
                     + [(verify_theorem_72_2, "_thm72_relations", i)
                        for i in range(6)])


def perturbed(terms):
    """The relation with one term dropped, one coefficient doubled, one
    exponent raised, or one atom or theta sum dropped from one term."""
    for i, t in enumerate(terms):
        def swap(u):
            return terms[:i] + (u,) + terms[i + 1:]

        yield terms[:i] + terms[i + 1:]
        yield swap(t._replace(c=2 * t.c))
        yield swap(t._replace(e=t.e + 1))
        for field in ("num", "den", "sums"):
            parts = tuple(getattr(t, field))
            for j in range(len(parts)):
                yield swap(t._replace(**{field: parts[:j] + parts[j + 1:]}))


def perturbed_failures(terms, n, series_route):
    """Yield (bad, (k, c)) for each perturbed relation, once the
    relation is shown to hold through n and each perturbed one to fail
    at the (k, c) of the Series route, which the cleared test and the
    part-by-part test both find."""
    assert first_nonzero(terms, n) is None
    assert series_route([parts_term(t, n) for t in terms], n) is None
    for bad in perturbed(terms):
        by_parts = [parts_term(t, n) for t in bad]
        want = series_route(by_parts, n)
        assert want is not None
        assert first_nonzero(bad, n) == want
        assert first_nonzero_by_parts(by_parts, n) == want
        yield bad, want


@pytest.mark.parametrize("check, builder, index", SPECIAL_RELATIONS)
def test_special_check_fails_on_a_perturbed_relation(
        monkeypatch, series_route, check, builder, index):
    # each series relation holds; perturbed, the public check fails at
    # the index the Series route gives
    n = 120
    relations = getattr(partitions, builder)()
    name, terms = relations[index]
    for bad, want in perturbed_failures(terms, n, series_route):
        mutated = relations[:index] + ((name, bad),) + relations[index + 1:]
        monkeypatch.setattr(partitions, builder, lambda: mutated)
        rep = check(n)
        assert not rep.ok
        assert [c.first_fail for c in rep.checks] == [
            want[0] if j == index else None for j in range(len(rep.checks))]


def test_theorem_72_2_smoke():
    rep = verify_theorem_72_2(60)
    assert rep.ok
    assert len(rep.checks) == 7
    assert rep.checks[-1].name == "p(S,n) = p(T,n-1) at modulus 72"


def bracket_quotient(ident):
    """A shifted identity's cancelled relation times the unit
    [S-T][T-S]: [T-S] - q^a [S-T] - [S|T], as monomials."""
    S, T, M, a = ident.S, ident.T, ident.M, ident.a
    return (make_monomial(1, 0, classes(T - S, M)),
            make_monomial(-1, a, classes(S - T, M)),
            make_monomial(-1, 0, classes(S | T, M)))


def br(c, e, num, den=()):
    return make_monomial(c, e, [Atom(r, 72, BRACKET) for r in num],
                         [Atom(r, 72, BRACKET) for r in den])


# Thm-72.2 in the bracket-quotient form its proof starts from; the
# chain checks the identity itself once instead
THM72_QUOTIENT = (
    "[2,15,21,22,26:72] - q[3,10,14,33,34:72]"
    " = [1..35:72]/[4,6,20,24,28,30:72]",
    (br(1, 0, (2, 15, 21, 22, 26)), br(-1, 1, (3, 10, 14, 33, 34)),
     br(-1, 0, range(1, 36), (4, 6, 20, 24, 28, 30))))


def test_thm72_quotient_is_the_identity_times_a_unit(series_route):
    # the 35-bracket form is [T-S] - q[S-T] - [S|T] of THEOREM_72_2,
    # and it fails, perturbed, where the Series route says
    assert THM72_QUOTIENT[1] == bracket_quotient(THEOREM_72_2)
    assert sum(1 for _ in perturbed_failures(THM72_QUOTIENT[1], 120,
                                              series_route)) > 40


def test_thm72_quotient_fails_where_the_identity_does():
    # [S-T][T-S] has constant term 1, so on single-residue mutants of
    # Thm-72.2 the quotient form first fails at verify_identity's
    # first_fail: checking the identity once covers both
    n = 300
    rng = random.Random(72)
    failed = 0
    for case in [THEOREM_72_2] + [single_residue_mutant(THEOREM_72_2, rng)
                                  for _ in range(40)]:
        hit = first_nonzero(bracket_quotient(case), n)
        rep = verify_identity(case, n)
        assert (hit is None, hit and hit[0]) == (rep.ok, rep.first_fail), \
            case
        failed += not rep.ok
    assert failed == 40


def test_theorem_72_2_identity_object():
    assert THEOREM_72_2.M == 72
    assert verify_identity(THEOREM_72_2, 150).ok
    assert infer_relation(THEOREM_72_2.S, THEOREM_72_2.T, 72, 150) == \
        THEOREM_72_2
