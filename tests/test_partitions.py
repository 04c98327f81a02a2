"""Tests for partition identities, counting, inference, and special checks.

The counting oracle is the plain DP in count_partitions_table; the series
pipeline must agree with it everywhere.  Identity fixtures are small
literal residue sets whose truth or falsity the tests themselves verify
from both sides.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshift import partitions
from qshift.qseries import (
    EmptySet,
    ResidueOutOfRange,
    Series,
    _first_nonzero,
    _pack,
    _pack_sparse,
    _unpack_signed,
    mul,
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
    _euler_cube_terms,
    count_partitions,
    count_partitions_table,
    infer_relation,
    parts_of,
    rogers_ramanujan_check,
    verify_identity,
    verify_theorem_72_2,
)
from qshift.theta import ramanujan_f_terms

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
    assert parts_of({1}, 4, 10) == [1, 3, 5, 7, 9]
    assert parts_of({2}, 4, 10) == [2, 6, 10]


def test_parts_of_large_set():
    got = parts_of(S32, 32, 33)
    missing = sorted(set(range(1, 34)) - set(got))
    # 1..33 minus the classes +-2, +-12, +-14 and the 0 and 16 classes
    assert missing == [2, 12, 14, 16, 18, 20, 30, 32]


def test_parts_of_rejects_bad_residues():
    with pytest.raises(ResidueOutOfRange):
        parts_of({17}, 32, 10)
    with pytest.raises(EmptySet):
        parts_of(set(), 32, 10)


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
    assert infer_relation(S32, T32, 32, 200) == (SHIFTED, 1)


def test_infer_recovers_shiftless():
    assert infer_relation(S40, T40, 40, 200) == (SHIFTLESS, 2)


def test_infer_is_orientation_sensitive():
    # with the sides swapped neither pattern matches
    assert infer_relation(T32, S32, 32, 200) is None
    assert infer_relation(T40, S40, 40, 200) is None


def test_infer_equal_sets_gives_nothing():
    assert infer_relation(S32, S32, 32, 100) is None


def test_infer_unrelated_sets_gives_nothing():
    assert infer_relation({1, 2}, {3, 4}, 9, 100) is None


# ----------------------------------------------------------------------
# kernel edge cases: shapes of U = S & T that no catalog entry has
# ----------------------------------------------------------------------


def oracle_verdict(ident, n):
    """(ok, first_fail, witness) of the relation by the DP oracle."""
    ps = count_partitions_table(ident.S, ident.M, n)
    pt = count_partitions_table(ident.T, ident.M, n)
    for k in range(n + 1):
        if ident.kind == SHIFTED:
            rhs = pt[k - ident.a] if k >= ident.a else 0
            want = 1 if k == 0 else 0
        else:
            rhs = pt[k]
            want = 1 if k == ident.a else 0
        if ps[k] - rhs != want:
            return False, k, (ps[k], rhs)
    return True, None, None


def brute_relation(S, T, M, n):
    """The first (kind, a), shifted first, that the DP oracle confirms."""
    for kind in (SHIFTED, SHIFTLESS):
        for a in range(1, n // 2 + 1):
            ident = PartitionIdentity(M, S, T, kind, a)
            if oracle_verdict(ident, n)[0]:
                return kind, a
    return None


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
            assert infer_relation(S, T, M, n) == brute_relation(S, T, M, n)
            assert infer_relation(T, S, M, n) == brute_relation(T, S, M, n)


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
    # the kernel's g_r = prod over k = +-r (mod M) and k = 0 (mod M) of
    # (1 - q^k): f(-q^r, -q^(M-r)), or f(-q^r, -q^(2r)) for r = M/2
    parts = parts_of({r}, M, n) + list(range(M, n + 1, M))
    other = M - r if 2 * r < M else M
    assert f_series(-1, r, -1, other, n) == product_series(parts, (), n)


@pytest.mark.parametrize("M, r, n", FACTOR_CASES)
def test_euler_terms_and_cube(M, r, n):
    # E = (q^M; q^M) = f(-q^M, -q^(2M)), and Jacobi's sum for E^3
    E = f_series(-1, M, -1, 2 * M, n)
    assert E == product_series(range(M, n + 1, M), (), n)
    assert sparse_series(_euler_cube_terms(M, n), n) == mul(mul(E, E), E)
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
    # g_r = E prod_{k = +-r} (1 - q^k), so with N = |S | T| each cleared
    # series is a finite product times E^N: ya = E^N prod_{T-S} (1 - q^k),
    # yb = E^N prod_{S-T} (1 - q^k), yu = E^N prod_{S|T} (1 - q^k);
    # packing is a ring homomorphism, so the packed residues must agree
    rng = random.Random(3)
    remainders = set()
    for _ in range(80):
        M = rng.randint(5, 40)
        pool = list(range(1, M // 2 + 1))
        S = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
        T = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
        if S == T:
            continue
        n = rng.randint(0, 200)
        ya, yb, yu, w = _cancelled(S, T, M, n)
        E = list(range(M, n + 1, M)) * len(S | T)
        for got, side in ((ya, T - S), (yb, S - T), (yu, S | T)):
            parts = parts_of(side, M, n) if side else []
            want = product_series(parts + E, (), n).coeffs
            # the cleared coefficients may overflow a limb: pack exactly
            packed = sum(c << (w * i) for i, c in enumerate(want))
            assert got == packed % (1 << w * (n + 1))
        remainders.add((len(S) % 3, len(T) % 3))
    assert len(remainders) == 9  # every count of lone E factors on each side


def residue_product_verdict(ident, n):
    """First failing index of the relation built from residue_product."""
    ps = residue_product(ident.S, ident.M, n)
    pt = residue_product(ident.T, ident.M, n)
    if ident.kind == SHIFTED:
        lhs, rhs = ps - shift_scale(pt, 1, ident.a), Series.one(n)
    else:
        lhs, rhs = ps - pt, Series.monomial(ident.a, n)
    return lhs.first_difference(rhs)


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
    for ident in half_residue_cases(30, seed=6):
        S, T, M = ident.S, ident.T, ident.M
        k = oracle_verdict(ident, 160)[1]
        for n in sorted({4, k - 1, k + 10, 60}):
            got = infer_relation(S, T, M, n)
            assert got == brute_relation(S, T, M, n), (ident, n)
            assert infer_relation(T, S, M, n) == brute_relation(T, S, M, n)
            if got:
                found.add(got[0])
    assert found == {SHIFTED, SHIFTLESS}


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
                        for i in range(7)])


@pytest.mark.parametrize("check, builder, index", SPECIAL_RELATIONS)
def test_special_check_fails_on_a_perturbed_relation(
        monkeypatch, series_route, check, builder, index):
    # each series relation holds; with one term dropped, its coefficient
    # doubled or its exponent raised, the public check fails at the
    # index the Series route gives, with the same coefficient
    n = 120
    relations = getattr(partitions, builder)(n)
    name, terms = relations[index]
    assert _first_nonzero(terms, n) is None
    assert series_route(terms, n) is None
    for i, t in enumerate(terms):
        for bad in (terms[:i] + terms[i + 1:],
                    terms[:i] + (t._replace(c=2 * t.c),) + terms[i + 1:],
                    terms[:i] + (t._replace(e=t.e + 1),) + terms[i + 1:]):
            want = series_route(bad, n)
            assert want is not None
            assert _first_nonzero(bad, n) == want
            mutated = relations[:index] + ((name, bad),) + relations[index + 1:]
            monkeypatch.setattr(partitions, builder, lambda m: mutated)
            rep = check(n)
            assert not rep.ok
            assert [c.first_fail for c in rep.checks] == [
                want[0] if j == index else None for j in range(len(rep.checks))]


def test_theorem_72_2_smoke():
    rep = verify_theorem_72_2(60)
    assert rep.ok
    assert len(rep.checks) == 8


def test_theorem_72_2_identity_object():
    assert THEOREM_72_2.M == 72
    assert verify_identity(THEOREM_72_2, 150).ok
    assert infer_relation(THEOREM_72_2.S, THEOREM_72_2.T, 72, 150) == (SHIFTED, 1)
