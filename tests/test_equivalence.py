"""Tests for the unit-group action, orbits, and classification.

Fixture identities are not hand-typed: they are derived from known
parameter sets through the four-parameter relation, so every input is
independently verified before the action is exercised.  The classifier
is checked against published class structure for the two smallest
moduli with more than one entry.  On the whole catalog, and on seeded
random folded pairs, act, orbit, classify and infer_relation are checked
against a two-build oracle (the partition counts of the two image sides,
one residue_product build each), and their cleared zero tests are
counted.
"""

import random
from math import gcd

import pytest

from qshift import partitions
from qshift.corpus import load_corpus
from qshift.equivalence import (
    NotAnIdentity,
    UnitAction,
    act,
    classify,
    orbit,
)
from qshift.jacobi import FourParams, derive_identity
from qshift.partitions import (
    SHIFTED,
    SHIFTLESS,
    OrderTooSmall,
    PartitionIdentity,
    infer_relation,
    verify_identity,
)
from qshift.qseries import residue_product

PARAMS_40 = [
    (1, 2, 5, 15, 16), (1, 3, 4, 14, 16),
    (1, 3, 2, 5, 7), (1, 5, 2, 7, 8), (1, 2, 4, 8, 9), (1, 3, 4, 12, 17),
]
PARAMS_46 = [
    (1, 2, 4, 12, 20), (1, 2, 8, 10, 11), (1, 6, 3, 9, 10), (1, 4, 2, 6, 9),
    (1, 4, 5, 14, 20), (1, 4, 2, 6, 10), (1, 2, 5, 17, 18), (1, 3, 2, 7, 10),
    (1, 3, 2, 6, 8), (1, 2, 4, 8, 9), (1, 3, 4, 16, 18),
]


@pytest.fixture(scope="module")
def id32():
    return derive_identity(FourParams(1, 2, 4, 12, 13, 16)).identity


@pytest.fixture(scope="module")
def ids40():
    return [derive_identity(FourParams(*p, 20)).identity for p in PARAMS_40]


@pytest.fixture(scope="module")
def ids46():
    return [derive_identity(FourParams(*p, 23)).identity for p in PARAMS_46]


class TestUnitAction:
    def test_validation(self):
        with pytest.raises(ValueError):
            UnitAction(2, 32)
        with pytest.raises(ValueError):
            UnitAction(0, 32)
        with pytest.raises(ValueError):
            UnitAction(32, 32)
        UnitAction(31, 32)

    def test_fold_range(self):
        u = UnitAction(7, 32)
        for r in range(1, 17):
            assert 1 <= u.fold(r) <= 16

    def test_modulus_mismatch(self, id32):
        with pytest.raises(ValueError):
            act(UnitAction(3, 40), id32)


class TestAct:
    def test_identity_element(self, id32):
        assert act(UnitAction(1, 32), id32, 200) == id32

    def test_negation_absorbed(self, id32):
        assert act(UnitAction(31, 32), id32, 200) == id32

    def test_images_verify(self, ids40):
        for alpha in (3, 7, 9):
            img = act(UnitAction(alpha, 40), ids40[0], 200)
            assert verify_identity(img, 200).ok

    def test_kind_can_change(self, ids40):
        kinds = {act(UnitAction(a, 40), ids40[2], 200).kind
                 for a in range(1, 20) if gcd(a, 40) == 1}
        assert len(kinds) == 2

    def test_composition(self, id32, ids40):
        rng = random.Random(173205)
        for ident in [id32, ids40[0], ids40[2]]:
            M = ident.M
            units = [a for a in range(1, M) if gcd(a, M) == 1]
            for _ in range(6):
                a, b = rng.choice(units), rng.choice(units)
                via_product = act(UnitAction(a * b % M, M), ident, 200)
                stepwise = act(UnitAction(a, M),
                               act(UnitAction(b, M), ident, 200), 200)
                assert via_product == stepwise

    @pytest.mark.parametrize("index", range(len(PARAMS_40)))
    def test_inferred_image_relations_verify(self, ids40, index):
        # act returns what infer_relation finds without re-verifying it,
        # so every inferred image must pass verify_identity as is, and
        # no relation may hold in the other orientation
        ident, n = ids40[index], 200
        for alpha in range(1, 20):
            if gcd(alpha, 40) != 1:
                continue
            u = UnitAction(alpha, 40)
            s_img, t_img = u.apply_set(ident.S), u.apply_set(ident.T)
            image = infer_relation(s_img, t_img, 40, n)
            assert image is not None, alpha
            assert {image.S, image.T} == {s_img, t_img}
            assert infer_relation(t_img, s_img, 40, n) == image
            assert verify_identity(image, n).ok, (alpha, image)
            assert relations_by_counts(
                image.T, partition_counts(image.T, 40, n),
                partition_counts(image.S, 40, n)) == []
            assert act(u, ident, n) == image

    def test_shift_above_half_the_order_asks_for_a_larger_order(self,
                                                                ids40):
        # infer_relation caps the shift at n // 2; a relation it refuses
        # for that alone is an order too small, not a non-identity
        ident = max(ids40, key=lambda i: i.a)
        u = UnitAction(1, 40)
        n = 2 * ident.a - 1
        with pytest.raises(OrderTooSmall, match=f"needs order {2 * ident.a}"):
            act(u, ident, n)
        assert act(u, ident, n + 1) == ident

    def test_non_identity_rejected(self):
        fake = PartitionIdentity(32, frozenset({1, 2}), frozenset({3, 4}),
                                 SHIFTED, 1)
        with pytest.raises(NotAnIdentity):
            act(UnitAction(3, 32), fake, 120)


class TestOrbit:
    def test_contains_self(self, id32):
        assert id32 in orbit(id32, 200)

    def test_size_bounded_by_half_units(self, id32, ids40):
        assert len(orbit(id32, 200)) <= 8
        for ident in ids40:
            assert len(orbit(ident, 200)) <= 8

    def test_equal_or_disjoint(self, ids40):
        orbits = [orbit(i, 200) for i in ids40]
        for oa in orbits:
            for ob in orbits:
                assert oa == ob or not (oa & ob)

    def test_member_generates_same_orbit(self, ids40):
        base = orbit(ids40[0], 200)
        other = next(iter(base - {ids40[0]}))
        assert orbit(other, 200) == base


class TestClassify:
    def test_modulus_40_two_classes(self, ids40):
        classes = classify(ids40, 200)
        assert sorted(len(c) for c in classes) == [2, 4]
        big = max(classes, key=len)
        assert {c.kind for c in big} == {"shifted", "shiftless"}

    def test_modulus_46_single_class(self, ids46):
        classes = classify(ids46, 200)
        assert [len(c) for c in classes] == [11]

    def test_order_invariant(self, ids40):
        rng = random.Random(244948)
        reference = classify(ids40, 200)
        for _ in range(3):
            shuffled = ids40[:]
            rng.shuffle(shuffled)
            assert classify(shuffled, 200) == reference

    def test_deterministic_ordering(self, ids40):
        classes = classify(ids40, 200)
        keys = [c[0].key() for c in classes]
        assert keys == sorted(keys)
        for cls in classes:
            member_keys = [m.key() for m in cls]
            assert member_keys == sorted(member_keys)

    def test_mixed_moduli_rejected(self, id32, ids40):
        with pytest.raises(ValueError):
            classify([id32, ids40[0]], 120)

    def test_empty(self):
        assert classify([], 120) == []


# ----------------------------------------------------------------------
# the whole catalog against the two-build oracle
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def catalog():
    by_mod = {}
    for e in load_corpus():
        by_mod.setdefault(e.identity.M, []).append(e.identity)
    return by_mod


def half_units(M):
    return [a for a in range(1, M // 2 + 1) if gcd(a, M) == 1]


def partition_counts(X, M, n):
    """p(X, 0..n), read from one residue_product build."""
    series = residue_product(X, M, n)
    return [series.coeff(k) for k in range(n + 1)]


def relations_by_counts(X, px, py):
    """The (kind, a), shifted first, that the partition counts
    px = p(X, 0..n) and py = p(Y, 0..n) of a pair (X, Y) confirm at
    every index.

    Only one shift per kind can hold: shifted needs p(X, k) = 0 for
    0 < k < a and p(X, a) = p(Y, 0) = 1, so a = min(X); shiftless needs
    p(X, k) = p(Y, k) below a and p(X, a) = p(Y, a) + 1, so a is the
    first index where the counts differ."""
    a = min(X)
    found = []
    if all(c - (py[k - a] if k >= a else 0) == (k == 0)
           for k, c in enumerate(px)):
        found.append((SHIFTED, a))
    a = next((k for k, (c, d) in enumerate(zip(px, py)) if c != d), None)
    if a is not None and all(c - d == (k == a)
                             for k, (c, d) in enumerate(zip(px, py))):
        found.append((SHIFTLESS, a))
    return found


def infer_by_two_builds(s_img, t_img, M, n):
    """infer_relation from the partition counts of the two sets: every
    relation that holds, in the orientation (s_img, t_img) or
    (t_img, s_img).  The one that holds is the relation when its shift
    is at most n // 2 and n >= a + 2; the order is too small when the
    one that holds has a larger shift, when n < a + 2 for the least
    shift that holds, or when more than one holds, and also when none
    holds but the counts agree through n: the sides first differ at the
    least part one has and the other lacks, d = min(S ^ T) > n, so the
    order cannot see a shiftless relation at d.  None when no relation
    holds and the counts differ."""
    ps, pt = (partition_counts(X, M, n) for X in (s_img, t_img))
    found = [(S, T, kind, a)
             for S, T, px, py in ((s_img, t_img, ps, pt),
                                  (t_img, s_img, pt, ps))
             for kind, a in relations_by_counts(S, px, py)]
    if not found and ps == pt:
        raise OrderTooSmall(f"order {n} cannot see a shift of "
                            f"{min(s_img ^ t_img)}")
    if not found:
        return None
    S, T, kind, a = min(found, key=lambda c: c[3])
    if len(found) == 1 and a > n // 2:
        raise OrderTooSmall(f"order {n} cannot infer a shift of {a}, "
                            f"which needs order {2 * a}")
    if n < a + 2:
        raise OrderTooSmall(f"order {n} cannot see a shift of {a}")
    if len(found) > 1:
        raise OrderTooSmall(f"order {n} cannot tell apart the "
                            f"{len(found)} relations that hold through it")
    return PartitionIdentity(M, S, T, kind, a)


def act_by_two_builds(u, ident, n):
    """act from the partition counts of the two image sides
    (infer_by_two_builds); a pair that satisfies no relation is no
    identity."""
    image = infer_by_two_builds(u.apply_set(ident.S), u.apply_set(ident.T),
                                ident.M, n)
    if image is None:
        raise NotAnIdentity(f"alpha={u.alpha} maps the identity to a "
                            f"non-relation (M={ident.M})")
    return image


def outcome(fn, *args):
    """The result, or the exception's type and message."""
    try:
        return fn(*args)
    except (OrderTooSmall, NotAnIdentity) as exc:
        return type(exc), str(exc)


def image_pairs(catalog):
    """Every (S_img, T_img, M) folded pair a unit in 1..M/2 gives a
    catalog entry."""
    return {(u.apply_set(ident.S), u.apply_set(ident.T), M)
            for M, idents in catalog.items() for ident in idents
            for u in (UnitAction(a, M) for a in half_units(M))}


def classify_by_oracle(idents, n):
    """classify with every orbit taken over all units by the oracle."""
    remaining = sorted(set(idents), key=PartitionIdentity.key)
    classes = []
    while remaining:
        rep = remaining[0]
        members = {act_by_two_builds(UnitAction(a, rep.M), rep, n)
                   for a in half_units(rep.M)}
        classes.append([i for i in remaining if i in members])
        remaining = [i for i in remaining if i not in members]
    return sorted(classes, key=lambda cls: cls[0].key())


class TestAgainstTheTwoBuildOracle:
    @pytest.mark.parametrize("n", [2, 6, 300])
    def test_act_matches_on_every_entry_and_unit(self, catalog, n):
        kinds = set()
        for M, idents in catalog.items():
            for ident in idents:
                for alpha in half_units(M):
                    u = UnitAction(alpha, M)
                    got = outcome(act, u, ident, n)
                    assert got == outcome(act_by_two_builds, u, ident, n), \
                        (ident, alpha, n)
                    if isinstance(got, PartitionIdentity):
                        kinds.add(got.kind)
        if n == 300:
            assert kinds == {"shifted", "shiftless"}

    def test_act_matches_where_the_order_is_too_small(self):
        ident = next(e.identity for e in load_corpus()
                     if e.label == "Thm-42.2-iii")
        u = UnitAction(1, 42)
        want = (OrderTooSmall,
                "order 15 cannot infer a shift of 8, which needs order 16")
        assert outcome(act_by_two_builds, u, ident, 15) == want
        assert outcome(act, u, ident, 15) == want

    def test_orbit_is_every_units_image(self, catalog):
        for M, idents in catalog.items():
            for cls in classify(idents, 300):
                rep = cls[0]
                assert orbit(rep, 300) == {
                    act(UnitAction(a, M), rep, 300) for a in half_units(M)}

    @pytest.mark.parametrize("n", [15, 300])
    def test_either_order_of_an_image_pair_infers_alike(self, catalog, n):
        # infer_relation memoizes by the unordered pair, so its outcome
        # must not depend on the order of its two sets, and an answer
        # from the warm memo must be the cold build's
        kinds = set()
        warm = {}
        for S, T, M in image_pairs(catalog):
            got = outcome(infer_relation, S, T, M, n)
            assert got == outcome(infer_relation, T, S, M, n), (S, T, M, n)
            warm[frozenset((S, T)), M] = got
            kinds.add(got.kind if isinstance(got, PartitionIdentity)
                      else got[0])
        assert kinds == ({SHIFTED, SHIFTLESS, OrderTooSmall} if n == 15
                         else {SHIFTED, SHIFTLESS})
        # one entry per unordered pair and modulus; OrderTooSmall is not kept
        assert partitions._infer.cache_info().currsize == sum(
            isinstance(got, PartitionIdentity) for got in warm.values())
        for (pair, M), got in warm.items():
            partitions._infer.cache_clear()
            assert outcome(infer_relation, *pair, M, n) == got, (pair, M, n)

    def test_classify_matches_on_every_modulus(self, catalog):
        assert len(catalog) == 18
        for idents in catalog.values():
            assert classify(idents, 300) == classify_by_oracle(idents, 300)

    def test_infer_matches_on_random_folded_pairs(self):
        # seeded pairs at M <= 40 and orders 0-60: mostly no relation,
        # some shifted ones, and at small orders one or several
        # candidates holding at once, each such case an order too small
        rng = random.Random(34)
        seen = set()
        for _ in range(3000):
            M = rng.randint(3, 40)
            pool = range(1, M // 2 + 1)
            S, T = (frozenset(rng.sample(pool, rng.randint(1, len(pool))))
                    for _ in range(2))
            if S == T:
                continue
            n = rng.randint(0, 60)
            got = outcome(infer_relation, S, T, M, n)
            assert got == outcome(infer_by_two_builds, S, T, M, n), \
                (S, T, M, n)
            # the verb after "cannot" names the OrderTooSmall rule
            seen.add(got.kind if isinstance(got, PartitionIdentity)
                     else got and got[1].split(" cannot ")[1].split()[0])
        assert seen == {None, SHIFTED, "see", "tell", "infer"}, seen


class TestBuildCount:
    """One cleared zero test (theta.first_nonzero) per candidate the
    count screen keeps, and per distinct unordered image pair and order
    in a process, so that checking an orientation or a repeated image
    again shows as a count.  Each test starts with infer_relation's memo
    empty (conftest.cold_inference_memo)."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        real = partitions.first_nonzero

        def counting(terms, n):
            calls.append(terms)
            return real(terms, n)

        monkeypatch.setattr(partitions, "first_nonzero", counting)
        return calls

    def test_one_build_per_act(self, builds, catalog, ids40):
        # an image in either orientation is one check; a pair the screen
        # rejects outright is none
        for ident in ids40 + catalog[42]:
            builds.clear()
            act(UnitAction(11, ident.M), ident, 300)
            assert len(builds) == 1
        fake = PartitionIdentity(32, frozenset({1, 2}), frozenset({3, 4}),
                                 SHIFTED, 1)
        builds.clear()
        with pytest.raises(NotAnIdentity):
            act(UnitAction(3, 32), fake, 120)
        assert builds == []

    def test_a_repeated_pair_is_built_once_per_order(self, builds, ids40):
        ident = ids40[0]
        u = UnitAction(11, 40)
        image = act(u, ident, 300)
        assert act(u, ident, 300) == image
        # alpha and M - alpha fold alike, and either order of the pair
        # is the same unordered pair
        assert act(UnitAction(29, 40), ident, 300) == image
        for X, Y in ((image.S, image.T), (image.T, image.S)):
            assert infer_relation(X, Y, 40, 300) == image
        assert len(builds) == 1
        # the memo keys the order too
        assert act(u, ident, 200) == image
        assert len(builds) == 2

    def test_an_order_too_small_is_built_on_every_call(self, builds,
                                                      ids40):
        ident = max(ids40, key=lambda i: i.a)
        u = UnitAction(1, 40)
        messages = set()
        for _ in range(3):
            with pytest.raises(OrderTooSmall, match="needs order") as exc:
                act(u, ident, 2 * ident.a - 1)
            messages.add(str(exc.value))
        assert len(builds) == 3 and len(messages) == 1

    def test_classify_builds_each_unordered_image_once(self, builds,
                                                       catalog):
        images = set()
        for M, idents in catalog.items():
            for cls in classify(idents, 300):
                rep = cls[0]
                for u in (UnitAction(a, M) for a in half_units(M)):
                    images.add((frozenset((u.apply_set(rep.S),
                                           u.apply_set(rep.T))), M))
        assert len(builds) == len(images) == 238
        # selftest's round trips, under every unit of every entry, meet
        # only pairs the classes already checked
        for M, idents in catalog.items():
            for ident in idents:
                for alpha in (a for a in range(1, M) if gcd(a, M) == 1):
                    image = act(UnitAction(alpha, M), ident, 300)
                    back = act(UnitAction(pow(alpha, -1, M), M), image, 300)
                    assert back == ident
        assert len(builds) == 238
