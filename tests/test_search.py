"""Tests for the pruned parameter search.

The load-bearing checks are four oracle comparisons.  On a small base
the vectorized scan must agree tuple-for-tuple with a direct loop that
derives every enumerated parameter set, both in the outcome histogram
and in the surviving identities.  Unit by unit, the prefilter, which
reads each unit's verdicts from the outcome cube of its diagonal b - a,
must agree with the int64 prefilter on the expressions themselves, kept
here as reference_prefilter.  Every survivor, in both orientations,
must reduce by the per-tuple oracle (oracles.derive_batch) to the
outcome its class cell's code stands for: the reduction lemma.  And the
search, which scans each unordered {a, b} once and reduces each
survivor key of a diagonal once, must return exactly what reducing
every survivor one (n, a, b) unit at a time over every ordered (a, b)
returns, kept here as unit_by_unit_search.

A unit reads the cube its diagonal hands it, so the tests walk units
diagonal by diagonal (prefilter_by_diagonal), which builds each cube
once, as the search does.
"""

import dataclasses
import random
import tracemalloc
from collections import Counter
from math import gcd

import numpy as np
import pytest

from qshift import search
from qshift.jacobi import (
    FAILURE_REASONS,
    REPEATED_ATOM,
    Derivation,
    FourParams,
    _four2_exprs,
    derive_identity,
)
from qshift.partitions import verify_identity
from qshift.search import SearchConfig, SearchResult, run_search
from qshift.theta import DegenerateZero

from oracles import derive_batch, enumerate_params


def linear_expressions(p):
    """The twelve linear expressions of the four2 terms."""
    a, b, c, x, y = p.exponents()
    return (b - c, a - x, a - y, x + y - b - c,
            a - c, b - x, b - y, x + y - a - c,
            a - b, c - x, c - y, x + y - a - b)


def brute_force(cfg):
    """Reference implementation of run_search on a small space."""
    hist = Counter()
    found = {}
    scanned = 0
    for p in enumerate_params(cfg):
        scanned += 1
        try:
            d = derive_identity(p)
        except DegenerateZero:
            hist["degenerate"] += 1
            continue
        if gcd(p.n, *linear_expressions(p)) > 1:
            # every residue would share that factor with M
            hist["imprimitive"] += 1
            continue
        if not d.ok:
            hist[d.reason] += 1
            continue
        ident = d.identity
        if gcd(ident.M, *ident.S, *ident.T) > 1:
            hist["imprimitive"] += 1
        else:
            hist["ok"] += 1
            found.setdefault(ident, p)
    emitted = {i for i in found if verify_identity(i, 200).ok}
    return scanned, hist, emitted


def _fold(e, m):
    r = e % m
    return np.minimum(r, m - r)


def _cancels(num, den):
    """Rows where the 4-row numerator multiset embeds into the 16-row
    denominator multiset (columns are candidate tuples)."""
    in_den = (num[:, None, :] == den[None, :, :]).sum(axis=1)
    in_num = (num[:, None, :] == num[None, :, :]).sum(axis=1)
    return (in_den >= in_num).all(axis=0)


def reference_prefilter(n, a, b, bound):
    """search._prefilter in int64 arithmetic on the expressions
    themselves: the reference the residue-table prefilter must match."""
    xs, ys = np.triu_indices(bound)
    C = np.repeat(np.arange(1, bound + 1), len(xs))
    X = np.tile(xs + 1, bound)
    Y = np.tile(ys + 1, bound)
    keep = np.gcd(np.gcd(C, X), np.gcd(Y, gcd(a, b))) == 1
    C, X, Y = C[keep], X[keep], Y[keep]
    scanned = len(C)
    hist = Counter()
    if scanned == 0:
        return scanned, hist, C, X, Y

    (t1, t2), shared = _four2_exprs(*np.broadcast_arrays(a, b, C, X, Y))
    all12 = np.stack(t1[2] + t2[2] + shared)
    t1_core, t2_core, shared = all12[:4], all12[4:8], all12[8:]

    m = 2 * n
    cancel_ok = np.ones(scanned, dtype=bool)
    for core in (t1_core, t2_core):
        den = np.concatenate([core, shared])
        den16 = np.concatenate([_fold(den, m), _fold(den + n, m)])
        cancel_ok &= _cancels(_fold(2 * core, m), den16)
    nondegen = ~(all12 % n == 0).any(axis=0)
    imprim = np.gcd(np.gcd.reduce(np.abs(all12)), n) > 1
    hist["degenerate"] = scanned - int(nondegen.sum())
    hist["imprimitive"] = int((nondegen & imprim).sum())
    hist["incomplete-cancellation"] = int(
        (nondegen & ~imprim & ~cancel_ok).sum())

    keep = nondegen & ~imprim & cancel_ok
    return scanned, hist, C[keep], X[keep], Y[keep]


def unit_view(t, codes):
    """What a unit's codes say of the prefilter: (scanned, histogram,
    C, X, Y), the histogram counting each rejection, in the prefilter's
    label order, and C, X, Y the survivors' (c, x, y) in scan order."""
    hist = Counter({label: int(np.count_nonzero(codes == code))
                    for label, code in search._CODE.items()})
    keep = codes >= search._DERIVED
    scanned = len(codes) - int(np.count_nonzero(codes == search._UNSCANNED))
    return scanned, hist, t.C[keep], t.X[keep], t.Y[keep]


def prefilter_by_diagonal(n, bound, diagonals=None):
    """Yield ((a, b), unit_view of search._prefilter's codes) for every
    ordered unit (n, a, b), or for those with b - a in diagonals,
    diagonal by diagonal, each diagonal's cube built once and handed to
    its units."""
    t = search._base_tables(n, bound)
    for d in range(1 - bound, bound) if diagonals is None else diagonals:
        cube, _ = search._outcome_cube(t, d)
        for a in range(max(1, 1 - d), min(bound, bound - d) + 1):
            yield (a, a + d), unit_view(
                t, search._prefilter(t, cube, a, a + d))


def unit_by_unit_search(cfg):
    """run_search with one derive_batch per (n, a, b) unit, each unit's
    outcomes tallied tuple by tuple and its identities deduped within
    the unit, the units taken in lexicographic order: the reference the
    diagonal-wise scan must match."""
    labels = ("ok",) + FAILURE_REASONS + ("imprimitive",)
    scanned, hist, raw = 0, Counter(), []
    for n in cfg.n_values:
        bound = cfg.bound_for(n)
        units = dict(prefilter_by_diagonal(n, bound))
        for a in range(1, bound + 1):
            for b in range(1, bound + 1):
                unit_scanned, unit_hist, C, X, Y = units[a, b]
                scanned += unit_scanned
                hist.update(unit_hist)
                if not C.size:
                    continue
                batch = derive_batch(n, a, b, C, X, Y)
                first = {}
                for i in range(len(C)):
                    label = labels[batch.reason[i]]
                    if label == "ok" and not batch.primitive[i]:
                        label = "imprimitive"
                    hist[label] += 1
                    if label == "ok":
                        first.setdefault(batch.identity(i), FourParams(
                            a, b, int(C[i]), int(X[i]), int(Y[i]), n))
                raw += [(params, ident) for ident, params in first.items()]
    seen = {}
    for params, ident in raw:
        seen.setdefault(ident, params)
    found = []
    for ident, params in seen.items():
        if verify_identity(ident, search.VERIFY_ORDER).ok:
            found.append((params, ident))
        else:
            hist["verification-failed"] += 1
    found.sort(key=lambda pair: pair[1].key())
    return SearchResult(tuple(found), scanned, dict(hist))


def assert_same_search(got, want):
    """Equal found, scanned and histogram, key order included."""
    assert got.found == want.found
    assert got.scanned == want.scanned
    assert list(got.histogram.items()) == list(want.histogram.items())


@pytest.fixture(scope="module")
def unit_by_unit_16_20():
    return unit_by_unit_search(SearchConfig((16, 20)))


class TestRowsEqualUnits:
    """The diagonal-wise scan against unit_by_unit_search."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_equal_units(self, workers, unit_by_unit_16_20):
        got = run_search(SearchConfig((16, 20), workers=workers))
        assert_same_search(got, unit_by_unit_16_20)
        assert len(got.found) == 7

    @pytest.mark.parametrize("n, bound", [
        (40, 12),   # n > 2 bound - 1: the classes are the differences
        (12, 20),   # bound > n: the differences wrap mod n
        (10, 25),   # b - a = +-n: whole diagonals are degenerate
    ])
    def test_class_axes_equal_units(self, n, bound):
        cfg = SearchConfig((n,), exponent_bound=bound)
        assert_same_search(run_search(cfg), unit_by_unit_search(cfg))

    def test_row_order_changes_nothing(self, monkeypatch):
        # each diagonal holds lesser and greater tuples than the others,
        # so whatever order the pool returns diagonals in, each identity
        # and outcome must keep its least tuple: each diagonal of base 16
        # arrives first, then the others last to first
        cfg = SearchConfig((16,))
        want = unit_by_unit_search(cfg)
        rows = [search._scan_unit(unit) for unit in search._units(cfg)]

        class ReorderingPool:
            def __init__(self, processes):
                pass

            def imap(self, fn, items, chunksize=1):
                return iter(order)

            def close(self):
                pass

            def join(self):
                pass

        monkeypatch.setattr(search.multiprocessing, "Pool", ReorderingPool)
        for k in range(len(rows)):
            order = [rows[k], *rows[:k][::-1], *rows[k + 1:][::-1]]
            got = run_search(SearchConfig((16,), workers=2))
            assert_same_search(got, want)


def oracle_outcomes(batch, rows):
    """The outcome, as the cube's outcomes tables spell it, that the
    per-tuple oracle gives each of the rows of a derive_batch result."""
    found = []
    for i in rows:
        if batch.reason[i]:
            found.append((FAILURE_REASONS[batch.reason[i] - 1], None))
        elif not batch.primitive[i]:
            found.append(("imprimitive", None))
        else:
            found.append(("ok", batch.identity(i)))
    return found


class TestReductionLemma:
    """Every survivor the search scans, at (a, a + d) and at (a + d, a),
    reduces by the per-tuple oracle to the outcome its class cell's code
    stands for, so one derive_identity per key is every tuple's."""

    @pytest.mark.parametrize("n, bound", [
        (16, 15), (20, 19), (23, 22), (24, 23), (12, 20), (10, 25),
        (40, 12)])
    def test_every_survivor_reads_its_own_outcome(self, n, bound):
        t = search._base_tables(n, bound)
        seen = Counter()
        for d in range(bound):
            cube, outcomes = search._outcome_cube(t, d)
            cols = []
            for a in range(1, bound - d + 1):
                codes = search._prefilter(t, cube, a, a + d)
                keep = np.flatnonzero(codes >= search._DERIVED)
                cols.append((np.full(keep.size, a), t.C[keep], t.X[keep],
                             t.Y[keep], codes[keep]))
            A, C, X, Y, codes = (np.concatenate(col) for col in zip(*cols))
            if not codes.size:
                continue
            for ab in ((A, A + d), (A + d, A))[:2 if d else 1]:
                batch = derive_batch(n, *ab, C, X, Y)
                # one oracle row per distinct (code, reduction) stands
                # for the rest, which must agree with it; a failed row's
                # other fields are unspecified
                ok = (batch.reason == 0)[:, None]
                rows = np.column_stack((
                    codes, batch.reason, batch.primitive,
                    ok * np.column_stack((batch.shifted, batch.shift,
                                          batch.S, batch.T))))
                _, first = np.unique(rows, axis=0, return_index=True)
                assert len(np.unique(codes[first])) == len(first), (n, d)
                for i, got in zip(first, oracle_outcomes(batch, first)):
                    assert outcomes[codes[i]] == got, (n, ab[0][i], C[i])
                    seen[got[0]] += 1
        # survivors reduce to identities and to repeated-atom; (40, 12)
        # has none, its cubes hold rejections only
        assert bool(seen) == ((n, bound) != (40, 12))
        if n in (16, 20, 23, 24):
            assert seen["ok"]

    def test_an_imprimitive_reduction_reads_as_imprimitive(self,
                                                           monkeypatch):
        # no survivor of bases 16 to 41 reduces to an imprimitive
        # identity: the prefilter's common prime rejects them first.  A
        # reduction that did is counted under "imprimitive", with its
        # own code, so that codes from _DERIVED on mark the survivors
        doubled = derive_identity(FourParams(2, 4, 8, 24, 26, 32))
        assert doubled.ok
        monkeypatch.setattr(search, "derive_identity", lambda p: doubled)
        t = search._base_tables(16, 15)
        cube, outcomes = search._outcome_cube(t, 1)
        assert outcomes[search._DERIVED:] == (("imprimitive", None),)
        scanned, hist, least = search._scan_unit((16, 1, 15))
        survivors = sum(int(np.count_nonzero(
            search._prefilter(t, cube, a, a + 1) == search._DERIVED))
            for a in range(1, 15))
        assert survivors > 0
        real = dict(prefilter_by_diagonal(16, 15, [1]))
        assert hist["imprimitive"] == 2 * (
            survivors + sum(u[1]["imprimitive"] for u in real.values()))

    def test_more_outcomes_than_uint8_holds_widen_the_cube(self,
                                                           monkeypatch):
        # every cell that is neither degenerate nor imprimitive survives,
        # and each key reduces to an outcome of its own: the cube widens
        # to uint16 and keeps every code
        embeds = search._embeds
        monkeypatch.setattr(search, "_embeds",
                            lambda *rows: np.ones_like(embeds(*rows)))
        monkeypatch.setattr(search, "derive_identity", lambda p: Derivation(
            p, (), reason=str(p.exponents())))
        cube, outcomes = search._outcome_cube(search._base_tables(29, 28), 1)
        assert len(outcomes) > 300 and cube.dtype == np.uint16
        assert set(range(search._DERIVED, len(outcomes))) \
            <= set(np.unique(cube).tolist())


# what one diagonal's prefilter may hold: per class cell, the class
# grid's form rows while they are built, then the diagonal's cube (about
# 13 to 18 bytes per cell under tracemalloc); per column of one unit, a
# slab of the cube or the unit's gather (about 56 bytes per slab cell in
# uint8 rows, 72 in uint16, 105 in uint32, and 3 to 9 per gathered
# tuple), and where every cell survives, the survivors' keys and the map
# from keys to codes (about 100, 170 and 225 bytes per column for a whole
# diagonal).  test_cube_fits_at_the_ceilings shows both fit within one
# unit's search.PREFILTER_BYTES_PER_TUPLE at the bound ceiling
CUBE_BYTES_PER_CELL = 24
SLAB_BYTES_PER_COLUMN = 256


PREFILTER_CONFIGS = [
    *((n, n - 1) for n in (6, 7, 8, 9, 10, 12, 15, 16, 18, 21, 30)),
    (10, 25),   # a - b = +-n, so whole units are degenerate
    (16, 7),
    (42, 8),    # three primes in the imprimitivity mask
    (131, 6),   # 2n > 256: uint16 rows
    (210, 6),   # four primes
]


def assert_same_unit(got, want, unit):
    """Equal scanned, histogram items in order and survivors in order."""
    assert got[0] == want[0], unit
    assert list(got[1].items()) == list(want[1].items()), unit
    for g, w in zip(got[2:], want[2:]):
        assert g.tolist() == w.tolist(), unit


class TestPrefilterOracle:
    """The residue-table prefilter against the int64 reference, unit by
    unit: scanned, the histogram with its zero-valued keys and key
    order, and the survivors in scan order."""

    @pytest.mark.parametrize("n, bound", PREFILTER_CONFIGS)
    def test_every_unit_matches_the_reference(self, n, bound):
        for (a, b), got in prefilter_by_diagonal(n, bound):
            assert_same_unit(got, reference_prefilter(n, a, b, bound),
                             (n, a, b))

    @pytest.mark.parametrize("n, bound", PREFILTER_CONFIGS)
    def test_swapping_a_and_b_changes_nothing(self, n, bound):
        # the lemma the search rests on when it scans (n, a, b) for
        # b >= a only: swapping a and b exchanges the two terms' core
        # expressions and negates a - b, and fold_n(-e) = fold_n(e);
        # the units of diagonals d and -d read two different cubes
        for d in range(1, bound):
            direct = list(prefilter_by_diagonal(n, bound, [d]))
            swapped = list(prefilter_by_diagonal(n, bound, [-d]))
            assert len(swapped) == len(direct)
            for ((b, a), got), ((a2, b2), want) in zip(swapped, direct):
                assert (a, b) == (a2, b2)
                assert_same_unit(got, want, (n, a, b))

    @pytest.mark.parametrize("n, bound", PREFILTER_CONFIGS)
    def test_translating_every_exponent_changes_nothing(self, n, bound):
        # the lemma the cube rests on: each expression's coefficients sum
        # to 0, so adding one t to all five exponents fixes it, and h
        # depends on e mod n alone, so adding n to one of c, x, y fixes
        # its fold
        rng = random.Random(1000 * n + bound)
        for _ in range(200):
            p = FourParams(*(rng.randint(1, bound) for _ in range(5)), n)
            rows = [fold(e, n) for e in linear_expressions(p)]
            for t in (1, n - 1, n, 2 * n + 3):
                moved = FourParams(*(e + t for e in p.exponents()), n)
                assert [fold(e, n) for e in linear_expressions(moved)] \
                    == rows, (p, t)
            for k in (2, 3, 4):
                moved = list(p.exponents())
                moved[k] += n
                moved = FourParams(*moved, n)
                assert [fold(e, n) for e in linear_expressions(moved)] \
                    == rows, (p, k)

    def test_configurations_reach_every_branch(self):
        # the configurations above reach all three rejections and
        # survivors, and both widths of the form rows
        seen = Counter()
        for n, bound in ((10, 25), (42, 8), (131, 6)):
            for _, (scanned, hist, C, _, _) in prefilter_by_diagonal(
                    n, bound):
                seen.update(hist)
                seen["survivors"] += len(C)
        assert all(seen[k] > 0 for k in ("degenerate", "imprimitive",
                                         "incomplete-cancellation",
                                         "survivors"))
        for n, dtype in ((131, np.uint16), (128, np.uint8)):
            grid = search._base_tables(n, 6).grid
            assert {f.dtype for f in grid} == {np.dtype(dtype)}, n


def fold(e, m):
    """min(e mod m, m - e mod m), in plain integers."""
    return min(e % m, m - e % m)


class TestFoldIdentities:
    """The identities the prefilter reads its decisions from: every
    value it tests is a function of h = fold(e, n)."""

    BASES = (5, 6, 7, 12, 29, 30, 131, 210)

    @pytest.mark.parametrize("n", BASES)
    def test_denominator_pair_sums_to_n(self, n):
        for e in range(2 * n):
            assert fold(e, 2 * n) + fold(e + n, 2 * n) == n, e

    @pytest.mark.parametrize("n", BASES)
    def test_numerator_is_twice_the_fold(self, n):
        for e in range(2 * n):
            assert fold(2 * e, 2 * n) == 2 * fold(e, n), e

    @pytest.mark.parametrize("n", BASES)
    def test_degenerate_iff_fold_is_zero(self, n):
        for e in range(2 * n):
            assert (e % n == 0) == (fold(e, n) == 0), e

    @pytest.mark.parametrize("n", BASES)
    def test_primes_of_n_divide_e_iff_they_divide_the_fold(self, n):
        primes = [p for p in range(2, n + 1)
                  if n % p == 0 and all(p % q for q in range(2, p))]
        for e in range(2 * n):
            for p in primes:
                assert (e % p == 0) == (fold(e, n) % p == 0), (e, p)

    @pytest.mark.parametrize("n", BASES)
    def test_pair_count_rule(self, n):
        rng = random.Random(n)
        for _ in range(50):
            exprs = [rng.randrange(-3 * n, 3 * n) for _ in range(8)]
            values = Counter(fold(e + k, 2 * n) for e in exprs for k in (0, n))
            h = [fold(e, n) for e in exprs]
            for v in range(n + 1):
                count = h.count(min(v, n - v)) * (2 if 2 * v == n else 1)
                assert values[v] == count, (exprs, v)


class TestEmbeds:
    """search._embeds on random expressions, against the multiset test
    on their values fold(2e, 2n) and fold(e, 2n), fold(e + n, 2n)."""

    @pytest.mark.parametrize("n", (8, 12, 30, 131, 210))
    def test_matches_the_multisets(self, n):
        rng = random.Random(n)
        cols = [[rng.randrange(2 * n) for _ in range(8)] for _ in range(2000)]
        h = np.array([[fold(e, n) for e in col] for col in cols],
                     dtype=np.min_scalar_type(2 * n - 1)).T
        got = search._embeds(h[:4], h, n)
        for j, col in enumerate(cols):
            num = Counter(fold(2 * e, 2 * n) for e in col[:4])
            den = Counter(fold(e + k, 2 * n) for e in col for k in (0, n))
            want = all(den[v] >= count for v, count in num.items())
            assert got[j] == want, col


class TestSearchConfig:
    def test_normalizes_bases(self):
        cfg = SearchConfig((20, 16, 16))
        assert cfg.n_values == (16, 20)

    def test_default_bound(self):
        assert SearchConfig((16,)).bound_for(16) == 15
        assert SearchConfig((16,), exponent_bound=9).bound_for(16) == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(())
        with pytest.raises(ValueError):
            SearchConfig((16,), workers=0)
        with pytest.raises(ValueError):
            SearchConfig((16,), exponent_bound=4)
        with pytest.raises(ValueError):
            SearchConfig((5,))


    def test_bound_ceiling(self):
        # the default bound n - 1 fits up to base 60
        SearchConfig((60,))
        SearchConfig((16,), exponent_bound=88)
        with pytest.raises(ValueError, match="ceiling of 88"):
            SearchConfig((16,), exponent_bound=89)
        with pytest.raises(ValueError, match="ceiling of 88"):
            SearchConfig((16,), exponent_bound=10 ** 9)

    def test_prefilter_memory_per_tuple(self):
        # the ceiling assumes at most PREFILTER_BYTES_PER_TUPLE per tuple
        bound = 20
        tracemalloc.start()
        try:
            t = search._base_tables(16, bound)
            search._prefilter(t, search._outcome_cube(t, 1)[0], 1, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = bound * (bound + 1) // 2
        assert peak <= bound * pairs * search.PREFILTER_BYTES_PER_TUPLE

    @pytest.mark.parametrize("n, bound", [(40, 20), (131, 30), (40_000, 45)])
    def test_cube_memory_per_cell(self, n, bound):
        # the class grid's form rows, built cold, then one diagonal's
        # cube in slabs, in uint8, uint16 and uint32 rows: at most
        # CUBE_BYTES_PER_CELL per class cell and SLAB_BYTES_PER_COLUMN per
        # column of one unit, beside the residue tables' own budget
        search._base_tables.cache_clear()
        tracemalloc.start()
        try:
            t = search._base_tables(n, bound)
            search._outcome_cube(t, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = t.K ** 3
        unit = bound * bound * (bound + 1) // 2
        assert cells > 10 * unit
        assert peak <= (cells * CUBE_BYTES_PER_CELL
                        + unit * SLAB_BYTES_PER_COLUMN
                        + 2 * n * search.TABLE_BYTES_PER_RESIDUE)

    @pytest.mark.parametrize("n, bound", [(29, 28), (40, 20)])
    def test_gather_memory_per_tuple(self, n, bound):
        # a unit reading its codes from a built cube, with the gcd filter
        # (gcd(2, 4) = 2): at most SLAB_BYTES_PER_COLUMN per tuple
        t = search._base_tables(n, bound)
        cube, _ = search._outcome_cube(t, 2)
        tracemalloc.start()
        try:
            search._prefilter(t, cube, 2, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        unit = bound * bound * (bound + 1) // 2
        assert peak <= unit * SLAB_BYTES_PER_COLUMN

    @pytest.mark.parametrize("n, bound, cells", [
        (89, 88, 89 ** 3), (175, 88, 5_359_375), (1_398_101, 88, 5_359_375)])
    def test_cube_fits_at_the_ceilings(self, n, bound, cells):
        # one diagonal at the largest admissible bound, at base 89 and at
        # bases from 175 on, where K = 2 * 88 - 1 and the cube is largest:
        # the class grid and the cube, plus one slab or one gather, fit
        # within what the bound ceiling budgets for one unit
        SearchConfig((n,), exponent_bound=bound)
        # from base 2 bound - 1 = 175 on, K is 175 whatever the base, so
        # base 175's tables stand for the largest base's, which would
        # take about 140 MB to build
        assert search._base_tables(min(n, 2 * bound - 1), bound).K ** 3 \
            == cells
        unit = bound * bound * (bound + 1) // 2
        need = (cells * CUBE_BYTES_PER_CELL
                + unit * SLAB_BYTES_PER_COLUMN)
        assert need <= unit * search.PREFILTER_BYTES_PER_TUPLE
        assert unit * search.PREFILTER_BYTES_PER_TUPLE \
            <= search.PREFILTER_BUDGET_BYTES

    @pytest.mark.parametrize("n, bound", [(23, 22), (131, 30), (40_000, 45)])
    def test_slab_memory_when_every_cell_survives(self, n, bound,
                                                  monkeypatch):
        # a diagonal with no h of 0, no common prime and every term
        # cancelling, so every cell survives and gets a key, each key
        # reduced by a stub: the keys (uint8, uint8 and uint16), their
        # np.unique and the map from keys to codes fit within
        # SLAB_BYTES_PER_COLUMN per column of one unit beside the cube
        t = search._base_tables(n, bound)
        t = dataclasses.replace(t, fold_n=np.maximum(t.fold_n, 1),
                                prime_mask=np.zeros_like(t.prime_mask))
        embeds = search._embeds
        monkeypatch.setattr(search, "_embeds",
                            lambda *rows: np.ones_like(embeds(*rows)))
        calls = Counter()

        def derive(p):
            calls["derive"] += 1
            return Derivation(p, (), reason=REPEATED_ATOM)

        monkeypatch.setattr(search, "derive_identity", derive)
        tracemalloc.start()
        try:
            cube, outcomes = search._outcome_cube(t, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cube == search._DERIVED).all()
        assert outcomes[search._DERIVED:] == ((REPEATED_ATOM, None),)
        unit = len(t.C)
        assert calls["derive"] > 300
        assert peak <= t.K ** 3 + unit * SLAB_BYTES_PER_COLUMN

    def test_default_bound_fits_up_to_base_89(self):
        # the default bound n - 1 meets the bound ceiling of 88 at base 89
        assert SearchConfig((89,)).bound_for(89) == 88
        with pytest.raises(ValueError, match="ceiling of 88"):
            SearchConfig((90,))

    def test_base_ceiling(self):
        SearchConfig((1_398_101,), exponent_bound=6)
        with pytest.raises(ValueError, match="ceiling of 1398101"):
            SearchConfig((1_398_102,), exponent_bound=6)
        with pytest.raises(ValueError, match="ceiling of 1398101"):
            SearchConfig((10 ** 12,), exponent_bound=6)

    @pytest.mark.parametrize("n", [20_000, 100_000])
    def test_table_memory_per_residue(self, n):
        # the base ceiling assumes at most TABLE_BYTES_PER_RESIDUE per
        # residue mod 2n
        search._base_tables.cache_clear()
        tracemalloc.start()
        try:
            search._base_tables(n, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * search.TABLE_BYTES_PER_RESIDUE


class TestEnumerate:
    def test_matches_reference_loops(self):
        cfg = SearchConfig((6,))
        got = [p.exponents() for p in enumerate_params(cfg)]
        want = []
        for a in range(1, 6):
            for b in range(1, 6):
                for c in range(1, 6):
                    for x in range(1, 6):
                        for y in range(x, 6):
                            if gcd(gcd(a, b), gcd(gcd(c, x), y)) == 1:
                                want.append((a, b, c, x, y))
        assert got == want

    def test_contains_known_parameter_set(self):
        for p in enumerate_params(SearchConfig((16,))):
            if p.exponents() == (1, 2, 4, 12, 13):
                break
        else:
            pytest.fail("expected tuple missing from enumeration")


def assert_matches_brute_force(cfg):
    res = run_search(cfg)
    scanned, hist, emitted = brute_force(cfg)
    assert res.scanned == scanned
    assert {k: v for k, v in res.histogram.items() if v} == \
        {k: v for k, v in hist.items() if v}
    assert {ident for _, ident in res.found} == emitted
    return res


class TestRunSearch:
    def test_matches_brute_force(self):
        assert_matches_brute_force(SearchConfig((8,)))

    def test_matches_brute_force_at_base_16(self):
        # survivors both succeed and are rejected as imprimitive here
        res = assert_matches_brute_force(SearchConfig((16,), exponent_bound=7))
        assert res.histogram["ok"] > 0
        assert res.histogram["imprimitive"] > 0

    def test_all_reject_base_29(self):
        # the search-empty workload: every tuple is rejected by the
        # prefilter
        res = run_search(SearchConfig((29,)))
        assert res.scanned == 8_589_713
        assert list(res.histogram.items()) == [
            ("degenerate", 3_041_429), ("imprimitive", 0),
            ("incomplete-cancellation", 5_548_284)]
        assert res.found == ()

    def test_empty_small_base(self):
        res = run_search(SearchConfig((8,)))
        assert res.found == ()

    def test_rediscovers_modulus_32(self):
        res = run_search(SearchConfig((16,)))
        assert len(res.found) == 1
        params, ident = res.found[0]
        assert params.exponents() == (1, 2, 4, 12, 13)
        assert ident.M == 32 and ident.kind == "shifted" and ident.a == 1
        assert res.histogram["ok"] > 1
        assert verify_identity(ident, 300).ok

    def test_worker_pool_agrees(self):
        base = run_search(SearchConfig((10,)))
        pooled = run_search(SearchConfig((10,), workers=2))
        assert pooled == base

    def test_pool_size_capped_at_cpu_count(self, monkeypatch):
        pools = []

        class FakePool:
            """Runs the units in-process and records how it was used."""

            def __init__(self, processes):
                self.processes = processes
                self.closed = self.joined = False
                pools.append(self)

            def imap(self, fn, items, chunksize=1):
                return map(fn, items)

            def close(self):
                self.closed = True

            def join(self):
                assert self.closed
                self.joined = True

        monkeypatch.setattr(search.multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
        res = run_search(SearchConfig((8,), workers=10_000))
        assert [p.processes for p in pools] == [3]
        assert pools[0].joined
        assert res == run_search(SearchConfig((8,)))

    def test_pool_closed_when_a_unit_fails(self, monkeypatch):
        pools = []

        class FailingPool:
            def __init__(self, processes):
                self.joined = False
                pools.append(self)

            def imap(self, fn, items, chunksize=1):
                raise RuntimeError("unit failed")

            def close(self):
                pass

            def join(self):
                self.joined = True

        monkeypatch.setattr(search.multiprocessing, "Pool", FailingPool)
        with pytest.raises(RuntimeError):
            run_search(SearchConfig((8,), workers=2))
        assert pools[0].joined

    def test_histogram_keys_are_known(self):
        res = run_search(SearchConfig((10,)))
        known = {"degenerate", "imprimitive", "incomplete-cancellation",
                 "repeated-atom", "equal-sets", "unrecognized-sign-pattern",
                 "ok", "verification-failed"}
        assert set(res.histogram) <= known
        assert res.scanned == sum(
            v for k, v in res.histogram.items() if k != "verification-failed")

