"""Tests for the pruned parameter search.

The load-bearing check is an oracle comparison: on a small base the
vectorized scan must agree tuple-for-tuple with a direct loop that
derives every enumerated parameter set, both in the outcome histogram
and in the surviving identities.
"""

import tracemalloc
from collections import Counter
from math import gcd

import pytest

from qshift import search
from qshift.jacobi import derive_identity
from qshift.partitions import verify_identity
from qshift.search import (
    SearchConfig,
    enumerate_params,
    run_search,
)
from qshift.theta import DegenerateZero


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
            search._prefilter(16, 1, 2, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = bound * (bound + 1) // 2
        assert peak <= bound * pairs * search.PREFILTER_BYTES_PER_TUPLE


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

