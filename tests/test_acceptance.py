"""End-to-end acceptance checks.

The registry of named checks behind `qshift selftest`
(cli.SELFTEST_CHECKS) runs here at order 1000, each check within a
minute: catalog replay (verification, exact re-derivation of the
parameterized entries, aux-step replay), unit-action class counts, the
two dedicated checks, random four-parameter instances, unit-action
round trips and the counting oracle.  Beside it stand independent pins:
the catalog verified entry by entry within a minute, exact
re-derivation of every direct and quintuple entry, replay and zero-sums
of every aux step, golden parameter tables and aux instances, the manifest's class counts,
search rediscovery of the small-base catalog and an empty base 42
within budget, the normalization grids, theta-function sum/product
agreement, and fast failure of every single-residue mutation.
"""

import random
import time
from collections import Counter
from math import isqrt

import pytest

from qshift.cli import SELFTEST_CHECKS
from qshift.corpus import (
    entries_for_modulus,
    load_corpus,
    load_manifest,
    replay_aux_terms,
)
from qshift.jacobi import derive_identity, verify_zero_combination
from qshift.partitions import (
    PartitionIdentity,
    count_partitions_table,
    verify_identity,
)
from qshift.qseries import Series, mul, pochhammer, shift_scale
from qshift.search import SearchConfig, run_search
from qshift.theta import (
    BRACKET,
    PAREN,
    Atom,
    atom_series,
    make_monomial,
    normalize_atom,
    ramanujan_f_sum,
)

from oracles import ramanujan_f_product


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def brackets(residues, m):
    return tuple(Atom(r, m, BRACKET) for r in residues)


def rescaled(terms, sign, delta):
    """The terms with every sign flipped by sign and every q-power
    shifted by delta: multiplying a zero sum through by sign*q^delta."""
    return {make_monomial(t.c * sign, t.e + delta, t.num, t.den)
            for t in terms}


def theta_sum(e, m, c, n):
    """sum_k c^k q^(m k(k-1)/2 + e k) as a Series of order n."""
    acc = {}
    bound = isqrt(2 * n // m + 4) + (2 * abs(e) + m) // m + 4
    for k in range(-bound, bound + 1):
        exp = m * k * (k - 1) // 2 + e * k
        if exp <= n:
            acc[exp] = acc.get(exp, 0) + (c if k % 2 else 1)
    lo = min(acc)
    return Series(lo, [acc.get(k, 0) for k in range(lo, n + 1)], n)


# ----------------------------------------------------------------------
# 1. the selftest registry at order 1000
# ----------------------------------------------------------------------

class TestRegistry:
    @pytest.mark.parametrize("name, check", SELFTEST_CHECKS,
                             ids=[n.replace(" ", "-")
                                  for n, _ in SELFTEST_CHECKS])
    def test_check_holds_at_order_1000(self, corpus, name, check):
        started = time.perf_counter()
        ok, first_fail, details = check(corpus, 1000, random.Random(0))
        elapsed = time.perf_counter() - started
        assert ok, (name, first_fail, details)
        assert elapsed <= 60.0, f"{name} took {elapsed:.1f}s"

    def test_check_names(self):
        assert [name for name, _ in SELFTEST_CHECKS] == [
            "catalog replay", "unit-action classes", "special rr",
            "special thm72-2", "random four-parameter instances",
            "unit-action inverses", "counting oracle agreement"]


# ----------------------------------------------------------------------
# 2. catalog verification and exact re-derivation, checked directly
# ----------------------------------------------------------------------

class TestCatalogVerification:
    def test_all_entries_verify_within_a_minute(self, corpus):
        assert len(corpus) == 238
        started = time.perf_counter()
        for e in corpus:
            rep = verify_identity(e.identity, 1000)
            assert rep.ok, (e.label, rep.first_fail, rep.witness)
        elapsed = time.perf_counter() - started
        assert elapsed <= 60.0, f"verification took {elapsed:.1f}s"

    def test_moduli_range(self, corpus):
        moduli = {e.identity.M for e in corpus}
        assert min(moduli) == 32 and max(moduli) == 82


class TestParameterizedDerivation:
    def test_every_direct_and_quintuple_entry_rederives_exactly(self,
                                                               corpus):
        targets = [e for e in corpus
                   if e.proof in ("direct", "quintuple")]
        assert len(targets) == 133
        for e in targets:
            d = derive_identity(e.params)
            assert d.ok, (e.label, d.reason)
            assert d.identity == e.identity, e.label

    def test_golden_parameter_tables(self, corpus):
        first = next(e for e in corpus if e.label == "Thm-32.1")
        assert first.params.exponents() == (1, 2, 4, 12, 13)
        mod40 = entries_for_modulus(corpus, 40)
        assert len(mod40) == 6
        assert all(e.proof == "direct" for e in mod40)
        mod46 = entries_for_modulus(corpus, 46)
        assert len(mod46) == 11
        assert all(e.proof == "direct" for e in mod46)
        fifteen = [e for e in corpus if e.label.startswith("Thm-62.1-")]
        assert len(fifteen) == 15
        assert all(e.proof == "direct" for e in fifteen)


# ----------------------------------------------------------------------
# 3. iteration proof steps replay at order 400
# ----------------------------------------------------------------------

class TestIterationSteps:
    def test_every_four_instance_replays_and_sums_to_zero(self, corpus):
        steps = [(e.label, s) for e in corpus for s in (e.aux_steps or ())
                 if s.kind in ("four", "four_signed")]
        assert len(steps) == 30
        for label, step in steps:
            assert replay_aux_terms(step) == step.terms, label
            rep = verify_zero_combination(step.terms, 400)
            assert rep.ok, (label, rep.witness)

    def test_remaining_aux_steps_sum_to_zero(self, corpus):
        rest = [(e.label, s) for e in corpus for s in (e.aux_steps or ())
                if s.kind not in ("four", "four_signed")]
        assert Counter(s.kind for _, s in rest) \
            == {"qp": 2, "bracket": 1, "four2": 1}
        for label, step in rest:
            rep = verify_zero_combination(step.terms, 400)
            assert rep.ok, (label, rep.witness)

    def test_golden_instance_at_base_42(self, corpus):
        (e,) = [x for x in corpus if x.label == "Thm-42.2-i"]
        step = e.aux_steps[0]
        assert step.kind == "four"
        assert step.params == (1, 3, 6, 9, 12)
        # [5,6,9,14:42] - [3,8,11,12:42] = q^3 [2,3,6,17:42]
        stated = {
            make_monomial(1, 0, brackets([5, 6, 9, 14], 42)),
            make_monomial(-1, 0, brackets([3, 8, 11, 12], 42)),
            make_monomial(-1, 3, brackets([2, 3, 6, 17], 42)),
        }
        assert rescaled(step.terms, -1, 7) == stated

    def test_golden_instance_at_base_48(self, corpus):
        (e,) = [x for x in corpus if x.label == "Thm-48.5-i"]
        step = e.aux_steps[1]
        assert step.kind == "four"
        assert step.params == (1, 7, 8, 19, 21)
        # [1,18,20,23:48] + q [6,11,13,16:48] = [7,12,14,17:48]
        stated = {
            make_monomial(1, 0, brackets([1, 18, 20, 23], 48)),
            make_monomial(1, 1, brackets([6, 11, 13, 16], 48)),
            make_monomial(-1, 0, brackets([7, 12, 14, 17], 48)),
        }
        assert rescaled(step.terms, 1, 16) == stated


# ----------------------------------------------------------------------
# 4. the declared class counts
# ----------------------------------------------------------------------

class TestClassification:
    EXPECTED = {32: 1, 40: 2, 42: 3, 46: 1, 48: 7, 50: 4, 52: 1, 54: 4,
                56: 1, 60: 8, 62: 1, 64: 1, 66: 2, 68: 1, 70: 1, 72: 3,
                80: 1, 82: 1}

    def test_manifest_declares_the_paper_class_counts(self):
        declared = load_manifest()["classes_per_modulus"]
        assert {int(m): k for m, k in declared.items()} == self.EXPECTED


# ----------------------------------------------------------------------
# 5. search rediscovery and the empty base 42
# ----------------------------------------------------------------------

class TestSearchRediscovery:
    def test_small_bases_recover_the_catalog(self, corpus):
        res = run_search(SearchConfig(n_values=(16, 20, 23)))
        found = {ident for _, ident in res.found}
        expected = {e.identity for e in corpus
                    if e.identity.M in (32, 40, 46)}
        assert found == expected
        assert Counter(i.M for i in found) == {32: 1, 40: 6, 46: 11}
        params32 = next(p for p, i in res.found if i.M == 32)
        assert params32.exponents() == (1, 2, 4, 12, 13)

    def test_base_42_is_empty_within_budget(self):
        started = time.perf_counter()
        res = run_search(SearchConfig(n_values=(42,)))
        elapsed = time.perf_counter() - started
        assert res.found == ()
        assert res.scanned > 50_000_000
        assert elapsed <= 600.0, f"scan took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# 6. property sweeps at full scale
# ----------------------------------------------------------------------

class TestPropertySweeps:
    def test_bracket_normalization_soundness_full_grid(self):
        for m in range(1, 61):
            n = 5 * m
            for e in range(-3 * m, 3 * m + 1):
                if e % m == 0:
                    continue
                sign, qshift, atom = normalize_atom(e, m, BRACKET)
                inner = mul(atom_series(*atom, n - qshift),
                            pochhammer(m, m, 1, n - qshift))
                assert shift_scale(inner, sign, qshift) \
                    == theta_sum(e, m, -1, n), (e, m)

    def test_paren_normalization_soundness_full_grid(self):
        for m in range(1, 61):
            n = 5 * m
            for e in range(-3 * m, 3 * m + 1):
                sign, qshift, atom = normalize_atom(e, m, PAREN)
                inner = mul(atom_series(*atom, n - qshift),
                            pochhammer(m, m, 1, n - qshift))
                assert sign == 1
                assert shift_scale(inner, 1, qshift) \
                    == theta_sum(e, m, 1, n), (e, m)

    def test_f_sum_equals_f_product_to_order_300(self):
        for sa in (1, -1):
            for sb in (1, -1):
                for ea in range(1, 13):
                    for eb in range(1, 13):
                        args = (sa, ea, sb, eb)
                        assert ramanujan_f_sum(args, 300) \
                            == ramanujan_f_product(args, 300), args

# ----------------------------------------------------------------------
# 7. mutation sensitivity
# ----------------------------------------------------------------------

def oracle_failure(ident, n):
    """First index where the DP counts break the relation, with the
    (left count, right count) there; None when it holds to order n."""
    ps = count_partitions_table(ident.S, ident.M, n)
    pt = count_partitions_table(ident.T, ident.M, n)
    for k in range(n + 1):
        if ident.kind == "shifted":
            rhs = pt[k - ident.a] if k >= ident.a else 0
            want = 1 if k == 0 else 0
        else:
            rhs = pt[k]
            want = 1 if k == ident.a else 0
        if ps[k] - rhs != want:
            return k, (ps[k], rhs)
    return None


class TestMutationSensitivity:
    def test_fifty_single_residue_mutations_all_fail_fast(self, corpus):
        rng = random.Random(141421)
        done = 0
        while done < 50:
            e = rng.choice(corpus)
            ident = e.identity
            side = rng.choice(("S", "T"))
            base = set(getattr(ident, side))
            half = ident.M // 2
            drop = rng.choice(sorted(base))
            add = rng.choice(sorted(set(range(1, half + 1)) - base))
            mutated = frozenset(base - {drop} | {add})
            S, T = ((mutated, ident.T) if side == "S"
                    else (ident.S, mutated))
            if S == T:
                continue
            mutant = PartitionIdentity(ident.M, S, T, ident.kind, ident.a)
            rep = verify_identity(mutant, 100)
            assert not rep.ok, (e.label, side, drop, add)
            assert rep.first_fail is not None and rep.first_fail <= 100
            assert rep.witness is not None
            want = oracle_failure(mutant, 100)
            assert (rep.first_fail, rep.witness) == want, (e.label, side)
            done += 1
