"""End-to-end acceptance checks.

Each class exercises one headline guarantee of the package: the full
catalog verifies at order 1000 within a minute; every parameterized
entry re-derives exactly; the iteration proof steps replay; unit-action
classification reproduces the declared class counts; the search
rediscovers the small-base catalog and comes back empty at base 42
within budget; the two dedicated checks pass at their stated orders;
the seeded property sweeps hold at full scale; and the verifier detects
every single-residue mutation quickly.
"""

import random
import time
from collections import Counter
from math import isqrt

import pytest

from qshift.corpus import entries_for_modulus, load_corpus, replay_aux_terms
from qshift.equivalence import classify
from qshift.jacobi import (
    FourParams,
    derive_identity,
    four2_terms,
    four_instance,
    reduce_term,
    verify_zero_combination,
)
from qshift.partitions import (
    PartitionIdentity,
    count_partitions_table,
    rogers_ramanujan_check,
    verify_identity,
    verify_theorem_72_2,
)
from qshift.qseries import Series, mul, pochhammer, residue_product, shift_scale
from qshift.search import SearchConfig, run_search
from qshift.theta import (
    BRACKET,
    PAREN,
    Atom,
    DegenerateZero,
    FMono,
    ThetaMonomial,
    atom_series,
    make_monomial,
    monomial_neg,
    normalize_atom,
    normalize_paren,
    ramanujan_f_product,
    ramanujan_f_sum,
)

MINUS_ONE = ThetaMonomial(-1, 0, (), ())


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def brackets(residues, m):
    return tuple(Atom(r, m, BRACKET) for r in residues)


def rescaled(terms, sign, delta):
    """The terms with every sign flipped by sign and every q-power
    shifted by delta: multiplying a zero sum through by sign*q^delta."""
    return {make_monomial(t.sign * sign, t.qexp + delta, t.num, t.den)
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
# 1. full catalog verification at order 1000
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


# ----------------------------------------------------------------------
# 2. exact re-derivation of every parameterized entry
# ----------------------------------------------------------------------

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
# 4. unit-action class counts
# ----------------------------------------------------------------------

class TestClassification:
    EXPECTED = {32: 1, 40: 2, 42: 3, 46: 1, 48: 7, 50: 4, 52: 1, 54: 4,
                56: 1, 60: 8, 62: 1, 64: 1, 66: 2, 68: 1, 70: 1, 72: 3,
                80: 1, 82: 1}

    def test_class_counts_per_modulus(self, corpus):
        got = {}
        for modulus in sorted({e.identity.M for e in corpus}):
            idents = [e.identity
                      for e in entries_for_modulus(corpus, modulus)]
            got[modulus] = len(classify(idents))
        assert got == self.EXPECTED


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
# 6. the two dedicated checks
# ----------------------------------------------------------------------

class TestSpecialChecks:
    def test_mod_5_shifted_pair_at_order_1000(self):
        rep = rogers_ramanujan_check(1000)
        assert rep.ok
        assert len(rep.checks) == 2
        assert all(c.first_fail is None for c in rep.checks)

    def test_mod_72_dissection_chain_at_order_600(self):
        rep = verify_theorem_72_2(600)
        assert rep.ok
        assert len(rep.checks) == 8
        assert rep.checks[-1].name == "p(S,n) = p(T,n-1) at modulus 72"


# ----------------------------------------------------------------------
# 7. property sweeps at full scale (seeded)
# ----------------------------------------------------------------------

class TestPropertySweeps:
    def test_two_hundred_random_master_relation_instances(self):
        # 110 four + 90 four2, each summing to zero at order 150
        rng = random.Random(173205)
        done = 0
        while done < 110:
            n = rng.randint(2, 14)
            p = FourParams(*(rng.randint(1, 3 * n) for _ in range(5)), n=n)
            try:
                left1, left2, right = four_instance(p)
            except DegenerateZero:
                continue
            terms = (left1, left2, monomial_neg(right))
            assert verify_zero_combination(terms, 150).ok, p
            done += 1
        done = 0
        while done < 90:
            n = rng.randint(2, 10)
            p = FourParams(*(rng.randint(1, 2 * n) for _ in range(5)), n=n)
            try:
                t1, t2 = four2_terms(p)
                terms = (reduce_term(t1), reduce_term(t2), MINUS_ONE)
            except DegenerateZero:
                continue
            assert verify_zero_combination(terms, 150).ok, p
            done += 1

    def test_bracket_normalization_soundness_full_grid(self):
        for m in range(1, 61):
            n = 5 * m
            qm = pochhammer(m, m, 1, n)
            for e in range(-3 * m, 3 * m + 1):
                if e % m == 0:
                    continue
                sign, qshift, r = normalize_atom(e, m)
                inner = mul(atom_series(r, m, BRACKET, n - qshift),
                            qm.truncate(n - qshift))
                assert shift_scale(inner, sign, qshift) \
                    == theta_sum(e, m, -1, n), (e, m)

    def test_paren_normalization_soundness_full_grid(self):
        for m in range(1, 61):
            n = 5 * m
            qm = pochhammer(m, m, 1, n)
            for e in range(-3 * m, 3 * m + 1):
                qshift, r = normalize_paren(e, m)
                inner = mul(atom_series(r, m, PAREN, n - qshift),
                            qm.truncate(n - qshift))
                assert shift_scale(inner, 1, qshift) \
                    == theta_sum(e, m, 1, n), (e, m)

    def test_f_sum_equals_f_product_to_order_300(self):
        for sa in (1, -1):
            for sb in (1, -1):
                for ea in range(1, 13):
                    for eb in range(1, 13):
                        a, b = FMono(sa, ea), FMono(sb, eb)
                        assert ramanujan_f_sum(a, b, 300) \
                            == ramanujan_f_product(a, b, 300), (a, b)

    def test_counting_oracle_agrees_with_series_to_200(self, corpus):
        seen = set()
        for e in corpus:
            for side in (e.identity.S, e.identity.T):
                key = (side, e.identity.M)
                if key in seen:
                    continue
                seen.add(key)
                table = count_partitions_table(side, e.identity.M, 200)
                series = residue_product(side, e.identity.M, 200)
                bad = next((k for k in range(201)
                            if table[k] != series.coeff(k)), None)
                assert bad is None, (e.label, key, bad)
        assert len(seen) > 200


# ----------------------------------------------------------------------
# 8. mutation sensitivity
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
