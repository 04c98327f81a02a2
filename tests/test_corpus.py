"""Tests for the shipped catalog, its loader, and its validator.

The catalog itself is the main fixture: loading must reproduce the
manifest exactly, every direct and quintuple entry must re-derive from
its parameters, and every iteration aux step must both match its
generator and sum to zero as a series.  Loader error paths are exercised
through mutated copies of real records.
"""

import json
from collections import Counter

import pytest

from qshift.corpus import (
    AUX_KINDS,
    DuplicateLabel,
    ParseError,
    SchemaViolation,
    entries_for_modulus,
    entry_from_record,
    load_corpus,
    load_manifest,
    replay_aux_terms,
    validate_corpus,
)
from qshift.partitions import SHIFTED, SHIFTLESS

EXPECTED_PER_MODULUS = {32: 1, 40: 6, 42: 15, 46: 11, 48: 23, 50: 35,
                        52: 6, 54: 36, 56: 6, 60: 32, 62: 15, 64: 8,
                        66: 15, 68: 8, 70: 1, 72: 13, 80: 2, 82: 5}


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


@pytest.fixture(scope="module")
def records(catalog_doc):
    return catalog_doc["entries"]


def write_doc(tmp_path, records):
    per_mod = Counter(r["modulus"] for r in records)
    doc = {"manifest": {"total": len(records),
                        "per_modulus": {str(k): v
                                        for k, v in per_mod.items()}},
           "entries": records}
    p = tmp_path / "catalog.json"
    p.write_text(json.dumps(doc))
    return p


# ----------------------------------------------------------------------
# loading the shipped catalog
# ----------------------------------------------------------------------

class TestLoad:
    def test_total_and_per_modulus(self, corpus):
        assert len(corpus) == 238
        counts = Counter(e.identity.M for e in corpus)
        assert dict(counts) == EXPECTED_PER_MODULUS

    def test_manifest_matches(self, corpus):
        manifest = load_manifest()
        assert manifest["total"] == len(corpus)
        assert {int(k): v for k, v in manifest["per_modulus"].items()} \
            == EXPECTED_PER_MODULUS

    def test_labels_unique_and_well_formed(self, corpus):
        labels = [e.label for e in corpus]
        assert len(set(labels)) == len(labels)
        for label in labels:
            head, _, item = label.partition("-")[2].partition("-")
            assert label.startswith("Thm-")
            mod = int(head.split(".")[0])
            assert mod in EXPECTED_PER_MODULUS
            assert item == "" or set(item) <= set("ivx")

    def test_first_entry_golden(self, corpus):
        e = corpus[0]
        assert e.label == "Thm-32.1"
        assert e.identity.M == 32
        assert e.identity.kind == SHIFTED
        assert e.identity.a == 1
        assert e.identity.S == frozenset({1, 3, 4, 5, 6, 7, 8, 9, 10,
                                          11, 13, 15})
        assert e.identity.T == frozenset({1, 2, 3, 5, 7, 8, 9, 11, 12,
                                          13, 14, 15})
        assert e.proof == "direct"
        assert e.params.exponents() == (1, 2, 4, 12, 13)
        assert e.params.n == 16

    def test_proof_field_shapes(self, corpus):
        hist = Counter(e.proof for e in corpus)
        assert hist == {"direct": 130, "iteration": 103,
                        "quintuple": 3, "special": 2}
        for e in corpus:
            assert (e.params is not None) \
                == (e.proof in ("direct", "quintuple"))
            assert (e.aux_steps is not None) == (e.proof == "iteration")

    def test_aux_step_census(self, corpus):
        kinds = Counter(s.kind for e in corpus if e.aux_steps
                        for s in e.aux_steps)
        assert set(kinds) <= set(AUX_KINDS)
        assert kinds == {"four": 28, "four_signed": 2,
                         "qp": 2, "bracket": 1, "four2": 1}

    def test_printed_label_anomaly_kept(self, corpus):
        labels = {e.label for e in corpus}
        assert "Thm-50.3-xi" in labels
        assert "Thm-50.3-ix" not in labels

    def test_corrected_relation_entry(self, corpus):
        (e,) = [x for x in corpus if x.label == "Thm-66.2-ix"]
        assert e.identity.kind == SHIFTLESS
        assert e.identity.a == 2
        assert e.identity.S == frozenset({1, 2, 7, 10, 11, 15, 18, 19,
                                          23, 26, 27, 29})
        assert "constant term" in e.notes

    def test_special_entries(self, corpus):
        special = {e.label for e in corpus if e.proof == "special"}
        assert special == {"Thm-70.1", "Thm-72.2"}


# ----------------------------------------------------------------------
# round trip and loader error paths
# ----------------------------------------------------------------------

class TestRoundTrip:
    def test_load_from_explicit_path(self, tmp_path, corpus, records):
        path = write_doc(tmp_path, records)
        assert load_corpus(path) == corpus


class TestLoaderErrors:
    def test_duplicate_label(self, tmp_path, records):
        path = write_doc(tmp_path, records[:3] + [records[0]])
        with pytest.raises(DuplicateLabel):
            load_corpus(path)

    def test_residue_out_of_range(self, tmp_path, records):
        bad = json.loads(json.dumps(records[0]))
        bad["S"][0] = bad["modulus"]
        with pytest.raises(SchemaViolation):
            load_corpus(write_doc(tmp_path, [bad]))

    def test_unknown_proof_kind(self, tmp_path, records):
        bad = json.loads(json.dumps(records[0]))
        bad["proof"] = "guesswork"
        with pytest.raises(SchemaViolation):
            load_corpus(write_doc(tmp_path, [bad]))

    def test_params_proof_mismatch(self, tmp_path, records):
        bad = json.loads(json.dumps(records[0]))
        bad["params"] = None
        bad["n"] = None
        with pytest.raises(SchemaViolation):
            load_corpus(write_doc(tmp_path, [bad]))

    def test_aux_on_direct_entry(self, tmp_path, records):
        bad = json.loads(json.dumps(records[0]))
        bad["aux_steps"] = []
        with pytest.raises(SchemaViolation):
            load_corpus(write_doc(tmp_path, [bad]))

    def test_missing_field(self, tmp_path, records):
        bad = json.loads(json.dumps(records[0]))
        del bad["shift"]
        with pytest.raises(ParseError):
            load_corpus(write_doc(tmp_path, [bad]))

    def test_not_json(self, tmp_path):
        p = tmp_path / "catalog.json"
        p.write_text("not json {")
        with pytest.raises(ParseError):
            load_corpus(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_corpus(tmp_path / "absent.json")

    @pytest.mark.parametrize("path,value", [
        (("entries",), 5),
        (("manifest",), []),
        (("manifest", "per_modulus"), []),
    ], ids=["entries", "manifest", "per_modulus"])
    def test_malformed_document(self, tmp_path, records, path, value):
        doc_path = write_doc(tmp_path, records[:2])
        doc = json.loads(doc_path.read_text())
        *keys, last = path
        target = doc
        for k in keys:
            target = target[k]
        target[last] = value
        doc_path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_corpus(doc_path)

    def test_manifest_count_mismatch(self, tmp_path, records):
        path = write_doc(tmp_path, records[:2])
        doc = json.loads(path.read_text())
        doc["manifest"]["total"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_corpus(path)


# ----------------------------------------------------------------------
# numerical validation
# ----------------------------------------------------------------------

class TestValidate:
    def test_full_corpus_passes(self, corpus):
        report = validate_corpus(corpus, order=300)
        assert report.ok, [r for r in report.failures][:3]
        assert len(report.results) == len(corpus)

    def test_aux_steps_match_generators(self, corpus):
        seen_literal = 0
        for e in corpus:
            for step in e.aux_steps or ():
                expected = replay_aux_terms(step)
                if expected is None:
                    seen_literal += 1
                    assert step.kind == "bracket"
                else:
                    assert expected == step.terms
        assert seen_literal == 1

    def test_corrupted_residue_reported(self, corpus, records):
        rec = json.loads(json.dumps(records[0]))
        rec["S"] = sorted(set(rec["S"]) - {4} | {2})
        bad = entry_from_record(rec)
        report = validate_corpus([bad], order=120)
        assert not report.ok
        (fail,) = report.failures
        assert "exponent" in fail.detail
        assert "different identity" in fail.detail

    def test_tampered_aux_step_reported(self, records):
        (rec,) = [r for r in records if r["label"] == "Thm-48.5-i"]
        rec = json.loads(json.dumps(rec))
        rec["aux_steps"][0]["terms"][0]["qexp"] += 1
        bad = entry_from_record(rec)
        report = validate_corpus([bad], order=120)
        assert not report.ok
        (fail,) = report.failures
        assert "generator" in fail.detail
        assert "aux step 0 fails" in fail.detail

    def test_degenerate_parameters_raise(self, records):
        # a = b makes the bracket [a - b : n] vanish
        (direct,) = [r for r in records if r["label"] == "Thm-32.1"]
        (iteration,) = [r for r in records if r["label"] == "Thm-42.2-i"]
        direct = json.loads(json.dumps(direct))
        direct["params"] = [1, 1, 2, 3, 4]
        iteration = json.loads(json.dumps(iteration))
        iteration["aux_steps"][0]["params"] = [1, 1, 2, 3, 4]
        for rec in (direct, iteration):
            with pytest.raises(SchemaViolation, match="vanishes"):
                validate_corpus([entry_from_record(rec)], order=50)

    def test_entries_for_modulus(self, corpus):
        ents = entries_for_modulus(corpus, 46)
        assert len(ents) == 11
        assert all(e.identity.M == 46 for e in ents)
