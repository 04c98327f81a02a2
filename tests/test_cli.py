"""Tests for the command-line surface.

The exit-code contract is the backbone: 0 when every check passes, 1
when a mathematical check fails (exercised through mutated sets and
non-identity parameters), 2 for usage and input errors.  JSON output
must be schema-stable and carry the same verdict as the text rendering.
"""

import copy
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from qshift import cli, partitions
from qshift.cli import SELFTEST_CHECKS, main, order_ceiling
from qshift.corpus import load_corpus, load_manifest
from qshift.equivalence import NotAnIdentity
from qshift.jacobi import four_terms
from qshift.partitions import count_partitions_table

GOOD_S = "1,3,4,5,6,7,8,9,10,11,13,15"
BAD_S = "2,3,4,5,6,7,8,9,10,11,13,15"
GOOD_T = "1,2,3,5,7,8,9,11,12,13,14,15"

REPORT_KEYS = {"command", "status", "headline", "items", "timing"}
ITEM_KEYS = {"label", "status", "first_failing_exponent", "details"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def write_catalog(path, rec):
    """Write a one-entry catalog file holding rec; return its path."""
    doc = {"manifest": {"total": 1,
                        "per_modulus": {str(rec["modulus"]): 1}},
           "entries": [rec]}
    path.write_text(json.dumps(doc))
    return str(path)


def shipped_record(catalog_doc, label):
    """A copy of the shipped catalog's raw record with this label."""
    (rec,) = [r for r in catalog_doc["entries"] if r["label"] == label]
    return copy.deepcopy(rec)


@pytest.fixture()
def tiny_corpus(tmp_path, catalog_doc):
    """A one-entry catalog file whose identity is false."""
    rec = copy.deepcopy(catalog_doc["entries"][0])
    rec["S"] = sorted(set(rec["S"]) - {4} | {2})
    return write_catalog(tmp_path / "broken.json", rec)


# malformed aux steps of Thm-42.2-i: (name, path into the record, value)
MALFORMED_AUX = [
    ("params-arity", ("aux_steps", 0, "params"), [1, 2]),
    ("params-not-a-list", ("aux_steps", 0, "params"), 7),
    ("param-zero", ("aux_steps", 0, "params", 0), 0),
    ("base-not-an-int", ("aux_steps", 0, "n"), "x"),
    ("terms-not-a-list", ("aux_steps", 0, "terms"), 5),
    ("aux-steps-not-a-list", ("aux_steps",), 3),
    ("qexp-not-an-int", ("aux_steps", 0, "terms", 0, "qexp"), "a"),
    ("atom-step-zero", ("aux_steps", 0, "terms", 0, "num", 0), [1, 0, "b"]),
    ("paren-zero-in-den", ("aux_steps", 0, "terms", 0, "den"),
     [[0, 42, "p"]]),
]

# malformed identity fields: (name, label, path into the record, value);
# a bool residue or shift equal to 1 was read as 1, the others crashed
MALFORMED_FIELDS = [
    ("residue-float", "Thm-42.2-i", ("S", 0), 1.5),
    ("residue-bool", "Thm-42.2-i", ("S", 0), True),
    ("residues-not-a-list", "Thm-42.2-i", ("T",), 5),
    ("shift-float", "Thm-42.2-i", ("shift",), 1.0),
    ("shift-bool", "Thm-42.2-i", ("shift",), True),
    ("modulus-float", "Thm-42.2-i", ("modulus",), 42.0),
    ("param-float", "Thm-32.1", ("params", 0), 1.5),
    ("param-bool", "Thm-32.1", ("params", 0), True),
    ("base-float", "Thm-32.1", ("n",), 16.0),
]


def verify_mutated(tmp_path, rec, path, value):
    """Run qshift verify in a subprocess on rec with the value at path."""
    *keys, last = path
    target = rec
    for k in keys:
        target = target[k]
    target[last] = value
    return subprocess.run(
        [sys.executable, "-m", "qshift.cli", "verify", "--order", "100",
         "--corpus", write_catalog(tmp_path / "bad.json", rec)],
        capture_output=True, text=True)


# ----------------------------------------------------------------------
# exit-code contract
# ----------------------------------------------------------------------

class TestExitCodes:
    def test_verify_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--modulus", "46",
                           "--order", "150")
        assert code == 0
        assert "11 entries" in out

    def test_verify_math_failure(self, capsys, tiny_corpus):
        code, out, _ = run(capsys, "verify", "--corpus", tiny_corpus,
                           "--order", "120")
        assert code == 1
        assert "fail" in out

    def test_probe_record_passes_unmutated(self, capsys, tmp_path,
                                           catalog_doc):
        rec = shipped_record(catalog_doc, "Thm-42.2-i")
        code, _, _ = run(capsys, "verify", "--order", "100", "--corpus",
                         write_catalog(tmp_path / "good.json", rec))
        assert code == 0

    def test_params_probe_record_passes_unmutated(self, capsys, tmp_path,
                                                  catalog_doc):
        rec = shipped_record(catalog_doc, "Thm-32.1")
        code, _, _ = run(capsys, "verify", "--order", "100", "--corpus",
                         write_catalog(tmp_path / "good.json", rec))
        assert code == 0

    @pytest.mark.parametrize("path,value", [p[1:] for p in MALFORMED_AUX],
                             ids=[p[0] for p in MALFORMED_AUX])
    def test_malformed_aux_step(self, tmp_path, catalog_doc, path, value):
        rec = shipped_record(catalog_doc, "Thm-42.2-i")
        proc = verify_mutated(tmp_path, rec, path, value)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("label,path,value",
                             [p[1:] for p in MALFORMED_FIELDS],
                             ids=[p[0] for p in MALFORMED_FIELDS])
    def test_malformed_identity_field(self, tmp_path, catalog_doc, label,
                                      path, value):
        proc = verify_mutated(tmp_path, shipped_record(catalog_doc, label),
                              path, value)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_verify_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--corpus",
                           str(tmp_path / "none.json"))
        assert code == 2
        assert "error:" in err

    def test_verify_unknown_modulus(self, capsys):
        code, _, err = run(capsys, "verify", "--modulus", "99",
                           "--order", "120")
        assert code == 2
        assert "99" in err

    def test_verify_one_pass(self, capsys):
        code, out, _ = run(capsys, "verify-one", "--modulus", "32",
                           "--shift", "1", "--kind", "shifted",
                           "--s", GOOD_S, "--t", GOOD_T,
                           "--order", "150")
        assert code == 0

    def test_verify_one_mutated_set(self, capsys):
        code, out, _ = run(capsys, "verify-one", "--modulus", "32",
                           "--shift", "1", "--kind", "shifted",
                           "--s", BAD_S, "--t", GOOD_T,
                           "--order", "150")
        assert code == 1
        assert "first failing exponent 1" in out

    def test_verify_one_bad_residue(self, capsys):
        code, _, err = run(capsys, "verify-one", "--modulus", "32",
                           "--shift", "1", "--kind", "shifted",
                           "--s", "1,99", "--t", GOOD_T,
                           "--order", "150")
        assert code == 2

    def test_verify_one_garbage_list(self, capsys):
        code, _, err = run(capsys, "verify-one", "--modulus", "32",
                           "--shift", "1", "--kind", "shifted",
                           "--s", "1,two,3", "--t", GOOD_T)
        assert code == 2
        assert "--s" in err

    def test_derive_pass(self, capsys):
        code, out, _ = run(capsys, "derive", "--params", "1,2,4,12,13",
                           "--base", "16", "--order", "200")
        assert code == 0
        assert "mod 32" in out
        assert "p(S,n) = p(T,n-1)" in out

    def test_derive_non_identity(self, capsys):
        code, out, _ = run(capsys, "derive", "--params", "1,2,3,4,5",
                           "--base", "16", "--order", "120")
        assert code == 1
        assert "no identity" in out

    def test_derive_degenerate(self, capsys):
        code, out, _ = run(capsys, "derive", "--params", "1,2,18,5,9",
                           "--base", "16", "--order", "120")
        assert code == 1
        assert "degenerate" in out

    def test_derive_wrong_arity(self, capsys):
        code, _, err = run(capsys, "derive", "--params", "1,2,3",
                           "--base", "16")
        assert code == 2
        assert "five" in err

    def test_derive_nonpositive_exponent(self, capsys):
        code, _, err = run(capsys, "derive", "--params", "0,2,4,12,13",
                           "--base", "16")
        assert code == 2

    def test_classify_pass(self, capsys):
        code, out, _ = run(capsys, "classify", "--modulus", "48")
        assert code == 0
        assert out.startswith("7 classes")

    def test_classify_unknown_modulus(self, capsys):
        code, _, err = run(capsys, "classify", "--modulus", "99")
        assert code == 2

    def test_classify_fails_an_identity_outside_its_own_orbit(
            self, tmp_path, catalog_doc):
        # Thm-32.1's sets satisfy the 1-shifted relation, so its alpha = 1
        # image is that relation, not the entry with shift 2: the entry
        # never leaves the list of unclassified identities unless refused
        doc = copy.deepcopy(catalog_doc)
        (rec,) = [r for r in doc["entries"] if r["label"] == "Thm-32.1"]
        rec["shift"] = 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "qshift.cli", "classify", "--modulus",
             "32", "--corpus", str(path)],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1
        assert proc.stdout.startswith("classification failed")
        assert "shifted identity a=2 to another relation (M=32)" \
            in proc.stdout

    def test_act_fails_a_source_that_does_not_hold(self, tmp_path,
                                                   catalog_doc):
        # Thm-32.1's sets satisfy the 1-shifted relation, so the alpha = 1
        # image is a true relation even when the entry says shift 2: only
        # checking the source first refuses it
        doc = copy.deepcopy(catalog_doc)
        (rec,) = [r for r in doc["entries"] if r["label"] == "Thm-32.1"]
        rec["shift"] = 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "qshift.cli", "act", "--label", "Thm-32.1",
             "--alpha", "1", "--corpus", str(path)],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1
        assert proc.stdout.startswith("source is a non-relation at order 300")
        assert "Thm-32.1: fail (first failing exponent 1)" in proc.stdout

    def test_act_pass(self, capsys):
        code, out, _ = run(capsys, "act", "--alpha", "5",
                           "--label", "Thm-32.1")
        assert code == 0
        assert "mod 32" in out

    def test_act_non_identity_input(self, capsys):
        code, out, _ = run(capsys, "act", "--alpha", "5",
                           "--modulus", "32", "--shift", "1",
                           "--kind", "shifted",
                           "--s", BAD_S, "--t", GOOD_T,
                           "--order", "150")
        assert code == 1
        assert "non-relation" in out

    def test_act_non_unit_alpha(self, capsys):
        code, _, err = run(capsys, "act", "--alpha", "2",
                           "--label", "Thm-32.1")
        assert code == 2
        assert "unit" in err

    def test_act_unknown_label(self, capsys):
        code, _, err = run(capsys, "act", "--alpha", "5",
                           "--label", "Thm-9.9")
        assert code == 2

    def test_act_incomplete_flags(self, capsys):
        code, _, err = run(capsys, "act", "--alpha", "5",
                           "--modulus", "32")
        assert code == 2
        assert "--shift" in err

    def test_act_refuses_an_order_where_two_relations_hold(self, capsys):
        # through q^3 the swapped pair also holds shifted by 1, so the
        # identity mapped by alpha = 1 is told from it only at order 4;
        # act checks the source first, and order 3 cannot see its shift
        argv = ("act", "--alpha", "1", "--modulus", "40",
                "--kind", "shiftless", "--shift", "2",
                "--s", "1,2,5,6,7,8,9,11,12,13,15,19",
                "--t", "1,3,4,5,6,7,8,13,14,15,17,19")
        code, out, err = run(capsys, *argv, "--order", "3")
        assert (code, out) == (2, "")
        assert err == "error: order 3 cannot see a shift of 2\n"
        # Thm-40.1-i (shift 1) holds through q^3, and so does a second
        # relation of its alpha = 1 image
        code, out, err = run(capsys, "act", "--alpha", "1", "--label",
                             "Thm-40.1-i", "--order", "3")
        assert (code, out) == (2, "")
        assert err == ("error: order 3 cannot tell apart the 2 relations "
                       "that hold through it\n")
        code, out, _ = run(capsys, *argv, "--order", "4")
        assert code == 0
        assert ("alpha=1 image: S = +-{1,2,5,6,7,8,9,11,12,13,15,19} mod 40,"
                " T = +-{1,3,4,5,6,7,8,13,14,15,17,19} mod 40,"
                " p(S,n) = p(T,n) for all n != 2; holds to order 4") in out

    # Thm-42.2-iii is shiftless with a = 8, so infer_relation, which
    # admits shifts up to order // 2, sees it from order 16
    @pytest.mark.parametrize("argv", [
        ("act", "--label", "Thm-42.2-iii", "--alpha", "1"),
        ("classify", "--modulus", "42")])
    def test_order_below_twice_the_shift_is_a_usage_error(self, capsys,
                                                          argv):
        code, out, err = run(capsys, *argv, "--order", "15")
        assert code == 2
        assert out == ""
        assert err == ("error: order 15 cannot infer a shift of 8, "
                       "which needs order 16\n")
        for order in ("16", "20"):
            code, out, _ = run(capsys, *argv, "--order", order)
            assert code == 0
            assert "status: pass" in out

    def test_order_below_a_shiftless_shift_is_a_usage_error(self, capsys):
        # a shiftless image whose sides first differ at d = 6 has equal
        # counts through q^3: no candidate holds, and the order cannot
        # see the shift, which is not a failed identity
        code, out, err = run(capsys, "classify", "--modulus", "48",
                             "--order", "3")
        assert (code, out) == (2, "")
        assert err == "error: order 3 cannot see a shift of 6\n"
        code, out, _ = run(capsys, "classify", "--modulus", "48",
                           "--order", "20")
        assert code == 0
        assert out.startswith("7 classes")

    def test_special_rr(self, capsys):
        code, out, _ = run(capsys, "special", "--rr", "--order", "150")
        assert code == 0
        assert "2 pass" in out

    def test_special_dissection(self, capsys):
        code, out, _ = run(capsys, "special", "--thm72-2",
                           "--order", "150")
        assert code == 0
        assert "7 pass" in out

    def test_special_requires_choice(self, capsys):
        code, _, _ = run(capsys, "special")
        assert code == 2

    def test_expand_pass(self, capsys):
        code, out, _ = run(capsys, "expand", "--s", "1,2",
                           "--modulus", "5", "--order", "12")
        assert code == 0
        tail = out.splitlines()[1].rsplit("  ", 1)[-1]
        assert [int(v) for v in tail.split()] \
            == count_partitions_table({1, 2}, 5, 12)

    def test_expand_unfolded_residue(self, capsys):
        code, _, err = run(capsys, "expand", "--s", "1,4",
                           "--modulus", "5", "--order", "12")
        assert code == 2
        assert "folded" in err

    def test_expand_negative_order(self, capsys):
        code, _, _ = run(capsys, "expand", "--s", "1",
                         "--modulus", "5", "--order", "-3")
        assert code == 2

    @pytest.mark.parametrize("order", ["-1", "-2"])
    @pytest.mark.parametrize("argv", [
        ("act", "--label", "Thm-32.1", "--alpha", "3"),
        ("classify", "--modulus", "32"),
        ("verify", "--modulus", "32"),
    ], ids=["act", "classify", "verify"])
    def test_negative_order_is_a_usage_error(self, capsys, argv, order):
        code, out, err = run(capsys, *argv, "--order", order)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --order must be nonnegative")

    @pytest.mark.parametrize("argv", [
        ("verify-one", "--modulus", "32", "--shift", "1", "--kind",
         "shifted", "--s", GOOD_S, "--t", GOOD_T, "--order", "10000000"),
        ("verify", "--order", str(order_ceiling() + 1)),
        ("expand", "--s", "1", "--modulus", "5", "--order", "10" * 20),
    ], ids=["verify-one", "verify", "expand"])
    def test_huge_order_is_a_usage_error(self, capsys, argv):
        started = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - started < 5
        assert code == 2
        assert out == ""
        assert err.startswith("error: --order")
        assert f"ceiling of {order_ceiling()}" in err

    def test_documented_order_ceiling(self):
        # the figure the README and order_ceiling's docstring give
        assert order_ceiling() == 273686

    def test_search_empty_base(self, capsys, tmp_path):
        out_file = tmp_path / "found.json"
        code, out, _ = run(capsys, "search", "--n", "6",
                           "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert set(doc) == {"bases", "bound", "scanned", "rejects",
                            "found"}
        assert doc["bases"] == [6]
        assert doc["found"] == []
        assert doc["scanned"] > 0

    def test_search_finds_modulus_32(self, capsys, tmp_path):
        out_file = tmp_path / "found.json"
        code, out, _ = run(capsys, "search", "--n", "16",
                           "--out", str(out_file))
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert len(doc["found"]) == 1
        rec = doc["found"][0]
        assert rec["modulus"] == 32
        # the item names the order run_search verified the identity at
        (line,) = [l for l in out.splitlines() if "params=" in l]
        assert line.endswith("; holds to order 200")
        assert line.startswith("  n=16 params=1,2,4,12,13: pass  S = +-{")
        assert rec["provenance"] == {"source": "search",
                                     "params": [1, 2, 4, 12, 13],
                                     "n": 16}

    @pytest.mark.parametrize("bases, digest", [
        ("16,20,23",
         "370aab551e91f6c89bb35374bd7e7fa0125e6e4987bd0eb6d4dd32b27359c53d"),
        ("29",
         "e9072d70c900cecdf630875167da3fed3d1bd1389f4005cfe0dba9edbdf90d56"),
        # the histogram lists "ok" before "repeated-atom"
        ("24",
         "61299c2382e8656c808a89860dbf308760eb9a660d271c21391930b8c97530f3"),
        # n > 2 bound - 1: the class axes are the raw differences
        ("40 --bound 12",
         "dce8b7d2a5adab8c0d24d14f5746cc13b883266dab9e70e9abd29a08439d2b37"),
        # bound > n: the differences wrap mod n
        ("12 --bound 20",
         "b38f38e80015e727596941ac5a6e7ad11bcfb349df551fea00139e18e16c9d63"),
    ])
    def test_search_output_is_pinned(self, capsys, tmp_path, bases, digest):
        # the bytes a scan of every (n, a, b) unit in lexicographic order
        # writes: scanned, the reject keys in order and the least tuple
        # of each identity, which the scan of each unordered {a, b} once,
        # diagonal by diagonal, must reproduce
        out_file = tmp_path / "found.json"
        code, _, _ = run(capsys, "search", "--n", *bases.split(),
                         "--out", str(out_file))
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest

    def test_bases_16_to_41_find_exactly_the_parameterized_catalog(
            self, capsys, tmp_path):
        # bases 16 to 41, with two workers, find the catalog's 133 direct
        # and quintuple entries and nothing else, and write the pinned
        # file: the first row of the search's measured table
        out_file = tmp_path / "found.json"
        code, _, _ = run(capsys, "search", "--n",
                         ",".join(map(str, range(16, 42))), "--workers", "2",
                         "--out", str(out_file))
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
            "d639d5fdab296a97ddfcc922b73592d383b9f3f559356a426709bb3858c01343")

        def key(modulus, kind, shift, S, T):
            return modulus, kind, shift, tuple(sorted(S)), tuple(sorted(T))

        found = [key(r["modulus"], r["kind"], r["shift"], r["S"], r["T"])
                 for r in json.loads(out_file.read_text())["found"]]
        want = {key(e.identity.M, e.identity.kind, e.identity.a,
                    e.identity.S, e.identity.T)
                for e in load_corpus() if e.proof in ("direct", "quintuple")}
        assert len(found) == len(want) == 133
        assert set(found) == want

    def test_search_bound_too_small(self, capsys):
        code, _, err = run(capsys, "search", "--n", "3")
        assert code == 2

    @pytest.mark.parametrize("base, bound", [("0", "10"), ("-3", "6")])
    def test_search_base_below_one(self, capsys, base, bound):
        code, out, err = run(capsys, "search", "--n", base, "--bound", bound)
        assert code == 2
        assert out == ""
        assert f"error: base {base} must be positive" in err

    def test_search_huge_bound(self, capsys):
        started = time.perf_counter()
        code, out, err = run(capsys, "search", "--n", "16", "--bound", "300")
        assert time.perf_counter() - started < 5
        assert code == 2
        assert out == ""
        assert "above the ceiling of 88" in err

    def test_search_huge_base(self, capsys):
        started = time.perf_counter()
        code, out, err = run(capsys, "search", "--n", str(10 ** 9),
                             "--bound", "6")
        assert time.perf_counter() - started < 5
        assert code == 2
        assert out == ""
        assert "above the ceiling of 1398101" in err

    def test_search_unwritable_out(self, capsys):
        code, _, err = run(capsys, "search", "--n", "6",
                           "--out", "/nonexistent-dir/x.json")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2


# ----------------------------------------------------------------------
# JSON output
# ----------------------------------------------------------------------

class TestJson:
    def test_schema_stable_on_pass(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--modulus", "32",
                                "--order", "150")
        assert code == 0
        assert set(doc) == REPORT_KEYS
        assert doc["status"] == "pass"
        assert all(set(i) == ITEM_KEYS for i in doc["items"])
        assert doc["items"][0]["label"] == "Thm-32.1"

    def test_schema_stable_on_failure(self, capsys):
        code, doc, _ = run_json(capsys, "verify-one", "--modulus", "32",
                                "--shift", "1", "--kind", "shifted",
                                "--s", BAD_S, "--t", GOOD_T,
                                "--order", "150")
        assert code == 1
        assert set(doc) == REPORT_KEYS
        assert doc["status"] == "fail"
        (item,) = doc["items"]
        assert set(item) == ITEM_KEYS
        assert item["status"] == "fail"
        assert item["first_failing_exponent"] == 1

    def test_verify_reports_the_first_failing_exponent(self, capsys,
                                                         tiny_corpus):
        (rec,) = json.loads(open(tiny_corpus).read())["entries"]
        assert rec["kind"] == "shifted"
        M, a = rec["modulus"], rec["shift"]
        ps = count_partitions_table(rec["S"], M, 120)
        pt = count_partitions_table(rec["T"], M, 120)
        breaks = [k for k in range(121)
                  if ps[k] - (pt[k - a] if k >= a else 0) != (k == 0)]
        code, doc, _ = run_json(capsys, "verify", "--corpus", tiny_corpus,
                                "--order", "120")
        assert code == 1
        (item,) = doc["items"]
        assert set(item) == ITEM_KEYS
        assert item["first_failing_exponent"] == breaks[0]

    def test_text_and_json_verdicts_agree(self, capsys):
        argv = ("classify", "--modulus", "40")
        text_code, out, _ = run(capsys, *argv)
        json_code, doc, _ = run_json(capsys, *argv)
        assert text_code == json_code == 0
        assert doc["status"] == "pass"
        assert out.splitlines()[-1].startswith("status: pass")
        assert doc["headline"] == "2 classes"
        assert out.startswith("2 classes")

    def test_report_status_iff_items(self, capsys, tiny_corpus):
        code, doc, _ = run_json(capsys, "verify", "--corpus", tiny_corpus,
                                "--order", "120")
        assert code == 1
        assert doc["status"] == "fail"
        assert any(i["status"] == "fail" for i in doc["items"])


# ----------------------------------------------------------------------
# command-specific output
# ----------------------------------------------------------------------

class TestOutput:
    def test_classify_members_listed(self, capsys):
        code, doc, _ = run_json(capsys, "classify", "--modulus", "72")
        assert code == 0
        assert doc["headline"] == "3 classes"
        members = " ".join(i["details"] for i in doc["items"])
        assert "Thm-72.2" in members

    def test_act_reports_image(self, capsys):
        code, doc, _ = run_json(capsys, "act", "--alpha", "29",
                                "--label", "Thm-66.2-i")
        assert code == 0
        assert "1,2,7,10,11,15,18,19,23,26,27,29" in doc["headline"]

    @pytest.mark.parametrize("argv", [
        ("act", "--alpha", "29", "--label", "Thm-66.2-i"),
        ("classify", "--modulus", "40")], ids=["act", "classify"])
    def test_act_and_classify_name_their_order(self, capsys, argv):
        for order in ("120", "300"):
            code, doc, _ = run_json(capsys, *argv, "--order", order)
            assert code == 0
            assert doc["items"]
            for item in doc["items"]:
                assert set(item) == ITEM_KEYS
                assert item["details"].endswith(
                    f"; holds to order {order}")

    def test_derive_prints_reduced_terms(self, capsys):
        code, out, _ = run(capsys, "derive", "--params", "1,2,4,12,13",
                           "--base", "16", "--order", "150")
        assert code == 0
        assert "[1:32]" in out

    def test_verify_names_the_aux_step_order(self, capsys):
        # modulus 42 has two entries with aux zero-sums; they are compared
        # at the requested order like every other check, below 400 and
        # above it
        for order in ("300", "500"):
            code, doc, _ = run_json(capsys, "verify", "--modulus", "42",
                                    "--order", order)
            assert code == 0
            assert doc["headline"] == (f"15 entries replayed at order "
                                       f"{order}: 15 pass, 0 fail")
            assert [i["details"] for i in doc["items"]] == \
                [f"holds to order {order}"] * 15

    def test_verify_names_the_order_of_a_failing_aux_step(
            self, capsys, tmp_path, catalog_doc):
        # a wrong sign on one aux term fails at the requested order
        rec = shipped_record(catalog_doc, "Thm-42.2-i")
        rec["aux_steps"][0]["terms"][0]["sign"] *= -1
        code, doc, _ = run_json(capsys, "verify", "--order", "700",
                                "--corpus",
                                write_catalog(tmp_path / "bad.json", rec))
        assert code == 1
        (item,) = doc["items"]
        assert item["first_failing_exponent"] is None
        assert "aux step 0 fails at order 700" in item["details"]

    @pytest.mark.parametrize("flag, count", [("--rr", 2), ("--thm72-2", 7)])
    def test_special_names_its_order(self, capsys, flag, count):
        code, doc, _ = run_json(capsys, "special", flag, "--order", "230")
        assert code == 0
        assert doc["headline"].endswith(
            f"{count} checks at order 230, {count} pass, 0 fail")
        assert [i["details"] for i in doc["items"]] == \
            ["holds to order 230"] * count

    def test_special_names_the_order_of_a_failing_check(self, monkeypatch,
                                                        capsys):
        relations = partitions._rr_relations()
        (name, terms), rest = relations[0], relations[1:]
        monkeypatch.setattr(partitions, "_rr_relations",
                            lambda: ((name, terms[1:]),) + rest)
        code, doc, _ = run_json(capsys, "special", "--rr", "--order", "230")
        assert code == 1
        bad, good = doc["items"]
        k = bad["first_failing_exponent"]
        assert k is not None
        assert bad["details"] == (f"nonzero at exponent {k} "
                                  f"(compared to order 230)")
        assert good["details"] == "holds to order 230"

    def test_selftest(self, capsys):
        code, out, _ = run(capsys, "selftest", "--order", "200")
        assert code == 0
        assert "0 fail" in out
        assert "238 entries at order 200" in out
        assert "110 four and 90 four2 instances at order 150" in out
        assert "238 round trips at order 200" in out
        assert "476 residue sets to n=200" in out

    def test_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qshift.cli", "classify",
             "--modulus", "48"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("7 classes")


# ----------------------------------------------------------------------
# selftest registry: every check can fail
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def run_check(name, entries, order):
    return dict(SELFTEST_CHECKS)[name](entries, order, random.Random(0))


class TestSelftestChecks:
    @pytest.mark.parametrize("order", [0, 5, 15, 20, 25, 49])
    def test_orders_below_the_thm72_floor_are_usage_errors(
            self, capsys, monkeypatch, order):
        # refused with one message naming the floor, before any check runs
        ran = []
        monkeypatch.setattr(cli, "SELFTEST_CHECKS", (
            ("recorder", lambda *args: ran.append(args)),))
        code, out, err = run(capsys, "selftest", "--order", str(order))
        assert code == 2
        assert out == ""
        assert err == (f"error: --order {order} is below the selftest's "
                       f"floor of 50\n")
        assert ran == []

    def test_classes_check_reports_a_failed_classification(self, corpus):
        ok, _, details = run_check("unit-action classes", corpus, 20)
        assert not ok
        assert "classification failed" in details

    def test_catalog_check_names_a_mutated_entry(self, corpus):
        e = corpus[0]
        mutant = replace(e.identity, S=e.identity.S - {4} | {2})
        entries = [replace(e, identity=mutant), *corpus[1:]]
        ok, _, details = run_check("catalog replay", entries, 200)
        assert not ok
        assert details.startswith(f"{e.label}: identity fails")

    def test_classes_check_fails_on_a_wrong_manifest(self, monkeypatch,
                                                     corpus):
        manifest = load_manifest()
        counts = dict(manifest["classes_per_modulus"], **{"48": 8})
        monkeypatch.setattr(cli, "load_manifest", lambda: dict(
            manifest, classes_per_modulus=counts))
        ok, _, details = run_check("unit-action classes", corpus, 100)
        assert not ok
        assert details == "mismatches (got, declared): {48: (7, 8)}"

    @pytest.mark.parametrize("name, builder", [
        ("special rr", "_rr_relations"),
        ("special thm72-2", "_thm72_relations")])
    def test_special_check_fails_on_a_dropped_term(self, monkeypatch,
                                                   name, builder):
        relations = getattr(partitions, builder)()
        (first, terms), rest = relations[0], relations[1:]
        monkeypatch.setattr(partitions, builder,
                            lambda: ((first, terms[1:]),) + rest)
        ok, first_fail, details = run_check(name, (), 120)
        assert not ok
        assert first_fail is not None
        assert details == f"failing: {first}"

    def test_four_check_fails_on_a_wrong_right_hand_side(self, monkeypatch):
        def wrong_rhs(params, n):
            left1, left2, _ = four_terms(params, n)
            return left1, left2, left1._replace(c=-left1.c)

        # the selftest generates its instances through replay_aux_terms
        monkeypatch.setattr("qshift.corpus.four_terms", wrong_rhs)
        ok, _, details = run_check("random four-parameter instances", (), 0)
        assert not ok
        assert details.startswith("110 of 110 four and 90 four2 failed, "
                                  "first ('four', FourParams(")

    def test_inverses_check_fails_when_an_image_does_not_verify(
            self, monkeypatch, corpus):
        def refuse(u, ident, n):
            raise NotAnIdentity("refused")

        monkeypatch.setattr(cli, "act", refuse)
        ok, _, details = run_check("unit-action inverses", corpus, 300)
        assert not ok
        assert details.startswith(f"failed: [('{corpus[0].label}', ")
        assert "image failed to verify" in details

    def test_counting_check_fails_at_the_perturbed_index(self, monkeypatch,
                                                         corpus):
        real = cli.count_partitions_table

        def off_at_7(S, M, n):
            table = list(real(S, M, n))
            table[7] += 1
            return table

        monkeypatch.setattr(cli, "count_partitions_table", off_at_7)
        ok, first_fail, details = run_check("counting oracle agreement",
                                            corpus, 300)
        assert not ok
        assert first_fail == 7
        assert details.startswith("failed: [(")


# ----------------------------------------------------------------------
# only search needs numpy
# ----------------------------------------------------------------------

# every subcommand but search, at small orders
WITHOUT_NUMPY = [
    ("verify", "--order", "100"),
    ("verify-one", "--modulus", "32", "--shift", "1", "--kind", "shifted",
     "--s", GOOD_S, "--t", GOOD_T, "--order", "100"),
    ("derive", "--params", "1,2,4,12,13", "--base", "16", "--order", "100"),
    ("act", "--alpha", "5", "--label", "Thm-32.1", "--order", "100"),
    ("classify", "--modulus", "48", "--order", "100"),
    ("special", "--rr", "--order", "100"),
    ("special", "--thm72-2", "--order", "100"),
    ("expand", "--s", "1,2", "--modulus", "5", "--order", "20"),
    ("selftest", "--order", "50"),
]


@pytest.mark.parametrize("argv", WITHOUT_NUMPY, ids=lambda a: a[0] + a[1])
def test_subcommand_runs_without_numpy(argv):
    # a None entry in sys.modules makes every import of numpy fail
    code = ("import sys; sys.modules['numpy'] = None; "
            "from qshift.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(cli.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "status: pass" in proc.stdout
