"""Loader and validator for the shipped identity catalog.

The catalog at data/catalog.json is a single JSON document: a manifest
header (total entry count, per-modulus counts, per-modulus class counts,
the orientation convention for shiftless entries) and an array of
entries.  Each entry carries a partition identity, the route by which it
is established (direct, iteration, quintuple, or special), and enough
metadata to replay that route mechanically:

    direct / quintuple   four2 parameters whose symbolic reduction must
                         reproduce the identity exactly
    iteration            auxiliary relation instantiations (each a list
                         of theta monomials summing to zero) used by the
                         printed proof of the theorem's representative
                         item; companion items carry an empty list.  A
                         step of kind four, four_signed, four2 or qp
                         must equal what its jacobi generator returns
                         (replay_aux_terms); a bracket step is literal
    special              neither of the above; the notes point at the
                         dedicated check (rogers_ramanujan_check or
                         verify_theorem_72_2)

load_corpus is strict: structural problems, down to the shape of aux-step
params and theta atoms, raise ParseError, SchemaViolation, or
DuplicateLabel rather than producing half-loaded entries.
validate_corpus replays every entry numerically and returns a report
instead of raising, so a single bad entry is visible alongside the rest
(parameters at which a bracket vanishes raise SchemaViolation).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .jacobi import (
    FourParams,
    derive_identity,
    four2_terms,
    four_terms,
    quintuple_terms,
    verify_zero_combination,
)
from .partitions import (
    SHIFTED,
    SHIFTLESS,
    InvalidIdentity,
    PartitionIdentity,
    verify_identity,
)
from .theta import (
    BRACKET,
    PAREN,
    Atom,
    DegenerateZero,
    Term,
    make_monomial,
)

PROOF_KINDS = ("direct", "iteration", "quintuple", "special")
AUX_KINDS = ("four", "four_signed", "four2", "qp", "bracket")

_KIND_NAMES = {"shifted": SHIFTED, "shiftless": SHIFTLESS}
_ATOM_KINDS = {"b": BRACKET, "p": PAREN}


class ParseError(Exception):
    """The file is missing, not JSON, or structurally malformed."""


class SchemaViolation(Exception):
    """An entry is well-formed JSON but semantically invalid."""


class DuplicateLabel(Exception):
    """Two entries share a label."""


# ----------------------------------------------------------------------
# domain types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AuxStep:
    """One auxiliary relation used inside an iteration proof.

    kind names the generating relation; params are its raw arguments
    (None for a literal bracket identity); terms are theta monomials
    whose series sum to zero.
    """

    kind: str
    params: tuple | None
    n: int
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class CorpusEntry:
    label: str
    identity: PartitionIdentity
    proof: str
    params: FourParams | None
    aux_steps: tuple[AuxStep, ...] | None
    notes: str


@dataclass(frozen=True)
class EntryResult:
    """One entry's replay at its report's order, the identity and its
    aux zero-sums alike.  first_fail is the identity's first failing
    exponent (None when the identity holds, whatever the other checks
    found).
    """

    label: str
    ok: bool
    detail: str = ""
    first_fail: int | None = None


@dataclass(frozen=True)
class CorpusReport:
    """Per-entry validation outcomes; ok iff every entry passed."""

    order: int
    results: tuple[EntryResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> tuple[EntryResult, ...]:
        return tuple(r for r in self.results if not r.ok)


# ----------------------------------------------------------------------
# JSON -> domain conversion
# ----------------------------------------------------------------------

def _int(v, least: int | None = None) -> bool:
    """Whether v is an integer (not a bool), and at least least if given."""
    return type(v) is int and (least is None or v >= least)


def _atom_from_json(raw, where: str, in_den: bool) -> Atom:
    """[r, m, "b" | "p"] with m >= 1 and a canonical residue r; r = 0 only
    for a paren in a numerator, as (0 : m) has constant term 2."""
    try:
        r, m, letter = raw
        kind = _ATOM_KINDS[letter]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: malformed atom {raw!r}") from exc
    least = 0 if kind == PAREN and not in_den else 1
    if not (_int(m, 1) and _int(r, least) and r <= m // 2):
        raise SchemaViolation(f"{where}: atom {raw!r} needs m >= 1 and "
                              f"{least} <= r <= m/2")
    return Atom(r, m, kind)


def _mono_from_json(d, where: str) -> Term:
    try:
        sign, qexp = d["sign"], d["qexp"]
        num = [_atom_from_json(a, where, False) for a in d["num"]]
        den = [_atom_from_json(a, where, True) for a in d["den"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{where}: malformed monomial ({exc})") from exc
    if not (_int(sign) and sign in (1, -1) and _int(qexp)):
        raise SchemaViolation(f"{where}: monomial needs sign +1 or -1 "
                              f"and an integer qexp")
    return make_monomial(sign, qexp, num, den)


def _params_fit(kind: str, raw) -> bool:
    """Whether raw has the shape of a kind step's params: five positive
    integers (four, four2), five [sign, exponent] pairs (four_signed),
    [exponent, base >= 1] (qp), or null (bracket)."""
    if kind == "bracket" or not isinstance(raw, list):
        return kind == "bracket" and raw is None
    if kind == "qp":
        return len(raw) == 2 and _int(raw[0]) and _int(raw[1], 1)
    if kind == "four_signed":
        return len(raw) == 5 and all(
            isinstance(p, list) and len(p) == 2 and _int(p[0])
            and p[0] in (1, -1) and _int(p[1]) for p in raw)
    return len(raw) == 5 and all(_int(v, 1) for v in raw)


def _aux_from_json(d, where: str) -> AuxStep:
    if not isinstance(d, dict):
        raise ParseError(f"{where}: aux step is not an object")
    for field in ("kind", "params", "n", "terms"):
        if field not in d:
            raise ParseError(f"{where}: aux step missing field {field!r}")
    kind, raw, n = d["kind"], d["params"], d["n"]
    if kind not in AUX_KINDS:
        raise SchemaViolation(f"{where}: unknown aux kind {kind!r}")
    if not _params_fit(kind, raw):
        raise SchemaViolation(f"{where}: malformed {kind} params {raw!r}")
    if not _int(n, 1):
        raise SchemaViolation(f"{where}: aux step base n must be a "
                              f"positive integer, got {n!r}")
    if not isinstance(d["terms"], list):
        raise ParseError(f"{where}: aux step terms must be a list")
    terms = tuple(_mono_from_json(t, where) for t in d["terms"])
    if len(terms) < 2:
        raise SchemaViolation(f"{where}: aux step needs at least two terms")
    params = None if raw is None else tuple(
        tuple(p) if kind == "four_signed" else p for p in raw)
    return AuxStep(kind, params, n, terms)


ENTRY_FIELDS = ("label", "modulus", "kind", "shift", "S", "T",
                "proof", "params", "n", "aux_steps", "notes")


def entry_from_record(rec: dict, where: str = "entry") -> CorpusEntry:
    """Build a CorpusEntry from one decoded JSON record."""
    if not isinstance(rec, dict):
        raise ParseError(f"{where}: entry is not an object")
    for field in ENTRY_FIELDS:
        if field not in rec:
            raise ParseError(f"{where}: missing field {field!r}")
    label = rec["label"]
    if not isinstance(label, str):
        raise SchemaViolation(f"{where}: label must be a string")
    where = f"entry {label!r}"
    kind = _KIND_NAMES.get(str(rec["kind"]))
    if kind is None:
        raise SchemaViolation(f"{where}: kind must be shifted or shiftless")
    if not (_int(rec["modulus"]) and _int(rec["shift"])):
        raise SchemaViolation(f"{where}: modulus and shift must be integers")
    for side in ("S", "T"):
        if not (isinstance(rec[side], list) and all(map(_int, rec[side]))):
            raise SchemaViolation(f"{where}: {side} must be a list of "
                                  f"integer residues")
    try:
        identity = PartitionIdentity(rec["modulus"], frozenset(rec["S"]),
                                     frozenset(rec["T"]), kind, rec["shift"])
    except InvalidIdentity as exc:
        raise SchemaViolation(f"{where}: {exc}") from exc
    proof = rec["proof"]
    if proof not in PROOF_KINDS:
        raise SchemaViolation(f"{where}: unknown proof kind {proof!r}")
    wants_params = proof in ("direct", "quintuple")
    if wants_params != (rec["params"] is not None):
        raise SchemaViolation(
            f"{where}: params must be present exactly for "
            f"direct/quintuple proofs")
    params = None
    if wants_params:
        if not (_int(rec["n"]) and 2 * rec["n"] == rec["modulus"]):
            raise SchemaViolation(f"{where}: base n must be modulus/2")
        if not _params_fit("four2", rec["params"]):
            raise SchemaViolation(f"{where}: params must be five positive "
                                  f"integers, got {rec['params']!r}")
        params = FourParams(*rec["params"], n=rec["n"])
    if (proof == "iteration") != (rec["aux_steps"] is not None):
        raise SchemaViolation(
            f"{where}: aux_steps must be present exactly for "
            f"iteration proofs")
    aux_steps = None
    if rec["aux_steps"] is not None:
        if not isinstance(rec["aux_steps"], list):
            raise ParseError(f"{where}: aux_steps must be a list")
        aux_steps = tuple(_aux_from_json(s, where) for s in rec["aux_steps"])
    return CorpusEntry(label, identity, proof, params, aux_steps,
                       rec["notes"])


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------

def _default_path() -> Path:
    return Path(str(resources.files("qshift").joinpath("data/catalog.json")))


def load_manifest(path: str | Path | None = None) -> dict:
    """The manifest header of the catalog document."""
    doc = _read_document(path)
    return doc["manifest"]


def _read_document(path: str | Path | None) -> dict:
    p = Path(path) if path is not None else _default_path()
    try:
        text = p.read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {p}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p} line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list) \
            or not isinstance(doc.get("manifest"), dict):
        raise ParseError(f"{p}: expected an object with manifest and entries")
    return doc


def load_corpus(path: str | Path | None = None) -> list[CorpusEntry]:
    """Load and structurally validate the catalog.

    The default path is the catalog shipped inside the package.  The
    entry list must agree with the manifest's total and per-modulus
    counts; labels must be unique.
    """
    doc = _read_document(path)
    entries = []
    seen = set()
    for idx, rec in enumerate(doc["entries"]):
        entry = entry_from_record(rec, where=f"entry #{idx}")
        if entry.label in seen:
            raise DuplicateLabel(entry.label)
        seen.add(entry.label)
        entries.append(entry)
    manifest = doc["manifest"]
    if manifest.get("total") != len(entries):
        raise ParseError(
            f"manifest total {manifest.get('total')} != {len(entries)}")
    per_mod: dict[int, int] = {}
    for e in entries:
        per_mod[e.identity.M] = per_mod.get(e.identity.M, 0) + 1
    if manifest.get("per_modulus") != {str(k): v for k, v in per_mod.items()}:
        raise ParseError("manifest per-modulus counts disagree with entries")
    return entries


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def replay_aux_terms(step: AuxStep) -> tuple[Term, ...] | None:
    """Regenerate an aux step's terms from its parameters: one call to
    the kind's generator, which returns terms that sum to zero.

    Returns None for literal bracket steps, which have no generator.
    """
    if step.kind == "four":
        return four_terms([(1, e) for e in step.params], step.n)
    if step.kind == "four_signed":
        return four_terms(step.params, step.n)
    if step.kind == "four2":
        return four2_terms(FourParams(*step.params, n=step.n))
    if step.kind == "qp":
        return quintuple_terms(*step.params)
    return None


def _check_entry(entry: CorpusEntry, order: int) -> EntryResult:
    problems = []
    rep = verify_identity(entry.identity, order)
    if not rep.ok:
        problems.append(f"identity fails at order {order}: first "
                        f"mismatch at exponent {rep.first_fail}, "
                        f"coefficients {rep.witness}")
    if entry.proof in ("direct", "quintuple"):
        d = derive_identity(entry.params)
        if not d.ok:
            problems.append(f"derivation fails: {d.reason}")
        elif d.identity != entry.identity:
            problems.append("derivation yields a different identity")
    for k, step in enumerate(entry.aux_steps or ()):
        expected = replay_aux_terms(step)
        if expected is not None and expected != step.terms:
            problems.append(f"aux step {k} does not match its "
                            f"generator output")
        aux_rep = verify_zero_combination(step.terms, order)
        if not aux_rep.ok:
            problems.append(f"aux step {k} fails at order {order}: "
                            f"witness {aux_rep.witness}")
    return EntryResult(entry.label, not problems, "; ".join(problems),
                       rep.first_fail)


def validate_corpus(entries: Iterable[CorpusEntry],
                    order: int) -> CorpusReport:
    """Replay every entry: identity verification at the given order,
    exact re-derivation for direct/quintuple proofs, and aux-step checks
    (generator match plus zero-sum at the given order) for iteration
    proofs.  Raises SchemaViolation when an entry's parameters make a
    bracket vanish.
    """
    results = []
    for e in entries:
        try:
            results.append(_check_entry(e, order))
        except DegenerateZero as exc:
            raise SchemaViolation(f"entry {e.label!r}: a bracket vanishes "
                                  f"at its parameters ({exc})") from exc
    return CorpusReport(order, tuple(results))


def entries_for_modulus(entries: Sequence[CorpusEntry],
                        modulus: int) -> list[CorpusEntry]:
    return [e for e in entries if e.identity.M == modulus]
