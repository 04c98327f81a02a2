"""Command-line surface for the library.

Subcommands cover the main workflows: replaying the shipped catalog or a
user-supplied one (verify), checking a single stated identity
(verify-one), deriving an identity from a parameter tuple (derive),
scanning the parameter space (search), grouping a modulus into
unit-action classes (classify), applying one unit action (act), the two
dedicated checks (special), tabulating a partition counting function
(expand), and a seeded library-level self test (selftest), which runs
SELFTEST_CHECKS, the registry of named checks that the acceptance suite
runs at order 1000.

Every subcommand assembles a Report: a command echo, a headline, one
item per target with a pass/fail verdict, and wall-clock timing.  The
report renders as text by default or as a schema-stable JSON object with
--json; both carry identical verdicts.  Exit codes: 0 when every check
passed, 1 when a mathematical check failed, 2 for usage or input errors
(diagnostics go to stderr).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import asdict, dataclass, replace
from math import gcd

from .corpus import (
    AuxStep,
    DuplicateLabel,
    ParseError,
    SchemaViolation,
    entries_for_modulus,
    load_corpus,
    load_manifest,
    replay_aux_terms,
    validate_corpus,
)
from .equivalence import DEFAULT_ORDER, NotAnIdentity, UnitAction, act, classify
from .jacobi import FourParams, derive_identity, verify_zero_combination
from .partitions import (
    SHIFTED,
    THM72_MIN_ORDER,
    InvalidIdentity,
    OrderTooSmall,
    PartitionIdentity,
    count_partitions_table,
    rogers_ramanujan_check,
    verify_identity,
    verify_theorem_72_2,
)
from .qseries import (
    HEADROOM_BITS,
    ResidueOutOfRange,
    densest_bits,
    residue_product,
)
from .theta import DegenerateZero, monomial_str

VERIFY_ORDER = 1000
PROPERTY_ORDER = 300
RR_ORDER = 1000
DISSECTION_ORDER = 600
# selftest scales: (kind, instances, largest base, exponents up to
# spread * base) of the four-parameter sweep, at FOUR_ORDER; counting
# sets compared to COUNT_ORDER
FOUR_SWEEP = (("four", 110, 14, 3), ("four2", 90, 10, 2))
FOUR_ORDER = 150
COUNT_ORDER = 200

PASS, FAIL = "pass", "fail"
MAX_ECHOED_ITEMS = 24

# memory allowed for one packed product, which bounds every --order
PACKED_BUDGET_BYTES = 1 << 26


class UsageError(Exception):
    """Bad arguments or unreadable input; maps to exit code 2."""


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Item:
    """Verdict for one target of a subcommand."""

    label: str
    status: str
    first_failing_exponent: int | None = None
    details: str = ""


@dataclass(frozen=True)
class Report:
    """What a subcommand did and how every target fared."""

    command: str
    status: str
    headline: str
    items: tuple[Item, ...]
    timing: float

    @staticmethod
    def build(command: str, headline: str, items) -> "Report":
        items = tuple(items)
        status = PASS if all(i.status == PASS for i in items) else FAIL
        return Report(command, status, headline, items, 0.0)


def emit(report: Report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(asdict(report), indent=1))
        return
    print(report.headline)
    shown = report.items
    if len(shown) > MAX_ECHOED_ITEMS:
        shown = tuple(i for i in shown if i.status != PASS)
    for it in shown:
        line = f"  {it.label}: {it.status}"
        if it.first_failing_exponent is not None:
            line += f" (first failing exponent {it.first_failing_exponent})"
        if it.details:
            line += f"  {it.details}"
        print(line)
    print(f"status: {report.status} "
          f"({len(report.items)} items, {report.timing:.2f}s)")


# ----------------------------------------------------------------------
# argument helpers
# ----------------------------------------------------------------------

def _int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(p) for p in text.replace(" ", "").split(",") if p)
    except ValueError:
        raise UsageError(f"{what} must be a comma-separated integer list, "
                         f"got {text!r}") from None
    if not vals:
        raise UsageError(f"{what} is empty")
    return vals


def order_ceiling() -> int:
    """Largest order whose densest packed product fits the memory budget.

    Order n packs n + 1 limbs.  The densest residue set (every part) has
    coefficients up to p(n) < e^(pi sqrt(2n/3)), qseries.densest_bits(n)
    bits, and no cleared build's plan (theta._plan) is wider than the
    larger of that figure and the parts bound of its terms, so a limb
    needs at most densest_bits(n) plus the packing headroom.  With the
    64 MiB of PACKED_BUDGET_BYTES the ceiling is 273,686.
    """
    def nbytes(n):
        bits = densest_bits(n) + HEADROOM_BITS
        return (n + 1) * ((int(bits) + 8) // 8)

    lo, hi = 0, 1
    while nbytes(hi) <= PACKED_BUDGET_BYTES:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if nbytes(mid) <= PACKED_BUDGET_BYTES:
            lo = mid
        else:
            hi = mid
    return lo


def _identity_str(ident: PartitionIdentity) -> str:
    s = ",".join(str(r) for r in sorted(ident.S))
    t = ",".join(str(r) for r in sorted(ident.T))
    if ident.kind == SHIFTED:
        rel = f"p(S,n) = p(T,n-{ident.a}) for all n >= {ident.a}"
    else:
        rel = f"p(S,n) = p(T,n) for all n != {ident.a}"
    return (f"S = +-{{{s}}} mod {ident.M}, "
            f"T = +-{{{t}}} mod {ident.M}, {rel}")


def _identity_from_args(args) -> PartitionIdentity:
    try:
        return PartitionIdentity(args.modulus,
                                 frozenset(_int_list(args.s, "--s")),
                                 frozenset(_int_list(args.t, "--t")),
                                 args.kind, args.shift)
    except InvalidIdentity as exc:
        raise UsageError(str(exc)) from exc


def _verify_item(label: str, ident: PartitionIdentity, order: int) -> Item:
    rep = verify_identity(ident, order)
    if rep.ok:
        return Item(label, PASS, None, f"holds to order {order}")
    lhs, rhs = rep.witness
    return Item(label, FAIL, rep.first_fail,
                f"counts {lhs} vs {rhs} at exponent {rep.first_fail}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_verify(args) -> Report:
    entries = load_corpus(args.corpus)
    if args.modulus is not None:
        entries = entries_for_modulus(entries, args.modulus)
        if not entries:
            raise UsageError(f"no catalog entries for modulus {args.modulus}")
    rep = validate_corpus(entries, order=args.order)
    items = [Item(r.label, PASS, None, f"holds to order {args.order}")
             if r.ok else Item(r.label, FAIL, r.first_fail, r.detail)
             for r in rep.results]
    n_fail = sum(1 for i in items if i.status != PASS)
    noun = "entries" if len(items) != 1 else "entry"
    headline = (f"{len(items)} {noun} replayed at order {args.order}: "
                f"{len(items) - n_fail} pass, {n_fail} fail")
    return Report.build(f"verify order={args.order}", headline, items)


def cmd_verify_one(args) -> Report:
    ident = _identity_from_args(args)
    item = _verify_item(f"{ident.kind} mod {ident.M}", ident, args.order)
    return Report.build(f"verify-one order={args.order}",
                        _identity_str(ident), (item,))


def cmd_derive(args) -> Report:
    exps = _int_list(args.params, "--params")
    if len(exps) != 5:
        raise UsageError(f"--params needs exactly five exponents, "
                         f"got {len(exps)}")
    try:
        p = FourParams(*exps, n=args.base)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    label = f"params={exps} base={args.base}"
    try:
        d = derive_identity(p)
    except DegenerateZero as exc:
        item = Item(label, FAIL, None, f"no identity: degenerate ({exc})")
        return Report.build(f"derive order={args.order}",
                            "no identity: a theta factor vanishes", (item,))
    if not d.ok:
        item = Item(label, FAIL, None, f"no identity: {d.reason}")
        return Report.build(f"derive order={args.order}",
                            f"no identity: {d.reason}", (item,))
    item = _verify_item(label, d.identity, args.order)
    terms = " and ".join(monomial_str(t) for t in d.terms)
    item = replace(item, details=f"{item.details}; reduced terms {terms}")
    return Report.build(f"derive order={args.order}",
                        _identity_str(d.identity), (item,))


def cmd_search(args) -> Report:
    # imported here: search is the one module that needs numpy
    from .search import VERIFY_ORDER as SEARCH_ORDER, SearchConfig, run_search
    try:
        cfg = SearchConfig(n_values=_int_list(args.n, "--n"),
                           exponent_bound=args.bound,
                           workers=args.workers)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    res = run_search(cfg)
    # run_search emits only identities that hold to SEARCH_ORDER
    items = tuple(
        Item(f"n={p.n} params={','.join(map(str, p.exponents()))}",
             PASS, None,
             f"{_identity_str(ident)}; holds to order {SEARCH_ORDER}")
        for p, ident in res.found)
    rejects = ", ".join(f"{k}={v}" for k, v in sorted(res.histogram.items()))
    plural = "identities" if len(items) != 1 else "identity"
    headline = (f"{len(items)} {plural} found in {res.scanned} "
                f"admissible tuples (rejects: {rejects or 'none'})")
    if args.out:
        records = [{"modulus": ident.M, "kind": ident.kind,
                    "shift": ident.a, "S": sorted(ident.S),
                    "T": sorted(ident.T),
                    "provenance": {"source": "search",
                                   "params": list(p.exponents()),
                                   "n": p.n}}
                   for p, ident in res.found]
        doc = {"bases": list(cfg.n_values), "bound": args.bound,
               "scanned": res.scanned, "rejects": dict(res.histogram),
               "found": records}
        try:
            with open(args.out, "w") as fh:
                json.dump(doc, fh, indent=1)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}") from exc
    return Report.build(f"search n={','.join(map(str, cfg.n_values))}",
                        headline, items)


def cmd_classify(args) -> Report:
    entries = entries_for_modulus(load_corpus(args.corpus), args.modulus)
    if not entries:
        raise UsageError(f"no catalog entries for modulus {args.modulus}")
    labels_of = {}
    for e in entries:
        labels_of.setdefault(e.identity, []).append(e.label)
    try:
        classes = classify([e.identity for e in entries], n=args.order)
    except NotAnIdentity as exc:
        item = Item(f"mod {args.modulus}", FAIL, None, str(exc))
        return Report.build(f"classify modulus={args.modulus}",
                            "classification failed", (item,))
    items = []
    for k, cls in enumerate(classes, start=1):
        members = sorted(lab for ident in cls for lab in labels_of[ident])
        plural = "s" if len(members) != 1 else ""
        items.append(Item(f"class {k}", PASS, None,
                          f"{len(members)} member{plural}: "
                          f"{', '.join(members)}; "
                          f"holds to order {args.order}"))
    return Report.build(f"classify modulus={args.modulus} order={args.order}",
                        f"{len(classes)} classes", items)


def cmd_act(args) -> Report:
    if args.label is not None:
        matches = [e for e in load_corpus(args.corpus) if e.label == args.label]
        if not matches:
            raise UsageError(f"no catalog entry labelled {args.label!r}")
        ident, name = matches[0].identity, args.label
    else:
        missing = [f for f in ("modulus", "shift", "kind", "s", "t")
                   if getattr(args, f) is None]
        if missing:
            raise UsageError("act needs either --label or all of "
                             "--modulus/--shift/--kind/--s/--t "
                             f"(missing {', '.join('--' + f for f in missing)})")
        ident = _identity_from_args(args)
        name = f"{ident.kind} mod {ident.M}"
    try:
        u = UnitAction(args.alpha, ident.M)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # act infers the image's relation from the image sets alone, so a
    # source that does not hold would still map to a true relation
    source = _verify_item(name, ident, args.order)
    if source.status != PASS:
        return Report.build(f"act alpha={args.alpha}",
                            f"source is a non-relation at order "
                            f"{args.order}", (source,))
    try:
        image = act(u, ident, n=args.order)
    except NotAnIdentity as exc:
        item = Item(name, FAIL, None, str(exc))
        return Report.build(f"act alpha={args.alpha}",
                            "image is not an identity", (item,))
    item = Item(name, PASS, None, f"alpha={args.alpha} image: "
                                  f"{_identity_str(image)}; "
                                  f"holds to order {args.order}")
    return Report.build(f"act alpha={args.alpha}",
                        _identity_str(image), (item,))


def cmd_special(args) -> Report:
    if args.rr:
        order = args.order if args.order is not None else RR_ORDER
        rep, what = rogers_ramanujan_check(order), "rr"
    else:
        order = args.order if args.order is not None else DISSECTION_ORDER
        rep, what = verify_theorem_72_2(order), "thm72-2"
    items = tuple(Item(c.name, PASS, None, f"holds to order {order}")
                  if c.ok else
                  Item(c.name, FAIL, c.first_fail,
                       f"nonzero at exponent {c.first_fail} "
                       f"(compared to order {order})")
                  for c in rep.checks)
    n_fail = sum(1 for i in items if i.status != PASS)
    headline = (f"{what}: {len(items)} checks at order {order}, "
                f"{len(items) - n_fail} pass, {n_fail} fail")
    return Report.build(f"special {what} order={order}", headline, items)


def cmd_expand(args) -> Report:
    S = _int_list(args.s, "--s")
    table = count_partitions_table(frozenset(S), args.modulus, args.order)
    label = (f"p(+-{{{','.join(map(str, sorted(set(S))))}}} "
             f"mod {args.modulus}, 0..{args.order})")
    item = Item(label, PASS, None, " ".join(map(str, table)))
    return Report.build(f"expand modulus={args.modulus} order={args.order}",
                        label, (item,))


# ----------------------------------------------------------------------
# selftest
# ----------------------------------------------------------------------

def _check_catalog(entries, order, rng):
    rep = validate_corpus(entries, order=order)
    if rep.ok:
        return True, None, f"{len(rep.results)} entries at order {order}"
    brief = "; ".join(f"{r.label}: {r.detail}" for r in rep.failures[:3])
    return False, None, brief


def _check_classes(entries, order, rng):
    declared = {int(k): v for k, v in
                load_manifest()["classes_per_modulus"].items()}
    got = {}
    try:
        for modulus in sorted({e.identity.M for e in entries}):
            idents = [e.identity
                      for e in entries_for_modulus(entries, modulus)]
            got[modulus] = len(classify(idents, n=order))
    except (NotAnIdentity, OrderTooSmall) as exc:
        return False, None, f"classification failed: {exc}"
    if got == declared:
        return True, None, (f"{sum(got.values())} classes across "
                            f"{len(got)} moduli")
    diffs = {m: (got.get(m), declared.get(m))
             for m in sorted(set(got) | set(declared))
             if got.get(m) != declared.get(m)}
    return False, None, f"mismatches (got, declared): {diffs}"


def _special(rep):
    bad = [c for c in rep.checks if not c.ok]
    if bad:
        return (False, bad[0].first_fail,
                f"failing: {', '.join(c.name for c in bad)}")
    return True, None, f"{len(rep.checks)} checks at order {rep.order}"


def _check_four(entries, order, rng):
    bad = []
    for kind, count, top, spread in FOUR_SWEEP:
        done = 0
        while done < count:
            n = rng.randint(2, top)
            p = FourParams(*(rng.randint(1, spread * n) for _ in range(5)),
                           n=n)
            try:
                terms = replay_aux_terms(AuxStep(kind, p.exponents(), n, ()))
            except DegenerateZero:
                continue
            done += 1
            if not verify_zero_combination(terms, FOUR_ORDER).ok:
                bad.append((kind, p))
    counts = " and ".join(f"{count} {kind}"
                          for kind, count, _, _ in FOUR_SWEEP)
    if not bad:
        return True, None, f"{counts} instances at order {FOUR_ORDER}"
    return False, None, f"{len(bad)} of {counts} failed, first {bad[0]}"


def _check_inverses(entries, order, rng):
    bad = []
    for e in entries:
        modulus = e.identity.M
        alpha = rng.choice([a for a in range(1, modulus)
                            if gcd(a, modulus) == 1])
        inverse = pow(alpha, -1, modulus)
        try:
            image = act(UnitAction(alpha, modulus), e.identity, n=order)
            back = act(UnitAction(inverse, modulus), image, n=order)
        except NotAnIdentity:
            bad.append((e.label, alpha, "image failed to verify"))
            continue
        if back != e.identity:
            bad.append((e.label, alpha, "inverse action missed the start"))
    if not bad:
        return True, None, f"{len(entries)} round trips at order {order}"
    return False, None, f"failed: {bad[:3]}"


def _check_counting(entries, order, rng):
    sets = {(side, e.identity.M): e.label for e in entries
            for side in (e.identity.S, e.identity.T)}
    bad = []
    for (side, modulus), label in sets.items():
        table = count_partitions_table(side, modulus, COUNT_ORDER)
        series = residue_product(side, modulus, COUNT_ORDER)
        mismatch = next((k for k in range(COUNT_ORDER + 1)
                         if table[k] != series.coeff(k)), None)
        if mismatch is not None:
            bad.append((label, mismatch))
    if not bad:
        return True, None, f"{len(sets)} residue sets to n={COUNT_ORDER}"
    return False, bad[0][1], f"failed: {bad[:3]}"


# every check is check(entries, order, rng) -> (ok, first_fail, details)
SELFTEST_CHECKS = (
    ("catalog replay", _check_catalog),
    ("unit-action classes", _check_classes),
    ("special rr",
     lambda entries, order, rng: _special(rogers_ramanujan_check(order))),
    ("special thm72-2",
     lambda entries, order, rng: _special(verify_theorem_72_2(order))),
    ("random four-parameter instances", _check_four),
    ("unit-action inverses", _check_inverses),
    ("counting oracle agreement", _check_counting),
)
# the highest order floor among the checks: the Thm-72.2 chain's
SELFTEST_MIN_ORDER = THM72_MIN_ORDER


def cmd_selftest(args) -> Report:
    if args.order < SELFTEST_MIN_ORDER:
        raise UsageError(f"--order {args.order} is below the selftest's "
                         f"floor of {SELFTEST_MIN_ORDER}")
    entries = load_corpus()
    items = []
    for name, check in SELFTEST_CHECKS:
        ok, first_fail, details = check(entries, args.order,
                                        random.Random(args.seed))
        items.append(Item(name, PASS if ok else FAIL, first_fail, details))
    n_fail = sum(1 for i in items if i.status != PASS)
    headline = (f"selftest: {len(items)} suites, "
                f"{len(items) - n_fail} pass, {n_fail} fail")
    return Report.build(f"selftest seed={args.seed} order={args.order}",
                        headline, items)


# ----------------------------------------------------------------------
# parser and entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit the report as JSON on stdout")

    parser = argparse.ArgumentParser(
        prog="qshift",
        description="verify, derive, search, and classify shifted and "
                    "shiftless partition identities")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser("verify", parents=[common],
                       help="replay catalog entries")
    p.add_argument("--corpus", help="catalog path (default: shipped)")
    p.add_argument("--modulus", type=int, help="restrict to one modulus")
    p.add_argument("--order", type=int, default=VERIFY_ORDER)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("verify-one", parents=[common],
                       help="check one stated identity")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--shift", type=int, required=True)
    p.add_argument("--kind", choices=("shifted", "shiftless"), required=True)
    p.add_argument("--s", required=True, help="comma-separated residues")
    p.add_argument("--t", required=True, help="comma-separated residues")
    p.add_argument("--order", type=int, default=VERIFY_ORDER)
    p.set_defaults(handler=cmd_verify_one)

    p = sub.add_parser("derive", parents=[common],
                       help="derive an identity from a parameter tuple")
    p.add_argument("--params", required=True,
                   help="five comma-separated exponents a,b,c,x,y")
    p.add_argument("--base", type=int, required=True,
                   help="base n (the identity modulus is 2n)")
    p.add_argument("--order", type=int, default=VERIFY_ORDER)
    p.set_defaults(handler=cmd_derive)

    p = sub.add_parser("search", parents=[common],
                       help="scan the parameter space for identities")
    p.add_argument("--n", required=True, help="comma-separated bases")
    p.add_argument("--bound", type=int,
                   help="exponent bound (default: n-1 per base)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="write found identities to this JSON file")
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("classify", parents=[common],
                       help="group one modulus into unit-action classes")
    p.add_argument("--corpus", help="catalog path (default: shipped)")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("act", parents=[common],
                       help="apply one unit action to an identity")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--label", help="catalog entry to act on")
    p.add_argument("--corpus", help="catalog path (default: shipped)")
    p.add_argument("--modulus", type=int)
    p.add_argument("--shift", type=int)
    p.add_argument("--kind", choices=("shifted", "shiftless"))
    p.add_argument("--s", help="comma-separated residues")
    p.add_argument("--t", help="comma-separated residues")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.set_defaults(handler=cmd_act)

    p = sub.add_parser("special", parents=[common],
                       help="run one of the dedicated checks")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rr", action="store_true",
                       help="the two mod-5 shifted identities")
    group.add_argument("--thm72-2", dest="thm72_2", action="store_true",
                       help="the mod-72 dissection chain")
    p.add_argument("--order", type=int,
                   help=f"default {RR_ORDER} for --rr, "
                        f"{DISSECTION_ORDER} for --thm72-2")
    p.set_defaults(handler=cmd_special)

    p = sub.add_parser("expand", parents=[common],
                       help="tabulate p(S, 0..N) for a residue set")
    p.add_argument("--s", required=True, help="comma-separated residues")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(handler=cmd_expand)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the library-level invariant suite")
    p.add_argument("--order", type=int, default=PROPERTY_ORDER)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        # every subcommand but search takes --order (special may omit it)
        order = getattr(args, "order", None)
        if order is not None and order < 0:
            raise UsageError(f"--order must be nonnegative, got {order}")
        if order is not None and order > (ceiling := order_ceiling()):
            raise UsageError(
                f"--order {order} is above the ceiling of {ceiling}, where "
                f"one packed product would exceed "
                f"{PACKED_BUDGET_BYTES >> 20} MiB")
        report = args.handler(args)
    except (UsageError, ParseError, SchemaViolation, DuplicateLabel,
            InvalidIdentity, OrderTooSmall, ResidueOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = replace(report, timing=time.perf_counter() - started)
    emit(report, as_json=args.json)
    return 0 if report.status == PASS else 1


if __name__ == "__main__":
    sys.exit(main())
