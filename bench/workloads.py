"""The five benchmark workloads: seeded inputs, timed work, output checks.

Each workload mirrors one qshift workflow by calling the public library
functions that workflow's cli handler calls.  Calls go through the
module (``search.run_search``), never through a name bound here, so the
tracer's rebinding reaches them.

A workload is four functions and the name of the hostspeed kernel that
gauges the host while it runs:

    prepare(entries, params, rng)  the seeded inputs, built before timing
    run(inputs)                    the timed work; returns its outputs
    items(outputs)                 units of work done, recorded per pass
    check(inputs, outputs, checks, full)
                                   output checks, run after timing; the
                                   oracle and mutation checks run only
                                   when full is set

Every check is one operation: a failing check is a failed operation.
"""

from __future__ import annotations

import dataclasses
import random
from math import gcd
from typing import Callable, NamedTuple

from qshift import corpus, equivalence, partitions, search
from qshift.equivalence import NotAnIdentity, UnitAction
from qshift.partitions import InvalidIdentity, PartitionIdentity

from oracle import admissible_tuples, first_mismatch, partition_counts

# largest order at which a mutant must already be refuted by the oracle
MUTANT_PROBE_ORDER = 200
SEARCH_ORACLE_ORDER = 200
PAPER_CLASS_TOTAL = 43


class Checks:
    """Outcome of every output check of one pass."""

    def __init__(self):
        self.failures: list[str] = []
        self.attempted = 0

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    @property
    def failed(self) -> int:
        return len(self.failures)


class Workload(NamedTuple):
    prepare: Callable
    run: Callable
    items: Callable
    check: Callable
    host_kernel: str = "python"  # the hostspeed kernel that gauges it


# ----------------------------------------------------------------------
# shared checks
# ----------------------------------------------------------------------

def mutate(ident: PartitionIdentity, rng: random.Random):
    """A seeded single-residue mutation the oracle refutes at low order.

    One residue of S or T is swapped for one the side lacks.  Returns
    the mutant and the oracle's first failing index; mutants the oracle
    cannot refute below MUTANT_PROBE_ORDER are skipped, so the program
    is only ever asked to reject identities known to be false.
    """
    half = ident.M // 2
    while True:
        side = rng.choice(("S", "T"))
        old = getattr(ident, side)
        gone = rng.choice(sorted(old))
        new = rng.choice([r for r in range(1, half + 1) if r not in old])
        try:
            mutant = dataclasses.replace(ident, **{side: (old - {gone}) | {new}})
        except InvalidIdentity:
            continue
        ps = partition_counts(mutant.S, mutant.M, MUTANT_PROBE_ORDER)
        pt = partition_counts(mutant.T, mutant.M, MUTANT_PROBE_ORDER)
        k = first_mismatch(ps, pt, mutant.kind, mutant.a)
        if k is not None:
            return mutant, k


def check_oracle_holds(checks: Checks, label: str, ident: PartitionIdentity,
                       order: int) -> None:
    ps = partition_counts(ident.S, ident.M, order)
    pt = partition_counts(ident.T, ident.M, order)
    k = first_mismatch(ps, pt, ident.kind, ident.a)
    checks.add(f"oracle agrees with {label} to order {order}", k is None,
               f"relation breaks at n={k}")


def check_mutants(checks: Checks, mutants, order: int) -> None:
    for label, mutant, k in mutants:
        rep = partitions.verify_identity(mutant, order)
        checks.add(f"mutant of {label} rejected at order {order}",
                   not rep.ok and rep.order == order and rep.first_fail == k,
                   f"ok={rep.ok} order={rep.order} first_fail="
                   f"{rep.first_fail}, oracle says {k}")


def check_special(checks: Checks, what: str, rep, order: int) -> None:
    checks.add(f"{what} reports order {order}", rep.order == order,
               f"reported {rep.order}")
    for c in rep.checks:
        checks.add(f"{what}: {c.name}", c.ok, f"first failure at {c.first_fail}")


def _mutated_inputs(entries, params, rng):
    """Oracle sample and mutants, drawn the same way for both verify loads."""
    sample = rng.sample(entries, params["oracle_samples"])
    mutants = []
    for e in rng.sample(entries, params["mutations"]):
        mutant, k = mutate(e.identity, rng)
        mutants.append((e.label, mutant, k))
    return sample, mutants


def _negative_control(entries, rng):
    """Swap one entry for a refuted mutant: its verdict check must fail."""
    victim = rng.randrange(len(entries))
    mutant, _ = mutate(entries[victim].identity, rng)
    out = list(entries)
    out[victim] = dataclasses.replace(entries[victim], identity=mutant)
    return out


# ----------------------------------------------------------------------
# verify-1000: qshift verify and qshift special at their defaults
# ----------------------------------------------------------------------

def prepare_catalog(entries, params, rng):
    sample, mutants = _mutated_inputs(entries, params, rng)
    if params.get("mutate_one"):
        entries = _negative_control(entries, rng)
    return {"entries": entries, "params": params,
            "sample": sample, "mutants": mutants}


def run_catalog(inp):
    p = inp["params"]
    return {"report": corpus.validate_corpus(inp["entries"], order=p["order"]),
            "rr": partitions.rogers_ramanujan_check(p["rr_order"]),
            "thm": partitions.verify_theorem_72_2(p["thm_order"])}


def items_catalog(out):
    return len(out["report"].results)


def check_catalog(inp, out, checks, full):
    p = inp["params"]
    order = p["order"]
    rep = out["report"]
    checks.add(f"catalog replay reports order {order}", rep.order == order,
               f"reported {rep.order}")
    labels = [e.label for e in inp["entries"]]
    checks.add("one verdict per entry, in order",
               [r.label for r in rep.results] == labels)
    for r in rep.results:
        checks.add(f"{r.label} passes at order {order}", r.ok, r.detail)
    check_special(checks, "rr", out["rr"], p["rr_order"])
    check_special(checks, "thm72-2", out["thm"], p["thm_order"])
    if full:
        for e in inp["sample"]:
            check_oracle_holds(checks, e.label, e.identity, order)
        check_mutants(checks, inp["mutants"], order)


# ----------------------------------------------------------------------
# verify-3000: one entry per modulus at a high order
# ----------------------------------------------------------------------

def prepare_per_modulus(entries, params, rng):
    by_mod: dict[int, list] = {}
    for e in entries:
        by_mod.setdefault(e.identity.M, []).append(e)
    # the first entry of each modulus, whatever the seed, so that the
    # timed work is the same in every run; the seed draws the checks
    picked = [by_mod[m][0] for m in sorted(by_mod)]
    sample, mutants = _mutated_inputs(picked, params, rng)
    if params.get("mutate_one"):
        picked = _negative_control(picked, rng)
    return {"entries": picked, "params": params,
            "sample": sample, "mutants": mutants}


def run_per_modulus(inp):
    p = inp["params"]
    return {"reports": [partitions.verify_identity(e.identity, p["order"])
                        for e in inp["entries"]],
            "rr": partitions.rogers_ramanujan_check(p["rr_order"]),
            "thm": partitions.verify_theorem_72_2(p["thm_order"])}


def check_per_modulus(inp, out, checks, full):
    p = inp["params"]
    order = p["order"]
    for e, rep in zip(inp["entries"], out["reports"], strict=True):
        checks.add(f"{e.label} passes at order {order}",
                   rep.ok and rep.order == order,
                   f"ok={rep.ok} order={rep.order} first_fail={rep.first_fail}")
    check_special(checks, "rr", out["rr"], p["rr_order"])
    check_special(checks, "thm72-2", out["thm"], p["thm_order"])
    if full:
        for e in inp["sample"]:
            check_oracle_holds(checks, e.label, e.identity, order)
        check_mutants(checks, inp["mutants"], order)


def items_per_modulus(out):
    return len(out["reports"])


# ----------------------------------------------------------------------
# classify-300: qshift classify on every modulus, then qshift act
# ----------------------------------------------------------------------

def _units(m: int) -> list[int]:
    return [a for a in range(1, m) if gcd(a, m) == 1]


def prepare_classify(entries, params, rng):
    by_mod: dict[int, list] = {}
    for e in entries:
        by_mod.setdefault(e.identity.M, []).append(e.identity)
    trips = []
    for e in entries:
        m = e.identity.M
        for _ in range(params["round_trips"]):
            trips.append((e.label, e.identity, rng.choice(_units(m))))
    sample = rng.sample(range(len(trips)), params["oracle_samples"])
    return {"by_mod": by_mod, "trips": trips, "params": params,
            "declared": corpus.load_manifest()["classes_per_modulus"],
            "sample": sorted(sample)}


def run_classify(inp):
    order = inp["params"]["order"]
    classes = {m: equivalence.classify(idents, n=order)
               for m, idents in sorted(inp["by_mod"].items())}
    trips = []
    for _, ident, alpha in inp["trips"]:
        m = ident.M
        try:
            image = equivalence.act(UnitAction(alpha, m), ident, n=order)
            back = equivalence.act(UnitAction(pow(alpha, -1, m), m), image,
                                   n=order)
        except NotAnIdentity:
            image = back = None
        trips.append((image, back))
    return {"classes": classes, "trips": trips}


def items_acts(out):
    # classify calls act once per unit alpha in 1..M/2, once per class
    in_classify = sum(len(cls) * (len(_units(m)) // 2)
                      for m, cls in out["classes"].items())
    return in_classify + 2 * len(out["trips"])


def check_classify(inp, out, checks, full):
    order = inp["params"]["order"]
    declared = {int(k): v for k, v in inp["declared"].items()}
    for m, cls in out["classes"].items():
        checks.add(f"modulus {m} has {declared.get(m)} classes",
                   len(cls) == declared.get(m), f"got {len(cls)}")
    total = sum(len(cls) for cls in out["classes"].values())
    checks.add(f"{PAPER_CLASS_TOTAL} classes in total",
               total == PAPER_CLASS_TOTAL, f"got {total}")
    for (label, ident, alpha), (image, back) in zip(inp["trips"], out["trips"],
                                                    strict=True):
        checks.add(f"{label} under alpha={alpha} and back returns itself",
                   back == ident, "image failed to verify" if image is None
                   else f"came back as {back}")
    if full:
        for k in inp["sample"]:
            label, ident, alpha = inp["trips"][k]
            image = out["trips"][k][0]
            if image is None:
                checks.add(f"image of {label} under {alpha} exists", False)
                continue
            m = ident.M
            folded = {frozenset(min(alpha * r % m, -alpha * r % m) for r in side)
                      for side in (ident.S, ident.T)}
            checks.add(f"image of {label} under {alpha} has the folded sets",
                       {image.S, image.T} == folded)
            check_oracle_holds(checks, f"image of {label} under {alpha}",
                               image, order)


# ----------------------------------------------------------------------
# search-found / search-empty: qshift search
# ----------------------------------------------------------------------

def prepare_search(entries, params, rng):
    cfg = search.SearchConfig(n_values=params["bases"],
                              exponent_bound=params["bound"], workers=1)
    expected = set()
    if params["expect_found"]:
        moduli = {2 * n for n in cfg.n_values}
        expected = {e.identity for e in entries if e.identity.M in moduli}
    return {"cfg": cfg, "expected": expected}


def run_scan(inp):
    return search.run_search(inp["cfg"])


def items_scanned(out):
    return out.scanned


def check_search(inp, out, checks, full):
    cfg = inp["cfg"]
    want = sum(admissible_tuples(cfg.bound_for(n)) for n in cfg.n_values)
    checks.add("scanned equals the Moebius count", out.scanned == want,
               f"scanned {out.scanned}, oracle {want}")
    hist = dict(out.histogram)
    failed_final = hist.pop(search.VERIFICATION_FAILED, 0)
    checks.add("no found identity fails its final check", failed_final == 0,
               f"{failed_final} failed")
    checks.add("histogram sums to scanned", sum(hist.values()) == out.scanned,
               f"sum {sum(hist.values())}, scanned {out.scanned}")
    found = [ident for _, ident in out.found]
    checks.add("found identities are the expected catalog entries",
               len(found) == len(set(found)) and set(found) == inp["expected"],
               f"found {len(found)}, expected {len(inp['expected'])}")
    if full:
        for params, ident in out.found:
            check_oracle_holds(checks, f"found identity {params.exponents()} "
                               f"base {params.n}", ident, SEARCH_ORACLE_ORDER)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

WORKLOADS = {
    "verify-1000": Workload(prepare_catalog, run_catalog, items_catalog,
                            check_catalog),
    "verify-3000": Workload(prepare_per_modulus, run_per_modulus,
                            items_per_modulus, check_per_modulus),
    "classify-300": Workload(prepare_classify, run_classify, items_acts,
                             check_classify),
    "search-found": Workload(prepare_search, run_scan, items_scanned,
                             check_search),
    "search-empty": Workload(prepare_search, run_scan, items_scanned,
                             check_search, host_kernel="numpy"),
}

PARAMS = {
    "verify-1000": {"order": 1000, "rr_order": 1000, "thm_order": 600,
                    "oracle_samples": 4, "mutations": 6},
    "verify-3000": {"order": 3000, "rr_order": 3000, "thm_order": 3000,
                    "oracle_samples": 1, "mutations": 2},
    "classify-300": {"order": 300, "round_trips": 2, "oracle_samples": 12},
    "search-found": {"bases": (16, 20, 23), "bound": None,
                     "expect_found": True},
    "search-empty": {"bases": (29,), "bound": None, "expect_found": False},
}

# small orders and base 16 only: every workload in a few seconds
QUICK_PARAMS = {
    "verify-1000": {"order": 120, "rr_order": 120, "thm_order": 120,
                    "oracle_samples": 2, "mutations": 2},
    "verify-3000": {"order": 300, "rr_order": 300, "thm_order": 300,
                    "oracle_samples": 1, "mutations": 1},
    "classify-300": {"order": 80, "round_trips": 1, "oracle_samples": 4},
    "search-found": {"bases": (16,), "bound": None, "expect_found": True},
    "search-empty": {"bases": (16,), "bound": 6, "expect_found": False},
}
