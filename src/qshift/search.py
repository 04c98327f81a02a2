"""Pruned, parallel enumeration of four-parameter instantiations.

The search space for base n is every tuple (a, b, c, x, y) in
[1, bound]^5 (bound defaults to n - 1) with gcd(a,b,c,x,y) = 1 and
x <= y (the relation is symmetric in x, y).  For each tuple the two
base-2n quotient terms either hit a vanishing bracket (degenerate), fail
to cancel their numerators, or reduce to a candidate identity.

Degeneracy and numerator cancellation depend only on the folded
residues of twelve linear expressions in the parameters, so both are
decided for whole (c, x, y) blocks at once with numpy before any exact
arithmetic runs: an atom [e : 2n] vanishes iff e = 0 mod n, and a
numerator atom cancels iff its folded residue is available in the
denominator multiset.  The tuples surviving this exact prefilter are
reduced together by jacobi.derive_batch, the numpy form of the symbolic
reduction derive_identity performs on one tuple; Python identity objects
are built only for the first tuple of each distinct (kind, a, S, T) in a
unit, and every emitted identity is re-verified against partition
counts before it is reported.

Results are kept primitive: an identity whose residues all share a
factor d with M is a rescaled copy of a smaller-modulus identity (for
example every surviving base-42 tuple yields a doubled modulus-42
identity), so such results are counted as "imprimitive" and not
emitted.  Tuples whose twelve expressions all share a factor with n are
dropped by the same rule before any exact work.

Work is split into (n, a, b) units processed independently (optionally
by a process pool of at most os.cpu_count() workers); the merged result
is deterministic and sorted.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Iterator, Mapping

import numpy as np

from .jacobi import FAILURE_REASONS, FourParams, _four2_exprs, derive_batch
from .partitions import PartitionIdentity, verify_identity

VERIFY_ORDER = 200
# _prefilter holds every candidate (c, x, y) of a unit at once; its
# tracemalloc peak is about 731 bytes per candidate at bounds 20 to 60
PREFILTER_BUDGET_BYTES = 1 << 28
PREFILTER_BYTES_PER_TUPLE = 768
DEGENERATE = "degenerate"
IMPRIMITIVE = "imprimitive"
VERIFICATION_FAILED = "verification-failed"


@dataclass(frozen=True)
class SearchConfig:
    """Search space description.

    exponent_bound None means n - 1 for each base n.  workers is the
    number of worker processes, capped at the unit count and at
    os.cpu_count(); 1 runs everything in-process.  A bound whose units
    would need more than PREFILTER_BUDGET_BYTES in the prefilter (the
    ceiling is 88) is refused; the default n - 1 fits for every base up
    to 60.
    """

    n_values: tuple[int, ...]
    exponent_bound: int | None = None
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "n_values",
                           tuple(sorted(set(self.n_values))))
        if not self.n_values:
            raise ValueError("need at least one base")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        for n in self.n_values:
            bound = self.bound_for(n)
            if bound < 5:
                raise ValueError(
                    f"exponent bound {bound} for base {n} "
                    "cannot admit five distinct exponents")
            if not self._fits(bound):
                top = 5
                while self._fits(top + 1):
                    top += 1
                raise ValueError(
                    f"exponent bound {bound} for base {n} is above the "
                    f"ceiling of {top}, where one unit of the prefilter "
                    f"would exceed {PREFILTER_BUDGET_BYTES >> 20} MiB")

    def bound_for(self, n: int) -> int:
        return self.exponent_bound if self.exponent_bound is not None else n - 1

    def _fits(self, bound: int) -> bool:
        """Whether one (n, a, b) unit at this bound fits the budget."""
        pairs = bound * (bound + 1) // 2
        return (bound * pairs * PREFILTER_BYTES_PER_TUPLE
                <= PREFILTER_BUDGET_BYTES)


@dataclass(frozen=True)
class SearchResult:
    found: tuple[tuple[FourParams, PartitionIdentity], ...]
    scanned: int
    histogram: Mapping[str, int]


def enumerate_params(cfg: SearchConfig) -> Iterator[FourParams]:
    """All tuples of the search space in lexicographic (n,a,b,c,x,y) order."""
    for n in cfg.n_values:
        bound = cfg.bound_for(n)
        rng = range(1, bound + 1)
        for a in rng:
            for b in rng:
                for c in rng:
                    for x in rng:
                        for y in range(x, bound + 1):
                            if gcd(gcd(gcd(a, b), gcd(c, x)), y) == 1:
                                yield FourParams(a, b, c, x, y, n)


# ----------------------------------------------------------------------
# one (n, a, b) work unit
# ----------------------------------------------------------------------

def _fold(e, m):
    r = e % m
    return np.minimum(r, m - r)


def _cancels(num, den):
    """Rows where the 4-row numerator multiset embeds into the 16-row
    denominator multiset (columns are candidate tuples)."""
    in_den = (num[:, None, :] == den[None, :, :]).sum(axis=1)
    in_num = (num[:, None, :] == num[None, :, :]).sum(axis=1)
    return (in_den >= in_num).all(axis=0)


def _prefilter(n, a, b, bound):
    """Scan one (n, a, b) unit in numpy.

    Returns (scanned, histogram, C, X, Y): the histogram counts the
    tuples rejected here, and C, X, Y hold the (c, x, y) of the
    survivors in scan order.
    """
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
    del t1, t2  # the per-term arrays would count against the memory budget
    t1_core, t2_core, shared = all12[:4], all12[4:8], all12[8:]

    m = 2 * n
    cancel_ok = np.ones(scanned, dtype=bool)
    for core in (t1_core, t2_core):
        den = np.concatenate([core, shared])
        den16 = np.concatenate([_fold(den, m), _fold(den + n, m)])
        cancel_ok &= _cancels(_fold(2 * core, m), den16)
    nondegen = ~(all12 % n == 0).any(axis=0)
    # if every linear expression shares a factor with n, every residue of
    # the would-be identity does too, so it rescales to a smaller modulus
    imprim = np.gcd(np.gcd.reduce(np.abs(all12)), n) > 1
    hist[DEGENERATE] = scanned - int(nondegen.sum())
    hist[IMPRIMITIVE] = int((nondegen & imprim).sum())
    hist["incomplete-cancellation"] = int((nondegen & ~imprim & ~cancel_ok).sum())

    keep = nondegen & ~imprim & cancel_ok
    return scanned, hist, C[keep], X[keep], Y[keep]


def _scan_unit(args):
    n, a, b = args[:3]
    scanned, hist, C, X, Y = _prefilter(*args)
    found = []
    if C.size == 0:
        return scanned, hist, found
    # the prefilter has ruled out vanishing atoms: no DegenerateZero here
    batch = derive_batch(n, a, b, C, X, Y)
    labels = ("ok",) + FAILURE_REASONS + (IMPRIMITIVE,)
    code = np.where((batch.reason == 0) & ~batch.primitive,
                    len(labels) - 1, batch.reason)
    # tally in order of first occurrence, as a tuple-by-tuple loop would,
    # so the histogram's key order is unchanged too
    codes, first, counts = np.unique(code, return_index=True,
                                     return_counts=True)
    for j in np.argsort(first):
        hist[labels[codes[j]]] += int(counts[j])
    rows = np.flatnonzero(code == 0)
    keys = np.column_stack((batch.shifted, batch.shift, batch.S, batch.T))
    _, first = np.unique(keys[rows], axis=0, return_index=True)
    for i in rows[np.sort(first)].tolist():
        params = FourParams(a, b, int(C[i]), int(X[i]), int(Y[i]), n)
        found.append((params, batch.identity(i)))
    return scanned, hist, found


def _units(cfg: SearchConfig):
    for n in cfg.n_values:
        bound = cfg.bound_for(n)
        for a in range(1, bound + 1):
            for b in range(1, bound + 1):
                yield (n, a, b, bound)


def run_search(cfg: SearchConfig) -> SearchResult:
    """Scan the whole space, dedupe by identity, and sort the results.

    Prefilter survivors go through derive_batch, one batch per unit.
    When one identity arises from several parameter tuples the first in
    scan order is kept, which is the lexicographically least.  Each
    deduplicated identity is verified against partition counts at order
    200 before it is emitted; the emitted list is sorted by (M, S, T).
    The histogram tallies the outcome of every scanned tuple ("ok" counts
    tuples whose reduction succeeded), plus one "verification-failed"
    entry per deduplicated identity that failed the final check.
    """
    units = list(_units(cfg))
    scanned = 0
    hist = Counter()
    raw = []
    pool = None
    if cfg.workers != 1:
        pool = multiprocessing.Pool(
            min(cfg.workers, len(units), os.cpu_count() or 1))
    try:
        results = (map(_scan_unit, units) if pool is None
                   else pool.imap(_scan_unit, units, chunksize=4))
        for unit_scanned, unit_hist, unit_found in results:
            scanned += unit_scanned
            hist.update(unit_hist)
            raw.extend(unit_found)
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    seen = {}
    for params, ident in raw:
        seen.setdefault(ident, params)
    found = []
    for ident, params in seen.items():
        if verify_identity(ident, VERIFY_ORDER).ok:
            found.append((params, ident))
        else:
            hist[VERIFICATION_FAILED] += 1
    found.sort(key=lambda pair: pair[1].key())
    return SearchResult(tuple(found), scanned, dict(hist))
