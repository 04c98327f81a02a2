"""Pruned, parallel enumeration of four-parameter instantiations.

The search space for base n is every tuple (a, b, c, x, y) in
[1, bound]^5 (bound defaults to n - 1) with gcd(a,b,c,x,y) = 1 and
x <= y (the relation is symmetric in x, y).  For each tuple the two
base-2n quotient terms either hit a vanishing bracket (degenerate), fail
to cancel their numerators, or reduce to a candidate identity.

Degeneracy and numerator cancellation depend only on the folded
residues of twelve linear expressions in the parameters, so both are
decided for whole blocks of tuples at once with numpy before any exact
arithmetic runs: an atom [e : 2n] vanishes iff e = 0 mod 2n, so a tuple
is degenerate iff one of its expressions is 0 mod n, and a numerator
atom cancels iff its folded residue is available in the denominator
multiset.  All of it is read exactly from one row per expression,
h(e) = fold_n(e) = min(e mod n, n - e mod n), by three identities:
fold_2n(e) + fold_2n(e + n) = n, so a term's sixteen denominator
values are eight pairs {h, n - h}; fold_2n(2e) = 2 h(e), so its
numerator values are 2h; and e = 0 (mod n) iff h(e) = 0, while a prime
of n divides e iff it divides h(e).

Translation lemma: the prefilter's verdict on (a, b, c, x, y) depends
only on d = b - a and on c - a, x - a, y - a mod n.  Proof: the
coefficients of each of the twelve expressions sum to 0 (b - c,
x + y - b - c, a - b, c - x, ...), so adding one t to all five
exponents leaves every expression unchanged, and
e(a, b, c, x, y) = e(0, d, c - a, x - a, y - a); e is an integer
combination of those differences, so e mod n is a function of their
residues mod n, and h depends on e mod n alone.  So the search works
diagonal by diagonal: diagonal d computes one outcome code per class
cell (c - a, x - a, y - a), its cube, at a = 0 and b = d, and each
(n, a, a + d) unit reads its tuples' codes from the cube.  The classes
are the K = min(n, 2 bound - 1) residues mod n that a difference of two
exponents in [1, bound] reaches.  Each expression is one of seven linear
forms in (c, x, y) plus a constant in (a, b); the form rows over the
class grid are kept mod 2n in their smallest unsigned dtype (uint8 up to
n = 128), built once per (n, bound), and each h row of a slab of a cube
is one lookup into the fold_n table of length 2n shifted by the
diagonal's constant; the multiset test runs on those rows in their
dtype.  The gcd filter is not translation-invariant, so each unit
applies it to its own tuples.  The surviving tuples of one diagonal are
reduced together by derive_batch, the numpy form of the symbolic
reduction jacobi.derive_identity performs on one tuple; Python identity
objects are built only once per distinct (kind, a, S, T) of a batch,
and every emitted identity is re-verified against partition counts
before it is reported.  The batch reduction lives here, with its only
caller, so this is the one module that imports numpy: every other
command starts without it.

Results are kept primitive: an identity whose residues all share a
factor d with M is a rescaled copy of a smaller-modulus identity (for
example every surviving base-42 tuple yields a doubled modulus-42
identity), so such results are counted as "imprimitive" and not
emitted.  Tuples whose twelve expressions all share a factor with n are
dropped by the same rule before any exact work.

The prefilter is symmetric in a and b: swapping them exchanges the two
terms' core expressions and negates a - b, and fold_n(-e) = fold_n(e)
(the proof is at _scan_unit).  So each unordered {a, b} is scanned
once, and its survivors are reduced at both (a, b) and (b, a), which
derive_batch tells apart.

Work is split into (n, d) diagonals processed independently (optionally
by a process pool of at most os.cpu_count() workers).  Diagonal d builds
its cube, reads from it the codes of its bound - d units (n, a, a + d)
in turn, holds their survivors in one pending list and reduces them at
(a, a + d) and, for d > 0, at (a + d, a), in one derive_batch each, or
in several, in scan order, when they would not fit
PREFILTER_BUDGET_BYTES at once.  Each diagonal keeps one ledger mapping
every outcome and every identity to its lexicographically least tuple
(n, a, b, c, x, y).  The diagonals' ledgers merge with one min per key,
each identity is reported at its least tuple, and the histogram lists
outcomes in the order of their least tuples, so the merged result does
not depend on the order diagonals finish in; it is deterministic and
sorted.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Mapping

import numpy as np

from .jacobi import (
    FAILURE_REASONS,
    INCOMPLETE_CANCELLATION,
    FourParams,
    _four2_exprs,
)
from .partitions import SHIFTED, SHIFTLESS, PartitionIdentity, verify_identity
from .theta import DegenerateZero

VERIFY_ORDER = 200
# one (n, a, b) unit at PREFILTER_BYTES_PER_TUPLE per candidate (c, x, y)
# must fit PREFILTER_BUDGET_BYTES; the constant keeps the bound ceiling of
# 88.  What the prefilter of one diagonal holds fits within one unit's
# share, even at the ceiling's largest cube, 175^3 cells: per class cell,
# the form rows over the class grid, whose tracemalloc peak is about 13
# to 18 bytes per cell while they are built, then the diagonal's cube,
# one byte per cell; per column of one slab of the cube or of one unit's
# gather, at most one unit wide, about 56 bytes per slab cell in uint8
# rows, 72 in uint16 and 105 in uint32, and 3 to 9 per gathered tuple,
# at bounds 20 to 60
PREFILTER_BUDGET_BYTES = 1 << 28
PREFILTER_BYTES_PER_TUPLE = 768
# derive_batch peaks at about 700 bytes per survivor plus 32 per survivor
# and residue 0..n, for its (n + 1)-wide count tables, at bases 23 to 3000
DERIVE_BYTES_PER_SURVIVOR = 1024
DERIVE_BYTES_PER_COUNT = 32
# _base_tables peaks at about 24 bytes per residue mod 2n while it builds
# the residue tables of a base, whatever the bound, at bases 20,000 to
# 1,398,101; the constant keeps the base ceiling of 1,398,101
TABLE_BYTES_PER_RESIDUE = 96
DEGENERATE = "degenerate"
IMPRIMITIVE = "imprimitive"
VERIFICATION_FAILED = "verification-failed"
# the rejections _prefilter tallies, in the order it tallies them
_PREFILTER_LABELS = (DEGENERATE, IMPRIMITIVE, INCOMPLETE_CANCELLATION)


@dataclass(frozen=True)
class SearchConfig:
    """Search space description.

    Every base must be at least 1.  exponent_bound None means n - 1 for
    each base n.  workers is the number of worker processes, capped at
    the number of (n, d) diagonals and at os.cpu_count(); 1 runs everything
    in-process.  A bound whose units
    would need more than PREFILTER_BUDGET_BYTES in the prefilter (the
    ceiling is 88) is refused; the default n - 1 fits for every base up
    to 89.  So is a base whose residue tables, of length 2n, would need
    more (the ceiling is 1,398,101).
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
            if n < 1:
                raise ValueError(f"base {n} must be positive")
            bound = self.bound_for(n)
            if bound < 5:
                raise ValueError(
                    f"exponent bound {bound} for base {n} "
                    "cannot admit five distinct exponents")
            if 2 * n * TABLE_BYTES_PER_RESIDUE > PREFILTER_BUDGET_BYTES:
                top = PREFILTER_BUDGET_BYTES // (2 * TABLE_BYTES_PER_RESIDUE)
                raise ValueError(
                    f"base {n} is above the ceiling of {top}, where the "
                    f"prefilter's residue tables would exceed "
                    f"{PREFILTER_BUDGET_BYTES >> 20} MiB")
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


# ----------------------------------------------------------------------
# one (n, d) diagonal of (n, a, a + d) units
# ----------------------------------------------------------------------

def _prime_factors(n):
    """The distinct primes dividing n, by trial division."""
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] if n > 1 else primes


@dataclass(frozen=True)
class _BaseTables:
    """What every unit and every diagonal of one (n, bound) share.

    K = min(n, 2 bound - 1) counts the classes, the residues mod n that
    a difference of two exponents in [1, bound] reaches: all n, or the
    2 bound - 1 differences themselves when they are distinct mod n.
    C, X, Y hold the candidate (c, x, y) of a unit in scan order, c
    outermost, and g their gcd.  cls maps a difference c - a, at index
    c - a + bound - 1, to its class index (c - a) mod K; class k stands
    for the difference k, or k - K when k >= bound.  The four2
    expressions are affine, so each is a linear form in (c, x, y), its
    value at a = b = 0, plus a constant in (a, b), its value at
    c = x = y = 0.  grid holds each distinct form
    mod 2n over the class grid, the forms' values at the classes'
    differences, as an array that broadcasts to (K, K, K) with axis 0
    full, and form_of names the form of each of the twelve expressions,
    or None for a - b, which involves no (c, x, y).  fold_n maps a
    residue r mod 2n to h = fold_n(r) = min(r mod n, n - r mod n),
    stored twice over, and prime_mask maps h in [0, n // 2] to the
    bitmask of the primes of n dividing h.
    """

    n: int
    bound: int
    K: int
    C: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    g: np.ndarray
    cls: np.ndarray
    grid: tuple
    form_of: tuple
    fold_n: np.ndarray
    prime_mask: np.ndarray


@lru_cache(maxsize=1)
def _base_tables(n, bound):
    """The _BaseTables of (n, bound).  Units run base by base, so one
    entry suffices, and each worker process builds its own."""
    m, K = 2 * n, min(n, 2 * bound - 1)
    small = np.min_scalar_type(max(m - 1, bound))
    xs, ys = np.triu_indices(bound)
    C = np.repeat(np.arange(1, bound + 1), len(xs))
    X = np.tile(xs + 1, bound)
    Y = np.tile(ys + 1, bound)
    i = np.arange(K, dtype=np.int32)
    diff = np.where(i < bound, i, i - K)
    (t1, t2), shared = _four2_exprs(0, 0, diff[:, None, None],
                                    diff[None, :, None], diff[None, None, :])
    grid, form_of = [], []
    for e in t1[2] + t2[2] + shared:
        if np.ndim(e) == 0:
            form_of.append(None)
            continue
        e = np.broadcast_to((e % m).astype(small), (K, *e.shape[1:]))
        j = next((j for j, f in enumerate(grid) if np.array_equal(f, e)),
                 len(grid))
        if j == len(grid):
            grid.append(e)
        form_of.append(j)
    r = np.arange(m) % n
    fold_n = np.minimum(r, n - r).astype(small)
    primes = _prime_factors(n)
    h = np.arange(n // 2 + 1)
    mask = np.zeros(len(h), dtype=np.min_scalar_type((1 << len(primes)) - 1))
    for k, p in enumerate(primes):
        mask[h % p == 0] |= 1 << k
    tables = _BaseTables(
        n, bound, K, C.astype(small), X.astype(small), Y.astype(small),
        np.gcd(np.gcd(C, X), Y).astype(small),
        np.arange(1 - bound, bound) % K, tuple(grid), tuple(form_of),
        np.concatenate((fold_n, fold_n)), mask)
    for a in (tables.C, tables.X, tables.Y, tables.g, tables.cls,
              tables.fold_n, tables.prime_mask):
        a.flags.writeable = False
    return tables


# the order of the twelve expressions in a slab's rows: term 1's core,
# the shared expressions, term 2's core, so that each term's core and
# shared rows are one slice
_ROW_ORDER = (*range(4), *range(8, 12), *range(4, 8))
# a class cell's outcome code: 0 for a survivor, _CODE[label] for a
# rejection; a unit marks the tuples it does not scan, those sharing a
# factor with gcd(a, b), as _UNSCANNED
_CODE = {label: 1 + k for k, label in enumerate(_PREFILTER_LABELS)}
_UNSCANNED = len(_PREFILTER_LABELS) + 1


def _outcome_cube(t, d):
    """The (K, K, K) uint8 outcome codes of diagonal d over the base
    tables t: cell (i, j, k) holds the prefilter's verdict on every
    tuple (a, a + d, c, x, y) whose c - a, x - a, y - a fall in classes
    i, j, k, by the translation lemma of the module docstring.

    The cube is built at a = 0, b = d, in slabs of whole planes of
    classes of c - a, as many as fit one unit's columns and at least
    one.  Each of the twelve expressions e of a slab gets one row
    h(e) = fold_n(e) = min(e mod n, n - e mod n), and everything decided
    here follows exactly from those rows, by three identities:

    - fold_2n(e) + fold_2n(e + n) = n, and {fold_2n(e), fold_2n(e + n)}
      = {h(e), n - h(e)}: a term's sixteen denominator values are the
      eight pairs {h_j, n - h_j} of its core and shared rows;
    - fold_2n(2e) = 2 h(e): its four numerator values are 2 h over its
      core rows;
    - e = 0 (mod n) iff h(e) = 0, and since n = 0 (mod p), a prime p of
      n divides e iff it divides h(e).

    A row is one lookup into fold_n, a table of length 2n: with L an
    expression's linear form in (c, x, y) and k its constant, stored as
    L mod 2n, the row is fold_n[(L mod 2n + k) mod 2n], the table rolled
    by k, which is a slice since the table is stored twice.  This is
    exact: (L mod 2n + k) mod 2n = e mod 2n, and h depends on e mod n
    alone.  The rows share the dtype of the form rows, which holds
    2n - 1 (uint8 up to n = 128), and so does all arithmetic on them:
    0 <= h <= n / 2, so 2h <= n and n - 2h >= 0.

    A cell is degenerate when some h is 0, and imprimitive when one
    prime of n divides all twelve h.  A term cancels when its numerator
    multiset embeds into its denominator multiset (_embeds).  The codes
    take that precedence: degenerate, imprimitive, then
    incomplete-cancellation.
    """
    n, m, K = t.n, 2 * t.n, t.K
    cube = np.empty((K, K, K), np.uint8)
    (t1, t2), shared = _four2_exprs(0, d, 0, 0, 0)
    consts = t1[2] + t2[2] + shared
    planes = max(1, len(t.C) // (K * K))
    for lo in range(0, K, planes):
        cut = slice(lo, lo + planes)
        slab = cube[cut]
        H = np.empty((12, *slab.shape), dtype=t.fold_n.dtype)
        for row, i in zip(H, _ROW_ORDER):
            k = consts[i] % m
            if t.form_of[i] is None:
                row.fill(t.fold_n[k])
            else:
                row[...] = np.take(t.fold_n[k:k + m],
                                   t.grid[t.form_of[i]][cut], mode="clip")
        H = H.reshape(12, -1)
        nondegen = H.all(axis=0)
        cancel_ok = _embeds(H[:4], H[:8], n) & _embeds(H[8:], H[4:], n)
        # if a prime of n divides every linear expression, it divides
        # every residue of the would-be identity, which rescales to a
        # smaller modulus; a - b, the fill in row 4, comes first, and the
        # scan stops once no prime is left
        common = t.prime_mask[t.fold_n[-d % m]]
        for row in (*H[:4], *H[5:]):
            if not np.any(common):
                break
            common = common & t.prime_mask[row]
        codes = slab.reshape(-1)
        codes.fill(_CODE[INCOMPLETE_CANCELLATION])
        codes[cancel_ok] = 0
        codes[np.broadcast_to(common != 0, codes.shape)] = _CODE[IMPRIMITIVE]
        codes[~nondegen] = _CODE[DEGENERATE]
    cube.flags.writeable = False
    return cube


def _prefilter(t, cube, a, b):
    """Scan one (n, a, b) unit in numpy, given its base tables t and the
    outcome cube of its diagonal b - a.

    Returns (scanned, histogram, C, X, Y): the histogram counts the
    tuples rejected here, and C, X, Y hold the (c, x, y) of the
    survivors in scan order.

    Each tuple's verdict is its class cell's code in the cube: the cell
    of (c, x, y) is the class of c - a, x - a, y - a, read through the
    base's lookup cls.  The gcd filter, which is not
    translation-invariant, then drops the tuples sharing a factor with
    gcd(a, b); they are not scanned.
    """
    bound, K = t.bound, t.K
    pairs = len(t.C) // bound
    cls = t.cls[bound - a:2 * bound - a]
    # the plane of each c, then the cell of each (x, y) pair in it
    xy = cls[t.X[:pairs] - 1] * K + cls[t.Y[:pairs] - 1]
    codes = cube.reshape(K, -1)[cls].take(xy, axis=1).reshape(-1)
    k = gcd(a, b)
    if k > 1:
        shares = np.gcd(np.arange(bound + 1), k) > 1
        codes[shares.take(t.g)] = _UNSCANNED
    hist = Counter({label: int(np.count_nonzero(codes == _CODE[label]))
                    for label in _PREFILTER_LABELS})
    keep = np.flatnonzero(codes == 0)
    scanned = len(codes) - int(np.count_nonzero(codes == _UNSCANNED))
    return scanned, hist, t.C[keep], t.X[keep], t.Y[keep]


def _embeds(core, den, n):
    """Columns where a term's numerator multiset embeds into its
    denominator multiset, from the 4 rows h of its core and the 8 rows
    h_j of its core and shared expressions.

    Its numerator values are v = 2h.  Its denominator values are the
    pairs {h_j, n - h_j}, with h_j <= n / 2, so v occurs among them
    #{j : h_j = min(v, n - v)} times, and twice that when 2v = n, that
    is min(v, n - v) = n / 2, which needs 4 | n as v is even.  v occurs
    among the numerator values #{k : h_k = h} times.  Counts are at most
    16 and held in uint8.
    """
    want = np.minimum(2 * core, n - 2 * core)
    have = (want[:, None] == den[None]).sum(axis=1, dtype=np.uint8)
    if n % 4 == 0:
        have <<= want == n // 2
    need = (core[:, None] == core[None]).sum(axis=1, dtype=np.uint8)
    return (have >= need).all(axis=0)


# ----------------------------------------------------------------------
# the batch reduction: jacobi.derive_identity in numpy
# ----------------------------------------------------------------------

# Exponents and bases up to this size keep every quantity in derive_batch
# within int64; see its docstring.
_BATCH_LIMIT = 1 << 24


@dataclass(frozen=True)
class BatchDerivation:
    """jacobi.derive_identity over a batch of tuples sharing one base n.

    Row i describes tuple i.  reason[i] is 0 on success and otherwise
    1 + the index of the failure in FAILURE_REASONS.  For a success,
    shifted[i] and shift[i] give the kind and a, and S[i] and T[i] are
    boolean masks over the residues 0..n of modulus 2n; primitive[i]
    tells whether gcd(2n, S, T) = 1.  Other fields of a failed row are
    unspecified.
    """

    n: int
    reason: np.ndarray
    shifted: np.ndarray
    shift: np.ndarray
    S: np.ndarray
    T: np.ndarray
    primitive: np.ndarray

    def identity(self, i: int) -> PartitionIdentity:
        """The identity derived from the successful row i."""
        return PartitionIdentity(
            2 * self.n,
            frozenset(np.flatnonzero(self.S[i]).tolist()),
            frozenset(np.flatnonzero(self.T[i]).tolist()),
            SHIFTED if self.shifted[i] else SHIFTLESS,
            int(self.shift[i]))


def _normalize_batch(e: np.ndarray, m: int):
    """theta.normalize_atom on every bracket [e : m] of the array e:
    (odd sign, qshift, residue)."""
    k = e // m
    r0 = e - k * m
    if not r0.all():
        raise DegenerateZero(f"a bracket [e : {m}] with e divisible by {m} vanishes")
    return k & 1, -(k * r0 + m * (k * (k - 1) // 2)), np.minimum(r0, m - r0)


def _residue_counts(r: np.ndarray, n: int) -> np.ndarray:
    """Multiset of residues 0..n in each column of r, as (columns, n+1) counts."""
    rows = r.shape[1]
    flat = r + (n + 1) * np.arange(rows)
    return np.bincount(flat.ravel(), minlength=rows * (n + 1)).reshape(rows, n + 1)


def _reduce_batch(sign: int, qexp: np.ndarray, core, shared, n: int):
    """jacobi._term on a batch of one four2 term, as jacobi.four2_terms
    builds it.

    Returns (odd, qexp, left): the sign parity, the q-exponent and the
    denominator counts minus the numerator counts.  A negative count is
    a numerator atom that found nothing to cancel against.
    """
    m = 2 * n
    base = np.stack(core + shared)
    num_odd, num_shift, num_r = _normalize_batch(2 * np.stack(core), m)
    den_odd, den_shift, den_r = _normalize_batch(
        np.concatenate([base, base + n]), m)
    odd = (int(sign < 0) + num_odd.sum(axis=0) + den_odd.sum(axis=0)) & 1
    qexp = qexp + num_shift.sum(axis=0) - den_shift.sum(axis=0)
    left = _residue_counts(den_r, n) - _residue_counts(num_r, n)
    return odd, qexp, left


def _classify_batch(odd1, q1, left1, odd2, q2, left2):
    """jacobi._classify_reduced on a batch of reduced term pairs.

    Takes each term's sign parity, q-exponent and leftover counts and
    returns (reason, shifted, shift, plus, minus) with the reasons
    tested in the same order as _classify_reduced.
    """
    incomplete = (left1 < 0).any(axis=1) | (left2 < 0).any(axis=1)
    repeated = (left1 > 1).any(axis=1) | (left2 > 1).any(axis=1)
    equal = (left1 == left2).all(axis=1)
    first_plus = odd1 == 0
    plus_q = np.where(first_plus, q1, q2)
    minus_q = np.where(first_plus, q2, q1)
    shifted = (plus_q == 0) & (minus_q >= 1)
    shiftless = (plus_q == minus_q) & (plus_q < 0)
    unrecognized = (odd1 == odd2) | ~(shifted | shiftless)
    reason = np.select([incomplete, repeated, equal, unrecognized],
                       [1, 2, 3, 4], 0)
    shift = np.where(shifted, minus_q, -plus_q)
    plus = np.where(first_plus[:, None], left1, left2) == 1
    minus = np.where(first_plus[:, None], left2, left1) == 1
    return reason, shifted, shift, plus, minus


def derive_batch(n: int, a, b, c, x, y) -> BatchDerivation:
    """jacobi.derive_identity for every tuple (a, b, c, x, y) of the
    broadcast integer arrays, all over base n, plus the primitivity test.

    Each term's 20 atoms are normalized with k = e // 2n and
    r0 = e - 2n k; the leftover denominator is the 16-atom residue
    multiset minus the 4-atom numerator.  Raises DegenerateZero if any
    atom of any row vanishes, and ValueError if n or an exponent is not
    below 2^24.

    Exactness: all arithmetic is int64.  With exponents in [1, n-1], the
    search default, every core or shared expression lies in (-2n, 2n),
    so atom exponents lie in (-4n, 4n), k is in {-2, -1, 0, 1}, each
    |qshift| = |k r0 + 2n k(k-1)/2| < 4n + 6n, and a term's q-exponent,
    20 shifts plus a prefactor below 2n, stays below 202n.  For any
    exponents and n below 2^24, atom exponents E stay below 2^27 and
    |k| <= E/2n + 1, so |k r0| < E + 2n < 2^28 and
    2n k(k-1)/2 <= (E + 4n)^2 / 4n < 2^54; 20 shifts sum to below 2^60.
    """
    args = [np.asarray(v, dtype=np.int64) for v in (a, b, c, x, y)]
    if not 1 <= n < _BATCH_LIMIT or any(
            v.size and np.abs(v).max() >= _BATCH_LIMIT for v in args):
        raise ValueError(f"base and exponents must lie below {_BATCH_LIMIT}")
    terms, shared = _four2_exprs(*np.broadcast_arrays(*args))
    (odd1, q1, left1), (odd2, q2, left2) = (
        _reduce_batch(sign, qexp, core, shared, n)
        for sign, qexp, core in terms)
    reason, shifted, shift, S, T = _classify_batch(odd1, q1, left1,
                                                    odd2, q2, left2)
    present = np.where(S | T, np.arange(n + 1), 0)
    primitive = np.gcd(np.gcd.reduce(present, axis=1), 2 * n) == 1
    return BatchDerivation(n, reason, shifted, shift, S, T, primitive)


def _derive_cap(n):
    """How many survivors of base n one derive_batch may reduce within
    PREFILTER_BUDGET_BYTES, at least one."""
    per = DERIVE_BYTES_PER_SURVIVOR + DERIVE_BYTES_PER_COUNT * (n + 1)
    return max(1, PREFILTER_BUDGET_BYTES // per)


def _reduce_survivors(n, a, b, C, X, Y, hist, least):
    """Reduce the survivors (a, b, c, x, y), given as columns in
    ascending order of their tuples (n, a, b, c, x, y), by derive_batch
    in batches of at most _derive_cap(n).

    hist counts each outcome.  least is the diagonal's ledger: it maps
    each outcome label and each identity to the least tuple giving it.
    The tuples ascend, so the first of a batch with a given outcome or
    identity is its least there; an identity is built once per distinct
    (kind, a, S, T) of a batch.
    """
    A, B = np.broadcast_to(a, C.shape), np.broadcast_to(b, C.shape)
    labels = ("ok",) + FAILURE_REASONS + (IMPRIMITIVE,)
    cap = _derive_cap(n)

    def keep(key, k):
        t = (n, int(A[k]), int(B[k]), int(C[k]), int(X[k]), int(Y[k]))
        least[key] = min(least.get(key, t), t)

    for lo in range(0, len(C), cap):
        cut = slice(lo, lo + cap)
        # the prefilter has ruled out vanishing atoms: no DegenerateZero
        batch = derive_batch(n, A[cut], B[cut], C[cut], X[cut], Y[cut])
        code = np.where((batch.reason == 0) & ~batch.primitive,
                        len(labels) - 1, batch.reason)
        counts = np.bincount(code)
        codes, firsts = np.unique(code, return_index=True)
        for c, i in zip(codes.tolist(), firsts.tolist()):
            hist[labels[c]] += int(counts[c])
            keep(labels[c], lo + i)
        rows = np.flatnonzero(code == 0)
        keys = np.column_stack((batch.shifted[rows], batch.shift[rows],
                                batch.S[rows], batch.T[rows]))
        step = keys.itemsize * keys.shape[1]
        blob = keys.tobytes()
        first = {}
        for j, i in enumerate(rows.tolist()):
            first.setdefault(blob[j * step:(j + 1) * step], i)
        for i in first.values():
            keep(batch.identity(i), lo + i)


def _scan_unit(args):
    """Scan one (n, d) diagonal: the prefilter of each unit
    (n, a, a + d), a = 1 .. bound - d, in a order, all read from the
    diagonal's one outcome cube, then derive_batch on the diagonal's
    survivors at (a, a + d) and, for d > 0, at (a + d, a) as well.

    Units (n, a, b) and (n, b, a) give the same prefilter result.
    Swapping a and b maps term 1's core expressions (b - c, a - x,
    a - y, x + y - b - c) onto term 2's (a - c, b - x, b - y,
    x + y - a - c) and back, and fixes the shared ones up to sign
    (a - b becomes b - a); since fold_n(-e) = fold_n(e), the twelve h
    rows of (n, b, a) are those of (n, a, b) with the two cores
    exchanged.  The gcd filter, degeneracy and imprimitivity read all
    twelve rows alike, and "both terms cancel" is symmetric in the two
    terms, so both units scan the same (c, x, y), reject the same ones
    for the same reasons and keep the same survivors in the same order.
    A diagonal d > 0 therefore stands for diagonal -d as well: each of
    its units counts twice in scanned and in the histogram, and its
    survivors are also reduced at (a + d, a), where derive_batch does
    tell the two apart through term 2's sign and q-exponent 2c - 2b.

    Survivors wait in one pending list of (a, c, x, y) column blocks, in
    scan order, until they and their mirrors would need more than
    PREFILTER_BUDGET_BYTES in derive_batch, at DERIVE_BYTES_PER_SURVIVOR
    plus DERIVE_BYTES_PER_COUNT per residue 0..n each.  Then they are
    reduced at (a, a + d), and for d > 0 again at (a + d, a), in
    separate derive_batch calls, and the diagonal goes on.  Returns
    (scanned, histogram, least): least is the diagonal's ledger, mapping
    each derive_batch outcome and each identity to the least tuple
    (n, a, b, c, x, y) giving it, so where a flush falls changes nothing
    returned.
    """
    n, d, bound = args
    t = _base_tables(n, bound)
    cube = _outcome_cube(t, d)
    cap = _derive_cap(n)
    copies = 1 if d == 0 else 2
    scanned, hist, least = 0, Counter(), {}
    pending, held = [], 0
    for a in range(1, bound - d + 1):
        unit_scanned, unit_hist, C, X, Y = _prefilter(t, cube, a, a + d)
        scanned += copies * unit_scanned
        for label, count in unit_hist.items():
            hist[label] += copies * count
        if C.size:
            pending.append((np.full(C.size, a, C.dtype), C, X, Y))
            held += copies * C.size
        if pending and (held >= cap or a == bound - d):
            A, C, X, Y = (np.concatenate(col) for col in zip(*pending))
            _reduce_survivors(n, A, A + d, C, X, Y, hist, least)
            if d:
                _reduce_survivors(n, A + d, A, C, X, Y, hist, least)
            pending, held = [], 0
    return scanned, hist, least


def _units(cfg: SearchConfig):
    """The work items, one (n, d, bound) per (n, d) diagonal, d = b - a
    in 0 .. bound - 1: diagonal d holds the bound - d units
    (n, a, a + d), and for d > 0 stands for the units (n, a + d, a)."""
    for n in cfg.n_values:
        bound = cfg.bound_for(n)
        for d in range(bound):
            yield (n, d, bound)


def run_search(cfg: SearchConfig) -> SearchResult:
    """Scan the whole space, keep one least tuple per identity, and sort
    the results.

    Each diagonal scans its units (n, a, a + d) and stands in for
    (n, a + d, a) (see _scan_unit); the diagonals' ledgers merge with one
    min per key, so every outcome and identity keeps the
    lexicographically least (n, a, b, c, x, y) giving it, whatever order
    the diagonals finish in.  The
    histogram lists the three prefilter outcomes, then derive_batch's in
    the order of their least tuples, then "verification-failed": the
    order a tuple-by-tuple scan of the space in lexicographic order
    would tally them in.  It tallies the outcome of every scanned tuple
    ("ok" counts tuples whose reduction succeeded).  Each identity is
    verified against partition counts at order 200 before it is
    emitted, and each that fails adds one "verification-failed"; the
    emitted list is sorted by PartitionIdentity.key().
    """
    units = list(_units(cfg))
    scanned, counts, least = 0, Counter(), {}
    pool = None
    if cfg.workers != 1:
        pool = multiprocessing.Pool(
            min(cfg.workers, len(units), os.cpu_count() or 1))
    try:
        results = (map(_scan_unit, units) if pool is None
                   else pool.imap(_scan_unit, units, chunksize=4))
        for unit_scanned, unit_hist, unit_least in results:
            scanned += unit_scanned
            counts.update(unit_hist)
            for key, t in unit_least.items():
                least[key] = min(least.get(key, t), t)
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    later = sorted(counts.keys() - set(_PREFILTER_LABELS), key=least.get)
    hist = Counter({label: counts[label]
                    for label in (*_PREFILTER_LABELS, *later)})
    found = []
    for ident, t in least.items():
        if not isinstance(ident, PartitionIdentity):
            continue
        if verify_identity(ident, VERIFY_ORDER).ok:
            found.append((FourParams(*t[1:], t[0]), ident))
        else:
            hist[VERIFICATION_FAILED] += 1
    found.sort(key=lambda pair: pair[1].key())
    return SearchResult(tuple(found), scanned, dict(hist))
