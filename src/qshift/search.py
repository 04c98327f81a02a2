"""Pruned, parallel enumeration of four-parameter instantiations.

The search space for base n is every tuple (a, b, c, x, y) in
[1, bound]^5 (bound defaults to n - 1) with gcd(a,b,c,x,y) = 1 and
x <= y (the relation is symmetric in x, y).  For each tuple the two
base-2n quotient terms either hit a vanishing bracket (degenerate), fail
to cancel their numerators, or reduce to a candidate identity.

Degeneracy and numerator cancellation depend only on the folded
residues of twelve linear expressions in the parameters, so both are
decided for whole blocks of tuples at once with numpy: an atom
[e : 2n] vanishes iff e = 0 mod 2n, so a tuple is degenerate iff one of
its expressions is 0 mod n, and a numerator atom cancels iff its folded residue is available in the denominator
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
applies it to its own tuples.

Reduction lemma: on a survivor, a tuple whose two numerators cancel,
the outcome of jacobi.derive_identity, primitivity included, depends
only on its key: the four shared h sorted, and the unordered pair of
the two terms' four core h sorted.  Proof:

- Term i reduces to c_i q^(e_i) / prod_{r in L_i} [r : 2n], c_i = +-1,
  where the multiset L_i is its sixteen denominator values less its
  four numerator values.  By the fold identities those are the pairs
  {h, n - h} over its core and shared rows and 2h over its core rows,
  so L_i depends only on the term's core h and the shared h, and the
  key fixes the unordered pair {L1, L2}.
- repeated-atom and equal-sets read L1 and L2 alone, symmetrically.
- Otherwise let P_i = 1 / prod_{L_i} [r : 2n], a power series with
  constant term 1 (no r is 0 on a survivor); T1 + T2 = 1 (four2).  If
  e1 != e2 the lower term is the constant: (+1, 0), and the other is
  1 - P_+, whose coefficients are <= 0, so (-1, s) with s >= 1:
  shifted.  If e1 = e2 = e, then e < 0 (e = 0 would give c1 + c2 = 1,
  e > 0 no constant term) and c1 = -c2: shiftless, shift -e.  So with
  {L1, L2} = {U, V}, one of P_U - q^s P_V = 1, P_V - q^s P_U = 1,
  P_U - P_V = q^s, P_V - P_U = q^s holds, each fixing its s.
- No two hold at once.  Any two give q^s = -q^t, or make one P equal
  to (1 +- q^u) / (1 - q^v), u, v >= 1 (the first and third give
  P_V (1 - q^s) = 1 - q^t); where that P is 1, the relation left makes
  the other P = 1 + q^s = (1 - q^2s) / (1 - q^s).  But 1 / P_L =
  prod_j (1 - q^j)^(a_j), a_j >= 0 counting the r in L with
  j = +-r (mod 2n), is nonzero for infinitely many j unless L is empty,
  and such exponents are unique for a series with constant term 1,
  while a ratio of binomials has finitely many.

So the kind, the shift, which set is S (the plus term's), and
primitivity, gcd(2n, S, T) = 1, are functions of {L1, L2}, and
unrecognized-sign-pattern never occurs on a survivor.  The cube
therefore carries the reduction too: each survivor cell's code is its
key's, and each distinct key of a diagonal is reduced once, by
derive_identity at one tuple of its first cell; every emitted identity
is re-verified against partition counts before it is reported.  This
is the one module that imports numpy: every other command starts
without it.

Results are kept primitive: an identity whose residues all share a
factor d with M is a rescaled copy of a smaller-modulus identity (for
example every surviving base-42 tuple yields a doubled modulus-42
identity), so such results are counted as "imprimitive" and not
emitted.  Tuples whose twelve expressions all share a factor with n are
dropped by the same rule before any exact work.

Swapping a and b exchanges the two terms' core expressions and negates
a - b, and fold_n(-e) = fold_n(e), so (n, a, b) and (n, b, a) read the
same codes (the proof is at _scan_unit), and each unordered {a, b} is
scanned once.

Work is split into (n, d) diagonals processed independently (optionally
by a process pool of at most os.cpu_count() workers).  Diagonal d builds
its cube and reads from it the codes of its bound - d units
(n, a, a + d) in turn.  Each diagonal keeps one ledger mapping every
outcome and every identity of a survivor to its lexicographically
least tuple (n, a, b, c, x, y).  The diagonals' ledgers merge with one
min per key, each identity is reported at its least tuple, and the
histogram lists outcomes in the order of their least tuples, so the
merged result does not depend on the order diagonals finish in; it is
deterministic and sorted.
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
    INCOMPLETE_CANCELLATION,
    FourParams,
    _four2_exprs,
    derive_identity,
)
from .partitions import PartitionIdentity, verify_identity

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
# at bounds 20 to 60.  Survivors add their keys, np.unique's work on them
# and the diagonal's map from keys to codes, one entry of about 100 bytes
# per derive_identity call: with every cell of a diagonal surviving, the
# whole diagonal peaks at about 100, 170 and 225 bytes per column of one
# unit beside the cube, in uint8, uint16 and uint32 rows
PREFILTER_BUDGET_BYTES = 1 << 28
PREFILTER_BYTES_PER_TUPLE = 768
# _base_tables peaks at about 24 bytes per residue mod 2n while it builds
# the residue tables of a base, whatever the bound, at bases 20,000 to
# 1,398,101; the constant keeps the base ceiling of 1,398,101
TABLE_BYTES_PER_RESIDUE = 96
DEGENERATE = "degenerate"
IMPRIMITIVE = "imprimitive"
VERIFICATION_FAILED = "verification-failed"
# the prefilter's rejections, in the order the histogram lists them
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
# a class cell's outcome code: _CODE[label] for a rejection, and from
# _DERIVED on one code per outcome of a survivor's reduction; a unit
# marks the tuples it does not scan, those sharing a factor with
# gcd(a, b), as _UNSCANNED
_UNSCANNED = 0
_CODE = {label: 1 + k for k, label in enumerate(_PREFILTER_LABELS)}
_DERIVED = 1 + len(_PREFILTER_LABELS)


def _outcome_cube(t, d):
    """The outcome codes of diagonal d over the base tables t, and the
    outcomes they stand for.

    Returns (cube, outcomes).  Cell (i, j, k) of the (K, K, K) cube holds
    the code of every tuple (a, a + d, c, x, y) whose c - a, x - a, y - a
    fall in classes i, j, k, by the translation and reduction lemmas of
    the module docstring.  outcomes[code] is () for _UNSCANNED, (label,)
    for a rejection, and (label, identity) for a survivor's outcome, the
    identity None unless the label is "ok".  The cube is uint8 unless a
    diagonal has more outcomes than that holds.

    The cube is built at a = 0, b = d, in slabs of whole planes of
    classes of c - a, as many as fit one unit's columns and at least
    one.  Each of the twelve expressions e of a slab gets one row
    h(e) = fold_n(e), and everything decided here follows exactly from
    those rows by the fold identities of the module docstring: a term's
    sixteen denominator values are the eight pairs {h_j, n - h_j} of its
    core and shared rows, its four numerator values are 2h over its core
    rows, and a prime p of n divides e iff it divides h(e).

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
    incomplete-cancellation.  A cell where both terms cancel is a
    survivor, and its code is its key's (_survivor_codes).
    """
    n, m, K = t.n, 2 * t.n, t.K
    cube = np.empty((K, K, K), np.uint8)
    # each outcome's code, in order, and each survivor key's code
    code_of = {(): _UNSCANNED, **{(label,): code
                                  for label, code in _CODE.items()}}
    key_code = {}
    (t1, t2), shared = _four2_exprs(0, d, 0, 0, 0)
    consts = t1[2] + t2[2] + shared
    planes = max(1, len(t.C) // (K * K))
    for lo in range(0, K, planes):
        cut = slice(lo, lo + planes)
        H = np.empty((12, min(planes, K - lo), K, K), dtype=t.fold_n.dtype)
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
        survivors = np.flatnonzero(nondegen & cancel_ok & (common == 0))
        if survivors.size:
            keys = _survivor_keys(H[:, survivors], n)
            del H, cancel_ok  # the slab's rows go before np.unique runs
            derived = _survivor_codes(t, d, keys, lo * K * K + survivors,
                                      code_of, key_code)
            if len(code_of) > np.iinfo(cube.dtype).max + 1:
                cube = cube.astype(np.min_scalar_type(len(code_of) - 1))
        codes = cube[cut].reshape(-1)
        codes.fill(_CODE[INCOMPLETE_CANCELLATION])
        if survivors.size:
            codes[survivors] = derived
        codes[np.broadcast_to(common != 0, codes.shape)] = _CODE[IMPRIMITIVE]
        codes[~nondegen] = _CODE[DEGENERATE]
    cube.flags.writeable = False
    return cube, tuple(code_of)


def _survivor_keys(H, n):
    """The keys of the survivor columns H, twelve h rows in _ROW_ORDER,
    as the rows of a (columns, 12) array in the smallest dtype that
    holds n // 2, the largest h.

    A column's key is its two terms' four core h sorted, as an unordered
    pair, the lesser first and the greater last, around its four shared
    h sorted.
    """
    H = H.astype(np.min_scalar_type(n // 2), copy=False).reshape(3, 4, -1)
    H.sort(axis=1)
    first = (H[0] != H[2]).argmax(axis=0)[None]
    swap = np.flatnonzero(np.take_along_axis(H[0], first, axis=0)
                          > np.take_along_axis(H[2], first, axis=0))
    H[0][:, swap], H[2][:, swap] = H[2][:, swap], H[0][:, swap]
    return np.ascontiguousarray(H.reshape(12, -1).T)


def _survivor_codes(t, d, keys, cells, code_of, key_code):
    """The codes of the survivors with these keys at the flat indices
    cells of diagonal d's cube.  By the reduction lemma the key decides
    the outcome, so each key new to the diagonal is reduced once, by
    derive_identity at a tuple of its first cell, translated by the
    bound so that all five exponents are positive.  code_of and
    key_code, which the whole diagonal shares, gain each new outcome and
    key."""
    keys, at, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    codes = []
    for key, i in zip(keys, at.tolist()):
        blob = key.tobytes()
        if blob not in key_code:
            diffs = (int(k) if k < t.bound else int(k) - t.K
                     for k in np.unravel_index(cells[i], (t.K,) * 3))
            got = derive_identity(FourParams(
                t.bound, t.bound + d, *(t.bound + e for e in diffs), t.n))
            if not got.ok:
                outcome = (got.reason, None)
            elif gcd(got.identity.M, *got.identity.S, *got.identity.T) > 1:
                outcome = (IMPRIMITIVE, None)
            else:
                outcome = ("ok", got.identity)
            key_code[blob] = code_of.setdefault(outcome, len(code_of))
        codes.append(key_code[blob])
    return np.array(codes)[inverse.reshape(-1)]


def _prefilter(t, cube, a, b):
    """The codes of one (n, a, b) unit's tuples, in scan order (C, X, Y
    of the base tables t), read from the outcome cube of its diagonal
    b - a.

    The cell of (c, x, y) is the class of c - a, x - a, y - a, read
    through the base's lookup cls.  The gcd filter, which is not
    translation-invariant, then marks the tuples sharing a factor with
    gcd(a, b) _UNSCANNED.
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
    return codes


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


def _scan_unit(args):
    """Scan one (n, d) diagonal: build its outcome cube, then read and
    count the codes of each unit (n, a, a + d), a = 1 .. bound - d, in
    a order.

    Units (n, a, b) and (n, b, a) give the same codes.  Swapping a and b
    maps term 1's core expressions (b - c, a - x, a - y, x + y - b - c)
    onto term 2's (a - c, b - x, b - y, x + y - a - c) and back, and
    fixes the shared ones up to sign (a - b becomes b - a); since
    fold_n(-e) = fold_n(e), the twelve h rows of (n, b, a) are those of
    (n, a, b) with the two cores exchanged.  The gcd filter, degeneracy
    and imprimitivity read all twelve rows alike, "both terms cancel" is
    symmetric in the two terms, and a survivor's key holds the two cores
    as an unordered pair, so by the reduction lemma of the module
    docstring both units read the same code at every (c, x, y).  A
    diagonal d > 0 therefore stands for diagonal -d as well: each of its
    units counts twice in scanned and in the histogram.  The mirror
    (a, a + d, c, x, y) of a tuple (a + d, a, c, x, y) is less and has
    the same outcome, so the least tuple of any outcome lies on a unit
    scanned here.

    Returns (scanned, histogram, least): least is the diagonal's ledger,
    mapping each outcome label and identity of a survivor to the least
    tuple (n, a, b, c, x, y) giving it.  Units run in a order and each
    scans its (c, x, y) in ascending order, so a code's first occurrence
    in a unit is its least tuple there.
    """
    n, d, bound = args
    t = _base_tables(n, bound)
    cube, outcomes = _outcome_cube(t, d)
    tally = [0] * len(outcomes)
    least = {}
    for a in range(1, bound - d + 1):
        codes = _prefilter(t, cube, a, a + d)
        for code, outcome in enumerate(outcomes):
            hit = codes == code
            count = int(np.count_nonzero(hit))
            tally[code] += count
            if count and code >= _DERIVED:
                k = int(hit.argmax())
                tup = (n, a, a + d, int(t.C[k]), int(t.X[k]), int(t.Y[k]))
                for key in outcome:
                    if key is not None:
                        least[key] = min(least.get(key, tup), tup)
    copies = 1 if d == 0 else 2
    hist = Counter()
    for code in range(1, len(outcomes)):
        if tally[code]:
            hist[outcomes[code][0]] += copies * tally[code]
    return copies * (sum(tally) - tally[_UNSCANNED]), hist, least


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
    histogram lists the three prefilter outcomes, then the reduction's
    in the order of their least tuples, then "verification-failed": the
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
