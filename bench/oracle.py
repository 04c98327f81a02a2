"""Independent reference answers for the benchmark's output checks.

Nothing here imports qshift: the checks compare the library's outputs
against numbers derived from first principles, so a fault shared by the
library's kernels cannot hide itself.

    partition_counts      p(S, 0..n) by the plain coin-change recurrence
    first_mismatch        where a shifted/shiftless relation first breaks
    admissible_tuples     the search-space size by a Moebius sum
"""

from __future__ import annotations

SHIFTED = "shifted"
SHIFTLESS = "shiftless"


def partition_counts(residues, modulus: int, n: int) -> list[int]:
    """p(S, 0..n): partitions into parts k = +-s (mod modulus), s in S."""
    half = modulus // 2
    parts = set()
    for s in residues:
        if not 1 <= s <= half:
            raise ValueError(f"residue {s} outside 1..{half}")
        parts.update(range(s, n + 1, modulus))
        parts.update(range(modulus - s, n + 1, modulus))
    table = [1] + [0] * n
    for k in sorted(parts):
        for j in range(k, n + 1):
            table[j] += table[j - k]
    return table


def first_mismatch(ps: list[int], pt: list[int], kind: str, a: int) -> int | None:
    """First index k where the tables break the relation, or None.

    shifted:   p(S, k) = p(T, k - a) for k >= a, and p(S, k) = [k = 0] below a
    shiftless: p(S, k) = p(T, k) + [k = a]
    """
    if len(ps) != len(pt):
        raise ValueError("tables must have the same length")
    for k, left in enumerate(ps):
        if kind == SHIFTED:
            right = (pt[k - a] if k >= a else 0) + (k == 0)
        elif kind == SHIFTLESS:
            right = pt[k] + (k == a)
        else:
            raise ValueError(f"unknown kind {kind!r}")
        if left != right:
            return k
    return None


def mobius(d: int) -> int:
    """The Moebius function by trial division."""
    sign = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if d > 1 else sign


def admissible_tuples(bound: int) -> int:
    """Tuples (a, b, c, x, y) in [1, bound]^5 with gcd 1 and x <= y.

    Without the gcd condition there are k^3 * k(k+1)/2 such tuples over
    [1, k]; inclusion-exclusion over common divisors d gives
    sum_d mu(d) * N(bound // d).
    """
    total = 0
    for d in range(1, bound + 1):
        k = bound // d
        total += mobius(d) * k ** 3 * (k * (k + 1) // 2)
    return total
