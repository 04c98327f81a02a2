"""The unit-group action on partition identities and classification.

A unit alpha of Z/MZ acts on an identity by multiplying every residue
of S and T by alpha mod M and folding the result back into the range
1..M/2 (r and M - r index the same residue pair).  The image relation
is rediscovered empirically by partitions.infer_relation: the shift,
kind and orientation of the mapped identity are inferred from the
partition counts, and a relation is returned only if it holds exactly
at every index up to the order, so a failure of the underlying theory
would be reported rather than silently accepted.

Since alpha and M - alpha induce the same folded action, orbits are
enumerated over alpha in 1..M/2 coprime to M.  infer_relation memoizes
its outcome per unordered folded pair, so a unit whose pair an earlier
unit already gave, in either order, costs no build.
Classification groups identities that lie in a common orbit; identities
are treated as ordered pairs (S, T) throughout, with the orientation
fixed by the relation itself (shifted: S is the unshifted side;
shiftless: S is the side with the larger count at n = a).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .partitions import PartitionIdentity, infer_relation

DEFAULT_ORDER = 300


class NotAnIdentity(Exception):
    """The image of an identity under a unit action failed to verify."""


@dataclass(frozen=True)
class UnitAction:
    """Multiplication by alpha on residues mod M."""

    alpha: int
    M: int

    def __post_init__(self):
        if not 1 <= self.alpha < self.M:
            raise ValueError("alpha must lie in 1..M-1")
        if gcd(self.alpha, self.M) != 1:
            raise ValueError(f"alpha={self.alpha} is not a unit mod {self.M}")

    def fold(self, r: int) -> int:
        r = (self.alpha * r) % self.M
        return min(r, self.M - r)

    def apply_set(self, residues: Iterable[int]) -> frozenset[int]:
        return frozenset(self.fold(r) for r in residues)


def act(u: UnitAction, ident: PartitionIdentity,
        n: int = DEFAULT_ORDER) -> PartitionIdentity:
    """Map an identity through a unit action and infer the image's relation.

    The image is partitions.infer_relation of the folded pair, which
    tries both orientations on one cleared build, since multiplication
    can exchange which side carries the shift, and memoizes the outcome
    per unordered pair, modulus and order.  It is not verified
    again: infer_relation returns a relation only after checking it at
    every index 0..n, which is the whole of what verify_identity(image,
    n) would check.  An order too small to see the inferred shift, or one
    that infer_relation's cap of n // 2 alone keeps from a relation
    holding through n, raises OrderTooSmall: that asks for a larger
    order, not a verdict.  A pair that satisfies no relation raises
    NotAnIdentity.
    """
    if u.M != ident.M:
        raise ValueError("action modulus does not match identity modulus")
    image = infer_relation(u.apply_set(ident.S), u.apply_set(ident.T),
                           ident.M, n)
    if image is None:
        raise NotAnIdentity(f"alpha={u.alpha} maps the identity to a "
                            f"non-relation (M={ident.M})")
    return image


def orbit(ident: PartitionIdentity,
          n: int = DEFAULT_ORDER) -> set[PartitionIdentity]:
    """All images of the identity under U(M), deduplicated.

    A unit whose folded pair an earlier unit gave, in either order, is
    not built again: infer_relation memoizes its outcome per unordered
    pair.
    """
    return {act(UnitAction(alpha, ident.M), ident, n)
            for alpha in range(1, ident.M // 2 + 1)
            if gcd(alpha, ident.M) == 1}


def classify(idents: Sequence[PartitionIdentity],
             n: int = DEFAULT_ORDER) -> list[list[PartitionIdentity]]:
    """Partition identities of one modulus into U(M)-equivalence classes.

    Exact duplicates are merged.  Classes are ordered by their
    lexicographically least (S, T) member and members are sorted the
    same way, so the output is independent of input order.  An identity
    not in its own orbit does not hold: NotAnIdentity.
    """
    if not idents:
        return []
    moduli = {i.M for i in idents}
    if len(moduli) != 1:
        raise ValueError(f"identities span several moduli: {sorted(moduli)}")
    remaining = sorted(set(idents), key=PartitionIdentity.key)
    classes = []
    while remaining:
        rep = remaining[0]
        members = orbit(rep, n)
        if rep not in members:
            raise NotAnIdentity(f"alpha=1 maps the {rep.kind} identity "
                                f"a={rep.a} to another relation (M={rep.M})")
        classes.append([i for i in remaining if i in members])
        remaining = [i for i in remaining if i not in members]
    classes.sort(key=lambda cls: cls[0].key())
    return classes
