"""Matroid rank oracles materialized as full rank tables.

Ground sets are small enough that the table over all subsets fits in memory,
which makes axiom validation and every later supermodularity check exact
over every subset instead of sampled.  Instances are immutable once validated.

The builders make each table by doubling: ``free`` is the cached popcount
table, ``uniform`` caps it, ``partition`` sums one capped overlap table per
block and ``from_bases`` takes the largest overlap table over the distinct
bases.  Validation decides R1 over the whole table and the local axioms on
packed lanes (``bigraph.pack_lanes``); the subset-by-subset and pairwise
scans run only to name the first violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt
from typing import Sequence

from .bigraph import (
    bits,
    lane_masks,
    lanes_supermodular,
    pack_lanes,
    popcounts,
    restrict_table,
    subset_sums,
)
from .errors import InstanceError


@dataclass(frozen=True)
class RankViolation:
    """First failed rank axiom, with the witnessing subset masks."""

    axiom: str  # "R1" (normalization/subcardinality), "R2" (monotone), "R3" (submodular)
    masks: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.axiom} violated at masks {self.masks}: {self.detail}"


def _locally_valid(n: int, rank: Sequence[int]) -> bool:
    """Local monotonicity and submodularity, for a table that satisfies R1.

    Every element's marginal gain must be non-negative, and the rank must be
    submodular on the local pairs, r(A+e) + r(A+f) >= r(A+e+f) + r(A).  Then
    gains never exceed the singleton's, at most 1 by R1, so the rank rises
    in unit steps; these local axioms are equivalent to R1-R3 (Oxley,
    *Matroid Theory*), at O(2^n n^2) instead of the pairwise 4^n.

    Both run on the table packed into lanes (``pack_lanes``): lane m of
    ``(up | every) - packed`` keeps its guard bit where r(A+e) >= r(A), and
    the rank is submodular where its complement in the top rank, one
    subtraction away, is supermodular.
    """
    packed, width = pack_lanes(rank)
    every, lacking = lane_masks(n, width)
    for e, want in enumerate(lacking):
        if ((packed >> (width << e) | every) - packed) & want != want:
            return False
    # R1 puts the minimum at rank 0, so every lane holds its rank unshifted
    return lanes_supermodular(max(rank) * (every >> (width - 1)) - packed, width, n)


def validate_rank_table(n: int, rank: Sequence[int]) -> RankViolation | None:
    """Decide the rank axioms R1-R3 exactly; None when the table is valid.

    R1 is decided by two passes over the whole table and walked per subset
    only to name a violation.  Monotonicity and submodularity over every
    pair of subsets are decided through the equivalent local axioms; only
    when those fail does the pairwise scan run, so the reported violation is
    still the first one in the deterministic scan order (R2 pairs, then R3
    pairs, each by ascending first mask).
    """
    size = 1 << n
    if len(rank) != size:
        raise InstanceError(f"rank table must have {size} entries, got {len(rank)}")
    if rank[0] != 0:
        return RankViolation("R1", (0,), f"rank of the empty set is {rank[0]}, not 0")
    if min(rank) < 0 or any(map(gt, rank, popcounts(n))):
        for a in range(size):
            if rank[a] < 0:
                return RankViolation("R1", (a,), f"rank {rank[a]} is negative")
            if rank[a] > a.bit_count():
                return RankViolation("R1", (a,), f"rank {rank[a]} exceeds the set size {a.bit_count()}")
    if _locally_valid(n, rank):
        return None
    for a in range(size):
        ra = rank[a]
        for b in range(size):
            if a & b == a and ra > rank[b]:
                return RankViolation("R2", (a, b), f"rank drops from {ra} to {rank[b]} on a superset")
    for a in range(size):
        ra = rank[a]
        for b in range(a + 1, size):
            if ra + rank[b] < rank[a | b] + rank[a & b]:
                return RankViolation(
                    "R3", (a, b),
                    f"{ra}+{rank[b]} < {rank[a | b]}+{rank[a & b]} for union/intersection",
                )
    raise AssertionError("local rank axioms fail but the pairwise scan finds no violation")


@dataclass(frozen=True)
class Matroid:
    """A matroid given by its ground ordering and a validated full rank table."""

    ground: tuple[str, ...]
    rank: tuple[int, ...]
    kind: str = "explicit"

    def __post_init__(self):
        object.__setattr__(self, "ground", tuple(map(str, self.ground)))
        object.__setattr__(self, "rank", tuple(map(int, self.rank)))
        if len(set(self.ground)) != len(self.ground):
            raise InstanceError("matroid ground elements must be distinct")
        violation = validate_rank_table(len(self.ground), self.rank)
        if violation is not None:
            raise InstanceError(f"invalid rank table ({self.kind}): {violation}")

    @property
    def n(self) -> int:
        return len(self.ground)

    @property
    def full_rank(self) -> int:
        return self.rank[(1 << self.n) - 1]

    def rank_of(self, mask: int) -> int:
        if mask < 0 or mask >= 1 << self.n:
            raise InstanceError("subset is not contained in the matroid ground set")
        return self.rank[mask]

    @classmethod
    def uniform(cls, ground, k: int) -> "Matroid":
        ground = tuple(ground)
        if not 0 <= k <= len(ground):
            raise InstanceError(f"uniform rank {k} out of range for ground of size {len(ground)}")
        table = tuple(c if c < k else k for c in popcounts(len(ground)))
        return cls(ground, table, kind=f"uniform({k})")

    @classmethod
    def free(cls, ground) -> "Matroid":
        ground = tuple(ground)
        return cls(ground, popcounts(len(ground)), kind="free")

    @classmethod
    def partition(cls, ground, blocks, caps) -> "Matroid":
        """rank(A) = sum over blocks of min(cap, |A inter block|).

        Blocks must be disjoint subsets of the ground set; uncovered elements
        are loops.
        """
        ground = tuple(str(x) for x in ground)
        index = {name: i for i, name in enumerate(ground)}
        if len(blocks) != len(caps):
            raise InstanceError("partition matroid needs one cap per block")
        block_masks: list[int] = []
        seen = 0
        for block in blocks:
            mask = 0
            for name in block:
                if name not in index:
                    raise InstanceError(f"block element {name!r} is not in the ground set")
                bit = 1 << index[name]
                if seen & bit:
                    raise InstanceError(f"element {name!r} appears in two blocks")
                seen |= bit
                mask |= bit
            if mask == 0:
                raise InstanceError("partition matroid blocks must be non-empty")
            block_masks.append(mask)
        caps = [int(c) for c in caps]
        if any(c < 0 for c in caps):
            raise InstanceError("partition matroid caps must be non-negative")
        table = [0] * (1 << len(ground))
        for m, c in zip(block_masks, caps):
            inside = subset_sums(_indicator(m, len(ground)))
            table = [r + (i if i < c else c) for r, i in zip(table, inside)]
        return cls(ground, table, kind="partition")

    @classmethod
    def from_bases(cls, ground, bases) -> "Matroid":
        """rank(A) = max over listed bases of |A inter B|; validated afterwards."""
        ground = tuple(str(x) for x in ground)
        index = {name: i for i, name in enumerate(ground)}
        if not bases:
            raise InstanceError("explicit matroid needs at least one basis")
        basis_masks = []
        for basis in bases:
            mask = 0
            for name in basis:
                if name not in index:
                    raise InstanceError(f"basis element {name!r} is not in the ground set")
                mask |= 1 << index[name]
            basis_masks.append(mask)
        sizes = {m.bit_count() for m in basis_masks}
        if len(sizes) != 1:
            raise InstanceError("all bases must have the same cardinality")
        table = [0] * (1 << len(ground))
        for b in dict.fromkeys(basis_masks):
            overlap = subset_sums(_indicator(b, len(ground)))
            table = [r if r > o else o for r, o in zip(table, overlap)]
        return cls(ground, table, kind="explicit")


def _indicator(mask: int, n: int) -> list[int]:
    """1 at each of the ``n`` positions ``mask`` holds, else 0; its
    ``subset_sums`` table counts every mask's overlap with ``mask``."""
    return [mask >> i & 1 for i in range(n)]


def corank(m: Matroid, mask: int) -> int:
    """Complementary rank: how much removing the subset lowers the full rank.

    Equals the minimum overlap of the subset with any basis; monotone and
    fully supermodular.
    """
    if mask < 0 or mask >= 1 << m.n:
        raise InstanceError("subset is not contained in the matroid ground set")
    full = (1 << m.n) - 1
    return m.rank[full] - m.rank[full ^ mask]


def corank_values(m: Matroid) -> tuple[int, ...]:
    # full ^ mask walks the masks downwards as mask walks them upwards
    return tuple(map(m.full_rank.__sub__, reversed(m.rank)))


def enumerate_bases(m: Matroid) -> list[int]:
    """All basis masks, ascending; the independent sets of full rank and size."""
    r = m.full_rank
    return [a for a in range(1 << m.n) if a.bit_count() == r and m.rank[a] == r]


def restrict(m: Matroid, keep_mask: int) -> Matroid:
    """Matroid restriction to the elements of ``keep_mask`` (used by shrinking)."""
    ground = tuple(m.ground[i] for i in bits(keep_mask))
    return Matroid(ground, restrict_table(m.rank, keep_mask), kind="explicit")
