"""Bipartite ground sets, graphs, and degree specifications on bitmask subsets.

Subsets are machine-word bitmasks over a fixed node ordering: in the combined
ground set the left class S occupies the low bits and the right class T the
bits above them, while subsets of a single class use masks local to that
class.  All types are immutable after construction and every operation is a
pure function, so everything here is safe to share between threads.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from .errors import InstanceError

DEFAULT_GROUND_CAP = 12
GROUND_CAP_ENV = "TERMRANK_MAX_GROUND"


def ground_cap() -> int:
    """Maximum allowed |S| + |T|; override with the TERMRANK_MAX_GROUND env var."""
    raw = os.environ.get(GROUND_CAP_ENV)
    if raw is None:
        return DEFAULT_GROUND_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InstanceError(f"{GROUND_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise InstanceError(f"{GROUND_CAP_ENV} must be at least 2, got {cap}")
    return cap


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask``, in increasing numeric order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def supermasks(base: int, universe: int) -> Iterator[int]:
    """Yield every mask between ``base`` and ``universe``, increasing."""
    for free in submasks(universe & ~base):
        yield base | free


def union_table(adj: Sequence[int]) -> list[int]:
    """OR of ``adj[i]`` over the bits i of every mask below ``1 << len(adj)``.

    Built by the low-bit recurrence, one OR per mask; with a graph's
    adjacency masks it gives the neighbourhood of every node subset.
    """
    table = [0] * (1 << len(adj))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = table[mask ^ low] | adj[low.bit_length() - 1]
    return table


def restrict_table(values: Sequence[int], keep_mask: int) -> tuple[int, ...]:
    """A table over subsets, restricted to the elements of ``keep_mask``.

    The kept elements are renumbered in order, so entry ``a`` of the result
    is the entry of the original subset whose kept bits ``a`` lists.
    """
    return tuple(values[orig] for orig in union_table([1 << i for i in bits(keep_mask)]))


@lru_cache(maxsize=None)
def bit_halves(size: int, bit: int) -> tuple[tuple[slice, slice], ...]:
    """Slice pairs ``(lo, hi)`` over a table indexed by masks below ``size``.

    Position k of ``hi`` is position k of ``lo`` plus ``bit``, and the ``lo``
    slices together hold every mask without ``bit`` exactly once, so
    elementwise work over the pairs visits each (A, A | bit) once.  Low bits
    use strided slices and high bits contiguous blocks, whichever is fewer.
    """
    step = bit << 1
    if bit * step <= size:
        return tuple((slice(r, size, step), slice(r + bit, size, step)) for r in range(bit))
    return tuple((slice(b, b + bit), slice(b + bit, b + step)) for b in range(0, size, step))


def locally_supermodular(values: Sequence[int], n: int) -> bool:
    """p(A+e) + p(A+f) <= p(A) + p(A+e+f) for every mask A and bits e, f outside it.

    On the subset lattice this local form is equivalent to supermodularity
    on every pair: each element's marginal gain must not shrink when another
    element joins.  O(2^n n^2) instead of the pairwise 4^n.
    """
    size = 1 << n
    for e in range(n):
        gain = [0] * size
        for lo, hi in bit_halves(size, 1 << e):
            gain[lo] = map(operator.sub, values[hi], values[lo])
        # the inequality is symmetric in e and f, so f > e suffices
        for f in range(e + 1, n):
            for lo, hi in bit_halves(size, 1 << f):
                if any(map(operator.gt, gain[lo], gain[hi])):
                    return False
    return True


@dataclass(frozen=True)
class GroundSets:
    """The two disjoint, non-empty node classes with their fixed ordering."""

    s_ids: tuple[str, ...]
    t_ids: tuple[str, ...]
    cap: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "s_ids", tuple(str(x) for x in self.s_ids))
        object.__setattr__(self, "t_ids", tuple(str(x) for x in self.t_ids))
        if not self.s_ids or not self.t_ids:
            raise InstanceError("both node classes must be non-empty")
        combined = self.s_ids + self.t_ids
        if len(set(combined)) != len(combined):
            raise InstanceError("node ids must be distinct within and across the two classes")
        limit = self.cap if self.cap is not None else ground_cap()
        if len(combined) > limit:
            raise InstanceError(f"|S|+|T| = {len(combined)} exceeds the ground cap {limit}")

    @property
    def n_s(self) -> int:
        return len(self.s_ids)

    @property
    def n_t(self) -> int:
        return len(self.t_ids)

    @property
    def n_v(self) -> int:
        return len(self.s_ids) + len(self.t_ids)

    @property
    def s_all(self) -> int:
        return (1 << self.n_s) - 1

    @property
    def t_all(self) -> int:
        return (1 << self.n_t) - 1

    def v_mask(self, s_mask: int, t_mask: int) -> int:
        """Combine class-local masks into a mask over the full ground set."""
        return s_mask | (t_mask << self.n_s)

    def split(self, v_mask: int) -> tuple[int, int]:
        """Split a full-ground mask into its (S-local, T-local) parts."""
        return v_mask & self.s_all, v_mask >> self.n_s

    @cached_property
    def s_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.s_ids)}

    @cached_property
    def t_index(self) -> dict[str, int]:
        return {name: j for j, name in enumerate(self.t_ids)}

    def s_names(self, s_mask: int) -> tuple[str, ...]:
        return tuple(self.s_ids[i] for i in bits(s_mask))

    def t_names(self, t_mask: int) -> tuple[str, ...]:
        return tuple(self.t_ids[j] for j in bits(t_mask))

    def pair_indices(self, pairs) -> list[tuple[int, int]]:
        """(left index, right index) of each ``[left id, right id]`` pair, in order."""
        if not isinstance(pairs, (list, tuple)):
            raise InstanceError(f"edges {pairs!r} must be a list of [left, right] pairs")
        out = []
        for pair in pairs:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise InstanceError(f"edge {pair!r} must be a [left, right] pair")
            s_name, t_name = pair
            # tuple membership compares by equality, so unhashable ids fail cleanly
            if s_name not in self.s_ids:
                raise InstanceError(f"edge endpoint {s_name!r} is not a left node")
            if t_name not in self.t_ids:
                raise InstanceError(f"edge endpoint {t_name!r} is not a right node")
            out.append((self.s_index[s_name], self.t_index[t_name]))
        return out

    def s_mask_of(self, names) -> int:
        mask = 0
        for name in names:
            if name not in self.s_index:
                raise InstanceError(f"unknown left node id {name!r}")
            mask |= 1 << self.s_index[name]
        return mask

    def t_mask_of(self, names) -> int:
        mask = 0
        for name in names:
            if name not in self.t_index:
                raise InstanceError(f"unknown right node id {name!r}")
            mask |= 1 << self.t_index[name]
        return mask


@dataclass(frozen=True)
class Bigraph:
    """A bipartite (multi)graph; edges are (left index, right index) pairs.

    Parallel edges are representable because arc covers may in principle use
    them; every consumer that needs simplicity checks the ``simple`` flag.
    """

    grounds: GroundSets
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        norm = tuple(sorted((int(s), int(t)) for s, t in self.edges))
        for s, t in norm:
            if not (0 <= s < self.grounds.n_s and 0 <= t < self.grounds.n_t):
                raise InstanceError(f"edge ({s},{t}) out of range for the ground sets")
        object.__setattr__(self, "edges", norm)

    @cached_property
    def simple(self) -> bool:
        return len(set(self.edges)) == len(self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def s_adj(self) -> tuple[int, ...]:
        """T-local neighbor mask for each left node (multiplicity collapsed)."""
        adj = [0] * self.grounds.n_s
        for s, t in self.edges:
            adj[s] |= 1 << t
        return tuple(adj)

    @cached_property
    def t_adj(self) -> tuple[int, ...]:
        """S-local neighbor mask for each right node (multiplicity collapsed)."""
        adj = [0] * self.grounds.n_t
        for s, t in self.edges:
            adj[t] |= 1 << s
        return tuple(adj)

    @cached_property
    def s_degrees(self) -> tuple[int, ...]:
        deg = [0] * self.grounds.n_s
        for s, _ in self.edges:
            deg[s] += 1
        return tuple(deg)

    @cached_property
    def t_degrees(self) -> tuple[int, ...]:
        deg = [0] * self.grounds.n_t
        for _, t in self.edges:
            deg[t] += 1
        return tuple(deg)

    def s_degree(self, i: int) -> int:
        return self.s_degrees[i]

    def t_degree(self, j: int) -> int:
        return self.t_degrees[j]

    def has_edge(self, s: int, t: int) -> bool:
        return bool(self.s_adj[s] >> t & 1)

    def edge_names(self) -> list[tuple[str, str]]:
        g = self.grounds
        return [(g.s_ids[s], g.t_ids[t]) for s, t in self.edges]

    @classmethod
    def from_names(cls, grounds: GroundSets, pairs) -> "Bigraph":
        return cls(grounds, tuple(grounds.pair_indices(pairs)))


@dataclass(frozen=True)
class DegreeSpec:
    """Exact degree prescription; the right-hand side may be omitted.

    The common total is always recomputed from the left degrees and never
    trusted from input; mismatched totals are rejected outright.
    """

    grounds: GroundSets
    m_s: tuple[int, ...]
    m_t: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "m_s", tuple(int(v) for v in self.m_s))
        if self.m_t is not None:
            object.__setattr__(self, "m_t", tuple(int(v) for v in self.m_t))
        if len(self.m_s) != self.grounds.n_s:
            raise InstanceError("left degree list does not match the ground set")
        if any(v < 0 for v in self.m_s):
            raise InstanceError("degrees must be non-negative")
        if self.m_t is not None:
            if len(self.m_t) != self.grounds.n_t:
                raise InstanceError("right degree list does not match the ground set")
            if any(v < 0 for v in self.m_t):
                raise InstanceError("degrees must be non-negative")
            if sum(self.m_s) != sum(self.m_t):
                raise InstanceError(
                    f"degree totals differ: left {sum(self.m_s)} vs right {sum(self.m_t)}"
                )

    @property
    def gamma(self) -> int:
        return sum(self.m_s)

    @property
    def full(self) -> bool:
        return self.m_t is not None

    @cached_property
    def _s_sums(self) -> tuple[int, ...]:
        sums = [0] * (1 << self.grounds.n_s)
        for x in range(1, len(sums)):
            low = x & -x
            sums[x] = sums[x ^ low] + self.m_s[low.bit_length() - 1]
        return tuple(sums)

    @cached_property
    def _t_sums(self) -> tuple[int, ...]:
        if self.m_t is None:
            raise InstanceError("right degrees are not specified")
        sums = [0] * (1 << self.grounds.n_t)
        for y in range(1, len(sums)):
            low = y & -y
            sums[y] = sums[y ^ low] + self.m_t[low.bit_length() - 1]
        return tuple(sums)

    def sum_s(self, s_mask: int) -> int:
        return self._s_sums[s_mask]

    def sum_t(self, t_mask: int) -> int:
        return self._t_sums[t_mask]


def require_same_grounds(a: GroundSets, b: GroundSets) -> None:
    if a != b:
        raise InstanceError("operands live on different ground sets")


def bipartite_complement(h: Bigraph) -> Bigraph:
    """The edges of the complete bigraph that are absent from ``h``."""
    if not h.simple:
        raise InstanceError("bipartite complement requires a simple graph")
    g = h.grounds
    edges = [
        (s, t)
        for s in range(g.n_s)
        for t in range(g.n_t)
        if not h.has_edge(s, t)
    ]
    return Bigraph(g, tuple(edges))


def graph_union(a: Bigraph, b: Bigraph) -> Bigraph:
    """Edge-sum of two graphs on the same grounds (multiplicities add)."""
    require_same_grounds(a.grounds, b.grounds)
    return Bigraph(a.grounds, a.edges + b.edges)


def _check_t_mask(g: Bigraph, t_mask: int) -> None:
    if t_mask & ~g.grounds.t_all:
        raise InstanceError("subset is not contained in the right class")


def _check_s_mask(g: Bigraph, s_mask: int) -> None:
    if s_mask & ~g.grounds.s_all:
        raise InstanceError("subset is not contained in the left class")


def neighborhood(g: Bigraph, t_mask: int) -> int:
    """S-local mask of all neighbors of the given right-class subset."""
    _check_t_mask(g, t_mask)
    out = 0
    for j in bits(t_mask):
        out |= g.t_adj[j]
    return out


def cut_count(g: Bigraph, s_mask: int, t_mask: int) -> int:
    """Number of edges with one end in the S-subset and the other in the T-subset.

    Counted edge by edge, parallel edges each once: O(|E|) per call, with no
    table shared with the checkers, which build their cut terms row by row.
    """
    _check_s_mask(g, s_mask)
    _check_t_mask(g, t_mask)
    return sum(1 for s, t in g.edges if s_mask >> s & 1 and t_mask >> t & 1)


def matching_number(g: Bigraph) -> int:
    """Maximum matching size, by augmenting-path search."""
    n_s, n_t = g.grounds.n_s, g.grounds.n_t
    match_t = [-1] * n_t

    def try_augment(i: int, seen: list[bool]) -> bool:
        for j in bits(g.s_adj[i]):
            if not seen[j]:
                seen[j] = True
                if match_t[j] < 0 or try_augment(match_t[j], seen):
                    match_t[j] = i
                    return True
        return False

    size = 0
    for i in range(n_s):
        if try_augment(i, [False] * n_t):
            size += 1
    return size


def fits(g: Bigraph, spec: DegreeSpec) -> bool:
    """True iff every node degree equals its prescription (multiplicity counted)."""
    require_same_grounds(g.grounds, spec.grounds)
    if g.s_degrees != spec.m_s:
        return False
    if spec.m_t is not None and g.t_degrees != spec.m_t:
        return False
    return True
