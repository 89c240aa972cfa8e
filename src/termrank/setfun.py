"""Integer set functions on bitmask subsets, supermodularity classifiers, and
the demand liftings that drive the constructive solver.

A "demand" is a set function on the right class T: a graph covers it when the
matroid rank of each subset's neighborhood reaches the demanded value.  The
liftings below extend a demand on T to the whole ground set so that covering
the lifted demand by left-to-right arcs is the same as solving the original
degree-specified augmentation problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .bigraph import Bigraph, DegreeSpec, GroundSets, locally_supermodular, union_table
from .errors import InstanceError
from .matroid import Matroid, corank_values


@dataclass(frozen=True)
class SetFunction:
    """Integer-valued function defined on every subset of its ground list."""

    ground: tuple[str, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ground", tuple(str(x) for x in self.ground))
        object.__setattr__(self, "values", tuple(map(int, self.values)))
        if len(set(self.ground)) != len(self.ground):
            raise InstanceError("set function ground elements must be distinct")
        if len(self.values) != 1 << len(self.ground):
            raise InstanceError(
                f"set function needs {1 << len(self.ground)} values, got {len(self.values)}"
            )

    @property
    def n(self) -> int:
        return len(self.ground)

    def value(self, mask: int) -> int:
        if mask < 0 or mask >= 1 << self.n:
            raise InstanceError("subset is not contained in the function's ground set")
        return self.values[mask]

    @cached_property
    def positive_masks(self) -> tuple[int, ...]:
        return tuple(m for m, v in enumerate(self.values) if v > 0)


def constant(ground, value: int) -> SetFunction:
    ground = tuple(ground)
    return SetFunction(ground, (value,) * (1 << len(ground)))


def from_corank(m: Matroid) -> SetFunction:
    """The complementary rank function of a matroid, as a demand table."""
    return SetFunction(m.ground, corank_values(m))


def shift(p: SetFunction, delta: int) -> SetFunction:
    return SetFunction(p.ground, tuple(v + delta for v in p.values))


def truncate_nonneg(p: SetFunction) -> SetFunction:
    return SetFunction(p.ground, tuple(max(v, 0) for v in p.values))


@dataclass(frozen=True)
class SupermodularViolation:
    """First pair breaking the supermodular inequality for the checked mode."""

    mode: str
    positively: bool
    x: int
    y: int
    lhs: int
    rhs: int


CLASSIFY_MODES = ("full", "intersecting", "t_intersecting", "st_crossing")


def classify_supermodular(
    p: SetFunction,
    mode: str,
    *,
    positively: bool = False,
    n_s: int = 0,
) -> SupermodularViolation | None:
    """Check p(X)+p(Y) <= p(X&Y)+p(X|Y) on exactly the pairs the mode demands.

    Modes: "full" checks every pair; "intersecting" only non-comparable pairs
    with a common element; "t_intersecting" non-comparable pairs meeting in
    the upper (T) bits; "st_crossing" additionally requires part of the lower
    (S) bits to stay outside the union.  With ``positively`` only pairs where
    both values are strictly positive are examined.  ``n_s`` is the number of
    low bits forming the S part; it is only consulted by the split modes.

    The check is exact on every pair.  Plain "full" mode decides through the
    equivalent local inequalities and runs the pairwise scan only when they
    fail, so the violation reported is always the first pair in the scan
    order (first mask ascending, then second mask ascending).
    """
    if mode not in CLASSIFY_MODES:
        raise InstanceError(f"unknown supermodularity mode {mode!r}")
    if n_s < 0 or n_s > p.n:
        raise InstanceError("split size does not match the function's ground set")
    s_all = (1 << n_s) - 1
    t_all = ((1 << p.n) - 1) ^ s_all
    if mode in ("t_intersecting", "st_crossing"):
        meet_mask = t_all
    else:
        meet_mask = (1 << p.n) - 1
    vals = p.values
    if mode == "full" and not positively and locally_supermodular(vals, p.n):
        return None
    if positively:
        candidates = p.positive_masks
    else:
        candidates = tuple(range(1 << p.n))
    for ia, a in enumerate(candidates):
        va = vals[a]
        for b in candidates[ia + 1 :]:
            if mode != "full":
                if a & b & meet_mask == 0:
                    continue
                union = a | b
                if union == a or union == b:  # comparable
                    continue
                if mode == "st_crossing" and s_all & ~union == 0:
                    continue
            vb = vals[b]
            if va + vb > vals[a & b] + vals[a | b]:
                return SupermodularViolation(
                    mode, positively, a, b, va + vb, vals[a & b] + vals[a | b]
                )
    if mode == "full" and not positively:
        raise AssertionError("local supermodularity fails but the pairwise scan finds no violation")
    return None


def closed_family(h0: Bigraph) -> tuple[bool, ...]:
    """Membership table over full-ground masks of the sets no initial edge enters.

    A left-to-right orientation of an initial edge (s, t) enters a set that
    contains t but not s; the family of sets avoided by all such arcs is
    closed under union and intersection.
    """
    g = h0.grounds
    needed = union_table(h0.t_adj)
    members = []
    for v_mask in range(1 << g.n_v):
        s_part, t_part = g.split(v_mask)
        members.append(needed[t_part] & ~s_part == 0)
    return tuple(members)


def nonneighbor_set(h0: Bigraph, s_index: int) -> int:
    """Full-ground mask of every node other than ``s_index`` not initially joined to it.

    In-arcs of this set from outside are exactly the admissible new edges at
    that left node, so its demand value meters the node's degree.
    """
    g = h0.grounds
    if not 0 <= s_index < g.n_s:
        raise InstanceError("left node index out of range")
    s_part = g.s_all & ~(1 << s_index)
    t_part = g.t_all & ~h0.s_adj[s_index]
    return g.v_mask(s_part, t_part)


def _require_demand_shape(h0: Bigraph, demand: SetFunction, matroid_s: Matroid) -> None:
    g = h0.grounds
    if demand.ground != g.t_ids:
        raise InstanceError("demand must be defined on the right class")
    if matroid_s.ground != g.s_ids:
        raise InstanceError("the matroid must be defined on the left class")
    if not h0.simple:
        raise InstanceError("the initial graph must be simple")


def _slack_rows(h0: Bigraph, demand: SetFunction, matroid_s: Matroid) -> list[list[int]]:
    """Row t, entry x: ``demand(t) - rank(x)`` if mask ``x | t << n_s`` is closed, else 0.

    The set is in the closed family when x holds every initial neighbour of t.
    """
    rank = matroid_s.rank
    return [
        [d - r if x & need == need else 0 for x, r in enumerate(rank)]
        for need, d in zip(union_table(h0.t_adj), demand.values)
    ]


def base_demand(
    h0: Bigraph, spec: DegreeSpec, demand: SetFunction, matroid_s: Matroid
) -> SetFunction:
    """Lift a right-class demand to the full ground set (both degree sides given).

    On members of the closed family the lifted value is the matroid slack
    (demand of the T-part minus rank of the S-part); on members whose T-part
    is a single node it is raised to that node's degree slack if larger.
    Everything else, including sets missing the right class entirely, gets 0.
    """
    _require_demand_shape(h0, demand, matroid_s)
    if spec.m_t is None:
        raise InstanceError("this lifting needs degrees on both classes")
    if spec.grounds != h0.grounds:
        raise InstanceError("degree specification lives on different ground sets")
    g = h0.grounds
    rows = _slack_rows(h0, demand, matroid_s)
    rows[0] = [0] * (1 << g.n_s)
    for j, need in enumerate(h0.t_adj):
        degree_slack = spec.m_t[j] + h0.t_degree(j)
        rows[1 << j] = [
            max(v, degree_slack - x.bit_count()) if x & need == need else 0
            for x, v in enumerate(rows[1 << j])
        ]
    return SetFunction(g.s_ids + g.t_ids, tuple(chain.from_iterable(rows)))


def full_demand(base: SetFunction, h0: Bigraph, spec: DegreeSpec) -> SetFunction:
    """Overwrite each left node's non-neighbor set with its prescribed degree.

    Rejects the degenerate case of two distinct left nodes sharing the same
    non-neighbor set with different degrees (cannot occur when |S| >= 2, since
    each node's set contains every other left node; kept as a guard).
    """
    g = h0.grounds
    if base.ground != g.s_ids + g.t_ids:
        raise InstanceError("base lifting does not match the initial graph's grounds")
    if spec.grounds != g:
        raise InstanceError("degree specification lives on different ground sets")
    vals = list(base.values)
    owner: dict[int, int] = {}
    for i in range(g.n_s):
        v_mask = nonneighbor_set(h0, i)
        if v_mask in owner and spec.m_s[owner[v_mask]] != spec.m_s[i]:
            raise InstanceError(
                "ambiguous lifting: two left nodes share a non-neighbor set "
                "but prescribe different degrees"
            )
        owner[v_mask] = i
        vals[v_mask] = spec.m_s[i]
    return SetFunction(base.ground, tuple(vals))


def st_independent_pair(a: int, b: int, s_all: int, t_upper: int) -> bool:
    """True iff no single left-to-right arc can enter both full-ground masks.

    ``s_all`` and ``t_upper`` are the S bits and the (shifted) T bits of the
    ground set; the two sets share no T node, or together hold every S node.
    """
    if a & b & t_upper == 0:
        return True
    return s_all & ~(a | b) == 0


def st_independent(family, grounds: GroundSets) -> bool:
    """True iff the family of full-ground masks is pairwise independent."""
    members = list(family)
    t_upper = grounds.t_all << grounds.n_s
    for idx, a in enumerate(members):
        for b in members[idx + 1 :]:
            if not st_independent_pair(a, b, grounds.s_all, t_upper):
                return False
    return True
