"""Exact evaluators for the synthesis and augmentation feasibility
conditions, each returning either a pass or a violating certificate.

Every checker covers its whole quantifier family, finds the maximum
left-hand side, and reports the first subset combination attaining that
maximum, in a fixed iteration order: right-class subsets ascending, then
left-class subsets, then inner sets or part families in generation order.
Certificates therefore serve as deterministic goldens.

Families over subset pairs (x, y) are flat tables indexed by
``x | y << n_s``, whose ascending order is exactly that iteration order.
Nested families fold their inner sets into such a table with a superset- or
subset-max transform (Bjorklund, Husfeldt, Kaski and Koivisto, *Fourier meets
Mobius*, STOC 2007), so every inequality still counts through the maxima;
only a violated family re-enumerates its inner sets, for the first attaining
pair alone, to name the certificate.  The packings of disjoint right parts in
the general condition fold in the same way, by a lowest-bit subset DP that
also counts them (``_packing_tables``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from operator import add, mul, or_
from typing import Iterable

from .bigraph import (
    Bigraph,
    DegreeSpec,
    GroundSets,
    bipartite_complement,
    bit_halves,
    bits,
    cut_count,
    neighborhood,
    submasks,
    supermasks,
    union_table,
)
from .errors import InstanceError, PreconditionError
from .matroid import Matroid
from .setfun import (
    SetFunction,
    classify_supermodular,
    from_corank,
)


@dataclass(frozen=True)
class ViolationCert:
    """A witness that one inequality of a condition family fails.

    Masks are class-local (``x``/``xp`` over S, ``y``/``yp``/``parts`` over
    T).  ``lhs > rhs`` always holds; ``rhs`` is the degree total except for
    the vertex-cover condition, where it is 0.
    """

    which: str
    x: int = 0
    y: int = 0
    parts: tuple[int, ...] = ()
    xp: int | None = None
    yp: int | None = None
    lhs: int = 0
    rhs: int = 0


@dataclass(frozen=True)
class Instance:
    """A validated problem instance; unused fields stay None.

    The same container backs every checker: the augmentation problems use
    ``initial``/``degrees``/``matroid_s``/``demand``; the term-rank forms add
    ``matroid_t`` and ``target_rank``; the matching form reads ``initial`` as
    the graph under test.
    """

    grounds: GroundSets
    initial: Bigraph
    degrees: DegreeSpec | None = None
    matroid_s: Matroid | None = None
    demand: SetFunction | None = None
    matroid_t: Matroid | None = None
    target_rank: int | None = None

    @classmethod
    def make(
        cls,
        grounds: GroundSets,
        *,
        initial: Bigraph | None = None,
        degrees: DegreeSpec | None = None,
        matroid_s: Matroid | None = None,
        demand: SetFunction | None = None,
        matroid_t: Matroid | None = None,
        target_rank: int | None = None,
    ) -> "Instance":
        if initial is None:
            initial = Bigraph(grounds, ())
        if initial.grounds != grounds:
            raise InstanceError("initial graph lives on different ground sets")
        if not initial.simple:
            raise InstanceError("the initial graph must be simple")
        if degrees is not None and degrees.grounds != grounds:
            raise InstanceError("degree specification lives on different ground sets")
        if matroid_s is None:
            matroid_s = Matroid.free(grounds.s_ids)
        if matroid_s.ground != grounds.s_ids:
            raise InstanceError("left matroid ground does not match")
        if matroid_t is not None and matroid_t.ground != grounds.t_ids:
            raise InstanceError("right matroid ground does not match")
        if demand is None and matroid_t is not None:
            demand = from_corank(matroid_t)
        if demand is not None and demand.ground != grounds.t_ids:
            raise InstanceError("demand must be defined on the right class")
        if target_rank is not None and target_rank < 0:
            raise InstanceError("target rank must be non-negative")
        return cls(grounds, initial, degrees, matroid_s, demand, matroid_t, target_rank)

    @cached_property
    def complement(self) -> Bigraph:
        return bipartite_complement(self.initial)

    @cached_property
    def demand_pos_intersecting(self) -> bool:
        if self.demand is None:
            return False
        return classify_supermodular(self.demand, "intersecting", positively=True) is None

    @cached_property
    def demand_fully(self) -> bool:
        if self.demand is None:
            return False
        return classify_supermodular(self.demand, "full") is None

    @cached_property
    def demand_monotone(self) -> bool:
        if self.demand is None:
            return False
        vals = self.demand.values
        for mask in range(len(vals)):
            for j in bits(self.grounds.t_all & ~mask):
                if vals[mask | (1 << j)] < vals[mask]:
                    return False
        return True


# Stands for an excluded table entry; far below any left-hand side.
_NEG = -(1 << 62)


def _superset_max(table: list[int], positions: Iterable[int]) -> None:
    """In place: each entry becomes the maximum over its supermasks.

    Only the given bit positions are free: afterwards ``table[m]`` is the
    maximum of ``table[m2]`` over every supermask ``m2`` of ``m`` that agrees
    with ``m`` on all other bits.  O(size * len(positions)).
    """
    size = len(table)
    for i in positions:
        for lo, hi in bit_halves(size, 1 << i):
            table[lo] = map(max, table[lo], table[hi])


def _subset_max(table: list[int], positions: Iterable[int]) -> None:
    """In place: each entry becomes the maximum over its submasks (see above)."""
    size = len(table)
    for i in positions:
        for lo, hi in bit_halves(size, 1 << i):
            table[hi] = map(max, table[hi], table[lo])


def _table_argmax(table: list[int]) -> tuple[int, int]:
    """The maximum of a flat table and the first index attaining it."""
    best = max(table)
    return best, table.index(best)


def _first_attaining(target: int, family: Iterable[tuple[int, object]]):
    """Payload of the first ``(lhs, payload)`` in ``family`` with lhs == target.

    Recovers a certificate from a table maximum: ``family`` re-runs the
    literal inner enumeration of the one pair the maximum came from.
    """
    for lhs, payload in family:
        if lhs == target:
            return payload
    raise AssertionError(f"no inner set attains the table maximum {target}")


def _split_index(g: GroundSets, idx: int) -> tuple[int, int]:
    return idx & g.s_all, idx >> g.n_s


def _degree_rows(degrees: DegreeSpec) -> tuple[list[int], list[int]]:
    """Degree sum and size of every left subset, indexed by S-mask."""
    xs = range(1 << degrees.grounds.n_s)
    return [degrees.sum_s(x) for x in xs], [x.bit_count() for x in xs]


def _ore_table(g0: Bigraph, degrees: DegreeSpec) -> list[int]:
    """sum_s(x) + sum_t(y) - cut(x, y) in ``g0``, flat over ``x | y << n_s``."""
    s_sums, _ = _degree_rows(degrees)
    table: list[int] = []
    for y, col in enumerate(zip(*g0.cut_table)):
        ty = degrees.sum_t(y)
        table += [s + ty - c for s, c in zip(s_sums, col)]
    return table


def _bump(stats: dict | None, key: str, amount: int = 1) -> None:
    if stats is not None:
        stats[key] = stats.get(key, 0) + amount


def _flat_cert(
    which: str, table: list[int], degrees: DegreeSpec, stats: dict | None
) -> ViolationCert | None:
    """Decide a flat ``x | y << n_s`` table against the degree total: None when
    its maximum is at most gamma, else the first maximiser's certificate."""
    _bump(stats, "ineq_evals", len(table))
    lhs, idx = _table_argmax(table)
    if lhs <= degrees.gamma:
        return None
    x, y = _split_index(degrees.grounds, idx)
    return ViolationCert(which, x=x, y=y, lhs=lhs, rhs=degrees.gamma)


def _require_full_degrees(degrees: DegreeSpec | None) -> DegreeSpec:
    if degrees is None or degrees.m_t is None:
        raise InstanceError("this condition needs degrees on both classes")
    return degrees


def check_ore(g0: Bigraph, degrees: DegreeSpec, stats: dict | None = None) -> ViolationCert | None:
    """Degree-specified subgraph existence in a given simple host graph."""
    if not g0.simple:
        raise InstanceError("the host graph must be simple")
    degrees = _require_full_degrees(degrees)
    if degrees.grounds != g0.grounds:
        raise InstanceError("degree specification lives on different ground sets")
    return _flat_cert("ore", _ore_table(g0, degrees), degrees, stats)


def _packing_tables(inst: Instance) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Families of pairwise disjoint right parts of every left set, by subset DP.

    Returns ``gain``, flat over ``x | p << n_s`` with dem(p) - r(x + N0(p)),
    and ``best`` and ``count``: for every T-mask a, a list over S-masks x of
    the largest total and the number of packings inside a.  Only parts of
    positive gain are packed, which is sound for maximization: dropping a
    non-positive part never lowers the total.

    A packing inside a either leaves a's lowest node uncovered or holds the
    one part p through it, beside a packing inside a - p.  So over the
    submasks a of the union of the positive parts, ascending, and for every
    x at once: best[a] = max(best[a - low], max_p gain[p] + best[a - p]),
    and ``count`` likewise with sums over the x that p helps.  A part that
    does not help x cannot raise x's maximum, as best[a - p] <= best[a - low].
    No part reaches past the union, so ``a & union`` stands for any T-mask a.
    """
    g = inst.grounds
    rank = inst.matroid_s.rank
    xs = range(1 << g.n_s)
    nbr0 = union_table(inst.initial.t_adj)
    gain = [d - rank[x | nb] for d, nb in zip(inst.demand.values, nbr0) for x in xs]
    positive = {idx >> g.n_s for idx, v in enumerate(gain) if v > 0} - {0}
    # every positive part's gains, and a 0/1 row of the x it helps
    rows = {p: gain[p << g.n_s:(p + 1) << g.n_s] for p in positive}
    helps = {p: [v > 0 for v in row] for p, row in rows.items()}
    through: dict[int, list[int]] = {}  # the positive parts by lowest node
    for p in positive:
        through.setdefault(p & -p, []).append(p)
    union = reduce(or_, positive, 0)
    best, count = {0: [0] * len(xs)}, {0: [1] * len(xs)}
    for a in submasks(union):  # a = 0 keeps its start values
        low = a & -a
        rest = a ^ low
        top, total = best[rest], count[rest]
        for p in through.get(low, ()):
            if p & ~a:
                continue
            left = a ^ p
            top = list(map(max, top, map(add, rows[p], best[left])))
            total = list(map(add, total, map(mul, helps[p], count[left])))
        best[a], count[a] = top, total
    t_masks = range(1 << g.n_t)
    return gain, [best[a & union] for a in t_masks], [count[a & union] for a in t_masks]


def _first_packing(gain: list[int], best: list[list[int]], x: int, avail: int) -> tuple[int, ...]:
    """The first packing of left set x inside ``avail`` whose total is the best,
    in the literal scan's pre-order: the empty family, then each positive part
    ascending followed by the packings of later parts beside it.  A branch is
    entered only when its part's gain plus the best packing of what is left
    can still reach the total, so only the path to the answer is walked in
    full.  Takes ``_packing_tables``' gain and best."""
    gain = gain[x::len(best[0])]  # x's gain per T-mask
    parts = [p for p in submasks(avail) if p and gain[p] > 0]

    def family(avail: int, need: int, start: int):
        yield 0, ()
        for idx in range(start, len(parts)):
            p = parts[idx]
            if p & ~avail or gain[p] + best[avail ^ p][x] < need:
                continue
            for total, rest in family(avail ^ p, need - gain[p], idx + 1):
                yield gain[p] + total, (p,) + rest

    need = best[avail][x]
    return _first_attaining(need, family(avail, need, 0))


def check_msmt(inst: Instance, stats: dict | None = None) -> ViolationCert | None:
    """Main augmentation condition: both degree sides, matroid-covered demand.

    Quantifies over a left subset, a right subset, and every subpartition of
    the remaining right nodes; each part contributes its demand minus the
    rank of the left subset joined with the part's initial neighborhood.
    The best packing of positive parts inside every right mask comes from the
    subset DP of ``_packing_tables``.  ``ineq_evals`` counts the packings of
    positive parts over all (x, y), one inequality each, as a literal scan
    would offer them.
    """
    degrees = _require_full_degrees(inst.degrees)
    if inst.demand is None:
        raise InstanceError("this condition needs a demand on the right class")
    if not inst.demand_pos_intersecting:
        raise PreconditionError("demand is not positively intersecting supermodular")
    g = inst.grounds
    gamma = degrees.gamma
    gain, best, count = _packing_tables(inst)
    inside = [v for row in best for v in row]  # flat over x | a << n_s
    flip = g.t_all << g.n_s  # idx ^ flip pairs (x, y) with (x, T - y)
    base = _ore_table(inst.complement, degrees)
    lhs_table = [b + inside[idx ^ flip] for idx, b in enumerate(base)]
    _bump(stats, "ineq_evals", sum(map(sum, count)))
    lhs, idx = _table_argmax(lhs_table)
    if lhs <= gamma:
        return None
    x, y = _split_index(g, idx)
    parts = _first_packing(gain, best, x, g.t_all ^ y)
    return ViolationCert("msmt", x=x, y=y, parts=parts, lhs=lhs, rhs=gamma)


def check_ms_only(inst: Instance, stats: dict | None = None) -> ViolationCert | None:
    """Variant with degrees prescribed on the left class only.

    Besides the subpartition condition (now over all of T), each left node
    must have room for its new edges next to its initial ones; that per-node
    bound is checked first and reported with the right class size as rhs.
    The subpartition condition is the table sum_s(x) + best packing inside T,
    over left subsets x.  ``ineq_evals`` counts the left nodes, then the
    packings of positive parts inside T over all x, as a literal scan would
    offer them.
    """
    if inst.degrees is None:
        raise InstanceError("this condition needs left degrees")
    if inst.demand is None:
        raise InstanceError("this condition needs a demand on the right class")
    if not inst.demand_pos_intersecting:
        raise PreconditionError("demand is not positively intersecting supermodular")
    g = inst.grounds
    degrees = inst.degrees
    loads = [m + d for m, d in zip(degrees.m_s, inst.initial.s_degrees)]
    _bump(stats, "ineq_evals", len(loads))
    worst, i = _table_argmax(loads)
    if worst > g.n_t:
        return ViolationCert("ms_only_degree", x=1 << i, lhs=worst, rhs=g.n_t)
    gamma = degrees.gamma
    gain, best, count = _packing_tables(inst)
    s_sums, _ = _degree_rows(degrees)
    lhs_table = list(map(add, s_sums, best[g.t_all]))
    _bump(stats, "ineq_evals", sum(count[g.t_all]))
    lhs, x = _table_argmax(lhs_table)
    if lhs <= gamma:
        return None
    parts = _first_packing(gain, best, x, g.t_all)
    return ViolationCert("ms_only", x=x, parts=parts, lhs=lhs, rhs=gamma)


def check_fully(inst: Instance, stats: dict | None = None) -> ViolationCert | None:
    """Simplified condition valid when the demand is fully supermodular.

    Requires the plain degree condition plus a single-part version of the
    subpartition condition; equivalent to the general condition for fully
    supermodular demands.
    """
    degrees = _require_full_degrees(inst.degrees)
    if inst.demand is None:
        raise InstanceError("this condition needs a demand on the right class")
    if not inst.demand_fully:
        raise PreconditionError("demand is not fully supermodular")
    ore = check_ore(inst.complement, degrees, stats=stats)
    if ore is not None:
        return ore
    g = inst.grounds
    gamma = degrees.gamma
    nbr0 = union_table(inst.initial.t_adj)
    dem = inst.demand.values
    rank = inst.matroid_s.rank
    xs = range(1 << g.n_s)
    # part[x | t0 << n_s] = dem(t0) - r(x + N0(t0)); a subset-max over the T
    # bits turns it into the best single part inside each T-mask
    part: list[int] = []
    for d, nb in zip(dem, nbr0):
        part += [d - rank[x | nb] for x in xs]
    _subset_max(part, range(g.n_s, g.n_v))
    flip = g.t_all << g.n_s  # idx ^ flip pairs (x, y) with (x, T - y)
    base = _ore_table(inst.complement, degrees)
    lhs_table = [b + part[idx ^ flip] for idx, b in enumerate(base)]
    _bump(stats, "ineq_evals", 3 ** g.n_t << g.n_s)
    lhs, idx = _table_argmax(lhs_table)
    if lhs <= gamma:
        return None
    x, y = _split_index(g, idx)
    t0 = _first_attaining(
        lhs,
        ((base[idx] + dem[t0] - rank[x | nbr0[t0]], t0) for t0 in submasks(g.t_all ^ y)),
    )
    parts = (t0,) if t0 else ()
    return ViolationCert("fully", x=x, y=y, parts=parts, lhs=lhs, rhs=gamma)


def _product_table(degrees: DegreeSpec, extra_row=None) -> list[int]:
    """sum_s(x) + sum_t(y) - |x||y|, flat over ``x | y << n_s``.

    That is the cut-condition table of the complete host graph.  When given,
    ``extra_row(y)`` is a list over S-masks added to the row of ``y``.
    """
    g = degrees.grounds
    s_sums, sizes = _degree_rows(degrees)
    table: list[int] = []
    for y in range(1 << g.n_t):
        ty, ny = degrees.sum_t(y), y.bit_count()
        row = [s + ty - nx * ny for s, nx in zip(s_sums, sizes)]
        if extra_row is not None:
            row = list(map(add, row, extra_row(y)))
        table += row
    return table


def check_ore0(degrees: DegreeSpec, stats: dict | None = None) -> ViolationCert | None:
    """Realizability of a degree pair by a simple bigraph (complete host)."""
    degrees = _require_full_degrees(degrees)
    return _flat_cert("ore0", _product_table(degrees), degrees, stats)


def ryser_table(degrees: DegreeSpec, ell: int) -> list[int]:
    """The classic term-rank condition's left-hand side, flat over ``x | y << n_s``:
    sum_s(x) + sum_t(y) - |x||y| + ell - |x| - |y|."""
    s_sums, sizes = _degree_rows(degrees)
    table: list[int] = []
    for y in range(1 << degrees.grounds.n_t):
        ny = y.bit_count()
        row_const = degrees.sum_t(y) - ny + ell
        table += [s - nx * (ny + 1) + row_const for s, nx in zip(s_sums, sizes)]
    return table


def ryser_prefix_max(degrees: DegreeSpec, ell: int) -> int:
    """Largest left-hand side over prefixes of the sorted degree sequences.

    For any subset size the sum is maximized by the largest degree values, so
    this equals the maximum of ``ryser_table``; the harness's ``ryser_prefix``
    cross-check asserts that.
    """
    degrees = _require_full_degrees(degrees)
    g = degrees.grounds
    pref_s = [0, *accumulate(sorted(degrees.m_s, reverse=True))]
    pref_t = [0, *accumulate(sorted(degrees.m_t, reverse=True))]
    return max(
        pref_s[i] + pref_t[j] - i * j + (ell - i - j)
        for i in range(g.n_s + 1)
        for j in range(g.n_t + 1)
    )


def check_ryser(degrees: DegreeSpec, ell: int, stats: dict | None = None) -> ViolationCert | None:
    """Classic max term rank condition for a degree pair and matching target.

    Raises a precondition error when the degree pair is not realizable at
    all.  Decides by the full quantification over subset pairs; the
    sorted-prefix reduction (``ryser_prefix_max``) is not evaluated here.
    """
    degrees = _require_full_degrees(degrees)
    g = degrees.grounds
    if not 0 <= ell <= g.n_t:
        raise InstanceError(f"matching target {ell} out of range for |T| = {g.n_t}")
    cert = _flat_cert("ryser", ryser_table(degrees, ell), degrees, stats)
    ore0 = check_ore0(degrees, stats)
    if ore0 is not None:
        raise PreconditionError("degree pair is not realizable by any simple bigraph", ore0)
    return cert


def _uncovered_t_table(graph: Bigraph) -> list[int]:
    """For each S-mask: the T-nodes forced into any vertex cover using that mask.

    Those are the neighbours of the left nodes outside the mask: the
    neighbourhood table of left subsets read backwards, since the complement
    of mask ``xp`` is ``s_all - xp``.
    """
    return union_table(graph.s_adj)[::-1]


def _cover_table(needed: list[int], rank_s, rank_t, n_t: int) -> list[int]:
    """-r_S(xp) - r_T(yp) over ``xp | yp << n_s``; _NEG where (xp, yp) misses an edge."""
    table: list[int] = []
    for yp in range(1 << n_t):
        rt = rank_t[yp]
        table += [_NEG if nd & ~yp else -rs - rt for rs, nd in zip(rank_s, needed)]
    return table


def common_rank(graph: Bigraph, matroid_s: Matroid, matroid_t: Matroid) -> int:
    """The full rank shared by two matroids on the classes of a graph."""
    if matroid_s.ground != graph.grounds.s_ids or matroid_t.ground != graph.grounds.t_ids:
        raise InstanceError("matroids do not live on the graph's ground sets")
    if matroid_s.full_rank != matroid_t.full_rank:
        raise InstanceError(
            f"rank mismatch: {matroid_s.full_rank} on the left vs {matroid_t.full_rank} on the right"
        )
    return matroid_s.full_rank


def check_brualdi(
    graph: Bigraph, matroid_s: Matroid, matroid_t: Matroid, stats: dict | None = None
) -> ViolationCert | None:
    """Existence of a matching covering bases of both matroids.

    Decided over every vertex cover: the rank sum must reach the common rank.
    The equivalent neighborhood-rank form is not evaluated here.
    """
    g = graph.grounds
    ell = common_rank(graph, matroid_s, matroid_t)
    needed = _uncovered_t_table(graph)
    table = _cover_table(needed, matroid_s.rank, matroid_t.rank, g.n_t)
    _bump(stats, "ineq_evals", len(table) - table.count(_NEG))
    best, idx = _table_argmax(table)
    lhs = ell + best
    if lhs <= 0:
        return None
    xp, yp = _split_index(g, idx)
    return ViolationCert("brualdi", xp=xp, yp=yp, lhs=lhs, rhs=0)


def _resolve_common_rank(inst: Instance) -> int:
    if inst.matroid_s is None or inst.matroid_t is None:
        raise InstanceError("this condition needs matroids on both classes")
    rs, rt = inst.matroid_s.full_rank, inst.matroid_t.full_rank
    if inst.target_rank is not None and inst.target_rank > min(rs, rt):
        raise InstanceError(
            f"target rank {inst.target_rank} exceeds the smaller matroid rank {min(rs, rt)}"
        )
    if rs != rt:
        raise InstanceError(f"rank mismatch: {rs} on the left vs {rt} on the right")
    if inst.target_rank is not None and inst.target_rank != rs:
        raise InstanceError(
            f"both matroids must have rank equal to the target {inst.target_rank}, got {rs}"
        )
    return rs


def _nested_pair_cert(
    inst: Instance,
    which: str,
    degrees: DegreeSpec,
    ell: int,
    rank_s,
    rank_t,
    stats: dict | None,
) -> ViolationCert | None:
    """The nested-pair condition shared by the matroidal and uniform term-rank forms.

    lhs(x, y, xp, yp) = sum_s(x) + sum_t(y) - cut(x, y) + ell - r_S(xp) - r_T(yp)
    over x <= xp, y <= yp with (xp, yp) covering the initial edges.  One
    superset-max pass over all |S|+|T| bits of the cover table gives, for
    every (x, y), the best outer pair above it: O(2^n n) instead of 3^n.
    """
    g = inst.grounds
    gamma = degrees.gamma
    needed = _uncovered_t_table(inst.initial)
    outer = _cover_table(needed, rank_s, rank_t, g.n_t)
    # each valid (xp, yp) stands for the 2^|xp| * 2^|yp| nested quadruples below it
    _bump(stats, "ineq_evals", sum(
        1 << idx.bit_count() for idx, v in enumerate(outer) if v != _NEG
    ))
    _superset_max(outer, range(g.n_v))
    base = _ore_table(inst.complement, degrees)
    lhs, idx = _table_argmax(list(map(add, base, outer)))
    lhs += ell
    if lhs <= gamma:
        return None
    x, y = _split_index(g, idx)
    xp, yp = _first_attaining(lhs, (
        (base[idx] + ell - rank_s[xp] - rank_t[yp], (xp, yp))
        for yp in supermasks(y, g.t_all)
        for xp in supermasks(x, g.s_all)
        if not needed[xp] & ~yp
    ))
    return ViolationCert(which, x=x, y=y, xp=xp, yp=yp, lhs=lhs, rhs=gamma)


def check_ryser_gen(inst: Instance, stats: dict | None = None) -> ViolationCert | None:
    """Matroidal term rank augmentation condition.

    Quantifies over nested subset pairs whose outer pair covers all initial
    edges.  The equivalent fully supermodular condition on ``corank_instance``
    is not evaluated here.
    """
    degrees = _require_full_degrees(inst.degrees)
    ell = _resolve_common_rank(inst)
    ore = check_ore(inst.complement, degrees, stats=stats)
    if ore is not None:
        return ore
    return _nested_pair_cert(
        inst, "ryser_gen", degrees, ell, inst.matroid_s.rank, inst.matroid_t.rank, stats
    )


def corank_instance(inst: Instance) -> Instance:
    """A term-rank instance as an augmentation instance: the right matroid's
    complementary rank is the demand, and the target rank is dropped."""
    return Instance.make(
        inst.grounds,
        initial=inst.initial,
        degrees=inst.degrees,
        matroid_s=inst.matroid_s,
        matroid_t=inst.matroid_t,
    )


def check_ryser_novel(
    inst: Instance, ell: int, stats: dict | None = None
) -> ViolationCert | None:
    """Uniform-matroid specialization: ranks replaced by plain cardinalities."""
    degrees = _require_full_degrees(inst.degrees)
    ore = check_ore(inst.complement, degrees, stats=stats)
    if ore is not None:
        return ore
    g = inst.grounds
    sizes_s = [xp.bit_count() for xp in range(1 << g.n_s)]
    sizes_t = [yp.bit_count() for yp in range(1 << g.n_t)]
    return _nested_pair_cert(inst, "ryser_novel", degrees, ell, sizes_s, sizes_t, stats)


def _synthesis_cert(
    which: str, degrees: DegreeSpec, matroid_s: Matroid, matroid_t: Matroid, floor: int,
    stats: dict | None,
) -> ViolationCert | None:
    """The synthesis condition with rank slack ``max(ell - r_S(x) - r_T(y), floor)``:
    floor ``_NEG`` keeps the slack as it is, floor 0 takes its positive part."""
    degrees = _require_full_degrees(degrees)
    g = degrees.grounds
    if matroid_s.ground != g.s_ids or matroid_t.ground != g.t_ids:
        raise InstanceError("matroids do not live on the degree spec's ground sets")
    if matroid_s.full_rank != matroid_t.full_rank:
        raise InstanceError("rank mismatch between the two matroids")
    ell = matroid_s.full_rank
    rank_s, rank_t = matroid_s.rank, matroid_t.rank
    table = _product_table(degrees, lambda y: [max(ell - r - rank_t[y], floor) for r in rank_s])
    return _flat_cert(which, table, degrees, stats)


def check_ryser_matroid(
    degrees: DegreeSpec,
    matroid_s: Matroid,
    matroid_t: Matroid,
    stats: dict | None = None,
) -> ViolationCert | None:
    """Synthesis specialization (no initial edges) of the matroidal condition."""
    return _synthesis_cert("ryser_matroid", degrees, matroid_s, matroid_t, _NEG, stats)


def check_integrated(
    degrees: DegreeSpec,
    matroid_s: Matroid,
    matroid_t: Matroid,
    stats: dict | None = None,
) -> ViolationCert | None:
    """Single-inequality form folding realizability and the matroid condition.

    The rank slack enters through a positive part, so one family of
    inequalities covers both realizability (``check_ore0``) and the matroid
    condition (``check_ryser_matroid``); neither is evaluated here.
    """
    return _synthesis_cert("integrated", degrees, matroid_s, matroid_t, 0, stats)


def check_csak_mon(inst: Instance, stats: dict | None = None) -> ViolationCert | None:
    """Monotone-demand synthesis form: the single part may be taken maximal."""
    degrees = _require_full_degrees(inst.degrees)
    if inst.initial.edge_count:
        raise InstanceError("this form applies only without initial edges")
    if inst.demand is None or not inst.demand_monotone:
        raise PreconditionError("demand must be monotone for the maximal-part form")
    ore0 = check_ore0(degrees, stats)
    if ore0 is not None:
        return ore0
    t_all = inst.grounds.t_all
    dem = inst.demand.values
    rank = inst.matroid_s.rank
    table = _product_table(degrees, lambda y: [dem[t_all ^ y] - r for r in rank])
    return _flat_cert("csak_mon", table, degrees, stats)


def recompute_lhs(cert: ViolationCert, inst: Instance) -> int:
    """From-scratch evaluation of a certificate's left-hand side.

    Shares only the primitive graph and rank lookups with the checkers, not
    their enumeration machinery, so a corrupted certificate cannot slip
    through by construction.
    """
    which = cert.which
    g = inst.grounds
    deg = inst.degrees
    if which in ("ore", "msmt", "fully", "ryser_gen", "ryser_novel"):
        g0 = inst.complement
        base = deg.sum_s(cert.x) + deg.sum_t(cert.y) - cut_count(g0, cert.x, cert.y)
    if which == "ore":
        return base
    if which == "ore0":
        return (
            deg.sum_s(cert.x) + deg.sum_t(cert.y) - cert.x.bit_count() * cert.y.bit_count()
        )
    if which in ("msmt", "ms_only"):
        total = 0
        seen = 0
        for part in cert.parts:
            if part == 0 or part & seen or (which == "msmt" and part & cert.y):
                raise InstanceError("certificate parts are not a valid subpartition")
            seen |= part
            gamma_nbr = cert.x | neighborhood(inst.initial, part)
            total += inst.demand.value(part) - inst.matroid_s.rank_of(gamma_nbr)
        if which == "ms_only":
            return deg.sum_s(cert.x) + total
        return base + total
    if which == "ms_only_degree":
        i = cert.x.bit_length() - 1
        return deg.m_s[i] + inst.initial.s_degree(i)
    if which == "fully":
        t0 = cert.parts[0] if cert.parts else 0
        gamma_nbr = cert.x | neighborhood(inst.initial, t0)
        return base + inst.demand.value(t0) - inst.matroid_s.rank_of(gamma_nbr)
    if which == "ryser":
        nx, ny = cert.x.bit_count(), cert.y.bit_count()
        return deg.sum_s(cert.x) + deg.sum_t(cert.y) - nx * ny + (inst.target_rank - nx - ny)
    if which == "ryser_matroid":
        nx, ny = cert.x.bit_count(), cert.y.bit_count()
        ell = inst.matroid_s.full_rank
        return (
            deg.sum_s(cert.x) + deg.sum_t(cert.y) - nx * ny
            + ell - inst.matroid_s.rank_of(cert.x) - inst.matroid_t.rank_of(cert.y)
        )
    if which == "integrated":
        nx, ny = cert.x.bit_count(), cert.y.bit_count()
        ell = inst.matroid_s.full_rank
        slack = ell - inst.matroid_s.rank_of(cert.x) - inst.matroid_t.rank_of(cert.y)
        return deg.sum_s(cert.x) + deg.sum_t(cert.y) - nx * ny + max(slack, 0)
    if which == "brualdi":
        ell = inst.matroid_s.full_rank
        for s, t in inst.initial.edges:
            if not (cert.xp >> s & 1 or cert.yp >> t & 1):
                raise InstanceError("certificate sets do not cover the graph")
        return ell - inst.matroid_s.rank_of(cert.xp) - inst.matroid_t.rank_of(cert.yp)
    if which in ("ryser_gen", "ryser_novel"):
        if cert.x & ~cert.xp or cert.y & ~cert.yp:
            raise InstanceError("certificate outer sets do not contain the inner sets")
        for s, t in inst.initial.edges:
            if not (cert.xp >> s & 1 or cert.yp >> t & 1):
                raise InstanceError("certificate outer sets do not cover the initial edges")
        if which == "ryser_gen":
            ell = inst.matroid_s.full_rank
            return base + ell - inst.matroid_s.rank_of(cert.xp) - inst.matroid_t.rank_of(cert.yp)
        ell = inst.target_rank
        return base + ell - cert.xp.bit_count() - cert.yp.bit_count()
    if which == "csak_mon":
        nx, ny = cert.x.bit_count(), cert.y.bit_count()
        return (
            deg.sum_s(cert.x) + deg.sum_t(cert.y) - nx * ny
            + inst.demand.value(g.t_all ^ cert.y) - inst.matroid_s.rank_of(cert.x)
        )
    raise InstanceError(f"unknown certificate kind {which!r}")
