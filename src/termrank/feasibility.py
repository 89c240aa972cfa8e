"""Exact evaluators for the synthesis and augmentation feasibility
conditions, each returning either a pass or a violating certificate.

Every checker covers its whole quantifier family, finds the maximum
left-hand side, and reports the first subset combination attaining that
maximum, in a fixed iteration order: right-class subsets ascending, then
left-class subsets, then inner sets or part families in generation order.
Certificates therefore serve as deterministic goldens.

Families over subset pairs (x, y) are flat tables indexed by
``x | y << n_s``, whose ascending order is exactly that iteration order.
The cut conditions are separable (Ryser 1957; Gale 1957): for a fixed x the
left-hand side is modular in y, sum_s(x) plus the gain m_t(j) - |x & N(j)|
of each j in y, so it peaks at the positive gains.  The Ore-type checkers
enumerate only the smaller class, O(2^min(|S|,|T|) max(|S|,|T|)), and the
fully supermodular and nested-pair conditions fold their inner y, and by
rank monotonicity their outer left set, into one flat table over x and one
right set.  Every inequality still counts through a closed form; only a
violated family re-enumerates its inner sets, for the first attaining pair
alone, to name the certificate.  The packings of disjoint right parts fold
by a lowest-bit subset DP that also counts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, chain, repeat
from operator import add, mul, or_, sub
from typing import Iterable, Iterator

from .bigraph import (
    Bigraph,
    DegreeSpec,
    GroundSets,
    bipartite_complement,
    bits,
    cut_count,
    neighborhood,
    popcounts,
    submasks,
    subset_sums,
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


def _table_argmax(table: list[int]) -> tuple[int, int]:
    """The maximum of a flat table and the first index attaining it."""
    best = max(table)
    return best, table.index(best)


def _attaining(table: list[int], value: int) -> Iterator[int]:
    """Every index of ``table`` holding ``value``, ascending."""
    idx = -1
    for _ in range(table.count(value)):
        idx = table.index(value, idx + 1)
        yield idx


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


def _gain_columns(n_row: int, w_col: Iterable[int], col_adj: Iterable[int]) -> list[list[int]]:
    """Each node j's gain w_col[j] - |r & col_adj[j]| at every mask r of the
    other class (``n_row`` nodes), ``col_adj[j]`` its host neighbours."""
    cols = []
    for w, adj in zip(w_col, col_adj):
        col = [w]
        for i in range(n_row):
            col += [v - 1 for v in col] if adj >> i & 1 else col
        cols.append(col)
    return cols


def _plus(cols: list[list[int]]) -> list[list[int]]:
    return [[v if v > 0 else 0 for v in col] for col in cols]


def _positive_mask(cols: list[list[int]], r: int) -> int:
    """P(r): the nodes whose gain at mask r is positive."""
    return sum(1 << j for j, col in enumerate(cols) if col[r] > 0)


def _fold_gains(start: list[int], cols: list[list[int]]) -> list[int]:
    """start[x] plus the gain of every node of a, flat over ``x | a << n_s``."""
    table = list(start)
    for col in cols:
        table += list(map(add, table, col * (len(table) // len(col))))
    return table


def _cut_table(w_s, w_t, t_adj) -> list[int]:
    """w_s(x) + w_t(y) - cut(x, y) in a host, flat over ``x | y << n_s``."""
    return _fold_gains(subset_sums(w_s), _gain_columns(len(w_s), w_t, t_adj))


def _complete_adj(g: GroundSets) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The adjacency masks of the complete bigraph, left nodes' then right's."""
    return (g.t_all,) * g.n_s, (g.s_all,) * g.n_t


def _separable_argmax(w_s, w_t, s_adj, t_adj) -> tuple[int, int]:
    """Maximum over (x, y) of w_s(x) + w_t(y) - cut(x, y) in a host, and the
    first maximiser's index ``x | y << n_s``.  For a fixed x the sum peaks at
    the positive gains P(x), and every y attaining the peak holds P(x); when
    |S| > |T| the classes swap, and x = P'(y) for the first best y.
    """
    swap = len(w_s) > len(w_t)
    if swap:
        w_s, w_t, s_adj, t_adj = w_t, w_s, t_adj, s_adj
    cols = _gain_columns(len(w_s), w_t, t_adj)
    tops = list(map(add, subset_sums(w_s), map(sum, zip(*_plus(cols)))))
    best = max(tops)
    if swap:
        y = tops.index(best)
        return best, _positive_mask(cols, y) | y << len(w_t)
    return best, min(x | _positive_mask(cols, x) << len(w_s) for x in _attaining(tops, best))


def _inside_table(degrees: DegreeSpec, host: Bigraph) -> tuple[list[int], list[list[int]]]:
    """The best cut-condition lhs over y <= a, flat over ``x | a << n_s``; the gain columns."""
    cols = _gain_columns(degrees.grounds.n_s, degrees.m_t, host.t_adj)
    return _fold_gains(subset_sums(degrees.m_s), _plus(cols)), cols


def _part_terms(values: Iterable[int], nbrs: list[int], rank) -> Iterator[int]:
    """values[a] - rank[x | nbrs[a]], read flat over ``x | a << n_s``: a right
    set's value less the rank of a left set joined with its left neighbours."""
    width = len(rank)
    rows = {nb: [rank[x | nb] for x in range(width)] for nb in set(nbrs)}
    ranks = chain.from_iterable(map(rows.__getitem__, nbrs))
    return map(sub, chain.from_iterable(map(repeat, values, repeat(width))), ranks)


def _first_inner_pair(g: GroundSets, table, lhs: int, inside, cols) -> tuple[int, int, int]:
    """The first (x, y) attaining ``lhs`` in a table over ``x | a << n_s`` that adds
    ``inside``'s best y <= a, and its cut-condition lhs.  Each attaining entry's
    least y is P(x) & a, so the first pair is the least x | (P(x) & a) << n_s."""
    first, idx = min((x | (_positive_mask(cols, x) & a) << g.n_s, idx)
                     for idx in _attaining(table, lhs) for x, a in [_split_index(g, idx)])
    return (*_split_index(g, first), inside[idx])


def _bump(stats: dict | None, key: str, amount: int = 1) -> None:
    if stats is not None:
        stats[key] = stats.get(key, 0) + amount


def _pair_cert(which: str, lhs: int, idx: int, degrees: DegreeSpec) -> ViolationCert | None:
    """None when ``lhs`` is at most gamma, else the certificate of ``idx = x | y << n_s``."""
    if lhs <= degrees.gamma:
        return None
    x, y = _split_index(degrees.grounds, idx)
    return ViolationCert(which, x=x, y=y, lhs=lhs, rhs=degrees.gamma)


def _flat_cert(
    which: str, table: list[int], degrees: DegreeSpec, stats: dict | None
) -> ViolationCert | None:
    """Decide a flat ``x | y << n_s`` table against the degree total."""
    _bump(stats, "ineq_evals", len(table))
    return _pair_cert(which, *_table_argmax(table), degrees)


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
    _bump(stats, "ineq_evals", 1 << g0.grounds.n_v)
    best = _separable_argmax(degrees.m_s, degrees.m_t, g0.s_adj, g0.t_adj)
    return _pair_cert("ore", *best, degrees)


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
    gain = list(_part_terms(inst.demand.values, nbr0, rank))
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
            top = [a if a > b else b for a, b in zip(top, map(add, rows[p], best[left]))]
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
    base = _cut_table(degrees.m_s, degrees.m_t, inst.complement.t_adj)
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
    lhs_table = list(map(add, subset_sums(degrees.m_s), best[g.t_all]))
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
    supermodular demands.  The best y beside the part t0 takes every positive
    gain outside it: one flat table over x and T - t0.
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
    inside, cols = _inside_table(degrees, inst.complement)
    # entry x | a << n_s: the part t0 = T - a beside the best y <= a
    table = list(map(add, inside, _part_terms(dem[::-1], nbr0[::-1], rank)))
    _bump(stats, "ineq_evals", 3 ** g.n_t << g.n_s)
    lhs = max(table)
    if lhs <= gamma:
        return None
    x, y, base = _first_inner_pair(g, table, lhs, inside, cols)
    t0 = _first_attaining(
        lhs, ((base + dem[t0] - rank[x | nbr0[t0]], t0) for t0 in submasks(g.t_all ^ y))
    )
    parts = (t0,) if t0 else ()
    return ViolationCert("fully", x=x, y=y, parts=parts, lhs=lhs, rhs=gamma)


def check_ore0(degrees: DegreeSpec, stats: dict | None = None) -> ViolationCert | None:
    """Realizability of a degree pair by a simple bigraph (complete host)."""
    degrees = _require_full_degrees(degrees)
    _bump(stats, "ineq_evals", 1 << degrees.grounds.n_v)
    best = _separable_argmax(degrees.m_s, degrees.m_t, *_complete_adj(degrees.grounds))
    return _pair_cert("ore0", *best, degrees)


def ryser_table(degrees: DegreeSpec, ell: int) -> list[int]:
    """The classic term-rank condition's left-hand side, flat over ``x | y << n_s``:
    sum_s(x) + sum_t(y) - |x||y| + ell - |x| - |y|.  The literal form behind
    the harness's ``ryser_prefix`` cross-check; ``check_ryser`` builds no table."""
    less = [m - 1 for m in degrees.m_s], [m - 1 for m in degrees.m_t]
    return [v + ell for v in _cut_table(*less, _complete_adj(degrees.grounds)[1])]


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
    all.  The left-hand side is ``check_ore0``'s with degrees one lower, plus
    ell; the sorted-prefix reduction (``ryser_prefix_max``) is not evaluated.
    """
    degrees = _require_full_degrees(degrees)
    g = degrees.grounds
    if not 0 <= ell <= g.n_t:
        raise InstanceError(f"matching target {ell} out of range for |T| = {g.n_t}")
    _bump(stats, "ineq_evals", 1 << g.n_v)
    less = [m - 1 for m in degrees.m_s], [m - 1 for m in degrees.m_t]
    lhs, idx = _separable_argmax(*less, *_complete_adj(g))
    cert = _pair_cert("ryser", lhs + ell, idx, degrees)
    ore0 = check_ore0(degrees, stats)
    if ore0 is not None:
        raise PreconditionError("degree pair is not realizable by any simple bigraph", ore0)
    return cert


def _forced_table(adj: tuple[int, ...]) -> list[int]:
    """For each mask of one class, given its adjacency masks: the other class's
    nodes forced into any vertex cover using that mask, that is the neighbours
    of the nodes outside it (the neighbourhood table read backwards)."""
    return union_table(adj)[::-1]


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
    Ranks are monotone, so beside each yp the least cover N(T - yp) is the
    first best xp.  The equivalent neighborhood-rank form is not evaluated here.
    """
    ell = common_rank(graph, matroid_s, matroid_t)
    forced = _forced_table(graph.t_adj)
    _bump(stats, "ineq_evals", sum(1 << (graph.grounds.n_s - f.bit_count()) for f in forced))
    best, yp = _table_argmax([-matroid_s.rank[f] - rt for f, rt in zip(forced, matroid_t.rank)])
    if ell + best <= 0:
        return None
    return ViolationCert("brualdi", xp=forced[yp], yp=yp, lhs=ell + best, rhs=0)


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
    inst: Instance, which: str, degrees: DegreeSpec, ell: int, rank_s, rank_t, stats: dict | None
) -> ViolationCert | None:
    """The cut condition, then the nested pairs of both term-rank forms.

    lhs(x, y, xp, yp) = sum_s(x) + sum_t(y) - cut(x, y) + ell - r_S(xp) - r_T(yp)
    over x <= xp, y <= yp with (xp, yp) covering the initial edges.  Ranks are
    monotone, so for fixed (x, yp) the best xp is x + N0(T - yp): one flat
    table over ``x | yp << n_s``.  ``ineq_evals`` counts the quadruples: each
    xp has 2^|xp| sets x below it and 2^|N| 3^(|T| - |N|) pairs y <= yp with
    N = N0(S - xp) <= yp.
    """
    ore = check_ore(inst.complement, degrees, stats=stats)
    if ore is not None:
        return ore
    g = inst.grounds
    gamma = degrees.gamma
    needed = _forced_table(inst.initial.s_adj)
    weight = [3 ** (g.n_t - k) << k for k in range(g.n_t + 1)]  # the pairs y <= yp, by |N|
    _bump(stats, "ineq_evals", sum(
        (1 << xp.bit_count()) * weight[nd.bit_count()] for xp, nd in enumerate(needed)
    ))
    inside, cols = _inside_table(degrees, inst.complement)
    forced = _forced_table(inst.initial.t_adj)  # N0(T - yp), which xp must hold
    table = list(map(add, inside, _part_terms([ell - rt for rt in rank_t], forced, rank_s)))
    lhs = max(table)
    if lhs <= gamma:
        return None
    x, y, base = _first_inner_pair(g, table, lhs, inside, cols)
    xp, yp = _first_attaining(lhs, (
        (base + ell - rank_s[xp] - rank_t[yp], (xp, yp))
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


def check_ryser_novel(inst: Instance, ell: int, stats: dict | None = None) -> ViolationCert | None:
    """Uniform-matroid specialization: ranks replaced by plain cardinalities."""
    degrees = _require_full_degrees(inst.degrees)
    g = inst.grounds
    sizes_s, sizes_t = popcounts(g.n_s), popcounts(g.n_t)
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
    slack = [max(ell - r - rt, floor) for rt in rank_t for r in rank_s]
    table = _cut_table(degrees.m_s, degrees.m_t, _complete_adj(g)[1])
    return _flat_cert(which, list(map(add, table, slack)), degrees, stats)


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
    dem = inst.demand.values
    rank = inst.matroid_s.rank
    table = _cut_table(degrees.m_s, degrees.m_t, _complete_adj(inst.grounds)[1])
    # the part T - y beside y, with no initial edges
    part = _part_terms(dem[::-1], [0] * len(dem), rank)
    return _flat_cert("csak_mon", list(map(add, table, part)), degrees, stats)


def recompute_lhs(cert: ViolationCert, inst: Instance) -> int:
    """From-scratch evaluation of a certificate's left-hand side.

    Shares only the primitive graph and rank lookups with the checkers, not
    their enumeration machinery, so a corrupted certificate cannot slip
    through by construction.
    """
    which = cert.which
    g = inst.grounds
    deg = inst.degrees
    nx, ny = cert.x.bit_count(), cert.y.bit_count()
    if which in ("ore", "msmt", "fully", "ryser_gen", "ryser_novel"):
        base = deg.sum_s(cert.x) + deg.sum_t(cert.y) - cut_count(inst.complement, cert.x, cert.y)
    elif which in ("ore0", "ryser", "ryser_matroid", "integrated", "csak_mon"):
        base = deg.sum_s(cert.x) + deg.sum_t(cert.y) - nx * ny  # the complete host
    if which in ("ore", "ore0"):
        return base
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
        return base + inst.target_rank - nx - ny
    if which in ("ryser_matroid", "integrated"):
        slack = inst.matroid_s.full_rank - inst.matroid_s.rank_of(cert.x) - inst.matroid_t.rank_of(cert.y)
        return base + (slack if which == "ryser_matroid" else max(slack, 0))
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
        return base + inst.demand.value(g.t_all ^ cert.y) - inst.matroid_s.rank_of(cert.x)
    raise InstanceError(f"unknown certificate kind {which!r}")
