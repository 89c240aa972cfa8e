"""Deep oracles for the two exact searches and the subpartition pruning.

The cover solver and its dual certificate agree by construction inside the
package, so this module re-derives both quantities by plain enumeration
(iterative deepening over arc multisets, subset scan over families) and the
condition maxima by the literal unpruned subpartition formula.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

from termrank.bigraph import GroundSets, cut_count, neighborhood
from termrank.cover import covers, min_arc_cover
from termrank.errors import PreconditionError
from termrank.feasibility import Instance, check_ms_only, check_msmt
from termrank.harness import FuzzConfig, random_ms_only_instance, random_msmt_instance
from termrank.setfun import (
    SetFunction,
    base_demand,
    classify_supermodular,
    full_demand,
    st_independent,
)

from .oracles import subpartitions


def naive_min_cover_size(demand: SetFunction, n_s: int, limit: int) -> int:
    """Smallest covering arc multiset by iterative deepening over all multisets."""
    n_t = demand.n - n_s
    arcs = [(i, j) for i in range(n_s) for j in range(n_t)]
    for k in range(limit + 1):
        for multiset in combinations_with_replacement(arcs, k):
            if covers(multiset, demand, n_s):
                return k
    raise AssertionError(f"no cover within {limit} arcs")


def naive_max_family_value(demand: SetFunction, grounds: GroundSets) -> int:
    """Maximum total over independent families by scanning all subsets."""
    positive = list(demand.positive_masks)
    best = 0
    for pick in range(1 << len(positive)):
        family = [positive[i] for i in range(len(positive)) if pick >> i & 1]
        if st_independent(family, grounds):
            best = max(best, sum(demand.values[m] for m in family))
    return best


def random_crossing_demand(rng: random.Random, grounds: GroundSets) -> SetFunction | None:
    """Rejection-sample a small demand satisfying the cover preconditions."""
    size = 1 << grounds.n_v
    vals = [0] * size
    for _ in range(rng.randint(1, 4)):
        mask = rng.randrange(size)
        s_part, t_part = grounds.split(mask)
        if t_part == 0 or s_part == grounds.s_all:
            continue
        vals[mask] = rng.randint(1, 2)
    dem = SetFunction(grounds.s_ids + grounds.t_ids, tuple(vals))
    if classify_supermodular(dem, "st_crossing", positively=True, n_s=grounds.n_s):
        return None
    return dem


def test_min_cover_and_dual_match_plain_enumeration():
    rng = random.Random(60)
    grounds = GroundSets(("s1", "s2"), ("t1", "t2"))
    exercised = 0
    while exercised < 40:
        dem = random_crossing_demand(rng, grounds)
        if dem is None:
            continue
        exercised += 1
        cover, dual = min_arc_cover(dem, grounds.n_s)
        limit = sum(v for v in dem.values if v > 0) + 1
        assert cover.size == naive_min_cover_size(dem, grounds.n_s, limit)
        assert dual.value == naive_max_family_value(dem, grounds)
        assert covers(cover.arcs, dem, grounds.n_s)


def test_min_cover_oracle_on_lifted_demands():
    rng = random.Random(61)
    exercised = 0
    for _ in range(60):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=2, max_t=2))
        lifted = full_demand(
            base_demand(inst.initial, inst.degrees, inst.demand, inst.matroid_s),
            inst.initial,
            inst.degrees,
        )
        try:
            cover, dual = min_arc_cover(lifted, inst.grounds.n_s)
        except PreconditionError:
            continue
        exercised += 1
        limit = cover.size
        assert cover.size == naive_min_cover_size(lifted, inst.grounds.n_s, limit)
        assert dual.value == naive_max_family_value(lifted, inst.grounds)
    assert exercised > 25


def literal_condition_max(inst: Instance, *, over_all_of_t: bool) -> int:
    """The unpruned subpartition maximum, straight from the quantifier family."""
    g = inst.grounds
    g0 = inst.complement
    best = None
    for y in range(1 << g.n_t) if not over_all_of_t else (0,):
        avail = g.t_all ^ y if not over_all_of_t else g.t_all
        for x in range(1 << g.n_s):
            if over_all_of_t:
                base = inst.degrees.sum_s(x)
            else:
                base = (
                    inst.degrees.sum_s(x)
                    + inst.degrees.sum_t(y)
                    - cut_count(g0, x, y)
                )
            for family in subpartitions(avail):
                total = base
                for part in family:
                    gamma_nbr = x | neighborhood(inst.initial, part)
                    total += inst.demand.value(part) - inst.matroid_s.rank_of(gamma_nbr)
                if best is None or total > best:
                    best = total
    return best


def test_msmt_maximum_matches_literal_subpartition_enumeration():
    rng = random.Random(62)
    violated = 0
    for _ in range(60):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=3, max_t=3))
        cert = check_msmt(inst)
        literal = literal_condition_max(inst, over_all_of_t=False)
        if cert is None:
            assert literal <= inst.degrees.gamma
        else:
            violated += 1
            assert cert.lhs == literal > inst.degrees.gamma
    assert violated > 10


def test_ms_only_maximum_matches_literal_subpartition_enumeration():
    rng = random.Random(63)
    violated = 0
    for _ in range(120):
        inst = random_ms_only_instance(rng, FuzzConfig(max_s=3, max_t=3))
        bound_ok = all(
            inst.degrees.m_s[i] + inst.initial.s_degree(i) <= inst.grounds.n_t
            for i in range(inst.grounds.n_s)
        )
        cert = check_ms_only(inst)
        if not bound_ok:
            assert cert is not None and cert.which == "ms_only_degree"
            continue
        literal = literal_condition_max(inst, over_all_of_t=True)
        if cert is None:
            assert literal <= inst.degrees.gamma
        else:
            violated += 1
            assert cert.which == "ms_only"
            assert cert.lhs == literal > inst.degrees.gamma
    assert violated > 10


def test_msmt_condition_matches_combinations_search():
    # independent of the DFS constructor: scan gamma-sized edge combinations
    from .oracles import naive_subgraph_exists

    rng = random.Random(65)
    for _ in range(80):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=3, max_t=3))
        feasible = check_msmt(inst) is None
        dem_of = lambda t_sub: inst.demand.values[sum(1 << j for j in t_sub)]

        def rank_of(s_set):
            return inst.matroid_s.rank[sum(1 << i for i in s_set)]

        exists = naive_subgraph_exists(
            inst.complement.edges,
            inst.degrees.m_s,
            inst.degrees.m_t,
            n_t=inst.grounds.n_t,
            h0_edges=inst.initial.edges,
            demand_of=dem_of,
            rank_of=rank_of,
        )
        assert feasible == exists


def naive_classify(p: SetFunction, mode: str, positively: bool, n_s: int) -> bool:
    """Direct definition over frozensets; True means no violating pair."""
    n = p.n
    universe = frozenset(range(n))
    s_set = frozenset(range(n_s))
    t_set = universe - s_set

    def as_set(mask):
        return frozenset(i for i in range(n) if mask >> i & 1)

    def as_mask(sub):
        return sum(1 << i for i in sub)

    sets = [as_set(m) for m in range(1 << n)]
    for a in sets:
        for b in sets:
            if a == b:
                continue
            if positively and (p.values[as_mask(a)] <= 0 or p.values[as_mask(b)] <= 0):
                continue
            if mode != "full":
                if a <= b or b <= a:
                    continue
                if mode == "intersecting" and not a & b:
                    continue
                if mode in ("t_intersecting", "st_crossing") and not a & b & t_set:
                    continue
                if mode == "st_crossing" and not s_set - (a | b):
                    continue
            lhs = p.values[as_mask(a)] + p.values[as_mask(b)]
            rhs = p.values[as_mask(a & b)] + p.values[as_mask(a | b)]
            if lhs > rhs:
                return False
    return True


def test_classifier_matches_naive_definition():
    rng = random.Random(66)
    for _ in range(150):
        n = rng.randint(2, 4)
        n_s = rng.randint(0, n - 1)
        ground = tuple(f"e{i}" for i in range(n))
        vals = tuple(rng.randint(-2, 2) for _ in range(1 << n))
        p = SetFunction(ground, vals)
        for mode in ("full", "intersecting", "t_intersecting", "st_crossing"):
            for positively in (False, True):
                got = (
                    classify_supermodular(p, mode, positively=positively, n_s=n_s)
                    is None
                )
                want = naive_classify(p, mode, positively, n_s)
                assert got == want, (mode, positively, n_s, vals)


def test_lift_positive_only_on_closed_family():
    rng = random.Random(64)
    from termrank.setfun import closed_family

    for _ in range(40):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=3, max_t=3))
        base = base_demand(inst.initial, inst.degrees, inst.demand, inst.matroid_s)
        lifted = full_demand(base, inst.initial, inst.degrees)
        members = closed_family(inst.initial)
        for mask in lifted.positive_masks:
            assert members[mask]
