"""Set-function tables, supermodularity classification, and the demand lifts."""

from __future__ import annotations

import random

import pytest

from termrank.bigraph import Bigraph, DegreeSpec, GroundSets
from termrank.errors import InstanceError
from termrank.feasibility import check_msmt
from termrank.matroid import Matroid
from termrank.setfun import (
    SetFunction,
    base_demand,
    classify_supermodular,
    closed_family,
    constant,
    from_corank,
    full_demand,
    nonneighbor_set,
    shift,
    st_independent,
    truncate_nonneg,
)
from termrank.harness import (
    FuzzConfig,
    _random_degrees,
    _random_demand,
    _random_initial,
    _random_matroid,
    random_msmt_instance,
)

from .oracles import (
    literal_base_demand,
    naive_base_lift,
    rank_over_names,
)


def grounds22():
    return GroundSets(("s1", "s2"), ("t1", "t2"))


def tiny_instance():
    """No initial edges, free left matroid, unit demand on the whole right class."""
    g = grounds22()
    h0 = Bigraph(g, ())
    spec = DegreeSpec(g, (1, 1), (1, 1))
    dem = from_corank(Matroid.uniform(g.t_ids, 1))
    return g, h0, spec, dem, Matroid.free(g.s_ids)


def test_setfunction_validation():
    with pytest.raises(InstanceError):
        SetFunction(("a", "b"), (0, 1, 2))
    p = SetFunction(("a",), (0, -3))
    assert p.value(1) == -3
    with pytest.raises(InstanceError):
        p.value(2)


def test_classifier_accepts_coranks_and_zero():
    g = grounds22()
    for k in range(3):
        dem = from_corank(Matroid.uniform(g.t_ids, k))
        assert classify_supermodular(dem, "full") is None
        assert classify_supermodular(dem, "intersecting", positively=True) is None
    zero = constant(g.t_ids, 0)
    for mode in ("full", "intersecting"):
        assert classify_supermodular(zero, mode) is None


def test_classifier_finds_violation_with_witness():
    # p({a})=p({b})=1 but p({a,b})=0: fails on the meeting... on the full pair
    p = SetFunction(("a", "b"), (0, 1, 1, 0))
    v = classify_supermodular(p, "full")
    assert v is not None and {v.x, v.y} == {1, 2}
    assert v.lhs == 2 and v.rhs == 0
    # the same pair meets nowhere, so intersecting modes accept
    assert classify_supermodular(p, "intersecting") is None


def test_classifier_positively_filter():
    # a violating positive pair is caught even when other values are negative
    p = SetFunction(("a", "b", "c"), (0, -1, 1, 1, 1, 1, 1, 0))
    assert classify_supermodular(p, "intersecting", positively=True) is not None
    # here the only violating pair contains a zero-valued set, so the
    # positive-only check accepts what the unfiltered check rejects
    q = SetFunction(("a", "b", "c"), (0, 0, 1, 0, 0, 0, 3, 1))
    assert classify_supermodular(q, "intersecting", positively=True) is None
    assert classify_supermodular(q, "intersecting", positively=False) is not None


def test_classifier_split_modes():
    # ground = one left bit + two right bits
    vals = [0] * 8
    vals[0b010] = 1  # {t1}
    vals[0b110] = 1  # {t1, t2}
    p = SetFunction(("s1", "t1", "t2"), tuple(vals))
    # comparable pair, so no T-meeting violation exists
    assert classify_supermodular(p, "t_intersecting", positively=True, n_s=1) is None
    vals = [0] * 8
    vals[0b011] = 1  # {s1, t1}
    vals[0b110] = 1  # {t1, t2}
    vals[0b010] = 0
    vals[0b111] = 1
    p = SetFunction(("s1", "t1", "t2"), tuple(vals))
    # pair meets in t1, is non-comparable: 2 > 0 + 1 violates
    v = classify_supermodular(p, "t_intersecting", positively=True, n_s=1)
    assert v is not None
    # but their union covers all of S, so the crossing mode skips the pair
    assert classify_supermodular(p, "st_crossing", positively=True, n_s=1) is None


def test_closed_family_definition_and_lattice():
    g = grounds22()
    h0 = Bigraph(g, ((0, 0),))  # edge s1-t1
    members = closed_family(h0)
    # {t1} alone is entered by the initial arc, so it is out
    assert not members[g.v_mask(0, 0b01)]
    # {s1, t1} is in
    assert members[g.v_mask(0b01, 0b01)]
    # sets avoiding t1 are all in
    assert members[g.v_mask(0b10, 0b10)]
    member_masks = [m for m in range(1 << g.n_v) if members[m]]
    for a in member_masks:
        for b in member_masks:
            assert members[a | b] and members[a & b]


def test_closed_family_closure_random_instances():
    rng = random.Random(4)
    for _ in range(25):
        inst = random_msmt_instance(
            rng, FuzzConfig(max_s=4, max_t=4, densities=(0.25, 0.5))
        )
        members = closed_family(inst.initial)
        masks = [m for m in range(len(members)) if members[m]]
        for a in masks:
            for b in masks:
                assert members[a | b] and members[a & b]


def test_nonneighbor_set_example_and_membership():
    g = grounds22()
    h0 = Bigraph(g, ())
    # for s1: everything except s1 itself
    assert nonneighbor_set(h0, 0) == g.v_mask(0b10, 0b11)
    h0 = Bigraph(g, ((0, 0),))
    assert nonneighbor_set(h0, 0) == g.v_mask(0b10, 0b10)
    rng = random.Random(9)
    for _ in range(30):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=4, max_t=4))
        members = closed_family(inst.initial)
        for i in range(inst.grounds.n_s):
            assert members[nonneighbor_set(inst.initial, i)]


def test_nonneighbor_family_is_independent():
    rng = random.Random(10)
    for _ in range(30):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=4, max_t=4))
        family = [
            nonneighbor_set(inst.initial, i) for i in range(inst.grounds.n_s)
        ]
        assert st_independent(family, inst.grounds)


def test_st_independent_examples():
    g = grounds22()
    assert st_independent([g.v_mask(0, 0b01)], g)
    # two sets sharing t1 while s2 stays outside both
    a = g.v_mask(0, 0b01)
    b = g.v_mask(0, 0b11)
    assert not st_independent([a, b], g)
    # same pair with the whole left class inside the union is fine
    a = g.v_mask(0b11, 0b01)
    assert st_independent([a, b], g)


def test_base_lift_examples():
    g, h0, spec, dem, free = tiny_instance()
    lift = base_demand(h0, spec, dem, free)
    # single right node t1, no left part: degree slack 1 wins over 0
    assert lift.value(g.v_mask(0, 0b01)) == 1
    # {s1, t1}: max(0 - 1, 1 - 1 + 0) = 0
    assert lift.value(g.v_mask(0b01, 0b01)) == 0
    # sets without right nodes are zero
    for s_mask in range(4):
        assert lift.value(g.v_mask(s_mask, 0)) == 0


def test_base_lift_matches_naive_literal_evaluation():
    rng = random.Random(21)
    for _ in range(40):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=3, max_t=3))
        g = inst.grounds
        lift = base_demand(inst.initial, inst.degrees, inst.demand, inst.matroid_s)
        dem_of = lambda t_sub: inst.demand.values[sum(1 << j for j in t_sub)]
        naive = naive_base_lift(
            list(inst.initial.edges),
            g.n_s,
            g.n_t,
            inst.degrees.m_t,
            dem_of,
            rank_over_names(inst.matroid_s),
        )
        for (s_sub, t_sub), want in naive.items():
            v_mask = g.v_mask(sum(1 << i for i in s_sub), sum(1 << j for j in t_sub))
            assert lift.value(v_mask) == want


@pytest.mark.parametrize("n_s, n_t", [(6, 6), (2, 10), (10, 2)])
def test_row_wise_lifts_equal_the_per_mask_forms_at_the_cap(n_s, n_t):
    rng = random.Random(26 + n_s)
    g = GroundSets(tuple(f"s{i}" for i in range(n_s)), tuple(f"t{j}" for j in range(n_t)))
    for density in (0.0, 0.2, 0.5, 0.8, 1.0):
        h0 = _random_initial(rng, g, density)
        spec = _random_degrees(rng, g, 3)
        ms = _random_matroid(rng, g.s_ids)
        dem, _fully = _random_demand(rng, g.t_ids)
        assert base_demand(h0, spec, dem, ms).values == literal_base_demand(h0, spec, dem, ms)


def test_full_lift_overrides_meter_sets():
    g, h0, spec, dem, free = tiny_instance()
    base = base_demand(h0, spec, dem, free)
    lift = full_demand(base, h0, spec)
    vs1 = nonneighbor_set(h0, 0)
    assert vs1 == g.v_mask(0b10, 0b11)
    assert lift.value(vs1) == spec.m_s[0] == 1
    # untouched elsewhere
    assert lift.value(g.v_mask(0, 0b01)) == base.value(g.v_mask(0, 0b01)) == 1


def test_base_lift_positively_t_intersecting_on_randoms():
    rng = random.Random(23)
    for _ in range(60):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=4, max_t=4))
        lift = base_demand(inst.initial, inst.degrees, inst.demand, inst.matroid_s)
        assert (
            classify_supermodular(
                lift, "t_intersecting", positively=True, n_s=inst.grounds.n_s
            )
            is None
        )


def test_full_lift_crossing_and_override_bound_on_feasible():
    rng = random.Random(24)
    seen_feasible = 0
    for _ in range(120):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=3, max_t=3))
        if check_msmt(inst) is not None:
            continue
        seen_feasible += 1
        base = base_demand(inst.initial, inst.degrees, inst.demand, inst.matroid_s)
        lift = full_demand(base, inst.initial, inst.degrees)
        assert (
            classify_supermodular(
                lift, "st_crossing", positively=True, n_s=inst.grounds.n_s
            )
            is None
        )
        for i in range(inst.grounds.n_s):
            vs = nonneighbor_set(inst.initial, i)
            assert lift.value(vs) >= base.value(vs)
    assert seen_feasible > 10


def test_transforms_keep_positively_intersecting():
    rng = random.Random(25)
    for _ in range(30):
        n = rng.randint(1, 4)
        ground = tuple(f"t{j}" for j in range(n))
        dem = from_corank(Matroid.uniform(ground, rng.randint(0, n)))
        shifted = shift(dem, -1)
        truncated = truncate_nonneg(shifted)
        assert classify_supermodular(shifted, "full") is None
        assert classify_supermodular(truncated, "intersecting", positively=True) is None


def test_classifier_rejects_bad_mode():
    p = constant(("a",), 0)
    with pytest.raises(InstanceError):
        classify_supermodular(p, "sideways")
    with pytest.raises(InstanceError):
        classify_supermodular(p, "full", n_s=5)


def test_lift_builders_validate_inputs():
    g, h0, spec, dem, free = tiny_instance()
    other = GroundSets(("a", "b"), ("c", "d"))
    with pytest.raises(InstanceError):
        base_demand(h0, spec, constant(other.t_ids, 0), free)
    with pytest.raises(InstanceError):
        base_demand(h0, spec, dem, Matroid.free(other.s_ids))
    with pytest.raises(InstanceError):
        base_demand(h0, DegreeSpec(g, (1, 1), None), dem, free)
    multigraph = Bigraph(g, ((0, 0), (0, 0)))
    with pytest.raises(InstanceError):
        base_demand(multigraph, spec, dem, free)
    base = base_demand(h0, spec, dem, free)
    with pytest.raises(InstanceError):
        full_demand(constant(other.s_ids + other.t_ids, 0), h0, spec)
    assert full_demand(base, h0, spec).value(nonneighbor_set(h0, 0)) == 1
