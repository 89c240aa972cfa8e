"""Condition evaluators: worked examples, certificates, and cross-evaluator
equivalences on seeded random instances."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from termrank import cli
from termrank.bigraph import (
    Bigraph,
    DegreeSpec,
    GroundSets,
    bipartite_complement,
    matching_number,
)
from termrank.cover import construct_brute
from termrank.errors import InstanceError, PreconditionError
from termrank.feasibility import (
    Instance,
    check_brualdi,
    check_csak_mon,
    check_fully,
    check_integrated,
    check_ms_only,
    check_msmt,
    check_ore,
    check_ore0,
    check_ryser,
    check_ryser_gen,
    check_ryser_matroid,
    check_ryser_novel,
    recompute_lhs,
)
from termrank.harness import (
    FuzzConfig,
    _random_degrees,
    _random_initial,
    _random_matroid,
    random_ms_only_instance,
    random_msmt_instance,
    random_ore_instance,
)
from termrank.jsonio import load_instance
from termrank.matroid import Matroid
from termrank.setfun import SetFunction, constant, from_corank

from .oracles import naive_subgraph_exists, set_partitions, subpartitions


def grounds(n_s, n_t):
    return GroundSets(
        tuple(f"s{i + 1}" for i in range(n_s)),
        tuple(f"t{j + 1}" for j in range(n_t)),
    )


def complete(g):
    return Bigraph(g, tuple((i, j) for i in range(g.n_s) for j in range(g.n_t)))


# ---------------------------------------------------------------------------
# partition utilities


def test_set_partitions_counts_and_blocks():
    # Bell numbers 1, 1, 2, 5, 15
    for mask, bell in ((0, 1), (0b1, 1), (0b11, 2), (0b111, 5), (0b1111, 15)):
        parts_list = list(set_partitions(mask))
        assert len(parts_list) == bell
        for blocks in parts_list:
            combined = 0
            for b in blocks:
                assert b != 0
                assert combined & b == 0
                combined |= b
            assert combined == mask


def test_subpartitions_counts():
    # partial partitions of an n-set: 1, 2, 5, 15, 52
    for mask, count in ((0, 1), (0b1, 2), (0b11, 5), (0b111, 15), (0b1111, 52)):
        fams = list(subpartitions(mask))
        assert len(fams) == count
        assert fams[0] == ()


# ---------------------------------------------------------------------------
# plain degree conditions


def test_ore_pass_k22_unit_degrees():
    g = grounds(2, 2)
    assert check_ore(complete(g), DegreeSpec(g, (1, 1), (1, 1))) is None


def test_ore_violation_certificate():
    g = grounds(2, 2)
    cert = check_ore(complete(g), DegreeSpec(g, (2, 2), (3, 1)))
    assert cert is not None
    assert cert.which == "ore"
    assert cert.x == 0b11 and cert.y == 0b01
    assert cert.lhs == 5 and cert.rhs == 4


def test_ore_zero_degrees_pass():
    g = grounds(2, 2)
    assert check_ore(Bigraph(g, ()), DegreeSpec(g, (0, 0), (0, 0))) is None


def test_ore_equals_exhaustive_search():
    rng = random.Random(31)
    for _ in range(150):
        inst = random_ore_instance(rng, FuzzConfig(max_s=3, max_t=3))
        feasible = check_ore(inst.complement, inst.degrees) is None
        exists = naive_subgraph_exists(
            inst.complement.edges, inst.degrees.m_s, inst.degrees.m_t
        )
        assert feasible == exists


# ---------------------------------------------------------------------------
# the main augmentation condition


def test_msmt_with_zero_demand_reduces_to_ore():
    rng = random.Random(32)
    for _ in range(60):
        inst0 = random_msmt_instance(rng, FuzzConfig(max_s=3, max_t=3))
        inst = Instance.make(
            inst0.grounds,
            initial=inst0.initial,
            degrees=inst0.degrees,
            matroid_s=inst0.matroid_s,
            demand=constant(inst0.grounds.t_ids, 0),
        )
        ore = check_ore(inst.complement, inst.degrees) is None
        msmt = check_msmt(inst) is None
        assert ore == msmt


def test_msmt_uniform_corank_matches_classic_term_rank():
    rng = random.Random(33)
    cases = 0
    for _ in range(120):
        n_s = rng.randint(1, 3)
        n_t = rng.randint(1, 3)
        g = grounds(n_s, n_t)
        ell = rng.randint(0, min(n_s, n_t))
        while True:
            m_s = [rng.randint(0, 3) for _ in range(n_s)]
            if sum(m_s) <= 3 * n_t:
                break
        remaining = sum(m_s)
        m_t = []
        for j in range(n_t):
            left = n_t - j - 1
            v = rng.randint(max(0, remaining - left * 3), min(3, remaining))
            m_t.append(v)
            remaining -= v
        degrees = DegreeSpec(g, tuple(m_s), tuple(m_t))
        inst = Instance.make(
            g,
            degrees=degrees,
            matroid_s=Matroid.uniform(g.s_ids, ell),
            demand=from_corank(Matroid.uniform(g.t_ids, ell)),
        )
        msmt = check_msmt(inst) is None
        try:
            ryser = check_ryser(degrees, ell) is None
        except PreconditionError:
            assert not msmt or check_ore0(degrees) is None
            continue
        cases += 1
        assert msmt == ryser
    assert cases > 40


def test_msmt_planted_instances_pass():
    rng = random.Random(34)
    planted = 0
    for _ in range(80):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=3, max_t=3))
        witness = construct_brute(inst)
        if witness is None:
            continue
        planted += 1
        assert check_msmt(inst) is None
    assert planted > 20


def test_msmt_requires_classified_demand():
    # two positive sets meeting in the middle node break the inequality
    g = grounds(2, 3)
    vals = [0] * 8
    vals[0b011] = 2  # {t1, t2}
    vals[0b110] = 2  # {t2, t3}
    bad = SetFunction(g.t_ids, tuple(vals))
    inst = Instance.make(g, degrees=DegreeSpec(g, (1, 1), (1, 1, 0)), demand=bad)
    with pytest.raises(PreconditionError):
        check_msmt(inst)


def test_msmt_certificate_recomputes():
    rng = random.Random(35)
    seen = 0
    for _ in range(60):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=3, max_t=3))
        cert = check_msmt(inst)
        if cert is None:
            continue
        seen += 1
        assert recompute_lhs(cert, inst) == cert.lhs > cert.rhs
    assert seen > 10


# ---------------------------------------------------------------------------
# left-degrees-only variant


def test_ms_only_degree_bound():
    g = grounds(2, 2)
    h0 = Bigraph(g, ((0, 0), (0, 1)))
    dem = constant(g.t_ids, 0)
    inst = Instance.make(
        g, initial=h0, degrees=DegreeSpec(g, (1, 0), None), demand=dem
    )
    cert = check_ms_only(inst)
    assert cert is not None and cert.which == "ms_only_degree"
    assert cert.x == 0b01 and cert.lhs == 3 and cert.rhs == 2
    # tight bound passes
    inst = Instance.make(
        g, initial=h0, degrees=DegreeSpec(g, (0, 2), None), demand=dem
    )
    assert check_ms_only(inst) is None


def test_ms_only_trivial_zero_case():
    g = grounds(2, 2)
    inst = Instance.make(
        g,
        degrees=DegreeSpec(g, (0, 0), None),
        demand=constant(g.t_ids, -1),
    )
    assert check_ms_only(inst) is None


def test_ms_only_equals_exhaustive_search():
    rng = random.Random(36)
    for _ in range(120):
        inst = random_ms_only_instance(rng, FuzzConfig(max_s=3, max_t=3))
        feasible = check_ms_only(inst) is None
        dem_of = lambda t_sub: inst.demand.values[sum(1 << j for j in t_sub)]

        def rank_of(s_set):
            return inst.matroid_s.rank[sum(1 << i for i in s_set)]

        exists = naive_subgraph_exists(
            inst.complement.edges,
            inst.degrees.m_s,
            None,
            n_t=inst.grounds.n_t,
            h0_edges=inst.initial.edges,
            demand_of=dem_of,
            rank_of=rank_of,
        )
        assert feasible == exists


# ---------------------------------------------------------------------------
# fully supermodular reduction


def test_fully_requires_fully_supermodular():
    g = grounds(2, 2)
    # disjoint singletons break the unrestricted inequality but are exempt
    # from the meeting-pairs one, so only the stricter checker rejects
    not_full = SetFunction(g.t_ids, (0, 1, 1, 1))
    inst = Instance.make(g, degrees=DegreeSpec(g, (1, 1), (1, 1)), demand=not_full)
    assert inst.demand_pos_intersecting and not inst.demand_fully
    check_msmt(inst)  # accepted by the general checker
    with pytest.raises(PreconditionError):
        check_fully(inst)


def test_fully_with_zero_demand_reduces_to_ore():
    rng = random.Random(44)
    for _ in range(40):
        inst0 = random_msmt_instance(rng, FuzzConfig(max_s=3, max_t=3))
        inst = Instance.make(
            inst0.grounds,
            initial=inst0.initial,
            degrees=inst0.degrees,
            matroid_s=inst0.matroid_s,
            demand=constant(inst0.grounds.t_ids, 0),
        )
        ore = check_ore(inst.complement, inst.degrees) is None
        assert (check_fully(inst) is None) == ore


def test_fully_equals_msmt_on_fully_supermodular_demands():
    rng = random.Random(37)
    for _ in range(80):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=3, max_t=3), keep_fully=True)
        assert inst.demand_fully
        assert (check_fully(inst) is None) == (check_msmt(inst) is None)


def test_csak_mon_matches_fully_on_monotone_synthesis():
    rng = random.Random(38)
    cases = 0
    for _ in range(80):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=3, max_t=3, densities=(0.0,)), keep_fully=True)
        if not inst.demand_monotone or inst.initial.edge_count:
            continue
        cases += 1
        assert (check_csak_mon(inst) is None) == (check_fully(inst) is None)
    assert cases > 20


# ---------------------------------------------------------------------------
# arbitrary demand tables, the empty set's entry included

SUBPARTITION_CHECKERS = {"msmt": check_msmt, "ms_only": check_ms_only, "fully": check_fully}


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("mode", SUBPARTITION_CHECKERS)
def test_positive_empty_set_demand_is_infeasible(tmp_path, capsys, mode, command):
    # no graph meets it: the empty set has no neighbours, and they have rank 0
    data = {"mode": mode, "S": ["s1"], "T": ["t1"], "m_S": {"s1": 1},
            "matroid_S": {"kind": "free"}, "demand": {"ground": ["t1"], "values": {"": 1, "t1": 0}}}
    if mode != "ms_only":
        data.update(m_T={"t1": 1}, h0=[])
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main([command, str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    _, inst = load_instance(data)
    cert = SUBPARTITION_CHECKERS[mode](inst)
    assert recompute_lhs(cert, inst) == cert.lhs == payload["certificate"]["lhs"] > cert.rhs


def test_subpartition_checkers_match_brute_force_on_arbitrary_demands():
    rng = random.Random(61)
    decided = {mode: 0 for mode in SUBPARTITION_CHECKERS}
    empty_positive = 0
    for _ in range(1000):
        g = grounds(rng.randint(1, 3), rng.randint(1, 3))
        initial = _random_initial(rng, g, rng.choice((0.0, 0.25, 0.5)))
        degrees = _random_degrees(rng, g, 2, host=bipartite_complement(initial))
        demand = SetFunction(g.t_ids, tuple(rng.choice((-1, 0, 1, 2)) for _ in range(1 << g.n_t)))
        both = Instance.make(g, initial=initial, degrees=degrees,
                             matroid_s=_random_matroid(rng, g.s_ids), demand=demand)
        left = replace(both, degrees=DegreeSpec(g, degrees.m_s, None))
        empty_positive += demand.values[0] > 0
        for mode, check in SUBPARTITION_CHECKERS.items():
            inst = left if mode == "ms_only" else both
            try:
                cert = check(inst)
            except PreconditionError:
                continue
            decided[mode] += 1
            assert (cert is None) == (construct_brute(inst) is not None), (mode, inst)
            if cert is not None:
                assert recompute_lhs(cert, inst) == cert.lhs > cert.rhs
    assert min(decided.values()) > 300 and empty_positive > 300


# ---------------------------------------------------------------------------
# classic term rank


def test_ryser_pass_and_witness():
    g = grounds(3, 3)
    degrees = DegreeSpec(g, (2, 1, 1), (2, 1, 1))
    assert check_ryser(degrees, 3) is None
    witness = Bigraph(g, ((0, 0), (0, 1), (1, 0), (2, 2)))
    from termrank.bigraph import fits

    assert fits(witness, degrees)
    assert matching_number(witness) == 3


def test_ryser_violation_certificate():
    g = grounds(3, 3)
    degrees = DegreeSpec(g, (2, 2, 0), (2, 2, 0))
    cert = check_ryser(degrees, 3)
    assert cert is not None and cert.which == "ryser"
    assert cert.x == 0b011 and cert.y == 0
    assert cert.lhs == 5 and cert.rhs == 4


def test_ryser_zero_target_passes_when_realizable():
    g = grounds(2, 2)
    assert check_ryser(DegreeSpec(g, (1, 1), (1, 1)), 0) is None


def test_ryser_prefix_reduction_exposed():
    from termrank.feasibility import ryser_prefix_max

    g = grounds(3, 3)
    degrees = DegreeSpec(g, (2, 2, 0), (2, 2, 0))
    # the prefix maximum is the certified violation value
    assert ryser_prefix_max(degrees, 3) == 5
    assert ryser_prefix_max(DegreeSpec(g, (2, 1, 1), (2, 1, 1)), 3) == 4


def test_ryser_precondition_error():
    g = grounds(2, 2)
    degrees = DegreeSpec(g, (2, 2), (3, 1))
    with pytest.raises(PreconditionError) as exc_info:
        check_ryser(degrees, 1)
    assert exc_info.value.cert is not None
    assert exc_info.value.cert.which == "ore0"
    with pytest.raises(InstanceError):
        check_ryser(DegreeSpec(g, (1, 1), (1, 1)), 3)


def test_ryser_matches_matching_number_search():
    rng = random.Random(39)
    for _ in range(100):
        n_s = rng.randint(1, 3)
        n_t = rng.randint(1, 3)
        g = grounds(n_s, n_t)
        host = complete(g)
        keep = tuple(e for e in host.edges if rng.random() < 0.6)
        planted = Bigraph(g, keep)
        degrees = DegreeSpec(g, planted.s_degrees, planted.t_degrees)
        ell = rng.randint(0, n_t)
        feasible = check_ryser(degrees, ell) is None
        # oracle: scan all simple graphs fitting the degrees for one with a
        # big enough matching
        cells = [(i, j) for i in range(n_s) for j in range(n_t)]
        exists = False
        for pick in range(1 << len(cells)):
            graph = Bigraph(g, tuple(cells[c] for c in range(len(cells)) if pick >> c & 1))
            if graph.s_degrees == degrees.m_s and graph.t_degrees == degrees.m_t:
                if matching_number(graph) >= ell:
                    exists = True
                    break
        assert feasible == exists


# ---------------------------------------------------------------------------
# matroid matching conditions


def test_brualdi_examples():
    g = grounds(2, 2)
    u1s = Matroid.uniform(g.s_ids, 1)
    u1t = Matroid.uniform(g.t_ids, 1)
    assert check_brualdi(complete(g), u1s, u1t) is None
    cert = check_brualdi(Bigraph(g, ()), u1s, u1t)
    assert cert is not None and cert.which == "brualdi"
    assert cert.xp == 0 and cert.yp == 0
    assert cert.lhs == 1 and cert.rhs == 0


def test_brualdi_rank_mismatch():
    g = grounds(2, 2)
    with pytest.raises(InstanceError):
        check_brualdi(complete(g), Matroid.uniform(g.s_ids, 1), Matroid.uniform(g.t_ids, 2))


def test_ryser_gen_zero_degrees_reduces_to_brualdi():
    rng = random.Random(40)
    for _ in range(60):
        n_s = rng.randint(1, 3)
        n_t = rng.randint(1, 3)
        g = grounds(n_s, n_t)
        h0 = Bigraph(
            g,
            tuple(
                (i, j)
                for i in range(n_s)
                for j in range(n_t)
                if rng.random() < 0.5
            ),
        )
        ell = rng.randint(0, min(n_s, n_t))
        ms = Matroid.uniform(g.s_ids, ell)
        mt = Matroid.uniform(g.t_ids, ell)
        inst = Instance.make(
            g,
            initial=h0,
            degrees=DegreeSpec(g, (0,) * n_s, (0,) * n_t),
            matroid_s=ms,
            matroid_t=mt,
            target_rank=ell,
        )
        gen = check_ryser_gen(inst) is None
        bru = check_brualdi(h0, ms, mt) is None
        assert gen == bru


def test_ryser_gen_synthesis_matches_simplified_forms():
    rng = random.Random(41)
    for _ in range(60):
        n_s = rng.randint(1, 3)
        n_t = rng.randint(1, 3)
        g = grounds(n_s, n_t)
        ell = rng.randint(0, min(n_s, n_t))
        ms = Matroid.uniform(g.s_ids, ell)
        mt = Matroid.uniform(g.t_ids, ell)
        while True:
            m_s = [rng.randint(0, 3) for _ in range(n_s)]
            if sum(m_s) <= 3 * n_t:
                break
        remaining = sum(m_s)
        m_t = []
        for j in range(n_t):
            left = n_t - j - 1
            v = rng.randint(max(0, remaining - left * 3), min(3, remaining))
            m_t.append(v)
            remaining -= v
        degrees = DegreeSpec(g, tuple(m_s), tuple(m_t))
        inst = Instance.make(
            g, degrees=degrees, matroid_s=ms, matroid_t=mt, target_rank=ell
        )
        gen = check_ryser_gen(inst) is None
        simple_form = (
            check_ore0(degrees) is None
            and check_ryser_matroid(degrees, ms, mt) is None
        )
        integrated = check_integrated(degrees, ms, mt) is None
        novel = check_ryser_novel(inst, ell) is None
        assert gen == simple_form == integrated == novel


def test_ryser_gen_rank_validation():
    g = grounds(2, 2)
    degrees = DegreeSpec(g, (1, 1), (1, 1))
    inst = Instance.make(
        g,
        degrees=degrees,
        matroid_s=Matroid.uniform(g.s_ids, 1),
        matroid_t=Matroid.uniform(g.t_ids, 2),
    )
    with pytest.raises(InstanceError):
        check_ryser_gen(inst)
    inst = Instance.make(
        g,
        degrees=degrees,
        matroid_s=Matroid.uniform(g.s_ids, 1),
        matroid_t=Matroid.uniform(g.t_ids, 1),
        target_rank=2,
    )
    with pytest.raises(InstanceError):
        check_ryser_gen(inst)


def test_certificates_recompute_across_checkers():
    g = grounds(3, 3)
    degrees = DegreeSpec(g, (2, 2, 0), (2, 2, 0))
    inst = Instance.make(
        g,
        degrees=degrees,
        matroid_s=Matroid.uniform(g.s_ids, 3),
        matroid_t=Matroid.uniform(g.t_ids, 3),
        target_rank=3,
    )
    cert = check_ryser(degrees, 3)
    assert recompute_lhs(cert, inst) == cert.lhs
    cert = check_ryser_gen(inst)
    assert cert is not None
    assert recompute_lhs(cert, inst) == cert.lhs > cert.rhs
    cert = check_ryser_matroid(
        degrees, Matroid.uniform(g.s_ids, 3), Matroid.uniform(g.t_ids, 3)
    )
    assert cert is not None
    assert recompute_lhs(cert, inst) == cert.lhs
    cert = check_integrated(
        degrees, Matroid.uniform(g.s_ids, 3), Matroid.uniform(g.t_ids, 3)
    )
    assert cert is not None
    assert recompute_lhs(cert, inst) == cert.lhs
