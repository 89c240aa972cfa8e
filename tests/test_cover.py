"""Arc covers with dual certificates, the two witness constructors, and
basis-covering matchings."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from termrank import cover as cover_module
from termrank.bigraph import (
    Bigraph,
    DegreeSpec,
    GroundSets,
    bipartite_complement,
    fits,
    graph_union,
    matching_number,
    neighborhood,
)
from termrank.cover import (
    ArcCover,
    DualFamily,
    _max_independent_family,
    build_via_cover,
    certified_cover,
    construct_brute,
    construct_via_cover,
    covers,
    find_matching_covering_bases,
    matroid_covers,
    min_arc_cover,
    minimalize_cover,
    solve_term_rank,
)
from termrank.errors import InfeasibleError, InstanceError, PreconditionError, TermrankError
from termrank.feasibility import Instance, ViolationCert, check_brualdi, check_msmt
from termrank.harness import (
    FuzzConfig,
    _random_initial,
    random_brualdi_case,
    random_msmt_instance,
    validate_matching,
    validate_witness,
    verify_msmt,
)
from termrank.matroid import Matroid
from termrank.setfun import (
    SetFunction,
    base_demand,
    constant,
    from_corank,
    full_demand,
    nonneighbor_set,
    st_independent,
)

from .oracles import is_matching, literal_validate_witness
from .test_modes import body, run_cli


def grounds(n_s, n_t):
    return GroundSets(
        tuple(f"s{i + 1}" for i in range(n_s)),
        tuple(f"t{j + 1}" for j in range(n_t)),
    )


def demand_on_v(g, positives: dict[int, int]) -> SetFunction:
    vals = [0] * (1 << g.n_v)
    for mask, value in positives.items():
        vals[mask] = value
    return SetFunction(g.s_ids + g.t_ids, tuple(vals))


def test_min_cover_single_positive_set():
    g = grounds(2, 2)
    dem = demand_on_v(g, {g.v_mask(0, 0b01): 1})
    cover, dual = min_arc_cover(dem, g.n_s)
    assert cover.size == 1 and dual.value == 1
    assert dual.sets == (g.v_mask(0, 0b01),)
    assert covers(cover.arcs, dem, g.n_s)


def test_independent_family_longer_than_the_recursion_limit():
    # 1200 copies of a set holding all of S: pairwise independent, so the
    # search walks a chain of 1200 states and takes every copy
    g = grounds(2, 2)
    mask = g.v_mask(g.s_all, 0b01)
    k = 1200
    value, fam = _max_independent_family([mask] * k, [1] * k, g.s_all, g.t_all << g.n_s)
    assert (value, fam) == (k, (mask,) * k)


def test_independent_family_search_stops_at_its_state_budget(monkeypatch):
    # 20 pairwise independent copies: a chain of 20 states beside the empty one
    g = grounds(2, 2)
    mask = g.v_mask(g.s_all, 0b01)
    args = ([mask] * 20, [1] * 20, g.s_all, g.t_all << g.n_s)
    monkeypatch.setattr(cover_module, "FAMILY_STATE_BUDGET", 21)
    assert _max_independent_family(*args)[0] == 20
    monkeypatch.setattr(cover_module, "FAMILY_STATE_BUDGET", 20)
    with pytest.raises(
        TermrankError, match="^independent family search exceeded its budget of 20 memo states$"
    ):
        _max_independent_family(*args)


def test_min_cover_trivial_zero_demand():
    g = grounds(2, 2)
    cover, dual = min_arc_cover(constant(g.s_ids + g.t_ids, 0), g.n_s)
    assert cover.arcs == () and dual.value == 0 and dual.sets == ()
    below = SetFunction(g.s_ids + g.t_ids, tuple([-1] * (1 << g.n_v)))
    cover, dual = min_arc_cover(below, g.n_s)
    assert cover.arcs == () and dual.value == 0


def test_min_cover_rejects_uncoverable_demand():
    g = grounds(2, 2)
    # positive on a set with no right node
    with pytest.raises(PreconditionError):
        min_arc_cover(demand_on_v(g, {g.v_mask(0b01, 0): 1}), g.n_s)
    # positive on a set containing the whole left class
    with pytest.raises(PreconditionError):
        min_arc_cover(demand_on_v(g, {g.v_mask(0b11, 0b01): 1}), g.n_s)


def test_min_cover_rejects_unclassified_demand():
    g = grounds(2, 2)
    # two crossing sets whose union misses s2 and whose values break the
    # supermodular inequality: meet {t1} and join {s1,t1,t2} both carry 0
    a = g.v_mask(0b01, 0b01)
    b = g.v_mask(0b00, 0b11)
    dem = demand_on_v(g, {a: 1, b: 1})
    with pytest.raises(PreconditionError):
        min_arc_cover(dem, g.n_s)


def test_min_cover_of_full_lift_equals_degree_total():
    rng = random.Random(50)
    exercised = 0
    for _ in range(80):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=3, max_t=3))
        if check_msmt(inst) is not None:
            continue
        exercised += 1
        lifted = full_demand(
            base_demand(inst.initial, inst.degrees, inst.demand, inst.matroid_s),
            inst.initial,
            inst.degrees,
        )
        cover, dual = min_arc_cover(lifted, inst.grounds.n_s)
        assert cover.size == dual.value == inst.degrees.gamma
        assert st_independent(dual.sets, inst.grounds)
        # minimality: removing any arc breaks coverage
        assert minimalize_cover(cover.arcs, lifted, inst.grounds.n_s) == cover.arcs
        for k in range(cover.size):
            remaining = cover.arcs[:k] + cover.arcs[k + 1 :]
            assert not covers(remaining, lifted, inst.grounds.n_s)
    assert exercised > 20


def lift(inst: Instance) -> SetFunction:
    base = base_demand(inst.initial, inst.degrees, inst.demand, inst.matroid_s)
    return full_demand(base, inst.initial, inst.degrees)


def test_certified_cover_checks_its_family():
    g = grounds(2, 2)
    a = g.v_mask(0b01, 0b01)  # the arc (s2, t1) enters a and b
    b = g.v_mask(0b01, 0b11)
    dem = demand_on_v(g, {a: 1, b: 1})
    with pytest.raises(AssertionError, match="not an independent family"):
        certified_cover(dem, g.n_s, DualFamily((a, b), 2), None)
    with pytest.raises(AssertionError, match="not an independent family"):
        certified_cover(dem, g.n_s, DualFamily((g.v_mask(0b10, 0b10),), 0), None)
    with pytest.raises(AssertionError, match="value does not match its sets"):
        certified_cover(dem, g.n_s, DualFamily((a,), 2), None)
    assert certified_cover(dem, g.n_s, DualFamily((a,), 1), None).arcs == ((1, 0),)


def test_certified_cover_asserts_the_min_max_identity():
    # independent sets {s1, t1} and {s2, t2}: no arc enters both, so every
    # cover has two arcs and a family holding one of them is too small
    g = grounds(2, 2)
    a, c = g.v_mask(0b01, 0b01), g.v_mask(0b10, 0b10)
    dem = demand_on_v(g, {a: 1, c: 1})
    with pytest.raises(AssertionError, match="min-max identity failed: cover 2 vs independent family 1"):
        certified_cover(dem, g.n_s, DualFamily((a,), 1), None)
    assert certified_cover(dem, g.n_s, DualFamily((a, c), 2), None).size == 2


def test_meter_family_gives_the_exhaustive_cover():
    rng = random.Random(52)
    exercised = searched = 0
    for _ in range(120):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=4, max_t=4))
        if check_msmt(inst) is not None:
            continue
        exercised += 1
        g, lifted = inst.grounds, lift(inst)
        meters = [nonneighbor_set(inst.initial, i) for i in range(g.n_s) if inst.degrees.m_s[i]]
        assert st_independent(meters, g)
        assert sum(lifted.value(m) for m in meters) == inst.degrees.gamma
        meter_stats, exhaustive_stats = {}, {}
        built = build_via_cover(inst, meter_stats)
        cover, dual = min_arc_cover(lifted, g.n_s, exhaustive_stats)
        assert built.edges == Bigraph(g, cover.arcs).edges
        assert meter_stats == exhaustive_stats
        assert dual.value == inst.degrees.gamma
        searched += meter_stats.get("cover_greedy", 0) > cover.size
    assert exercised > 40 and searched > 0


def test_cli_names_a_broken_lift_by_its_pair(tmp_path, capsys, monkeypatch):
    # {t1, t2} raised above the degree total: no cover of that size exists,
    # and the lift is no longer positively crossing supermodular
    real = full_demand

    def broken(base, h0, spec):
        lifted = real(base, h0, spec)
        return SetFunction(lifted.ground, lifted.values[:12] + (3,) + lifted.values[13:])

    monkeypatch.setattr(cover_module, "full_demand", broken)
    assert run_cli(tmp_path, capsys, ["solve", "--route", "cover"], body("msmt")) == (
        2, "error: demand is not positively crossing supermodular: masks 5, 12\n"
    )


def test_cover_search_stops_at_its_node_budget(tmp_path, capsys, monkeypatch):
    # greedy takes 13 arcs, the optimum 12, so the branch-and-bound runs
    golden_path = Path(__file__).parent / "data" / "cap_solve_ryser_gen_5x7_bnb.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    assert run_cli(tmp_path, capsys, golden["argv"], golden["instance"]) == (0, "")
    monkeypatch.setattr(cover_module, "COVER_NODE_BUDGET", 10)
    assert run_cli(tmp_path, capsys, golden["argv"], golden["instance"]) == (
        2, "error: cover search exceeded its budget of 10 branch-and-bound nodes\n"
    )


def test_fuzz_harness_reports_a_broken_certificate(monkeypatch):
    exhaustive = cover_module._max_independent_family

    def overstated(*args):
        value, sets = exhaustive(*args)
        return value + 1, sets

    monkeypatch.setattr(cover_module, "_max_independent_family", overstated)
    rng = random.Random(52)
    reported = 0
    for _ in range(30):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=3, max_t=3))
        problems = verify_msmt(inst, {})
        reported += "certifying family value does not match its sets" in problems
    assert reported > 0


def test_construct_via_cover_perfect_matching_case():
    g = grounds(2, 2)
    inst = Instance.make(
        g,
        degrees=DegreeSpec(g, (1, 1), (1, 1)),
        demand=constant(g.t_ids, 0),
    )
    built = construct_via_cover(inst)
    assert fits(built, inst.degrees)
    assert built.edge_count == 2
    assert matching_number(built) == 2


def test_construct_via_cover_propagates_infeasibility():
    g = grounds(2, 2)
    inst = Instance.make(
        g,
        initial=Bigraph(g, ((0, 0), (0, 1))),
        degrees=DegreeSpec(g, (2, 0), (1, 1)),
        demand=constant(g.t_ids, 0),
    )
    with pytest.raises(InfeasibleError) as exc_info:
        construct_via_cover(inst)
    assert isinstance(exc_info.value.cert, ViolationCert)


def test_construct_via_cover_postconditions_on_randoms():
    rng = random.Random(51)
    built_count = 0
    for _ in range(60):
        inst = random_msmt_instance(rng, FuzzConfig(max_s=3, max_t=3))
        try:
            built = construct_via_cover(inst)
        except InfeasibleError:
            continue
        built_count += 1
        assert validate_witness(inst, built) == []
        plus = graph_union(built, inst.initial)
        assert plus.simple
        assert matroid_covers(plus, inst.matroid_s, inst.demand)
    assert built_count > 15


@pytest.mark.parametrize("n_s, n_t", [(3, 3), (6, 6), (2, 10), (10, 2)])
def test_validate_witness_matches_the_literal_edge_scan(n_s, n_t):
    rng = random.Random(53 + n_s)
    g = grounds(n_s, n_t)
    ms = Matroid.uniform(g.s_ids, min(n_s, 3))
    ordered = 0  # cases with two or more uncovered sets, whose order counts
    for _ in range(8):
        initial = _random_initial(rng, g, rng.choice((0.0, 0.25)))
        witness = Bigraph(g, tuple(e for e in bipartite_complement(initial).edges if rng.random() < 0.4))
        plus = graph_union(witness, initial)
        # a demand the witness meets, then one raised on a few sets
        met = [ms.rank[neighborhood(plus, y)] - rng.choice((0, 0, 1)) for y in range(1 << n_t)]
        raised = list(met)
        for y in rng.sample(range(1 << n_t), min(4, 1 << n_t)):
            raised[y] += 2
        degrees = DegreeSpec(g, witness.s_degrees, witness.t_degrees)
        graphs = [witness, Bigraph(g, witness.edges[1:]), Bigraph(g, witness.edges + initial.edges[:1])]
        for values in (met, raised):
            inst = Instance.make(g, initial=initial, degrees=degrees, matroid_s=ms,
                                 demand=SetFunction(g.t_ids, tuple(values)))
            for graph in graphs:
                got = validate_witness(inst, graph)
                assert got == literal_validate_witness(inst, graph)
                ordered += sum(p.startswith("demand uncovered") for p in got) >= 2
        assert validate_witness(Instance.make(g, initial=initial, degrees=degrees, matroid_s=ms,
                                              demand=SetFunction(g.t_ids, tuple(met))), witness) == []
    assert ordered >= 8


def test_construct_brute_zero_degrees():
    g = grounds(2, 2)
    inst = Instance.make(
        g,
        degrees=DegreeSpec(g, (0, 0), (0, 0)),
        demand=constant(g.t_ids, 0),
    )
    built = construct_brute(inst)
    assert built is not None and built.edge_count == 0
    # demand that the empty augmentation cannot satisfy
    inst = Instance.make(
        g,
        degrees=DegreeSpec(g, (0, 0), (0, 0)),
        demand=from_corank(Matroid.uniform(g.t_ids, 1)),
    )
    assert construct_brute(inst) is None


def test_construct_brute_is_lexicographically_first():
    g = grounds(2, 2)
    inst = Instance.make(
        g,
        degrees=DegreeSpec(g, (1, 1), (1, 1)),
        demand=constant(g.t_ids, 0),
    )
    built = construct_brute(inst)
    # the identity matching precedes the crossed one in inclusion-first order
    assert built.edges == ((0, 0), (1, 1))


def test_brute_force_construction_stops_at_its_node_budget(tmp_path, capsys, monkeypatch):
    g = grounds(2, 2)
    inst = Instance.make(g, degrees=DegreeSpec(g, (1, 1), (1, 1)), demand=constant(g.t_ids, 0))
    stats: dict = {}
    built = construct_brute(inst, stats)
    nodes = stats["brute_nodes"]
    monkeypatch.setattr(cover_module, "BRUTE_NODE_BUDGET", nodes)
    assert construct_brute(inst) == built
    monkeypatch.setattr(cover_module, "BRUTE_NODE_BUDGET", nodes - 1)
    message = f"brute-force construction exceeded its budget of {nodes - 1} search nodes"
    with pytest.raises(TermrankError, match=f"^{message}$"):
        construct_brute(inst)
    monkeypatch.setattr(cover_module, "BRUTE_NODE_BUDGET", 1)
    assert run_cli(tmp_path, capsys, ["solve", "--route", "brute"], body("ore")) == (
        2, "error: brute-force construction exceeded its budget of 1 search nodes\n"
    )


def test_find_matching_examples():
    g = grounds(2, 2)
    k22 = Bigraph(g, tuple((i, j) for i in range(2) for j in range(2)))
    free_s = Matroid.free(g.s_ids)
    free_t = Matroid.free(g.t_ids)
    m = find_matching_covering_bases(k22, free_s, free_t)
    assert m is not None and len(m) == 2 and is_matching(m)
    empty = Bigraph(g, ())
    assert find_matching_covering_bases(
        empty, Matroid.uniform(g.s_ids, 1), Matroid.uniform(g.t_ids, 1)
    ) is None
    assert find_matching_covering_bases(
        empty, Matroid.uniform(g.s_ids, 0), Matroid.uniform(g.t_ids, 0)
    ) == ()
    with pytest.raises(InstanceError):
        find_matching_covering_bases(k22, free_s, Matroid.uniform(g.t_ids, 1))


def test_find_matching_agrees_with_condition():
    rng = random.Random(52)
    for _ in range(120):
        graph, ms, mt = random_brualdi_case(rng, FuzzConfig(max_s=4, max_t=4))
        feasible = check_brualdi(graph, ms, mt) is None
        matching = find_matching_covering_bases(graph, ms, mt)
        assert feasible == (matching is not None)
        if matching is not None:
            assert validate_matching(graph, ms, mt, matching) == []


def test_solve_term_rank_zero_target():
    g = grounds(2, 2)
    inst = Instance.make(
        g,
        degrees=DegreeSpec(g, (1, 1), (1, 1)),
        matroid_s=Matroid.uniform(g.s_ids, 0),
        matroid_t=Matroid.uniform(g.t_ids, 0),
        target_rank=0,
    )
    result = solve_term_rank(inst)
    assert not isinstance(result, ViolationCert)
    graph, matching = result
    assert matching == ()
    assert fits(graph, inst.degrees)


def test_solve_term_rank_feasible_classic_example():
    g = grounds(3, 3)
    inst = Instance.make(
        g,
        degrees=DegreeSpec(g, (2, 1, 1), (2, 1, 1)),
        matroid_s=Matroid.uniform(g.s_ids, 3),
        matroid_t=Matroid.uniform(g.t_ids, 3),
        target_rank=3,
    )
    result = solve_term_rank(inst)
    assert not isinstance(result, ViolationCert)
    graph, matching = result
    assert fits(graph, inst.degrees)
    assert len(matching) == 3 and is_matching(matching)
    assert matching_number(graph) >= 3


def test_solve_term_rank_infeasible_classic_example():
    g = grounds(3, 3)
    inst = Instance.make(
        g,
        degrees=DegreeSpec(g, (2, 2, 0), (2, 2, 0)),
        matroid_s=Matroid.uniform(g.s_ids, 3),
        matroid_t=Matroid.uniform(g.t_ids, 3),
        target_rank=3,
    )
    result = solve_term_rank(inst)
    assert isinstance(result, ViolationCert)
    assert result.lhs > result.rhs


def test_arc_cover_dataclass_basics():
    cover = ArcCover(((0, 0), (0, 0)))
    assert cover.size == 2
