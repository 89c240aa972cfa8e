"""The cross-check policy: every decision computes its verdict once, and the
identities between two forms of a decision live in ``harness.CROSSCHECKS``,
which the CLI runs after its decisions and the harness runs in its bundles."""

from __future__ import annotations

import pytest

from termrank import cli, cover, feasibility, harness, setfun
from termrank.bigraph import Bigraph, DegreeSpec, GroundSets
from termrank.cover import solve_term_rank
from termrank.feasibility import (
    Instance,
    ViolationCert,
    check_brualdi,
    check_integrated,
    check_ryser,
    check_ryser_gen,
    ryser_table,
)
from termrank.jsonio import load_instance
from termrank.matroid import Matroid

from .test_modes import body, run_cli

G3 = GroundSets(("s1", "s2", "s3"), ("t1", "t2", "t3"))
FEASIBLE = DegreeSpec(G3, (2, 1, 1), (2, 1, 1))
INFEASIBLE = DegreeSpec(G3, (2, 2, 0), (2, 2, 0))
DUMMY_CERT = ViolationCert("ore", lhs=1, rhs=0)


def term_rank(degrees: DegreeSpec) -> Instance:
    return Instance.make(
        G3,
        degrees=degrees,
        matroid_s=Matroid.uniform(G3.s_ids, 3),
        matroid_t=Matroid.uniform(G3.t_ids, 3),
        target_rank=3,
    )


def forbid(monkeypatch, module, *names):
    """Make each named second form raise when anything calls it."""
    for name in names:
        def fail(*args, _name=name, **kwargs):
            raise RuntimeError(f"{_name} evaluated inside a decision")

        monkeypatch.setattr(module, name, fail)


# ---------------------------------------------------------------------------
# (a) a library decision evaluates no second form of itself


def test_check_ryser_gen_decides_without_the_lift(monkeypatch):
    forbid(monkeypatch, feasibility, "check_fully")
    assert check_ryser_gen(term_rank(FEASIBLE)) is None
    assert check_ryser_gen(term_rank(INFEASIBLE)).which == "ryser_gen"


def test_check_ryser_decides_without_the_prefix_form(monkeypatch):
    forbid(monkeypatch, feasibility, "ryser_prefix_max")
    assert check_ryser(FEASIBLE, 3) is None
    cert = check_ryser(INFEASIBLE, 3)
    assert (cert.which, cert.lhs, cert.rhs) == ("ryser", 5, 4)


def test_check_integrated_decides_without_the_split(monkeypatch):
    forbid(monkeypatch, feasibility, "check_ore0", "check_ryser_matroid")
    ms, mt = Matroid.uniform(G3.s_ids, 3), Matroid.uniform(G3.t_ids, 3)
    assert check_integrated(FEASIBLE, ms, mt) is None
    assert check_integrated(INFEASIBLE, ms, mt).which == "integrated"


def test_solve_term_rank_builds_without_brute_force_or_a_second_decision(monkeypatch):
    forbid(monkeypatch, cover, "construct_brute", "check_msmt")
    graph, matching = solve_term_rank(term_rank(FEASIBLE))
    assert graph.edge_count == 4 and len(matching) == 3
    assert isinstance(solve_term_rank(term_rank(INFEASIBLE)), ViolationCert)


@pytest.mark.parametrize("mode", ["msmt", "fully", "ore", "ryser", "ryser_gen"])
def test_cli_solve_by_cover_decides_once(tmp_path, capsys, monkeypatch, mode):
    # the meter family certifies the cover, so the exhaustive dual is not searched either
    forbid(monkeypatch, cover, "check_msmt", "_max_independent_family")
    assert run_cli(tmp_path, capsys, ["solve", "--route", "cover"], body(mode)) == (0, "")


def test_msmt_fuzz_cases_decide_once(monkeypatch):
    calls: list[str] = []
    for module in (harness, cover):
        def counted(*args, _module=module.__name__, _fn=module.check_msmt, **kwargs):
            calls.append(_module)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, "check_msmt", counted)
    report = harness.run_fuzz(harness.FuzzConfig(seed=3, count=60, modes=("msmt",)))
    assert report["discrepancy_count"] == 0
    assert report["counters"]["msmt_feasible"] > 0 and report["counters"]["msmt_infeasible"] > 0
    assert calls == ["termrank.harness"] * report["counters"]["instances_msmt"]


def record_classifications(monkeypatch) -> list[tuple[str, str]]:
    """(calling module, mode) of every supermodularity classification."""
    calls: list[tuple[str, str]] = []
    real = setfun.classify_supermodular
    for module in (cover, feasibility, harness):
        def recorded(p, mode, *args, _module=module.__name__, **kwargs):
            calls.append((_module, mode))
            return real(p, mode, *args, **kwargs)

        monkeypatch.setattr(module, "classify_supermodular", recorded)
    return calls


@pytest.mark.parametrize("mode", ["msmt", "fully", "ore", "ryser", "ryser_gen"])
def test_cli_solve_by_cover_scans_no_lift(tmp_path, capsys, monkeypatch, mode):
    # the lift's crossing classification is the harness's lift_crossing; the
    # CLI runs it only when a search fails
    calls = record_classifications(monkeypatch)
    assert run_cli(tmp_path, capsys, ["solve", "--route", "cover"], body(mode)) == (0, "")
    assert [c for c in calls if c[1] == "st_crossing"] == []


def test_msmt_fuzz_cases_lift_once(monkeypatch):
    calls = record_classifications(monkeypatch)
    lifts: list[tuple[str, str]] = []
    for module in (harness, cover):
        for name in ("base_demand", "full_demand"):
            def counted(*args, _key=(module.__name__, name), _fn=getattr(module, name)):
                lifts.append(_key)
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
    covers: list[int] = []
    real_cover = harness.min_arc_cover

    def counted_cover(*args):
        covers.append(1)
        return real_cover(*args)

    monkeypatch.setattr(harness, "min_arc_cover", counted_cover)
    report = harness.run_fuzz(harness.FuzzConfig(seed=3, count=60, modes=("msmt",)))
    c = report["counters"]
    assert report["discrepancy_count"] == 0 and c["msmt_feasible"] > 0 and covers
    # one lift per instance, built by the harness and handed to the builder
    assert sorted(lifts) == sorted(
        [("termrank.harness", "base_demand"), ("termrank.harness", "full_demand")]
        * c["instances_msmt"]
    )
    # lift_crossing on each feasible case, plus min_arc_cover's own precondition
    crossing = [module for module, mode in calls if mode == "st_crossing"]
    assert crossing.count("termrank.harness") == c["msmt_feasible"] == c["full_lift_classified"]
    assert crossing.count("termrank.cover") == len(covers)
    assert len(crossing) == c["msmt_feasible"] + len(covers)


# ---------------------------------------------------------------------------
# (b) the CLI asserts each identity of its decisions, once


def record_crosschecks(monkeypatch) -> list[str]:
    calls: list[str] = []
    for name, fn in list(harness.CROSSCHECKS.items()):
        def recorded(*args, _name=name, _fn=fn):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setitem(harness.CROSSCHECKS, name, recorded)
    return calls


CLI_CROSSCHECKS = {
    "check": {"ryser": ["ryser_prefix"], "brualdi": ["brualdi_forms"], "ryser_gen": ["ryser_gen_lift"]},
    "solve": {
        "ryser": ["ryser_prefix", "ryser_gen_lift", "brute_witness"],
        "ryser_gen": ["ryser_gen_lift", "brute_witness"],
        "brualdi": ["brualdi_forms"],
    },
}


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("mode", sorted(cli.DISPATCH))
def test_cli_runs_each_identity_of_its_decisions_once(tmp_path, capsys, monkeypatch, command, mode):
    calls = record_crosschecks(monkeypatch)
    assert run_cli(tmp_path, capsys, [command], body(mode)) == (0, "")
    assert calls == CLI_CROSSCHECKS[command].get(mode, [])


def full_ryser_max(mode: str) -> int:
    data = body(mode)
    g = GroundSets(tuple(data["S"]), tuple(data["T"]))
    degrees = DegreeSpec(g, tuple(data["m_S"].values()), tuple(data["m_T"].values()))
    return max(ryser_table(degrees, data["target_rank"]))


BROKEN = {
    # identity -> (name in the harness, its broken stand-in, the AssertionError message)
    "ryser_prefix": (
        "ryser_prefix_max",
        lambda degrees, ell: 99,
        f"prefix reduction disagrees with full quantification: 99 vs {full_ryser_max('ryser')}",
    ),
    "brualdi_forms": (
        "union_table",
        lambda adj: [0] * (1 << len(adj)),
        "vertex-cover and neighborhood-rank forms disagree",
    ),
    "ryser_gen_lift": (
        "check_fully",
        lambda inst: DUMMY_CERT,
        "nested-pair form disagrees with the demand-lift reduction",
    ),
    "brute_witness": (
        "construct_brute",
        lambda inst, stats: None,
        "brute-force cross-check failed to find a witness",
    ),
}


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("mode", ["ryser", "brualdi", "ryser_gen"])
def test_cli_reports_a_broken_identity_as_an_internal_error(
    tmp_path, capsys, monkeypatch, command, mode
):
    for identity in CLI_CROSSCHECKS[command][mode]:
        name, stand_in, message = BROKEN[identity]
        with monkeypatch.context() as patch:
            patch.setattr(harness, name, stand_in)
            assert run_cli(tmp_path, capsys, [command], body(mode)) == (
                3, f"internal error: AssertionError: {message}\n"
            )


# ---------------------------------------------------------------------------
# every identity of the table, at library level


def test_integrated_split_catches_a_broken_side(monkeypatch):
    inst = term_rank(FEASIBLE)
    harness.integrated_split(inst, None, None)
    monkeypatch.setattr(harness, "check_ryser_matroid", lambda *args: DUMMY_CERT)
    with pytest.raises(AssertionError, match="^integrated form disagrees with the two-condition split$"):
        harness.integrated_split(inst, check_integrated(FEASIBLE, inst.matroid_s, inst.matroid_t), None)


def test_ryser_prefix_compares_a_violating_result_with_the_table():
    infeasible, feasible = term_rank(INFEASIBLE), term_rank(FEASIBLE)
    cert = check_ryser(INFEASIBLE, 3)
    harness.ryser_prefix(infeasible, cert, None)
    message = "^separable maximum disagrees with full quantification: {} vs {}$"
    with pytest.raises(AssertionError, match=message.format(4, 5)):
        harness.ryser_prefix(infeasible, ViolationCert("ryser", lhs=4, rhs=4), None)
    # a violation where the table holds
    with pytest.raises(AssertionError, match=message.format(5, 4)):
        harness.ryser_prefix(feasible, ViolationCert("ryser", lhs=5, rhs=4), None)


def test_ryser_prefix_judges_a_passing_result():
    infeasible, feasible = term_rank(INFEASIBLE), term_rank(FEASIBLE)
    harness.ryser_prefix(feasible, None, None)
    harness.ryser_prefix(infeasible, harness.NO_DECISION, None)
    # a pass where the table maximum, 5, exceeds gamma, 4
    with pytest.raises(
        AssertionError, match="^a passing decision leaves the table maximum 5 above gamma 4$"
    ):
        harness.ryser_prefix(infeasible, None, None)


def test_lift_crossing_catches_a_broken_side(monkeypatch):
    _mode, inst = load_instance(body("msmt"))
    base = setfun.base_demand(inst.initial, inst.degrees, inst.demand, inst.matroid_s)
    lifted = setfun.full_demand(base, inst.initial, inst.degrees)
    harness.lift_crossing(inst, lifted, None)
    # {t1, t2} raised to 3 crosses {s1, t1} (mask 5) and breaks the inequality there
    broken = setfun.SetFunction(lifted.ground, lifted.values[:12] + (3,) + lifted.values[13:])
    with pytest.raises(
        AssertionError,
        match="^lift of a feasible instance is not positively crossing supermodular: masks 5, 12$",
    ):
        harness.lift_crossing(inst, broken, None)
    assert harness.verify_msmt(inst, {}) == []
    monkeypatch.setattr(harness, "full_demand", lambda *args: broken)
    assert "full lifted demand fails the crossing classification despite feasibility" in (
        harness.verify_msmt(inst, {})
    )


def test_cross_check_table_names_the_five_identities():
    assert list(harness.CROSSCHECKS) == [
        "ryser_prefix", "brualdi_forms", "ryser_gen_lift", "integrated_split", "brute_witness",
        "lift_crossing",
    ]
    assert harness.TERM_RANK_CROSSCHECKS == ("ryser_gen_lift", "brute_witness")


def test_identities_hold_on_both_verdicts():
    for degrees in (FEASIBLE, INFEASIBLE):
        inst = term_rank(degrees)
        harness.ryser_prefix(inst, harness.NO_DECISION, None)
        harness.ryser_gen_lift(inst, check_ryser_gen(inst), None)
        harness.integrated_split(inst, check_integrated(degrees, inst.matroid_s, inst.matroid_t), None)
        harness.brute_witness(inst, solve_term_rank(inst), None)
    ms, mt = Matroid.uniform(G3.s_ids, 2), Matroid.uniform(G3.t_ids, 2)
    for edges in (((0, 0), (1, 1)), ((0, 0), (1, 0))):
        graph = Bigraph(G3, edges)
        inst = Instance.make(G3, initial=graph, matroid_s=ms, matroid_t=mt)
        harness.brualdi_forms(inst, check_brualdi(graph, ms, mt), None)


def test_brute_witness_counts_its_search_nodes():
    stats: dict = {}
    inst = term_rank(FEASIBLE)
    harness.brute_witness(inst, solve_term_rank(inst), stats)
    assert stats["brute_nodes"] > 0
    stats = {}
    harness.brute_witness(inst, DUMMY_CERT, stats)
    assert stats == {}
