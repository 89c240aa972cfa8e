"""The cross-check policy: every decision computes its verdict once, and the
identities between two forms of a decision live in ``harness.CROSSCHECKS``,
which the CLI runs after its decisions and the harness runs in its bundles."""

from __future__ import annotations

import pytest

from termrank import cli, cover, feasibility, harness
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
    forbid(monkeypatch, cover, "check_msmt")
    assert run_cli(tmp_path, capsys, ["solve", "--route", "cover"], body(mode)) == (0, "")


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


def test_cross_check_table_names_the_five_identities():
    assert list(harness.CROSSCHECKS) == [
        "ryser_prefix", "brualdi_forms", "ryser_gen_lift", "integrated_split", "brute_witness",
    ]
    assert harness.TERM_RANK_CROSSCHECKS == ("ryser_gen_lift", "brute_witness")


def test_identities_hold_on_both_verdicts():
    for degrees in (FEASIBLE, INFEASIBLE):
        inst = term_rank(degrees)
        harness.ryser_prefix(inst, None, None)
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
