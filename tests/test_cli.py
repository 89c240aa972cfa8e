"""Instance/result file schemas, CLI exit codes, round trips, determinism,
and the fuzz harness self-test."""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import pytest

from termrank.bigraph import Bigraph, DegreeSpec, GroundSets
from termrank.cli import main
from termrank.errors import InstanceError
from termrank.feasibility import Instance, check_msmt, recompute_lhs
from termrank.harness import FuzzConfig, run_fuzz, verify_msmt
from termrank.jsonio import (
    dumps,
    instance_to_json,
    load_instance,
    matroid_descriptor,
    matroid_from_descriptor,
    setfunction_from_json,
    setfunction_to_json,
)
from termrank.matroid import Matroid
from termrank.setfun import from_corank

from .oracles import literal_subset_key


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(dumps(data) if isinstance(data, dict) else data, encoding="utf-8")
    return str(path)


def ryser_body(m_s, m_t, ell):
    return {
        "mode": "ryser",
        "S": ["s1", "s2", "s3"],
        "T": ["t1", "t2", "t3"],
        "m_S": dict(zip(["s1", "s2", "s3"], m_s)),
        "m_T": dict(zip(["t1", "t2", "t3"], m_t)),
        "target_rank": ell,
    }


# ---------------------------------------------------------------------------
# descriptors and tables


def test_matroid_descriptor_round_trips():
    ground = ("a", "b", "c")
    for desc in (
        {"kind": "free"},
        {"kind": "uniform", "k": 2},
        {"kind": "partition", "blocks": [["a", "b"], ["c"]], "caps": [1, 1]},
        {"kind": "explicit", "bases": [["a", "b"], ["b", "c"]]},
    ):
        m = matroid_from_descriptor(ground, desc)
        again = matroid_from_descriptor(ground, matroid_descriptor(m))
        assert again.rank == m.rank
    with pytest.raises(InstanceError):
        matroid_from_descriptor(ground, {"kind": "uniform"})
    with pytest.raises(InstanceError):
        matroid_from_descriptor(ground, {"kind": "mystery"})
    with pytest.raises(InstanceError):
        matroid_from_descriptor(ground, {"kind": "free", "extra": 1})


def test_setfunction_json_round_trip():
    p = from_corank(Matroid.uniform(("t1", "t2"), 1))
    data = setfunction_to_json(p)
    assert data["values"][""] == 0
    assert setfunction_from_json(data) == p
    del data["values"]["t1"]
    with pytest.raises(InstanceError):
        setfunction_from_json(data)
    data = setfunction_to_json(p)
    data["values"]["zz"] = 1
    with pytest.raises(InstanceError):
        setfunction_from_json(data)


def test_setfunction_keys_match_the_sorted_names():
    rng = random.Random(20261021)
    for n in range(9):
        ground = tuple(rng.sample(["a", "b", "ab", "a,", "t10", "t2", "t1", "zz", "B"], n))
        values = {literal_subset_key(ground, a): a for a in range(1 << n)}
        p = setfunction_from_json({"ground": list(ground), "values": values})
        assert p.values == tuple(range(1 << n))
        assert setfunction_to_json(p)["values"] == values


@pytest.mark.parametrize("changes,message", [
    # ground ["t2", "t1"]: mask 1 is "t2", mask 2 "t1", mask 3 "t1,t2"
    ({"t2": "1", "t1,t2": None}, "demand.values['t2']: not an integer"),
    ({"t1": None, "t1,t2": 1.0}, "demand.values: missing subset key 't1'"),
    ({"t1,t2": None, "t2": True}, "demand.values['t2']: not an integer"),
    ({"t1,t2": 2.5}, "demand.values['t1,t2']: not an integer"),
    ({"t2,t1": 0}, "demand.values: unknown subset keys ['t2,t1']"),
])
def test_setfunction_reports_the_first_bad_value_by_mask(changes, message):
    values = {"": 0, "t2": 1, "t1": 2, "t1,t2": 3}
    for key, value in changes.items():
        if value is None:
            del values[key]
        else:
            values[key] = value
    with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
        setfunction_from_json({"ground": ["t2", "t1"], "values": values})


def test_load_instance_rejects_unknown_fields():
    body = ryser_body((2, 1, 1), (2, 1, 1), 3)
    body["surprise"] = True
    with pytest.raises(InstanceError):
        load_instance(body)


def test_load_instance_mode_requirements():
    body = ryser_body((2, 1, 1), (2, 1, 1), 3)
    del body["target_rank"]
    with pytest.raises(InstanceError):
        load_instance(body)
    body = {
        "mode": "msmt",
        "S": ["s1"],
        "T": ["t1"],
        "m_S": {"s1": 0},
        "m_T": {"t1": 0},
    }
    with pytest.raises(InstanceError):
        load_instance(body)  # needs demand or matroid_T
    body["matroid_T"] = {"kind": "free"}
    mode, inst = load_instance(body)
    assert mode == "msmt" and inst.demand is not None
    body["demand"] = setfunction_to_json(inst.demand)
    with pytest.raises(InstanceError):
        load_instance(body)  # not both


def test_instance_json_round_trip():
    g = GroundSets(("s1", "s2"), ("t1", "t2"))
    inst = Instance.make(
        g,
        initial=Bigraph(g, ((0, 1),)),
        degrees=DegreeSpec(g, (1, 0), (0, 1)),
        matroid_s=Matroid.uniform(g.s_ids, 1),
        demand=from_corank(Matroid.uniform(g.t_ids, 1)),
    )
    body = instance_to_json("msmt", inst)
    mode, again = load_instance(body)
    assert mode == "msmt"
    assert again.initial.edges == inst.initial.edges
    assert again.degrees.m_s == inst.degrees.m_s
    assert again.demand == inst.demand
    assert again.matroid_s.rank == inst.matroid_s.rank


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_check_exit_codes(tmp_path, capsys):
    ok = write(tmp_path, "ok.json", ryser_body((2, 1, 1), (2, 1, 1), 3))
    assert main(["check", ok]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "feasible"
    assert payload["certificate"] is None

    bad = write(tmp_path, "bad.json", ryser_body((2, 2, 0), (2, 2, 0), 3))
    assert main(["check", bad]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "infeasible"
    cert = payload["certificate"]
    assert cert["which"] == "ryser"
    assert cert["X"] == ["s1", "s2"] and cert["Y"] == []
    assert cert["lhs"] == 5 and cert["rhs"] == 4

    broken = write(tmp_path, "broken.json", "{not json")
    assert main(["check", broken]) == 2
    capsys.readouterr()

    unrealizable = write(
        tmp_path,
        "unreal.json",
        {
            "mode": "ryser",
            "S": ["s1", "s2"],
            "T": ["t1", "t2"],
            "m_S": {"s1": 2, "s2": 2},
            "m_T": {"t1": 3, "t2": 1},
            "target_rank": 1,
        },
    )
    assert main(["check", unrealizable]) == 2


def test_cli_solve_routes_and_witness_verification(tmp_path, capsys):
    body = {
        "mode": "msmt",
        "S": ["s1", "s2"],
        "T": ["t1", "t2"],
        "m_S": {"s1": 1, "s2": 1},
        "m_T": {"t1": 1, "t2": 1},
        "matroid_S": {"kind": "free"},
        "matroid_T": {"kind": "uniform", "k": 1},
    }
    path = write(tmp_path, "msmt.json", body)
    out = str(tmp_path / "result.json")
    assert main(["solve", path, "--route", "both", "--out", out]) == 0
    result = json.loads(Path(out).read_text())
    assert result["verdict"] == "feasible"
    assert len(result["witness"]["edges"]) == 2
    assert main(["check", path, "--verify-witness", out]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness_problems"] == []

    # tampered witness must be rejected
    result["witness"]["edges"] = result["witness"]["edges"][:1]
    tampered = write(tmp_path, "tampered.json", result)
    assert main(["check", path, "--verify-witness", tampered]) == 1
    capsys.readouterr()


def test_cli_solve_ore_and_term_rank(tmp_path, capsys):
    ore = write(
        tmp_path,
        "ore.json",
        {
            "mode": "ore",
            "S": ["s1", "s2"],
            "T": ["t1", "t2"],
            "m_S": {"s1": 1, "s2": 1},
            "m_T": {"t1": 1, "t2": 1},
        },
    )
    assert main(["solve", ore, "--route", "both"]) == 0
    payload = json.loads(capsys.readouterr().out)
    edges = payload["witness"]["edges"]
    assert len(edges) == 2
    counts: dict[str, int] = {}
    for a, b in edges:
        counts[a] = counts.get(a, 0) + 1
        counts[b] = counts.get(b, 0) + 1
    assert all(v == 1 for v in counts.values())

    ryser = write(tmp_path, "ryser.json", ryser_body((2, 1, 1), (2, 1, 1), 3))
    assert main(["solve", ryser]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["witness"]["matching"]) == 3

    infeasible = write(tmp_path, "ryser_bad.json", ryser_body((2, 2, 0), (2, 2, 0), 3))
    assert main(["solve", infeasible]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["X"] == ["s1", "s2"]
    assert payload["witness"] is None


def test_cli_solve_brualdi(tmp_path, capsys):
    body = {
        "mode": "brualdi",
        "S": ["s1", "s2"],
        "T": ["t1", "t2"],
        "h0": [["s1", "t1"], ["s2", "t2"]],
        "matroid_S": {"kind": "uniform", "k": 1},
        "matroid_T": {"kind": "uniform", "k": 1},
    }
    path = write(tmp_path, "brualdi.json", body)
    assert main(["solve", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["witness"]["matching"]) == 1


def test_cli_check_determinism(tmp_path, capsys):
    path = write(tmp_path, "ok.json", ryser_body((2, 1, 1), (2, 1, 1), 3))
    outputs = []
    for _ in range(2):
        assert main(["check", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload["stats"].pop("wall_ms")
        outputs.append(payload)
    assert outputs[0] == outputs[1]


def test_cli_fuzz_deterministic_and_clean(tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["fuzz", "--seed", "3", "--count", "40", "--out", a]) == 0
    assert main(["fuzz", "--seed", "3", "--count", "40", "--out", b]) == 0
    assert Path(a).read_text() == Path(b).read_text()
    report = json.loads(Path(a).read_text())
    assert report["discrepancy_count"] == 0
    assert report["instances"] == 40


def test_fuzz_fault_injection_reports_reproducer():
    flip = lambda name, value: (not value) if name == "msmt_checker" else value
    report = run_fuzz(FuzzConfig(seed=5, count=10, modes=("msmt",)), fault_hook=flip)
    assert report["discrepancy_count"] == 10
    entry = report["discrepancies"][0]
    assert entry["problems"]
    assert entry["reproducer"]["mode"] == "msmt"
    # the reproducer loads back into a valid instance
    mode, inst = load_instance(entry["reproducer"])
    assert mode == "msmt"


def test_shrink_keeps_failure_and_reduces():
    flip = lambda name, value: (not value) if name == "msmt_checker" else value
    report = run_fuzz(FuzzConfig(seed=6, count=4, modes=("msmt",)), fault_hook=flip)
    entry = report["discrepancies"][0]
    mode, inst = load_instance(entry["reproducer"])
    # the stored reproducer is already shrunk and still reproduces
    assert verify_msmt(inst, {}, flip)


def test_brualdi_target_rank_must_match_matroids():
    body = {
        "mode": "brualdi",
        "S": ["s1", "s2"],
        "T": ["t1", "t2"],
        "h0": [["s1", "t1"]],
        "matroid_S": {"kind": "uniform", "k": 1},
        "matroid_T": {"kind": "uniform", "k": 1},
        "target_rank": 2,
    }
    with pytest.raises(InstanceError):
        load_instance(body)
    body["target_rank"] = 1
    mode, inst = load_instance(body)
    assert mode == "brualdi" and inst.target_rank == 1


def test_cli_missing_file_and_bad_fuzz_mode(capsys):
    assert main(["check", "/nonexistent/instance.json"]) == 2
    capsys.readouterr()
    assert main(["fuzz", "--modes", "sideways", "--count", "1"]) == 2
    capsys.readouterr()


def test_cli_solve_ms_only_uses_brute_route(tmp_path, capsys):
    body = {
        "mode": "ms_only",
        "S": ["s1", "s2"],
        "T": ["t1", "t2"],
        "m_S": {"s1": 1, "s2": 1},
        "matroid_T": {"kind": "uniform", "k": 1},
    }
    path = write(tmp_path, "msonly.json", body)
    assert main(["solve", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["route"] == "brute"
    edges = payload["witness"]["edges"]
    assert sum(1 for a, _ in edges if a == "s1") == 1
    assert sum(1 for a, _ in edges if a == "s2") == 1


def test_cli_mode_override(tmp_path, capsys):
    body = ryser_body((2, 1, 1), (2, 1, 1), 3)
    del body["mode"]
    path = write(tmp_path, "nomode.json", body)
    assert main(["check", path]) == 2
    capsys.readouterr()
    assert main(["check", path, "--mode", "ryser"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# goldens at the ground cap: full CLI output of `check` or `solve --route cover`,
# wall time dropped

CAP_GOLDENS = sorted((Path(__file__).parent / "data").glob("cap_*.json"))


@pytest.mark.parametrize("golden_path", CAP_GOLDENS, ids=lambda p: p.stem)
def test_cli_check_cap_goldens(golden_path, tmp_path, capsys):
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    path = write(tmp_path, "inst.json", golden["instance"])
    code = main([*golden["argv"], path])
    captured = capsys.readouterr()
    result = json.loads(captured.out) if captured.out else None
    if result is not None:
        result["stats"].pop("wall_ms")
    assert (code, result, captured.err) == (golden["exit"], golden["result"], golden["stderr"])


def test_cap_goldens_present():
    assert [p.stem for p in CAP_GOLDENS] == [
        "cap_fully_10x2", "cap_msmt_2x10", "cap_rank_r3_10", "cap_ryser_gen_2x10",
        "cap_solve_brualdi_4x8", "cap_solve_msmt_6x6", "cap_solve_ryser_6x6",
        "cap_solve_ryser_6x6_perfect", "cap_solve_ryser_gen_5x7",
        "cap_solve_ryser_gen_5x7_bnb",
    ]


def test_cli_check_answers_the_largest_packing_family(capsys):
    # an infeasible msmt draw at 2x10 with over fourteen million packings,
    # all counted by the subset DP and none enumerated
    path = Path(__file__).parent / "data" / "msmt_2x10_gap_seed1.json"
    assert main(["check", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["ineq_evals"] == 14_140_108
    _, inst = load_instance(json.loads(path.read_text(encoding="utf-8")))
    cert = check_msmt(inst)
    assert recompute_lhs(cert, inst) == cert.lhs == payload["certificate"]["lhs"] > cert.rhs
