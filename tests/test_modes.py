"""Per-mode goldens for the instance schema, the fuzz driver and the CLI error
paths: the load error for every removed or unexpected field, instance round
trips in all seven modes, byte-stable fuzz reports (clean and with every
verdict flipped), strict integer fields, malformed id lists and pairs, and the
exit code of an internal error."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from termrank import cli
from termrank.errors import InstanceError
from termrank.harness import FuzzConfig, run_fuzz
from termrank.jsonio import MODES, dumps, instance_to_json, load_instance

DATA = Path(__file__).parent / "data"

_S = ["s1", "s2"]
_T = ["t1", "t2"]
_H0 = [["s1", "t1"]]
_M_S = {"s1": 1, "s2": 1}
_M_T = {"t1": 1, "t2": 1}
_UNIFORM_1 = {"kind": "uniform", "k": 1}
_DEMAND = {"ground": _T, "values": {"": 0, "t1": 0, "t2": 0, "t1,t2": 1}}

# one loadable body per mode, with every field the mode accepts but one of
# the demand/matroid_T alternatives
BODIES = {
    "ore": {"S": _S, "T": _T, "h0": _H0, "m_S": _M_S, "m_T": _M_T},
    "msmt": {"S": _S, "T": _T, "h0": _H0, "m_S": _M_S, "m_T": _M_T,
             "matroid_S": _UNIFORM_1, "demand": _DEMAND},
    "ms_only": {"S": _S, "T": _T, "h0": _H0, "m_S": _M_S,
                "matroid_S": _UNIFORM_1, "matroid_T": _UNIFORM_1},
    "fully": {"S": _S, "T": _T, "h0": _H0, "m_S": _M_S, "m_T": _M_T,
              "matroid_S": {"kind": "free"}, "matroid_T": _UNIFORM_1},
    "ryser": {"S": _S, "T": _T, "h0": [], "m_S": _M_S, "m_T": _M_T, "target_rank": 1},
    "brualdi": {"S": _S, "T": _T, "h0": _H0, "matroid_S": _UNIFORM_1,
                "matroid_T": _UNIFORM_1, "target_rank": 1},
    "ryser_gen": {"S": _S, "T": _T, "h0": _H0, "m_S": _M_S, "m_T": _M_T,
                  "matroid_S": _UNIFORM_1, "matroid_T": _UNIFORM_1, "target_rank": 1},
}
FIELDS = ("S", "T", "h0", "m_S", "m_T", "matroid_S", "matroid_T", "demand", "target_rank")


def body(mode: str) -> dict:
    return {"mode": mode, **copy.deepcopy(BODIES[mode])}


def load_error(data) -> str | None:
    try:
        load_instance(data)
    except InstanceError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# schema

_NEEDS_BOTH = "m_S/m_T: mode {!r} needs degrees on both classes"
_NEEDS_DEMAND = "mode {!r} needs 'demand' or 'matroid_T'"
_NEEDS_MATROIDS = "mode {!r} needs matroids on both classes"

REMOVED_FIELD_ERRORS = {
    ("ore", "S"): "S: missing",
    ("ore", "T"): "T: missing",
    ("ore", "h0"): None,
    ("ore", "m_S"): _NEEDS_BOTH.format("ore"),
    ("ore", "m_T"): _NEEDS_BOTH.format("ore"),
    ("msmt", "S"): "S: missing",
    ("msmt", "T"): "T: missing",
    ("msmt", "h0"): None,
    ("msmt", "m_S"): _NEEDS_BOTH.format("msmt"),
    ("msmt", "m_T"): _NEEDS_BOTH.format("msmt"),
    ("msmt", "matroid_S"): None,
    ("msmt", "demand"): _NEEDS_DEMAND.format("msmt"),
    ("ms_only", "S"): "S: missing",
    ("ms_only", "T"): "T: missing",
    ("ms_only", "h0"): None,
    ("ms_only", "m_S"): "m_S: missing",
    ("ms_only", "matroid_S"): None,
    ("ms_only", "matroid_T"): _NEEDS_DEMAND.format("ms_only"),
    ("fully", "S"): "S: missing",
    ("fully", "T"): "T: missing",
    ("fully", "h0"): None,
    ("fully", "m_S"): _NEEDS_BOTH.format("fully"),
    ("fully", "m_T"): _NEEDS_BOTH.format("fully"),
    ("fully", "matroid_S"): None,
    ("fully", "matroid_T"): _NEEDS_DEMAND.format("fully"),
    ("ryser", "S"): "S: missing",
    ("ryser", "T"): "T: missing",
    ("ryser", "h0"): None,
    ("ryser", "m_S"): _NEEDS_BOTH.format("ryser"),
    ("ryser", "m_T"): _NEEDS_BOTH.format("ryser"),
    ("ryser", "target_rank"): "target_rank: missing",
    ("brualdi", "S"): "S: missing",
    ("brualdi", "T"): "T: missing",
    ("brualdi", "h0"): None,
    ("brualdi", "matroid_S"): _NEEDS_MATROIDS.format("brualdi"),
    ("brualdi", "matroid_T"): _NEEDS_MATROIDS.format("brualdi"),
    ("brualdi", "target_rank"): None,
    ("ryser_gen", "S"): "S: missing",
    ("ryser_gen", "T"): "T: missing",
    ("ryser_gen", "h0"): None,
    ("ryser_gen", "m_S"): _NEEDS_BOTH.format("ryser_gen"),
    ("ryser_gen", "m_T"): _NEEDS_BOTH.format("ryser_gen"),
    ("ryser_gen", "matroid_S"): _NEEDS_MATROIDS.format("ryser_gen"),
    ("ryser_gen", "matroid_T"): _NEEDS_MATROIDS.format("ryser_gen"),
    ("ryser_gen", "target_rank"): None,
}


def test_every_field_of_every_mode_is_pinned():
    assert sorted(REMOVED_FIELD_ERRORS) == sorted(
        (mode, key) for mode in BODIES for key in BODIES[mode]
    )
    assert tuple(BODIES) == tuple(MODES)


@pytest.mark.parametrize(
    "mode,key", sorted(REMOVED_FIELD_ERRORS), ids=lambda v: v if isinstance(v, str) else None
)
def test_removed_field_error(mode, key):
    data = body(mode)
    del data[key]
    assert load_error(data) == REMOVED_FIELD_ERRORS[(mode, key)]


ADDED_FIELD_ERRORS = {
    ("ore", "matroid_S"): "instance: unknown fields ['matroid_S']",
    ("ore", "matroid_T"): "instance: unknown fields ['matroid_T']",
    ("ore", "demand"): "instance: unknown fields ['demand']",
    ("ore", "target_rank"): "instance: unknown fields ['target_rank']",
    ("msmt", "matroid_T"): "matroid_T: matroid descriptor must be an object with a 'kind' field",
    ("msmt", "target_rank"): "instance: unknown fields ['target_rank']",
    ("ms_only", "m_T"): "instance: unknown fields ['m_T']",
    ("ms_only", "demand"): "demand: needs 'ground' and 'values'",
    ("ms_only", "target_rank"): "instance: unknown fields ['target_rank']",
    ("fully", "demand"): "demand: needs 'ground' and 'values'",
    ("fully", "target_rank"): "instance: unknown fields ['target_rank']",
    ("ryser", "matroid_S"): "instance: unknown fields ['matroid_S']",
    ("ryser", "matroid_T"): "instance: unknown fields ['matroid_T']",
    ("ryser", "demand"): "instance: unknown fields ['demand']",
    ("brualdi", "m_S"): "instance: unknown fields ['m_S']",
    ("brualdi", "m_T"): "instance: unknown fields ['m_T']",
    ("brualdi", "demand"): "instance: unknown fields ['demand']",
    ("ryser_gen", "demand"): "instance: unknown fields ['demand']",
}


def test_every_absent_field_of_every_mode_is_pinned():
    assert sorted(ADDED_FIELD_ERRORS) == sorted(
        (mode, key) for mode in BODIES for key in FIELDS if key not in BODIES[mode]
    )


@pytest.mark.parametrize(
    "mode,key", sorted(ADDED_FIELD_ERRORS), ids=lambda v: v if isinstance(v, str) else None
)
def test_added_field_error(mode, key):
    data = body(mode)
    data[key] = {}
    assert load_error(data) == ADDED_FIELD_ERRORS[(mode, key)]


def test_mode_errors():
    data = body("ore")
    del data["mode"]
    assert load_error(data) == "mode: missing (and no --mode override given)"
    data["mode"] = "sideways"
    assert load_error(data) == (
        "mode: unknown mode 'sideways', expected one of "
        "('ore', 'msmt', 'ms_only', 'fully', 'ryser', 'brualdi', 'ryser_gen')"
    )
    assert load_error([]) == "instance file must be a JSON object"
    mode, _ = load_instance(data, mode_override="ore")
    assert mode == "ore"


def test_mode_specific_rules():
    data = body("ryser")
    data["h0"] = [["s1", "t1"]]
    assert load_error(data) == "h0: the classic term-rank mode takes no initial edges"
    data = body("brualdi")
    data["target_rank"] = 2
    assert load_error(data) == "target_rank: 2 does not match the matroid ranks 1/1"
    data = body("msmt")
    data["matroid_T"] = _UNIFORM_1
    assert load_error(data) == "give either 'demand' or 'matroid_T', not both"


# instance_to_json of each loaded body: the msmt family always writes the
# demand table and never matroid_T, ms_only drops m_T, and only the term-rank
# modes keep target_rank
ROUND_TRIP_KEYS = {
    "ore": ["S", "T", "h0", "m_S", "m_T", "mode"],
    "msmt": ["S", "T", "demand", "h0", "m_S", "m_T", "matroid_S", "mode"],
    "ms_only": ["S", "T", "demand", "h0", "m_S", "matroid_S", "mode"],
    "fully": ["S", "T", "demand", "h0", "m_S", "m_T", "matroid_S", "mode"],
    "ryser": ["S", "T", "m_S", "m_T", "mode", "target_rank"],
    "brualdi": ["S", "T", "h0", "matroid_S", "matroid_T", "mode", "target_rank"],
    "ryser_gen": ["S", "T", "h0", "m_S", "m_T", "matroid_S", "matroid_T", "mode", "target_rank"],
}


@pytest.mark.parametrize("mode", MODES)
def test_instance_round_trip(mode):
    loaded_mode, inst = load_instance(body(mode))
    assert loaded_mode == mode
    data = instance_to_json(mode, inst)
    assert sorted(data) == ROUND_TRIP_KEYS[mode]
    if "demand" in data:
        assert data["demand"] == _DEMAND
    again_mode, again = load_instance(json.loads(dumps(data)))
    assert again_mode == mode
    assert instance_to_json(mode, again) == data
    assert again.initial == inst.initial
    assert again.degrees == inst.degrees
    assert again.matroid_s.rank == inst.matroid_s.rank
    assert again.demand == inst.demand
    assert again.target_rank == inst.target_rank
    assert (again.matroid_t is None) == ("matroid_T" not in data)


# ---------------------------------------------------------------------------
# fuzz reports, byte for byte

FLIP_ALL = lambda name, value: not value  # noqa: E731


@pytest.mark.parametrize("name,hook", [("fuzz_seed7", None), ("fuzz_flip_seed7", FLIP_ALL)])
def test_fuzz_report_golden(name, hook):
    golden = (DATA / f"{name}.json").read_text(encoding="utf-8")
    config = json.loads(golden)["config"]
    config["densities"] = tuple(config["densities"])
    config["modes"] = tuple(config["modes"])
    assert dumps(run_fuzz(FuzzConfig(**config), fault_hook=hook)) == golden


# ---------------------------------------------------------------------------
# the CLI on malformed input and on internal errors


def run_cli(tmp_path, capsys, argv, instance, witness=None):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance), encoding="utf-8")
    extra = []
    if witness is not None:
        result = tmp_path / "result.json"
        result.write_text(json.dumps({"witness": witness}), encoding="utf-8")
        extra = ["--verify-witness", str(result)]
    code = cli.main([*argv, str(path), *extra])
    captured = capsys.readouterr()
    return code, captured.err


def with_fields(mode: str, **changes) -> dict:
    data = body(mode)
    data.update(changes)
    return data


def in_field(field: str | None, message: str) -> str:
    """The error a case expects: the message of the parser that failed, led by
    the input field it was parsing unless the message already names it."""
    return message if field is None else f"{field}: {message}"


# (instance, the field a descriptor parser failed on or None, the message);
# the message names the case
STRICT_INTEGER_CASES = [
    (with_fields("ore", m_S={"s1": 1.9, "s2": True}), None, "m_S['s1']: not an integer"),
    (with_fields("ore", m_S={"s1": 1, "s2": True}), None, "m_S['s2']: not an integer"),
    (with_fields("ore", m_T={"t1": 1, "t2": "1"}), None, "m_T['t2']: not an integer"),
    (with_fields("ryser", target_rank="2"), None, "target_rank: not an integer"),
    (with_fields("brualdi", target_rank=1.0), None, "target_rank: not an integer"),
    (
        with_fields("msmt", demand={**_DEMAND, "values": {**_DEMAND["values"], "t1": 0.0}}),
        None, "demand.values['t1']: not an integer",
    ),
    (
        with_fields("ms_only", matroid_T={"kind": "uniform", "k": "1"}),
        "matroid_T", "uniform matroid descriptor k: not an integer",
    ),
    (
        with_fields("ryser_gen", matroid_S={"kind": "partition", "blocks": [_S], "caps": [True]}),
        "matroid_S", "partition matroid descriptor caps[0]: not an integer",
    ),
    (
        with_fields("brualdi", matroid_T={"kind": "partition", "blocks": [_T], "caps": 1}),
        "matroid_T", "partition matroid descriptor caps: must be a list",
    ),
]


@pytest.mark.parametrize(
    "data,field,message", STRICT_INTEGER_CASES, ids=[m for _, _, m in STRICT_INTEGER_CASES]
)
def test_strict_integers(tmp_path, capsys, data, field, message):
    assert load_error(data) == in_field(field, message)
    assert run_cli(tmp_path, capsys, ["check"], data) == (2, f"error: {in_field(field, message)}\n")


MALFORMED_ID_LIST_CASES = [
    (
        with_fields("brualdi", matroid_S={"kind": "partition", "blocks": 5, "caps": [1]}),
        "matroid_S", "partition matroid descriptor blocks: must be a list of lists of string node ids",
    ),
    (
        with_fields("brualdi", matroid_S={"kind": "partition", "blocks": [5], "caps": [1]}),
        "matroid_S", "partition matroid descriptor blocks[0]: must be a list of string node ids",
    ),
    (
        with_fields("ryser_gen", matroid_T={"kind": "explicit", "bases": 5}),
        "matroid_T", "explicit matroid descriptor bases: must be a list of lists of string node ids",
    ),
    (
        with_fields("ryser_gen", matroid_T={"kind": "explicit", "bases": [[["t1"]]]}),
        "matroid_T", "explicit matroid descriptor bases[0]: must be a list of string node ids",
    ),
    (
        with_fields("msmt", demand={**_DEMAND, "ground": 5}),
        None, "demand.ground: must be a list of string node ids",
    ),
    # demand keys would read one value for {t1, t2} and {"t1,t2"}
    (with_fields("msmt", T=["t1", "t2", "t1,t2"]), None, "T: node id 't1,t2' must be non-empty and hold no ','"),
    (with_fields("ore", T=["t1", ""]), None, "T: node id '' must be non-empty and hold no ','"),
]


@pytest.mark.parametrize(
    "data,field,message", MALFORMED_ID_LIST_CASES, ids=[m for _, _, m in MALFORMED_ID_LIST_CASES]
)
def test_malformed_id_lists_are_input_errors(tmp_path, capsys, data, field, message):
    assert load_error(data) == in_field(field, message)
    assert run_cli(tmp_path, capsys, ["check"], data) == (2, f"error: {in_field(field, message)}\n")


# values the checks behind a parser reject: degree pairs, matroid descriptors
# and edge endpoints
FIELD_VALUE_CASES = [
    (with_fields("ore", m_T={"t1": 2, "t2": 1}), "m_S/m_T", "degree totals differ: left 2 vs right 3"),
    (with_fields("brualdi", matroid_S={"kind": "weird"}), "matroid_S", "unknown matroid kind 'weird'"),
    (
        with_fields("brualdi", matroid_T={"kind": "partition", "blocks": [_T], "caps": [-1]}),
        "matroid_T", "partition matroid caps must be non-negative",
    ),
    (
        with_fields("ryser_gen", matroid_T={"kind": "explicit", "bases": [["t1"], ["t1", "t2"]]}),
        "matroid_T", "all bases must have the same cardinality",
    ),
    (
        with_fields("ryser_gen", matroid_S={"kind": "uniform", "k": 99}),
        "matroid_S", "uniform rank 99 out of range for ground of size 2",
    ),
    (with_fields("ore", h0=[["s1", "zz"]]), "h0", "edge endpoint 'zz' is not a right node"),
]


@pytest.mark.parametrize("data,field,message", FIELD_VALUE_CASES, ids=[m for _, _, m in FIELD_VALUE_CASES])
def test_input_errors_name_their_field(tmp_path, capsys, data, field, message):
    assert load_error(data) == in_field(field, message)
    assert run_cli(tmp_path, capsys, ["check"], data) == (2, f"error: {in_field(field, message)}\n")


# (instance, witness file or None, the field a pair parser failed on or None,
# the message); the instance's h0 is an input field, a witness is its own file
MALFORMED_PAIR_CASES = [
    (with_fields("ore", h0=[5]), None, "h0", "edge 5 must be a [left, right] pair"),
    (with_fields("ore", h0=5), None, "h0", "edges 5 must be a list of [left, right] pairs"),
    (with_fields("ore", h0=[["s1", ["t1"]]]), None, "h0", "edge endpoint ['t1'] is not a right node"),
    (body("ore"), {"edges": [5]}, "edges", "edge 5 must be a [left, right] pair"),
    (body("ryser"), {"matching": [["s1", "zz"]]}, "matching", "edge endpoint 'zz' is not a right node"),
    (body("ryser"), {"matching": [["s1"]]}, "matching", "edge ['s1'] must be a [left, right] pair"),
    (body("ryser"), {"matching": "s1"}, "matching", "edges 's1' must be a list of [left, right] pairs"),
]


@pytest.mark.parametrize(
    "data,witness,field,message", MALFORMED_PAIR_CASES, ids=[m for *_, m in MALFORMED_PAIR_CASES]
)
def test_malformed_pairs_are_input_errors(tmp_path, capsys, data, witness, field, message):
    assert run_cli(tmp_path, capsys, ["check"], data, witness) == (
        2, f"error: {in_field(field, message)}\n"
    )


def test_matching_witness_problems_keep_the_file_order(tmp_path, capsys):
    witness = {"matching": [["s2", "t2"], ["s1", "t1"]]}
    assert run_cli(tmp_path, capsys, ["check"], body("ryser"), witness) == (1, "")
    code, _ = run_cli(tmp_path, capsys, ["check", "--out", str(tmp_path / "out.json")],
                      body("ryser"), witness)
    assert json.loads((tmp_path / "out.json").read_text())["witness_problems"] == [
        "matching has 2 edges, wanted 1",
        "matching edge (1, 1) is not in the graph",
        "matching edge (0, 0) is not in the graph",
    ]


CHECKER_NAMES = {
    "ore": "check_ore",
    "msmt": "check_msmt",
    "ms_only": "check_ms_only",
    "fully": "check_fully",
    "ryser": "check_ryser",
    "brualdi": "check_brualdi",
    "ryser_gen": "check_ryser_gen",
}


@pytest.mark.parametrize("mode", MODES)
def test_internal_error_exits_3(tmp_path, capsys, monkeypatch, mode):
    def broken(*args, **kwargs):
        raise AssertionError("forms disagree")

    # the dispatch looks the checker up by name on every call
    monkeypatch.setattr(cli, CHECKER_NAMES[mode], broken)
    assert run_cli(tmp_path, capsys, ["check"], body(mode)) == (
        3, "internal error: AssertionError: forms disagree\n"
    )


def test_interrupts_pass_through(tmp_path, capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "check_ore", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli(tmp_path, capsys, ["check"], body("ore"))
