"""JSON schemas: instance files, matroid descriptors, set-function tables,
certificates, and result files.

Node ids are strings, subsets are serialized as sorted id arrays, and every
file is rejected on unknown fields so that typos cannot silently change the
problem being solved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bigraph import Bigraph, DegreeSpec, GroundSets, bits
from .errors import InstanceError
from .feasibility import Instance, ViolationCert
from .matroid import Matroid, enumerate_bases
from .setfun import SetFunction


@dataclass(frozen=True)
class ModeSchema:
    """One instance mode: the fields it accepts besides mode, S, T and h0, and
    the rules on them.

    ``degrees`` is "both" (m_S and m_T required) or "left" (m_S required).
    ``demand`` requires exactly one of demand and matroid_T and writes the
    demand table back, never matroid_T.  ``matroids`` requires matroid_S and
    matroid_T.  ``target_rank`` is "required", "optional", or "ranks"
    (optional, and equal to both matroid ranks when given).  ``h0_edges`` is
    False when h0 must be empty.
    """

    fields: str
    degrees: str = ""
    demand: bool = False
    matroids: bool = False
    target_rank: str = ""
    h0_edges: bool = True


MODES = {
    "ore": ModeSchema("m_S m_T", degrees="both"),
    "msmt": ModeSchema("m_S m_T matroid_S matroid_T demand", degrees="both", demand=True),
    "ms_only": ModeSchema("m_S matroid_S matroid_T demand", degrees="left", demand=True),
    "fully": ModeSchema("m_S m_T matroid_S matroid_T demand", degrees="both", demand=True),
    "ryser": ModeSchema(
        "m_S m_T target_rank", degrees="both", target_rank="required", h0_edges=False
    ),
    "brualdi": ModeSchema("matroid_S matroid_T target_rank", matroids=True, target_rank="ranks"),
    "ryser_gen": ModeSchema(
        "m_S m_T matroid_S matroid_T target_rank",
        degrees="both", matroids=True, target_rank="optional",
    ),
}


def dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed layout, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def matroid_from_descriptor(ground, desc) -> Matroid:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise InstanceError("matroid descriptor must be an object with a 'kind' field")
    kind = desc["kind"]
    if kind == "free":
        _reject_extra(desc, {"kind"}, "matroid descriptor")
        return Matroid.free(ground)
    if kind == "uniform":
        _reject_extra(desc, {"kind", "k"}, "matroid descriptor")
        if "k" not in desc:
            raise InstanceError("uniform matroid descriptor needs 'k'")
        return Matroid.uniform(ground, _parse_int(desc["k"], "uniform matroid descriptor k"))
    if kind == "partition":
        _reject_extra(desc, {"kind", "blocks", "caps"}, "matroid descriptor")
        if "blocks" not in desc or "caps" not in desc:
            raise InstanceError("partition matroid descriptor needs 'blocks' and 'caps'")
        caps = desc["caps"]
        if not isinstance(caps, list):
            raise InstanceError("partition matroid descriptor caps: must be a list")
        caps = [_parse_int(c, f"partition matroid descriptor caps[{i}]") for i, c in enumerate(caps)]
        blocks = _id_lists(desc["blocks"], "partition matroid descriptor blocks")
        return Matroid.partition(ground, blocks, caps)
    if kind == "explicit":
        _reject_extra(desc, {"kind", "bases"}, "matroid descriptor")
        if "bases" not in desc:
            raise InstanceError("explicit matroid descriptor needs 'bases'")
        return Matroid.from_bases(ground, _id_lists(desc["bases"], "explicit matroid descriptor bases"))
    raise InstanceError(f"unknown matroid kind {kind!r}")


def matroid_descriptor(m: Matroid) -> dict:
    if m.kind == "free":
        return {"kind": "free"}
    if m.kind.startswith("uniform("):
        return {"kind": "uniform", "k": int(m.kind[8:-1])}
    bases = enumerate_bases(m)
    return {
        "kind": "explicit",
        "bases": [sorted(m.ground[i] for i in bits(b)) for b in bases],
    }


def _subset_keys(ground) -> list[str]:
    """The key of every mask over ``ground``, ascending: its names, sorted and
    joined by commas.

    Built by doubling over the ground in sorted-name order, so each key grows
    only by names that sort after the ones it holds.
    """
    masks, keys = [0], [""]
    for i in sorted(range(len(ground)), key=ground.__getitem__):
        bit, name = 1 << i, ground[i]
        keys += [f"{k},{name}" if m else name for m, k in zip(masks, keys)]
        masks += [m | bit for m in masks]
    by_mask = keys[:]
    for m, k in zip(masks, keys):
        by_mask[m] = k
    return by_mask


def setfunction_to_json(p: SetFunction) -> dict:
    return {"ground": list(p.ground), "values": dict(zip(_subset_keys(p.ground), p.values))}


def setfunction_from_json(data) -> SetFunction:
    if not isinstance(data, dict):
        raise InstanceError("demand: must be an object with 'ground' and 'values'")
    _reject_extra(data, {"ground", "values"}, "demand")
    if "ground" not in data or "values" not in data:
        raise InstanceError("demand: needs 'ground' and 'values'")
    ground = _id_list(data["ground"], "demand.ground")
    raw = data["values"]
    if not isinstance(raw, dict):
        raise InstanceError("demand.values: must be an object keyed by subsets")
    keys = _subset_keys(ground)
    values = [raw.get(key) for key in keys]
    if not set(map(type, values)) <= {int}:
        # name the first missing key or non-integer, in ascending mask order
        for key in keys:
            if key not in raw:
                raise InstanceError(f"demand.values: missing subset key {key!r}")
            _parse_int(raw[key], f"demand.values[{key!r}]")
    extra = set(raw).difference(keys)
    if extra:
        raise InstanceError(f"demand.values: unknown subset keys {sorted(extra)}")
    return SetFunction(ground, tuple(values))


def _parse_int(value, field: str) -> int:
    """A JSON integer; booleans, floats and numeric strings are rejected."""
    if type(value) is not int:
        raise InstanceError(f"{field}: not an integer")
    return value


def _in_field(field: str, parse, *args):
    """``parse(*args)``, with an input error's message led by the field it came from."""
    try:
        return parse(*args)
    except InstanceError as exc:
        raise InstanceError(f"{field}: {exc}") from exc


def _reject_extra(data: dict, allowed: set[str], path: str) -> None:
    extra = set(data) - allowed
    if extra:
        raise InstanceError(f"{path}: unknown fields {sorted(extra)}")


def _id_list(raw, field: str) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise InstanceError(f"{field}: must be a list of string node ids")
    return tuple(raw)


def _id_lists(raw, field: str) -> list[tuple[str, ...]]:
    if not isinstance(raw, list):
        raise InstanceError(f"{field}: must be a list of lists of string node ids")
    return [_id_list(ids, f"{field}[{i}]") for i, ids in enumerate(raw)]


def _parse_ids(data, key: str) -> tuple[str, ...]:
    if key not in data:
        raise InstanceError(f"{key}: missing")
    return _id_list(data[key], key)


def _parse_degrees(data, key: str, ids: tuple[str, ...]) -> tuple[int, ...]:
    raw = data[key]
    if not isinstance(raw, dict):
        raise InstanceError(f"{key}: must map node id to degree")
    out = []
    for name in ids:
        if name not in raw:
            raise InstanceError(f"{key}: missing degree for node {name!r}")
        out.append(_parse_int(raw[name], f"{key}[{name!r}]"))
    extra = set(raw) - set(ids)
    if extra:
        raise InstanceError(f"{key}: unknown node ids {sorted(extra)}")
    return tuple(out)


def load_instance(data, mode_override: str | None = None) -> tuple[str, Instance]:
    """Parse and validate an instance file body into (mode, Instance)."""
    if not isinstance(data, dict):
        raise InstanceError("instance file must be a JSON object")
    mode = mode_override or data.get("mode")
    if mode is None:
        raise InstanceError("mode: missing (and no --mode override given)")
    if not isinstance(mode, str) or mode not in MODES:
        raise InstanceError(f"mode: unknown mode {mode!r}, expected one of {tuple(MODES)}")
    spec = MODES[mode]
    _reject_extra(data, {"mode", "S", "T", "h0", *spec.fields.split()}, "instance")

    s_ids, t_ids = _parse_ids(data, "S"), _parse_ids(data, "T")
    for name in t_ids:
        if not name or "," in name:
            # demand keys join right ids with commas; "" is the empty set's key
            raise InstanceError(f"T: node id {name!r} must be non-empty and hold no ','")
    grounds = GroundSets(s_ids, t_ids)
    initial = _in_field("h0", Bigraph.from_names, grounds, data.get("h0", []))
    if not initial.simple:
        raise InstanceError("h0: initial graph must be simple")
    if not spec.h0_edges and initial.edge_count:
        raise InstanceError("h0: the classic term-rank mode takes no initial edges")

    degrees = None
    if "m_S" in data:
        m_s = _parse_degrees(data, "m_S", grounds.s_ids)
        m_t = _parse_degrees(data, "m_T", grounds.t_ids) if "m_T" in data else None
        degrees = _in_field("m_S/m_T", DegreeSpec, grounds, m_s, m_t)
    if spec.degrees == "both" and (degrees is None or degrees.m_t is None):
        raise InstanceError(f"m_S/m_T: mode {mode!r} needs degrees on both classes")
    if spec.degrees == "left" and degrees is None:
        raise InstanceError("m_S: missing")

    matroid_s = None
    if "matroid_S" in data:
        matroid_s = _in_field("matroid_S", matroid_from_descriptor, grounds.s_ids, data["matroid_S"])
    matroid_t = None
    if "matroid_T" in data:
        matroid_t = _in_field("matroid_T", matroid_from_descriptor, grounds.t_ids, data["matroid_T"])
    demand = None
    if "demand" in data:
        demand = setfunction_from_json(data["demand"])
        if demand.ground != grounds.t_ids:
            raise InstanceError("demand.ground: must equal T in the same order")

    if spec.demand:
        if demand is None and matroid_t is None:
            raise InstanceError(f"mode {mode!r} needs 'demand' or 'matroid_T'")
        if demand is not None and matroid_t is not None:
            raise InstanceError("give either 'demand' or 'matroid_T', not both")
    if spec.matroids and (matroid_s is None or matroid_t is None):
        raise InstanceError(f"mode {mode!r} needs matroids on both classes")

    target_rank = None
    if "target_rank" in data:
        target_rank = _parse_int(data["target_rank"], "target_rank")
    if spec.target_rank == "required" and target_rank is None:
        raise InstanceError("target_rank: missing")
    if (
        spec.target_rank == "ranks"
        and target_rank is not None
        and (matroid_s.full_rank != target_rank or matroid_t.full_rank != target_rank)
    ):
        raise InstanceError(
            f"target_rank: {target_rank} does not match the matroid ranks "
            f"{matroid_s.full_rank}/{matroid_t.full_rank}"
        )

    inst = Instance.make(
        grounds,
        initial=initial,
        degrees=degrees,
        matroid_s=matroid_s,
        demand=demand,
        matroid_t=matroid_t,
        target_rank=target_rank,
    )
    return mode, inst


def load_instance_file(path, mode_override: str | None = None) -> tuple[str, Instance]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path}: malformed JSON: {exc}") from exc
    return load_instance(data, mode_override)


def instance_to_json(mode: str, inst: Instance) -> dict:
    """Serialize back to the instance file schema (used for reproducers)."""
    spec = MODES[mode]
    g = inst.grounds
    data: dict = {"mode": mode, "S": list(g.s_ids), "T": list(g.t_ids)}
    if inst.initial.edge_count:
        data["h0"] = [[a, b] for a, b in inst.initial.edge_names()]
    if inst.degrees is not None and spec.degrees:
        data["m_S"] = {name: inst.degrees.m_s[i] for i, name in enumerate(g.s_ids)}
        if inst.degrees.m_t is not None and spec.degrees == "both":
            data["m_T"] = {name: inst.degrees.m_t[j] for j, name in enumerate(g.t_ids)}
    if (spec.demand or spec.matroids) and inst.matroid_s is not None:
        data["matroid_S"] = matroid_descriptor(inst.matroid_s)
    if spec.matroids and inst.matroid_t is not None:
        data["matroid_T"] = matroid_descriptor(inst.matroid_t)
    if spec.demand and inst.demand is not None:
        data["demand"] = setfunction_to_json(inst.demand)
    if spec.target_rank and inst.target_rank is not None:
        data["target_rank"] = inst.target_rank
    return data


def cert_to_json(cert: ViolationCert, grounds: GroundSets) -> dict:
    data = {
        "which": cert.which,
        "X": sorted(grounds.s_names(cert.x)),
        "Y": sorted(grounds.t_names(cert.y)),
        "parts": [sorted(grounds.t_names(p)) for p in cert.parts],
        "lhs": cert.lhs,
        "rhs": cert.rhs,
    }
    data["Xp"] = sorted(grounds.s_names(cert.xp)) if cert.xp is not None else None
    data["Yp"] = sorted(grounds.t_names(cert.yp)) if cert.yp is not None else None
    return data


def witness_to_json(
    grounds: GroundSets, graph: Bigraph | None, matching=None
) -> dict:
    data: dict = {}
    if graph is not None:
        data["edges"] = [[a, b] for a, b in graph.edge_names()]
    if matching is not None:
        data["matching"] = [
            [grounds.s_ids[s], grounds.t_ids[t]] for s, t in matching
        ]
    return data


def result_to_json(
    verdict: str,
    *,
    grounds: GroundSets,
    witness: dict | None = None,
    cert: ViolationCert | None = None,
    stats: dict | None = None,
) -> dict:
    data: dict = {"verdict": verdict, "witness": None, "certificate": None}
    if witness is not None:
        data["witness"] = witness
    if cert is not None:
        data["certificate"] = cert_to_json(cert, grounds)
    data["stats"] = stats or {}
    return data
