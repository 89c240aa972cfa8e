"""Command-line front end: check instances, solve them constructively, run the
randomized cross-oracle fuzzer, and run the built-in acceptance suite.

Exit codes: 0 feasible / all good, 1 infeasible or discrepancy found, 2 input
or precondition error, 3 internal error.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from .bigraph import Bigraph, graph_union
from .cover import (
    build_via_cover,
    construct_brute,
    find_matching_covering_bases,
    solve_term_rank,
)
from .errors import InfeasibleError, InstanceError, PreconditionError, TermrankError
from .feasibility import (
    Instance,
    ViolationCert,
    check_brualdi,
    check_fully,
    check_ms_only,
    check_msmt,
    check_ore,
    check_ryser,
    check_ryser_gen,
)
from .harness import (
    FUZZ_MODES,
    TERM_RANK_CROSSCHECKS,
    FuzzConfig,
    acceptance_report,
    crosscheck,
    run_fuzz,
    validate_matching,
    validate_witness,
)
from .jsonio import (
    MODES,
    _in_field,
    dumps,
    load_instance_file,
    result_to_json,
    witness_to_json,
)
from .matroid import Matroid
from .setfun import constant

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


def _uniform_matroids(inst: Instance) -> Instance:
    """The classic term-rank instance with uniform matroids of its target rank."""
    g = inst.grounds
    return Instance.make(
        g,
        initial=inst.initial,
        degrees=inst.degrees,
        matroid_s=Matroid.uniform(g.s_ids, inst.target_rank),
        matroid_t=Matroid.uniform(g.t_ids, inst.target_rank),
        target_rank=inst.target_rank,
    )


def _decide(mode: str, inst: Instance, stats: dict) -> ViolationCert | None:
    """The mode's condition, then the cross-checks of its verdict."""
    check, crosschecks, _solve = DISPATCH[mode]
    cert = check(inst, stats)
    crosscheck(crosschecks, inst, cert, stats)
    return cert


def _solve_graph(mode: str, inst: Instance, route: str, stats: dict):
    """Degree-specified augmentation: the condition, then a witness graph."""
    cert = _decide(mode, inst, stats)
    if cert is not None:
        return cert
    work = inst if inst.demand is not None else replace(inst, demand=constant(inst.grounds.t_ids, 0))
    if inst.degrees.m_t is None and route != "brute":
        # the cover route lifts both degree sides
        route = stats["route"] = "brute"
    built = None
    if route in ("cover", "both"):
        built = build_via_cover(work, stats)
    brute = None
    if route in ("brute", "both"):
        brute = construct_brute(work, stats=stats)
        if route == "brute" and brute is None:
            raise AssertionError("condition passed but exhaustive construction found nothing")
    if route == "both" and (brute is None) != (built is None):
        raise AssertionError("the two construction routes disagree on feasibility")
    return witness_to_json(inst.grounds, built if built is not None else brute, None)


def _solve_matching(mode: str, inst: Instance, route: str, stats: dict):
    """Basis-covering matching in the given graph: the condition, then the matching."""
    cert = _decide(mode, inst, stats)
    if cert is not None:
        return cert
    matching = find_matching_covering_bases(
        inst.initial, inst.matroid_s, inst.matroid_t, stats=stats
    )
    return witness_to_json(inst.grounds, None, matching)


def _solve_term_rank(mode: str, inst: Instance, route: str, stats: dict):
    """Term-rank augmentation, decided and built by ``solve_term_rank``.

    The classic mode, which carries no matroids, first runs its own
    condition and is then solved with uniform matroids of the target rank.
    Both modes always build by cover, whatever the route.
    """
    if inst.matroid_t is None:
        cert = _decide(mode, inst, stats)
        if cert is not None:
            return cert
        inst = _uniform_matroids(inst)
    result = solve_term_rank(inst, stats=stats)
    crosscheck(TERM_RANK_CROSSCHECKS, inst, result, stats)
    if isinstance(result, ViolationCert):
        return result
    graph, matching = result
    return witness_to_json(inst.grounds, graph, matching)


# mode -> (condition checker, the harness cross-checks of its verdict, `solve`
# constructor).  The checkers name their functions when they run, so a
# replaced module attribute is the one called.
DISPATCH = {
    "ore": (lambda inst, stats: check_ore(inst.complement, inst.degrees, stats=stats), (), _solve_graph),
    "msmt": (lambda inst, stats: check_msmt(inst, stats=stats), (), _solve_graph),
    "ms_only": (lambda inst, stats: check_ms_only(inst, stats=stats), (), _solve_graph),
    "fully": (lambda inst, stats: check_fully(inst, stats=stats), (), _solve_graph),
    "ryser": (
        lambda inst, stats: check_ryser(inst.degrees, inst.target_rank, stats=stats),
        ("ryser_prefix",), _solve_term_rank,
    ),
    "brualdi": (
        lambda inst, stats: check_brualdi(inst.initial, inst.matroid_s, inst.matroid_t, stats=stats),
        ("brualdi_forms",), _solve_matching,
    ),
    "ryser_gen": (
        lambda inst, stats: check_ryser_gen(inst, stats=stats), ("ryser_gen_lift",), _solve_term_rank
    ),
}


def _emit(data: dict, out_path: str | None) -> None:
    text = dumps(data)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_witness_payload(path: str) -> dict:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InstanceError(f"cannot read witness file {path}: {exc}") from exc
    witness = data.get("witness") if isinstance(data, dict) else None
    if not isinstance(witness, dict):
        raise InstanceError(f"{path}: no witness object to verify")
    return witness


def cmd_check(args) -> int:
    mode, inst = load_instance_file(args.path, args.mode)
    stats: dict = {"mode": mode}
    start = time.perf_counter()
    if args.verify_witness:
        witness = _load_witness_payload(args.verify_witness)
        problems: list[str] = []
        graph = None
        if "edges" in witness:
            graph = _in_field("edges", Bigraph.from_names, inst.grounds, witness["edges"])
            problems += validate_witness(inst, graph)
        if "matching" in witness:
            pairs = _in_field("matching", inst.grounds.pair_indices, witness["matching"])
            target = inst.initial if graph is None else graph_union(graph, inst.initial)
            if inst.matroid_t is None:
                if inst.target_rank is None:
                    raise InstanceError("instance carries no matroids or target rank to verify a matching")
                inst = _uniform_matroids(inst)
            problems += validate_matching(target, inst.matroid_s, inst.matroid_t, pairs)
        stats["wall_ms"] = round((time.perf_counter() - start) * 1000, 3)
        verdict = "feasible" if not problems else "infeasible"
        payload = result_to_json(verdict, grounds=inst.grounds, stats=stats)
        payload["witness_problems"] = problems
        _emit(payload, args.out)
        return EXIT_FEASIBLE if not problems else EXIT_INFEASIBLE
    cert = _decide(mode, inst, stats)
    stats["wall_ms"] = round((time.perf_counter() - start) * 1000, 3)
    if cert is None:
        _emit(result_to_json("feasible", grounds=inst.grounds, stats=stats), args.out)
        return EXIT_FEASIBLE
    _emit(
        result_to_json("infeasible", grounds=inst.grounds, cert=cert, stats=stats),
        args.out,
    )
    return EXIT_INFEASIBLE


def cmd_solve(args) -> int:
    mode, inst = load_instance_file(args.path, args.mode)
    stats: dict = {"mode": mode, "route": args.route}
    start = time.perf_counter()
    _check, _crosschecks, solve = DISPATCH[mode]
    result = solve(mode, inst, args.route, stats)
    stats["wall_ms"] = round((time.perf_counter() - start) * 1000, 3)
    if isinstance(result, ViolationCert):
        _emit(
            result_to_json("infeasible", grounds=inst.grounds, cert=result, stats=stats),
            args.out,
        )
        return EXIT_INFEASIBLE
    _emit(
        result_to_json("feasible", grounds=inst.grounds, witness=result, stats=stats),
        args.out,
    )
    return EXIT_FEASIBLE


def cmd_fuzz(args) -> int:
    cfg = FuzzConfig(
        seed=args.seed,
        count=args.count,
        max_s=args.max_s,
        max_t=args.max_t,
        modes=tuple(args.modes.split(",")) if args.modes else FuzzConfig.modes,
    )
    report = run_fuzz(cfg)
    _emit(report, args.out)
    return EXIT_FEASIBLE if report["discrepancy_count"] == 0 else EXIT_INFEASIBLE


def cmd_selftest(args) -> int:
    results = acceptance_report(quick=args.quick)
    all_ok = True
    for entry in results:
        tag = "PASS" if entry["ok"] else "FAIL"
        all_ok = all_ok and entry["ok"]
        print(f"{tag} criterion {entry['criterion']}: {entry['detail']}")
    return EXIT_FEASIBLE if all_ok else EXIT_INFEASIBLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termrank",
        description=(
            "Decide, certify, and construct degree-specified bipartite graphs "
            "with matroid and matching-rank constraints."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate a feasibility condition")
    p_check.add_argument("path", help="instance JSON file")
    p_check.add_argument("--mode", choices=MODES, help="override the file's mode tag")
    p_check.add_argument("--out", help="write the result JSON here instead of stdout")
    p_check.add_argument(
        "--verify-witness",
        metavar="RESULT",
        help="re-validate the witness in a result file against this instance",
    )
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="construct a witness or certificate")
    p_solve.add_argument("path", help="instance JSON file")
    p_solve.add_argument("--mode", choices=MODES, help="override the file's mode tag")
    p_solve.add_argument(
        "--route",
        choices=("cover", "brute", "both"),
        default="cover",
        help="construction route; 'both' also asserts the two agree",
    )
    p_solve.add_argument("--out", help="write the result JSON here instead of stdout")
    p_solve.set_defaults(func=cmd_solve)

    p_fuzz = sub.add_parser("fuzz", help="seeded cross-oracle verification run")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--count", type=int, default=200)
    p_fuzz.add_argument("--max-s", dest="max_s", type=int, default=4)
    p_fuzz.add_argument("--max-t", dest="max_t", type=int, default=4)
    p_fuzz.add_argument(
        "--modes",
        help=f"comma-separated subset of: {','.join(FUZZ_MODES)}",
    )
    p_fuzz.add_argument("--out", help="write the report JSON here instead of stdout")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_self = sub.add_parser("selftest", help="run the built-in acceptance suite")
    p_self.add_argument("--quick", action="store_true", help="reduced instance counts")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except TermrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a bug, not an answer; BaseException passes through
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
