"""Randomized cross-oracle verification: seeded instance generators, the
checker-versus-constructor equivalence bundles, independent witness
validators, a counterexample shrinker, and the acceptance criteria shared by
the test suite and the CLI self-test.

The decision procedures compute each verdict once.  The identities between
two forms of a decision are the named cross-checks in ``CROSSCHECKS``; the
CLI runs them after its decisions (all but ``lift_crossing``, which its cover
builder scans only when a search fails), and the bundles, the prefix slab and
the self-test call them too.  Every bundle asserts an identity the package is
built around (the decision procedure agrees with exhaustive construction,
the minimum cover equals the maximum independent family, the reduction forms
agree) and reports any deviation as a discrepancy with a reproducer instance
file; a correct build produces zero discrepancies.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from itertools import combinations

from .bigraph import (
    Bigraph,
    DegreeSpec,
    GroundSets,
    bipartite_complement,
    graph_union,
    matching_number,
    restrict_table,
    union_table,
)
from .cover import (
    build_from_lift,
    construct_brute,
    find_matching_covering_bases,
    min_arc_cover,
    minimalize_cover,
    solve_term_rank,
)
from .errors import InstanceError, PreconditionError, TermrankError
from .feasibility import (
    Instance,
    ViolationCert,
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
    corank_instance,
    recompute_lhs,
    ryser_prefix_max,
    ryser_table,
)
from .jsonio import instance_to_json
from .matroid import Matroid, restrict
from .setfun import (
    SetFunction,
    base_demand,
    classify_supermodular,
    from_corank,
    full_demand,
    nonneighbor_set,
    shift,
    truncate_nonneg,
)

ACCEPTANCE_SEED = 20260809

# fuzz mode -> one seeded case, (rng, cfg, counters, fault) -> (problems,
# reproducer); the cases name their functions when they run, so a replaced
# module attribute is the one called
FUZZ_CASES = {
    "msmt": lambda *case: _instance_case("msmt", random_msmt_instance, verify_msmt, *case),
    "ms_only": lambda *case: _instance_case(
        "ms_only", random_ms_only_instance, partial(verify_against_brute, "ms_only"), *case
    ),
    "ore": lambda *case: _instance_case(
        "ore", random_ore_instance, partial(verify_against_brute, "ore"), *case
    ),
    "brualdi": lambda *case: _instance_case(
        "brualdi", random_brualdi_instance, verify_brualdi, *case
    ),
    "reductions": lambda *case: verify_reductions(*case),
}
FUZZ_MODES = tuple(FUZZ_CASES)


@dataclass
class FuzzConfig:
    seed: int = 0
    count: int = 200
    max_s: int = 4
    max_t: int = 4
    max_degree: int = 3
    densities: tuple[float, ...] = (0.0, 0.25, 0.5)
    modes: tuple[str, ...] = FUZZ_MODES

    def __post_init__(self):
        for mode in self.modes:
            if mode not in FUZZ_MODES:
                raise InstanceError(f"unknown fuzz mode {mode!r}, expected one of {FUZZ_MODES}")
        if self.max_s < 1 or self.max_t < 1:
            raise InstanceError("class size bounds must be at least 1")


def _bump(counters: dict, key: str, amount: int = 1) -> None:
    counters[key] = counters.get(key, 0) + amount


# ---------------------------------------------------------------------------
# generators


def _grounds(n_s: int, n_t: int) -> GroundSets:
    return GroundSets(tuple(f"s{i + 1}" for i in range(n_s)), tuple(f"t{j + 1}" for j in range(n_t)))


def _random_grounds(rng: random.Random, max_s: int, max_t: int) -> GroundSets:
    return _grounds(rng.randint(1, max_s), rng.randint(1, max_t))


def _random_initial(rng: random.Random, grounds: GroundSets, density: float) -> Bigraph:
    edges = [
        (i, j)
        for i in range(grounds.n_s)
        for j in range(grounds.n_t)
        if rng.random() < density
    ]
    return Bigraph(grounds, tuple(edges))


def _random_matroid(rng: random.Random, ground: tuple[str, ...]) -> Matroid:
    n = len(ground)
    kind = rng.choice(("free", "uniform", "partition"))
    if kind == "free":
        return Matroid.free(ground)
    if kind == "uniform":
        return Matroid.uniform(ground, rng.randint(0, n))
    block_count = rng.randint(1, n)
    assignment = [rng.randrange(block_count) for _ in range(n)]
    blocks = []
    for b in range(block_count):
        block = [ground[i] for i in range(n) if assignment[i] == b]
        if block:
            blocks.append(block)
    caps = [rng.randint(0, len(block)) for block in blocks]
    return Matroid.partition(ground, blocks, caps)


def _random_matroid_of_rank(rng: random.Random, ground: tuple[str, ...], ell: int) -> Matroid:
    """A matroid of prescribed full rank; falls back to uniform when sampling fails."""
    n = len(ground)
    for _ in range(12):
        choice = rng.choice(("uniform", "partition", "explicit"))
        if choice == "uniform":
            return Matroid.uniform(ground, ell)
        if choice == "partition":
            m = _random_matroid(rng, ground)
            if m.full_rank == ell:
                return m
            continue
        if ell == 0:
            return Matroid.uniform(ground, 0)
        bases = []
        for _ in range(rng.randint(1, 3)):
            bases.append(sorted(rng.sample(range(n), ell)))
        try:
            return Matroid.from_bases(ground, [[ground[i] for i in b] for b in bases])
        except InstanceError:
            continue
    return Matroid.uniform(ground, ell)


def _random_demand(
    rng: random.Random, t_ids: tuple[str, ...], *, keep_fully: bool = False
) -> tuple[SetFunction, bool]:
    """A demand from a random matroid's complementary rank, optionally transformed.

    Downward shifts and positive truncation preserve the positively
    intersecting property; only untruncated tables remain fully supermodular.
    The second return value reports whether full supermodularity survived.
    """
    dem = from_corank(_random_matroid(rng, t_ids))
    transforms = ("none", "shift") if keep_fully else ("none", "shift", "truncate")
    transform = rng.choice(transforms)
    if transform == "shift":
        dem = shift(dem, -rng.randint(1, 2))
    elif transform == "truncate":
        dem = truncate_nonneg(shift(dem, -rng.randint(1, 2)))
    return dem, transform != "truncate"


def _compose(rng: random.Random, total: int, parts: int, cap: int) -> list[int]:
    out = []
    remaining = total
    for idx in range(parts):
        left = parts - idx - 1
        low = max(0, remaining - left * cap)
        high = min(cap, remaining)
        v = rng.randint(low, high)
        out.append(v)
        remaining -= v
    return out


def _random_degrees(
    rng: random.Random,
    grounds: GroundSets,
    max_degree: int,
    host: Bigraph | None = None,
) -> DegreeSpec:
    """Random degree pair with equal totals.

    Half the time (when a host is given) the degrees are read off a random
    subgraph of the host, which plants a graph fitting them exactly.
    """
    if host is not None and rng.random() < 0.5:
        keep_p = rng.choice((0.3, 0.5, 0.8))
        edges = [e for e in host.edges if rng.random() < keep_p]
        planted = Bigraph(grounds, tuple(edges))
        while max(planted.s_degrees, default=0) > max_degree or max(
            planted.t_degrees, default=0
        ) > max_degree:
            drop = rng.randrange(planted.edge_count)
            edges = list(planted.edges)
            del edges[drop]
            planted = Bigraph(grounds, tuple(edges))
        return DegreeSpec(grounds, planted.s_degrees, planted.t_degrees)
    while True:
        m_s = [rng.randint(0, max_degree) for _ in range(grounds.n_s)]
        if sum(m_s) <= max_degree * grounds.n_t:
            break
    m_t = _compose(rng, sum(m_s), grounds.n_t, max_degree)
    return DegreeSpec(grounds, tuple(m_s), tuple(m_t))


def random_msmt_instance(rng: random.Random, cfg: FuzzConfig, *, keep_fully: bool = False) -> Instance:
    grounds = _random_grounds(rng, cfg.max_s, cfg.max_t)
    initial = _random_initial(rng, grounds, rng.choice(cfg.densities))
    complement = bipartite_complement(initial)
    matroid_s = _random_matroid(rng, grounds.s_ids)
    demand, _fully = _random_demand(rng, grounds.t_ids, keep_fully=keep_fully)
    degrees = _random_degrees(rng, grounds, cfg.max_degree, host=complement)
    return Instance.make(
        grounds, initial=initial, degrees=degrees, matroid_s=matroid_s, demand=demand
    )


def random_ms_only_instance(rng: random.Random, cfg: FuzzConfig) -> Instance:
    grounds = _random_grounds(rng, cfg.max_s, cfg.max_t)
    initial = _random_initial(rng, grounds, rng.choice(cfg.densities))
    matroid_s = _random_matroid(rng, grounds.s_ids)
    demand, _fully = _random_demand(rng, grounds.t_ids)
    m_s = tuple(rng.randint(0, cfg.max_degree) for _ in range(grounds.n_s))
    degrees = DegreeSpec(grounds, m_s, None)
    return Instance.make(
        grounds, initial=initial, degrees=degrees, matroid_s=matroid_s, demand=demand
    )


def random_ore_instance(rng: random.Random, cfg: FuzzConfig, max_degree: int = 4) -> Instance:
    """A random host graph with a random degree pair; host stored as complement."""
    grounds = _random_grounds(rng, cfg.max_s, cfg.max_t)
    host = _random_initial(rng, grounds, rng.choice((0.25, 0.5, 0.75, 1.0)))
    degrees = _random_degrees(rng, grounds, max_degree, host=host)
    return Instance.make(
        grounds, initial=bipartite_complement(host), degrees=degrees
    )


def random_brualdi_case(
    rng: random.Random, cfg: FuzzConfig, max_edges: int = 12, max_rank: int = 3
) -> tuple[Bigraph, Matroid, Matroid]:
    grounds = _random_grounds(rng, cfg.max_s, cfg.max_t)
    graph = _random_initial(rng, grounds, rng.choice((0.2, 0.4, 0.6, 0.9)))
    if graph.edge_count > max_edges:
        edges = list(graph.edges)
        rng.shuffle(edges)
        graph = Bigraph(grounds, tuple(edges[:max_edges]))
    ell = rng.randint(0, min(max_rank, grounds.n_s, grounds.n_t))
    matroid_s = _random_matroid_of_rank(rng, grounds.s_ids, ell)
    matroid_t = _random_matroid_of_rank(rng, grounds.t_ids, ell)
    return graph, matroid_s, matroid_t


def random_brualdi_instance(rng: random.Random, cfg: FuzzConfig) -> Instance:
    """A brualdi case as an instance: the graph under test is ``initial``."""
    graph, matroid_s, matroid_t = random_brualdi_case(rng, cfg)
    return Instance.make(graph.grounds, initial=graph, matroid_s=matroid_s, matroid_t=matroid_t)


# ---------------------------------------------------------------------------
# independent validators


def validate_witness(inst: Instance, graph: Bigraph) -> list[str]:
    """Re-check a witness graph with plain counting, not the solver's tables:
    each right set's neighbourhood is the OR of its nodes' neighbour masks."""
    problems = []
    g = inst.grounds
    edges = list(graph.edges)
    if inst.degrees is not None:
        got = Counter(s for s, _ in edges)
        for i, want in enumerate(inst.degrees.m_s):
            if got[i] != want:
                problems.append(f"degree of left node {i} is {got[i]}, wanted {want}")
        if inst.degrees.m_t is not None:
            got = Counter(t for _, t in edges)
            for j, want in enumerate(inst.degrees.m_t):
                if got[j] != want:
                    problems.append(f"degree of right node {j} is {got[j]}, wanted {want}")
    combined = edges + list(inst.initial.edges)
    if len(set(combined)) != len(combined):
        problems.append("witness union with the initial graph has parallel edges")
    if inst.demand is not None:
        nbrs = [0] * g.n_t  # each right node's left neighbours
        for s, t in combined:
            nbrs[t] |= 1 << s
        nbr = [0]  # N(y) for every right mask y, by doubling
        for mask in nbrs:
            nbr += [m | mask for m in nbr]
        rank, dem = inst.matroid_s.rank, inst.demand.values
        short = [y for y, m in enumerate(nbr) if rank[m] < dem[y]]
        # reported in ``combinations`` order: by size, then by sorted nodes
        short.sort(key=lambda y: (y.bit_count(), [j for j in range(g.n_t) if y >> j & 1]))
        problems += [f"demand uncovered on right subset mask {y}" for y in short]
    return problems


def validate_matching(
    graph: Bigraph, matroid_s: Matroid, matroid_t: Matroid, matching
) -> list[str]:
    """Re-check a basis-covering matching with plain set logic."""
    problems = []
    ell = matroid_s.full_rank
    if len(matching) != ell:
        problems.append(f"matching has {len(matching)} edges, wanted {ell}")
    edge_set = set(graph.edges)
    left = [s for s, _ in matching]
    right = [t for _, t in matching]
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        problems.append("matching repeats an endpoint")
    for e in matching:
        if tuple(e) not in edge_set:
            problems.append(f"matching edge {e} is not in the graph")
    s_mask = sum(1 << s for s in set(left))
    t_mask = sum(1 << t for t in set(right))
    if matroid_s.rank_of(s_mask) != ell:
        problems.append("left endpoints do not span a basis")
    if matroid_t.rank_of(t_mask) != ell:
        problems.append("right endpoints do not span a basis")
    return problems


def _check_certificate(cert, inst: Instance, counters: dict, problems: list[str]) -> None:
    try:
        lhs = recompute_lhs(cert, inst)
    except TermrankError as exc:
        problems.append(f"certificate does not recompute: {exc}")
        return
    if lhs != cert.lhs:
        problems.append(f"certificate lhs {cert.lhs} recomputes to {lhs}")
    elif lhs <= cert.rhs:
        problems.append(f"certificate lhs {lhs} does not exceed rhs {cert.rhs}")
    else:
        _bump(counters, "certs_rechecked")


# ---------------------------------------------------------------------------
# cross-checks: each asserts one identity between two forms of a decision, given
# the instance, the decision's result (a ViolationCert when it fails) and the
# stats.  They name the checkers they call when they run, so a replaced module
# attribute is the one called.


# What a cross-check is handed when nothing was decided, as when the
# decision's precondition failed; None is a passing decision.
NO_DECISION = object()


def ryser_prefix(inst: Instance, result, stats: dict | None) -> None:
    """The classic term-rank table's maximum equals its sorted-prefix maximum and
    a violating result's lhs, and a passing result (None) leaves it at most
    gamma; ``NO_DECISION`` is not compared."""
    full = max(ryser_table(inst.degrees, inst.target_rank))
    prefix = ryser_prefix_max(inst.degrees, inst.target_rank)
    if prefix != full:
        raise AssertionError(f"prefix reduction disagrees with full quantification: {prefix} vs {full}")
    if isinstance(result, ViolationCert) and result.lhs != full:
        raise AssertionError(
            f"separable maximum disagrees with full quantification: {result.lhs} vs {full}"
        )
    if result is None and full > inst.degrees.gamma:
        raise AssertionError(
            f"a passing decision leaves the table maximum {full} above gamma {inst.degrees.gamma}"
        )


def brualdi_forms(inst: Instance, result, stats: dict | None) -> None:
    """The vertex-cover verdict equals the neighborhood-rank verdict."""
    ms, mt = inst.matroid_s, inst.matroid_t
    nbr = union_table(inst.initial.t_adj)
    t_all = inst.grounds.t_all
    by_nbr = all(
        ms.rank[nbr[y]] >= ms.full_rank - mt.rank[t_all ^ y] for y in range(t_all + 1)
    )
    if by_nbr != (not isinstance(result, ViolationCert)):
        raise AssertionError("vertex-cover and neighborhood-rank forms disagree")


def ryser_gen_lift(inst: Instance, result, stats: dict | None) -> None:
    """The nested-pair verdict equals ``check_fully`` on the corank demand."""
    by_lift = check_fully(corank_instance(inst)) is None
    if by_lift != (not isinstance(result, ViolationCert)):
        raise AssertionError("nested-pair form disagrees with the demand-lift reduction")


def integrated_split(inst: Instance, result, stats: dict | None) -> None:
    """The integrated verdict equals ``check_ore0`` and ``check_ryser_matroid`` together."""
    degrees = inst.degrees
    split = (
        check_ore0(degrees) is None
        and check_ryser_matroid(degrees, inst.matroid_s, inst.matroid_t) is None
    )
    if split != (not isinstance(result, ViolationCert)):
        raise AssertionError("integrated form disagrees with the two-condition split")


def lift_crossing(inst: Instance, lifted: SetFunction, stats: dict | None) -> None:
    """A feasible instance's lift is positively crossing supermodular.

    Takes the lift in place of a decision's result, on feasible instances
    only: the covering lemma's hypothesis, which the cover route assumes.
    """
    violation = classify_supermodular(lifted, "st_crossing", positively=True, n_s=inst.grounds.n_s)
    if violation is not None:
        raise AssertionError(
            "lift of a feasible instance is not positively crossing supermodular: "
            f"masks {violation.x}, {violation.y}"
        )


def brute_witness(inst: Instance, result, stats: dict | None) -> None:
    """``construct_brute`` finds a witness whenever the term-rank decision passes."""
    if isinstance(result, ViolationCert):
        return
    if construct_brute(corank_instance(inst), stats=stats) is None:
        raise AssertionError("brute-force cross-check failed to find a witness")


CROSSCHECKS = {
    "ryser_prefix": ryser_prefix,
    "brualdi_forms": brualdi_forms,
    "ryser_gen_lift": ryser_gen_lift,
    "integrated_split": integrated_split,
    "brute_witness": brute_witness,
    "lift_crossing": lift_crossing,
}
# the identities behind a solve_term_rank answer: it decides by
# check_ryser_gen and then builds
TERM_RANK_CROSSCHECKS = ("ryser_gen_lift", "brute_witness")


def crosscheck(names: tuple[str, ...], inst: Instance, result, stats: dict | None) -> None:
    """Run the named cross-checks on one decision's result."""
    for name in names:
        CROSSCHECKS[name](inst, result, stats)


# ---------------------------------------------------------------------------
# verification bundles


def verify_msmt(inst: Instance, counters: dict, fault=None) -> list[str]:
    """Checker vs both constructors, lift classifications, and the min-max identity."""
    problems: list[str] = []
    g = inst.grounds
    if classify_supermodular(inst.demand, "intersecting", positively=True) is not None:
        return ["generator produced a demand that fails its own classification"]
    cert = check_msmt(inst)
    feasible = cert is None
    if fault is not None:
        feasible = fault("msmt_checker", feasible)
    _bump(counters, "msmt_feasible" if feasible else "msmt_infeasible")
    base = base_demand(inst.initial, inst.degrees, inst.demand, inst.matroid_s)
    lifted = full_demand(base, inst.initial, inst.degrees)

    brute = construct_brute(inst)
    if feasible != (brute is not None):
        problems.append(
            f"checker says {feasible} but exhaustive construction says {brute is not None}"
        )
    built = None
    cover_feasible = cert is None
    try:
        if cover_feasible:
            built = build_from_lift(inst, lifted, None)
    except (TermrankError, AssertionError) as exc:
        problems.append(f"cover route failed internally: {exc}")
        cover_feasible = None
    if cover_feasible is not None and feasible != cover_feasible:
        problems.append(f"checker says {feasible} but cover route says {cover_feasible}")

    if classify_supermodular(base, "t_intersecting", positively=True, n_s=g.n_s) is not None:
        problems.append("lifted base demand fails the meeting-pairs classification")
    else:
        _bump(counters, "base_lift_classified")
    crossing = False  # unless classified here, min_arc_cover's precondition decides
    if feasible:
        try:
            lift_crossing(inst, lifted, None)
            crossing = True
            _bump(counters, "full_lift_classified")
        except AssertionError:
            problems.append("full lifted demand fails the crossing classification despite feasibility")
        g0 = inst.complement
        for i in range(g.n_s):
            if inst.degrees.m_s[i] > g0.s_degree(i):
                problems.append(f"feasible but left node {i} lacks room in the complement")
        for i in range(g.n_s):
            vs = nonneighbor_set(inst.initial, i)
            if lifted.value(vs) < base.value(vs):
                problems.append(f"degree override lowered the lift on node {i}'s meter set")
        for mask in lifted.positive_masks:
            s_part, t_part = g.split(mask)
            entered = any(
                not s_part >> s & 1 and t_part >> t & 1 for s, t in g0.edges
            )
            if not entered:
                problems.append(f"positive lifted set {mask} is entered by no admissible arc")

    coverable = all(
        mask >> g.n_s != 0 and g.s_all & ~mask for mask in lifted.positive_masks
    )
    if coverable:
        try:
            cover, _dual = min_arc_cover(lifted, g.n_s)
            _bump(counters, "minmax_checked")
            if minimalize_cover(cover.arcs, lifted, g.n_s) != cover.arcs:
                problems.append("minimum cover is not minimal")
            if feasible:
                if cover.size != inst.degrees.gamma:
                    problems.append(
                        f"feasible instance: cover size {cover.size} != degree total {inst.degrees.gamma}"
                    )
                else:
                    _bump(counters, "minmax_equals_total")
        except AssertionError as exc:
            problems.append(str(exc))
        except PreconditionError as exc:
            if crossing:
                problems.append(f"cover preconditions failed after classification: {exc}")

    for witness in (built, brute):
        if witness is not None:
            issues = validate_witness(inst, witness)
            problems.extend(issues)
            if not issues:
                _bump(counters, "witnesses_validated")
    if cert is not None:
        _check_certificate(cert, inst, counters, problems)
    return problems


def verify_against_brute(mode: str, inst: Instance, counters: dict, fault=None) -> list[str]:
    """The ``ore`` or ``ms_only`` checker against exhaustive construction."""
    problems: list[str] = []
    cert = check_ore(inst.complement, inst.degrees) if mode == "ore" else check_ms_only(inst)
    feasible = cert is None
    if fault is not None:
        feasible = fault(f"{mode}_checker", feasible)
    _bump(counters, f"{mode}_feasible" if feasible else f"{mode}_infeasible")
    brute = construct_brute(inst)
    if feasible != (brute is not None):
        problems.append(
            f"checker says {feasible} but exhaustive construction says {brute is not None}"
        )
    if brute is not None:
        issues = validate_witness(inst, brute)
        problems.extend(issues)
        if not issues:
            _bump(counters, "witnesses_validated")
    if cert is not None:
        _check_certificate(cert, inst, counters, problems)
    return problems


def _naive_basis_matching(graph: Bigraph, ms: Matroid, mt: Matroid) -> bool:
    """Oracle: scan all edge subsets of the right size for a basis-covering matching."""
    ell = ms.full_rank
    edges = sorted(set(graph.edges))
    if ell == 0:
        return True
    for combo in combinations(edges, ell):
        left = [s for s, _ in combo]
        right = [t for _, t in combo]
        if len(set(left)) != ell or len(set(right)) != ell:
            continue
        s_mask = sum(1 << s for s in left)
        t_mask = sum(1 << t for t in right)
        if ms.rank_of(s_mask) == ell and mt.rank_of(t_mask) == ell:
            return True
    return False


def verify_brualdi(inst: Instance, counters: dict, fault=None) -> list[str]:
    """The matching condition against the matching search and subset enumeration."""
    graph, ms, mt = inst.initial, inst.matroid_s, inst.matroid_t
    problems: list[str] = []
    cert = check_brualdi(graph, ms, mt)
    try:
        brualdi_forms(inst, cert, None)
    except AssertionError as exc:
        return [f"the two condition forms disagree: {exc}"]
    feasible = cert is None
    if fault is not None:
        feasible = fault("brualdi_checker", feasible)
    _bump(counters, "brualdi_feasible" if feasible else "brualdi_infeasible")
    matching = find_matching_covering_bases(graph, ms, mt)
    if feasible != (matching is not None):
        problems.append(
            f"condition says {feasible} but the matching search says {matching is not None}"
        )
    oracle = _naive_basis_matching(graph, ms, mt)
    if feasible != oracle:
        problems.append(f"condition says {feasible} but subset enumeration says {oracle}")
    if matching is not None:
        issues = validate_matching(graph, ms, mt, matching)
        problems.extend(issues)
        if not issues:
            _bump(counters, "matchings_validated")
    if cert is not None:
        _check_certificate(cert, inst, counters, problems)
    return problems


def verify_reductions(rng: random.Random, cfg: FuzzConfig, counters: dict, fault=None):
    """One randomly drawn cross-evaluator equivalence case.

    Returns (problems, reproducer-dict-or-None).
    """
    sub = rng.choice(("fully", "matroid_forms", "uniform_forms"))
    problems: list[str] = []
    if sub == "fully":
        inst = random_msmt_instance(rng, cfg, keep_fully=True)
        reproducer = instance_to_json("fully", inst)
        general = check_msmt(inst) is None
        simplified = check_fully(inst) is None
        if fault is not None:
            simplified = fault("fully_checker", simplified)
        if general != simplified:
            problems.append(f"general condition {general} vs fully-supermodular form {simplified}")
        if inst.initial.edge_count == 0 and inst.demand_monotone:
            mon = check_csak_mon(inst) is None
            if mon != general:
                problems.append(f"monotone maximal-part form {mon} vs general {general}")
        _bump(counters, "reduction_fully")
        return problems, reproducer

    grounds = _random_grounds(rng, cfg.max_s, cfg.max_t)
    ell = rng.randint(0, min(3, grounds.n_s, grounds.n_t))
    if sub == "matroid_forms":
        degrees = _random_degrees(rng, grounds, cfg.max_degree)
        ms = _random_matroid_of_rank(rng, grounds.s_ids, ell)
        mt = _random_matroid_of_rank(rng, grounds.t_ids, ell)
        inst = Instance.make(
            grounds, degrees=degrees, matroid_s=ms, matroid_t=mt, target_rank=ell
        )
        reproducer = instance_to_json("ryser_gen", inst)
        gen = _ryser_gen_verdict(inst, fault)
        cert = check_integrated(degrees, ms, mt)
        integrated_split(inst, cert, None)
        integrated = cert is None
        if gen != integrated:
            # integrated_split has shown that the synthesis form agrees
            problems.append(
                f"nested-pair {gen} vs synthesis form {integrated} vs integrated {integrated}"
            )
        general = check_msmt(inst) is None
        if general != gen:
            problems.append(f"nested-pair {gen} vs demand-lift condition {general}")
        result = solve_term_rank_checked(inst, counters, problems)
        if gen != (result is not None):
            problems.append("solver feasibility disagrees with the condition")
        _bump(counters, "reduction_matroid")
        return problems, reproducer

    initial = _random_initial(rng, grounds, rng.choice(cfg.densities))
    degrees = _random_degrees(rng, grounds, cfg.max_degree, host=bipartite_complement(initial))
    ms = Matroid.uniform(grounds.s_ids, ell)
    mt = Matroid.uniform(grounds.t_ids, ell)
    inst = Instance.make(
        grounds, initial=initial, degrees=degrees, matroid_s=ms, matroid_t=mt,
        target_rank=ell,
    )
    reproducer = instance_to_json("ryser_gen", inst)
    gen = _ryser_gen_verdict(inst, fault)
    novel = check_ryser_novel(inst, ell) is None
    if gen != novel:
        problems.append(f"nested-pair {gen} vs cardinality form {novel}")
    general = check_msmt(inst) is None
    if general != gen:
        problems.append(f"nested-pair {gen} vs demand-lift condition {general}")
    if initial.edge_count == 0:
        try:
            cert = check_ryser(degrees, ell)
        except PreconditionError:
            ryser_prefix(inst, NO_DECISION, None)
            ore_fail = check_ore(inst.complement, degrees) is not None
            if not ore_fail or gen:
                problems.append("classic precondition failed but the general form passed")
        else:
            ryser_prefix(inst, cert, None)
            if (cert is None) != gen:
                problems.append(f"nested-pair {gen} vs classic term-rank form {cert is None}")
    result = solve_term_rank_checked(inst, counters, problems)
    if gen != (result is not None):
        problems.append("solver feasibility disagrees with the condition")
    _bump(counters, "reduction_uniform")
    return problems, reproducer


def _ryser_gen_verdict(inst: Instance, fault) -> bool:
    """check_ryser_gen's verdict, cross-checked by ``ryser_gen_lift``, then the fault hook."""
    cert = check_ryser_gen(inst)
    ryser_gen_lift(inst, cert, None)
    gen = cert is None
    return gen if fault is None else fault("ryser_gen_checker", gen)


def solve_term_rank_checked(inst: Instance, counters: dict, problems: list[str]):
    """Run the end-to-end solver, cross-check it, and validate whatever it returns."""
    try:
        result = solve_term_rank(inst)
        crosscheck(TERM_RANK_CROSSCHECKS, inst, result, None)
        if not isinstance(result, ViolationCert):
            # the solver built its witness from this lift without scanning it
            work = corank_instance(inst)
            base = base_demand(work.initial, work.degrees, work.demand, work.matroid_s)
            lift_crossing(work, full_demand(base, work.initial, work.degrees), None)
    except AssertionError as exc:
        problems.append(f"solver internal cross-check failed: {exc}")
        return None
    if isinstance(result, ViolationCert):
        _check_certificate(result, inst, counters, problems)
        return None
    graph, matching = result
    issues = validate_witness(inst, graph)
    issues += validate_matching(
        graph_union(graph, inst.initial), inst.matroid_s, inst.matroid_t, matching
    )
    problems.extend(issues)
    if not issues:
        _bump(counters, "witnesses_validated")
        _bump(counters, "matchings_validated")
    if matching_number(graph_union(graph, inst.initial)) < len(matching):
        problems.append("matching number is below the returned matching size")
    return graph, matching


# ---------------------------------------------------------------------------
# shrinking


# The node-dropping candidates are drawn only for instances with degrees, and
# a right node only when the right degrees are given too.
def _drop_s_node(inst: Instance, i: int) -> Instance:
    g = inst.grounds
    keep = [k for k in range(g.n_s) if k != i]
    grounds = GroundSets(tuple(g.s_ids[k] for k in keep), g.t_ids)
    remap = {k: pos for pos, k in enumerate(keep)}
    edges = tuple((remap[s], t) for s, t in inst.initial.edges if s != i)
    return Instance.make(
        grounds,
        initial=Bigraph(grounds, edges),
        degrees=DegreeSpec(grounds, tuple(inst.degrees.m_s[k] for k in keep), inst.degrees.m_t),
        matroid_s=restrict(inst.matroid_s, sum(1 << k for k in keep)),
        demand=inst.demand,
        target_rank=inst.target_rank,
    )


def _drop_t_node(inst: Instance, j: int) -> Instance:
    g = inst.grounds
    keep = [k for k in range(g.n_t) if k != j]
    grounds = GroundSets(g.s_ids, tuple(g.t_ids[k] for k in keep))
    remap = {k: pos for pos, k in enumerate(keep)}
    edges = tuple((s, remap[t]) for s, t in inst.initial.edges if t != j)
    degrees = DegreeSpec(grounds, inst.degrees.m_s, tuple(inst.degrees.m_t[k] for k in keep))
    demand = None
    if inst.demand is not None:
        demand = SetFunction(grounds.t_ids, restrict_table(inst.demand.values, g.t_all ^ 1 << j))
    return Instance.make(
        grounds,
        initial=Bigraph(grounds, edges),
        degrees=degrees,
        matroid_s=inst.matroid_s,
        demand=demand,
        target_rank=inst.target_rank,
    )


def _shrink_candidates(inst: Instance):
    g = inst.grounds
    if inst.matroid_t is not None:
        return  # matching cases are reported as drawn
    for k in range(inst.initial.edge_count):
        edges = list(inst.initial.edges)
        del edges[k]
        yield replace(inst, initial=Bigraph(g, tuple(edges)))
    if inst.degrees is not None:
        if inst.degrees.m_t is not None:
            for i in range(g.n_s):
                for j in range(g.n_t):
                    if inst.degrees.m_s[i] > 0 and inst.degrees.m_t[j] > 0:
                        m_s = list(inst.degrees.m_s)
                        m_t = list(inst.degrees.m_t)
                        m_s[i] -= 1
                        m_t[j] -= 1
                        yield replace(inst, degrees=DegreeSpec(g, tuple(m_s), tuple(m_t)))
        else:
            for i in range(g.n_s):
                if inst.degrees.m_s[i] > 0:
                    m_s = list(inst.degrees.m_s)
                    m_s[i] -= 1
                    yield replace(inst, degrees=DegreeSpec(g, tuple(m_s), None))
    if g.n_s > 1 and inst.degrees is not None:
        for i in range(g.n_s):
            if inst.degrees.m_s[i] == 0:
                yield _drop_s_node(inst, i)
    if g.n_t > 1 and inst.degrees is not None and inst.degrees.m_t is not None:
        for j in range(g.n_t):
            if inst.degrees.m_t[j] == 0:
                yield _drop_t_node(inst, j)


def shrink_instance(inst: Instance, still_fails, budget: int = 200) -> Instance:
    """Greedy reducer: keep any node/edge/degree reduction that still reproduces."""
    current = inst
    spent = 0
    improved = True
    while improved and spent < budget:
        improved = False
        for cand in _shrink_candidates(current):
            spent += 1
            if spent >= budget:
                break
            try:
                fails = still_fails(cand)
            except TermrankError:
                continue
            if fails:
                current = cand
                improved = True
                break
    return current


# ---------------------------------------------------------------------------
# the fuzz driver


def _instance_case(mode: str, draw, verify, rng, cfg, counters, fault):
    """Draw an instance and run its bundle; a failing one is shrunk before it is reported."""
    inst = draw(rng, cfg)
    problems = verify(inst, counters, fault)
    if problems:
        inst = shrink_instance(inst, lambda cand: bool(verify(cand, {}, fault)))
    return problems, instance_to_json(mode, inst)


def run_fuzz(cfg: FuzzConfig, fault_hook=None) -> dict:
    """Seeded verification run; the report is byte-stable for a fixed config."""
    rng = random.Random(cfg.seed)
    counters: dict[str, int] = {}
    discrepancies: list[dict] = []
    modes = list(cfg.modes)
    for index in range(cfg.count):
        mode = modes[index % len(modes)]
        problems, reproducer = FUZZ_CASES[mode](rng, cfg, counters, fault_hook)
        if problems:
            discrepancies.append(
                {
                    "index": index,
                    "mode": mode,
                    "problems": problems,
                    "reproducer": reproducer,
                }
            )
        _bump(counters, f"instances_{mode}")
    return {
        "config": {
            "seed": cfg.seed,
            "count": cfg.count,
            "max_s": cfg.max_s,
            "max_t": cfg.max_t,
            "max_degree": cfg.max_degree,
            "densities": list(cfg.densities),
            "modes": list(cfg.modes),
        },
        "instances": cfg.count,
        "counters": dict(sorted(counters.items())),
        "discrepancy_count": len(discrepancies),
        "discrepancies": discrepancies,
    }


# ---------------------------------------------------------------------------
# exhaustive slabs and the acceptance criteria


def ore_exhaustive_slab(max_nodes: int = 2, max_degree: int = 4) -> tuple[int, list[str]]:
    """Every host graph x every matching-total degree pair at tiny sizes."""
    from itertools import product

    problems: list[str] = []
    checked = 0
    for n_s in range(1, max_nodes + 1):
        for n_t in range(1, max_nodes + 1):
            grounds = _grounds(n_s, n_t)
            cells = [(i, j) for i in range(n_s) for j in range(n_t)]
            for pick in range(1 << len(cells)):
                host = Bigraph(
                    grounds,
                    tuple(cells[c] for c in range(len(cells)) if pick >> c & 1),
                )
                inst_initial = bipartite_complement(host)
                for m_s in product(range(max_degree + 1), repeat=n_s):
                    for m_t in product(range(max_degree + 1), repeat=n_t):
                        if sum(m_s) != sum(m_t):
                            continue
                        degrees = DegreeSpec(grounds, m_s, m_t)
                        inst = Instance.make(grounds, initial=inst_initial, degrees=degrees)
                        feasible = check_ore(host, degrees) is None
                        exists = construct_brute(inst) is not None
                        checked += 1
                        if feasible != exists:
                            problems.append(
                                f"host mask {pick} on ({n_s},{n_t}) with {m_s}/{m_t}: "
                                f"checker {feasible}, search {exists}"
                            )
    return checked, problems


def ryser_prefix_slab(seed: int = ACCEPTANCE_SEED, random_count: int = 300) -> tuple[int, list[str]]:
    """Prefix-versus-full agreement over exhaustive small specs plus seeded (6,6) draws.

    Drives the ``ryser_prefix`` cross-check over the family, realizable
    degree pairs or not, and counts the specs on which it holds.
    """
    from itertools import product

    problems: list[str] = []
    checked = 0

    def drive(n_s: int, n_t: int, m_s, m_t, ell: int) -> None:
        nonlocal checked
        grounds = _grounds(n_s, n_t)
        degrees = DegreeSpec(grounds, tuple(m_s), tuple(m_t))
        try:
            ryser_prefix(Instance.make(grounds, degrees=degrees, target_rank=ell), NO_DECISION, None)
        except AssertionError as exc:
            problems.append(f"{m_s}/{m_t} ell={ell}: {exc}")
            return
        checked += 1

    for m_s in product(range(3), repeat=3):
        for m_t in product(range(3), repeat=3):
            if sum(m_s) != sum(m_t):
                continue
            for ell in range(4):
                drive(3, 3, m_s, m_t, ell)
    for m_s in product(range(4), repeat=2):
        for m_t in product(range(4), repeat=2):
            if sum(m_s) != sum(m_t):
                continue
            for ell in range(3):
                drive(2, 2, m_s, m_t, ell)
    rng = random.Random(seed)
    for _ in range(random_count):
        while True:
            m_s = [rng.randint(0, 4) for _ in range(6)]
            if sum(m_s) <= 4 * 6:
                break
        m_t = _compose(rng, sum(m_s), 6, 4)
        drive(6, 6, m_s, m_t, rng.randint(0, 6))
    return checked, problems


def acceptance_report(quick: bool = False) -> list[dict]:
    """Run all acceptance criteria; returns one entry per criterion."""
    results: list[dict] = []

    def record(ok: bool, detail: str) -> None:
        results.append({"criterion": len(results) + 1, "ok": ok, "detail": detail})

    count_main = 150 if quick else 1000
    count_ore = 200 if quick else 1500
    count_brualdi = 80 if quick else 500
    count_reductions = 60 if quick else 240

    main = run_fuzz(FuzzConfig(seed=ACCEPTANCE_SEED, count=count_main, modes=("msmt",)))
    c = main["counters"]
    ok1 = (
        main["discrepancy_count"] == 0
        and c.get("msmt_feasible", 0) > 0
        and c.get("msmt_infeasible", 0) > 0
    )
    record(ok1, (
        f"{count_main} instances, feasible={c.get('msmt_feasible', 0)}, "
        f"infeasible={c.get('msmt_infeasible', 0)}, "
        f"discrepancies={main['discrepancy_count']}"
    ))
    record(main["discrepancy_count"] == 0 and c.get("minmax_checked", 0) > 0, (
        f"min-max verified on {c.get('minmax_checked', 0)} lifted demands, "
        f"{c.get('minmax_equals_total', 0)} feasible ones matched the degree total"
    ))
    ok3 = (
        main["discrepancy_count"] == 0
        and c.get("base_lift_classified", 0) == count_main
        and c.get("full_lift_classified", 0) == c.get("msmt_feasible", 0)
    )
    record(ok3, (
        f"base lift classified on {c.get('base_lift_classified', 0)}/{count_main}, "
        f"full lift on {c.get('full_lift_classified', 0)}/{c.get('msmt_feasible', 0)} feasible"
    ))

    ore_checked, ore_problems = ore_exhaustive_slab()
    ore_fuzz = run_fuzz(FuzzConfig(seed=ACCEPTANCE_SEED + 1, count=count_ore, modes=("ore",)))
    ok4 = not ore_problems and ore_fuzz["discrepancy_count"] == 0
    record(ok4, (
        f"exhaustive slab {ore_checked} cases, random {count_ore} instances, "
        f"problems={len(ore_problems) + ore_fuzz['discrepancy_count']}"
    ))

    bru = run_fuzz(FuzzConfig(seed=ACCEPTANCE_SEED + 2, count=count_brualdi, modes=("brualdi",)))
    bc = bru["counters"]
    ok5 = (
        bru["discrepancy_count"] == 0
        and bc.get("brualdi_feasible", 0) > 0
        and bc.get("brualdi_infeasible", 0) > 0
    )
    record(ok5, (
        f"{count_brualdi} cases, feasible={bc.get('brualdi_feasible', 0)}, "
        f"infeasible={bc.get('brualdi_infeasible', 0)}, "
        f"discrepancies={bru['discrepancy_count']}"
    ))

    red = run_fuzz(
        FuzzConfig(seed=ACCEPTANCE_SEED + 3, count=count_reductions, modes=("reductions",))
    )
    prefix_checked, prefix_problems = ryser_prefix_slab(
        random_count=60 if quick else 300
    )
    ok6 = red["discrepancy_count"] == 0 and not prefix_problems
    record(ok6, (
        f"{count_reductions} reduction cases, prefix agreement on {prefix_checked} specs, "
        f"problems={red['discrepancy_count'] + len(prefix_problems)}"
    ))

    witness_total = (
        c.get("witnesses_validated", 0)
        + bc.get("matchings_validated", 0)
        + red["counters"].get("witnesses_validated", 0)
        + red["counters"].get("matchings_validated", 0)
    )
    ok7 = (
        main["discrepancy_count"] == 0
        and bru["discrepancy_count"] == 0
        and red["discrepancy_count"] == 0
        and witness_total > 0
    )
    record(ok7, f"{witness_total} witnesses and matchings re-validated independently")

    cert_total = (
        c.get("certs_rechecked", 0)
        + ore_fuzz["counters"].get("certs_rechecked", 0)
        + bc.get("certs_rechecked", 0)
        + red["counters"].get("certs_rechecked", 0)
    )
    record(ok1 and ok4 and ok5 and ok6 and cert_total > 0,
           f"{cert_total} certificates recomputed from scratch")
    return results
