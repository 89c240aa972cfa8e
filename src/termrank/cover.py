"""Constructive solvers: exact minimum arc covers with dual certificates, the
demand-lift construction of a witness graph, an independent brute-force
constructor, and matchings covering matroid bases.

The arc-cover search is exact branch-and-bound with a node budget; its
optimality certificate is an independent family (the exhaustive maximum in
``min_arc_cover``, the meter family in ``build_via_cover``) whose total is
asserted equal to the cover's size on every call.  The builders decide
nothing twice: a caller that has already decided an instance builds it with
``build_via_cover``, and comparing a decision with the brute-force
constructor is the harness's ``brute_witness`` cross-check.  Likewise the
lift's crossing supermodularity, the hypothesis under which a cover of the
degree total exists, is the harness's ``lift_crossing`` cross-check; the
builders scan it only when a search or a postcondition fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bigraph import Bigraph, bits, fits, graph_union, union_table
from .errors import InstanceError, InfeasibleError, PreconditionError, TermrankError
from .feasibility import (
    Instance,
    ViolationCert,
    check_msmt,
    check_ryser_gen,
    common_rank,
    corank_instance,
)
from .matroid import Matroid
from .setfun import (
    SetFunction,
    base_demand,
    classify_supermodular,
    full_demand,
    nonneighbor_set,
    st_independent_pair,
)


# Branch-and-bound nodes one ``certified_cover`` search may visit: over 100
# times the largest search measured at the ground cap (3,245 nodes), so a lift
# that breaks the covering lemma fails in seconds, not by exhaustive search.
COVER_NODE_BUDGET = 500_000
# Memo states one ``_max_independent_family`` search may hold: about four times
# the largest measured at the ground cap (526,251 states, 2.8 s, ~150 MB, on a
# ryser_gen 6x6 lift), so a search too large fails in seconds, not by memory.
FAMILY_STATE_BUDGET = 2_000_000
# Search nodes one ``construct_brute`` call may visit: over 100 times the
# largest search measured over the timed solve_cap and fuzz_cap rounds of
# perfbench seeds 1-10 (91,259 nodes, on an ms_only 6x6 fuzz draw).  At about
# 7 us a node an instance too large for the exhaustive cross-check fails in
# about a minute, not after an unbounded search.
BRUTE_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class ArcCover:
    """A multiset of left-to-right arcs whose in-degree dominates a demand."""

    arcs: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class DualFamily:
    """An independent family certifying that no smaller cover exists."""

    sets: tuple[int, ...]
    value: int


def arc_enters(arc: tuple[int, int], v_mask: int, n_s: int) -> bool:
    s, t = arc
    return not v_mask >> s & 1 and bool(v_mask >> (n_s + t) & 1)


def in_degree(arcs, v_mask: int, n_s: int) -> int:
    return sum(1 for arc in arcs if arc_enters(arc, v_mask, n_s))


def covers(arcs, demand: SetFunction, n_s: int) -> bool:
    """In-degree at least the demanded value on every positive set."""
    return all(
        in_degree(arcs, mask, n_s) >= demand.values[mask]
        for mask in demand.positive_masks
    )


def minimalize_cover(arcs, demand: SetFunction, n_s: int) -> tuple[tuple[int, int], ...]:
    """Drop arcs (ascending scan) while the remainder still covers the demand."""
    kept = list(arcs)
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1 :]
        if covers(trial, demand, n_s):
            kept = trial
        else:
            i += 1
    return tuple(kept)


def _max_independent_family(
    masks: list[int], weights: list[int], s_all: int, t_upper: int
) -> tuple[int, tuple[int, ...]]:
    """Exhaustive maximum-total independent family over the given sets.

    Memoized on the set of still-available candidates; ties prefer inclusion,
    so the returned family is deterministic.  The search runs on an explicit
    stack, since the chain of candidates can be longer than Python's
    recursion limit; the memo keeps each state's value and whether its lowest
    candidate is taken, and the family is read back from those choices.
    Raises ``TermrankError`` past ``FAMILY_STATE_BUDGET`` memo states.
    """
    k = len(masks)
    incompat = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if not st_independent_pair(masks[i], masks[j], s_all, t_upper):
                incompat[i] |= 1 << j
                incompat[j] |= 1 << i

    full = (1 << k) - 1
    value: dict[int, int] = {0: 0}
    taken: set[int] = set()
    stack = [full]
    while stack:
        avail = stack.pop()
        if avail in value:
            continue
        low = avail & -avail
        idx = low.bit_length() - 1
        without = avail ^ low
        rest = without & ~incompat[idx]
        with_val = value.get(rest)
        without_val = value.get(without)
        if with_val is None or without_val is None:
            stack.append(avail)
            if without_val is None:
                stack.append(without)
            if with_val is None:
                stack.append(rest)
            continue
        with_val += weights[idx]
        if with_val >= without_val:
            value[avail] = with_val
            taken.add(avail)
        else:
            value[avail] = without_val
        if len(value) > FAMILY_STATE_BUDGET:
            raise TermrankError(
                f"independent family search exceeded its budget of {FAMILY_STATE_BUDGET:,} memo states"
            )

    fam = []
    avail = full
    while avail:
        low = avail & -avail
        idx = low.bit_length() - 1
        avail ^= low
        if avail | low in taken:
            fam.append(masks[idx])
            avail &= ~incompat[idx]
    return value[full], tuple(fam)


def _require_enterable(demand: SetFunction, n_s: int) -> tuple[int, int]:
    """The cheap cover guard: both classes present, an arc enters every positive set."""
    if n_s <= 0 or demand.n <= n_s:
        raise InstanceError("demand ground must contain both classes")
    s_all = (1 << n_s) - 1
    t_upper = ((1 << demand.n) - 1) ^ s_all
    for mask in demand.positive_masks:
        if mask & t_upper == 0 or s_all & ~mask == 0:
            raise PreconditionError(f"demand is positive on a set no arc enters (mask {mask})")
    return s_all, t_upper


def _require_crossing(demand: SetFunction, n_s: int) -> None:
    """The covering lemma's hypothesis, by a scan over every pair of positive sets."""
    violation = classify_supermodular(demand, "st_crossing", positively=True, n_s=n_s)
    if violation is not None:
        raise PreconditionError(
            f"demand is not positively crossing supermodular: masks {violation.x}, {violation.y}"
        )


def min_arc_cover(
    demand: SetFunction, n_s: int, stats: dict | None = None
) -> tuple[ArcCover, DualFamily]:
    """Minimum multiset of left-to-right arcs covering a crossing-supermodular demand.

    Requires the demand to be positively crossing supermodular and to vanish
    (or be negative) on sets no arc can enter.  Returns the cover together
    with the exhaustive maximum-value independent family that certifies it
    in ``certified_cover``.  The demand is arbitrary, so both are checked.
    """
    s_all, t_upper = _require_enterable(demand, n_s)
    _require_crossing(demand, n_s)
    positive = demand.positive_masks
    weights = [demand.values[m] for m in positive]
    value, sets = _max_independent_family(list(positive), weights, s_all, t_upper)
    family = DualFamily(sets, value)
    return certified_cover(demand, n_s, family, stats), family


def certified_cover(
    demand: SetFunction, n_s: int, family: DualFamily, stats: dict | None
) -> ArcCover:
    """Minimum arc cover of a demand that passed ``_require_enterable``.

    ``family`` is checked to be an independent family of positive sets worth
    its stated value, a lower bound on every cover.  The search stops at a
    cover of that size, prunes with the family's residual demand, and
    asserts the min-max identity: the cover's size equals the value.  It
    raises ``TermrankError`` past ``COVER_NODE_BUDGET`` nodes.
    """
    n_t = demand.n - n_s
    s_all = (1 << n_s) - 1
    t_upper = ((1 << demand.n) - 1) ^ s_all
    positive = list(demand.positive_masks)
    dual_value, sets = family.value, family.sets
    for idx, a in enumerate(sets):
        if demand.values[a] <= 0 or not all(
            st_independent_pair(a, b, s_all, t_upper) for b in sets[idx + 1 :]
        ):
            raise AssertionError("certifying family is not an independent family of positive sets")
    if sum(demand.values[m] for m in sets) != dual_value:
        raise AssertionError("certifying family value does not match its sets")
    if not positive:
        return ArcCover(())

    # has[b]: the positive sets holding ground bit b, as a bitmask over their indices,
    # read off one column of their binary digits; arc (i, j) enters has[n_s + j] - has[i]
    n = demand.n
    digits = "".join(format(m, f"0{n}b") for m in reversed(positive))
    has = [int(digits[n - 1 - b::n], 2) for b in range(n)]
    arcs = [(i, j) for i in range(n_s) for j in range(n_t)]
    arc_covers = [has[n_s + j] & ~has[i] for i, j in arcs]
    # the sets each arc enters, ascending, read off the binary digits
    arc_sets = [tuple(i for i, d in enumerate(bin(c)[:1:-1]) if d == "1") for c in arc_covers]

    dual_idx = [positive.index(m) for m in sets]

    residual = [demand.values[m] for m in positive]
    deficient = (1 << len(positive)) - 1  # every positive set is still short

    def apply_arc(a: int) -> None:
        nonlocal deficient
        for idx in arc_sets[a]:
            residual[idx] -= 1
            if residual[idx] == 0:
                deficient &= ~(1 << idx)

    def undo_arc(a: int) -> None:
        nonlocal deficient
        for idx in arc_sets[a]:
            if residual[idx] == 0:
                deficient |= 1 << idx
            residual[idx] += 1

    # Greedy cover for the initial upper bound: repeatedly take the arc
    # entering the most still-deficient sets.
    greedy: list[int] = []
    while deficient:
        best_arc, best_count = -1, 0
        for a in range(len(arcs)):
            count = (arc_covers[a] & deficient).bit_count()
            if count > best_count:
                best_arc, best_count = a, count
        greedy.append(best_arc)
        apply_arc(best_arc)
    for a in reversed(greedy):
        undo_arc(a)

    best_cover = greedy[:]
    best_size = len(greedy)
    if stats is not None:
        stats["cover_greedy"] = best_size

    if best_size > dual_value:
        chosen: list[int] = []
        # built once per search, not at every node's pivot choice
        entering_arcs: list[list[int]] = [[] for _ in positive]
        for a, idxs in enumerate(arc_sets):
            for idx in idxs:
                entering_arcs[idx].append(a)

        def lower_bound() -> int:
            # residual[i] > 0 exactly on the deficient sets, so the largest
            # residual is the largest deficiency
            fam_total = sum(max(residual[i], 0) for i in dual_idx)
            return max(max(residual), fam_total)

        nodes = 0

        def dfs() -> None:
            nonlocal best_cover, best_size, nodes
            nodes += 1
            if nodes > COVER_NODE_BUDGET:
                raise TermrankError(
                    f"cover search exceeded its budget of {COVER_NODE_BUDGET:,} "
                    "branch-and-bound nodes"
                )
            if best_size == dual_value:
                return
            if not deficient:
                if len(chosen) < best_size:
                    best_cover = chosen[:]
                    best_size = len(chosen)
                return
            if len(chosen) + lower_bound() >= best_size:
                return
            pivot, pivot_arcs = -1, None
            for idx in bits(deficient):
                entering = entering_arcs[idx]
                if pivot_arcs is None or len(entering) < len(pivot_arcs):
                    pivot, pivot_arcs = idx, entering
            order = sorted(
                pivot_arcs,
                key=lambda a: (-(arc_covers[a] & deficient).bit_count(), a),
            )
            for a in order:
                chosen.append(a)
                apply_arc(a)
                dfs()
                undo_arc(a)
                chosen.pop()

        dfs()

    if best_size != dual_value:
        raise AssertionError(
            f"min-max identity failed: cover {best_size} vs independent family {dual_value}"
        )
    cover = ArcCover(tuple(sorted(arcs[a] for a in best_cover)))
    if stats is not None:
        stats["cover_size"] = cover.size
    return cover


def matroid_covers(graph: Bigraph, matroid_s: Matroid, demand: SetFunction) -> bool:
    """rank(neighborhood of Y) reaches the demand of Y for every right subset."""
    nbr = union_table(graph.t_adj)
    return all(
        matroid_s.rank[nbr[y]] >= demand.values[y]
        for y in range(1 << graph.grounds.n_t)
    )


def construct_via_cover(inst: Instance, stats: dict | None = None) -> Bigraph:
    """Decide the augmentation condition, then build a witness graph.

    Raises ``InfeasibleError`` with the ``check_msmt`` certificate when the
    condition fails; otherwise returns ``build_via_cover``'s graph.
    """
    cert = check_msmt(inst)
    if cert is not None:
        raise InfeasibleError("instance fails the augmentation condition", cert)
    return build_via_cover(inst, stats)


def build_via_cover(inst: Instance, stats: dict | None) -> Bigraph:
    """Build a witness graph by lifting the demand and covering it minimally.

    The instance must pass the augmentation condition; this is not checked
    again.  The lift goes to ``build_from_lift``.
    """
    lifted = full_demand(
        base_demand(inst.initial, inst.degrees, inst.demand, inst.matroid_s),
        inst.initial,
        inst.degrees,
    )
    return build_from_lift(inst, lifted, stats)


def build_from_lift(inst: Instance, lifted: SetFunction, stats: dict | None) -> Bigraph:
    """Build a witness graph from the lifted demand of a feasible instance.

    The lift is then positively crossing supermodular, so a cover of the
    degree total exists (Frank and Jordan's min-max theorem).  That scan is
    the harness's ``lift_crossing`` cross-check; here it runs only when the
    search or the postconditions fail, to name the pair breaking the lemma.
    The cover is certified by the meter family, the non-neighbour sets of
    the left nodes of positive degree: no arc enters two of them, and their
    lifted values sum to the degree total.  The graph of a minimum cover
    fits the degrees, avoids the initial edges and covers the demand; the
    min-max identity and all three properties are asserted, with a greedy
    re-minimalization retry before giving up.
    """
    n_s = inst.grounds.n_s
    _require_enterable(lifted, n_s)
    meters = tuple(nonneighbor_set(inst.initial, i) for i in range(n_s) if inst.degrees.m_s[i])
    try:
        cover = certified_cover(lifted, n_s, DualFamily(meters, inst.degrees.gamma), stats)
    except (AssertionError, TermrankError):
        _require_crossing(lifted, n_s)
        raise
    graph = Bigraph(inst.grounds, cover.arcs)

    def post_ok(g: Bigraph) -> bool:
        plus = graph_union(g, inst.initial)
        return (
            fits(g, inst.degrees)
            and plus.simple
            and matroid_covers(plus, inst.matroid_s, inst.demand)
        )

    if not post_ok(graph):
        # A minimum cover is always minimal, but re-minimalize defensively:
        # the witness properties are proved for minimal covers.
        arcs = minimalize_cover(cover.arcs, lifted, inst.grounds.n_s)
        graph = Bigraph(inst.grounds, arcs)
        if not post_ok(graph):
            _require_crossing(lifted, n_s)
            raise AssertionError("cover-route witness violates its postconditions")
    return graph


def construct_brute(inst: Instance, stats: dict | None = None) -> Bigraph | None:
    """Exhaustive first-fit search over admissible subgraphs of the complement.

    Independent of the cover route: scans edges in lexicographic order,
    prunes on residual degrees, and returns the first degree-fitting subgraph
    whose union with the initial graph covers the demand, or None.  It
    raises ``TermrankError`` past ``BRUTE_NODE_BUDGET`` search nodes.
    """
    if inst.degrees is None:
        raise InstanceError("the brute-force constructor needs a degree specification")
    g = inst.grounds
    edges = list(inst.complement.edges)
    m = len(edges)
    residual_s = list(inst.degrees.m_s)
    residual_t = list(inst.degrees.m_t) if inst.degrees.m_t is not None else None

    suffix_s = [[0] * g.n_s for _ in range(m + 1)]
    suffix_t = [[0] * g.n_t for _ in range(m + 1)]
    for k in range(m - 1, -1, -1):
        s, t = edges[k]
        for i in range(g.n_s):
            suffix_s[k][i] = suffix_s[k + 1][i] + (1 if i == s else 0)
        for j in range(g.n_t):
            suffix_t[k][j] = suffix_t[k + 1][j] + (1 if j == t else 0)

    chosen: list[tuple[int, int]] = []
    found: list[Bigraph | None] = [None]
    nodes = 0

    def leaf() -> None:
        if any(residual_s):
            return
        if residual_t is not None and any(residual_t):
            return
        candidate = Bigraph(g, tuple(chosen))
        if inst.demand is not None:
            plus = graph_union(candidate, inst.initial)
            if not matroid_covers(plus, inst.matroid_s, inst.demand):
                return
        found[0] = candidate

    def dfs(k: int) -> None:
        nonlocal nodes
        if found[0] is not None:
            return
        nodes += 1
        if nodes > BRUTE_NODE_BUDGET:
            raise TermrankError(
                f"brute-force construction exceeded its budget of {BRUTE_NODE_BUDGET:,} search nodes"
            )
        if k == m:
            leaf()
            return
        for i in range(g.n_s):
            if residual_s[i] > suffix_s[k][i]:
                return
        if residual_t is not None:
            for j in range(g.n_t):
                if residual_t[j] > suffix_t[k][j]:
                    return
        s, t = edges[k]
        if residual_s[s] > 0 and (residual_t is None or residual_t[t] > 0):
            residual_s[s] -= 1
            if residual_t is not None:
                residual_t[t] -= 1
            chosen.append((s, t))
            dfs(k + 1)
            chosen.pop()
            residual_s[s] += 1
            if residual_t is not None:
                residual_t[t] += 1
        dfs(k + 1)

    dfs(0)
    if stats is not None:
        stats["brute_nodes"] = stats.get("brute_nodes", 0) + nodes
    return found[0]


def find_matching_covering_bases(
    graph: Bigraph, matroid_s: Matroid, matroid_t: Matroid, stats: dict | None = None
) -> tuple[tuple[int, int], ...] | None:
    """A matching whose endpoint sets are bases of the two matroids, or None.

    Backtracking over edges in lexicographic order; a branch dies as soon as
    the chosen endpoints plus every endpoint still reachable cannot span a
    basis on either side.
    """
    g = graph.grounds
    ell = common_rank(graph, matroid_s, matroid_t)
    if ell == 0:
        return ()
    edges = sorted(set(graph.edges))
    m = len(edges)
    rem_s = [0] * (m + 1)
    rem_t = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        s, t = edges[k]
        rem_s[k] = rem_s[k + 1] | (1 << s)
        rem_t[k] = rem_t[k + 1] | (1 << t)

    def dfs(k: int, used_s: int, used_t: int, chosen: list[tuple[int, int]]):
        if len(chosen) == ell:
            return tuple(chosen)
        if len(chosen) + (m - k) < ell:
            return None
        if matroid_s.rank[used_s | rem_s[k]] < ell:
            return None
        if matroid_t.rank[used_t | rem_t[k]] < ell:
            return None
        depth = len(chosen)
        for idx in range(k, m):
            s, t = edges[idx]
            sb, tb = 1 << s, 1 << t
            if used_s & sb or used_t & tb:
                continue
            if matroid_s.rank[used_s | sb] != depth + 1:
                continue
            if matroid_t.rank[used_t | tb] != depth + 1:
                continue
            chosen.append((s, t))
            result = dfs(idx + 1, used_s | sb, used_t | tb, chosen)
            if result is not None:
                return result
            chosen.pop()
        return None

    return dfs(0, 0, 0, [])


def solve_term_rank(
    inst: Instance, stats: dict | None = None
) -> tuple[Bigraph, tuple[tuple[int, int], ...]] | ViolationCert:
    """Decide the matroidal term-rank augmentation problem constructively.

    Decides once, by ``check_ryser_gen``, and returns its certificate on
    failure.  On success builds the witness graph through the cover route on
    ``corank_instance`` and extracts the basis-covering matching from the
    augmented graph.
    """
    cert = check_ryser_gen(inst, stats=stats)
    if cert is not None:
        return cert
    graph = build_via_cover(corank_instance(inst), stats)
    plus = graph_union(graph, inst.initial)
    matching = find_matching_covering_bases(plus, inst.matroid_s, inst.matroid_t, stats=stats)
    if matching is None:
        raise AssertionError("witness graph does not contain a basis-covering matching")
    return graph, matching
