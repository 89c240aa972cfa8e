"""Independent naive implementations used as test oracles.

Everything here works on plain tuples, sets, and itertools so that a bug in
the package's bitmask machinery cannot hide in its own oracle.  The literal
quantifier scans at the end index subsets by integer masks, but walk them
with plain ranges and rebuild cuts, neighbourhoods and covers edge by edge;
from the package they take only the result types and the rank tables.
"""

from __future__ import annotations

import operator
from itertools import combinations

from termrank.feasibility import ViolationCert
from termrank.matroid import RankViolation
from termrank.setfun import SupermodularViolation


def subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in combinations(items, r))


def naive_neighborhood(edges, t_subset) -> frozenset:
    return frozenset(s for s, t in edges if t in t_subset)


def naive_cut(edges, s_subset, t_subset) -> int:
    return sum(1 for s, t in edges if s in s_subset and t in t_subset)


def is_matching(edge_list) -> bool:
    left = [s for s, _ in edge_list]
    right = [t for _, t in edge_list]
    return len(set(left)) == len(left) and len(set(right)) == len(right)


def naive_matching_number(edges) -> int:
    edges = sorted(set(edges))
    best = 0
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for combo in combinations(edges, r):
            if is_matching(combo):
                best = r
                break
    return best


def naive_bases(rank_of, n) -> list[frozenset]:
    full = rank_of(frozenset(range(n)))
    out = []
    for sub in subsets(range(n)):
        if len(sub) == full and rank_of(sub) == full:
            out.append(sub)
    return out


def naive_corank_via_bases(rank_of, n, t_subset) -> int:
    return min(len(t_subset & basis) for basis in naive_bases(rank_of, n))


def rank_over_names(matroid):
    """Adapt a package matroid to a frozenset-of-indices rank callable."""

    def rank_of(index_set: frozenset) -> int:
        mask = 0
        for i in index_set:
            mask |= 1 << i
        return matroid.rank[mask]

    return rank_of


def naive_base_lift(h0_edges, n_s, n_t, m_t, demand_of, rank_of):
    """Literal evaluation of the both-sided demand lift over frozenset pairs.

    demand_of and rank_of take frozensets of T- and S-indices respectively.
    Returns a dict keyed by (frozenset S-part, frozenset T-part).
    """
    result = {}
    h0_deg_t = {j: sum(1 for _, t in h0_edges if t == j) for j in range(n_t)}
    for s_part in subsets(range(n_s)):
        for t_part in subsets(range(n_t)):
            closed = all(s in s_part for s, t in h0_edges if t in t_part)
            if not closed or not t_part:
                result[(s_part, t_part)] = 0
                continue
            value = demand_of(t_part) - rank_of(s_part)
            if len(t_part) == 1:
                (j,) = t_part
                value = max(value, m_t[j] - len(s_part) + h0_deg_t[j])
            result[(s_part, t_part)] = value
    return result


def _closed_mask_slack(h0, demand, matroid_s):
    """(S-part, T-part, slack) of every full-ground mask no initial arc enters, mask by mask."""
    g = h0.grounds
    out = {}
    for v_mask in range(1 << g.n_v):
        s_part, t_part = v_mask & g.s_all, v_mask >> g.n_s
        if all(s_part >> s & 1 for s, t in h0.edges if t_part >> t & 1):
            out[v_mask] = (s_part, t_part, demand.values[t_part] - matroid_s.rank[s_part])
    return out


def literal_base_demand(h0, spec, demand, matroid_s) -> tuple[int, ...]:
    """``base_demand``'s values, one full-ground mask at a time."""
    vals = [0] * (1 << h0.grounds.n_v)
    for v_mask, (s_part, t_part, value) in _closed_mask_slack(h0, demand, matroid_s).items():
        if t_part == 0:
            continue
        if t_part & (t_part - 1) == 0:  # single right node
            j = t_part.bit_length() - 1
            degree_slack = spec.m_t[j] - s_part.bit_count() + h0.t_degree(j)
            value = max(value, degree_slack)
        vals[v_mask] = value
    return tuple(vals)


def naive_subgraph_exists(
    host_edges, m_s, m_t, *, n_t=None, h0_edges=(), demand_of=None, rank_of=None
):
    """Exhaustive search by edge-count combinations, not by DFS.

    Looks for a subgraph of the host with the exact degrees whose union with
    the initial edges satisfies the neighborhood-rank demand (when given).
    """
    host_edges = sorted(set(host_edges))
    gamma = sum(m_s)
    if m_t is not None and sum(m_t) != gamma:
        return False
    if n_t is None:
        n_t = len(m_t) if m_t is not None else 0
    for combo in combinations(host_edges, gamma):
        ok = True
        for i, want in enumerate(m_s):
            if sum(1 for s, _ in combo if s == i) != want:
                ok = False
                break
        if ok and m_t is not None:
            for j, want in enumerate(m_t):
                if sum(1 for _, t in combo if t == j) != want:
                    ok = False
                    break
        if not ok:
            continue
        if demand_of is not None:
            combined = list(combo) + list(h0_edges)
            for t_part in subsets(range(n_t)):
                nbrs = frozenset(s for s, t in combined if t in t_part)
                if rank_of(nbrs) < demand_of(t_part):
                    ok = False
                    break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# literal quantifier scans: the plain enumerations of the checkers' families,
# kept as oracles for the table-max core.  Each family is walked in the
# documented order (right subsets ascending, then left subsets, then inner
# sets ascending) and only a strictly larger left-hand side replaces the
# incumbent, so the payload is the first maximiser.


def _first_max(family):
    best = None
    for lhs, payload in family:
        if best is None or lhs > best[0]:
            best = (lhs, payload)
    return best


def _mask_sum(values, mask) -> int:
    return sum(v for i, v in enumerate(values) if mask >> i & 1)


def _host_cut(inst):
    """cut(x, y) in the complement of the initial graph, counted edge by edge."""
    g = inst.grounds
    initial = set(inst.initial.edges)
    host = [(s, t) for s in range(g.n_s) for t in range(g.n_t) if (s, t) not in initial]

    def cut(x, y):
        return sum(1 for s, t in host if x >> s & 1 and y >> t & 1)

    return cut


def _ore_lhs(inst):
    deg, g = inst.degrees, inst.grounds
    cut = _host_cut(inst)
    s_sums = [_mask_sum(deg.m_s, x) for x in range(1 << g.n_s)]
    t_sums = [_mask_sum(deg.m_t, y) for y in range(1 << g.n_t)]
    return lambda x, y: s_sums[x] + t_sums[y] - cut(x, y)


def _pairs(g):
    for y in range(1 << g.n_t):
        for x in range(1 << g.n_s):
            yield x, y


def literal_ore(inst):
    """First violated (x, y) of the cut condition in the complement, or None."""
    lhs_of = _ore_lhs(inst)
    lhs, (x, y) = _first_max((lhs_of(x, y), (x, y)) for x, y in _pairs(inst.grounds))
    gamma = inst.degrees.gamma
    return None if lhs <= gamma else ViolationCert("ore", x=x, y=y, lhs=lhs, rhs=gamma)


def literal_fully(inst):
    """The fully supermodular condition by its triple loop over (y, x, t0)."""
    return literal_fully_counted(inst)[0]


def literal_fully_counted(inst):
    """``literal_fully`` with the number of inequalities walked: the 2^n pairs
    of the cut condition, then, when it holds, every triple (x, y, t0)."""
    ore = literal_ore(inst)
    g = inst.grounds
    evals = 1 << (g.n_s + g.n_t)
    if ore is not None:
        return ore, evals
    lhs_of = _ore_lhs(inst)
    rank, dem = inst.matroid_s.rank, inst.demand.values
    # the initial neighbourhood of every right set, edge by edge
    nbr = [0] * (1 << g.n_t)
    for t0 in range(1 << g.n_t):
        for s, t in inst.initial.edges:
            if t0 >> t & 1:
                nbr[t0] |= 1 << s

    # the right sets outside each y, ascending
    outside = []
    for y in range(1 << g.n_t):
        rest, t0 = (1 << g.n_t) - 1 - y, 0
        outside.append([0])
        while t0 != rest:
            t0 = (t0 - rest) & rest
            outside[-1].append(t0)
    best = None
    for x, y in _pairs(g):
        base = lhs_of(x, y)
        # the inequalities of (x, y) in scan order; the first largest one counts
        row = [base + dem[t0] - rank[x | nbr[t0]] for t0 in outside[y]]
        evals += len(row)
        top = max(row)
        if best is None or top > best[0]:
            best = (top, (x, y, outside[y][row.index(top)]))
    lhs, (x, y, t0) = best
    gamma = inst.degrees.gamma
    if lhs <= gamma:
        return None, evals
    return ViolationCert("fully", x=x, y=y, parts=(t0,) if t0 else (), lhs=lhs, rhs=gamma), evals


def nested_pair_family(inst, ell, rank_s, rank_t):
    """Every (lhs, (x, y, xp, yp)) of the nested-pair condition, in scan order."""
    g = inst.grounds
    lhs_of = _ore_lhs(inst)
    edges = inst.initial.edges
    for x, y in _pairs(g):
        base = lhs_of(x, y)
        for yp in range(1 << g.n_t):
            if yp & y != y:
                continue
            for xp in range(1 << g.n_s):
                if xp & x != x:
                    continue
                if any(not (xp >> s & 1 or yp >> t & 1) for s, t in edges):
                    continue
                yield base + ell - rank_s(xp) - rank_t(yp), (x, y, xp, yp)


def literal_nested_pair(inst, which, ell, rank_s, rank_t):
    """``ryser_gen`` / ``ryser_novel`` by the four nested loops (cut condition first)."""
    ore = literal_ore(inst)
    if ore is not None:
        return ore
    lhs, (x, y, xp, yp) = _first_max(nested_pair_family(inst, ell, rank_s, rank_t))
    gamma = inst.degrees.gamma
    if lhs <= gamma:
        return None
    return ViolationCert(which, x=x, y=y, xp=xp, yp=yp, lhs=lhs, rhs=gamma)


def literal_ore_table(inst):
    """The cut condition's left-hand side of every (x, y), flat over
    ``x | y << n_s``, with each cut in the complement counted edge by edge."""
    lhs_of = _ore_lhs(inst)
    return [lhs_of(x, y) for x, y in _pairs(inst.grounds)]


def literal_best_outer(inst, rank_s, rank_t):
    """The best outer pair above every (x, y), and the nested family's size.

    Built as the unfolded cover table: -r_S(xp) - r_T(yp) over every
    ``xp | yp << n_s``, a large negative number where (xp, yp) misses an
    initial edge, then a superset-max over all |S| + |T| bits, one bit and
    one mask at a time.  Each covering (xp, yp) stands for the
    2^(|xp| + |yp|) nested quadruples below it.
    """
    g = inst.grounds
    neg = -(1 << 62)
    edges = inst.initial.edges
    table = []
    for xp, yp in _pairs(g):
        covers = all(xp >> s & 1 or yp >> t & 1 for s, t in edges)
        table.append(-rank_s[xp] - rank_t[yp] if covers else neg)
    count = sum(1 << bin(idx).count("1") for idx, v in enumerate(table) if v != neg)
    for i in range(g.n_s + g.n_t):
        bit = 1 << i
        for m in range(len(table)):
            if not m & bit and table[m | bit] > table[m]:
                table[m] = table[m | bit]
    return table, count


def tabled_nested_pair(inst, which, ell, rank_s, rank_t):
    """``literal_nested_pair`` from the unfolded tables, fast enough for the
    cap, with the number of inequalities behind it.

    The cut condition's table plus ``literal_best_outer`` gives every (x, y)
    its best nested left-hand side; the first maximum is the certificate's
    (x, y), and its outer pair is the first covering (xp, yp) above it, yp
    then xp ascending, that attains it.
    """
    g = inst.grounds
    gamma = inst.degrees.gamma
    ore_table = literal_ore_table(inst)
    evals = len(ore_table)
    lhs = max(ore_table)
    idx = ore_table.index(lhs)
    x, y = idx % (1 << g.n_s), idx >> g.n_s
    if lhs > gamma:  # the cut condition fails first
        return ViolationCert("ore", x=x, y=y, lhs=lhs, rhs=gamma), evals
    outer, count = literal_best_outer(inst, rank_s, rank_t)
    evals += count
    table = [a + b + ell for a, b in zip(ore_table, outer)]
    lhs = max(table)
    if lhs <= gamma:
        return None, evals
    idx = table.index(lhs)
    x, y = idx % (1 << g.n_s), idx >> g.n_s
    for yp in range(1 << g.n_t):
        for xp in range(1 << g.n_s):
            if xp & x != x or yp & y != y:
                continue
            if any(not (xp >> s & 1 or yp >> t & 1) for s, t in inst.initial.edges):
                continue
            if ore_table[idx] + ell - rank_s[xp] - rank_t[yp] == lhs:
                cert = ViolationCert(which, x=x, y=y, xp=xp, yp=yp, lhs=lhs, rhs=gamma)
                return cert, evals
    raise AssertionError("no outer pair attains the table maximum")


def literal_brualdi(graph, ms, mt):
    """The vertex-cover condition by its pair loop, with the number of covers."""
    ell = ms.rank[-1]
    family = [
        (ell - ms.rank[xp] - mt.rank[yp], (xp, yp))
        for xp, yp in _pairs(graph.grounds)
        if all(xp >> s & 1 or yp >> t & 1 for s, t in graph.edges)
    ]
    lhs, (xp, yp) = _first_max(family)
    cert = None if lhs <= 0 else ViolationCert("brualdi", xp=xp, yp=yp, lhs=lhs, rhs=0)
    return cert, len(family)


def _complete_host_scan(which, degrees, extra):
    """First maximiser over every (x, y) of sum_s(x) + sum_t(y) - |x||y| plus
    ``extra(|x|, |y|)``, and the number of pairs walked."""
    g = degrees.grounds
    s_sums = [_mask_sum(degrees.m_s, x) for x in range(1 << g.n_s)]
    t_sums = [_mask_sum(degrees.m_t, y) for y in range(1 << g.n_t)]

    def family():
        for x, y in _pairs(g):
            nx, ny = bin(x).count("1"), bin(y).count("1")
            yield s_sums[x] + t_sums[y] - nx * ny + extra(nx, ny), (x, y)

    lhs, (x, y) = _first_max(family())
    gamma = degrees.gamma
    cert = None if lhs <= gamma else ViolationCert(which, x=x, y=y, lhs=lhs, rhs=gamma)
    return cert, len(s_sums) * len(t_sums)


def literal_ore0(degrees):
    """``ore0`` by its pair loop: the cut condition of the complete host."""
    return _complete_host_scan("ore0", degrees, lambda nx, ny: 0)


def literal_ryser(degrees, ell):
    """The classic term-rank condition by its pair loop (no realizability test)."""
    return _complete_host_scan("ryser", degrees, lambda nx, ny: ell - nx - ny)


def set_partitions(mask: int):
    """All partitions of the bits of ``mask`` into non-empty blocks.

    Generated by restricted growth: each element joins the existing blocks in
    order before opening a new one, so the order is deterministic.
    """
    elems = [i for i in range(mask.bit_length()) if mask >> i & 1]
    if not elems:
        yield ()
        return

    blocks: list[int] = []

    def rec(idx: int):
        if idx == len(elems):
            yield tuple(blocks)
            return
        bit = 1 << elems[idx]
        for i in range(len(blocks)):
            blocks[i] |= bit
            yield from rec(idx + 1)
            blocks[i] ^= bit
        blocks.append(bit)
        yield from rec(idx + 1)
        blocks.pop()

    yield from rec(0)


def subpartitions(mask: int):
    """All families of non-empty pairwise disjoint blocks inside ``mask``.

    The empty family comes first; then partitions of every submask ascending.
    """
    for sub in range(mask + 1):
        if sub & mask == sub:
            yield from set_partitions(sub)


def _packings(parts, gains, avail, start=0):
    """Disjoint families drawn from ``parts`` inside ``avail``, with totals, in
    pre-order: the empty family first, then each part in turn followed by the
    families of later parts beside it."""
    yield (), 0
    for idx in range(start, len(parts)):
        p = parts[idx]
        if p & ~avail:
            continue
        for rest, total in _packings(parts, gains, avail & ~p, idx + 1):
            yield (p,) + rest, gains[p] + total


def _positive_parts(inst, x):
    """The parts with positive gain dem(p) - r(x + N0(p)) for left set ``x``,
    ascending, with their gains; neighbourhoods rebuilt edge by edge."""
    g = inst.grounds
    rank, dem = inst.matroid_s.rank, inst.demand.values
    gains = {}
    for part in range(1, 1 << g.n_t):
        nbr = 0
        for s, t in inst.initial.edges:
            if part >> t & 1:
                nbr |= 1 << s
        gain = dem[part] - rank[x | nbr]
        if gain > 0:
            gains[part] = gain
    return list(gains), gains


def literal_msmt(inst):
    """The general condition by one step per packing: (certificate or None, ineq_evals).

    Every (x, y), right subsets ascending, offers each packing of positive
    parts inside T - y; the first maximiser is the certificate.
    """
    g = inst.grounds
    lhs_of = _ore_lhs(inst)
    by_x = [_positive_parts(inst, x) for x in range(1 << g.n_s)]
    family = [
        (lhs_of(x, y) + total, (x, y, fam))
        for x, y in _pairs(g)
        for fam, total in _packings(*by_x[x], g.t_all ^ y)
    ]
    lhs, (x, y, parts) = _first_max(family)
    gamma = inst.degrees.gamma
    if lhs <= gamma:
        return None, len(family)
    return ViolationCert("msmt", x=x, y=y, parts=parts, lhs=lhs, rhs=gamma), len(family)


def literal_ms_only(inst):
    """The left-degree form: the per-node room bound, then one step per packing
    inside T: (certificate or None, ineq_evals)."""
    g = inst.grounds
    deg = inst.degrees
    loads = [m + sum(1 for s, _ in inst.initial.edges if s == i) for i, m in enumerate(deg.m_s)]
    worst, i = _first_max((load, i) for i, load in enumerate(loads))
    if worst > g.n_t:
        return ViolationCert("ms_only_degree", x=1 << i, lhs=worst, rhs=g.n_t), len(loads)
    family = [
        (_mask_sum(deg.m_s, x) + total, (x, fam))
        for x in range(1 << g.n_s)
        for fam, total in _packings(*_positive_parts(inst, x), g.t_all)
    ]
    lhs, (x, parts) = _first_max(family)
    evals = len(loads) + len(family)
    if lhs <= deg.gamma:
        return None, evals
    return ViolationCert("ms_only", x=x, parts=parts, lhs=lhs, rhs=deg.gamma), evals


def literal_ryser_gen(inst):
    ms, mt = inst.matroid_s, inst.matroid_t
    return literal_nested_pair(
        inst, "ryser_gen", ms.full_rank, lambda a: ms.rank[a], lambda b: mt.rank[b]
    )


def literal_ryser_novel(inst, ell):
    return literal_nested_pair(
        inst, "ryser_novel", ell, lambda a: a.bit_count(), lambda b: b.bit_count()
    )


def literal_rank_violation(n, rank):
    """The rank axioms by pairwise scans: R1 per set, then R2 and R3 per pair."""
    size = 1 << n
    if rank[0] != 0:
        return RankViolation("R1", (0,), f"rank of the empty set is {rank[0]}, not 0")
    for a in range(size):
        if rank[a] < 0:
            return RankViolation("R1", (a,), f"rank {rank[a]} is negative")
        if rank[a] > a.bit_count():
            return RankViolation("R1", (a,), f"rank {rank[a]} exceeds the set size {a.bit_count()}")
    for a in range(size):
        for b in range(size):
            if a & b == a and rank[a] > rank[b]:
                return RankViolation(
                    "R2", (a, b), f"rank drops from {rank[a]} to {rank[b]} on a superset"
                )
    for a in range(size):
        for b in range(a + 1, size):
            if rank[a] + rank[b] < rank[a | b] + rank[a & b]:
                return RankViolation(
                    "R3", (a, b),
                    f"{rank[a]}+{rank[b]} < {rank[a | b]}+{rank[a & b]} for union/intersection",
                )
    return None


def literal_supermodular_violation(vals, n):
    """First pair (a < b) with p(a) + p(b) > p(a & b) + p(a | b), or None."""
    size = 1 << n
    for a in range(size):
        for b in range(a + 1, size):
            if vals[a] + vals[b] > vals[a & b] + vals[a | b]:
                return SupermodularViolation(
                    "full", False, a, b, vals[a] + vals[b], vals[a & b] + vals[a | b]
                )
    return None


def _bit_halves(size, bit):
    """Slice pairs (lo, hi) over a table of ``size`` masks: position k of hi
    is position k of lo plus ``bit``, and the lo slices together hold every
    mask without ``bit`` once.  Low bits use strided slices, high bits
    contiguous blocks, whichever is fewer."""
    step = bit << 1
    if bit * step <= size:
        return [(slice(r, size, step), slice(r + bit, size, step)) for r in range(bit)]
    return [(slice(b, b + bit), slice(b + bit, b + step)) for b in range(0, size, step)]


def sliced_locally_supermodular(values, n):
    """The local supermodular inequalities by slice comparisons: each
    element's gain table, then every pair of gains one bit apart."""
    size = 1 << n
    for e in range(n):
        gain = [0] * size
        for lo, hi in _bit_halves(size, 1 << e):
            gain[lo] = map(operator.sub, values[hi], values[lo])
        for f in range(e + 1, n):
            for lo, hi in _bit_halves(size, 1 << f):
                if any(map(operator.gt, gain[lo], gain[hi])):
                    return False
    return True


def sliced_locally_valid(n, rank):
    """Local monotonicity and submodularity of a rank table, by slices."""
    size = 1 << n
    for e in range(n):
        for lo, hi in _bit_halves(size, 1 << e):
            if any(map(operator.gt, rank[lo], rank[hi])):
                return False
    return sliced_locally_supermodular([-r for r in rank], n)


def literal_subset_key(ground, mask):
    """A demand table's key for ``mask``: the names it holds, sorted, comma-joined."""
    return ",".join(sorted(ground[i] for i in range(len(ground)) if mask >> i & 1))


def literal_validate_witness(inst, graph):
    """``harness.validate_witness``, counting degrees and neighbourhoods edge by edge."""
    problems = []
    g = inst.grounds
    edges = list(graph.edges)
    if inst.degrees is not None:
        for i in range(g.n_s):
            got = sum(1 for s, _ in edges if s == i)
            if got != inst.degrees.m_s[i]:
                problems.append(f"degree of left node {i} is {got}, wanted {inst.degrees.m_s[i]}")
        if inst.degrees.m_t is not None:
            for j in range(g.n_t):
                got = sum(1 for _, t in edges if t == j)
                if got != inst.degrees.m_t[j]:
                    problems.append(f"degree of right node {j} is {got}, wanted {inst.degrees.m_t[j]}")
    combined = edges + list(inst.initial.edges)
    if len(set(combined)) != len(combined):
        problems.append("witness union with the initial graph has parallel edges")
    if inst.demand is not None:
        for r in range(g.n_t + 1):
            for combo in combinations(range(g.n_t), r):
                nbr_mask = 0
                for s, t in combined:
                    if t in combo:
                        nbr_mask |= 1 << s
                y_mask = sum(1 << j for j in combo)
                if inst.matroid_s.rank_of(nbr_mask) < inst.demand.value(y_mask):
                    problems.append(f"demand uncovered on right subset mask {y_mask}")
    return problems
