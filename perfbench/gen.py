"""Seeded instance generators for the benchmark workloads.

Instances are built as instance-file dicts from ``random.Random`` alone, so
the same seed gives byte-identical inputs whatever the program under test
does internally.  Every instance is valid input and its verdict is fixed by
construction, which keeps the verdict mix of every round the same and gives
the correctness gate a reference for every answer:

- a feasible instance carries a planted graph that fits the degrees and,
  with the initial edges, covers the demand (for the term-rank modes: holds
  a matching covering bases of both matroids);
- an infeasible instance carries an obstruction that no checker is needed
  to see: a degree larger than the node's room in its host, a demand above
  the left matroid's full rank, fewer active left nodes than the target, or
  active left nodes that span less than the matroid rank.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import combinations

MAX_DEGREE = 3
MAX_TRIES = 2000  # rejection-sampling limit per instance


@dataclass
class Case:
    """One benchmark op's input: the file body plus what the generator knows."""

    family: str
    data: dict
    expect: str  # "feasible" or "infeasible", by construction
    planted: list | None = None  # edges [[s, t], ...] of a feasible instance's plant
    matching: list | None = None  # a basis-covering matching inside a brualdi graph
    cmd: str = "check"


def ids(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(n)]


def random_graph(rng: random.Random, cells, density: float, cap: int | None = None):
    edges = [e for e in cells if rng.random() < density]
    if cap is not None and len(edges) > cap:
        rng.shuffle(edges)
        edges = sorted(edges[:cap])
    return edges


def grid(rows, cols):
    return [(i, j) for i in rows for j in cols]


def degrees_of(edges, n_s: int, n_t: int) -> tuple[list[int], list[int]]:
    m_s = [0] * n_s
    m_t = [0] * n_t
    for i, j in edges:
        m_s[i] += 1
        m_t[j] += 1
    return m_s, m_t


def plant(rng: random.Random, host, n_s: int, n_t: int, keep: float, base=()):
    """``base`` plus a random part of ``host``, every degree at most MAX_DEGREE."""
    m_s, m_t = degrees_of(base, n_s, n_t)
    chosen = list(base)
    order = [e for e in host if e not in set(base)]
    rng.shuffle(order)
    for i, j in order:
        if rng.random() < keep and m_s[i] < MAX_DEGREE and m_t[j] < MAX_DEGREE:
            chosen.append((i, j))
            m_s[i] += 1
            m_t[j] += 1
    return sorted(chosen)


def random_matching(rng: random.Random, rows, cols, size: int):
    return sorted(zip(rng.sample(list(rows), size), rng.sample(list(cols), size)))


# ---------------------------------------------------------------------------
# matroids: descriptors plus the rank function they describe


KINDS = ("free", "uniform", "partition", "explicit")


def matroid_desc(rng: random.Random, ground: list[str], rank: int | None = None,
                 kind: str | None = None) -> dict:
    """A descriptor of the given or a random kind; with ``rank`` given, its
    full rank equals ``rank`` (a free matroid only when ``rank`` is |ground|)."""
    n = len(ground)
    if kind == "free" and rank is not None and rank < n:
        kind = "uniform"
    if kind is None:
        kind = rng.choice(KINDS if rank is None else
                          KINDS[:3] if rank == n else KINDS[1:])
    if kind == "free":
        return {"kind": "free"}
    if kind == "uniform":
        return {"kind": "uniform", "k": rng.randint(0, n) if rank is None else rank}
    if kind == "partition":
        count = rng.randint(1, n)
        assign = [rng.randrange(count) for _ in range(n)]
        blocks = [[ground[i] for i in range(n) if assign[i] == b] for b in range(count)]
        blocks = [b for b in blocks if b]
        if rank is None:
            caps = [rng.randint(0, len(b)) for b in blocks]
        else:
            caps = [0] * len(blocks)
            for _ in range(rank):
                open_blocks = [k for k, b in enumerate(blocks) if caps[k] < len(b)]
                caps[rng.choice(open_blocks)] += 1
        return {"kind": "partition", "blocks": blocks, "caps": caps}
    # uniform on a random support, loops elsewhere, listed by its bases
    k = rng.randint(1, min(3, n)) if rank is None else rank
    if k == 0:
        return {"kind": "uniform", "k": 0}
    support = rng.sample(range(n), rng.randint(k, min(n, k + 3)))
    return {"kind": "explicit",
            "bases": [[ground[i] for i in sorted(c)] for c in combinations(support, k)]}


def single_basis(ground: list[str], support) -> dict:
    """Free on ``support``, loops elsewhere."""
    return {"kind": "explicit", "bases": [[ground[i] for i in sorted(support)]]}


def rank_table(desc: dict, ground: list[str]) -> list[int]:
    n = len(ground)
    index = {name: i for i, name in enumerate(ground)}
    kind = desc["kind"]
    if kind == "free":
        return [a.bit_count() for a in range(1 << n)]
    if kind == "uniform":
        return [min(desc["k"], a.bit_count()) for a in range(1 << n)]
    if kind == "partition":
        masks = [sum(1 << index[x] for x in block) for block in desc["blocks"]]
        return [sum(min(c, (a & m).bit_count()) for m, c in zip(masks, desc["caps"]))
                for a in range(1 << n)]
    masks = [sum(1 << index[x] for x in basis) for basis in desc["bases"]]
    return [max((a & b).bit_count() for b in masks) for a in range(1 << n)]


def random_basis(rng: random.Random, rank: list[int], n: int) -> list[int]:
    chosen = 0
    for i in rng.sample(range(n), n):
        if rank[chosen | 1 << i] > rank[chosen]:
            chosen |= 1 << i
    return [i for i in range(n) if chosen >> i & 1]


def corank(rank: list[int]) -> list[int]:
    full = len(rank) - 1
    return [rank[full] - rank[full ^ y] for y in range(full + 1)]


TRANSFORMS = ("corank", "shift", "truncate")


def demand_json(rng: random.Random, t_ids: list[str], kind: str | None,
                transform: str) -> tuple[dict, list[int]]:
    """A demand, as a 'matroid_T' descriptor or an explicit table, plus its values.

    Complementary matroid ranks are fully supermodular; a downward shift
    keeps that, and positive truncation keeps positive intersecting
    supermodularity only.
    """
    desc = matroid_desc(rng, t_ids, kind=kind)
    values = corank(rank_table(desc, t_ids))
    if transform == "corank":
        return {"matroid_T": desc}, values
    delta = rng.randint(1, 2)
    values = [v - delta for v in values]
    if transform == "truncate":
        values = [max(v, 0) for v in values]
    table = {}
    for y, v in enumerate(values):
        table[",".join(sorted(t_ids[j] for j in range(len(t_ids)) if y >> j & 1))] = v
    return {"demand": {"ground": list(t_ids), "values": table}}, values


def covers(edges, n_s: int, n_t: int, rank_s: list[int], demand: list[int]) -> bool:
    """Every right subset's neighborhood has matroid rank at least its demand."""
    adj = [0] * n_t
    for i, j in edges:
        adj[j] |= 1 << i
    nbr = [0] * (1 << n_t)
    for y in range(1, 1 << n_t):
        low = y & -y
        nbr[y] = nbr[y ^ low] | adj[low.bit_length() - 1]
    return all(rank_s[nbr[y]] >= demand[y] for y in range(1 << n_t))


# ---------------------------------------------------------------------------
# one generator per mode


def _file(mode: str, n_s: int, n_t: int) -> dict:
    return {"mode": mode, "S": ids("s", n_s), "T": ids("t", n_t)}


def _names(data: dict, edges):
    return [[data["S"][i], data["T"][j]] for i, j in edges]


def _put_degrees(data: dict, m_s, m_t=None) -> None:
    data["m_S"] = dict(zip(data["S"], m_s))
    if m_t is not None:
        data["m_T"] = dict(zip(data["T"], m_t))


def _case(family: str, data: dict, feasible: bool, witness=None, matching=None) -> Case:
    return Case(family, data, "feasible" if feasible else "infeasible",
                None if witness is None else _names(data, witness),
                None if matching is None else _names(data, matching))


@dataclass
class Style:
    """The choices that set an op's cost, fixed per workload cell.

    They come from a stream that depends only on the cell, so every round
    and every seed has the same mix of costly and cheap variants; the seed
    draws the graphs, degrees, blocks and supports.
    """

    density: float
    kind: str
    transform: str

    @classmethod
    def of(cls, cell: str, fully: bool = False) -> "Style":
        pick = random.Random(f"style:{cell}")
        return cls(pick.choice((0.0, 0.15, 0.3)), pick.choice(KINDS),
                   pick.choice(TRANSFORMS[:2] if fully else TRANSFORMS))


def gen_augmentation(rng: random.Random, mode: str, n_s: int, n_t: int, feasible: bool,
                     style: Style) -> Case:
    """``ore``, ``msmt``, ``ms_only`` or ``fully`` on fixed grounds.

    Infeasible ``ore`` asks one left node for one edge more than its host
    offers; the demand modes ask for a demand above the left matroid's full
    rank, which no neighborhood can reach.  Feasible draws take a random
    demand kind, since the style's kind may be one no plant can cover.
    """
    for _ in range(MAX_TRIES):
        data = _file(mode, n_s, n_t)
        h0 = random_graph(rng, grid(range(n_s), range(n_t)), style.density)
        if h0:
            data["h0"] = _names(data, h0)
        host = [e for e in grid(range(n_s), range(n_t)) if e not in set(h0)]
        witness = plant(rng, host, n_s, n_t, rng.choice((0.4, 0.6, 0.8)))
        m_s, m_t = degrees_of(witness, n_s, n_t)
        if mode == "ore":
            if not feasible:
                i = rng.randrange(n_s)
                extra = sum(1 for s, _ in host if s == i) + 1 - m_s[i]
                m_s[i] += extra
                for _ in range(extra):
                    m_t[rng.randrange(n_t)] += 1
            _put_degrees(data, m_s, m_t)
            return _case(f"ore/{n_s}x{n_t}", data, feasible, witness if feasible else None)
        _put_degrees(data, m_s, None if mode == "ms_only" else m_t)
        dem, values = demand_json(rng, data["T"], None if feasible else style.kind, style.transform)
        data.update(dem)
        if feasible:
            data["matroid_S"] = matroid_desc(rng, data["S"])
            rank_s = rank_table(data["matroid_S"], data["S"])
            if not covers(witness + h0, n_s, n_t, rank_s, values):
                continue
        else:
            top = max(values)
            if top < 1:
                continue
            data["matroid_S"] = matroid_desc(rng, data["S"], rank=rng.randint(0, min(top - 1, n_s)))
        return _case(f"{mode}/{n_s}x{n_t}", data, feasible, witness if feasible else None)
    raise RuntimeError(f"no {mode} {n_s}x{n_t} draw in {MAX_TRIES} tries with {style}")


def gen_ryser(rng: random.Random, n_s: int, n_t: int, target: int, feasible: bool) -> Case:
    """Classic term rank; the degrees are read off a graph, so they are realizable.

    A feasible draw's graph holds a matching of size ``target``; with the
    target at |S| = |T| every degree is 1, 2 or 3.  An infeasible draw puts
    all edges on ``target - 1`` left nodes, which caps the term rank of
    every realization below the target.
    """
    data = _file("ryser", n_s, n_t)
    if feasible:
        matched = random_matching(rng, range(n_s), range(n_t), target)
        edges = plant(rng, grid(range(n_s), range(n_t)), n_s, n_t, rng.choice((0.2, 0.35)), matched)
    else:
        rows = rng.sample(range(n_s), target - 1)
        edges = plant(rng, grid(rows, range(n_t)), n_s, n_t, rng.choice((0.4, 0.7)))
    _put_degrees(data, *degrees_of(edges, n_s, n_t))
    data["target_rank"] = target
    return _case(f"ryser/{n_s}x{n_t}", data, feasible, edges if feasible else None)


def gen_ryser_gen(rng: random.Random, n_s: int, n_t: int, target: int, feasible: bool,
                  style: Style) -> Case:
    """Matroidal term-rank augmentation with both matroids of rank ``target``.

    An infeasible draw leaves some left nodes without initial or new edges
    and gives the left matroid a single basis that uses one of them.
    """
    for _ in range(MAX_TRIES):
        data = _file("ryser_gen", n_s, n_t)
        idle = set() if feasible else set(rng.sample(range(n_s), rng.randint(1, max(1, n_s - target))))
        active = [i for i in range(n_s) if i not in idle]
        h0 = random_graph(rng, grid(active, range(n_t)), style.density)
        if h0:
            data["h0"] = _names(data, h0)
        host = [e for e in grid(active, range(n_t)) if e not in set(h0)]
        witness = plant(rng, host, n_s, n_t, rng.choice((0.4, 0.6, 0.8)))
        _put_degrees(data, *degrees_of(witness, n_s, n_t))
        data["matroid_T"] = matroid_desc(rng, data["T"], rank=target, kind=style.kind)
        data["target_rank"] = target
        if feasible:
            data["matroid_S"] = matroid_desc(rng, data["S"], rank=target, kind=style.kind)
            rank_s = rank_table(data["matroid_S"], data["S"])
            demand = corank(rank_table(data["matroid_T"], data["T"]))
            if not covers(witness + h0, n_s, n_t, rank_s, demand):
                continue
        else:
            support = {rng.choice(sorted(idle))}
            support |= set(rng.sample([i for i in range(n_s) if i not in support], target - 1))
            data["matroid_S"] = single_basis(data["S"], support)
        return _case(f"ryser_gen/{n_s}x{n_t}", data, feasible, witness if feasible else None)
    raise RuntimeError(f"no ryser_gen {n_s}x{n_t} draw in {MAX_TRIES} tries with {style}")


def gen_brualdi(rng: random.Random, n_s: int, n_t: int, feasible: bool, style: Style,
                max_edges: int = 14) -> Case:
    """A graph and two matroids of common rank.

    A feasible graph contains a matching between a basis of each matroid;
    an infeasible one leaves a left node bare that the left matroid's only
    basis needs.
    """
    data = _file("brualdi", n_s, n_t)
    ell = rng.randint(1, min(n_s, n_t, 4))
    data["matroid_T"] = matroid_desc(rng, data["T"], rank=ell, kind=style.kind)
    matching = None
    if feasible:
        data["matroid_S"] = matroid_desc(rng, data["S"], rank=ell, kind=style.kind)
        b_s = random_basis(rng, rank_table(data["matroid_S"], data["S"]), n_s)
        b_t = random_basis(rng, rank_table(data["matroid_T"], data["T"]), n_t)
        matching = random_matching(rng, b_s, b_t, ell)
        extra = random_graph(rng, grid(range(n_s), range(n_t)), rng.choice((0.1, 0.2, 0.3)),
                             cap=max_edges - ell)
        graph = sorted(set(matching) | set(extra))
    else:
        idle = rng.randrange(n_s)
        rest = [i for i in range(n_s) if i != idle]
        graph = random_graph(rng, grid(rest, range(n_t)), rng.choice((0.2, 0.4, 0.6)), cap=max_edges)
        data["matroid_S"] = single_basis(data["S"], {idle} | set(rng.sample(rest, ell - 1)))
    data["h0"] = _names(data, graph)
    return _case(f"brualdi/{n_s}x{n_t}", data, feasible, matching=matching)


# ---------------------------------------------------------------------------
# workload rounds: a fixed set of cells, drawn from a per-round generator


CHECK_SHAPES = ((6, 6), (4, 8), (2, 10), (10, 2))
CHECK_MODES = ("ore", "msmt", "ms_only", "fully", "ryser", "brualdi", "ryser_gen")
SOLVE_PLANTED = (((6, 6), (5, 7)), ("msmt", "fully", "ore"))
SOLVE_TERM_RANK = ((6, 6), (5, 7), (4, 8))
FUZZ_MODES = ("msmt", "ms_only", "ore", "brualdi", "reductions")
FUZZ_BOUND = 6


# Families that the seed code cannot answer within the op budget (ops.py):
# the perfect-target term-rank solves end in RecursionError or run past 3 s,
# msmt's subpartition tail at 2x10 runs for seconds to minutes on a quarter
# of the draws, and the cover branch-and-bound on planted fully 6x6 solves
# took 10 s on one draw in 25.  Timed ops must answer, so these families are
# drawn only for the known-gaps probe: one draw each per run, at the budget,
# outside the timed region (run.py).  fuzz_cap's gaps are strata, not
# families (``fuzz_heavy``).
GAPS = {
    "check_cap": ("msmt/2x10",),
    "solve_cap": ("fully/6x6", "ryser/6x6/high", "ryser_gen/6x6/high", "ryser_gen/4x8/high"),
}
GAP_ROUND = -1  # the round index of the probe's draws; timed rounds count from 0


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    """Each round has its own stream, so rounds do not depend on how many ran before."""
    return random.Random(f"{workload}:{seed}:{index}")


def _split(workload: str, cases: list[Case], gaps: bool) -> list[Case]:
    """The timed cells of a round, or with ``gaps`` its known-gap cells."""
    return [case for case in cases if (case.family in GAPS[workload]) == gaps]


def check_round(seed: int, index: int, gaps: bool = False) -> list[Case]:
    """All seven modes on each cap shape, half feasible and half infeasible.

    Every mode is feasible on two shapes and infeasible on the other two, by
    a pattern fixed across rounds, so every round has the same mix.  The
    timed rounds leave out the known gaps (``GAPS``).
    """
    rng = round_rng("check_cap", seed, index)
    cases = []
    for a, (n_s, n_t) in enumerate(CHECK_SHAPES):
        for b, mode in enumerate(CHECK_MODES):
            feasible = (a + b) % 2 == 0
            style = Style.of(f"check_cap:{mode}/{n_s}x{n_t}", fully=mode == "fully")
            target = rng.randint(1, min(n_s, n_t))
            if mode == "ryser":
                cases.append(gen_ryser(rng, n_s, n_t, target, feasible))
            elif mode == "ryser_gen":
                cases.append(gen_ryser_gen(rng, n_s, n_t, target, feasible, style))
            elif mode == "brualdi":
                cases.append(gen_brualdi(rng, n_s, n_t, feasible, style))
            else:
                cases.append(gen_augmentation(rng, mode, n_s, n_t, feasible, style))
    return _split("check_cap", cases, gaps)


def solve_round(seed: int, index: int, gaps: bool = False) -> list[Case]:
    """Planted-feasible cover solves, then term-rank solves at high and low targets.

    High targets are min(|S|, |T|); at 6x6 the classic mode's high-target
    draws are the perfect-target family.  Classic draws are feasible;
    ``ryser_gen`` draws are feasible or infeasible by a fixed pattern, so
    every round has the same verdict mix.  The timed rounds leave out the
    known gaps (``GAPS``), among them the perfect-target family.
    """
    rng = round_rng("solve_cap", seed, index)
    cases = []
    shapes, modes = SOLVE_PLANTED
    for (n_s, n_t) in shapes:
        for mode in modes:
            style = Style.of(f"solve_cap:{mode}/{n_s}x{n_t}", fully=mode == "fully")
            cases.append(gen_augmentation(rng, mode, n_s, n_t, True, style))
    for a, (n_s, n_t) in enumerate(SOLVE_TERM_RANK):
        for b, level in enumerate(("high", "low")):
            target = min(n_s, n_t) if level == "high" else rng.randint(1, 2)
            style = Style.of(f"solve_cap:ryser_gen/{n_s}x{n_t}/{level}")
            for case in (gen_ryser(rng, n_s, n_t, target, True),
                         gen_ryser_gen(rng, n_s, n_t, target, (a + b) % 2 == 0, style)):
                case.family = f"{case.family}/{level}"
                cases.append(case)
    for case in cases:
        case.cmd = "solve"
    return _split("solve_cap", cases, gaps)


# The first draw of the harness's reductions case: which equivalence it tests.
REDUCTION_KINDS = ("fully", "matroid_forms", "uniform_forms")
# The number of choices in the draw after the shape: the density of the
# initial graph (msmt, ms_only) or of the host graph (ore, brualdi).
DENSITY_CHOICES = {"msmt": 3, "ms_only": 3, "ore": 4, "brualdi": 4}


def fuzz_stratum(mode: str, fuzz_seed: int) -> tuple:
    """What ``run_fuzz`` draws first from ``fuzz_seed``.

    That is the shape and then the graph density's index; for
    ``reductions``, the kind of case and then the shape.  Every stratum is
    equally likely.
    """
    rng = random.Random(fuzz_seed)
    if mode == "reductions":
        return (rng.choice(REDUCTION_KINDS), rng.randint(1, FUZZ_BOUND), rng.randint(1, FUZZ_BOUND))
    shape = (rng.randint(1, FUZZ_BOUND), rng.randint(1, FUZZ_BOUND))
    return shape + (rng.randrange(DENSITY_CHOICES[mode]),)


# The modes that enumerate subpartitions of the right side.
FUZZ_GAP_MODES = ("msmt", "ms_only", "reductions")


def fuzz_heavy(mode: str, stratum: tuple) -> bool:
    """A stratum whose draws can run past the fuzz budget on the seed code.

    These are the subpartition modes with |T| of 5 or 6 and |S| + |T| at
    least 9.  In six draws per stratum they took up to 0.9 s at 4x6, 1.5 s
    at 6x5 and over 2 s at 5x6 and 6x6; single draws ran for over 90 s.
    """
    if mode not in FUZZ_GAP_MODES:
        return False
    n_s, n_t = stratum[1:] if mode == "reductions" else stratum[:2]
    return n_t >= 5 and n_s + n_t >= 9


def _strata(mode: str) -> list[tuple]:
    shapes = [(a, b) for a in range(1, FUZZ_BOUND + 1) for b in range(1, FUZZ_BOUND + 1)]
    if mode == "reductions":
        strata = [(k,) + shape for k in REDUCTION_KINDS for shape in shapes]
    else:
        strata = [shape + (d,) for shape in shapes for d in range(DENSITY_CHOICES[mode])]
    strata = [stratum for stratum in strata if not fuzz_heavy(mode, stratum)]
    random.Random(f"fuzz_cap:strata:{mode}").shuffle(strata)  # the same order for every seed
    return strata


FUZZ_STRATA = {mode: _strata(mode) for mode in FUZZ_MODES}


@functools.lru_cache(maxsize=2 * len(FUZZ_MODES))
def _fuzz_seeds(seed: int, mode: str, cycle: int) -> dict[tuple, int]:
    """A derived seed for every stratum of one pass through the cycle."""
    rng = random.Random(f"fuzz_cap:{seed}:{mode}:{cycle}")
    kept = set(FUZZ_STRATA[mode])
    found: dict[tuple, int] = {}
    while len(found) < len(kept):
        fuzz_seed = rng.getrandbits(31)
        stratum = fuzz_stratum(mode, fuzz_seed)
        if stratum in kept:
            found.setdefault(stratum, fuzz_seed)
    return found


def _fuzz_case(mode: str, fuzz_seed: int) -> Case:
    case = Case(f"fuzz/{mode}", {"mode": mode, "seed": fuzz_seed}, "clean")
    case.cmd = "fuzz"
    return case


def fuzz_round(seed: int, index: int, gaps: bool = False) -> list[Case]:
    """One harness fuzz instance per mode, each with its own derived seed.

    The harness draws an instance's shape uniformly from 1..6 per side and
    then its graph density, and op cost depends steeply on both, so a run
    that happened to draw more large, empty instances would read slower.
    The rounds are stratified instead: round ``index`` takes the next
    stratum of a fixed cycle through all of them, with a derived seed whose
    first harness draws give that stratum.  Every stratum keeps its share
    and the instance inside it still comes from the seed.

    The cycle leaves out the heavy strata (``fuzz_heavy``).  With ``gaps``,
    the round is one draw from the heavy strata of each subpartition mode
    instead, for the known-gaps probe.
    """
    if gaps:
        cases = []
        for mode in FUZZ_GAP_MODES:
            rng = random.Random(f"fuzz_cap:{seed}:gaps:{mode}:{index}")
            fuzz_seed = rng.getrandbits(31)
            while not fuzz_heavy(mode, fuzz_stratum(mode, fuzz_seed)):
                fuzz_seed = rng.getrandbits(31)
            cases.append(_fuzz_case(mode, fuzz_seed))
        return cases
    cases = []
    for mode in FUZZ_MODES:
        strata = FUZZ_STRATA[mode]
        cycle, position = divmod(index, len(strata))
        cases.append(_fuzz_case(mode, _fuzz_seeds(seed, mode, cycle)[strata[position]]))
    return cases


ROUNDS = {"check_cap": check_round, "solve_cap": solve_round, "fuzz_cap": fuzz_round}
