"""Differential tests of the table-max core against the literal quantifier scans.

The checkers take separable maxima, fold nested families into flat tables and
decide the rank and supermodularity axioms through their local forms; the
oracles in ``tests/oracles.py`` walk every inequality one by one.  Verdicts,
certificates (compared by repr) and the reported axiom violations must agree
exactly.
"""

from __future__ import annotations

import random

from termrank import feasibility, matroid
from termrank.bigraph import (
    Bigraph,
    DegreeSpec,
    GroundSets,
    bipartite_complement,
    locally_supermodular,
    popcounts,
)
from termrank.errors import PreconditionError
from termrank.feasibility import (
    Instance,
    _cut_table,
    _gain_columns,
    check_brualdi,
    check_fully,
    check_ms_only,
    check_msmt,
    check_ore,
    check_ore0,
    check_ryser,
    check_ryser_gen,
    check_ryser_novel,
    ryser_table,
)
from termrank.harness import (
    FuzzConfig,
    _grounds,
    _random_degrees,
    _random_grounds,
    _random_initial,
    _random_matroid,
    _random_matroid_of_rank,
    random_ms_only_instance,
    random_msmt_instance,
)
from termrank.matroid import Matroid, validate_rank_table
from termrank.setfun import SetFunction, classify_supermodular, from_corank

from .oracles import (
    literal_brualdi,
    literal_fully,
    literal_fully_counted,
    literal_ms_only,
    literal_msmt,
    literal_ore,
    literal_ore0,
    literal_ore_table,
    literal_rank_violation,
    literal_ryser,
    literal_ryser_gen,
    literal_ryser_novel,
    literal_supermodular_violation,
    nested_pair_family,
    sliced_locally_supermodular,
    sliced_locally_valid,
    tabled_nested_pair,
)

CFG = FuzzConfig(max_s=4, max_t=4)


def _local_cases(n: int) -> dict[str, tuple[list[int], bool]]:
    """Tables over n bits whose local supermodularity is known, by name.

    Built from q(A) = C(|A|, 2), whose local difference is 1 at every pair
    and lane: the violations sit at the highest pair (every lane), at the
    highest lane of every pair, or only at the highest pair's highest lane,
    the last lane it tests.  Scaled and shifted copies span +-10^12 and
    +-2^70 around a violation of 1.  The steep tables put their whole
    spread into one local difference, at each lane width's limits.
    """
    size, full, top = 1 << n, (1 << n) - 1, 0b11 << max(n - 2, 0)
    q = [c * (c - 1) // 2 for c in popcounts(n)]
    both = [int(a & top == top) for a in range(size)]
    at_full = [int(a == full) for a in range(size)]
    broken = n >= 2
    one = [s - b - f for s, b, f in zip(q, both, at_full)]
    modular = [sum((-1) ** i * 10**11 for i in range(n) if a >> i & 1) for a in range(size)]
    return {
        "supermodular": (q, True),
        "shifted": ([10**9 * v - 10**12 for v in q], True),
        "highest pair": ([s - 2 * b for s, b in zip(q, both)], not broken),
        "highest lanes": ([s - 3 * f for s, f in zip(q, at_full)], not broken),
        "one lane": (one, not broken),
        "wide one lane": (
            [10**10 * (s - b) - f + m for s, b, f, m in zip(q, both, at_full, modular)],
            not broken,
        ),
        "wider than a word": ([2**70 * (s - b) - f for s, b, f in zip(q, both, at_full)], not broken),
        **{
            f"steep {sign * step}": ([sign * step * b for b in both], sign > 0 or not broken)
            for step in (63, 64, 127, 128, 2**15, 2**31, 2**62, 2**63)
            for sign in (1, -1)
        },
    }


def test_packed_kernel_matches_the_sliced_scan():
    rng = random.Random(20261018)
    seen = set()
    for n in range(13):
        for name, (table, expected) in _local_cases(n).items():
            assert locally_supermodular(table, n) is expected, (n, name)
            assert sliced_locally_supermodular(table, n) is expected, (n, name)
            seen.add(expected)
        for _ in range(12 if n <= 8 else 3):
            base = list(_local_cases(n)[rng.choice(("supermodular", "shifted"))][0])
            if rng.random() < 0.3:
                base = [rng.randint(-3, 3) for _ in range(1 << n)]
            for _ in range(rng.choice((0, 1, 2))):
                base[rng.randrange(1 << n)] += rng.choice((-2, -1, 1, 2))
            got = locally_supermodular(base, n)
            assert got == sliced_locally_supermodular(base, n), (n, base)
            seen.add(got)
    assert seen == {True, False}


def test_packed_rank_axioms_match_the_sliced_scan():
    # tables that satisfy R1, the precondition of the local rank axioms
    rng = random.Random(20261019)
    outcomes = set()
    for n in range(13):
        ground = tuple(f"e{i}" for i in range(n))
        sizes = popcounts(n)
        for _ in range(10 if n <= 8 else 3):
            table = list(_random_matroid(rng, ground).rank) if n else [0]
            for _ in range(rng.choice((0, 1, 1, 2)) if n else 0):
                a = rng.randrange(1, 1 << n)
                table[a] = min(max(table[a] + rng.choice((-1, 1)), 0), sizes[a])
            got = matroid._locally_valid(n, table)
            assert got == sliced_locally_valid(n, table), (n, table)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_ryser_table_matches_the_pointwise_left_hand_side():
    rng = random.Random(13)
    for _ in range(60):
        grounds = _random_grounds(rng, 4, 4)
        degrees = _random_degrees(rng, grounds, 3)
        ell = rng.randint(0, grounds.n_t)
        table = ryser_table(degrees, ell)
        for y in range(1 << grounds.n_t):
            for x in range(1 << grounds.n_s):
                nx, ny = x.bit_count(), y.bit_count()
                lhs = degrees.sum_s(x) + degrees.sum_t(y) - nx * ny + ell - nx - ny
                assert table[x | y << grounds.n_s] == lhs


def _idle(inst: Instance) -> Instance:
    """The same instance with every degree 0.

    With nothing to add, the cut part of each inequality is at most 0 and the
    degree total is 0, so a certificate's left-hand side is the table maximum
    itself whenever the initial graph alone misses the condition.
    """
    g = inst.grounds
    zeros = DegreeSpec(g, (0,) * g.n_s, (0,) * g.n_t)
    return Instance.make(
        g, initial=inst.initial, degrees=zeros, matroid_s=inst.matroid_s,
        demand=inst.demand, matroid_t=inst.matroid_t, target_rank=inst.target_rank,
    )


def _ryser_gen_instance(rng: random.Random) -> Instance:
    grounds = _random_grounds(rng, CFG.max_s, CFG.max_t)
    ell = rng.randint(0, min(grounds.n_s, grounds.n_t))
    initial = _random_initial(rng, grounds, rng.choice((0.0, 0.2, 0.4, 0.6)))
    degrees = _random_degrees(rng, grounds, CFG.max_degree, host=bipartite_complement(initial))
    inst = Instance.make(
        grounds,
        initial=initial,
        degrees=degrees,
        matroid_s=_random_matroid_of_rank(rng, grounds.s_ids, ell),
        matroid_t=_random_matroid_of_rank(rng, grounds.t_ids, ell),
        target_rank=ell,
    )
    return _idle(inst) if rng.random() < 0.7 else inst


def _fully_instance(rng: random.Random) -> Instance:
    """A fully supermodular demand: a shifted corank plus a random modular term."""
    inst = random_msmt_instance(rng, CFG, keep_fully=True)
    g = inst.grounds
    weights = [rng.randint(-1, 2) for _ in range(g.n_t)]
    values = tuple(
        v + sum(w for j, w in enumerate(weights) if t >> j & 1)
        for t, v in enumerate(inst.demand.values)
    )
    inst = Instance.make(
        g, initial=inst.initial, degrees=inst.degrees, matroid_s=inst.matroid_s,
        demand=SetFunction(g.t_ids, values),
    )
    return _idle(inst) if rng.random() < 0.5 else inst


def test_fully_certificates_match_the_literal_scan():
    rng = random.Random(20260901)
    kinds = set()
    for _ in range(150):
        inst = _fully_instance(rng)
        assert inst.demand_fully
        cert = check_fully(inst)
        assert repr(cert) == repr(literal_fully(inst))
        kinds.add(None if cert is None else cert.which)
    assert kinds == {None, "ore", "fully"}


def test_packing_certificates_match_the_literal_scan():
    rng = random.Random(20260903)
    kinds = set()
    multi_part = 0
    for i in range(200):
        literal = literal_ms_only if i % 2 else literal_msmt
        check = check_ms_only if i % 2 else check_msmt
        draw = random_ms_only_instance if i % 2 else random_msmt_instance
        inst = draw(rng, CFG)
        if rng.random() < 0.5:
            inst = _idle(inst)
        stats: dict = {}
        cert = check(inst, stats=stats)
        expected, evals = literal(inst)
        assert repr(cert) == repr(expected)
        assert stats == {"ineq_evals": evals}
        kinds.add(None if cert is None else cert.which)
        multi_part += cert is not None and len(cert.parts) >= 2
    assert kinds == {None, "msmt", "ms_only_degree", "ms_only"}
    assert multi_part > 0


def test_nested_pair_certificates_match_the_literal_scan():
    rng = random.Random(20260902)
    kinds = set()
    for _ in range(200):
        inst = _ryser_gen_instance(rng)
        cert = check_ryser_gen(inst)
        assert repr(cert) == repr(literal_ryser_gen(inst))
        ell = inst.target_rank
        novel = check_ryser_novel(inst, ell)
        assert repr(novel) == repr(literal_ryser_novel(inst, ell))
        kinds.add(None if cert is None else cert.which)
        kinds.add(None if novel is None else novel.which)
    assert kinds == {None, "ore", "ryser_gen", "ryser_novel"}


def test_ryser_gen_counts_every_nested_inequality():
    g = GroundSets(("s1", "s2", "s3"), ("t1", "t2", "t3"))
    inst = Instance.make(
        g,
        initial=Bigraph(g, ((0, 0), (1, 1))),
        degrees=DegreeSpec(g, (0, 1, 0), (0, 0, 1)),
        matroid_s=Matroid.partition(g.s_ids, [["s1", "s2"], ["s3"]], [1, 1]),
        matroid_t=Matroid.uniform(g.t_ids, 2),
    )
    stats: dict = {}
    cert = check_ryser_gen(inst, stats=stats)
    assert (cert.which, cert.x, cert.y, cert.xp, cert.yp, cert.lhs) == ("ryser_gen", 2, 0, 3, 0, 2)
    nested = sum(1 for _ in nested_pair_family(inst, 2, inst.matroid_s.rank_of, inst.matroid_t.rank_of))
    # the cut condition's 2^6 pairs come first, then the nested family
    assert stats == {"ineq_evals": 640}
    assert nested == 640 - 64


def _counted(check, *args):
    """A checker's certificate and its ``ineq_evals``."""
    stats: dict = {}
    return check(*args, stats=stats), stats["ineq_evals"]


def _same(got, expected) -> str | None:
    """Compare (certificate, count) pairs by repr; the certificate's kind."""
    assert repr(got) == repr(expected)
    return None if got[0] is None else got[0].which


def test_separable_maxima_match_the_literal_scans_at_the_cap(monkeypatch):
    """The separable maxima, the flat fully / nested-pair tables and the folded
    vertex-cover table against the literal scans at every cap shape, for an
    empty, a half and a complete initial graph, with drawn and with idle
    degrees (zero gains, so ties): certificates by repr and ``ineq_evals``.
    The Ore-type checkers enumerate the smaller class, so both orientations
    run."""
    enumerated: list[tuple[int, int]] = []

    def recording_gain_columns(n_row, w_col, col_adj):
        enumerated.append((n_row, len(w_col)))
        return _gain_columns(n_row, w_col, col_adj)

    monkeypatch.setattr(feasibility, "_gain_columns", recording_gain_columns)
    rng = random.Random(20261018)
    kinds, orientations = set(), set()
    for n_s, n_t in ((6, 6), (5, 7), (2, 10), (10, 2), (1, 11), (11, 1)):
        grounds = _grounds(n_s, n_t)
        smaller = (min(n_s, n_t), max(n_s, n_t))
        for density in (0.0, 0.5, 1.0):
            initial = _random_initial(rng, grounds, density)
            degrees = _random_degrees(rng, grounds, 3, host=bipartite_complement(initial))
            ell = rng.randint(0, min(n_s, n_t))
            ms = _random_matroid_of_rank(rng, grounds.s_ids, ell)
            mt = _random_matroid_of_rank(rng, grounds.t_ids, ell)
            weights = [rng.randint(-1, 2) for _ in range(n_t)]
            demand = SetFunction(grounds.t_ids, tuple(
                v + sum(w for j, w in enumerate(weights) if t >> j & 1)
                for t, v in enumerate(from_corank(mt).values)
            ))
            drawn = Instance.make(
                grounds, initial=initial, degrees=degrees, matroid_s=ms, matroid_t=mt,
                target_rank=ell,
            )
            cut_table = _cut_table(degrees.m_s, degrees.m_t, drawn.complement.t_adj)
            assert cut_table == literal_ore_table(drawn)
            for inst in (drawn, _idle(drawn)):
                deg = inst.degrees
                enumerated.clear()
                got = _counted(check_ore, inst.complement, deg)
                assert enumerated == [smaller]
                orientations.add("S" if n_s <= n_t else "T")
                kinds.add(_same(got, (literal_ore(inst), 1 << grounds.n_v)))
                ore0 = literal_ore0(deg)
                kinds.add(_same(_counted(check_ore0, deg), ore0))
                try:
                    got = _counted(check_ryser, deg, ell)
                except PreconditionError as exc:
                    assert repr(exc.cert) == repr(ore0[0])
                else:
                    cert, evals = literal_ryser(deg, ell)
                    kinds.add(_same(got, (cert, evals + ore0[1])))
                fully = Instance.make(
                    grounds, initial=initial, degrees=deg, matroid_s=ms, demand=demand
                )
                assert fully.demand_fully
                kinds.add(_same(_counted(check_fully, fully), literal_fully_counted(fully)))
                kinds.add(_same(
                    _counted(check_ryser_gen, inst),
                    tabled_nested_pair(inst, "ryser_gen", ell, ms.rank, mt.rank),
                ))
                sizes_s = [a.bit_count() for a in range(1 << n_s)]
                sizes_t = [b.bit_count() for b in range(1 << n_t)]
                kinds.add(_same(
                    _counted(check_ryser_novel, inst, ell),
                    tabled_nested_pair(inst, "ryser_novel", ell, sizes_s, sizes_t),
                ))
            got = _counted(check_brualdi, initial, ms, mt)
            kinds.add(_same(got, literal_brualdi(initial, ms, mt)))
    assert orientations == {"S", "T"}
    assert kinds == {None, "ore", "ore0", "ryser", "fully", "ryser_gen", "ryser_novel", "brualdi"}


def _random_table(rng: random.Random, n: int) -> tuple[int, ...]:
    """A matroid rank table, often broken in one or two entries."""
    kind = rng.random()
    ground = tuple(f"e{i}" for i in range(n))
    if kind < 0.3:
        bases = [rng.sample(range(n), min(n, 2)) for _ in range(rng.randint(1, 3))]
        table = [max((a & sum(1 << i for i in b)).bit_count() for b in bases) for a in range(1 << n)]
    else:
        table = list(_random_matroid(rng, ground).rank)
    for _ in range(rng.choice((0, 1, 1, 2))):
        table[rng.randrange(1 << n)] += rng.choice((-1, 1))
    return tuple(table)


def test_rank_validation_matches_the_pairwise_scan():
    rng = random.Random(20260903)
    axioms = set()
    for _ in range(1500):
        n = rng.randint(1, 5)
        table = _random_table(rng, n)
        got = validate_rank_table(n, table)
        assert got == literal_rank_violation(n, table)
        axioms.add(None if got is None else got.axiom)
    assert axioms == {None, "R1", "R2", "R3"}
    for n in (6, 7, 8):
        axioms = set()
        for _ in range(40):
            table = _random_table(rng, n)
            got = validate_rank_table(n, table)
            assert got == literal_rank_violation(n, table)
            axioms.add(None if got is None else got.axiom)
        assert axioms == {None, "R1", "R2", "R3"}, n


def test_full_supermodularity_matches_the_pairwise_scan():
    rng = random.Random(20260904)
    outcomes = set()
    for draw in range(1500 + 3 * 40):
        n = rng.randint(1, 5) if draw < 1500 else 6 + (draw - 1500) // 40
        ground = tuple(f"t{i}" for i in range(n))
        if rng.random() < 0.3:
            vals = [rng.randint(-2, 3) for _ in range(1 << n)]
        else:
            vals = list(from_corank(_random_matroid(rng, ground)).values)
            for _ in range(rng.choice((0, 1, 1, 2))):
                vals[rng.randrange(1 << n)] += rng.choice((-1, 1))
        p = SetFunction(ground, tuple(vals))
        got = classify_supermodular(p, "full")
        assert got == literal_supermodular_violation(p.values, n)
        outcomes.add((n > 5, got is None))
    assert outcomes == {(False, True), (False, False), (True, True), (True, False)}
