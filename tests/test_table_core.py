"""Differential tests of the table-max core against the literal quantifier scans.

The checkers fold nested families into superset/subset-max tables and decide
the rank and supermodularity axioms through their local forms; the oracles in
``tests/oracles.py`` walk every inequality one by one.  Verdicts, certificates
(compared by repr) and the reported axiom violations must agree exactly.
"""

from __future__ import annotations

import random

from termrank import feasibility
from termrank.bigraph import Bigraph, DegreeSpec, GroundSets, bipartite_complement, bit_halves
from termrank.feasibility import (
    _NEG,
    Instance,
    _best_outer,
    _ore_table,
    _subset_max,
    _superset_max,
    check_fully,
    check_ms_only,
    check_msmt,
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
    literal_best_outer,
    literal_fully,
    literal_ms_only,
    literal_msmt,
    literal_ore_table,
    literal_rank_violation,
    literal_ryser_gen,
    literal_ryser_novel,
    literal_supermodular_violation,
    nested_pair_family,
)

CFG = FuzzConfig(max_s=4, max_t=4)


def test_bit_halves_pair_every_mask_once():
    for n in range(6):
        size = 1 << n
        for i in range(n):
            bit = 1 << i
            lows = []
            for lo, hi in bit_halves(size, bit):
                lo_idx, hi_idx = range(size)[lo], range(size)[hi]
                assert [h - l for l, h in zip(lo_idx, hi_idx)] == [bit] * len(lo_idx)
                lows += lo_idx
            assert sorted(lows) == [m for m in range(size) if not m & bit]


def _pointwise_max(vals: list[int], free: int, upward: bool) -> list[int]:
    """Each entry's maximum over the masks above (or below) it that differ
    from it only in the ``free`` bits, walked one submask at a time."""
    out = []
    for m, v in enumerate(vals):
        rest = free & ~m if upward else free & m
        sub = rest
        while sub:
            v = max(v, vals[m | sub] if upward else vals[m ^ sub])
            sub = (sub - 1) & rest
        out.append(v)
    return out


def test_transforms_match_pointwise_maxima():
    rng = random.Random(7)
    kept = lifted = 0  # excluded entries that stay excluded / take a real value
    for n in (1, 2, 3, 4, 5, 12):
        size = 1 << n
        # _NEG marks an excluded entry, as in check_brualdi's cover table
        vals = [_NEG if rng.random() < 0.3 else rng.randint(-9, 9) for _ in range(size)]
        free = [i for i in range(n) if rng.random() < 0.6]
        free_mask = sum(1 << i for i in free)
        sup, sub = vals[:], vals[:]
        _superset_max(sup, free)
        _subset_max(sub, free)
        assert sup == _pointwise_max(vals, free_mask, upward=True)
        assert sub == _pointwise_max(vals, free_mask, upward=False)
        for v, out in zip(vals * 2, sup + sub):
            kept += v == out == _NEG
            lifted += v == _NEG != out
    assert kept and lifted


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


def _cap_matroid(rng: random.Random, kind: str, ground: tuple[str, ...]) -> Matroid:
    n = len(ground)
    if kind == "uniform":
        return Matroid.uniform(ground, rng.randint(0, n))
    if kind == "partition":
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        blocks = [ground[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        return Matroid.partition(ground, blocks, [rng.randint(0, len(b)) for b in blocks])
    return _random_matroid_of_rank(rng, ground, rng.randint(0, n))


def test_folded_tables_match_the_literal_tables_at_the_cap(monkeypatch):
    """The row-wise Ore table and the monotone fold of the nested-pair cover
    table against their unfolded forms, with the nested family's count, at
    every cap shape, for an empty, a half and a complete initial graph."""
    passes = []

    def recording_superset_max(table, positions):
        positions = list(positions)
        passes.append(positions)
        _superset_max(table, positions)

    monkeypatch.setattr(feasibility, "_superset_max", recording_superset_max)
    rng = random.Random(20261018)
    folded = set()
    for n_s, n_t in ((6, 6), (5, 7), (2, 10), (10, 2), (1, 11), (11, 1)):
        grounds = _grounds(n_s, n_t)
        for density in (0.0, 0.5, 1.0):
            initial = _random_initial(rng, grounds, density)
            degrees = _random_degrees(rng, grounds, 3, host=bipartite_complement(initial))
            inst = Instance.make(grounds, initial=initial, degrees=degrees)
            assert _ore_table(inst.complement, degrees) == literal_ore_table(inst)
            for kind in ("uniform", "partition", "random"):
                rank_s = _cap_matroid(rng, kind, grounds.s_ids).rank
                rank_t = _cap_matroid(rng, kind, grounds.t_ids).rank
                passes.clear()
                assert _best_outer(initial, rank_s, rank_t) == literal_best_outer(
                    inst, rank_s, rank_t
                )
                # one superset-max, over the bits of the class that is not folded
                [bits_run] = passes
                small_side = range(n_s) if n_s <= n_t else range(n_s, n_s + n_t)
                assert bits_run == list(small_side)
                folded.add("T" if n_s <= n_t else "S")
    assert folded == {"S", "T"}


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


def test_full_supermodularity_matches_the_pairwise_scan():
    rng = random.Random(20260904)
    outcomes = set()
    for _ in range(1500):
        n = rng.randint(1, 5)
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
        outcomes.add(got is None)
    assert outcomes == {True, False}
