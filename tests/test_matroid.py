"""Rank tables, axiom validation, constructors, and the complementary rank."""

from __future__ import annotations

import random

import pytest

from termrank.errors import InstanceError
from termrank.matroid import (
    Matroid,
    corank,
    corank_values,
    enumerate_bases,
    restrict,
    validate_rank_table,
)
from termrank.setfun import classify_supermodular, from_corank

from .oracles import naive_corank_via_bases, rank_over_names, subsets


def random_matroids(seed=0, ground_sizes=(2, 3, 4, 5, 6), per_size=4):
    rng = random.Random(seed)
    out = []
    for n in ground_sizes:
        ground = tuple(f"e{i}" for i in range(n))
        out.append(Matroid.free(ground))
        out.append(Matroid.uniform(ground, rng.randint(0, n)))
        for _ in range(per_size):
            block_count = rng.randint(1, n)
            assignment = [rng.randrange(block_count) for _ in range(n)]
            blocks = [
                [ground[i] for i in range(n) if assignment[i] == b]
                for b in range(block_count)
            ]
            blocks = [b for b in blocks if b]
            caps = [rng.randint(0, len(b)) for b in blocks]
            out.append(Matroid.partition(ground, blocks, caps))
    return out


def test_uniform_examples():
    ground = ("a", "b", "c")
    free = Matroid.uniform(ground, 3)
    assert all(free.rank[m] == m.bit_count() for m in range(8))
    zero = Matroid.uniform(ground, 0)
    assert all(v == 0 for v in zero.rank)
    two = Matroid.uniform(ground, 2)
    assert two.rank[0b111] == 2


def test_built_tables_match_their_per_mask_formulas():
    rng = random.Random(20261020)
    for n in range(13):
        ground = tuple(f"e{i}" for i in range(n))
        size = 1 << n
        assert Matroid.free(ground).rank == tuple(a.bit_count() for a in range(size))
        for k in {0, n // 2, n}:
            assert Matroid.uniform(ground, k).rank == tuple(
                min(k, a.bit_count()) for a in range(size)
            )
        # blocks of at most three elements, so the partition has few bases
        order = rng.sample(range(n), n)
        blocks = [order[i : i + rng.randint(1, 3)] for i in range(0, n, 3)]
        blocks = [b for b in blocks if b]
        caps = [rng.randint(0, len(b)) for b in blocks]
        masks = [sum(1 << i for i in b) for b in blocks]
        part = Matroid.partition(ground, [[ground[i] for i in b] for b in blocks], caps)
        assert part.rank == tuple(
            sum(min(c, (a & m).bit_count()) for m, c in zip(masks, caps)) for a in range(size)
        )
        bases = enumerate_bases(part)
        listed = [[ground[i] for i in range(n) if b >> i & 1] for b in bases + bases[:2]]
        assert Matroid.from_bases(ground, listed).rank == tuple(
            max((a & b).bit_count() for b in bases) for a in range(size)
        )


def test_uniform_range_checked():
    with pytest.raises(InstanceError):
        Matroid.uniform(("a",), 2)
    with pytest.raises(InstanceError):
        Matroid.uniform(("a",), -1)


def test_validate_reports_first_axiom():
    ok = validate_rank_table(2, (0, 1, 1, 2))
    assert ok is None
    r1 = validate_rank_table(1, (1, 1))
    assert r1 is not None and r1.axiom == "R1" and r1.masks == (0,)
    # rank({a})=0, rank({b})=1, rank({a,b})=2 breaks submodularity
    r3 = validate_rank_table(2, (0, 0, 1, 2))
    assert r3 is not None and r3.axiom == "R3"
    assert r3.masks == (1, 2)
    r2 = validate_rank_table(2, (0, 1, 1, 0))
    assert r2 is not None and r2.axiom in ("R1", "R2")


def test_matroid_constructor_rejects_invalid_table():
    with pytest.raises(InstanceError):
        Matroid(("a", "b"), (0, 0, 1, 2))


def test_partition_matroid_rank():
    ground = ("a", "b", "c", "d")
    m = Matroid.partition(ground, [["a", "b"], ["c"]], [1, 1])
    # d is in no block: a loop
    assert m.rank[0b1000] == 0
    assert m.rank[0b0011] == 1
    assert m.rank[0b0111] == 2
    assert m.full_rank == 2
    with pytest.raises(InstanceError):
        Matroid.partition(ground, [["a"], ["a"]], [1, 1])
    with pytest.raises(InstanceError):
        Matroid.partition(ground, [["a"]], [1, 1])


def test_from_bases():
    m = Matroid.from_bases(("a", "b", "c"), [["a", "b"], ["b", "c"]])
    assert m.full_rank == 2
    assert m.rank[0b101] == 1  # {a, c} meets each listed basis in one element
    with pytest.raises(InstanceError):
        Matroid.from_bases(("a", "b", "c"), [["a"], ["b", "c"]])
    # max-overlap of a non-exchange family is not submodular
    with pytest.raises(InstanceError):
        Matroid.from_bases(("a", "b", "c", "d"), [["a", "b"], ["c", "d"]])


def test_corank_examples():
    free = Matroid.free(("t1", "t2", "t3"))
    for mask in range(8):
        assert corank(free, mask) == mask.bit_count()
    assert corank(free, 0) == 0
    uni = Matroid.uniform(("t1", "t2", "t3"), 2)
    # closed form max(0, k - n + |Y|), frozen from basis enumeration
    for mask in range(8):
        assert corank(uni, mask) == max(0, 2 - 3 + mask.bit_count())
        want = naive_corank_via_bases(rank_over_names(uni), 3, frozenset(b for b in range(3) if mask >> b & 1))
        assert corank(uni, mask) == want


def test_corank_matches_basis_enumeration_for_many_matroids():
    for m in random_matroids(seed=7):
        rank_of = rank_over_names(m)
        for sub in subsets(range(m.n)):
            mask = sum(1 << i for i in sub)
            assert corank(m, mask) == naive_corank_via_bases(rank_of, m.n, sub)


def test_corank_monotone_and_supermodular():
    for m in random_matroids(seed=8, ground_sizes=(2, 3, 4, 5)):
        table = from_corank(m)
        assert classify_supermodular(table, "full") is None
        vals = corank_values(m)
        size = 1 << m.n
        for a in range(size):
            for b in range(size):
                if a & b == a:
                    assert vals[a] <= vals[b]
        assert vals[size - 1] == m.full_rank


def test_enumerate_bases_and_restrict():
    m = Matroid.uniform(("a", "b", "c"), 2)
    bases = enumerate_bases(m)
    assert bases == [0b011, 0b101, 0b110]
    sub = restrict(m, 0b011)
    assert sub.ground == ("a", "b")
    assert sub.full_rank == 2


def test_rank_of_validates_mask():
    m = Matroid.free(("a",))
    with pytest.raises(InstanceError):
        m.rank_of(4)
    with pytest.raises(InstanceError):
        corank(m, -1)
