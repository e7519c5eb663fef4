"""Subset primitives against itertools-based oracles."""

from itertools import combinations
from math import comb

import pytest

from kneser_lab.errors import CapExceeded, InstanceTooLarge, InvalidParams
from kneser_lab.setsys import (
    GroundParams,
    KSubset,
    SetFamily,
    enumerate_k_subsets,
    guard_subsets,
    is_s_stable,
)


def test_ground_params_validation():
    GroundParams(5, 2, 2)
    with pytest.raises(InvalidParams):
        GroundParams(2, 3, 2)
    with pytest.raises(InvalidParams):
        GroundParams(5, 0, 2)
    with pytest.raises(InvalidParams):
        GroundParams(5, 2, 1)


def test_admissibility():
    assert GroundParams(6, 2, 3).admissible
    assert not GroundParams(4, 3, 2).admissible
    # boundary: r*k == (r-1)*n
    assert GroundParams(4, 2, 2).admissible


def test_ksubset_roundtrip():
    f = KSubset.from_elements((2, 5, 3), 6)
    assert f.elements() == (2, 3, 5)
    assert f.size == 3
    assert f.contains(5) and not f.contains(1)
    assert f.bits == 0b10110


def test_ksubset_rejects_out_of_range():
    with pytest.raises(InvalidParams):
        KSubset.from_elements((0,), 4)
    with pytest.raises(InvalidParams):
        KSubset.from_elements((5,), 4)
    with pytest.raises(InvalidParams):
        KSubset(1 << 4, 4)


def test_set_family_rejects_duplicates_and_foreign_ground():
    a = KSubset.from_elements((1, 2), 4)
    with pytest.raises(InvalidParams):
        SetFamily(4, (a, KSubset.from_elements((2, 1), 4)))
    with pytest.raises(InvalidParams):
        SetFamily(4, (KSubset.from_elements((1,), 5),))


def test_enumeration_matches_itertools():
    # the bit-twiddling enumerator against the obvious one
    for n in range(0, 9):
        for k in range(0, n + 1):
            ours = [f.elements() for f in enumerate_k_subsets(n, k)]
            ref = sorted(
                (tuple(sorted(c)) for c in combinations(range(1, n + 1), k)),
                key=lambda els: sum(1 << (e - 1) for e in els),
            )
            assert ours == ref
            assert len(ours) == comb(n, k)


def test_enumeration_is_colex_sorted():
    masks = [f.bits for f in enumerate_k_subsets(8, 3)]
    assert masks == sorted(masks)


def test_enumeration_cap():
    assert len(enumerate_k_subsets(64, 1)) == 64
    for n in (65, 70):
        with pytest.raises(CapExceeded):
            enumerate_k_subsets(n, 1)
    with pytest.raises(InstanceTooLarge):
        enumerate_k_subsets(23, 11)  # 1,352,078 k-subsets


def test_stability():
    # {1,4} on a 6-cycle: distance 3
    assert is_s_stable(KSubset.from_elements((1, 4), 6), 3)
    assert not is_s_stable(KSubset.from_elements((1, 4), 6), 4)
    # wrap-around pair {1,6} is at distance 1
    assert not is_s_stable(KSubset.from_elements((1, 6), 6), 2)
    # singletons are s-stable for every s
    assert is_s_stable(KSubset.from_elements((3,), 6), 100)
    with pytest.raises(InvalidParams):
        is_s_stable(KSubset(0, 4), 2)


def test_stability_against_naive_scan():
    # the cyclic-shift test against the pairwise definition, s past n included
    for n in range(1, 13):
        for k in range(1, n + 1):
            for f in enumerate_k_subsets(n, k):
                dists = [min(b - a, n - b + a)
                         for a, b in combinations(f.elements(), 2)]
                for s in range(1, n + 3):
                    assert is_s_stable(f, s) == all(d >= s for d in dists)


@pytest.mark.parametrize(
    "n, k, error",
    [
        (22, 11, None),  # 705,432 k-subsets
        (23, 11, InstanceTooLarge),  # 1,352,078
        (64, 1, None),
        (64, 4, None),  # 635,376
        (64, 5, InstanceTooLarge),  # 7,624,512
        (64, 64, None),
        (65, 65, CapExceeded),  # one k-subset, but each walk step costs n
        (10**18, 10**18, CapExceeded),
    ],
)
def test_guard_subsets(n, k, error):
    if error is None:
        guard_subsets(n, k)
    else:
        with pytest.raises(error):
            guard_subsets(n, k)
