"""Hypergraph generators checked against independent edge predicates."""

import random
import warnings
from itertools import combinations
from math import comb

import pytest

from kneser_lab import kneser
from kneser_lab.errors import InstanceTooLarge, InvalidParams, InvalidPartSpec
from kneser_lab.kneser import (
    PartSpec,
    build_kneser_hypergraph,
    build_partition_constrained,
    build_stable_subhypergraph,
    formula_chi,
)
from kneser_lab.setsys import GroundParams, enumerate_k_subsets, is_s_stable


def naive_edges(masks, r):
    """Oracle: brute-force scan over all r-combinations."""
    out = []
    for tup in combinations(range(len(masks)), r):
        union = 0
        total = 0
        for i in tup:
            union |= masks[i]
            total += masks[i].bit_count()
        if union.bit_count() == total:
            out.append(tup)
    return out


def test_kneser_graph_counts():
    h = build_kneser_hypergraph(GroundParams(5, 2, 2))
    assert h.num_vertices == 10 and h.num_edges == 15  # Petersen
    h = build_kneser_hypergraph(GroundParams(6, 2, 2))
    assert h.num_vertices == 15 and h.num_edges == 45
    h = build_kneser_hypergraph(GroundParams(7, 2, 3))
    assert h.num_vertices == 21 and h.num_edges == 105
    h = build_kneser_hypergraph(GroundParams(8, 2, 4))
    assert h.num_vertices == 28 and h.num_edges == 105


def test_edges_match_naive_scan():
    for n, k, r in [(5, 2, 2), (6, 2, 3), (6, 3, 2), (7, 3, 2)]:
        h = build_kneser_hypergraph(GroundParams(n, k, r))
        masks = [v.bits for v in h.vertices]
        assert list(h.edges) == naive_edges(masks, r)


def test_disjoint_tuples_match_naive_scan_on_random_masks():
    """The candidate-mask backtracking against the brute-force scan, order
    included: empty and zero masks, repeated masks and r above nv."""
    for r in range(1, 6):
        assert kneser._disjoint_tuples([], r) == []
    rng = random.Random(2021)
    for _ in range(300):
        nv = rng.randrange(0, 12)
        masks = [rng.getrandbits(rng.randrange(1, 9)) for _ in range(nv)]
        if nv >= 2:
            masks[rng.randrange(nv)] = masks[rng.randrange(nv)]
        for r in range(1, 6):
            assert kneser._disjoint_tuples(masks, r) == naive_edges(masks, r)


@pytest.mark.parametrize("n,k,r,s", [
    (8, 2, 2, 3), (9, 2, 3, 2), (9, 2, 3, 3), (10, 3, 2, 2), (8, 1, 4, 2),
])
def test_stable_builder_matches_naive_scan(n, k, r, s):
    h = build_stable_subhypergraph(GroundParams(n, k, r), s)
    assert list(h.edges) == naive_edges([v.bits for v in h.vertices], r)


@pytest.mark.parametrize("n,k,r,parts", [
    (6, 2, 2, ((1,), (2,), (3,), (4,), (5,), (6,))),
    (8, 2, 3, ((1, 2), (3, 4), (5, 6), (7, 8))),
    (9, 3, 3, ((1, 2), (3, 4), (5, 6), (7, 8), (9,))),
    (7, 2, 4, ((1, 2, 3), (4, 5), (6, 7))),
])
def test_partition_builder_matches_naive_scan(n, k, r, parts):
    h = build_partition_constrained(GroundParams(n, k, r), PartSpec(parts))
    assert list(h.edges) == naive_edges([v.bits for v in h.vertices], r)


def test_edgeless_below_threshold_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        h = build_kneser_hypergraph(GroundParams(5, 2, 3))
        assert h.num_edges == 0
        assert any("no edges" in str(w.message) for w in caught)


def test_vertices_in_colex_order():
    h = build_kneser_hypergraph(GroundParams(6, 2, 2))
    masks = [v.bits for v in h.vertices]
    assert masks == sorted(masks)
    assert h.vertices[0].elements() == (1, 2)


def test_stable_subhypergraph_counts():
    # Schrijver-style restriction at r=2
    for n, nv in [(6, 9), (7, 14), (8, 20)]:
        h = build_stable_subhypergraph(GroundParams(n, 2, 2), 2)
        assert h.num_vertices == nv
        assert all(is_s_stable(v, 2) for v in h.vertices)
    h = build_stable_subhypergraph(GroundParams(8, 2, 4), 4)
    assert h.num_vertices == 4 and h.num_edges == 1
    assert sorted(v.elements() for v in h.vertices) == [
        (1, 5), (2, 6), (3, 7), (4, 8),
    ]


def test_stable_filter_matches_naive():
    p = GroundParams(8, 3, 2)
    h = build_stable_subhypergraph(p, 2)
    expected = [v for v in enumerate_k_subsets(8, 3) if is_s_stable(v, 2)]
    assert list(h.vertices) == expected
    masks = [v.bits for v in h.vertices]
    assert list(h.edges) == naive_edges(masks, 2)


def test_stable_requires_positive_s():
    with pytest.raises(InvalidParams):
        build_stable_subhypergraph(GroundParams(6, 2, 2), 0)


def test_part_spec_validation():
    PartSpec(((1, 2), (3, 4), (5, 6))).validate(6, 3)
    with pytest.raises(InvalidPartSpec):
        PartSpec(((1, 2), (3,))).validate(6, 3)  # misses 4,5,6
    with pytest.raises(InvalidPartSpec):
        PartSpec(((1, 2), (2, 3), (4, 5), (6,))).validate(6, 3)  # reuse of 2
    with pytest.raises(InvalidPartSpec):
        PartSpec(((1, 2, 3), (4, 5, 6))).validate(6, 3)  # block too big
    with pytest.raises(InvalidPartSpec):
        PartSpec(((1, 2), (3, 4), (5, 6), ())).validate(6, 3)
    with pytest.raises(InvalidPartSpec):
        PartSpec(((1, 2), (3, 7), (5, 6), (4,))).validate(6, 3)


def test_partition_constrained_instance():
    spec = PartSpec(((1, 2), (3, 4), (5, 6)))
    h = build_partition_constrained(GroundParams(6, 2, 3), spec)
    # 15 pairs minus the 3 inside blocks
    assert h.num_vertices == 12
    assert h.num_edges == 8
    part_masks = spec.masks()
    for v in h.vertices:
        assert all((v.bits & pm).bit_count() <= 1 for pm in part_masks)
    masks = [v.bits for v in h.vertices]
    assert list(h.edges) == naive_edges(masks, 3)


def test_formula_chi_values():
    assert formula_chi(GroundParams(5, 2, 2)) == 3
    assert formula_chi(GroundParams(6, 2, 2)) == 4
    assert formula_chi(GroundParams(6, 2, 3)) == 2
    assert formula_chi(GroundParams(7, 2, 3)) == 2
    assert formula_chi(GroundParams(8, 2, 4)) == 2
    assert formula_chi(GroundParams(8, 2, 3)) == 3
    with pytest.raises(InvalidParams):
        formula_chi(GroundParams(5, 2, 3))  # below n = r*k


def test_size_guards(monkeypatch):
    for r in (2, 3):  # C(20,10) = 184,756 vertices
        with pytest.raises(InstanceTooLarge, match="vertices exceeds limit 100000"):
            build_kneser_hypergraph(GroundParams(20, 10, r))
    # the builder lists no edges; MAX_EDGES bounds them when they are read
    monkeypatch.setattr(kneser, "MAX_EDGES", 3)
    h = build_kneser_hypergraph(GroundParams(6, 2, 2))
    with pytest.raises(InstanceTooLarge, match="edge count exceeds configured limit 3"):
        h.edges


def test_closed_form_edge_count():
    """The count the r >= 4 refusal reads equals the number of listed edges
    of the full KG^4 for every n <= 13 and k <= 3, the edgeless n < 4k
    included."""
    checked = 0
    for n in range(1, 14):
        for k in range(1, min(n, 3) + 1):
            p = GroundParams(n, k, 4)
            masks = [v.bits for v in enumerate_k_subsets(n, k)]
            assert kneser._edge_count(p) == len(kneser._disjoint_tuples(masks, 4)), p
            checked += 1
    assert checked == 36
    assert kneser._edge_count(GroundParams(16, 3, 4)) == 28_028_000
