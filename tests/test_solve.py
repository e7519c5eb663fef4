"""Conflict extraction and the exact solver, cross-checked against brute force."""

import dataclasses
import gc
import json
import os
import random
import re
import subprocess
import sys
import textwrap
import time
import warnings
import weakref
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import kneser_lab
from kneser_lab import kneser, solve
from kneser_lab.constructions import (
    PartitionCertificate,
    blow_up,
    build_tight_partition,
    tight_bound,
)
from kneser_lab.errors import InstanceTooLarge, InvalidParams, SoundnessError
from kneser_lab.kneser import (
    Hypergraph,
    PartSpec,
    build_kneser_hypergraph,
    build_partition_constrained,
    build_stable_subhypergraph,
)
from kneser_lab.setsys import GroundParams, KSubset
from kneser_lab.solve import (
    EXACT,
    TIMEOUT,
    SolveBudget,
    _search,
    build_conflict_hypergraph,
    chromatic_number,
    min_partition_number,
)
from kneser_lab.verify import (
    Report,
    Violation,
    verify_coloring,
    verify_coloring_certificate,
    verify_partition_certificate,
)

from oracle import INFEASIBLE, brute_force_oracle, brute_force_witnesses


def colex_pairs(n):
    masks = sorted(
        sum(1 << (e - 1) for e in c) for c in combinations(range(1, n + 1), 2)
    )
    return {m: i for i, m in enumerate(masks)}


def test_conflicts_4_2_2():
    ch = build_conflict_hypergraph(GroundParams(4, 2, 2))
    idx = colex_pairs(4)

    def at(*element_pairs):
        return tuple(sorted(
            idx[sum(1 << (e - 1) for e in p)] for p in element_pairs
        ))

    expected = {
        at((1, 2), (3, 4)),
        at((1, 3), (2, 4)),
        at((1, 4), (2, 3)),
    }
    assert set(ch.edges) == expected


def test_conflicts_4_2_3():
    ch = build_conflict_hypergraph(GroundParams(4, 2, 3))
    pairs = {w for w in ch.edges if len(w) == 2}
    triples = {w for w in ch.edges if len(w) == 3}
    assert len(pairs) == 3 and len(triples) == 4
    assert len(ch.edges) == 7
    idx = colex_pairs(4)
    tri = tuple(sorted(
        idx[sum(1 << (e - 1) for e in p)] for p in [(1, 2), (1, 3), (2, 3)]
    ))
    assert tri in triples


def test_conflicts_3_1_2():
    ch = build_conflict_hypergraph(GroundParams(3, 1, 2))
    assert set(ch.edges) == {(0, 1), (0, 2), (1, 2)}


def test_conflict_counts_6_2_3():
    ch = build_conflict_hypergraph(GroundParams(6, 2, 3))
    sizes = {}
    for w in ch.edges:
        sizes[len(w)] = sizes.get(len(w), 0) + 1
    assert sizes == {2: 45, 3: 20}


def test_witness_invariants():
    for (n, k, r) in [(5, 2, 2), (5, 2, 3), (6, 2, 3), (6, 2, 4), (7, 3, 2)]:
        ch = build_conflict_hypergraph(GroundParams(n, k, r))
        for w in ch.edges:
            assert 2 <= len(w) <= r
            assert len(w) == len(set(w)) and w == tuple(sorted(w))
            inter = -1
            for i in w:
                inter &= ch.vertices[i].bits
            assert inter == 0
            for drop in w:  # minimality
                inter = -1
                for i in w:
                    if i != drop:
                        inter &= ch.vertices[i].bits
                assert inter != 0


@pytest.mark.parametrize(
    "n,k,r",
    [
        (3, 1, 2), (5, 1, 4), (4, 4, 2), (5, 5, 3),  # k = 1 and k = n
        (6, 2, 2), (7, 3, 2), (8, 4, 2),  # r = 2
        (5, 2, 3), (6, 2, 3), (6, 3, 3), (7, 3, 3), (8, 3, 3),
        (6, 2, 4), (6, 3, 4), (7, 3, 4),
        (5, 2, 5), (6, 2, 6), (6, 3, 5), (7, 2, 5),  # r > k + 1
    ],
)
def test_conflict_edges_are_every_minimal_witness(n, k, r):
    """Completeness and order: the pruned DFS emits exactly the brute-force
    minimal witnesses, lexicographically."""
    h = build_conflict_hypergraph(GroundParams(n, k, r))
    assert list(h.edges) == brute_force_witnesses([v.bits for v in h.vertices], r)


def test_conflict_size_caps(monkeypatch):
    with pytest.raises(InstanceTooLarge, match="vertices exceeds limit 100000"):
        build_conflict_hypergraph(GroundParams(20, 10, 3))  # 184,756 vertices
    # the builder lists no witnesses; MAX_EDGES bounds them when they are read
    monkeypatch.setattr(kneser, "MAX_EDGES", 10)
    h = build_conflict_hypergraph(GroundParams(6, 2, 3))
    with pytest.raises(InstanceTooLarge, match="witness count exceeds limit 10"):
        h.edges


def test_builders_leave_no_cyclic_garbage():
    """The recursive builders and verifiers free their witnesses, edges and
    masks on return, not at the next full collection: repeated solves kept
    them and grew RSS."""
    gc.collect()
    gc.disable()
    try:
        build_conflict_hypergraph(GroundParams(6, 2, 3))
        build_kneser_hypergraph(GroundParams(6, 2, 2))
        build_partition_constrained(
            GroundParams(6, 2, 3), PartSpec(((1, 2), (3, 4), (5, 6))))
        min_partition_number(GroundParams(6, 2, 3))
        coloring = chromatic_number(build_kneser_hypergraph(GroundParams(6, 2, 2)))
        verify_coloring_certificate(coloring.certificate)
        tight = build_tight_partition(GroundParams(8, 3, 3))
        verify_partition_certificate(tight)
        verify_coloring_certificate(blow_up(tight)[0])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_min_partition_r2_ladder():
    for n, want in [(4, 2), (5, 3), (6, 4), (7, 5)]:
        res = min_partition_number(GroundParams(n, 2, 2))
        assert res.status == EXACT
        assert res.upper == want
        assert verify_partition_certificate(res.certificate).ok


def test_min_partition_r3_cases():
    for n, k, want in [(3, 1, 3), (4, 2, 3), (5, 2, 4), (6, 2, 5)]:
        res = min_partition_number(GroundParams(n, k, 3))
        assert res.status == EXACT and res.upper == want, (n, k)


def test_min_partition_r4():
    res = min_partition_number(GroundParams(4, 2, 4))
    assert res.status == EXACT and res.upper == 3


def test_chromatic_known_values():
    for n, r, want in [(5, 2, 3), (6, 2, 4), (6, 3, 2), (7, 3, 2), (8, 4, 2)]:
        h = build_kneser_hypergraph(GroundParams(n, 2, r))
        res = chromatic_number(h)
        assert res.status == EXACT and res.upper == want, (n, r)
        assert verify_coloring(h, list(res.colors)).ok


def twin_cells(nv, edges):
    """Point classes of a hypergraph on the 1-subsets of [nv]: i and j share
    a class when the transposition (i j) maps the edge set to itself.  That
    relation is an equivalence (conjugating a transposition by another gives
    the third), so every permutation inside the classes is a symmetry."""
    edge_set = set(edges)

    def swapped(e, i, j):
        return tuple(sorted(j if x == i else i if x == j else x for x in e))

    classes = []
    for i in range(nv):
        for cls in classes:
            if all(swapped(e, i, cls[0]) in edge_set for e in edges):
                cls.append(i)
                break
        else:
            classes.append([i])
    return tuple(sum(1 << i for i in cls) for cls in classes)


def relabelled(h, s):
    """h with vertex v renamed (v - s) mod nv, edges remapped and the
    builder's cells and descriptor kept: the search sees the same instance
    with the lowest-id tie-break rotated by s."""
    nv = len(h.vertices)
    vertices = h.vertices[s:] + h.vertices[:s]
    edges = tuple(tuple(sorted((v - s) % nv for v in e)) for e in h.edges)
    return kneser._granted(vertices, edges, h.cells, h.params, h.stability,
                           h.parts)


def assert_matches_brute_force(h, trial):
    res = chromatic_number(h)
    assert res.status == EXACT, trial
    # the oracle re-proves every count below the answer infeasible
    assert brute_force_oracle(h, res.upper) == res.upper, trial
    # every relabelling that rotates the vertex ids reaches the same
    # value, with and without orbital pruning over the point classes
    nv = len(h.vertices)
    pruned = kneser._granted(h.vertices, h.edges, twin_cells(nv, h.edges))
    for shift in range(nv):
        for record in (relabelled(h, shift), relabelled(pruned, shift)):
            out = _search(record, SolveBudget(), time.monotonic())
            assert (out.status, out.upper) == (EXACT, res.upper), (trial, shift)
            assert verify_coloring(record, out.colors).ok, (trial, shift)


def test_solver_matches_brute_force(monkeypatch):
    """Sparse random hypergraphs of 2 to 4 members per edge, then dense
    random graphs (every pair an edge with probability 1/2), where
    assignments fail on a clash, two adjacent uncolored vertices left the
    same one allowed color, with no wipeout.  The dense graphs run to 12
    vertices: the oracle checks each edge once its members are assigned,
    so it prunes as it goes."""
    rng = random.Random(20240817)
    for trial in range(200):
        nv = rng.randint(4, 12)
        ne = rng.randint(1, nv)
        edges = set()
        while len(edges) < ne:
            sz = rng.randint(2, min(4, nv))
            edges.add(tuple(sorted(rng.sample(range(nv), sz))))
        h = Hypergraph(
            vertices=tuple(KSubset(1 << i, nv) for i in range(nv)),
            edges=tuple(sorted(edges)),
        )
        assert_matches_brute_force(h, trial)

    clashes = 0
    assign_fn = solve._Engine._assign

    def assign(self, v, c, uncol, count):
        nonlocal clashes
        out = assign_fn(self, v, c, uncol, count)
        clashes += out is None and not any(
            uncol >> x & 1 and all(f >> x & 1 for f in self.forb)
            for x in range(self.nv))
        return out

    monkeypatch.setattr(solve._Engine, "_assign", assign)
    for trial in range(50):
        nv = rng.randint(4, 12)
        edges = tuple((a, b) for a, b in combinations(range(nv), 2)
                      if rng.random() < 0.5)
        h = Hypergraph(tuple(KSubset(1 << i, nv) for i in range(nv)), edges)
        assert_matches_brute_force(h, ("dense", trial))
    assert clashes > 50


def test_partition_solver_matches_brute_force():
    """The partition number colors the conflict hypergraph; the oracle does
    that with no engine code.  C(n, k) <= 8 keeps it exhaustive, and k = n
    gives one vertex for every n, so n stops at 10: 72 instances."""
    checked = 0
    for n in range(1, 11):
        for k in range(1, n + 1):
            if comb(n, k) > 8:
                continue
            for r in range(2, 5):
                p = GroundParams(n, k, r)
                ch = build_conflict_hypergraph(p)
                res = min_partition_number(p)
                best = brute_force_oracle(ch, comb(n, k))
                assert (res.status, res.upper) == (EXACT, best), (n, k, r)
                if p.admissible:
                    assert best == tight_bound(p), (n, k, r)
                checked += 1
    assert checked == 72


def test_search_tree_pinned():
    """Node counts are deterministic; a change to the engine's
    branching, propagation, tie-break or orbital pruning moves them."""
    p623 = GroundParams(6, 2, 3)
    cases = [
        (min_partition_number(p623), 5, 28),
        (chromatic_number(build_kneser_hypergraph(p623)), 2, 4),
        # s-stable: no cells, so no orbital pruning
        (chromatic_number(
            build_stable_subhypergraph(GroundParams(8, 2, 2), 2)), 6, 95),
        (chromatic_number(build_partition_constrained(
            p623, PartSpec(((1, 2), (3, 4), (5, 6))))), 2, 5),
        (min_partition_number(GroundParams(7, 2, 2)), 5, 12),
        (min_partition_number(GroundParams(8, 2, 3)), 7, 262),
        # n < 2k: no disjoint pair, so no clique is pinned
        (min_partition_number(GroundParams(7, 4, 3)), 3, 47),
    ]
    for i, (res, value, nodes) in enumerate(cases):
        assert (res.status, res.upper, res.nodes) == (EXACT, value, nodes), i


def test_long_constraint_tree_pinned():
    """(8,5,6) has minimal witnesses of 2 to 6 members and (9,4,4) of 2 to
    4, and KG^4(14,2) edges of 4 members, so their trees pin the
    propagation of constraints of 4 or more members."""
    res = min_partition_number(GroundParams(8, 5, 6))
    assert (res.status, res.upper, res.nodes) == (EXACT, 4, 54637)
    res = min_partition_number(GroundParams(9, 4, 4))
    assert (res.status, res.upper, res.nodes) == (EXACT, 5, 52666)
    res = chromatic_number(build_kneser_hypergraph(GroundParams(14, 2, 4)))
    assert (res.status, res.upper, res.nodes) == (EXACT, 4, 22444)


BENCH_LADDER_NODES = {
    "search-hyper": [1101, 424, 1910, 748, 1655],
    "search-pairs": [265, 29646, 106],
}


def bench_instance(inst):
    """A perfbench/design.json ladder entry as the benchmark solves it."""
    p = GroundParams(inst["n"], inst["k"], inst["r"])
    if inst["op"] == "solve":
        return min_partition_number(p)
    if "parts" in inst:
        h = build_partition_constrained(
            p, PartSpec(tuple(tuple(b) for b in inst["parts"])))
    elif "s" in inst:
        h = build_stable_subhypergraph(p, inst["s"])
    else:
        h = build_kneser_hypergraph(p)
    return chromatic_number(h)


@pytest.mark.parametrize("workload", sorted(BENCH_LADDER_NODES))
def test_bench_ladder_nodes_pinned(workload):
    """The benchmark's search ladders: the node counts the bench prints, pinned here so that a change to the
    search tree shows in the tests as well as in a bench run."""
    design = Path(__file__).resolve().parents[1] / "perfbench" / "design.json"
    ladder = json.loads(design.read_text())["workloads"][workload]
    results = [bench_instance(inst) for inst in ladder]
    assert all(res.status == EXACT for res in results)
    assert [res.nodes for res in results] == BENCH_LADDER_NODES[workload]


def shuffled(h, seed):
    """h with its edge list and the members of each edge in a seeded
    random order, the builder's cells and descriptor kept."""
    rng = random.Random(seed)
    edges = [tuple(rng.sample(e, len(e))) for e in h.edges]
    rng.shuffle(edges)
    return kneser._granted(h.vertices, edges, h.cells, h.params, h.stability,
                           h.parts)


SHUFFLE_CASES = {
    "conflict(9,2,3)": (lambda: build_conflict_hypergraph(GroundParams(9, 2, 3)), 1101),
    "conflict(7,3,4)": (lambda: build_conflict_hypergraph(GroundParams(7, 3, 4)), 1910),
    "conflict(7,4,5)": (lambda: build_conflict_hypergraph(GroundParams(7, 4, 5)), 3073),
    "KG^3(11,3)": (lambda: build_kneser_hypergraph(GroundParams(11, 3, 3)), 748),
    "parts(10,2,3)": (lambda: build_partition_constrained(
        GroundParams(10, 2, 3), PartSpec(((1, 2), (3, 4), (5, 6), (7, 8), (9, 10)))),
        1655),
    "SG(10,3)": (lambda: build_stable_subhypergraph(GroundParams(10, 3, 2), 2), 29646),
}


@pytest.mark.parametrize("name", SHUFFLE_CASES)
def test_search_does_not_depend_on_edge_order(name):
    """The engine indexes the constraint set, not the list: with the edges
    and the members of each edge shuffled, the search walks the same tree
    to the same colors.  The conflict hypergraphs hold triples, and (7,3,4)
    and (7,4,5) also witnesses of 4 and 5 members."""
    build, nodes = SHUFFLE_CASES[name]
    h = build()
    want = _search(h, SolveBudget(), time.monotonic())
    got = _search(shuffled(h, name), SolveBudget(), time.monotonic())
    assert want.status == EXACT and want.nodes == nodes
    assert (got.status, got.nodes, got.colors) == (EXACT, nodes, want.colors)


def test_branching_weights_are_per_solve():
    """The failure weights live in one engine: a second solve of the same
    instance searches the same tree, and relabelling the vertices changes
    only the tree, never the value."""
    p = GroundParams(9, 2, 3)
    first, again = min_partition_number(p), min_partition_number(p)
    assert first.status == EXACT and first.nodes == again.nodes == 1101
    assert first.certificate.to_dict() == again.certificate.to_dict()

    h = build_kneser_hypergraph(GroundParams(10, 2, 2))
    chi, chi_again = chromatic_number(h), chromatic_number(h)
    assert chi.status == EXACT and chi.nodes == chi_again.nodes == 265
    assert chi.certificate.to_dict() == chi_again.certificate.to_dict()

    ch = build_conflict_hypergraph(p)
    nv = len(ch.vertices)
    rotated = [_search(relabelled(ch, shift), SolveBudget(), time.monotonic())
               for shift in (0, nv // 2)]
    assert [(o.status, o.upper) for o in rotated] == [(EXACT, 8)] * 2
    assert [o.nodes for o in rotated] == [1101, 1881]


def consecutive_blocks(n, size):
    """[n] cut into runs of `size` points, the last one possibly shorter."""
    return tuple(tuple(range(i, min(i + size, n + 1)))
                 for i in range(1, n + 1, size))


def cell_instances():
    """Every instance the sweep checks, with the cells its descriptor gives:
    conflict hypergraphs (n <= 8, r <= 4, at most 40 vertices), full KG^r
    and block-constrained KG^r (at most 60 vertices)."""
    for n in range(1, 9):
        for k in range(1, n + 1):
            if comb(n, k) > 40:
                continue
            for r in range(2, 5):
                ch = build_conflict_hypergraph(GroundParams(n, k, r))
                yield (n, k, r), ch, ((1 << n) - 1,)
    for n in range(2, 11):
        for k in range(1, n):
            for r in range(2, 5):
                if n < r * k or comb(n, k) > 60:
                    continue
                p = GroundParams(n, k, r)
                yield (n, k, r), build_kneser_hypergraph(p), ((1 << n) - 1,)
                if r == 2:
                    continue  # blocks of one point: no cells
                blocks = consecutive_blocks(n, r - 1)
                h = build_partition_constrained(p, PartSpec(blocks))
                if h.num_vertices <= 60:
                    yield (n, k, r, blocks), h, h.parts.masks()


def test_orbital_pruning_keeps_every_decision():
    """run(m) decides the same with the descriptor's cells as without, from
    the clique size up to the first feasible m, at two rotations of the
    vertex ids; every coloring found with cells is proper."""
    decisions = 0
    for name, h, cells in cell_instances():
        nv = h.num_vertices
        for shift in {0, nv // 2}:
            g = relabelled(h, shift)
            points = tuple(v.bits for v in g.vertices)
            tables = solve._edge_tables(nv, g.edges)
            plain = solve._Engine(nv, tables)
            pruned = solve._Engine(nv, tables, points, cells)
            clique = plain.pair_clique()
            m = max(1, len(clique))
            while True:
                want, got = plain.run(m, clique), pruned.run(m, clique)
                assert (want is None) == (got is None), (name, shift, m)
                decisions += 1
                if got is not None:
                    assert verify_coloring(g, got).ok, (name, shift, m)
                    break
                m += 1
    assert decisions == 612


def test_orbit_prunes_stay_in_the_cell_group(monkeypatch):
    """White-box checks at every prune, since extra pruning seldom flips a
    decision: each colored vertex is a union of cells and outside points
    (so the cell group fixes it), the orbit is the naive one, and a node
    that fails leaves forb, col and the count planes it was given as it
    found them."""
    orbit_fn, dfs_fn = solve._Engine._orbit, solve._Engine._dfs
    sizes = []

    def orbit(self, v, cells, uncol):
        out = orbit_fn(self, v, cells, uncol)
        pts, covered = self.points, sum(cells)
        for w in range(self.nv):
            if not uncol >> w & 1:
                assert all(pts[w] & cell in (0, cell) for cell in cells)
        naive = {
            u for u in range(self.nv)
            if uncol >> u & 1
            and pts[u] & ~covered == pts[v] & ~covered
            and all((pts[u] & cell).bit_count() == (pts[v] & cell).bit_count()
                    for cell in cells)
        }
        assert out == sum(1 << u for u in naive)
        sizes.append(len(naive))
        return out

    def dfs(self, remaining, max_used, cells, uncol, count):
        before = (list(self.forb), list(self.col), list(count))
        found = dfs_fn(self, remaining, max_used, cells, uncol, count)
        assert found or (list(self.forb), list(self.col), list(count)) == before
        return found

    monkeypatch.setattr(solve._Engine, "_orbit", orbit)
    monkeypatch.setattr(solve._Engine, "_dfs", dfs)
    p623 = GroundParams(6, 2, 3)
    assert min_partition_number(p623).upper == 5
    assert min_partition_number(GroundParams(7, 2, 3)).upper == 6
    assert min_partition_number(GroundParams(7, 3, 3)).upper == 4
    assert chromatic_number(build_kneser_hypergraph(GroundParams(8, 2, 2))).upper == 6
    assert chromatic_number(build_kneser_hypergraph(GroundParams(9, 3, 3))).upper == 2
    parts = build_partition_constrained(
        GroundParams(8, 2, 3), PartSpec(((1, 2), (3, 4), (5, 6), (7, 8))))
    assert chromatic_number(parts).upper == 3
    assert len(sizes) > 50 and max(sizes) > 1, sizes


def plane_value(planes, v):
    """Vertex v's count read off bit-sliced planes."""
    return sum((plane >> v & 1) << j for j, plane in enumerate(planes))


def test_plus_one_matches_integer_arithmetic():
    """The engine's one adder, against integers on random masks and the
    edge cases: no planes, a zero mask and a carry past the top plane.
    The input list is never changed, so a list saved for undo stays valid."""
    rng = random.Random(15)
    cases = [([], 0), ([], 0b1011), ([0b110, 0b11], 0), ([0b11, 0b1], 0b1),
             ([0b1, 0b1, 0b1], 0b11)]
    for _ in range(400):
        width = rng.randrange(1, 70)
        planes = [rng.getrandbits(width) for _ in range(rng.randrange(6))]
        cases.append((planes, rng.getrandbits(width)))
    grew = 0
    for planes, bits in cases:
        before = list(planes)
        out = solve._plus_one(planes, bits)
        assert planes == before and out is not planes
        width = max([bits.bit_length()] + [p.bit_length() for p in planes])
        values = [plane_value(planes, v) + (bits >> v & 1) for v in range(width)]
        assert [plane_value(out, v) for v in range(width)] == values
        top = max([0] + values).bit_length()
        assert len(out) == max(len(planes), top)
        grew += top > len(planes)
    assert solve._plus_one([], 0b1011) == [0b1011]
    assert solve._plus_one([0b11, 0b1], 0b1) == [0b10, 0b0, 0b1]
    assert grew > 20


def test_forbidden_counts_match_a_recount(monkeypatch):
    """White-box checks at every node: the uncol it is given holds exactly
    the `remaining` vertices no color class holds, and the count planes it
    is given, read through that uncol, equal a recount over forb; no color
    above max_used is forbidden anywhere, which makes a count over all m
    colors the count over the colors branching looks at; and a node that
    fails leaves its count planes, forb and col as it found them.  After
    each run(m), every vertex's weight equals the number of search
    children so far in the solve whose assignment of that vertex failed,
    by a wipeout or a clash."""
    dfs_fn = solve._Engine._dfs
    seen = {"nodes": 0, "cells": 0, "pruned": 0, "depth": 0, "wipeouts": 0}
    wiped = weakref.WeakKeyDictionary()

    def dfs(self, remaining, max_used, cells, uncol, count):
        colored = 0
        for col in self.col:
            colored |= col
        assert colored == (1 << self.nv) - 1 ^ uncol
        assert uncol.bit_count() == remaining
        for v in range(self.nv):
            if uncol >> v & 1:
                got = plane_value(count, v)
                assert got == sum(fc >> v & 1 for fc in self.forb), v
        assert not any(self.forb[max_used + 1:])
        before = (list(count), list(self.forb), list(self.col))
        seen["depth"] += 1
        try:
            found = dfs_fn(self, remaining, max_used, cells, uncol, count)
        finally:
            seen["depth"] -= 1
        assert found or (list(count), list(self.forb), list(self.col)) == before
        seen["nodes"] += 1
        seen["cells"] += bool(cells)
        return found

    assign_fn = solve._Engine._assign

    def assign(self, v, c, uncol, count):
        out = assign_fn(self, v, c, uncol, count)
        if out is None and seen["depth"]:  # a search child, not a pinned seed
            counts = wiped.setdefault(self, [0] * self.nv)
            counts[v] += 1
            seen["wipeouts"] += 1
        return out

    run_fn = solve._Engine.run

    def run(self, m, seed):
        out = run_fn(self, m, seed)
        counts = wiped.get(self, [0] * self.nv)
        assert [plane_value(self.weight, v) for v in range(self.nv)] == counts
        return out

    orbit_fn = solve._Engine._orbit

    def orbit(self, v, cells, uncol):
        out = orbit_fn(self, v, cells, uncol)
        seen["pruned"] += out.bit_count() > 1
        return out

    monkeypatch.setattr(solve._Engine, "_dfs", dfs)
    monkeypatch.setattr(solve._Engine, "_orbit", orbit)
    monkeypatch.setattr(solve._Engine, "_assign", assign)
    monkeypatch.setattr(solve._Engine, "run", run)
    assert min_partition_number(GroundParams(6, 2, 3)).upper == 5
    assert min_partition_number(GroundParams(7, 2, 3)).upper == 6
    assert min_partition_number(GroundParams(7, 3, 3)).upper == 4
    assert chromatic_number(build_kneser_hypergraph(GroundParams(8, 2, 2))).upper == 6
    assert chromatic_number(build_kneser_hypergraph(GroundParams(8, 2, 3))).upper == 3
    parts = build_partition_constrained(
        GroundParams(8, 2, 3), PartSpec(((1, 2), (3, 4), (5, 6), (7, 8))))
    assert chromatic_number(parts).upper == 3
    with_cells = dict(seen)
    sg = build_stable_subhypergraph(GroundParams(9, 2, 2), 2)
    assert chromatic_number(sg).upper == 7
    assert seen["cells"] == with_cells["cells"] > 100
    assert seen["nodes"] - with_cells["nodes"] > 100
    assert seen["pruned"] > 40
    assert seen["wipeouts"] > 100


@pytest.mark.parametrize("stable, cap, status, bracket, nodes", [
    (False, 1, TIMEOUT, (4, 7), 2),
    (False, 5, TIMEOUT, (5, 7), 6),
    (False, 100, TIMEOUT, (6, 7), 101),
    (False, 1000, EXACT, (7, 7), 262),
    (True, 1, TIMEOUT, (3, 6), 2),
    (True, 5, TIMEOUT, (4, 6), 6),
    (True, 100, TIMEOUT, (4, 6), 101),
    (True, 1000, TIMEOUT, (5, 6), 1001),
])
def test_node_budget_stops_pinned(stable, cap, status, bracket, nodes):
    """A node budget stops solve (8,2,3), or chi SG(10,3) at its 50
    vertices, at the same node whatever a node costs: once max_nodes is
    set, the budget is checked at every node."""
    budget = SolveBudget(max_nodes=cap)
    if stable:
        res = chromatic_number(
            build_stable_subhypergraph(GroundParams(10, 3, 2), 2), budget)
    else:
        res = min_partition_number(GroundParams(8, 2, 3), budget)
    assert (res.status, (res.lower, res.upper), res.nodes) == (status, bracket, nodes)


def test_deadline_still_stops_the_search():
    """With no node budget the deadline is read at the first node and every
    256th after it; solve (8,3,4) takes far longer than 0.05 s to finish."""
    res = min_partition_number(GroundParams(8, 3, 4), SolveBudget(max_seconds=0.05))
    assert res.status == TIMEOUT
    assert res.lower <= 6 <= res.upper and res.nodes > 256


def test_deadline_counts_set_up(monkeypatch):
    """The deadline starts with the entry point, so a slow conflict build
    spends the budget, and the search stops at its first node, where it
    first reads the clock, although (9,2,3) takes 1,101 nodes and a few ms
    to solve."""
    build = solve.build_conflict_hypergraph

    def slow(p):
        time.sleep(0.2)
        return build(p)

    monkeypatch.setattr(solve, "build_conflict_hypergraph", slow)
    res = min_partition_number(GroundParams(9, 2, 3), SolveBudget(max_seconds=0.1))
    assert (res.status, res.nodes) == (TIMEOUT, 1) and res.millis >= 200


def test_closed_bracket_is_exact_on_every_path():
    """When greedy meets the lower bound from the clique or the edge, the
    bracket is closed: the cross-check one class below may run out of
    budget, but the result is EXACT."""
    h = build_kneser_hypergraph(GroundParams(6, 2, 3))
    res = chromatic_number(h, SolveBudget(max_nodes=1))
    assert (res.status, res.lower, res.upper) == (EXACT, 2, 2)
    res = min_partition_number(GroundParams(8, 6, 4), SolveBudget(max_nodes=1))
    assert (res.status, res.upper) == (EXACT, 2)
    assert min_partition_number(GroundParams(8, 6, 4)).nodes == 14


def transposition_images(h, within):
    """For each transposition of two points of the mask `within`, whether it
    maps the vertex set and the edge set to themselves."""
    index = {v.bits: i for i, v in enumerate(h.vertices)}
    edges = set(h.edges)
    out = {}
    for i, j in combinations(range(within.bit_length()), 2):
        if not (within >> i & 1 and within >> j & 1):
            continue
        swap = (1 << i) | (1 << j)

        def image(bits):
            moved = bits & swap
            return bits if moved in (0, swap) else bits ^ swap

        ids = [index.get(image(v.bits)) for v in h.vertices]
        out[i + 1, j + 1] = None not in ids and all(
            tuple(sorted(ids[u] for u in e)) in edges for e in h.edges
        )
    return out


@pytest.mark.parametrize("nkr", [(6, 2, 3), (7, 3, 3), (8, 2, 4), (7, 2, 2)])
def test_point_transpositions_are_symmetries(nkr):
    """The cells handed to the engine are sound: every transposition of [n]
    fixes the conflict witnesses and the KG^r edges, and every transposition
    inside a block fixes a block-constrained instance."""
    p = GroundParams(*nkr)
    conflict = build_conflict_hypergraph(p)
    everything = (1 << p.n) - 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kg = build_kneser_hypergraph(p)
    for h in (conflict, kg):
        assert h.cells == (everything,), nkr
        images = transposition_images(h, everything)
        assert len(images) == comb(p.n, 2) and all(images.values()), nkr
    h = build_partition_constrained(p, PartSpec(consecutive_blocks(p.n, p.r - 1)))
    for block in h.parts.masks():
        assert all(transposition_images(h, block).values()), (nkr, block)


def test_stable_instances_get_no_cells():
    """Some transposition breaks an s-stable instance, so S_n is not its
    symmetry group; chromatic_number gives it no cells and its search tree
    is the plain engine's."""
    p = GroundParams(8, 2, 2)
    h = build_stable_subhypergraph(p, 2)
    assert not all(transposition_images(h, (1 << p.n) - 1).values())
    res = chromatic_number(h)
    plain = _search(Hypergraph(h.vertices, h.edges), SolveBudget(), time.monotonic())
    assert (res.upper, res.nodes) == (plain.upper, plain.nodes) == (6, 95)


def test_hand_built_hypergraph_gets_no_cells():
    """Cells and descriptors come only from the builders: the same vertices
    and constraints built by hand search the plain tree, and the
    constructor takes nothing but vertices and edges."""
    kg = build_kneser_hypergraph(GroundParams(8, 2, 2))
    ch = build_conflict_hypergraph(GroundParams(6, 2, 3))
    cases = [
        (Hypergraph(kg.vertices, kg.edges), 6, 56),
        (kg, 6, 35),
        (Hypergraph(ch.vertices, ch.edges), 5, 55),
        (ch, 5, 28),
    ]
    for i, (h, value, nodes) in enumerate(cases):
        res = chromatic_number(h)
        assert (res.status, res.upper, res.nodes) == (EXACT, value, nodes), i
    for name in ("params", "stability", "parts", "cells", "rule"):
        with pytest.raises(TypeError):
            Hypergraph(kg.vertices, kg.edges, **{name: getattr(kg, name)})


def test_edited_hypergraph_gets_no_cells(monkeypatch):
    """dataclasses.replace drops the builder's descriptor and cells.  On
    KG(8,2) with every other edge, the cells of [8] would be unsound (some
    transposition breaks the edge set) and would refute the 4 colors a
    proper coloring uses; chromatic_number searches without them and
    returns raw colors with no certificate, never SoundnessError."""
    kg = build_kneser_hypergraph(GroundParams(8, 2, 2))
    assert kg.cells == ((1 << 8) - 1,) and kg.params == GroundParams(8, 2, 2)
    same = dataclasses.replace(kg)
    assert same.cells == () and same.params is None and same.rule is None
    assert chromatic_number(same).nodes == 56
    edited = dataclasses.replace(kg, edges=kg.edges[::2])
    assert edited.params is None and edited.cells == ()
    assert not all(transposition_images(edited, (1 << 8) - 1).values())
    unsound = kneser._granted(edited.vertices, edited.edges, kg.cells)
    wrong = _search(unsound, SolveBudget(), time.monotonic())
    assert (wrong.status, wrong.upper) == (EXACT, 5)

    seen = []
    search = solve._search

    def spy(h, budget, t0):
        out = search(h, budget, t0)
        seen.append((h.cells, out.upper))
        return out

    monkeypatch.setattr(solve, "_search", spy)
    res = chromatic_number(edited)
    assert (res.status, res.upper, res.certificate) == (EXACT, 4, None)
    assert verify_coloring(edited, res.colors).ok
    assert seen == [((), 4)]


def test_conflict_hypergraph_solves_like_the_partition_number():
    """One record, one search core: the chromatic number of the conflict
    hypergraph is the partition number, found in the same tree, with the
    same verified partition certificate."""
    checked = 0
    for n in range(1, 8):
        for k in range(1, n + 1):
            if comb(n, k) > 35:
                continue
            for r in range(2, 5):
                p = GroundParams(n, k, r)
                chi = chromatic_number(build_conflict_hypergraph(p))
                part = min_partition_number(p)
                assert (chi.status, chi.upper, chi.nodes) == (
                    part.status, part.upper, part.nodes), (n, k, r)
                assert chi.certificate == part.certificate
                checked += 1
    assert checked == 84


def test_soundness_guards_survive_optimize():
    """The self-checks raise SoundnessError even under python -O, where
    assert statements are stripped."""
    script = textwrap.dedent("""
        from kneser_lab import solve
        from kneser_lab.errors import SoundnessError
        from kneser_lab.kneser import build_kneser_hypergraph
        from kneser_lab.setsys import GroundParams
        assert False, "asserts must be stripped"

        petersen = build_kneser_hypergraph(GroundParams(5, 2, 2))

        def improper_at_2(self, m, seed):  # feasible at m=2 only
            return [0] * self.nv if m == 2 else None

        def improper_always(self, m, seed):  # also "feasible" below the clique
            return [0] * self.nv

        cases = [
            (improper_at_2, lambda: solve.chromatic_number(petersen)),
            (improper_at_2, lambda: solve.min_partition_number(GroundParams(5, 2, 2))),
            (improper_always, lambda: solve.chromatic_number(petersen)),
            (None, lambda: solve.SolveResult(solve.EXACT, 2, 3, 0, 0, colors=(0,))),
            (None, lambda: solve.SolveResult(solve.TIMEOUT, 2, 2, 9, 0, colors=(0,))),
        ]
        for run, call in cases:
            if run is not None:
                solve._Engine.run = run
            try:
                call()
            except SoundnessError:
                print("raised")
            else:
                print("passed")
    """)
    src = os.path.dirname(os.path.dirname(kneser_lab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised"] * 5


def test_chromatic_certificate_rechecked_from_descriptor(monkeypatch):
    """Engine tables that drop constraints cannot make an improper coloring
    pass: the certificate is re-verified from its descriptor alone.  KG(5,2)
    with its rule tables patched to hold no pair is one-colorable to the
    engine."""
    derive = solve._rule_tables

    def no_pairs(rule, points):
        adj, *rest = derive(rule, points)
        return ([0] * len(adj), *rest)

    monkeypatch.setattr(solve, "_rule_tables", no_pairs)
    with pytest.raises(SoundnessError, match="invalid certificate"):
        chromatic_number(build_kneser_hypergraph(GroundParams(5, 2, 2)))


def test_chromatic_number_runs_one_verifier_per_result(monkeypatch):
    """A builder instance is re-checked from its descriptor alone, and a
    hand-built one against its edge list alone: the other verifier, patched
    to fail every result, is never called."""
    h = build_kneser_hypergraph(GroundParams(7, 2, 2))
    hand = Hypergraph(h.vertices, h.edges)
    calls = []

    def refuse(*args):
        calls.append(args)
        return Report((Violation("patched", (), "patched to fail"),))

    monkeypatch.setattr(solve, "verify_coloring", refuse)
    res = chromatic_number(h)
    assert (res.status, res.upper, calls) == (EXACT, 5, [])
    assert verify_coloring_certificate(res.certificate).ok
    monkeypatch.undo()
    monkeypatch.setattr(solve, "verify_coloring_certificate", refuse)
    res = chromatic_number(hand)
    assert (res.status, res.upper, res.certificate, calls) == (EXACT, 5, None, [])


def test_conflict_colorings_list_no_witnesses(monkeypatch):
    """chromatic_number gives a conflict hypergraph the verified partition
    certificate: neither the witness lister nor the edge-list verifier
    runs, and the value is the partition number."""
    calls = []

    def spy(*args, lister=kneser._minimal_witnesses):
        calls.append(args)
        return lister(*args)

    monkeypatch.setattr(kneser, "_minimal_witnesses", spy)
    monkeypatch.setattr(solve, "verify_coloring", spy)
    res = chromatic_number(build_conflict_hypergraph(GroundParams(8, 3, 3)))
    assert (res.status, res.upper, res.nodes) == (EXACT, 5, 424)
    assert isinstance(res.certificate, PartitionCertificate)
    assert res.certificate.num_families == 5
    assert calls == []


def test_conflict_coloring_with_a_bad_class_is_refused(monkeypatch):
    """A search result whose colors merge two classes of the (8,3,3)
    conflict hypergraph, planted behind the engine, raises SoundnessError
    from the partition check."""
    search = solve._search

    def merged(h, budget, t0):
        out = search(h, budget, t0)
        colors = tuple(0 if c == 1 else c - (c > 1) for c in out.colors)
        return dataclasses.replace(out, lower=out.upper - 1, upper=out.upper - 1,
                                   colors=colors)

    monkeypatch.setattr(solve, "_search", merged)
    with pytest.raises(SoundnessError, match="invalid partition.*empty intersection"):
        chromatic_number(build_conflict_hypergraph(GroundParams(8, 3, 3)))


def test_partition_dominates_chromatic():
    p = GroundParams(6, 2, 3)
    part = min_partition_number(p)
    chi = chromatic_number(build_kneser_hypergraph(p))
    assert part.upper == 5 and chi.upper == 2
    assert part.upper > chi.upper


def test_determinism():
    a = min_partition_number(GroundParams(6, 2, 2))
    b = min_partition_number(GroundParams(6, 2, 2))
    assert (a.status, a.lower, a.upper, a.nodes) == (
        b.status,
        b.lower,
        b.upper,
        b.nodes,
    )
    assert a.certificate.to_dict() == b.certificate.to_dict()


def test_node_budget_yields_honest_bracket():
    res = min_partition_number(
        GroundParams(7, 2, 2), SolveBudget(max_nodes=1)
    )
    assert res.status == TIMEOUT
    assert res.lower <= 5 <= res.upper
    if res.certificate is not None:
        rep = verify_partition_certificate(res.certificate)
        assert rep.ok
        assert res.certificate.num_families == res.upper


def test_budget_accepts_one_worker_only():
    """Every solve is one search; workers stays only as a field that the
    benchmark's design passes, and accepts nothing but 1."""
    assert SolveBudget(workers=1).workers == 1
    for workers in (2, 0):
        with pytest.raises(InvalidParams, match="workers"):
            SolveBudget(workers=workers)


@pytest.mark.parametrize("field, value", [
    ("max_seconds", float("nan")),
    ("max_seconds", 0),
    ("max_seconds", -1.0),
    ("max_nodes", 0),
    ("max_nodes", -5),
    ("max_nodes", float("nan")),
])
def test_budgets_refuse_nan_and_non_positive_limits(field, value):
    """A NaN deadline is never passed, since time.monotonic() > nan is
    never true, and a node limit below 1 stops at the first node: the
    library refuses both, as the CLI's flags do, in SolveBudget and in
    both verifiers' max_seconds."""
    with pytest.raises(InvalidParams, match=field):
        SolveBudget(**{field: value})
    if field == "max_seconds":
        part = build_tight_partition(GroundParams(6, 2, 3))
        coloring, _ = blow_up(part)
        for verify, cert in ((verify_partition_certificate, part),
                             (verify_coloring_certificate, coloring)):
            with pytest.raises(InvalidParams, match=field):
                verify(cert, value)


def test_solve_result_json_shape():
    res = min_partition_number(GroundParams(5, 2, 2))
    doc = json.loads(json.dumps(res.to_dict()))
    assert doc["status"] == "EXACT"
    assert doc["lower"] == doc["upper"] == 3
    assert doc["certificate"]["format"] == "kneser-lab/1"
    assert set(doc) >= {"status", "lower", "upper", "nodes", "millis", "certificate"}


def test_brute_force_oracle_examples():
    tri = Hypergraph(
        vertices=tuple(KSubset(1 << i, 3) for i in range(3)),
        edges=((0, 1), (0, 2), (1, 2)),
    )
    assert brute_force_oracle(tri, 3) == 3
    assert brute_force_oracle(tri, 2) == INFEASIBLE

    one_edge = Hypergraph(
        vertices=tuple(KSubset(1 << i, 4) for i in range(4)),
        edges=((0, 1, 2, 3),),
    )
    assert brute_force_oracle(one_edge, 4) == 2

    from kneser_lab.kneser import build_stable_subhypergraph

    h = build_stable_subhypergraph(GroundParams(8, 2, 4), 4)
    assert brute_force_oracle(h, 4) == 2


@pytest.mark.parametrize("constraint", [
    (), (0,), (0, 0), (0, 1, 1), (1, 2, 1), (0, 1, 2, 2), (0, 9), (0, -1),
    (-1, 0), (0, 1, 9), (0, 1, 2, -1),
    # a negative id in each slot: the engine indexes a table of bits by
    # id, where -1 would silently read the last vertex's bit
    (0, 1, -1), (0, -1, 1), (-1, 0, 1),
    (-1, 0, 1, 2, 3), (0, -1, 1, 2, 3), (0, 1, -1, 2, 3), (0, 1, 2, -1, 3),
    (0, 1, 2, 3, -1),
    (9, 0, 1), (0, 9, 1), (2, 1, 1), (1, 0, 1), (0, 1, 2, 3, 3), (4, 0, 4, 1),
])
def test_engine_rejects_short_constraints(constraint):
    """Too few members, a repeated member or an id outside the vertices is
    bad input, not a soundness failure, and the message names it."""
    with pytest.raises(InvalidParams, match=re.escape(f"constraint {constraint}")):
        solve._edge_tables(5, ((0, 1), (0, 1, 2), (0, 1, 2, 3, 4), constraint))


def naive_forbidden(constraints, col_c):
    """Every vertex x with a constraint whose members other than x are
    all in the set col_c, as a mask."""
    out = 0
    for members in constraints:
        for x in members:
            if all(col_c >> y & 1 for y in members if y != x):
                out |= 1 << x
    return out


def naive_first_fit(nv, constraints):
    """Each vertex in id order takes the least color that completes no
    constraint among the vertices colored before it."""
    colors = []
    for v in range(nv):
        blocked = set()
        for members in constraints:
            if v in members:
                rest = [y for y in members if y != v]
                if all(y < v for y in rest) and len({colors[y] for y in rest}) == 1:
                    blocked.add(colors[rest[0]])
        c = 0
        while c in blocked:
            c += 1
        colors.append(c)
    return colors


def random_constraints(rng, nv):
    """Distinct-member constraints of 2 to 6 members, each listed in a
    random order, the list shuffled, some of them twice."""
    out = []
    for _ in range(rng.randint(1, 3 * nv)):
        size = rng.randint(2, min(6, nv))
        out.append(tuple(rng.sample(range(nv), size)))
    out += rng.sample(out, len(out) // 4)
    rng.shuffle(out)
    return out


def recount(engine, nv, constraints, m, rng):
    """One random proper partial coloring with m colors on the engine, each
    assignment checked against a recount from the constraint list: every
    forb[c] is the set of vertices some constraint would complete in color
    c, the count planes agree with forb, and an assignment fails exactly
    when an uncolored vertex has every color forbidden (a wipeout) or two
    uncolored vertices of a pair constraint have the same one color left
    (a clash).  Returns the assignments made and how the last one failed."""
    uncol, count = (1 << nv) - 1, engine._reset(m)
    tally = Counter()
    for v in rng.sample(range(nv), nv):
        allowed = [c for c in range(m) if not engine.forb[c] >> v & 1]
        c = rng.choice(allowed)
        uncol ^= 1 << v
        count = engine._assign(v, c, uncol, count)
        ok = count is not None
        tally["assigned"] += 1
        for d in range(m):
            want = naive_forbidden(constraints, engine.col[d])
            assert engine.forb[d] == want, (constraints, v, d)
        for x in range(nv):
            if ok and uncol >> x & 1:
                got = plane_value(count, x)
                assert got == sum(f >> x & 1 for f in engine.forb)
        stuck = any(
            uncol >> x & 1 and all(f >> x & 1 for f in engine.forb)
            for x in range(nv)
        )
        only = {x: [d for d in range(m) if not engine.forb[d] >> x & 1]
                for x in range(nv) if uncol >> x & 1}
        clash = any(
            len(members) == 2 and all(x in only for x in members)
            and len(only[members[0]]) == 1
            and only[members[0]] == only[members[1]]
            for members in constraints
        )
        assert ok == (not stuck and not clash), (constraints, v, c)
        if not ok:
            tally["wipeouts" if stuck else "clashes"] += 1
            break
    return tally


def test_propagation_matches_a_naive_recount():
    """Both kinds of engine tables, against a recount from the constraint
    list (see `recount`): the scan of the rests of larger constraints on
    random hypergraphs, and the rule tables of small conflict instances,
    with witnesses of 2 to 5 members, against the brute-force witness
    list.  first_fit is the naive greedy on both."""
    rng = random.Random(2006)
    tally = Counter()
    for _ in range(150):
        nv = rng.randint(4, 12)
        constraints = random_constraints(rng, nv)
        engine = solve._Engine(nv, solve._edge_tables(nv, constraints))
        assert engine.first_fit() == naive_first_fit(nv, constraints)
        for _ in range(3):
            tally += recount(engine, nv, constraints, rng.randint(2, 4), rng)
    assert tally["assigned"] > 1000 and tally["wipeouts"] > 40
    assert tally["clashes"] > 5
    tally = Counter()
    for n, k, r in [(5, 2, 2), (6, 2, 2), (6, 2, 3), (5, 3, 3), (5, 3, 4),
                    (6, 4, 5)]:
        h = build_conflict_hypergraph(GroundParams(n, k, r))
        points = tuple(v.bits for v in h.vertices)
        nv, witnesses = len(points), brute_force_witnesses(list(points), r)
        engine = solve._Engine(nv, solve._rule_tables(h.rule, points), points)
        assert engine.first_fit() == naive_first_fit(nv, witnesses)
        for m in (2, 2, 3, 3, 4, 4, 5, 5):
            tally += recount(engine, nv, witnesses, m, rng)
    assert tally["assigned"] > 350 and tally["wipeouts"] > 12
    assert tally["clashes"] > 3


def test_rule_tables_need_no_edge_limit(monkeypatch):
    """Tables read off a rule hold no per-constraint entry, so MAX_EDGES
    never binds them: with the limit at 1, KG^3(6,2) (90 triples), KG^4(8,2)
    (105 quadruples, built before the limit drops, since its builder checks
    the closed form) and the conflict instances (8,3,3) (5,320 witnesses)
    and (7,3,4) (with witnesses of 4 members) still prove EXACT, and none
    lists an edge."""
    kg4 = build_kneser_hypergraph(GroundParams(8, 2, 4))
    monkeypatch.setattr(kneser, "MAX_EDGES", 1)
    res = chromatic_number(build_kneser_hypergraph(GroundParams(6, 2, 3)))
    assert (res.status, res.upper) == (EXACT, 2)
    res = chromatic_number(kg4)
    assert (res.status, res.upper) == (EXACT, 2)
    res = min_partition_number(GroundParams(8, 3, 3))
    assert (res.status, res.upper, res.nodes) == (EXACT, 5, 424)
    res = min_partition_number(GroundParams(7, 3, 4))
    assert (res.status, res.upper, res.nodes) == (EXACT, 5, 1910)


def rule_sweep():
    """Builder instances with at most 130 vertices and n <= 9: conflict
    instances for r = 2..6, and for r <= 5 KG^r, its s-stable variants for
    s in {2, 3} and block-constrained KG^r with blocks of r - 1 points.
    Where edges can have 4 or more members (conflict instances with
    min(r, k + 1) >= 4, Kneser-type ones with r >= 4) the scan engine
    needs them listed, so those stop at n <= 8 and 56 vertices."""
    for n in range(1, 10):
        for k in range(1, n + 1):
            if comb(n, k) > 130:
                continue
            small = n <= 8 and comb(n, k) <= 56
            for r in range(2, 7):
                p = GroundParams(n, k, r)
                if min(r, k + 1) <= 3 or small:
                    yield p, build_conflict_hypergraph(p)
                if r > 5 or r > 3 and not small:
                    continue
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    yield p, build_kneser_hypergraph(p)
                for s in (2, 3):
                    yield (p, s), build_stable_subhypergraph(p, s)
                blocks = PartSpec(consecutive_blocks(n, r - 1))
                yield (p, blocks), build_partition_constrained(p, blocks)


def test_rule_tables_equal_the_edge_tables():
    """An engine on the tables read off a builder's rule propagates as one
    that scans its listed edges: on random partial colorings, each
    assignment leaves every forb[c] and the count planes equal, and fails
    on both or on neither, so every search tree is the scan path's.  Every
    rule gives tables, at every arity: the meet rule up to witnesses of 6
    members, the disjoint rule up to r = 5."""
    rng = random.Random(28)
    derived = assigned = failed = 0
    for name, h in rule_sweep():
        points = tuple(v.bits for v in h.vertices)
        got = solve._rule_tables(h.rule, points)
        nv = len(points)
        rule = solve._Engine(nv, got, points)
        edge = solve._Engine(nv, solve._edge_tables(nv, h.edges))
        for _ in range(3):
            m = rng.randint(2, 5)
            uncol, count = (1 << nv) - 1, rule._reset(m)
            assert edge._reset(m) == count
            for v in rng.sample(range(nv), nv):
                allowed = [c for c in range(m) if not rule.forb[c] >> v & 1]
                c = rng.choice(allowed)
                uncol ^= 1 << v
                want = edge._assign(v, c, uncol, count)
                count = rule._assign(v, c, uncol, count)
                assert (rule.col, rule.forb, count) == (edge.col, edge.forb, want), name
                assigned += 1
                if count is None:
                    failed += 1
                    break
        derived += 1
    assert derived == 841
    assert assigned > 18_000 and failed > 400, (assigned, failed)


def test_rule_instances_list_no_edges(monkeypatch):
    """Neither lister runs while chromatic_number searches a Kneser-type
    builder instance or min_partition_number a conflict instance, at any
    arity: KG^4(12,2) has edges of 4 members, and (7,3,4) and (7,4,5)
    witnesses of 4 and 5.  Reading `edges` lists them once."""
    calls = []
    for name in ("_disjoint_tuples", "_minimal_witnesses"):
        def spy(*args, name=name, lister=getattr(kneser, name)):
            calls.append(name)
            return lister(*args)

        monkeypatch.setattr(kneser, name, spy)
    blocks = PartSpec(consecutive_blocks(10, 2))
    results = [
        min_partition_number(GroundParams(9, 2, 3)),
        min_partition_number(GroundParams(8, 3, 3)),
        chromatic_number(build_kneser_hypergraph(GroundParams(11, 3, 3))),
        chromatic_number(build_partition_constrained(GroundParams(10, 2, 3), blocks)),
        chromatic_number(build_kneser_hypergraph(GroundParams(10, 2, 2))),
        chromatic_number(build_stable_subhypergraph(GroundParams(10, 3, 2), 2)),
        min_partition_number(GroundParams(7, 3, 4)),
        min_partition_number(GroundParams(7, 4, 5)),
        chromatic_number(build_kneser_hypergraph(GroundParams(12, 2, 4))),
    ]
    assert [(res.status, res.nodes) for res in results[:8]] == [
        (EXACT, nodes) for nodes in (1101, 424, 748, 1655, 265, 29646, 1910, 3073)]
    assert (results[8].status, results[8].upper, results[8].nodes) == (EXACT, 3, 170)
    assert calls == []
    h = build_kneser_hypergraph(GroundParams(8, 2, 2))
    assert h.num_edges == 210 and h.edges is h.edges
    assert calls == ["_disjoint_tuples"]
    h = build_conflict_hypergraph(GroundParams(7, 3, 4))
    assert h.num_edges and h.edges is h.edges
    assert calls == ["_disjoint_tuples", "_minimal_witnesses"]


def test_chromatic_number_of_the_empty_hypergraph():
    res = chromatic_number(Hypergraph((), ()))
    assert (res.status, res.lower, res.upper, res.colors) == (EXACT, 0, 0, ())
    assert res.certificate is None


@pytest.mark.parametrize("vertices, edges", [
    (4, ((0, 0),)), (4, ((0, 1, 1),)), (4, ((0, 9),)), (4, ((0, -1),)),
    (0, ((0, 1),)), (4, 5), (4, None),
])
def test_chromatic_number_rejects_malformed_edges(vertices, edges):
    """A hand-built Hypergraph with a malformed edge, or with edges that
    are not a collection at all, raises InvalidParams through the public
    entry point, the empty one included."""
    h = Hypergraph(tuple(KSubset(1 << i, 4) for i in range(vertices)), edges)
    what = f"constraint {edges[0]}" if isinstance(edges, tuple) else f"edges {edges} "
    with pytest.raises(InvalidParams, match=re.escape(what)):
        chromatic_number(h)


def test_brute_force_oracle_guards():
    big = Hypergraph(
        vertices=tuple(KSubset(1 << i, 17) for i in range(17)),
        edges=((0, 1),),
    )
    with pytest.raises(InstanceTooLarge):
        brute_force_oracle(big, 2)
    empty = Hypergraph(vertices=(), edges=())
    assert brute_force_oracle(empty, 1) == 0
    with pytest.raises(InvalidParams):
        brute_force_oracle(empty, 0)


def test_deep_search_keeps_the_recursion_limit():
    """A search deeper than the interpreter's recursion limit still finishes:
    the crown graph on 600 vertices (a_i joined to b_j for i != j, ids
    interleaved) branches once per vertex, past a limit of 500, and the
    limit is restored afterwards."""
    half = 300
    edges = tuple(sorted((min(2 * i, 2 * j + 1), max(2 * i, 2 * j + 1))
                         for i in range(half) for j in range(half) if i != j))
    h = Hypergraph(tuple(KSubset(1 << (v % 4), 4) for v in range(2 * half)), edges)
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(500)
    try:
        res = chromatic_number(h, SolveBudget(max_seconds=60))
        assert sys.getrecursionlimit() == 500
    finally:
        sys.setrecursionlimit(before)
    assert res.status == EXACT and res.upper == 2


def test_edgeless_hypergraph_is_one_colorable():
    with pytest.warns(UserWarning):
        h = build_kneser_hypergraph(GroundParams(5, 2, 3))  # n < rk
    res = chromatic_number(h)
    assert res.status == EXACT and res.upper == 1
    assert brute_force_oracle(h, 1) == 1
