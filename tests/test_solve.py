"""Conflict extraction and the exact solver, cross-checked against brute force."""

import dataclasses
import gc
import json
import os
import random
import subprocess
import sys
import textwrap
import warnings
from itertools import combinations
from math import comb

import pytest

import kneser_lab
from kneser_lab import kneser, solve
from kneser_lab.constructions import blow_up, build_tight_partition, tight_bound
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
    verify_coloring,
    verify_coloring_certificate,
    verify_partition_certificate,
)

from oracle import INFEASIBLE, brute_force_oracle


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


def test_conflict_size_caps(monkeypatch):
    with pytest.raises(InstanceTooLarge, match="vertices exceeds limit 100000"):
        build_conflict_hypergraph(GroundParams(20, 10, 3))  # 184,756 vertices
    monkeypatch.setattr(solve, "MAX_EDGES", 10)
    with pytest.raises(InstanceTooLarge):
        build_conflict_hypergraph(GroundParams(6, 2, 3))


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


def test_solver_matches_brute_force():
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
        res = chromatic_number(h)
        assert res.status == EXACT, trial
        # the oracle re-proves every count below the answer infeasible
        assert brute_force_oracle(h, res.upper) == res.upper, trial
        # every rotation of the branching tie-break reaches the same value,
        # with and without orbital pruning over the point classes
        points = tuple(1 << i for i in range(nv))
        cells = twin_cells(nv, h.edges)
        for shift in range(nv):
            for pruning in [(), (points, cells)]:
                out = _search(nv, h.edges, SolveBudget(), shift, *pruning)
                assert (out.status, out.upper) == (EXACT, res.upper), (trial, shift)
                assert verify_coloring(h, out.colors).ok, (trial, shift)


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
    """Node counts at workers=1 are deterministic; a change to the engine's
    branching, propagation, tie-break or orbital pruning moves them."""
    p623 = GroundParams(6, 2, 3)
    cases = [
        (min_partition_number(p623), 5, 41),
        (chromatic_number(build_kneser_hypergraph(p623)), 2, 4),
        # s-stable: no cells, so no orbital pruning
        (chromatic_number(
            build_stable_subhypergraph(GroundParams(8, 2, 2), 2)), 6, 134),
        (chromatic_number(build_partition_constrained(
            p623, PartSpec(((1, 2), (3, 4), (5, 6))))), 2, 5),
        (min_partition_number(GroundParams(7, 2, 2)), 5, 23),
        (min_partition_number(GroundParams(8, 2, 3)), 7, 3467),
        # n < 2k: no disjoint pair, so no clique is pinned
        (min_partition_number(GroundParams(7, 4, 3)), 3, 50),
    ]
    for i, (res, value, nodes) in enumerate(cases):
        assert (res.status, res.upper, res.nodes) == (EXACT, value, nodes), i


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
    the clique size up to the first feasible m, at two tie-break shifts;
    every coloring found with cells is proper."""
    decisions = 0
    for name, h, cells in cell_instances():
        nv = h.num_vertices
        points = tuple(v.bits for v in h.vertices)
        for shift in {0, nv // 2}:
            plain = solve._Engine(nv, h.edges)
            pruned = solve._Engine(nv, h.edges, points, cells)
            plain.shift = pruned.shift = shift
            clique = plain.pair_clique()
            m = max(1, len(clique))
            while True:
                want, got = plain.run(m, clique), pruned.run(m, clique)
                assert (want is None) == (got is None), (name, shift, m)
                decisions += 1
                if got is not None:
                    assert verify_coloring(h, got).ok, (name, shift, m)
                    break
                m += 1
    assert decisions == 612


def test_orbit_prunes_stay_in_the_cell_group(monkeypatch):
    """White-box checks at every prune, since extra pruning seldom flips a
    decision: each colored vertex is a union of cells and outside points
    (so the cell group fixes it), the orbit is the naive one, and a node
    that fails leaves forb, col and uncol as it found them."""
    orbit_fn, dfs_fn = solve._Engine._orbit, solve._Engine._dfs
    sizes = []

    def orbit(self, v, cells):
        out = orbit_fn(self, v, cells)
        pts, covered = self.points, sum(cells)
        for w in range(self.nv):
            if not self.uncol >> w & 1:
                assert all(pts[w] & cell in (0, cell) for cell in cells)
        naive = {
            u for u in range(self.nv)
            if self.uncol >> u & 1
            and pts[u] & ~covered == pts[v] & ~covered
            and all((pts[u] & cell).bit_count() == (pts[v] & cell).bit_count()
                    for cell in cells)
        }
        assert out == sum(1 << u for u in naive)
        sizes.append(len(naive))
        return out

    def dfs(self, remaining, max_used, cells):
        before = (list(self.forb), list(self.col), self.uncol)
        found = dfs_fn(self, remaining, max_used, cells)
        assert found or (list(self.forb), list(self.col), self.uncol) == before
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
    plain = _search(h.num_vertices, h.edges, SolveBudget())
    assert (res.upper, res.nodes) == (plain.upper, plain.nodes) == (6, 134)


def test_hand_built_hypergraph_gets_no_cells():
    """Cells and descriptors come only from the builders: the same vertices
    and constraints built by hand search the plain tree, and the
    constructor takes nothing but vertices and edges."""
    kg = build_kneser_hypergraph(GroundParams(8, 2, 2))
    ch = build_conflict_hypergraph(GroundParams(6, 2, 3))
    cases = [
        (Hypergraph(kg.vertices, kg.edges), 6, 183),
        (kg, 6, 85),
        (Hypergraph(ch.vertices, ch.edges), 5, 103),
        (ch, 5, 41),
    ]
    for i, (h, value, nodes) in enumerate(cases):
        res = chromatic_number(h)
        assert (res.status, res.upper, res.nodes) == (EXACT, value, nodes), i
    for name in ("params", "stability", "parts", "cells"):
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
    assert same.cells == () and same.params is None
    assert chromatic_number(same).nodes == 183
    edited = dataclasses.replace(kg, edges=kg.edges[::2])
    assert edited.params is None and edited.cells == ()
    assert not all(transposition_images(edited, (1 << 8) - 1).values())
    nv, points = edited.num_vertices, tuple(v.bits for v in edited.vertices)
    wrong = _search(nv, edited.edges, SolveBudget(), 0, points, kg.cells)
    assert (wrong.status, wrong.upper) == (EXACT, 5)

    seen = []
    run_search = solve._run_search

    def spy(nv, constraints, budget, points=(), cells=()):
        out = run_search(nv, constraints, budget, points, cells)
        seen.append((cells, out.upper))
        return out

    monkeypatch.setattr(solve, "_run_search", spy)
    res = chromatic_number(edited)
    assert (res.status, res.upper, res.certificate) == (EXACT, 4, None)
    assert verify_coloring(edited, res.colors).ok
    assert seen == [((), 4)]


def test_conflict_hypergraph_solves_like_the_partition_number():
    """One record, one search core: the chromatic number of the conflict
    hypergraph is the partition number, found in the same tree.  It names
    no Kneser-type variant, so it gets no certificate."""
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
                assert chi.certificate is None
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
        from kneser_lab.verify import Report, Violation
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
            (None, lambda: Report(True, (Violation("x", (0,), "bad"),))),
            (None, lambda: solve.SolveResult(solve.EXACT, 2, 3, 0, 0, colors=(0,))),
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
    """A builder that drops edges cannot make an improper coloring pass:
    the certificate is re-verified from its descriptor alone."""
    monkeypatch.setattr(kneser, "_disjoint_tuples", lambda *args: [])
    h = build_kneser_hypergraph(GroundParams(5, 2, 2))
    assert h.num_edges == 0
    with pytest.raises(SoundnessError, match="invalid certificate"):
        chromatic_number(h)


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


def test_proof_cap_yields_bounds():
    res = min_partition_number(
        GroundParams(9, 2, 2), SolveBudget(proof_cap=10)
    )
    assert res.status == "BOUNDS"
    assert res.nodes == 0
    assert res.lower == 4  # a greedy disjoint clique certifies this
    assert res.lower <= 7 <= res.upper or res.upper <= 7
    assert verify_partition_certificate(res.certificate).ok


def test_worker_portfolio_agrees():
    single = min_partition_number(GroundParams(6, 2, 2))
    multi = min_partition_number(
        GroundParams(6, 2, 2), SolveBudget(workers=2)
    )
    assert multi.status == EXACT
    assert multi.upper == single.upper == 4


@pytest.mark.parametrize(
    "budget, status, lowers",
    [
        (SolveBudget(workers=2, proof_cap=10), "BOUNDS", 1),
        (SolveBudget(workers=2, max_nodes=3), TIMEOUT, 1),
        (SolveBudget(workers=2, max_nodes=20), TIMEOUT, 2),  # workers disagree
    ],
    ids=["bounds", "timeout", "timeout-split"],
)
def test_worker_portfolio_merges_brackets(budget, status, lowers):
    """Without an EXACT worker the portfolio keeps the best lower bound and
    the coloring of the best upper bound; value 7 sits inside both.  Each
    worker searches with the cells of [9]; `lowers` is how many distinct
    lower bounds the two workers reach."""
    p = GroundParams(9, 2, 2)
    h = build_kneser_hypergraph(p)
    part = min_partition_number(p, budget)
    chi = chromatic_number(h, budget)
    ch = build_conflict_hypergraph(p)
    for res, constraints, vertices in [(part, ch.edges, ch.vertices),
                                       (chi, h.edges, h.vertices)]:
        points = tuple(v.bits for v in vertices)
        assert res.status == status
        assert res.lower <= 7 <= res.upper
        singles = [_search(36, constraints, budget, shift, points, (2**9 - 1,))
                   for shift in (0, 18)]
        assert len({o.lower for o in singles}) == lowers
        assert res.lower == max(o.lower for o in singles)
        assert res.upper == min(o.upper for o in singles)
        assert res.nodes == sum(o.nodes for o in singles)
    assert verify_partition_certificate(part.certificate).ok
    assert part.certificate.num_families == part.upper
    assert verify_coloring(h, chi.colors).ok
    assert max(chi.colors) + 1 == chi.upper


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


@pytest.mark.parametrize("constraint", [(), (0,)])
def test_engine_rejects_short_constraints(constraint):
    with pytest.raises(InvalidParams, match="fewer than 2 members"):
        solve._Engine(3, ((0, 1), (0, 1, 2), constraint))


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


def test_edgeless_hypergraph_is_one_colorable():
    with pytest.warns(UserWarning):
        h = build_kneser_hypergraph(GroundParams(5, 2, 3))  # n < rk
    res = chromatic_number(h)
    assert res.status == EXACT and res.upper == 1
    assert brute_force_oracle(h, 1) == 1
