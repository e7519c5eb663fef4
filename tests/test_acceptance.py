"""Acceptance gate: one test per shipping criterion, each printing a PASS line.

Every numeric target here was either checked against the closed forms by hand
or frozen from an independent oracle run (brute force enumeration, naive
subfamily scans) before the solver was trusted with it.
"""

import random
import time
from itertools import combinations
from math import ceil

from kneser_lab.constructions import (
    blow_up,
    build_tight_partition,
    check_stable_embedding,
    tail_size,
    tight_bound,
)
from kneser_lab.kneser import (
    Hypergraph,
    PartSpec,
    build_kneser_hypergraph,
    build_partition_constrained,
    build_stable_subhypergraph,
    formula_chi,
)
from kneser_lab.setsys import GroundParams, KSubset, SetFamily
from kneser_lab.solve import (
    EXACT,
    chromatic_number,
    min_partition_number,
)
from kneser_lab.verify import (
    is_r_wise_intersecting,
    verify_coloring,
    verify_coloring_certificate,
    verify_partition_certificate,
)

from oracle import brute_force_oracle


def test_criterion_01_pair_ladder():
    start = time.monotonic()
    got = []
    for n in (4, 5, 6, 7):
        res = min_partition_number(GroundParams(n, 2, 2))
        assert res.status == EXACT
        assert verify_partition_certificate(res.certificate).ok
        got.append(res.upper)
        assert res.upper == n - 2 * 2 + 2
    elapsed = time.monotonic() - start
    assert got == [2, 3, 4, 5]
    assert elapsed < 60
    print(f"PASS criterion 1: k=2 r=2 ladder n=4..7 -> {got} in {elapsed:.1f}s")


def test_criterion_02_three_wise_tightness():
    results = []
    for n, k in [(3, 1), (4, 2), (5, 2), (6, 2), (6, 3)]:
        start = time.monotonic()
        p = GroundParams(n, k, 3)
        res = min_partition_number(p)
        elapsed = time.monotonic() - start
        assert res.status == EXACT
        assert res.upper == tight_bound(p), (n, k)
        assert elapsed < 600
        results.append((n, k, res.upper))
    assert [v for (_, _, v) in results] == [3, 3, 4, 5, 3]
    print(f"PASS criterion 2: r=3 solver equals closed form on {results}")


def test_criterion_03_four_wise_tightness():
    start = time.monotonic()
    res = min_partition_number(GroundParams(4, 2, 4))
    elapsed = time.monotonic() - start
    assert res.status == EXACT and res.upper == 3
    assert res.upper == tight_bound(GroundParams(4, 2, 4))
    assert elapsed < 60
    print(f"PASS criterion 3: (n,k,r)=(4,2,4) -> 3 in {elapsed:.1f}s")


def test_criterion_04_construction_grid():
    start = time.monotonic()
    checked = 0
    for r in range(2, 6):
        for k in range(1, 5):
            for n in range(k, 13):
                p = GroundParams(n, k, r)
                if not p.admissible:
                    continue
                cert = build_tight_partition(p)
                assert cert.num_families == tight_bound(p), (n, k, r)
                assert verify_partition_certificate(cert).ok, (n, k, r)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(
        f"PASS criterion 4: construction verified on {checked} admissible "
        f"(n,k,r) triples in {elapsed:.1f}s"
    )


def test_criterion_05_chromatic_formula():
    cases = [(5, 2, 3), (6, 2, 4), (6, 3, 2), (7, 3, 2), (8, 4, 2)]
    for n, r, want in cases:
        start = time.monotonic()
        p = GroundParams(n, 2, r)
        res = chromatic_number(build_kneser_hypergraph(p))
        elapsed = time.monotonic() - start
        assert res.status == EXACT
        assert res.upper == want == formula_chi(p), (n, r)
        assert elapsed < 300
    print(f"PASS criterion 5: chromatic numbers match the closed form on {cases}")


def test_criterion_06_stable_variants():
    cases = [(6, 2, 2, 4), (7, 2, 2, 5), (8, 2, 2, 6), (8, 4, 4, 2)]
    for n, r, s, want in cases:
        start = time.monotonic()
        h = build_stable_subhypergraph(GroundParams(n, 2, r), s)
        res = chromatic_number(h)
        elapsed = time.monotonic() - start
        assert res.status == EXACT and res.upper == want, (n, r, s)
        assert verify_coloring(h, list(res.colors)).ok
        assert elapsed < 300
    print(f"PASS criterion 6: stable subhypergraph values match on {cases}")


def test_criterion_07_constrained_variant():
    start = time.monotonic()
    h = build_partition_constrained(
        GroundParams(6, 2, 3), PartSpec(((1, 2), (3, 4), (5, 6)))
    )
    res = chromatic_number(h)
    elapsed = time.monotonic() - start
    assert res.status == EXACT and res.upper == 2
    assert elapsed < 60
    print(f"PASS criterion 7: constrained (6,2,3) with three blocks -> 2 in {elapsed:.1f}s")


def test_criterion_08_blow_up_end_to_end():
    start = time.monotonic()
    src = build_tight_partition(GroundParams(4, 2, 3))
    coloring, bmap = blow_up(src)
    assert coloring.ground_n == 8
    assert len(coloring.colors) == 24
    assert coloring.num_colors == 3 == ceil((8 - 3) / 2)
    assert coloring.num_colors == formula_chi(GroundParams(8, 2, 3))
    h = build_partition_constrained(GroundParams(8, 2, 3), PartSpec(bmap.blocks))
    assert verify_coloring(h, list(coloring.colors)).ok
    assert verify_coloring_certificate(coloring).ok
    assert check_stable_embedding(bmap).ok
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(
        f"PASS criterion 8: blow-up of (4,2,3) -> 3-coloring of 24 vertices "
        f"on ground 8, stable embedding ok, in {elapsed:.1f}s"
    )


def test_criterion_09_property_suites():
    # ceiling identity across the full stated grid
    for r in range(2, 9):
        for k in range(1, 11):
            for n in range(k, 41):
                p = GroundParams(n, k, r)
                if not p.admissible:
                    continue
                s = tail_size(k, r)
                assert tight_bound(p) == n - s + 1
                assert tight_bound(p) == ceil((n * (r - 1) - r * (k - 1)) / (r - 1))

    # solver vs brute force on 200 random hypergraphs
    rng = random.Random(1729)
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
        assert brute_force_oracle(h, res.upper) == res.upper, trial

    # intersection verifier vs naive subfamily scan
    def naive(members, r):
        for sz in range(1, r + 1):
            for combo in combinations(members, sz):
                inter = -1
                for m in combo:
                    inter &= m.bits
                if inter == 0:
                    return False
        return True

    for trial in range(300):
        n = rng.randint(3, 7)
        r = rng.randint(2, 4)
        size = rng.randint(1, min(12, 2 ** n - 1))
        seen, members = set(), []
        while len(members) < size:
            sz = rng.randint(1, n)
            els = tuple(sorted(rng.sample(range(1, n + 1), sz)))
            if els not in seen:
                seen.add(els)
                members.append(KSubset.from_elements(els, n))
        fam = SetFamily(n, tuple(members))
        assert is_r_wise_intersecting(fam, r).ok == naive(members, r), trial

    # monotonicity: the bound steps up by exactly one per added point
    for k, r in [(2, 2), (2, 3), (3, 4)]:
        prev = None
        for n in range(k, 30):
            p = GroundParams(n, k, r)
            if not p.admissible:
                continue
            m = tight_bound(p)
            if prev is not None:
                assert m == prev + 1
            prev = m

    # determinism: byte-identical reruns
    a = min_partition_number(GroundParams(6, 2, 2))
    b = min_partition_number(GroundParams(6, 2, 2))
    assert (a.upper, a.nodes) == (b.upper, b.nodes)
    assert a.certificate.to_dict() == b.certificate.to_dict()
    ha = chromatic_number(build_kneser_hypergraph(GroundParams(6, 2, 2)))
    hb = chromatic_number(build_kneser_hypergraph(GroundParams(6, 2, 2)))
    assert ha.colors == hb.colors and ha.nodes == hb.nodes

    print(
        "PASS criterion 9: ceiling identity grid, 200-instance oracle sweep, "
        "300-family naive-scan sweep, monotonicity, determinism"
    )


def test_criterion_10_partition_strictly_above_chromatic():
    p = GroundParams(6, 2, 3)
    part = min_partition_number(p)
    chi = chromatic_number(build_kneser_hypergraph(p))
    assert part.status == EXACT and part.upper == 5
    assert chi.status == EXACT and chi.upper == 2
    assert part.upper > chi.upper
    print(
        "PASS criterion 10: on (6,2,3) the partition number 5 exceeds the "
        "chromatic number 2"
    )


def test_criterion_11_exact_frontier():
    """The instances that timed out before the weighted tie-break, (8,5,6),
    which took 53 s before its constraints of 4 or more members were
    pair-watched, and (8,4,5), which took 12-19 s before the meet step's
    closures were memoised: each proved EXACT at its closed form within
    20 s."""
    solved = []
    for n, k, r, want in [(10, 2, 3, 9), (11, 2, 3, 10), (12, 2, 3, 11), (8, 3, 4, 6),
                          (8, 5, 6, 4), (8, 4, 5, 5)]:
        start = time.monotonic()
        p = GroundParams(n, k, r)
        res = min_partition_number(p)
        elapsed = time.monotonic() - start
        assert res.status == EXACT and res.upper == want == tight_bound(p), (n, k, r)
        assert verify_partition_certificate(res.certificate).ok
        assert elapsed < 20, (n, k, r, elapsed)
        solved.append(f"({n},{k},{r})={want}")

    start = time.monotonic()
    p = GroundParams(12, 2, 2)
    h = build_kneser_hypergraph(p)
    res = chromatic_number(h)
    elapsed = time.monotonic() - start
    assert res.status == EXACT and res.upper == 10 == formula_chi(p)
    assert verify_coloring_certificate(res.certificate).ok
    assert elapsed < 20, elapsed
    print(f"PASS criterion 11: {', '.join(solved)} and chi KG(12,2)=10 EXACT, "
          f"each within 20s")


def test_chi_kneser_16_2_exact_frontier():
    """KG(16,2), 120 vertices, at the chi frontier: the search refutes 13
    colors within 20 s, and the certificate re-verifies from its
    descriptor."""
    start = time.monotonic()
    p = GroundParams(16, 2, 2)
    h = build_kneser_hypergraph(p)
    res = chromatic_number(h)
    elapsed = time.monotonic() - start
    assert res.status == EXACT and res.upper == 14 == formula_chi(p)
    assert verify_coloring_certificate(res.certificate).ok
    assert elapsed < 20, elapsed
    print(f"PASS chi KG(16,2)=14 EXACT in {elapsed:.1f}s, {res.nodes} nodes")
