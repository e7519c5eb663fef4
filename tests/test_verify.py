"""The verifiers against naive exhaustive scans and hand-built failures."""

import dataclasses
import random
import warnings
from collections import Counter
from itertools import combinations
from time import perf_counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kneser_lab.constructions import (
    ColoringCertificate,
    PartitionCertificate,
    blow_up,
    build_tight_partition,
)
from kneser_lab.errors import (
    InstanceTooLarge,
    InvalidParams,
    LengthMismatch,
    VerifyTimeout,
)
from kneser_lab.kneser import (
    Hypergraph,
    PartSpec,
    build_kneser_hypergraph,
    build_partition_constrained,
    build_stable_subhypergraph,
)
from kneser_lab.setsys import GroundParams, KSubset, SetFamily, enumerate_k_subsets
from kneser_lab import verify
from kneser_lab.solve import chromatic_number
from kneser_lab.verify import (
    CLOCK_STRIDE,
    Violation,
    _disjoint_chains,
    is_r_wise_intersecting,
    verify_coloring,
    verify_coloring_certificate,
    verify_partition_certificate,
)

from oracle import (
    brute_force_monochromatic,
    brute_force_witnesses,
    hilton_milner_partition,
    reference_disjoint_chains,
)


def family(n, *element_tuples):
    return SetFamily(n, tuple(KSubset.from_elements(e, n) for e in element_tuples))


def naive_r_wise(members, r):
    """Oracle: check every subfamily of size <= r directly."""
    for sz in range(1, r + 1):
        for combo in combinations(members, sz):
            inter = -1
            for m in combo:
                inter &= m.bits
            if inter == 0:
                return False
    return True


def test_pairs_on_three_points_intersect():
    fam = SetFamily(5, tuple(
        KSubset.from_elements(e, 5) for e in [(3, 4), (3, 5), (4, 5)]
    ))
    assert is_r_wise_intersecting(fam, 2).ok


def test_triangle_fails_at_r3():
    fam = family(3, (1, 2), (2, 3), (1, 3))
    assert is_r_wise_intersecting(fam, 2).ok
    rep = is_r_wise_intersecting(fam, 3)
    assert not rep.ok
    assert rep.violations[0].indices == (0, 1, 2)
    assert rep.violations[0].kind == "empty_intersection"


def test_disjoint_pair_beats_budget_r3():
    fam = family(4, (1, 2), (3, 4))
    rep = is_r_wise_intersecting(fam, 3)
    assert not rep.ok
    assert rep.violations[0].indices == (0, 1)


def test_star_family_accepts_any_r():
    members = [(1, e) for e in range(2, 9)]
    fam = family(8, *members)
    for r in (2, 3, 5, 9):
        rep = is_r_wise_intersecting(fam, r)
        assert rep.ok
        # the common-point shortcut means one intersection pass suffices
        assert rep.stats["tuples_examined"] == 1


def test_small_union_witness_is_strict():
    """The 2-subsets of [3] span |T| = 3 points with t = 2: at r = 2,
    2*(3 - 2) < 3 proves them without a search, and at r = 3, where
    3*(3 - 2) = 3, the search runs and finds the triangle."""
    fam = family(3, (1, 2), (1, 3), (2, 3))
    rep = is_r_wise_intersecting(fam, 2)
    assert rep.ok and rep.stats["tuples_examined"] == 1
    rep = is_r_wise_intersecting(fam, 3)
    assert rep.violations[0].indices == (0, 1, 2)
    assert rep.stats["tuples_examined"] > 1


@pytest.mark.parametrize("n,k", [(18, 9), (20, 10)])
def test_large_tight_partitions_verify_quickly(n, k):
    """Every tail family of a tight partition is proved by the small-union
    witness: (18,9,2) took 34-51 s and 295,500,206 chains without it."""
    cert = build_tight_partition(GroundParams(n, k, 2))
    t0 = perf_counter()
    rep = verify_partition_certificate(cert)
    assert perf_counter() - t0 < 2
    assert rep.ok and rep.stats["tuples_examined"] == 2


def test_witness_is_lex_least_minimal():
    # two bad triples exist; (0,1,2) must win over anything later
    fam = family(6, (1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6))
    rep = is_r_wise_intersecting(fam, 3)
    assert rep.violations[0].indices == (0, 1, 2)
    # a disjoint pair starting at 0 beats the triangle at (1,2,3)
    fam = family(6, (1, 2), (3, 4), (3, 5), (4, 5))
    rep = is_r_wise_intersecting(fam, 3)
    assert rep.violations[0].indices == (0, 1)


def test_invalid_inputs():
    with pytest.raises(InvalidParams):
        is_r_wise_intersecting(family(4, (1, 2)), 1)
    with pytest.raises(InvalidParams):
        is_r_wise_intersecting(SetFamily(4, ()), 2)


def test_verifiers_refuse_the_other_certificate_type():
    partition = build_tight_partition(GroundParams(5, 2, 2))
    coloring, _ = blow_up(partition)
    with pytest.raises(InvalidParams, match="expected a PartitionCertificate"):
        verify_partition_certificate(coloring)
    with pytest.raises(InvalidParams, match="expected a ColoringCertificate"):
        verify_coloring_certificate(partition)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_matches_naive_scan(data):
    n = data.draw(st.integers(3, 7))
    r = data.draw(st.integers(2, 4))
    universe = [
        tuple(sorted(c))
        for sz in range(n + 1)  # the empty set is a witness on its own
        for c in combinations(range(1, n + 1), sz)
    ]
    picks = data.draw(
        st.lists(st.sampled_from(universe), min_size=1, max_size=10, unique=True)
    )
    fam = SetFamily(n, tuple(KSubset.from_elements(e, n) for e in picks))
    rep = is_r_wise_intersecting(fam, r)
    assert rep.ok == naive_r_wise(fam.members, r)
    witnesses = brute_force_witnesses([m.bits for m in fam.members], r)
    assert rep.ok == (not witnesses)
    if not rep.ok:  # the lexicographically least minimal subfamily
        assert rep.violations[0].indices == witnesses[0]


def test_monotone_in_r():
    # r-wise intersecting implies r'-wise intersecting for r' <= r
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(3, 7)
        size = rng.randint(1, min(8, 2 ** n - 1))
        seen = set()
        members = []
        while len(members) < size:
            sz = rng.randint(1, n)
            els = tuple(sorted(rng.sample(range(1, n + 1), sz)))
            if els not in seen:
                seen.add(els)
                members.append(KSubset.from_elements(els, n))
        fam = SetFamily(n, tuple(members))
        status = [is_r_wise_intersecting(fam, r).ok for r in (2, 3, 4, 5)]
        # once it fails it must keep failing as r grows
        for earlier, later in zip(status, status[1:]):
            assert earlier or not later


def test_partition_certificate_accepts_construction():
    cert = build_tight_partition(GroundParams(5, 2, 2))
    rep = verify_partition_certificate(cert)
    assert rep.ok
    assert cert.num_families == 3


def test_partition_certificate_rejects_merged_families():
    cert = build_tight_partition(GroundParams(5, 2, 2))
    merged = SetFamily(5, cert.families[0].members + cert.families[1].members)
    bad = PartitionCertificate(cert.params, (merged,) + cert.families[2:])
    rep = verify_partition_certificate(bad)
    assert not rep.ok
    v = rep.violations[0]
    assert v.kind == "empty_intersection"
    # the witness is a disjoint pair: one set holding 1, one holding 2
    a, b = (merged.members[i] for i in v.indices)
    assert a.bits & b.bits == 0


def test_partition_certificate_coverage_violations():
    cert = build_tight_partition(GroundParams(5, 2, 2))
    # drop one subset
    f0 = SetFamily(5, cert.families[0].members[1:])
    rep = verify_partition_certificate(
        PartitionCertificate(cert.params, (f0,) + cert.families[1:])
    )
    assert not rep.ok
    assert any(v.kind == "uncovered_subset" for v in rep.violations)
    # duplicate one subset across families
    dup = SetFamily(5, cert.families[1].members + (cert.families[0].members[0],))
    rep = verify_partition_certificate(
        PartitionCertificate(cert.params, (cert.families[0], dup) + cert.families[2:])
    )
    assert not rep.ok
    assert any(v.kind == "duplicate_subset" for v in rep.violations)


def test_partition_certificate_bad_member_size():
    fams = (
        SetFamily(4, (KSubset.from_elements((1, 2, 3), 4),)),
        SetFamily(4, tuple(
            KSubset.from_elements(e, 4)
            for e in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        )),
    )
    rep = verify_partition_certificate(
        PartitionCertificate(GroundParams(4, 2, 2), fams)
    )
    assert not rep.ok
    assert any(v.kind == "bad_member" for v in rep.violations)


def test_partition_certificate_member_over_another_ground_set():
    """A family over [5] in a certificate over [4]: each of its members is
    a bad member, reported with both ground sets."""
    cert = build_tight_partition(GroundParams(4, 2, 2))
    wide = SetFamily(5, (KSubset.from_elements((1, 2), 5),))
    rep = verify_partition_certificate(
        PartitionCertificate(cert.params, cert.families + (wide,))
    )
    bad = [v for v in rep.violations if v.kind == "bad_member"]
    assert [(v.indices, v.reason) for v in bad] == [(
        (len(cert.families), 0),
        f"family {len(cert.families)} member 0 over ground set 5, expected 4",
    )]


def test_partition_certificate_empty_family():
    cert = build_tight_partition(GroundParams(4, 2, 3))
    rep = verify_partition_certificate(
        PartitionCertificate(cert.params, cert.families + (SetFamily(4, ()),))
    )
    assert not rep.ok
    assert any(v.kind == "empty_family" for v in rep.violations)


def test_verify_coloring_basics():
    h = build_kneser_hypergraph(GroundParams(5, 2, 2))
    # all one color: every edge monochromatic
    rep = verify_coloring(h, [0] * h.num_vertices)
    assert not rep.ok
    assert len(rep.violations) == h.num_edges
    with pytest.raises(LengthMismatch):
        verify_coloring(h, [0] * 3)


def test_verify_coloring_report_pinned():
    """Monochromatic edges of arity 2, 3 and 4 are reported in edge order
    with their exact reasons; an edge whose first or last member alone
    differs is not."""
    h = Hypergraph(
        tuple(enumerate_k_subsets(10, 1)),
        ((0, 1), (2, 3, 4), (5, 6, 7, 8), (5, 6, 7, 9), (0, 5, 6), (0, 2), (1, 9)),
    )
    colors = [0, 0, 1, 1, 1, 2, 2, 2, 2, 0]
    rep = verify_coloring(h, colors)
    assert not rep.ok and rep.stats == {"edges": 7}
    assert rep.violations == (
        Violation("monochromatic_edge", (0, 1),
                  "edge 0 = [0, 1] is monochromatic in color 0"),
        Violation("monochromatic_edge", (2, 3, 4),
                  "edge 1 = [2, 3, 4] is monochromatic in color 1"),
        Violation("monochromatic_edge", (5, 6, 7, 8),
                  "edge 2 = [5, 6, 7, 8] is monochromatic in color 2"),
        Violation("monochromatic_edge", (1, 9),
                  "edge 6 = [1, 9] is monochromatic in color 0"),
    )
    with pytest.raises(LengthMismatch, match="9 colors for 10 vertices"):
        verify_coloring(h, colors[:-1])


def test_verify_coloring_solver_output():
    h = build_kneser_hypergraph(GroundParams(6, 2, 3))
    res = chromatic_number(h)
    assert res.status == "EXACT" and res.upper == 2
    assert verify_coloring(h, list(res.colors)).ok


def test_verify_coloring_all_endpoints_rule():
    # an edge with two colors among three endpoints is fine
    h = build_kneser_hypergraph(GroundParams(6, 2, 3))
    e = h.edges[0]
    colors = [0] * h.num_vertices
    colors[e[0]] = 1
    rep = verify_coloring(h, colors)
    assert all(set(v.indices) != set(e) for v in rep.violations)


def test_coloring_certificate_checker_independent():
    h = build_kneser_hypergraph(GroundParams(6, 2, 3))
    res = chromatic_number(h)
    assert verify_coloring_certificate(res.certificate).ok
    # corrupt one entry: force a monochromatic disjoint pair somewhere
    bad_colors = list(res.colors)
    bad = None
    for e in h.edges:
        trial = list(res.colors)
        trial[e[1]] = trial[e[0]]
        trial[e[2]] = trial[e[0]]
        try:
            bad = ColoringCertificate(
                ground_n=6, k=2, r=3, colors=tuple(trial)
            )
            break
        except Exception:
            continue
    assert bad is not None
    assert not verify_coloring_certificate(bad).ok


def test_coloring_certificate_checker_variants():
    # stable descriptor: rebuilt vertex set must match the generator's
    from kneser_lab.kneser import build_stable_subhypergraph

    h = build_stable_subhypergraph(GroundParams(7, 2, 2), 2)
    res = chromatic_number(h)
    assert res.status == "EXACT"
    cert = res.certificate
    assert cert.stability == 2
    assert verify_coloring_certificate(cert).ok
    with pytest.raises(LengthMismatch):
        verify_coloring_certificate(
            ColoringCertificate(
                ground_n=7, k=2, r=2, colors=cert.colors + (0,), stability=2
            )
        )


@pytest.mark.parametrize("parts", [
    (),                                        # covers nothing
    ((1,), (2,), (3,), (4,), (5,)),            # 6 missing
    ((1,), (2,), (3,), (4,), (5,), (6,), (6,)),
    ((1, 2), (3,), (4,), (5,), (6,)),          # block above r-1 = 1
    ((1,), (2,), (3,), (4,), (5,), (6,), ()),
])
def test_coloring_certificate_rejects_non_partition_parts(parts):
    # s < 1 and out-of-range points: test_verify_bad_coloring_descriptor_exits_2
    res = chromatic_number(build_kneser_hypergraph(GroundParams(6, 2, 2)))
    cert = ColoringCertificate(ground_n=6, k=2, r=2, colors=res.colors, parts=parts)
    with pytest.raises(InvalidParams):
        verify_coloring_certificate(cert)


@pytest.mark.parametrize("n,k,r", [
    (4, 2, 3), (5, 2, 4), (6, 3, 3), (7, 2, 4), (9, 2, 4), (10, 3, 3),
])
def test_coloring_certificate_accepts_blow_up_blocks(n, k, r):
    coloring, _ = blow_up(build_tight_partition(GroundParams(n, k, r)))
    assert all(len(block) == r - 1 for block in coloring.parts)
    assert verify_coloring_certificate(coloring).ok


def block_layouts(points):
    """Every partition of the tuple points into blocks, each once."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for layout in block_layouts(rest):
        yield ((first,),) + layout
        for i, block in enumerate(layout):
            yield layout[:i] + ((first,) + block,) + layout[i + 1:]


def test_rebuild_matches_generators_exhaustively():
    """The verifier's rebuilt vertex count equals the generator's for every
    n <= 10, k and s in 1..n+1 (empty vertex sets and k = 1 with s > n
    included) and every block layout of [n] for n <= 7.  With r = n + 1 and
    every class a singleton, each class has a cover, so the check is the
    rebuild alone, and a wrong count raises LengthMismatch."""

    def check(p, h, **descriptor):
        nv = h.num_vertices
        cert = ColoringCertificate(
            ground_n=p.n, k=p.k, r=p.r, colors=tuple(range(nv)), **descriptor
        )
        rep = verify_coloring_certificate(cert)
        assert rep.ok and rep.stats["vertices"] == nv, (p, descriptor)

    empty = 0
    for n in range(1, 11):
        for k in range(1, n + 1):
            p = GroundParams(n, k, n + 1)
            for s in range(1, n + 2):
                h = build_stable_subhypergraph(p, s)
                empty += h.num_vertices == 0
                check(p, h, stability=s)
            if n <= 7:
                for layout in block_layouts(tuple(range(1, n + 1))):
                    h = build_partition_constrained(p, PartSpec(layout))
                    check(p, h, parts=layout)
    assert empty > 0


@st.composite
def small_colorings(draw):
    """A small descriptor (full, s-stable or parts), its vertex masks from the
    kneser builders, and a random or a merged-class coloring of them."""
    r = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 8 if k < 3 else 7))
    p = GroundParams(n, k, r)
    variant = draw(st.sampled_from(["full", "stable", "parts"]))
    stability = parts = None
    if variant == "stable":
        stability = draw(st.integers(1, 3))
        h = build_stable_subhypergraph(p, stability)
    elif variant == "parts":
        sizes = []
        while sum(sizes) < n:
            sizes.append(draw(st.integers(1, min(r - 1, n - sum(sizes)))))
        points = draw(st.permutations(range(1, n + 1)))
        cuts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
        parts = tuple(
            tuple(sorted(points[a:b])) for a, b in zip(cuts, cuts[1:])
        )
        h = build_partition_constrained(p, PartSpec(parts))
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # n < r*k: no edges, still valid
            h = build_kneser_hypergraph(p)
    nv = h.num_vertices
    assume(0 < nv <= 36)
    if draw(st.booleans()):
        # a proper coloring with two classes merged onto one label
        base = list(chromatic_number(h).colors)
        m = max(base) + 1
        if m >= 2:
            a, b = draw(st.permutations(range(m)))[:2]
            labels = {c: i for i, c in enumerate(c for c in range(m) if c != b)}
            labels[b] = labels[a]
            colors = [labels[c] for c in base]
        else:
            colors = base
    else:
        m = draw(st.integers(1, min(3, nv)))
        raw = draw(st.lists(st.integers(0, m - 1), min_size=nv, max_size=nv))
        labels = {c: i for i, c in enumerate(sorted(set(raw)))}
        colors = [labels[c] for c in raw]
    cert = ColoringCertificate(
        ground_n=n, k=k, r=r, colors=tuple(colors),
        parts=parts, stability=stability,
    )
    return cert, [v.bits for v in h.vertices]


def _one_class(n, k, r, members=None):
    """The vertices of KG^r(k, n) given by members (element tuples; every
    vertex when None) in color 0, each other vertex in a class of its own."""
    h = build_kneser_hypergraph(GroundParams(n, k, r))
    chosen = None if members is None else {
        KSubset.from_elements(e, n).bits for e in members
    }
    colors, others = [], 0
    for v in h.vertices:
        if chosen is None or v.bits in chosen:
            colors.append(0)
        else:
            others += 1
            colors.append(others)
    cert = ColoringCertificate(ground_n=n, k=k, r=r, colors=tuple(colors))
    return cert, [v.bits for v in h.vertices]


@given(small_colorings())
@example(_one_class(8, 2, 2))
@example(_one_class(7, 2, 3))
@example(_one_class(6, 1, 3))  # exactly 20 edges: no summary record
# hit by the r points {1, 3}, with the disjoint pair {1,2}, {3,4}
@example(_one_class(5, 2, 2, [(1, 2), (3, 4), (1, 5)]))
# classes on exactly r*k points that hold r disjoint members
@example(_one_class(4, 2, 2))
@example(_one_class(6, 2, 3))
@settings(max_examples=150, deadline=None)
def test_coloring_certificate_matches_brute_force(case):
    cert, verts = case
    rep = verify_coloring_certificate(cert)
    want = brute_force_monochromatic(verts, cert.colors, cert.r)
    assert rep.ok == (not want)
    assert rep.stats["disjoint_tuples"] == len(want)
    assert rep.violations[:20] == tuple(want[:20])
    if len(want) > 20:
        assert len(rep.violations) == 21
        tail = rep.violations[20]
        assert tail.kind == "monochromatic_edge" and tail.indices == ()
        assert tail.reason.startswith(f"{len(want) - 20} further")
    else:
        assert len(rep.violations) == len(want)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_disjoint_chains_matches_reference(r):
    """The bit-parallel walk returns the list-based walk's first keep tuples,
    total and test count: on empty ids, on fewer ids than r, on ascending ids
    with gaps, and with members that hold no point."""
    rng = random.Random(f"chains/{r}")
    totals = []
    for trial in range(150):
        n = rng.randint(1, 9)
        masks = [rng.getrandbits(n) & rng.getrandbits(n)
                 for _ in range(rng.randint(0, 16))]
        if masks and trial % 3 == 0:
            masks[rng.randrange(len(masks))] = 0
        ids = sorted(rng.sample(range(len(masks)), rng.randint(0, len(masks))))
        points = [tuple(e for e in range(n) if m >> e & 1) for m in masks]
        inc = [0] * n
        for i, v in enumerate(ids):
            for e in points[v]:
                inc[e] |= 1 << i
        for keep in (0, 1, 20):
            got = _disjoint_chains(points, inc, ids, r, keep)
            want = reference_disjoint_chains(masks, ids, r, keep)
            assert got == (*want, True), (masks, ids, keep)
        totals.append(got[1])
    assert _disjoint_chains([], [0], [], r, 20) == ([], 0, 0, True)
    assert min(totals) == 0 and max(totals) > 20  # both kinds of class were met


def merged_two_largest(cert):
    """cert with its two largest classes merged, ties going to the lower
    color id, and the other labels kept in order."""
    sizes = Counter(cert.colors)
    keep, gone = sorted(sizes, key=lambda c: (-sizes[c], c))[:2]
    labels = {c: i for i, c in enumerate(c for c in sorted(sizes) if c != gone)}
    labels[gone] = labels[keep]
    return dataclasses.replace(cert, colors=tuple(labels[c] for c in cert.colors))


def test_merged_lift_stats_pinned():
    """The (8,3,3) lift with its two largest classes merged, as the certify
    benchmark rejects it."""
    coloring, _ = blow_up(build_tight_partition(GroundParams(8, 3, 3)))
    rep = verify_coloring_certificate(merged_two_largest(coloring))
    assert not rep.ok
    assert rep.stats["tuples_examined"] == 19_890
    assert rep.stats["disjoint_tuples"] == 330_240


@pytest.mark.parametrize("n,k,r", [(10, 2, 3), (8, 3, 3), (6, 2, 4)])
def test_merged_class_alone_is_walked(n, k, r):
    """On the certify benchmark's rejects every class but the merged one is
    proved by a cover."""
    coloring, _ = blow_up(build_tight_partition(GroundParams(n, k, r)))
    rep = verify_coloring_certificate(merged_two_largest(coloring))
    assert not rep.ok
    assert rep.stats["classes_witnessed"] == rep.stats["classes"] - 1


def test_every_valid_lift_class_is_witnessed():
    """Every class of every valid lift with n <= 10 and 2 <= r <= 4 within
    the size limits is proved by a cover, so no chain is walked."""
    lifts = 0
    for r in (2, 3, 4):
        for n in range(1, 11):
            for k in range(1, (r - 1) * n // r + 1):
                try:
                    coloring, _ = blow_up(build_tight_partition(GroundParams(n, k, r)))
                except InstanceTooLarge:  # (10,6,4) and (10,7,4)
                    continue
                rep = verify_coloring_certificate(coloring)
                assert rep.ok, (n, k, r)
                assert rep.stats["classes_witnessed"] == rep.stats["classes"], (n, k, r)
                lifts += 1
    assert lifts == 93


def test_valid_12_4_3_lift_verifies_quickly():
    """7,920 vertices in 8 classes, each proved by a cover in at most 7
    steps; the bit-parallel chain walk took 1.0 s and 2,058,256 steps."""
    coloring, _ = blow_up(build_tight_partition(GroundParams(12, 4, 3)))
    t0 = perf_counter()
    rep = verify_coloring_certificate(coloring)
    assert perf_counter() - t0 < 2
    assert rep.ok
    assert rep.stats["classes_witnessed"] == 8
    assert rep.stats["tuples_examined"] == 56
    assert rep.stats["disjoint_tuples"] == 0


def test_searches_stop_at_their_deadline():
    """Each search that can run long stops past a deadline, the witness
    search by raising and the chain walk by returning what it has with
    complete False, and returns what it returns without one when the
    deadline is far.  HM(10,5) is intersecting, spans all of [10] and has
    no common point, so the witness search examines 8,001 chains, more than
    CLOCK_STRIDE."""
    fam = hilton_milner_partition(10, 5).families[0]
    rep = is_r_wise_intersecting(fam, 2)
    assert rep.ok and rep.stats["tuples_examined"] == 8_001 > CLOCK_STRIDE
    assert is_r_wise_intersecting(fam, 2, perf_counter() + 60) == rep
    with pytest.raises(VerifyTimeout):
        is_r_wise_intersecting(fam, 2, perf_counter())
    # 200 single-point vertices: the walk tries about 20,000 candidates
    points = [(i,) for i in range(200)]
    ids = list(range(200))
    inc = [1 << i for i in range(200)]  # vertex i alone holds point i
    want = _disjoint_chains(points, inc, ids, 3, 5)
    assert want[2] > CLOCK_STRIDE and want[3]
    assert _disjoint_chains(points, inc, ids, 3, 5, perf_counter() + 60) == want
    found, total, tests, complete = _disjoint_chains(
        points, inc, ids, 3, 5, perf_counter())
    assert not complete and found == want[0] and total < want[1]
    assert CLOCK_STRIDE < tests < want[2]


def test_coloring_timeout_with_no_edge_found_raises(monkeypatch):
    """A class with no cover and no r pairwise disjoint members makes the
    chain walk run to the deadline with nothing found, so the check cannot
    say FAILED.  On KG^3(6,2), class 0 is the six edges of the triangles
    {1,2,3} and {4,5,6}: they span 6 = r*k points, no 2 points hit them
    all, and no 3 of them are disjoint.  Every other pair joins the star of
    its least point."""
    triangles = {(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)}
    verts = [s.elements() for s in enumerate_k_subsets(6, 2)]
    colors = tuple(0 if v in triangles else v[0] for v in verts)
    cert = ColoringCertificate(ground_n=6, k=2, r=3, colors=colors)
    rep = verify_coloring_certificate(cert)
    assert rep.ok and rep.stats["classes_witnessed"] == 3
    monkeypatch.setattr(verify, "CLOCK_STRIDE", 0)
    with pytest.raises(VerifyTimeout):
        verify_coloring_certificate(cert, max_seconds=1e-9)
