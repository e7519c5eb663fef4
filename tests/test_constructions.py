"""Construction layer: closed forms, the explicit partition, and the blow-up."""

import json
from itertools import combinations
from math import ceil, comb

import pytest

from kneser_lab.constructions import (
    BlowupMap,
    ColoringCertificate,
    PartitionCertificate,
    blow_up,
    build_tight_partition,
    certificate_from_dict,
    check_stable_embedding,
    tail_size,
    tight_bound,
)
from kneser_lab.errors import (
    CapExceeded,
    InadmissibleParams,
    InstanceTooLarge,
    InvalidCertificate,
    InvalidParams,
    MalformedCertificate,
)
from kneser_lab.kneser import (
    PartSpec,
    build_kneser_hypergraph,
    build_partition_constrained,
    build_stable_subhypergraph,
)
from kneser_lab.setsys import (
    DEFAULT_GROUND_CAP,
    MAX_SUBSETS,
    MAX_VERTICES,
    GroundParams,
    KSubset,
    SetFamily,
    is_s_stable,
)
from kneser_lab.solve import chromatic_number
from kneser_lab.verify import (
    is_r_wise_intersecting,
    verify_coloring_certificate,
    verify_partition_certificate,
)
from oracle import reference_tight_partition


def test_tail_size_values():
    assert tail_size(2, 3) == 2
    assert tail_size(2, 2) == 3
    assert tail_size(1, 2) == 1
    assert tail_size(4, 3) == 5
    assert tail_size(3, 2) == 5


def test_tail_size_rejects_bad_params():
    with pytest.raises(InvalidParams):
        tail_size(0, 2)
    with pytest.raises(InvalidParams):
        tail_size(2, 1)


def test_tight_bound_values():
    assert tight_bound(GroundParams(5, 2, 2)) == 3
    assert tight_bound(GroundParams(6, 2, 3)) == 5
    assert tight_bound(GroundParams(4, 2, 3)) == 3
    assert tight_bound(GroundParams(7, 2, 2)) == 5


def test_tight_bound_rejects_inadmissible():
    with pytest.raises(InadmissibleParams):
        tight_bound(GroundParams(2, 2, 3))  # rk = 6 > (r-1)n = 4


def test_tight_bound_equals_shifted_tail():
    # ceiling form and n - s + 1 agree wherever the params are admissible
    for r in range(2, 9):
        for k in range(1, 11):
            for n in range(k, 41):
                p = GroundParams(n, k, r)
                if not p.admissible:
                    continue
                m = tight_bound(p)
                assert m == n - tail_size(k, r) + 1
                assert m == ceil((n * (r - 1) - r * (k - 1)) / (r - 1))


def test_tight_bound_steps_by_one_in_n():
    for (k, r) in [(2, 2), (2, 3), (3, 4), (4, 3)]:
        values = []
        for n in range(k, 30):
            p = GroundParams(n, k, r)
            if p.admissible:
                values.append(tight_bound(p))
        assert values == list(range(values[0], values[0] + len(values)))


def test_partition_structure_5_2_2():
    cert = build_tight_partition(GroundParams(5, 2, 2))
    assert cert.family_sizes() == (4, 3, 3)
    tail = cert.families[-1]
    expected = {
        frozenset(c) for c in combinations((3, 4, 5), 2)
    }
    assert {frozenset(m.elements()) for m in tail.members} == expected


def test_partition_structure_6_2_3():
    cert = build_tight_partition(GroundParams(6, 2, 3))
    assert cert.num_families == 5
    assert cert.family_sizes() == (5, 4, 3, 2, 1)
    assert cert.families[-1].members[0].elements() == (5, 6)


def test_partition_structure_4_2_3():
    cert = build_tight_partition(GroundParams(4, 2, 3))
    assert cert.family_sizes() == (3, 2, 1)


def test_star_families_share_their_point():
    cert = build_tight_partition(GroundParams(8, 3, 2))
    for i, fam in enumerate(cert.families[:-1], start=1):
        assert all(m.contains(i) for m in fam.members)
        assert all(min(m.elements()) == i for m in fam.members)


def test_tail_family_is_r_wise_intersecting():
    cert = build_tight_partition(GroundParams(7, 4, 3))
    assert tail_size(4, 3) == 5
    tail = cert.families[-1]
    assert len(tail.members) == comb(5, 4)
    assert is_r_wise_intersecting(tail, 3).ok


def test_partition_verifies_over_grid():
    for r in range(2, 6):
        for k in range(1, 4):
            for n in range(k, 11):
                p = GroundParams(n, k, r)
                if not p.admissible:
                    continue
                cert = build_tight_partition(p)
                assert cert.num_families == tight_bound(p)
                assert verify_partition_certificate(cert).ok, (n, k, r)


def test_partition_matches_reference_construction():
    """One colex pass filed by least element gives the same document as the
    family-by-family construction, and refuses the same inputs."""
    for r in range(2, 7):
        for n in range(1, 13):
            for k in range(1, n + 1):
                p = GroundParams(n, k, r)
                if p.admissible:
                    assert (build_tight_partition(p).to_dict()
                            == reference_tight_partition(p).to_dict()), (n, k, r)
    for p, error in [(GroundParams(5, 3, 2), InadmissibleParams),
                     (GroundParams(65, 1, 2), CapExceeded),
                     (GroundParams(24, 11, 2), InstanceTooLarge)]:
        for build in (build_tight_partition, reference_tight_partition):
            with pytest.raises(error):
                build(p)


def test_partition_json_roundtrip():
    cert = build_tight_partition(GroundParams(6, 2, 3))
    doc = json.loads(json.dumps(cert.to_dict()))
    back = PartitionCertificate.from_dict(doc)
    assert back.to_dict() == cert.to_dict()
    assert isinstance(certificate_from_dict(doc), PartitionCertificate)


def test_coloring_json_roundtrip():
    src = build_tight_partition(GroundParams(4, 2, 3))
    coloring, _ = blow_up(src)
    doc = json.loads(json.dumps(coloring.to_dict()))
    back = ColoringCertificate.from_dict(doc)
    assert back.to_dict() == coloring.to_dict()
    assert isinstance(certificate_from_dict(doc), ColoringCertificate)


def test_coloring_empty_parts_survive_roundtrip():
    # parts=() names no hypergraph; JSON must not turn it into parts=None
    cert = ColoringCertificate(ground_n=4, k=1, r=2, colors=(0, 1, 2, 3), parts=())
    with pytest.raises(InvalidParams):
        verify_coloring_certificate(cert)
    doc = json.loads(json.dumps(cert.to_dict()))
    assert doc["parts"] == []
    back = certificate_from_dict(doc)
    assert back.parts == ()
    with pytest.raises(InvalidParams):
        verify_coloring_certificate(back)


def nudge_colors(doc, change):
    doc["colors"] = [change(c) for c in doc["colors"]]


def test_malformed_documents_rejected():
    """Every number in a document must be a JSON integer.  int() used to
    coerce the rest, so each non-integer breakage below verified as the
    valid document it rounds to."""
    p623 = GroundParams(6, 2, 3)
    partition = build_tight_partition(p623).to_dict()
    coloring = chromatic_number(build_kneser_hypergraph(p623)).certificate.to_dict()
    lifted = blow_up(build_tight_partition(GroundParams(4, 2, 3)))[0].to_dict()
    stable = chromatic_number(
        build_stable_subhypergraph(GroundParams(8, 2, 2), 2)).certificate.to_dict()
    assert partition["families"][0][0] == [1, 2] and lifted["parts"][0] == [1, 2]
    cases = [
        (build_tight_partition(GroundParams(5, 2, 2)).to_dict(), breakage)
        for breakage in (
            lambda d: d.update(format="other/9"),
            lambda d: d.pop("families"),
            lambda d: d.pop("n"),
            lambda d: d["families"].append([["x"]]),
            lambda d: d["families"][0].append([0, 99]),
        )
    ] + [
        (partition, lambda d: d.update(n=6.5)),
        (partition, lambda d: d.update(n=6.0)),
        (partition, lambda d: d.update(k=2.2)),
        (partition, lambda d: d.update(r="3")),
        (partition, lambda d: d["families"][0].__setitem__(0, [True, 2])),
        (coloring, lambda d: d.update(r=3.99)),
        (coloring, lambda d: d.update(ground_n="6")),
        (coloring, lambda d: nudge_colors(d, lambda c: c + 0.4)),
        (coloring, lambda d: nudge_colors(d, str)),
        (coloring, lambda d: nudge_colors(d, bool)),
        (lifted, lambda d: d["parts"].__setitem__(0, [1.0, 2])),
        (lifted, lambda d: d["parts"].__setitem__(0, [True, 2])),
        (stable, lambda d: d.update(s=2.0)),
    ]
    for i, (good, breakage) in enumerate(cases):
        doc = json.loads(json.dumps(good))
        breakage(doc)
        with pytest.raises(MalformedCertificate):
            certificate_from_dict(doc)
        assert certificate_from_dict(good).to_dict() == good, i


def test_coloring_certificate_requires_contiguous_colors():
    with pytest.raises(InvalidCertificate):
        ColoringCertificate(ground_n=4, k=1, r=2, colors=(0, 2, 0, 2))
    with pytest.raises(InvalidCertificate):
        ColoringCertificate(ground_n=4, k=1, r=2, colors=(1, 1, 1, 1))


def test_huge_color_id_is_rejected_without_listing_ids():
    # checking ids against range(max + 1) element by element would not end
    with pytest.raises(InvalidCertificate):
        ColoringCertificate(ground_n=4, k=1, r=2, colors=(0, 10**18))


def test_blow_up_4_2_3():
    src = build_tight_partition(GroundParams(4, 2, 3))
    coloring, bmap = blow_up(src)
    assert bmap.big_n == 8
    assert coloring.ground_n == 8
    assert len(coloring.colors) == 24  # C(4,2) * (r-1)^k = 6 * 4
    assert coloring.num_colors == 3
    assert coloring.parts == ((1, 2), (3, 4), (5, 6), (7, 8))
    assert verify_coloring_certificate(coloring).ok


def test_blow_up_image_counts():
    src = build_tight_partition(GroundParams(4, 2, 3))
    _, bmap = blow_up(src)
    per_source = {}
    for member in bmap.vertex_origin.values():
        per_source[member.bits] = per_source.get(member.bits, 0) + 1
    assert set(per_source.values()) == {4}  # (r-1)^k images each
    assert len(per_source) == comb(4, 2)


def test_blow_up_origin_recoverable_from_blocks():
    src = build_tight_partition(GroundParams(5, 2, 3))
    _, bmap = blow_up(src)
    masks = []
    for block in bmap.blocks:
        m = 0
        for e in block:
            m |= 1 << (e - 1)
        masks.append(m)
    for bits, member in bmap.vertex_origin.items():
        touched = tuple(
            i for i, m in enumerate(masks, start=1) if bits & m
        )
        assert touched == member.elements()


def test_blow_up_covers_constrained_vertices():
    src = build_tight_partition(GroundParams(4, 2, 3))
    _, bmap = blow_up(src)
    h = build_partition_constrained(GroundParams(8, 2, 3), PartSpec(bmap.blocks))
    assert {v.bits for v in h.vertices} == set(bmap.vertex_origin)


def test_blow_up_colors_follow_source_family():
    # colors[i] belongs to the i-th vertex in the builder's (colex) order
    for n, k, r in [(5, 2, 2), (4, 2, 3), (6, 3, 3), (4, 2, 4)]:
        src = build_tight_partition(GroundParams(n, k, r))
        coloring, bmap = blow_up(src)
        fam_of = {}
        for fi, fam in enumerate(src.families):
            for m in fam.members:
                fam_of[m.bits] = fi
        h = build_partition_constrained(
            GroundParams(bmap.big_n, k, r), PartSpec(bmap.blocks)
        )
        assert len(h.vertices) == len(coloring.colors)
        for v, c in zip(h.vertices, coloring.colors):
            assert c == fam_of[bmap.vertex_origin[v.bits].bits]


@pytest.mark.parametrize("n,k,r", [(7, 2, 4), (9, 2, 4), (10, 3, 3), (12, 4, 3)])
def test_blow_up_large_lifts(n, k, r):
    # each of these once failed its edge cap while building an edge list
    # that blow_up never read; (12,4,3) lifts to 7,920 vertices
    p = GroundParams(n, k, r)
    coloring, bmap = blow_up(build_tight_partition(p))
    assert len(coloring.colors) == comb(n, k) * (r - 1) ** k
    assert coloring.num_colors == tight_bound(p)
    assert check_stable_embedding(bmap).ok


def test_blow_up_size_limits():
    # C(16,4) * 4^4 = 465,920 lifted vertices over a C(64,4) ground walk
    src = build_tight_partition(GroundParams(16, 4, 5))
    with pytest.raises(InstanceTooLarge, match="vertices exceeds limit 100000"):
        blow_up(src)
    with pytest.raises(CapExceeded, match="exceeds cap 64"):
        blow_up(build_tight_partition(GroundParams(33, 1, 3)))  # ground 66


def test_max_subsets_admits_every_tight_lift():
    """Verifying a lift walks all C((r-1)n, k) ground k-subsets; MAX_SUBSETS
    must admit that walk for every tight partition that blow_up lifts."""
    walks = {}
    for r in range(2, DEFAULT_GROUND_CAP + 2):
        for n in range(1, DEFAULT_GROUND_CAP // (r - 1) + 1):
            for k in range(1, n + 1):
                lifted = comb(n, k) * (r - 1) ** k
                if r * k <= (r - 1) * n and lifted <= MAX_VERTICES:
                    walks[(n, k, r)] = comb((r - 1) * n, k)
    worst = max(walks, key=walks.get)
    assert (worst, walks[worst]) == ((6, 5, 7), comb(36, 5))
    assert walks[worst] <= MAX_SUBSETS
    coloring, _ = blow_up(build_tight_partition(GroundParams(*worst)))
    assert len(coloring.colors) == 6 * 6**5


def test_oversized_instances_raise_before_enumerating():
    p = GroundParams(60, 30, 2)  # C(60,30) ~ 1.2e17 k-subsets
    with pytest.raises(InstanceTooLarge):
        build_tight_partition(p)
    one = PartitionCertificate(p, (SetFamily(60, (KSubset(1, 60),)),))
    with pytest.raises(InstanceTooLarge):
        verify_partition_certificate(one)
    with pytest.raises(InstanceTooLarge):
        blow_up(one)
    with pytest.raises(InstanceTooLarge):
        verify_coloring_certificate(ColoringCertificate(60, 30, 2, (0,)))
    # r - 1 = 10**18 - 1 points per block: refused before any block is built
    wide = PartitionCertificate(
        GroundParams(1, 1, 10**18), (SetFamily(1, (KSubset(1, 1),)),)
    )
    with pytest.raises(CapExceeded):
        blow_up(wide)
    # an inadmissible source whose lift is small enough but whose ground
    # walk C(28, 7) = 1,184,040 is not
    single = PartitionCertificate(
        GroundParams(7, 7, 5), (SetFamily(7, (KSubset(0x7F, 7),)),)
    )
    assert verify_partition_certificate(single).ok
    with pytest.raises(InstanceTooLarge):
        blow_up(single)


def test_blow_up_identity_at_r2():
    src = build_tight_partition(GroundParams(5, 2, 2))
    coloring, bmap = blow_up(src)
    assert bmap.big_n == 5
    assert len(coloring.colors) == comb(5, 2)
    assert bmap.blocks == ((1,), (2,), (3,), (4,), (5,))
    # singleton blocks: each vertex is its own origin
    for bits, member in bmap.vertex_origin.items():
        assert bits == member.bits
    assert coloring.num_colors == 3


def test_blow_up_rejects_invalid_source():
    good = build_tight_partition(GroundParams(5, 2, 2))
    merged = SetFamily(5, good.families[0].members + good.families[1].members)
    bad = PartitionCertificate(good.params, (merged,) + good.families[2:])
    with pytest.raises(InvalidCertificate):
        blow_up(bad)


def test_stable_embedding_4_2_3():
    src = build_tight_partition(GroundParams(4, 2, 3))
    _, bmap = blow_up(src)
    rep = check_stable_embedding(bmap)
    assert rep.ok
    # 2-subsets of an 8-cycle at cyclic distance >= 3: eight at distance
    # 3 plus four diameters
    assert rep.stats["stable_vertices"] == 12


def test_stable_vertices_never_straddle_a_block():
    src = build_tight_partition(GroundParams(4, 2, 3))
    _, bmap = blow_up(src)
    masks = []
    for block in bmap.blocks:
        m = 0
        for e in block:
            m |= 1 << (e - 1)
        masks.append(m)
    from kneser_lab.setsys import enumerate_k_subsets

    for v in enumerate_k_subsets(8, 2):
        if is_s_stable(v, 3):
            assert all((v.bits & m).bit_count() <= 1 for m in masks)


def test_stable_embedding_detects_gaps():
    src = build_tight_partition(GroundParams(4, 2, 3))
    _, bmap = blow_up(src)
    stable_bits = next(
        bits
        for bits in bmap.vertex_origin
        if is_s_stable(KSubset(bits, 8), 3)
    )
    pruned = dict(bmap.vertex_origin)
    del pruned[stable_bits]
    rep = check_stable_embedding(
        BlowupMap(source=bmap.source, blocks=bmap.blocks, vertex_origin=pruned)
    )
    assert not rep.ok
    assert any(v.kind == "stable_uncovered" for v in rep.violations)
