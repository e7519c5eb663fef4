"""Independent certification of families, partitions, and colorings.

This module deliberately shares no generation code with the builders in
kneser and constructions: edge properties are re-derived from first
principles (bitmask scans over explicit member lists), so it can serve as an
oracle for everything the rest of the package produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .errors import InvalidParams, LengthMismatch, SoundnessError
from .setsys import SetFamily, guard_subsets


@dataclass(frozen=True, slots=True)
class Violation:
    """One witness record: offending member indices plus a readable reason."""

    kind: str
    indices: tuple[int, ...]
    reason: str


@dataclass(frozen=True)
class Report:
    ok: bool
    violations: tuple[Violation, ...] = ()
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.ok != (not self.violations):
            raise SoundnessError(
                f"report ok={self.ok} with {len(self.violations)} violations"
            )

    def summary(self) -> str:
        if self.ok:
            return "ok"
        head = "; ".join(v.reason for v in self.violations[:5])
        more = len(self.violations) - 5
        return f"FAILED: {head}" + (f" (+{more} more)" if more > 0 else "")


def _subfamily_is_minimal(masks: list[int], witness: tuple[int, ...]) -> bool:
    """True iff dropping any one member leaves a nonempty intersection."""
    for drop in witness:
        inter = -1
        for idx in witness:
            if idx != drop:
                inter &= masks[idx]
        if inter == 0:
            return False
    return True


def _find_min_witness(masks: list[int], r: int) -> tuple[tuple[int, ...] | None, int]:
    """Lexicographically least inclusion-minimal empty-intersection subfamily.

    Depth-first search over index-increasing chains in which every added
    member strictly shrinks the running intersection.  Any inclusion-minimal
    witness has that property in every member order, so the search is
    complete, and DFS preorder visits chains in lexicographic order of their
    index tuples, so the first minimal witness found is the least one.
    Returns (witness or None, number of chains examined).
    """
    nv = len(masks)
    examined = 0

    # a member that is itself empty violates the definition on its own
    for i, m in enumerate(masks):
        if m == 0:
            return (i,), examined

    chosen: list[int] = []

    def search(start: int, inter: int) -> tuple[int, ...] | None:
        nonlocal examined
        for j in range(start, nv):
            examined += 1
            nxt = inter & masks[j]
            if nxt == inter:
                continue
            if nxt == 0:
                witness = tuple(chosen) + (j,)
                if _subfamily_is_minimal(masks, witness):
                    return witness
                continue
            if len(chosen) + 1 < r:
                chosen.append(j)
                found = search(j + 1, nxt)
                chosen.pop()
                if found is not None:
                    return found
        return None

    try:
        for i in range(nv):
            examined += 1
            chosen.append(i)
            found = search(i + 1, masks[i])
            chosen.pop()
            if found is not None:
                return found, examined
    finally:
        del search  # it reaches itself through its closure: break the cycle
    return None, examined


def is_r_wise_intersecting(fam: SetFamily, r: int) -> Report:
    """Check that every subfamily of at most r members has a common point.

    On failure the report carries the lexicographically least
    inclusion-minimal violating subfamily (indices into fam.members).
    A family whose members share a common point passes for every r.
    """
    if r < 2:
        raise InvalidParams(f"need r >= 2, got r={r}")
    if not fam.members:
        raise InvalidParams("family must be nonempty")
    masks = list(fam.masks())

    inter_all = -1
    for m in masks:
        inter_all &= m
    if inter_all:
        return Report(True, stats={"families": 1, "tuples_examined": 1})

    witness, examined = _find_min_witness(masks, r)
    stats = {"families": 1, "tuples_examined": examined}
    if witness is None:
        return Report(True, stats=stats)
    sets = ", ".join(
        "{" + ",".join(map(str, fam.members[i].elements())) + "}" for i in witness
    )
    return Report(
        False,
        violations=(
            Violation(
                kind="empty_intersection",
                indices=witness,
                reason=f"members {list(witness)} = [{sets}] have empty intersection",
            ),
        ),
        stats=stats,
    )


def verify_partition_certificate(cert) -> Report:
    """Full validity check of a claimed partition into r-wise families.

    ok iff (a) the families' disjoint union is exactly all C(n,k) k-subsets
    of [n], (b) every family is nonempty, and (c) every family passes
    is_r_wise_intersecting at the certificate's r.  More than
    DEFAULT_GROUND_CAP points (CapExceeded) or MAX_SUBSETS k-subsets
    (InstanceTooLarge) are refused before any member is read.
    """
    from .constructions import PartitionCertificate  # local: avoids cycle

    if not isinstance(cert, PartitionCertificate):
        raise InvalidParams("expected a PartitionCertificate")
    p = cert.params
    guard_subsets(p.n, p.k)
    violations: list[Violation] = []
    tuples_examined = 0

    seen: dict[int, tuple[int, int]] = {}
    for fi, fam in enumerate(cert.families):
        if not fam.members:
            violations.append(
                Violation("empty_family", (fi,), f"family {fi} is empty")
            )
        for mi, member in enumerate(fam.members):
            if member.n != p.n:
                violations.append(
                    Violation(
                        "bad_member",
                        (fi, mi),
                        f"family {fi} member {mi} over ground set {member.n}, expected {p.n}",
                    )
                )
                continue
            if member.size != p.k:
                violations.append(
                    Violation(
                        "bad_member",
                        (fi, mi),
                        f"family {fi} member {mi} has {member.size} elements, expected {p.k}",
                    )
                )
                continue
            if member.bits in seen:
                oi, om = seen[member.bits]
                violations.append(
                    Violation(
                        "duplicate_subset",
                        (fi, mi),
                        f"subset {member!r} appears in family {oi} and family {fi}",
                    )
                )
            else:
                seen[member.bits] = (fi, mi)

    # coverage: walk all k-subsets by brute force, independent of any
    # enumeration the certificate builder may have used
    missing = 0
    for els in combinations(range(p.n), p.k):
        bits = 0
        for e in els:
            bits |= 1 << e
        if bits not in seen:
            missing += 1
            if missing <= 10:
                pretty = "{" + ",".join(str(e + 1) for e in els) + "}"
                violations.append(
                    Violation(
                        "uncovered_subset", (), f"subset {pretty} is uncovered"
                    )
                )
    if missing > 10:
        violations.append(
            Violation(
                "uncovered_subset", (), f"{missing - 10} further subsets uncovered"
            )
        )

    for fi, fam in enumerate(cert.families):
        if not fam.members:
            continue
        rep = is_r_wise_intersecting(fam, p.r)
        tuples_examined += rep.stats.get("tuples_examined", 0)
        for v in rep.violations:
            violations.append(
                Violation(v.kind, v.indices, f"family {fi}: {v.reason}")
            )

    stats = {
        "families": len(cert.families),
        "members": len(seen),
        "expected_members": comb(p.n, p.k),
        "tuples_examined": tuples_examined,
    }
    return Report(not violations, tuple(violations), stats)


def verify_coloring(h, colors: list[int] | tuple[int, ...]) -> Report:
    """Check that no hyperedge of h has all endpoints the same color.

    This is the hypergraph-coloring convention: an edge is violated only
    when every one of its endpoints shares one color.
    """
    if len(colors) != len(h.vertices):
        raise LengthMismatch(
            f"{len(colors)} colors for {len(h.vertices)} vertices"
        )
    violations = []
    for ei, edge in enumerate(h.edges):
        first = colors[edge[0]]
        if all(colors[v] == first for v in edge[1:]):
            violations.append(
                Violation(
                    "monochromatic_edge",
                    tuple(edge),
                    f"edge {ei} = {list(edge)} is monochromatic in color {first}",
                )
            )
    return Report(
        not violations, tuple(violations), stats={"edges": len(h.edges)}
    )


def _block_masks(parts, n: int, r: int) -> list[int]:
    """Bitmasks of parts, which must partition [n] into blocks of 1..r-1 points."""
    masks = []
    covered = 0
    for part in parts:
        if not 1 <= len(part) <= r - 1:
            raise InvalidParams(
                f"bad descriptor: block {list(part)} needs 1..{r - 1} points"
            )
        m = 0
        for e in part:
            if not 1 <= e <= n:
                raise InvalidParams(f"bad descriptor: point {e} outside [1, {n}]")
            if (covered | m) >> (e - 1) & 1:
                raise InvalidParams(f"bad descriptor: point {e} in two blocks")
            m |= 1 << (e - 1)
        covered |= m
        masks.append(m)
    if covered != (1 << n) - 1:
        raise InvalidParams(f"bad descriptor: parts do not cover [1, {n}]")
    return masks


# the CLI prints at most this many violations; later monochromatic edges
# are counted, not recorded
EDGE_RECORDS = 20


def _disjoint_chains(
    verts: list[int], ids: list[int], r: int, keep: int
) -> tuple[list[tuple[int, ...]], int, int]:
    """r-tuples of ids (increasing) whose vertex masks are pairwise disjoint.

    Depth-first search over increasing chains with a running union: each
    level keeps only the later ids disjoint from the union, so a chain is
    extended only by members that keep it pairwise disjoint, and the tuples
    come out in lexicographic order.  Returns (the first keep tuples, how
    many tuples there are, how many member-versus-union tests were made).
    """
    found: list[tuple[int, ...]] = []
    total = tests = 0

    def walk(chain: tuple[int, ...], union: int, cands: list[int]) -> None:
        nonlocal total, tests
        if len(chain) == r - 1:
            total += len(cands)
            if len(found) < keep:
                found.extend(chain + (j,) for j in cands[: keep - len(found)])
            return
        need = r - 1 - len(chain)  # members still to add after cands[pos]
        for pos in range(len(cands) - need):
            u = union | verts[cands[pos]]
            later = cands[pos + 1 :]
            tests += len(later)
            rest = [j for j in later if not verts[j] & u]
            if len(rest) >= need:
                walk(chain + (cands[pos],), u, rest)

    try:
        walk((), 0, ids)
    finally:
        del walk  # as in _find_min_witness
    return found, total, tests


def verify_coloring_certificate(cert) -> Report:
    """Recheck a descriptor-backed coloring without trusting any generator.

    The vertex set named by the certificate (all k-subsets of [ground_n],
    optionally restricted to s-stable ones or to transversals of the given
    parts) is rebuilt here from plain combinations and sorted into colex
    order.  Properness is established by a depth-first search inside each
    color class over index-increasing chains that stay pairwise disjoint;
    every chain of r members is a monochromatic edge.  No edge list is
    consumed.  The report records the first EDGE_RECORDS edges in
    lexicographic order (color, then vertex ids) and, past that, one record
    with empty indices counting the rest; stats["disjoint_tuples"] holds the
    exact total.  A descriptor naming no hypergraph (s < 1, or parts that do
    not partition [ground_n] into blocks of 1..r-1 points) is InvalidParams;
    one above DEFAULT_GROUND_CAP points is CapExceeded, and one above
    MAX_SUBSETS k-subsets is InstanceTooLarge.
    """
    from .constructions import ColoringCertificate  # local: avoids cycle

    if not isinstance(cert, ColoringCertificate):
        raise InvalidParams("expected a ColoringCertificate")
    n, k, r = cert.ground_n, cert.k, cert.r
    if not (1 <= k <= n and r >= 2):
        raise InvalidParams(f"bad descriptor n={n} k={k} r={r}")
    if cert.stability is not None and cert.stability < 1:
        raise InvalidParams(f"bad descriptor s={cert.stability}, need s >= 1")
    guard_subsets(n, k)
    part_masks = [] if cert.parts is None else _block_masks(cert.parts, n, r)

    verts: list[int] = []
    for els in combinations(range(n), k):
        if cert.stability is not None:
            s = cert.stability
            stable = True
            for i in range(k):
                for j in range(i + 1, k):
                    d = els[j] - els[i]
                    if min(d, n - d) < s:
                        stable = False
                        break
                if not stable:
                    break
            if not stable:
                continue
        bits = 0
        for e in els:
            bits |= 1 << e
        if any((bits & pm).bit_count() > 1 for pm in part_masks):
            continue
        verts.append(bits)
    verts.sort()

    if len(cert.colors) != len(verts):
        raise LengthMismatch(
            f"{len(cert.colors)} colors for {len(verts)} descriptor vertices"
        )

    classes: dict[int, list[int]] = {}
    for vid, c in enumerate(cert.colors):
        classes.setdefault(c, []).append(vid)

    violations = []
    examined = 0
    disjoint = 0
    for c, ids in sorted(classes.items()):
        tuples, total, tests = _disjoint_chains(
            verts, ids, r, EDGE_RECORDS - len(violations)
        )
        examined += tests
        disjoint += total
        for tup in tuples:
            violations.append(
                Violation(
                    "monochromatic_edge",
                    tup,
                    f"color {c}: vertices {list(tup)} are pairwise disjoint",
                )
            )
    if disjoint > EDGE_RECORDS:
        violations.append(
            Violation(
                "monochromatic_edge",
                (),
                f"{disjoint - EDGE_RECORDS} further pairwise disjoint {r}-tuples",
            )
        )
    return Report(
        not violations,
        tuple(violations),
        stats={
            "vertices": len(verts),
            "classes": len(classes),
            "tuples_examined": examined,
            "disjoint_tuples": disjoint,
        },
    )


def check_edges_pairwise_disjoint(h) -> Report:
    """Independent post-pass: every edge consists of pairwise disjoint subsets."""
    violations = []
    for ei, edge in enumerate(h.edges):
        for a, b in combinations(edge, 2):
            if h.vertices[a].bits & h.vertices[b].bits:
                violations.append(
                    Violation(
                        "overlapping_edge_members",
                        (a, b),
                        f"edge {ei}: vertices {a} and {b} intersect",
                    )
                )
    return Report(
        not violations, tuple(violations), stats={"edges": len(h.edges)}
    )
