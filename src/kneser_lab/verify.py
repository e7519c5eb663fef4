"""Independent certification of families, partitions, and colorings.

This module deliberately shares no generation code with the builders in
kneser and constructions: edge properties are re-derived from first
principles (bitmask scans over explicit member lists), so it can serve as an
oracle for everything the rest of the package produces.

A coloring is proper when no color class holds r pairwise disjoint
members.  Before walking a class's chains of disjoint members, whose cost
grows as |class|^(r-1), the coloring check looks for a short witness that
no such r-tuple exists: a point set T that every member meets in at least
t points, with |T| < r*t, since r pairwise disjoint members would need r*t
distinct points of T.  The check derives the witness itself (t = k from the
class's union, t = 1 from a bounded hitting-set search, see _class_cover),
so a certificate carries none and the verifier trusts nothing from the
generator.  A class without a witness found in a linear number of steps is
walked as before, so verdicts, records and counts are exact on every input.
Each class's point incidence is built once and serves both searches.  The
vertex set is rebuilt in O(k) per combination: s-stability is read off the
gaps between cyclically adjacent points, parts off a point-to-block table.

Both searches that can take exponential time, the partition witness search
and the chain walk, read the clock once per CLOCK_STRIDE steps when given a
deadline.  Past it the walk returns what it has; a check that has recorded
a violation ends FAILED with it (stats["complete"] = False), and any other
raises VerifyTimeout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice
from math import comb, inf
from time import perf_counter

from .errors import InvalidParams, LengthMismatch, VerifyTimeout
from .setsys import SetFamily, guard_subsets


# a search given a deadline reads the clock once per this many steps
CLOCK_STRIDE = 4096


TIMED_OUT = "check did not finish within its time budget"


def _deadline(max_seconds: float | None) -> float | None:
    """perf_counter() max_seconds from now, or None for no limit; a limit
    not above 0, NaN included, is InvalidParams."""
    if max_seconds is not None and not max_seconds > 0:
        raise InvalidParams(f"max_seconds must be > 0, got {max_seconds}")
    return None if max_seconds is None else perf_counter() + max_seconds


@dataclass(frozen=True, slots=True)
class Violation:
    """One witness record: offending member indices plus a readable reason."""

    kind: str
    indices: tuple[int, ...]
    reason: str


@dataclass(frozen=True)
class Report:
    violations: tuple[Violation, ...] = ()
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

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


def _find_min_witness(
    masks: list[int], r: int, deadline: float | None = None
) -> tuple[tuple[int, ...] | None, int]:
    """Lexicographically least inclusion-minimal empty-intersection subfamily.

    Depth-first search over index-increasing chains in which every added
    member strictly shrinks the running intersection.  Any inclusion-minimal
    witness has that property in every member order, so the search is
    complete, and DFS preorder visits chains in lexicographic order of their
    index tuples, so the first minimal witness found is the least one.
    Returns (witness or None, number of chains examined).  Past deadline (a
    perf_counter() reading) it raises VerifyTimeout.
    """
    nv = len(masks)
    examined = 0
    check_at = inf if deadline is None else CLOCK_STRIDE
    chosen: list[int] = []

    def search(start: int, inter: int) -> tuple[int, ...] | None:
        nonlocal examined, check_at
        if examined > check_at:
            if perf_counter() > deadline:
                raise VerifyTimeout(TIMED_OUT)
            check_at = examined + CLOCK_STRIDE
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
        return search(0, -1), examined
    finally:
        del search  # it reaches itself through its closure: break the cycle


def is_r_wise_intersecting(
    fam: SetFamily, r: int, deadline: float | None = None
) -> Report:
    """Check that every subfamily of at most r members has a common point.

    On failure the report carries the lexicographically least
    inclusion-minimal violating subfamily (indices into fam.members).
    A family passes at once if its members share a point, or if its union
    T and least member size t have r*(|T| - t) < |T|, since any r members
    then miss fewer than |T| points of T between them (every tail family of
    a tight partition is one).  Past deadline (a perf_counter() reading)
    the search raises VerifyTimeout.
    """
    if r < 2:
        raise InvalidParams(f"need r >= 2, got r={r}")
    if not fam.members:
        raise InvalidParams("family must be nonempty")
    masks = list(fam.masks())

    inter_all, union = -1, 0
    for m in masks:
        inter_all &= m
        union |= m
    spread = union.bit_count() - min(m.bit_count() for m in masks)
    if inter_all or r * spread < union.bit_count():
        return Report(stats={"families": 1, "tuples_examined": 1})

    witness, examined = _find_min_witness(masks, r, deadline)
    stats = {"families": 1, "tuples_examined": examined}
    if witness is None:
        return Report(stats=stats)
    sets = ", ".join(
        "{" + ",".join(map(str, fam.members[i].elements())) + "}" for i in witness
    )
    return Report(
        violations=(
            Violation(
                kind="empty_intersection",
                indices=witness,
                reason=f"members {list(witness)} = [{sets}] have empty intersection",
            ),
        ),
        stats=stats,
    )


def verify_partition_certificate(cert, max_seconds: float | None = None) -> Report:
    """Full validity check of a claimed partition into r-wise families.

    ok iff (a) the families' disjoint union is exactly all C(n,k) k-subsets
    of [n], (b) every family is nonempty, and (c) every family passes
    is_r_wise_intersecting at the certificate's r.  More than
    DEFAULT_GROUND_CAP points (CapExceeded) or MAX_SUBSETS k-subsets
    (InstanceTooLarge) are refused before any member is read.  With
    max_seconds set, the witness searches raise VerifyTimeout once that
    many seconds have passed since the call, unless a violation is
    already recorded: then the report is FAILED with the violations so far
    and stats["complete"] = False.
    """
    from .constructions import PartitionCertificate  # local: avoids cycle

    if not isinstance(cert, PartitionCertificate):
        raise InvalidParams("expected a PartitionCertificate")
    deadline = _deadline(max_seconds)
    p = cert.params
    guard_subsets(p.n, p.k)
    violations: list[Violation] = []

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

    # coverage: seen holds distinct k-subsets of [n] only, so it covers them
    # all iff it has C(n,k); a gap sends the check through every k-subset,
    # by brute force, to name the first ten missing
    expected = comb(p.n, p.k)
    missing = expected - len(seen)
    gaps = (els for els in combinations(range(p.n), p.k)
            if sum(1 << e for e in els) not in seen)
    for els in islice(gaps, 10 if missing else 0):
        pretty = "{" + ",".join(str(e + 1) for e in els) + "}"
        violations.append(
            Violation("uncovered_subset", (), f"subset {pretty} is uncovered")
        )
    if missing > 10:
        violations.append(
            Violation(
                "uncovered_subset", (), f"{missing - 10} further subsets uncovered"
            )
        )

    stats = {
        "families": len(cert.families),
        "members": len(seen),
        "expected_members": expected,
        "tuples_examined": 0,
    }
    for fi, fam in enumerate(cert.families):
        if not fam.members:
            continue
        try:
            rep = is_r_wise_intersecting(fam, p.r, deadline)
        except VerifyTimeout:
            if not violations:
                raise
            stats["complete"] = False  # the verdict is known: FAILED
            break
        stats["tuples_examined"] += rep.stats.get("tuples_examined", 0)
        for v in rep.violations:
            violations.append(
                Violation(v.kind, v.indices, f"family {fi}: {v.reason}")
            )
    return Report(tuple(violations), stats)


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
        for v in edge:
            if colors[v] != first:
                break
        else:
            violations.append(
                Violation(
                    "monochromatic_edge",
                    tuple(edge),
                    f"edge {ei} = {list(edge)} is monochromatic in color {first}",
                )
            )
    return Report(tuple(violations), stats={"edges": len(h.edges)})


def _block_table(parts, n: int, r: int) -> list[int]:
    """block[e]: the index of the part holding point e + 1; the parts must
    partition [n] into blocks of 1..r-1 points."""
    block = [-1] * n
    for b, part in enumerate(parts):
        if not 1 <= len(part) <= r - 1:
            raise InvalidParams(
                f"bad descriptor: block {list(part)} needs 1..{r - 1} points"
            )
        for e in part:
            if not 1 <= e <= n:
                raise InvalidParams(f"bad descriptor: point {e} outside [1, {n}]")
            if block[e - 1] >= 0:
                raise InvalidParams(f"bad descriptor: point {e} in two blocks")
            block[e - 1] = b
    if -1 in block:
        raise InvalidParams(f"bad descriptor: parts do not cover [1, {n}]")
    return block


# the CLI prints at most this many violations; later monochromatic edges
# are counted, not recorded
EDGE_RECORDS = 20


def _class_cover(
    points: list[tuple[int, ...]], inc: list[int], k: int, ids: list[int], r: int
) -> tuple[bool, int]:
    """Whether a short witness shows that no r members of the class ids are
    pairwise disjoint; points[v] lists the k points of vertex v, and inc[e]
    holds the class positions whose vertex holds point e.  Returns (found,
    cover-search steps taken).

    Each witness is a point set T that every member meets in at least t
    points with |T| < r*t, so r pairwise disjoint members, which would meet
    T in r*t distinct points, cannot exist:
      * t = k: T is the union of the members, of fewer than r*k points.
        Every class of fewer than r members has one.
      * t = 1: T is a set of at most r-1 points hitting every member.  A
        bounded search tree finds one if one exists: the lowest member that
        the points chosen so far miss must hold a point of T, so the search
        branches on its k points, to depth r-1.  Each step is one AND of a
        point's incidence mask over class positions.  The search gives up
        after as many steps as the class has members, so it stays linear
        and cannot blow up at large k^(r-1).
    """
    size = len(ids)
    if sum(1 for m in inc if m) < r * k:
        return True, 0

    steps = 0
    stack = [((1 << size) - 1, r - 1)]  # (positions missed, points left)
    while stack:
        missed, left = stack.pop()
        low = (missed & -missed).bit_length() - 1
        for e in points[ids[low]]:
            if steps == size:
                return False, steps
            steps += 1
            rest = missed & ~inc[e]
            if not rest:
                return True, steps
            if left > 1:
                stack.append((rest, left - 1))
    return False, steps


def _disjoint_chains(
    points: list[tuple[int, ...]],
    inc: list[int],
    ids: list[int],
    r: int,
    keep: int,
    deadline: float | None = None,
) -> tuple[list[tuple[int, ...]], int, int, bool]:
    """r-tuples of ids (increasing, r >= 2) whose vertices are pairwise
    disjoint; points[v] lists the points of vertex v, and inc[e] holds the
    class positions whose vertex holds point e.

    Bit-parallel DFS: bit i stands for ids[i], and apart[i] holds the later
    positions minus those whose vertices meet ids[i], read off inc.  A chain
    keeps the candidates in apart[i] of each member it takes, the last level
    is a popcount, and tuples come out in lexicographic order.  Returns (the
    first keep tuples, how many there are, how many candidates the walk
    tried: one bitmask AND each, whether the walk finished).  Past deadline
    (a perf_counter() reading) it stops and returns what it has so far with
    the last value False.
    """
    size = len(ids)
    if size < r:
        return [], 0, 0, True
    every = (1 << size) - 1
    apart = []
    for i, v in enumerate(ids):
        meets = 0
        for e in points[v]:
            meets |= inc[e]
        apart.append(every >> i + 1 << i + 1 & ~meets)  # later, minus meeting i

    found: list[tuple[int, ...]] = []
    total = tests = 0
    check_at = inf if deadline is None else CLOCK_STRIDE
    stack = [((), every, size)]  # (chain, candidate mask, its popcount)
    while stack:
        if tests > check_at:
            if perf_counter() > deadline:
                return found, total, tests, False
            check_at = tests + CLOCK_STRIDE
        chain, cands, left = stack.pop()
        need = r - 1 - len(chain)  # members still to add after the next one
        tests += left - need
        frames = []
        for _ in range(left - need):
            low = cands & -cands
            cands ^= low
            pos = low.bit_length() - 1
            rest = cands & apart[pos]
            if need > 1:
                if (cnt := rest.bit_count()) >= need:
                    frames.append((chain + (ids[pos],), rest, cnt))
            elif rest:
                total += rest.bit_count()
                while rest and len(found) < keep:
                    low = rest & -rest
                    found.append(chain + (ids[pos], ids[low.bit_length() - 1]))
                    rest ^= low
        stack.extend(reversed(frames))
    return found, total, tests, True


def verify_coloring_certificate(cert, max_seconds: float | None = None) -> Report:
    """Recheck a descriptor-backed coloring without trusting any generator.

    The vertex set named by the certificate (all k-subsets of [ground_n],
    optionally restricted to s-stable ones or to transversals of the given
    parts) is rebuilt here from plain combinations in colex order: a vertex
    is s-stable iff every gap between cyclically adjacent points is at least
    s, and a transversal iff its points lie in k distinct blocks.  Every r
    pairwise disjoint members of one color class form a monochromatic edge.
    Each class's point incidence over its positions is built once and read
    by both searches below.  Each class first gets a linear-time attempt at
    a witness that it holds no such r-tuple (_class_cover): its members span
    fewer than r*k points, or at most r-1 points hit them all.  Either is
    sound on its own, since r pairwise disjoint k-sets need r*k distinct
    points and r distinct points of any set they all meet.
    stats["classes_witnessed"] counts the classes so proved.  Any other
    class gets a bit-parallel search over index-increasing chains that stay
    pairwise disjoint.
    stats["tuples_examined"] counts the steps of both searches: the cover
    search's steps, at most one per class member, and the candidates the
    chain search tried, one bitmask AND each.  No edge list is consumed.
    The report records the first EDGE_RECORDS edges in lexicographic order
    (color, then vertex ids) and, past that, one record with empty indices
    counting the rest; stats["disjoint_tuples"] holds the exact total.
    With max_seconds set, the chain walk stops once that many seconds have
    passed since the call.  With no monochromatic edge found the check then
    raises VerifyTimeout; with one, the report is FAILED with the edges so
    far, and stats["complete"] = False marks the counts as lower bounds.  A
    descriptor naming no hypergraph (s < 1, or parts that do not partition
    [ground_n] into blocks of 1..r-1 points) is InvalidParams; one above
    DEFAULT_GROUND_CAP points is CapExceeded, and one above MAX_SUBSETS
    k-subsets is InstanceTooLarge.
    """
    from .constructions import ColoringCertificate  # local: avoids cycle

    if not isinstance(cert, ColoringCertificate):
        raise InvalidParams("expected a ColoringCertificate")
    deadline = _deadline(max_seconds)
    n, k, r = cert.ground_n, cert.k, cert.r
    if not (1 <= k <= n and r >= 2):
        raise InvalidParams(f"bad descriptor n={n} k={k} r={r}")
    if cert.stability is not None and cert.stability < 1:
        raise InvalidParams(f"bad descriptor s={cert.stability}, need s >= 1")
    guard_subsets(n, k)
    block = None if cert.parts is None else _block_table(cert.parts, n, r)
    s = cert.stability if k > 1 else None  # one point: no pair to keep apart

    # points in decreasing order make the combinations decreasing in colex,
    # and the cyclic gaps of els are its wrap-around gap and its differences
    points: list[tuple[int, ...]] = []
    for els in combinations(range(n - 1, -1, -1), k):
        if s is not None and (
            n - els[0] + els[-1] < s
            or any(a - b < s for a, b in zip(els, els[1:]))
        ):
            continue
        if block is not None and len({block[e] for e in els}) < k:
            continue
        points.append(els)
    points.reverse()

    if len(cert.colors) != len(points):
        raise LengthMismatch(
            f"{len(cert.colors)} colors for {len(points)} descriptor vertices"
        )

    classes: dict[int, list[int]] = {}
    for vid, c in enumerate(cert.colors):
        classes.setdefault(c, []).append(vid)

    violations = []
    examined = 0
    disjoint = 0
    witnessed = 0
    complete = True
    for c, ids in sorted(classes.items()):
        inc = [0] * n  # inc[e]: the class positions whose vertex holds e
        for i, v in enumerate(ids):
            for e in points[v]:
                inc[e] |= 1 << i
        covered, steps = _class_cover(points, inc, k, ids, r)
        examined += steps
        if covered:
            witnessed += 1
            continue
        tuples, total, tests, complete = _disjoint_chains(
            points, inc, ids, r, EDGE_RECORDS - len(violations), deadline
        )
        if not (complete or violations or total):  # no edge found yet
            raise VerifyTimeout(TIMED_OUT)
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
        if not complete:
            break
    if disjoint > EDGE_RECORDS:
        violations.append(
            Violation(
                "monochromatic_edge",
                (),
                f"{'' if complete else 'at least '}{disjoint - EDGE_RECORDS}"
                f" further pairwise disjoint {r}-tuples",
            )
        )
    stats = {
        "vertices": len(points),
        "classes": len(classes),
        "classes_witnessed": witnessed,
        "tuples_examined": examined,
        "disjoint_tuples": disjoint,
    }
    if not complete:
        stats["complete"] = False
    return Report(tuple(violations), stats)
