"""Exhaustive references for tiny instances, used by the tests.

brute_force_oracle colors a hypergraph and shares no code with the search
engine in kneser_lab.solve; brute_force_monochromatic lists a coloring's
monochromatic edges and shares no code with the chain search in
kneser_lab.verify, and reference_disjoint_chains is that search's
list-based form, kept to pin its counts; brute_force_witnesses lists the
minimal empty-intersection witnesses and shares no code with the pruned DFS
of solve.build_conflict_hypergraph; reference_tight_partition builds the
tight partition family by family from combinations and sorts, independently
of the colex filing in constructions.build_tight_partition.  Each pair can
cross-check the other.  hilton_milner_partition is a valid partition whose
first family makes the partition verifier's witness search run long.
"""

from itertools import combinations

from kneser_lab.constructions import PartitionCertificate, tail_size, tight_bound
from kneser_lab.errors import InstanceTooLarge, InvalidParams
from kneser_lab.kneser import Hypergraph
from kneser_lab.setsys import GroundParams, KSubset, SetFamily, guard_subsets
from kneser_lab.verify import Violation

# brute_force_oracle's answer when no coloring within max_colors exists
INFEASIBLE = "INFEASIBLE"


def brute_force_oracle(h: Hypergraph, max_colors: int) -> int | str:
    """Exhaustive reference answer for tiny instances.

    Assigns the vertices in id order, over every assignment whose used
    colors form a prefix (the one safe reduction), and checks each edge as
    soon as its highest member is assigned, so a monochromatic edge cuts
    off every extension of the partial assignment.  Deliberately shares
    nothing with the engine so the two can cross-check.
    """
    nv = len(h.vertices)
    if nv > 16:
        raise InstanceTooLarge(f"oracle capped at 16 vertices, got {nv}")
    if max_colors < 1:
        raise InvalidParams(f"need max_colors >= 1, got {max_colors}")
    if nv == 0:
        return 0
    closed_by: list[list[tuple[int, ...]]] = [[] for _ in range(nv)]
    for e in h.edges:
        closed_by[max(e)].append(e)

    def exists(limit: int, assign: list[int], used: int) -> bool:
        v = len(assign)
        if v == nv:
            return True
        for col in range(min(used + 1, limit - 1) + 1):
            assign.append(col)
            found = all(
                any(assign[u] != col for u in e) for e in closed_by[v]
            ) and exists(limit, assign, max(used, col))
            assign.pop()
            if found:
                return True
        return False

    for limit in range(1, max_colors + 1):
        if exists(limit, [], -1):
            return limit
    return INFEASIBLE


def brute_force_monochromatic(
    verts: list[int], colors: list[int] | tuple[int, ...], r: int
) -> list[Violation]:
    """Every monochromatic edge of a coloring of the Kneser-type hypergraph on
    the vertex bitmasks verts, uncapped.

    Scans all r-subsets of each color class, classes in increasing color
    order and r-subsets in lexicographic order, and keeps those whose
    members are pairwise disjoint, recorded as verify_coloring_certificate
    records them.
    """
    classes: dict[int, list[int]] = {}
    for vid, c in enumerate(colors):
        classes.setdefault(c, []).append(vid)
    out = []
    for c, ids in sorted(classes.items()):
        for tup in combinations(ids, r):
            union = 0
            total = 0
            for vid in tup:
                union |= verts[vid]
                total += verts[vid].bit_count()
            if total == union.bit_count():
                out.append(
                    Violation(
                        "monochromatic_edge",
                        tup,
                        f"color {c}: vertices {list(tup)} are pairwise disjoint",
                    )
                )
    return out


def brute_force_witnesses(masks: list[int], r: int) -> list[tuple[int, ...]]:
    """Every inclusion-minimal subfamily of 1..r masks with empty
    intersection, as increasing id tuples in lexicographic order.

    Tries every combination and, for each empty one, every proper
    nonempty subfamily of it.
    """

    def empty(ids) -> bool:
        inter = -1
        for i in ids:
            inter &= masks[i]
        return inter == 0

    out = []
    for size in range(1, r + 1):
        for w in combinations(range(len(masks)), size):
            if empty(w) and not any(
                empty(sub) for s in range(1, size) for sub in combinations(w, s)
            ):
                out.append(w)
    return sorted(out)


def reference_disjoint_chains(
    verts: list[int], ids: list[int], r: int, keep: int
) -> tuple[list[tuple[int, ...]], int, int]:
    """The list-based form of kneser_lab.verify._disjoint_chains.

    Depth-first search over increasing chains with a running union: each
    level keeps only the later ids disjoint from the union, so the tuples
    come out in lexicographic order.  Returns (the first keep tuples, how
    many tuples there are, how many candidates were tried as the next member).
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
            tests += 1
            rest = [j for j in cands[pos + 1 :] if not verts[j] & u]
            if len(rest) >= need:
                walk(chain + (cands[pos],), u, rest)

    walk((), 0, ids)
    return found, total, tests


def reference_tight_partition(p: GroundParams) -> PartitionCertificate:
    """The tight partition built family by family: the star of each i <= n-s
    from combinations of the points above i, then the tail from combinations
    of the last s points, each family sorted into colex order.  Refuses
    inadmissible and oversized inputs as the builder does."""
    tight_bound(p)
    guard_subsets(p.n, p.k)
    n, k = p.n, p.k
    s = tail_size(k, p.r)
    groups = [[(i, *rest) for rest in combinations(range(i + 1, n + 1), k - 1)]
              for i in range(1, n - s + 1)]
    groups.append(list(combinations(range(n - s + 1, n + 1), k)))
    families = []
    for group in groups:
        members = sorted((KSubset.from_elements(els, n) for els in group),
                         key=lambda f: f.bits)
        families.append(SetFamily(n, tuple(members)))
    return PartitionCertificate(p, tuple(families))


def hilton_milner_partition(n: int, k: int) -> PartitionCertificate:
    """The k-subsets of [n] at r = 2 as HM(n, k), then stars.

    Family 0, HM(n, k), holds the k-subsets through 1 that meet {2..k+1},
    then {2..k+1} itself: it is intersecting with no common point, and for
    n > k + 1 it spans all of [n], so no small-union witness proves it.
    Every other k-subset joins the star of its least point other than 1."""
    head = tuple(range(2, k + 2))
    hm: list[tuple[int, ...]] = []
    stars: dict[int, list[tuple[int, ...]]] = {}
    for els in combinations(range(1, n + 1), k):
        if els[0] == 1 and set(head) & set(els):
            hm.append(els)
        elif els != head:
            stars.setdefault(els[1] if els[0] == 1 else els[0], []).append(els)
    families = (hm + [head], *stars.values())
    return PartitionCertificate(GroundParams(n, k, 2), tuple(
        SetFamily(n, tuple(KSubset.from_elements(els, n) for els in fam))
        for fam in families))
