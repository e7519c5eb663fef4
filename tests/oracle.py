"""Exhaustive references for tiny instances, used by the tests.

brute_force_oracle colors a hypergraph and shares no code with the search
engine in kneser_lab.solve, and ReferenceScan is the propagation that
engine's rule tables replace, read off a listed edge set;
brute_force_monochromatic lists a coloring's monochromatic edges and
shares no code with the chain search in kneser_lab.verify, and
reference_disjoint_chains is that search's list-based form, kept to pin
its counts; brute_force_witnesses lists the minimal empty-intersection
witnesses and shares no code with the pruned DFS of
solve.build_conflict_hypergraph, and brute_force_disjoint lists the
r-tuples of pairwise disjoint vertices, sharing none with the ordered
backtracking of kneser's Kneser-type builders; reference_tight_partition builds the
tight partition family by family from combinations and sorts, independently
of the colex filing in constructions.build_tight_partition.  Each pair can
cross-check the other.  hilton_milner_partition is a valid partition whose
first family makes the partition verifier's witness search run long.
rule_instance and random_rule_instance make the tiny sub-families of
k-subsets that the search is cross-checked on.
"""

from itertools import combinations

from kneser_lab.constructions import PartitionCertificate, tail_size, tight_bound
from kneser_lab.errors import InstanceTooLarge, InvalidParams
from kneser_lab.kneser import Hypergraph, _granted, _Rule
from kneser_lab.setsys import (
    GroundParams,
    KSubset,
    SetFamily,
    enumerate_k_subsets,
    guard_subsets,
)
from kneser_lab.verify import Violation

# brute_force_oracle's answer when no coloring within max_colors exists
INFEASIBLE = "INFEASIBLE"


def rule_instance(vertices, rule: _Rule, cells: tuple[int, ...] = ()) -> Hypergraph:
    """The given k-subsets under `rule`, with `cells`, as a builder grants
    an instance.  No descriptor names such a sub-family, so it has no params
    and is only ever searched (solve._search), never certified."""
    return _granted(vertices, cells, None, rule)


def random_rule_instance(rng, rs=range(2, 5), dense=False, fewest=4) -> Hypergraph:
    """`fewest` to 12 random k-subsets of [n], in a random order, under the
    disjoint rule (with n >= rk, so that r disjoint k-subsets exist) or
    the conflict rule, for n <= 8 and an r drawn from rs.  With `dense`,
    2-subsets of [6..9] at r = 2, where about half of all pairs are
    disjoint and so an edge."""
    meet = rng.random() < 0.5
    r = 2 if dense else rng.choice(rs)
    while True:
        n = rng.randint(6, 9) if dense else rng.randint(r, 8)
        k = 2 if dense else rng.randint(1, n - 1 if meet else n // r)
        pool = enumerate_k_subsets(n, k)
        if len(pool) >= fewest:
            break
    vertices = rng.sample(pool, rng.randint(fewest, min(12, len(pool))))
    return rule_instance(vertices, _Rule(r, meet))


def brute_force_edges(h: Hypergraph) -> list[tuple[int, ...]]:
    """h's edges under its rule, listed by brute force: the minimal
    empty-intersection witnesses for the conflict rule, the pairwise
    disjoint r-tuples otherwise.  Never reads h.edges."""
    lister = brute_force_witnesses if h.rule.meet else brute_force_disjoint
    return lister([v.bits for v in h.vertices], h.rule.r)


def brute_force_oracle(h: Hypergraph, max_colors: int) -> int | str:
    """Exhaustive reference answer for tiny instances, over the edges
    `brute_force_edges` lists.

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
    for e in brute_force_edges(h):
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


def brute_force_disjoint(masks: list[int], r: int) -> list[tuple[int, ...]]:
    """Every r-subset of the masks whose members are pairwise disjoint, as
    increasing id tuples in lexicographic order: their sizes add up to the
    size of their union."""
    out = []
    for w in combinations(range(len(masks)), r):
        union = 0
        for i in w:
            union |= masks[i]
        if union.bit_count() == sum(masks[i].bit_count() for i in w):
            out.append(w)
    return out


class ReferenceScan:
    """The propagation of an edge list, which the search engine's rule
    tables replace: each pair in adj, and each larger edge R filed as its
    rest R - v under every member v.  Coloring v with c forbids, in class
    c, v's pair neighbours and the one member a rest of v has left outside
    the class."""

    def __init__(self, nv: int, edges) -> None:
        self.adj = [0] * nv
        self.rests: list[list[int]] = [[] for _ in range(nv)]
        for e in edges:
            mask = 0
            for u in e:
                mask |= 1 << u
            for u in e:
                if len(e) == 2:
                    self.adj[u] |= mask ^ 1 << u
                else:
                    self.rests[u].append(mask ^ 1 << u)

    def forbid(self, v: int, col_c: int, forb_c: int) -> int:
        """forb_c after v joins class c, which then holds the ids of col_c."""
        f = forb_c | self.adj[v]
        for rest in self.rests[v]:
            left = rest & ~col_c
            if left & (left - 1) == 0:
                f |= left
        return f

    def fails(self, forb: list[int], uncol: int) -> bool:
        """Whether an uncolored vertex has every color forbidden (a
        wipeout), or two uncolored pair neighbours have the same one color
        left (a clash)."""
        every = uncol
        for f in forb:
            every &= f
        if every:
            return True
        for d in range(len(forb)):
            single = uncol & ~forb[d]
            for e, f in enumerate(forb):
                if e != d:
                    single &= f
            x = single
            while x:
                low = x & -x
                x ^= low
                if self.adj[low.bit_length() - 1] & single:
                    return True
        return False


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
