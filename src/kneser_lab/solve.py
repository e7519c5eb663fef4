"""Exact solvers for the partition number and hypergraph chromatic numbers.

Both are chromatic numbers of a Hypergraph, the partition number that of
the conflict hypergraph, whose edges are the empty-intersection witnesses;
the two entry points share one search core and differ only in their
certificates.  The engine below keeps two bitmasks per color, the vertices
holding it and the uncolored vertices it would complete a constraint on,
so an assignment touches one color's masks and undo restores them; the
uncolored vertices and their counts of forbidden colors are values that
each search node hands down, so they need no undo.  It branches on the
vertex with the fewest remaining candidate colors, the saturation degree
of DSATUR (Brélaz, "New methods to color the vertices of a graph", CACM
1979), which it keeps up to date per assignment rather than recounting it
at every node.  An assignment also fails when two uncolored vertices of a
pair constraint are left the same one allowed color, the failure test of
arc consistency on the pair constraints (Sabin and Freuder,
"Contradicting conventional wisdom in constraint satisfaction", 1994), so
a forced chain stops where it clashes rather than where branching
reaches the clash.  It breaks ties by how often assigning
a vertex has failed, by a wipeout or a clash, so far in the solve (the
variable-weighted form of dom/wdeg: Boussemart, Hemery, Lecoutre and
Sais, "Boosting systematic search by weighting constraints", ECAI 2004),
breaks color symmetry by only ever opening one fresh color, and proves
optimality by iterative deepening on the class count.  Where a builder's
constraints have 2 or 3 members, the vertices a coloring forbids are read
off the vertices' point masks, so no constraint is listed.  A listed
constraint of four or more members is indexed under pairs of its
members, so an assignment looks only at those whose watched pair is all
one color: the watched literals of Chaff (Moskewicz, Madigan, Zhao, Zhang
and Malik, "Chaff: engineering an efficient SAT solver", DAC 2001) and
Minion (Gent, Jefferson and Miguel, "Watched literals for constraint
propagation in Minion", CP 2006), with watches that never move, since a
color class only grows along a search path.  Closed-form values are never
consulted, so agreement with the formulas is evidence, not circularity.

Point symmetry is broken by orbital branching (Margot 2002; Ostrowski,
Linderoth, Rossi and Smriglio 2011) over a subgroup that needs no group
machinery: the permutations of the ground set that move points only
inside given cells.  The conflict hypergraph and KG^r(k, n) keep their
constraints under every permutation of [n], and the block-constrained
variant under every permutation inside the blocks, so those are the
starting cells; the s-stable variant is only dihedrally symmetric and gets
none.  Cells come only from this package's builders; a hand-built or
edited Hypergraph is searched without them and gets no certificate.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, replace

from .constructions import ColoringCertificate, PartitionCertificate
from .errors import InstanceTooLarge, InvalidParams, SoundnessError
from .kneser import Hypergraph, _Apart, _granted, _incidence, _Rule
from .setsys import MAX_EDGES, GroundParams, KSubset, SetFamily, enumerate_k_subsets
from .setsys import guard_vertices
from .verify import (
    is_r_wise_intersecting,
    verify_coloring,
    verify_coloring_certificate,
    verify_partition_certificate,
)

EXACT = "EXACT"
TIMEOUT = "TIMEOUT"


@dataclass(frozen=True, slots=True)
class SolveBudget:
    """Resource limits for one solve call.

    Every solve is one search in one process, bounded only by max_seconds
    and max_nodes; with neither set it runs until the bracket closes.
    proof_cap and workers limit nothing: they stay only because the
    benchmark's design.json passes them, and go with the next change to the
    benchmark.  workers accepts only 1.
    """

    max_seconds: float | None = None
    max_nodes: int | None = None
    proof_cap: int | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers != 1:
            raise InvalidParams(f"workers must be 1, got {self.workers}")


@dataclass(frozen=True)
class SolveResult:
    """The one record of a search: `_search` fills the bracket, nodes and
    colors, and each entry point adds millis and the certificate."""

    status: str
    lower: int
    upper: int
    nodes: int
    millis: int
    certificate: PartitionCertificate | ColoringCertificate | None = None
    colors: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise SoundnessError(f"lower bound {self.lower} above upper {self.upper}")
        if (self.status == EXACT) != (self.lower == self.upper):
            raise SoundnessError(
                f"{self.status} with bracket [{self.lower},{self.upper}]"
            )
        if self.status == EXACT and self.certificate is None and self.colors is None:
            raise SoundnessError("EXACT without a certificate or colors")

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "lower": self.lower,
            "upper": self.upper,
            "nodes": self.nodes,
            "millis": self.millis,
            "certificate": (
                self.certificate.to_dict() if self.certificate else None
            ),
        }


def build_conflict_hypergraph(p: GroundParams) -> Hypergraph:
    """The k-subsets of [n] in colex order, with every inclusion-minimal
    empty-intersection subfamily of size <= r as an edge, [n] as its cell
    and no descriptor.  A coloring has no monochromatic edge iff each
    class is r-wise intersecting.  The edges are listed on their first
    read, by the strict-shrink DFS of kneser._minimal_witnesses.
    """
    guard_vertices(p.num_vertices, f"C({p.n},{p.k})")
    vertices = enumerate_k_subsets(p.n, p.k)
    return _granted(vertices, None, ((1 << p.n) - 1,), rule=_Rule(p.r, meet=True))


class _Timeout(Exception):
    pass


def _plus_one(planes: list[int], bits: int) -> list[int]:
    """Bit-sliced counters (plane j holds bit j of every vertex's count)
    with one added to each vertex whose bit is given, as a new list.

    `planes` itself is never changed.  A plane is added only once the carry
    runs past the last one; the ripple step reads no length, since the
    engine calls this on every assignment.
    """
    out = planes[:]
    j = 0
    try:
        while bits:
            pj = out[j]
            out[j] = pj ^ bits
            bits &= pj
            j += 1
    except IndexError:
        out.append(bits)
    return out


def _edge_tables(nv: int, constraints) -> tuple:
    """The engine's tables (adj, partners, third, w1, w2, watch, and the
    triple step "rows") indexed from a constraint list in one pass; see
    _Engine, "Propagation"."""
    bits = [1 << i for i in range(nv)]
    adj = [0] * nv
    # one pass, each arity unpacked by hand.  A triple a < b < c ORs
    # each member into the entry of the other two, third[a][b],
    # third[a][c] and third[b][c], so each row holds only its higher
    # partners until the pass below mirrors it.  An in-order member
    # list passes one chained comparison, which also rejects a
    # repeated, negative (bits[-1] would wrap) or too large id; any
    # other order is sorted and compared again.
    third: list[defaultdict[int, int]] = [defaultdict(int) for _ in range(nv)]
    watch: list[defaultdict[int, list[int]]] = [defaultdict(list) for _ in range(nv)]
    entries = 0
    try:
        for t in constraints:
            size = len(t)
            if size == 3:
                a, b, c = t
                if not 0 <= a < b < c < nv:
                    a, b, c = sorted(t)
                    if not 0 <= a < b < c < nv:
                        raise ValueError
                third[a][b] |= bits[c]
                third[a][c] |= bits[b]
                third[b][c] |= bits[a]
            elif size == 2:
                a, b = t
                if not 0 <= a < b < nv:
                    b, a = t
                    if not 0 <= a < b < nv:
                        raise ValueError
                adj[a] |= bits[b]
                adj[b] |= bits[a]
            elif size > 3:
                members = sorted(t)
                if members[0] < 0 or members[-1] >= nv:
                    raise ValueError
                mask = 0
                for u in members:
                    mask |= bits[u]
                if mask.bit_count() != size:
                    raise ValueError
                entries += 3 * size
                if entries > MAX_EDGES:
                    raise InstanceTooLarge(
                        f"watch entries exceed limit {MAX_EDGES}"
                    )
                # R - v is watched under the pairs of its three lowest
                # members, in watch[v][a*nv + b] for a pair a < b
                a, b, d, e = members[:4]
                ab, ad, ae = a * nv + b, a * nv + d, a * nv + e
                bd, be, de = b * nv + d, b * nv + e, d * nv + e
                by_low = ((bd, be, de), (ad, ae, de), (ab, ae, be))
                for i, v in enumerate(members):
                    x, y, z = by_low[i] if i < 3 else (ab, ad, bd)
                    rest = mask ^ bits[v]
                    wv = watch[v]
                    wv[x].append(rest)
                    wv[y].append(rest)
                    wv[z].append(rest)
            else:
                raise InvalidParams(f"constraint {t} has fewer than 2 members")
    except (IndexError, TypeError, ValueError) as exc:
        raise InvalidParams(
            f"constraint {t} needs distinct ids of the {nv} vertices"
        ) from exc
    partners = [0] * nv
    # from the top row down: each row is read before any lower partner
    # is mirrored into it, so each entry is mirrored once
    for a in range(nv - 1, -1, -1):
        for b, mask in third[a].items():
            third[b][a] = mask
            partners[a] |= bits[b]
            partners[b] |= bits[a]
    w1 = [0] * nv
    w2: list[dict[int, int]] = [{} for _ in range(nv)]
    for v, wv in enumerate(watch):
        w2v = w2[v]
        for ab in wv:
            a, b = divmod(ab, nv)
            w1[v] |= bits[a]
            w2v[a] = w2v.get(a, 0) | bits[b]
    return adj, partners, third, w1, w2, watch, "rows"


def _rule_tables(rule, points: tuple[int, ...]) -> tuple | None:
    """The engine's tables for a builder's rule, read off the point masks
    with no constraint listed, forbidding what _edge_tables' would; None
    where the rule gives constraints of 4 or more members.  With D(x) the
    vertices disjoint from mask x (memoised in `_Apart`), the pairs are
    adj[v] = D(v), the disjoint rule's at r = 2 and the meet rule's always;
    triples are read at assignment time (see _Engine, "Propagation"), off
    D(v) for the disjoint rule at r = 3, and off the memo and the other
    vertices meeting v for the meet rule, whose witnesses have at most
    min(r, k + 1) members.
    """
    nv = len(points)
    arity = min(rule.r, points[0].bit_count() + 1) if rule.meet and nv else rule.r
    if arity > 3:
        return None
    memo = _Apart(points)
    apart = [memo[x] for x in points]
    none = [0] * nv
    if rule.meet:
        near = none if arity < 3 else [
            memo.full ^ d ^ 1 << v for v, d in enumerate(apart)]
        return apart, near, memo, none, (), (), "meet"
    if arity == 2:
        return apart, none, apart, none, (), (), "apart"
    return none, apart, apart, none, (), (), "apart"


class _Engine:
    """Backtracking m-class feasibility checker over fixed constraints.

    The state is two bitmasks per color on the engine, plus the mask
    `uncol` of uncolored vertices and the count planes below, which a
    search node hands its children as new values: col[c] holds the
    vertices colored c, and forb[c] the vertices on which c would complete
    a constraint because every other member of it is already c.  forb[c]
    may keep the bits of vertices colored since, so it is only ever read
    through `uncol`.  An uncolored vertex in forb[c] for all m colors is a
    wipeout.  Assigning v color c touches only col[c] and forb[c], so undo
    needs just (v, c, old forb[c]), which each search frame keeps.

    Forbidden counts.  count holds, bit-sliced (plane j is bit j of every
    vertex's count), how many of the m forb[c] each vertex is in.  It is
    taken over raw forb, so it too is read only through `uncol`.  An
    assignment or an orbit prune adds one for each vertex newly in its
    forb[c] through `_plus_one`, the engine's one adder.  Every plane list
    (count, weight and `_orbit`'s counters) is copy-on-write: it is only
    ever replaced by the new list `_plus_one` returns, never mutated, so a
    list a node holds stays as it was and needs no undo.  Branching ranks
    vertices by their forbidden colors among the first p = max_used + 2 (at
    most m), the used colors and one fresh color, and the count over all m
    colors is that same number, since forb[c] == 0 for every c > max_used:
    no color above max_used is assigned on the path, the fresh color's forb
    is empty, so it is always allowed and tried last, and a prune follows
    only a child that is not the last, so it touches a color of at most
    max_used.  A vertex has at most m forbidden colors, so a count of m is
    one with every plane set where m has a one bit.

    Propagation works per arity, off tables that `_edge_tables` indexes in
    one pass over the constraints or, for a builder's instance whose
    constraints all have 2 or 3 members, `_rule_tables` reads off its rule
    and the point masks without listing a constraint; both forbid the same
    vertices, so the search tree is the same.  A pair ORs v's adjacency
    mask into forb[c].  A triple walks only the partners u of v already
    colored c, so its cost scales with those partners rather than with v's
    incidence; `step`, fixed per engine, says what each adds.  "rows" ORs
    in third[v][u], the mask of every w that makes {v, u, w} a constraint.
    The rules table nothing: with D(x) the vertices disjoint from point
    mask x, "apart" (three disjoint vertices) ORs in D(v) & D(u) for each u
    in D(v), and "meet" (minimal empty-intersection triples) ORs in
    D(v & u) for each other u meeting v: the w meeting v and u but none of
    their common points, and besides them only vertices of D(v) or D(u),
    which the pairs of v and u have already put in forb[c].  A larger
    constraint R can forbid a member only once at most one member of R - v
    is not colored c.  R - v has at least three members, so then one of the
    pairs among its three lowest is colored c throughout, and the rest mask
    R - v is filed under those three pairs (static pair watches).  An
    assignment walks the first members u of v's watched pairs that are
    colored c (w1[v]), then their second members w colored c (w2[v][u]),
    and scans only the rests filed under (u, w), forbidding the one member
    a rest has left outside c.  Every rest that can fire is scanned, so
    forb[c] is what a scan of all of v's rests gives.  The watch tables
    hold 3 entries per member of each larger constraint, which MAX_EDGES
    bounds, and the edge path's third rows one entry per ordered pair of
    members of a triple, which the listed edges bound; tables read off a
    rule hold a few masks per vertex.  The wipeout check looks only at the
    vertices newly added to forb[c], and reads their counts off the planes.

    Pair clashes.  An assignment also fails when one of those new vertices
    is left one allowed color d (a count of m - 1) and has a pair
    neighbour, uncolored and also allowed only d: the two must both take
    d, which the pair forbids.  This reads count, forb and adj only, so it
    adds nothing to the state or the undo.  It is sound under orbit
    prunes, since forb only ever holds colors that no solution below the
    node gives a vertex; a clash a prune creates is not looked for there,
    and is caught at a later assignment, at the latest when one of the two
    is colored and wipes out the other.  Any clash made by an assignment
    involves a vertex that assignment left with one color, so without
    prunes no node below a clash is searched.  The check stops at pairs.

    Branching weights.  weight holds, bit-sliced like count, how often
    assigning each vertex has failed; each wipeout or clash adds one
    through `_plus_one`.  It lives as long as the engine, so it carries
    over every run(m) of one solve and starts at zero for the next; a
    fresh engine is built per solve.  It only orders the branching, so it
    never changes what is feasible.

    Orbital pruning.  Given each vertex's point mask (all of one size) and
    cells of points whose permutations keep the constraints, the group G
    of a node permutes points freely inside each of its cells and fixes
    every other point.  Each colored vertex (the pinned clique, then each
    branching vertex) splits every cell into its part inside the vertex
    and the part outside, and singleton parts are dropped, so G maps every
    colored vertex to itself.  It therefore keeps the colors, and with
    them the constraints and the propagated part of forb; the pruned part
    is a union of orbits of G or of a larger ancestor group, so G keeps it
    too.  If child (v, c) fails, a solution coloring some σv with c would
    give, through σ^-1 in G, one coloring v with c, so the orbit of v joins
    forb[c] for the remaining children.  A node restores every forb entry
    it pruned before it returns.  Once no cell is left, a node only
    branches and propagates.
    """

    def __init__(
        self,
        nv: int,
        constraints: tuple[tuple[int, ...], ...],
        points: tuple[int, ...] = (),
        cells: tuple[int, ...] = (),
        tables: tuple | None = None,
    ):
        self.nv = nv
        if tables is None:
            tables = _edge_tables(nv, constraints)
        (self.adj, self.partners, self.third, self.w1, self.w2, self.watch,
         self.step) = tables
        self.has_pairs = any(self.adj)
        self.points = points
        self.cells = [cell for cell in cells if cell & (cell - 1)]
        self.incidence = _incidence(points) if self.cells else []
        self.weight: list[int] = []
        self.nodes = 0
        self.deadline: float | None = None
        self.max_nodes: int | None = None

    def _reset(self, m: int) -> list[int]:
        """Empty col and forb for m colors; the count planes they give."""
        self.m = m
        self.col = [0] * m
        self.forb = [0] * m
        planes = m.bit_length()
        # top plane first: few counts reach it, so a filter empties soonest
        top_down = range(planes - 1, -1, -1)
        self.m_planes = [j for j in top_down if m >> j & 1]
        self.single_planes = (
            [j for j in top_down if (m - 1) >> j & 1] if self.has_pairs else None
        )
        return [0] * planes

    def _assign(self, v: int, c: int, uncol: int, count: list) -> list | None:
        """Color v with c, given the vertices left uncolored after it and
        the count planes before it; the count planes after it, or None on a
        wipeout or a pair clash.  The caller undoes col and forb either way.

        The vertices newly in forb[c] each gain one forbidden color.  A
        wipeout is an uncolored one of them whose count is now m: O(log m)
        plane operations on those bits, not a walk over the other colors.
        With no wipeout their counts are at most m - 1, so those set in
        every plane where m - 1 has a one bit are the fresh singles, with a
        count of exactly m - 1.  Only when there is one, and the engine
        has pair constraints, is the mask of every uncolored single built
        (vertices with a count of m can pass the planes too, but no forb[d]
        misses them), and each fresh single's pair neighbours are tested
        against the singles allowed the same color.
        """
        forb = self.forb
        old = forb[c]
        cc = self.col[c] | 1 << v
        self.col[c] = cc
        f = old | self.adj[v]
        x = self.partners[v] & cc
        if x:
            third, step = self.third, self.step
            if step == "meet":
                points, pv = self.points, self.points[v]
                while x:
                    low = x & -x
                    f |= third[pv & points[low.bit_length() - 1]]
                    x ^= low
            elif step == "apart":
                near = 0
                while x:
                    low = x & -x
                    near |= third[low.bit_length() - 1]
                    x ^= low
                f |= third[v] & near
            else:
                row = third[v]
                while x:
                    low = x & -x
                    f |= row[low.bit_length() - 1]
                    x ^= low
        x = self.w1[v] & cc
        if x:
            w2 = self.w2[v]
            watch = self.watch[v]
            nv = self.nv
            out = ~cc
            while x:
                low = x & -x
                x ^= low
                u = low.bit_length() - 1
                y = w2[u] & cc
                uw = u * nv
                while y:
                    wb = y & -y
                    y ^= wb
                    for rest in watch[uw + wb.bit_length() - 1]:
                        left = rest & out
                        if left & (left - 1) == 0:
                            f |= left
        forb[c] = f
        grew = f & ~old
        if not grew:
            return count
        count = _plus_one(count, grew)
        new = grew & uncol
        wiped = new
        for j in self.m_planes:
            wiped &= count[j]
            if not wiped:
                break
        else:
            return None
        single_planes = self.single_planes
        if single_planes is None:
            return count
        for j in single_planes:
            new &= count[j]
            if not new:
                return count
        # new holds the fresh singles; a pair neighbour of one that is
        # also a single clashes with it if its one allowed color is the same
        single = uncol
        for j in single_planes:
            single &= count[j]
        adj = self.adj
        while new:
            low = new & -new
            new ^= low
            near = adj[low.bit_length() - 1] & single
            if near:
                for fd in forb:
                    if not fd & low:
                        if near & ~fd:
                            return None
                        break
        return count

    def _split(self, cells: list[int], v: int) -> list[int]:
        """Each cell cut into its points inside vertex v and those outside;
        singleton parts are dropped, since they permute nothing."""
        bits = self.points[v]
        out = []
        for cell in cells:
            for part in (cell & bits, cell & ~bits):
                if part & (part - 1):
                    out.append(part)
        return out

    def _orbit(self, v: int, cells: list[int], uncol: int) -> int:
        """The vertices of `uncol` that meet every cell in as many points as
        v does and contain v's points outside the cells.

        All vertices have the same size, so containing those points means
        agreeing with v off the cells: this is v's orbit under the cell
        group.  Bit-sliced counters (`_plus_one`) over the cell's point
        incidence masks count each vertex's points in the cell.
        """
        bits = self.points[v]
        inc = self.incidence
        orbit = uncol
        off = bits
        for cell in cells:
            off &= ~cell
            want = (bits & cell).bit_count()
            planes: list[int] = []
            x = cell
            while x:
                low = x & -x
                planes = _plus_one(planes, inc[low.bit_length() - 1] & orbit)
                x ^= low
            for j, plane in enumerate(planes):
                orbit &= plane if want >> j & 1 else ~plane
        while off:
            low = off & -off
            orbit &= inc[low.bit_length() - 1]
            off ^= low
        return orbit

    def _dfs(self, remaining: int, max_used: int, cells: list[int], uncol: int,
             count: list[int]) -> bool:
        """Search the vertices of `uncol`, with forbidden counts `count`,
        under the cell group of `cells`; past max_nodes, or the deadline
        (read at the first node and every 256th), raise _Timeout.

        It branches on the vertex with the most forbidden colors, then the
        heaviest, then the lowest id: the count planes, then the weight
        planes while a tie is left, filter `uncol` from the top down.  It
        tries v's allowed colors among the first p = max_used + 2 in order.
        Once child (v, c) fails, no solution below this node colors v with
        c, nor any vertex of v's orbit: when a later child is reached, the
        orbit joins forb[c] and this node's count planes until it returns.
        The children search under the cells v splits, and a child whose
        assignment fails adds one to v's weight.
        """
        nodes = self.nodes = self.nodes + 1
        if self.max_nodes is not None and nodes > self.max_nodes:
            raise _Timeout
        if nodes & 0xFF == 1 and self.deadline is not None:
            if time.monotonic() > self.deadline:
                raise _Timeout
        if remaining == 0:
            return True
        best = uncol
        for plane in reversed(count):
            if best & plane:
                best &= plane
        if best & (best - 1):
            for plane in reversed(self.weight):
                if best & plane:
                    best &= plane
                    if not best & (best - 1):
                        break
        bit = best & -best
        v = bit.bit_length() - 1
        rest = uncol ^ bit
        col, forb = self.col, self.forb
        inner = self._split(cells, v) if cells else cells
        pruned: list[tuple[int, int]] = []
        failed = -1  # a failed child's color whose orbit prune is owed
        # min spelled out: builtin calls are a measurable share of a node
        p = max_used + 2 if max_used + 2 < self.m else self.m
        for c in range(p):
            old = forb[c]
            if old & bit:
                continue
            if failed >= 0:
                orbit = self._orbit(v, cells, uncol) & ~bit
                if orbit:
                    was = forb[failed]
                    pruned.append((failed, was))
                    forb[failed] = was | orbit
                    count = _plus_one(count, orbit & ~was)
            child = self._assign(v, c, rest, count)
            if child is None:
                self.weight = _plus_one(self.weight, bit)
            elif self._dfs(remaining - 1, c if c > max_used else max_used, inner,
                           rest, child):
                return True
            col[c] ^= bit
            forb[c] = old
            if cells:
                failed = c
        for c, old in pruned:
            forb[c] = old
        return False

    def _colors(self) -> list[int]:
        colors = [-1] * self.nv
        for c, mask in enumerate(self.col):
            while mask:
                low = mask & -mask
                colors[low.bit_length() - 1] = c
                mask ^= low
        return colors

    def run(self, m: int, seed: list[int]) -> list[int] | None:
        """Decide m-class feasibility; returns a full coloring or None."""
        if m <= 0:
            return [] if self.nv == 0 else None
        if len(seed) > m:
            return None
        uncol, count = (1 << self.nv) - 1, self._reset(m)
        cells = self.cells
        for i, v in enumerate(seed):
            uncol ^= 1 << v
            count = self._assign(v, i, uncol, count)
            if count is None:
                return None
            if cells:
                cells = self._split(cells, v)
        found = self._dfs(self.nv - len(seed), len(seed) - 1, cells, uncol, count)
        return self._colors() if found else None

    def pair_clique(self) -> list[int]:
        """Vertices in id order, each paired with every one taken before.

        A 2-member constraint forces its members apart whatever the other
        constraints say, so the result needs pairwise distinct colors.  On
        the conflict hypergraph the pairs are the disjoint k-subsets, which
        makes this the greedy disjoint-member clique.  Empty when no
        constraint is a pair.
        """
        if not self.has_pairs:
            return []
        adj = self.adj
        chosen: list[int] = []
        common = (1 << self.nv) - 1
        for v in range(self.nv):
            if common >> v & 1:
                chosen.append(v)
                common &= adj[v]
        return chosen

    def first_fit(self) -> list[int]:
        """Greedy coloring in id order: each vertex takes the least color
        that completes no constraint, so it uses a second color iff some
        constraint exists.  It never wipes out or clashes: a vertex has at
        most as many forbidden colors as there are colored vertices."""
        uncol, count = (1 << self.nv) - 1, self._reset(self.nv)
        for v in range(self.nv):
            c = 0
            while self.forb[c] >> v & 1:
                c += 1
            uncol ^= 1 << v
            count = self._assign(v, c, uncol, count)
        return self._colors()


def _search(h: Hypergraph, budget: SolveBudget, t0: float) -> SolveResult:
    """The search both entry points share: greedy bracket, then iterative
    deepening, in one engine, on every instance.

    The deadline is budget.max_seconds past t0, the entry point's start,
    so set-up spends the same budget, though nothing interrupts it; a
    search that starts past it stops at its first node.  A bracket that
    the budget leaves open is TIMEOUT.

    The engine prunes orbits over `h.cells`, with each vertex's point mask,
    only when the builder granted cells, and reads its tables off
    `h.rule` where the rule gives them, so `h.edges` is never listed
    there.

    The clique seed is read off the pair constraints (`pair_clique`); its
    vertices take pairwise distinct colors in every solution whatever the
    other constraints are, so pinning them to colors 0..q-1 loses no
    solutions and its size is a true lower bound, as is 2 once an edge
    exists, which greedy shows by using a second color.  Every completed
    infeasible run raises the proven lower bound by one, and the result is
    EXACT whenever the bracket closes.  When the first run is already
    feasible, the run one class below is repeated as a cross-check: it
    raises SoundnessError if it completes feasible, and running out of
    budget there leaves the closed bracket EXACT.  The result carries the
    best coloring and no certificate, with millis left at 0 for the caller
    to fill in.
    """
    nv = len(h.vertices)
    points = tuple(v.bits for v in h.vertices) if h.cells or h.rule else ()
    tables = _rule_tables(h.rule, points) if h.rule else None
    # built before the empty case returns, so that it checks every edge
    engine = _Engine(nv, h.edges if tables is None else (), points, h.cells, tables)
    if nv == 0:
        return SolveResult(EXACT, 0, 0, 0, 0, colors=())

    engine.max_nodes = budget.max_nodes
    if budget.max_seconds is not None:
        engine.deadline = t0 + budget.max_seconds

    clique = engine.pair_clique()
    best = engine.first_fit()
    ub = max(best) + 1
    lb = max(min(2, ub), len(clique))

    initial_lb = lb
    # _dfs recurses once per branching vertex; Python-to-Python calls take
    # no C stack on CPython 3.11+, so only the interpreter's limit needs room
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + nv)
    try:
        for m in range(lb, ub):
            cols = engine.run(m, clique)
            if cols is not None:
                ub = m
                best = cols
                break
            lb = m + 1
        if ub == initial_lb:
            # lb was proved without search: cross-check that one class fewer fails
            if engine.run(ub - 1, clique) is not None:
                raise SoundnessError("lower bound reasoning was wrong")
    except _Timeout:
        if lb < ub:
            return SolveResult(TIMEOUT, lb, ub, engine.nodes, 0, colors=tuple(best))
    finally:
        sys.setrecursionlimit(limit)
    return SolveResult(EXACT, ub, ub, engine.nodes, 0, colors=tuple(best))


def _classes(n: int, base: tuple[KSubset, ...], cols: tuple[int, ...]) -> tuple:
    """The color classes of the coloring `cols` of `base`, in color order."""
    groups: list[list[KSubset]] = [[] for _ in range(max(cols) + 1)]
    for vid, c in enumerate(cols):
        groups[c].append(base[vid])
    return tuple(SetFamily(n, tuple(g)) for g in groups)


def min_partition_number(
    p: GroundParams, budget: SolveBudget = SolveBudget()
) -> SolveResult:
    """Fewest r-wise intersecting families partitioning all k-subsets of [n].

    Admissibility is not required: the quantity is well defined for every
    1 <= k <= n.  On EXACT the certificate is a PartitionCertificate that
    has been re-verified; on TIMEOUT the bracket and certificate are the
    best proven so far.  millis and the time budget both include building
    the conflict hypergraph.
    """
    t0 = time.monotonic()
    h = build_conflict_hypergraph(p)
    out = _search(h, budget, t0)
    millis = int((time.monotonic() - t0) * 1000)

    cert = PartitionCertificate(p, _classes(p.n, h.vertices, out.colors))
    rep = verify_partition_certificate(cert)
    if not rep.ok:
        raise SoundnessError(f"solver emitted an invalid partition: {rep.summary()}")
    if out.status == EXACT and cert.num_families != out.upper:
        raise SoundnessError(
            f"EXACT value {out.upper} but {cert.num_families} families"
        )
    return replace(out, millis=millis, certificate=cert)


def chromatic_number(
    h: Hypergraph, budget: SolveBudget = SolveBudget()
) -> SolveResult:
    """Fewest colors with no monochromatic hyperedge, proved by search.

    The clique lower bound is read off the pair edges (`_Engine.pair_clique`),
    which force two colors apart whatever the other edges are.  Raw colors
    are always attached and re-checked once.  A Kneser-type hypergraph from
    the kneser builders gets a certificate named by its descriptor, which
    alone re-checks them, so engine tables that miss constraints cannot
    pass.  A conflict hypergraph (build_conflict_hypergraph) gets no
    certificate; each color class is checked to be r-wise intersecting
    (verify.is_r_wise_intersecting), so no witness is listed.  A hand-built
    or edited hypergraph has no descriptor and no cells: it is searched
    without orbital pruning, gets no certificate, and its colors are
    checked against its edge list.  An edge with fewer than 2 members,
    a repeated member or an id outside the vertices raises InvalidParams.
    """
    t0 = time.monotonic()
    out = _search(h, budget, t0)
    millis = int((time.monotonic() - t0) * 1000)

    cert = None
    if h.rule is not None and h.rule.meet:
        # a conflict hypergraph has vertices, so at least one class
        what = "improper coloring"
        for fam in _classes(h.vertices[0].n, h.vertices, out.colors):
            rep = is_r_wise_intersecting(fam, h.rule.r)
            if not rep.ok:
                break
    elif h.params is None:
        rep, what = verify_coloring(h, out.colors), "improper coloring"
    else:
        cert = ColoringCertificate(
            ground_n=h.params.n,
            k=h.params.k,
            r=h.params.r,
            colors=out.colors,
            parts=h.parts.parts if h.parts is not None else None,
            stability=h.stability,
        )
        rep, what = verify_coloring_certificate(cert), "invalid certificate"
    if not rep.ok:
        raise SoundnessError(f"solver emitted an {what}: {rep.summary()}")
    return replace(out, millis=millis, certificate=cert)
