"""Exact solvers for the partition number and hypergraph chromatic numbers.

Both are chromatic numbers of a Hypergraph, the partition number that of
the conflict hypergraph, whose edges are the empty-intersection witnesses.
Both entry points run `_solve`: one search, then the certificate the
instance record names (a partition, a coloring, or none for a hand-built
record).  The engine below keeps two bitmasks per color, the vertices
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
optimality by iterative deepening on the class count.  What an
assignment forbids is read off the vertices' point masks and the class
it joins, or, for a hand-built instance, off its constraints; forb[c] is
a function of col[c] alone, which only grows along a search path, so no
propagation state needs an undo of its own.  Closed-form values are never
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
from dataclasses import dataclass, replace

from .constructions import ColoringCertificate, PartitionCertificate
from .errors import InvalidParams, SoundnessError
from .kneser import Hypergraph, _Apart, _granted, _incidence, _Rule
from .setsys import GroundParams, KSubset, SetFamily, enumerate_k_subsets
from .setsys import guard_vertices
from .verify import (
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
    (> 0) and max_nodes (>= 1), like the CLI's flags: any other limit, NaN
    included, is InvalidParams.  With neither set it runs until the bracket
    closes.  proof_cap and workers limit nothing: they stay only because
    the benchmark's design.json passes them, and go with the next change to
    the benchmark.  workers accepts only 1.
    """

    max_seconds: float | None = None
    max_nodes: int | None = None
    proof_cap: int | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers != 1:
            raise InvalidParams(f"workers must be 1, got {self.workers}")
        if self.max_seconds is not None and not self.max_seconds > 0:
            raise InvalidParams(f"max_seconds must be > 0, got {self.max_seconds}")
        if self.max_nodes is not None and not self.max_nodes >= 1:
            raise InvalidParams(f"max_nodes must be >= 1, got {self.max_nodes}")


@dataclass(frozen=True)
class SolveResult:
    """The one record of a search: `_search` fills the bracket, nodes and
    colors, and `_solve` adds millis and the certificate."""

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
    and p as its params.  A coloring has no monochromatic edge iff each
    class is r-wise intersecting.  The edges are listed on their first
    read, by the strict-shrink DFS of kneser._minimal_witnesses.
    """
    guard_vertices(p.num_vertices, f"C({p.n},{p.k})")
    vertices = enumerate_k_subsets(p.n, p.k)
    return _granted(vertices, None, ((1 << p.n) - 1,), p, rule=_Rule(p.r, meet=True))


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
    """The engine's tables (adj, table, step, depth) for a constraint
    list, in one pass: each pair in adj, and each larger constraint R
    filed as its rest R - v under every member v, for the "scan" step;
    see _Engine, "Propagation"."""
    if not hasattr(constraints, "__iter__"):
        raise InvalidParams(f"edges {constraints!r} are not a list of constraints")
    bits = [1 << i for i in range(nv)]
    adj = [0] * nv
    rests: list[list[int]] = [[] for _ in range(nv)]
    try:
        for t in constraints:
            if len(t) < 2:
                raise InvalidParams(f"constraint {t} has fewer than 2 members")
            mask = 0
            for u in t:
                mask |= bits[u]
            # bits[-1] would wrap to the last vertex
            if mask.bit_count() != len(t) or min(t) < 0:
                raise ValueError
            for u in t:
                if len(t) == 2:
                    adj[u] |= mask ^ bits[u]
                else:
                    rests[u].append(mask ^ bits[u])
    except (IndexError, TypeError, ValueError) as exc:
        raise InvalidParams(
            f"constraint {t} needs distinct ids of the {nv} vertices"
        ) from exc
    return adj, rests, "scan", 0


def _rule_tables(rule, points: tuple[int, ...]) -> tuple:
    """The engine's tables for a builder's rule, read off the point masks
    (see _Engine, "Propagation"): adj[v] = D(v) where pairs are edges, and
    a step of depth r - 2, or a - 2 for the meet rule, where a minimal
    witness has at most a = min(r, k + 1) members.  A disjoint rule with
    fewer points in all than r disjoint vertices need gets no step."""
    memo = _Apart(points)
    k = points[0].bit_count() if points else 0
    if not rule.meet and rule.r * k > sum(map(bool, memo.inc)):
        return [0] * len(points), None, None, 0
    apart = [memo[x] for x in points]
    arity = min(rule.r, k + 1) if rule.meet else rule.r
    if arity < 3:
        return apart, None, None, 0
    if rule.meet:
        return apart, memo, "meet", arity - 2
    return [0] * len(points), apart, "apart", arity - 2


def _meet_closure(apart, pv: int, points, x: int, depth: int) -> int:
    """The OR of D(y) over every y that is the AND of at most `depth` of
    the meets pv & points[u], u in x, grown level by level from the
    distinct meets; every y is a subset of pv."""
    meets = set()
    while x:
        low = x & -x
        meets.add(pv & points[low.bit_length() - 1])
        x ^= low
    seen, level = set(meets), meets
    for _ in range(depth - 1):
        level = {y & z for y in level for z in meets} - seen
        seen |= level
    f = 0
    for y in seen:
        f |= apart[y]
    return f


def _chains(apart: list[int], cand: int, need: int, acc: int, f: int,
            deadline: float | None) -> int:
    """f ORed with acc & the AND of apart[u] over every increasing chain of
    `need` pairwise disjoint ids u of cand.  A chain whose candidates are
    fewer than the members it still needs, or whose AND adds nothing to
    f, is not grown; its last member is any of them, so the walk ends in
    one OR over cand.  Past the deadline, read before a chain is grown, it
    raises _Timeout: one walk at large r can take seconds."""
    if need == 1:
        near = 0
        while cand:
            low = cand & -cand
            near |= apart[low.bit_length() - 1]
            cand ^= low
        return f | acc & near
    while cand:
        low = cand & -cand
        cand ^= low
        d = apart[low.bit_length() - 1]
        y = acc & d
        if y & ~f:
            nxt = cand & d
            if nxt.bit_count() >= need - 1:
                if deadline is not None and time.monotonic() > deadline:
                    raise _Timeout
                f = _chains(apart, nxt, need - 1, y, f, deadline)
    return f


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

    Propagation.  A builder's instance gets its tables from `_rule_tables`,
    read off its rule and the point masks, and a hand-built or edited one
    from `_edge_tables`; both forbid the same vertices, so the search tree
    is the same.  A pair ORs v's adjacency mask into forb[c].  Larger
    constraints go through `step`, fixed per engine.  "scan" walks v's
    rests R - v and forbids the one member a rest has left outside c.  The
    rules walk only the members u of class c, which is what makes them
    cheap.  With D(x) the vertices disjoint from point mask x, "apart" (r
    pairwise disjoint vertices) ORs in D(v) & D(u_1) & ... for every
    increasing chain of depth = r - 2 pairwise disjoint members u_i in
    D(v).  "meet" (minimal empty-intersection witnesses of at most a
    members) forbids each w with ∩S ∩ v ∩ w empty for some set S of at most
    depth = a - 2 members of the class: such a family holds a witness
    through w, and one that misses v is already in forb[c].  As ∩S ∩ v is
    the AND of the meets v & u over the members u of S, the step ORs in
    D(y) for every AND y of at most depth distinct meets of v with the
    other members, each of which meets v, or v would be in forb[c].  No
    step keeps state of its own: forb[c] is a function of col[c], which
    only grows along a search path, so an assignment only ORs into it and
    undo restores one mask.  The wipeout check looks only at the vertices
    newly added to forb[c], and reads their counts off the planes.

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
        tables: tuple,
        points: tuple[int, ...] = (),
        cells: tuple[int, ...] = (),
    ):
        self.nv = nv
        self.adj, self.table, self.step, self.depth = tables
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
        step = self.step
        if step:
            if step == "meet":
                # the other members of c: each meets v, or v would be in forb[c]
                x = (cc ^ 1 << v) & ~self.adj[v]
                if x:
                    f |= _meet_closure(self.table, self.points[v], self.points, x,
                                       self.depth)
            elif step == "apart":
                apart = self.table
                x = cc & apart[v]
                if x:
                    f = _chains(apart, x, self.depth, apart[v], f, self.deadline)
            else:
                out = ~cc
                for rest in self.table[v]:
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
        most as many forbidden colors as there are colored vertices.  Past
        the deadline, read before every 256th vertex but the first, it
        raises _Timeout."""
        uncol, count = (1 << self.nv) - 1, self._reset(self.nv)
        for v in range(self.nv):
            if v & 0xFF == 0 and v and self.deadline is not None:
                if time.monotonic() > self.deadline:
                    raise _Timeout
            c = 0
            while self.forb[c] >> v & 1:
                c += 1
            uncol ^= 1 << v
            count = self._assign(v, c, uncol, count)
        return self._colors()


def _search(h: Hypergraph, budget: SolveBudget, t0: float) -> SolveResult:
    """The search of `_solve`: greedy bracket, then iterative deepening, in
    one engine, on every instance.

    The deadline is budget.max_seconds past t0, the entry point's start,
    so set-up spends the same budget.  Greedy reads it every 256 vertices;
    past it, the bracket is the one known without search, the clique (at
    least 1) below and the vertex count above.  A search that starts past
    it stops at its first node.  A bracket the budget leaves open is
    TIMEOUT.

    The engine prunes orbits over `h.cells`, with each vertex's point mask,
    only when the builder granted cells, and reads its tables off `h.rule`
    when a builder granted one, so a builder's `h.edges` is never listed.

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
    best coloring; `_solve` adds millis and the certificate.
    """
    nv = len(h.vertices)
    points = tuple(v.bits for v in h.vertices) if h.cells or h.rule else ()
    # built before the empty case returns, so that it checks every edge
    tables = _rule_tables(h.rule, points) if h.rule else _edge_tables(nv, h.edges)
    engine = _Engine(nv, tables, points, h.cells)
    if nv == 0:
        return SolveResult(EXACT, 0, 0, 0, 0, colors=())

    engine.max_nodes = budget.max_nodes
    if budget.max_seconds is not None:
        engine.deadline = t0 + budget.max_seconds

    clique = engine.pair_clique()
    # the bracket known without search, each vertex in its own class above
    lb, ub, best = max(1, len(clique)), nv, list(range(nv))
    # _dfs recurses once per branching vertex; Python-to-Python calls take
    # no C stack on CPython 3.11+, so only the interpreter's limit needs room
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + nv)
    try:
        best = engine.first_fit()
        ub = max(best) + 1
        lb = initial_lb = max(min(2, ub), len(clique))
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


def _solve(h: Hypergraph, budget: SolveBudget, t0: float) -> SolveResult:
    """`_search` from the entry point's start t0, with millis and the
    certificate h's record names, re-checked by code sharing nothing with
    the search: a PartitionCertificate for a conflict hypergraph, a
    ColoringCertificate for a Kneser-type one, none for a hand-built or
    edited one, whose colors are checked against its edges.  A failed
    check, or an EXACT value other than the classes used, is SoundnessError."""
    out = _search(h, budget, t0)
    millis = int((time.monotonic() - t0) * 1000)

    p, cert = h.params, None
    if p is None:
        rep, what = verify_coloring(h, out.colors), "improper coloring"
    elif h.rule.meet:
        fams: list[list[KSubset]] = [[] for _ in range(max(out.colors) + 1)]
        for v, c in zip(h.vertices, out.colors):
            fams[c].append(v)
        cert = PartitionCertificate(p, tuple(SetFamily(p.n, tuple(f)) for f in fams))
        rep, what = verify_partition_certificate(cert), "invalid partition"
    else:
        parts = h.parts.parts if h.parts is not None else None
        cert = ColoringCertificate(ground_n=p.n, k=p.k, r=p.r, colors=out.colors,
                                   parts=parts, stability=h.stability)
        rep, what = verify_coloring_certificate(cert), "invalid certificate"
    if not rep.ok:
        raise SoundnessError(f"solver emitted an {what}: {rep.summary()}")
    used = max(out.colors, default=-1) + 1
    if out.status == EXACT and used != out.upper:
        raise SoundnessError(f"EXACT value {out.upper} but {used} classes")
    return replace(out, millis=millis, certificate=cert)


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
    return _solve(build_conflict_hypergraph(p), budget, t0)


def chromatic_number(
    h: Hypergraph, budget: SolveBudget = SolveBudget()
) -> SolveResult:
    """Fewest colors with no monochromatic hyperedge, proved by search.

    The clique lower bound is read off the pair edges (`_Engine.pair_clique`),
    which force two colors apart whatever the other edges are.  The
    certificate and its check are `_solve`'s: a builder's hypergraph is
    re-checked from its descriptor alone, so engine tables that miss
    constraints cannot pass, and a conflict hypergraph gets the
    PartitionCertificate of min_partition_number.  A hand-built or edited
    hypergraph is searched without orbital pruning and gets no
    certificate.  An edge with fewer than 2 members, a repeated member or
    an id outside the vertices raises InvalidParams.
    """
    return _solve(h, budget, time.monotonic())
