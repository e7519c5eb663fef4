"""Exact solvers for the partition number and hypergraph chromatic numbers.

Both are chromatic numbers of a Hypergraph, the partition number that of
the conflict hypergraph, whose edges are the empty-intersection witnesses;
the two entry points share one search core and differ only in their
certificates.  The engine below keeps two bitmasks per color, the vertices
holding it and the uncolored vertices it would complete a constraint on,
so an assignment touches one color's masks and undo restores them.  It
branches on the vertex with the fewest remaining candidate colors, breaks
color symmetry by only ever opening one fresh color, and proves optimality
by iterative deepening on the class count.  Closed-form values are never
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

import multiprocessing
import time
from collections import defaultdict
from dataclasses import dataclass, replace

from .constructions import ColoringCertificate, PartitionCertificate
from .errors import InstanceTooLarge, InvalidParams, SoundnessError
from .kneser import Hypergraph, _granted
from .setsys import MAX_EDGES, GroundParams, KSubset, SetFamily, enumerate_k_subsets
from .setsys import guard_vertices
from .verify import (
    verify_coloring,
    verify_coloring_certificate,
    verify_partition_certificate,
)

EXACT = "EXACT"
BOUNDS = "BOUNDS"
TIMEOUT = "TIMEOUT"


@dataclass(frozen=True, slots=True)
class SolveBudget:
    """Resource limits for one solve call.

    proof_cap bounds the vertex count for which optimality proofs are
    attempted; larger instances get honest brackets only.  workers > 1
    runs a portfolio of tie-breaking orders and keeps the first exact
    answer (and its nodes), which never changes the value, only the wall
    time; without an exact answer, nodes is the sum over all workers.
    """

    max_seconds: float | None = None
    max_nodes: int | None = None
    proof_cap: int = 40
    workers: int = 1


@dataclass(frozen=True)
class SolveResult:
    """The one record of a search: `_search` fills the bracket, nodes and
    colors, `_solve` adds millis and each entry point the certificate."""

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
        if self.status == EXACT:
            if self.lower != self.upper:
                raise SoundnessError(f"EXACT with bracket [{self.lower},{self.upper}]")
            if self.certificate is None and self.colors is None:
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
    class is r-wise intersecting.

    The edges come from a strict-shrink DFS.  Every inclusion-minimal
    empty-intersection subfamily, listed in vertex order, shrinks the
    running intersection at each member (a member that leaves the
    intersection unchanged could be dropped).  The DFS therefore only
    extends chains by strictly shrinking members, visits each minimal
    witness exactly once, and filters non-minimal dead ends afterwards.
    Chains die after at most k shrinks, so the depth is min(r, k+1).
    """
    guard_vertices(p.num_vertices, f"C({p.n},{p.k})")
    vertices = enumerate_k_subsets(p.n, p.k)
    masks = [v.bits for v in vertices]
    nv = len(masks)
    r = p.r
    out: list[tuple[int, ...]] = []

    def minimal(w: tuple[int, ...]) -> bool:
        for drop in w:
            inter = -1
            for idx in w:
                if idx != drop:
                    inter &= masks[idx]
            if inter == 0:
                return False
        return True

    chosen: list[int] = []

    def grow(start: int, inter: int) -> None:
        for j in range(start, nv):
            nxt = inter & masks[j]
            if nxt == inter:
                continue
            chosen.append(j)
            if nxt == 0:
                w = tuple(chosen)
                if minimal(w):
                    out.append(w)
                    if len(out) > MAX_EDGES:
                        raise InstanceTooLarge(
                            f"witness count exceeds limit {MAX_EDGES}"
                        )
            elif len(chosen) < r:
                grow(j + 1, nxt)
            chosen.pop()

    try:
        for i in range(nv):
            chosen.append(i)
            grow(i + 1, masks[i])
            chosen.pop()
    finally:
        # grow reaches itself through its closure; without this the cycle
        # keeps every witness alive until the next full garbage collection
        del grow
    return _granted(vertices, out, ((1 << p.n) - 1,))


class _Timeout(Exception):
    pass


class _Engine:
    """Backtracking m-class feasibility checker over fixed constraints.

    The state is one bitmask per color plus the mask `uncol` of uncolored
    vertices: col[c] holds the vertices colored c, and forb[c] the vertices
    on which c would complete a constraint because every other member of it
    is already c.  forb[c] may keep the bits of vertices colored since, so
    it is only ever read through `uncol`.  An uncolored vertex in forb[c]
    for all m colors is a wipeout.  Assigning v color c touches only
    col[c], forb[c] and `uncol`, so undo needs just (v, c, old forb[c]),
    which each search frame keeps in its locals.

    Propagation works per arity.  A pair ORs v's precomputed adjacency mask
    into forb[c].  A triple walks only the partners of v already colored c
    and ORs in their third members, so its cost scales with those partners
    rather than with v's incidence.  A larger constraint keeps its members
    other than v as a rest mask and forbids its one remaining member once
    all the others are c.  The wipeout check looks only at the vertices
    newly added to forb[c].

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
    ):
        self.nv = nv
        self.adj = [0] * nv
        self.partners = [0] * nv
        self.third: list[defaultdict[int, int]] = [
            defaultdict(int) for _ in range(nv)
        ]
        self.rests: list[list[int]] = [[] for _ in range(nv)]
        adj, partners, third, rests = self.adj, self.partners, self.third, self.rests
        # pairs and triples are unpacked by hand: once orbital pruning cut
        # the search, the generic loop over members took most of a
        # KG^3(11,3) solve (80 of 117 ms), and this form halves it
        for t in constraints:
            if len(t) == 2:
                a, b = t
                adj[a] |= 1 << b
                adj[b] |= 1 << a
            elif len(t) == 3:
                a, b, c = t
                ba, bb, bc = 1 << a, 1 << b, 1 << c
                partners[a] |= bb | bc
                partners[b] |= ba | bc
                partners[c] |= ba | bb
                ta, tb, tc = third[a], third[b], third[c]
                ta[b] |= bc
                ta[c] |= bb
                tb[a] |= bc
                tb[c] |= ba
                tc[a] |= bb
                tc[b] |= ba
            elif len(t) > 3:
                mask = 0
                for u in t:
                    mask |= 1 << u
                for v in t:
                    rests[v].append(mask & ~(1 << v))
            else:
                raise InvalidParams(f"constraint {t} has fewer than 2 members")
        self.points = points
        self.cells = [cell for cell in cells if cell & (cell - 1)]
        self.incidence: list[int] = []
        if self.cells:
            self.incidence = [0] * max(bits.bit_length() for bits in points)
            for v, bits in enumerate(points):
                while bits:
                    low = bits & -bits
                    self.incidence[low.bit_length() - 1] |= 1 << v
                    bits ^= low
        self.nodes = 0
        self.deadline: float | None = None
        self.max_nodes: int | None = None
        self.shift = 0

    def _reset(self, m: int) -> None:
        self.m = m
        self.col = [0] * m
        self.forb = [0] * m
        self.uncol = (1 << self.nv) - 1

    def _assign(self, v: int, c: int) -> bool:
        """Color v with c; False on a wipeout.  The caller undoes either way."""
        forb = self.forb
        old = forb[c]
        cc = self.col[c] | 1 << v
        self.col[c] = cc
        self.uncol &= ~(1 << v)
        f = old | self.adj[v]
        x = self.partners[v] & cc
        if x:
            third = self.third[v]
            while x:
                low = x & -x
                f |= third[low.bit_length() - 1]
                x ^= low
        for rest in self.rests[v]:
            left = rest & ~cc
            if left & (left - 1) == 0:
                f |= left
        forb[c] = f
        new = f & ~old & self.uncol
        if new:
            for d, fd in enumerate(forb):
                if d != c:
                    new &= fd
                    if not new:
                        return True
            return False
        return True

    def _select(self, p: int) -> tuple[int, int]:
        """The branching vertex and its allowed colors among the first p.

        The key is (allowed colors, (v - shift) mod nv).  Bit-sliced
        counters over forb[c] & uncol count each vertex's forbidden colors;
        filtering from the top plane down leaves the vertices with the most.
        """
        uncol = self.uncol
        prefix = self.forb[:p]
        planes = [0] * p.bit_length()
        for fc in prefix:
            carry = fc & uncol
            j = 0
            while carry:
                pj = planes[j]
                planes[j] = pj ^ carry
                carry &= pj
                j += 1
        best = uncol
        for plane in reversed(planes):
            if best & plane:
                best &= plane
        hi = best >> self.shift
        if hi:
            v = self.shift + (hi & -hi).bit_length() - 1
        else:
            v = (best & -best).bit_length() - 1
        cand = 0
        for c, fc in enumerate(prefix):
            if not fc >> v & 1:
                cand |= 1 << c
        return v, cand

    def _tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _Timeout
        if self.deadline is not None and self.nodes & 0xFF == 0:
            if time.monotonic() > self.deadline:
                raise _Timeout

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

    def _orbit(self, v: int, cells: list[int]) -> int:
        """The uncolored vertices that meet every cell in as many points as
        v does and contain v's points outside the cells.

        All vertices have the same size, so containing those points means
        agreeing with v off the cells: this is v's orbit under the cell
        group.  Bit-sliced counters over the cell's point incidence masks
        count each vertex's points in the cell.
        """
        bits = self.points[v]
        inc = self.incidence
        orbit = self.uncol
        off = bits
        for cell in cells:
            off &= ~cell
            want = (bits & cell).bit_count()
            planes: list[int] = []
            x = cell
            while x:
                low = x & -x
                carry = inc[low.bit_length() - 1] & orbit
                x ^= low
                j = 0
                while carry:
                    if j == len(planes):
                        planes.append(carry)
                        break
                    pj = planes[j]
                    planes[j] = pj ^ carry
                    carry &= pj
                    j += 1
            for j, plane in enumerate(planes):
                orbit &= plane if want >> j & 1 else ~plane
        while off:
            low = off & -off
            orbit &= inc[low.bit_length() - 1]
            off ^= low
        return orbit

    def _dfs(self, remaining: int, max_used: int, cells: list[int]) -> bool:
        """Search the uncolored vertices under the cell group of `cells`.

        Once child (v, c) fails, no solution below this node colors v with
        c, so none colors any vertex of v's orbit with c: the orbit joins
        forb[c] for the remaining children, and leaves it again when the
        node returns.  The children search under the cells v splits.
        """
        self._tick()
        if remaining == 0:
            return True
        v, cand = self._select(min(max_used + 2, self.m))
        bit = 1 << v
        col = self.col
        forb = self.forb
        inner = self._split(cells, v) if cells else cells
        pruned: list[tuple[int, int]] = []
        while cand:
            c = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            old = forb[c]
            if self._assign(v, c) and self._dfs(remaining - 1, max(max_used, c), inner):
                return True
            col[c] ^= bit
            forb[c] = old
            self.uncol |= bit
            if cand and cells:
                orbit = self._orbit(v, cells) & ~bit
                if orbit:
                    pruned.append((c, old))
                    forb[c] = old | orbit
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
        self._reset(m)
        cells = self.cells
        for i, v in enumerate(seed):
            if not self._assign(v, i):
                return None
            if cells:
                cells = self._split(cells, v)
        found = self._dfs(self.nv - len(seed), len(seed) - 1, cells)
        return self._colors() if found else None

    def pair_clique(self) -> list[int]:
        """Vertices in id order, each paired with every one taken before.

        A 2-member constraint forces its members apart whatever the other
        constraints say, so the result needs pairwise distinct colors.  On
        the conflict hypergraph the pairs are the disjoint k-subsets, which
        makes this the greedy disjoint-member clique.  Empty when no
        constraint is a pair.
        """
        adj = self.adj
        if not any(adj):
            return []
        chosen: list[int] = []
        common = (1 << self.nv) - 1
        for v in range(self.nv):
            if common >> v & 1:
                chosen.append(v)
                common &= adj[v]
        return chosen

    def first_fit(self) -> list[int]:
        """Greedy coloring in id order: each vertex takes the least color
        that completes no constraint.  Never wipes out, since nv colors
        leave one unused while any vertex is uncolored."""
        self._reset(self.nv)
        for v in range(self.nv):
            c = 0
            while self.forb[c] >> v & 1:
                c += 1
            self._assign(v, c)
        return self._colors()


def _search(
    nv: int,
    constraints: tuple[tuple[int, ...], ...],
    budget: SolveBudget,
    shift: int = 0,
    points: tuple[int, ...] = (),
    cells: tuple[int, ...] = (),
) -> SolveResult:
    """Shared solve loop: greedy bracket, then iterative deepening.

    `points` holds each vertex's point mask and `cells` the starting cells
    of the engine's orbital pruning; callers pass them only for instances
    whose constraints every permutation inside the cells keeps.

    The clique seed is read off the pair constraints (`pair_clique`); its
    vertices take pairwise distinct colors in every solution whatever the
    other constraints are, so pinning them to colors 0..q-1 loses no
    solutions and its size is a true lower bound.  Every completed
    infeasible run raises the proven lower bound by one; an exact answer
    additionally requires the run one class below the answer to have
    terminated infeasible.  The result carries the best coloring and no
    certificate, with millis left at 0 for the caller to fill in.
    """
    if nv == 0:
        return SolveResult(EXACT, 0, 0, 0, 0, colors=())

    engine = _Engine(nv, constraints, points, cells)
    engine.shift = shift % nv
    engine.max_nodes = budget.max_nodes
    if budget.max_seconds is not None:
        engine.deadline = time.monotonic() + budget.max_seconds

    clique = engine.pair_clique()
    best = engine.first_fit()
    ub = max(best) + 1
    lb = max(2 if constraints else 1, len(clique))

    if nv > budget.proof_cap:
        status = EXACT if lb == ub else BOUNDS
        return SolveResult(status, lb, ub, 0, 0, colors=tuple(best))

    initial_lb = lb
    try:
        for m in range(lb, ub):
            cols = engine.run(m, clique)
            if cols is not None:
                ub = m
                best = cols
                break
            lb = m + 1
        if ub == initial_lb:
            # first attempt already feasible: prove one class fewer fails
            if engine.run(ub - 1, clique) is not None:
                raise SoundnessError("lower bound reasoning was wrong")
    except _Timeout:
        return SolveResult(TIMEOUT, lb, ub, engine.nodes, 0, colors=tuple(best))
    return SolveResult(EXACT, ub, ub, engine.nodes, 0, colors=tuple(best))


def _classes_to_partition(
    p: GroundParams, base: tuple[KSubset, ...], cols: tuple[int, ...]
) -> PartitionCertificate:
    m = max(cols) + 1
    groups: list[list[KSubset]] = [[] for _ in range(m)]
    for vid, c in enumerate(cols):
        groups[c].append(base[vid])
    families = tuple(SetFamily(p.n, tuple(g)) for g in groups)
    return PartitionCertificate(p, families)


def _portfolio(args) -> SolveResult:
    return _search(*args)


def _run_search(
    nv: int,
    constraints: tuple[tuple[int, ...], ...],
    budget: SolveBudget,
    points: tuple[int, ...] = (),
    cells: tuple[int, ...] = (),
) -> SolveResult:
    if budget.workers <= 1 or nv == 0:
        return _search(nv, constraints, budget, 0, points, cells)
    shifts = [w * nv // budget.workers for w in range(budget.workers)]
    tasks = [(nv, constraints, budget, s, points, cells) for s in shifts]
    outcomes: list[SolveResult] = []
    with multiprocessing.Pool(budget.workers) as pool:
        for out in pool.imap_unordered(_portfolio, tasks):
            if out.status == EXACT:
                pool.terminate()
                return out
            outcomes.append(out)
    pick = min(outcomes, key=lambda o: o.upper)
    lower = max(o.lower for o in outcomes)
    return replace(pick, lower=lower, nodes=sum(o.nodes for o in outcomes))


def _solve(h: Hypergraph, budget: SolveBudget, t0: float) -> SolveResult:
    """The search both entry points share, with millis counted from t0."""
    points = tuple(v.bits for v in h.vertices) if h.cells else ()
    out = _run_search(len(h.vertices), h.edges, budget, points, h.cells)
    return replace(out, millis=int((time.monotonic() - t0) * 1000))


def min_partition_number(
    p: GroundParams, budget: SolveBudget = SolveBudget()
) -> SolveResult:
    """Fewest r-wise intersecting families partitioning all k-subsets of [n].

    Admissibility is not required: the quantity is well defined for every
    1 <= k <= n.  On EXACT the certificate is a PartitionCertificate that
    has been re-verified; on TIMEOUT the bracket and certificate are the
    best proven so far.  millis includes building the conflict hypergraph.
    """
    t0 = time.monotonic()
    h = build_conflict_hypergraph(p)
    out = _solve(h, budget, t0)

    cert = _classes_to_partition(p, h.vertices, out.colors)
    rep = verify_partition_certificate(cert)
    if not rep.ok:
        raise SoundnessError(f"solver emitted an invalid partition: {rep.summary()}")
    if out.status == EXACT and cert.num_families != out.upper:
        raise SoundnessError(
            f"EXACT value {out.upper} but {cert.num_families} families"
        )
    return replace(out, certificate=cert)


def chromatic_number(
    h: Hypergraph, budget: SolveBudget = SolveBudget()
) -> SolveResult:
    """Fewest colors with no monochromatic hyperedge, proved by search.

    The clique lower bound is read off the pair edges (`_Engine.pair_clique`),
    which force two colors apart whatever the other edges are.  Raw colors
    are always attached.  A Kneser-type hypergraph from the kneser builders
    also gets a certificate named by its descriptor, re-verified from the
    descriptor alone, so an edge list that misses edges cannot pass.  A
    hand-built or edited hypergraph has no descriptor and no cells: it is
    searched without orbital pruning and gets no certificate.
    """
    out = _solve(h, budget, time.monotonic())

    rep = verify_coloring(h, out.colors)
    if not rep.ok:
        raise SoundnessError(f"solver emitted an improper coloring: {rep.summary()}")
    cert = None
    if h.params is not None:
        cert = ColoringCertificate(
            ground_n=h.params.n,
            k=h.params.k,
            r=h.params.r,
            colors=out.colors,
            parts=h.parts.parts if h.parts is not None else None,
            stability=h.stability,
        )
        rep = verify_coloring_certificate(cert)
        if not rep.ok:
            raise SoundnessError(
                f"solver emitted an invalid certificate: {rep.summary()}"
            )
    return replace(out, certificate=cert)
