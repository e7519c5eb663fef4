"""Kneser hypergraph generators and the closed-form chromatic number.

Vertices of KG^r(k, n) are the k-subsets of [n] in colex order; edges are
the r-tuples of pairwise disjoint vertices.  Two induced variants restrict
the vertex set: the s-stable sub-hypergraph keeps only subsets whose
elements are pairwise at cyclic distance >= s, and the partition-constrained
sub-hypergraph keeps only subsets meeting each block of a given partition of
[n] in at most one element.  A builder's Hypergraph lists its edges only
when they are first read, by `_disjoint_tuples` or, for the conflict
hypergraph of solve, by the witness lister `_minimal_witnesses`.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from math import factorial

from .errors import InstanceTooLarge, InvalidParams, InvalidPartSpec
from .setsys import (
    MAX_EDGES,
    GroundParams,
    KSubset,
    enumerate_k_subsets,
    guard_vertices,
    is_s_stable,
)


@dataclass(frozen=True, slots=True)
class PartSpec:
    """Ordered blocks C_1..C_t partitioning [n], each of size <= r-1."""

    parts: tuple[tuple[int, ...], ...]

    def validate(self, n: int, r: int) -> None:
        seen: set[int] = set()
        for part in self.parts:
            if not part:
                raise InvalidPartSpec("empty block")
            if len(part) > r - 1:
                raise InvalidPartSpec(
                    f"block {part} has {len(part)} elements, limit is r-1 = {r - 1}"
                )
            for e in part:
                if not (1 <= e <= n):
                    raise InvalidPartSpec(f"element {e} outside [1, {n}]")
                if e in seen:
                    raise InvalidPartSpec(f"element {e} appears in two blocks")
                seen.add(e)
        if len(seen) != n:
            missing = sorted(set(range(1, n + 1)) - seen)
            raise InvalidPartSpec(f"blocks do not cover [n]; missing {missing}")

    def masks(self) -> tuple[int, ...]:
        out = []
        for part in self.parts:
            m = 0
            for e in part:
                m |= 1 << (e - 1)
            out.append(m)
        return tuple(out)


@dataclass(frozen=True, slots=True)
class _Rule:
    """Which vertex sets are edges, read off the vertices' point masks: r
    pairwise disjoint vertices (the Kneser-type rule), or, with `meet`, an
    inclusion-minimal family of at most r vertices with empty intersection
    (the conflict rule)."""

    r: int
    meet: bool = False

    def edges(self, masks: list[int]) -> list[tuple[int, ...]]:
        if self.meet:
            return _minimal_witnesses(masks, self.r)
        return _disjoint_tuples(masks, self.r)


@dataclass(frozen=True, init=False)
class Hypergraph:
    """The k-subsets of a builder's instance and the rule that says which
    of their sets are edges: the one instance record, for Kneser-type and
    conflict instances alike.

    Kneser edges are r ids of pairwise disjoint subsets; the edges of
    solve.build_conflict_hypergraph are minimal empty-intersection
    witnesses.  Only the builders make one, so every field is theirs:
    params / stability / parts name the instance for its certificate (a
    conflict hypergraph by its n, k, r, a Kneser-type one by its variant
    too), `cells` are point masks whose permutations keep the edges, for
    orbital pruning, and `rule` says which vertex sets are edges.  There is
    no public constructor: `Hypergraph(...)` and `dataclasses.replace` raise
    TypeError.  `edges` lists the edges off the rule on its first read, as
    sorted vertex-id tuples, and keeps them; the search engine reads its
    tables off the rule, so a search never lists them.
    """

    vertices: tuple[KSubset, ...]
    params: GroundParams
    stability: int | None
    parts: PartSpec | None
    cells: tuple[int, ...] = field(repr=False, compare=False)
    rule: _Rule = field(repr=False)

    @cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.rule.edges([v.bits for v in self.vertices]))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def witnesses(self) -> tuple[tuple[int, ...], ...]:
        """The edges; exists only for perfbench/tracing.py, which counts them."""
        return self.edges


def _granted(vertices, cells, params, rule, stability=None, parts=None):
    """A builder's Hypergraph: the record no caller can make."""
    h = object.__new__(Hypergraph)
    for name, value in (("vertices", tuple(vertices)), ("params", params),
                        ("stability", stability), ("parts", parts),
                        ("cells", cells), ("rule", rule)):
        object.__setattr__(h, name, value)
    return h


def _incidence(masks: Sequence[int]) -> list[int]:
    """Per point, the bitmask of the ids whose masks hold it."""
    inc = [0] * max((m.bit_length() for m in masks), default=0)
    for i, m in enumerate(masks):
        while m:
            low = m & -m
            inc[low.bit_length() - 1] |= 1 << i
            m ^= low
    return inc


class _Meets(dict):
    """Point mask -> bitmask of the ids whose masks meet it, read off
    per-point incidence on first lookup."""

    def __init__(self, masks: Sequence[int]) -> None:
        super().__init__()
        self.inc = _incidence(masks)

    def __missing__(self, pm: int) -> int:
        ids = 0
        for pt, held in enumerate(self.inc):
            if pm >> pt & 1:
                ids |= held
        self[pm] = ids
        return ids


class _Apart(_Meets):
    """Point mask -> bitmask of the ids whose masks miss it: the complement
    of what `_Meets` gives, memoised the same way."""

    def __init__(self, masks) -> None:
        super().__init__(masks)
        self.full = (1 << len(masks)) - 1

    def __missing__(self, pm: int) -> int:
        ids = self[pm] = self.full & ~super().__missing__(pm)
        return ids


def _disjoint_tuples(masks: list[int], r: int) -> list[tuple[int, ...]]:
    """All r-tuples of pairwise disjoint masks, as increasing index tuples.

    Ordered backtracking over candidate masks, which are bitmasks of ids:
    later[i] holds the ids above i whose masks miss mask i.  A chain
    carries the AND of its members' later masks, the ids that may extend
    it, and visits only their set bits in increasing order, so no
    disjointness test fails and the output is lexicographic on id tuples.
    The last member of a tuple is every bit of its chain's candidates.
    """
    out: list[tuple[int, ...]] = []
    nv = len(masks)
    if r < 1 or nv < r:
        return out
    meets = _Meets(masks)
    later = [((1 << nv) - (2 << i)) & ~meets[m] for i, m in enumerate(masks)]

    def extend(prefix: tuple[int, ...], cand: int, need: int) -> None:
        if need == 1:
            while cand:
                low = cand & -cand
                out.append(prefix + (low.bit_length() - 1,))
                cand ^= low
            if len(out) > MAX_EDGES:
                raise InstanceTooLarge(
                    f"edge count exceeds configured limit {MAX_EDGES}"
                )
            return
        while cand:
            low = cand & -cand
            cand ^= low
            j = low.bit_length() - 1
            nxt = cand & later[j]
            if nxt.bit_count() >= need - 1:
                extend(prefix + (j,), nxt, need - 1)

    try:
        extend((), (1 << nv) - 1, r)
    finally:
        # extend reaches itself through its closure; without this the cycle
        # keeps every edge alive until the next full garbage collection
        del extend
    return out


def _minimal_witnesses(masks: list[int], r: int) -> list[tuple[int, ...]]:
    """Every inclusion-minimal family of at most r masks with empty
    intersection, as increasing index tuples in lexicographic order.

    A strict-shrink DFS.  Every inclusion-minimal empty-intersection
    family, listed in index order, shrinks the running intersection at each
    member (a member that leaves the intersection unchanged could be
    dropped).  A chain also carries its leave-one-out intersections `loos`,
    the intersection of the chain without each member: a member that
    misses one of them would leave that member droppable from every
    witness grown from it.  So a chain extends only by the later members
    that strictly shrink its intersection and meet each of its loos, read
    as bitmasks of ids from per-point incidence.  Every chain the DFS grows
    is minimal so far, and each one whose intersection reaches empty is a
    minimal witness, visited once.  Chains die after at most k shrinks for
    masks of k points, so the depth is min(r, k+1).
    """
    union = 0
    for m in masks:
        union |= m
    meets = _Meets(masks)
    misses = _Meets([union & ~m for m in masks])  # ids missing a point
    out: list[tuple[int, ...]] = []

    def grow(chain: tuple[int, ...], cand: int, inter: int, loos: list[int]) -> None:
        while cand:
            low = cand & -cand
            cand ^= low
            j = low.bit_length() - 1
            mj = masks[j]
            nxt = inter & mj
            if nxt == 0:
                out.append(chain + (j,))
                if len(out) > MAX_EDGES:
                    raise InstanceTooLarge(
                        f"witness count exceeds limit {MAX_EDGES}"
                    )
            elif len(chain) + 1 < r:
                later = cand & misses[nxt] & meets[inter]
                for lo in loos:
                    if not later:
                        break
                    later &= meets[lo & mj]
                if later:
                    grow(chain + (j,), later, nxt, [lo & mj for lo in loos] + [inter])

    try:
        grow((), (1 << len(masks)) - 1, -1, [])
    finally:
        # grow reaches itself through its closure; without this the cycle
        # keeps every witness alive until the next full garbage collection
        del grow
    return out


def _induced_hypergraph(
    p: GroundParams,
    keep=None,
    stability: int | None = None,
    parts: PartSpec | None = None,
    cells: tuple[int, ...] = (),
) -> Hypergraph:
    """KG^r(k, n) induced on the colex k-subsets passing keep (all if None),
    with `cells` recorded as its point symmetry."""
    guard_vertices(p.num_vertices, f"C({p.n},{p.k})")
    vertices = enumerate_k_subsets(p.n, p.k)
    if keep is not None:
        vertices = [v for v in vertices if keep(v)]
    return _granted(vertices, cells, p, _Rule(p.r), stability, parts)


def _edge_count(p: GroundParams) -> int:
    """Edges of KG^r(k, n): ordered choices of r disjoint k-subsets,
    n! / (k!^r (n - rk)!), over the r! orders of each."""
    if p.n < p.r * p.k:
        return 0
    return factorial(p.n) // (
        factorial(p.k) ** p.r * factorial(p.r) * factorial(p.n - p.r * p.k))


def build_kneser_hypergraph(p: GroundParams) -> Hypergraph:
    """The Kneser hypergraph KG^r(k, n).

    For n < r*k no r pairwise disjoint k-subsets exist; the builder then
    returns the vertex-only instance with a warning instead of erroring.
    Every permutation of [n] maps disjoint r-tuples to disjoint r-tuples,
    so [n] is its cell.  At r >= 4 an instance of more than MAX_EDGES
    edges is refused from the closed-form count, before a vertex is
    enumerated: the search lists no edge, but its walk over chains of
    disjoint class members grows with them, in greedy first of all.
    """
    if p.r >= 4 and (count := _edge_count(p)) > MAX_EDGES:
        raise InstanceTooLarge(
            f"KG^{p.r}({p.n},{p.k}) has {count} edges, over the limit {MAX_EDGES}"
        )
    h = _induced_hypergraph(p, cells=((1 << p.n) - 1,))
    if p.n < p.r * p.k:
        warnings.warn(
            f"n={p.n} < r*k={p.r * p.k}: Kneser hypergraph has no edges",
            stacklevel=2,
        )
    return h


def build_stable_subhypergraph(p: GroundParams, s: int) -> Hypergraph:
    """Induced sub-hypergraph of KG^r(k, n) on the s-stable vertices.

    Vertex order is inherited from colex; edge ids are remapped to the
    surviving vertex list.  It gets no cells: a transposition of [n] can
    break s-stability, and its symmetry is only dihedral.
    """
    if s < 1:
        raise InvalidParams(f"need s >= 1, got s={s}")
    return _induced_hypergraph(p, lambda v: is_s_stable(v, s), stability=s)


def build_partition_constrained(p: GroundParams, spec: PartSpec) -> Hypergraph:
    """Induced sub-hypergraph on vertices meeting each block in <= 1 element.

    A permutation inside the blocks keeps every vertex's block counts, so
    the blocks are its cells.
    """
    spec.validate(p.n, p.r)
    part_masks = spec.masks()
    return _induced_hypergraph(
        p,
        lambda v: all((v.bits & pm).bit_count() <= 1 for pm in part_masks),
        parts=spec,
        cells=part_masks,
    )


def formula_chi(p: GroundParams) -> int:
    """Closed-form chromatic number ceil((n - r(k-1)) / (r-1)) for n >= rk."""
    if p.n < p.r * p.k:
        raise InvalidParams(
            f"formula requires n >= r*k, got n={p.n}, r*k={p.r * p.k}"
        )
    num = p.n - p.r * (p.k - 1)
    den = p.r - 1
    return -(-num // den)
