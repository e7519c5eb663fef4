"""Kneser hypergraph generators and the closed-form chromatic number.

Vertices of KG^r(k, n) are the k-subsets of [n] in colex order; edges are
the r-tuples of pairwise disjoint vertices.  Two induced variants restrict
the vertex set: the s-stable sub-hypergraph keeps only subsets whose
elements are pairwise at cyclic distance >= s, and the partition-constrained
sub-hypergraph keeps only subsets meeting each block of a given partition of
[n] in at most one element.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Hypergraph:
    """Vertices plus edges as sorted vertex-id tuples: the one instance
    record, for Kneser-type and conflict instances alike.

    Kneser edges are r ids of pairwise disjoint subsets; the edges of
    solve.build_conflict_hypergraph are minimal empty-intersection
    witnesses.  Callers set only vertices and edges, and the builders
    grant the rest: params / stability / parts name the Kneser-type
    variant for chromatic_number's certificate, and `cells` are point
    masks whose permutations keep the edges, for orbital pruning.  A
    hand-built or edited Hypergraph has neither: no certificate, no pruning.
    """

    vertices: tuple[KSubset, ...]
    edges: tuple[tuple[int, ...], ...]
    params: GroundParams | None = field(default=None, init=False)
    stability: int | None = field(default=None, init=False)
    parts: PartSpec | None = field(default=None, init=False)
    cells: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)

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


def _granted(vertices, edges, cells, params=None, stability=None, parts=None):
    """A builder's Hypergraph, with the fields that no caller can set."""
    h = Hypergraph(tuple(vertices), tuple(edges))
    for name, value in zip(("params", "stability", "parts", "cells"),
                           (params, stability, parts, cells)):
        object.__setattr__(h, name, value)
    return h


def _disjoint_tuples(masks: list[int], r: int) -> list[tuple[int, ...]]:
    """All r-tuples of pairwise disjoint masks, as increasing index tuples.

    Ordered backtracking over colex-increasing ids with a running union
    bitmask; output order is deterministic (lexicographic on id tuples).
    """
    out: list[tuple[int, ...]] = []
    nv = len(masks)
    tup: list[int] = []

    def extend(start: int, used: int) -> None:
        depth = len(tup)
        if depth == r:
            out.append(tuple(tup))
            if len(out) > MAX_EDGES:
                raise InstanceTooLarge(
                    f"edge count exceeds configured limit {MAX_EDGES}"
                )
            return
        for j in range(start, nv - (r - depth) + 1):
            mj = masks[j]
            if used & mj:
                continue
            tup.append(j)
            extend(j + 1, used | mj)
            tup.pop()

    try:
        if r >= 1 and nv >= r:
            extend(0, 0)
    finally:
        # extend reaches itself through its closure; without this the cycle
        # keeps every edge alive until the next full garbage collection
        del extend
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
    edges = _disjoint_tuples([v.bits for v in vertices], p.r)
    return _granted(vertices, edges, cells, p, stability, parts)


def build_kneser_hypergraph(p: GroundParams) -> Hypergraph:
    """The Kneser hypergraph KG^r(k, n).

    For n < r*k no r pairwise disjoint k-subsets exist; the builder then
    returns the vertex-only instance with a warning instead of erroring.
    Every permutation of [n] maps disjoint r-tuples to disjoint r-tuples,
    so [n] is its cell.
    """
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
