"""Optimal partition construction and the block blow-up lift.

Two explicit constructions.  build_tight_partition splits all k-subsets of
[n] into the minimum possible number of r-wise intersecting families: one
star per low minimum element, then a single tail family of every k-subset
packed into the last s points.  blow_up widens each ground element into a
block of r-1 consecutive points on a cycle of length (r-1)n and pushes a
partition forward to a proper coloring of the partition-constrained
hypergraph over that cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

from .errors import (
    InadmissibleParams,
    InvalidCertificate,
    InvalidParams,
    MalformedCertificate,
    SoundnessError,
)
# blow_up lists the constrained vertices itself; build_partition_constrained
# stays bound here for tools that wrap this module's names from outside
from .kneser import PartSpec, build_partition_constrained  # noqa: F401
from .setsys import GroundParams, KSubset, SetFamily, enumerate_k_subsets
from .setsys import guard_subsets, guard_vertices, is_s_stable
from .verify import Report, Violation, verify_partition_certificate

FORMAT_TAG = "kneser-lab/1"


def tail_size(k: int, r: int) -> int:
    """floor((r*k - 1) / (r - 1)): ground points consumed by the tail family."""
    if k < 1 or r < 2:
        raise InvalidParams(f"need k >= 1 and r >= 2, got k={k}, r={r}")
    return (r * k - 1) // (r - 1)


def tight_bound(p: GroundParams) -> int:
    """Minimum number of r-wise intersecting families partitioning the k-subsets.

    Evaluates ceil(n - r(k-1)/(r-1)) as ceil(((r-1)n - r(k-1)) / (r-1)) in
    integer arithmetic.  Equal to n - tail_size(k, r) + 1.
    """
    if not p.admissible:
        raise InadmissibleParams(
            f"inadmissible parameters: r*k={p.r * p.k} exceeds "
            f"(r-1)*n={(p.r - 1) * p.n}"
        )
    num = (p.r - 1) * p.n - p.r * (p.k - 1)
    return -(-num // (p.r - 1))


@dataclass(frozen=True)
class PartitionCertificate:
    """An ordered list of families claimed to partition all C(n,k) k-subsets."""

    params: GroundParams
    families: tuple[SetFamily, ...]

    @property
    def num_families(self) -> int:
        return len(self.families)

    def family_sizes(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.families)

    def to_dict(self) -> dict:
        return {
            "format": FORMAT_TAG,
            "n": self.params.n,
            "k": self.params.k,
            "r": self.params.r,
            "families": [
                [list(m.elements()) for m in fam.members] for fam in self.families
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PartitionCertificate":
        _check_format(doc, ("n", "k", "r", "families"))
        try:
            p = GroundParams(_int(doc["n"]), _int(doc["k"]), _int(doc["r"]))
        except Exception as exc:
            raise MalformedCertificate(f"bad partition certificate: {exc}") from exc
        # a member's bit vector is as wide as its largest element, so refuse
        # an oversized ground set before reading any member
        guard_subsets(p.n, p.k)
        try:
            families = tuple(
                SetFamily(
                    p.n,
                    tuple(KSubset.from_elements(map(_int, els), p.n) for els in fam),
                )
                for fam in doc["families"]
            )
        except Exception as exc:
            raise MalformedCertificate(f"bad partition certificate: {exc}") from exc
        return cls(p, families)


@dataclass(frozen=True)
class ColoringCertificate:
    """A vertex coloring of a Kneser-type hypergraph given by descriptor.

    The hypergraph is identified by (ground_n, k, r) plus the optional
    induced-variant fields, never by an explicit vertex list: colors[i]
    belongs to the i-th vertex in colex order over the (restricted) vertex
    set.  Color ids must be 0..num_colors-1 with every id used.
    """

    ground_n: int
    k: int
    r: int
    colors: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...] | None = None
    stability: int | None = None

    def __post_init__(self) -> None:
        if self.colors:
            used = set(self.colors)
            if min(used) < 0 or len(used) != max(used) + 1:
                raise InvalidCertificate(
                    f"color ids must be exactly 0..{max(used)}, got {sorted(used)}"
                )

    @property
    def num_colors(self) -> int:
        return max(self.colors) + 1 if self.colors else 0

    def to_dict(self) -> dict:
        doc: dict = {
            "format": FORMAT_TAG,
            "ground_n": self.ground_n,
            "k": self.k,
            "r": self.r,
            "parts": (
                [list(p) for p in self.parts] if self.parts is not None else None
            ),
            "colors": list(self.colors),
        }
        if self.stability is not None:
            doc["s"] = self.stability
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ColoringCertificate":
        _check_format(doc, ("ground_n", "k", "r", "parts", "colors"))
        try:
            parts = doc["parts"]
            return cls(
                ground_n=_int(doc["ground_n"]),
                k=_int(doc["k"]),
                r=_int(doc["r"]),
                colors=tuple(map(_int, doc["colors"])),
                parts=(
                    tuple(tuple(map(_int, p)) for p in parts)
                    if parts is not None
                    else None
                ),
                stability=_int(doc["s"]) if doc.get("s") is not None else None,
            )
        except InvalidCertificate:
            raise
        except Exception as exc:
            raise MalformedCertificate(f"bad coloring certificate: {exc}") from exc


def _int(value) -> int:
    """A JSON integer as it is written: a float, a string or a boolean is
    refused, not coerced, so a document cannot verify as some other one."""
    if type(value) is not int:
        raise MalformedCertificate(f"expected an integer, got {value!r}")
    return value


def _check_format(doc: dict, keys: tuple[str, ...]) -> None:
    if not isinstance(doc, dict):
        raise MalformedCertificate(f"expected an object, got {type(doc).__name__}")
    if doc.get("format") != FORMAT_TAG:
        raise MalformedCertificate(
            f"unknown certificate format {doc.get('format')!r}, expected {FORMAT_TAG!r}"
        )
    missing = [key for key in keys if key not in doc]
    if missing:
        raise MalformedCertificate(f"certificate missing fields {missing}")


def certificate_from_dict(doc) -> PartitionCertificate | ColoringCertificate:
    """Dispatch on document shape: families -> partition, colors -> coloring."""
    if not isinstance(doc, dict):
        raise MalformedCertificate(f"expected an object, got {type(doc).__name__}")
    if "families" in doc:
        return PartitionCertificate.from_dict(doc)
    if "colors" in doc:
        return ColoringCertificate.from_dict(doc)
    raise MalformedCertificate("document has neither 'families' nor 'colors'")


def build_tight_partition(p: GroundParams) -> PartitionCertificate:
    """Partition into exactly tight_bound(p) r-wise intersecting families.

    Family i (1 <= i <= n-s) collects every k-subset whose minimum element
    is i; the last family holds all k-subsets of the tail S = {n-s+1..n}
    with s = tail_size(k, r).  Stars share their minimum point, and any r
    k-subsets of the s tail points have a common point because r*k > (r-1)*s.
    One pass over the colex enumeration files each k-subset under its least
    element, or under the tail when that element is past n-s: such a subset
    lies inside the last s points, so the filing is exact, and every family
    comes out in colex order.  More than DEFAULT_GROUND_CAP points
    (CapExceeded) or MAX_SUBSETS k-subsets (InstanceTooLarge) are refused.
    """
    m = tight_bound(p)  # raises on inadmissible params
    cut = p.n - tail_size(p.k, p.r)
    groups: list[list[KSubset]] = [[] for _ in range(cut + 1)]
    for v in enumerate_k_subsets(p.n, p.k):
        groups[min((v.bits & -v.bits).bit_length() - 1, cut)].append(v)
    cert = PartitionCertificate(
        p, tuple(SetFamily(p.n, tuple(g)) for g in groups)
    )
    if cert.num_families != m:
        raise SoundnessError(f"built {cert.num_families} families, expected {m}")
    return cert


@dataclass(frozen=True)
class BlowupMap:
    """Bookkeeping for one blow-up: blocks plus the origin of each new vertex.

    blocks[i-1] is C_i = {(i-1)(r-1)+1, ..., i(r-1)}, contiguous on the
    cycle of length (r-1)n.  vertex_origin maps the bitmask of each blown-up
    vertex to the unique source k-subset F it selects from; uniqueness holds
    because F is recoverable as {i : G meets C_i}.
    """

    source: PartitionCertificate
    blocks: tuple[tuple[int, ...], ...]
    vertex_origin: dict[int, KSubset]

    @property
    def big_n(self) -> int:
        return (self.source.params.r - 1) * self.source.params.n


def _blowup_blocks(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    w = r - 1
    return tuple(
        tuple(range((i - 1) * w + 1, i * w + 1)) for i in range(1, n + 1)
    )


def blow_up(cert: PartitionCertificate) -> tuple[ColoringCertificate, BlowupMap]:
    """Lift a verified partition to a coloring of the constrained hypergraph.

    Each source k-subset F = {i_1..i_k} becomes the (r-1)^k transversal
    selections picking one point from each block C_{i_j}; every selection
    inherits F's family index as its color.  The selections over all F cover
    the constrained vertex set exactly, and no color class contains r
    pairwise disjoint members: r selections from one family stem from
    sources with a common element i, and their r points inside C_i cannot
    all differ since |C_i| = r-1.  A selection's mask is the sum of one
    point bit per block, read off the recorded `blocks`, so _blowup_blocks
    alone fixes the block layout.

    The selections are the vertices, so no hypergraph is built: colors are
    listed in ascending bitmask (colex) order of the selections.  A lift of
    more than MAX_VERTICES = C(n,k) * (r-1)^k vertices or MAX_SUBSETS
    ground k-subsets raises InstanceTooLarge, and a ground set (r-1)n above
    DEFAULT_GROUND_CAP raises CapExceeded, all before any block is made.

    For r=2 blocks are singletons and the lift is the identity relabeling.
    """
    pre = verify_partition_certificate(cert)
    if not pre.ok:
        raise InvalidCertificate(f"source partition invalid: {pre.summary()}")
    p = cert.params
    n, k, r = p.n, p.k, p.r
    w = r - 1
    big_n = w * n
    guard_subsets(big_n, k)
    num_vertices = comb(n, k) * w**k
    guard_vertices(num_vertices, f"lift has C({n},{k}) * {w}^{k}")
    blocks = _blowup_blocks(n, r)
    one_hot = [tuple(1 << (x - 1) for x in block) for block in blocks]

    color_of: dict[int, int] = {}
    origin: dict[int, KSubset] = {}
    for fi, fam in enumerate(cert.families):
        for member in fam.members:
            for sel in product(*(one_hot[e - 1] for e in member.elements())):
                bits = sum(sel)
                # a selection determines its source, so collisions can only
                # come from a builder bug; fail loudly rather than tie-break
                if bits in origin and origin[bits] != member:
                    raise SoundnessError(f"selection {bits:#x} has two sources")
                color_of[bits] = fi
                origin[bits] = member

    # the selections are distinct constrained vertices, so equal counts
    # mean they are all of them
    if len(color_of) != num_vertices:
        raise SoundnessError("selections must cover all vertices")
    colors = tuple(color_of[bits] for bits in sorted(color_of))

    coloring = ColoringCertificate(
        ground_n=big_n, k=k, r=r, colors=colors, parts=blocks
    )
    return coloring, BlowupMap(source=cert, blocks=blocks, vertex_origin=origin)


def check_stable_embedding(bmap: BlowupMap) -> Report:
    """Every r-stable k-subset of the blown-up cycle must receive a color.

    Confirms that each r-stable k-subset meets every block in at most one
    point (two points inside a width-(r-1) block sit at cyclic distance
    <= r-2) and that it appears among the blown-up vertices.  The report
    counts the r-stable vertices found.
    """
    p = bmap.source.params
    r, k = p.r, p.k
    big_n = bmap.big_n
    block_masks = PartSpec(bmap.blocks).masks()

    violations = []
    stable_count = 0
    for v in enumerate_k_subsets(big_n, k):
        if not is_s_stable(v, r):
            continue
        stable_count += 1
        for bi, bm in enumerate(block_masks):
            if (v.bits & bm).bit_count() > 1:
                violations.append(
                    Violation(
                        "stable_straddles_block",
                        (bi,),
                        f"r-stable vertex {v!r} has two points in block {bi + 1}",
                    )
                )
        if v.bits not in bmap.vertex_origin:
            violations.append(
                Violation(
                    "stable_uncovered",
                    (),
                    f"r-stable vertex {v!r} received no color",
                )
            )
    return Report(
        tuple(violations), stats={"stable_vertices": stable_count, "ground": big_n}
    )
