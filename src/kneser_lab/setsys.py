"""Ground-set and subset primitives.

Subsets of [n] = {1, ..., n} are stored as bit vectors packed into a Python
int: bit i is set iff element i+1 is in the set.  Elements are 1-based in
every public interface; bit positions are 0-based internally.  All types are
immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import CapExceeded, InstanceTooLarge, InvalidParams

# The size policy: only small instances can be checked exactly, and these
# four limits say how small.  Python ints are arbitrary width, so the ground
# cap is a sanity guard against runaway instance sizes rather than a
# word-size limit.
DEFAULT_GROUND_CAP = 64
# The verifiers and the constructions walk all C(n, k) k-subsets and refuse
# above this many.  It admits the lift of every tight partition that
# MAX_VERTICES admits: the largest ground walk is C(36, 5) = 376,992.
MAX_SUBSETS = 1_000_000
# Vertices of a generated instance: solve, chi and the blow-up lift.
MAX_VERTICES = 100_000
# Edges of a Kneser hypergraph or witnesses of a conflict hypergraph, listed
# only when a `Hypergraph.edges` is read: the search lists none.
MAX_EDGES = 10_000_000


def guard_subsets(n: int, k: int) -> None:
    """Refuse a walk over all k-subsets of [n] before it starts."""
    if n > DEFAULT_GROUND_CAP:
        raise CapExceeded(f"ground set size {n} exceeds cap {DEFAULT_GROUND_CAP}")
    if comb(n, k) > MAX_SUBSETS:
        raise InstanceTooLarge(f"C({n},{k}) exceeds {MAX_SUBSETS} k-subsets")


def guard_vertices(count: int, what: str) -> None:
    """Refuse an instance of more than MAX_VERTICES vertices before building it."""
    if count > MAX_VERTICES:
        raise InstanceTooLarge(
            f"{what} = {count} vertices exceeds limit {MAX_VERTICES}"
        )


@dataclass(frozen=True, slots=True)
class GroundParams:
    """Instance parameters: ground-set size n, subset size k, arity r."""

    n: int
    k: int
    r: int

    def __post_init__(self) -> None:
        if not (1 <= self.k <= self.n):
            raise InvalidParams(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.r < 2:
            raise InvalidParams(f"need r >= 2, got r={self.r}")

    @property
    def admissible(self) -> bool:
        """True iff r*k <= (r-1)*n, the hypothesis of the tight bound."""
        return self.r * self.k <= (self.r - 1) * self.n

    @property
    def num_vertices(self) -> int:
        return comb(self.n, self.k)


@dataclass(frozen=True, slots=True)
class KSubset:
    """A subset of [n] as a bit vector (bit i set iff element i+1 present)."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidParams(f"negative ground size {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise InvalidParams(
                f"bit pattern {self.bits:#x} does not fit in ground set of size {self.n}"
            )

    @classmethod
    def from_elements(cls, elements, n: int) -> "KSubset":
        bits = 0
        for e in elements:
            if not (1 <= e <= n):
                raise InvalidParams(f"element {e} outside [1, {n}]")
            bits |= 1 << (e - 1)
        return cls(bits, n)

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> tuple[int, ...]:
        """Members as 1-based elements in increasing order."""
        return tuple(i + 1 for i in range(self.n) if self.bits >> i & 1)

    def contains(self, element: int) -> bool:
        return 1 <= element <= self.n and bool(self.bits >> (element - 1) & 1)

    def __repr__(self) -> str:
        return f"KSubset({{{','.join(map(str, self.elements()))}}}, n={self.n})"


@dataclass(frozen=True, slots=True)
class SetFamily:
    """An ordered, duplicate-free collection of KSubsets over one ground set."""

    ground_n: int
    members: tuple[KSubset, ...]

    def __post_init__(self) -> None:
        seen = set()
        for m in self.members:
            if m.n != self.ground_n:
                raise InvalidParams(
                    f"member over ground set {m.n}, family over {self.ground_n}"
                )
            if m.bits in seen:
                raise InvalidParams(f"duplicate member {m!r}")
            seen.add(m.bits)

    def masks(self) -> tuple[int, ...]:
        return tuple(m.bits for m in self.members)

    def __len__(self) -> int:
        return len(self.members)


def enumerate_k_subsets(n: int, k: int) -> list[KSubset]:
    """All k-subsets of [n] in colexicographic order, under guard_subsets.

    Colex order on k-subsets coincides with ascending numeric order of the
    bit patterns, so the list is produced by Gosper's hack and is
    deterministic.
    """
    if n < 0 or k < 0 or k > n:
        raise InvalidParams(f"need 0 <= k <= n, got n={n}, k={k}")
    guard_subsets(n, k)
    if k == 0:
        return [KSubset(0, n)]
    out = []
    m = (1 << k) - 1
    limit = 1 << n
    while m < limit:
        out.append(KSubset(m, n))
        low = m & -m
        ripple = m + low
        m = ((m ^ ripple) >> (low.bit_length() + 1)) | ripple
    return out


def is_s_stable(f: KSubset, s: int) -> bool:
    """True iff every pair of distinct elements of f is at cyclic distance >= s.

    Tested on the mask against its own cyclic shifts: a pair at distance d
    puts a point of f on a point of f rotated by d, so f fails iff it meets
    its rotation by some d in 1..min(s, n) - 1.  Any one-element set is
    s-stable for all s.
    """
    if s < 1:
        raise InvalidParams(f"need s >= 1, got s={s}")
    b, n = f.bits, f.n
    if b == 0:
        raise InvalidParams("stability is undefined for the empty set")
    for d in range(1, min(s, n)):
        if b & (b >> d | b << (n - d)):
            return False
    return True
