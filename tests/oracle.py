"""Exhaustive reference colorer for tiny hypergraphs, used by the tests.

It shares no code with the search engine in kneser_lab.solve, so the two
can cross-check each other.
"""

from kneser_lab.errors import InstanceTooLarge, InvalidParams
from kneser_lab.kneser import Hypergraph
from kneser_lab.solve import INFEASIBLE


def brute_force_oracle(h: Hypergraph, max_colors: int) -> int | str:
    """Exhaustive reference answer for tiny instances.

    Enumerates every assignment whose used colors form a prefix (the one
    safe reduction) and checks all edges at the leaves.  Deliberately
    shares nothing with the engine so the two can cross-check.
    """
    nv = len(h.vertices)
    if nv > 16:
        raise InstanceTooLarge(f"oracle capped at 16 vertices, got {nv}")
    if max_colors < 1:
        raise InvalidParams(f"need max_colors >= 1, got {max_colors}")
    if nv == 0:
        return 0
    edges = h.edges

    def proper(assign: list[int]) -> bool:
        for e in edges:
            first = assign[e[0]]
            if all(assign[u] == first for u in e[1:]):
                return False
        return True

    def exists(limit: int, assign: list[int], used: int) -> bool:
        if len(assign) == nv:
            return proper(assign)
        for col in range(min(used + 1, limit - 1) + 1):
            assign.append(col)
            found = exists(limit, assign, max(used, col))
            assign.pop()
            if found:
                return True
        return False

    for limit in range(1, max_colors + 1):
        if exists(limit, [], -1):
            return limit
    return INFEASIBLE
