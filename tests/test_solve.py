"""Conflict extraction and the exact solver, cross-checked against brute force."""

import json
import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations
from math import comb

import pytest

import kneser_lab
from kneser_lab import kneser, solve
from kneser_lab.constructions import tight_bound
from kneser_lab.errors import InstanceTooLarge, InvalidParams, SoundnessError
from kneser_lab.kneser import (
    Hypergraph,
    PartSpec,
    build_kneser_hypergraph,
    build_partition_constrained,
    build_stable_subhypergraph,
)
from kneser_lab.setsys import GroundParams, KSubset
from kneser_lab.solve import (
    EXACT,
    TIMEOUT,
    SolveBudget,
    _search,
    build_conflict_hypergraph,
    chromatic_number,
    min_partition_number,
)
from kneser_lab.verify import verify_coloring, verify_partition_certificate

from oracle import INFEASIBLE, brute_force_oracle


def colex_pairs(n):
    masks = sorted(
        sum(1 << (e - 1) for e in c) for c in combinations(range(1, n + 1), 2)
    )
    return {m: i for i, m in enumerate(masks)}


def test_conflicts_4_2_2():
    ch = build_conflict_hypergraph(GroundParams(4, 2, 2))
    idx = colex_pairs(4)

    def at(*element_pairs):
        return tuple(sorted(
            idx[sum(1 << (e - 1) for e in p)] for p in element_pairs
        ))

    expected = {
        at((1, 2), (3, 4)),
        at((1, 3), (2, 4)),
        at((1, 4), (2, 3)),
    }
    assert set(ch.witnesses) == expected


def test_conflicts_4_2_3():
    ch = build_conflict_hypergraph(GroundParams(4, 2, 3))
    pairs = {w for w in ch.witnesses if len(w) == 2}
    triples = {w for w in ch.witnesses if len(w) == 3}
    assert len(pairs) == 3 and len(triples) == 4
    assert len(ch.witnesses) == 7
    idx = colex_pairs(4)
    tri = tuple(sorted(
        idx[sum(1 << (e - 1) for e in p)] for p in [(1, 2), (1, 3), (2, 3)]
    ))
    assert tri in triples


def test_conflicts_3_1_2():
    ch = build_conflict_hypergraph(GroundParams(3, 1, 2))
    assert set(ch.witnesses) == {(0, 1), (0, 2), (1, 2)}


def test_conflict_counts_6_2_3():
    ch = build_conflict_hypergraph(GroundParams(6, 2, 3))
    sizes = {}
    for w in ch.witnesses:
        sizes[len(w)] = sizes.get(len(w), 0) + 1
    assert sizes == {2: 45, 3: 20}


def test_witness_invariants():
    for (n, k, r) in [(5, 2, 2), (5, 2, 3), (6, 2, 3), (6, 2, 4), (7, 3, 2)]:
        ch = build_conflict_hypergraph(GroundParams(n, k, r))
        for w in ch.witnesses:
            assert 2 <= len(w) <= r
            assert len(w) == len(set(w)) and w == tuple(sorted(w))
            inter = -1
            for i in w:
                inter &= ch.base[i].bits
            assert inter == 0
            for drop in w:  # minimality
                inter = -1
                for i in w:
                    if i != drop:
                        inter &= ch.base[i].bits
                assert inter != 0


def test_conflict_size_caps(monkeypatch):
    with pytest.raises(InstanceTooLarge, match="vertices exceeds limit 100000"):
        build_conflict_hypergraph(GroundParams(20, 10, 3))  # 184,756 vertices
    monkeypatch.setattr(solve, "MAX_EDGES", 10)
    with pytest.raises(InstanceTooLarge):
        build_conflict_hypergraph(GroundParams(6, 2, 3))


def test_min_partition_r2_ladder():
    for n, want in [(4, 2), (5, 3), (6, 4), (7, 5)]:
        res = min_partition_number(GroundParams(n, 2, 2))
        assert res.status == EXACT
        assert res.upper == want
        assert verify_partition_certificate(res.certificate).ok


def test_min_partition_r3_cases():
    for n, k, want in [(3, 1, 3), (4, 2, 3), (5, 2, 4), (6, 2, 5)]:
        res = min_partition_number(GroundParams(n, k, 3))
        assert res.status == EXACT and res.upper == want, (n, k)


def test_min_partition_r4():
    res = min_partition_number(GroundParams(4, 2, 4))
    assert res.status == EXACT and res.upper == 3


def test_chromatic_known_values():
    for n, r, want in [(5, 2, 3), (6, 2, 4), (6, 3, 2), (7, 3, 2), (8, 4, 2)]:
        h = build_kneser_hypergraph(GroundParams(n, 2, r))
        res = chromatic_number(h)
        assert res.status == EXACT and res.upper == want, (n, r)
        assert verify_coloring(h, list(res.colors)).ok


def test_solver_matches_brute_force():
    rng = random.Random(20240817)
    for trial in range(200):
        nv = rng.randint(4, 12)
        ne = rng.randint(1, nv)
        edges = set()
        while len(edges) < ne:
            sz = rng.randint(2, min(4, nv))
            edges.add(tuple(sorted(rng.sample(range(nv), sz))))
        h = Hypergraph(
            vertices=tuple(KSubset(1 << i, nv) for i in range(nv)),
            edges=tuple(sorted(edges)),
        )
        res = chromatic_number(h)
        assert res.status == EXACT, trial
        # the oracle re-proves every count below the answer infeasible
        assert brute_force_oracle(h, res.upper) == res.upper, trial
        # every rotation of the branching tie-break reaches the same value
        for shift in range(nv):
            out = _search(nv, h.edges, SolveBudget(), shift)
            assert (out.status, out.upper) == (EXACT, res.upper), (trial, shift)
            assert verify_coloring(h, out.colors).ok, (trial, shift)


def test_partition_solver_matches_brute_force():
    """The partition number colors the conflict hypergraph; the oracle does
    that with no engine code.  C(n, k) <= 8 keeps it exhaustive, and k = n
    gives one vertex for every n, so n stops at 10: 72 instances."""
    checked = 0
    for n in range(1, 11):
        for k in range(1, n + 1):
            if comb(n, k) > 8:
                continue
            for r in range(2, 5):
                p = GroundParams(n, k, r)
                ch = build_conflict_hypergraph(p)
                res = min_partition_number(p)
                best = brute_force_oracle(Hypergraph(ch.base, ch.witnesses), comb(n, k))
                assert (res.status, res.upper) == (EXACT, best), (n, k, r)
                if p.admissible:
                    assert best == tight_bound(p), (n, k, r)
                checked += 1
    assert checked == 72


def test_search_tree_pinned():
    """Node counts at workers=1 are deterministic; a change to the engine's
    branching, propagation or tie-break moves them."""
    p623 = GroundParams(6, 2, 3)
    cases = [
        (min_partition_number(p623), 5, 103),
        (chromatic_number(build_kneser_hypergraph(p623)), 2, 4),
        (chromatic_number(
            build_stable_subhypergraph(GroundParams(8, 2, 2), 2)), 6, 134),
        (chromatic_number(build_partition_constrained(
            p623, PartSpec(((1, 2), (3, 4), (5, 6))))), 2, 5),
        (min_partition_number(GroundParams(7, 2, 2)), 5, 28),
        (min_partition_number(GroundParams(8, 2, 3)), 7, 13978),
        # n < 2k: no disjoint pair, so no clique is pinned
        (min_partition_number(GroundParams(7, 4, 3)), 3, 65),
    ]
    for i, (res, value, nodes) in enumerate(cases):
        assert (res.status, res.upper, res.nodes) == (EXACT, value, nodes), i


def test_soundness_guards_survive_optimize():
    """The self-checks raise SoundnessError even under python -O, where
    assert statements are stripped."""
    script = textwrap.dedent("""
        from kneser_lab import solve
        from kneser_lab.errors import SoundnessError
        from kneser_lab.kneser import build_kneser_hypergraph
        from kneser_lab.setsys import GroundParams
        from kneser_lab.verify import Report, Violation
        assert False, "asserts must be stripped"

        petersen = build_kneser_hypergraph(GroundParams(5, 2, 2))

        def improper_at_2(self, m, seed):  # feasible at m=2 only
            return [0] * self.nv if m == 2 else None

        def improper_always(self, m, seed):  # also "feasible" below the clique
            return [0] * self.nv

        cases = [
            (improper_at_2, lambda: solve.chromatic_number(petersen)),
            (improper_at_2, lambda: solve.min_partition_number(GroundParams(5, 2, 2))),
            (improper_always, lambda: solve.chromatic_number(petersen)),
            (None, lambda: Report(True, (Violation("x", (0,), "bad"),))),
            (None, lambda: solve.SolveResult(solve.EXACT, 2, 3, 0, 0, colors=(0,))),
        ]
        for run, call in cases:
            if run is not None:
                solve._Engine.run = run
            try:
                call()
            except SoundnessError:
                print("raised")
            else:
                print("passed")
    """)
    src = os.path.dirname(os.path.dirname(kneser_lab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised"] * 5


def test_chromatic_certificate_rechecked_from_descriptor(monkeypatch):
    """A builder that drops edges cannot make an improper coloring pass:
    the certificate is re-verified from its descriptor alone."""
    monkeypatch.setattr(kneser, "_disjoint_tuples", lambda *args: [])
    h = build_kneser_hypergraph(GroundParams(5, 2, 2))
    assert h.num_edges == 0
    with pytest.raises(SoundnessError, match="invalid certificate"):
        chromatic_number(h)


def test_partition_dominates_chromatic():
    p = GroundParams(6, 2, 3)
    part = min_partition_number(p)
    chi = chromatic_number(build_kneser_hypergraph(p))
    assert part.upper == 5 and chi.upper == 2
    assert part.upper > chi.upper


def test_determinism():
    a = min_partition_number(GroundParams(6, 2, 2))
    b = min_partition_number(GroundParams(6, 2, 2))
    assert (a.status, a.lower, a.upper, a.nodes) == (
        b.status,
        b.lower,
        b.upper,
        b.nodes,
    )
    assert a.certificate.to_dict() == b.certificate.to_dict()


def test_node_budget_yields_honest_bracket():
    res = min_partition_number(
        GroundParams(7, 2, 2), SolveBudget(max_nodes=1)
    )
    assert res.status == TIMEOUT
    assert res.lower <= 5 <= res.upper
    if res.certificate is not None:
        rep = verify_partition_certificate(res.certificate)
        assert rep.ok
        assert res.certificate.num_families == res.upper


def test_proof_cap_yields_bounds():
    res = min_partition_number(
        GroundParams(9, 2, 2), SolveBudget(proof_cap=10)
    )
    assert res.status == "BOUNDS"
    assert res.nodes == 0
    assert res.lower == 4  # a greedy disjoint clique certifies this
    assert res.lower <= 7 <= res.upper or res.upper <= 7
    assert verify_partition_certificate(res.certificate).ok


def test_worker_portfolio_agrees():
    single = min_partition_number(GroundParams(6, 2, 2))
    multi = min_partition_number(
        GroundParams(6, 2, 2), SolveBudget(workers=2)
    )
    assert multi.status == EXACT
    assert multi.upper == single.upper == 4


@pytest.mark.parametrize(
    "budget, status",
    [
        (SolveBudget(workers=2, proof_cap=10), "BOUNDS"),
        (SolveBudget(workers=2, max_nodes=3), TIMEOUT),
        (SolveBudget(workers=2, max_nodes=20), TIMEOUT),  # workers disagree
    ],
    ids=["bounds", "timeout", "timeout-split"],
)
def test_worker_portfolio_merges_brackets(budget, status):
    """Without an EXACT worker the portfolio keeps the best lower bound and
    the coloring of the best upper bound; value 7 sits inside both."""
    p = GroundParams(9, 2, 2)
    h = build_kneser_hypergraph(p)
    part = min_partition_number(p, budget)
    chi = chromatic_number(h, budget)
    for res, constraints in [(part, build_conflict_hypergraph(p).witnesses),
                             (chi, h.edges)]:
        assert res.status == status
        assert res.lower <= 7 <= res.upper
        singles = [_search(36, constraints, budget, shift) for shift in (0, 18)]
        assert res.lower == max(o.lower for o in singles)
        assert res.upper == min(o.upper for o in singles)
        assert res.nodes == sum(o.nodes for o in singles)
    assert verify_partition_certificate(part.certificate).ok
    assert part.certificate.num_families == part.upper
    assert verify_coloring(h, chi.colors).ok
    assert max(chi.colors) + 1 == chi.upper


def test_solve_result_json_shape():
    res = min_partition_number(GroundParams(5, 2, 2))
    doc = json.loads(json.dumps(res.to_dict()))
    assert doc["status"] == "EXACT"
    assert doc["lower"] == doc["upper"] == 3
    assert doc["certificate"]["format"] == "kneser-lab/1"
    assert set(doc) >= {"status", "lower", "upper", "nodes", "millis", "certificate"}


def test_brute_force_oracle_examples():
    tri = Hypergraph(
        vertices=tuple(KSubset(1 << i, 3) for i in range(3)),
        edges=((0, 1), (0, 2), (1, 2)),
    )
    assert brute_force_oracle(tri, 3) == 3
    assert brute_force_oracle(tri, 2) == INFEASIBLE

    one_edge = Hypergraph(
        vertices=tuple(KSubset(1 << i, 4) for i in range(4)),
        edges=((0, 1, 2, 3),),
    )
    assert brute_force_oracle(one_edge, 4) == 2

    from kneser_lab.kneser import build_stable_subhypergraph

    h = build_stable_subhypergraph(GroundParams(8, 2, 4), 4)
    assert brute_force_oracle(h, 4) == 2


def test_brute_force_oracle_guards():
    big = Hypergraph(
        vertices=tuple(KSubset(1 << i, 17) for i in range(17)),
        edges=((0, 1),),
    )
    with pytest.raises(InstanceTooLarge):
        brute_force_oracle(big, 2)
    empty = Hypergraph(vertices=(), edges=())
    assert brute_force_oracle(empty, 1) == 0
    with pytest.raises(InvalidParams):
        brute_force_oracle(empty, 0)


def test_edgeless_hypergraph_is_one_colorable():
    with pytest.warns(UserWarning):
        h = build_kneser_hypergraph(GroundParams(5, 2, 3))  # n < rk
    res = chromatic_number(h)
    assert res.status == EXACT and res.upper == 1
    assert brute_force_oracle(h, 1) == 1
