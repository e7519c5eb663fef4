"""Run one workload's passes in this process and print what they measured.

run.py starts this in a fresh interpreter for every run, so the peak RSS it
reports belongs to one workload alone.  A pass runs every instance of the
workload's ladder in design.json through the public kneser_lab API:

  answer  solve / chi / lift, checked against closed forms the program
          never consults, with status EXACT required
  verify  the independent verifiers must accept every produced certificate
  reject  and must reject one seeded known-bad variant of each

Passes repeat until the next one would end after --seconds.  With --trace 0
the time left after the last pass goes to more rounds of the last pass's
verify and reject ops.  With --trace 1 untraced and traced passes alternate;
the traced ones give per-layer self times (see tracing.py).  The last line of
output is one JSON object.

    python3 perfbench/passes.py --workload certify --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import random
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DESIGN = json.loads((HERE / "design.json").read_text())

sys.path.insert(0, str(SRC))
import kneser_lab  # noqa: E402
from kneser_lab import constructions, kneser, setsys, solve, verify  # noqa: E402

import hostspeed  # noqa: E402
from tracing import Tracer  # noqa: E402

REPEAT_S = 0.25
# hostspeed elasticity per phase, near the slopes measured against the
# reference: 0.56-0.65 for solves, 0.80 for a verifier.  Over ten runs on
# each workload, answer_s spread 0.04-0.10 (quartile distance over median)
# with 0.7 and 0.07-0.17 with 1.
ELASTICITY = {"answer": 0.7, "verify": 0.8, "reject": 0.8}


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def partition_number(n: int, k: int, r: int) -> int:
    """ceil(n - r(k-1)/(r-1)), the paper's tight bound."""
    return ceil_div((r - 1) * n - r * (k - 1), r - 1)


def expected_value(inst: dict) -> int:
    """The closed-form answer for an instance, computed here, not by the program."""
    n, k, r = inst["n"], inst["k"], inst["r"]
    if inst["op"] in ("solve", "lift"):
        return partition_number(n, k, r)
    if "parts" in inst:
        # blocks of r-1 points: the blow-up of ([len(parts)], k, r)
        if any(len(part) != r - 1 for part in inst["parts"]):
            raise ValueError(f"{label(inst)}: every block needs r-1 points")
        return partition_number(len(inst["parts"]), k, r)
    if "s" in inst:
        if (r, inst["s"]) != (2, 2):
            raise ValueError(f"{label(inst)}: closed form known only for r=2, s=2")
        return n - 2 * k + 2  # Schrijver
    return ceil_div(n - r * (k - 1), r - 1)  # Alon-Frankl-Lovasz


def label(inst: dict) -> str:
    nkr = f"({inst['n']},{inst['k']},{inst['r']})"
    if "parts" in inst:
        return f"chi parts{nkr}"
    if "s" in inst:
        return f"chi stable{nkr} s={inst['s']}"
    return f"{inst['op']}{nkr}"


def duplicated_member(cert, rng: random.Random):
    """The partition with one k-subset also placed in a second family."""
    families = list(cert.families)
    src, dst = rng.sample(range(len(families)), 2)
    member = rng.choice(families[src].members)
    target = families[dst]
    families[dst] = setsys.SetFamily(target.ground_n, target.members + (member,))
    return constructions.PartitionCertificate(cert.params, tuple(families))


def merged_classes(cert, rng: random.Random):
    """The coloring with its two largest classes merged, on m-1 shuffled labels.

    m is the chromatic number, so every (m-1)-coloring is improper.  The pair
    is fixed rather than drawn from the seed because it sets the verifier's
    work (up to 10x between pairs); the seed picks the labels.
    """
    sizes = Counter(cert.colors)
    keep, gone = sorted(sizes, key=lambda c: (-sizes[c], c))[:2]
    labels = list(range(len(sizes) - 1))
    rng.shuffle(labels)
    relabel = dict(zip((c for c in sorted(sizes) if c != gone), labels))
    relabel[gone] = relabel[keep]
    return dataclasses.replace(cert, colors=tuple(relabel[c] for c in cert.colors))


def exact(want: int):
    def check(res) -> str | None:
        if res.status != solve.EXACT:
            return f"status {res.status}, bracket [{res.lower}, {res.upper}]"
        if res.upper != want:
            return f"value {res.upper}, closed form {want}"
        return None

    return check


def accepted(size: int, want: int):
    def check(rep) -> str | None:
        if not rep.ok:
            return f"good certificate rejected: {rep.summary()}"
        if size != want:
            return f"certificate uses {size} classes, closed form {want}"
        return None

    return check


def rejected(rep) -> str | None:
    return None if not rep.ok else "known-bad certificate accepted"


class Pass:
    """Timings, node counts and failures of one pass.

    A steady pass (the untraced passes of a --trace 0 run) times each op
    with a hostspeed.Meter, which repeats calls shorter than REPEAT_S and
    gives each op a nominal time; each time verifier_rounds times an op
    again adds a sample.  Other passes call each op once, as the traced
    passes must.
    """

    def __init__(self, steady: bool) -> None:
        self.meter = hostspeed.Meter() if steady else None
        self.times: dict[tuple[str, str], float] = {}
        self.nominal: dict[tuple[str, str], list[float]] = {}
        self.verifiers: dict[tuple[str, str], tuple] = {}  # key: (call, check)
        self.nodes: dict[str, int] = {}
        self.violations = 0
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, phase: str, name: str, call, check):
        """Time call(); count it as failed if it raises or check objects."""
        self.attempted += 1
        key = (phase, name)
        try:
            if self.meter is not None:
                out, self.times[key], nominal = self.meter.time(
                    call, REPEAT_S, ELASTICITY[phase])
                self.nominal.setdefault(key, []).append(nominal)
            else:
                t0 = perf_counter()
                out = call()
                self.times[key] = perf_counter() - t0
        except Exception as exc:  # a failed op is recorded, not fatal
            self.failures.append(f"{phase} {name}: raised {exc!r}")
            return None
        problem = check(out)
        if problem:
            self.failures.append(f"{phase} {name}: {problem}")
            return None
        if phase != "answer":
            self.verifiers[key] = (call, check)
        return out

    def skip(self, name: str, count: int) -> None:
        self.attempted += count
        self.failures += [f"{name}: not run, its answer failed"] * count

    def certificate(self, name: str, cert, want: int, check_fn, mutate, rng) -> None:
        """Accept-verify cert, then reject-verify a seeded bad variant."""
        size = getattr(cert, "num_families", None) or cert.num_colors
        self.op("verify", name, lambda: check_fn(cert), accepted(size, want))
        bad = mutate(cert, rng)
        rep = self.op("reject", name, lambda: check_fn(bad), rejected)
        if rep is not None:
            self.violations += len(rep.violations)


def run_solve(rec: Pass, inst: dict, rng: random.Random) -> None:
    name, want = label(inst), expected_value(inst)
    p = setsys.GroundParams(inst["n"], inst["k"], inst["r"])
    res = rec.op("answer", name,
                 lambda: solve.min_partition_number(p, budget(inst)), exact(want))
    if res is None:
        return rec.skip(name, 2)
    rec.nodes[name] = res.nodes
    rec.certificate(name, res.certificate, want,
                    verify.verify_partition_certificate,
                    duplicated_member, rng)


def run_chi(rec: Pass, inst: dict, rng: random.Random) -> None:
    name, want = label(inst), expected_value(inst)
    p = setsys.GroundParams(inst["n"], inst["k"], inst["r"])

    def answer():
        if "parts" in inst:
            spec = kneser.PartSpec(tuple(tuple(b) for b in inst["parts"]))
            h = kneser.build_partition_constrained(p, spec)
        elif "s" in inst:
            h = kneser.build_stable_subhypergraph(p, inst["s"])
        else:
            h = kneser.build_kneser_hypergraph(p)
        return solve.chromatic_number(h, budget(inst))

    res = rec.op("answer", name, answer, exact(want))
    if res is None:
        return rec.skip(name, 2)
    rec.nodes[name] = res.nodes
    rec.certificate(name, res.certificate, want,
                    verify.verify_coloring_certificate,
                    merged_classes, rng)


def run_lift(rec: Pass, inst: dict, rng: random.Random) -> None:
    name, want = label(inst), expected_value(inst)
    p = setsys.GroundParams(inst["n"], inst["k"], inst["r"])

    def answer():
        cert = constructions.build_tight_partition(p)
        coloring, bmap = constructions.blow_up(cert)
        return cert, coloring, constructions.check_stable_embedding(bmap)

    def check(out) -> str | None:
        cert, coloring, embed = out
        if not embed.ok:
            return f"stable embedding: {embed.summary()}"
        if (cert.num_families, coloring.num_colors) != (want, want):
            return (f"{cert.num_families} families, {coloring.num_colors} "
                    f"colors, closed form {want}")
        return None

    out = rec.op("answer", name, answer, check)
    if out is None:
        return rec.skip(name, 4)
    cert, coloring, _ = out
    rec.certificate(f"{name} partition", cert, want,
                    verify.verify_partition_certificate,
                    duplicated_member, rng)
    rec.certificate(f"{name} coloring", coloring, want,
                    verify.verify_coloring_certificate,
                    merged_classes, rng)


RUNNERS = {"solve": run_solve, "chi": run_chi, "lift": run_lift}


def budget(inst: dict):
    return solve.SolveBudget(
        max_seconds=DESIGN["solve_timeout_s"],
        proof_cap=inst["proof_cap"],
        workers=DESIGN["workers"],
    )


def one_pass(workload: str, seed: int, steady: bool) -> Pass:
    rec = Pass(steady)
    for i, inst in enumerate(DESIGN["workloads"][workload]):
        RUNNERS[inst["op"]](rec, inst, random.Random(f"{seed}/{workload}/{i}"))
    return rec


def verifier_rounds(rec: Pass, deadline: float) -> None:
    """Time the pass's verify and reject ops again, in turn, until deadline.

    A search-hyper pass takes 15-25 s, so a run holds one or two, and a
    verifier's few calls in a pass come from one second of a host whose speed
    swings within seconds.  The rounds spread more samples over the rest of
    the run; an op that would end after deadline is skipped.  Answer ops get
    no rounds: a second solve sample would take most of the time left.
    """
    ran = True
    while ran:
        ran = False
        for (phase, name), (call, check) in list(rec.verifiers.items()):
            if perf_counter() + max(REPEAT_S, rec.times[(phase, name)]) <= deadline:
                rec.op(phase, name, call, check)
                ran = True


def median_of_ops(passes: list[Pass], phase: str) -> float:
    """Sum over the phase's ops of each op's median nominal time, over every
    sample the passes took."""
    samples: dict[tuple[str, str], list[float]] = {}
    for rec in passes:
        for key, values in rec.nominal.items():
            if key[0] == phase:
                samples.setdefault(key, []).extend(values)
    return sum(statistics.median(values) for values in samples.values())


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, tuple[float, str]]:
    self_s = tracer.self_times()
    c = tracer.counts
    nodes = c["solve.engine.nodes"]
    return {
        "setsys.enumerate_s": (self_s["setsys.enumerate"], "s"),
        "setsys.subsets": (c["setsys.subsets"], "count"),
        "kneser.build_s": (self_s["kneser.build"], "s"),
        "kneser.edges": (c["kneser.edges"], "count"),
        "kneser.edges_used_frac": (
            c["kneser.edges_used"] / c["kneser.edges"] if c["kneser.edges"] else 0.0,
            "ratio"),
        "solve.conflict.build_s": (self_s["solve.conflict"], "s"),
        "solve.conflict.witnesses": (c["solve.conflict.witnesses"], "count"),
        "solve.engine.self_s": (self_s["solve.engine"], "s"),
        "solve.engine.nodes": (nodes, "count"),
        "solve.engine.us_per_node": (
            self_s["solve.engine"] / nodes * 1e6 if nodes else 0.0, "us"),
        "solve.engine.exact_frac": (
            c["solve.engine.exact"] / c["solve.engine.calls"]
            if c["solve.engine.calls"] else 0.0,
            "ratio"),
        "constructions.tight_s": (self_s["constructions.tight"], "s"),
        "constructions.blowup_self_s": (self_s["constructions.blowup"], "s"),
        "constructions.embed_s": (self_s["constructions.embed"], "s"),
        "constructions.lift_vertices": (c["constructions.lift_vertices"], "count"),
        "verify.partition_s": (self_s["verify.partition"], "s"),
        "verify.partition_tuples": (c["verify.partition_tuples"], "count"),
        "verify.coloring_cert_s": (self_s["verify.coloring_cert"], "s"),
        "verify.coloring_tuples": (c["verify.coloring_tuples"], "count"),
        "verify.coloring_edges_s": (self_s["verify.coloring_edges"], "s"),
        "verify.violations": (c["verify.violations"], "count"),
        "bench.self_s": (self_s["bench"], "s"),
        "trace.wall_s": (wall, "s"),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(DESIGN["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not Path(kneser_lab.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported kneser_lab from {kneser_lab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    start = perf_counter()
    untraced: list[tuple[float, Pass]] = []
    traced: list[tuple[float, Pass, Tracer]] = []
    while True:
        use_trace = bool(args.trace) and len(traced) < len(untraced)
        done = traced if use_trace else untraced
        if untraced and (traced or not args.trace):
            predicted = statistics.median(run[0] for run in done)
            if perf_counter() - start + predicted > args.seconds:
                break
        if use_trace:
            tracer = Tracer()
            rec, wall = tracer.run(lambda: one_pass(args.workload, args.seed, False))
            traced.append((wall, rec, tracer))
        else:
            t0 = perf_counter()
            rec = one_pass(args.workload, args.seed, not args.trace)
            untraced.append((perf_counter() - t0, rec))
        gc.collect()
    if not args.trace:
        verifier_rounds(untraced[-1][1], start + args.seconds)

    passes = [run[1] for run in untraced + traced]
    failures = [f for rec in passes for f in rec.failures]
    attempted = sum(rec.attempted for rec in passes)
    if any(rec.nodes != passes[0].nodes for rec in passes):
        failures.append("node counts differ between passes "
                        "(traced and untraced passes included)")

    if args.trace:
        traced.sort(key=lambda run: run[0])
        wall, _, tracer = traced[(len(traced) - 1) // 2]
        metrics = layer_metrics(tracer, wall)
        attributed = sum(tracer.self_times().values())
        if abs(attributed - wall) > 1e-6 * wall:
            failures.append(f"self times sum to {attributed}, traced wall {wall}")
        overhead = (statistics.median(run[0] for run in traced)
                    - statistics.median(run[0] for run in untraced))
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        by_phase = {ph: median_of_ops(passes, ph) for ph in ("answer", "verify", "reject")}
        metrics = {
            "wall_s": (sum(by_phase.values()), "s"),
            "answer_s": (by_phase["answer"], "s"),
            "verify_s": (by_phase["verify"], "s"),
            "reject_s": (by_phase["reject"], "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    report(args.workload, untraced, failures, attempted)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def report(workload: str, untraced, failures: list[str], attempted: int) -> None:
    """Human-readable lines: per-instance answer medians in raw wall seconds,
    solve_s / chi_s / lift_s / search_nodes totals and the failure fraction."""
    passes = [run[1] for run in untraced]
    print(f"{workload}: {len(passes)} untraced passes, "
          f"wall {[round(run[0], 3) for run in untraced]}")
    totals = Counter()
    for inst in DESIGN["workloads"][workload]:
        name = label(inst)
        t = [rec.times[("answer", name)] for rec in passes if ("answer", name) in rec.times]
        med = statistics.median(t) if t else float("nan")
        totals[f"{inst['op']}_s"] += med
        nodes = passes[0].nodes.get(name)
        if nodes is not None:
            totals["search_nodes"] += nodes
        base = inst.get("baseline_nodes")
        print(f"  {name:<24} answer {med:9.4f} wall s  nodes {nodes}  baseline {base}")
    for key, value in sorted(totals.items()):
        unit = "count" if key == "search_nodes" else "wall s"
        print(f"  {key} = {value:.6g} {unit}")
    print(f"  reject violations per pass = {passes[0].violations}")
    print(f"  fail_frac = {len(failures)}/{attempted} ratio")
    for f in failures[:20]:
        print(f"  FAILED {f}")


if __name__ == "__main__":
    sys.exit(main())
