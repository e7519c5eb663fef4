"""kneser-lab benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload search-hyper --seed 1 --seconds 40 --trace 0

Workloads and instances are in perfbench/design.json.  The run
  1. times fresh interpreters: with --trace 0 running `kneser-lab bound 6 2 3`
     to its printed answer (setup_s, in nominal seconds, see hostspeed.py),
     with --trace 1 importing kneser_lab.cli (cli.import_s); the median of
     several launches counts;
  2. runs the workload's passes in a fresh process (passes.py) for --seconds,
     so the peak RSS it reports is that workload's alone;
  3. prints, as its last line, one JSON object with the keys correct,
     attempted, failed and metrics: the end-to-end metrics with --trace 0,
     the per-layer metrics with --trace 1.

The package is imported from src/ of the checkout; the run fails without it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DESIGN = json.loads((HERE / "design.json").read_text())
LIMIT_S = 175  # a run must end within 180 s

SETUP_CODE = "import sys; from kneser_lab.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_CODE = (
    "from time import perf_counter; t0 = perf_counter(); import kneser_lab.cli; "
    "print(perf_counter() - t0)"
)


def expected_bound_line(n: int, k: int, r: int) -> str:
    """`kneser-lab bound n k r` output, from the closed forms."""
    m = -(-((r - 1) * n - r * (k - 1)) // (r - 1))
    s = (r * k - 1) // (r - 1)
    return f"m={m} s={s} (n-s+1={n - s + 1}, admissible)"


def launch(argv: list[str], env: dict) -> tuple[float, str]:
    t0 = perf_counter()
    out = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    elapsed = perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{argv[:3]} exited {out.returncode}: {out.stderr.strip()}")
    return elapsed, out.stdout.strip()


def fresh_interpreters(trace: bool, env: dict) -> tuple[str, float, str | None]:
    """Median seconds over fresh launches, and a problem with their output."""
    launches = DESIGN["setup_launches"]
    if trace:
        argv = [sys.executable, "-c", IMPORT_CODE]
        launch(argv, env)  # fills __pycache__ in a fresh checkout
        times = [float(launch(argv, env)[1]) for _ in range(launches)]
        return "cli.import_s", statistics.median(times), None
    cmd = DESIGN["setup_command"]
    want = expected_bound_line(*map(int, cmd[1:]))
    argv = [sys.executable, "-c", SETUP_CODE, *cmd]
    launch(argv, env)
    times, wrong = [], []
    meter = hostspeed.Meter()
    for _ in range(launches):
        (_, out), _, nominal = meter.time(lambda: launch(argv, env), 0.0, 1.0)
        times.append(nominal)
        if out != want:
            wrong.append(out)
    problem = f"setup printed {wrong[0]!r}, expected {want!r}" if wrong else None
    return "setup_s", statistics.median(times), problem


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(DESIGN["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        ap.error("--seconds must be between 1 and 120")

    if not (ROOT / "src" / "kneser_lab" / "__init__.py").is_file():
        print(f"error: no kneser_lab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = perf_counter()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    try:
        name, value, problem = fresh_interpreters(bool(args.trace), env)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: fresh interpreter: {exc}", file=sys.stderr)
        return 1

    cmd = [sys.executable, str(HERE / "passes.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        child = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                               timeout=LIMIT_S - (perf_counter() - start))
    except subprocess.TimeoutExpired:
        print("error: the passes did not finish in time", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"error: passes exited {child.returncode}:\n{child.stderr}", file=sys.stderr)
        return 1

    *lines, last = child.stdout.rstrip("\n").split("\n")
    result = json.loads(last)
    result["metrics"][name] = {"value": value, "unit": "s"}
    if problem:
        result["correct"] = False
        lines.append(f"  FAILED {problem}")
    print("\n".join(lines))
    print(f"  {name} = {value:.6g} s (median of {DESIGN['setup_launches']} launches)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
