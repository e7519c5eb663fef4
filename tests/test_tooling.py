"""Names that tools outside the library rely on: the benchmark tracer's
wrapped attributes, the package's exports, the CLI's exit codes, the
flags README.md names and what a CLI launch imports."""

import argparse
import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kneser_lab
import kneser_lab.solve as solve
from kneser_lab import cli, constructions, errors, kneser, verify
from kneser_lab.setsys import GroundParams

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_resolve():
    """A rename or deletion of any wrapped name would break `--trace 1`."""
    tracing = load_tracing()
    assert tracing.WRAPS
    for mod, name, layer, _ in tracing.WRAPS:
        module = importlib.import_module(f"kneser_lab.{mod}")
        assert callable(getattr(module, name, None)), (mod, name)
        assert layer in tracing.LAYERS, (mod, name, layer)


def test_traced_pass_counts_nodes_and_restores_names():
    tracing = load_tracing()
    before = solve.min_partition_number
    untraced = before(GroundParams(6, 2, 3))
    tracer = tracing.Tracer()
    traced, wall = tracer.run(lambda: solve.min_partition_number(GroundParams(6, 2, 3)))
    assert solve.min_partition_number is before
    assert traced.nodes == untraced.nodes == tracer.counts["solve.engine.nodes"]
    assert wall >= 0


def bench_calls():
    """One call of each kind the benchmark makes, through the module
    attributes the tracer wraps: solve, chi on KG^r, --stable and --parts,
    a tight partition with its lift and embedding check, and the verifiers.
    Returns the node counts and whether every check passed."""
    p623 = GroundParams(6, 2, 3)
    part = solve.min_partition_number(p623)
    chis = [
        solve.chromatic_number(kneser.build_kneser_hypergraph(p623)),
        solve.chromatic_number(
            kneser.build_stable_subhypergraph(GroundParams(8, 2, 2), 2)),
        solve.chromatic_number(kneser.build_partition_constrained(
            p623, kneser.PartSpec(((1, 2), (3, 4), (5, 6))))),
    ]
    tight = constructions.build_tight_partition(GroundParams(8, 3, 3))
    coloring, bmap = constructions.blow_up(tight)
    reports = [
        constructions.check_stable_embedding(bmap),
        verify.verify_partition_certificate(part.certificate),
        verify.verify_partition_certificate(tight),
        *(verify.verify_coloring_certificate(c.certificate) for c in chis),
        verify.verify_coloring_certificate(coloring),
    ]
    return [part.nodes] + [c.nodes for c in chis], all(r.ok for r in reports)


def test_traced_pass_covers_every_bench_call():
    """Tracing changes no search, and every instance builder the benchmark
    reaches feeds its layer's counter."""
    untraced = bench_calls()
    tracer = load_tracing().Tracer()
    traced, _ = tracer.run(bench_calls)
    nodes, ok = traced
    assert ok and traced == untraced
    assert tracer.counts["solve.engine.nodes"] == sum(nodes)
    assert tracer.counts["solve.engine.calls"] == 4
    assert tracer.counts["kneser.edges"] > 0
    assert tracer.counts["solve.conflict.witnesses"] > 0
    assert tracer.counts["constructions.lift_vertices"] > 0


def test_both_entry_points_certify_in_one_engine_span():
    """min_partition_number and chromatic_number on a conflict hypergraph
    share one certify step: each call is one solve.engine span whose child
    verify.partition re-checks the partition, and only the first builds
    its conflict hypergraph inside the span."""
    p = GroundParams(6, 2, 3)
    tracer = load_tracing().Tracer()
    tracer.run(lambda: (solve.min_partition_number(p),
                        solve.chromatic_number(solve.build_conflict_hypergraph(p))))
    spans = tracer.spans
    engines = [i for i, (layer, _, _) in enumerate(spans) if layer == "solve.engine"]
    assert len(engines) == 2
    children = [sorted(layer for layer, parent, _ in spans if parent == i)
                for i in engines]
    assert children == [["solve.conflict", "verify.partition"], ["verify.partition"]]


def test_bench_passes_run_against_the_library(monkeypatch):
    """passes.py calls the library by name and keyword (SolveBudget's
    fields, blow_up's pair, the builders and verifiers); a rename there
    would make every bench op fail.  Build the budget of every ladder
    search and run each runner once on a small instance."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_passes",
                                                  PERFBENCH / "passes.py")
    passes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(passes)
    for ladder in passes.DESIGN["workloads"].values():
        for inst in ladder:
            if inst["op"] != "lift":
                budget = passes.budget(inst)
                assert isinstance(budget, solve.SolveBudget)
                assert budget.proof_cap == inst["proof_cap"]
    small = [
        {"op": "solve", "n": 6, "k": 2, "r": 3, "proof_cap": 15},
        {"op": "chi", "n": 6, "k": 2, "r": 3, "proof_cap": 15},
        {"op": "chi", "n": 8, "k": 2, "r": 2, "s": 2, "proof_cap": 20},
        {"op": "chi", "n": 6, "k": 2, "r": 3, "parts": [[1, 2], [3, 4], [5, 6]],
         "proof_cap": 12},
        {"op": "lift", "n": 6, "k": 2, "r": 3},
    ]
    assert {inst["op"] for inst in small} == set(passes.RUNNERS)
    rec = passes.Pass(steady=False)
    for i, inst in enumerate(small):
        passes.RUNNERS[inst["op"]](rec, inst, passes.random.Random(i))
    assert rec.failures == []
    assert rec.attempted == 4 * 3 + 5  # answer, verify and reject; a lift checks two


def test_package_exports_resolve():
    """A deleted or renamed name must leave __all__ with it."""
    names = kneser_lab.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [name for name in names if not hasattr(kneser_lab, name)]
    assert not missing
    namespace = {}
    exec("from kneser_lab import *", namespace)
    assert set(names) <= set(namespace)


# the exit codes the CLI documents; SoundnessError signals a bug, not bad
# input, so it is left to surface as a traceback
EXIT_CODES = {
    errors.InvalidParams: 2,
    errors.InvalidPartSpec: 2,
    errors.InadmissibleParams: 2,
    errors.MalformedCertificate: 2,
    errors.InvalidCertificate: 1,
    errors.LengthMismatch: 1,
    errors.CapExceeded: 4,
    errors.InstanceTooLarge: 4,
    errors.VerifyTimeout: 3,
}


def test_exit_codes_cover_every_error():
    subclasses = set(errors.KneserLabError.__subclasses__())
    assert subclasses - {errors.SoundnessError} == set(EXIT_CODES)


@pytest.mark.parametrize("exc, code", EXIT_CODES.items(),
                         ids=lambda x: getattr(x, "__name__", str(x)))
def test_error_maps_to_its_exit_code(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc("stub")

    monkeypatch.setitem(cli._DISPATCH, "bound", fail)
    assert cli.main(["bound", "6", "2", "3"]) == code
    out, err = capsys.readouterr()
    assert err.startswith("error: stub")
    assert "Traceback" not in out + err


def parser_options(parser):
    """Every option string of parser and of its subcommands' parsers."""
    out = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= parser_options(sub)
    return out


# flags README.md names only to say they are gone
REMOVED_FLAGS = {"--workers", "--proof-cap"}


def test_readme_flags_exist():
    """A flag README.md names outside its install block is an option of
    some subcommand, unless the README says it was removed."""
    text = (ROOT / "README.md").read_text()
    text = re.sub(r"## Install\n.*?```.*?```", "", text, count=1, flags=re.S)
    named = set(re.findall(r"--[a-z][a-z-]*", text))
    options = parser_options(cli.build_parser())
    assert "--no-build-isolation" not in named
    assert named - REMOVED_FLAGS <= options, named - REMOVED_FLAGS - options
    assert not REMOVED_FLAGS & options


def test_cli_import_loads_no_process_pool():
    """Every solve runs in the calling process, so a CLI launch, which
    setup_s times, need not import multiprocessing."""
    src = os.path.dirname(os.path.dirname(kneser_lab.__file__))
    script = "import sys, kneser_lab.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# imported only to be bound in the module: the tracer's WRAPS wraps
# constructions.build_partition_constrained and solve.verify_coloring from
# outside
UNUSED_IMPORTS_KEPT = {("constructions", "build_partition_constrained"),
                       ("solve", "verify_coloring")}


def test_library_imports_are_used():
    """Every name a library module imports is used in it, so a helper's
    import does not outlive the helper.  __init__.py imports to export."""
    unused = []
    for path in sorted((ROOT / "src" / "kneser_lab").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, name, line) for name, line in imported.items()
                   if name not in used and (path.stem, name) not in UNUSED_IMPORTS_KEPT]
    assert not unused


# the budget fields kept only for the benchmark's design.json, each with the
# (module, function) pairs allowed to read it
INERT_BUDGET_FIELDS = {"proof_cap": set(),
                       "workers": {("solve", "SolveBudget.__post_init__")}}


def test_inert_budget_fields_are_not_read():
    """No library code reads SolveBudget.proof_cap, and only the budget's
    own check reads workers, so neither field can change a search."""
    reads = []

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Attribute)
                    and child.attr in INERT_BUDGET_FIELDS
                    and (module, scope) not in INERT_BUDGET_FIELDS[child.attr]):
                reads.append((module, scope, child.attr, child.lineno))
            walk(child, module, inner)

    for path in sorted((ROOT / "src" / "kneser_lab").glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    assert not reads


# what verify.py may import from its own package: anything from errors, the
# family record and the size guard from setsys (not its enumeration or its
# stability test, which the generators use), and, inside a function only,
# the certificate classes it checks; None admits every name
VERIFY_SIBLINGS = {"errors": None, "setsys": {"SetFamily", "guard_subsets"}}
VERIFY_LOCAL = {"constructions": {"PartitionCertificate", "ColoringCertificate"}}


def verify_import_faults(source: str) -> list[tuple[str, str | None, int]]:
    """(sibling module, name, line) of every import in source that would let
    the verifiers share code with the generators: anything from kneser or
    solve, a `_`-private name, or a sibling or name outside the allowed set."""
    tree = ast.parse(source)
    local = {id(node) for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)}
    found = []  # (sibling, name or None, node)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, sub = alias.name.partition(".")
                if head == "kneser_lab":
                    found.append((sub or head, None, node))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                head, _, module = module.partition(".")
                if head != "kneser_lab":
                    continue
            for alias in node.names:
                found.append((module, alias.name, node) if module
                             else (alias.name, None, node))
    faults = []
    for module, name, node in found:
        private = name is not None and name.startswith("_")
        names = VERIFY_SIBLINGS.get(module, ())
        allowed = names is None or name in names or (
            id(node) in local and name in VERIFY_LOCAL.get(module, ()))
        if private or not allowed:
            faults.append((module, name, node.lineno))
    return faults


def test_verify_imports_nothing_from_the_generators():
    """verify.py re-derives every property with code of its own."""
    source = (ROOT / "src" / "kneser_lab" / "verify.py").read_text()
    assert verify_import_faults(source) == []
    for bad in ["from .kneser import Hypergraph",
                "from kneser_lab.solve import EXACT",
                "import kneser_lab.kneser",
                "from . import solve",
                "from .setsys import _colex",
                "from .setsys import is_s_stable",
                "from .setsys import enumerate_k_subsets",
                "from .constructions import ColoringCertificate",
                "def f():\n    from .constructions import blow_up"]:
        assert verify_import_faults(bad), bad
    assert not verify_import_faults(
        "from .errors import InvalidParams\n"
        "def f():\n    from .constructions import PartitionCertificate")
