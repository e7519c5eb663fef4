"""Names that tools outside the library rely on: the benchmark tracer's
wrapped attributes, the package's exports and the CLI's exit codes."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import kneser_lab
import kneser_lab.solve as solve
from kneser_lab import cli, constructions, errors, kneser, verify
from kneser_lab.setsys import GroundParams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
