"""End-to-end command line behavior, including exit codes and file round trips."""

import contextlib
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneser_lab import verify
from kneser_lab.cli import main
from kneser_lab.constructions import (
    ColoringCertificate,
    blow_up,
    build_tight_partition,
)
from kneser_lab.setsys import GroundParams

from oracle import hilton_milner_partition


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_examples():
    """Each `$ kneser-lab ...` line of README.md's code blocks with the
    output lines under it, except where the output is elided with '...'."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", text, re.S | re.M):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ kneser-lab "):
                command, *output = chunk.rstrip("\n").split("\n")
                if "..." not in output:
                    argv = shlex.split(command[len("$ kneser-lab "):], comments=True)
                    examples.append((argv, output))
    return examples


def test_readme_examples_print_what_they_show(tmp_path, monkeypatch, capsys):
    """Every README example whose output is shown in full prints exactly
    that output, with millis= masked; they run in order in one directory,
    since construct, verify and blowup read and write files."""
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    shown = {" ".join(argv) for argv, _ in examples}
    assert {"bound 6 2 3", "solve 6 2 3", "chi 6 2 3", "chi 8 2 2 --stable 2",
            "chi 6 2 3 --parts 1,2/3,4/5,6"} <= shown
    for argv, output in examples:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        got = re.sub(r"millis=\d+", "millis=*", out).splitlines()
        assert got == [re.sub(r"millis=\d+", "millis=*", line) for line in output], argv


def test_bound_text(capsys):
    code, out, _ = run(capsys, "bound", "6", "2", "3")
    assert code == 0
    assert "m=5 s=2" in out


def test_bound_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "bound", "6", "2", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 6, "k": 2, "r": 3, "m": 5, "s": 2, "n_minus_s_plus_1": 5}


def test_bound_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "bound", "5", "2", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["m"] == "3" and rows[0]["s"] == "3"


def test_bound_inadmissible_exits_2(capsys):
    code, _, err = run(capsys, "bound", "2", "2", "3")
    assert code == 2
    assert "inadmissible" in err


def test_bad_params_exit_2(capsys):
    code, _, err = run(capsys, "bound", "2", "3", "2")  # k > n
    assert code == 2
    assert "error" in err


def test_construct_prints_the_certificate_without_out(capsys):
    code, out, _ = run(capsys, "construct", "4", "2", "3")
    assert code == 0
    assert json.loads(out) == build_tight_partition(GroundParams(4, 2, 3)).to_dict()


def test_construct_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "partition.json"
    code, out, _ = run(capsys, "construct", "5", "2", "2", "-o", str(path))
    assert code == 0
    assert "3 families" in out
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out.startswith("ok")


def test_certificate_files_hold_one_family_per_line(tmp_path, capsys):
    """A certificate file has one top-level key per line and each family,
    or the whole color list, on one line, and it verifies."""
    path = tmp_path / "partition.json"
    assert run(capsys, "construct", "8", "3", "3", "-o", str(path))[0] == 0
    lines = path.read_text().splitlines()
    doc = json.loads(path.read_text())
    rows = lines[lines.index('  "families": [') + 1:-2]
    assert [json.loads(row.rstrip(",")) for row in rows] == doc["families"]
    assert len(lines) == 8 + len(doc["families"]) and len(rows) == 5
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.startswith("ok")

    lift = tmp_path / "coloring.json"
    assert run(capsys, "blowup", str(path), "-o", str(lift))[0] == 0
    lines = lift.read_text().splitlines()
    doc = json.loads(lift.read_text())
    assert '  "colors": ' + json.dumps(doc["colors"]) in lines
    assert len(lines) == 9 + len(doc["parts"])  # a line per block, too
    assert run(capsys, "verify", str(lift))[0] == 0


def test_verify_catches_tampering(tmp_path, capsys):
    path = tmp_path / "partition.json"
    run(capsys, "construct", "5", "2", "2", "-o", str(path))
    doc = json.loads(path.read_text())
    doc["families"][0].pop()  # drop one subset: coverage now fails
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAILED" in out


def test_verify_text_states_edge_total(tmp_path, capsys):
    """The text summary lists five records but states the exact total."""
    coloring, _ = blow_up(build_tight_partition(GroundParams(8, 2, 3)))
    doc = coloring.to_dict()
    doc["colors"] = [max(c - 1, 0) for c in doc["colors"]]  # merge classes 0, 1
    path = tmp_path / "merged.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out.startswith("FAILED") and "(+16 more)" in out
    assert out.rstrip().endswith("; 5808 monochromatic edges)")
    code, out, _ = run(capsys, "--format", "json", "verify", str(path))
    assert code == 1
    assert json.loads(out)["stats"]["disjoint_tuples"] == 5808


def test_verify_timeout_exits_3(tmp_path, capsys):
    """The 9-subsets of [18] as HM(18,9) and stars are a valid partition,
    and the witness search over HM(18,9), about 295 M chains (estimated),
    takes longer than 0.5 s: with no violation recorded by then, --timeout
    stops the search and exits 3.  All 7,920 vertices of the (12,4,3) lift
    in one class have no cover and take about 29 s to walk, but the walk
    records a monochromatic edge at once, so past the limit the check is
    FAILED.  A check that finishes in time prints what it prints without
    the flag, for a coloring and for a partition."""
    valid = tmp_path / "valid.json"
    valid.write_text(json.dumps(hilton_milner_partition(18, 9).to_dict()))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "--timeout", "0.5", str(valid))
    assert time.perf_counter() - t0 < 5
    assert code == 3 and out == ""
    assert err.startswith("error: check did not finish")
    cert = build_tight_partition(GroundParams(12, 4, 3))
    coloring, _ = blow_up(cert)
    hostile = tmp_path / "one-class.json"
    doc = coloring.to_dict()
    doc["colors"] = [0] * len(doc["colors"])
    hostile.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "--timeout", "0.5", str(hostile))
    assert time.perf_counter() - t0 < 5
    assert code == 1 and out.startswith("FAILED") and err == ""
    for name, doc in (("coloring.json", coloring.to_dict()),
                      ("partition.json", cert.to_dict())):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        assert run(capsys, "verify", "--timeout", "60", str(path)) \
            == run(capsys, "verify", str(path))
        assert run(capsys, "verify", str(path))[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--timeout", "0", str(hostile)])
    assert exc.value.code == 2


def test_verify_timeout_with_no_edge_found_exits_3(tmp_path, monkeypatch, capsys):
    """On KG^3(6,2), class 0 is the six edges of the triangles {1,2,3} and
    {4,5,6}, and every other pair joins the star of its least point: class 0
    has no cover and no 3 disjoint members, so a walk stopped at once has
    no edge to report and the check exits 3."""
    triangles = {(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)}
    colors = [0 if (a, b) in triangles else a
              for b in range(2, 7) for a in range(1, b)]  # colex order
    path = tmp_path / "triangles.json"
    cert = ColoringCertificate(ground_n=6, k=2, r=3, colors=tuple(colors))
    path.write_text(json.dumps(cert.to_dict()))
    assert run(capsys, "verify", str(path))[0] == 0
    monkeypatch.setattr(verify, "CLOCK_STRIDE", 0)
    code, out, err = run(capsys, "verify", "--timeout", "1e-9", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: check did not finish")


def test_verify_timeout_keeps_a_known_violation(tmp_path, capsys):
    """A deadline that passes after a violation is recorded ends the check
    FAILED (exit 1) with what it has, the count marked as a lower bound.
    The (7,4,4) lift with its two largest classes merged has 2,430 vertices
    in one class and records a disjoint 4-tuple at once; the (18,9,2)
    partition with a member of family 0 also put in family 1 records the
    duplicate before any witness search.  Both exited 3."""
    coloring, _ = blow_up(build_tight_partition(GroundParams(7, 4, 4)))
    doc = coloring.to_dict()
    sizes = Counter(doc["colors"])
    keep, gone = sorted(sizes, key=lambda c: (-sizes[c], c))[:2]
    labels = {c: i for i, c in enumerate(c for c in sorted(sizes) if c != gone)}
    labels[gone] = labels[keep]
    doc["colors"] = [labels[c] for c in doc["colors"]]
    merged = tmp_path / "merged.json"
    merged.write_text(json.dumps(doc))
    doc = build_tight_partition(GroundParams(18, 9, 2)).to_dict()
    doc["families"][1].append(doc["families"][0][0])
    duplicated = tmp_path / "duplicated.json"
    duplicated.write_text(json.dumps(doc))
    for path, says in ((merged, r"; at least \d+ monochromatic edges\)$"),
                       (duplicated, "appears in family 0 and family 1")):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", "--timeout", "0.5", str(path))
        assert time.perf_counter() - t0 < 5, path
        assert code == 1 and out.startswith("FAILED") and err == "", path
        assert re.search(says, out.rstrip()), out
        code, out, _ = run(capsys, "--format", "json", "verify", "--timeout",
                           "0.5", str(path))
        doc = json.loads(out)
        assert code == 1 and not doc["ok"] and doc["stats"]["complete"] is False


def test_verify_text_states_uncovered_total(tmp_path, capsys):
    path = tmp_path / "partition.json"
    run(capsys, "construct", "8", "2", "3", "-o", str(path))
    doc = json.loads(path.read_text())
    for fi in (0, 1):  # sizes 7 and 6: drop 6 + 5 members
        doc["families"][fi] = doc["families"][fi][:1]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "(+6 more)" in out
    assert out.rstrip().endswith("into 7 families; 11 subsets uncovered)")


def test_verify_malformed_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"format": "kneser-lab/1"}))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "error" in err


def test_not_json_exits_2(tmp_path, capsys):
    text = tmp_path / "text.json"
    text.write_text("{not json")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for command in ("verify", "blowup"):
        for path in (text, binary):
            code, _, err = run(capsys, command, str(path))
            assert code == 2, (command, path.name)
            assert "not a JSON document" in err


@pytest.mark.parametrize("flags", [
    ("--timeout", "-1"),
    ("--timeout", "0"),
    ("--max-nodes", "0"),
])
def test_bad_budget_flags_exit_2(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "5", "2", "2", *flags])
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "5", "2", "2"],
    ["chi", "5", "2", "2"],
    ["table"],
])
def test_removed_workers_flag_exits_2(capsys, argv):
    """Every solve is one search, with no cap on the instances it tries;
    the old flags for both are unknown arguments."""
    for flag in ("--workers", "--proof-cap"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "2"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert f"unrecognized arguments: {flag} 2" in err
        assert "Traceback" not in out + err


def test_verify_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == 2


def test_solve_exact(capsys):
    code, out, _ = run(capsys, "solve", "5", "2", "2")
    assert code == 0
    assert "EXACT value=3" in out


def test_solve_writes_result_file(tmp_path, capsys):
    path = tmp_path / "result.json"
    code, _, _ = run(capsys, "solve", "6", "2", "3", "-o", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["status"] == "EXACT" and doc["upper"] == 5
    assert doc["certificate"]["format"] == "kneser-lab/1"


@pytest.mark.parametrize(
    "command",
    [["solve", "6", "2", "3"], ["chi", "6", "2", "3", "--parts", "1,2/3,4/5,6"]],
    ids=["solve", "chi-parts"],
)
def test_result_file_verifies(tmp_path, capsys, command):
    """verify and blowup read the certificate inside a -o result document."""
    path = tmp_path / "result.json"
    assert run(capsys, *command, "-o", str(path))[0] == 0
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.startswith("ok")
    if command[0] == "solve":
        code, out, _ = run(capsys, "blowup", str(path))
        assert code == 0 and "stable embedding ok" in out


def test_result_without_certificate_exits_2(tmp_path, capsys):
    path = tmp_path / "result.json"
    run(capsys, "solve", "5", "2", "2", "-o", str(path))
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(dict(doc, certificate=None)))
    for command in ("verify", "blowup"):
        code, _, err = run(capsys, command, str(path))
        assert code == 2 and "without a certificate" in err, command


def test_solve_timeout_exits_3(capsys):
    code, out, _ = run(capsys, "solve", "7", "2", "2", "--max-nodes", "1")
    assert code == 3
    assert "TIMEOUT" in out


def test_chi_timeout_counts_the_build(monkeypatch, capsys):
    """chi reads the clock before it builds the hypergraph: a build that
    takes longer than --timeout leaves the search no budget, so SG(10,3),
    which needs thousands of nodes, stops at its first node, and millis
    includes the build."""
    from kneser_lab import cli

    build = cli.build_stable_subhypergraph

    def slow(p, s):
        time.sleep(1.1)
        return build(p, s)

    monkeypatch.setattr(cli, "build_stable_subhypergraph", slow)
    code, out, _ = run(capsys, "chi", "10", "3", "2", "--stable", "2",
                       "--timeout", "1")
    assert code == 3 and out.startswith("TIMEOUT"), out
    assert re.search(r" nodes=1 ", out), out
    assert int(re.search(r"millis=(\d+)", out).group(1)) >= 1100


def cli_process(*argv):
    """The CLI run in a fresh process on this checkout's sources: its
    completed process and its wall time."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-m", "kneser_lab.cli", *argv],
                         env=env, capture_output=True, text=True, timeout=60)
    return out, time.monotonic() - t0


@pytest.mark.parametrize("n", [17, 20])
def test_chi_kg3_set_up_fits_the_budget(n):
    """KG^3(17,3) and KG^3(20,3) have 6.8 M and 47 M edges.  chi lists none
    of them, so a fresh process builds its tables within a 1 s budget and
    the search stops at the deadline with its bracket, exit 3."""
    out, wall = cli_process("chi", str(n), "3", "3", "--timeout", "1")
    assert out.returncode == 3 and out.stdout.startswith("TIMEOUT"), out
    assert "Traceback" not in out.stderr and wall < 4, wall


def test_chi_kg4_refused_before_listing():
    """KG^4(16,3) has 28,028,000 edges, past MAX_EDGES.  chi reads the
    count off the closed form and exits 4 at once, listing none."""
    out, wall = cli_process("chi", "16", "3", "4")
    assert out.returncode == 4, out
    assert "28028000 edges, over the limit 10000000" in out.stderr, out.stderr
    assert "Traceback" not in out.stderr and wall < 2, wall


@pytest.mark.parametrize("argv, head", [
    (("solve", "16", "8", "9"), "TIMEOUT lower=2 upper=12870 nodes=0 "),
    (("chi", "30", "2", "8", "--stable", "2"), "TIMEOUT lower=1 upper=405 nodes=0 "),
], ids=["solve-16-8-9", "chi-30-2-8-stable"])
def test_greedy_stops_at_the_deadline(argv, head):
    """Greedy alone takes far longer than the budget on both: (16,8,9) has
    12,870 vertices and witnesses of up to 9 members, and on the 2-stable
    KG^8(30,2), with 405 vertices, one assignment can walk chains of 6
    disjoint class members for seconds.  Greedy reads the clock every 256
    vertices, and the chain walk before it grows a chain, so each run
    stops with the bracket known without search: the clique below (1
    where no constraint is a pair), every vertex in its own class above."""
    out, wall = cli_process(*argv, "--timeout", "1")
    assert out.returncode == 3, out
    assert out.stdout.startswith(head), out.stdout
    assert "Traceback" not in out.stderr and wall < 4, wall


@pytest.mark.parametrize("argv", [("30", "3", "12"), ("60", "2", "40")])
def test_edgeless_kneser_needs_no_search(argv):
    """KG^12(30,3) and KG^40(60,2) have no edge, since r*k passes n: the
    rule gives the engine nothing to walk, so chi proves 1 color at once."""
    out, wall = cli_process("chi", *argv, "--timeout", "1")
    assert out.returncode == 0 and out.stdout.startswith("EXACT value=1 "), out
    assert "Traceback" not in out.stderr and wall < 2, wall


def test_solve_9_6_6_is_exact(capsys):
    """(9,6,6) has witnesses of up to 6 members; the engine reads them off
    the point masks, lists none, and proves 3 in 67 nodes."""
    code, out, _ = run(capsys, "solve", "9", "6", "6")
    assert code == 0 and out.startswith("EXACT value=3 nodes=67 "), out


def test_closed_bracket_exits_0_whatever_the_budget(capsys):
    """The edge proves 2 classes and greedy finds 2, so the node budget
    that stops the cross-check one class below leaves the result EXACT."""
    code, out, _ = run(capsys, "chi", "6", "2", "3", "--max-nodes", "1")
    assert code == 0
    assert out.startswith("EXACT value=2")


@pytest.mark.parametrize("flags, code, head", [
    ([], 0, "EXACT value=9"),
    (["--max-nodes", "1"], 3, "TIMEOUT lower=5 upper=9"),
])
def test_solve_searches_past_forty_vertices(capsys, flags, code, head):
    """(10,2,3) has 45 vertices.  With no flags the search proves its
    value; --max-nodes 1 stops the first search at once, which leaves the
    bracket of the clique below and greedy above, and exits 3."""
    got, out, _ = run(capsys, "solve", "10", "2", "3", *flags)
    assert got == code
    assert out.startswith(head), out


def test_table_searches_every_row(capsys):
    """Rows of 45 and 55 vertices are searched to EXACT, so they agree."""
    code, out, _ = run(capsys, "--format", "json", "table", "--r", "3",
                       "--k", "2", "--n", "10..11")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(row["solver_status"], row["solver_value"]) for row in rows] == [
        ("EXACT", 9), ("EXACT", 10)]


def test_chi_plain(capsys):
    code, out, _ = run(capsys, "chi", "6", "2", "3")
    assert code == 0
    assert "EXACT value=2" in out


def test_chi_prints_a_library_warning_as_one_line(capsys):
    code, out, err = run(capsys, "chi", "4", "2", "3")
    assert code == 0
    assert out.startswith("EXACT value=1 nodes=0 ")
    assert err == "warning: n=4 < r*k=6: Kneser hypergraph has no edges\n"


def test_chi_stable(capsys):
    code, out, _ = run(capsys, "chi", "6", "2", "2", "--stable", "2")
    assert code == 0
    assert "EXACT value=4" in out


def test_chi_without_vertices_writes_a_certificate_that_verifies(tmp_path, capsys):
    """No 2-subset of [4] is 3-stable: 0 colors at no node, and the empty
    coloring certificate passes verify."""
    result = tmp_path / "result.json"
    code, out, _ = run(capsys, "chi", "4", "2", "2", "--stable", "3", "-o", str(result))
    assert code == 0
    assert out.startswith("EXACT value=0 nodes=0 ")
    assert json.loads(result.read_text())["certificate"]["colors"] == []
    code, out, _ = run(capsys, "verify", str(result))
    assert (code, out) == (0, "ok (coloring with 0 colors on ground 4)\n")


def test_chi_parts(capsys):
    code, out, _ = run(capsys, "chi", "6", "2", "3", "--parts", "1,2/3,4/5,6")
    assert code == 0
    assert "EXACT value=2" in out


def test_chi_bad_parts_exit_2(capsys):
    code, _, err = run(capsys, "chi", "6", "2", "3", "--parts", "1,2/xx")
    assert code == 2
    code, _, err = run(capsys, "chi", "6", "2", "3", "--parts", "1,2/3,4")
    assert code == 2  # blocks must cover the ground set


def test_ground_cap_exits_4(capsys):
    code, _, err = run(capsys, "chi", "70", "2", "2")
    assert code == 4
    assert "error" in err


def test_blowup_pipeline(tmp_path, capsys):
    src = tmp_path / "partition.json"
    out_path = tmp_path / "coloring.json"
    run(capsys, "construct", "4", "2", "3", "-o", str(src))
    code, out, _ = run(capsys, "blowup", str(src), "-o", str(out_path))
    assert code == 0
    assert "3 colors on 24 vertices" in out
    assert "stable embedding ok" in out
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 0
    assert out.startswith("ok")


def test_blowup_pipeline_10_3_3(tmp_path, capsys):
    # 960 lifted vertices on ground 20, past the old edge cap
    src = tmp_path / "partition.json"
    out_path = tmp_path / "coloring.json"
    assert run(capsys, "construct", "10", "3", "3", "-o", str(src))[0] == 0
    code, out, _ = run(capsys, "blowup", str(src), "-o", str(out_path))
    assert code == 0
    assert "7 colors on 960 vertices (ground 20)" in out
    code, out, _ = run(capsys, "verify", str(out_path))
    assert code == 0
    assert out.startswith("ok")


def test_blowup_rejects_coloring_input(tmp_path, capsys):
    src = tmp_path / "partition.json"
    col = tmp_path / "coloring.json"
    run(capsys, "construct", "4", "2", "3", "-o", str(src))
    run(capsys, "blowup", str(src), "-o", str(col))
    code, _, err = run(capsys, "blowup", str(col))
    assert code == 2
    assert "partition certificate" in err


def test_table_default_all_agree(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert out.splitlines()[0] == (
        "n,k,r,tight_bound,solver_status,solver_value,"
        "construction_families,agree,nodes,millis"
    )
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 12
    assert all(row["agree"] == "True" for row in rows)
    assert all(
        row["tight_bound"] == row["solver_value"] == row["construction_families"]
        for row in rows
    )


def test_table_json_explicit_range(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "table", "--r", "2", "--k", "2", "--n", "4..6"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_agree"] is True
    assert [row["n"] for row in doc["rows"]] == [4, 5, 6]
    assert [row["tight_bound"] for row in doc["rows"]] == [2, 3, 4]
    assert [row["nodes"] for row in doc["rows"]] == [0, 1, 2]
    assert all(
        isinstance(row["millis"], int) and row["millis"] >= 0 for row in doc["rows"]
    )


def test_table_row_left_open_exits_1(capsys):
    """A row whose search stops at its first node keeps the bracket of the
    clique and greedy, and does not agree with the closed form."""
    code, out, _ = run(capsys, "table", "--r", "3", "--k", "2", "--n", "10..10",
                       "--max-nodes", "1")
    assert code == 1
    assert out.splitlines()[1].startswith("10,2,3,9,TIMEOUT,5:9,9,False,")


def test_table_bad_range_exits_2(capsys):
    code, _, err = run(capsys, "table", "--r", "x")
    assert code == 2


def test_table_empty_range_exits_2(capsys):
    assert run(capsys, "table", "--n", "5..3") == (2, "", "error: empty range '5..3'\n")


@pytest.mark.parametrize("n_range", ["2..3", "3..5"])
def test_table_with_no_admissible_row_exits_2(capsys, n_range):
    """Every n below k, or every row with r*k > (r-1)*n: the grid used to
    print no rows and report all_agree true, a vacuous agreement."""
    code, out, err = run(capsys, "--format", "json", "table", "--r", "2",
                         "--k", "3", "--n", n_range)
    assert code == 2 and out == ""
    assert err == "error: no admissible (n, k, r) in the grid\n"


def test_table_writes_csv_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    argv = ["table", "--r", "2", "--k", "2", "--n", "4..6"]
    code, out, _ = run(capsys, *argv, "-o", str(path))
    assert (code, out) == (0, f"wrote {path}: 3 rows, all_agree=True\n")
    code, shown, _ = run(capsys, *argv)
    assert code == 0
    def rows(text):  # millis masked
        return [re.sub(r",\d+$", ",*", line) for line in text.splitlines()]

    assert rows(path.read_text()) == rows(shown)
    assert [row["n"] for row in csv.DictReader(io.StringIO(shown))] == ["4", "5", "6"]


def test_table_out_summary_follows_format(tmp_path, capsys):
    """With -o, table prints its summary in --format, as construct does."""
    path = tmp_path / "table.json"
    code, out, _ = run(capsys, "--format", "json", "table", "--r", "2..2",
                       "--k", "1..1", "-o", str(path))
    assert code == 0
    assert json.loads(out) == {"out": str(path), "rows": 2, "all_agree": True}
    assert len(json.loads(path.read_text())["rows"]) == 2


@pytest.mark.parametrize("r_range, extra, low", [
    ("1", [], 1),
    ("0", [], 0),
    ("-3", [], -3),
    ("1", ["--n", "4..6"], 1),
    ("1..3", [], 1),
])
def test_table_r_below_two_exits_2(capsys, r_range, extra, low):
    """r = 1 used to divide by zero (a traceback and exit 1, the code for a
    failed check), and r <= 0 printed an empty table and exited 0."""
    code, out, err = run(capsys, "table", "--r", r_range, *extra)
    assert code == 2 and out == ""
    assert err == f"error: need r >= 2, got r={low}\n"


@pytest.mark.parametrize("span", ["0", "-1"])
def test_table_span_below_one_exits_2(capsys, span):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--span", span])
    assert exc.value.code == 2
    assert "--span" in capsys.readouterr().err


@pytest.mark.parametrize("argv, msg", [
    (["--n", "1..99999999999"], "ground set size 99999999999 exceeds cap 64"),
    (["--k", "1..99999999999"], "k=99999999999 exceeds cap 64"),
    (["--span", "99999999999"], "ground set size 100000000004 exceeds cap 64"),
    (["--r", "2", "--k", "3", "--span", "60"], "ground set size 65 exceeds cap 64"),
    (["--k", "64..65", "--n", "4"], "k=65 exceeds cap 64"),
    (["--r", "2..99999999999", "--k", "1", "--span", "1"],
     "r=99999999999 exceeds cap 64"),
])
def test_table_past_the_ground_cap_exits_4_fast(capsys, argv, msg):
    """Ranges are lazy and checked before any row is solved: these used to
    die with a MemoryError traceback, or would have solved every row up to
    the cap first."""
    start = time.monotonic()
    code, out, err = run(capsys, "table", *argv)
    assert time.monotonic() - start < 1
    assert code == 4 and out == ""
    assert err == f"error: {msg}\n"


@pytest.mark.parametrize("field,value", [
    ("s", 0),
    ("s", -5),
    ("parts", [[1], [2], [3], [4], [5], [6], [99], [1]]),
])
def test_verify_bad_coloring_descriptor_exits_2(tmp_path, capsys, field, value):
    result = tmp_path / "result.json"
    run(capsys, "chi", "6", "2", "2", "-o", str(result))
    doc = json.loads(result.read_text())["certificate"]  # a KG(6,2) 4-coloring
    path = tmp_path / "coloring.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(path))[0] == 0
    doc[field] = value
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "bad descriptor" in err


def test_repeat_invocations_identical(tmp_path, capsys):
    _, first, _ = run(capsys, "bound", "9", "3", "2")
    _, second, _ = run(capsys, "bound", "9", "3", "2")
    assert first == second
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "construct", "6", "2", "3", "-o", str(a))
    run(capsys, "construct", "6", "2", "3", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


_HUGE_PARTITION = {"format": "kneser-lab/1", "n": 60, "k": 30, "r": 2,
                   "families": [[[1]]]}
_HUGE_COLORING = {"format": "kneser-lab/1", "ground_n": 60, "k": 30, "r": 2,
                  "parts": None, "colors": [0]}
# only C(10**6, 1) k-subsets, but each one is 999,999 points to walk
_WIDE_PARTITION = {"format": "kneser-lab/1", "n": 10**6, "k": 10**6 - 1,
                   "r": 2, "families": []}
# 75 bytes, but its one member is a 10**8-bit integer once parsed
_WIDE_MEMBER = {"format": "kneser-lab/1", "n": 10**8, "k": 1, "r": 2,
                "families": [[[10**8]]]}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["construct", "60", "30", "2"], None),
        (["verify"], _HUGE_PARTITION),
        (["verify"], _HUGE_COLORING),
        (["blowup"], _HUGE_PARTITION),
        (["verify"], _WIDE_PARTITION),
        (["verify"], _WIDE_MEMBER),
        (["blowup"], _WIDE_MEMBER),
        (["solve", "20", "10", "3"], None),
        (["chi", "20", "10", "2"], None),
    ],
    ids=["construct", "verify-partition", "verify-coloring", "blowup", "wide",
         "verify-wide-member", "blowup-wide-member", "solve", "chi"],
)
def test_oversized_descriptor_exits_4_fast(tmp_path, capsys, argv, doc):
    """C(60,30) ~ 1.2e17 k-subsets, 10**6 or 10**8 ground points, or
    C(20,10) = 184,756 vertices: refused before anything is enumerated or
    parsed to its full width."""
    if doc is not None:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        argv = argv + [str(path)]
    start = time.monotonic()
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 1
    assert peak < 2 * 2**20
    assert code == 4
    assert any(msg in err for msg in (
        "exceeds 1000000 k-subsets", "exceeds cap 64", "vertices exceeds limit 100000"))


_PARTITION = build_tight_partition(GroundParams(5, 2, 2)).to_dict()
_COLORING = blow_up(build_tight_partition(GroundParams(4, 2, 3)))[0].to_dict()

_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(-3, 12) | st.sampled_from([float("nan"), float("inf")]),
    st.text(max_size=3),
    st.lists(st.integers(-2, 12), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


@st.composite
def _mutated_certificate(draw):
    """A small valid certificate document with one to three mutations."""
    doc = json.loads(json.dumps(draw(st.sampled_from([_PARTITION, _COLORING]))))
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(
            ["retype", "drop", "stray", "truncate", "parts", "element"]))
        key = draw(st.sampled_from(sorted(doc))) if doc else "format"
        if how == "retype":
            doc[key] = draw(_junk)
        elif how == "drop":
            doc.pop(key, None)
        elif how == "stray":
            doc[draw(st.text(max_size=4))] = draw(_junk)
        elif how == "truncate" and isinstance(doc.get(key), list):
            doc[key] = doc[key][: draw(st.integers(0, len(doc[key])))]
        elif how == "parts":
            doc["parts"] = draw(st.lists(
                st.lists(st.integers(-1, 9), max_size=3), max_size=5))
        elif how == "element":
            seq = doc.get("colors") or doc.get("families")
            if isinstance(seq, list) and seq:
                seq[draw(st.integers(0, len(seq) - 1))] = draw(_junk)
    return doc


@given(doc=_mutated_certificate())
@settings(max_examples=300, deadline=None)
def test_verify_fuzz_exit_codes(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "cert.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])  # an uncaught exception fails here
    assert code in (0, 1, 2), (code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()


def _run_quiet(command, path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])  # an uncaught exception fails here
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code, err.getvalue()


@given(doc=_mutated_certificate())
@settings(max_examples=300, deadline=None)
def test_blowup_fuzz_exit_codes(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "cert.json"
    path.write_text(json.dumps(doc))
    code, err = _run_quiet("blowup", path)
    assert code in (0, 1, 2, 3, 4), (code, err)


# Any JSON value, with a few integers far beyond every cap.
_json_value = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers(-10**6, 10**6) | st.sampled_from([10**18, -(2**70)])
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# Certificate fields of the right shape but arbitrary content; n and k reach
# far enough to name instances on both sides of MAX_SUBSETS and of the
# ground cap.
_size = st.integers(1, 8) | st.integers(-2, 24) | st.sampled_from([60, 65, 10**18])
_point = st.integers(1, 8) | st.integers(-1, 12)
_FIELDS = {
    "n": _size, "k": _size, "r": _size, "ground_n": _size, "s": _size,
    "parts": st.none() | st.lists(st.lists(_point, max_size=3), max_size=6),
    "families": st.lists(st.lists(
        st.lists(_point, min_size=1, max_size=4), max_size=4), max_size=4),
    "colors": st.lists(st.integers(0, 3) | st.integers(-1, 5), max_size=12),
}
_KINDS = [["n", "k", "r", "families"], ["ground_n", "k", "r", "parts", "colors"],
          ["ground_n", "k", "r", "parts", "colors", "s"]]


@st.composite
def _junk_document(draw):
    """Arbitrary JSON, or an object with the keys of one certificate kind,
    one of them sometimes dropped, each value arbitrary one time in sixteen
    and well shaped otherwise."""
    def rarely_junk(strategy):
        return draw(_json_value if draw(st.integers(0, 15)) == 0 else strategy)

    if draw(st.integers(0, 3)) == 0:
        return draw(_json_value)
    keys = list(draw(st.sampled_from(_KINDS)))
    if draw(st.integers(0, 3)) == 0:
        keys.remove(draw(st.sampled_from(keys)))
    doc = {key: rarely_junk(_FIELDS[key]) for key in keys}
    doc["format"] = rarely_junk(st.just("kneser-lab/1"))
    return doc


@given(doc=_junk_document())
@settings(max_examples=300, deadline=None)
def test_junk_json_fuzz_exit_codes(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("junk") / "doc.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "blowup"):
        code, err = _run_quiet(command, path)
        assert code in (0, 1, 2, 3, 4), (command, code, err)
