"""End-to-end command line behavior, including exit codes and file round trips."""

import contextlib
import csv
import io
import json
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kneser_lab.cli import main
from kneser_lab.constructions import blow_up, build_tight_partition
from kneser_lab.setsys import GroundParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_construct_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "partition.json"
    code, out, _ = run(capsys, "construct", "5", "2", "2", "-o", str(path))
    assert code == 0
    assert "3 families" in out
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert out.startswith("ok")


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
    ("--workers", "0"),
    ("--workers", "-3"),
    ("--timeout", "-1"),
    ("--timeout", "0"),
    ("--max-nodes", "0"),
    ("--proof-cap", "-1"),
])
def test_bad_budget_flags_exit_2(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "5", "2", "2", *flags])
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err


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


def test_chi_plain(capsys):
    code, out, _ = run(capsys, "chi", "6", "2", "3")
    assert code == 0
    assert "EXACT value=2" in out


def test_chi_stable(capsys):
    code, out, _ = run(capsys, "chi", "6", "2", "2", "--stable", "2")
    assert code == 0
    assert "EXACT value=4" in out


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
    assert [row["nodes"] for row in doc["rows"]] == [0, 2, 3]  # workers=1
    assert all(
        isinstance(row["millis"], int) and row["millis"] >= 0 for row in doc["rows"]
    )


def test_table_bad_range_exits_2(capsys):
    code, _, err = run(capsys, "table", "--r", "x")
    assert code == 2


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
