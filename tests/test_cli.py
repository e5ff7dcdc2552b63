"""CLI contract: exit codes, output schemas, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ghzlocal import classify, enumerate_ghz_microstates
from ghzlocal.cli import main
from ghzlocal.serialize import model_to_json
from test_reproduce_all import MODEL_SHA256


DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------- states


def test_states_table(capsys):
    code, out, _ = run(capsys, "states")
    assert code == 0
    lines = out.splitlines()
    assert lines[128:] == ["128 states in 8 partition elements of 16 states each"]
    # one row per state, in canonical order, with the class classify gives it
    assert [line.split() for line in lines[:128]] == [
        [str(i), s.label, classify(s).value] for i, s in enumerate(enumerate_ghz_microstates(), 1)
    ]


def test_states_partition_groups(capsys):
    code, out, _ = run(capsys, "states", "--partition")
    assert code == 0
    headers = [line for line in out.splitlines() if line.endswith("(16 states)")]
    assert len(headers) == 8


def test_states_json(capsys):
    code, out, _ = run(capsys, "states", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["count"] == 128
    assert len(document["states"]) == 128
    assert {s["element"] for s in document["states"]} == {
        "I0", "II0", "III0", "IV0", "I&II&III", "I&II&IV", "I&III&IV", "II&III&IV"
    }
    assert [(s["values"], s["element"]) for s in document["states"]] == [
        (list(s.values), classify(s).value) for s in enumerate_ghz_microstates()
    ]


def test_states_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "states", "--bogus")
    assert code == 2


# --------------------------------------------------------------------------- verify


def test_verify_builtin_passes(capsys):
    code, out, _ = run(capsys, "verify", "M3", "--ac", "--dm")
    assert code == 0
    assert "ac: pass" in out and "dm: pass" in out


def test_verify_all_detected_fails_with_triad_witness(capsys, tmp_path, all_detected_model):
    path = tmp_path / "all-detected.json"
    path.write_text(json.dumps(model_to_json(all_detected_model)))
    code, out, _ = run(capsys, "verify", str(path), "--ac")
    assert code == 1
    assert "FAIL" in out
    triad_labels = {"x1,y2,y3", "x2,y1,y3", "x3,y1,y2", "x1,x2,x3"}
    assert any(label in out for label in triad_labels)


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "missing.json")
    assert code == 3
    assert "missing.json" in err


def test_verify_invalid_json_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "verify", str(path))
    assert code == 3


@pytest.mark.parametrize("command", ["verify", "search"])
@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b'{"limit": ' + b"9" * 5000 + b"}", b"[" * 100_000],
    ids=["not-utf8", "long-int", "too-deep"],
)
def test_undecodable_file_is_parse_error(capsys, tmp_path, command, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run(capsys, command, str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: invalid JSON in ") and err.count("\n") == 1


def test_verify_unsupported_schema_version_is_parse_error(capsys, tmp_path, m3):
    path = tmp_path / "m3-v99.json"
    path.write_text(json.dumps({**model_to_json(m3), "schema_version": 99}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 3
    assert out == ""
    assert "schema_version" in err


@pytest.mark.parametrize("command", [("verify",), ("probs", "x1")])
def test_model_name_that_is_not_unicode_is_parse_error(capsys, tmp_path, m3, command):
    # "\ud800x" is valid JSON, but no text a table could print
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps({**model_to_json(m3), "name": "\ud800x"}))
    name, *rest = command
    code, out, err = run(capsys, name, str(path), *rest)
    assert (code, out) == (3, "")
    assert err.startswith("error: invalid model file ") and "not valid Unicode" in err


@pytest.mark.parametrize("command", [("verify",), ("probs", "--outcomes", "+1", "x1"), ("export",)])
def test_builtin_selector_that_is_also_a_file_is_usage_error(capsys, tmp_path, monkeypatch, m1, command):
    monkeypatch.chdir(tmp_path)
    Path("M3").write_text(json.dumps(model_to_json(m1)))
    name, *rest = command
    code, out, err = run(capsys, name, "M3", *rest)
    assert (code, out) == (2, "")
    assert err.startswith("error: 'M3' is both a built-in model selector and a file")
    # the file is still reachable by a path, and the other selectors are unaffected
    assert run(capsys, "verify", "./M3")[:2] == (0, "model: M1\nac: pass\ndm: pass\n")
    assert run(capsys, "verify", "M2")[:2] == (0, "model: M2\nac: pass\ndm: pass\n")


def test_verify_counts_flag(capsys):
    code, _, _ = run(capsys, "verify", "M2", "--counts", "192,96")
    assert code == 0
    code, out, _ = run(capsys, "verify", "M3", "--counts", "128,48")
    assert code == 1
    assert "counts" in out


def test_verify_counts_bad_value(capsys):
    code, _, err = run(capsys, "verify", "M3", "--counts", "lots")
    assert code == 2
    # only ASCII digits: int() would take the '_', the spaces, the sign and '٩٦'
    # and no more digits than int() converts: a traceback is not a usage error
    long = "9" * 5000
    # an empty value is a bad value, not an absent one
    for text in ("9_6,4_8", " 96, 48", "+96,48", "96,-48", "\u0669\u0666,48", "96,48,", "96,,48",
                 f"{long},1", f"96,48,{long}", ""):
        code, out, err = run(capsys, "verify", "M3", "--counts", text)
        assert (code, out) == (2, "") and err.startswith("error: --counts"), text


# --------------------------------------------------------------------------- probs


def test_probs_single_site(capsys):
    code, out, _ = run(capsys, "probs", "M1", "x1")
    assert code == 0
    assert "detection probability: 5/12" in out
    rows = [line for line in out.splitlines() if line.startswith(("+1", "-1"))]
    assert len(rows) == 2
    assert all("1/2" in row for row in rows)


def test_probs_with_outcomes(capsys):
    code, out, _ = run(capsys, "probs", "M3", "z1,z2", "--outcomes", "+1,-1")
    assert code == 0
    row = [line for line in out.splitlines() if line.startswith("+1,-1")][0]
    assert row.split()[1] == "0"  # conditional


def test_probs_incompatible_context(capsys):
    code, _, err = run(capsys, "probs", "M3", "x1,y1")
    assert code == 2
    assert "x1,y1" in err
    # an empty site or an empty --outcomes is an error, not left out
    for argv in (
        ["x1", "--outcomes", ""], ["x1,,y2"], ["x1,"], [",x1"], [""],
        [" x1"], ["x1, y2"], ["x1,y2", "--outcomes", " 1 , -1"], ["x1", "--outcomes", "1"],
        ["x1,y2", "--outcomes", "+1, -1"],
    ):
        code, out, err = run(capsys, "probs", "M1", *argv)
        assert (code, out) == (2, "") and err.startswith("error: "), argv


def test_probs_json_round_trip(capsys):
    code, out, _ = run(capsys, "probs", "M3", "x1,y2,y3", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["context"] == "x1,y2,y3"
    assert len(document["rows"]) == 8
    by_product = {
        tuple(r["outcomes"]): r["conditional"] for r in document["rows"]
    }
    assert by_product[(1, 1, 1)] == "1/4"
    assert by_product[(1, 1, -1)] == "0/1"


# `probs` as a table and as JSON on one context of each size and a mixed-axis triple,
# pinned from the output of the context table filled one context per lookup
PROBS_CONTEXTS = ("x1", "z1,z2", "x1,y2,y3", "y1,x2,z3")


@pytest.mark.parametrize("selector", ["M3", "M1", "M2"])
def test_probs_output_is_pinned(capsys, selector):
    for context in PROBS_CONTEXTS:
        stem = f"{selector.lower()}_{context.replace(',', '_')}"
        for fmt, suffix in (("table", "txt"), ("json", "json")):
            code, out, _ = run(capsys, "probs", selector, context, "--format", fmt)
            assert code == 0
            assert out.encode() == (DATA / "probs" / f"{stem}.{suffix}").read_bytes(), (context, fmt)


# --------------------------------------------------------------------------- combinations


def test_combinations_m3(capsys):
    code, out, _ = run(capsys, "combinations", "M3")
    assert code == 0
    assert "48 combinations, total mass 1" in out
    assert "1/32" in out and "1/64" in out


def test_combinations_m1_csv(capsys):
    code, out, _ = run(capsys, "combinations", "M1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 48 + 1
    assert lines[-1] == "U,U,U,U,U,U,1/2,0"


def test_combinations_m2_json(capsys):
    code, out, _ = run(capsys, "combinations", "M2", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert len(document["combinations"]) == 96


# each command with valid operands; only `combinations` writes CSV
COMMAND_ARGV = {
    "states": ("states",),
    "verify": ("verify", "M3"),
    "probs": ("probs", "M1", "x1"),
    "combinations": ("combinations", "M1"),
    "search": ("search", "spec.json"),
    "reproduce": ("reproduce", "M3"),
    "export": ("export", "M3"),
}


def test_csv_unsupported_elsewhere(capsys):
    for command, argv in COMMAND_ARGV.items():
        if command != "combinations":
            code, out, err = run(capsys, *argv, "--format", "csv")
            assert (code, out) == (2, ""), command
            assert "argument --format: invalid choice: 'csv'" in err, command


@pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
def test_help_names_the_formats_the_command_writes(capsys, command):
    code, out, _ = run(capsys, command, "-h")
    assert code == 0
    formats = {"combinations": "table,json,csv", "export": "json"}.get(command, "table,json")
    assert set(re.findall(r"--format \{([a-z,]+)\}", out)) == {formats}


# a probe process that runs one command and reports whether the json module was loaded
JSON_PROBE = """
import contextlib, io, sys
from ghzlocal.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "json" in sys.modules)
"""


JSON_LOADED = {
    ("states", "--partition"): False,
    ("combinations", "M2", "--format", "csv"): False,
    ("verify", "M2"): False,
    ("probs", "M1", "x1"): False,
    ("export", "M1"): True,
}


@pytest.mark.parametrize("argv", JSON_LOADED, ids=" ".join)
def test_only_json_output_imports_json(argv):
    result = subprocess.run(
        [sys.executable, "-S", "-c", JSON_PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert result.stdout.split() == ["0", str(JSON_LOADED[argv])]


# --------------------------------------------------------------------------- search


def write_spec(tmp_path, name, **spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def test_search_stream_contains_m3(capsys, tmp_path, m3):
    spec = write_spec(
        tmp_path, "m3shape.json", failure_count=3, ddists_per_state=1, limit=2
    )
    code, out, _ = run(capsys, "search", spec, "--format", "json")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["models_found"] == 2
    first = json.loads(lines[0])
    assert first["states"] == model_to_json(m3)["states"]


def test_search_one_failure_everywhere_finds_nothing(capsys, tmp_path):
    spec = write_spec(tmp_path, "onefail.json", failure_count=1, limit=5)
    code, out, _ = run(capsys, "search", spec)
    assert code == 0
    assert "models found: 0" in out


def test_search_unbounded_spec(capsys, tmp_path):
    spec = write_spec(tmp_path, "unbounded.json", z_always_detected=True)
    code, _, err = run(capsys, "search", spec)
    assert code == 2
    assert "unbounded" in err


def test_search_missing_spec_file(capsys):
    code, _, _ = run(capsys, "search", "nope.json")
    assert code == 3


def test_search_spec_with_bool_for_int_is_parse_error(capsys, tmp_path):
    spec = write_spec(tmp_path, "coerced.json", failure_count=True, z_always_detected="false")
    code, out, err = run(capsys, "search", spec)
    assert code == 3
    assert out == ""
    assert "failure_count" in err


def test_search_writes_each_model_before_the_next_is_built(capsys, tmp_path, monkeypatch, m3, m1):
    spec = write_spec(tmp_path, "m3shape.json", failure_count=3, ddists_per_state=1)
    target = tmp_path / "found.jsonl"
    line = {m.name: json.dumps(model_to_json(m), sort_keys=True, separators=(",", ":")) + "\n" for m in (m3, m1)}
    for output in ((), ("--output", str(target))):
        written = []

        def search(spec):
            yield m3
            written.append(target.read_text() if output else capsys.readouterr().out)
            yield m1

        monkeypatch.setattr("ghzlocal.search.search_models", search)
        code, out, _ = run(capsys, "search", spec, "--format", "json", *output)
        assert code == 0
        assert written == [line["M3"]]
        summary = '{"models_found":2,"schema_version":1}\n'
        assert (target.read_text() if output else written[0] + out) == line["M3"] + line["M1"] + summary


def test_search_stops_quietly_when_the_reader_closes_the_pipe(tmp_path):
    # an unbounded stream (10,884,540,241 models) read for one line, as by `| head -1`
    spec = write_spec(tmp_path, "m3shape.json", failure_count=3, ddists_per_state=1)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "ghzlocal", "search", spec, "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert json.loads(proc.stdout.readline())["name"] == "model-0001"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 3
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_to_stdout_is_io_error():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ghzlocal", "states"],
            stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    assert proc.returncode == 3
    assert proc.stderr.startswith(b"error: cannot write to stdout: ") and proc.stderr.count(b"\n") == 1


def test_search_limit_flag_overrides(capsys, tmp_path):
    spec = write_spec(tmp_path, "m3shape.json", failure_count=3, ddists_per_state=1, limit=3)
    code, out, _ = run(capsys, "search", spec, "--limit", "1")
    assert code == 0
    assert "models found: 1" in out
    for text in ("1_0", "+1", " 1", "-1", "1.0", "", "\u0661", "9" * 5000):
        code, out, err = run(capsys, "search", spec, "--limit", text)
        assert (code, out) == (2, "") and "error: argument --limit: expects an integer" in err, text
    for limit in (10**20, sys.maxsize + 1):
        code, out, err = run(capsys, "search", spec, "--limit", str(limit))
        assert (code, out) == (2, "") and "bad limit" in err
        huge = write_spec(tmp_path, "huge.json", failure_count=3, ddists_per_state=1, limit=limit)
        code, out, err = run(capsys, "search", huge)
        assert (code, out) == (2, "") and "bad limit" in err


# sha256 of `search <profile> --limit 200` as a table and as JSON lines, pinned from the
# streams these profiles gave before the search ranked masks by bit arithmetic
SEARCH_SHA256 = {
    "fc3_deterministic": (
        {"failure_count": 3, "ddists_per_state": 1},
        "4ae6a5a57158f45c473eb31a46f1f1420e6a354a4d45a59ba932778a390e67e6",
        "a4f5a5291515f387ec5804162945a5e4993c57bae6c91994873683abe37cb016",
    ),
    "fc2_families_1_2": (
        {"failure_count": 2, "ddists_per_state": [1, 2]},
        "7fa3129c6848173ae7091d4796a8d26e67e706f21dca50072e86c2285a294bde",
        "59569c9ea627e53afa58e85deb885e7000308769a6ac6287e711954f8ee99cfb",
    ),
    "fc1_starred_undetected": (
        {"failure_count": 1, "star_elements_all_undetected": True},
        "03f013ddabd67d37d0b6222ca1b0ae86d3579b74aeb0c7c856ff2e5ffb830d04",
        "c2b51984a04dcfb3613b91ece8805d983515966aedf713a211f75be3b9e8f234",
    ),
}


@pytest.mark.parametrize("profile", SEARCH_SHA256)
def test_search_output_is_pinned(capsys, tmp_path, profile):
    fields, table_sha, json_sha = SEARCH_SHA256[profile]
    spec = write_spec(tmp_path, "spec.json", **fields)
    for fmt, want in (("table", table_sha), ("json", json_sha)):
        code, out, _ = run(capsys, "search", spec, "--limit", "200", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, fmt


def test_search_output_matches_the_files_ci_compares(capsys, tmp_path):
    spec = write_spec(tmp_path, "search_spec.json", failure_count=3, ddists_per_state=1)
    for fmt, name in (("table", "search_fc3_limit3.txt"), ("json", "search_fc3_limit3.jsonl")):
        code, out, _ = run(capsys, "search", spec, "--limit", "3", "--format", fmt)
        assert code == 0
        assert out.encode() == (DATA / name).read_bytes(), name


# --------------------------------------------------------------------------- reproduce


def test_reproduce_builtins_pass(capsys):
    for selector in ("M3", "M1", "M2"):
        code, out, _ = run(capsys, "reproduce", selector)
        assert code == 0, out
        assert "result: PASS" in out


def test_reproduce_unknown_selector(capsys):
    code, _, err = run(capsys, "reproduce", "M9")
    assert code == 2
    assert "M9" in err


def test_reproduce_json_is_byte_identical_between_runs(capsys):
    code1, out1, _ = run(capsys, "reproduce", "M3", "--format", "json")
    code2, out2, _ = run(capsys, "reproduce", "M3", "--format", "json")
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


# --------------------------------------------------------------------------- export


def test_export_and_reimport(capsys, tmp_path):
    target = tmp_path / "m1.json"
    code, _, _ = run(capsys, "export", "M1", "--output", str(target))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(target), "--ac", "--dm")
    assert code == 0
    assert "ac: pass" in out


@pytest.mark.parametrize("selector", ["M3", "M1", "M2"])
def test_export_is_the_script_model_file(capsys, selector):
    code, out, _ = run(capsys, "export", selector)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MODEL_SHA256[f"{selector.lower()}_model.json"]


def test_export_writes_only_json(capsys):
    assert run(capsys, "export", "M3", "--format", "json")[:2] == run(capsys, "export", "M3")[:2]
    code, out, err = run(capsys, "export", "M3", "--format", "table")
    assert (code, out) == (2, "")
    assert "argument --format: invalid choice: 'table'" in err


# sha256 of JSON documents that no file in tests/data holds, pinned from the text
# `json.dumps(document, indent=2, sort_keys=True)` gave them
JSON_SHA256 = {
    ("states",): "c709172cc5afa6d7171a86c52d15fd66fc78b8e95de91c4861ae63dca5a3289e",
    ("verify", "M3"): "432c2efd51e6987c6b5c567539785d34be58522c9f2023e16030c4b92d6adf14",
    ("verify", "M1"): "f1a1f520b117027278617db7bcce9452d0a64972ae9f664fbe63543f2b44cd28",
    ("verify", "M2"): "183c0a87de7ac672dda661372d2fd5c963369f9fa269e8460b9c8071d69929cc",
    ("combinations", "M1"): "6fa47c5aff652b1fdb48fa8c0a524ae793b44f642d8107309f15c71f90e0e39c",
}


@pytest.mark.parametrize("argv", JSON_SHA256, ids=" ".join)
def test_json_document_is_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_SHA256[argv]


def test_failed_verification_document_is_pinned(capsys, tmp_path, m3):
    document = model_to_json(m3)
    document["states"][0]["ddists"] = [["D"] * 9]  # the first state always fully detected
    path = tmp_path / "m3-first-state-detected.json"
    path.write_text(json.dumps(document))
    code, out, _ = run(capsys, "verify", str(path), "--format", "json")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "475c5fcb4317031adc3b8c674556211df4006c3b272e7ca2d163258f8fe4a591"
    )


def test_per_state_document_outputs_are_pinned(capsys):
    """A per-state document (family sizes 1 to 4, AC and DM failures): its `verify` and
    `probs` JSON, captured before the context table was filled in one packed pass."""
    model = str(DATA / "per_state_model.json")
    for argv, want, name in (
        (("verify", model), 1, "per_state_verify.json"),
        (("probs", model, "x1,y2,y3"), 0, "per_state_probs_x1_y2_y3.json"),
    ):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == want, name
        assert out.encode() == (DATA / name).read_bytes(), name


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "states.json"
    code, out, _ = run(capsys, "states", "--format", "json", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["count"] == 128


def test_output_flag_io_error(capsys, tmp_path):
    # an empty path is a path that cannot be written, not a request for stdout
    for target in (str(tmp_path / "nodir" / "x.txt"), ""):
        code, out, err = run(capsys, "states", "--output", target)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot write {target!r}: ")


# --------------------------------------------------------------------------- argv fuzz

FUZZ_FILES = {
    # search specs with small spaces: one model, none, unbounded, and bad types
    "one.json": '{"failure_count": 9, "z_always_detected": false}',
    "none.json": '{"failure_count": 1}',
    "unbounded.json": "{}",
    "types.json": '{"failure_count": true}',
    "broken.json": "{",
}
# real argv strings hold no NUL; "/" is left out so --output stays in the work directory
FUZZ_TEXT = st.text(st.characters(exclude_characters="/\x00"), max_size=10)
FUZZ_WORDS = [
    "states", "verify", "probs", "combinations", "search", "reproduce", "export", "M3", "M1",
    "M2", "M4", *FUZZ_FILES, "x1", "x1,y2,y3", "x1,x1", "w9", ",", "", "--format", "csv",
    "--output", ".", "--partition", "--ac", "--dm", "--counts", "--outcomes", "--limit", "-h",
    "--", "-",
]
FUZZ_TOKEN = st.one_of(st.sampled_from(FUZZ_WORDS), FUZZ_TEXT, st.integers(-10, 10**30).map(str))
FUZZ_MODEL = st.sampled_from(["M3", "M1", "M2", "M4", "missing.json", "one.json", "broken.json"])
HUGE = str(10**30)
FUZZ_COMMANDS = {  # each command's operands, and the values of its options (None: a switch)
    "states": ([], {"--partition": None}),
    "verify": (
        [FUZZ_MODEL],
        {"--ac": None, "--dm": None, "--counts": st.sampled_from(["96,48", "1,2,3", "1,x", HUGE])},
    ),
    "probs": (
        [FUZZ_MODEL, st.sampled_from(["x1", "x1,y2,y3", "z1,z2", "x1,x1", "w9", ",", ""])],
        {"--outcomes": st.sampled_from(["+1", "-1", "+1,-1,-1", "1,0", ""])},
    ),
    "combinations": ([FUZZ_MODEL], {}),
    "search": (
        [st.sampled_from([*FUZZ_FILES, "missing.json"])],
        {"--limit": st.sampled_from(["0", "2", "-1", HUGE])},
    ),
    "reproduce": ([FUZZ_MODEL], {}),
    "export": ([FUZZ_MODEL], {}),
}
FUZZ_COMMON = {
    "--format": st.sampled_from(["table", "json", "csv"]),
    "--output": st.sampled_from(["out.txt", "M3", ".", "missing/out.txt"]),
}


def _command_argv(command):
    """The command, its operands, and up to three of its options."""
    operands, options = FUZZ_COMMANDS[command]
    options = {**options, **FUZZ_COMMON}
    option = st.sampled_from(sorted(options)).flatmap(
        lambda flag: st.just((flag,)) if options[flag] is None
        else options[flag].map(lambda value: (flag, value))
    )
    return st.tuples(*operands, st.lists(option, max_size=3)).map(
        lambda t: [command, *t[:-1], *(token for pair in t[-1] for token in pair)]
    )


FUZZ_COMMAND_ARGV = st.sampled_from(sorted(FUZZ_COMMANDS)).flatmap(_command_argv)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=st.one_of(FUZZ_COMMAND_ARGV, FUZZ_COMMAND_ARGV, st.lists(FUZZ_TOKEN, max_size=6)))
def test_any_argv_ends_in_a_documented_exit_code(tmp_path, monkeypatch, argv):
    work = Path(tempfile.mkdtemp(dir=tmp_path))  # one per example: --output may write "M3"
    monkeypatch.chdir(work)
    for name, text in FUZZ_FILES.items():
        (work / name).write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3)
