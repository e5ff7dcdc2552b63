"""scripts/reproduce_all.py end to end, against outputs pinned in tests/data.

The reports, combination CSVs and stdout are stored whole; the three model
exports (about 240 KB together) are pinned by their sha256 digests.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"

MODEL_SHA256 = {
    "m3_model.json": "bcd78038427bd922d9ba03f67206866eb1db038ed06accfe6b4c961771fc837c",
    "m1_model.json": "fc3f8191ec15549c75edf55f36165ac26a14aee2d175a9ce8f5f55de409c868e",
    "m2_model.json": "c6e1ca84984f1d23b36e766e6e70ff5e0c8b4e91e2250ad93bf37d4ab49a20d4",
}
PINNED = [f"{m}_{kind}" for m in ("m3", "m1", "m2") for kind in ("report.json", "combinations.csv")]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    out = tmp_path_factory.mktemp("reproduce_all")
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_all.py"), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return result, out


def test_script_passes_and_prints_the_pinned_report(run):
    result, out = run
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "overall: PASS"
    expected = (DATA / "reproduce_all_stdout.txt").read_text().replace("{out}", str(out))
    assert result.stdout == expected


@pytest.mark.parametrize("name", PINNED)
def test_written_file_matches_pinned_bytes(run, name):
    _, out = run
    assert (out / name).read_bytes() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", sorted(MODEL_SHA256))
def test_model_export_matches_pinned_digest(run, name):
    _, out = run
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == MODEL_SHA256[name]
