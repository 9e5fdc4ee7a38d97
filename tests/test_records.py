"""The committed records under demos/records/: each recorded command,
rerun through the CLI, matches its record."""

import json
from pathlib import Path

import pytest

from confinedbose.cli import main

ROOT = Path(__file__).resolve().parents[1]
RECORDS = ROOT / "demos" / "records"


@pytest.mark.parametrize("name", ["verify-lemmas", "bounds-ladder_theta0"])
def test_run_matches_record(tmp_path, monkeypatch, matches_record, name):
    command = json.loads((RECORDS / name / "record.json").read_text())["command"]
    assert command[:3] == ["python", "-m", "confinedbose"] and command[-2] == "--out"
    monkeypatch.chdir(ROOT)  # the recorded command's paths are relative to the repo root
    assert main(command[3:-2] + ["--out", str(tmp_path / "run")]) == 0
    matches_record(tmp_path / "run", RECORDS / name)
