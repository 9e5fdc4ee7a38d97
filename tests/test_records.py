"""The committed records under demos/records/: each recorded command,
rerun through the CLI, matches its record."""

from pathlib import Path

import pytest

RECORDS = Path(__file__).resolve().parents[1] / "demos" / "records"


# the records of bounds on the Hartree and NLS demo configs (3.6 s and 7.4 s)
# are compared by CI's reproducibility step instead
@pytest.mark.parametrize("name", ["verify-lemmas", "bounds-ladder_theta0", "coulomb-norms",
                                  "ladder-ladder_theta0"])
def test_run_matches_record(recorded_run, matches_record, name):
    matches_record(recorded_run(name), RECORDS / name)
