"""All twelve reports at small caps, held to a committed fixture.

`golden_reports.json` lists, for each set of keyword arguments, the
`to_json(with_elapsed=False)` reports of `run_all_checks`, key order kept.
A change that means to keep every report byte-identical passes this as it
stands; one that changes a report on purpose regenerates the fixture and
says why.  The fixture holds no counterexamples, so the labeled roots are
pinned by `FROZEN_ROOTS_N7` in test_linegraph.py, not here.

Regenerate with:

    PYTHONPATH=src:tests python -c "import test_golden_reports as t; t.write()"
"""
import json
from pathlib import Path

import pytest

from clawham.verify import run_all_checks

FIXTURE = Path(__file__).with_name("golden_reports.json")
RUNS = [{"max_n": 6}, {"max_n": 5, "heavy_slack": 1, "max_multiplicity": 3}]


def _reports(kwargs):
    return [res.to_json(with_elapsed=False) for res in run_all_checks(**kwargs)]


def write():
    blob = [{"kwargs": kwargs, "reports": _reports(kwargs)} for kwargs in RUNS]
    FIXTURE.write_text(json.dumps(blob, indent=1) + "\n")


@pytest.mark.parametrize("index", range(len(RUNS)))
def test_reports_match_the_golden_fixture(index):
    golden = json.loads(FIXTURE.read_text())[index]
    assert golden["kwargs"] == RUNS[index]
    # compared as text, so key order counts
    expected = [json.dumps(report) for report in golden["reports"]]
    assert [json.dumps(report) for report in _reports(RUNS[index])] == expected
