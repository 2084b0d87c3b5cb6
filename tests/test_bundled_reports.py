"""Bundled exact jobs: whole reports pinned in ``data/bundled_reports.json``.

Each exact bundled job runs through :func:`basicforms.jobs.run_job`, and its
report, less the ``generated_at`` stamp, must equal the stored one, so any
change in an exact answer, its rendering or the report layout shows.  The
numeric jobs (criterion, gauge, symplectic) are left out: their float
deviations may differ between numpy builds.  The file was written by this
module's own ``rendered_reports``; to regenerate it after a deliberate
change of reports, run

    PYTHONPATH=src python3 tests/test_bundled_reports.py
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import pytest

from basicforms.jobs import format_report, run_job

STORED_PATH = Path(__file__).parent / "data" / "bundled_reports.json"

EXACT_JOBS = (
    "irrational_torus_basis",
    "orbifold_c4",
    "solenoid_basis",
    "solenoid_cohomology",
    "stages_solenoid",
)


def _report(name: str) -> dict:
    """The job's report as JSON data, without its timestamp."""
    path = resources.files("basicforms") / "jobs_data" / f"{name}.json"
    report, _ = run_job(json.loads(path.read_text(encoding="utf-8")))
    del report["generated_at"]
    return json.loads(format_report(report))


def rendered_reports() -> dict:
    return {name: _report(name) for name in EXACT_JOBS}


_STORED = json.loads(STORED_PATH.read_text()) if STORED_PATH.exists() else {}


def test_stored_file_covers_every_exact_job():
    assert sorted(_STORED) == sorted(EXACT_JOBS)


@pytest.mark.parametrize("name", EXACT_JOBS)
def test_bundled_report_matches_stored(name):
    assert _report(name) == _STORED[name]


if __name__ == "__main__":
    STORED_PATH.parent.mkdir(exist_ok=True)
    STORED_PATH.write_text(json.dumps(rendered_reports(), indent=1, ensure_ascii=False) + "\n")
