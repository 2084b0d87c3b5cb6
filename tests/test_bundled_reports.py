"""Bundled jobs: reports pinned in ``data/``.

Each exact bundled job runs through :func:`basicforms.jobs.run_job`, and its
report, less the ``generated_at`` stamp, must equal the one stored in
``data/bundled_reports.json``, so any change in an exact answer, its
rendering or the report layout shows.  The numeric jobs (criterion, gauge,
symplectic) are pinned in ``data/bundled_numeric_reports.json`` with their
exit codes, less their float deviations and where they lie
(``max_abs_deviation``, ``argmax_index``, ``argmax_param``), which may
differ between numpy builds: status, verdicts, tolerances, the rendered
forms and the plot, gauge and model names still show.  Both files were
written by this module; to regenerate them after a deliberate change of
reports, run

    PYTHONPATH=src python3 tests/test_bundled_reports.py
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import pytest

from basicforms.jobs import format_report, run_job

STORED_PATH = Path(__file__).parent / "data" / "bundled_reports.json"
NUMERIC_PATH = Path(__file__).parent / "data" / "bundled_numeric_reports.json"

EXACT_JOBS = (
    "irrational_torus_basis",
    "orbifold_c4",
    "solenoid_basis",
    "solenoid_cohomology",
    "stages_solenoid",
)
NUMERIC_JOBS = ("so2_gauge", "symplectic_r4", "z2_criterion")

# the fields of a numeric check that may differ between numpy builds
_FLOAT_FIELDS = ("max_abs_deviation", "argmax_index", "argmax_param")


def _run(name: str) -> tuple[dict, int]:
    """The job's report as JSON data, without its timestamp, and its exit code."""
    path = resources.files("basicforms") / "jobs_data" / f"{name}.json"
    report, code = run_job(json.loads(path.read_text(encoding="utf-8")))
    del report["generated_at"]
    return json.loads(format_report(report)), code


def _numeric(name: str) -> dict:
    report, code = _run(name)
    for check in ("check", "contraction", "invariance"):
        for key in _FLOAT_FIELDS:
            report["results"].get(check, {}).pop(key, None)
    return {"exit_code": code, "report": report}


def rendered_reports() -> dict:
    return {name: _run(name)[0] for name in EXACT_JOBS}


def rendered_numeric_reports() -> dict:
    return {name: _numeric(name) for name in NUMERIC_JOBS}


_STORED = json.loads(STORED_PATH.read_text()) if STORED_PATH.exists() else {}
_NUMERIC = json.loads(NUMERIC_PATH.read_text()) if NUMERIC_PATH.exists() else {}


def test_stored_file_covers_every_exact_job():
    assert sorted(_STORED) == sorted(EXACT_JOBS)


@pytest.mark.parametrize("name", EXACT_JOBS)
def test_bundled_report_matches_stored(name):
    assert _run(name)[0] == _STORED[name]


def test_numeric_file_covers_every_numeric_job():
    assert sorted(_NUMERIC) == sorted(NUMERIC_JOBS)


@pytest.mark.parametrize("name", NUMERIC_JOBS)
def test_bundled_numeric_report_matches_stored_less_its_floats(name):
    assert _numeric(name) == _NUMERIC[name]


if __name__ == "__main__":
    STORED_PATH.parent.mkdir(exist_ok=True)
    for path, reports in ((STORED_PATH, rendered_reports()),
                          (NUMERIC_PATH, rendered_numeric_reports())):
        path.write_text(json.dumps(reports, indent=1, ensure_ascii=False) + "\n")
