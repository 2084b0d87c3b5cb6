"""Command line front end.

Thin by design: load one JSON job, hand it to :func:`basicforms.jobs.run_job`,
emit the report, exit with the job's code.  All mathematics lives in the
library; the CLI adds only file handling and the ``builtin:`` job shorthand.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .jobs import COMMANDS, EXIT_PARSE_ERROR, EXIT_VALIDATION_ERROR, format_report, run_job

_BUILTIN_PREFIX = "builtin:"
# Bundled jobs are package data beside this module.  Reading them through
# the path, not importlib.resources, keeps ``inspect`` unloaded on Python
# 3.12 and later, where importlib.resources imports it.
_JOBS_DATA = Path(__file__).with_name("jobs_data")


def builtin_job_names() -> list[str]:
    return sorted(p.stem for p in _JOBS_DATA.iterdir() if p.suffix == ".json")


def _load_job_text(ref: str) -> str:
    if ref.startswith(_BUILTIN_PREFIX):
        name = ref[len(_BUILTIN_PREFIX):]
        path = _JOBS_DATA / f"{name}.json"
        if not path.is_file():
            known = ", ".join(builtin_job_names())
            raise FileNotFoundError(f"no bundled job {name!r}; known: {known}")
        return path.read_text(encoding="utf-8")
    return Path(ref).read_text(encoding="utf-8")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basicforms",
        description="Exact invariant-form computations with numeric spot checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    help_lines = {
        "basis": "basis of invariant horizontal forms in a truncation window",
        "cohomology": "closed-mod-exact dimensions over two windows",
        "stages": "compare pulled-back and direct bases for a quotient map",
        "criterion": "pullback agreement of two overlapping plots",
        "gauge": "pullback agreement up to a sampled group path",
        "orbifold": "invariant forms for a finite chart group",
        "symplectic": "momentum consistency and level restriction",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=help_lines[name])
        p.add_argument(
            "--job",
            required=True,
            help="path to a job file, or builtin:<name> for a bundled one",
        )
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument(
            "--bind-a",
            dest="bind_a",
            help="bind the formal parameter, e.g. 0.5 or 2/3 (exact fraction)",
        )
        p.add_argument("--tol", type=float, help="override the job's tolerance")
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = _load_job_text(args.job)
    except OSError as exc:
        print(f"error: cannot read job: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR
    except UnicodeDecodeError as exc:
        print(f"error: job is not UTF-8: {exc.reason} at byte {exc.start}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        job = json.loads(text)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed job JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_PARSE_ERROR
    except RecursionError:
        print("error: malformed job JSON: nested too deeply", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except ValueError as exc:  # an integer literal past Python's digit limit
        print(f"error: malformed job JSON: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR

    try:  # opened first, so a report that cannot be written costs no run
        out = open(args.out, "w", encoding="utf-8") if args.out else None
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR
    report, code = run_job(job, command=args.command, bind_a=args.bind_a, tol=args.tol)
    rendered = format_report(report)
    if out is not None:
        with out:
            out.write(rendered)
        print(f"{args.command}: {report.get('status', 'error')} -> {args.out}")
    else:
        sys.stdout.write(rendered)
    if report.get("status") == "error":
        error = report.get("error", {})
        print(f"error: {error.get('message', 'unknown')}", file=sys.stderr)
    return code


def main() -> None:  # console_scripts entry point
    raise SystemExit(run())
