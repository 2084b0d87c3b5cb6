"""The public surface of the package, and what importing it loads.

Only the verification layer (``plots``, ``symplectic``) needs numpy.  The
package, the CLI and every exact job must run without loading it, nor
``dataclasses`` and the ``inspect`` it pulls in, which a fresh interpreter
shows; the numeric names still resolve on first use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import basicforms

EXACT_JOBS = (
    "solenoid_basis",
    "solenoid_cohomology",
    "stages_solenoid",
    "irrational_torus_basis",
    "orbifold_c4",
)

# Modules whose import cost the exact path must not pay.
SLOW_MODULES = ("numpy", "dataclasses", "inspect", "datetime")

# Prints, after each step, the step, its exit code and which of the slow
# modules are loaded.  It reads the bundled jobs by path: on Python 3.12 and
# later, importlib.resources imports inspect.
_PROBE = """
import json, sys
from pathlib import Path

slow = %r
steps = []
import basicforms, basicforms.cli
steps.append(("import", 0, [m for m in slow if m in sys.modules]))
from basicforms.jobs import run_job
for name in sys.argv[1:]:
    path = Path(basicforms.__file__).with_name("jobs_data") / f"{name}.json"
    report, code = run_job(json.loads(path.read_text(encoding="utf-8")))
    steps.append((name, code, [m for m in slow if m in sys.modules]))
print(json.dumps(steps))
""" % (SLOW_MODULES,)


def test_exact_path_loads_no_numpy():
    src = str(Path(basicforms.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, *EXACT_JOBS, "z2_criterion"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    steps = [tuple(step) for step in json.loads(done.stdout)]
    assert steps == (
        [("import", 0, [])]
        + [(name, 0, []) for name in EXACT_JOBS]
        + [("z2_criterion", 0, list(SLOW_MODULES))]
    )


def test_every_public_name_resolves():
    names = basicforms.__all__
    assert len(set(names)) == len(names)
    listed = dir(basicforms)
    star: dict = {}
    exec("from basicforms import *", star)
    for name in names:
        value = getattr(basicforms, name)
        assert name in listed, name
        assert star[name] is value, name
    assert basicforms.criterion_check.__module__ == "basicforms.plots"
    assert basicforms.HamiltonianModel.__module__ == "basicforms.symplectic"
    assert not hasattr(basicforms, "no_such_name")
