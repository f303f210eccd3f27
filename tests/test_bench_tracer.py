"""The serving benchmark's per-layer tracer still installs on this tree.

``perfbench/tracer.py`` wraps library functions it looks up by name
(``TupleList.scan_range``, ``IVAEngine.search``, each scanner's
``decode_segment`` …).  Renaming or deleting one of them makes every
traced benchmark run fail at start-up; this test turns that into a tier-1
failure.  It runs in a subprocess because installing patches the classes
process-wide.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = "from perfbench.tracer import Tracer; Tracer().install()"


def test_tracer_installs():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
