"""Run ``repro.cli.main`` with the per-layer timing wrappers installed.

Usage::

    python3 perfbench/launch.py --trace-out trace.json -- serve --snapshot db.ivadb

Everything after ``--`` is passed to the ``repro`` CLI unchanged.  The
wrappers' accounts are written to ``--trace-out`` when the command returns
(for ``serve``: after SIGINT shut it down cleanly).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    if "--" not in argv or argv[:1] != ["--trace-out"] or argv.index("--") != 2:
        print("usage: launch.py --trace-out FILE -- <repro arguments>", file=sys.stderr)
        return 2
    trace_out = argv[1]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro.cli

    from perfbench.tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return repro.cli.main(argv[3:])
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
