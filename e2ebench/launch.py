"""Run the repro CLI in this process exactly as ``python -m repro`` would.

Usage::

    python e2ebench/launch.py REPORT TRACE -- CLI-ARGS...

Writes the JSON file REPORT when the CLI returns: the monotonic time at
which ``repro.experiments.runner`` finished importing (the benchmark's
``setup_s`` ends there), the Python and numpy versions, and, when TRACE
is ``1``, the per-layer self times and exact counts recorded by
:mod:`layers`.  ``time.monotonic`` is system-wide on Linux, so the
parent that spawned this process can subtract its own launch time.
"""

import json
import runpy
import sys
import time


def main() -> None:
    report_path, trace, sep, *cli_args = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: launch.py REPORT 0|1 -- CLI-ARGS...")
    import repro.experiments.runner  # noqa: F401  -- the import being timed

    imported = time.monotonic()
    import numpy

    recorder = None
    if trace == "1":
        import layers

        recorder = layers.install()
    sys.argv = [sys.argv[0], *cli_args]  # runpy sets argv[0] as -m does
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    finally:
        report = {
            "imported": imported,
            "finished": time.monotonic(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        }
        if recorder is not None:
            report.update(recorder.report())
        with open(report_path, "w") as handle:
            json.dump(report, handle)


if __name__ == "__main__":
    main()
