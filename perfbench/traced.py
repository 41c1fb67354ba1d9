"""Run one benchmark step in-process with the per-layer tracer installed.

usage: python3 perfbench/traced.py TRACE_OUT setup ARGS...   (make_meshes.py ARGS)
       python3 perfbench/traced.py TRACE_OUT cli ARGS...     (splinedim ARGS)

Writes the tracer's counts to TRACE_OUT as JSON and exits with the step's
exit code.  Needs the package on PYTHONPATH; run.py sets it.
"""

from __future__ import annotations

import json
import sys

import tracer


def main() -> int:
    trace_out, step, *args = sys.argv[1:]
    live = tracer.install()
    if step == "setup":
        import make_meshes  # imported after install() so it binds the wrappers

        code = make_meshes.main(args)
    elif step == "cli":
        code = sys.modules["splinedim.cli"].main(args)
    else:
        raise SystemExit(f"unknown step {step!r}")
    sys.stdout.flush()
    with open(trace_out, "w") as fh:
        json.dump(live.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
