"""Run the ``repro`` CLI with the benchmark's tracing wrappers installed.

Usage: ``python perfbench/serve_shim.py TRACE_OUT serve [serve args]``.
The traced ``serve`` run starts its daemon through this file; the
untraced runs use ``python -m repro serve`` directly.  When the CLI
returns (after a ``shutdown``), the per-layer totals are written to
TRACE_OUT as JSON.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    tracer.active = True
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        with open(trace_out, "w") as handle:
            json.dump(tracer.layer_metrics(), handle)


if __name__ == "__main__":
    sys.exit(main())
