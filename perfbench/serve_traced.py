"""Launch ``repro.cli`` with the service layer wrappers installed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_traced.py OUT.json serve --port 0 --telemetry

The wrappers from :func:`bench_trace.install_service` time the calls
into each service layer; when the server exits (SIGINT, as Ctrl-C) the
span log and the ``repro.telemetry`` counters are written to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys

import bench_trace


def main(argv) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    from repro import cli, telemetry

    tracer = bench_trace.Tracer()
    bench_trace.install_service(tracer)
    try:
        return cli.main(cli_argv)
    finally:
        tracer.uninstall()
        counters = telemetry.get_registry().snapshot()["counters"]
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counters": counters}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
