"""Run the msvol CLI with spans around its layers; one traced operation.

Usage: python traced_cli.py SPANS_JSON -- MSVOL_ARGS...

Times the fresh-interpreter import of `msvol.cli` as its own span (layer
`import`), installs the wrappers of `tracing`, calls `msvol.cli.main`, and
writes the spans to SPANS_JSON when the command has finished.  Exits with
the CLI's status.
"""

import json
import sys
import time

import tracing


def main(argv):
    spans_path, rest = argv[0], argv[argv.index("--") + 1:]
    t0 = time.perf_counter()
    import msvol.cli
    t1 = time.perf_counter()
    tracer = tracing.Tracer()
    tracer.spans.append({"name": "import msvol.cli", "layer": "import",
                         "start": t0, "end": t1, "parent": -1, "op": None})
    tracer.install(tracing.CLI_TARGETS + tracing.INNER_TARGETS)
    try:
        status = tracer.span("msvol.cli.main", "cli", msvol.cli.main, None, rest)
    finally:
        tracer.uninstall()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"status": status, "spans": tracer.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
