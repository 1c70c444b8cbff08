"""Run one fusionaudit command with span tracing.

    python3 perfbench/child.py SPANS.json <fusionaudit arguments...>

Behaves like ``python3 -m fusionaudit <arguments...>``, with the same
output and exit code, and writes the span summary to SPANS.json.  The
traced run of the ``cli`` workload starts its commands through this file.
"""

import json
import sys

import fusionaudit.cli as cli
from spans import SERIALISE, Tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    cli._dump = tracer.span(SERIALISE, cli._dump)
    cli.render_report = tracer.span(SERIALISE, cli.render_report)
    code = cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
