"""Run one `catlab` command with tracing installed.

    python3 perfbench/clishim.py OUT.json ARGS...

behaves like `python3 -m catlab ARGS...` (same stdout, stderr and exit
code) and writes the trace of the call to OUT.json.
"""

import json
import sys

from tracing import Tracer

import catlab.cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = catlab.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
