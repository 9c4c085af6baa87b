"""Run one `wcs` command line under the tracer, in a fresh interpreter.

    python3 perfbench/cli_shim.py factorial --n 0..5

Stdout and the exit code are the CLI's own.  The last stderr line is the
trace record: the `import wcs.cli` time and the per-layer totals.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    t0 = time.perf_counter()
    import wcs.cli

    import_s = time.perf_counter() - t0
    sys.path.insert(0, HERE)
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = wcs.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        record = {"import_s": import_s, "raw": tracer.snapshot()}
        print("PERFBENCH_TRACE " + json.dumps(record), file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
