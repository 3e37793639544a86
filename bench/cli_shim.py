"""Run ``schreierkit.cli`` with the benchmark's tracer installed.

Used in place of ``python -m schreierkit.cli`` by traced cli runs.  Takes the
CLI's own arguments; writes the import time and the span summary to the file
named by the BENCH_TRACE_OUT environment variable, and the spans next to it.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402


def main() -> int:
    t0 = time.perf_counter()
    from schreierkit import cli

    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    tracer.active = True
    root = tracer.begin("cli.main")
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.end(root)
        tracer.active = False
        out = Path(os.environ["BENCH_TRACE_OUT"])
        out.write_text(json.dumps({"import_s": import_s, "summary": tracer.summary()}))
        tracer.dump(str(out.with_suffix(".spans.jsonl")))
    return code


if __name__ == "__main__":
    sys.exit(main())
