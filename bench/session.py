"""One benchmark process: set up, run seeded passes over the operations, check.

Started by run.py; not meant to be run by hand.  The process sets up once,
then runs passes ``--first-pass``, ``--first-pass + 1``, ... until
``--max-passes`` are done, or the clock passes ``--deadline`` and at least
``--min-passes`` are done; it always finishes the pass it is in.  Pass *i*
draws its inputs from ``random.Random(f"{workload}:{seed}:{i}")``.  Only the
call itself is inside the timed interval; its output is checked right after,
untimed.  The result goes to a JSON file.  ``--spawn`` is the parent's CLOCK_MONOTONIC reading just
before it started this process, so set-up time counts interpreter start,
imports, input generation and family construction.

Every operation is bracketed by a short fixed reference work, timed just
before and just after it.  The host this runs on changes speed by up to 2x
from one tenth of a second to the next, and the operation and its two
references see nearly the same speed, so each operation's time is recorded
with the factor that scales it to the host's full speed (see ``scale``).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


# Seconds reference() and process_reference() take on this host when it runs
# at full speed: about the least they took over several minutes.
REFERENCE_S = 0.0025
PROCESS_REFERENCE_S = 0.050


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def reference() -> float:
    """Seconds taken by a fixed pure-Python work: Fraction sums and a
    tuple-keyed dict, a few milliseconds.  It never calls the library, so a
    faster library still reads faster."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 1000):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        table[i % 97, i % 89] = acc.numerator % 1000
    return time.perf_counter() - t0


def process_reference() -> float:
    """Seconds taken to start and end a bare interpreter (``-c pass``)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


def scale(before: float, after: float, proc: "tuple[float, float] | None" = None) -> float:
    """The factor that takes a time measured between two reference timings
    to the host's full speed.

    A library call slows down as much as the reference work does.  A CLI call
    is partly interpreter start, imports and page faults, which the host's
    slow spells slow about half as much: over 150 s of alternating calls, the
    log of a short CLI call's time rose 0.48 times as fast as the log of the
    reference time and 0.78 times as fast as the log of a bare interpreter
    start.  So a CLI call (``proc`` given) takes the geometric mean of the two
    factors; on those calls it cut the spread of 15-second medians from
    0.07 to 0.03 for a short call and from 0.06 to 0.04 for a longer one.
    """
    factor = REFERENCE_S / ((before + after) / 2)
    if proc is not None:
        factor = math.sqrt(factor * PROCESS_REFERENCE_S / ((proc[0] + proc[1]) / 2))
    return factor


def run_pass(ops: list, index: int, tracer: "tracing.Tracer | None", records: list,
             process_refs: bool) -> None:
    for kind, call, check in ops:
        status, detail, result = "ok", "", None
        proc_before = process_reference() if process_refs else 0.0
        before = reference()
        if tracer:
            tracer.active = True
            root = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001  a raising call is a failed operation
            status, detail = "error", repr(exc)[:300]
        t1 = time.perf_counter()
        if tracer:
            tracer.end(root)
            tracer.active = False
        after = reference()
        proc = (proc_before, process_reference()) if process_refs else None
        if status == "ok":
            problem = check(result)
            if problem:
                status, detail = "wrong", problem
        records.append([kind, (t1 - t0) * 1000.0, scale(before, after, proc), status, detail, index])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawn", type=float, required=True)
    ap.add_argument("--spawn-reference", type=float, required=True)
    ap.add_argument("--first-pass", type=int, default=0)
    ap.add_argument("--max-passes", type=int, default=0, help="0: no limit, stop at --deadline")
    ap.add_argument("--min-passes", type=int, default=1, help="passes to run even past --deadline")
    ap.add_argument("--deadline", type=float, default=0.0, help="CLOCK_MONOTONIC; 0: set up only")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    setup, make_pass = wl.WORKLOADS[args.workload]
    tracer = None
    if args.trace and args.workload != "cli":  # traced CLI calls trace themselves
        tracer = tracing.Tracer()
        tracer.install()
    ctx = setup(workdir, bool(args.trace))
    index = args.first_pass
    ops = make_pass(ctx, random.Random(f"{args.workload}:{args.seed}:{index}"))
    if args.workload == "enum-cold":
        wl.assert_cold_memo()
    setup_s = time.monotonic() - args.spawn
    result: dict = {"setup_s": setup_s, "setup_scale": scale(args.spawn_reference, reference())}
    if args.deadline:
        records: list = []
        while True:
            run_pass(ops, index, tracer, records, process_refs=args.workload == "cli")
            index += 1
            done = index - args.first_pass
            if done == args.max_passes or (done >= args.min_passes and time.monotonic() >= args.deadline):
                break
            ops = make_pass(ctx, random.Random(f"{args.workload}:{args.seed}:{index}"))
        result["ops"] = records
        result["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN if args.workload == "cli"
                                            else resource.RUSAGE_SELF)
        result["memo"] = wl.memo_stats()
        if isinstance(ctx, wl.NormSession):
            result["member"] = ctx.stats
        if tracer:
            result["trace"] = tracer.summary()
            tracer.dump(str(workdir / "spans.jsonl"))
        if args.trace and args.workload == "cli":
            summaries = [json.loads(p.read_text()) for p in ctx.trace_files if p.exists()]
            result["trace"] = tracing.merge([s["summary"] for s in summaries])
            result["import_s"] = [s["import_s"] for s in summaries]
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
