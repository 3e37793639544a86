"""schreierkit benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload enum-cold --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; nothing needs building.  The work is
done by processes running bench/session.py, one at a time.  enum-cold starts
a fresh interpreter for every pass, so the process-global Schreier memo is
cold at each pass's first operation.  The other workloads are long-lived:
one process sets up once and runs passes until --seconds have passed, after
set-up-only probes that give the set-up time its median.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the passes twice,
untraced and then traced, in half the time each, and prints the per-layer
metrics from the traced copies, with the traced/untraced timed-wall ratio as
trace.overhead_ratio.  The last line of standard output is the result
object; the lines before it are a readable summary.  Files go to .bench_out/
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402

WORKLOADS = ("enum-cold", "norm-query", "gauge-lp", "cli")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
# Passes to run even past --seconds, so that a slow host still leaves
# TAIL_BEYOND samples beyond the tail percentile: a cli pass is ten calls,
# a gauge-lp pass nineteen.
MIN_PASSES = {"cli": 3, "gauge-lp": 4}
# The tail percentile is fixed per workload, so it does not move when a
# faster program fits more operations into a run.  Each leaves at least
# TAIL_BEYOND samples beyond it at the workload's sample count in a 25-second
# run; a run with fewer samples falls back to a lower percentile.  They sit
# below the highest such percentile, inside a group of similar operations of
# the pass's fixed mix: the few heaviest operations of a pass depend most on
# the seed.
TAIL_PERCENTILE = {"enum-cold": 90.0, "norm-query": 85.0, "gauge-lp": 85.0, "cli": 65.0}
TAIL_BEYOND = 10


def _betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta I_x(a, b), by its continued fraction."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 500):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-12:
            break
    return front * f


def quantile(samples: list[float], pct: float) -> float:
    """Harrell-Davis estimate of the pct-th percentile.

    A weighted mean of all order statistics around the rank, not one order
    statistic, so it does not jump when the rank falls between two groups of
    operations with different costs.
    """
    ordered = sorted(samples)
    n, p = len(ordered), pct / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    total, prev = 0.0, 0.0
    for i, value in enumerate(ordered, start=1):
        cur = _betainc(a, b, i / n)
        total += (cur - prev) * value
        prev = cur
    return total


def tail_percentile(n: int, target: float) -> float:
    pct = target
    while pct > 50.0 and n * (1 - pct / 100.0) < TAIL_BEYOND:
        pct -= 5.0
    return pct


def scaled_ms(rec: list) -> float:
    """An operation's latency in milliseconds at the host's full speed."""
    return rec[1] * rec[2]


class Runner:
    def __init__(self, workload: str, seed: int, trace: int) -> None:
        self.workload, self.seed, self.trace = workload, seed, trace
        self.out = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.started = time.monotonic()
        self.count = 0
        import session  # imports the library, so only once the checkout is known good

        self.reference = session.reference

    def session(self, first_pass: int = 0, max_passes: int = 0, deadline: float = 0.0,
                traced: bool = False, min_passes: int = 1) -> dict:
        tag = f"{self.count}-{'traced' if traced else 'plain'}{'' if deadline else '-setup'}"
        self.count += 1
        result_path = self.out / f"session-{tag}.json"
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise RuntimeError("run time limit reached")
        ref = self.reference()
        # time.monotonic() is CLOCK_MONOTONIC on Linux, shared by all processes
        spawn = time.monotonic()
        cmd = [sys.executable, str(BENCH / "session.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--spawn", repr(spawn), "--spawn-reference", repr(ref),
               "--first-pass", str(first_pass), "--max-passes", str(max_passes),
               "--min-passes", str(min_passes),
               "--deadline", repr(deadline), "--trace", str(int(traced)),
               "--workdir", str(self.out / tag), "--out", str(result_path)]
        # its own process group, so that a timeout also ends the CLI calls it started
        proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"session {tag} exited {proc.returncode}: {stderr[-2000:]}")
        return json.loads(result_path.read_text())

    def measure(self, seconds: float) -> tuple[list[dict], list[dict], list[float]]:
        """(plain processes, traced processes, set-up times at full speed)."""
        plain, traced, probes = [], [], []
        share = seconds / 2 if self.trace else seconds
        if self.workload == "enum-cold":
            deadline = self.started + share
            index = 0
            while index == 0 or time.monotonic() < deadline:
                plain.append(self.session(index, 1, deadline))
                index += 1
            if self.trace:
                traced = [self.session(i, 1, deadline, traced=True) for i in range(index)]
        else:
            if not self.trace:
                probes = [self.session() for _ in range(SETUP_SAMPLES - 1)]
            plain.append(self.session(deadline=time.monotonic() + share,
                                      min_passes=MIN_PASSES.get(self.workload, 1)))
            if self.trace:
                passes = len({rec[5] for rec in plain[0]["ops"]})
                traced.append(self.session(max_passes=passes, deadline=time.monotonic() + RUN_LIMIT_S,
                                           traced=True))
        setups = [s["setup_s"] * s["setup_scale"] for s in plain + probes]
        return plain, traced, setups


def end_to_end(workload: str, plain: list[dict], setups: list[float]) -> tuple[dict, dict]:
    records = [rec for s in plain for rec in s["ops"]]
    ms = [scaled_ms(rec) for rec in records]
    n = len(ms)
    failed = sum(1 for rec in records if rec[3] != "ok")
    pct = tail_percentile(n, TAIL_PERCENTILE[workload])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / sum(ms) * 1000.0, "1/s"),
        "op_p50_ms": (quantile(ms, 50.0), "ms"),
        "op_tail_ms": (quantile(ms, pct), "ms"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in plain), "MB"),
        "success_ratio": ((n - failed) / n, "ratio"),
    }
    notes = {
        "samples": n, "passes": len({(i, rec[5]) for i, s in enumerate(plain) for rec in s["ops"]}),
        "tail_percentile": pct, "setup_samples": len(setups), "fail_ratio": failed / n,
        "host_speed": round(statistics.median(rec[2] for rec in records), 4),
    }
    member = [s["member"] for s in plain if "member" in s]
    if member:
        notes["member_repeat_share"] = round(
            sum(m["member_repeats"] for m in member) / sum(m["member_queries"] for m in member), 4)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    import workloads as wl

    plain_ops = [rec for s in plain for rec in s["ops"]]
    traced_ops = [rec for s in traced for rec in s["ops"]]
    # traced and plain passes with the same index ran the same inputs; span
    # times are unscaled, so shares divide by the unscaled traced wall
    passes = len({rec[5] for rec in traced_ops})
    traced_wall_s = sum(rec[1] for rec in traced_ops) / 1000.0
    overhead = sum(scaled_ms(rec) for rec in traced_ops) / sum(
        scaled_ms(rec) for rec in plain_ops if rec[5] < passes)
    per_pass = {k: v / passes for k, v in tracing.merge([s["trace"] for s in traced]).items()}
    # CLI metrics read 0 on the other workloads, memo metrics on cli
    memo: dict = {}
    cli: dict = {"import_s": 0.0, "exit_nonzero": 0.0}
    by_label: dict[str, list[float]] = {label: [] for label in wl.CLI_LABELS}
    if workload == "cli":
        for rec in plain_ops:
            by_label[rec[0]].append(scaled_ms(rec) / 1000.0)
        plain_passes = len({rec[5] for rec in plain_ops})
        cli = {
            "import_s": tracing.median_or_zero([t for s in traced for t in s["import_s"]]),
            # a CLI call is an error only when its exit code is not the expected one
            "exit_nonzero": sum(rec[3] == "error" for rec in plain_ops) / plain_passes,
        }
    else:
        memo = {key: statistics.mean(s["memo"][key] for s in traced) for key in ("size", "hits", "misses")}
    cli["process_s"] = {label: tracing.median_or_zero(v) for label, v in by_label.items()}
    metrics = tracing.layer_metrics(per_pass, traced_wall_s / passes, memo, cli, overhead)
    return metrics, {"traced_passes": passes}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="workload input seed")
    ap.add_argument("--seconds", type=int, required=True, help="time to keep starting passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "schreierkit" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no schreierkit source checkout at {ROOT}", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts, so that an
    # operation and the reference work around it run on the same core.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(args.workload, args.seed, args.trace)
    try:
        plain, traced, setups = runner.measure(args.seconds)
        if args.trace:
            metrics, notes = per_layer(args.workload, plain, traced)
        else:
            metrics, notes = end_to_end(args.workload, plain, setups)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    records = [rec for s in plain for rec in s["ops"]]
    wrong = [rec for rec in records if rec[3] == "wrong"]
    errors = [rec for rec in records if rec[3] == "error"]
    for rec in (wrong + errors)[:5]:
        print(f"{rec[3]}: {rec[0]}: {rec[4]}")
    print(f"{args.workload} seed={args.seed} " + " ".join(f"{k}={v}" for k, v in notes.items()))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    (runner.out / "result.json").write_text(json.dumps({"notes": notes, "metrics": metrics}, indent=1))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(wrong) + len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
