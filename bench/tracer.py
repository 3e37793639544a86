"""Spans recorded from outside the library by rebinding module attributes.

The library is not edited: :meth:`Tracer.install` replaces each listed
public function with a wrapper, in every loaded ``schreierkit`` module that
holds a reference to it (``from .lp import solve_lp`` makes a second
reference in ``norms`` and ``interpolation``).  Calls between modules then go
through the wrapper; calls a module makes to its own private helpers do not.

A span is (id, parent id, name, start, end, attributes).  Spans stay in
memory and are written out when the session ends.  A span's self time is its
duration minus the time its child spans cover; calls are synchronous and
single-threaded, so children never overlap and that cover is their summed
duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from typing import Any, Callable, Optional

# (module, function, hook) per wrapped public function.  A hook turns
# (args, kwargs, result) into span attributes.
Hook = Optional[Callable[[tuple, dict, Any], dict]]

LAYERS = ("schreier", "families", "norms", "lp", "interpolation", "tfamily", "verify", "cli")


def _lp_shape(args: tuple, kwargs: dict, result: Any) -> dict:
    c = args[0]
    rows = sum(len(kwargs.get(k, args[i] if len(args) > i else ())) for i, k in ((1, "a_ub"), (3, "a_eq")))
    return {"rows": rows, "cols": len(c)}


def _family_size(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"members": len(result)}


def _case_count(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"cases": len(result.cases)}


TARGETS: tuple[tuple[str, str, Hook], ...] = (
    ("schreier", "schreier_member", None),
    ("schreier", "schreier_enumerate", _family_size),
    ("schreier", "schreier_family", _family_size),
    ("schreier", "check_inclusion", None),
    ("families", "best_set_sum", None),
    ("families", "otimes", None),
    ("families", "oplus", None),
    ("families", "trace", None),
    ("families", "restrict", None),
    ("families", "hereditary_closure", None),
    ("families", "g_lambda", None),
    ("families", "g_plus", None),
    ("families", "g_delta_mu", None),
    ("families", "find_uniform_trace", None),
    ("families", "largeness_witness", None),
    ("families", "bounded_cardinality_family", None),
    ("norms", "f_norm", None),
    ("norms", "block_p_norm_power", None),
    ("norms", "baernstein_norm", None),
    ("norms", "uniform_weak_bound", None),
    ("norms", "spreading_constant", None),
    ("norms", "eps_support_family", None),
    ("norms", "cesaro_profile", None),
    ("norms", "alpha_null_witness", None),
    ("lp", "solve_lp", _lp_shape),
    ("interpolation", "inner_distance", None),
    ("interpolation", "dfjp_gauge", None),
    ("interpolation", "dfjp_norm", None),
    ("tfamily", "radius", None),
    ("tfamily", "index_cardinality", None),
    ("tfamily", "sample_point", None),
    ("tfamily", "sample_in", None),
    ("tfamily", "f_of_u", None),
    ("tfamily", "measure_ratio", None),
    ("tfamily", "pigeonhole_intersection_empty", None),
    ("tfamily", "transversal_trace_report", None),
    ("tfamily", "transversal_norm", None),
    ("tfamily", "averages_norm", None),
    ("tfamily", "point_to_integer", None),
    ("tfamily", "barrier_window_members", None),
    ("verify", "run_suites", _case_count),
)


class Tracer:
    """In-memory span recorder; inert until :meth:`install` and while inactive."""

    def __init__(self) -> None:
        self.active = False
        # each span: [id, parent, name, start, end, attrs, child_time]
        self.spans: list[list] = []
        self._stack: list[list] = []
        # rejection-sampling bookkeeping: ids of freshly sampled points, and
        # how many of them were checked / accepted by point_membership
        self._fresh: set[int] = set()
        self.sample_checks = 0
        self.sample_accepts = 0

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, name, time.perf_counter(), None, None, 0.0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list, attrs: Optional[dict] = None) -> None:
        span[4] = time.perf_counter()
        span[5] = attrs
        self._stack.pop()
        if self._stack:
            self._stack[-1][6] += span[4] - span[3]

    def _wrap(self, fn: Callable, name: str, hook: Hook) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(span, hook(args, kwargs, result) if hook and result is not None else None)

        return wrapper

    def _count_samples(self, sample_point: Callable, point_membership: Callable):
        tracer = self

        @functools.wraps(sample_point)
        def sampled(*args, **kwargs):
            pt = sample_point(*args, **kwargs)
            if tracer.active:
                tracer._fresh.add(id(pt))
            return pt

        @functools.wraps(point_membership)
        def checked(pt, symbolic):
            ok = point_membership(pt, symbolic)
            if tracer.active and id(pt) in tracer._fresh:
                tracer._fresh.discard(id(pt))
                tracer.sample_checks += 1
                tracer.sample_accepts += ok
            return ok

        return sampled, checked

    def install(self) -> None:
        """Rebind every target in all loaded schreierkit modules."""
        for layer in {t[0] for t in TARGETS}:
            importlib.import_module(f"schreierkit.{layer}")
        mods = [m for n, m in list(sys.modules.items()) if n == "schreierkit" or n.startswith("schreierkit.")]
        tf = sys.modules["schreierkit.tfamily"]
        sampled, checked = self._count_samples(tf.sample_point, tf.point_membership)
        self._rebind(mods, tf.point_membership, checked)
        for layer, fname, hook in TARGETS:
            src = sys.modules[f"schreierkit.{layer}"]
            original = getattr(src, fname)
            inner = sampled if fname == "sample_point" else original
            self._rebind(mods, original, self._wrap(inner, f"{layer}.{fname}", hook))

    @staticmethod
    def _rebind(mods: list, original: Callable, replacement: Callable) -> None:
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs, _ in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")

    def summary(self) -> dict:
        """Additive per-layer totals; :func:`layer_metrics` turns them into ratios."""
        names = {s[0]: s[2] for s in self.spans}
        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}

        def add(key: str, value: float) -> None:
            out[key] = out.get(key, 0.0) + value

        gauge_ids: set[int] = set()
        for sid, parent, name, start, end, attrs, child in self.spans:
            if end is None:
                continue
            dur = end - start
            layer = name.partition(".")[0]
            if layer in LAYERS:
                add(f"{layer}.self_s", dur - child)
                add(f"{layer}.calls", 1)
            add(f"{name}.calls", 1)
            add(f"{name}.dur_s", dur)
            add(f"{name}.self_s", dur - child)
            parent_name = names.get(parent)
            if name == "norms.f_norm" and parent_name == "norms.block_p_norm_power":
                add("norms.f_norm_under_block_p", 1)
            if name == "interpolation.dfjp_gauge":
                gauge_ids.add(sid)
            if attrs:
                for key, value in attrs.items():
                    add(f"{name}.{key}", value)
        # LP solves whose nearest gauge ancestor exists
        parents = {s[0]: s[1] for s in self.spans}
        for sid, parent, name, *_ in self.spans:
            if name != "lp.solve_lp":
                continue
            p = parent
            while p is not None and p not in gauge_ids:
                p = parents[p]
            if p is not None:
                add("interpolation.lp_under_gauge", 1)
        out["tfamily.sample_checks"] = self.sample_checks
        out["tfamily.sample_accepts"] = self.sample_accepts
        return out


def merge(summaries: list[dict]) -> dict:
    total: dict[str, float] = {}
    for s in summaries:
        for key, value in s.items():
            total[key] = total.get(key, 0.0) + value
    return total


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tot: dict, traced_wall_s: float, memo: dict, cli: dict, overhead_ratio: float) -> dict:
    """Per-layer metrics, each as {"value", "unit"}; layers absent from a workload read 0."""
    g = lambda key: tot.get(key, 0.0)  # noqa: E731
    m: dict[str, tuple[float, str]] = {}
    m["schreier.calls"] = (g("schreier.calls"), "count")
    m["schreier.self_s"] = (g("schreier.self_s"), "s")
    enum_members = g("schreier.schreier_enumerate.members")
    m["schreier.members_per_s"] = (_ratio(enum_members, g("schreier.schreier_enumerate.dur_s")), "1/s")
    m["schreier.memo_size"] = (memo.get("size", 0.0), "count")
    lookups = memo.get("hits", 0.0) + memo.get("misses", 0.0)
    m["schreier.memo_hit_ratio"] = (_ratio(memo.get("hits", 0.0), lookups), "ratio")
    m["families.best_set_sum.calls"] = (g("families.best_set_sum.calls"), "count")
    m["families.self_s"] = (g("families.self_s"), "s")
    m["norms.f_norm.calls"] = (g("norms.f_norm.calls"), "count")
    m["norms.self_s"] = (g("norms.self_s"), "s")
    m["norms.block_p.f_norm_per_call"] = (
        _ratio(g("norms.f_norm_under_block_p"), g("norms.block_p_norm_power.calls")), "count")
    m["norms.spreading.self_s"] = (g("norms.spreading_constant.self_s"), "s")
    solves = g("lp.solve_lp.calls")
    m["lp.solve_calls"] = (solves, "count")
    m["lp.self_s"] = (g("lp.self_s"), "s")
    m["lp.ms_per_solve"] = (_ratio(1000.0 * g("lp.solve_lp.dur_s"), solves), "ms")
    m["lp.rows_mean"] = (_ratio(g("lp.solve_lp.rows"), solves), "count")
    m["lp.cols_mean"] = (_ratio(g("lp.solve_lp.cols"), solves), "count")
    gauges = g("interpolation.dfjp_gauge.calls")
    m["interpolation.gauge_calls"] = (gauges, "count")
    m["interpolation.self_s"] = (g("interpolation.self_s"), "s")
    m["interpolation.lp_per_gauge"] = (_ratio(g("interpolation.lp_under_gauge"), gauges), "count")
    m["tfamily.self_s"] = (g("tfamily.self_s"), "s")
    m["tfamily.radius_s"] = (g("tfamily.radius.dur_s"), "s")
    m["tfamily.sample_tries_per_accept"] = (
        _ratio(g("tfamily.sample_checks"), g("tfamily.sample_accepts")), "count")
    m["verify.cases"] = (g("verify.run_suites.cases"), "count")
    m["verify.self_s"] = (g("verify.self_s"), "s")
    m["cli.self_s"] = (g("cli.self_s"), "s")
    m["cli.import_s"] = (cli.get("import_s", 0.0), "s")
    for label, seconds in cli.get("process_s", {}).items():
        m[f"cli.{label}.process_s"] = (seconds, "s")
    m["cli.exit_nonzero"] = (cli.get("exit_nonzero", 0.0), "count")
    layered = 0.0
    for layer in LAYERS:
        share = _ratio(g(f"{layer}.self_s"), traced_wall_s)
        layered += g(f"{layer}.self_s")
        m[f"{layer}.self_share"] = (share, "ratio")
    # interpreter start, imports, the benchmark's own loop and unwrapped code
    m["other.self_share"] = (_ratio(max(traced_wall_s - layered, 0.0), traced_wall_s), "ratio")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
