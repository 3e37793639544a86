"""The four benchmark workloads: seeded inputs, timed calls and their checks.

A workload has a set-up, run once per process, and a pass: one list of
operations drawn from a seeded ``random.Random``.  Each operation is ``(kind, call, check)``: ``call`` is the timed public call
(or CLI subprocess) and ``check(result)`` runs outside the timed interval and
returns ``None`` or a message saying how the output is wrong.  Checks use the
naive oracles in ``tests/oracles.py`` or the benchmark's own unmemoised
recursions, never the memoised paths they check, so they leave the Schreier
memo untouched.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracles  # noqa: E402  (tests/oracles.py)
from schreierkit import families as fam  # noqa: E402
from schreierkit import interpolation as interp  # noqa: E402
from schreierkit import norms  # noqa: E402
from schreierkit import schreier as sch  # noqa: E402
from schreierkit.serialize import dump_json, family_to_obj, vector_to_obj  # noqa: E402
from schreierkit.vectors import SparseVector  # noqa: E402

Check = Callable[[Any], Optional[str]]
Op = tuple[str, Callable[[], Any], Check]

P = sch.parse_ordinal
TOL = Fraction(1, 2**20)


# ---------------------------------------------------------------- inputs


def rand_fraction(rng: random.Random, positive: bool = False) -> Fraction:
    num = rng.randint(1, 9) if positive else rng.choice((-1, 1)) * rng.randint(1, 9)
    return Fraction(num, rng.randint(1, 12))


def rand_vector(rng: random.Random, window, k: int, positive: bool = False) -> SparseVector:
    return SparseVector({i: rand_fraction(rng, positive) for i in rng.sample(list(window), k)})


def rand_subset(rng: random.Random, window, max_size: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(list(window), rng.randint(1, min(max_size, len(window))))))


def strata(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n integers from lo..hi, one from each of n equal slices, shuffled.

    Every pass then covers the whole range, so passes with different
    seeds carry nearly the same amount of work.
    """
    width = (hi - lo + 1) / n
    out = []
    for i in range(n):
        a, b = int(i * width), int((i + 1) * width)
        out.append(lo + a + rng.randrange(max(1, b - a)))
    rng.shuffle(out)
    return out


def as_dict(x: SparseVector) -> dict[int, Fraction]:
    return dict(x.items())


# ---------------------------------------------------------------- oracles


def naive_member(alpha: sch.OrdinalCNF, s: tuple[int, ...]) -> bool:
    """Unmemoised S_alpha membership; finite levels go to tests/oracles.py."""
    if not alpha.terms or (len(alpha.terms) == 1 and alpha.terms[0][0] == 0):
        level = alpha.terms[0][1] if alpha.terms else 0
        return oracles.schreier_level_member(level, s)
    if not s:
        return True
    if alpha.is_successor:
        return naive_blocks(alpha.predecessor(), s, s[0])
    return any(naive_member(sch.fundamental_sequence(alpha, n), s) for n in range(s[0]))


def naive_blocks(delta: sch.OrdinalCNF, s: tuple[int, ...], blocks_left: int) -> bool:
    """Can s be cut into at most blocks_left consecutive S_delta blocks?"""
    if not s:
        return True
    if blocks_left == 0:
        return False
    return any(
        naive_member(delta, s[:cut]) and naive_blocks(delta, s[cut:], blocks_left - 1)
        for cut in range(1, len(s) + 1)
    )


def s1_count(lo: int, hi: int) -> int:
    """#{s in [lo, hi] : #s <= min s}, empty set included: pick min m, then
    up to m - 1 more elements above it."""
    return 1 + sum(math.comb(hi - m, j) for m in range(lo, hi + 1) for j in range(m))


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def traces(members: list[tuple[int, ...]], support) -> list[tuple[int, ...]]:
    """Distinct traces of the members on the support (norms only see these)."""
    supp = set(support)
    return sorted({tuple(k for k in s if k in supp) for s in members})


def brute_block_norm_float(x: dict, members: list, p: float) -> float:
    """max over cuts of the support into consecutive runs of sum ||run||^p, p-th root."""
    support = sorted(x)
    m = len(support)
    run = {
        (i, j): float(oracles.family_norm_brute(members, {k: x[k] for k in support[i : j + 1]})) ** p
        for i in range(m) for j in range(i, m)
    }
    best = 0.0
    for cuts in itertools.product((0, 1), repeat=m - 1):
        total, start = 0.0, 0
        for pos, cut in enumerate(cuts, start=1):
            if cut:
                total += run[(start, pos - 1)]
                start = pos
        best = max(best, total + run[(start, m - 1)])
    return best ** (1.0 / p)


def memo_caches() -> list:
    """The Schreier layer's memoised helpers, while they exist."""
    return [f for f in (getattr(sch, "_member", None), getattr(sch, "_decompose", None))
            if hasattr(f, "cache_info")]


def memo_stats() -> dict:
    infos = [f.cache_info() for f in memo_caches()]
    return {
        "size": sum(i.currsize for i in infos),
        "hits": sum(i.hits for i in infos),
        "misses": sum(i.misses for i in infos),
    }


# ---------------------------------------------------------------- enum-cold

# Right ends of the windows per ordinal; the seed puts the left end at 1 or
# 2.  Of the members of S_alpha only {1} starts at 1, so the work depends on
# the right end, and each step right multiplies it by about 2-2.5.  The
# largest keep one enumeration near half a second.
ENUM_ENDS = {
    "1": (14, 17, 20), "2": (11, 12, 13), "3": (11, 12, 13), "w": (11, 12, 13),
    "w+1": (11, 12, 13), "w*2": (11, 12, 13), "w^2": (11, 12, 13),
}
INCLUSION_PAIRS = (("1", "2"), ("2", "w"), ("w", "w+1"), ("w*2", "w^2"))
CHECK_SAMPLES = 8


def enum_check(alpha: sch.OrdinalCNF, window: tuple[int, ...], rng: random.Random) -> Check:
    probes = [rand_subset(rng, window, 9) for _ in range(CHECK_SAMPLES)]

    def check(family: fam.Family) -> Optional[str]:
        lo, hi = window[0], window[-1]
        if alpha == P("1"):
            want = fibonacci(len(window) + 2) if lo == 1 else s1_count(lo, hi)
            if len(family) != want:
                return f"S_1 on {lo}..{hi}: {len(family)} members, expected {want}"
        for s in probes:
            if (s in family) != naive_member(alpha, s):
                return f"S_{alpha} on {lo}..{hi}: membership of {s} disagrees with the oracle"
        return None

    return check


def inclusion_check(alpha, beta, window, rng: random.Random) -> Check:
    probes = [rand_subset(rng, window, 9) for _ in range(CHECK_SAMPLES)]

    def check(rep: sch.InclusionReport) -> Optional[str]:
        if rep.ok:
            for s in probes:
                if s[0] >= rep.shift and naive_blocks(alpha, s, s[0]) and not naive_member(beta, s):
                    return f"shift {rep.shift} claimed but {s} escapes S_{beta}"
            return None
        c = rep.counterexample
        if c is None or not naive_blocks(alpha, c, c[0]) or naive_member(beta, c):
            return f"counterexample {c} is not one"
        return None

    return check


def enum_cold(ctx: None, rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for text, ends in ENUM_ENDS.items():
        alpha = P(text)
        for hi, lo in zip(ends, strata(rng, 1, 2, len(ends))):
            window = fam.interval(lo, hi)
            ops.append((f"enumerate:{text}", lambda a=alpha, w=window: sch.schreier_enumerate(a, w),
                        enum_check(alpha, window, rng)))
    shapes = zip(strata(rng, 1, 2, len(INCLUSION_PAIRS)), (11, 12, 11, 12))
    for (a_text, b_text), (lo, hi) in zip(INCLUSION_PAIRS, shapes):
        alpha, beta = P(a_text), P(b_text)
        window = fam.interval(lo, hi)
        ops.append((f"inclusion:{a_text}<{b_text}",
                    lambda a=alpha, b=beta, w=window: sch.check_inclusion(a, b, w),
                    inclusion_check(alpha, beta, window, rng)))
    rng.shuffle(ops)
    return ops


def assert_cold_memo() -> None:
    """Runs of enum-cold must start from an empty memo (fresh interpreter)."""
    size = memo_stats()["size"]
    if size:
        raise RuntimeError(f"Schreier memo holds {size} entries before the first timed operation")


# ---------------------------------------------------------------- norm-query

NORM_FAMILIES = (("S1", "1", 20), ("S2", "2", 14), ("Sw", "w", 16))
MEMBER_ALPHAS = ("1", "2", "3", "w", "w+1")
MEMBER_POOL = 128
MEMBER_DRAWS = 160
# One member operation is a batch of this many schreier_member calls.  A
# single memo read takes ~20 us, too short to time steadily on a shared host;
# a batch takes about a millisecond.
MEMBER_BATCH = 16
# per family and pass: (calls, largest support) for f_norm, block p=2 and
# Baernstein p=3/2.  The block DP makes m(m+1)/2 f_norm calls, so its cost
# grows about as m^3: at support 20 on S_1(1..20) one call takes ~2 s, as
# much as the rest of a pass.  Block calls stop at support 12 so that many
# similar calls, not one or two large ones, make up the timed wall.
NORM_CALLS = {"f_norm": (12, 20), "block_p2": (10, 12), "baernstein": (10, 12)}
# brute-force oracles cost more than the calls they check, so a seeded third
# of the calls get them and the rest get two-sided bounds
BRUTE_SHARE = 1 / 3
# uniform_weak_bound scans every member; on the 6.7k-member S_2 window one
# call costs about as much as one block norm, so it rides along once
WEAK_BOUND_FAMILY = "S2"
BRUTE_BLOCK_MAX_SUPPORT = 9


class NormSession:
    """The long-lived norm-query state: three families, built once."""

    def __init__(self) -> None:
        self.families = {
            name: (sch.schreier_enumerate(P(alpha), fam.interval(1, top)), fam.interval(1, top))
            for name, alpha, top in NORM_FAMILIES
        }
        self.spec = norms.NormingSpec(self.families[WEAK_BOUND_FAMILY][0])
        self._lists: dict[str, list] = {}
        self.stats = {"member_queries": 0, "member_repeats": 0}

    def traced(self, name: str, support) -> list:
        # the oracles scan plain member lists; built lazily, outside timing
        if name not in self._lists:
            self._lists[name] = list(self.families[name][0])
        return traces(self._lists[name], support)


def member_batch(queries: list) -> list[bool]:
    return [sch.schreier_member(a, s) for a, s in queries]


def norm_query(ctx: NormSession, rng: random.Random) -> list[Op]:
    sizes = strata(rng, 1, 10, MEMBER_POOL)
    pool = [(MEMBER_ALPHAS[i % len(MEMBER_ALPHAS)], tuple(sorted(rng.sample(range(1, 25), k))))
            for i, k in enumerate(sizes)]
    ops: list[Op] = []
    seen: set[int] = set()
    draws = []
    for _ in range(MEMBER_DRAWS):
        idx = rng.randrange(MEMBER_POOL)
        ctx.stats["member_repeats"] += idx in seen
        seen.add(idx)
        text, s = pool[idx]
        draws.append((P(text), s))
    ctx.stats["member_queries"] += len(draws)
    for start in range(0, MEMBER_DRAWS, MEMBER_BATCH):
        batch = draws[start : start + MEMBER_BATCH]

        def check(got, batch=batch):
            for (a, s), member in zip(batch, got):
                if member != naive_member(a, s):
                    return f"membership of {s} in S_{a} disagrees"
            return None

        ops.append(("member", lambda b=batch: member_batch(b), check))

    def f_norm_check(name: str, x: SparseVector) -> Check:
        brute = rng.random() < BRUTE_SHARE

        def check(got):
            if brute:
                want = oracles.family_norm_brute(ctx.traced(name, x.support), as_dict(x))
                return None if got == want else f"f_norm {got} != oracle {want} on {name}"
            return None if x.sup_norm() <= got <= x.l1_norm() else f"f_norm {got} out of range"
        return check

    def block_check(name: str, x: SparseVector) -> Check:
        brute = rng.random() < BRUTE_SHARE and len(x) <= BRUTE_BLOCK_MAX_SUPPORT

        def check(got):
            d = as_dict(x)
            if brute:
                want = oracles.block_power_brute(d, ctx.traced(name, d), 2)
                return None if got == want else f"block p=2 {got} != oracle {want}"
            # singleton blocks and the l1 mass bound the power from both sides
            lo = sum(v * v for v in map(abs, d.values()))
            hi = sum(map(abs, d.values())) ** 2
            return None if lo <= got <= hi else f"block p=2 {got} outside [{lo}, {hi}]"
        return check

    def baernstein_check(name: str, x: SparseVector) -> Check:
        brute = rng.random() < BRUTE_SHARE and len(x) <= BRUTE_BLOCK_MAX_SUPPORT

        def check(got):
            d = as_dict(x)
            if brute:
                want = brute_block_norm_float(d, ctx.traced(name, d), 1.5)
                return None if math.isclose(got, want, rel_tol=1e-9) else f"p=3/2 {got} != {want}"
            lo = sum(float(abs(v)) ** 1.5 for v in d.values()) ** (2 / 3)
            hi = float(sum(map(abs, d.values())))
            return None if lo * (1 - 1e-9) <= got <= hi * (1 + 1e-9) else f"p=3/2 {got} out of range"
        return check

    calls = {
        "f_norm": (lambda f, x: norms.f_norm(x, f), f_norm_check),
        "block_p2": (lambda f, x: norms.block_p_norm_power(x, f, 2), block_check),
        "baernstein": (lambda f, x: norms.baernstein_norm(x, f, Fraction(3, 2)), baernstein_check),
    }
    for name, (family, window) in ctx.families.items():
        for kind, (count, largest) in NORM_CALLS.items():
            call, make_check = calls[kind]
            for k in strata(rng, 6, min(largest, len(window)), count):
                x = rand_vector(rng, window, k)
                ops.append((kind, lambda c=call, f=family, x=x: c(f, x), make_check(name, x)))

    window = ctx.families[WEAK_BOUND_FAMILY][1]
    xs = [rand_vector(rng, window, k, positive=True) for k in strata(rng, 6, len(window), 2)]
    eps = Fraction(rng.randint(1, 4), 2)

    def weak_check(got):
        # nonnegative data: the best functional is an indicator sum or a coordinate
        union = sorted({k for x in xs for k in x.support})
        cands = ctx.traced(WEAK_BOUND_FAMILY, union) + [(k,) for k in union]
        want = max(sum(1 for x in xs if sum(x[k] for k in s) >= eps) for s in cands)
        return None if got == want else f"weak bound {got} != {want}"

    ops.append(("weak_bound", lambda: norms.uniform_weak_bound(xs, ctx.spec, eps), weak_check))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- gauge-lp

GAUGE_SUPPORTS = (2, 3, 4, 5)
# (window top, number of unit vectors) per spreading_constant call.  The LP
# has a row per trace member on the vectors' positions, so its cost follows
# the positions: they are spread evenly over the window and the seed draws
# the coefficients.  A cell with 8 vectors over 1..20 alone can take two
# seconds.
SPREAD_CELLS = ((8, 8), (12, 7), (16, 6), (20, 5))
SPREAD_WINDOWS = tuple(top for top, _ in SPREAD_CELLS)
# per pass: 8 gauges (4 supports x 2 families), 2 unit-vector gauges,
# 4 inner LPs, 4 spreading constants, 1 aggregated norm


class GaugeSession:
    """The gauge-lp families, built once per process."""

    def __init__(self) -> None:
        base = fam.bounded_cardinality_family(fam.interval(1, 5), 2)
        s1_8 = sch.schreier_enumerate(P("1"), fam.interval(1, 8))
        self.gauge_fams = (("box", base, fam.interval(1, 5)), ("S1", s1_8, fam.interval(1, 8)))
        self.spread_fams = {n: sch.schreier_enumerate(P("1"), fam.interval(1, n)) for n in SPREAD_WINDOWS}
        self.listed = {id(f): list(f) for f in [base, s1_8, *self.spread_fams.values()]}


def gauge_lp(ctx: GaugeSession, rng: random.Random) -> list[Op]:
    gauge_fams, spread_fams = ctx.gauge_fams, ctx.spread_fams

    def norm_of(family, x: dict) -> Fraction:
        return oracles.family_norm_brute(traces(ctx.listed[id(family)], x), x)

    def gauge_check(x: SparseVector, family, level: int, exact: Optional[Fraction]) -> Check:
        def check(br: interp.GaugeBracket) -> Optional[str]:
            norm = norm_of(family, as_dict(x))
            two = Fraction(2**level)
            lo_bound = norm / (two + 1 / two)
            hi_bound = min(x.l1_norm() / two, two * norm)
            if not (lo_bound <= br.lo <= br.hi <= hi_bound and br.width <= TOL):
                return f"bracket [{br.lo}, {br.hi}] at level {level} breaks its bounds"
            if exact is not None and not br.lo <= exact <= br.hi:
                return f"unit gauge {exact} outside [{br.lo}, {br.hi}]"
            return None

        return check

    ops: list[Op] = []
    levels = iter(strata(rng, 1, 6, 2 * len(GAUGE_SUPPORTS)))
    for name, family, window in gauge_fams:
        for k in GAUGE_SUPPORTS:
            x = rand_vector(rng, window, k)
            level = next(levels)
            prob = interp.GaugeProblem(x, level, family, TOL)
            ops.append((f"gauge:{name}", lambda p=prob: interp.dfjp_gauge(p),
                        gauge_check(x, family, level, None)))
    for (name, family, window), level in zip(gauge_fams, strata(rng, 1, 6, 2)):
        c = rand_fraction(rng, positive=True)
        x = SparseVector({rng.choice(window): c})
        exact = c / (2**level + Fraction(1, 2**level))
        prob = interp.GaugeProblem(x, level, family, TOL)
        ops.append(("gauge:unit", lambda p=prob: interp.dfjp_gauge(p), gauge_check(x, family, level, exact)))
    for k, level in zip(GAUGE_SUPPORTS, strata(rng, 1, 6, len(GAUGE_SUPPORTS))):
        name, family, window = gauge_fams[k % 2]
        x = rand_vector(rng, window, k)
        lam = Fraction(rng.randint(1, 8), 8)

        def check(res, x=x, family=family):
            norm = norm_of(family, as_dict(x))
            if res.objective != res.dual_objective or not 0 <= res.objective <= norm:
                return f"inner distance {res.objective} (dual {res.dual_objective}, norm {norm})"
            return None

        ops.append(("inner_distance",
                    lambda x=x, f=family, lam=lam, n=level: interp.inner_distance(x, f, lam, n), check))
    for top, count in SPREAD_CELLS:
        family = spread_fams[top]
        ys = [SparseVector({k: rand_fraction(rng, positive=True)})
              for k in (1 + (2 * i + 1) * top // (2 * count) for i in range(count))]

        def check(res, ys=ys, family=family):
            a = res.coefficients
            if any(v < 0 for v in a) or sum(a) != 1:
                return f"coefficients {a} are not convex"
            combo: dict[int, Fraction] = {}
            for coef, y in zip(a, ys):
                for k, v in y.items():
                    combo[k] = combo.get(k, Fraction(0)) + coef * v
            want = norm_of(family, combo)
            if res.value != want or res.lp.dual_objective != res.value:
                return f"spreading value {res.value} != norm of its combination {want}"
            return None

        ops.append(("spreading", lambda ys=ys, f=family: norms.spreading_constant(ys, f), check))
    name, family, window = rng.choice(gauge_fams)
    x = rand_vector(rng, window, 3)

    def norm_check(res):
        tail = x.l1_norm() ** 2 * Fraction(1, 4) ** 3 / (1 - Fraction(1, 4))
        if res.tail_powered != tail or not res.powered_lo <= res.powered_hi:
            return f"aggregated norm [{res.powered_lo}, {res.powered_hi}] tail {res.tail_powered}"
        if any(b.lo > b.hi or b.width > TOL for b in res.brackets):
            return "a level bracket is inverted or too wide"
        return None

    ops.append(("dfjp_norm", lambda: interp.dfjp_norm(x, family, 2, n_max=2, tolerance=TOL), norm_check))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- cli

CLI_VERIFY_SEED = 12345
# The cli workload is a fixed call list: its input files are the same for
# every workload seed, which only orders the calls within each pass.  Seeded
# inputs would make the gauge and norm calls trade places in the latency
# order from seed to seed, and with ten calls a pass that moves the median.
CLI_INPUT_SEED = 20121


def cli_inputs(workdir: Path) -> dict:
    """Input files for the fixed call list."""
    rng = random.Random(CLI_INPUT_SEED)
    workdir.mkdir(parents=True, exist_ok=True)
    w8 = fam.interval(1, 8)
    files = {
        "closure": fam.Family([rand_subset(rng, w8, 4) for _ in range(5)]),
        "blocks": fam.hereditary_closure(fam.Family([rand_subset(rng, w8, 3) for _ in range(3)])),
        "pattern": sch.schreier_family(w8),
        "s1_12": sch.schreier_family(fam.interval(1, 12)),
        "box": fam.bounded_cardinality_family(fam.interval(1, 5), 2),
    }
    paths = {}
    for name, family in files.items():
        paths[name] = str(workdir / f"{name}.json")
        dump_json(family_to_obj(family), paths[name])
    vectors = {
        "norm_x": rand_vector(rng, fam.interval(1, 12), 8),
        "gauge_x": rand_vector(rng, fam.interval(1, 5), rng.randint(2, 3)),
    }
    for name, x in vectors.items():
        paths[name] = str(workdir / f"{name}.json")
        dump_json(vector_to_obj(x), paths[name])
    paths["seed"] = rng.randint(1, 10**6)
    return paths


# (label, arguments, expected exit code) for one pass over the subcommands;
# "{name}" stands for the path of a generated input file.
CLI_CALLS: tuple[tuple[str, tuple[str, ...], int], ...] = (
    ("family-closure", ("family", "--op", "closure", "--input", "{closure}"), 0),
    ("family-otimes", ("family", "--op", "otimes", "--input", "{blocks}",
                       "--other", "{pattern}", "--window", "1..8"), 0),
    ("schreier-window", ("schreier", "--alpha", "1", "--window", "1..16"), 0),
    ("schreier-inclusion", ("schreier", "--alpha", "2", "--check-inclusion", "w", "--window", "1..12"), 0),
    ("norm-p2", ("norm", "--family", "{s1_12}", "--vector", "{norm_x}", "--p", "2"), 0),
    # valid input that fails at this commit (integer-to-string digit limit)
    ("tfamily-build", ("tfamily", "build", "--lam", "999/1000", "--window-max", "12"), 0),
    ("tfamily-verify", ("tfamily", "verify", "--seed", "{seed}"), 0),
    ("tfamily-sample", ("tfamily", "sample", "--n", "4", "--seed", "{seed}"), 0),
    ("gauge-n3", ("gauge", "--n", "3", "--family", "{box}", "--vector", "{gauge_x}"), 0),
    ("verify", ("verify", "--seed", str(CLI_VERIFY_SEED)), 0),
)
CLI_LABELS = tuple(label for label, _, _ in CLI_CALLS)


class CliExit(Exception):
    """A CLI call exited with another code than the expected one."""


def run_cli(args: list[str], expected: int, timeout: float, trace_out: Optional[Path] = None) -> str:
    """One CLI process; its standard output.  With ``trace_out`` it goes
    through cli_shim.py, which installs the tracer and writes its summary there."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    entry = ["-m", "schreierkit.cli"]
    if trace_out is not None:
        entry = [str(Path(__file__).resolve().parent / "cli_shim.py")]
        env["BENCH_TRACE_OUT"] = str(trace_out)
    proc = subprocess.run([sys.executable, *entry, *args], capture_output=True, text=True,
                          env=env, cwd=str(ROOT), timeout=timeout)
    if proc.returncode != expected:
        raise CliExit(f"exit {proc.returncode} (expected {expected}): {proc.stderr.strip()[-300:]}")
    return proc.stdout


class CliChecker:
    """Expected CLI outputs, computed in-process once per run."""

    def __init__(self, paths: dict) -> None:
        from schreierkit import tfamily as tf
        from schreierkit import verify as ver
        from schreierkit.serialize import family_from_obj, load_json, vector_from_obj

        self.paths = paths
        self.tf, self.ver = tf, ver
        self.load_family = lambda p: family_from_obj(load_json(p))
        self.load_vector = lambda p: vector_from_obj(load_json(p))

    def check(self, label: str, stdout: str) -> Optional[str]:
        """None when the output of a call that exited as expected is right."""
        return getattr(self, "_" + label.replace("-", "_"))(stdout)

    def _family_closure(self, out: str) -> Optional[str]:
        src = self.load_family(self.paths["closure"])
        want = {sub for s in src for r in range(len(s) + 1) for sub in itertools.combinations(s, r)}
        got = {tuple(s) for s in json.loads(out)["sets"]}
        return None if got == want else "closure differs from all subsets of the members"

    def _family_otimes(self, out: str) -> Optional[str]:
        blocks = set(self.load_family(self.paths["blocks"]))
        got = {tuple(s) for s in json.loads(out)["sets"]}
        # brute force: cuts of each subset of the window into member blocks
        # whose minima form an S_1 set
        want = set()
        for s in oracles.all_subsets(range(1, 9)):
            if not s:
                want.add(s)
                continue
            for cuts in itertools.product((0, 1), repeat=len(s) - 1):
                parts, start = [], 0
                for pos, cut in enumerate(cuts, start=1):
                    if cut:
                        parts.append(s[start:pos])
                        start = pos
                parts.append(s[start:])
                if all(p in blocks for p in parts) and oracles.schreier_member_direct([p[0] for p in parts]):
                    want.add(s)
                    break
        return None if got == want else "block product differs from the brute-force product"

    def _schreier_window(self, out: str) -> Optional[str]:
        sets = [tuple(s) for s in json.loads(out)["sets"]]
        want = fibonacci(16 + 2)
        if len(set(sets)) != want or not all(oracles.schreier_member_direct(s) for s in sets):
            return f"S_1 on 1..16 has {len(set(sets))} members, expected {want}"
        return None

    def _schreier_inclusion(self, out: str) -> Optional[str]:
        rep = sch.check_inclusion(P("2"), P("w"), fam.interval(1, 12))
        want = f"inclusion holds from shift n={rep.shift} on window {list(rep.window)}\n"
        return None if rep.ok and out == want else f"inclusion output {out!r} != {want!r}"

    def _norm_p2(self, out: str) -> Optional[str]:
        x = as_dict(self.load_vector(self.paths["norm_x"]))
        members = traces(list(self.load_family(self.paths["s1_12"])), x)
        want = oracles.block_power_brute(x, members, 2)
        m = re.search(r"exact 2-th power (\S+)\)", out)
        return None if m and Fraction(m.group(1)) == want else f"block norm output {out!r}, want power {want}"

    def _tfamily_build(self, out: str) -> Optional[str]:
        sys.set_int_max_str_digits(0)
        params = self.tf.TParams.build(Fraction(999, 1000), 12)
        got = json.loads(out)["cardinalities"]
        ok = all(int(got[str(n)]) == self.tf.index_cardinality(n, params) for n in range(1, 13))
        return None if ok else "piece cardinalities differ"

    def _tfamily_verify(self, out: str) -> Optional[str]:
        params = self.tf.TParams.build(Fraction(1, 2), 7)
        want = self.ver.run_suites(self.paths["seed"], names=["tfamily"], params=params).to_csv()
        return None if out == want else "tfamily verify CSV differs from run_suites"

    def _tfamily_sample(self, out: str) -> Optional[str]:
        params = self.tf.TParams.build(Fraction(1, 2), 7)
        pt = self.tf.sample_point(4, params, self.paths["seed"])
        obj = json.loads(out)
        digits = {tuple(k): v for k, v in obj["digits"]}
        ok = digits == pt.digits and obj["position"] == str(self.tf.point_to_integer(pt, params))
        return None if ok else "sampled point differs from sample_point"

    def _gauge_n3(self, out: str) -> Optional[str]:
        x = self.load_vector(self.paths["gauge_x"])
        br = interp.dfjp_gauge(interp.GaugeProblem(x, 3, self.load_family(self.paths["box"])))
        m = re.match(r"gauge level 3: \[(\S+), (\S+)\]", out)
        ok = m and Fraction(m.group(1)) == br.lo and Fraction(m.group(2)) == br.hi
        return None if ok else f"gauge output {out!r} != [{br.lo}, {br.hi}]"

    def _verify(self, out: str) -> Optional[str]:
        want = self.ver.run_suites(CLI_VERIFY_SEED).to_csv()
        return None if out == want else "verify CSV is not byte-identical to run_suites(12345)"


CLI_TIMEOUT_S = 150.0


class CliSession:
    """The cli workload's input files, its checker and, when traced, where
    each call writes its span summary."""

    def __init__(self, workdir: Path, traced: bool = False) -> None:
        self.workdir = workdir
        self.paths = cli_inputs(workdir / "inputs")
        self.checker = CliChecker(self.paths)
        self.traced = traced
        self.calls = 0
        self.trace_files: list[Path] = []
        # outputs repeat from pass to pass: each distinct one is checked once
        self._verdicts: dict[tuple[str, str], Optional[str]] = {}

    def call(self, args: list[str], expected: int) -> str:
        trace_out = None
        if self.traced:
            trace_out = self.workdir / f"trace-{self.calls}.json"
            self.trace_files.append(trace_out)
        self.calls += 1
        return run_cli(args, expected, CLI_TIMEOUT_S, trace_out)

    def check(self, label: str, out: str) -> Optional[str]:
        if (label, out) not in self._verdicts:
            self._verdicts[label, out] = self.checker.check(label, out)
        return self._verdicts[label, out]


def cli(ctx: CliSession, rng: random.Random) -> list[Op]:
    """One pass over CLI_CALLS, in seeded order."""
    ops: list[Op] = []
    for label, template, expected in CLI_CALLS:
        args = [a.format(**ctx.paths) for a in template]
        ops.append((label, lambda a=args, e=expected: ctx.call(a, e),
                    lambda out, label=label: ctx.check(label, out)))
    rng.shuffle(ops)
    return ops


# name: (set-up, once per process; one seeded pass of operations)
WORKLOADS: dict[str, tuple[Callable[..., Any], Callable[[Any, random.Random], list[Op]]]] = {
    "enum-cold": (lambda workdir, traced: None, enum_cold),
    "norm-query": (lambda workdir, traced: NormSession(), norm_query),
    "gauge-lp": (lambda workdir, traced: GaugeSession(), gauge_lp),
    "cli": (CliSession, cli),
}
