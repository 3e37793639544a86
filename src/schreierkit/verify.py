"""Bundled verification suites with deterministic, seedable evidence output.

Each suite is a list of named cases; a case computes a verdict plus a witness
string (mandatory on failure) and, where meaningful, an exact value as a
"p/q" string.  Randomized cases draw every input up front from the seed, so
a report is a pure function of (seed, suite selection) and the emitted CSV
is byte-identical across runs.  Elapsed times are kept in memory for console
summaries but never written to output files.
"""

from __future__ import annotations

import io
import itertools
import math
import random
import time
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import families as fam
from . import norms
from . import schreier as sch
from . import tfamily as tf
from .oracles import (
    block_decomposable,
    block_power_brute,
    disequality_solutions,
    eh_set,
    family_norm_brute,
)
from .serialize import format_rational
from .vectors import SparseVector

CSV_SCHEMA = "suite,property_id,instance,verdict,witness,exact_value"
CSV_VERSION = "schreierkit-verify-v1"

# (outcome, witness, exact value); outcome True/False or "skip" with a reason
Verdict = tuple[object, str, str]


class CaseResult(NamedTuple):
    # the first six fields are the CSV columns
    suite: str
    property_id: str
    instance: str
    verdict: str
    witness: str
    exact_value: str
    elapsed_ms: float


class RunReport(NamedTuple):
    seed: int
    cases: list[CaseResult]

    @property
    def ok(self) -> bool:
        return not any(c.verdict == "fail" for c in self.cases)

    @property
    def exit_status(self) -> int:
        return 0 if self.ok else 1

    def sorted_cases(self) -> list[CaseResult]:
        return sorted(self.cases, key=lambda c: (c.suite, c.property_id, c.instance))

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(f"# {CSV_VERSION}; seed={self.seed}; columns={CSV_SCHEMA}\n")
        out.write(CSV_SCHEMA + "\n")
        for c in self.sorted_cases():
            out.write(",".join(map(_csv_quote, c[:-1])) + "\n")
        return out.getvalue()

    def to_obj(self) -> dict:
        return {
            "version": CSV_VERSION,
            "seed": self.seed,
            "cases": [
                {k: v for k, v in c._asdict().items() if k != "elapsed_ms"}
                for c in self.sorted_cases()
            ],
        }


def _csv_quote(field: str) -> str:
    if any(ch in field for ch in ',"\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


Case = tuple[str, str, Callable[[], Verdict]]


def _run_cases(suite: str, cases: Sequence[Case]) -> list[CaseResult]:
    def execute(case: Case) -> CaseResult:
        pid, instance, thunk = case
        t0 = time.perf_counter()
        try:
            outcome, witness, exact = thunk()
        except Exception as exc:  # a crash is a failing case, not a crashed run
            outcome, witness, exact = False, f"exception: {exc!r}", ""
        ms = (time.perf_counter() - t0) * 1000.0
        if outcome == "skip":
            verdict = "skipped"
        else:
            verdict = "pass" if outcome else "fail"
        return CaseResult(suite, pid, instance, verdict, witness, exact, ms)

    return [execute(c) for c in cases]


def _rand_fraction(rng: random.Random, den: int = 12, lo: int = -6, hi: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _rand_vector(rng: random.Random, window: Sequence[int], max_support: int) -> SparseVector:
    size = rng.randint(1, max_support)
    support = rng.sample(list(window), min(size, len(window)))
    return SparseVector({k: _rand_fraction(rng) for k in support})


def _rand_hereditary(rng: random.Random, window: Sequence[int], n_seeds: int = 6) -> fam.Family:
    seeds = []
    for _ in range(n_seeds):
        size = rng.randint(1, min(4, len(window)))
        seeds.append(rng.sample(list(window), size))
    return fam.hereditary_closure(fam.Family(seeds))


# ---------------------------------------------------------------- suites


def suite_setfam(seed: int) -> list[Case]:
    rng = random.Random(seed ^ 0x5E7FA0)
    w = fam.interval(1, 8)
    rand_fams = [_rand_hereditary(rng, w) for _ in range(3)]
    rand_sets = [tuple(sorted(rng.sample(list(w), rng.randint(1, 5)))) for _ in range(6)]

    def closure_example() -> Verdict:
        got = fam.hereditary_closure(fam.Family([[1, 2]]))
        want = fam.Family([[], [1], [2], [1, 2]])
        return got == want, "" if got == want else repr(got), ""

    def closure_idempotent() -> Verdict:
        for f in rand_fams:
            c1 = fam.hereditary_closure(f)
            if fam.hereditary_closure(c1) != c1:
                return False, repr(f), ""
        return True, "", ""

    def trace_compose() -> Verdict:
        for f in rand_fams:
            for m1, m2 in itertools.combinations(rand_sets, 2):
                lhs = fam.trace(fam.trace(f, m1), m2)
                rhs = fam.trace(f, tuple(sorted(set(m1) & set(m2))))
                if lhs != rhs:
                    return False, f"M={m1}, M'={m2}", ""
        return True, "", ""

    def hereditary_trace_eq_restrict() -> Verdict:
        for f in rand_fams:
            for m in rand_sets:
                if fam.trace(f, m) != fam.restrict(f, m):
                    return False, f"F={f!r}, M={m}", ""
        return True, "", ""

    def oplus_empty_convention() -> Verdict:
        got = fam.oplus(fam.Family([[], [5]]), fam.Family([[], [1]]))
        want = fam.Family([[], [1], [5], [1, 5]])
        return got == want, "" if got == want else repr(got), ""

    def block_product_witnesses() -> Verdict:
        s1 = sch.schreier_family(w)
        prod = fam.otimes(s1, s1, w)
        for s in prod:
            if s and not block_decomposable(s, s1, s1):
                return False, f"no decomposition for {s}", ""
        return True, "", str(len(prod))

    lams = [Fraction(rng.randint(1, 4), 4) for _ in rand_fams]

    def density_projections() -> Verdict:
        measure = fam.PartitionMeasure.uniform([[1, 2], [3, 4], [5, 6, 7, 8]])
        for f, lam in zip(rand_fams, lams):
            projected = []
            for s in f:
                split = measure.split(s)
                s_lam = sorted(n for n, part in split.items() if len(part) >= lam * len(measure.pieces[n - 1]))
                if not set(s_lam).issubset(split):
                    return False, f"s={s}, lambda={lam}", ""
                projected.append(s_lam)
            if fam.g_lambda(f, measure, lam) != fam.Family(projected):
                return False, f"g_lambda mismatch on {f!r}", ""
        return True, "", ""

    def uniform_trace_examples() -> Verdict:
        f2 = fam.bounded_cardinality_family(fam.interval(1, 12), 2)
        r = fam.find_uniform_trace(f2, fam.interval(1, 10), 5, 2)
        if not (r.found and r.witness == (1, 2, 3, 4, 5)):
            return False, f"[N]^<=2 search: {r}", ""
        s_fam = sch.schreier_family(fam.interval(1, 16))
        r2 = fam.find_uniform_trace(s_fam, fam.interval(10, 16), 4, 3)
        if r2.status != "absent":
            return False, f"expected absent, got {r2}", ""
        return True, "", ""

    return [
        ("setfam.closure_example", "{{1,2}}", closure_example),
        ("setfam.closure_idempotent", "3 random hereditary families", closure_idempotent),
        ("setfam.trace_compose", "random F, M, M'", trace_compose),
        ("setfam.trace_eq_restrict", "hereditary F", hereditary_trace_eq_restrict),
        ("setfam.oplus_empty_convention", "{empty,{5}} with {empty,{1}}", oplus_empty_convention),
        ("setfam.block_product_witness", "level-1 product on 1..8", block_product_witnesses),
        ("setfam.density_projection_subset", "uniform measure on 1..8", density_projections),
        ("setfam.uniform_trace", "bounded + schreier searches", uniform_trace_examples),
    ]


def suite_schreier(seed: int) -> list[Case]:
    w8 = fam.interval(1, 8)
    one = sch.OrdinalCNF.from_int(1)
    two = sch.OrdinalCNF.from_int(2)
    omega = sch.parse_ordinal("w")

    def product_level(alpha: sch.OrdinalCNF, base: fam.Family) -> Verdict:
        target = sch.schreier_enumerate(alpha, w8)
        got = fam.otimes(base, sch.schreier_family(w8), w8)
        return got == target, "" if got == target else "families differ", str(len(target))

    def hereditary_and_spreading() -> Verdict:
        for alpha in (one, two, omega):
            f = sch.schreier_enumerate(alpha, w8)
            if not fam.is_hereditary(f):
                return False, f"alpha={alpha} not hereditary", ""
            for s in f:
                if not s:
                    continue
                for t in itertools.combinations(w8, len(s)):
                    if all(a <= b for a, b in zip(s, t)) and t not in f:
                        return False, f"alpha={alpha}: {s} spreads to {t} outside", ""
        return True, "", ""

    def singletons() -> Verdict:
        for alpha in (one, two, omega):
            for k in w8:
                if not sch.schreier_member(alpha, [k]):
                    return False, f"{{{k}}} missing from level {alpha}", ""
        return True, "", ""

    def limit_window() -> Verdict:
        ok1 = sch.schreier_member(omega, [2, 3])
        ok2 = not sch.schreier_member(omega, [2, 3, 4])
        return ok1 and ok2, "" if ok1 and ok2 else "limit-shift membership wrong", ""

    def inclusion_shifts() -> Verdict:
        rep = sch.check_inclusion(sch.OrdinalCNF.from_int(0), one, w8)
        if not (rep.ok and rep.shift == 1):
            return False, f"expected shift 1, got {rep}", ""
        rep2 = sch.check_inclusion(one, two, w8)
        if not rep2.ok:
            return False, f"no shift found: {rep2}", ""
        return True, "", f"{rep2.shift}"

    return [
        ("schreier.product_level1", "[N]^<=1 times S on 1..8", lambda: product_level(one, fam.bounded_cardinality_family(w8, 1))),
        ("schreier.product_level2", "S times S on 1..8", lambda: product_level(two, sch.schreier_family(w8))),
        ("schreier.hereditary_spreading", "levels 1,2,w on 1..8", hereditary_and_spreading),
        ("schreier.singletons", "levels 1,2,w", singletons),
        ("schreier.limit_window", "level w shifted union", limit_window),
        ("schreier.inclusion_shift", "levels (0,1) and (1,2) on 1..8", inclusion_shifts),
    ]


def suite_norms(seed: int) -> list[Case]:
    rng = random.Random(seed ^ 0x90A335)
    w8 = fam.interval(1, 8)
    s_fam = sch.schreier_family(w8)
    rand_fam = _rand_hereditary(rng, w8)
    vectors = [_rand_vector(rng, w8, 6) for _ in range(25)]
    pairs = [(_rand_vector(rng, w8, 5), _rand_vector(rng, w8, 5)) for _ in range(10)]

    def f_norm_example() -> Verdict:
        x = SparseVector({k: Fraction(1, 2) for k in (2, 3, 4, 5)})
        v = norms.f_norm(x, s_fam)
        return v == Fraction(3, 2), "" if v == Fraction(3, 2) else str(v), format_rational(v)

    def f_norm_brute() -> Verdict:
        for fml in (s_fam, rand_fam):
            for x in vectors:
                got = norms.f_norm(x, fml)
                want = family_norm_brute(fml, dict(x.items()))
                if got != want:
                    return False, f"x={x!r}: {got} != {want}", ""
        return True, "", ""

    scalars = [_rand_fraction(rng) for _ in pairs]

    def norm_axioms() -> Verdict:
        for (x, y), c in zip(pairs, scalars):
            lhs = norms.f_norm(x + y, s_fam)
            if lhs > norms.f_norm(x, s_fam) + norms.f_norm(y, s_fam):
                return False, f"triangle fails: {x!r}, {y!r}", ""
            if norms.f_norm(x.scale(c), s_fam) != abs(c) * norms.f_norm(x, s_fam):
                return False, f"homogeneity fails at c={c}", ""
            if norms.f_norm(x.abs(), s_fam) != norms.f_norm(x, s_fam):
                return False, f"sign flip changes norm: {x!r}", ""
        return True, "", ""

    def trace_sufficiency() -> Verdict:
        for x in vectors[:10]:
            full = norms.f_norm(x, s_fam)
            traced = norms.f_norm(x, fam.trace(s_fam, x.support))
            if full != traced:
                return False, f"x={x!r}", ""
        return True, "", ""

    def block_dp_vs_brute() -> Verdict:
        for x in vectors[:8]:
            for p in (1, 2):
                got = norms.block_p_norm_power(x, s_fam, p)
                want = block_power_brute(dict(x.items()), s_fam, p)
                if got != want:
                    return False, f"p={p}, x={x!r}: {got} != {want}", ""
            if norms.baernstein_norm(x, s_fam, float("inf")) != norms.f_norm(x, s_fam):
                return False, f"p=inf mismatch at {x!r}", ""
        return True, "", ""

    def block_lower_bound() -> Verdict:
        for _ in range(10):
            k = rng.randint(2, 4)
            blocks, start = [], 1
            for _ in range(k):
                size = rng.randint(1, 2)
                blocks.append(
                    SparseVector({start + i: abs(_rand_fraction(rng)) + 1 for i in range(size)})
                )
                start += size
            coeffs = [_rand_fraction(rng) for _ in range(k)]
            total = SparseVector()
            for a, y in zip(coeffs, blocks):
                total = total + y.scale(a)
            lhs = norms.block_p_norm_power(total, s_fam, 2)
            rhs = sum(
                (a**2 * norms.block_p_norm_power(y, s_fam, 2) for a, y in zip(coeffs, blocks)),
                Fraction(0),
            )
            if lhs < rhs:
                return False, f"coeffs={coeffs}", ""
        return True, "", ""

    def eps_support_identity() -> Verdict:
        basis = [SparseVector.unit(k) for k in w8]
        spec = norms.NormingSpec(s_fam)
        got = norms.eps_support_family(basis, spec, Fraction(1, 2))
        want = fam.Family(list(s_fam) + [(k,) for k in w8])
        return got == want, "" if got == want else "families differ", ""

    def uniform_weak_example() -> Verdict:
        basis = [SparseVector.unit(k) for k in w8]
        spec = norms.NormingSpec(fam.bounded_cardinality_family(w8, 3))
        n_eps = norms.uniform_weak_bound(basis, spec, Fraction(1, 2))
        return n_eps == 3, "" if n_eps == 3 else str(n_eps), str(n_eps)

    def spreading_constants() -> Verdict:
        for s in [(2, 3), (3, 4, 5), (4, 5, 6, 7)]:
            ys = [SparseVector.unit(k) for k in s]
            res = norms.spreading_constant(ys, s_fam)
            if res.value != 1 or res.lp.objective != res.lp.dual_objective:
                return False, f"s={s}: value {res.value}", ""
            res0 = norms.spreading_constant(ys, fam.bounded_cardinality_family(w8, 1))
            if res0.value != Fraction(1, len(s)):
                return False, f"s={s}: c0 value {res0.value}", ""
        return True, "", "1"

    def cesaro_c0() -> Verdict:
        ys = [SparseVector.unit(k) for k in range(1, 6)]
        prof = norms.cesaro_profile(ys, fam.bounded_cardinality_family(fam.interval(1, 5), 1), float("inf"))
        want = [Fraction(1, n) for n in range(1, 6)]
        return prof == want, "" if prof == want else str(prof), ""

    return [
        ("norms.f_norm_example", "x=1/2 on 2..5 under S", f_norm_example),
        ("norms.f_norm_brute", "25 random vectors, 2 families", f_norm_brute),
        ("norms.axioms", "triangle, homogeneity, unconditionality", norm_axioms),
        ("norms.trace_sufficiency", "10 random vectors", trace_sufficiency),
        ("norms.block_dp_brute", "8 random vectors, p in {1,2,inf}", block_dp_vs_brute),
        ("norms.block_lower_bound", "10 random block sums, p=2", block_lower_bound),
        ("norms.eps_support_identity", "unit basis on 1..8", eps_support_identity),
        ("norms.uniform_weak_bound", "unit basis, [N]^<=3, eps=1/2", uniform_weak_example),
        ("norms.spreading_lp", "unit bases over s in S", spreading_constants),
        ("norms.cesaro_profile", "unit basis, singleton family", cesaro_c0),
    ]


def suite_tfamily(seed: int, params: Optional[tf.TParams] = None) -> list[Case]:
    rng = random.Random(seed ^ 0x7FA111)
    params = params or tf.TParams.build(Fraction(1, 2), 7)
    us = tf.barrier_window_members(params.window_max)
    profiles = [
        SparseVector({n: _rand_fraction(rng) for n in rng.sample(range(1, params.window_max + 1), rng.randint(1, params.window_max))})
        for _ in range(25)
    ]

    def radix_minimality() -> Verdict:
        for m, r in sorted(params.radices.items()):
            exponent = math.comb(m - 2, 2)
            if Fraction(r - 1, r) ** exponent < params.lam:
                return False, f"r_{m}={r} is too small", ""
            if r > 1 and Fraction(r - 2, r - 1) ** exponent >= params.lam:
                return False, f"r_{m}={r} is not minimal ({r-1} works)", ""
        table = ",".join(f"r_{m}={r}" for m, r in sorted(params.radices.items()))
        return True, "", table

    def eh_counts() -> Verdict:
        for n in range(2, 7):
            for r in range(1, 4):
                if tf.erdos_hajnal_count(n, r) != len(eh_set(n, r, 1, 2)):
                    return False, f"(n,r)=({n},{r})", ""
        return True, "", ""

    def eh_intersection() -> Verdict:
        n, r = 3, 2
        hit = sorted(
            set.intersection(
                *(set(eh_set(n, r, i, j)) for i, j in itertools.combinations(range(1, n + 1), 2))
            )
        )
        return not hit, "" if not hit else str(hit[0]), "0"

    def g_identity() -> Verdict:
        for u in us:
            for n in u:
                ratio = tf.measure_ratio(u, n, params)
                if ratio < params.lam or ratio <= 0:
                    return False, f"u={u}, n={n}, ratio={ratio}", ""
        return True, "", str(len(us))

    def first_piece_full() -> Verdict:
        for u in us:
            if tf.measure_ratio(u, u[0], params) != 1:
                return False, f"u={u}", ""
        return True, "", ""

    def pigeonhole_emptiness() -> Verdict:
        p8 = tf.TParams.build(params.lam, max(params.window_max, 8))
        a_sets = [(4, l1, l2, 8) for l1, l2 in itertools.combinations((5, 6, 7), 2)]
        rep = tf.pigeonhole_intersection_empty(a_sets, (5, 6, 7, 8), p8)
        if not (rep.empty and rep.preconditions_ok):
            return False, f"report: {rep}", ""
        constraints = [pair for u in a_sets for pair in tf.f_of_u(u, p8).piece_constraints(8)]
        brute = next(disequality_solutions(constraints, p8.radix), None) is None
        return brute == rep.empty, "" if brute == rep.empty else "brute force disagrees", ""

    def sandwich() -> Verdict:
        g = fam.Family(us)
        for a in profiles:
            left = params.lam * norms.f_norm(a, g)
            mid = max(tf.averages_norm(a, params), a.sup_norm())
            right = norms.f_norm(a, g)
            if not (left <= mid <= right):
                return False, f"a={a!r}: {left} vs {mid} vs {right}", ""
        return True, "", ""

    def averages_normalized() -> Verdict:
        for m in range(1, params.window_max + 1):
            v = tf.averages_norm(SparseVector.unit(m), params)
            if v != 1:
                return False, f"block {m}: {v}", ""
        return True, "", "1"

    # a transversal spans 4..window_max pieces, so a window below 4 has none
    transversals = []
    for _ in range(5 if params.window_max >= 4 else 0):
        pieces = sorted(rng.sample(range(1, params.window_max + 1), rng.randint(4, params.window_max)))
        pts = [tf.sample_point(n, params, rng) for n in pieces]
        weights = [
            [abs(_rand_fraction(rng)) + Fraction(1, 12) for _ in pieces] for _ in range(5)
        ]
        transversals.append((pts, weights))

    def transversal_c0() -> Verdict:
        if not transversals:
            return "skip", "transversals need 4 pieces within this window", ""
        for t_idx, (pts, weights) in enumerate(transversals):
            rep = tf.transversal_trace_report(pts, params, bound=3)
            chosen = [pts[i] for i in rep.selected]
            if not chosen:
                return False, f"transversal {t_idx}: empty selection", ""
            for row in weights:
                coeffs = [row[i] for i in rep.selected]
                v = tf.transversal_norm(chosen, coeffs, params)
                top = max(coeffs)
                if not (top <= v <= 4 * top):
                    return False, f"transversal {t_idx}: ratio {v/top}", ""
        return True, "", ""

    def sample_determinism() -> Verdict:
        if params.window_max < 4:
            return "skip", "pieces below 4 carry no digits", ""
        a = tf.sample_point(4, params, 99)
        b = tf.sample_point(4, params, 99)
        return a == b, "" if a == b else "seeded samples differ", ""

    def rejection_rate() -> Verdict:
        if params.window_max < 7:
            return "skip", "no constrained pieces within this window", ""
        sym = tf.f_of_u((4, 5, 6, 7), params)
        ratio = tf.measure_ratio((4, 5, 6, 7), 7, params)
        tries = 2000
        local = random.Random(seed ^ 0xACC)
        hits = sum(
            1 for _ in range(tries) if tf.point_membership(tf.sample_point(7, params, local), sym)
        )
        mean = float(ratio)
        sigma = (mean * (1 - mean) / tries) ** 0.5
        ok = abs(hits / tries - mean) <= 3 * sigma
        return ok, "" if ok else f"rate {hits/tries} vs {mean}", format_rational(ratio)

    return [
        ("tfamily.radix_minimality", f"lambda={format_rational(params.lam)}", radix_minimality),
        ("tfamily.eh_count", "n<=6, r<=3 brute force", eh_counts),
        ("tfamily.eh_intersection", "(n,r)=(3,2), #s=3", eh_intersection),
        ("tfamily.g_identity", "all window barrier sets", g_identity),
        ("tfamily.first_piece_full", "all window barrier sets", first_piece_full),
        ("tfamily.pigeonhole_emptiness", "n1=4, r=2, #w=4", pigeonhole_emptiness),
        ("tfamily.sandwich", "25 random profiles", sandwich),
        ("tfamily.averages_normalized", "unit blocks", averages_normalized),
        ("tfamily.transversal_c0", "5 sampled transversals", transversal_c0),
        ("tfamily.sample_determinism", "seed 99 twice", sample_determinism),
        ("tfamily.rejection_rate", "u={4,5,6,7} at piece 7", rejection_rate),
    ]


def suite_interp(seed: int) -> list[Case]:
    # the only suite that runs gauges; `tfamily verify` never loads them
    from . import interpolation as interp

    rng = random.Random(seed ^ 0x1A7E)
    w5 = fam.interval(1, 5)
    base = fam.bounded_cardinality_family(w5, 2)
    pairs = []
    for _ in range(5):
        x = SparseVector({k: _rand_fraction(rng) for k in rng.sample(list(w5), 3)})
        y = SparseVector({k: _rand_fraction(rng) for k in rng.sample(list(w5), 3)})
        if x and y:
            pairs.append((x, y))

    def gauge_unit() -> Verdict:
        for n in range(1, 7):
            br = interp.dfjp_gauge(interp.GaugeProblem(SparseVector.unit(1), n, base))
            expect = Fraction(1) / (2**n + Fraction(1, 2**n))
            if not br.lo == br.hi == expect:
                return False, f"n={n}: [{br.lo}, {br.hi}]", ""
        return True, "", ""

    def homogeneity() -> Verdict:
        for x, _ in pairs:
            b1 = interp.dfjp_gauge(interp.GaugeProblem(x, 3, base))
            b2 = interp.dfjp_gauge(interp.GaugeProblem(x.scale(2), 3, base))
            if (b2.lo, b2.hi) != (2 * b1.lo, 2 * b1.hi):
                return False, f"x={x!r}", ""
        return True, "", ""

    def subadditivity() -> Verdict:
        for x, y in pairs:
            bx = interp.dfjp_gauge(interp.GaugeProblem(x, 3, base))
            by = interp.dfjp_gauge(interp.GaugeProblem(y, 3, base))
            if not (x + y):
                continue
            bxy = interp.dfjp_gauge(interp.GaugeProblem(x + y, 3, base))
            if bxy.hi > bx.lo + by.lo:
                return False, f"x={x!r}, y={y!r}", ""
        return True, "", ""

    def inner_duality() -> Verdict:
        for x, _ in pairs:
            res = interp.inner_distance(x, base, Fraction(1, 7), 3)
            if res.objective != res.dual_objective:
                return False, f"x={x!r}", ""
        return True, "", ""

    return [
        ("interp.gauge_unit_vector", "levels 1..6 at 2^-20", gauge_unit),
        ("interp.homogeneity", "5 random vectors, level 3", homogeneity),
        ("interp.subadditivity", "5 random pairs, level 3", subadditivity),
        ("interp.inner_duality", "5 random vectors", inner_duality),
    ]


SUITES: dict[str, Callable[[int], list[Case]]] = {
    "setfam": suite_setfam,
    "schreier": suite_schreier,
    "norms": suite_norms,
    "tfamily": suite_tfamily,
    "interp": suite_interp,
}


def run_suites(
    seed: int,
    names: Optional[Iterable[str]] = None,
    params: Optional[tf.TParams] = None,
) -> RunReport:
    chosen = list(names) if names else sorted(SUITES)
    cases: list[CaseResult] = []
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}")
        builder = SUITES[name]
        built = builder(seed, params) if name == "tfamily" and params is not None else builder(seed)
        cases.extend(_run_cases(name, built))
    return RunReport(seed, cases)
