"""Acceptance suite: one test per criterion, exact tolerances, printed verdicts.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Random inputs are drawn from fixed seeds; every asserted value is
either computed by an independent brute-force oracle from oracles.py or
verified analytically in the test body.
"""

import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

from schreierkit import (
    Family,
    GaugeProblem,
    NormingSpec,
    OrdinalCNF,
    SparseVector,
    TParams,
    averages_norm,
    baernstein_norm,
    barrier_window_members,
    block_p_norm_power,
    bounded_cardinality_family,
    dfjp_gauge,
    eps_support_family,
    erdos_hajnal_count,
    f_norm,
    f_of_u,
    hereditary_closure,
    inner_distance,
    interval,
    pigeonhole_intersection_empty,
    measure_ratio,
    otimes,
    point_membership,
    radius,
    sample_point,
    schreier_enumerate,
    schreier_family,
    spreading_constant,
    transversal_norm,
    transversal_trace_report,
)
from schreierkit.cli import main as cli_main

from oracles import block_power_brute, disequality_solutions, eh_set, family_norm_brute

HALF = Fraction(1, 2)


def criterion(num: int, stated: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL  {stated}")
                raise
            print(f"[criterion {num:02d}] PASS  {stated}")

        return wrapper

    return deco


@criterion(1, "radix minimality at lambda=1/2: (r_4, r_5, r_6) = (2, 5, 10)")
def test_radix_minimality():
    values = tuple(radius(m, HALF) for m in (4, 5, 6))
    assert values == (2, 5, 10)
    for m, r in zip((4, 5, 6), values):
        e = math.comb(m - 2, 2)
        assert Fraction(r - 1, r) ** e >= HALF
        assert Fraction(r - 2, r - 1) ** e < HALF


@criterion(2, "distinct-digit counts and pigeonhole emptiness by brute force")
def test_erdos_hajnal_brute_force():
    for n in range(2, 9):
        for r in range(1, 5):
            for i, j in ((1, 2), (1, n), (max(1, n // 2), n)):
                if i < j:
                    assert erdos_hajnal_count(n, r) == len(eh_set(n, r, i, j))
    for n, r in ((3, 2), (4, 2), (4, 3), (5, 3)):
        for s in itertools.combinations(range(1, n + 1), r + 1):
            pairs = itertools.combinations(s, 2)
            assert not set.intersection(*(set(eh_set(n, r, i, j)) for i, j in pairs))


@criterion(3, "density projections of every window member set recover its barrier set")
def test_g_identity_window7():
    params = TParams.build(HALF, 7)
    for u in barrier_window_members(7):
        sym = f_of_u(u, params)
        assert set(sym.constraints) <= set(u)
        ratios = {n: measure_ratio(u, n, params) for n in u}
        s_lambda = tuple(n for n in u if ratios[n] >= params.lam)
        s_plus = tuple(n for n in u if ratios[n] > 0)
        assert s_lambda == u
        assert s_plus == u


@criterion(4, "the first-touched piece of every window member set is full")
def test_first_piece_full():
    params = TParams.build(HALF, 7)
    for u in barrier_window_members(7):
        assert measure_ratio(u, u[0], params) == 1


@criterion(5, "minimal pigeonhole emptiness instance agrees with slice brute force")
def test_pigeonhole_emptiness_instance():
    params = TParams.build(HALF, 8)
    a_sets = [(4, l1, l2, 8) for l1, l2 in itertools.combinations((5, 6, 7), 2)]
    rep = pigeonhole_intersection_empty(a_sets, (5, 6, 7, 8), params)
    assert rep.empty and rep.preconditions_ok

    constraints = [pair for u in a_sets for pair in f_of_u(u, params).piece_constraints(8)]
    assert next(disequality_solutions(constraints, params.radix), None) is None

    single = pigeonhole_intersection_empty([a_sets[0]], (5, 6, 7, 8), params)
    assert not single.empty


@criterion(6, "sandwich inequality on 200 random profiles; unit blocks normalized")
def test_sandwich_inequality():
    params = TParams.build(HALF, 7)
    g_family = Family(barrier_window_members(7))  # = both density projections
    rng = random.Random(600)
    for _ in range(200):
        support = rng.sample(range(1, 8), rng.randint(1, 7))
        a = SparseVector(
            {n: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for n in support}
        )
        left = params.lam * f_norm(a, g_family)
        mid = max(averages_norm(a, params), a.sup_norm())
        right = f_norm(a, g_family)
        assert left <= mid <= right
    for m in range(1, 8):
        assert averages_norm(SparseVector.unit(m), params) == 1


@criterion(7, "sampled transversals admit 4-free refinements with flat-norm ratio in [1, 4]")
def test_transversal_c0_equivalence():
    params = TParams.build(HALF, 7)
    rng = random.Random(700)
    for _ in range(100):
        pieces = sorted(rng.sample(range(1, 8), rng.randint(4, 7)))
        pts = [sample_point(n, params, rng) for n in pieces]
        rep = transversal_trace_report(pts, params, bound=3)
        chosen = [pts[i] for i in rep.selected]
        assert chosen
        # direct recheck: no 4-subset of the selection is covered
        for combo in itertools.combinations(chosen, 4):
            needed = set(pt.n for pt in combo)
            for u in barrier_window_members(7):
                if needed.issubset(u):
                    sym = f_of_u(u, params)
                    assert not all(point_membership(pt, sym) for pt in combo)
        for _ in range(50):
            coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in chosen]
            v = transversal_norm(chosen, coeffs, params)
            top = max(coeffs)
            assert top <= v <= 4 * top


@criterion(8, "family norm equals exhaustive member scan on 500 random vectors")
def test_f_norm_against_exhaustive_enumeration():
    w12 = interval(1, 12)
    rng = random.Random(800)
    s1 = schreier_family(w12)
    s2 = schreier_enumerate(OrdinalCNF.from_int(2), w12)
    hered = hereditary_closure(
        Family([rng.sample(list(w12), rng.randint(1, 5)) for _ in range(8)])
    )
    families = [(s1, s1.members()), (s2, s2.members()), (hered, hered.members())]
    for _ in range(500):
        den = rng.randint(1, 12)
        support = rng.sample(list(w12), rng.randint(1, 8))
        numer = {k: rng.randint(-9, 9) for k in support}
        x = SparseVector({k: Fraction(v, den) for k, v in numer.items() if v})
        for fml, members in families:
            assert f_norm(x, fml) == Fraction(family_norm_brute(members, numer), den)


@criterion(9, "interval DP equals brute force over all block decompositions, p in {1,2,inf}")
def test_block_norm_dp_against_bruteforce():
    w12 = interval(1, 12)
    s1 = schreier_family(w12)
    members = s1.members()
    rng = random.Random(900)
    for _ in range(200):
        den = rng.randint(1, 10)
        support = rng.sample(list(w12), rng.randint(1, 10))
        numer = {k: rng.randint(-9, 9) for k in support}
        numer = {k: v for k, v in numer.items() if v}
        x = SparseVector({k: Fraction(v, den) for k, v in numer.items()})
        for p in (1, 2):
            got = block_p_norm_power(x, s1, p)
            want = Fraction(block_power_brute(numer, members, p), den**p)
            assert got == want
        assert baernstein_norm(x, s1, float("inf")) == f_norm(x, s1)


@criterion(10, "blockwise lower bound for the p=2 aggregated norm, squared comparison")
def test_block_lower_bound_claim():
    w12 = interval(1, 12)
    s1 = schreier_family(w12)
    rng = random.Random(1000)
    for trial in range(100):
        k = rng.randint(2, 4)
        start = 1
        blocks = []
        for _ in range(k):
            size = rng.randint(1, 2)
            if trial % 2 == 0:
                block = SparseVector({start: 1})  # exactly normalized
                start += 1
            else:
                block = SparseVector(
                    {
                        start + i: Fraction(rng.randint(1, 9), rng.randint(1, 6))
                        for i in range(size)
                    }
                )
                start += size
            blocks.append(block)
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(k)]
        total = SparseVector()
        for a, y in zip(coeffs, blocks):
            total = total + y.scale(a)
        lhs = block_p_norm_power(total, s1, 2)
        rhs = sum(
            (a * a * block_p_norm_power(y, s1, 2) for a, y in zip(coeffs, blocks)),
            Fraction(0),
        )
        assert lhs >= rhs
        if trial % 2 == 0:
            # normalized case: literally the l2 lower bound
            assert rhs == sum((a * a for a in coeffs), Fraction(0))


@criterion(11, "spreading-model constants 1 (Schreier) and 1/#s (singletons), LP duality exact")
def test_spreading_constants():
    w9 = interval(1, 9)
    s_fam = schreier_family(w9)
    c0_fam = bounded_cardinality_family(w9, 1)
    checked = 0
    for s in s_fam:
        if not s or len(s) > 6:
            continue
        ys = [SparseVector.unit(k) for k in s]
        res = spreading_constant(ys, s_fam)
        assert res.value == 1
        assert res.lp.objective == res.lp.dual_objective
        res0 = spreading_constant(ys, c0_fam)
        assert res0.value == Fraction(1, len(s))
        assert res0.lp.objective == res0.lp.dual_objective
        checked += 1
    assert checked >= 80


@criterion(12, "eps-supports of the unit basis recover the family plus singletons")
def test_eps_support_identity():
    rng = random.Random(1200)
    for n in (8, 10, 12):
        w = interval(1, n)
        basis = [SparseVector.unit(k) for k in w]
        fams = [
            schreier_family(w),
            hereditary_closure(Family([rng.sample(list(w), rng.randint(1, 4)) for _ in range(6)])),
        ]
        for fml in fams:
            got = eps_support_family(basis, NormingSpec(fml), HALF)
            want = Family(list(fml) + [(k,) for k in w])
            assert got == want


@criterion(13, "gauge of the first basis vector, homogeneity, subadditivity, inner duality")
def test_dfjp_gauge():
    base = bounded_cardinality_family(interval(1, 5), 2)
    for n in range(1, 11):
        br = dfjp_gauge(GaugeProblem(SparseVector.unit(1), n, base))
        assert br.lo == br.hi == Fraction(1) / (2**n + Fraction(1, 2**n))

    rng = random.Random(1300)
    for _ in range(100):
        x = SparseVector(
            {k: Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for k in rng.sample(range(1, 6), 2)}
        )
        y = SparseVector(
            {k: Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for k in rng.sample(range(1, 6), 2)}
        )
        if not x or not y or not (x + y):
            continue
        bx = dfjp_gauge(GaugeProblem(x, 3, base))
        b2x = dfjp_gauge(GaugeProblem(x.scale(2), 3, base))
        assert (b2x.lo, b2x.hi) == (2 * bx.lo, 2 * bx.hi)
        by = dfjp_gauge(GaugeProblem(y, 3, base))
        bxy = dfjp_gauge(GaugeProblem(x + y, 3, base))
        assert bxy.hi <= bx.lo + by.lo
        res = inner_distance(x, base, Fraction(1, 9), 3)
        assert res.objective == res.dual_objective


@criterion(14, "block-product recursion matches direct enumeration on 1..8")
def test_schreier_recursion_cross_check():
    w8 = interval(1, 8)
    one = OrdinalCNF.from_int(1)
    two = OrdinalCNF.from_int(2)
    s1 = schreier_family(w8)
    assert otimes(bounded_cardinality_family(w8, 1), s1, w8) == schreier_enumerate(one, w8)
    assert otimes(s1, s1, w8) == schreier_enumerate(two, w8)


@criterion(15, "verification CSV is byte-identical across runs with a fixed seed")
def test_verify_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli_main(["verify", "--seed", "777", "--output", str(a)]) == 0
    assert cli_main(["verify", "--seed", "777", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # the reports are pinned, so a change that moves any verdict or value shows
    assert hashlib.sha256(a.read_bytes()).hexdigest() == (
        "9d8b17129c345bde1bbc062260dbe1c9697e2e9843da33ad02fb71775fb56409"
    )
    rows = [line for line in a.read_text().splitlines() if not line.startswith(("#", "suite,"))]
    assert len(rows) >= 25
    assert cli_main(["verify", "--seed", "12345", "--output", str(b)]) == 0
    assert hashlib.sha256(b.read_bytes()).hexdigest() == (
        "2d45fb6236d00e4e4bb26d1ec39d60df3b31fa4628dd50396a6934aca53cc805"
    )
    # the transversal queries past the default window 7
    tf_args = ["tfamily", "verify", "--seed", "12345", "--window-max", "12", "--output", str(b)]
    assert cli_main(tf_args) == 0
    assert hashlib.sha256(b.read_bytes()).hexdigest() == (
        "0baaf4dd64167e019b453dca3f34dfc01a4bb738ba03eace0e6feb5fc81e4dbc"
    )
