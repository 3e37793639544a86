import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreierkit import (
    Family,
    GaugeProblem,
    SparseVector,
    bounded_cardinality_family,
    dfjp_gauge,
    dfjp_norm,
    f_norm,
    inner_distance,
    interval,
    schreier_family,
    solve_lp,
    spreading_constant,
    trace,
)
from schreierkit import interpolation, lp, norms
from schreierkit.families import maximal_mask, norming_sets
from schreierkit.lp import LPCertificateError

BASE = bounded_cardinality_family(interval(1, 5), 2)


def rand_vec(rng, size=3):
    ks = rng.sample(range(1, 6), size)
    return SparseVector({k: Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for k in ks})


def test_gauge_zero_vector():
    br = dfjp_gauge(GaugeProblem(SparseVector(), 4, BASE))
    assert br.lo == br.hi == 0


def test_gauge_unit_vector_analytic():
    for n in range(1, 8):
        br = dfjp_gauge(GaugeProblem(SparseVector.unit(1), n, BASE))
        assert br.lo == br.hi == Fraction(1) / (2**n + Fraction(1, 2**n))


def test_gauge_general_bounds():
    # 2^-n l1 above, ||x||_F / (2^n + 2^-n) below
    rng = random.Random(3)
    for _ in range(10):
        x = rand_vec(rng)
        if not x:
            continue
        n = rng.randint(1, 4)
        br = dfjp_gauge(GaugeProblem(x, n, BASE))
        assert br.hi <= Fraction(1, 2**n) * x.l1_norm()
        assert br.lo >= f_norm(x, BASE) / (2**n + Fraction(1, 2**n))
        # d(lam) - lam 2^-n strictly decreases, so this holds only at the gauge
        assert inner_distance(x, BASE, br.lo, n).objective == br.lo / 2**n


def test_gauge_homogeneity_exact():
    rng = random.Random(11)
    for _ in range(6):
        x = rand_vec(rng)
        b1 = dfjp_gauge(GaugeProblem(x, 3, BASE))
        b2 = dfjp_gauge(GaugeProblem(x.scale(2), 3, BASE))
        assert (b2.lo, b2.hi) == (2 * b1.lo, 2 * b1.hi)


def test_gauge_subadditivity_exact():
    rng = random.Random(13)
    for _ in range(6):
        x, y = rand_vec(rng), rand_vec(rng)
        if not (x + y):
            continue
        bx = dfjp_gauge(GaugeProblem(x, 3, BASE))
        by = dfjp_gauge(GaugeProblem(y, 3, BASE))
        bxy = dfjp_gauge(GaugeProblem(x + y, 3, BASE))
        assert bxy.hi <= bx.lo + by.lo


def test_inner_lp_exact_duality():
    rng = random.Random(17)
    for _ in range(8):
        x = rand_vec(rng)
        res = inner_distance(x, BASE, Fraction(rng.randint(1, 5), 7), 3)
        assert res.objective == res.dual_objective


def test_inner_distance_against_direct_minimum_on_singleton():
    # support {1}: min over |w| <= 2^n of max-linearized norm has the closed
    # form max(0, (|x| - lam 2^n)) for the coordinate part
    x = SparseVector({1: Fraction(3, 4)})
    lam = Fraction(1, 10)
    res = inner_distance(x, BASE, lam, 2)
    direct = max(Fraction(0), Fraction(3, 4) - lam * 4)
    assert res.objective == direct


def test_gauge_pinned_at_support_8_and_10():
    # values from the LP with a row for every member of the trace
    x8 = SparseVector({1: Fraction(3, 4), 2: Fraction(-5, 3), 3: Fraction(2, 7), 4: Fraction(1),
                       5: Fraction(-7, 5), 6: Fraction(4, 9), 7: Fraction(-1, 2), 8: Fraction(6, 5)})
    x10 = SparseVector({1: Fraction(-2, 3), 2: Fraction(5, 4), 3: Fraction(1, 6), 4: Fraction(-9, 7),
                        5: Fraction(3, 2), 6: Fraction(-4, 5), 7: Fraction(7, 8), 8: Fraction(-1, 3),
                        9: Fraction(8, 9), 10: Fraction(-5, 2)})
    for x, top, level, want in ((x8, 8, 2, Fraction(36524, 24255)),
                                (x10, 10, 3, Fraction(25871, 21294))):
        br = dfjp_gauge(GaugeProblem(x, level, schreier_family(interval(1, top))))
        assert br.lo == br.hi == want


def test_monotone_feasibility_bracket_invariants():
    x = SparseVector({2: Fraction(2, 3), 4: Fraction(-1, 2)})
    br = dfjp_gauge(GaugeProblem(x, 2, BASE, Fraction(1, 2**10)))
    assert 0 <= br.lo == br.hi
    assert inner_distance(x, BASE, br.lo, 2).objective == br.lo / 4


def test_dfjp_norm_unit_vector():
    res = dfjp_norm(SparseVector.unit(1), BASE, 2, n_max=8, tolerance=Fraction(1, 2**20))
    exact_partial = sum(
        1.0 / float(2**n + Fraction(1, 2**n)) ** 2 for n in range(1, 9)
    )
    assert res.value_lo <= exact_partial**0.5 <= res.value_hi
    assert res.tail_powered == Fraction(1, 4**9) / (1 - Fraction(1, 4))
    assert res.p == 2


def test_dfjp_norm_scaling_and_zero():
    zero = dfjp_norm(SparseVector(), BASE, 2)
    assert zero.value_lo == zero.value_hi == 0
    x = SparseVector({2: Fraction(1, 3), 3: Fraction(1, 5)})
    one = dfjp_norm(x, BASE, 2, n_max=4, tolerance=Fraction(1, 2**12))
    two = dfjp_norm(x.scale(2), BASE, 2, n_max=4, tolerance=Fraction(1, 2**12))
    assert two.powered_lo == 4 * one.powered_lo
    assert two.powered_hi == 4 * one.powered_hi
    with pytest.raises(ValueError):
        dfjp_norm(x, BASE, 1)
    with pytest.raises(ValueError):
        dfjp_norm(x, BASE, Fraction(3, 2))
    for n_max in (0, -3):
        with pytest.raises(ValueError):
            dfjp_norm(x, BASE, 2, n_max=n_max)


def test_dfjp_norm_refuses_a_huge_integer_p_before_any_lp(monkeypatch):
    # |x| sums to 5/4: ints (3, 2) over scale 4, so the bit length is 3 and
    # p = 21 fits a 64-bit cap, p = 22 does not
    monkeypatch.setattr(norms, "MAX_POWER_BITS", 64)
    x = SparseVector({2: Fraction(3, 4), 3: Fraction(-1, 2)})
    assert dfjp_norm(x, BASE, 21, n_max=1).p == 21

    def no_lp(*args):
        raise AssertionError("an LP was solved for a refused p")

    monkeypatch.setattr(interpolation, "dfjp_gauge", no_lp)
    with pytest.raises(ValueError, match="exact power would pass 64 bits"):
        dfjp_norm(x, BASE, 22, n_max=1)


def test_inner_distance_refuses_a_level_that_would_leak_a_float():
    # 2**-1 is the float 0.5: the LP's rhs turned inexact and gave
    # x = 6755399441055743/13510798882111488 on S_1(1..5)
    x = SparseVector({2: Fraction(1, 3), 4: Fraction(-2, 5)})
    s5 = schreier_family(interval(1, 5))
    for level in (-1, Fraction(1, 2), 0.5):
        with pytest.raises(ValueError, match="level"):
            inner_distance(x, s5, Fraction(1, 2), level)
    res = inner_distance(x, s5, Fraction(1, 2), 0)
    assert all(type(v) is Fraction for v in res.x)


def test_levels_past_the_cap_are_refused_before_any_lp(monkeypatch):
    x = SparseVector({2: Fraction(1, 3), 4: Fraction(-2, 5)})
    cap = interpolation.MAX_LEVEL
    assert dfjp_gauge(GaugeProblem(x, cap, BASE)).level == cap

    def no_lp(*args):
        raise AssertionError("an LP was solved for a refused level")

    monkeypatch.setattr(interpolation, "solve_lp", no_lp)
    with pytest.raises(ValueError, match="past the cap"):
        GaugeProblem(x, cap + 1, BASE)
    with pytest.raises(ValueError, match="past the cap"):
        inner_distance(x, BASE, Fraction(1, 2), cap + 1)
    with pytest.raises(ValueError, match="past the cap"):
        dfjp_norm(x, BASE, 2, n_max=cap + 1)


def test_gauge_respects_family_choice():
    # a richer family increases the norm, hence the gauge
    rng = random.Random(29)
    s5 = schreier_family(interval(1, 5))
    for _ in range(5):
        x = rand_vec(rng).abs()
        if len(x) < 2:
            continue
        singles = bounded_cardinality_family(interval(1, 5), 1)
        b_small = dfjp_gauge(GaugeProblem(x, 2, singles))
        b_large = dfjp_gauge(GaugeProblem(x, 2, s5))
        assert b_large.lo >= b_small.hi


def linearized_lp(x, family, level, lam):
    """The distance LP before its lattice form, with a row for every norming set.

    Variables [t, v_1..v_m, p_1..p_m, q_1..q_m], plus lam for the gauge
    (``lam=None``): v_k >= |x_k - scale*(p_k - q_k)| with scale lam, or 1 for
    the gauge, where p - q carries y; t >= the sum of v_k over each singleton
    and each trace member; sum of (p_k + q_k) <= 2^level, or <= 2^level lam
    together with t <= 2^-level lam for the gauge.  Minimizes t, or lam.
    """
    supp = x.support
    m = len(supp)
    gauge = lam is None
    scale = Fraction(1) if gauge else lam
    n = 1 + 3 * m + gauge
    a_ub, b_ub = [], []
    for i, k in enumerate(supp):
        for sign in (1, -1):
            row = [Fraction(0)] * n
            row[1 + i] = Fraction(-1)
            row[1 + m + i] = -sign * scale
            row[1 + 2 * m + i] = sign * scale
            a_ub.append(row)
            b_ub.append(-sign * x[k])
    for s in [(k,) for k in supp] + list(trace(family, supp)):
        row = [Fraction(0)] * n
        row[0] = Fraction(-1)
        for k in s:
            row[1 + supp.index(k)] = Fraction(1)
        a_ub.append(row)
        b_ub.append(Fraction(0))
    budget = Fraction(2**level)
    row = [Fraction(0)] * (1 + m) + [Fraction(1)] * (2 * m) + [-budget] * gauge
    a_ub.append(row)
    b_ub.append(Fraction(0) if gauge else budget)
    if gauge:
        a_ub.append([Fraction(1)] + [Fraction(0)] * (3 * m) + [-1 / budget])
        b_ub.append(Fraction(0))
    c = [Fraction(0)] * n
    c[-1 if gauge else 0] = Fraction(1)
    return solve_lp(c, a_ub, b_ub)


nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.integers(1, 6), nonzero, min_size=1, max_size=4),
    st.lists(st.frozensets(st.integers(1, 6), max_size=4), max_size=6),
    st.integers(0, 6),
    st.sampled_from((-1, 0, 1)),
    st.fractions(min_value=0, max_value=8, max_denominator=8),
)
def test_lattice_lp_equals_linearized_lp(coords, sets, level, sign, size):
    # the lattice form keeps one column per support coordinate; the values
    # must be those of the LP that linearizes |x_k - lam*w_k| and splits w
    x = SparseVector(coords)
    family = Family(sets)
    ref = linearized_lp(x, family, level, None)
    assert ref.optimal
    assert dfjp_gauge(GaugeProblem(x, level, family)).lo == ref.objective
    lam = sign * size
    ref = linearized_lp(x, family, level, lam)
    assert ref.optimal
    assert inner_distance(x, family, lam, level).objective == ref.objective


HOOK_FAMILY = schreier_family(interval(1, 8))
HOOK_X = SparseVector({k: Fraction(k, 3) for k in (2, 3, 5, 6, 8)})
HOOK_YS = [SparseVector({2: 1, 5: Fraction(1, 2)}), SparseVector({3: 2, 6: 1, 8: 1})]


def test_each_gauge_and_spreading_call_solves_one_lp_on_the_kept_rows(monkeypatch):
    # the hook a tracer wraps: the callers reach solve_lp through their own
    # module globals, so a wrapper there sees every solve and its row count
    seen = []
    real = lp.solve_lp

    def counted(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
        seen.append(len(a_ub) + len(a_eq))
        return real(c, a_ub, b_ub, a_eq, b_eq)

    monkeypatch.setattr(interpolation, "solve_lp", counted)
    monkeypatch.setattr(norms, "solve_lp", counted)
    family, x = HOOK_FAMILY, HOOK_X
    mask = maximal_mask(norming_sets(family, x.support))
    assert sum(mask) < len(mask)
    kept = len(x.support) + sum(mask) + 1  # boxes, maximal sets, the l1 row
    for call in (
        lambda: dfjp_gauge(GaugeProblem(x, 2, family)),
        lambda: inner_distance(x, family, Fraction(1, 2), 2),
    ):
        seen.clear()
        call()
        assert seen == [kept]
    mask = maximal_mask(norming_sets(family, (2, 3, 5, 6, 8)))
    assert sum(mask) < len(mask)
    seen.clear()
    spreading_constant(HOOK_YS, family)
    assert seen == [sum(mask) + 1]  # maximal sets, the convexity row


def test_a_row_left_out_wrongly_fails_the_norm_certificate(monkeypatch):
    # keep only the singletons: the optimum of that LP breaks some row left
    # out, and the one f_norm call behind the rows left out must see it
    def singletons(sets):
        return [len(s) == 1 for s in sets]

    monkeypatch.setattr(interpolation, "maximal_mask", singletons)
    monkeypatch.setattr(norms, "maximal_mask", singletons)
    for call in (
        lambda: dfjp_gauge(GaugeProblem(HOOK_X, 2, HOOK_FAMILY)),
        lambda: inner_distance(HOOK_X, HOOK_FAMILY, Fraction(1, 2), 2),
        lambda: spreading_constant(HOOK_YS, HOOK_FAMILY),
    ):
        with pytest.raises(LPCertificateError, match="row left out as implied"):
            call()
