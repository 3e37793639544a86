import random
from fractions import Fraction

import pytest

from schreierkit import (
    GaugeProblem,
    SparseVector,
    bounded_cardinality_family,
    dfjp_gauge,
    dfjp_norm,
    f_norm,
    inner_distance,
    interval,
    schreier_family,
)

BASE = bounded_cardinality_family(interval(1, 5), 2)
TOL = Fraction(1, 2**16)


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
        br = dfjp_gauge(GaugeProblem(x, n, BASE, TOL))
        assert br.hi <= Fraction(1, 2**n) * x.l1_norm() + TOL
        assert br.lo >= f_norm(x, BASE) / (2**n + Fraction(1, 2**n)) - TOL
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
    assert two.value_lo <= 2 * one.value_hi * 1.001
    assert two.value_hi >= 2 * one.value_lo * 0.999
    with pytest.raises(ValueError):
        dfjp_norm(x, BASE, 1)
    with pytest.raises(ValueError):
        dfjp_norm(x, BASE, Fraction(3, 2))
    for n_max in (0, -3):
        with pytest.raises(ValueError):
            dfjp_norm(x, BASE, 2, n_max=n_max)


def test_gauge_respects_family_choice():
    # a richer family increases the norm, hence the gauge
    rng = random.Random(29)
    s5 = schreier_family(interval(1, 5))
    for _ in range(5):
        x = rand_vec(rng).abs()
        if len(x) < 2:
            continue
        singles = bounded_cardinality_family(interval(1, 5), 1)
        b_small = dfjp_gauge(GaugeProblem(x, 2, singles, TOL))
        b_large = dfjp_gauge(GaugeProblem(x, 2, s5, TOL))
        assert b_large.hi >= b_small.lo - TOL
