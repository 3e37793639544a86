import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schreierkit import SparseVector, solve_lp
from schreierkit.lp import LPCertificateError, _certify

from oracles import lp_vertex_optimum, solve_lp_dense


def test_sparse_vector_basics():
    x = SparseVector({3: Fraction(1, 2), 5: Fraction(-2, 3)})
    assert x.support == (3, 5)
    assert x[3] == Fraction(1, 2) and x[4] == 0
    assert x.sup_norm() == Fraction(2, 3)
    assert x.l1_norm() == Fraction(7, 6)
    assert x.abs()[5] == Fraction(2, 3)
    assert (x + x.scale(-1)) == SparseVector()
    assert not SparseVector()
    assert x.restrict([5]).support == (5,)
    assert (2 * x)[5] == Fraction(-4, 3)


def test_sparse_vector_drops_zeros_and_validates():
    assert SparseVector({2: 0}).support == ()
    assert SparseVector([(2, 1), (2, -1)]).support == ()
    with pytest.raises(ValueError):
        SparseVector({0: 1})
    with pytest.raises(ValueError):
        SparseVector({-3: 1})


def test_lp_simple_problems():
    # min -x - y  s.t. x + y <= 1
    res = solve_lp([-1, -1], a_ub=[[1, 1]], b_ub=[1])
    assert res.optimal and res.objective == -1
    assert res.pivots == (0, 1)
    assert res.objective == res.dual_objective

    # min x + y  s.t. x + 2y = 3, x, y >= 0
    res = solve_lp([1, 1], a_eq=[[1, 2]], b_eq=[3])
    assert res.optimal and res.objective == Fraction(3, 2)
    assert res.x == [Fraction(0), Fraction(3, 2)]
    # phase 1 brings x in (first negative reduced cost), phase 2 trades it for y
    assert res.pivots == (1, 1)

    # negative rhs forces a flipped row: x >= 2 as -x <= -2
    res = solve_lp([1], a_ub=[[-1]], b_ub=[-2])
    assert res.optimal and res.objective == 2
    assert res.pivots == (1, 0)

    # no constraints: the dual objective is the empty sum, still a Fraction
    res = solve_lp([1, 2])
    assert res.optimal and type(res.dual_objective) is Fraction and res.dual_objective == 0
    assert res.pivots == (0, 0)

    assert solve_lp([-1]).status == "unbounded"
    res = solve_lp([1], a_ub=[[-1]], b_ub=[-1], a_eq=[[1]], b_eq=[0])
    assert res.status == "infeasible" and res.pivots == (1, 0)


def test_lp_degenerate_problem_terminates():
    # multiple identical rows create degeneracy; Bland's rule must not cycle
    res = solve_lp(
        [0, 0, 1],
        a_ub=[[1, 0, -1], [1, 0, -1], [0, 1, -1], [1, 1, -1]],
        b_ub=[0, 0, 0, 0],
        a_eq=[[1, 1, 0]],
        b_eq=[1],
    )
    assert res.optimal and res.objective == Fraction(1, 1)


def test_lp_duality_certificate_on_random_problems():
    rng = random.Random(7)
    for trial in range(30):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        c = [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(n)]
        a_ub = [
            [Fraction(rng.randint(-3, 5), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(m)
        ]
        b_ub = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(m)]
        a_eq = [[Fraction(1)] * n]
        b_eq = [Fraction(1)]
        res = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
        assert res.status in ("optimal", "infeasible")
        if res.optimal:
            # recheck the certificate by hand
            assert sum(ci * xi for ci, xi in zip(c, res.x)) == res.objective
            assert res.dual_objective == res.objective
            assert all(y <= 0 for y in res.dual_ub)
            for j in range(n):
                reduced = (
                    c[j]
                    - sum(y * row[j] for y, row in zip(res.dual_ub, a_ub))
                    - sum(y * row[j] for y, row in zip(res.dual_eq, a_eq))
                )
                assert reduced >= 0


def test_lp_rejects_ragged_input():
    with pytest.raises(ValueError):
        solve_lp([1, 2], a_ub=[[1]], b_ub=[1])
    with pytest.raises(ValueError):
        solve_lp([1], a_ub=[[1]], b_ub=[1, 2])


fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
integral = st.builds(Fraction, st.integers(-6, 6))


@st.composite
def bounded_lps(draw, entries=fractions):
    n = draw(st.integers(1, 3))
    row = st.lists(entries, min_size=n, max_size=n)
    a_ub = draw(st.lists(row, max_size=3))
    b_ub = draw(st.lists(entries, min_size=len(a_ub), max_size=len(a_ub)))
    a_eq = draw(st.lists(row, max_size=2))
    b_eq = draw(st.lists(entries, min_size=len(a_eq), max_size=len(a_eq)))
    if a_ub and draw(st.booleans()):
        a_ub.append(a_ub[0])
        b_ub.append(b_ub[0])
    # sum x <= bound keeps the region bounded, so a feasible LP has an optimum
    a_ub.append([Fraction(1)] * n)
    b_ub.append(draw(st.builds(Fraction, st.integers(0, 6), st.integers(1, 3))))
    return draw(row), a_ub, b_ub, a_eq, b_eq


@settings(max_examples=300, deadline=None)
@given(bounded_lps())
def test_lp_matches_vertex_enumeration(lp):
    res = solve_lp(*lp)
    want = lp_vertex_optimum(*lp)
    if want is None:
        assert res.status == "infeasible"
    else:
        assert res.optimal and res.objective == want


def test_certify_rejects_every_broken_certificate():
    # min -x - y over x + 2y <= 4, 3x + y <= 6, x <= 10, x - y = 0: optimum at
    # x = y = 4/3 with duals (-2/3, 0, 0) and -1/3; the row x <= 10 is slack,
    # so its dual is 0.  Every row is integral, so every scale is 1, and over
    # d = 3 the int certificate is X = (4, 4), value -8, Y = (-2, 0, 0), (-1).
    c = [-1, -1]
    ub = [[1, 2, 4], [3, 1, 6], [1, 0, 10]]
    eq = [[1, -1, 0]]
    res = solve_lp(c, [r[:-1] for r in ub], [r[-1] for r in ub], [r[:-1] for r in eq], [0])
    assert res.optimal and res.x == [Fraction(4, 3), Fraction(4, 3)]
    assert res.dual_ub == [Fraction(-2, 3), 0, 0] and res.dual_eq == [Fraction(-1, 3)]
    assert res.objective == res.dual_objective == Fraction(-8, 3)
    good = ([4, 4], 3, -8, [-2, 0, 0], [-1])
    dual_value = _certify(c, ub, eq, *good)
    assert type(dual_value) is int and dual_value == -8

    def broken(i, j, delta):
        parts = [list(v) if isinstance(v, list) else v for v in good]
        if j is None:
            parts[i] += delta
        else:
            parts[i][j] += delta
        return parts

    for i, j, delta, check in (
        (0, 0, -5, "primal negativity"),  # x = -1/3
        (0, 0, 1, "primal ub violation"),  # x = 5/3 breaks x + 2y <= 4
        (0, 1, -1, "primal eq violation"),  # y = 1 breaks x - y = 0
        (2, None, -3, "objective mismatch"),  # -11/3 against c.x = -8/3
        (3, 2, 1, "dual sign violation"),
        (4, 0, 1, "dual feasibility violation"),  # y_eq = 0 leaves -1/3 on column x
        (3, 2, -1, "strong duality violation"),  # a zero dual made nonzero
    ):
        with pytest.raises(LPCertificateError, match=check):
            _certify(c, ub, eq, *broken(i, j, delta))


@settings(max_examples=200, deadline=None)
@given(st.one_of(bounded_lps(), bounded_lps(integral)), st.randoms(use_true_random=False))
def test_lp_results_do_not_depend_on_entry_types(lp, rnd):
    def as_int(v):
        return v.numerator if v.denominator == 1 else v

    def mixed(v):
        return rnd.choice((as_int(v), v, str(v)))

    want = solve_lp(*lp)
    for convert in (as_int, mixed):
        c, a_ub, b_ub, a_eq, b_eq = lp
        got = solve_lp(
            [convert(v) for v in c],
            [[convert(v) for v in row] for row in a_ub],
            [convert(v) for v in b_ub],
            [[convert(v) for v in row] for row in a_eq],
            [convert(v) for v in b_eq],
        )
        assert got == want
        if got.optimal:
            values = got.x + got.dual_ub + got.dual_eq + [got.objective, got.dual_objective]
            assert all(type(v) is Fraction for v in values)


@st.composite
def any_lps(draw):
    """LPs of every outcome: ub rows of either rhs sign (a negative one is
    flipped and gets an artificial), eq rows with an optional scaled copy
    (an artificial left basic at zero, pivoted out on an entry of either
    sign or left in an inert row), and an optional bounding row, without
    which some are unbounded."""
    n = draw(st.integers(1, 4))
    row = st.lists(fractions, min_size=n, max_size=n)
    a_ub = draw(st.lists(row, max_size=3))
    b_ub = draw(st.lists(fractions, min_size=len(a_ub), max_size=len(a_ub)))
    a_eq = draw(st.lists(row, max_size=2))
    b_eq = draw(st.lists(fractions, min_size=len(a_eq), max_size=len(a_eq)))
    if a_eq and draw(st.booleans()):
        i = draw(st.integers(0, len(a_eq) - 1))
        k = draw(st.sampled_from((Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(3))))
        a_eq.append([k * v for v in a_eq[i]])
        b_eq.append(k * b_eq[i])
    if draw(st.booleans()):
        a_ub.append([Fraction(1)] * n)
        b_ub.append(draw(st.builds(Fraction, st.integers(0, 6), st.integers(1, 3))))
    return draw(row), a_ub, b_ub, a_eq, b_eq


@settings(max_examples=400, deadline=None)
@given(any_lps())
# optimal after a pivot-out on a negative entry, the copied eq row inert
@example(([1, 1], [], [], [[-1, 1], [1, -1]], [0, 0]))
# infeasible, through a flipped row
@example(([1], [[1], [-1]], [1, -2], [], []))
# unbounded in phase 2, with an eq row
@example(([-1, 0], [], [], [[1, -1]], [1]))
def test_lp_results_match_the_dense_tableau(lp):
    # the condensed tableau takes the dense one's pivots, so every field of
    # the result, pivot counts included, is the same
    assert solve_lp(*lp) == solve_lp_dense(*lp)
