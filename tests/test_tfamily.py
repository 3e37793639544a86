import itertools
import random
from fractions import Fraction

import pytest

from schreierkit import (
    IndexPoint,
    SparseVector,
    TParams,
    averages_norm,
    barrier_window_members,
    erdos_hajnal_count,
    erdos_hajnal_member,
    f_of_u,
    index_cardinality,
    pigeonhole_intersection_empty,
    measure_ratio,
    point_membership,
    point_to_integer,
    radius,
    sample_in,
    sample_point,
    transversal_norm,
    transversal_trace_report,
)

from oracles import disequality_solutions, eh_set, sample_point_randint
from schreierkit.tfamily import digit_keys

HALF = Fraction(1, 2)
P7 = TParams.build(HALF, 7)
P8 = TParams.build(HALF, 8)


def test_radius_examples_and_minimality():
    assert radius(4, HALF) == 2
    assert radius(5, HALF) == 5
    assert radius(6, HALF) == 10
    assert [radius(m, Fraction(999, 1000)) for m in range(4, 13)] == [
        1000, 2999, 5998, 9996, 14993, 20990, 27987, 35983, 44978
    ]
    import math

    for lam, ms in ((HALF, range(4, 9)), (Fraction(9999, 10000), range(10, 13))):
        for m in ms:
            r = radius(m, lam)
            e = math.comb(m - 2, 2)
            assert Fraction(r - 1, r) ** e >= lam
            assert Fraction(r - 2, r - 1) ** e < lam
    with pytest.raises(ValueError):
        radius(3, HALF)
    with pytest.raises(ValueError):
        radius(4, Fraction(3, 2))


def test_index_cardinalities():
    assert index_cardinality(1, P7) == 1
    assert index_cardinality(2, P7) == 1
    assert index_cardinality(3, P7) == 1
    assert index_cardinality(4, P7) == 16
    assert index_cardinality(5, P7) == 2**5 * 5**15
    with pytest.raises(ValueError):
        index_cardinality(9, P7)


def test_erdos_hajnal_member_and_count():
    assert erdos_hajnal_member((1, 2, 1), 2, 1, 2)
    assert not erdos_hajnal_member((1, 2, 1), 2, 1, 3)
    with pytest.raises(ValueError):
        erdos_hajnal_member((1, 3), 2, 1, 2)
    with pytest.raises(ValueError):
        erdos_hajnal_member((1, 2), 2, 2, 2)
    assert erdos_hajnal_count(3, 2) == 4 == len(eh_set(3, 2, 1, 2))
    for n in range(2, 7):
        for r in range(1, 5):
            assert erdos_hajnal_count(n, r) == len(eh_set(n, r, 1, n))


def test_f_of_u_cases_and_point_membership():
    assert f_of_u([1], P7).constraints == {}
    assert f_of_u([2, 6], P7).constraints == {}
    assert f_of_u([3, 5, 7], P7).constraints == {}

    sym = f_of_u([4, 5, 6, 7], P7)
    assert sym.piece_constraints(4) == ()
    assert sym.piece_constraints(5) == ()
    assert sym.piece_constraints(6) == ()
    assert sym.piece_constraints(7) == (((4, 5, 2, 3), (4, 6, 2, 3)),)

    base = sample_point(7, P7, 3).digits
    good = IndexPoint(7, {**base, (4, 5, 2, 3): 1, (4, 6, 2, 3): 2})
    bad = IndexPoint(7, {**base, (4, 5, 2, 3): 1, (4, 6, 2, 3): 1})
    assert point_membership(good, sym)
    assert not point_membership(bad, sym)
    with pytest.raises(ValueError):
        point_membership(sample_point(3, P7, 1), sym)

    with pytest.raises(ValueError):
        f_of_u([3, 5], P7)  # not a barrier set
    with pytest.raises(ValueError):
        f_of_u([4, 5, 6, 9], P7)  # beyond the window


def test_measure_ratios():
    assert measure_ratio([4, 5, 6, 7], 7, P7) == HALF
    assert measure_ratio([4, 5, 6, 7], 5, P7) == 1
    assert measure_ratio([2, 6], 6, P7) == 1
    with pytest.raises(ValueError):
        measure_ratio([4, 5, 6, 7], 3, P7)
    for u in barrier_window_members(7):
        for n in u:
            assert measure_ratio(u, n, P7) >= HALF


def test_measure_ratio_matches_slice_enumeration():
    # exhaustively count the constrained binary slice at the last piece
    sym = f_of_u([4, 5, 6, 7], P7)
    cons = sym.piece_constraints(7)
    keys = {k for pair in cons for k in pair}
    satisfied = sum(1 for _ in disequality_solutions(cons, P7.radix))
    assert Fraction(satisfied, 2 ** len(keys)) == measure_ratio([4, 5, 6, 7], 7, P7)


def test_barrier_window_members_window7():
    us = barrier_window_members(7)
    assert us == sorted(us)
    assert (1,) in us and (4, 5, 6, 7) in us
    assert len([u for u in us if u[0] == 2]) == 5
    assert len([u for u in us if u[0] == 3]) == 6
    assert len([u for u in us if u[0] >= 4]) == 1
    assert all(len(u) == u[0] for u in us)


def test_sampling_determinism_and_validation():
    a = sample_point(5, P7, 42)
    b = sample_point(5, P7, 42)
    assert a == b
    a.validate(P7)
    assert sample_point(2, P7, 0) == IndexPoint(2, {})
    with pytest.raises(ValueError):
        IndexPoint(4, {}).validate(P7)


def test_digit_keys_are_sorted_and_complete():
    for n in range(1, 9):
        want = sorted(
            (m, l, i, j)
            for m in range(4, n + 1)
            for l in range(1, n + 1)
            for i, j in itertools.combinations(range(2, m), 2)
        )
        assert digit_keys(n, P8) == want


def test_sample_point_draws_the_randint_stream():
    for n in range(1, 8):
        for seed in (0, 1, 99, 12345):
            assert sample_point(n, P7, seed).digits == sample_point_randint(n, P7, seed)
    # one generator shared by a sequence of calls, as the verify suites use it
    ours, theirs = random.Random(7), random.Random(7)
    for n in (7, 4, 2, 8, 5, 7, 6, 1, 8):
        assert sample_point(n, P8, ours).digits == sample_point_randint(n, P8, theirs)
    assert ours.getstate() == theirs.getstate()


def test_sample_in_draws_the_randint_stream():
    sym = f_of_u([4, 5, 6, 7], P7)
    ours, theirs = random.Random(31), random.Random(31)
    for _ in range(20):
        while True:
            digits = sample_point_randint(7, P7, theirs)
            if point_membership(IndexPoint(7, digits), sym):
                break
        assert sample_in(sym, 7, P7, ours).digits == digits
    assert ours.getstate() == theirs.getstate()


def test_sample_in_respects_constraints():
    sym = f_of_u([4, 5, 6, 7], P7)
    rng = random.Random(17)
    for _ in range(20):
        pt = sample_in(sym, 7, P7, rng)
        assert point_membership(pt, sym)


def test_sample_in_refuses_an_empty_piece():
    # all radices 1: every constrained piece is empty, so rejection would never accept
    ones = TParams.build(HALF, 7, radices={4: 1, 5: 1, 6: 1, 7: 1})
    with pytest.raises(ValueError):
        sample_in(f_of_u((4, 5, 6, 7), ones), 7, ones, 0)
    assert sample_in(f_of_u((4, 5, 6, 7), ones), 6, ones, 0).n == 6


def test_rejection_rate_matches_exact_ratio():
    sym = f_of_u([4, 5, 6, 7], P7)
    ratio = measure_ratio([4, 5, 6, 7], 7, P7)
    rng = random.Random(2024)
    tries = 10_000
    hits = sum(1 for _ in range(tries) if point_membership(sample_point(7, P7, rng), sym))
    mean = float(ratio)
    sigma = (mean * (1 - mean) / tries) ** 0.5
    assert abs(hits / tries - mean) <= 3 * sigma


def test_point_to_integer_is_a_bijection_on_small_pieces():
    seen = set()
    for digits in itertools.product((1, 2), repeat=4):
        keys = [(4, l, 2, 3) for l in range(1, 5)]
        pt = IndexPoint(4, dict(zip(keys, digits)))
        seen.add(point_to_integer(pt, P7))
    assert seen == set(range(4, 20))  # offset 3 for the three singleton pieces
    assert point_to_integer(IndexPoint(1, {}), P7) == 1


def test_pigeonhole_emptiness_instance_and_brute_force():
    a_sets = [(4, l1, l2, 8) for l1, l2 in itertools.combinations((5, 6, 7), 2)]
    rep = pigeonhole_intersection_empty(a_sets, (5, 6, 7, 8), P8)
    assert rep.empty and rep.preconditions_ok
    assert rep.positions == (2, 3)
    assert rep.clique_slice == (4, 2, 3)

    # brute force over the binary digits the constraints involve
    cons = [pair for u in a_sets for pair in f_of_u(u, P8).piece_constraints(8)]
    assert next(disequality_solutions(cons, P8.radix), None) is None


def test_pigeonhole_single_set_is_nonempty_with_reported_preconditions():
    rep = pigeonhole_intersection_empty([(4, 5, 6, 8)], (5, 6, 7, 8), P8)
    assert not rep.empty
    assert not rep.preconditions_ok
    assert rep.failures


def test_pigeonhole_too_small_w_reports_precondition():
    a_sets = [(4, l1, l2, 7) for l1, l2 in itertools.combinations((5, 6), 2)]
    rep = pigeonhole_intersection_empty(a_sets, (5, 6, 7), P7)
    assert not rep.preconditions_ok
    assert any("r + 2" in f for f in rep.failures)


def test_pigeonhole_decision_is_exact_only_under_preconditions():
    # an odd cycle of disequalities on a binary slice is unsatisfiable but has
    # no clique above the radix; the pair-coverage precondition rules such
    # inputs out, and the report must say so rather than certify emptiness
    p10 = TParams.build(HALF, 10)
    cycle = [(4, 5, 6, 10), (4, 6, 7, 10), (4, 7, 8, 10), (4, 8, 9, 10), (4, 5, 9, 10)]
    rep = pigeonhole_intersection_empty(cycle, (5, 6, 7, 8, 9, 10), p10)
    assert not rep.preconditions_ok
    assert not rep.empty  # no certificate, and none is claimed

    # brute force over the involved binary digits shows the truth: empty
    cons = [pair for u in cycle for pair in f_of_u(u, p10).piece_constraints(10)]
    assert next(disequality_solutions(cons, p10.radix), None) is None


def test_averages_norm_cases():
    for m in range(1, 8):
        assert averages_norm(SparseVector.unit(m), P7) == 1
    assert averages_norm(SparseVector(), P7) == 0
    a = SparseVector({4: 1, 5: 1, 6: 1, 7: 1})
    # u = {4,5,6,7} collects 1 + 1 + 1 + 1/2
    assert averages_norm(a, P7) == Fraction(7, 2)
    with pytest.raises(ValueError):
        averages_norm(SparseVector.unit(9), P7)


def test_transversal_report_small_cases():
    pts = [sample_point(n, P7, n) for n in (1, 2, 3)]
    rep = transversal_trace_report(pts, P7, bound=3)
    assert rep.selected == (0, 1, 2)
    assert rep.covered == ()

    single = [sample_point(5, P7, 9)]
    rep1 = transversal_trace_report(single, P7, bound=3)
    assert rep1.selected == (0,)

    with pytest.raises(ValueError):
        transversal_trace_report([sample_point(4, P7, 1), sample_point(4, P7, 2)], P7, 3)


def test_transversal_report_finds_uncovered_subtransversal():
    rng = random.Random(5)
    pts = [sample_point(n, P7, rng) for n in range(1, 8)]
    rep = transversal_trace_report(pts, P7, bound=3)
    chosen = [pts[i] for i in rep.selected]
    # verify the defining property directly
    for combo in itertools.combinations(range(len(chosen)), 4):
        sub = [chosen[i] for i in combo]
        pieces = tuple(pt.n for pt in sub)
        for u in barrier_window_members(7):
            if set(pieces).issubset(u):
                sym = f_of_u(u, P7)
                assert not all(point_membership(pt, sym) for pt in sub)


def test_transversal_norm_sandwich():
    rng = random.Random(23)
    pts = [sample_point(n, P7, rng) for n in range(1, 8)]
    rep = transversal_trace_report(pts, P7, bound=3)
    chosen = [pts[i] for i in rep.selected]
    for _ in range(20):
        coeffs = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in chosen]
        v = transversal_norm(chosen, coeffs, P7)
        top = max(coeffs)
        assert top <= v <= 4 * top
