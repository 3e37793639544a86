"""Library refusals: each bad input raises ValueError with its message."""

import itertools
import re
from fractions import Fraction

import pytest

from schreierkit import (
    Family,
    GaugeProblem,
    IndexPoint,
    NormingSpec,
    OrdinalCNF,
    PartitionMeasure,
    SparseVector,
    TParams,
    alpha_null_witness,
    baernstein_norm,
    block_p_norm_power,
    cesaro_profile,
    dfjp_norm,
    eps_support_family,
    erdos_hajnal_count,
    f_of_u,
    g_delta_mu,
    g_lambda,
    hereditary_closure,
    inner_distance,
    interval,
    pigeonhole_intersection_empty,
    schreier_family,
    transversal_norm,
    transversal_norms,
)
from schreierkit.serialize import measure_from_obj
from schreierkit.tfamily import digit_keys
from schreierkit.verify import SUITES, run_suites

HALF = Fraction(1, 2)
P8 = TParams.build(HALF, 8)
S1 = schreier_family(interval(1, 4))
X = SparseVector({1: Fraction(1), 3: Fraction(-2)})
TWO_PIECES = PartitionMeasure([(1, 2), (3, 4)])
I4 = dict.fromkeys(digit_keys(4, P8), 1)
PT = IndexPoint(4, I4)


REFUSALS = {
    "interval-backwards": (lambda: interval(3, 1), "bad interval [3, 1]"),
    "closure-of-a-21-element-member": (
        lambda: hereditary_closure(Family([interval(1, 21)])),
        "member of size 21 too large for subset closure",
    ),
    "measure-empty-piece": (lambda: PartitionMeasure([(1, 2), ()]), "pieces must be nonempty"),
    "measure-missing-weight-map": (
        lambda: PartitionMeasure([(1, 2), (3,)], [{1: HALF, 2: HALF}]),
        "one weight map per piece required",
    ),
    "measure-weight-keys-off-the-piece": (
        lambda: PartitionMeasure([(1, 2)], [{1: HALF, 3: HALF}]),
        "weight map keys [1, 3] != piece [1, 2]",
    ),
    "g-lambda-density-zero": (
        lambda: g_lambda(S1, TWO_PIECES, Fraction(0)),
        "lambda must lie in (0, 1], got 0",
    ),
    "g-delta-mu-density-above-one": (
        lambda: g_delta_mu(S1, TWO_PIECES, Fraction(3, 2)),
        "delta must lie in (0, 1], got 3/2",
    ),
    "inner-distance-of-zero": (
        lambda: inner_distance(SparseVector(), S1, HALF, 0),
        "inner distance needs a nonzero vector",
    ),
    # a bool is an int, so True and False would run as levels 1 and 0
    "gauge-level-bool": (lambda: GaugeProblem(X, True, S1), "level must be an int, got True"),
    "inner-distance-level-bool": (
        lambda: inner_distance(X, S1, HALF, False),
        "level must be an int, got False",
    ),
    "dfjp-norm-n-max-bool": (lambda: dfjp_norm(X, S1, n_max=True), "n_max must be an int, got True"),
    # a level or a tolerance of another type is refused before it is compared
    "dfjp-norm-n-max-str": (lambda: dfjp_norm(X, S1, n_max="3"), "n_max must be an int, got '3'"),
    "dfjp-norm-n-max-none": (lambda: dfjp_norm(X, S1, n_max=None), "n_max must be an int, got None"),
    "gauge-tolerance-str": (
        lambda: GaugeProblem(X, 2, S1, "1/2"),
        "tolerance must be an int or a Fraction, got '1/2'",
    ),
    "gauge-tolerance-none": (
        lambda: GaugeProblem(X, 2, S1, None),
        "tolerance must be an int or a Fraction, got None",
    ),
    "gauge-tolerance-bool": (
        lambda: GaugeProblem(X, 2, S1, True),
        "tolerance must be an int or a Fraction, got True",
    ),
    "block-power-p-below-one": (lambda: block_p_norm_power(X, S1, 0), "p must be >= 1, got 0"),
    # True would run as p = 1
    "block-power-p-bool": (lambda: block_p_norm_power(X, S1, True), "p must be an int, got True"),
    "block-power-p-str": (lambda: block_p_norm_power(X, S1, "2"), "p must be an int, got '2'"),
    "block-power-p-float": (lambda: block_p_norm_power(X, S1, 2.5), "p must be an int, got 2.5"),
    "baernstein-p-bool": (lambda: baernstein_norm(X, S1, True), "p must be an int, got True"),
    "eps-supports-eps-zero": (
        lambda: eps_support_family([X], NormingSpec(S1), Fraction(0)),
        "eps must be positive",
    ),
    "alpha-null-eps-negative": (
        lambda: alpha_null_witness([X], OrdinalCNF.from_int(1), Fraction(-1), interval(1, 4)),
        "eps must be positive",
    ),
    "cesaro-of-no-vector": (lambda: cesaro_profile([], S1, 2), "need at least one vector"),
    "ordinal-from-negative-int": (lambda: OrdinalCNF.from_int(-1), "ordinal must be >= 0"),
    "measure-json-weights-short": (
        lambda: measure_from_obj({"pieces": [[1, 2], [3]], "weights": [["1/2", "1/2"]]}),
        '"weights" must be an array of 2 arrays, one per piece',
    ),
    "tparams-window-zero": (lambda: TParams.build(HALF, 0), "window_max must be >= 1"),
    "point-missing-digit": (
        lambda: IndexPoint(4, {}).digit((4, 1, 2, 3)),
        "point in I_4 has no digit at (4, 1, 2, 3)",
    ),
    "point-digit-past-the-radix": (
        lambda: IndexPoint(4, {**I4, (4, 1, 2, 3): P8.radix(4) + 1}).validate(P8),
        f"digit {P8.radix(4) + 1} outside 1..{P8.radix(4)}",
    ),
    "erdos-hajnal-one-digit": (lambda: erdos_hajnal_count(1, 3), "need n >= 2 and r >= 1"),
    "piece-outside-u": (
        lambda: f_of_u((4, 5, 6, 7), P8).piece_constraints(8),
        "piece 8 is not touched by this set (u = (4, 5, 6, 7))",
    ),
    "transversal-norms-row-too-long": (
        lambda: transversal_norms([PT], [[1, 2]], P8),
        "one coefficient per point required",
    ),
    "transversal-norm-too-few-coefficients": (
        lambda: transversal_norm([PT, PT], [1], P8),
        "one coefficient per point required",
    ),
    "unknown-suite": (
        lambda: run_suites(1, ["nope"]),
        f"unknown suite 'nope'; available: {sorted(SUITES)}",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_and_its_message(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


A_SETS = [(4, l1, l2, 8) for l1, l2 in itertools.combinations((5, 6, 7), 2)]


@pytest.mark.parametrize(
    "us, w, message",
    [
        ([], (5, 6, 7, 8), "need at least one barrier set"),
        (A_SETS, (), "w must be nonempty"),
    ],
)
def test_pigeonhole_refusals(us, w, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        pigeonhole_intersection_empty(us, w, P8)


@pytest.mark.parametrize(
    "us, w, failure",
    [
        ([(4, 5, 6, 8), (5, 6, 7, 8, 10)], (6, 7, 8, 9, 10), "minima differ: [4, 5]"),
        ([(3, 5, 8)], (5, 6, 7, 8), "shared minimum 3 is not > 3"),
        (A_SETS, (4, 5, 6, 7, 8), "min w = 4 is not above n_1 = 4"),
    ],
)
def test_pigeonhole_reports_each_failed_precondition(us, w, failure):
    rep = pigeonhole_intersection_empty(us, w, TParams.build(HALF, 10))
    assert not rep.preconditions_ok
    assert failure in rep.failures, rep.failures
