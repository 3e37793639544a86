import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schreierkit import (
    Family,
    NormingSpec,
    OrdinalCNF,
    SparseVector,
    alpha_null_witness,
    baernstein_norm,
    block_p_norm_power,
    bounded_cardinality_family,
    cesaro_profile,
    eps_support_family,
    f_norm,
    hereditary_closure,
    interval,
    parse_ordinal,
    schreier_enumerate,
    schreier_family,
    spreading_constant,
    trace,
    uniform_weak_bound,
)

from schreierkit import norms
from schreierkit.families import is_hereditary, norming_sets, run_norm_rows
from schreierkit.lp import solve_lp
from schreierkit.norms import float_root

from oracles import block_dp_fractions, block_power_brute, eps_supports_per_set, family_norm_brute

W8 = interval(1, 8)
S8 = schreier_family(W8)
S5 = schreier_family(interval(1, 5))

coords_strategy = st.dictionaries(
    st.integers(1, 8),
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    max_size=6,
)


def rand_vector(rng, window, max_support):
    ks = rng.sample(list(window), rng.randint(1, max_support))
    return SparseVector(
        {k: Fraction(rng.randint(-6, 6), rng.randint(1, 8)) for k in ks}
    )


def test_f_norm_examples():
    assert f_norm(SparseVector.unit(3), S8) == 1
    x = SparseVector({k: Fraction(1, 2) for k in (2, 3, 4, 5)})
    assert f_norm(x, S8) == Fraction(3, 2)
    for n in (2, 3, 4):
        block = SparseVector({k: 1 for k in range(n, 2 * n)})
        assert f_norm(block, schreier_family(interval(1, 2 * n))) == n
    assert f_norm(SparseVector(), S8) == 0
    assert f_norm(SparseVector.unit(2), Family()) == 1  # sup part survives


def test_f_norm_matches_member_scan():
    rng = random.Random(21)
    rand_hered = hereditary_closure(
        Family([rng.sample(list(W8), rng.randint(1, 4)) for _ in range(6)])
    )
    for fml in (S8, rand_hered, bounded_cardinality_family(W8, 2)):
        members = fml.members()
        for _ in range(40):
            x = rand_vector(rng, W8, 6)
            assert f_norm(x, fml) == family_norm_brute(members, dict(x.items()))


@settings(max_examples=60, deadline=None)
@given(coords_strategy, coords_strategy)
def test_f_norm_is_an_unconditional_norm(cx, cy):
    x, y = SparseVector(cx), SparseVector(cy)
    nx, ny = f_norm(x, S8), f_norm(y, S8)
    assert f_norm(x + y, S8) <= nx + ny
    assert f_norm(x.scale(Fraction(-3, 2)), S8) == Fraction(3, 2) * nx
    assert f_norm(x.abs(), S8) == nx
    if set(cx) <= set(cy) and all(abs(cx.get(k, 0)) <= abs(v) for k, v in cy.items()):
        # |x| <= |y| coordinatewise forces monotonicity
        assert nx <= ny


def test_f_norm_monotone_coordinatewise():
    x = SparseVector({2: Fraction(1, 3), 5: Fraction(-1, 2)})
    y = SparseVector({2: Fraction(2, 3), 5: Fraction(3, 4)})
    assert f_norm(x, S8) <= f_norm(y, S8)


def test_trace_sufficiency_exact():
    rng = random.Random(5)
    for _ in range(20):
        x = rand_vector(rng, W8, 5)
        assert f_norm(x, S8) == f_norm(x, trace(S8, x.support))


def test_block_power_refuses_a_power_past_the_size_cap():
    # the cap is checked before any run norm is powered; without it
    # p = 10^8 ran past 20 s and p = 10^400 can never finish
    x = SparseVector({2: Fraction(1, 3), 4: Fraction(5, 7)})
    with mock.patch.object(norms, "_block_dp", side_effect=AssertionError("a power was built")):
        for p in (10**8, 10**400):
            with pytest.raises(ValueError, match="exact power would pass"):
                block_p_norm_power(x, S5, p)
            with pytest.raises(ValueError, match="exact power would pass"):
                baernstein_norm(x, S5, p)
    # 1/3 and 5/7 are 7 and 15 over 21: the l1 sum 22 has 5 bits
    assert block_p_norm_power(x, S5, 10_000) == block_power_brute(dict(x.items()), S5.members(), 10_000)
    unit = SparseVector.unit(4)
    assert block_p_norm_power(unit, S5, norms.MAX_POWER_BITS) == 1
    with pytest.raises(ValueError):
        block_p_norm_power(unit, S5, norms.MAX_POWER_BITS + 1)


def test_block_norm_examples():
    assert baernstein_norm(SparseVector.unit(4), S8, 2) == 1.0
    assert block_p_norm_power(SparseVector.unit(4), S8, 2) == 1
    x = SparseVector({1: 1, 2: 1})
    # the split {1},{2} beats the single block of norm 1
    assert block_p_norm_power(x, S8, 2) == 2
    assert baernstein_norm(x, S8, 2) == pytest.approx(math.sqrt(2))
    assert baernstein_norm(x, S8, float("inf")) == f_norm(x, S8) == 1
    with pytest.raises(ValueError):
        baernstein_norm(x, S8, Fraction(1, 2))


def test_float_root_past_float_range():
    for power, p in ((Fraction(200), 2), (Fraction(1, 3), 3), (Fraction(0), 5)):
        assert float_root(power, p) == float(power) ** (1.0 / p)
    assert float_root(Fraction(2 * 10**400), 400) == pytest.approx(10 * 2 ** (1 / 400), rel=1e-14)
    assert float_root(Fraction(3 * 10**5000, 7), 5000) == pytest.approx(
        10 * (3 / 7) ** (1 / 5000), rel=1e-13
    )
    with pytest.raises(ValueError):
        float_root(Fraction(10**700), 2)  # the root 10^350 is past float range too
    x = SparseVector({1: 10, 3: 10})
    fam = Family([[1, 2], [2, 3]])
    assert baernstein_norm(x, fam, 400) == float_root(Fraction(2 * 10**400), 400)
    with pytest.raises(ValueError, match="701/2"):
        baernstein_norm(x, fam, Fraction(701, 2))


def test_float_root_below_float_range():
    # (1/1000)^200 = 10^-600 is below the float range, its root is not
    assert baernstein_norm(SparseVector({2: Fraction(1, 1000)}), S5, 200) == pytest.approx(0.001, rel=1e-14)
    assert float_root(Fraction(3, 7 * 10**5000), 5000) == pytest.approx(0.1 * (3 / 7) ** (1 / 5000), rel=1e-13)
    # a subnormal power is factored too; a normal one takes the plain root
    assert float_root(Fraction(1, 10**310), 2) == pytest.approx(1e-155, rel=1e-15)
    tiny = Fraction(1, 10**300)
    assert float_root(tiny, 3) == float(tiny) ** (1.0 / 3)
    with pytest.raises(ValueError):
        float_root(Fraction(1, 10**700), 2)  # the root 10^-350 is below float range too
    # the float path for non-integer p refuses a sum of powers that underflows to 0
    with pytest.raises(ValueError, match="5/2: the float block norm underflows"):
        baernstein_norm(SparseVector({2: Fraction(1, 10**200)}), S5, Fraction(5, 2))


def test_block_norm_p1_is_l1():
    x = SparseVector({2: Fraction(1, 2), 5: Fraction(-1, 3), 7: 2})
    assert baernstein_norm(x, S8, 1) == x.l1_norm()


def test_block_norm_non_integer_p_float_path():
    x = SparseVector({1: 1, 2: 1})
    v = baernstein_norm(x, S8, Fraction(3, 2))
    assert isinstance(v, float)
    assert abs(v - 2 ** (2 / 3)) < 1e-9  # two unit blocks: (1 + 1)^(1/p)


def float_block_norm_via_fractions(x, family, p):
    """``baernstein_norm`` at non-integer p, through the Fraction-per-cell oracle DP."""
    q = float(p)
    return block_dp_fractions(x, family, lambda v: float(v) ** q) ** (1.0 / q)


def test_block_norm_float_path_past_float_range_ints():
    # scale = 3 * 10^400 and most run ints are past float range; the run norms are not
    x = SparseVector({3: Fraction(10**400 + 1, 10**400), 5: Fraction(1, 3), 6: Fraction(-7, 10**399)})
    got = baernstein_norm(x, S8, Fraction(3, 2))
    assert math.isfinite(got)
    assert got == float_block_norm_via_fractions(x, S8, Fraction(3, 2))


def test_block_norm_float_path_matches_fraction_dp_bit_for_bit():
    rng = random.Random(2207)
    other = Family([(1, 2)] + [tuple(sorted(rng.sample(range(1, 11), rng.randint(1, 4)))) for _ in range(6)])
    assert not is_hereditary(other)
    for fam, window in ((S8, W8), (other, interval(1, 10))):
        for _ in range(100):
            x = rand_vector(rng, window, 7)
            for p in (Fraction(3, 2), Fraction(5, 3)):
                assert baernstein_norm(x, fam, p) == float_block_norm_via_fractions(x, fam, p)


def test_block_norm_power_is_an_exact_fraction():
    zero = SparseVector()
    coprime = SparseVector({2: Fraction(1, 2), 4: Fraction(-2, 3), 7: Fraction(5, 7), 8: Fraction(4, 11)})
    for fam in (S8, Family(), Family([[]])):
        for x in (zero, coprime):
            coords = dict(x.items())
            for p in (1, 2, 3):
                got = block_p_norm_power(x, fam, p)
                assert type(got) is Fraction
                assert math.gcd(got.numerator, got.denominator) == 1 and got.denominator > 0
                assert got == block_power_brute(coords, fam.members(), p)
            # the CLI prints the p = 1 value exactly
            assert type(baernstein_norm(x, fam, 1)) is Fraction


def test_block_dp_matches_bruteforce_all_decompositions():
    rng = random.Random(31)
    for _ in range(25):
        x = rand_vector(rng, W8, 6)
        coords = dict(x.items())
        for p in (1, 2, 3):
            assert block_p_norm_power(x, S8, p) == block_power_brute(coords, S8.members(), p)
        assert baernstein_norm(x, S8, float("inf")) == f_norm(x, S8)


# non-hereditary families on 1..10 around supports inside 2..9: members may be
# empty, leave the support on both sides, or share a trace on it
members_strategy = st.lists(st.lists(st.integers(1, 10), max_size=6, unique=True), max_size=8)
block_coords = st.dictionaries(
    st.integers(2, 9), st.fractions(min_value=-3, max_value=3, max_denominator=12), max_size=7
)


@settings(max_examples=200, deadline=None)
@given(members_strategy, block_coords, st.sets(st.integers(0, 6)))
@example([[], [1, 3, 10], [3, 10], [1, 3], [5, 6, 7]], {3: 1, 5: Fraction(1, 2), 7: 2}, {1})
@example([[1, 10], []], {4: Fraction(-2, 3), 6: 1}, set())
# runs from start > 0 on paths through labels below support[start], a best
# member reached only through interior nodes off the support, numerators
# around 2^200, the empty family, the family {empty set} and the zero vector
@example([[2, 4, 9], [1, 3, 5, 7]], {4: Fraction(2**200 + 1, 3), 5: 2**200 - 1, 9: -(2**200)}, {1})
@example([[1, 2, 3, 8], [6, 7]], {6: 1, 7: 1, 8: 3}, {0})
@example([], {3: 1, 5: Fraction(1, 2)}, set())
@example([[]], {3: 1}, set())
@example([[1, 2]], {}, set())
def test_block_rows_match_segment_norms(members, coords, zeroed):
    x = SparseVector(coords)
    support = x.support
    scale = math.lcm(*(v.denominator for v in coords.values() if v))
    weights = [abs(v.numerator) * (scale // v.denominator) for _, v in x.items()]
    # the closure's rows walk one root child's subtree each, on weighted labels only
    for fam in (Family(members), hereditary_closure(Family(members))):
        for ws in (weights, [0 if q in zeroed else w for q, w in enumerate(weights)]):
            rows = run_norm_rows(fam, support, ws)
            assert len(rows) == len(support)
            for i, row in enumerate(rows):
                assert len(row) == len(support) - i
                for j, total in enumerate(row, start=i + 1):
                    segment = {support[q]: Fraction(ws[q], scale) for q in range(i, j)}
                    got = Fraction(total, scale)
                    assert got == family_norm_brute(fam.members(), segment), (i, j)
        for p in (1, 2, 3):
            assert block_p_norm_power(x, fam, p) == block_power_brute(coords, fam.members(), p)
        got = f_norm(x, fam)
        assert got == family_norm_brute(fam.members(), coords) and type(got) is Fraction


def test_block_lower_bound_scaled_claim():
    rng = random.Random(8)
    for _ in range(20):
        k = rng.randint(2, 4)
        blocks, start = [], 1
        for _ in range(k):
            size = rng.randint(1, 2)
            blocks.append(
                SparseVector(
                    {start + i: Fraction(rng.randint(1, 5), rng.randint(1, 4)) for i in range(size)}
                )
            )
            start += size
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
        total = SparseVector()
        for a, y in zip(coeffs, blocks):
            total = total + y.scale(a)
        lhs = block_p_norm_power(total, S8, 2)
        rhs = sum(
            (a * a * block_p_norm_power(y, S8, 2) for a, y in zip(coeffs, blocks)),
            Fraction(0),
        )
        assert lhs >= rhs


def test_eps_support_family_identity_and_degenerate_cases():
    basis = [SparseVector.unit(k) for k in W8]
    spec = NormingSpec(S8)
    got = eps_support_family(basis, spec, Fraction(1, 2))
    want = Family(list(S8) + [(k,) for k in W8])
    assert got == want

    zeros = [SparseVector(), SparseVector()]
    assert eps_support_family(zeros, spec, Fraction(1, 2)) == Family([[]])

    pair = NormingSpec(Family([[2, 3]]))
    got2 = eps_support_family(basis, pair, Fraction(1, 2))
    assert got2 == Family([[], [2, 3]] + [(k,) for k in W8])


def test_eps_support_family_on_piece_averages():
    # averages over a partition recover the density projection of the family
    pieces = [(1, 2), (3, 4), (5, 6)]
    avg = [
        SparseVector({k: Fraction(1, len(p)) for k in p}) for p in pieces
    ]
    base = Family([[1, 3], [2, 3, 4], [5]])
    spec = NormingSpec(base)
    got = eps_support_family(avg, spec, Fraction(1, 2))
    # {1,3}: mass 1/2 on pieces 1,2 -> {1,2}; {2,3,4}: 1/2, 1 -> {1,2};
    # {5} and the singletons: the piece of the coordinate
    assert got == Family([[], [1], [2], [3], [1, 2]])


def test_uniform_weak_bound_cases():
    basis = [SparseVector.unit(k) for k in W8]
    spec3 = NormingSpec(bounded_cardinality_family(W8, 3))
    assert uniform_weak_bound(basis, spec3, Fraction(1, 2)) == 3

    decaying = [SparseVector({1: Fraction(1, k)}) for k in range(1, 9)]
    spec = NormingSpec(S8)
    assert uniform_weak_bound(decaying, spec, Fraction(2)) == 0

    growing = [uniform_weak_bound(
        [SparseVector.unit(k) for k in range(1, n + 1)],
        NormingSpec(schreier_family(interval(1, n))),
        Fraction(1, 2),
    ) for n in (4, 8, 12)]
    assert growing == sorted(growing) and growing[0] < growing[-1]


def test_uniform_weak_bound_signed_enumeration():
    # cancellation matters: at eps = 2 each sign pattern on {1,2} annihilates
    # one of the two vectors and no singleton reaches eps, so the exact count
    # is 1 while a sum-of-absolute-values shortcut would report 2
    xs = [SparseVector({1: 1, 2: -1}), SparseVector({1: 1, 2: 1})]
    spec = NormingSpec(Family([[1, 2]]))
    assert uniform_weak_bound(xs, spec, Fraction(2)) == 1
    assert eps_support_family(xs, spec, Fraction(2)) == Family([[], [1], [2]])
    # at eps = 1/2 the singleton e_1* reaches both vectors
    assert uniform_weak_bound(xs, spec, Fraction(1, 2)) == 2
    # the last sign pattern reaches fewer vectors than the first: (1, 1)
    # reaches {1, 2} and (1, -1) only {3}, and the bound keeps the larger
    xs3 = [SparseVector({1: 1, 2: 1}), SparseVector({1: 1, 2: 1}), SparseVector({1: 1, 2: -1})]
    assert uniform_weak_bound(xs3, spec, Fraction(2)) == 2


signed_vectors_strategy = st.lists(
    st.dictionaries(
        st.integers(1, 6),
        st.fractions(min_value=-3, max_value=3, max_denominator=60),
        max_size=4,
    ),
    min_size=1,
    max_size=5,
).map(lambda ds: [SparseVector(d) for d in ds])


@settings(max_examples=150, deadline=None)
@given(
    signed_vectors_strategy,
    st.lists(st.frozensets(st.integers(1, 6), max_size=4), max_size=6).map(Family),
    st.fractions(min_value=Fraction(1, 1000), max_value=4, max_denominator=1000),
)
@example(
    [SparseVector({1: 1, 2: 1}), SparseVector({1: 1, 2: -1})], Family([[1, 2]]), Fraction(2)
)
def test_weak_bound_and_eps_supports_match_definitions(xs, base, eps):
    spec = NormingSpec(base)
    # the norming set itself: +-e_k* and every signed indicator of a base set
    functionals = [{k: 1} for k in range(1, 7)]
    for s in base:
        functionals += [dict(zip(s, signs)) for signs in itertools.product((1, -1), repeat=len(s))]

    def support(f):
        return tuple(
            n for n, x in enumerate(xs, 1)
            if abs(sum((t * x[k] for k, t in f.items()), Fraction(0))) >= eps
        )

    supports = set(map(support, functionals))
    weak = uniform_weak_bound(xs, spec, eps)
    assert weak == max(map(len, supports))
    # every member is an eps-support, and every eps-support lies in a member
    got = eps_support_family(xs, spec, eps)
    assert all(s in supports or s == () for s in got)
    assert all(any(set(t) <= set(s) for s in got) for t in supports)
    assert weak == max(len(s) for s in got)


W12 = interval(1, 12)
S2_12 = schreier_enumerate(parse_ordinal("2"), W12)
EPS_FAMILIES = [
    schreier_family(W12),
    S2_12,
    schreier_enumerate(parse_ordinal("w"), W12),
    bounded_cardinality_family(W12, 3),
]

random_members = st.lists(st.frozensets(st.integers(1, 12), max_size=6), max_size=16)
family_strategy = st.one_of(
    st.sampled_from(EPS_FAMILIES),
    random_members.map(lambda members: hereditary_closure(Family(members))),
    random_members.map(Family),
)


@st.composite
def eps_vectors(draw):
    """0-8 vectors on an 8-wide window at 1..8 up to 7..14, positive or signed.

    With 5-8 vectors the weak bound is often below their number, so the
    walk's count test skips subtrees without the two-vector shortcut.
    """
    lo = draw(st.integers(0, 6))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=12)
    if draw(st.booleans()):
        value = value.map(abs)
    coords = st.dictionaries(st.integers(lo + 1, lo + 8), value, max_size=4)
    n = draw(st.integers(0, 8))
    return [SparseVector(d) for d in draw(st.lists(coords, min_size=n, max_size=n))]


def _outcome(run):
    try:
        return run()
    except ValueError as err:
        return str(err)


MIXED_PAIR = [SparseVector({k: (-1) ** k for k in W12}), SparseVector({k: 1 for k in W12})]


@settings(max_examples=200, deadline=None)
@given(
    eps_vectors(),
    family_strategy,
    st.fractions(min_value=Fraction(1, 100), max_value=4, max_denominator=100),
    st.sampled_from([2, 2**3, norms.MAX_SIGN_PATTERNS]),
)
@example([], S2_12, Fraction(1, 2), norms.MAX_SIGN_PATTERNS)
@example([SparseVector({1: 1, 3: -2})], Family(), Fraction(1, 2), norms.MAX_SIGN_PATTERNS)
@example([SparseVector({1: 1, 3: -2})], Family([[]]), Fraction(1, 2), norms.MAX_SIGN_PATTERNS)
# a support disjoint from every label, and members with labels above the support's maximum
@example([SparseVector({13: 1, 15: -1})], S2_12, Fraction(1, 2), norms.MAX_SIGN_PATTERNS)
@example([SparseVector({2: 1, 3: -1, 4: 1})], Family([[2, 3, 4, 9], [3, 4, 11]]), Fraction(1), 2**3)
@example(MIXED_PAIR, S2_12, Fraction(1, 2), 2**3)
# two refused traces: the one in the first member is not the first in order
@example(
    [x.restrict(range(2, 13)) for x in MIXED_PAIR],
    Family([[1, 8, 9, 10, 11, 12], [2, 3, 4, 5, 6, 7, 8]]),
    Fraction(1, 2),
    2**3,
)
# answers below the number of vectors: a bound without the labels ahead
# gives 2 of 7 here, and one that needs the sums to pass eps strictly 3 of 5
@example(
    [SparseVector(d) for d in (
        {6: Fraction(5, 2), 7: 2, 12: 3}, {6: 3, 8: Fraction(5, 2), 10: 5, 12: 1},
        {7: 2, 9: 1, 10: 5}, {5: 1, 9: 4, 10: 1}, {6: 2, 11: Fraction(1, 2)},
        {6: 2, 8: Fraction(5, 2)}, {5: Fraction(1, 2), 6: 3, 7: 2, 10: 1},
    )],
    EPS_FAMILIES[0],
    Fraction(3),
    norms.MAX_SIGN_PATTERNS,
)
@example(
    [SparseVector(d) for d in (
        {8: Fraction(3, 2)}, {4: Fraction(1, 2), 5: 6, 6: Fraction(3, 2), 9: 3},
        {3: 3, 4: 4, 6: Fraction(5, 2)}, {9: Fraction(1, 2)}, {9: 2},
    )],
    S2_12,
    Fraction(3, 2),
    norms.MAX_SIGN_PATTERNS,
)
def test_eps_supports_match_the_per_set_scan(xs, family, eps, cap):
    # the two calls are compared one by one: a refusal by one must not hide
    # the other's value or message
    spec = NormingSpec(family)
    with mock.patch.object(norms, "MAX_SIGN_PATTERNS", cap):
        got = _outcome(lambda: eps_support_family(xs, spec, eps))
        want = _outcome(lambda: Family([(), *eps_supports_per_set(xs, family, eps)]))
        assert got == want
        got = _outcome(lambda: uniform_weak_bound(xs, spec, eps))
        want = _outcome(lambda: max(map(len, eps_supports_per_set(xs, family, eps)), default=0))
        assert got == want


def test_sign_patterns_refused_on_a_hereditary_family(monkeypatch):
    # the support-only walk refuses a mixed trace as the per-set scan does,
    # and never refuses a trace on which every vector is sign-definite
    monkeypatch.setattr(norms, "MAX_SIGN_PATTERNS", 2**3)
    s2 = NormingSpec(schreier_enumerate(parse_ordinal("2"), interval(1, 10)))
    mixed = [x.restrict(range(1, 11)) for x in MIXED_PAIR]
    with pytest.raises(ValueError) as err:
        uniform_weak_bound(mixed, s2, Fraction(1, 2))
    with pytest.raises(ValueError, match=str(err.value)):
        list(eps_supports_per_set(mixed, s2.base_family, Fraction(1, 2)))
    with pytest.raises(ValueError, match=str(err.value)):
        eps_support_family(mixed, s2, Fraction(1, 2))
    positive = [x.abs() for x in mixed]
    assert uniform_weak_bound(positive, s2, Fraction(1, 2)) == 2
    assert eps_support_family(positive, s2, Fraction(3)) == Family(
        [(), *eps_supports_per_set(positive, s2.base_family, Fraction(3))]
    )


def test_repeated_traces_enumerate_their_sign_patterns_once(monkeypatch):
    # members in different branches of the trie share the trace {2, 5}
    members = [(1, 2, 5), (2, 5), (2, 3, 5), (2, 4, 5, 9)] + [(2, 5, k) for k in range(6, 30)]
    family = Family(members)
    xs = [SparseVector({2: 1, 5: -1}), SparseVector({2: 1, 5: 1})]
    calls = []
    helper = norms._sign_pattern_supports

    def counted(s, *args):
        calls.append(s)
        return helper(s, *args)

    monkeypatch.setattr(norms, "_sign_pattern_supports", counted)
    assert uniform_weak_bound(xs, NormingSpec(family), Fraction(2)) == 1
    assert calls == [(2, 5)]


def test_weak_bound_skips_every_subtree_that_cannot_beat_the_best(monkeypatch):
    # the singleton at 1 reaches eps = 1 on two vectors and the third vector
    # reaches it nowhere, so best = 2 from the start and no trace can count
    # 3: the walk skips the subtree of every trace it yields, on a tie
    walk = norms.trace_sums
    seen = []

    def recorded(family, columns):
        inner, skip = walk(family, columns), None
        while True:
            try:
                s, sums = inner.send(skip)
            except StopIteration:
                return
            seen.append(s)
            skip = yield s, sums

    monkeypatch.setattr(norms, "trace_sums", recorded)
    xs = [SparseVector({1: 1, 5: 1}), SparseVector({1: 1, 3: -1}), SparseVector({4: Fraction(1, 4)})]
    assert uniform_weak_bound(xs, NormingSpec(S2_12), Fraction(1)) == 2
    assert seen == [(1,), (3,), (4,), (5,)]
    # the full walk behind the family reads every nonempty trace member
    seen.clear()
    eps_support_family(xs, NormingSpec(S2_12), Fraction(1))
    assert len(seen) == len(trace(S2_12, (1, 3, 4, 5))) - 1


def test_spreading_constants_exact():
    ys = [SparseVector.unit(2), SparseVector.unit(3)]
    res = spreading_constant(ys, S8)
    assert res.value == 1
    assert res.lp.objective == res.lp.dual_objective
    res0 = spreading_constant(ys, bounded_cardinality_family(W8, 1))
    assert res0.value == Fraction(1, 2)
    y = SparseVector({2: Fraction(3, 4), 6: Fraction(1, 3)})
    assert spreading_constant([y], S8).value == f_norm(y, S8)
    with pytest.raises(ValueError):
        spreading_constant([], S8)


def test_spreading_constant_signed_inputs_use_absolute_values():
    ys = [SparseVector({2: -1}), SparseVector({3: 1})]
    assert spreading_constant(ys, S8).value == 1


@settings(max_examples=150, deadline=None)
@given(
    signed_vectors_strategy,
    st.lists(st.frozensets(st.integers(1, 6), max_size=4), max_size=6).map(Family),
    st.booleans(),
)
def test_spreading_constant_matches_the_full_lp(ys, family, closed):
    if closed:
        family = hereditary_closure(family)
    res = spreading_constant(ys, family)
    # the LP from the definition: a Fraction row per norming set, none masked
    absys = [y.abs() for y in ys]
    sets = norming_sets(family, tuple(sorted({k for y in ys for k in y.support} or {1})))
    k = len(ys)
    full = solve_lp(
        [Fraction(0)] * k + [Fraction(1)],
        [[sum((y[e] for e in s), Fraction(0)) for y in absys] + [Fraction(-1)] for s in sets],
        [Fraction(0)] * len(sets),
        [[Fraction(1)] * k + [Fraction(0)]],
        [Fraction(1)],
    )
    assert res.value == full.objective == res.lp.dual_objective == full.dual_objective
    assert len(res.lp.dual_ub) == len(sets)
    combo: dict[int, Fraction] = {}
    for a, y in zip(res.coefficients, absys):
        for e, v in y.items():
            combo[e] = combo.get(e, Fraction(0)) + a * v
    assert res.value == family_norm_brute(list(family), combo)


def test_cesaro_profiles():
    c0 = bounded_cardinality_family(W8, 1)
    ys = [SparseVector.unit(k) for k in range(1, 7)]
    prof = cesaro_profile(ys, c0, float("inf"))
    assert prof == [Fraction(1, n) for n in range(1, 7)]
    assert cesaro_profile([ys[0]], c0, float("inf")) == [1]
    # under the Schreier family the tail averages stay bounded below
    prof_s = cesaro_profile(
        [SparseVector.unit(k) for k in range(4, 9)], schreier_family(W8), float("inf")
    )
    assert all(v >= Fraction(1, 4) for v in prof_s)
    # finite p goes through the block norm (floats for p = 2)
    prof2 = cesaro_profile(ys[:3], c0, 2)
    assert len(prof2) == 3 and all(isinstance(v, float) for v in prof2)


def test_uniform_weak_bound_refuses_huge_sign_enumerations():
    big = tuple(range(1, 23))
    fml = Family([big])
    xs = [
        SparseVector({k: (1 if k % 2 else -1) for k in big}),
        SparseVector({k: 1 for k in big}),
    ]
    with pytest.raises(ValueError):
        uniform_weak_bound(xs, NormingSpec(fml), Fraction(1, 2))


def test_alpha_null_witness_cases():
    zero = OrdinalCNF.from_int(0)
    basis = [SparseVector.unit(k) for k in range(1, 7)]
    assert alpha_null_witness(basis, zero, Fraction(1, 2), W8) == [1, 2, 3, 4, 5, 6]
    decaying = [SparseVector({k: Fraction(1, k)}) for k in range(1, 7)]
    assert alpha_null_witness(decaying, zero, Fraction(1, 2), W8) == [1, 2]

    # flat averages anchored at a low index flatten out at level 1: the best
    # admissible subset of {2..L+1} of minimum m keeps only min(m, L+2-m)
    # coordinates, so the norm drops below 3/4 once L >= 8
    one = OrdinalCNF.from_int(1)
    flats = [
        SparseVector.unit(2),
        SparseVector({k: Fraction(1, 8) for k in range(2, 10)}),
        SparseVector({k: Fraction(1, 16) for k in range(2, 18)}),
    ]
    wit = alpha_null_witness(flats, one, Fraction(3, 4), interval(1, 18))
    assert wit == [1]

    # a coordinate past the window does not count: x on 1..8 is e_1, norm 1 < 2
    far = SparseVector({1: Fraction(1), 20: Fraction(5)})
    assert alpha_null_witness([far], one, Fraction(2), W8) == []
