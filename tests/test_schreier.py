import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreierkit import (
    OrdinalCNF,
    barrier_member,
    bounded_cardinality_family,
    check_inclusion,
    fundamental_sequence,
    interval,
    is_hereditary,
    otimes,
    parse_ordinal,
    schreier_enumerate,
    schreier_family,
    schreier_member,
)
from schreierkit.schreier import _frame_above

from oracles import (
    all_subsets,
    schreier_level_member,
    schreier_member_direct,
    schreier_member_naive,
)

ZERO = OrdinalCNF.from_int(0)
ONE = OrdinalCNF.from_int(1)
TWO = OrdinalCNF.from_int(2)
OMEGA = parse_ordinal("w")


def test_cnf_validation_and_order():
    with pytest.raises(ValueError):
        OrdinalCNF(((1, 2), (1, 1)))
    with pytest.raises(ValueError):
        OrdinalCNF(((2, 0),))
    assert OrdinalCNF(((2, 1),)) > OrdinalCNF(((1, 5),))
    assert OrdinalCNF(((2, 1),)) < OrdinalCNF(((2, 1), (0, 1)))
    assert ZERO < ONE < OMEGA


def test_parse_and_format_roundtrip():
    for text in ("0", "3", "w", "w*2", "w^2*3+w*1+4", "w^3+w^2*2+1"):
        once = parse_ordinal(text)
        assert parse_ordinal(str(once)) == once
    with pytest.raises(ValueError):
        parse_ordinal("w+w^2")  # increasing exponents are not CNF
    with pytest.raises(ValueError):
        parse_ordinal("w*0")
    with pytest.raises(ValueError):
        parse_ordinal("q^2")


def test_classification_and_predecessor():
    assert ZERO.is_zero and not ZERO.is_limit and not ZERO.is_successor
    assert ONE.is_successor and ONE.predecessor() == ZERO
    assert OMEGA.is_limit
    assert parse_ordinal("w+3").is_successor
    assert parse_ordinal("w^2*5").is_limit
    with pytest.raises(ValueError):
        OMEGA.predecessor()


def test_fundamental_sequence_examples():
    assert fundamental_sequence(OMEGA, 3) == OrdinalCNF.from_int(3)
    assert fundamental_sequence(parse_ordinal("w*2"), 5) == parse_ordinal("w+5")
    assert fundamental_sequence(parse_ordinal("w^2"), 4) == parse_ordinal("w*4")
    assert fundamental_sequence(OMEGA, 0) == ZERO
    with pytest.raises(ValueError):
        fundamental_sequence(ONE, 2)
    with pytest.raises(ValueError):
        fundamental_sequence(ZERO, 2)


def test_fundamental_sequence_is_increasing_below_alpha():
    for alpha in (OMEGA, parse_ordinal("w*3"), parse_ordinal("w^2"), parse_ordinal("w^2+w")):
        stages = [fundamental_sequence(alpha, n) for n in range(6)]
        for a, b in zip(stages, stages[1:]):
            assert a < b < alpha


def test_membership_level_one_matches_direct_rule():
    for s in all_subsets(interval(1, 7)):
        assert schreier_member(ONE, s) == schreier_member_direct(s)


def test_membership_level_examples():
    assert schreier_member(ONE, [3, 4, 5])
    assert not schreier_member(ONE, [2, 3, 4])
    assert schreier_member(TWO, [2, 3, 4, 5, 6])


@settings(max_examples=80, deadline=None)
@given(st.frozensets(st.integers(1, 8), max_size=8), st.integers(0, 3))
def test_membership_matches_unmemoized_recursion(s, level):
    s = tuple(sorted(s))
    assert schreier_member(OrdinalCNF.from_int(level), s) == schreier_level_member(level, s)


def test_greedy_blocks_match_block_split_search():
    subsets = list(all_subsets(interval(1, 10)))
    for text in ("2", "3", "w+1", "w*2+1", "w^2+2", "w^2+w+2", "0", "1", "5", "w", "w*2", "w^2",
                 "w^2*2", "w^3", "w^3+w^2*2+w+1", "w^2*3+w*4+5"):
        alpha = parse_ordinal(text)
        for s in subsets:
            assert schreier_member(alpha, s) == schreier_member_naive(alpha, s), (text, s)


def test_run_climb_matches_materialised_descent():
    # the descent from alpha for a block with minimum e: predecessors, and
    # stage e - 1 at limits; the frames of a run are its successor levels
    for text in ("1", "3", "w", "w+3", "w*2", "w*3+1", "w^2", "w^2*2+w+4", "w^3*2+w^2+5", "w^4"):
        alpha = parse_ordinal(text)
        for e in range(2, 7):
            frames, x = [], alpha
            while not x.is_zero:
                if x.is_successor:
                    frames.append(x.terms)
                x = x.predecessor() if x.is_successor else fundamental_sequence(x, e - 1)
            frames.reverse()
            for low, above in zip(frames, frames[1:] + [None]):
                assert _frame_above(alpha.terms, e, low) == above, (text, e, low)


def test_memory_stays_bounded_across_fresh_queries():
    def one_round(k):
        # a fresh ordinal and a fresh window each round; the results are dropped
        alpha = parse_ordinal(f"w^2+w*{k}")
        schreier_enumerate(alpha, interval(k, k + 9))
        schreier_member(alpha, range(k, 3 * k + 4))

    one_round(1)
    tracemalloc.start()
    try:
        one_round(2)
        before = tracemalloc.get_traced_memory()[0]
        for k in range(3, 13):
            one_round(k)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16_384, grown


def test_long_windows_at_high_levels():
    assert schreier_member(parse_ordinal("w^2*2"), interval(24, 53))
    assert schreier_member(parse_ordinal("w^4*3"), interval(20, 199))


def test_schreier_family_counts_are_fibonacci():
    # #{s in 1..n : #s <= min s} = F(n+2)
    fib = [0, 1]
    while len(fib) < 23:
        fib.append(fib[-1] + fib[-2])
    for n in (12, 16, 20):
        assert len(schreier_family(interval(1, n))) == fib[n + 2]


def test_enumerate_matches_membership_filter():
    w = interval(1, 8)
    for alpha in (ZERO, ONE, TWO, OMEGA):
        fml = schreier_enumerate(alpha, w)
        expect = {s for s in all_subsets(w) if schreier_member(alpha, s)}
        assert set(fml.members()) == expect
        assert fml.hereditary_flag is True
        assert is_hereditary(fml)


def test_enumerate_level_zero_and_one():
    assert schreier_enumerate(ZERO, [1, 2, 3]) == bounded_cardinality_family([1, 2, 3], 1)
    assert schreier_enumerate(ONE, [1, 2, 3]).members() == [(), (1,), (2,), (2, 3), (3,)]


def test_enumerate_refuses_oversized_windows():
    with pytest.raises(ValueError):
        schreier_enumerate(ONE, interval(1, 25))


def test_spreading_property_window():
    w = interval(1, 8)
    for alpha in (ONE, TWO, OMEGA):
        fml = schreier_enumerate(alpha, w)
        for s in fml:
            if not s:
                continue
            for t in itertools.combinations(w, len(s)):
                if all(a <= b for a, b in zip(s, t)):
                    assert t in fml, (alpha, s, t)


def test_singletons_belong_everywhere_from_level_one():
    for alpha in (ONE, TWO, OMEGA, parse_ordinal("w*2+1"), parse_ordinal("w^2")):
        for k in interval(1, 8):
            assert schreier_member(alpha, [k])


def test_limit_membership_uses_shifted_union():
    # {2,3} sits in level 1 beyond the shift; {2,3,4} needs level 2 but the
    # shift demands min >= 3 there
    assert schreier_member(OMEGA, [2, 3])
    assert not schreier_member(OMEGA, [2, 3, 4])
    assert schreier_member(OMEGA, [3, 4, 5])


def test_barrier_member():
    assert barrier_member([1])
    assert barrier_member([3, 5, 9])
    assert not barrier_member([3, 5])
    with pytest.raises(ValueError):
        barrier_member([])


def test_check_inclusion_examples():
    w = interval(1, 8)
    rep = check_inclusion(ZERO, ONE, w)
    assert rep.ok and rep.shift == 1
    rep2 = check_inclusion(ONE, TWO, w)
    assert rep2.ok and rep2.shift == 1
    rep3 = check_inclusion(ZERO, TWO, w)
    assert rep3.ok
    with pytest.raises(ValueError):
        check_inclusion(ONE, ONE, w)


def test_check_inclusion_into_limit_level_needs_a_shift():
    # {2,3,4,5,6} lives at level 2 but the limit-level union only picks up
    # level-2 sets from 3 on, so the product needs shift 3
    w = interval(1, 8)
    assert schreier_member(TWO, [2, 3, 4, 5, 6])
    assert not schreier_member(OMEGA, [2, 3, 4, 5, 6])
    rep = check_inclusion(ONE, OMEGA, w)
    assert rep.ok and rep.shift == 3


def test_product_identity_on_window_ten():
    w10 = interval(1, 10)
    s10 = schreier_family(w10)
    assert otimes(bounded_cardinality_family(w10, 1), s10, w10) == s10


def test_enumerate_on_non_initial_windows():
    # windows need not be initial intervals
    w = tuple(range(3, 11))
    fml = schreier_enumerate(OMEGA, w)
    assert fml == schreier_enumerate(OMEGA, interval(3, 10))
    assert all(schreier_member(OMEGA, s) for s in fml)
    assert (3, 4, 5) in fml


def test_levels_beyond_the_first_limit():
    w8 = interval(1, 8)
    for text in ("w+1", "w*2", "w^2"):
        fml = schreier_enumerate(parse_ordinal(text), w8)
        assert is_hereditary(fml)
        assert all((k,) in fml for k in w8)
    # the successor recursion survives a limit predecessor
    s_w = schreier_enumerate(OMEGA, w8)
    prod = otimes(s_w, schreier_family(w8), w8)
    assert prod == schreier_enumerate(parse_ordinal("w+1"), w8)


def test_product_recursion_cross_checks():
    w = interval(1, 8)
    s1 = schreier_family(w)
    assert otimes(bounded_cardinality_family(w, 1), s1, w) == schreier_enumerate(ONE, w)
    assert otimes(s1, s1, w) == schreier_enumerate(TWO, w)
