import functools
import gc
import hashlib
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreierkit import (
    Family,
    InclusionReport,
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
from schreierkit.schreier import _finds_bad_set, _frame_above, _start, _step

from oracles import (
    all_subsets,
    block_decomposable,
    check_inclusion_walk,
    schreier_enumerate_walk,
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
                assert _frame_above(alpha.terms, e - 1, low) == above, (text, e, low)


def _state_after(alpha, s):
    state = _start(alpha)
    for e in s:
        state = _step(state, e)
    return state


def test_states_are_canonical():
    # a frame keeps only how many more blocks it may open, so {3} and
    # {5, 6, 7} in S_1 both may open two, at level 1, with nothing above
    assert _state_after(ONE, (3,)) == _state_after(ONE, (5, 6, 7)) == (((0, 1),), 2, (), None)
    # a fresh block whose run would hold level 1 alone is that single frame
    for text in ("1", "2", "w", "w+1", "w^2+1"):
        alpha = parse_ordinal(text)
        for s in schreier_enumerate(alpha, interval(1, 9)):
            frame = _state_after(alpha, s)
            while frame:
                _, k, frame, top = frame
                assert k >= 1 and top != ((0, 1),), (text, s)


_LIMIT_ORDINALS = st.builds(
    lambda exps, coeffs: OrdinalCNF(tuple(zip(sorted(exps, reverse=True), coeffs))),
    st.sets(st.integers(1, 4), min_size=1, max_size=3),
    st.lists(st.integers(1, 3), min_size=3, max_size=3),
)


@settings(max_examples=40, deadline=None)
@given(_LIMIT_ORDINALS, st.frozensets(st.integers(1, 9), min_size=4), st.data())
def test_equal_states_have_equal_extensions(alpha, window, data):
    # both memos copy or skip what lies above a state met before; the
    # states are compared for equality only, never read
    w = tuple(sorted(window))
    classes = {}
    for s in schreier_enumerate(alpha, w):
        classes.setdefault(_state_after(alpha, s), []).append(s)
    shared = [members for members in classes.values() if len(members) > 1]
    if not shared:
        return
    members = data.draw(st.sampled_from(shared))
    s, t = data.draw(st.lists(st.sampled_from(members), min_size=2, max_size=2, unique=True))
    top = max(s[-1:] + t[-1:], default=0)
    for u in all_subsets([e for e in w if e > top]):
        assert schreier_member_naive(alpha, s + u) == schreier_member_naive(alpha, t + u), (alpha, s, t, u)


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


def test_enumeration_leaves_no_object_per_member():
    # the family lives in flat arrays, so while S_2(1..16) (24,653 members)
    # is built and held, the collector tracks a few more objects, not one
    # or two per trie node; the peak is read at every collection
    peak = 0

    def count(phase, info):
        nonlocal peak
        peak = max(peak, len(gc.get_objects()))

    gc.collect()
    before = len(gc.get_objects())
    gc.callbacks.append(count)
    try:
        fml = schreier_enumerate(TWO, interval(1, 16))
    finally:
        gc.callbacks.remove(count)
    assert len(fml) == 24653
    assert len(gc.get_objects()) - before < 100
    assert peak - before < 100


def test_enumeration_writes_the_canonical_layout():
    # the search writes the preorder arrays itself; they equal the arrays
    # Family lays out from the member list, subtree ends included
    for alpha in (ZERO, ONE, TWO, OMEGA, parse_ordinal("w*2")):
        for w in (interval(1, 9), interval(3, 10), (), (5,)):
            fml = schreier_enumerate(alpha, w)
            ref = Family(fml.members())
            assert fml == ref and fml._end == ref._end, (alpha, w)


# windows on which enumeration and inclusion must reproduce the full walks
ORACLE_WINDOWS = (
    [interval(1, n) for n in range(17)] + [interval(2, n) for n in range(2, 17)]
    + [(2, 3, 5, 8, 9, 11), (1, 4, 6, 7, 12, 13, 20)]
)


def test_enumeration_matches_the_full_walk():
    # repeated states copy their first node's subtree: every field of the
    # family must be the one the walk of every node writes
    for text in ("0", "1", "2", "3", "w", "w+1", "w*2", "w^2", "w^2*2+3"):
        alpha = parse_ordinal(text)
        for w in ORACLE_WINDOWS:
            fml, ref = schreier_enumerate(alpha, w), schreier_enumerate_walk(alpha, w)
            assert fml._label == ref._label and fml._depth == ref._depth, (text, w)
            assert fml._end == ref._end and fml._term == ref._term, (text, w)
            assert fml.hereditary_flag is ref.hereditary_flag is True


_ORDINALS_TO_W3_2_W_3 = st.builds(
    lambda exps, coeffs: OrdinalCNF(tuple(zip(sorted(exps, reverse=True), coeffs))),
    st.sets(st.integers(0, 3), max_size=4),
    st.lists(st.integers(1, 3), min_size=4, max_size=4),
).filter(lambda alpha: alpha <= parse_ordinal("w^3*2+w+3"))


@settings(max_examples=60, deadline=None)
@given(_ORDINALS_TO_W3_2_W_3, st.frozensets(st.integers(1, 30), max_size=14))
def test_enumeration_matches_the_full_walk_on_sparse_windows(alpha, window):
    # the copies of repeated and of full subtrees on windows with gaps
    fml, ref = schreier_enumerate(alpha, window), schreier_enumerate_walk(alpha, window)
    assert fml._label == ref._label and fml._depth == ref._depth, (alpha, window)
    assert fml._end == ref._end and fml._term == ref._term, (alpha, window)
    assert fml.hereditary_flag is ref.hereditary_flag is True


def test_full_siblings_are_copied_not_stepped(monkeypatch):
    # on S_3(1..13) and S_{w+1}(1..13) every node but {1} and the root
    # holds every subset of the labels after it, so once the first child of
    # a node is searched its later siblings are copied; stepping each node
    # that the memo does not copy takes hundreds of steps
    calls = 0

    def counted(state, e):
        nonlocal calls
        calls += 1
        return _step(state, e)

    monkeypatch.setattr("schreierkit.schreier._step", counted)
    w = interval(1, 13)
    for text in ("3", "w+1"):
        calls = 0
        assert len(schreier_enumerate(parse_ordinal(text), w)) == 4097
        assert calls <= 2 * len(w), (text, calls)


def test_check_inclusion_matches_the_full_walk():
    ordinals = [parse_ordinal(t) for t in ("0", "1", "2", "w", "w+1", "w*2", "w^2")]
    for alpha, beta in itertools.combinations(ordinals, 2):
        for w in ORACLE_WINDOWS:
            assert check_inclusion(alpha, beta, w) == check_inclusion_walk(alpha, beta, w), (alpha, beta, w)


def test_enumeration_members_are_pinned():
    # sha256 of repr(members()): the member lists and their order, as the
    # trie of node objects produced them
    for text, count, digest in (
        ("2", 24653, "783a84d4397e8a5cb287ef0c1f8ed9ac28cb1fa6b221856c536998bbebeae899"),
        ("w", 16400, "a339d43a04c54b6a637ac46484bb39924744c24fca580628b911853ed2c0fb3b"),
        ("w*2", 32769, "d5125a9a6f6af5af4dbcbd65185229d38e819a8696ec2bb00d9a22771e8f353c"),
    ):
        members = schreier_enumerate(parse_ordinal(text), interval(1, 16)).members()
        assert len(members) == count
        assert hashlib.sha256(repr(members).encode()).hexdigest() == digest


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
    # the premise of check_inclusion: (S_alpha x S_1) on w is S_{alpha+1} on
    # w; comparing member lists pins the trie order as well
    windows = [interval(1, n) for n in range(11)] + [(3, 4, 6, 7, 8, 11, 12), (2, 5, 9, 10, 14, 15, 16, 20)]
    for alpha, successor in (("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("w", "w+1"), ("w+1", "w+2"),
                             ("w*2", "w*2+1"), ("w^2", "w^2+1"), ("w^2+w", "w^2+w+1")):
        a, b = parse_ordinal(alpha), parse_ordinal(successor)
        for w in windows:
            product = otimes(schreier_enumerate(a, w), schreier_family(w), w)
            assert product.members() == schreier_enumerate(b, w).members(), (alpha, w)


class _Members:
    """A membership predicate as a container, as block_decomposable wants."""

    def __init__(self, member):
        self.member = functools.lru_cache(maxsize=None)(member)

    def __contains__(self, s):
        return self.member(tuple(s))


def _inclusion_brute(alpha, beta, w):
    """The report from the definition: product members that leave S_beta."""
    blocks = _Members(lambda s: schreier_member_naive(alpha, s))
    minima = _Members(schreier_member_direct)
    bad = [
        s for s in all_subsets(w)
        if block_decomposable(s, blocks, minima) and not schreier_member_naive(beta, s)
    ]
    shift = 1 + max((s[0] for s in bad), default=0)
    if shift > len(w):
        return InclusionReport(False, None, min(bad, default=None), w)
    return InclusionReport(True, shift, None, w)


def test_check_inclusion_matches_the_definition():
    ordinals = [parse_ordinal(t) for t in ("0", "1", "2", "w", "w+1", "w*2", "w^2")]
    windows = [interval(1, n) for n in range(9)] + [
        (2, 3, 5, 8, 9, 11), (3, 4, 5, 6, 7, 8, 9, 10), (1, 4, 6, 7, 12, 13, 20)]
    for alpha, beta in itertools.combinations(ordinals, 2):
        for w in windows:
            assert check_inclusion(alpha, beta, w) == _inclusion_brute(alpha, beta, w), (alpha, beta, w)
    assert check_inclusion(ONE, OMEGA, ()) == InclusionReport(False, None, None, ())


def test_check_inclusion_shift_comes_from_the_largest_bad_minimum():
    # Every bad set of at most 8 elements has minimum 2, so the windows
    # above cannot tell the largest bad minimum from the smallest.  On
    # 1..24, {2,3,4} is in S_3 but not in S_w (stage 1 = S_1), and so is
    # {3..24}: 22 elements, one more than S_2 takes from 3.  From minimum 4
    # on, S_w is S_{min - 1}, which contains S_3, so the shift is 4.
    three = parse_ordinal("3")
    for bad in ((2, 3, 4), tuple(range(3, 25))):
        assert schreier_member_naive(three, bad) and not schreier_member_naive(OMEGA, bad)
    assert check_inclusion(TWO, OMEGA, interval(1, 24)) == InclusionReport(True, 4, None, interval(1, 24))


def test_inclusion_walk_pushes_the_state_triples_of_every_member():
    # with no bad set below its first element the walk meets every member
    # of S_{alpha+1} that has a child, and its visited set ends up holding
    # the (S_{alpha+1} state, S_beta state, start) triple of each of them
    for alpha, beta, w in (
        (ONE, TWO, interval(3, 12)),
        (ONE, OMEGA, interval(3, 12)),
        (OMEGA, parse_ordinal("w+1"), interval(2, 11)),
        (TWO, parse_ordinal("w*2"), (2, 3, 5, 8, 9, 11, 12, 14)),
    ):
        successor = OrdinalCNF(_start(alpha)[0])
        pushed = set()
        state, inside = (_state_after(x, w[:1]) for x in (successor, beta))
        assert not _finds_bad_set(state, inside, 1, w, pushed)
        assert pushed == {
            (_state_after(successor, s), _state_after(beta, s), w.index(s[-1]) + 1)
            for s in schreier_enumerate(successor, w)
            if len(s) >= 2 and s[0] == w[0] and s[-1] < w[-1] and _state_after(successor, s)
        }, (alpha, beta, w)


def test_check_inclusion_refusals():
    with pytest.raises(ValueError, match="limit 24"):
        check_inclusion(ONE, TWO, interval(1, 25))
    for alpha, beta in ((TWO, TWO), (OMEGA, TWO)):
        with pytest.raises(ValueError, match="need alpha < beta"):
            check_inclusion(alpha, beta, interval(1, 4))
