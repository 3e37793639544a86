import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schreierkit import (
    Family,
    PartitionMeasure,
    SparseVector,
    bounded_cardinality_family,
    best_set_sum,
    f_norm,
    find_uniform_trace,
    finite_set,
    g_delta_mu,
    g_lambda,
    g_plus,
    hereditary_closure,
    interval,
    is_hereditary,
    largeness_witness,
    oplus,
    otimes,
    restrict,
    schreier_family,
    trace,
)
from schreierkit.families import maximal_mask, norming_sets, run_norm_rows, run_norms, trace_sums

from oracles import (
    all_subsets,
    block_decomposable,
    family_norm_brute,
    per_row_run_norms,
    trace_brute,
    uniform_trace_brute,
)

sets_strategy = st.lists(
    st.frozensets(st.integers(1, 9), min_size=0, max_size=4), min_size=0, max_size=6
)


def test_finite_set_normalizes_and_validates():
    assert finite_set([3, 1, 2]) == (1, 2, 3)
    assert finite_set([2, 2]) == (2,)
    with pytest.raises(ValueError):
        finite_set([0, 1])
    with pytest.raises(ValueError):
        finite_set([-2])


def test_family_iteration_is_lexicographic_and_deduped():
    f = Family([[2], [1, 3], [1, 2], [2], []])
    assert f.members() == [(), (1, 2), (1, 3), (2,)]
    assert len(f) == 4
    assert f.contains_empty
    assert (1, 3) in f and (3,) not in f


def test_family_equality_is_extensional():
    assert Family([[1], [2]]) == Family([[2], [1]])
    assert Family([[], [1]], hereditary=True) == Family([[], [1]])
    assert Family([[1]]) != Family([[1], [2]])
    # same labels, depths and size; only the member flags differ
    assert Family([[], [1, 2]]) != Family([[1], [1, 2]])


def test_hereditary_closure_examples():
    assert hereditary_closure(Family([[1, 2]])) == Family([[], [1], [2], [1, 2]])
    assert hereditary_closure(Family()) == Family()
    assert hereditary_closure(Family([[1], [2, 3]])) == Family(
        [[], [1], [2], [3], [2, 3]]
    )


def test_is_hereditary_examples():
    assert not is_hereditary(Family([[1, 2]]))
    assert is_hereditary(Family([[], [1], [2], [1, 2]]))
    # a member too large to enumerate its subsets is still decided
    assert not is_hereditary(Family([range(1, 26)]))


def test_hereditary_flag_is_a_checked_claim():
    with pytest.raises(ValueError, match=r"\{1,2\} is a member but \{2\} is not"):
        Family([[1, 2]], hereditary=True)
    with pytest.raises(ValueError, match=r"\{2,3\} is a member but \{3\} is not"):
        Family([[], [1], [2], [2, 3]], hereditary=True)
    assert Family([], hereditary=True).hereditary_flag is True
    # a false claim selects the full walks, and is the default
    assert Family([[1, 2]], hereditary=False).hereditary_flag is False
    assert Family([[], [1]]).hereditary_flag is False
    with pytest.raises(AttributeError):
        Family([[1]]).hereditary_flag = True


@settings(max_examples=60, deadline=None)
@given(sets_strategy)
def test_hereditary_closure_idempotent_and_flagged(sets):
    f = Family(sets)
    closed = hereditary_closure(f)
    assert closed.hereditary_flag is True
    assert is_hereditary(closed)
    assert hereditary_closure(closed) == closed
    if f:
        assert closed.contains_empty


def test_trace_examples():
    assert trace(Family([[1, 2], [3]]), [1, 3]) == Family([[1], [3]])
    assert trace(Family([[1, 2]]), [4]) == Family([[]])
    s6 = schreier_family(interval(1, 6))
    assert (4, 6) in trace(s6, [2, 4, 6])


@settings(max_examples=100, deadline=None)
@given(sets_strategy, st.frozensets(st.integers(1, 9), max_size=5))
@example([frozenset()], frozenset({1}))
@example([frozenset({7, 8}), frozenset({1, 3}), frozenset({3, 9})], frozenset({1, 2}))
# two members share a trace of two elements, and the first is the longer
@example([frozenset({1, 2, 3}), frozenset({2, 3})], frozenset({2, 3}))
def test_trace_matches_member_by_member_definition(sets, m):
    f = Family(sets)
    assert trace(f, m) == Family({tuple(e for e in s if e in m) for s in f})
    support = tuple(sorted(m))
    wide = [s for s in trace_brute(f, support) if len(s) >= 2]
    assert norming_sets(f, support) == [(k,) for k in support] + wide


@settings(max_examples=100, deadline=None)
@given(st.lists(st.frozensets(st.integers(1, 7), max_size=4), max_size=10))
def test_maximal_mask_matches_pairwise_definition(sets):
    sets = [tuple(sorted(s)) for s in sets]
    keep = maximal_mask(sets)
    for i, s in enumerate(sets):
        # inside another set, or a repeat of an earlier one
        inside = any(set(s) <= set(t) and (s != t or j < i) for j, t in enumerate(sets) if j != i)
        assert keep[i] is (not inside)


def test_restrict_examples():
    assert restrict(Family([[1, 2], [3]]), [1, 2]) == Family([[1, 2]])
    assert restrict(Family([[1, 2]]), [2]) == Family([])


@settings(max_examples=60, deadline=None)
@given(sets_strategy, st.frozensets(st.integers(1, 9), max_size=5),
       st.frozensets(st.integers(1, 9), max_size=5))
def test_trace_composition_and_hereditary_identity(sets, m1, m2):
    f = Family(sets)
    assert trace(trace(f, m1), m2) == trace(f, m1 & m2)
    h = hereditary_closure(f)
    assert trace(h, m1) == restrict(h, m1)


@settings(max_examples=150, deadline=None)
@given(sets_strategy, st.frozensets(st.integers(1, 10), max_size=6),
       st.dictionaries(st.integers(1, 10), st.fractions(0, 3, max_denominator=6), max_size=6))
@example([frozenset({1, 2, 3}), frozenset({5, 7})], frozenset({2, 3, 7}), {1: Fraction(5), 3: Fraction(1)})
def test_hereditary_walks_match_brute_force_and_the_full_walk(sets, m, weights):
    closed = hereditary_closure(Family(sets))
    # the same arrays without the flag take the full walks
    plain = Family._from_arrays(closed._label, closed._depth, closed._end, closed._term)
    members = closed.members()
    m = tuple(sorted(m))
    images = trace_brute(members, m)
    wide = [s for s in images if len(s) >= 2]
    best = family_norm_brute(members, weights)
    for f in (closed, plain):
        for got in (trace(f, m), restrict(f, m)):
            assert got.members() == images
            assert got._end == Family(images)._end
        assert norming_sets(f, m) == [(k,) for k in m] + wide
        assert max(max(weights.values(), default=0), best_set_sum(f, weights)) == best
    assert best_set_sum(closed, weights) == best_set_sum(plain, weights)
    # the trace of a flagged family is flagged, and is its restriction
    traced = trace(closed, m)
    assert traced.hereditary_flag is True and restrict(closed, m).hereditary_flag is True
    assert trace(traced, m[::2]).hereditary_flag is True
    assert trace(plain, m).hereditary_flag is False and restrict(plain, m).hereditary_flag is False
    # the flagged trace's support-only walks agree with the full walks on its copy
    copy = Family._from_arrays(traced._label, traced._depth, traced._end, traced._term)
    support = sorted(weights)
    ws = [int(weights[e] * 60) for e in support]  # denominators are at most 6
    assert f_norm(SparseVector(weights), traced) == f_norm(SparseVector(weights), copy)
    assert run_norm_rows(traced, support, ws) == run_norm_rows(copy, support, ws)
    assert norming_sets(traced, m) == norming_sets(copy, m)


@settings(max_examples=100, deadline=None)
@given(sets_strategy, st.booleans(),
       st.dictionaries(st.integers(1, 10), st.tuples(st.integers(-4, 4), st.integers(0, 4)), max_size=6))
@example([frozenset({1, 5, 6}), frozenset({2, 3}), frozenset({3, 6})], False, {3: (1, 1), 6: (-2, 2)})
def test_trace_sums_match_member_by_member_sums(sets, closed, columns):
    f = hereditary_closure(Family(sets)) if closed else Family(sets)
    width = 2 if columns else 0
    images = [tuple(e for e in s if e in columns) for s in f if s]
    want = [(t, tuple(sum(columns[e][j] for e in t) for j in range(width))) for t in images]
    got = list(trace_sums(f, columns))
    if closed:
        # each member inside the support once, in lexicographic order
        assert got == sorted({p for p in want if p[0]})
    else:
        # one pair per nonempty member, repeats and empty images included
        assert sorted(got) == sorted(want)


@settings(max_examples=150, deadline=None)
@given(sets_strategy, st.booleans(), st.frozensets(st.integers(1, 10), max_size=6), st.integers(1, 3))
@example([frozenset({1, 2, 3}), frozenset({1, 4})], True, frozenset({1, 2, 3}), 1)
def test_trace_sums_skips_the_subtree_of_a_member_sent_true(sets, closed, support, k):
    # a true value sent after a member skips every member that extends it:
    # the walk yields, in preorder, the members with no skipped proper prefix
    f = hereditary_closure(Family(sets)) if closed else Family(sets)
    columns = {e: (e, 1) for e in support}
    width = 2 if columns else 0
    members = [s for s in f if s and not (closed and set(s) - support)]
    skipped = [s for s in members if len([e for e in s if e in support]) >= k]
    want = []
    for s in members:
        if not any(len(p) < len(s) and s[: len(p)] == p for p in skipped):
            t = tuple(e for e in s if e in support)
            want.append((t, (sum(t), len(t))[:width]))
    walk, got, skip = trace_sums(f, columns), [], None
    while True:
        try:
            t, sums = walk.send(skip)
        except StopIteration:
            break
        got.append((t, sums))
        skip = len(t) >= k
    assert got == want


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.frozensets(st.integers(1, 10), min_size=1, max_size=5), max_size=8),
    st.booleans(),
    st.dictionaries(st.integers(1, 11), st.integers(0, 9), max_size=8),
)
# zero weights on the first two positions, and on the last one
@example([frozenset({1, 3}), frozenset({2, 5})], False, {1: 0, 2: 0, 3: 4, 5: 2})
@example([frozenset({2, 4})], True, {2: 3, 4: 0})
# row 0's best member {2, 4} lies under the root child 2, between the
# children 1 and 3, which carry no weight
@example([frozenset({2, 4}), frozenset({3}), frozenset({1, 5})], False, {2: 2, 4: 2, 5: 1, 6: 3})
# row a's best run needs a member that starts at a later position, and a
# heavy weight before a must not prune row a's walk
@example([frozenset({2, 3})], False, {1: 1, 2: 1, 3: 1})
@example([frozenset({2, 3}), frozenset({1})], False, {1: 9, 2: 1, 3: 1})
# the support past every label, and no weight at all
@example([frozenset({1, 2})], True, {7: 1, 9: 2})
@example([frozenset({1, 2})], False, {})
def test_block_rows_match_the_per_row_walks(sets, with_empty, weights):
    members = [tuple(sorted(s)) for s in sets] + [()] * with_empty
    closed = hereditary_closure(Family(members))
    support = sorted(weights)
    ws = [weights[e] for e in support]
    families = [
        Family(members),
        Family(members, hereditary=False),
        # the closure takes the backward pass's root-child jump, its copies the root walks
        closed,
        Family(closed.members()),
        Family([], hereditary=True),
        Family([[]], hereditary=True),
    ]
    for fam in families:
        assert run_norm_rows(fam, support, ws) == per_row_run_norms(fam, support, ws)


def test_oplus_order_and_empty_convention():
    assert oplus(Family([[5]]), Family([[1, 2]])) == Family([[1, 2, 5]])
    assert oplus(Family([[1]]), Family([[2]])) == Family([])
    got = oplus(Family([[], [5]]), Family([[], [1]]))
    assert got == Family([[], [1], [5], [1, 5]])


def test_otimes_examples_and_empty_rule():
    w = interval(1, 8)
    s = schreier_family(w)
    assert otimes(bounded_cardinality_family(w, 1), s, w) == s
    assert otimes(Family([[1, 2]]), Family([[1]]), w) == Family([[1, 2]])
    # no empty set in the min-pattern family -> none in the product
    assert not otimes(Family([[1, 2]]), Family([[1]]), w).contains_empty
    assert otimes(Family([[1, 2]]), Family([[], [1]]), w).contains_empty


def test_otimes_members_decompose():
    w = interval(1, 6)
    f = Family([[2, 3], [4], [5, 6], [1]])
    g = Family([[1], [2, 4], [1, 2]])
    prod = otimes(f, g, w)
    blocks = [s for s in f if s]
    for s in prod:
        if s:
            assert block_decomposable(s, f, g)
    # conversely, every valid block union appears
    for k in (1, 2):
        for combo in itertools.permutations(blocks, k):
            if all(combo[i][-1] < combo[i + 1][0] for i in range(k - 1)):
                mins = tuple(b[0] for b in combo)
                union = tuple(sorted(itertools.chain.from_iterable(combo)))
                if mins in g:
                    assert union in prod


def test_largeness_witness():
    w12 = interval(1, 12)
    s = schreier_family(w12)
    assert largeness_witness(s, interval(5, 12), 5) == (5, 6, 7, 8, 9)
    assert largeness_witness(bounded_cardinality_family(w12, 2), w12, 3) is None
    assert largeness_witness(Family([[1, 2, 3]]), [2, 3], 2) == (1, 2, 3)


def test_find_uniform_trace_found_and_absent():
    f2 = bounded_cardinality_family(interval(1, 12), 2)
    res = find_uniform_trace(f2, interval(1, 10), 5, 2)
    assert res.found and res.witness == (1, 2, 3, 4, 5)
    # the work counts are pinned: one unit per trace read, on these hereditary
    # families one trie node entered, and only labels in T0 are entered
    assert res.nodes_visited == 15

    # every 4-subset of {10..16} is Schreier-admissible, so no T0 works
    s = schreier_family(interval(10, 16))
    res2 = find_uniform_trace(s, interval(10, 16), 4, 3)
    assert res2.status == "absent"
    assert res2.nodes_visited == 140
    # the search that `verify` runs, over S_1(1..16)
    res_verify = find_uniform_trace(schreier_family(interval(1, 16)), interval(10, 16), 4, 3)
    assert res_verify.status == "absent" and res_verify.nodes_visited == 140

    res3 = find_uniform_trace(Family([[1, 2, 3, 4]]), interval(1, 8), 4, 3)
    assert res3.found
    stray = set(res3.witness) & {1, 2, 3, 4}
    assert len(stray) <= 3


@settings(max_examples=200, deadline=None)
@given(
    sets_strategy,
    st.booleans(),
    st.booleans(),
    st.frozensets(st.integers(1, 9), max_size=7),
    st.integers(-1, 3),
    st.data(),
)
def test_find_uniform_trace_matches_the_brute_scan(sets, flagged, with_empty, t, bound, data):
    members = {frozenset(s) for s in sets} - {frozenset()} | ({frozenset()} if with_empty else set())
    family = Family(members)
    if flagged:
        family = hereditary_closure(family)
    size = data.draw(st.integers(0, len(t)))
    res = find_uniform_trace(family, t, size, bound)
    assert (res.status, res.witness) == uniform_trace_brute(family.members(), t, size, bound)


def test_find_uniform_trace_budget_exhaustion_is_distinct():
    s = schreier_family(interval(10, 16))
    res = find_uniform_trace(s, interval(10, 16), 4, 3, node_budget=50)
    assert res.status == "budget-exceeded"
    assert res.witness is None
    assert res.nodes_visited == 51


def test_find_uniform_trace_rejects_oversized_request():
    with pytest.raises(ValueError):
        find_uniform_trace(Family([[1]]), [1, 2], 3, 1)


def test_best_set_sum_matches_scan():
    rng = random.Random(4)
    w = interval(1, 9)
    fams = [
        schreier_family(w),
        hereditary_closure(Family([rng.sample(list(w), 3) for _ in range(5)])),
        Family(),
        # not hereditary: the trie prefixes {1}, {1,5} and {2} are not members
        Family([[1, 5, 9], [2, 3]]),
        Family([[]]),
        # no member meets 10..12, where some weights sit
        Family([[1, 2], [4]]),
    ]
    primes = [999983, 999979, 999961, 999959, 999953, 999931]
    weight_maps = [
        lambda ks: {k: Fraction(rng.randint(0, 9), rng.randint(1, 7)) for k in ks},
        lambda ks: {k: Fraction(rng.randint(0, 10**6), rng.choice(primes)) for k in ks},
        lambda ks: {k: rng.randint(0, 9) for k in ks},
    ]
    drawn = [
        (fml, make(rng.sample(range(1, 13), rng.randint(1, 6))))
        for fml in fams for make in weight_maps for _ in range(20)
    ]
    # inputs a preorder walk can get wrong: a best member reached only through
    # interior nodes that carry no weight, zero weights, no weights at all,
    # and numerators around 2^200
    big = 2**200
    off_path = Family([[1, 2, 3, 11], [4, 5]])
    edge = [
        (off_path, {11: 5, 4: 2, 5: 2}),
        (hereditary_closure(off_path), {11: 5, 4: 2, 5: 2}),
        (fams[0], {1: 0, 3: 0, 5: Fraction(4, 3), 6: 0, 7: 3}),
        (fams[3], {1: 0, 2: 0, 5: 0, 9: 0}),
        *((fml, weights) for fml in fams for weights in ({}, {3: 1})),
        (fams[0], {k: Fraction(big + k, 3 + k) for k in (2, 4, 5, 9)}),
        (fams[3], {1: big, 9: big - 1, 3: Fraction(2 * big + 1, 3)}),
    ]
    for fml, weights in drawn + edge:
        want = Fraction(0)
        for s in fml:
            total = sum((weights.get(k, Fraction(0)) for k in s), Fraction(0))
            want = max(want, total)
        got = best_set_sum(fml, weights)
        assert got == want
        assert type(got) is Fraction
        sup = max(weights.values(), default=0)
        assert max(sup, got) == family_norm_brute(fml.members(), weights)


def test_best_set_sum_is_the_member_maximum_for_every_sign():
    def brute(fml, weights):
        sums = [sum((weights.get(k, Fraction(0)) for k in s), Fraction(0)) for s in fml]
        return max(sums, default=Fraction(0))

    rng = random.Random(24)
    drawn = []
    for _ in range(60):
        sets = [rng.sample(range(1, 13), rng.randint(1, 4)) for _ in range(rng.randint(1, 6))]
        sets += [[]] * rng.randint(0, 1)
        fml = Family(sets)
        for f in (fml, hereditary_closure(fml)):
            ks = rng.sample(range(1, 15), rng.randint(1, 6))
            drawn.append((f, {k: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for k in ks}))
    fixed = [
        (Family([[2, 5, 6], [3, 6, 8], [3, 7, 11], [10]]),
         {8: -1, 3: Fraction(1, 7), 1: 4, 5: Fraction(1, 3)}, Fraction(1, 3)),
        (schreier_family(interval(1, 12)),
         {5: -6, 6: Fraction(-1, 6), 9: Fraction(2, 7), 1: Fraction(-5, 4), 8: Fraction(-3, 2)},
         Fraction(2, 7)),
        (Family([[1], [2]]), {1: -1, 2: -2}, Fraction(-1)),
        (Family(), {1: -1, 2: 3}, Fraction(0)),
    ]
    for fml, weights, want in fixed:
        assert brute(fml, weights) == want
    for fml, weights in drawn + [(f, w) for f, w, _ in fixed]:
        got = best_set_sum(fml, weights)
        assert got == brute(fml, weights) and type(got) is Fraction


def test_partition_measure_validation():
    with pytest.raises(ValueError):
        PartitionMeasure([[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        PartitionMeasure([[1, 2]], [{1: Fraction(1, 2), 2: Fraction(1, 3)}])
    with pytest.raises(ValueError):
        PartitionMeasure([[1, 2]], [{1: Fraction(3, 2), 2: Fraction(-1, 2)}])
    m = PartitionMeasure.uniform([[1, 2], [3, 4]])
    assert m.piece_index(3) == 2
    with pytest.raises(ValueError):
        m.piece_index(9)


def test_density_projections_forced_examples():
    m = PartitionMeasure.uniform([[1, 2], [3, 4]])
    f = Family([[1, 3, 4]])
    assert g_lambda(f, m, Fraction(3, 5)) == Family([[2]])
    assert g_plus(f, m) == Family([[1, 2]])
    assert g_lambda(Family([[]]), m, Fraction(1, 2)) == Family([[]])
    assert g_plus(Family([[]]), m) == Family([[]])

    got = g_delta_mu(Family([[1, 3]]), m, Fraction(1, 2))
    assert (1, 2) in got and (1,) in got and (2,) in got and () in got


def test_density_projection_errors_on_stray_elements():
    m = PartitionMeasure.uniform([[1, 2]])
    with pytest.raises(ValueError):
        g_plus(Family([[5]]), m)


def test_g_delta_mu_with_skewed_weights():
    m = PartitionMeasure(
        [[1, 2], [3, 4]],
        [{1: Fraction(9, 10), 2: Fraction(1, 10)},
         {3: Fraction(1, 10), 4: Fraction(9, 10)}],
    )
    f = Family([[1, 3]])
    # mass 9/10 on piece 1 but only 1/10 on piece 2
    got = g_delta_mu(f, m, Fraction(1, 2))
    assert got == Family([[], [1]])
    assert g_delta_mu(f, m, Fraction(1, 20)) == Family([[], [1], [2], [1, 2]])


def test_g_lambda_below_g_plus_pointwise():
    rng = random.Random(11)
    m = PartitionMeasure.uniform([[1, 2, 3], [4, 5], [6, 7, 8]])
    for _ in range(25):
        s = finite_set(rng.sample(range(1, 9), rng.randint(1, 6)))
        lam = Fraction(rng.randint(1, 4), 4)
        split = m.split(s)
        s_lam = {n for n, part in split.items() if len(part) >= lam * len(m.pieces[n - 1])}
        assert s_lam.issubset(set(split))


def test_schreier_trace_window_example():
    # counted against the full subset lattice of a small window
    w = interval(1, 6)
    s = schreier_family(w)
    expect = {t for t in all_subsets(w) if not t or len(t) <= t[0]}
    assert set(s.members()) == expect


def test_otimes_matches_block_sequence_bruteforce():
    rng = random.Random(3)
    w = interval(1, 7)
    for _ in range(30):
        f = Family(
            [rng.sample(list(w), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
            + ([[]] if rng.random() < 0.3 else [])
        )
        g = Family(
            [rng.sample(list(w), rng.randint(1, 3)) for _ in range(rng.randint(1, 5))]
            + ([[]] if rng.random() < 0.3 else [])
        )
        want = {s for s in all_subsets(w) if block_decomposable(s, f, g)}
        assert set(otimes(f, g, w).members()) == want


PIECES = [[1, 2, 3], [4, 5], [6, 7, 8, 9]]
member_lists = st.lists(
    st.frozensets(st.integers(1, 9), max_size=4).map(lambda s: tuple(sorted(s))), max_size=8
)


@settings(max_examples=150, deadline=None)
@given(
    member_lists,
    member_lists,
    st.booleans(),
    st.randoms(use_true_random=False),
    st.frozensets(st.integers(1, 9), max_size=5),
    st.dictionaries(st.integers(1, 11), st.integers(0, 9), max_size=8),
    st.fractions(Fraction(1, 4), 1),
)
@example([], [], False, random.Random(0), frozenset(), {}, Fraction(1, 2))
@example([(), (9,)], [(1,)], True, random.Random(1), frozenset({9}), {9: 3}, Fraction(1))
# a block may not start at the previous block's maximum
@example([(1, 2), (2,)], [(1, 2)], False, random.Random(2), frozenset(), {}, Fraction(1))
# runs from start > 0 on paths through labels below support[start], and a
# best member reached only through interior nodes off the support
@example(
    [(1, 4, 6), (2, 5), (1, 2, 3, 9)], [], False, random.Random(3), frozenset(),
    {4: 3, 5: 2, 6: 1, 9: 5}, Fraction(1),
)
# zero weights and numerators around 2^200
@example(
    [(1, 2, 8), (3, 8), (2,)], [], True, random.Random(4), frozenset({2, 8}),
    {8: 0, 2: 0, 3: 2**200 + 1, 1: 2**200 - 1, 11: 2**200}, Fraction(1),
)
def test_family_operations_match_set_oracle(sets, other, with_empty, rnd, m, weights, lam):
    """Every trie walk against a plain set of tuples, on families built from
    shuffled, repeated, non-hereditary input in several insertion orders."""
    oracle = set(sets) | {()} if with_empty else set(sets) - {()}
    g_oracle = set(other)
    shuffled = [rnd.sample(s, len(s)) for s in list(oracle) * 2]
    rnd.shuffle(shuffled)
    builds = [Family(shuffled), Family(sorted(oracle, reverse=True)), Family(map(list, oracle))]
    f, g = builds[0], Family(other)

    for built in builds:
        assert built.members() == sorted(oracle)
        assert len(built) == len(oracle) and bool(built) == bool(oracle)
        assert built.contains_empty == (() in oracle)
        assert built == f
    probes = oracle | {s[:-1] for s in oracle} | {s + (10,) for s in oracle}
    probes |= set(all_subsets(range(1, 6)))
    for s in probes:
        assert (s in f) == (s in oracle), s
    for s in all_subsets(range(1, 5)):
        assert (f == Family(oracle ^ {s})) is False

    assert trace(f, m).members() == sorted({tuple(e for e in s if e in m) for s in oracle})
    assert hereditary_closure(f).members() == sorted(
        {t for s in oracle for t in all_subsets(s)}
    )
    assert oplus(f, g).members() == sorted(
        {s + t for s in g_oracle for t in oracle if not s or not t or s[-1] < t[0]}
    )
    w = interval(1, 7)
    assert otimes(f, g, w).members() == sorted(
        s for s in all_subsets(w) if block_decomposable(s, oracle, g_oracle)
    )

    frac = {e: Fraction(v, 3) for e, v in weights.items()}
    assert best_set_sum(f, frac) == max(
        (sum((frac.get(e, 0) for e in s), Fraction(0)) for s in oracle), default=0
    )
    support = sorted(weights)
    ws = [weights[e] for e in support]
    for start in range(len(support)):
        want = [
            family_norm_brute(oracle, {support[q]: ws[q] for q in range(start, j)})
            for j in range(start + 1, len(support) + 1)
        ]
        assert run_norms(f, support[start:], ws[start:]) == want

    measure = PartitionMeasure.uniform(PIECES)
    piece = {e: n for n, p in enumerate(PIECES, start=1) for e in p}
    assert g_plus(f, measure).members() == sorted(
        {tuple(sorted({piece[e] for e in s})) for s in oracle}
    )
    assert g_lambda(f, measure, lam).members() == sorted(
        {
            tuple(n for n, p in enumerate(PIECES, start=1) if len(set(p) & set(s)) >= lam * len(p))
            for s in oracle
        }
    )
