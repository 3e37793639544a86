"""Algebra of finite families of finite subsets of the positive integers.

A *finite set* is a strictly increasing tuple of integers >= 1 (indices into
the natural numbers are 1-based throughout).  A :class:`Family` is a finite,
deduplicated collection of such sets, stored as the prefix trie of their
increasing enumerations laid out in preorder arrays (label, depth, subtree
end, member flag per node), with no object per node.  Operations that build
a family collect its members and lay the arrays out once.  All operations
are pure; families are immutable after construction and safe to share
between threads.

Run norms come from one preorder branch-and-bound walk loop,
:func:`_run_rows`.  :func:`run_norms` walks once from the root and gives
the family norm of every run support[:j] of a weighted support at once.
:func:`run_norm_rows` gives every run support[a:j], the block DP's rows, in
one backward pass from the last position that keeps one record array from
row to row, so row a walks only the members whose trace on support[a:]
starts at a and prunes them against the norm of support[a + 1:].  Member
traces on a support come from one preorder walk too, :func:`trace_sums`,
which yields each member's trace with int column sums over it and builds
no row per set: :func:`best_set_sum` is the largest of those sums,
:func:`find_uniform_trace` reads each member's count of points in a
candidate set, and the trace and the norming sets read it with empty
columns.

A family flagged hereditary (every S_alpha, [N]^{<=n}, every hereditary
closure) is closed under subsets, so every trie node is a member and the
members inside a support M are the nodes whose path stays in M.  The trace
walk then enters only the children whose label lies in M, the run-norm
walk only those that carry a weight, and row a of the backward pass only
the subtree of the root child labelled support[a]; any other family takes
the full walk.  The flag is a checked claim: ``Family(sets,
hereditary=True)`` refuses sets that are not closed under subsets, and
only the constructors that build a closed family by construction set it
unchecked.  The trace of a flagged family on M is closed under subsets
too, so it keeps the flag; it is also the family's restriction to M, the
members inside M, so :func:`restrict` of a flagged family is its trace.

Conventions
-----------
* The empty set is a member of every hereditary closure of a nonempty
  family.  It contributes nothing to any norm.
* ``oplus``/``otimes`` treat empty operands per the same convention:
  the block-order relation ``s < t`` is vacuously true when either side is
  empty, and the empty union belongs to a block product exactly when the
  empty set belongs to the min-pattern family.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from fractions import Fraction
from typing import Generator, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .vectors import Rational, int_scaled

FiniteSet = tuple[int, ...]

#: largest member size for which exhaustive subset enumeration is allowed
MAX_CLOSURE_SIZE = 20

#: default trie-node budget for `find_uniform_trace`
DEFAULT_NODE_BUDGET = 10**7


def finite_set(elements: Iterable[int]) -> FiniteSet:
    """Normalize ``elements`` to a strictly increasing tuple of ints >= 1."""
    out = tuple(sorted(set(elements)))
    for e in out:
        if not isinstance(e, int) or isinstance(e, bool) or e < 1:
            raise ValueError(f"set elements must be integers >= 1, got {e!r}")
    return out


def interval(lo: int, hi: int) -> FiniteSet:
    """The window {lo, lo+1, ..., hi}."""
    return tuple(_interval_range(lo, hi))


def _interval_range(lo: int, hi: int) -> range:
    """The window {lo, ..., hi} as a range, once lo >= 1 and hi >= lo - 1
    (hi = lo - 1 is the empty window).  Its size, stop - start, is known
    before any element is built."""
    if lo < 1 or hi < lo - 1:
        raise ValueError(f"bad interval [{lo}, {hi}]")
    return range(lo, hi + 1)


def _preorder(members: Iterable[FiniteSet]) -> tuple[list[int], list[int], list[int], bytearray]:
    """The preorder arrays ``(label, depth, end, term)`` of the trie of ``members``.

    ``members`` are finite sets in any order, repeats allowed.  Sorted, they
    come in preorder, so each one appends the nodes past its longest common
    prefix with the one before; a node's ``end`` is set when a later member
    leaves its subtree.
    """
    label = [0]
    depth = [0]
    end = [0]
    term = bytearray(1)
    path = [0]  # path[d] is the open node at depth d
    prev: FiniteSet = ()
    for s in sorted(set(members)):
        if not s:
            term[0] = 1
            continue
        k = len(label)
        lcp = 0
        for a, b in zip(prev, s):
            if a != b:
                break
            lcp += 1
        for x in path[lcp + 1:]:
            end[x] = k
        del path[lcp + 1:]
        fresh = len(s) - lcp
        path.extend(range(k, k + fresh))
        label.extend(s[lcp:])
        depth.extend(range(lcp + 1, len(s) + 1))
        end.extend([0] * fresh)
        term.extend(bytes(fresh - 1))
        term.append(1)
        prev = s
    for x in path:
        end[x] = len(label)
    return label, depth, end, term


class Family:
    """A finite collection of finite subsets of N, stored as a preorder trie.

    Node 0 is the root, the empty prefix; node i has the element
    ``_label[i]``, its depth ``_depth[i]``, ``_end[i]`` one past its subtree
    and ``_term[i]`` = 1 when its prefix is a member.  The children of i are
    i + 1, ``_end[i + 1]``, ... up to ``_end[i]``, in ascending order, and
    every leaf is a member.  So the arrays are canonical: two families are
    equal exactly when their arrays are.  The arrays are three lists of
    Python ints, so elements of any size work, and one ``bytearray``; no
    per-node object exists for the garbage collector to scan.

    Iteration order is deterministic: lexicographic on the increasing-tuple
    encoding, so a set precedes its proper extensions and siblings ascend.

    ``hereditary_flag`` is a read-only bool, False unless asked for.  True
    is checked at construction with :func:`is_hereditary`, and a
    ``ValueError`` names a member whose one-element removal is missing,
    because the support-only walks trust it; False selects the full walks
    and claims nothing, so an unflagged family may still be closed under
    subsets.
    """

    __slots__ = ("_label", "_depth", "_end", "_term", "_height", "_size", "_hereditary")

    def __init__(
        self,
        sets: Iterable[Iterable[int]] = (),
        hereditary: bool = False,
    ) -> None:
        self._adopt(*_preorder(finite_set(s) for s in sets))
        if hereditary:
            gap = _missing_removal(self)
            if gap is not None:
                s, t = (_show(u) for u in gap)
                raise ValueError(f"family is not hereditary: {s} is a member but {t} is not")
        self._hereditary = bool(hereditary)

    def _adopt(self, label: list[int], depth: list[int], end: list[int], term: bytearray) -> None:
        self._label = label
        self._depth = depth
        self._end = end
        self._term = term
        self._height = max(depth)
        self._size = term.count(1)

    @classmethod
    def _of(cls, members: Iterable[FiniteSet], hereditary: bool = False) -> "Family":
        """The family of ``members``, already finite sets, in any order."""
        return cls._from_arrays(*_preorder(members), hereditary=hereditary)

    @classmethod
    def _from_arrays(
        cls,
        label: list[int],
        depth: list[int],
        end: list[int],
        term: bytearray,
        hereditary: bool = False,
    ) -> "Family":
        out = cls.__new__(cls)
        out._adopt(label, depth, end, term)
        out._hereditary = hereditary
        return out

    @property
    def hereditary_flag(self) -> bool:
        return self._hereditary

    @property
    def contains_empty(self) -> bool:
        return bool(self._term[0])

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[FiniteSet]:
        if self._term[0]:
            yield ()
        # path[d] is the prefix of the last node seen at depth d
        path: list[FiniteSet] = [()] * (self._height + 1)
        nodes = zip(self._label, self._depth, self._term)
        next(nodes)
        for e, d, t in nodes:
            s = path[d] = path[d - 1] + (e,)
            if t:
                yield s

    def members(self) -> list[FiniteSet]:
        return list(self)

    def __contains__(self, s: Iterable[int]) -> bool:
        return self._has(finite_set(s))

    def _has(self, s: FiniteSet) -> bool:
        label, end = self._label, self._end
        node = 0
        for e in s:
            child, stop = node + 1, end[node]
            while child < stop and label[child] < e:
                child = end[child]
            if child == stop or label[child] != e:
                return False
            node = child
        return bool(self._term[node])

    def __eq__(self, other: object) -> bool:
        # equality is extensional on member sets; flags are metadata
        if not isinstance(other, Family):
            return NotImplemented
        return (
            self._size == other._size
            and self._depth == other._depth
            and self._label == other._label
            and self._term == other._term
        )

    def __repr__(self) -> str:
        shown = ", ".join(map(_show, itertools.islice(self, 6)))
        more = ", ..." if len(self) > 6 else ""
        return f"Family([{shown}{more}], n={len(self)}, hereditary={self.hereditary_flag})"


def _show(s: FiniteSet) -> str:
    return "{" + ",".join(map(str, s)) + "}"


def bounded_cardinality_family(window: Iterable[int], n: int) -> Family:
    """[window]^{<=n}: all subsets of the window of size at most n."""
    w = finite_set(window)
    sets = itertools.chain.from_iterable(
        itertools.combinations(w, k) for k in range(0, min(n, len(w)) + 1)
    )
    return Family._of(sets, hereditary=True)


def is_hereditary(family: Family) -> bool:
    """Check closure under subsets: every member minus any one element is a member.

    That is exact by induction on the size of the removed part, so no
    member's subsets are enumerated and no member size is refused.
    """
    return _missing_removal(family) is None


def _missing_removal(family: Family) -> Optional[tuple[FiniteSet, FiniteSet]]:
    """The first member s, with the first one-element removal t of s that is
    not a member, as (s, t); None when there is none."""
    for s in family:
        for i in range(len(s)):
            t = s[:i] + s[i + 1:]
            if not family._has(t):
                return s, t
    return None


def hereditary_closure(family: Family) -> Family:
    """The minimal hereditary family containing ``family``.

    Every subset of every member is included; in particular the empty set
    belongs to the closure of any nonempty family.
    """
    subsets: set[FiniteSet] = set()
    for s in family:
        if len(s) > MAX_CLOSURE_SIZE:
            raise ValueError(f"member of size {len(s)} too large for subset closure")
        for k in range(len(s) + 1):
            subsets.update(itertools.combinations(s, k))
    return Family._of(subsets, hereditary=True)


def trace(family: Family, m: Iterable[int]) -> Family:
    """The trace {s & M : s in family}, deduplicated.

    The images are those of :func:`trace_sums`, which on a hereditary family
    enters only the labels in M.  The trace of a family flagged hereditary
    is closed under subsets, and flagged; any other trace is not.
    """
    return Family._of(_traces(family, finite_set(m)), hereditary=family.hereditary_flag)


def _traces(family: Family, support: FiniteSet) -> Iterator[FiniteSet]:
    """s & support for each member s: () when the family holds the empty set,
    then the images :func:`trace_sums` yields with empty columns."""
    if family.contains_empty:
        yield ()
    for s, _ in trace_sums(family, dict.fromkeys(support, ())):
        yield s


def norming_sets(family: Family, support: FiniteSet) -> list[FiniteSet]:
    """The sets whose sums of |x_k| norm x on ``support``: each singleton
    (the sup-norm), then each member of the trace with at least two elements,
    in lexicographic order.

    ||x||_F is the largest of these sums for x supported in ``support``; a
    trace member of size <= 1 adds nothing the singletons do not.  The
    members are the images of :func:`trace_sums`, sorted and deduplicated,
    as an image repeats once per member that has it off a hereditary family.
    No :class:`Family` is built."""
    return [(k,) for k in support] + sorted({s for s in _traces(family, support) if len(s) >= 2})


def trace_sums(
    family: Family, columns: Mapping[int, tuple[int, ...]]
) -> Generator[tuple[FiniteSet, tuple[int, ...]], Optional[bool], None]:
    """Each nonempty member's trace on the support, with the column sums over it.

    The support is the set of keys of ``columns``, whose values are tuples
    of ints of one length.  For each nonempty member s the walk yields
    s & support and the elementwise sum of the columns at its elements.
    One preorder scan keeps, per depth, the image and the sums of the path
    to the node entered there: a label in the support extends its parent's
    by one tuple addition, any other shares them, and a member yields them.
    So no row is built per set.  On a hereditary family the scan enters only
    labels in the support, jumps past the subtree of any other and past the
    parent's remaining children once a label exceeds the support's maximum
    (siblings ascend), so it yields each nonempty trace member once, in
    lexicographic order; on any other family it visits every node, and an
    image, the empty one too, repeats once per member that has it.

    A caller that drives the walk with ``send`` may skip subtrees: a true
    value sent after a member is yielded jumps past that member's subtree,
    so none of its strict supersets in the trie is visited.  Every member
    there extends the member by labels above its largest, so its trace is
    the yielded image plus some support labels above the image's last.
    A plain ``for`` loop sends ``None`` and walks every node.
    """
    top = max(columns, default=0)
    zero = (0,) * len(next(iter(columns.values()), ()))
    label, depth, end, term = family._label, family._depth, family._end, family._term
    hereditary = family.hereditary_flag
    # images[d], sums[d], parent[d]: image, sums and index of the node entered at depth d
    images: list[FiniteSet] = [()] * (family._height + 1)
    sums = [zero] * (family._height + 1)
    parent = [0] * (family._height + 1)
    add = operator.add
    i, size = 1, len(label)
    while i < size:
        e = label[i]
        d = depth[i]
        col = columns.get(e)
        if col is not None:
            images[d] = images[d - 1] + (e,)
            sums[d] = tuple(map(add, sums[d - 1], col))
        elif not hereditary:
            images[d] = images[d - 1]
            sums[d] = sums[d - 1]
        elif e > top:
            i = end[parent[d - 1]]
            continue
        else:
            i = end[i]
            continue
        if term[i] and (yield images[d], sums[d]):
            i = end[i]
            continue
        parent[d] = i
        i += 1


def maximal_mask(sets: Sequence[FiniteSet]) -> list[bool]:
    """keep[i] is False exactly when sets[i] lies inside another listed set.

    A repeat of an earlier set counts as lying inside it, so one copy of each
    inclusion-maximal set is kept.  Sets are compared as bitmasks, largest
    first, against the sets kept so far: whatever contains a set contains it
    through some maximal set.
    """
    bit = {e: 1 << i for i, e in enumerate({e for s in sets for e in s})}
    masks = [sum(bit[e] for e in s) for s in sets]
    keep = [False] * len(sets)
    kept: list[int] = []
    # sorted() is stable, so of two equal sets the earlier comes first
    for i in sorted(range(len(sets)), key=lambda i: -len(sets[i])):
        mask = masks[i]
        if all(mask | k != k for k in kept):
            keep[i] = True
            kept.append(mask)
    return keep


def restrict(family: Family, m: Iterable[int]) -> Family:
    """The restriction {s in family : s subset of M}.

    A family flagged hereditary holds s & M for each member s, so its
    restriction is its :func:`trace`, flagged too; any other family is
    filtered member by member, and the result is not flagged.
    """
    if family.hereditary_flag:
        return trace(family, m)
    mset = set(finite_set(m))
    return Family._of(s for s in family if mset.issuperset(s))


def oplus(f: Family, g: Family) -> Family:
    """Block sums {s | t : s in g, t in f, max s < min t}.

    ``s < t`` holds vacuously when either side is empty, so empty members
    of either operand contribute the other operand's sets unchanged.
    """
    return Family._of(
        s + t for s in g for t in f if not s or not t or s[-1] < t[0]
    )


def otimes(f: Family, g: Family, window: Iterable[int]) -> Family:
    """Block products on a finite window.

    Members are unions s_1 | ... | s_k contained in the window, where the
    s_i are nonempty members of ``f`` with max s_i < min s_{i+1} and the set
    of minima {min s_i} belongs to ``g``.  The empty set is a member exactly
    when the empty set belongs to ``g`` (empty block sequence).
    """
    w = finite_set(window)
    wset = set(w)
    blocks_by_min: dict[int, list[FiniteSet]] = {}
    for s in f:
        if s and wset.issuperset(s):
            blocks_by_min.setdefault(s[0], []).append(s)

    label, end, term = g._label, g._end, g._term
    unions: list[FiniteSet] = [()] if term[0] else []

    def extend(node: int, last_max: int, prefix: FiniteSet) -> None:
        # children of node in g, ascending; each block starts at its child's label
        child, stop = node + 1, end[node]
        while child < stop:
            m = label[child]
            if m > last_max:
                for block in blocks_by_min.get(m, ()):
                    union = prefix + block
                    if term[child]:
                        unions.append(union)
                    extend(child, block[-1], union)
            child = end[child]

    extend(0, 0, ())
    return Family._of(unions)


def largeness_witness(family: Family, k: Iterable[int], n: int) -> Optional[FiniteSet]:
    """First member s (in trie order) with #(s & K) >= n, or None."""
    kset = set(finite_set(k))
    for s in family:
        if sum(1 for e in s if e in kset) >= n:
            return s
    return None


class UniformTraceResult(NamedTuple):
    """Outcome of `find_uniform_trace`; budget exhaustion is distinct from absence."""

    status: str  # "found" | "absent" | "budget-exceeded"
    witness: Optional[FiniteSet]
    nodes_visited: int

    @property
    def found(self) -> bool:
        return self.status == "found"


def find_uniform_trace(
    family: Family,
    t: Iterable[int],
    size: int,
    bound: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> UniformTraceResult:
    """Search for T0 within T with #T0 = size and all member traces of size <= bound.

    Subsets T0 of T are scanned in lexicographic order, each by one walk of
    :func:`trace_sums` that counts each member's points in T0 and stops at a
    count above ``bound``.  One unit of budget is charged per trace read, on
    a hereditary family one trie node entered (only labels in T0 are);
    exceeding ``node_budget`` yields a ``budget-exceeded`` result rather
    than a silent "absent".  The empty trace exceeds a negative bound.
    """
    tt = finite_set(t)
    if size > len(tt):
        raise ValueError(f"size {size} exceeds #T = {len(tt)}")
    if bound < 0:
        return UniformTraceResult("absent", None, 0)
    visited = 0
    for combo in itertools.combinations(tt, size):
        # an empty T0 gives empty columns, whose sum is each trace's 0
        for _, count in trace_sums(family, dict.fromkeys(combo, (1,))):
            visited += 1
            if visited > node_budget:
                return UniformTraceResult("budget-exceeded", None, visited)
            if sum(count) > bound:
                break
        else:
            return UniformTraceResult("found", combo, visited)
    return UniformTraceResult("absent", None, visited)


def best_set_sum(family: Family, weights: Mapping[int, Rational]) -> Fraction:
    """max over members s of sum(weights[e] for e in s), for weights of any sign.

    The weights are scaled once by the lcm of their denominators, and the
    sums are the one-column sums that :func:`trace_sums` yields for every
    nonempty member, so the walk adds and compares Python ints and the
    result, over that lcm, is exact with no float anywhere.  The empty set,
    when it is a member, adds the sum 0; a family with no member gives 0.
    Elements without a weight count as zero.
    """
    support = sorted(weights)
    ints, scale = int_scaled([weights[e] for e in support])
    # with no weights the columns are empty, and sum(()) is each member's 0
    sums = [sum(c) for _, c in trace_sums(family, {e: (w,) for e, w in zip(support, ints)})]
    if family.contains_empty:
        sums.append(0)
    return Fraction(max(sums, default=0), scale)


def run_norms(family: Family, support: Sequence[int], weights: Sequence[int]) -> list[int]:
    """The family norm of every run support[:j], j = 1..len(support).

    ``weights[q] >= 0`` is the int weight at ``support[q]`` (increasing);
    entry j - 1 of the result is best[j], the larger of the top weight on
    support[:j] and the max over members s of the weight s puts there, in
    the weights' int units.  It is one walk of :func:`_run_rows` from the
    root, which serves every run end at once.
    """
    return _run_rows(family, support, weights, [(0, 1, len(family._label))])[0]


def run_norm_rows(
    family: Family, support: Sequence[int], weights: Sequence[int]
) -> list[list[int]]:
    """Row a is ``run_norms(family, support[a:], weights[a:])``, for every a.

    The rows come from one backward pass of :func:`_run_rows`, row m - 1
    first, with the records kept from row to row: row a is row a + 1
    shifted by one position and raised by its own walk, which only the
    members whose trace on support[a:] starts at position a can add to.  On
    a hereditary family those traces are the members in the subtree of the
    root child labelled support[a], found in one scan of the root's
    children, so row a walks only that subtree; any other family walks from
    the root on every row.
    """
    label, end = family._label, family._end
    size = len(label)
    last_first = range(len(support) - 1, -1, -1)
    if family.hereditary_flag:
        # subtree[e]: the first node and the end of the root child labelled e
        subtree: dict[int, tuple[int, int]] = {}
        c = 1
        while c < size:
            subtree[label[c]] = (c, end[c])
            c = end[c]
        walks = [(a, *subtree.get(support[a], (0, 0))) for a in last_first]
    else:
        walks = [(a, 1, size) for a in last_first]
    return _run_rows(family, support, weights, walks)[::-1]


def _run_rows(
    family: Family,
    support: Sequence[int],
    weights: Sequence[int],
    walks: Iterable[tuple[int, int, int]],
) -> list[list[int]]:
    """One row of run norms per walk ``(lo, i, stop)``: the walk over the
    preorder nodes i..stop-1, then the prefix max of ``at[lo:]``.

    One preorder scan keeps, per depth, the running sum of the node entered
    there and records each entered node's sum at its last counted position r
    in ``at``, which starts as a copy of the weights (the singletons) and is
    kept across walks; positions below ``lo`` count for nothing.

    Recording every entered node is exact.  Every trie node lies on a
    member's path and weights are nonnegative, so a sum recorded at r is
    reached on every run from lo that holds position r: a node that is not a
    member never overshoots, and neither does a record from an earlier walk
    with a larger ``lo``.  Conversely the best member on a run has a prefix
    with the same sum that ends at the run's last position it counts, and
    the scan enters and records that prefix unless a cut passes it.  So row
    lo is exact once its walk enters every member whose trace on
    support[lo:] does not start later: the row of lo + 1, walked before it,
    holds the others.

    A node is cut, with its later siblings, when its parent's sum plus the
    weight at positions q..m-1 is at most ``top``; q is the first position
    at or past lo with support[q] >= its label, and later siblings have
    larger labels.  ``top`` starts as the largest record at or past lo and
    is raised to each larger sum recorded.  Testing against ``top`` alone is
    exact because best[j] >= top - ahead[j] for every run end j, where
    ahead[j] is the weight at positions j..m-1: the part of a record before
    j is on the run, and its part from j is at most ahead[j].  That bounds
    every sum a cut subtree puts on support[lo:j] for j > q; for j <= q it
    adds nothing to its parent's.  The parent's sum never exceeds ``top``,
    so a node past the support's maximum is always cut.

    On a hereditary family a node that carries no weight (off the support,
    or of weight 0) is not entered at all: for any member s, its part that
    carries weight is a member that puts the same weight on every run,
    reached along a path that never leaves it.
    """
    m = len(support)
    # ahead[q] = total weight at positions q..m-1
    ahead = [0] * (m + 1)
    for q in range(m - 1, -1, -1):
        ahead[q] = ahead[q + 1] + weights[q]
    at = list(weights)
    label, depth, end = family._label, family._depth, family._end
    bisect_left = bisect.bisect_left
    hereditary = family.hereditary_flag
    # acc[d], parent[d]: running sum and index of the entered node at depth d
    acc = [0] * (family._height + 1)
    parent = [0] * (family._height + 1)
    rows = []
    for lo, i, stop in walks:
        top = max(at[lo:], default=0)
        while i < stop:
            d = depth[i]
            e = label[i]
            a = acc[d - 1]
            r = bisect_left(support, e, lo)
            if a + ahead[r] <= top:
                i = end[parent[d - 1]]
                continue
            w = weights[r] if support[r] == e else 0
            if w:
                a += w
                if a > at[r]:
                    at[r] = a
                    if a > top:
                        top = a
            elif hereditary:
                i = end[i]
                continue
            acc[d] = a
            parent[d] = i
            i += 1
        rows.append(list(itertools.accumulate(at[lo:], max)))
    return rows


class PartitionMeasure:
    """Disjoint finite pieces I_1, I_2, ... with a probability weight on each.

    Pieces are indexed 1-based by their position.  Weights are exact positive
    rationals summing to 1 on each piece.
    """

    __slots__ = ("pieces", "weights", "_piece_of")

    def __init__(
        self,
        pieces: Iterable[Iterable[int]],
        weights: Optional[Iterable[Mapping[int, Fraction]]] = None,
    ) -> None:
        self.pieces: tuple[FiniteSet, ...] = tuple(finite_set(p) for p in pieces)
        if any(not p for p in self.pieces):
            raise ValueError("pieces must be nonempty")
        self._piece_of: dict[int, int] = {}
        for idx, p in enumerate(self.pieces, start=1):
            for e in p:
                if e in self._piece_of:
                    raise ValueError(f"pieces are not disjoint at element {e}")
                self._piece_of[e] = idx
        if weights is None:
            self.weights = tuple(
                {e: Fraction(1, len(p)) for e in p} for p in self.pieces
            )
        else:
            self.weights = tuple(dict(w) for w in weights)
            if len(self.weights) != len(self.pieces):
                raise ValueError("one weight map per piece required")
            for p, w in zip(self.pieces, self.weights):
                if set(w) != set(p):
                    raise ValueError(f"weight map keys {sorted(w)} != piece {list(p)}")
                if any(v <= 0 for v in w.values()):
                    raise ValueError("weights must be positive")
                if sum(w.values()) != 1:
                    raise ValueError(f"weights on piece {list(p)} sum to {sum(w.values())}, not 1")

    @classmethod
    def uniform(cls, pieces: Iterable[Iterable[int]]) -> "PartitionMeasure":
        return cls(pieces)

    def __len__(self) -> int:
        return len(self.pieces)

    def piece_index(self, element: int) -> int:
        idx = self._piece_of.get(element)
        if idx is None:
            raise ValueError(f"element {element} lies outside every piece")
        return idx

    def split(self, s: FiniteSet) -> dict[int, list[int]]:
        """Partition the elements of s by piece index; error on stray elements."""
        out: dict[int, list[int]] = {}
        for e in s:
            out.setdefault(self.piece_index(e), []).append(e)
        return out


def _check_density(value: Fraction, name: str) -> Fraction:
    value = Fraction(value)
    if not 0 < value <= 1:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")
    return value


def g_lambda(family: Family, measure: PartitionMeasure, lam: Fraction) -> Family:
    """{s[lam] : s in family} where s[lam] = {n : #(s & I_n) >= lam * #I_n}.

    Uses counting measure on the pieces regardless of the measure's weights.
    """
    lam = _check_density(lam, "lambda")
    projected = []
    for s in family:
        hit = [n for n, part in measure.split(s).items()
               if len(part) >= lam * len(measure.pieces[n - 1])]
        projected.append(tuple(sorted(hit)))
    return Family._of(projected)


def g_plus(family: Family, measure: PartitionMeasure) -> Family:
    """{s[+] : s in family} where s[+] = {n : s & I_n nonempty}."""
    return Family._of(tuple(sorted(measure.split(s))) for s in family)


def g_delta_mu(family: Family, measure: PartitionMeasure, delta: Fraction) -> Family:
    """Sets t with some s in family putting mu_n-mass >= delta on every piece n in t.

    For each member s the maximal such t is {n : mu_n(s & I_n) >= delta};
    the family returned is the hereditary closure of these maximal sets
    (every subset works with the same witness s).
    """
    delta = _check_density(delta, "delta")
    tops = []
    for s in family:
        hit = []
        for n, part in measure.split(s).items():
            mass = sum(measure.weights[n - 1][e] for e in part)
            if mass >= delta:
                hit.append(n)
        tops.append(tuple(sorted(hit)))
    return hereditary_closure(Family._of(tops)) if tops else Family()
