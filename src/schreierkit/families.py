"""Algebra of finite families of finite subsets of the positive integers.

A *finite set* is a strictly increasing tuple of integers >= 1 (indices into
the natural numbers are 1-based throughout).  A :class:`Family` is a finite,
deduplicated collection of such sets, stored as the prefix trie of their
increasing enumerations laid out in preorder arrays (label, depth, subtree
end, member flag per node), with no object per node.  Operations that build
a family collect its members and lay the arrays out once.  All operations
are pure; families are immutable after construction and safe to share
between threads.

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
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

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
    if lo < 1 or hi < lo - 1:
        raise ValueError(f"bad interval [{lo}, {hi}]")
    return tuple(range(lo, hi + 1))


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

    ``hereditary_flag`` is tri-state metadata (True / False / None for
    unknown); it is not validated at construction, see :func:`is_hereditary`.
    """

    __slots__ = ("_label", "_depth", "_end", "_term", "_height", "_size", "hereditary_flag")

    def __init__(
        self,
        sets: Iterable[Iterable[int]] = (),
        hereditary: Optional[bool] = None,
    ) -> None:
        self._adopt(*_preorder(finite_set(s) for s in sets))
        self.hereditary_flag = hereditary

    def _adopt(self, label: list[int], depth: list[int], end: list[int], term: bytearray) -> None:
        self._label = label
        self._depth = depth
        self._end = end
        self._term = term
        self._height = max(depth)
        self._size = term.count(1)

    @classmethod
    def _of(
        cls, members: Iterable[FiniteSet], hereditary: Optional[bool] = None
    ) -> "Family":
        """The family of ``members``, already finite sets, in any order."""
        return cls._from_arrays(*_preorder(members), hereditary=hereditary)

    @classmethod
    def _from_arrays(
        cls,
        label: list[int],
        depth: list[int],
        end: list[int],
        term: bytearray,
        hereditary: Optional[bool] = None,
    ) -> "Family":
        out = cls.__new__(cls)
        out._adopt(label, depth, end, term)
        out.hereditary_flag = hereditary
        return out

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
        label, end = self._label, self._end
        node = 0
        for e in finite_set(s):
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
        shown = ", ".join("{" + ",".join(map(str, s)) + "}" for s in itertools.islice(self, 6))
        more = ", ..." if len(self) > 6 else ""
        return f"Family([{shown}{more}], n={len(self)}, hereditary={self.hereditary_flag})"


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
    return all(s[:i] + s[i + 1:] in family for s in family for i in range(len(s)))


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
    """The trace {s & M : s in family}, deduplicated."""
    return Family._of(_trace_images(family, set(finite_set(m))))


def _trace_images(family: Family, mset: set[int]) -> set[FiniteSet]:
    """The set {s & M : s in family}.

    One scan of the preorder arrays keeps the image of the path to each node,
    indexed by depth: an element of M extends its parent's image, any other
    element shares it, and a member adds its image to the output.  The cost
    is one step per trie node.
    """
    images: set[FiniteSet] = set()
    if family._term[0]:
        images.add(())
    # path[d] is the image of the last node seen at depth d
    path: list[FiniteSet] = [()] * (family._height + 1)
    nodes = zip(family._label, family._depth, family._term)
    next(nodes)
    for e, d, t in nodes:
        image = path[d] = path[d - 1] + (e,) if e in mset else path[d - 1]
        if t:
            images.add(image)
    return images


def norming_sets(family: Family, support: FiniteSet) -> list[FiniteSet]:
    """The sets whose sums of |x_k| norm x on ``support``: each singleton
    (the sup-norm), then each member of the trace with at least two elements.

    ||x||_F is the largest of these sums for x supported in ``support``; a
    trace member of size <= 1 adds nothing the singletons do not."""
    images = _trace_images(family, set(support))
    return [(k,) for k in support] + sorted(s for s in images if len(s) >= 2)


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
    """The restriction {s in family : s subset of M}."""
    mset = set(finite_set(m))
    return Family._of(
        (s for s in family if mset.issuperset(s)),
        hereditary=family.hereditary_flag,
    )


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

    Subsets of T are scanned in lexicographic order.  The search charges one
    unit of budget per trie node visited; exceeding ``node_budget`` yields a
    ``budget-exceeded`` result rather than a silent "absent".  Each walk
    enters the children of a node from the largest down.
    """
    tt = finite_set(t)
    if size > len(tt):
        raise ValueError(f"size {size} exceeds #T = {len(tt)}")
    label, end = family._label, family._end
    visited = 0

    def some_trace_exceeds(t0: frozenset[int]) -> Optional[bool]:
        # True iff some member meets t0 in more than `bound` points.
        # None signals budget exhaustion.
        nonlocal visited
        stack = [(0, 0)]
        while stack:
            node, cnt = stack.pop()
            if cnt > bound:
                return True
            child, stop = node + 1, end[node]
            while child < stop:
                visited += 1
                if visited > node_budget:
                    return None
                stack.append((child, cnt + (label[child] in t0)))
                child = end[child]
        return False

    for combo in itertools.combinations(tt, size):
        exceeded = some_trace_exceeds(frozenset(combo))
        if exceeded is None:
            return UniformTraceResult("budget-exceeded", None, visited)
        if not exceeded:
            return UniformTraceResult("found", combo, visited)
    return UniformTraceResult("absent", None, visited)


def best_set_sum(family: Family, weights: Mapping[int, Fraction]) -> Fraction:
    """max over members s of sum(weights[e] for e in s), weights >= 0.

    Exact branch-and-bound on the trie: a branch entered at element e is cut
    when the running sum plus the total weight sitting at indices >= e cannot
    beat the incumbent.  Elements without a weight count as zero.  Siblings
    ascend and that total does not grow with e, so a cut branch also cuts
    its later siblings: the scan jumps to the end of the parent's subtree.

    The weights are scaled once by the lcm of their denominators, so the walk
    adds and compares Python ints; the result is that integer over the lcm,
    still exact, with no float anywhere.
    """
    if not family:
        return Fraction(0)
    scale = math.lcm(*(v.denominator for v in weights.values()))
    scaled = {e: v.numerator * (scale // v.denominator) for e, v in weights.items()}
    support = sorted(scaled)
    # suffix[i] = total scaled weight at support positions i..end
    suffix = [0] * (len(support) + 1)
    for i in range(len(support) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + scaled[support[i]]

    label, depth, end, term = family._label, family._depth, family._end, family._term
    bisect_left, weight = bisect.bisect_left, scaled.get
    # acc[d], parent[d]: running sum and index of the entered node at depth d
    acc = [0] * (family._height + 1)
    parent = [0] * (family._height + 1)
    best = 0
    i, size = 1, len(label)
    while i < size:
        d = depth[i]
        e = label[i]
        a = acc[d - 1]
        if a + suffix[bisect_left(support, e)] <= best:
            i = end[parent[d - 1]]
            continue
        a += weight(e, 0)
        if a > best and term[i]:
            best = a
        acc[d] = a
        parent[d] = i
        i += 1
    return Fraction(best, scale)


def best_run_sums(
    family: Family, support: Sequence[int], weights: Sequence[int], start: int
) -> list[int]:
    """Best member sums on every run support[start:j], j = start+1..len(support).

    ``weights[q] >= 0`` is the int weight at ``support[q]`` (increasing);
    entry j - start - 1 of the result is the max over members s of the
    weight s puts on support[start:j].  One iterative trie walk serves every
    run end, for one row of the block DP.  Every trie node lies on a member's
    path and weights are nonnegative, so a node's running sum is reached on
    every run that holds its last counted position: it is recorded at that
    run end and every later one (``best`` is nondecreasing in j).

    A subtree whose elements sit at positions >= q may be cut when, at every
    run end j > q, its running sum plus the weight at positions q..j-1
    cannot beat ``best[j]``.  Testing the last run end alone decides this:
    the walk has recorded every prefix of the path behind ``best[m]``, so
    best[m] - best[j] is at most the weight at positions j..m-1.  The test
    is made when a subtree is pushed and again, with a later ``best[m]``,
    when it is popped.  Children are pushed in ascending order, so the
    largest is entered first; once one lies past the support, so do the
    rest, and the scan of the siblings stops.
    """
    m = len(support)
    # ahead[q] = total weight at positions q..m-1
    ahead = [0] * (m + 1)
    for q in range(m - 1, start - 1, -1):
        ahead[q] = ahead[q + 1] + weights[q]
    best = [0] * (m + 1)
    label, end = family._label, family._end
    bisect_left = bisect.bisect_left
    stack = [(0, 0, start)]
    while stack:
        node, acc, q = stack.pop()
        if acc + ahead[q] <= best[m]:
            continue
        child, stop = node + 1, end[node]
        while child < stop:
            e = label[child]
            r = bisect_left(support, e, q)
            if r == m:
                break
            nxt = end[child]
            if support[r] == e:
                acc_e = acc + weights[r]
                j = r + 1
                while j <= m and best[j] < acc_e:
                    best[j] = acc_e
                    j += 1
                if nxt > child + 1 and acc_e + ahead[r + 1] > best[m]:
                    stack.append((child, acc_e, r + 1))
            elif nxt > child + 1:
                stack.append((child, acc, r))
            child = nxt
    return best[start + 1 :]


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
