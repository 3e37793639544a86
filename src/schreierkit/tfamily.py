"""The finite-window counterexample family and its verification machinery.

A window-bounded instance is parameterized by a density lambda in (0, 1) and
a cap N on the barrier sets considered.  The underlying index set splits
into pieces I_1, I_2, ... where I_n = {n} for n <= 3 and, for n >= 4,

    I_n = product over 4 <= m <= n of {1..r_m}^(n x pairs of {2..m-1}),

with r_m the least radix satisfying (1 - 1/r_m)^C(m-2,2) >= lambda.  Points
of I_n are tuples of digits indexed by (m, l, {i, j}).  The pieces are far
too large to enumerate (|I_5| is already 2^5 * 5^15), so member sets F(u)
of the family are kept symbolic: per piece, a conjunction of digit
disequalities patterned on the double-indexed distinct-digit sets

    A_{i,j}^{(n,r)} = { a in {1..r}^n : a_i != a_j },

and all counting is done exactly through product formulas.  Sampling is
seeded and reproducible; rejection sampling against a symbolic set accepts
with probability equal to the exact measure ratio, which never drops below
lambda.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .families import Family, FiniteSet, best_set_sum, finite_set
from .schreier import barrier_member
from .vectors import SparseVector

DigitKey = tuple[int, int, int, int]  # (m, l, i, j) with 2 <= i < j <= m-1, 1 <= l <= n


def radius(m: int, lam: Fraction) -> int:
    """Smallest r with (1 - 1/r)^C(m-2, 2) >= lam, by exact comparison.

    The left side increases with r and is 0 at r = 1, so r is doubled until
    the test holds and then bisected between the last failing and the first
    passing value.
    """
    if m < 4:
        raise ValueError(f"radices are defined for m >= 4, got {m}")
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    exponent = math.comb(m - 2, 2)

    def passes(r: int) -> bool:
        return Fraction(r - 1, r) ** exponent >= lam

    lo, hi = 1, 2
    while not passes(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TParams(NamedTuple):
    """Window-bounded family parameters: density, window cap, radix table."""

    lam: Fraction
    window_max: int
    radices: Mapping[int, int]

    @classmethod
    def build(
        cls,
        lam: Union[Fraction, str, int],
        window_max: int,
        radices: Optional[Mapping[int, int]] = None,
    ) -> "TParams":
        """Compute the radix table for 4 <= m <= window_max.

        A custom ``radices`` table is accepted unvalidated so that corrupted
        tables can be fed to the verification suites as negative controls.
        """
        lam = Fraction(lam)
        if not 0 < lam < 1:
            raise ValueError(f"lambda must lie in (0, 1), got {lam}")
        if window_max < 1:
            raise ValueError("window_max must be >= 1")
        if radices is None:
            radices = {m: radius(m, lam) for m in range(4, window_max + 1)}
        return cls(lam, window_max, dict(radices))

    def radix(self, m: int) -> int:
        try:
            return self.radices[m]
        except KeyError:
            raise ValueError(f"no radix for m = {m} (window_max = {self.window_max})")


# bounded: a window-7 run touches pieces 1..7, whose runs hold 224 keys (~19 kB)
@functools.lru_cache(maxsize=8)
def _key_runs(n: int) -> tuple[tuple[int, tuple[DigitKey, ...]], ...]:
    """Canonical key order of I_n as runs (m, keys with that m), m ascending."""
    runs = []
    for m in range(4, n + 1):
        pairs = list(itertools.combinations(range(2, m), 2))
        runs.append((m, tuple((m, l, i, j) for l in range(1, n + 1) for i, j in pairs)))
    return tuple(runs)


def _check_piece(n: int, params: TParams) -> None:
    if n < 1 or n > params.window_max:
        raise ValueError(f"piece index {n} outside window 1..{params.window_max}")


def digit_keys(n: int, params: TParams) -> list[DigitKey]:
    """Canonical digit coordinate order for I_n: sorted by (m, l, i, j)."""
    _check_piece(n, params)
    return [key for _, keys in _key_runs(n) for key in keys]


def index_cardinality(n: int, params: TParams) -> int:
    """Exact #I_n = product over 4 <= m <= n of r_m^(n * C(m-2, 2))."""
    _check_piece(n, params)
    out = 1
    for m in range(4, n + 1):
        out *= params.radix(m) ** (n * math.comb(m - 2, 2))
    return out


class IndexPoint:
    """A point of some piece I_n: the piece index plus its digit table.

    Treated as immutable after construction (hash relies on it).
    """

    __slots__ = ("n", "digits")

    def __init__(self, n: int, digits: Mapping[DigitKey, int] = ()) -> None:
        self.n = n
        self.digits: dict[DigitKey, int] = dict(digits)

    def digit(self, key: DigitKey) -> int:
        try:
            return self.digits[key]
        except KeyError:
            raise ValueError(f"point in I_{self.n} has no digit at {key}")

    def validate(self, params: TParams) -> "IndexPoint":
        keys = digit_keys(self.n, params)
        if set(self.digits) != set(keys):
            raise ValueError(f"digit coordinates do not match I_{self.n}")
        for (m, _, _, _), v in self.digits.items():
            if not 1 <= v <= params.radix(m):
                raise ValueError(f"digit {v} outside 1..{params.radix(m)}")
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexPoint):
            return NotImplemented
        return self.n == other.n and self.digits == other.digits

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.digits.items()))))

    def __repr__(self) -> str:
        return f"IndexPoint(n={self.n}, digits={len(self.digits)})"


def point_to_integer(pt: IndexPoint, params: TParams) -> int:
    """Canonical 1-based position of the point in I_1 | I_2 | ...

    Pieces are laid out in increasing n; within a piece, digits are read as
    a mixed-radix number in canonical key order, most significant first.
    """
    _check_piece(pt.n, params)
    offset = sum(index_cardinality(k, params) for k in range(1, pt.n))
    idx = 0
    for m, keys in _key_runs(pt.n):
        r = params.radix(m)
        for key in keys:
            idx = idx * r + (pt.digit(key) - 1)
    return offset + idx + 1


def erdos_hajnal_member(a: Sequence[int], r: int, i: int, j: int) -> bool:
    """Is the tuple a (digits in {1..r}) in the distinct-(i,j)-digit set?"""
    n = len(a)
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= {n}, got ({i}, {j})")
    if any(not 1 <= v <= r for v in a):
        raise ValueError(f"digits must lie in 1..{r}")
    return a[i - 1] != a[j - 1]


def erdos_hajnal_count(n: int, r: int) -> int:
    """Exact #{a in {1..r}^n : a_i != a_j} = r^n - r^(n-1), any fixed i < j."""
    if n < 2 or r < 1:
        raise ValueError("need n >= 2 and r >= 1")
    return r**n - r ** (n - 1)


class SymbolicSet(NamedTuple):
    """A member set F(u) in constraint form.

    ``constraints`` maps a piece index n in u to a tuple of digit-key pairs
    that must carry different values; pieces without an entry are fully
    contained.  Constrained entries occur only under pieces in position
    k > 3 of u, and then for every pair of positions 1 < i < j < k.
    """

    u: FiniteSet
    constraints: Mapping[int, tuple[tuple[DigitKey, DigitKey], ...]]

    def piece_constraints(self, n: int) -> tuple[tuple[DigitKey, DigitKey], ...]:
        if n not in self.u:
            raise ValueError(f"piece {n} is not touched by this set (u = {self.u})")
        return self.constraints.get(n, ())


def f_of_u(u: Iterable[int], params: TParams) -> SymbolicSet:
    """The symbolic member set attached to a barrier set u.

    For min u <= 3 every touched piece is full.  For u = {n_1 < ... < n_{n_1}}
    with n_1 > 3 the pieces at positions 1..3 are full and the piece at
    position k > 3 requires, for every 1 < i < j < k, distinct digits at the
    coordinates (m=n_1, l=n_i, {i,j}) and (m=n_1, l=n_j, {i,j}).
    """
    uu = finite_set(u)
    if not barrier_member(uu):
        raise ValueError(f"{uu} is not a barrier set (#s = min s required)")
    if uu[-1] > params.window_max:
        raise ValueError(f"max {uu[-1]} exceeds window_max {params.window_max}")
    return _barrier_f(uu)


def _barrier_f(uu: FiniteSet) -> SymbolicSet:
    """F(u) for a barrier set u that is already a sorted, checked tuple."""
    n1 = uu[0]
    constraints: dict[int, tuple[tuple[DigitKey, DigitKey], ...]] = {}
    if n1 > 3:
        for k in range(4, n1 + 1):
            piece = uu[k - 1]
            pairs = []
            for i, j in itertools.combinations(range(2, k), 2):
                key_i: DigitKey = (n1, uu[i - 1], i, j)
                key_j: DigitKey = (n1, uu[j - 1], i, j)
                pairs.append((key_i, key_j))
            constraints[piece] = tuple(pairs)
    return SymbolicSet(uu, constraints)


def measure_ratio(u: Iterable[int], n: int, params: TParams) -> Fraction:
    """Exact #(F(u) & I_n) / #I_n.

    Full pieces give 1; a constrained piece at position k of u carries
    C(k-2, 2) disequalities on distinct coordinate slices, each thinning
    the piece independently by a factor (1 - 1/r_{min u}).
    """
    uu = finite_set(u)
    if n not in uu:
        raise ValueError(f"{n} is not an element of u = {uu}")
    return _position_ratio(uu[0], uu.index(n) + 1, params)


def _position_ratio(n1: int, k: int, params: TParams) -> Fraction:
    """The measure ratio of the piece at position k of a set with minimum n1."""
    if n1 <= 3 or k <= 3:
        return Fraction(1)
    r = params.radix(n1)
    return Fraction(r - 1, r) ** math.comb(k - 2, 2)


def point_membership(pt: IndexPoint, symbolic: SymbolicSet) -> bool:
    """Evaluate the piece's disequality constraints at the point."""
    if pt.n not in symbolic.u:
        raise ValueError(f"point lies in I_{pt.n}, outside u = {symbolic.u}")
    return all(pt.digit(a) != pt.digit(b) for a, b in symbolic.piece_constraints(pt.n))


def _rng(seed: Union[int, random.Random]) -> random.Random:
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def sample_point(n: int, params: TParams, seed: Union[int, random.Random]) -> IndexPoint:
    """Uniform point of I_n: independent uniform digits in canonical order.

    Each digit in 1..r is 1 plus getrandbits(r.bit_length()), redrawn while
    it is r or more.  This is what ``randint(1, r)`` does, so a seed gives
    the same digits as one ``randint`` call per key in canonical order.
    """
    _check_piece(n, params)
    getrandbits = _rng(seed).getrandbits
    digits: dict[DigitKey, int] = {}
    for m, keys in _key_runs(n):
        r = params.radix(m)
        bits = r.bit_length()
        for key in keys:
            v = getrandbits(bits)
            while v >= r:
                v = getrandbits(bits)
            digits[key] = v + 1
    return IndexPoint(n, digits)


def sample_in(
    symbolic: SymbolicSet, n: int, params: TParams, seed: Union[int, random.Random]
) -> IndexPoint:
    """Uniform point of F(u) & I_n by rejection.

    Acceptance probability equals the measure ratio, hence is at least
    lambda; expected tries are at most 1/lambda.  A ratio of 0, reachable
    only through a ``radices`` override, raises ValueError.
    """
    if measure_ratio(symbolic.u, n, params) == 0:
        raise ValueError(f"F(u) & I_{n} is empty for u = {symbolic.u}: nothing to sample")
    rng = _rng(seed)
    while True:
        pt = sample_point(n, params, rng)
        if point_membership(pt, symbolic):
            return pt


def barrier_window_members(window_max: int) -> list[FiniteSet]:
    """All barrier sets u with max u <= window_max, in lexicographic order."""
    out: list[FiniteSet] = []
    for n1 in range(1, window_max + 1):
        rest = range(n1 + 1, window_max + 1)
        for tail in itertools.combinations(rest, n1 - 1):
            out.append((n1,) + tail)
    return out


class PigeonholeReport(NamedTuple):
    """Emptiness decision for an intersection of member sets over one piece."""

    empty: bool
    preconditions_ok: bool
    failures: tuple[str, ...]
    positions: Optional[tuple[int, int]]
    clique_slice: Optional[tuple[int, int, int]]  # (m, i, j)
    clique: Optional[tuple[int, ...]]  # l-coordinates pairwise forced distinct


def _max_clique(vertices: list[int], edges: set[frozenset[int]]) -> tuple[int, ...]:
    best: tuple[int, ...] = ()
    vs = sorted(vertices)

    def grow(clique: tuple[int, ...], candidates: list[int]) -> None:
        nonlocal best
        if len(clique) > len(best):
            best = clique
        for idx, v in enumerate(candidates):
            if len(clique) + len(candidates) - idx <= len(best):
                break
            if all(frozenset((v, w)) in edges for w in clique):
                grow(clique + (v,), candidates[idx + 1 :])

    grow((), vs)
    return best


def pigeonhole_intersection_empty(
    us: Sequence[Iterable[int]], w: Iterable[int], params: TParams
) -> PigeonholeReport:
    """Decide whether I_{max w} meets the intersection of the F(u), u in us.

    Preconditions (checked and reported, never silently ignored): all u share
    the same minimum n_1 > 3; #w >= r_{n_1} + 2 with n_1 < min w; and there
    are fixed positions i < j such that every pair l_1 < l_2 from w below
    max w occurs as the (i, j)-th elements of some u that also contains
    max w.  Under these the disequalities collected on each digit slice of
    I_{max w} contain a complete graph on more than r_{n_1} vertices, and a
    pigeonhole clique test decides emptiness exactly.  The clique test is
    sound unconditionally (a clique larger than the radix forces emptiness).
    """
    sets = [f_of_u(u, params) for u in us]
    ww = finite_set(w)
    failures: list[str] = []
    if not sets:
        raise ValueError("need at least one barrier set")
    mins = {s.u[0] for s in sets}
    n1 = min(mins)
    if len(mins) != 1:
        failures.append(f"minima differ: {sorted(mins)}")
    elif n1 <= 3:
        failures.append(f"shared minimum {n1} is not > 3")
    r = params.radix(n1) if n1 > 3 else None
    if not ww:
        raise ValueError("w must be nonempty")
    if r is not None and len(ww) < r + 2:
        failures.append(f"#w = {len(ww)} < r + 2 = {r + 2}")
    if ww[0] <= n1:
        failures.append(f"min w = {ww[0]} is not above n_1 = {n1}")
    top = ww[-1]

    # the constant positions (i, j) demanded by the pair-coverage condition
    positions: Optional[tuple[int, int]] = None
    candidates: Optional[set[tuple[int, int]]] = None
    for l1, l2 in itertools.combinations(ww[:-1], 2):
        options = set()
        for s in sets:
            u = s.u
            if {n1, l1, l2, top}.issubset(u):
                i = u.index(l1) + 1
                j = u.index(l2) + 1
                if 1 < i < j and top in u and u.index(top) + 1 > j:
                    options.add((i, j))
        candidates = options if candidates is None else candidates & options
    if candidates:
        positions = min(candidates)
    else:
        failures.append("no constant positions (i, j) cover every pair of w below max w")

    # collect every disequality the sets impose on digits of I_{max w}
    edges_by_slice: dict[tuple[int, int, int], set[frozenset[int]]] = {}
    for s in sets:
        if top not in s.u:
            # a set missing the top piece empties the intersection outright
            return PigeonholeReport(True, not failures, tuple(failures), positions, None, None)
        for key_a, key_b in s.piece_constraints(top):
            m, la, i, j = key_a
            _, lb, _, _ = key_b
            edges_by_slice.setdefault((m, i, j), set()).add(frozenset((la, lb)))

    for (m, i, j), edges in sorted(edges_by_slice.items()):
        vertices = sorted({v for e in edges for v in e})
        clique = _max_clique(vertices, edges)
        if len(clique) > params.radix(m):
            return PigeonholeReport(
                True, not failures, tuple(failures), positions, (m, i, j), clique
            )
    return PigeonholeReport(False, not failures, tuple(failures), positions, None, None)


class TransversalReport(NamedTuple):
    """Largest sub-transversal free of covered (bound+1)-subsets."""

    selected: tuple[int, ...]  # indices into the input transversal
    covered: tuple[tuple[tuple[int, ...], FiniteSet], ...]  # (subset indices, witness u)
    bound: int


def _point_traces(pts: Sequence[IndexPoint], params: TParams) -> dict[FiniteSet, FiniteSet]:
    """Each trace {i : pts[i-1] in F(u)} over the window barrier sets u, with its first u.

    One pass over ``barrier_window_members`` in lexicographic order; F(u) is
    built only when some point's piece lies in u, without re-validating u:
    the enumeration yields only barrier sets inside the window.  Traces hold
    1-based point positions, so they are finite sets.
    """
    traces: dict[FiniteSet, FiniteSet] = {}
    for u in barrier_window_members(params.window_max):
        inside = [i for i, pt in enumerate(pts, 1) if pt.n in u]
        if inside:
            sym = _barrier_f(u)
            inside = [i for i in inside if point_membership(pts[i - 1], sym)]
        traces.setdefault(tuple(inside), u)
    return traces


def transversal_trace_report(
    transversal: Sequence[IndexPoint], params: TParams, bound: int
) -> TransversalReport:
    """Find the covered (bound+1)-subsets of a transversal and dodge them.

    A subset of points is *covered* when a single window barrier set u has
    all of them inside F(u); its witness is the first such u in
    lexicographic order.  One scan of the window gives every point trace
    with the first u that yields it, and the witness of a subset is the
    least of those u whose trace holds it.  The result is the
    lexicographically first largest sub-transversal with no covered
    (bound+1)-subset.
    """
    pieces = [pt.n for pt in transversal]
    if len(set(pieces)) != len(pieces):
        raise ValueError("not a transversal: two points share a piece")
    for pt in transversal:
        pt.validate(params)
    traces = [(set(t), u) for t, u in _point_traces(transversal, params).items()]
    covered: list[tuple[tuple[int, ...], FiniteSet]] = []
    for combo in itertools.combinations(range(len(transversal)), bound + 1):
        need = {i + 1 for i in combo}
        held = [u for t, u in traces if t >= need]
        if held:
            covered.append((combo, min(held)))

    bad = [set(c) for c, _ in covered]
    all_idx = range(len(transversal))
    for size in range(len(transversal), -1, -1):
        for combo in itertools.combinations(all_idx, size):
            chosen = set(combo)
            if not any(b.issubset(chosen) for b in bad):
                return TransversalReport(combo, tuple(covered), bound)
    raise AssertionError("unreachable: the empty subset is always admissible")


def transversal_norm(
    pts: Sequence[IndexPoint], coeffs: Sequence[Fraction], params: TParams
) -> Fraction:
    """Exact family norm of sum a_i e_{pt_i} computed symbolically.

    The member sums are, for each window barrier set u, the sum of |a_i|
    over the points lying in F(u), and the sup part is max |a_i|.  They are
    the weights of the points' trace family, so ``best_set_sum`` on the
    traces of the points with a_i != 0 gives their maximum.
    """
    if len(pts) != len(coeffs):
        raise ValueError("one coefficient per point required")
    coeffs = [abs(Fraction(c)) for c in coeffs]
    live = [(pt, a) for pt, a in zip(pts, coeffs) if a]
    traces = Family(_point_traces([pt for pt, _ in live], params))
    weights = {i: a for i, (_, a) in enumerate(live, 1)}
    return max(max(coeffs, default=Fraction(0)), best_set_sum(traces, weights))


def averages_norm(a: SparseVector, params: TParams) -> Fraction:
    """Exact family norm of sum a_n x_n, x_n the normalized average over I_n.

    Coordinates are constant on each piece, so the best sum over a member
    set F(u) is attained at the full set and equals
    sum over n in u of |a_n| * measure_ratio(u, n); the sup-norm floor is
    max |a_n| / #I_n.  The ratio depends only on min u and the position of
    n in u, so it is read from one table per minimum.
    """
    if a and a.support[-1] > params.window_max:
        raise ValueError(
            f"support reaches {a.support[-1]}, beyond window_max {params.window_max}"
        )
    if not a:
        return Fraction(0)
    # the floor max |a_n| / #I_n needs only n <= 3, where #I_n = 1: each n >= 4
    # sits at position 2 of the window barrier set {2, n}, with weight 1
    best = max((abs(v) for n, v in a.items() if n <= 3), default=Fraction(0))
    abs_a = {n: abs(v) for n, v in a.items()}
    # a window barrier set with minimum n1 has n1 elements
    ratios = {
        n1: [_position_ratio(n1, k, params) for k in range(1, n1 + 1)]
        for n1 in range(1, params.window_max + 1)
    }
    for u in barrier_window_members(params.window_max):
        total = sum(
            (abs_a[n] * w for n, w in zip(u, ratios[u[0]]) if n in abs_a), Fraction(0)
        )
        if total > best:
            best = total
    return best
