"""Exact evaluation of family norms and the sequence diagnostics built on them.

The central object is the family norm

    ||x||_F = max( ||x||_oo,  max over s in F of  sum_{k in s} |x_k| ),

computed exactly in rationals by branch-and-bound on the family trie.  The
block-aggregated (Baernstein-style) norm, epsilon-support families, uniform
weak bounds, spreading-model constants (via exact LP) and Cesaro profiles
are all derived from it.  Both norms take run norms, the sup-norm
included, from one trie walk loop.  ``f_norm`` reads the last run of
:func:`~schreierkit.families.run_norms`, one walk from the root.  The block
norm's interval DP reads every run support[i:j] of
:func:`~schreierkit.families.run_norm_rows`, one backward pass over the
support: row i is row i + 1 shifted by one position and raised by a walk of
only the members whose trace on support[i:] starts at i, pruned against
the norm of support[i + 1:].  That is exact for every family, as row i's
norm at each end j is at least row i + 1's, which is at least that norm
less the weight from j on; on a hereditary family the walk is the subtree
of the root child labelled support[i].

Exactness policy: everything is rational; p-th roots are deferred to output
formatting (:func:`float_root`).  For integer p the p-powered block norm is
the canonical exact result (see :func:`block_p_norm_power`): its DP sums
r^p as ints, with every run norm r / scale over one common scale, and builds
one ``Fraction``, the best sum over scale^p, per call; a p whose powers
could pass MAX_POWER_BITS is refused up front.  Only a non-integer p
takes floats, and each DP cell divides its two ints once.  Member scans
(the trie walk, eps-supports and the uniform weak bound) and the spreading
LP's rows scale their inputs once by the lcm of the denominators
(:func:`~schreierkit.vectors.int_scaled`) and then add and compare Python
ints; this is still exact and uses no floats.  The eps-supports come from
one walk, :func:`_eps_supports`, over the trie paths with every vector's
signed and absolute sum (:func:`~schreierkit.families.trace_sums`); only a
path on which some vector changes sign falls back to its sign patterns.
The eps-support family reads every support; the uniform weak bound sends
its best size back, and the walk skips every subtree that cannot beat it.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import Callable, Generator, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .families import (
    Family,
    FiniteSet,
    finite_set,
    maximal_mask,
    norming_sets,
    run_norm_rows,
    run_norms,
    trace_sums,
)
from .lp import LPCertificateError, LPResult, solve_lp
from .schreier import OrdinalCNF, schreier_enumerate
from .vectors import SparseVector, int_scaled

PValue = Union[int, Fraction, float]  # float only for math.inf

#: sign-pattern enumeration cutoff for the eps-support scan
MAX_SIGN_PATTERNS = 2**20

#: size cap, in bits, on the exact powers of :func:`block_p_norm_power`:
#: p times the bit length of the larger of the |x_k| sum and the common
#: scale, both in int units, bounds every r^p, their sums and scale^p
MAX_POWER_BITS = 2**20


def _is_inf(p: PValue) -> bool:
    return isinstance(p, float) and math.isinf(p)


def f_norm(x: SparseVector, family: Family) -> Fraction:
    """The family norm of x: max of sup-norm and best member sum of |x|.

    The |x_k| are scaled to ints once; the norm is the last run of
    :func:`~schreierkit.families.run_norms` on the whole support, over the
    common scale.
    """
    ints, scale = int_scaled(v for _, v in x.items())
    runs = run_norms(family, x.support, list(map(abs, ints)))
    return Fraction(runs[-1] if runs else 0, scale)


def block_p_norm_power(x: SparseVector, family: Family, p: int) -> Fraction:
    """Exact p-th power of the block-aggregated norm, integer p >= 1.

    The supremum over block sequences E_1 < ... < E_n of sum ||E_i x||_F^p
    is attained on partitions of the support into consecutive intervals
    (dropping points or leaving gaps never helps, by coordinatewise
    monotonicity of the family norm), so an interval dynamic program over
    the support positions is exact.  Every run norm is r / scale with r an
    int (see :func:`_block_dp`), so the DP adds and compares the ints r^p
    and the best sum is that int over scale^p: one ``Fraction`` per call,
    in lowest terms, and no float.  A p whose powers could pass
    MAX_POWER_BITS is refused before any is built (:func:`power_weights`).
    """
    # a bool is an int, and True would run as p = 1
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"p must be an int, got {p!r}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    weights, scale = power_weights(x, p)
    return Fraction(_block_dp(x.support, weights, family, lambda r: r**p), scale**p)


def power_weights(x: SparseVector, p: int) -> tuple[list[int], int]:
    """The |x_k| as ints over their common scale, refused with ValueError when
    p times the bit length of their sum or of the scale, which bounds r^p for
    every r up to that sum and scale^p, passes MAX_POWER_BITS."""
    ints, scale = int_scaled(v for _, v in x.items())
    weights = list(map(abs, ints))
    if p * max(sum(weights), scale).bit_length() > MAX_POWER_BITS:
        raise ValueError(f"p is too large: the exact power would pass {MAX_POWER_BITS} bits")
    return weights, scale


def _block_dp(
    support: Sequence[int],
    weights: Sequence[int],
    family: Family,
    power: Callable[[int], Union[int, float]],
) -> Union[int, float]:
    """The largest sum of power(r) over cuts of the support into runs.

    ``weights`` are the |x_k| at ``support`` scaled to ints over one common
    scale; r is the family norm of a run support[i:j] in those units.
    Row i of the DP, every run starting at i, comes from one backward pass,
    :func:`~schreierkit.families.run_norm_rows`: row i is row i + 1 raised
    by a walk of only the members whose trace on support[i:] starts at i,
    pruned against the norm of support[i + 1:].  Each cell is powered once,
    and the DP adds and compares what ``power`` returns: ints for an integer
    p, floats for any other.
    """
    # cells[i][j - i - 1] is power(r) for the run support[i:j]
    cells = [[power(r) for r in row] for row in run_norm_rows(family, support, weights)]
    # best[j]: largest sum over cuts of support[:j]; best[0] is the empty sum
    best = [power(0)]
    for j in range(1, len(support) + 1):
        best.append(max(best[i] + cells[i][j - i - 1] for i in range(j)))
    return best[-1]


def baernstein_norm(x: SparseVector, family: Family, p: PValue) -> Union[Fraction, float]:
    """Block-aggregated family norm; exact rational for p in {1, oo}.

    For other p the exact p-powered value is computed when p is an integer
    (take the root yourself via :func:`block_p_norm_power` if you need it
    exactly); the returned float is its correctly rounded p-th root.  For
    rational non-integer p each cell of the DP is (r / scale) ** p in floats,
    one int division per cell, correctly rounded as ``float(Fraction(r,
    scale))`` is, even when r and scale are past float range; the DP sums
    those floats, and a sum of powers past float range is refused with
    ValueError, as is a nonzero x whose sum of powers underflows to 0.
    """
    if _is_inf(p):
        return f_norm(x, family)
    if isinstance(p, bool):
        raise ValueError(f"p must be an int, got {p!r}")
    p = Fraction(p)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p.denominator == 1:
        power = block_p_norm_power(x, family, p.numerator)
        if p == 1:
            return power
        return float_root(power, p.numerator)
    q = float(p)
    ints, scale = int_scaled(v for _, v in x.items())
    try:
        total = _block_dp(x.support, list(map(abs, ints)), family, lambda r: (r / scale) ** q)
    except OverflowError:
        total = math.inf
    if math.isinf(total):
        raise ValueError(f"p = {p}: the float block norm overflows; an integer p is exact")
    if x and not total:
        raise ValueError(f"p = {p}: the float block norm underflows; an integer p is exact")
    return total ** (1.0 / q)


def float_root(power: Fraction, p: int) -> float:
    """The p-th root of an exact power as a float.

    When a positive power would overflow a float or fall below the normal
    floats, 2^t with t about log2(power) is factored out first, so the
    scaled power lies in (1/2, 2), and the root is scaled back by 2^(t/p);
    otherwise nothing is factored out.  A root that does not fit a float is
    refused with ValueError.
    """
    try:
        f = float(power)
    except OverflowError:
        f = math.inf
    if not power or sys.float_info.min <= f < math.inf:
        return f ** (1.0 / p)
    t = power.numerator.bit_length() - power.denominator.bit_length()
    try:
        root = float(power / Fraction(2) ** t) ** (1.0 / p) * 2.0 ** (t / p)
    except OverflowError:
        root = math.inf
    if not 0 < root < math.inf:
        raise ValueError(f"the {p}-th root of a power near 2^{t} does not fit a float")
    return root


class NormingSpec(NamedTuple):
    """A norming set induced by a family: signed indicator functionals.

    Describes N = {+-e_k*} union {sum_{k in s} +- e_k* : s in base_family},
    the singleton functionals always included.
    """

    base_family: Family


def _int_columns(
    xs: Sequence[SparseVector], eps: Fraction
) -> tuple[int, list[dict[int, int]], dict[int, tuple[int, ...]]]:
    """eps and the x_n scaled to ints by one common lcm, and the trie columns.

    Returns ``bar`` (eps in int units), each x_n as an int map, and the
    column at each label k of the union support, in ascending order: every
    x_n(k), then every |x_n(k)|, so the column sums over a set hold each
    x_n's signed and absolute sum over it.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    (bar, *flat), scale = int_scaled([eps, *(v for x in xs for _, v in x.items())])
    coords = iter(flat)
    ints = [dict(zip(x.support, itertools.islice(coords, len(x)))) for x in xs]
    columns: dict[int, tuple[int, ...]] = {}
    for k in finite_set({k for x in xs for k in x.support}):
        signed = [x.get(k, 0) for x in ints]
        columns[k] = (*signed, *map(abs, signed))
    return bar, ints, columns


def _eps_supports(
    xs: Sequence[SparseVector], family: Family, eps: Fraction
) -> Generator[FiniteSet, Optional[int], None]:
    """The eps-supports {n : |f(x_n)| >= eps} of the norming functionals.

    A functional acts on the x_n only through its trace on their union
    support, so the singletons and the member traces cover them all.  One
    walk, :func:`~schreierkit.families.trace_sums`, gives each trace with
    every x_n's signed and absolute int sums over it (:func:`_int_columns`).
    Where every x_n is sign-definite on a trace, the all-plus pattern's
    support contains every other pattern's.  The mixed traces are tried once
    each after the walk, in lexicographic order, by their sign patterns
    (:func:`_sign_pattern_supports`), so a refusal beyond MAX_SIGN_PATTERNS
    names the first refused trace of :func:`~schreierkit.families.norming_sets`.

    A plain ``for`` loop gets every support.  A caller after the largest
    sends ``best``, its largest size so far, after each support; the
    generator then yields only larger supports and skips every subtree that
    cannot beat ``best``.  At a trace s with last label e, each f in the
    subtree has |f(x_n)| <= abs_n(s) + ahead_n(e), the absolute sums over s
    and over the support labels above e; the subtree is skipped when at most
    ``best`` x_n reach eps that way and all its traces, at most len(s) plus
    the labels above e, fit the cap (read at call time), so each refusal
    stays.  A mixed trace is tried only when over the cap or when its
    absolute sums reach eps on more than ``best`` vectors, the set that
    holds every pattern's support.
    """
    bar, ints, columns = _int_columns(xs, eps)
    n_xs = len(xs)
    fits = MAX_SIGN_PATTERNS.bit_length()  # the largest size with 2^(size-1) patterns in the cap
    # cut[e]: bar less each x_n's absolute sum over the labels above e, and
    # their count; e = 0 stands before every label (indices are >= 1)
    cut: dict[int, tuple[tuple[int, ...], int]] = {}
    ahead, rest = (0,) * n_xs, 0
    for k in reversed(columns):
        cut[k] = (tuple(bar - a for a in ahead), rest)
        ahead, rest = tuple(map(operator.add, ahead, columns[k][n_xs:])), rest + 1
    cut[0] = (tuple(bar - a for a in ahead), rest)
    numbers = range(1, n_xs + 1)
    best = None
    for col in columns.values():
        if best is None or sum(map(bar.__le__, col[n_xs:])) > best:
            best = yield tuple(itertools.compress(numbers, map(bar.__le__, col[n_xs:])))
    # mixed[s]: how many x_n reach eps by their absolute sums over s
    mixed: dict[FiniteSet, int] = {}
    walk = trace_sums(family, columns)
    skip = None
    while True:
        try:
            s, sums = walk.send(skip)
        except StopIteration:
            break
        signed, absolute = sums[:n_xs], sums[n_xs:]
        # every x_n keeps one sign on s; the tuples are equal when all sums are >= 0
        if signed == absolute or tuple(map(abs, signed)) == absolute:
            if best is None or sum(map(bar.__le__, absolute)) > best:
                best = yield tuple(itertools.compress(numbers, map(bar.__le__, absolute)))
        else:
            mixed[s] = sum(map(bar.__le__, absolute))
        if best is not None:
            need, rest = cut[s[-1] if s else 0]
            skip = len(s) + rest <= fits and sum(map(operator.ge, absolute, need)) <= best
    for s in sorted(mixed):
        if best is None or len(s) > fits or mixed[s] > best:
            for support in _sign_pattern_supports(s, ints, bar):
                if best is None or len(support) > best:
                    best = yield support


def _sign_pattern_supports(
    s: FiniteSet, ints: Sequence[dict[int, int]], bar: int
) -> Iterator[FiniteSet]:
    """The eps-supports of the signed indicators of ``s``, first sign fixed.

    f and -f share a support, so 2^(#s - 1) patterns cover them; more than
    MAX_SIGN_PATTERNS are refused.
    """
    if 2 ** (len(s) - 1) > MAX_SIGN_PATTERNS:
        raise ValueError(f"sign enumeration over {len(s)} coordinates refused")
    rows = [[x.get(k, 0) for k in s] for x in ints]
    for signs in itertools.product((1, -1), repeat=len(s) - 1):
        theta = (1, *signs)
        yield tuple(
            n for n, row in enumerate(rows, start=1)
            if abs(sum(map(operator.mul, theta, row))) >= bar
        )


def eps_support_family(
    xs: Sequence[SparseVector], spec: NormingSpec, eps: Fraction
) -> Family:
    """The family of eps-supports {n : |f(x_n)| >= eps} over the norming set.

    Every member is the eps-support of some functional in the norming set,
    and every such eps-support lies inside a member, so the largest member
    has :func:`uniform_weak_bound` elements.  The empty set is always present
    (the norming set contains functionals supported away from every x_n).
    The members are every support :func:`_eps_supports` yields, refused as
    it refuses beyond MAX_SIGN_PATTERNS.
    """
    return Family._of([(), *_eps_supports(xs, spec.base_family, eps)])


def uniform_weak_bound(xs: Sequence[SparseVector], spec: NormingSpec, eps: Fraction) -> int:
    """max over functionals f in the norming set of #{n : |f(x_n)| >= eps}.

    The largest eps-support of :func:`eps_support_family`, or 0 when there
    is none.  It sends the size of each support back into
    :func:`_eps_supports`, which then yields only larger supports, skips
    every subtree that cannot beat it and keeps every refusal.  Exact.
    """
    supports = _eps_supports(xs, spec.base_family, eps)
    best = None  # a just-started generator takes only None
    while True:
        try:
            best = len(supports.send(best))
        except StopIteration:
            return best or 0


class SpreadingResult(NamedTuple):
    """Minimax value over the probability simplex with its LP certificate."""

    value: Fraction
    coefficients: list[Fraction]
    lp: LPResult


def spreading_constant(ys: Sequence[SparseVector], family: Family) -> SpreadingResult:
    """min over convex coefficients a of ||sum a_n |y_n|||_F, by exact LP.

    Signed inputs are replaced by coordinatewise absolute values first; for
    the 1-unconditional norms computed here this is the honest computable
    reduction.  The norm of a nonnegative combination is the maximum of
    finitely many linear functionals (member sums and single coordinates),
    so the minimax is a linear program, solved with exact rational pivoting
    and certified by duality.

    Rows are built only for the inclusion-maximal functionals: the convex
    coefficients and the |y_n| are >= 0, so a set's row implies the rows of
    its subsets.  The rows left out are certified by one :func:`f_norm` call
    and get dual 0 (see :func:`certify_left_out_rows`), so ``lp`` and its
    certificate are those of the LP with every row.
    """
    if not ys:
        raise ValueError("need at least one vector")
    # |y_n| = W_n / den_n, with W_n an int map scaled once by the lcm den_n
    weights = []
    for y in ys:
        ints, den = int_scaled(v for _, v in y.items())
        weights.append((dict(zip(y.support, map(abs, ints))), den))
    union_supp = finite_set({e for w, _ in weights for e in w} or {1})
    functionals = norming_sets(family, union_supp)
    keep = maximal_mask(functionals)

    k = len(ys)
    # variables: a_1..a_k, t;  minimize t subject to, per maximal functional
    # s, sum_n a_n |y_n|(s) <= t, with |y_n|(s) = W_n(s) / den_n
    c = [0] * k + [1]
    a_ub = [
        [Fraction(sum(w.get(e, 0) for e in s), den) for w, den in weights] + [-1]
        for s in itertools.compress(functionals, keep)
    ]
    res = solve_lp(c, a_ub, [0] * len(a_ub), [[1] * k + [0]], [1])
    if not res.optimal:
        raise RuntimeError(f"spreading LP unexpectedly {res.status}")
    combo = SparseVector((e, a * v / den) for a, (w, den) in zip(res.x, weights) for e, v in w.items())
    res = certify_left_out_rows(res, keep, combo, family, res.objective)
    return SpreadingResult(res.objective, res.x[:k], res)


def certify_left_out_rows(
    res: LPResult, keep: Sequence[bool], point: SparseVector, family: Family, bound: Fraction
) -> LPResult:
    """``res`` answered for every ub row, kept or not, by one exact norm.

    ``res`` solved an LP whose ub rows are those ``i`` with ``keep[i]``.
    Each row left out reads: the sum of ``point`` over a norming set of
    ``family`` is at most ``bound``.  The largest such sum is
    ``f_norm(point, family)``, so that one call checks every row left out
    (:class:`~schreierkit.lp.LPCertificateError` if one fails).  Each of
    them gets dual 0 in ``dual_ub``, so an optimal result and its
    certificate are those of the LP with every row.
    """
    if f_norm(point, family) > bound:
        raise LPCertificateError("primal violation of a row left out as implied")
    duals = iter(res.dual_ub)
    return res._replace(dual_ub=[next(duals) if kept else Fraction(0) for kept in keep])


def cesaro_profile(
    ys: Sequence[SparseVector], family: Family, p: PValue
) -> list[Union[Fraction, float]]:
    """Norms of the running averages (1/n) sum_{k<=n} y_k for n = 1..len(ys)."""
    if not ys:
        raise ValueError("need at least one vector")
    out = []
    partial = SparseVector()
    for n, y in enumerate(ys, start=1):
        partial = partial + y
        out.append(baernstein_norm(partial.scale(Fraction(1, n)), family, p))
    return out


def alpha_null_witness(
    xs: Sequence[SparseVector],
    beta: OrdinalCNF,
    eps: Fraction,
    window: Iterable[int],
) -> list[int]:
    """Indices n with ||x_n|| at level beta (on the window) at least eps."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    w = set(finite_set(window))
    out = []
    for n, x in enumerate(xs, start=1):
        sub = finite_set(k for k in x.support if k in w)
        fam = schreier_enumerate(beta, sub)
        if f_norm(x.restrict(sub), fam) >= eps:
            out.append(n)
    return out
