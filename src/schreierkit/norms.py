"""Exact evaluation of family norms and the sequence diagnostics built on them.

The central object is the family norm

    ||x||_F = max( ||x||_oo,  max over s in F of  sum_{k in s} |x_k| ),

computed exactly in rationals by branch-and-bound on the family trie.  The
block-aggregated (Baernstein-style) norm, epsilon-support families, uniform
weak bounds, spreading-model constants (via exact LP) and Cesaro profiles
are all derived from it.  The block norm's interval DP takes, for each row
i, the norms of every run support[i:j] from one trie walk
(:func:`~schreierkit.families.best_run_sums`), not one walk per run.

Exactness policy: everything is rational; p-th roots are deferred to output
formatting (:func:`float_root`).  For integer p the p-powered block norm is
the canonical exact result (see :func:`block_p_norm_power`).  Member scans
(the trie walks of :func:`~schreierkit.families.best_set_sum` and of the
block DP's rows, eps-supports and the uniform weak bound) scale their inputs
once by the lcm of the denominators and then add and compare Python ints;
this is still exact and uses no floats.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar, Union

from .families import (
    Family,
    FiniteSet,
    best_run_sums,
    best_set_sum,
    finite_set,
    maximal_mask,
    norming_sets,
)
from .lp import LPResult, solve_lp_reduced
from .schreier import OrdinalCNF, schreier_enumerate
from .vectors import SparseVector

PValue = Union[int, Fraction, float]  # float only for math.inf
T = TypeVar("T", Fraction, float)

#: sign-pattern enumeration cutoff for the eps-support scan
MAX_SIGN_PATTERNS = 2**20


def _is_inf(p: PValue) -> bool:
    return isinstance(p, float) and math.isinf(p)


def f_norm(x: SparseVector, family: Family) -> Fraction:
    """The family norm of x: max of sup-norm and best member sum of |x|."""
    weights = {k: abs(v) for k, v in x.items()}
    return max(x.sup_norm(), best_set_sum(family, weights))


def block_p_norm_power(x: SparseVector, family: Family, p: int) -> Fraction:
    """Exact p-th power of the block-aggregated norm, integer p >= 1.

    The supremum over block sequences E_1 < ... < E_n of sum ||E_i x||_F^p
    is attained on partitions of the support into consecutive intervals
    (dropping points or leaving gaps never helps, by coordinatewise
    monotonicity of the family norm), so an interval dynamic program over
    the support positions is exact.  Row i of the DP gets the norms of all
    runs support[i:j] from one walk of the family trie on the |x_k| scaled
    to ints once per call, so a support of size m costs m walks, not
    m(m+1)/2.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return _block_dp(x, family, lambda v: v**p)


def _block_dp(x: SparseVector, family: Family, power: Callable[[Fraction], T]) -> T:
    # the |x_k| as ints over one common denominator; runs[i][j - i - 1] is
    # ||x restricted to support[i:j]||_F in those units: the larger of the top
    # weight and the best member sum on the run, one trie walk per row i
    support = x.support
    scale = math.lcm(*(v.denominator for _, v in x.items()))
    weights = [abs(v.numerator) * (scale // v.denominator) for _, v in x.items()]
    runs = [
        list(map(max, itertools.accumulate(weights[i:], max),
                 best_run_sums(family, support, weights, i)))
        for i in range(len(support))
    ]
    # best[j]: largest sum of power(||run||_F) over cuts of support[:j] into runs;
    # best[0] = power(0) is the empty sum in the caller's number type
    best = [power(Fraction(0))]
    for j in range(1, len(support) + 1):
        best.append(max(best[i] + power(Fraction(runs[i][j - i - 1], scale)) for i in range(j)))
    return best[-1]


def baernstein_norm(x: SparseVector, family: Family, p: PValue) -> Union[Fraction, float]:
    """Block-aggregated family norm; exact rational for p in {1, oo}.

    For other p the exact p-powered value is computed when p is an integer
    (take the root yourself via :func:`block_p_norm_power` if you need it
    exactly); the returned float is its correctly rounded p-th root.  Rational
    non-integer p falls back to float arithmetic throughout, and a sum of
    powers past float range is refused with ValueError.
    """
    if _is_inf(p):
        return f_norm(x, family)
    p = Fraction(p)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if p.denominator == 1:
        power = block_p_norm_power(x, family, p.numerator)
        if p == 1:
            return power
        return float_root(power, p.numerator)
    q = float(p)
    try:
        total = _block_dp(x, family, lambda v: float(v) ** q)
    except OverflowError:
        total = math.inf
    if math.isinf(total):
        raise ValueError(f"p = {p}: the float block norm overflows; an integer p is exact")
    return total ** (1.0 / q)


def float_root(power: Fraction, p: int) -> float:
    """The p-th root of an exact power as a float.

    When float(power) would overflow, 2^t with t about log2(power) is
    factored out first, so the scaled power lies in (1/2, 2), and the root is
    scaled back by 2^(t/p); otherwise nothing is factored out.  A root that
    does not fit a float is refused with ValueError.
    """
    try:
        return float(power) ** (1.0 / p)
    except OverflowError:
        pass
    t = power.numerator.bit_length() - power.denominator.bit_length()
    try:
        return float(power / 2**t) ** (1.0 / p) * 2.0 ** (t / p)
    except OverflowError:
        raise ValueError(f"the {p}-th root of a {t}-bit power does not fit a float") from None


class NormingSpec(NamedTuple):
    """A norming set induced by a family: signed indicator functionals.

    Describes N = {+-e_k*} union {sum_{k in s} +- e_k* : s in base_family},
    the singleton functionals always included.
    """

    base_family: Family


def _eps_supports(xs: Sequence[SparseVector], family: Family, eps: Fraction) -> Iterator[FiniteSet]:
    """The eps-supports {n : |f(x_n)| >= eps} of the norming functionals.

    A functional acts on the x_n only through its trace on their union
    support, so the sets of :func:`~schreierkit.families.norming_sets` cover
    them all.  Where every x_n is sign-definite on a set, the all-plus
    pattern reaches sum_k |(x_n)_k| for every n at once, so its support
    contains every other pattern's; otherwise each sign pattern is tried
    with the first sign fixed (f and -f share a support), refused beyond
    MAX_SIGN_PATTERNS.  Inputs are scaled to ints once by the common lcm.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    scale = math.lcm(eps.denominator, *(v.denominator for x in xs for _, v in x.items()))
    ints = [{k: v.numerator * (scale // v.denominator) for k, v in x.items()} for x in xs]
    bar = eps.numerator * (scale // eps.denominator)
    for s in norming_sets(family, finite_set({k for x in xs for k in x.support})):
        rows = [[x.get(k, 0) for k in s] for x in ints]
        definite = all(min(row) >= 0 or max(row) <= 0 for row in rows)
        if not definite and 2 ** (len(s) - 1) > MAX_SIGN_PATTERNS:
            raise ValueError(f"sign enumeration over {len(s)} coordinates refused")
        for signs in itertools.product((1,) if definite else (1, -1), repeat=len(s) - 1):
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
    Refused, as the weak bound is, beyond MAX_SIGN_PATTERNS sign patterns.
    """
    return Family([(), *_eps_supports(xs, spec.base_family, eps)])


def uniform_weak_bound(xs: Sequence[SparseVector], spec: NormingSpec, eps: Fraction) -> int:
    """max over functionals f in the norming set of #{n : |f(x_n)| >= eps}.

    The largest eps-support of the scan behind :func:`eps_support_family`,
    or 0 when there is none; exact, refused beyond MAX_SIGN_PATTERNS.
    """
    return max(map(len, _eps_supports(xs, spec.base_family, eps)), default=0)


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

    Only the inclusion-maximal functionals reach the simplex: the convex
    coefficients and the |y_n| are >= 0, so a set's row implies the rows of
    its subsets.  The rows left out are checked exactly against the optimum
    and get dual 0 (see :func:`~schreierkit.lp.solve_lp_reduced`), so
    ``lp`` and its certificate are those of the LP with every row.
    """
    if not ys:
        raise ValueError("need at least one vector")
    # |y_n| = W_n / den_n, with W_n an int map scaled once by the lcm den_n
    weights = []
    for y in ys:
        den = math.lcm(*(v.denominator for _, v in y.items()))
        weights.append(({e: abs(v.numerator) * (den // v.denominator) for e, v in y.items()}, den))
    union_supp = finite_set({e for w, _ in weights for e in w} or {1})
    functionals = norming_sets(family, union_supp)

    k = len(ys)
    # variables: a_1..a_k, t;  minimize t subject to, per functional s,
    # sum_n a_n |y_n|(s) <= t, with |y_n|(s) = W_n(s) / den_n
    c = [0] * k + [1]
    a_ub = [
        [Fraction(sum(w.get(e, 0) for e in s), den) for w, den in weights] + [-1]
        for s in functionals
    ]
    b_ub = [0] * len(functionals)
    a_eq = [[1] * k + [0]]
    b_eq = [1]
    res = solve_lp_reduced(c, a_ub, b_ub, maximal_mask(functionals), a_eq, b_eq)
    if not res.optimal:
        raise RuntimeError(f"spreading LP unexpectedly {res.status}")
    return SpreadingResult(res.objective, res.x[:k], res)


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
        if f_norm(x, fam) >= eps:
            out.append(n)
    return out
