"""Interpolation gauges: Minkowski gauges of 2^n W + 2^{-n} B and their
p-aggregated norm, for W the absolutely convex hull of the unit basis.

On finite supports the W-gauge is exactly the l1 coefficient norm (the
closure in the ambient space adds nothing), so the gauge of x is

    min { lam : x = y + z,  ||y||_1 <= 2^n lam,  ||z||_F <= 2^{-n} lam }.

Once the family norm is written as a maximum of member sums (absolute values
linearized), these constraints are jointly linear in (lam, y), so a single
exact rational LP with a verified duality certificate gives the gauge value
itself (Charnes-Cooper homogenization of the fixed-lam inner distance).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .families import Family, maximal_mask, trace
from .lp import LPResult, solve_lp_reduced
from .vectors import SparseVector

DEFAULT_TOLERANCE = Fraction(1, 2**30)


@dataclass(frozen=True)
class GaugeProblem:
    """One gauge evaluation: vector, level n, family.

    ``tolerance`` is validated but ignored: the gauge is computed exactly.
    """

    x: SparseVector
    level: int
    family: Family
    tolerance: Fraction = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


def inner_distance(
    x: SparseVector, family: Family, lam: Fraction, level: int
) -> LPResult:
    """min ||x - lam*w||_F over ||w||_1 <= 2^level, as a certified exact LP.

    Variables: t (the norm value), v_k >= |x_k - lam*w_k|, and w_k split into
    p_k - q_k.  Only support coordinates of x matter: mass of w outside the
    support can be dropped without increasing anything.
    """
    return _distance_lp(x, family, level, lam)


def _distance_lp(
    x: SparseVector, family: Family, level: int, lam: Optional[Fraction]
) -> LPResult:
    """The LP of :func:`inner_distance`, or with ``lam=None`` the gauge LP:
    p, q carry y = lam*w, a last column carries lam, the l1 row reads
    ||y||_1 <= 2^level lam, the row t <= 2^{-level} lam joins, and lam is
    minimized.

    Member sums and single coordinates give one row each, t >= sum of v_k
    over the set, but only the inclusion-maximal sets reach the simplex: the
    v_k are >= 0, so a set's row implies the rows of its subsets.  The rows
    left out are checked exactly against the optimum and get dual 0 (see
    :func:`~schreierkit.lp.solve_lp_reduced`), so the result and its
    certificate are those of the LP with every row."""
    supp = x.support
    if not supp:
        raise ValueError("inner distance needs a nonzero vector")
    pos = {k: idx for idx, k in enumerate(supp)}
    m = len(supp)
    gauge = lam is None
    scale = Fraction(1) if gauge else lam
    # variable layout: [t, v_1..v_m, p_1..p_m, q_1..q_m] (+ [lam] for the gauge)
    nvars = 1 + 3 * m + gauge
    zero = Fraction(0)

    def new_row() -> list[Fraction]:
        return [zero] * nvars

    a_ub: list[list[Fraction]] = []
    b_ub: list[Fraction] = []
    # v_k >= x_k - scale*w_k  and  v_k >= -(x_k - scale*w_k)
    for k in supp:
        i = pos[k]
        row = new_row()
        row[1 + i] = Fraction(-1)
        row[1 + m + i] = -scale
        row[1 + 2 * m + i] = scale
        a_ub.append(row)
        b_ub.append(-x[k])
        row = new_row()
        row[1 + i] = Fraction(-1)
        row[1 + m + i] = scale
        row[1 + 2 * m + i] = -scale
        a_ub.append(row)
        b_ub.append(x[k])
    # family member sums and single coordinates (the sup-norm) stay below t;
    # only the inclusion-maximal sets among them get a row in the simplex
    sums = [s for s in trace(family, supp) if len(s) >= 2] + [(k,) for k in supp]
    for s in sums:
        row = new_row()
        row[0] = Fraction(-1)
        for k in s:
            row[1 + pos[k]] = Fraction(1)
        a_ub.append(row)
        b_ub.append(zero)
    # l1 budget on w
    budget = Fraction(2**level)
    row = new_row()
    for i in range(m):
        row[1 + m + i] = Fraction(1)
        row[1 + 2 * m + i] = Fraction(1)
    if gauge:
        row[-1] = -budget
        a_ub.append(row)
        b_ub.append(zero)
        # t <= 2^{-level} lam
        row = new_row()
        row[0] = Fraction(1)
        row[-1] = -1 / budget
        a_ub.append(row)
        b_ub.append(zero)
    else:
        a_ub.append(row)
        b_ub.append(budget)

    # the 2m rows for v, the member rows, then one or two budget rows
    keep = [True] * (2 * m) + maximal_mask(sums) + [True] * (1 + gauge)
    c = new_row()
    c[-1 if gauge else 0] = Fraction(1)
    res = solve_lp_reduced(c, a_ub, b_ub, keep)
    if not res.optimal:
        raise RuntimeError(f"distance LP unexpectedly {res.status}")
    return res


@dataclass(frozen=True)
class GaugeBracket:
    lo: Fraction
    hi: Fraction
    level: int

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def dfjp_gauge(prob: GaugeProblem) -> GaugeBracket:
    """The exact gauge value from one certified LP, as a zero-width bracket.

    ``prob.tolerance`` is ignored.
    """
    x, level = prob.x, prob.level
    if not x:
        return GaugeBracket(Fraction(0), Fraction(0), level)
    value = _distance_lp(x, prob.family, level, None).objective
    return GaugeBracket(value, value, level)


@dataclass(frozen=True)
class DfjpNormResult:
    """p-aggregation of the gauge sequence with an explicit tail bound.

    ``powered_lo``/``powered_hi`` bound sum over all n >= 1 of gauge^p; the
    tail beyond n_max is controlled by gauge_n <= 2^{-n} ||x||_1, which gives
    the exact geometric remainder recorded in ``tail_powered``.
    """

    brackets: tuple[GaugeBracket, ...]
    powered_lo: Fraction
    powered_hi: Fraction
    tail_powered: Fraction
    p: int

    @property
    def value_lo(self) -> float:
        return float(self.powered_lo) ** (1.0 / self.p)

    @property
    def value_hi(self) -> float:
        return float(self.powered_hi) ** (1.0 / self.p)


def dfjp_norm(
    x: SparseVector,
    family: Family,
    p: Union[int, Fraction] = 2,
    n_max: int = 10,
    tolerance: Fraction = DEFAULT_TOLERANCE,
) -> DfjpNormResult:
    """Two-sided, tail-accounted evaluation of the interpolation norm.

    Levels n = 1..n_max are exact values from :func:`dfjp_gauge`, so
    ``powered_hi - powered_lo == tail_powered``; the remainder is bounded
    through the l1 overestimate of the gauge.  Only integer p > 1 is
    supported exactly.  ``tolerance`` is validated but ignored.
    """
    p = Fraction(p)
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")
    if p.denominator != 1:
        raise ValueError("only integer p is supported in the exact tail bound")
    pint = p.numerator
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not x:
        zero = Fraction(0)
        return DfjpNormResult((), zero, zero, zero, pint)
    brackets = tuple(
        dfjp_gauge(GaugeProblem(x, n, family, tolerance)) for n in range(1, n_max + 1)
    )
    powered_lo = sum((b.lo**pint for b in brackets), Fraction(0))
    powered_hi = sum((b.hi**pint for b in brackets), Fraction(0))
    l1 = x.l1_norm()
    ratio = Fraction(1, 2**pint)
    tail = (l1**pint) * ratio ** (n_max + 1) / (1 - ratio)
    return DfjpNormResult(brackets, powered_lo, powered_hi + tail, tail, pint)
