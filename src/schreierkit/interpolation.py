"""Interpolation gauges: Minkowski gauges of 2^n W + 2^{-n} B and their
p-aggregated norm, for W the absolutely convex hull of the unit basis.

On finite supports the W-gauge is exactly the l1 coefficient norm (the
closure in the ambient space adds nothing), so the gauge of x is

    min { lam : x = y + z,  ||y||_1 <= 2^n lam,  ||z||_F <= 2^{-n} lam }.

Both norms are lattice norms: they depend only on |y| and |z|, and grow
with each |coordinate|.  So an optimal split can be taken sign-aligned with
x and with |y_k| + |z_k| = |x_k| (replace y_k by sign(x_k) min(|y_k|, |x_k|)
and z_k by the rest: neither |coordinate| grows).  The split is then one
number z_k in [0, |x_k|] per support coordinate, ||y||_1 is the sum of
|x_k| - z_k, and ||z||_F is the largest sum of z_k over a norming set.  These
constraints are jointly linear in (z, lam), so a single exact rational LP
with a verified duality certificate gives the gauge value itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .families import Family, maximal_mask, norming_sets
from .lp import LPResult, solve_lp_reduced
from .norms import float_root
from .vectors import Rational, SparseVector

DEFAULT_TOLERANCE = Fraction(1, 2**30)


class _GaugeFields(NamedTuple):
    x: SparseVector
    level: int
    family: Family
    tolerance: Fraction = DEFAULT_TOLERANCE


class GaugeProblem(_GaugeFields):
    """One gauge evaluation: vector, level n, family.

    ``tolerance`` is validated but ignored: the gauge is computed exactly.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "GaugeProblem":
        self = super().__new__(cls, *args, **kwargs)
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        return self


def inner_distance(
    x: SparseVector, family: Family, lam: Fraction, level: int
) -> LPResult:
    """min ||x - lam*w||_F over ||w||_1 <= 2^level, as a certified exact LP.

    With y = lam*w this is the least ||z||_F over splits x = y + z with
    ||y||_1 <= 2^level |lam|; by the sign-alignment argument of the module
    docstring the variables are z_k = |x_k| - |y_k| in [0, |x_k|], one per
    support coordinate of x, and t, the norm value.
    """
    return _distance_lp(x, family, level, lam)


def _distance_lp(
    x: SparseVector, family: Family, level: int, lam: Optional[Fraction]
) -> LPResult:
    """The LP of :func:`inner_distance`, or with ``lam=None`` the gauge LP.

    Columns: z_1..z_m for the m support coordinates of x, then t (the norm
    of z) for the inner distance, or lam for the gauge, minimized.  Rows:
    z_k <= |x_k|; for each norming set s, sum of z_k over s <= t, or
    <= 2^{-level} lam; and ||y||_1 = sum of (|x_k| - z_k) <= 2^level |lam|,
    or <= 2^level lam.  z_k stands for |z_k| of a sign-aligned split, which
    loses nothing because both norms are monotone in each |coordinate|.

    Only the inclusion-maximal norming sets reach the simplex: the z_k are
    >= 0, so a set's row implies the rows of its subsets.  The rows left out
    are checked exactly against the optimum and get dual 0 (see
    :func:`~schreierkit.lp.solve_lp_reduced`), so the result and its
    certificate are those of the LP with every row."""
    supp = x.support
    if not supp:
        raise ValueError("inner distance needs a nonzero vector")
    m = len(supp)
    pos = {k: i for i, k in enumerate(supp)}
    absx = [abs(x[k]) for k in supp]
    budget = 2**level
    gauge = lam is None
    a_ub: list[list[Rational]] = []
    b_ub: list[Rational] = []
    # z_k <= |x_k|
    for i in range(m):
        row = [0] * (m + 1)
        row[i] = 1
        a_ub.append(row)
        b_ub.append(absx[i])
    # sum of z_k over each norming set <= t, or <= 2^{-level} lam
    sets = norming_sets(family, supp)
    last = Fraction(-1, budget) if gauge else -1
    for s in sets:
        row = [0] * (m + 1)
        for k in s:
            row[pos[k]] = 1
        row[m] = last
        a_ub.append(row)
        b_ub.append(0)
    # ||y||_1 = ||x||_1 - sum of z_k <= 2^level lam, or <= 2^level |lam|
    a_ub.append([-1] * m + [-budget if gauge else 0])
    b_ub.append((0 if gauge else budget * abs(lam)) - sum(absx))

    keep = [True] * m + maximal_mask(sets) + [True]
    c = [0] * m + [1]
    res = solve_lp_reduced(c, a_ub, b_ub, keep)
    if not res.optimal:
        raise RuntimeError(f"distance LP unexpectedly {res.status}")
    return res


class GaugeBracket(NamedTuple):
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


class DfjpNormResult(NamedTuple):
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
        return float_root(self.powered_lo, self.p)

    @property
    def value_hi(self) -> float:
        return float_root(self.powered_hi, self.p)


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
