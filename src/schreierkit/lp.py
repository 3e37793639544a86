"""Exact linear programming over the rationals.

Two-phase tableau simplex with Bland's anti-cycling rule, so the method
terminates on every input.  Problems are stated as

    minimize c.x   subject to   A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

The tableau holds Python ints.  Each row, and each cost vector, is scaled
once by the lcm of its denominators, and pivots are fraction-free
Gauss-Jordan steps (Edmonds 1967, Bareiss 1968): with one common denominator
d for the whole tableau, a pivot on p replaces row i by
(p * row_i - row_i[s] * pivot_row) / d, a division that is always exact,
and then sets d = p.  Ratio tests compare by cross-multiplication, so the
pivot sequence is the one Bland's rule takes in exact rationals.  The
primal point and the duals are read back as ``Fraction``s with the row
scales undone, and no float is used anywhere.

Every "optimal" result carries a dual vector and is verified exactly, in
``Fraction``s, against the original data (primal feasibility, dual
feasibility, and equality of the two objectives).  A failed check raises
:class:`LPCertificateError`, so an optimal result doubles as a certificate.
Problem sizes here are small, and no attempt is made at sparse or revised
variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence


class LPCertificateError(AssertionError):
    """The simplex produced a solution that fails its own exact certificate."""


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[list[Fraction]]
    objective: Optional[Fraction]
    dual_ub: Optional[list[Fraction]]
    dual_eq: Optional[list[Fraction]]
    dual_objective: Optional[Fraction]
    pivots: tuple[int, int]  # (phase 1, phase 2); phase 1 includes the pivot-outs

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _frac_matrix(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


def _int_scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``values`` times the lcm of their denominators, as ints, and that lcm."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def solve_lp(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]] = (),
    b_ub: Sequence[Fraction] = (),
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> LPResult:
    c = [Fraction(v) for v in c]
    a_ub = _frac_matrix(a_ub)
    b_ub = [Fraction(v) for v in b_ub]
    a_eq = _frac_matrix(a_eq)
    b_eq = [Fraction(v) for v in b_eq]
    n = len(c)
    if any(len(r) != n for r in a_ub) or any(len(r) != n for r in a_eq):
        raise ValueError("constraint row length does not match len(c)")
    if len(a_ub) != len(b_ub) or len(a_eq) != len(b_eq):
        raise ValueError("rhs length does not match constraint count")

    rows = a_ub + a_eq
    rhs = b_ub + b_eq
    m = len(rows)
    flips = [-1 if b < 0 else 1 for b in rhs]
    # column layout: x, one slack per ub row, then one artificial per row
    # that needs one: equalities, and rows flipped to a nonnegative rhs (a
    # flipped slack has coefficient -1, unusable as an initial basis)
    slack_col: list[Optional[int]] = [n + i if i < len(a_ub) else None for i in range(m)]
    art_col: list[Optional[int]] = []
    ncols = n + len(a_ub)
    for i in range(m):
        if slack_col[i] is None or flips[i] < 0:
            art_col.append(ncols)
            ncols += 1
        else:
            art_col.append(None)

    # The tableau holds ints, rhs last.  Row i is the original row and rhs,
    # flipped and multiplied by scales[i], the lcm of their denominators; its
    # slack and artificial keep coefficients +-1 and 1, so they stand for
    # scales[i] times the original slack and artificial.
    tableau: list[list[int]] = []
    scales: list[int] = []
    for i in range(m):
        ints, scale = _int_scaled(rows[i] + [rhs[i]])
        row = [flips[i] * v for v in ints[:-1]] + [0] * (ncols - n) + [flips[i] * ints[-1]]
        if slack_col[i] is not None:
            row[slack_col[i]] = flips[i]
        if art_col[i] is not None:
            row[art_col[i]] = 1
        tableau.append(row)
        scales.append(scale)

    basis = [art_col[i] if art_col[i] is not None else slack_col[i] for i in range(m)]
    artificials = {col for col in art_col if col is not None}
    # fraction-free (Edmonds/Bareiss) state: the current canonical tableau is
    # tableau / d, and every pivot divides exactly by the previous pivot d
    d = 1
    pivots = [0, 0]

    def build_objective(costs: list[int]) -> list[int]:
        # d * (reduced costs), and -d * (objective value) in the rhs slot
        obj = [d * v for v in costs] + [0]
        for i, b in enumerate(basis):
            cb = costs[b]
            if cb:
                row = tableau[i]
                for j, v in enumerate(row):
                    if v:
                        obj[j] -= cb * v
        return obj

    def pivot(pi: int, pj: int, obj: Optional[list[int]], phase: int) -> Optional[list[int]]:
        nonlocal d
        prow = tableau[pi]
        p = prow[pj]
        # the tableau is mostly zeros: scale every entry, then combine with
        # the pivot row only where it is nonzero
        nonzero = [j for j, b in enumerate(prow) if b]

        def combine(row: list[int]) -> list[int]:
            f = row[pj]
            new = [a * p // d if a else 0 for a in row] if p != d else list(row)
            if f:
                for j in nonzero:
                    new[j] = (p * row[j] - f * prow[j]) // d
            return new

        for i in range(m):
            if i != pi and (tableau[i][pj] or p != d):
                tableau[i] = combine(tableau[i])
        if obj is not None:
            obj = combine(obj)
        d = p
        if d < 0:
            # only a phase-1 pivot-out pivots on a negative entry
            d = -d
            for i in range(m):
                tableau[i] = [-v for v in tableau[i]]
            if obj is not None:
                obj = [-v for v in obj]
        basis[pi] = pj
        pivots[phase] += 1
        return obj

    def run(obj: list[int], barred: set[int], phase: int) -> tuple[str, list[int]]:
        while True:
            enter = next((j for j in range(ncols) if j not in barred and obj[j] < 0), -1)
            if enter < 0:
                return "optimal", obj
            # Bland's ratio test, rhs_i / a_i compared by cross-multiplication
            leave = -1
            for i in range(m):
                a = tableau[i][enter]
                if a > 0:
                    if leave < 0:
                        leave = i
                        continue
                    left = tableau[i][-1] * tableau[leave][enter]
                    right = tableau[leave][-1] * a
                    if left < right or (left == right and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                return "unbounded", obj
            obj = pivot(leave, enter, obj, phase)

    # phase 1: drive artificial variables to zero; the artificial of row i
    # costs 1/scales[i], i.e. 1 per unit of the original artificial
    if artificials:
        costs1 = [0] * ncols
        unit = math.lcm(*(scales[i] for i in range(m) if art_col[i] is not None))
        for i in range(m):
            if art_col[i] is not None:
                costs1[art_col[i]] = unit // scales[i]
        status, obj1 = run(build_objective(costs1), set(), 0)
        if status != "optimal" or obj1[-1] < 0:
            return LPResult("infeasible", None, None, None, None, None, tuple(pivots))
        # pivot out artificials still basic (at value zero), so phase 2 can
        # never move them; a row with no real column is redundant and inert
        for i in range(m):
            if basis[i] in artificials:
                piv = next(
                    (j for j in range(ncols)
                     if j not in artificials and tableau[i][j] != 0),
                    None,
                )
                if piv is not None:
                    pivot(i, piv, None, 0)

    costs2, cscale = _int_scaled(c)
    status, obj2 = run(build_objective(costs2 + [0] * (ncols - n)), artificials, 1)
    if status != "optimal":
        return LPResult("unbounded", None, None, None, None, None, tuple(pivots))

    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tableau[i][-1], d)
    objective = Fraction(-obj2[-1], d * cscale)

    # undo the row scales: the unit column of row i is scales[i] times the
    # original slack or artificial, so its reduced cost is 1/scales[i] times
    dual: list[Fraction] = []
    for i in range(m):
        col = art_col[i] if art_col[i] is not None else slack_col[i]
        dual.append(Fraction(-flips[i] * scales[i] * obj2[col], d * cscale))
    dual_ub = dual[: len(a_ub)]
    dual_eq = dual[len(a_ub):]

    dual_obj = _certify(c, a_ub, b_ub, a_eq, b_eq, x, objective, dual_ub, dual_eq)
    return LPResult("optimal", x, objective, dual_ub, dual_eq, dual_obj, tuple(pivots))


def solve_lp_reduced(
    c: Sequence[Fraction],
    a_ub: Sequence[Sequence[Fraction]],
    b_ub: Sequence[Fraction],
    keep: Sequence[bool],
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
) -> LPResult:
    """:func:`solve_lp` on the ub rows ``i`` with ``keep[i]``, answered for all.

    The caller asserts that every other ub row is implied by the kept rows
    and x >= 0.  Each such row is checked exactly against the optimal x
    (:class:`LPCertificateError` if it fails) and gets dual 0 in ``dual_ub``,
    so an optimal result and its certificate are those of the full LP.
    """
    kept = [i for i, flag in enumerate(keep) if flag]
    res = solve_lp(c, [a_ub[i] for i in kept], [b_ub[i] for i in kept], a_eq, b_eq)
    if not res.optimal:
        return res
    dual_ub = [Fraction(0)] * len(a_ub)
    for i, y in zip(kept, res.dual_ub):
        dual_ub[i] = y
    for row, b, flag in zip(a_ub, b_ub, keep):
        if not flag and sum(Fraction(a) * v for a, v in zip(row, res.x) if a) > b:
            raise LPCertificateError("primal violation of a row left out as implied")
    return replace(res, dual_ub=dual_ub)


def _certify(c, a_ub, b_ub, a_eq, b_eq, x, objective, dual_ub, dual_eq) -> Fraction:
    """Check primal and dual feasibility and strong duality; return y.b.

    Every check is exact; terms with x_j = 0 or y_i = 0 are skipped, as they
    add nothing to the sums.
    """
    if any(v < 0 for v in x):
        raise LPCertificateError("primal negativity")
    xs = [(j, v) for j, v in enumerate(x) if v]
    for row, b in zip(a_ub, b_ub):
        if sum(row[j] * v for j, v in xs) > b:
            raise LPCertificateError("primal ub violation")
    for row, b in zip(a_eq, b_eq):
        if sum(row[j] * v for j, v in xs) != b:
            raise LPCertificateError("primal eq violation")
    if sum(c[j] * v for j, v in xs) != objective:
        raise LPCertificateError("objective mismatch")
    if any(y > 0 for y in dual_ub):
        raise LPCertificateError("dual sign violation")
    ys = [(y, row, b) for y, row, b in zip(dual_ub, a_ub, b_ub) if y]
    ys += [(y, row, b) for y, row, b in zip(dual_eq, a_eq, b_eq) if y]
    for j, cj in enumerate(c):
        if cj - sum(y * row[j] for y, row, _ in ys) < 0:
            raise LPCertificateError("dual feasibility violation")
    dual_obj = sum((y * b for y, _, b in ys), Fraction(0))
    if dual_obj != objective:
        raise LPCertificateError("strong duality violation")
    return dual_obj
