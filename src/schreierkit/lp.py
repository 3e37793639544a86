"""Exact linear programming over the rationals.

Two-phase tableau simplex with Bland's anti-cycling rule, so the method
terminates on every input.  Problems are stated as

    minimize c.x   subject to   A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

Entries may be ints or ``Fraction``s, read as they are; any other entry
goes through ``Fraction`` first.  The tableau holds Python ints.  Each row
with its rhs, and the cost vector, is scaled once by the lcm of its
denominators, and pivots are fraction-free Gauss-Jordan steps (Edmonds 1967,
Bareiss 1968): with one common denominator d for the whole tableau, a pivot
on p replaces row i by (p * row_i - row_i[s] * pivot_row) / d, a division
that is always exact, and then sets d = p.  Ratio tests compare by
cross-multiplication, so the pivot sequence is the one Bland's rule takes in
exact rationals.  No float is used anywhere.

Every "optimal" result carries a dual vector and is verified exactly
against every row (primal feasibility, dual feasibility, and equality of the
two objectives).  The check runs in ints, on the scaled rows and on the
certificate as the tableau leaves it: x = X/d and y_i = Y_i scale_i /
(d cscale), with scale_i the scale of row i and cscale that of the costs.
Only then are x, the duals and both objectives read back as ``Fraction``s,
with the scales undone.  A failed check raises :class:`LPCertificateError`,
so an optimal result doubles as a certificate.  Problem sizes here are
small, and no attempt is made at sparse or revised variants.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .vectors import Rational


class LPCertificateError(AssertionError):
    """The simplex produced a solution that fails its own exact certificate."""


class LPResult(NamedTuple):
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


def _int_scaled(values: Sequence[Rational]) -> tuple[list[int], int]:
    """``values`` times the lcm of their denominators, as ints, and that lcm.

    int and ``Fraction`` entries are read as they are; any other entry goes
    through ``Fraction`` first."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def solve_lp(
    c: Sequence[Rational],
    a_ub: Sequence[Sequence[Rational]] = (),
    b_ub: Sequence[Rational] = (),
    a_eq: Sequence[Sequence[Rational]] = (),
    b_eq: Sequence[Rational] = (),
) -> LPResult:
    c, a_ub, b_ub, a_eq, b_eq = list(c), list(a_ub), list(b_ub), list(a_eq), list(b_eq)
    n = len(c)
    if any(len(r) != n for r in a_ub) or any(len(r) != n for r in a_eq):
        raise ValueError("constraint row length does not match len(c)")
    if len(a_ub) != len(b_ub) or len(a_eq) != len(b_eq):
        raise ValueError("rhs length does not match constraint count")

    n_ub = len(a_ub)
    # row i with its rhs last, times scales[i], the lcm of their denominators
    scaled: list[list[int]] = []
    scales: list[int] = []
    for row, b in zip(a_ub + a_eq, b_ub + b_eq):
        ints, scale = _int_scaled([*row, b])
        scaled.append(ints)
        scales.append(scale)
    m = len(scaled)
    flips = [-1 if row[-1] < 0 else 1 for row in scaled]
    # column layout: x, one slack per ub row, then one artificial per row
    # that needs one: equalities, and rows flipped to a nonnegative rhs (a
    # flipped slack has coefficient -1, unusable as an initial basis)
    slack_col: list[Optional[int]] = [n + i if i < n_ub else None for i in range(m)]
    art_col: list[Optional[int]] = []
    ncols = n + n_ub
    for i in range(m):
        if slack_col[i] is None or flips[i] < 0:
            art_col.append(ncols)
            ncols += 1
        else:
            art_col.append(None)

    # The tableau holds ints, rhs last.  Row i is the scaled row, flipped;
    # its slack and artificial keep coefficients +-1 and 1, so they stand
    # for scales[i] times the original slack and artificial.
    tableau: list[list[int]] = []
    for i, ints in enumerate(scaled):
        f = flips[i]
        row = [f * v for v in ints[:-1]] + [0] * (ncols - n) + [f * ints[-1]]
        if slack_col[i] is not None:
            row[slack_col[i]] = f
        if art_col[i] is not None:
            row[art_col[i]] = 1
        tableau.append(row)

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

    # the certificate in ints, as the tableau leaves it: x = X/d, objective
    # value/(d cscale), and y_i = Y_i scales[i]/(d cscale), with -flips[i] Y_i
    # the cost row at row i's unit column (scales[i] times the original
    # slack or artificial, so y_i takes the row scale back)
    xs = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            xs[b] = tableau[i][-1]
    value = -obj2[-1]
    ys = [-flips[i] * obj2[slack_col[i] if art_col[i] is None else art_col[i]] for i in range(m)]
    dual_value = _certify(costs2, scaled[:n_ub], scaled[n_ub:], xs, d, value, ys[:n_ub], ys[n_ub:])

    den = d * cscale
    dual = [Fraction(y * scale, den) for y, scale in zip(ys, scales)]
    return LPResult(
        "optimal", [Fraction(v, d) for v in xs], Fraction(value, den),
        dual[:n_ub], dual[n_ub:], Fraction(dual_value, den), tuple(pivots),
    )


def solve_lp_reduced(
    c: Sequence[Rational],
    a_ub: Sequence[Sequence[Rational]],
    b_ub: Sequence[Rational],
    keep: Sequence[bool],
    a_eq: Sequence[Sequence[Rational]] = (),
    b_eq: Sequence[Rational] = (),
) -> LPResult:
    """:func:`solve_lp` on the ub rows ``i`` with ``keep[i]``, answered for all.

    The caller asserts that every other ub row is implied by the kept rows
    and x >= 0.  Only the kept rows reach :func:`solve_lp`, whose certificate
    covers them.  Each other row is scaled to ints and checked exactly
    against the optimal x, written as X/D over the lcm D of its denominators
    (:class:`LPCertificateError` if it fails), and gets dual 0 in
    ``dual_ub``, so an optimal result and its certificate are those of the
    full LP.
    """
    kept = [i for i, flag in enumerate(keep) if flag]
    res = solve_lp(c, [a_ub[i] for i in kept], [b_ub[i] for i in kept], a_eq, b_eq)
    if not res.optimal:
        return res
    xs, den = _int_scaled(res.x)
    nz = [(j, v) for j, v in enumerate(xs) if v]
    for row, b, flag in zip(a_ub, b_ub, keep):
        if not flag:
            ints, _ = _int_scaled([*row, b])
            if sum(ints[j] * v for j, v in nz) > ints[-1] * den:
                raise LPCertificateError("primal violation of a row left out as implied")
    dual_ub = [Fraction(0)] * len(a_ub)
    for i, y in zip(kept, res.dual_ub):
        dual_ub[i] = y
    return LPResult(
        res.status, res.x, res.objective, dual_ub, res.dual_eq, res.dual_objective, res.pivots
    )


def _certify(costs, ub, eq, xs, d, value, y_ub, y_eq) -> int:
    """Check primal and dual feasibility and strong duality in ints; return Y.B.

    ``costs`` is c times cscale; ``ub`` and ``eq`` hold each row A_i times
    its scale, rhs B_i last.  The certificate is x = X/d with X = ``xs``,
    objective value/(d cscale) and y_i = Y_i scale_i/(d cscale) with
    Y = ``y_ub`` + ``y_eq``, d > 0.  Multiplied through by the positive
    scales, the checks are X >= 0, A.X <= B d (= on eq rows), C.X = value,
    Y <= 0 on ub rows, C_j d - sum_i Y_i A_ij >= 0 and sum_i Y_i B_i =
    value.  Terms with X_j = 0 or Y_i = 0 are skipped, as they add nothing.
    """
    if any(v < 0 for v in xs):
        raise LPCertificateError("primal negativity")
    nz = [(j, v) for j, v in enumerate(xs) if v]
    for row in ub:
        if sum(row[j] * v for j, v in nz) > row[-1] * d:
            raise LPCertificateError("primal ub violation")
    for row in eq:
        if sum(row[j] * v for j, v in nz) != row[-1] * d:
            raise LPCertificateError("primal eq violation")
    if sum(costs[j] * v for j, v in nz) != value:
        raise LPCertificateError("objective mismatch")
    if any(y > 0 for y in y_ub):
        raise LPCertificateError("dual sign violation")
    ys = [(y, row) for y, row in zip(y_ub, ub) if y]
    ys += [(y, row) for y, row in zip(y_eq, eq) if y]
    for j, cj in enumerate(costs):
        if cj * d - sum(y * row[j] for y, row in ys) < 0:
            raise LPCertificateError("dual feasibility violation")
    dual_value = sum(y * row[-1] for y, row in ys)
    if dual_value != value:
        raise LPCertificateError("strong duality violation")
    return dual_value
