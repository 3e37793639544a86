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
that is always exact, and then sets d = p.  The cost row is the tableau's
last row, so every pivot updates it with the others.  Ratio tests compare by
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

from .vectors import Rational, int_scaled


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
        ints, scale = int_scaled([*row, b])
        scaled.append(ints)
        scales.append(scale)
    m = len(scaled)
    flips = [-1 if row[-1] < 0 else 1 for row in scaled]
    # column layout: x, one slack per ub row, then one artificial per row
    # that needs one: equalities, and rows flipped to a nonnegative rhs (a
    # flipped slack has coefficient -1, unusable as an initial basis).
    # unit_col[i] is row i's artificial if it has one, else its slack: the
    # column with a 1 in row i and 0 elsewhere, so it starts basic there.
    arts = [i for i in range(m) if i >= n_ub or flips[i] < 0]
    unit_col = [n + i for i in range(m)]
    for k, i in enumerate(arts):
        unit_col[i] = n + n_ub + k
    ncols = n + n_ub + len(arts)
    artificials = set(range(n + n_ub, ncols))

    # The tableau holds ints, rhs last.  Row i < m is the scaled row, flipped;
    # its slack and artificial keep coefficients +-1 and 1, so they stand
    # for scales[i] times the original slack and artificial.  Row m, once
    # set, is the cost row: d times the reduced costs, and -d times the
    # objective value in the rhs slot.
    tableau: list[list[int]] = []
    for i, ints in enumerate(scaled):
        f = flips[i]
        row = [f * v for v in ints[:-1]] + [0] * (ncols - n) + [f * ints[-1]]
        if i < n_ub:
            row[n + i] = f
        row[unit_col[i]] = 1
        tableau.append(row)

    basis = list(unit_col)
    # fraction-free (Edmonds/Bareiss) state: the current canonical tableau is
    # tableau / d, and every pivot divides exactly by the previous pivot d
    d = 1
    pivots = [0, 0]

    def set_objective(costs: list[int]) -> None:
        obj = [d * v for v in costs] + [0]
        for i, b in enumerate(basis):
            cb = costs[b]
            if cb:
                for j, v in enumerate(tableau[i]):
                    if v:
                        obj[j] -= cb * v
        tableau[m:] = [obj]

    def pivot(pi: int, pj: int, phase: int) -> None:
        nonlocal d
        prow = tableau[pi]
        p = prow[pj]
        # the tableau is mostly zeros: scale every entry, then combine with
        # the pivot row only where it is nonzero
        nonzero = [j for j, b in enumerate(prow) if b]
        for i, row in enumerate(tableau):
            f = row[pj]
            if i == pi or (not f and p == d):
                continue
            new = [a * p // d if a else 0 for a in row] if p != d else list(row)
            if f:
                for j in nonzero:
                    new[j] = (p * row[j] - f * prow[j]) // d
            tableau[i] = new
        d = p
        if d < 0:
            # only a phase-1 pivot-out pivots on a negative entry
            d = -d
            for i, row in enumerate(tableau):
                tableau[i] = [-v for v in row]
        basis[pi] = pj
        pivots[phase] += 1

    def run(barred: set[int], phase: int) -> str:
        while True:
            obj = tableau[m]
            enter = next((j for j in range(ncols) if j not in barred and obj[j] < 0), -1)
            if enter < 0:
                return "optimal"
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
                return "unbounded"
            pivot(leave, enter, phase)

    # phase 1: drive artificial variables to zero; the artificial of row i
    # costs 1/scales[i], i.e. 1 per unit of the original artificial
    if arts:
        costs1 = [0] * ncols
        unit = math.lcm(*(scales[i] for i in arts))
        for i in arts:
            costs1[unit_col[i]] = unit // scales[i]
        set_objective(costs1)
        if run(set(), 0) != "optimal" or tableau[m][-1] < 0:
            return LPResult("infeasible", None, None, None, None, None, tuple(pivots))
        # pivot out artificials still basic (at value zero), so phase 2 can
        # never move them; a row with no real column is redundant and inert.
        # These pivots update the phase-1 cost row too, which phase 2 replaces
        for i in range(m):
            if basis[i] in artificials:
                piv = next(
                    (j for j in range(ncols)
                     if j not in artificials and tableau[i][j] != 0),
                    None,
                )
                if piv is not None:
                    pivot(i, piv, 0)

    costs2, cscale = int_scaled(c)
    set_objective(costs2 + [0] * (ncols - n))
    if run(artificials, 1) != "optimal":
        return LPResult("unbounded", None, None, None, None, None, tuple(pivots))

    # the certificate in ints, as the tableau leaves it: x = X/d, objective
    # value/(d cscale), and y_i = Y_i scales[i]/(d cscale), with -flips[i] Y_i
    # the cost row at row i's unit column (scales[i] times the original
    # slack or artificial, so y_i takes the row scale back)
    xs = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            xs[b] = tableau[i][-1]
    value = -tableau[m][-1]
    ys = [-flips[i] * tableau[m][unit_col[i]] for i in range(m)]
    dual_value = _certify(costs2, scaled[:n_ub], scaled[n_ub:], xs, d, value, ys[:n_ub], ys[n_ub:])

    den = d * cscale
    dual = [Fraction(y * scale, den) for y, scale in zip(ys, scales)]
    return LPResult(
        "optimal", [Fraction(v, d) for v in xs], Fraction(value, den),
        dual[:n_ub], dual[n_ub:], Fraction(dual_value, den), tuple(pivots),
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
