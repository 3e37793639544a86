"""Exact linear programming over the rationals.

Two-phase tableau simplex with Bland's anti-cycling rule, so the method
terminates on every input.  Problems are stated as

    minimize c.x   subject to   A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

Entries may be ints or ``Fraction``s, read as they are; any other entry
goes through ``Fraction`` first.  The tableau holds Python ints.  Each row
with its rhs, and the cost vector, is scaled once by the lcm of its
denominators.  The tableau is condensed (Tucker's form, as in the lrs
method of Avis and Fukuda 1992): one row per basic variable plus the cost
row, one column per nonbasic variable plus the rhs, with ``basis[i]`` and
``cols[j]`` naming the variable of each row and column.  Pivots are
fraction-free (Edmonds 1967, Bareiss 1968) with one common denominator d
for the whole tableau.  A pivot on p = T[r][s] replaces every other row i
by (p T[i][j] - T[i][s] T[r][j]) / d for j != s, a division that is always
exact, and T[i][s] by -T[i][s]; row r keeps its entries except T[r][s] = d.
Then d = p (the tableau is negated if p < 0) and the entering and leaving
variables swap places.  This is the dense pivot with the basic columns,
d times a unit vector, left implicit, so every pivot costs m (n' + 1)
products for n' nonbasic columns instead of m (n' + m + 1).  Bland's rule
picks by variable id: the least nonbasic id with a negative reduced cost
enters, and ratio ties leave by the least basic id.  Ratio tests compare
by cross-multiplication, so the pivot sequence is the one Bland's rule
takes in exact rationals.  No float is used anywhere.

Every "optimal" result carries a dual vector and is verified exactly
against every row (primal feasibility, dual feasibility, and equality of the
two objectives).  Row i's dual is the reduced cost of its slack or
artificial: the cost row at that variable's column while it is nonbasic,
and 0 while it is basic, so the artificials keep their columns in phase 2,
barred from entering.  The check runs in ints, on the scaled rows and on
the certificate as the tableau leaves it: x = X/d and y_i = Y_i scale_i /
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
    # variable ids: x, one slack per ub row, then one artificial per row
    # that needs one: equalities, and rows flipped to a nonnegative rhs (a
    # flipped slack has coefficient -1, unusable as an initial basis).
    # unit_col[i] is row i's artificial if it has one, else its slack: the
    # variable with a 1 in row i and 0 elsewhere, so it starts basic there.
    # Ids n_real and up are the artificials.
    n_real = n + n_ub
    arts = [i for i in range(m) if i >= n_ub or flips[i] < 0]
    unit_col = [n + i for i in range(m)]
    for k, i in enumerate(arts):
        unit_col[i] = n_real + k
    nvars = n_real + len(arts)

    # The condensed tableau holds ints: row i < m for the basic variable
    # basis[i], column j for the nonbasic variable cols[j], rhs last; the
    # basic columns, d times a unit vector, are left implicit.  col_of[v]
    # is the column of a nonbasic v and -1 for a basic one.  Row i < m is
    # the scaled row, flipped; its slack and artificial keep coefficients
    # +-1 and 1, so they stand for scales[i] times the original slack and
    # artificial.  Row m, once set, is the cost row: d times the reduced
    # costs, and -d times the objective value in the rhs slot.
    basis = list(unit_col)
    cols = [*range(n), *(n + i for i in range(n_ub) if flips[i] < 0)]
    col_of = [-1] * nvars
    for j, v in enumerate(cols):
        col_of[v] = j
    tableau: list[list[int]] = []
    for i, ints in enumerate(scaled):
        f = flips[i]
        row = [f * ints[v] if v < n else f * (v == n + i) for v in cols]
        row.append(f * ints[-1])
        tableau.append(row)
    # fraction-free (Edmonds/Bareiss) state: the current canonical tableau is
    # tableau / d, and every pivot divides exactly by the previous pivot d
    d = 1
    pivots = [0, 0]

    def set_objective(costs: list[int]) -> None:
        obj = [d * costs[v] for v in cols] + [0]
        for i, b in enumerate(basis):
            cb = costs[b]
            if cb:
                for j, v in enumerate(tableau[i]):
                    if v:
                        obj[j] -= cb * v
        tableau[m:] = [obj]

    def pivot(r: int, s: int, phase: int) -> None:
        # the dense pivot with the basic columns left implicit: every other
        # row becomes (p * row - f * prow) / d, f its entry in column s, which
        # then holds the leaving variable, -f there; the pivot row keeps its
        # entries but holds d there
        nonlocal d
        prow = tableau[r]
        p = prow[s]
        # with p == d a row changes only where the pivot row is nonzero, by
        # f * prow[j] / d, which is exact too; gauge LPs pivot so often on
        # p == d with a sparse pivot row that this halves their larger solves
        nonzero = [j for j, b in enumerate(prow) if b] if p == d else ()
        for i, row in enumerate(tableau):
            f = row[s]
            if i == r or (not f and p == d):
                continue
            if not f:
                new = [a * p // d if a else 0 for a in row]
            elif p == d:
                new = list(row)
                for j in nonzero:
                    new[j] -= f * prow[j] // d
            else:
                new = [(p * a - f * b) // d for a, b in zip(row, prow)]
            new[s] = -f
            tableau[i] = new
        prow[s] = d
        d = p
        if d < 0:
            # only a phase-1 pivot-out pivots on a negative entry
            d = -d
            for i, row in enumerate(tableau):
                tableau[i] = [-v for v in row]
        entering, leaving = cols[s], basis[r]
        cols[s], basis[r] = leaving, entering
        col_of[leaving], col_of[entering] = s, -1
        pivots[phase] += 1

    def run(limit: int, phase: int) -> str:
        # Bland's rule on variable ids below limit: the least nonbasic id
        # with a negative reduced cost enters
        while True:
            obj = tableau[m]
            enter = min((v for v, o in zip(cols, obj) if o < 0 and v < limit), default=-1)
            if enter < 0:
                return "optimal"
            s = col_of[enter]
            # Bland's ratio test, rhs_i / a_i compared by cross-multiplication
            leave = -1
            for i in range(m):
                a = tableau[i][s]
                if a > 0:
                    if leave < 0:
                        leave = i
                        continue
                    left = tableau[i][-1] * tableau[leave][s]
                    right = tableau[leave][-1] * a
                    if left < right or (left == right and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                return "unbounded"
            pivot(leave, s, phase)

    # phase 1: drive artificial variables to zero; the artificial of row i
    # costs 1/scales[i], i.e. 1 per unit of the original artificial
    if arts:
        costs1 = [0] * nvars
        unit = math.lcm(*(scales[i] for i in arts))
        for i in arts:
            costs1[unit_col[i]] = unit // scales[i]
        set_objective(costs1)
        if run(nvars, 0) != "optimal" or tableau[m][-1] < 0:
            return LPResult("infeasible", None, None, None, None, None, tuple(pivots))
        # pivot out artificials still basic (at value zero), so phase 2 can
        # never move them: on the least real nonbasic id with a nonzero
        # entry; a row with none is redundant and inert.  These pivots
        # update the phase-1 cost row too, which phase 2 replaces
        for i in range(m):
            if basis[i] >= n_real:
                piv = min((v for v, a in zip(cols, tableau[i]) if a and v < n_real), default=-1)
                if piv >= 0:
                    pivot(i, col_of[piv], 0)

    # phase 2 bars the artificials from entering; their columns stay, as
    # the duals of the rows they belong to are read from them
    costs2, cscale = int_scaled(c)
    set_objective(costs2 + [0] * (nvars - n))
    if run(n_real, 1) != "optimal":
        return LPResult("unbounded", None, None, None, None, None, tuple(pivots))

    # the certificate in ints, as the tableau leaves it: x = X/d, objective
    # value/(d cscale), and y_i = Y_i scales[i]/(d cscale), with -flips[i] Y_i
    # the reduced cost of row i's unit variable (scales[i] times the original
    # slack or artificial, so y_i takes the row scale back): the cost row at
    # its column if it is nonbasic, and 0 if it is basic
    obj = tableau[m]
    xs = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            xs[b] = tableau[i][-1]
    value = -obj[-1]
    ys = [-f * obj[j] if j >= 0 else 0 for f, j in zip(flips, (col_of[u] for u in unit_col))]
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
