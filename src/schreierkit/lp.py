"""Exact linear programming over the rationals.

Two-phase tableau simplex with Bland's anti-cycling rule, so the method
terminates on every input.  Problems are stated as

    minimize c.x   subject to   A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0.

Every "optimal" result carries a dual vector and is verified exactly against
the original data (primal feasibility, dual feasibility, and equality of the
two objectives).  A failed check raises :class:`LPCertificateError`, so an
optimal result doubles as a certificate.  Problem sizes here are tiny, and
no attempt is made at sparse or revised variants.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _frac_matrix(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


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

    m = len(a_ub) + len(a_eq)
    zero = Fraction(0)
    one = Fraction(1)

    # normalized equality system: flip rows to make the rhs nonnegative
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    flips: list[Fraction] = []
    kinds: list[str] = []
    for arow, b in zip(a_ub, b_ub):
        rows.append(list(arow))
        rhs.append(b)
        kinds.append("ub")
    for arow, b in zip(a_eq, b_eq):
        rows.append(list(arow))
        rhs.append(b)
        kinds.append("eq")

    slack_col: list[Optional[int]] = [None] * m
    art_col: list[Optional[int]] = [None] * m
    ncols = n
    for i in range(m):
        if kinds[i] == "ub":
            slack_col[i] = ncols
            ncols += 1
    for i in range(m):
        flip = -one if rhs[i] < 0 else one
        flips.append(flip)
        if flip < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
        # a flipped slack has coefficient -1, unusable as an initial basis
        if kinds[i] == "eq" or flip < 0:
            art_col[i] = ncols
            ncols += 1

    tableau = []
    for i in range(m):
        row = rows[i] + [zero] * (ncols - n)
        if slack_col[i] is not None:
            row[slack_col[i]] = flips[i] * one
        if art_col[i] is not None:
            row[art_col[i]] = one
        tableau.append(row)

    basis = [art_col[i] if art_col[i] is not None else slack_col[i] for i in range(m)]
    assert all(b is not None for b in basis)
    artificials = {col for col in art_col if col is not None}

    def build_objective(costs: list[Fraction]) -> tuple[list[Fraction], Fraction]:
        red = list(costs)
        val = zero
        for i, b in enumerate(basis):
            cb = costs[b]
            if cb:
                val += cb * rhs[i]
                row = tableau[i]
                for j in range(ncols):
                    if row[j]:
                        red[j] -= cb * row[j]
        return red, val

    def pivot(pi: int, pj: int, obj: list[Fraction], objval: Fraction) -> Fraction:
        prow = tableau[pi]
        inv = one / prow[pj]
        if inv != 1:
            tableau[pi] = prow = [v * inv for v in prow]
            rhs[pi] *= inv
        for i in range(m):
            if i == pi:
                continue
            f = tableau[i][pj]
            if f:
                row = tableau[i]
                tableau[i] = [a - f * b for a, b in zip(row, prow)]
                rhs[i] -= f * rhs[pi]
        f = obj[pj]
        if f:
            for j in range(ncols):
                if prow[j]:
                    obj[j] -= f * prow[j]
            objval += f * rhs[pi]
        basis[pi] = pj
        return objval

    def run(obj: list[Fraction], objval: Fraction, barred: set[int]) -> tuple[str, Fraction]:
        while True:
            enter = -1
            for j in range(ncols):
                if j not in barred and obj[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal", objval
            leave = -1
            best: Optional[Fraction] = None
            for i in range(m):
                a = tableau[i][enter]
                if a > 0:
                    ratio = rhs[i] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best = ratio
                        leave = i
            if leave < 0:
                return "unbounded", objval
            objval = pivot(leave, enter, obj, objval)

    # phase 1: drive artificial variables to zero
    if artificials:
        costs1 = [zero] * ncols
        for col in artificials:
            costs1[col] = one
        obj1, val1 = build_objective(costs1)
        status, val1 = run(obj1, val1, barred=set())
        if status != "optimal" or val1 > 0:
            return LPResult("infeasible", None, None, None, None, None)
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
                    val1 = pivot(i, piv, obj1, val1)

    costs2 = c + [zero] * (ncols - n)
    obj2, val2 = build_objective(costs2)
    status, val2 = run(obj2, val2, barred=artificials)
    if status != "optimal":
        return LPResult("unbounded", None, None, None, None, None)

    x = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = rhs[i]

    dual: list[Fraction] = []
    for i in range(m):
        col = art_col[i] if art_col[i] is not None else slack_col[i]
        dual.append(flips[i] * -obj2[col])
    dual_ub = dual[: len(a_ub)]
    dual_eq = dual[len(a_ub):]

    dual_obj = _certify(c, a_ub, b_ub, a_eq, b_eq, x, val2, dual_ub, dual_eq)
    return LPResult("optimal", x, val2, dual_ub, dual_eq, dual_obj)


def _certify(c, a_ub, b_ub, a_eq, b_eq, x, objective, dual_ub, dual_eq) -> Fraction:
    """Check primal and dual feasibility and strong duality; return y.b."""
    if any(v < 0 for v in x):
        raise LPCertificateError("primal negativity")
    for row, b in zip(a_ub, b_ub):
        if sum(a * v for a, v in zip(row, x)) > b:
            raise LPCertificateError("primal ub violation")
    for row, b in zip(a_eq, b_eq):
        if sum(a * v for a, v in zip(row, x)) != b:
            raise LPCertificateError("primal eq violation")
    if sum(ci * v for ci, v in zip(c, x)) != objective:
        raise LPCertificateError("objective mismatch")
    if any(y > 0 for y in dual_ub):
        raise LPCertificateError("dual sign violation")
    for j, cj in enumerate(c):
        reduced = cj
        reduced -= sum(y * row[j] for y, row in zip(dual_ub, a_ub))
        reduced -= sum(y * row[j] for y, row in zip(dual_eq, a_eq))
        if reduced < 0:
            raise LPCertificateError("dual feasibility violation")
    dual_obj = sum((y * b for y, b in zip(dual_ub, b_ub)), Fraction(0)) + sum(
        (y * b for y, b in zip(dual_eq, b_eq)), Fraction(0)
    )
    if dual_obj != objective:
        raise LPCertificateError("strong duality violation")
    return dual_obj
