"""Brute-force oracles implemented straight from the definitions.

Everything here deliberately avoids the library's optimized paths (tries,
branch-and-bound, interval DP, pigeonhole shortcuts): quantities are
recomputed by naive enumeration so each test crosses two independent routes.
The stdlib-only oracles that ``schreierkit verify`` also runs live in
:mod:`schreierkit.oracles` and are re-exported here; the Schreier membership
oracles below use the ordinal arithmetic, and the linear-program oracles
(every vertex visited, and the dense tableau the library's simplex
condenses) serve only the LP tests, so they stay with the tests.
The exceptions are :func:`block_dp_fractions`, the block norm's DP with
a ``Fraction`` per cell, kept as the reference for its float path, with its
rows by :func:`per_row_run_norms`, one member scan per segment;
:func:`solve_lp_dense`, the simplex on its former dense tableau, which
must take the same pivots; and :func:`schreier_enumerate_walk` and
:func:`check_inclusion_walk`, the Schreier searches that visit every node,
with no memo and with states that are not canonical, whose arrays and
reports the library's memoised searches must reproduce.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Sequence

from schreierkit import InclusionReport, OrdinalCNF, fundamental_sequence, norms
from schreierkit.families import Family, finite_set, norming_sets
from schreierkit.lp import LPResult, _certify
from schreierkit.schreier import _frame_above
from schreierkit.tfamily import digit_keys, f_of_u, point_membership
from schreierkit.vectors import Rational, int_scaled
from schreierkit.oracles import (  # noqa: F401  (re-exported)
    block_decomposable,
    block_power_brute,
    disequality_solutions,
    eh_set,
    family_norm_brute,
)


def all_subsets(window):
    w = sorted(window)
    for k in range(len(w) + 1):
        yield from itertools.combinations(w, k)


def trace_brute(members, m):
    """The trace {s & M : s in members}, member by member, in lexicographic order."""
    return sorted({tuple(e for e in s if e in m) for s in members})


def uniform_trace_brute(members, t, size, bound):
    """``find_uniform_trace``'s status and witness by a scan of every member:
    the first size-subset T0 of t, in lexicographic order, that no member
    meets in more than ``bound`` points; the empty trace counts as size 0."""
    for t0 in itertools.combinations(sorted(set(t)), size):
        if max((len(set(s) & set(t0)) for s in members), default=0) <= bound:
            return "found", t0
    return "absent", None


def eps_supports_per_set(xs, family, eps):
    """The eps-supports {n : |f(x_n)| >= eps} of the norming functionals, set by set.

    One int row per vector over each set of ``norming_sets`` on the union
    support: the all-plus pattern where every row is sign-definite, else
    every sign pattern with the first sign fixed, refused beyond
    ``norms.MAX_SIGN_PATTERNS`` (read at call time).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    (bar, *flat), scale = int_scaled([eps, *(v for x in xs for _, v in x.items())])
    coords = iter(flat)
    ints = [dict(zip(x.support, itertools.islice(coords, len(x)))) for x in xs]
    for s in norming_sets(family, finite_set({k for x in xs for k in x.support})):
        rows = [[x.get(k, 0) for k in s] for x in ints]
        definite = all(min(row) >= 0 or max(row) <= 0 for row in rows)
        if not definite and 2 ** (len(s) - 1) > norms.MAX_SIGN_PATTERNS:
            raise ValueError(f"sign enumeration over {len(s)} coordinates refused")
        for signs in itertools.product((1,) if definite else (1, -1), repeat=len(s) - 1):
            theta = (1, *signs)
            yield tuple(
                n for n, row in enumerate(rows, start=1)
                if abs(sum(map(operator.mul, theta, row))) >= bar
            )


def per_row_run_norms(family, support, weights):
    """Row i of the block DP, entry j the family norm of support[i:i + j + 1].

    Each entry is :func:`family_norm_brute` on its segment, a scan of every
    member that shares no code with the trie walks, so it suits short
    supports and small families.
    """
    members = family.members()
    m = len(support)
    return [
        [family_norm_brute(members, dict(zip(support[i:j], weights[i:j]))) for j in range(i + 1, m + 1)]
        for i in range(m)
    ]


def block_dp_fractions(x, family, power):
    """The block norm's interval DP with one ``Fraction`` per cell.

    Each run norm is built as ``Fraction(r, scale)`` and passed to
    ``power``, so ``lambda v: float(v) ** q`` gives, cell for cell and in
    the same summation order, the floats that ``norms.baernstein_norm``
    must reproduce for non-integer p.
    """
    support = x.support
    ints, scale = int_scaled(v for _, v in x.items())
    weights = list(map(abs, ints))
    runs = per_row_run_norms(family, support, weights)
    # best[j]: largest sum of power(||run||_F) over cuts of support[:j] into runs;
    # best[0] = power(0) is the empty sum in the caller's number type
    best = [power(Fraction(0))]
    for j in range(1, len(support) + 1):
        best.append(max(best[i] + power(Fraction(runs[i][j - i - 1], scale)) for i in range(j)))
    return best[-1]


def schreier_member_direct(s) -> bool:
    """#s <= min s, empty set admitted."""
    return not s or len(s) <= s[0]


def schreier_member_naive(alpha: OrdinalCNF, s: tuple[int, ...]) -> bool:
    """Membership in S_alpha by exhaustive search over every block split.

    A successor level tries every cut of s into at most min s consecutive
    blocks; a limit level tries every stage n < min s of its fundamental
    sequence.  Answers for (ordinal, set) pairs are memoized within this one
    call only, so no state outlives it.
    """
    memo: dict[tuple[OrdinalCNF, tuple[int, ...]], bool] = {}

    def member(alpha: OrdinalCNF, s: tuple[int, ...]) -> bool:
        key = (alpha, s)
        if key not in memo:
            memo[key] = decide(alpha, s)
        return memo[key]

    def decide(alpha: OrdinalCNF, s: tuple[int, ...]) -> bool:
        if not s:
            return True
        if alpha.is_zero:
            return len(s) <= 1
        if alpha.is_limit:
            return any(member(fundamental_sequence(alpha, n), s) for n in range(s[0]))
        delta = alpha.predecessor()

        def splits(rest, blocks_left):
            if not rest:
                return True
            if blocks_left == 0:
                return False
            return any(
                member(delta, rest[:cut]) and splits(rest[cut:], blocks_left - 1)
                for cut in range(1, len(rest) + 1)
            )

        return splits(s, s[0])

    return member(alpha, tuple(s))


def schreier_level_member(level: int, s: tuple[int, ...]) -> bool:
    """Membership at finite level by exhaustive block splits, memoized within the call."""
    return schreier_member_naive(OrdinalCNF.from_int(level), s)


def _walk_start(alpha: OrdinalCNF) -> tuple:
    """The empty set's state for :func:`_walk_step`: a frame at level alpha + 1
    with one block allowed and none used."""
    terms = alpha.terms
    if alpha.is_successor:
        level = terms[:-1] + ((0, terms[-1][1] + 1),)
    else:
        level = terms + ((0, 1),)
    return (level, 0, 1, (), None)


def _walk_step(state: tuple, e: int) -> tuple:
    """``schreier._step`` before its states were canonical.

    A frame is ``(level, blocks, least, parent, top)``: a single frame keeps
    the blocks it used and its minimum, and a fresh block's frames are
    always a run, even one that holds only level 1.
    """
    level, blocks, least, parent, top = state
    if top is not None:
        above = _frame_above(top, least - 1, level)
        if above is not None:
            parent = (above, 1, least, parent, top)
    if blocks + 1 < least:
        parent = (level, blocks + 1, least, parent, None)
    _, c = level[-1]
    delta = level[:-1] if c == 1 else level[:-1] + ((0, c - 1),)
    if e > 1 and delta:
        return (((0, 1),), 1, e, parent, delta)
    return parent


def schreier_enumerate_walk(alpha: OrdinalCNF, window) -> Family:
    """``schreier_enumerate`` as a depth-first walk of every node, with no memo.

    A stack entry ``(state, i, d, prev)`` stands for the children w[i], ...
    of a node of depth d - 1 whose state is ``state``; ``prev`` is the node
    appended last before the child w[i], whose subtree ends where it starts.
    """
    w = finite_set(window)
    n = len(w)
    label, depth, end = [0], [0], [1]
    stack = [(_walk_start(alpha), 0, 1, 0)] if n else []
    while stack:
        state, i, d, prev = stack.pop()
        k = len(label)
        end[prev] = k
        e = w[i]
        label.append(e)
        depth.append(d)
        end.append(k + 1)
        i += 1
        if i < n:
            stack.append((state, i, d, k))
            nxt = _walk_step(state, e)
            if nxt:
                stack.append((nxt, i, d + 1, k))
    end[0] = len(label)
    return Family._from_arrays(label, depth, end, bytearray(b"\x01") * len(label), hereditary=True)


def check_inclusion_walk(alpha: OrdinalCNF, beta: OrdinalCNF, window) -> InclusionReport:
    """``check_inclusion`` as a walk of every member of S_{alpha+1}, with no visited set.

    From the largest first element down, a depth-first walk carries the
    states of S_{alpha+1} and S_beta and stops at the first node whose
    S_beta state is empty: its children are the bad sets.
    """
    w = finite_set(window)
    n = len(w)
    if not w:
        return InclusionReport(False, None, None, w)
    product = _walk_start(OrdinalCNF(_walk_start(alpha)[0]))
    target = _walk_start(beta)
    for i in range(n - 2, -1, -1):
        state = _walk_step(product, w[i])
        stack = [(state, _walk_step(target, w[i]), i + 1)] if state else []
        while stack:
            state, inside, start = stack.pop()
            if not inside:
                return InclusionReport(True, 1 + w[i], None, w)
            for j in range(n - 2, start - 1, -1):
                nxt = _walk_step(state, w[j])
                if nxt:
                    stack.append((nxt, _walk_step(inside, w[j]), j + 1))
    return InclusionReport(True, 1, None, w)


def _solve_square(rows, rhs):
    """The unique solution of a square system by Fraction Gaussian elimination, or None."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] / aug[i][i] for i in range(n)]


def lp_vertex_optimum(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """min c.x over A_ub x <= b_ub, A_eq x = b_eq, x >= 0 by visiting every vertex.

    A vertex is a feasible point where n independent constraints hold with
    equality; each n-subset of the constraints (the rows and x_j >= 0) is
    solved as a square system.  The region lies in x >= 0, so it has a
    vertex whenever it is nonempty.  Returns the least objective over the
    vertices, or None when there is none (the LP is infeasible).  Exact for
    LPs with an optimum; the caller keeps the region bounded.
    """
    n = len(c)
    bounds = [[int(i == j) for i in range(n)] for j in range(n)]
    cons = list(zip(a_ub, b_ub)) + list(zip(a_eq, b_eq)) + [(row, 0) for row in bounds]

    def dot(row, x):
        return sum((a * v for a, v in zip(row, x)), Fraction(0))

    best = None
    for tight in itertools.combinations(cons, n):
        x = _solve_square([row for row, _ in tight], [b for _, b in tight])
        if x is None or any(v < 0 for v in x):
            continue
        if any(dot(row, x) > b for row, b in zip(a_ub, b_ub)):
            continue
        if any(dot(row, x) != b for row, b in zip(a_eq, b_eq)):
            continue
        if best is None or dot(c, x) < best:
            best = dot(c, x)
    return best


def solve_lp_dense(
    c: Sequence[Rational],
    a_ub: Sequence[Sequence[Rational]] = (),
    b_ub: Sequence[Rational] = (),
    a_eq: Sequence[Sequence[Rational]] = (),
    b_eq: Sequence[Rational] = (),
) -> LPResult:
    """``schreierkit.lp.solve_lp`` on the dense tableau it replaced.

    The same two-phase Bland simplex with fraction-free pivots, but the
    tableau keeps a column for every variable, basic or not: the basic
    ones as explicit columns d * e_i.  Its pivots, and so its whole
    ``LPResult``, pivot counts included, must be the library's.
    """
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


def sample_point_randint(n, params, seed):
    """Digits of a uniform point of I_n: one ``randint`` per key in canonical order.

    ``seed`` is an int or a ``random.Random`` shared across calls; the
    library's sampler must draw the same digits from the same stream.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return {key: rng.randint(1, params.radix(key[0])) for key in digit_keys(n, params)}


def window_barrier_sets(window_max):
    """Every u in 1..window_max with #u = min u, in lexicographic order."""
    return sorted(u for u in all_subsets(range(1, window_max + 1)) if u and len(u) == u[0])


def transversal_norm_scan(pts, coeffs, params):
    """max |a_i| and, per window barrier set u, the sum of |a_i| over the points in F(u)."""
    best = max((abs(Fraction(a)) for a in coeffs), default=Fraction(0))
    for u in window_barrier_sets(params.window_max):
        sym = f_of_u(u, params)
        inside = [abs(Fraction(a)) for pt, a in zip(pts, coeffs)
                  if pt.n in u and point_membership(pt, sym)]
        best = max(best, sum(inside, Fraction(0)))
    return best


def covering_witness_scan(pts, params):
    """The first window barrier set u with every point in F(u), or None."""
    for u in window_barrier_sets(params.window_max):
        sym = f_of_u(u, params)
        if all(pt.n in u and point_membership(pt, sym) for pt in pts):
            return u
    return None
