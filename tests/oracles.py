"""Brute-force oracles implemented straight from the definitions.

Everything here deliberately avoids the library's optimized paths (tries,
branch-and-bound, interval DP, pigeonhole shortcuts): quantities are
recomputed by naive enumeration so each test crosses two independent routes.
The stdlib-only oracles that ``schreierkit verify`` also runs live in
:mod:`schreierkit.oracles` and are re-exported here; the Schreier membership
oracles below use the ordinal arithmetic, and the linear-program oracle
(every vertex visited) serves only the LP tests, so they stay with the tests.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from schreierkit import OrdinalCNF, fundamental_sequence
from schreierkit.tfamily import digit_keys
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
    """Membership at finite level by unmemoized recursion on block splits."""
    return schreier_member_naive(OrdinalCNF.from_int(level), s)


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


def sample_point_randint(n, params, seed):
    """Digits of a uniform point of I_n: one ``randint`` per key in canonical order.

    ``seed`` is an int or a ``random.Random`` shared across calls; the
    library's sampler must draw the same digits from the same stream.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return {key: rng.randint(1, params.radix(key[0])) for key in digit_keys(n, params)}
