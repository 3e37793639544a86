"""Brute-force oracles implemented straight from the definitions.

Everything here deliberately avoids the library's optimized paths (tries,
branch-and-bound, interval DP, pigeonhole shortcuts): quantities are
recomputed by naive enumeration so each test crosses two independent routes.
The stdlib-only oracles that ``schreierkit verify`` also runs live in
:mod:`schreierkit.oracles` and are re-exported here; the Schreier membership
oracles below use the ordinal arithmetic and stay with the tests.
"""

from __future__ import annotations

import itertools

from schreierkit import OrdinalCNF, fundamental_sequence
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
