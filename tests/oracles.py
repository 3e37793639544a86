"""Brute-force oracles implemented straight from the definitions.

Everything here deliberately avoids the library's optimized paths (tries,
branch-and-bound, interval DP, pigeonhole shortcuts): quantities are
recomputed by naive enumeration so each test crosses two independent routes.
"""

from __future__ import annotations

import itertools

from schreierkit import OrdinalCNF, fundamental_sequence


def all_subsets(window):
    w = sorted(window)
    for k in range(len(w) + 1):
        yield from itertools.combinations(w, k)


def schreier_member_direct(s) -> bool:
    """#s <= min s, empty set admitted."""
    return not s or len(s) <= s[0]


def schreier_member_naive(alpha: OrdinalCNF, s: tuple[int, ...]) -> bool:
    """Membership in S_alpha by unmemoized search over every block split.

    A successor level tries every cut of s into at most min s consecutive
    blocks; a limit level tries every stage n < min s of its fundamental
    sequence.
    """
    if not s:
        return True
    if alpha.is_zero:
        return len(s) <= 1
    if alpha.is_limit:
        return any(schreier_member_naive(fundamental_sequence(alpha, n), s) for n in range(s[0]))
    delta = alpha.predecessor()

    def splits(rest, blocks_left):
        if not rest:
            return True
        if blocks_left == 0:
            return False
        return any(
            schreier_member_naive(delta, rest[:cut]) and splits(rest[cut:], blocks_left - 1)
            for cut in range(1, len(rest) + 1)
        )

    return splits(s, s[0])


def schreier_level_member(level: int, s: tuple[int, ...]) -> bool:
    """Membership at finite level by unmemoized recursion on block splits."""
    return schreier_member_naive(OrdinalCNF.from_int(level), s)


def family_norm_brute(members, x):
    """max(sup norm, best member sum) by scanning every member.

    Sums start at 0, so coordinates may be ints or Fractions.
    """
    best = max((abs(v) for v in x.values()), default=0)
    for s in members:
        total = sum(abs(x.get(k, 0)) for k in s)
        if total > best:
            best = total
    return best


def block_power_brute(x, members, p: int):
    """sup of sum ||E_i x||^p over ALL block sequences of finite sets.

    A block sequence E_1 < ... < E_n acts on the support through the subset
    it retains and the consecutive runs it cuts that subset into, so
    enumerating (subset, composition) pairs is exhaustive.  Run norms are
    precomputed by plain scans.  Sums start at 0, so coordinates may be ints
    or Fractions.
    """
    support = sorted(k for k, v in x.items() if v)
    m = len(support)
    run_power = {}
    for i in range(m):
        for j in range(i, m):
            sub = {k: x[k] for k in support[i : j + 1]}
            run_power[(i, j)] = family_norm_brute(members, sub) ** p

    best = 0
    for keep in itertools.product((0, 1), repeat=m):
        idx = [i for i, flag in enumerate(keep) if flag]
        if not idx:
            continue
        for cuts in itertools.product((0, 1), repeat=len(idx) - 1):
            total = 0
            start = idx[0]
            prev = idx[0]
            for pos, cut in zip(idx[1:], cuts):
                if cut:
                    total += run_power[(start, prev)]
                    start = pos
                prev = pos
            total += run_power[(start, prev)]
            if total > best:
                best = total
    return best


def eh_set(n: int, r: int, i: int, j: int):
    """All tuples in {1..r}^n with distinct i-th and j-th digits."""
    return [
        a for a in itertools.product(range(1, r + 1), repeat=n) if a[i - 1] != a[j - 1]
    ]
