"""Naive oracles computed straight from the definitions.

No trie, no branch-and-bound, no interval DP and no pigeonhole shortcut: the
family norm scans every member, the block norm enumerates every block
sequence through its trace on the support, block products try every cut,
and digit sets and disequality systems are enumerated tuple by tuple.  The
verify suites and the tests check the fast paths against these, so this
module imports nothing but the standard library.  Oracles that only the
tests use live in the tests' own ``oracles`` module.
"""

from __future__ import annotations

import itertools


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


def block_decomposable(s, f, g) -> bool:
    """Can s be cut into consecutive blocks in f whose minima form a set in g?"""

    def go(rest, mins):
        if not rest:
            return mins in g
        return any(
            rest[:cut] in f and go(rest[cut:], mins + (rest[0],))
            for cut in range(1, len(rest) + 1)
        )

    return go(tuple(s), ())


def eh_set(n: int, r: int, i: int, j: int):
    """All tuples in {1..r}^n with distinct i-th and j-th digits."""
    return [
        a for a in itertools.product(range(1, r + 1), repeat=n) if a[i - 1] != a[j - 1]
    ]


def disequality_solutions(constraints, radix):
    """Yield each assignment of the involved digit keys meeting every pair.

    A key (m, ...) ranges over 1..radix(m); an assignment is a dict from key
    to digit with a != b for every pair (a, b) in constraints.  Lazy, so an
    emptiness check stops at the first solution.
    """
    keys = sorted({k for pair in constraints for k in pair})
    for digits in itertools.product(*(range(1, radix(k[0]) + 1) for k in keys)):
        assign = dict(zip(keys, digits))
        if all(assign[a] != assign[b] for a, b in constraints):
            yield assign
