"""Naive norm oracles computed straight from the definitions.

No trie, no branch-and-bound and no interval DP: the family norm scans every
member, and the block norm enumerates every block sequence through its trace
on the support.  The ``norms`` verify suite and the tests check the fast
paths in :mod:`schreierkit.norms` against these.
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
