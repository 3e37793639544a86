"""Generalized Schreier families S_alpha for ordinals alpha < omega^omega.

Ordinals are written in Cantor normal form.  The recursion is the classical
one: S_0 is the family of sets of size at most one, S_{alpha+1} consists of
unions of at most min(s) consecutive blocks drawn from S_alpha, and at limit
stages S_alpha is the union over n of S_{beta_n} shifted beyond n.  The
fundamental sequences (beta_n) are fixed canonically (see
:func:`fundamental_sequence`); any other choice changes the families as sets
but not the structure of anything built on top of them.

Every S_alpha is hereditary, so s is in S_{alpha+1} exactly when one greedy
scan empties s within min(s) cuts: cut off the longest prefix in S_alpha,
then the longest prefix of the rest in S_alpha, and so on.  A shorter block
never saves a block, because the rest of a longer block is still in S_alpha.
Membership is memoized in one cache keyed on (alpha, s), which enumeration
shares; all functions are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .families import Family, FiniteSet, finite_set, otimes

MAX_WINDOW = 24


@dataclass(frozen=True, order=True)
class OrdinalCNF:
    """An ordinal below omega^omega: sum of omega^e * c with exponents decreasing.

    ``terms`` is a tuple of (exponent, coefficient) pairs; the empty tuple
    denotes 0.  Tuple comparison of the terms realizes the ordinal order.
    """

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        last = None
        for e, c in self.terms:
            if e < 0 or c < 1:
                raise ValueError(f"bad CNF term omega^{e}*{c}")
            if last is not None and e >= last:
                raise ValueError("CNF exponents must be strictly decreasing")
            last = e

    @classmethod
    def from_int(cls, n: int) -> "OrdinalCNF":
        if n < 0:
            raise ValueError("ordinal must be >= 0")
        return cls(((0, n),) if n else ())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] == 0

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] >= 1

    def predecessor(self) -> "OrdinalCNF":
        if not self.is_successor:
            raise ValueError(f"{self} is not a successor ordinal")
        e, c = self.terms[-1]
        rest = self.terms[:-1]
        return OrdinalCNF(rest if c == 1 else rest + ((0, c - 1),))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"w*{c}" if c != 1 else "w")
            else:
                parts.append(f"w^{e}*{c}" if c != 1 else f"w^{e}")
        return "+".join(parts)


_TERM_RE = re.compile(r"^(?:w(?:\^(\d+))?(?:\*(\d+))?|(\d+))$")


def parse_ordinal(text: str) -> OrdinalCNF:
    """Parse notation like "w^2*3+w*1+4"; rejects non-CNF term order."""
    text = text.strip().replace(" ", "")
    if text == "0":
        return OrdinalCNF()
    terms = []
    for chunk in text.split("+"):
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse ordinal term {chunk!r}")
        if m.group(3) is not None:
            terms.append((0, int(m.group(3))))
        else:
            exp = int(m.group(1)) if m.group(1) is not None else 1
            coeff = int(m.group(2)) if m.group(2) is not None else 1
            terms.append((exp, coeff))
    return OrdinalCNF(tuple(terms))


def fundamental_sequence(alpha: OrdinalCNF, n: int) -> OrdinalCNF:
    """The n-th stage of the canonical sequence increasing to the limit alpha.

    For alpha = gamma + omega^{k+1} the choice is gamma + omega^k * n; stage
    n = 0 is gamma itself.
    """
    if not alpha.is_limit:
        raise ValueError(f"{alpha} is not a limit ordinal")
    if n < 0:
        raise ValueError("stage must be >= 0")
    e, c = alpha.terms[-1]
    gamma = alpha.terms[:-1] if c == 1 else alpha.terms[:-1] + ((e, c - 1),)
    if n == 0:
        return OrdinalCNF(gamma)
    return OrdinalCNF(gamma + ((e - 1, n),))


@lru_cache(maxsize=None)
def _member(alpha: OrdinalCNF, s: FiniteSet) -> bool:
    if not s:
        return True
    if alpha.is_zero:
        return len(s) <= 1
    if alpha.is_successor:
        # greedy blocks: prefix membership is monotone, so stop at the first failure
        delta = alpha.predecessor()
        i = 0
        for _ in range(s[0]):
            j = i + 1
            while j < len(s) and _member(delta, s[i : j + 1]):
                j += 1
            i = j
            if i == len(s):
                return True
        return False
    # limit: only stages n with s contained in [n+1, oo) can apply
    return any(_member(fundamental_sequence(alpha, n), s) for n in range(s[0]))


def schreier_member(alpha: OrdinalCNF, s: Iterable[int]) -> bool:
    """Decide s in S_alpha by structural recursion on alpha."""
    return _member(alpha, finite_set(s))


def schreier_enumerate(alpha: OrdinalCNF, window: Iterable[int]) -> Family:
    """All members of S_alpha contained in the window.

    The search extends sets element by element and prunes non-members, which
    is sound because every S_alpha is hereditary.
    """
    w = finite_set(window)
    if len(w) > MAX_WINDOW:
        raise ValueError(f"window of size {len(w)} exceeds the limit {MAX_WINDOW}")
    members: list[FiniteSet] = [()]

    def extend(prefix: FiniteSet, start: int) -> None:
        for i in range(start, len(w)):
            cand = prefix + (w[i],)
            if _member(alpha, cand):
                members.append(cand)
                extend(cand, i + 1)

    extend((), 0)
    return Family(members, hereditary=True)


def schreier_family(window: Iterable[int]) -> Family:
    """The Schreier family {s : #s <= min s} on the window (= S_1)."""
    return schreier_enumerate(OrdinalCNF.from_int(1), window)


def barrier_member(s: Iterable[int]) -> bool:
    """Schreier-barrier test: #s equals min s.  The empty set is rejected."""
    t = finite_set(s)
    if not t:
        raise ValueError("the barrier test needs a nonempty set")
    return len(t) == t[0]


@dataclass(frozen=True)
class InclusionReport:
    """Result of the windowed inclusion search (S_alpha x S) | [n, oo) <= S_beta."""

    ok: bool
    shift: int | None
    counterexample: FiniteSet | None
    window: FiniteSet


def check_inclusion(alpha: OrdinalCNF, beta: OrdinalCNF, window: Iterable[int]) -> InclusionReport:
    """Smallest shift n <= #window after which the block product lands in S_beta.

    Checks, for n = 1, 2, ...: every member of (S_alpha x S) on the window
    that lies in [n, oo) belongs to S_beta.
    """
    if not alpha < beta:
        raise ValueError(f"need alpha < beta, got {alpha} vs {beta}")
    w = finite_set(window)
    product = otimes(schreier_enumerate(alpha, w), schreier_family(w), w)
    bad: list[FiniteSet] = sorted(
        (s for s in product if not _member(beta, s)), key=lambda s: (s and s[0]) or 0
    )
    for n in range(1, len(w) + 1):
        remaining = [s for s in bad if not s or s[0] >= n]
        if not remaining:
            return InclusionReport(True, n, None, w)
    return InclusionReport(False, None, bad[0] if bad else None, w)
