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
S_{beta_n} grows with n, so a limit level alpha holds s exactly when its
stage min(s) - 1 does.

So membership is decided element by element, with no cache.  The state of a
member s is a persistent chain of frames, one per successor level that the
greedy scan of s passes through: the level, the blocks used there and the
minimum of the set being cut there, which caps the blocks.  Appending e
opens a new block at the lowest frame with a block to spare, and every frame
above it extends its current block; the new block {e} gets fresh frames
below.  With no frame to spare, s + e is not a member.  Only frames with a
block to spare are kept, so the lowest frame of a nonempty chain is where
the next element goes, and s has a member extension exactly when its chain
is nonempty.  A fresh block's frames all hold one block and minimum e, and
they depend only on the level and e, so the chain keeps them as one lazy run
(see :func:`_frame_above`); at omega^4*3 and e = 20 that run stands for
390,963 frames.

The block product of S_alpha and S_1 on a window is S_{alpha+1} there, so
:func:`check_inclusion` walks S_{alpha+1} with the states of both levels and
builds no product: from the largest minimum down, it stops at the first
member outside S_beta.
All functions are pure.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .families import Family, FiniteSet, finite_set

MAX_WINDOW = 24


class _CNFTerms(NamedTuple):
    terms: tuple[tuple[int, int], ...] = ()


class OrdinalCNF(_CNFTerms):
    """An ordinal below omega^omega: sum of omega^e * c with exponents decreasing.

    ``terms`` is a tuple of (exponent, coefficient) pairs; the empty tuple
    denotes 0.  Tuple comparison of the terms realizes the ordinal order.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "OrdinalCNF":
        self = super().__new__(cls, *args, **kwargs)
        last = None
        for e, c in self.terms:
            if e < 0 or c < 1:
                raise ValueError(f"bad CNF term omega^{e}*{c}")
            if last is not None and e >= last:
                raise ValueError("CNF exponents must be strictly decreasing")
            last = e
        return self

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


def _start(alpha: OrdinalCNF) -> tuple:
    """The state of the empty set in S_alpha.

    A member of S_alpha is one block of S_{alpha+1}, so the empty set's state
    is a frame at level alpha + 1 with one block allowed and none used.
    """
    terms = alpha.terms
    if terms and terms[-1][0] == 0:
        level = terms[:-1] + ((0, terms[-1][1] + 1),)
    else:
        level = terms + ((0, 1),)
    return (level, 0, 1, (), None)


def _step(state: tuple, e: int) -> tuple:
    """The state of s + e, from the nonempty state of s.

    A state is its lowest frame ``(level, blocks, min, parent, top)``, or ()
    when no frame is left.  With ``top`` None the node is one frame.
    Otherwise it is a run: the frames at ``level`` and at each successor level
    above it in the descent from ``top`` by stages ``min`` - 1, all with one
    block used and minimum ``min``.
    """
    level, blocks, least, parent, top = state
    if top is not None:
        above = _frame_above(top, least, level)
        if above is not None:
            parent = (above, 1, least, parent, top)
    if blocks + 1 < least:
        parent = (level, blocks + 1, least, parent, None)
    # the new block {e} lives at the level below; its run reaches down to
    # level 1, and when e = 1 every frame of it is full from the start
    _, c = level[-1]
    delta = level[:-1] if c == 1 else level[:-1] + ((0, c - 1),)
    if e > 1 and delta:
        return (((0, 1),), 1, e, parent, delta)
    return parent


def _frame_above(top: tuple, e: int, x: tuple) -> tuple | None:
    """The next successor level above x in the descent from top, or None.

    The descent goes from a successor to its predecessor and from a limit to
    its stage e - 1.  Below the first exponent j at which x is under top, the
    digits of x are at most e - 2, except that the last one may be e - 1.
    x + 1 comes just before x unless that last digit is e - 1 and lies below
    j; then x is the stage e - 1 of the limit that carries its last digit up,
    and the walk goes on from that limit.
    """
    while x != top:
        i = 0
        while i < len(x) and x[i] == top[i]:
            i += 1
        exp, c = x[-1]
        if c < e - 1 or i == len(x) or (i == len(x) - 1 and exp == top[i][0]):
            return x[:-1] + ((0, c + 1),) if exp == 0 else x + ((0, 1),)
        if len(x) > 1 and x[-2][0] == exp + 1:
            x = x[:-2] + ((exp + 1, x[-2][1] + 1),)
        else:
            x = x[:-1] + ((exp + 1, 1),)
    return None


def schreier_member(alpha: OrdinalCNF, s: Iterable[int]) -> bool:
    """Decide s in S_alpha by stepping the greedy state through s.

    Only the state of s without its last element matters: a set extends by
    any larger element exactly when its state is nonempty.
    """
    state = _start(alpha)
    for e in finite_set(s)[:-1]:
        state = _step(state, e)
        if not state:
            return False
    return True


def schreier_enumerate(alpha: OrdinalCNF, window: Iterable[int]) -> Family:
    """All members of S_alpha contained in the window.

    A depth-first search carries each member's state and appends the members
    to the family's preorder arrays as it meets them, siblings in ascending
    order.  Every extension of a member by a larger element is a member
    exactly when the member's state is nonempty, so the search never builds
    a non-member, and every node is a member.

    A stack entry ``(state, i, d, prev)`` stands for the children w[i], ...
    of a node of depth d - 1 whose state is ``state``.  A node is appended
    with its subtree's end one past itself, which holds for a leaf, so for
    the last child w[-1].  ``prev`` is the node appended last before the
    child w[i]: its previous sibling, whose subtree ends where the child
    starts, or its parent, whose end already says so then.
    """
    w = finite_set(window)
    n = len(w)
    if n > MAX_WINDOW:
        raise ValueError(f"window of size {n} exceeds the limit {MAX_WINDOW}")
    label = [0]
    depth = [0]
    end = [1]
    stack = [(_start(alpha), 0, 1, 0)] if n else []
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
            nxt = _step(state, e)
            if nxt:
                stack.append((nxt, i, d + 1, k))
    end[0] = len(label)
    return Family._from_arrays(label, depth, end, bytearray(b"\x01") * len(label), hereditary=True)


def schreier_family(window: Iterable[int]) -> Family:
    """The Schreier family {s : #s <= min s} on the window (= S_1)."""
    return schreier_enumerate(OrdinalCNF.from_int(1), window)


def barrier_member(s: Iterable[int]) -> bool:
    """Schreier-barrier test: #s equals min s.  The empty set is rejected."""
    t = finite_set(s)
    if not t:
        raise ValueError("the barrier test needs a nonempty set")
    return len(t) == t[0]


class InclusionReport(NamedTuple):
    """Result of the windowed inclusion search (S_alpha x S) | [n, oo) <= S_beta."""

    ok: bool
    shift: int | None
    counterexample: FiniteSet | None
    window: FiniteSet


def check_inclusion(alpha: OrdinalCNF, beta: OrdinalCNF, window: Iterable[int]) -> InclusionReport:
    """Smallest shift n <= #window after which the block product lands in S_beta.

    The block product of S_alpha and S_1 on the window, the unions of at most
    min(s) consecutive S_alpha-blocks, is S_{alpha+1} on the window.  First
    elements e are tried from the largest down; for each, a depth-first walk
    over the members of S_{alpha+1} carries the states of both levels and
    stops at the first member outside S_beta: S_beta is hereditary, so that
    is a child of a prefix whose S_beta state is empty.  The shift is one
    past the first e with such a bad set.

    A bad set s has #s > min s, because S_1 lies in S_beta, so 1 + min s <=
    #window: the report fails only on an empty window, and
    ``counterexample`` is always None.
    """
    if not alpha < beta:
        raise ValueError(f"need alpha < beta, got {alpha} vs {beta}")
    w = finite_set(window)
    n = len(w)
    if n > MAX_WINDOW:
        raise ValueError(f"window of size {n} exceeds the limit {MAX_WINDOW}")
    if not w:
        return InclusionReport(False, None, None, w)
    # _start(alpha) holds the level alpha + 1 as its term tuple
    product = _start(OrdinalCNF(_start(alpha)[0]))
    target = _start(beta)
    for i in range(n - 2, -1, -1):
        # every node on the stack is in S_{alpha+1} and in S_beta and has a
        # child: its S_{alpha+1} state is nonempty and start < n
        state = _step(product, w[i])
        stack = [(state, _step(target, w[i]), i + 1)] if state else []
        while stack:
            state, inside, start = stack.pop()
            if not inside:
                return InclusionReport(True, 1 + w[i], None, w)
            for j in range(n - 2, start - 1, -1):
                nxt = _step(state, w[j])
                if nxt:
                    stack.append((nxt, _step(inside, w[j]), j + 1))
    return InclusionReport(True, 1, None, w)
