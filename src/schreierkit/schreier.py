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

So membership is decided element by element.  The state of a member s is a
persistent chain of frames, one per successor level that the greedy scan of
s passes through.  A frame's blocks are capped by the minimum of the set
being cut there, and a frame keeps only its level and k, how many more
blocks it may open.  Appending e opens a new block at the lowest frame,
which keeps k - 1, and every frame above it extends its current block; the
new block {e} gets fresh frames below, each with k = e - 1.  A frame left
with k = 0 is dropped, so the lowest frame of a nonempty chain is where the
next element goes, and s has a member extension exactly when its chain is
nonempty.  A fresh block's frames depend only on the level and k, which is
also the stage its limit levels descend to, so the chain keeps them as one
lazy run (see :func:`_frame_above`); at omega^4*3 and e = 20 that run stands
for 390,963 frames.  A run that would hold level 1 alone is kept as that
single frame.  So states are canonical: {3} and {5, 6, 7} in S_1 both may
open two more blocks of level 1 and have nothing above, and carry equal
states.

Equal states have equal extensions, and both walks use it, with maps that
live for one call.  :func:`schreier_enumerate` copies the subtree of the
first node with a (state, next index) pair to every later node with it.
Heredity saves more: once a child holds every subset of the labels after
it, so do its later siblings, and those siblings with their subtrees are
that child's subtree one depth up, copied as one slice.  The block product
of S_alpha and S_1 on a window is S_{alpha+1} there, so
:func:`check_inclusion` walks S_{alpha+1} with the states of both levels and
builds no product: from the largest minimum down, it stops at the first
member outside S_beta, and it skips every triple of two states and a next
index that it has met.
All functions are pure.
"""

from __future__ import annotations

import marshal
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
    is a frame at level alpha + 1 that may open one block.
    """
    terms = alpha.terms
    if terms and terms[-1][0] == 0:
        level = terms[:-1] + ((0, terms[-1][1] + 1),)
    else:
        level = terms + ((0, 1),)
    return (level, 1, (), None)


def _step(state: tuple, e: int) -> tuple:
    """The state of s + e, from the nonempty state of s.

    A state is its lowest frame ``(level, k, parent, top)``, or () when no
    frame is left; k >= 1 is how many more blocks the frame may open.  With
    ``top`` None the node is that one frame.  Otherwise it is a run: the
    frames at ``level`` and at each successor level above it in the descent
    from ``top`` by stages k, all with the same k.  Opening a block at the
    lowest frame leaves it k - 1, and a frame with none left is dropped.
    The new block {e} opens a run with k = e - 1 at the level below; a run
    that would hold only level 1 is stored as that one frame.
    """
    level, k, parent, top = state
    if top is not None:
        above = _frame_above(top, k, level)
        if above is not None:
            parent = (above, k, parent, top)
    if k > 1:
        parent = (level, k - 1, parent, None)
    # the new block {e} lives at the level below; its run reaches down to
    # level 1, and when e = 1 its frames have k = 0 and none is kept
    _, c = level[-1]
    delta = level[:-1] if c == 1 else level[:-1] + ((0, c - 1),)
    if e > 1 and delta:
        return (((0, 1),), e - 1, parent, None if delta == ((0, 1),) else delta)
    return parent


def _frame_above(top: tuple, k: int, x: tuple) -> tuple | None:
    """The next successor level above x in the descent from top, or None.

    The descent goes from a successor to its predecessor and from a limit to
    its stage k.  Below the first exponent j at which x is under top, the
    digits of x are at most k - 1, except that the last one may be k.  x + 1
    comes just before x unless that last digit is k and lies below j; then x
    is the stage k of the limit that carries its last digit up, and the walk
    goes on from that limit.
    """
    while x != top:
        i = 0
        while i < len(x) and x[i] == top[i]:
            i += 1
        exp, c = x[-1]
        if c < k or i == len(x) or (i == len(x) - 1 and exp == top[i][0]):
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

    A node's subtree depends only on its state and the index its children
    start at.  The first node with a pair is searched; a later one copies
    that node's subtree from the arrays already written, depths and ends
    shifted by the offsets between the two nodes.  The first node's subtree
    is complete by then, since the later node comes after it in preorder.
    Subtrees over the last two labels, at most three nodes, are searched.

    A child w[i - 1] is full when its subtree holds every subset of w[i:],
    2^(n - i) nodes with itself.  When the entry for the child w[i] is
    popped and ``prev``, its previous sibling, is full, the rest of the
    entry is one copy.  prev's set v + {w[i - 1]} joined with w[i:] is a
    member, so, S_alpha being hereditary, every later sibling v + {w[j]}
    holds every subset of w[j + 1:] too: the later siblings and their
    subtrees, in preorder, are prev's subtree without prev, one depth up,
    ends shifted by the size of that subtree.  A parent never passes for
    ``prev`` here: at its first child's entry its subtree is itself alone.
    """
    w = finite_set(window)
    n = len(w)
    if n > MAX_WINDOW:
        raise ValueError(f"window of size {n} exceeds the limit {MAX_WINDOW}")
    label = [0]
    depth = [0]
    end = [1]
    # first[i]: the state of a node whose children start at w[i] to the first
    # such node.  Format 2 writes no back-references, so equal states marshal
    # to equal bytes, and bytes and ints leave the collector nothing to track
    first = [{} for _ in range(n)]
    stack = [(_start(alpha), 0, 1, 0)] if n else []
    while stack:
        state, i, d, prev = stack.pop()
        k = len(label)
        end[prev] = k
        if k - prev == 1 << (n - i):
            # prev is a full previous sibling: its later siblings are its subtree one depth up
            label += label[prev + 1:k]
            depth += map((-1).__add__, depth[prev + 1:k])
            end += map((k - prev - 1).__add__, end[prev + 1:k])
            continue
        e = w[i]
        label.append(e)
        depth.append(d)
        end.append(k + 1)
        i += 1
        if i < n:
            stack.append((state, i, d, k))
            nxt = _step(state, e)
            if not nxt:
                continue
            j = first[i].setdefault(marshal.dumps(nxt, 2), k) if i < n - 2 else k
            if j == k:
                stack.append((nxt, i, d + 1, k))
                continue
            lo, hi = j + 1, end[j]
            label += label[lo:hi]
            depth += map((d - depth[j]).__add__, depth[lo:hi])
            end += map((k - j).__add__, end[lo:hi])
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
    past the first e with such a bad set.  The walks of all first elements
    share one visited set (see :func:`_finds_bad_set`).

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
    pushed: set[tuple] = set()
    for i in range(n - 2, -1, -1):
        state = _step(product, w[i])
        if state and _finds_bad_set(state, _step(target, w[i]), i + 1, w, pushed):
            return InclusionReport(True, 1 + w[i], None, w)
    return InclusionReport(True, 1, None, w)


def _finds_bad_set(state: tuple, inside: tuple, start: int, w: FiniteSet, pushed: set[tuple]) -> bool:
    """Whether a member of S_{alpha+1} below a node leaves S_beta.

    The node's states in S_{alpha+1} and S_beta are ``state`` and ``inside``,
    and its children start at w[start].  ``pushed`` holds the (S_{alpha+1}
    state, S_beta state, start) triples pushed by earlier calls and gains
    this call's: the walk stops at the first bad set, so a triple met again
    has none below it and is skipped.
    """
    n = len(w)
    # every node on the stack is in S_{alpha+1} and in S_beta and has a
    # child: its S_{alpha+1} state is nonempty and start < n
    stack = [(state, inside, start)]
    while stack:
        state, inside, start = stack.pop()
        if not inside:
            return True
        for j in range(n - 2, start - 1, -1):
            nxt = _step(state, w[j])
            if nxt:
                triple = (nxt, _step(inside, w[j]), j + 1)
                if triple not in pushed:
                    pushed.add(triple)
                    stack.append(triple)
    return False
