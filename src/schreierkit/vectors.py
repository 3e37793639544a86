"""Finite-support vectors over the rationals, indexed by positive integers."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Rational = Union[int, Fraction]


def int_scaled(values: Iterable[Rational]) -> tuple[list[int], int]:
    """``values`` times the lcm of their denominators, as ints, and that lcm.

    int and ``Fraction`` entries are read as they are; any other entry goes
    through ``Fraction`` first.  No values give ``([], 1)``."""
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


class SparseVector:
    """Immutable finite-support map index -> nonzero exact rational.

    Indices are 1-based.  Explicit zeros are dropped on construction.
    """

    __slots__ = ("_coords",)

    def __init__(self, coords: Union[Mapping[int, Rational], Iterable[tuple[int, Rational]]] = ()) -> None:
        items = coords.items() if isinstance(coords, Mapping) else coords
        d: dict[int, Fraction] = {}
        for k, v in items:
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise ValueError(f"indices must be integers >= 1, got {k!r}")
            fv = Fraction(v)
            if fv:
                d[k] = d.get(k, Fraction(0)) + fv
                if not d[k]:
                    del d[k]
        self._coords = d

    @classmethod
    def unit(cls, k: int) -> "SparseVector":
        return cls({k: 1})

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coords))

    def items(self) -> Iterator[tuple[int, Fraction]]:
        for k in sorted(self._coords):
            yield k, self._coords[k]

    def __getitem__(self, k: int) -> Fraction:
        return self._coords.get(k, Fraction(0))

    def __bool__(self) -> bool:
        return bool(self._coords)

    def __len__(self) -> int:
        return len(self._coords)

    def __add__(self, other: "SparseVector") -> "SparseVector":
        out = dict(self._coords)
        for k, v in other._coords.items():
            w = out.get(k, Fraction(0)) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return SparseVector(out)

    def __sub__(self, other: "SparseVector") -> "SparseVector":
        return self + other.scale(-1)

    def scale(self, factor: Rational) -> "SparseVector":
        f = Fraction(factor)
        if not f:
            return SparseVector()
        return SparseVector({k: v * f for k, v in self._coords.items()})

    def __mul__(self, factor: Rational) -> "SparseVector":
        return self.scale(factor)

    __rmul__ = __mul__

    def abs(self) -> "SparseVector":
        return SparseVector({k: abs(v) for k, v in self._coords.items()})

    def restrict(self, indices: Iterable[int]) -> "SparseVector":
        """The projection E x onto the given index set."""
        keep = set(indices)
        return SparseVector({k: v for k, v in self._coords.items() if k in keep})

    def sup_norm(self) -> Fraction:
        return max((abs(v) for v in self._coords.values()), default=Fraction(0))

    def l1_norm(self) -> Fraction:
        return sum((abs(v) for v in self._coords.values()), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._coords == other._coords

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v}" for k, v in self.items())
        return f"SparseVector({{{inner}}})"
