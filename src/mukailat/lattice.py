"""Integral lattices: bilinear forms, spans, saturation, discriminants.

An :class:`IntegralLattice` is a free Z-module of finite rank carrying an
integer symmetric bilinear form (its Gram matrix in a fixed basis).  Vectors
are plain tuples of integers; ``pair`` also takes rationals such as
``Fraction``s.  All values are immutable and all operations are pure
functions, so everything is safe to share across threads.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, prod
from operator import mul
from typing import Iterator, NamedTuple

from . import intlinalg
from .errors import LatticeError
from .intlinalg import IntMatrix


class DiscriminantGroup(NamedTuple):
    """The finite abelian group dual/lattice for a nondegenerate lattice.

    ``invariant_factors`` are the elementary divisors larger than 1 in
    divisibility order; ``order`` is their product (1 for a unimodular
    lattice) and equals ``abs(det(gram))``.
    """

    invariant_factors: tuple[int, ...]
    order: int


class IntegralLattice:
    """A free Z-module with an integer symmetric bilinear form, given by its Gram matrix ``gram``."""

    def __init__(self, gram):
        rows = intlinalg.freeze_matrix(gram)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise LatticeError("invalid-matrix", "Gram matrix must be square of positive rank")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise LatticeError("invalid-matrix", "Gram matrix must be symmetric")
        self.gram: IntMatrix = rows

    @cached_property
    def _terms(self) -> tuple[tuple[int, int, int], ...]:
        """The ``(i, j, g)`` with ``g = gram[i][j] != 0``, row by row.

        Every pairing is one sum over these alone: Mukai Grams are mostly
        zeros.  Built on the first pairing, so a lattice that is never paired
        (a ``disc`` or ``saturate`` request) does not pay for it.
        """
        return tuple((i, j, g) for i, row in enumerate(self.gram) for j, g in enumerate(row) if g)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def _check_length(self, x) -> None:
        if len(x) != self.rank:
            raise LatticeError(
                "dimension-mismatch",
                f"vector of length {len(x)} in a rank {self.rank} lattice",
            )

    def pair(self, x, y):
        """Bilinear form ``x^T . gram . y``; symmetric, exact, accepts Fractions."""
        if not len(x) == len(y) == len(self.gram):
            self._check_length(x)
            self._check_length(y)
        return sum([x[i] * g * y[j] for i, j, g in self._terms])

    def square(self, x):
        return self.pair(x, x)

    def _box_squares(self, bound: int) -> Iterator[tuple[tuple[int, ...], int]]:
        """``(c, c.Gc)`` for each ``c`` of ``product(range(-bound, bound + 1), repeat=rank)``.

        The points come lazily, in ``product`` order.  Each square grows one
        coordinate at a time: appending ``x`` to a prefix ``c`` of length
        ``k`` adds ``x * (2 * gram[k][:k].c + gram[k][k] * x)``, so each
        prefix costs one dot product and no point is paired from scratch.
        """
        box = range(-bound, bound + 1)

        # head and diag are arguments, so each stage keeps its own row.
        def extend(points, head, diag):
            for c, q in points:
                lin = 2 * sum(map(mul, head, c))
                for x in box:
                    yield (*c, x), q + x * (lin + diag * x)

        points = [((), 0)]
        for k, row in enumerate(self.gram):
            points = extend(points, row[:k], row[k])
        return points

    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def is_primitive(self, x) -> bool:
        """True iff the gcd of the coordinates is 1; the zero vector, of gcd 0, is not primitive."""
        self._check_length(x)
        return gcd(*x) == 1

    def dual_pairings(self, x) -> tuple:
        """Pairings of ``x`` (integral or rational) against the basis vectors."""
        self._check_length(x)
        out = [0] * len(self.gram)
        for i, j, g in self._terms:
            out[i] += g * x[j]
        return tuple(out)

    def discriminant_group(self) -> DiscriminantGroup:
        """Elementary divisors of the Gram matrix, from ``smith_diagonal`` (no transforms)."""
        diag = intlinalg.smith_diagonal(self.gram)
        if 0 in diag:
            raise LatticeError("degenerate-lattice", "discriminant_group requires a nondegenerate lattice")
        return DiscriminantGroup(tuple(d for d in diag if d > 1), prod(diag))

    def signature(self) -> tuple[int, int, int]:
        return intlinalg.signature(self.gram)

    def span(self, rows) -> IntMatrix:
        """The Hermite basis of the span of linearly independent rows of ambient length."""
        rows = intlinalg.freeze_matrix(rows)
        if rows and len(rows[0]) != self.rank:
            raise LatticeError("dimension-mismatch", "basis row length != ambient rank")
        basis = intlinalg._hermite(rows)
        if len(basis) < len(rows):
            raise LatticeError("dependent-rows", "basis rows are linearly dependent")
        return basis

    def saturation(self, rows) -> tuple[IntMatrix, int]:
        """The Hermite basis of the saturation of ``span(rows)``, and the index of the span in it.

        The saturation is the rational span intersected with the lattice:
        same rank, torsion-free quotient, and its own saturation.  It comes
        from one column-echelon pass with no Smith transform.
        """
        return intlinalg.saturation(self.span(rows))

    def orthogonal_complement(self, rows) -> IntMatrix:
        """The saturated Hermite basis of everything pairing to zero with ``span(rows)``.

        It holds on any lattice, and on a degenerate one it contains the radical."""
        basis = self.span(rows)
        k = len(basis)
        cols = [self.dual_pairings(b) for b in basis]
        # Row i of P pairs e_i with the basis. The Hermite rows of [P | I] zero on P are [0 | ker P].
        h = intlinalg._hermite([[c[i] for c in cols] + e for i, e in enumerate(intlinalg.identity(self.rank))])
        return tuple(row[k:] for row in h if not any(row[:k]))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegralLattice) and self.gram == other.gram

    def __hash__(self) -> int:
        return hash(self.gram)

    def __repr__(self) -> str:
        return f"IntegralLattice(rank={self.rank})"
