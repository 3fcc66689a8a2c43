"""Rank-2 pointed sublattices and the P-type condition.

A pointed sublattice is a rank-2 saturated sublattice of the Mukai lattice
containing the distinguished vector ``v``.  It is of P-type when ``v^2/2``
equals the minimum of ``|(a, v)|`` over its primitive isotropic classes,
the numerical shadow of a wall contracting a lagrangian plane: such a
lattice carries a decomposition ``v = s + t`` into two primitive isotropic
classes, each pairing to ``v^2/2`` against ``v``.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd, isqrt
from operator import mul, sub
from typing import NamedTuple

from .errors import LatticeError
from .intlinalg import IntMatrix, _hermite, freeze_vector, saturation
from .lattice import IntegralLattice
from .mukai import MukaiSetup


def _reduce_line(x: int, y: int) -> tuple[int, int]:
    """Primitive generator of the line through ``(x, y)``, first nonzero entry positive."""
    g = gcd(x, y)
    if x < 0 or (x == 0 and y < 0):
        g = -g
    return x // g, y // g


def isotropic_lines(gram2) -> tuple[tuple[int, int], ...]:
    """Primitive isotropic vectors of a binary form, one per line, at most two.

    Solves ``a*x^2 + 2*b*x*y + c*y^2 = 0`` exactly: rational lines exist iff
    ``b^2 - a*c`` is a perfect square.  Each line is returned by its
    primitive generator with canonical sign (first nonzero coordinate
    positive), sorted lexicographically.
    """
    lattice = IntegralLattice(gram2)
    if lattice.rank != 2:
        raise LatticeError("invalid-matrix", "need a symmetric 2x2 Gram matrix")
    return _isotropic_lines(lattice.gram)


def _isotropic_lines(gram2: IntMatrix) -> tuple[tuple[int, int], ...]:
    """``isotropic_lines`` of a Gram already known to be a symmetric 2x2 integer matrix."""
    (a, b), (_, c) = gram2
    if a == 0 and b == 0 and c == 0:
        raise LatticeError("totally-isotropic", "the form vanishes identically")
    if a == 0:
        lines = [(1, 0)]
        if b != 0:
            lines.append(_reduce_line(-c, 2 * b))
    else:
        disc = b * b - a * c
        k = isqrt(disc) if disc >= 0 else -1
        lines = [_reduce_line(-b + k, a), _reduce_line(-b - k, a)] if k * k == disc else []
    return tuple(sorted(set(lines)))


def is_p_type_form(gram2, v_xy) -> bool:
    """P-type test at the level of a rank-2 Gram matrix and coordinates of v.

    Requires primitive coordinates, then ``v^2 > 0``.  An empty isotropic
    census never qualifies (the minimum over the empty set is +infinity).
    """
    lattice = IntegralLattice(gram2)
    if lattice.rank != 2:
        raise LatticeError("invalid-matrix", "need a symmetric 2x2 Gram matrix")
    v_xy = freeze_vector(v_xy)
    lattice._check_length(v_xy)
    return bool(_witnesses(lattice.gram, v_xy))


def _witnesses(gram2: IntMatrix, v_xy: tuple[int, int]) -> list[tuple[tuple[int, int], int]]:
    """``(line, (line, v))`` for both isotropic lines when each has ``|(line, v)| = v^2/2``, else [].

    A line ``w`` with ``(w, v) = v^2/2`` (up to sign) makes ``v - w`` isotropic,
    ``k`` times the other line, which so pairs ``v^2/2k``: both lines pair
    ``v^2/2`` exactly when ``gram2``, a symmetric 2x2 integer Gram, is of
    P-type at ``v_xy``.  The checks and errors are those of ``is_p_type_form``.
    """
    ((a, b), (_, c)), (x, y) = gram2, v_xy
    if gcd(x, y) != 1:
        raise LatticeError("imprimitive", "v must be primitive")
    # (line, v) is the dot product of line with gram2 . v.
    gx, gy = a * x + b * y, b * x + c * y
    vsq = x * gx + y * gy
    if vsq <= 0:
        raise LatticeError("nonpositive-square", f"v^2 = {vsq} <= 0")
    pairings = [(line, line[0] * gx + line[1] * gy) for line in _isotropic_lines(gram2)]
    return pairings if len(pairings) == 2 and all(2 * abs(p) == vsq for _, p in pairings) else []


def _saturated(b1, b2) -> bool:
    """Whether a rank-2 Hermite basis of ambient rows is saturated.

    The index of a rank-2 lattice in its saturation is the gcd of the 2x2
    minors of a basis.  Both rows vanish left of b1's pivot i and b2[i] = 0,
    so the minors through column i are b1[i] * b2[l], with gcd
    b1[i] * gcd(b2), and the others lie right of i.
    """
    i = next(k for k, x in enumerate(b1) if x)
    lead = b1[i] * gcd(*b2)
    if lead == 1:
        return True
    right = combinations(range(i + 1, len(b1)), 2)
    return gcd(lead, *(b1[k] * b2[l] - b1[l] * b2[k] for k, l in right)) == 1


class PTypeDecomposition(NamedTuple):
    """``v = s + t`` with both parts primitive isotropic, pairing v^2/2 with v."""

    s: tuple[int, ...]
    t: tuple[int, ...]


class PointedSublattice(NamedTuple):
    """A rank-2 saturated sublattice of the Mukai lattice containing ``v``.

    ``basis`` is the canonical Hermite-form basis of the saturation,
    ``gram2`` the restricted Gram matrix and ``v_coords`` the (integer)
    coordinates of ``v`` in that basis.  On a saturated basis, ``v`` is
    primitive exactly when ``v_coords`` is, so the P-type test reads
    ``gram2`` and ``v_coords`` alone.
    """

    v: tuple[int, ...]
    basis: IntMatrix
    gram2: IntMatrix
    v_coords: tuple[int, int]

    @classmethod
    def span(cls, setup: MukaiSetup, v: tuple[int, ...], vectors) -> "PointedSublattice":
        """Saturated span of the given vectors, required to be rank 2 and to contain v."""
        v = setup._check(v)
        basis = setup.span([setup._check(w) for w in vectors])
        if len(basis) != 2:
            raise LatticeError("rank-mismatch", f"span has rank {len(basis)}, expected 2")
        # The pivot columns depend only on the rational span, so saturating
        # keeps them.
        if not _saturated(*basis):
            basis = saturation(basis)[0]
        b1, b2 = basis
        # Back substitution on the pivot columns i < j of the echelon basis,
        # then a check of every coordinate.
        i = next(k for k, x in enumerate(b1) if x)
        j = next(k for k, x in enumerate(b2) if x)
        x, x_rem = divmod(v[i], b1[i])
        y, y_rem = divmod(v[j] - x * b1[j], b2[j])
        if x_rem or y_rem or any(x * p + y * q != w for p, q, w in zip(b1, b2, v)):
            raise LatticeError("not-pointed", "v does not lie in the sublattice")
        pair = setup.pair
        off = pair(b1, b2)
        return cls(v, basis, ((pair(b1, b1), off), (off, pair(b2, b2))), (x, y))

    @classmethod
    def _of_witness(cls, setup: MukaiSetup, v: tuple[int, ...], w, t, half: int) -> "PointedSublattice":
        """The saturation of span{w, t} for isotropic ambient rows with ``w + t = v`` and ``(w, t) = half``.

        The Hermite form of ``(w | 1 0; t | 0 1)`` holds the basis ``(b1; b2)``
        and a unimodular ``U`` with ``U (w; t) = (b1; b2)``.  On a saturated
        span, the Gram is ``U ((0, half), (half, 0)) U^T`` and ``v`` has the
        coordinates ``(1, 1) U^-1``, so no ambient pairing is needed.
        """
        (*b1, p, q), (*b2, r, s) = _hermite(((*w, 1, 0), (*t, 0, 1)))
        basis = (tuple(b1), tuple(b2))
        if not _saturated(*basis):
            return cls.span(setup, v, basis)
        e = p * s - q * r
        off = half * (p * s + q * r)
        return cls(v, basis, ((2 * half * p * q, off), (off, 2 * half * r * s)), (e * (s - r), e * (p - q)))

    def member(self, xy) -> tuple[int, ...]:
        """The ambient vector with the given sublattice coordinates."""
        x, y = xy
        return tuple(x * b1 + y * b2 for b1, b2 in zip(*self.basis))

    def isotropic_classes(self) -> IntMatrix:
        """The primitive isotropic classes of the sublattice, up to sign.

        Each class is given in ambient coordinates with the first nonzero
        coordinate positive; there are never more than two.
        """
        # The pivot of the first basis row lies left of the second's, and both
        # pivots are positive, so the sign-fixed, sorted lines map to
        # sign-fixed, sorted classes.
        return tuple(self.member(line) for line in _isotropic_lines(self.gram2))

    def is_p_type(self) -> bool:
        return bool(_witnesses(self.gram2, self.v_coords))

    def decomposition(self) -> PTypeDecomposition:
        """The canonical splitting ``v = s + t`` of a P-type lattice.

        ``s`` is the census class with positive pairing against ``v``,
        smallest in the (absolute value, sign) lexicographic order on
        coordinates; ``t = v - s``.
        """
        witnesses = _witnesses(self.gram2, self.v_coords)
        if not witnesses:
            raise LatticeError("not-p-type", "lattice is not of P-type")
        candidates = [self.member((x, y) if p > 0 else (-x, -y)) for (x, y), p in witnesses]
        s = min(candidates, key=lambda w: (tuple(abs(x) for x in w), w))
        return PTypeDecomposition(s=s, t=tuple(map(sub, self.v, s)))


def _witness_pair(v, a, asq: int, pairing: int, half: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """``(w, v - w)`` for the sign-fixed ``w = +-a`` with ``(w, v) = half = v^2/2``,
    when ``a^2 = asq = 0``, ``(a, v) = pairing = +-half`` and both are
    primitive, else None.  They are independent (``v - w = k w`` would give
    ``v^2 = 0``), so they span a P-type lattice."""
    if asq or abs(pairing) != half:
        return None
    w = a if pairing > 0 else tuple(-x for x in a)
    t = tuple(map(sub, v, w))
    if gcd(*w) != 1 or gcd(*t) != 1:
        return None
    return w, t


def _check_bound(bound) -> None:
    """Fail unless the box radius ``bound`` of a scan is a nonnegative int."""
    if not isinstance(bound, int) or isinstance(bound, bool):
        raise LatticeError("invalid-matrix", f"bound must be an integer, got {bound!r}")
    if bound < 0:
        raise LatticeError("invalid-matrix", "bound must be nonnegative")


def enumerate_p_type(setup: MukaiSetup, v: tuple[int, ...], bound: int) -> list[PointedSublattice]:
    """All P-type lattices with a witness in the coordinate box ``[-bound, bound]``.

    Finds every primitive isotropic ``a = (r, c, s)`` with ``(a, v) = v^2/2``
    and all coordinates bounded by ``bound`` whose complement ``t = v - a``
    is primitive (so every span really is of P-type), and returns the
    deduplicated saturated spans of ``{a, t}``, sorted by their Hermite
    bases.  Only ``c`` is scanned, over ``(2 bound + 1)^rho`` points: the
    linear ``(a, v) = v^2/2`` and the quadratic ``a^2 = c.Nc - 2rs = 0``
    leave at most two ``r != 0``, each with one ``s``, except on degenerate
    ``v`` and ``c`` where every ``r`` or every ``s`` of the box solves them.
    The result is deterministic and independent of scan order.
    """
    _check_bound(bound)
    v = setup._check(v)
    vsq = setup.kummer_dimension(v) + 2
    half = vsq // 2
    # (a, v) is the dot product of a with v_row = (-s_v, N c_v, -r_v).
    v_row = setup.dual_pairings(v)
    r_weight, c_row, s_weight = v_row[0], v_row[1:-1], v_row[-1]
    box = range(-bound, bound + 1)
    found = {}
    for c, form in setup.ns._box_squares(bound):
        rest = half - sum(map(mul, c, c_row))
        # a = (r, c, s) needs r * r_weight + s * s_weight = rest and 2rs =
        # form.  For r != 0, s = form / 2r, and 2r times the linear equation
        # is 2 r_weight r^2 - 2 rest r + s_weight form = 0; for r = 0, form
        # must vanish and s * s_weight = rest.
        tail = s_weight * form
        if r_weight:
            disc = rest * rest - 2 * r_weight * tail
            k = isqrt(disc) if disc >= 0 else -1
            roots, den = ({rest + k, rest - k} if k * k == disc else ()), 2 * r_weight
        elif rest:
            roots, den = (tail,), 2 * rest
        else:
            roots, den = (() if tail else box), 1
        witnesses = []
        for x in roots:
            r, rem = divmod(x, den)
            if r and not rem and abs(r) <= bound and form % (2 * r) == 0:
                witnesses.append((r, *c, form // (2 * r)))
        if not form:
            if s_weight and rest % s_weight == 0:
                witnesses.append((0, *c, rest // s_weight))
            elif not s_weight and not rest:
                witnesses += [(0, *c, s) for s in box]
        for a in witnesses:
            pair = _witness_pair(v, a, 0, half, half) if abs(a[-1]) <= bound else None
            # A P-type lattice has exactly the two witnesses a and v - a;
            # span it from the smaller one when both lie in the box.
            if pair is None or (pair[1] < a and max(map(abs, pair[1])) <= bound):
                continue
            lattice = PointedSublattice._of_witness(setup, v, *pair, half)
            found.setdefault(lattice.basis, lattice)
    return [found[key] for key in sorted(found)]
