"""Line classes of lagrangian planes and the numerics of their contractions.

The second homology of the Kummer-type fibre is modelled as the dual of
``v_perp`` inside the Mukai lattice, and the dual Mukai homomorphism as the
orthogonal projection onto ``v_perp``.  A class ``a`` with ``a^2 = 0`` and
``(a, v) = v^2/2`` projects to a line class ``R`` with

    (R, R) = -v^2/4 = -(n+1)/2        (where v^2 = 2n + 2)

and order 2 in the discriminant group of ``v_perp``; the classification
verdict checks exactly these conditions and reconstructs the witnessing
P-type lattice.  No basis of ``v_perp`` is needed to place ``R`` in its
dual: for ``w`` orthogonal to ``v``, ``(R, w) = (a, w)`` is an integer.
``R`` is kept as the integer numerator ``v^2 a - (a, v) v`` over ``v^2``,
and both conditions are decided on integers; rationals are reduced only
where the CLI prints them.
Extremality of a ray is never decided here: candidate generators of the
cone of curves are merely enumerated against a chosen positive class ``h``,
and positive-cone generators are not produced.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import NamedTuple

from .errors import LatticeError
from .intlinalg import IntMatrix
from .mukai import MukaiSetup
from .ptype import PointedSublattice, _check_bound, _witness_pair

# Codimension of the Albanese fibre inside the moduli space:
# (v^2 + 2) - (v^2 - 2).  This caps the total ext^1 of a contracted
# Jordan-Holder configuration.
ALBANESE_FIBRE_CODIM = 4


class LineClass(NamedTuple):
    """A class ``R = N / v^2`` in the dual of ``v_perp``, kept in integers.

    ``numerators`` are the ambient coordinates of ``N`` and ``denominator``
    is ``v^2``; neither is reduced.  ``(R, R)`` is ``square_numerator /
    denominator``, and ``disc_order`` is the order of ``R`` in the
    discriminant group of ``v_perp``.
    """

    numerators: tuple[int, ...]
    denominator: int
    square_numerator: int
    disc_order: int

    @property
    def two_r(self) -> tuple[int, ...] | None:
        """``2R`` as an integral vector when it lies in ``v_perp``, else None.

        ``2R`` is integral exactly when the order of ``R`` divides 2.
        """
        if self.disc_order > 2:
            return None
        return tuple(2 * x // self.denominator for x in self.numerators)


def v_perp(setup: MukaiSetup, v: tuple[int, ...]) -> IntMatrix:
    """The Hermite basis of the saturated orthogonal complement of ``v`` in the Mukai lattice;
    like ``orthogonal_complement``, it holds on any lattice and contains the radical of a degenerate one."""
    return setup.orthogonal_complement([v])


def _line_class(v: tuple[int, ...], a: tuple[int, ...], asq: int, pairing: int, vsq: int) -> LineClass:
    """The line class of the integral ``a`` with ``a^2 = asq`` and ``(a, v) = pairing``.

    ``R = N / v^2`` with the integral numerator ``N = v^2 a - (a, v) v``, so
    ``v^2 (R, R) = v^2 a^2 - (a, v)^2``.  ``R`` lies in the dual of ``v_perp``
    with no check, because ``(N, w) = v^2 (a, w)`` for every ``w``
    orthogonal to ``v``.  That lattice is saturated, so ``m R`` lies in it
    exactly when ``m R`` is integral: the order of ``R`` in its discriminant
    group is ``v^2 / gcd(v^2, N)``, the lcm of the denominators of ``R``.
    """
    numerators = tuple(vsq * x - pairing * y for x, y in zip(a, v))
    return LineClass(numerators, vsq, vsq * asq - pairing * pairing, vsq // gcd(vsq, *numerators))


def theta_dual(setup: MukaiSetup, v: tuple[int, ...], a: tuple[int, ...]) -> LineClass:
    """Orthogonal projection of ``a`` onto ``v_perp``: R = a - ((a,v)/v^2) v.

    Fixes ``v_perp`` pointwise and kills ``v``; for an isotropic witness
    with ``(a, v) = v^2/2`` the square is ``-v^2/4``.
    """
    v, a = setup._check(v), setup._check(a)
    vsq = setup.square(v)
    if vsq <= 0:
        raise LatticeError("nonpositive-square", f"v^2 = {vsq} <= 0")
    return _line_class(v, a, setup.square(a), setup.pair(a, v), vsq)


class LineClassVerdict(NamedTuple):
    """Outcome of the line-class criterion for a candidate witness ``a``.

    ``square_ok``: (R, R) equals -(n+1)/2.
    ``torsion_ok``: 2R is integral, i.e. the discriminant order divides 2.
    ``isotropic_witness_ok``: a^2 = 0 and |(a, v)| = v^2/2.
    ``lattice``: the P-type lattice spanned by the sign-fixed witness ``w``
    when every check passes and both ``w`` and ``v - w`` are primitive (an
    imprimitive witness or complement spans no P-type lattice even though
    the numeric checks can pass), else None.  Extremality of the ray is not
    part of this verdict.
    """

    line_class: LineClass
    n: int
    square_ok: bool
    torsion_ok: bool
    isotropic_witness_ok: bool
    lattice: PointedSublattice | None

    @property
    def all_ok(self) -> bool:
        return self.square_ok and self.torsion_ok and self.isotropic_witness_ok


def classify_line_class(setup: MukaiSetup, v: tuple[int, ...], a: tuple[int, ...]) -> LineClassVerdict:
    """Run the full line-class criterion for ``R = theta_dual(a)``.

    Requires ``v`` primitive with ``v^2 >= 6`` (so ``n = v^2/2 - 1 >= 2``).
    ``(R, R) = -v^2/4`` reads ``4 v^2 (R, R) = -(v^2)^2`` in integers.  On
    the even Mukai lattice an isotropic witness passes both other checks,
    with ``2R = 2a -+ v``, so ``_witness_pair`` alone decides the lattice.
    """
    v, a = setup._check(v), setup._check(a)
    vsq = setup.kummer_dimension(v) + 2
    asq, pairing = setup.square(a), setup.pair(a, v)
    lc = _line_class(v, a, asq, pairing, vsq)
    pair = _witness_pair(v, a, asq, pairing, vsq // 2)
    return LineClassVerdict(
        line_class=lc,
        n=vsq // 2 - 1,
        square_ok=4 * lc.square_numerator == -vsq * vsq,
        torsion_ok=lc.disc_order <= 2,
        isotropic_witness_ok=asq == 0 and abs(pairing) == vsq // 2,
        lattice=None if pair is None else PointedSublattice._of_witness(setup, v, *pair, vsq // 2),
    )


class MoriCandidate(NamedTuple):
    """A box-scan candidate generator of the cone of curves."""

    a: tuple[int, ...]
    line_class: LineClass
    lagrangian: bool


def mori_candidates(
    setup: MukaiSetup,
    v: tuple[int, ...],
    h: tuple[int, ...],
    bound: int,
) -> list[MoriCandidate]:
    """Candidate curve-cone generators theta_dual(a) positive against ``h``.

    Finds the integral ``a`` with coordinates in ``[-bound, bound]``
    satisfying ``a^2 >= 0`` and ``|(a, v)| <= v^2/2`` whose projection pairs
    strictly positively with ``h`` (which must lie in ``v_perp`` and have
    ``h^2 > 0``).  ``h`` is orthogonal to ``v``, so ``(R, h) = (a, h)``.
    For ``a = (r, c, s)`` at fixed ``(r, c)``, ``a^2 = c.Nc - 2rs``, ``(a, v)``
    and ``(a, h)`` are affine in ``s``, so only ``(r, c)`` is scanned and the
    kept ``s`` form one interval.  Candidates passing the full line-class
    criterion and spanning a P-type lattice are flagged ``lagrangian``.  The
    list is sorted by the coordinates of ``a``; positive-cone generators are
    not enumerated.
    """
    v, h = setup._check(v), setup._check(h)
    vsq = setup.kummer_dimension(v) + 2
    if setup.pair(h, v) != 0:
        raise LatticeError("not-orthogonal", "h must be orthogonal to v")
    hsq = setup.square(h)
    if hsq <= 0:
        raise LatticeError("nonpositive-square", f"h^2 = {hsq} <= 0")
    _check_bound(bound)
    half = vsq // 2
    # (a, w) is the dot product of a with w_row, whose last entry is -r_w.
    v_row = setup.dual_pairings(v)
    h_row = setup.dual_pairings(h)
    v_last, h_last = v_row[-1], h_row[-1]
    box = range(-bound, bound + 1)
    # a^2 = c.Nc - 2rs, and c.Nc does not depend on r.
    heads = [
        (c, form, sum(map(mul, c, v_row[1:-1])), sum(map(mul, c, h_row[1:-1])))
        for c, form in setup.ns._box_squares(bound)
    ]
    out = []
    # r, then c, then s ascending: the candidates come out sorted.
    for r in box:
        for c, form, c_v, c_h in heads:
            head_v = r * v_row[0] + c_v
            head_h = r * h_row[0] + c_h
            lo, hi = _narrow(-bound, bound, 2 * r, form)
            lo, hi = _narrow(lo, hi, v_last, half - head_v)
            lo, hi = _narrow(lo, hi, -v_last, half + head_v)
            # (a, h) > 0, which also rules out a = 0.
            lo, hi = _narrow(lo, hi, -h_last, head_h - 1)
            for s in range(lo, hi + 1):
                a = (r, *c, s)
                asq = form - 2 * r * s
                pairing = head_v + s * v_last
                lc = _line_class(v, a, asq, pairing, vsq)
                lagrangian = _witness_pair(v, a, asq, pairing, half) is not None
                out.append(MoriCandidate(a=a, line_class=lc, lagrangian=lagrangian))
    return out


def _narrow(lo: int, hi: int, coef: int, rhs: int) -> tuple[int, int]:
    """The ``s`` in ``[lo, hi]`` with ``coef * s <= rhs``, again as an interval.

    An empty result has ``hi < lo``, and stays empty under further narrowing.
    """
    if coef > 0:
        return lo, min(hi, rhs // coef)
    if coef < 0:
        return max(lo, -(rhs // -coef)), hi
    return (lo, hi) if rhs >= 0 else (lo, lo - 1)


class PartitionReport(NamedTuple):
    """Numerical feasibility of a partition ``v = sum(parts)``.

    ``jh_ok`` is the moduli-dimension inequality
    ``sum(a_i^2) + 2m <= v^2 + 2`` for a Jordan-Holder configuration;
    ``ext1_budget_ok`` bounds the total deformation space of the factors by
    the Albanese-fibre codimension, ``sum(a_i^2 + 2) <= 4``.  For two-part
    partitions ``ext1_cross = (a_1, a_2)`` and ``dim_identity_ok`` records
    whether ``2*((a_1, a_2) - 1) = v^2 - 2``.
    """

    parts: IntMatrix
    m: int
    jh_ok: bool
    ext1_budget_ok: bool
    ext1_cross: int | None
    dim_identity_ok: bool | None


def jh_feasibility(setup: MukaiSetup, v: tuple[int, ...], parts) -> PartitionReport:
    """Dimension feasibility of a Jordan-Holder partition of ``v``."""
    v = setup._check(v)
    parts = tuple(setup._check(p) for p in parts)
    if not parts:
        raise LatticeError("empty-partition", "a partition needs at least one part")
    if tuple(map(sum, zip(*parts))) != v:
        raise LatticeError("sum-mismatch", "parts do not sum to v")
    vsq = setup.square(v)
    m = len(parts)
    # sum(a_i^2) + 2m, both the Jordan-Holder count and the ext^1 total.
    total = sum(map(setup.square, parts)) + 2 * m
    cross = setup.pair(*parts) if m == 2 else None
    return PartitionReport(
        parts=parts,
        m=m,
        jh_ok=total <= vsq + 2,
        ext1_budget_ok=total <= ALBANESE_FIBRE_CODIM,
        ext1_cross=cross,
        dim_identity_ok=None if cross is None else 2 * (cross - 1) == vsq - 2,
    )


def contraction_budget(setup: MukaiSetup, v: tuple[int, ...], parts) -> PartitionReport:
    """Ext^1 budget of a contracted configuration; parts must be primitive.

    Each simple factor contributes ``a_i^2 + 2`` to the deformation count,
    which the Albanese-fibre codimension caps at 4.
    """
    report = jh_feasibility(setup, v, parts)
    for p in report.parts:
        if not setup.is_primitive(p):
            raise LatticeError("imprimitive", f"part {p} is not primitive")
    return report
