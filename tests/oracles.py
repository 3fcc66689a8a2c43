"""Reference implementations that the fast paths are tested against.

These are the box scans that ``enumerate_p_type`` and ``mori_candidates``
used to run, and the generic saturation that ``PointedSublattice.span``
used for every span: they visit every point of the ``(2B+1)^(rho+2)`` box,
build a validated ``MukaiVector`` at each one, saturate through the Smith
form and solve for coordinates over the rationals.  They are slow and
obviously right, which is what an oracle should be.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm

from mukailat import (
    LatticeError,
    LineClass,
    MoriCandidate,
    MukaiSetup,
    MukaiVector,
    PointedSublattice,
    Sublattice,
    v_perp,
)


def saturated_span(setup: MukaiSetup, v: MukaiVector, vectors) -> PointedSublattice:
    """``PointedSublattice.span`` through ``Sublattice.saturate`` and a rational solve."""
    setup._check(v)
    rows = []
    for vec in vectors:
        w = vec if isinstance(vec, MukaiVector) else setup.vector_from_coords(vec)
        setup._check(w)
        rows.append(w.coords)
    sub = Sublattice(setup.ambient, rows).saturate()
    if sub.rank != 2:
        raise LatticeError("rank-mismatch", f"span has rank {sub.rank}, expected 2")
    coords = sub.coords(v.coords)
    if coords is None:
        raise LatticeError("not-pointed", "v does not lie in the sublattice")
    return PointedSublattice(setup, v, sub.basis, sub.gram(), coords)


def enumerate_p_type_scan(setup: MukaiSetup, v: MukaiVector, bound: int) -> list[PointedSublattice]:
    """``enumerate_p_type`` by a scan of every point of the box."""
    if bound < 0:
        raise LatticeError("invalid-matrix", "bound must be nonnegative")
    if not setup.is_primitive(v):
        raise LatticeError("imprimitive", "v must be primitive")
    vsq = setup.square(v)
    if vsq < 6:
        raise LatticeError("square-too-small", f"v^2 = {vsq} < 6")
    half = vsq // 2
    found = {}
    for coords in product(range(-bound, bound + 1), repeat=setup.rank):
        if not any(coords):
            continue
        g = 0
        for x in coords:
            g = gcd(g, x)
        if g != 1:
            continue
        a = MukaiVector.from_coords(coords)
        if setup.square(a) != 0 or setup.pair(a, v) != half:
            continue
        if not setup.is_primitive(v - a):
            continue
        lattice = saturated_span(setup, v, [a, v - a])
        found.setdefault(lattice.basis, lattice)
    return [found[key] for key in sorted(found)]


def _project(setup, v, coords, vsq):
    weight = Fraction(setup.ambient.pair(coords, v.coords), vsq)
    return tuple(Fraction(a) - weight * b for a, b in zip(coords, v.coords))


def _line_class(setup, v, a, vsq, perp) -> LineClass:
    coords = _project(setup, v, a.coords, vsq)
    square = Fraction(setup.ambient.pair(coords, coords))
    if not all(Fraction(p).denominator == 1 for p in (setup.ambient.pair(coords, b) for b in perp.basis)):
        raise LatticeError("not-in-dual", "projection left the dual of v_perp")
    if any(coords):
        rational = perp.rational_coords(coords)
        if rational is None:
            raise LatticeError("not-in-dual", "projection left the rational span of v_perp")
        disc_order = lcm(*(c.denominator for c in rational))
    else:
        disc_order = 1
    return LineClass(v=v, coords=coords, square=square, disc_order=disc_order)


def line_class_scan(setup: MukaiSetup, v: MukaiVector, a: MukaiVector) -> LineClass:
    """``theta_dual`` through a rational solve in the basis of ``v_perp``."""
    return _line_class(setup, v, a, setup.square(v), v_perp(setup, v))


def _lagrangian(setup, v, a, vsq, lc) -> bool:
    n = vsq // 2 - 1
    square_ok = lc.square == Fraction(-(n + 1), 2)
    torsion_ok = lc.two_r is not None
    pairing = setup.pair(a, v)
    isotropic_witness_ok = setup.square(a) == 0 and abs(pairing) == vsq // 2
    lattice = None
    if square_ok and torsion_ok and isotropic_witness_ok:
        witness = a if pairing > 0 else -a
        if setup.is_primitive(witness) and setup.is_primitive(v - witness):
            lattice = saturated_span(setup, v, [witness, v - witness])
    return lattice is not None


def mori_candidates_scan(setup: MukaiSetup, v: MukaiVector, h: MukaiVector, bound: int) -> list[MoriCandidate]:
    """``mori_candidates`` by a scan of every point of the box."""
    if not setup.is_primitive(v):
        raise LatticeError("imprimitive", "v must be primitive")
    vsq = setup.square(v)
    if vsq < 6:
        raise LatticeError("square-too-small", f"v^2 = {vsq} < 6")
    if setup.pair(h, v) != 0:
        raise LatticeError("not-orthogonal", "h must be orthogonal to v")
    if setup.square(h) <= 0:
        raise LatticeError("nonpositive-square", f"h^2 = {setup.square(h)} <= 0")
    if bound < 0:
        raise LatticeError("invalid-matrix", "bound must be nonnegative")
    perp = v_perp(setup, v)
    half = vsq // 2
    out = []
    for coords in product(range(-bound, bound + 1), repeat=setup.rank):
        if not any(coords):
            continue
        a = MukaiVector.from_coords(coords)
        if setup.square(a) < 0 or abs(setup.pair(a, v)) > half:
            continue
        lc = _line_class(setup, v, a, vsq, perp)
        if setup.ambient.pair(lc.coords, h.coords) <= 0:
            continue
        lagrangian = _lagrangian(setup, v, a, vsq, lc)
        out.append(MoriCandidate(a=a, line_class=lc, lagrangian=lagrangian))
    out.sort(key=lambda cand: cand.a.coords)
    return out
