"""The algebraic Mukai lattice of an abelian surface.

A vector ``(r, c, s)`` collects the rank, the first Chern class (in a fixed
basis of the Neron-Severi lattice) and the second Chern character of an
object; the Todd class of an abelian surface is trivial, so these are the
Mukai-vector components verbatim.  A vector is the plain int tuple
``(r, c_1, ..., c_rho, s)`` of these coordinates: ``v[0]`` is ``r``,
``v[1:-1]`` is ``c`` and ``v[-1]`` is ``s``.  ``+`` and ``*`` on it are the
tuple operations, so sums and multiples are written out componentwise.  A
``MukaiSetup`` is the ``IntegralLattice`` on these coordinates, so every
lattice method takes a vector as it is, and every public function checks
it once on entry.  The pairing is

    ((r, c, s), (r', c', s')) = c.c' - r*s' - s*r'

which is even, symmetric and of signature ``(2, rho)`` on the rank
``rho + 2`` ambient lattice.
"""

from __future__ import annotations

from functools import cache, lru_cache

from .errors import LatticeError
from .intlinalg import IntMatrix, freeze_matrix, freeze_vector
from .lattice import IntegralLattice

# How many setups (one per NS Gram matrix) a process keeps; the least
# recently used is dropped first.
MEMO_SIZE = 128


class MukaiSetup(IntegralLattice):
    """The rank ``rho + 2`` Mukai lattice built from a Neron-Severi Gram matrix.

    A setup *is* that ambient lattice: ``gram`` is the Mukai pairing on the
    coordinates ``(r, c_1, ..., c_rho, s)``, so a setup equals
    ``IntegralLattice(setup.gram)`` and pairs coordinate tuples.  ``ns`` is
    the NS lattice, whose Gram must be symmetric, even, nondegenerate and of
    the Hodge-index signature ``(1, rho - 1)``; the ambient one is ``(2, rho)``.
    """

    def __init__(self, ns_gram):
        ns = IntegralLattice(ns_gram)
        if not ns.is_even():
            raise LatticeError("not-even", "NS Gram matrix must have even diagonal")
        # det(ambient) = -det(ns), so the ambient is degenerate exactly when ns is.
        sig = ns.signature()
        if sig[2]:
            raise LatticeError("degenerate-lattice", "Gram matrix has determinant 0")
        if sig != (1, ns.rank - 1, 0):
            raise LatticeError("bad-signature", f"NS signature {sig[:2]} is not (1, {ns.rank - 1})")
        self._build(ns)

    def _build(self, ns: IntegralLattice) -> None:
        rho = ns.rank
        self.ns = ns
        # Square and symmetric because the NS block is.
        self.gram = ((0,) * (rho + 1) + (-1,), *((0, *row, 0) for row in ns.gram), (-1,) + (0,) * (rho + 1))

    @property
    def rho(self) -> int:
        return self.ns.rank

    def _check(self, v) -> tuple[int, ...]:
        """``v`` as a tuple of ints, once it is known to have one ``c`` entry
        per NS generator."""
        v = freeze_vector(v)
        if len(v) < 2:
            raise LatticeError("dimension-mismatch", "need at least rank and degree-4 parts")
        if len(v) != self.rank:
            raise LatticeError(
                "dimension-mismatch",
                f"c has length {len(v) - 2}, NS rank is {self.rho}",
            )
        return v

    def kummer_dimension(self, v: tuple[int, ...]) -> int:
        """Dimension ``v^2 - 2 = 2n`` of the Albanese fibre, a Kummer-type manifold.

        Requires ``v`` primitive with ``v^2 >= 6``; every search for lagrangian
        planes checks ``v`` here.
        """
        if not self.is_primitive(v):
            raise LatticeError("imprimitive", "v must be primitive")
        sq = self.square(v)
        if sq < 6:
            raise LatticeError("square-too-small", f"v^2 = {sq} < 6")
        return sq - 2

    def __repr__(self) -> str:
        return f"MukaiSetup(rho={self.rho})"


def _u_cubed_block(size: int) -> list[list[int]]:
    """A ``size``-square zero matrix with U^3 as its leading 6x6 block."""
    gram = [[0] * size for _ in range(size)]
    for b in range(3):
        gram[2 * b][2 * b + 1] = gram[2 * b + 1][2 * b] = 1
    return gram


@lru_cache(maxsize=MEMO_SIZE)
def _setup(ns_gram: IntMatrix) -> MukaiSetup:
    """The setup on an NS Gram matrix given as a tuple of int tuples, shared.

    Each Gram is validated and built once per process while it stays among
    the ``MEMO_SIZE`` most recently used; a ``MukaiSetup`` is never
    mutated.  The key must already be integers: ``6.0 == 6`` would find the
    setup of ``[[6]]``.  A Gram that raises is not kept, so it raises the
    same error on every call.
    """
    return MukaiSetup(ns_gram)


def rank_one_setup(degree: int) -> MukaiSetup:
    """Picard rank 1 setup with NS = <degree>; ``degree = 2d > 0`` must be even.

    Shared: every call with one degree returns the same setup, and so does
    the CLI's ``"ns": [[degree]]``, which fails the same way on a bad degree.
    """
    return _setup(freeze_matrix([[degree]]))


@cache
def kummer_mukai_setup() -> MukaiSetup:
    """The full Mukai lattice of an abelian surface, isometric to U^4.

    The NS block is the unimodular U^3 of signature ``(3, 3)``, so the
    Hodge-index check does not apply.  It is built once per process and
    shared; a ``MukaiSetup`` is never mutated.
    """
    setup = MukaiSetup.__new__(MukaiSetup)
    setup._build(IntegralLattice(_u_cubed_block(6)))
    return setup


def kummer_bbf_lattice(n: int) -> IntegralLattice:
    """Beauville-Bogomolov form of a generalised Kummer 2n-fold: U^3 + <-(2n+2)>."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise LatticeError("invalid-matrix", "n must be an integer")
    if n < 1:
        raise LatticeError("invalid-matrix", "need n >= 1")
    gram = _u_cubed_block(7)
    gram[6][6] = -(2 * n + 2)
    return IntegralLattice(gram)
