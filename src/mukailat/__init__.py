"""Exact-arithmetic lattice toolkit for Mukai-lattice numerics.

Integer linear algebra (Smith/Hermite normal forms, saturation, orthogonal
complements, discriminant groups), the Mukai lattice of an abelian surface,
P-type rank-2 sublattices, and the line-class criterion for lagrangian
planes on Kummer-type holomorphic symplectic manifolds.  All arithmetic is
exact and in integers; every object is immutable and every operation a pure
function.
"""

from .errors import LatticeError
from .intlinalg import SNFResult, smith_normal_form
from .lattice import DiscriminantGroup, IntegralLattice
from .moduli import (
    ALBANESE_FIBRE_CODIM,
    LineClass,
    LineClassVerdict,
    MoriCandidate,
    PartitionReport,
    classify_line_class,
    contraction_budget,
    jh_feasibility,
    mori_candidates,
    theta_dual,
    v_perp,
)
from .mukai import (
    MukaiSetup,
    kummer_bbf_lattice,
    kummer_mukai_setup,
    rank_one_setup,
)
from .ptype import (
    PointedSublattice,
    PTypeDecomposition,
    enumerate_p_type,
    is_p_type_form,
    isotropic_lines,
)

__version__ = "0.1.0"

__all__ = [
    "ALBANESE_FIBRE_CODIM",
    "DiscriminantGroup",
    "IntegralLattice",
    "LatticeError",
    "LineClass",
    "LineClassVerdict",
    "MoriCandidate",
    "MukaiSetup",
    "PTypeDecomposition",
    "PartitionReport",
    "PointedSublattice",
    "SNFResult",
    "classify_line_class",
    "contraction_budget",
    "enumerate_p_type",
    "is_p_type_form",
    "isotropic_lines",
    "jh_feasibility",
    "kummer_bbf_lattice",
    "kummer_mukai_setup",
    "mori_candidates",
    "rank_one_setup",
    "smith_normal_form",
    "theta_dual",
    "v_perp",
]
