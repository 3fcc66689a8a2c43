"""The public surface: the package's exports and the README's command list.

A change to either list has to change this file too, so that it is made on
purpose.
"""

import re
from pathlib import Path

import mukailat
from mukailat.cli import COMMANDS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names():
    assert mukailat.__all__ == [
        "ALBANESE_FIBRE_CODIM",
        "DiscriminantGroup",
        "IntegralLattice",
        "IsotropicCensus",
        "LatticeError",
        "LineClass",
        "LineClassVerdict",
        "MoriCandidate",
        "MukaiSetup",
        "MukaiVector",
        "PTypeDecomposition",
        "PartitionReport",
        "PointedSublattice",
        "SNFResult",
        "Sublattice",
        "classify_line_class",
        "construct_p_type",
        "contraction_budget",
        "enumerate_p_type",
        "hermite_basis",
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


def test_readme_lists_every_command():
    text = README.read_text(encoding="utf-8")
    paragraph = re.search(r"^Commands: (.*?)\.\s", text, re.MULTILINE | re.DOTALL)
    assert paragraph is not None
    assert sorted(re.findall(r"`([a-z-]+)`", paragraph.group(1))) == sorted(COMMANDS)
