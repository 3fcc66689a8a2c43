"""The public surface: the package's exports and the README's command list.

A change to either list has to change this file too, so that it is made on
purpose.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import mukailat
from mukailat.cli import COMMANDS

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(mukailat.__file__).resolve().parents[1]

# Lists the top-level modules that importing the package and its CLI loads.
NEW_MODULES = f"""
import json, sys
before = set(sys.modules)
sys.path.insert(0, {str(SRC)!r})
import mukailat, mukailat.cli
print(json.dumps(sorted({{name.partition(".")[0] for name in set(sys.modules) - before}})))
"""


def test_public_names():
    assert mukailat.__all__ == [
        "ALBANESE_FIBRE_CODIM",
        "DiscriminantGroup",
        "IntegralLattice",
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


def test_the_runtime_imports_only_the_standard_library():
    done = subprocess.run([sys.executable, "-I", "-c", NEW_MODULES], capture_output=True, check=True)
    loaded = json.loads(done.stdout)
    assert "mukailat" in loaded
    assert [name for name in loaded if name != "mukailat" and name not in sys.stdlib_module_names] == []
