"""The public surface: the package's exports, its result records, the
README's command list and what importing the package loads.

A change to any of these has to change this file too, so that it is made on
purpose.
"""

import ast
import inspect
import json
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mukailat
from mukailat import (
    IntegralLattice,
    MukaiSetup,
    PointedSublattice,
    SNFResult,
    classify_line_class,
    jh_feasibility,
    kummer_mukai_setup,
    mori_candidates,
    rank_one_setup,
    smith_normal_form,
    theta_dual,
)
from mukailat.cli import COMMANDS, run_batch
from oracles import lincomb

README = Path(__file__).resolve().parents[1] / "README.md"
RESPONSES = Path(__file__).resolve().parent / "golden" / "responses.ndjson"
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


# Library surface that nothing in the package, its CLI or its benchmark
# called; the tests that still need one use ``tests/oracles.py``.
REMOVED = [
    (IntegralLattice, "det"),
    (IntegralLattice, "divisibility"),
    (SNFResult, "rank"),
    (MukaiSetup, "euler_pairing"),
    (MukaiSetup, "moduli_dimension"),
    (mukailat.intlinalg, "determinant"),
    # A vector is the plain tuple of its coordinates, and a setup is its
    # ambient lattice.
    (mukailat, "MukaiVector"),
    pytest.param((1, 0, 0), "coords", id="MukaiVector-coords"),
    (MukaiSetup, "ambient"),
    # A sublattice is its Hermite basis: IntegralLattice.span, .saturation
    # and .orthogonal_complement return one, with no methods of the old class.
    (mukailat, "Sublattice"),
    pytest.param(IntegralLattice(((2, 1), (1, 2))).span([(1, 0)]), "gram", id="Sublattice-gram"),
    pytest.param(IntegralLattice(((2, 1), (1, 2))).span([(1, 0)]), "contains", id="Sublattice-contains"),
    # A setup keeps its checked NS lattice as ``ns``, so no lattice is built
    # unchecked from a Gram tuple.
    pytest.param(rank_one_setup(6), "ns_gram", id="MukaiSetup-ns_gram"),
    (IntegralLattice, "_of"),
    (MukaiSetup, "_of"),
    # span saturates and points a Hermite basis itself; the orthogonal
    # complement reads the kernel off one Hermite form; one witness test in
    # ptype replaced the verdict helper.
    (PointedSublattice, "_of"),
    (mukailat.intlinalg, "integer_kernel"),
    (mukailat.moduli, "_verdict"),
    # The complement holds on any lattice, so no per-call Smith diagonal
    # checks the Gram; discriminant_group reads the diagonal itself.
    (IntegralLattice, "_smith_diagonal"),
    # One reader takes a Gram matrix or a preset and one ladder maps every
    # failure in the CLI; jh_feasibility checks and reports a partition.
    (mukailat.cli, "_setup_from"),
    (mukailat.cli, "_parse_preset"),
    (mukailat.cli, "_require"),
    (mukailat.cli, "_answer"),
    (mukailat.moduli, "_report"),
    (mukailat.moduli, "_check_parts"),
    # The CLI slices a partition report; a Kummer BBF lattice is built on
    # each call, with no memo.
    (mukailat.cli, "_partition_result"),
    (mukailat.kummer_bbf_lattice, "cache_info"),
    # A pointed sublattice is plain data: the P-type test reads its binary
    # form and the coordinates of v, with no setup to test v again.
    (PointedSublattice, "_witnesses"),
    # The binary-form entries validate a Gram through IntegralLattice.
    (mukailat.ptype, "_binary_gram"),
    pytest.param(
        classify_line_class(rank_one_setup(6), (0, 1, -3), (1, 0, 0)).lattice, "setup", id="PointedSublattice-setup"
    ),
    # classify_line_class(...).lattice is the one checked span of a witness,
    # and IntegralLattice.span the checked Hermite basis; a vector is a plain
    # tuple, which every public function that takes one checks.
    (mukailat, "construct_p_type"),
    (mukailat.ptype, "construct_p_type"),
    (mukailat, "hermite_basis"),
    (mukailat.intlinalg, "hermite_basis"),
    (MukaiSetup, "vector"),
    (MukaiSetup, "vector_from_coords"),
]


@pytest.mark.parametrize("owner, name", REMOVED, ids=lambda x: getattr(x, "__name__", x))
def test_removed_names_stay_removed(owner, name):
    assert not hasattr(owner, name)


def test_mukai_setup_takes_only_the_gram():
    assert list(inspect.signature(MukaiSetup).parameters) == ["ns_gram"]
    # The benchmark calls run_batch with four positional arguments; the
    # ignored jobs leaves when it passes three.
    assert list(inspect.signature(run_batch).parameters) == ["lines", "bound", "jobs", "out"]
    # A setup is the lattice on its Mukai Gram, with no ambient beside it.
    for setup in (rank_one_setup(6), kummer_mukai_setup()):
        lattice = IntegralLattice(setup.gram)
        assert isinstance(setup, IntegralLattice) and not hasattr(setup, "ambient")
        assert setup == lattice and lattice == setup and hash(setup) == hash(lattice)
        rows = [(1,) + (0,) * (setup.rank - 1), (0,) * (setup.rank - 1) + (2,)]
        assert setup.span(rows) == lattice.span(rows)
        assert setup.saturation(rows) == lattice.saturation(rows)


# The code of every LatticeError raised under src/: a code that leaves or
# arrives changes this set.
ERROR_CODES = {
    "bad-signature",
    "degenerate-lattice",
    "dependent-rows",
    "dimension-mismatch",
    "empty-partition",
    "imprimitive",
    "invalid-matrix",
    "nonpositive-square",
    "not-even",
    "not-orthogonal",
    "not-p-type",
    "not-pointed",
    "rank-mismatch",
    "schema-error",
    "square-too-small",
    "sum-mismatch",
    "totally-isotropic",
}


def test_every_error_code_is_pinned():
    codes = set()
    for path in sorted((SRC / "mukailat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "LatticeError":
                code = node.args[0]
                assert isinstance(code, ast.Constant) and isinstance(code.value, str), f"{path.name}:{node.lineno}"
                codes.add(code.value)
    assert codes == ERROR_CODES
    # The CLI's own codes aside, every code the golden batch answers is one of them.
    golden = {json.loads(line).get("code") for line in RESPONSES.read_text(encoding="utf-8").splitlines()}
    assert golden - {None, "parse-error", "internal-error"} <= ERROR_CODES


# Each public result record, by type name, with its fields in order.
RECORD_FIELDS = {
    "SNFResult": ("u", "d", "v"),
    "DiscriminantGroup": ("invariant_factors", "order"),
    "PTypeDecomposition": ("s", "t"),
    "PointedSublattice": ("v", "basis", "gram2", "v_coords"),
    "LineClass": ("numerators", "denominator", "square_numerator", "disc_order"),
    "LineClassVerdict": ("line_class", "n", "square_ok", "torsion_ok", "isotropic_witness_ok", "lattice"),
    "MoriCandidate": ("a", "line_class", "lagrangian"),
    "PartitionReport": ("parts", "m", "jh_ok", "ext1_budget_ok", "ext1_cross", "dim_identity_ok"),
}


def _records():
    six = rank_one_setup(6)
    v, a = (0, 1, -3), (1, 0, 0)
    verdict = classify_line_class(six, v, a)
    lattice = verdict.lattice
    return [
        smith_normal_form([[2, 0], [0, 4]]),
        IntegralLattice([[2]]).discriminant_group(),
        lattice.decomposition(),
        lattice,
        theta_dual(six, v, a),
        verdict,
        mori_candidates(six, v, (-2, 1, -1), 1)[0],
        jh_feasibility(six, v, [a, lincomb((1, v), (-1, a))]),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
def test_records_are_immutable_tuples_of_their_fields(record):
    names = RECORD_FIELDS[type(record).__name__]
    fields = tuple(getattr(record, name) for name in names)
    # Set and dict order of records, and so output bytes, rest on this hash.
    assert hash(record) == hash(fields)
    assert record == type(record)(*fields)
    assert record == fields
    assert pickle.loads(pickle.dumps(record)) == record
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_readme_lists_every_command():
    text = README.read_text(encoding="utf-8")
    paragraph = re.search(r"^Commands: (.*?)\.\s", text, re.MULTILINE | re.DOTALL)
    assert paragraph is not None
    assert sorted(re.findall(r"`([a-z-]+)`", paragraph.group(1))) == sorted(COMMANDS)


def _new_modules() -> list[str]:
    # -I ignores PYTHONDONTWRITEBYTECODE; -B keeps the probe from writing
    # src/mukailat/__pycache__, which would make later spawns start faster.
    done = subprocess.run([sys.executable, "-I", "-B", "-c", NEW_MODULES], capture_output=True, check=True)
    return json.loads(done.stdout)


def test_the_runtime_imports_only_the_standard_library():
    loaded = _new_modules()
    assert "mukailat" in loaded
    assert [name for name in loaded if name != "mukailat" and name not in sys.stdlib_module_names] == []


def test_start_up_skips_dataclasses_and_inspect():
    # Each costs every CLI process several milliseconds of imports.  Line
    # classes are integers until the CLI prints them, so no rational type
    # is loaded either.
    loaded = _new_modules()
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert "fractions" not in loaded and "decimal" not in loaded and "numbers" not in loaded
