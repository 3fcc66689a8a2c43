import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mukailat import (
    DiscriminantGroup,
    IntegralLattice,
    LatticeError,
    MukaiSetup,
    kummer_mukai_setup,
    rank_one_setup,
)
from mukailat.intlinalg import _hermite, smith_normal_form, transpose
from oracles import contains, coords, determinant, mat_mul


def hyperbolic():
    return IntegralLattice([[0, 1], [1, 0]])


def u_power(k):
    gram = [[0] * (2 * k) for _ in range(2 * k)]
    for b in range(k):
        gram[2 * b][2 * b + 1] = gram[2 * b + 1][2 * b] = 1
    return IntegralLattice(gram)


def test_pair_examples():
    u = hyperbolic()
    assert u.pair((1, 0), (0, 1)) == 1
    assert u.pair((1, 1), (1, 1)) == 2
    assert IntegralLattice([[-6]]).pair((1,), (1,)) == -6


@given(
    st.lists(st.integers(-50, 50), min_size=2, max_size=2),
    st.lists(st.integers(-50, 50), min_size=2, max_size=2),
)
def test_pair_symmetric(x, y):
    lattice = IntegralLattice([[2, -1], [-1, -4]])
    assert lattice.pair(x, y) == lattice.pair(y, x)


def test_pair_accepts_fractions():
    u = hyperbolic()
    assert u.pair((Fraction(1, 2), 1), (1, 0)) == 1
    assert u.pair((Fraction(1, 2), 0), (0, Fraction(1, 2))) == Fraction(1, 4)


def test_pair_dimension_mismatch():
    with pytest.raises(LatticeError) as err:
        hyperbolic().pair((1, 0, 0), (0, 1))
    assert err.value.code == "dimension-mismatch"


def test_gram_must_be_symmetric():
    with pytest.raises(LatticeError):
        IntegralLattice([[0, 1], [2, 0]])


def test_is_primitive():
    lattice = IntegralLattice([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert lattice.is_primitive((1, 0, -3))
    assert not lattice.is_primitive((0, 0, -3))
    assert not lattice.is_primitive((2, 4, 6))
    # The zero vector has gcd 0: not primitive, on any lattice.
    for setup in (lattice, rank_one_setup(6), MukaiSetup([[2, 1], [1, -4]]), kummer_mukai_setup()):
        assert not setup.is_primitive((0,) * setup.rank)


def test_saturate_examples():
    z2 = IntegralLattice([[1, 0], [0, 1]])
    assert z2.saturation([(2, 0)]) == (((1, 0),), 2)
    assert z2.saturation([(2, 4)]) == (((1, 2),), 2)
    sat, index = z2.saturation([(1, 1), (1, -1)])
    assert sat == ((1, 0), (0, 1))
    assert index == 2
    assert z2.span([]) == ()
    assert z2.saturation([]) == ((), 1)


def test_saturate_idempotent_and_contains():
    z3 = IntegralLattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    sub = z3.span([(2, 4, 6), (0, 10, 4)])
    sat = z3.saturation(sub)[0]
    assert len(sat) == len(sub)
    assert z3.saturation(sat) == (sat, 1)
    for row in sub:
        assert contains(z3, sat, row)


sub_rows = st.integers(2, 4).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-30, 30), min_size=n, max_size=n),
            min_size=k,
            max_size=k,
        )
    )
)


@settings(max_examples=150)
@given(sub_rows)
def test_saturation_properties(rows):
    n = len(rows[0])
    if len(_hermite(rows)) != len(rows):
        return  # dependent generators are rejected by construction
    ambient = IntegralLattice([[1 if i == j else 0 for j in range(n)] for i in range(n)])
    sub = ambient.span(rows)
    sat, index = ambient.saturation(rows)
    assert len(sat) == len(sub)
    assert ambient.saturation(sat) == (sat, 1)
    assert all(contains(ambient, sat, row) for row in sub)
    # index in the saturation equals the product of the invariant factors
    prod = 1
    for d in smith_normal_form(sub).diagonal:
        prod *= d
    assert index == prod
    # a vector is primitive iff its span is already saturated
    vec = rows[0]
    if any(vec):
        line = ambient.span([vec])
        assert ambient.is_primitive(vec) == (ambient.saturation(line)[0] == line)


def test_saturate_near_full_rank_basis():
    # 28 rows in Z^30, entries within 50, times a mixer with diagonal 1-3.
    # A Hermite form that reduces the entries above a pivot only once its
    # column is done takes seconds on this basis, and minutes on other seeds
    # of this shape.
    rng = random.Random(6)
    k, n = 28, 30
    rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(k)]
    mixer = [[rng.randint(-2, 2) if j != r else rng.randint(1, 3) for j in range(k)] for r in range(k)]
    basis = [[sum(mixer[r][j] * rows[j][c] for j in range(k)) for c in range(n)] for r in range(k)]
    ambient = IntegralLattice([[int(i == j) for j in range(n)] for i in range(n)])
    sat, index = ambient.saturation(basis)
    assert len(sat) == k
    assert all(contains(ambient, sat, row) for row in basis)
    pivots = [next(j for j, x in enumerate(row) if x) for row in sat]
    assert pivots == sorted(set(pivots))
    for r, (row, j) in enumerate(zip(sat, pivots)):
        assert row[j] > 0
        assert all(0 <= above[j] < row[j] for above in sat[:r])
    volume = determinant(mat_mul(basis, transpose(basis)))
    assert volume == index**2 * determinant(mat_mul(sat, transpose(sat)))
    assert index > 1


def test_dependent_rows_rejected():
    z2 = IntegralLattice([[1, 0], [0, 1]])
    with pytest.raises(LatticeError) as err:
        z2.span([(1, 2), (2, 4)])
    assert err.value.code == "dependent-rows"
    # Codes are checked in the order invalid-matrix, dimension-mismatch,
    # dependent-rows: a row of the wrong length, empty or dependent, is
    # reported as a length mismatch.
    cases = {
        "invalid-matrix": [[(1, 2), (3,)], [(1, 2, 3), (2, True, 6)]],
        "dependent-rows": [[(0, 0)], [(1, 2), (0, 0)]],
        "dimension-mismatch": [[(1, 2, 3)], [(1, 0, 0), (0, 1, 0)], [(1, 2, 3), (2, 4, 6)], [()]],
    }
    # saturation and orthogonal_complement check their rows as span does,
    # before anything else.
    for code, bases in cases.items():
        for rows in bases:
            for op in (z2.span, z2.saturation, z2.orthogonal_complement):
                with pytest.raises(LatticeError) as err:
                    op(rows)
                assert err.value.code == code, (op, rows)


def test_orthogonal_complement_examples():
    u = hyperbolic()
    assert u.orthogonal_complement([(1, 0)]) == ((1, 0),)
    assert u.orthogonal_complement([]) == ((1, 0), (0, 1))

    uu = u_power(2)
    perp = uu.orthogonal_complement([(1, 0, 0, 0)])
    assert len(perp) == 3
    for vec in [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
        assert contains(uu, perp, vec)

    two = IntegralLattice([[2, 0], [0, -2]])
    assert two.orthogonal_complement([(1, 1)]) == ((1, 1),)


def test_double_complement_contains_saturation():
    lattice = IntegralLattice([[2, 1, 0], [1, -4, 3], [0, 3, 6]])
    assert determinant(lattice.gram) != 0
    sub = [(2, 0, 4)]
    double = lattice.orthogonal_complement(lattice.orthogonal_complement(sub))
    sat = lattice.saturation(sub)[0]
    assert all(contains(lattice, double, row) for row in sat)
    # the restricted form on (1, 0, 2) is nondegenerate, so equality holds
    assert double == sat

    # isotropic span: containment can be strict only in rank, never misses
    two = IntegralLattice([[2, 0], [0, -2]])
    iso = [(2, 2)]
    double = two.orthogonal_complement(two.orthogonal_complement(iso))
    assert all(contains(two, double, row) for row in two.saturation(iso)[0])


def test_discriminant_group():
    assert u_power(4).discriminant_group() == DiscriminantGroup((), 1)
    assert IntegralLattice([[-6]]).discriminant_group() == DiscriminantGroup((6,), 6)
    gram = [[0] * 7 for _ in range(7)]
    for b in range(3):
        gram[2 * b][2 * b + 1] = gram[2 * b + 1][2 * b] = 1
    gram[6][6] = -6
    assert IntegralLattice(gram).discriminant_group() == DiscriminantGroup((6,), 6)
    with pytest.raises(LatticeError) as err:
        IntegralLattice([[0]]).discriminant_group()
    assert err.value.code == "degenerate-lattice"


def test_degenerate_operations_rejected():
    # The complement holds on any lattice: here it is the radical (1, -1).
    degenerate = IntegralLattice([[1, 1], [1, 1]])
    assert degenerate.orthogonal_complement([(1, 0)]) == ((1, -1),)


def test_sublattice_equality_is_basis_equality():
    z2 = IntegralLattice([[1, 0], [0, 1]])
    a = z2.span([(1, 1), (0, 3)])
    b = z2.span([(1, 4), (0, 3)])
    assert a == b == ((1, 1), (0, 3))
    assert a != z2.span([(1, 0), (0, 3)])


def test_coords_and_membership():
    z3 = IntegralLattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    sub = z3.span([(1, 0, 2), (0, 3, 1)])
    assert coords(sub, (1, 3, 3)) == (1, 1)
    assert coords(sub, (0, 1, 0)) is None
    assert contains(z3, sub, (2, 3, 5))
    assert not contains(z3, sub, (0, 1, 0))


def test_contains_answers_a_mukai_vector_as_its_coordinates():
    setup = rank_one_setup(6)
    sub = setup.span([(1, 0, 0), (0, 0, 1)])
    for v in ((0, 0, 0), (2, 0, -1), (1, 1, 0)):
        assert contains(setup, sub, v) == contains(setup, sub, list(v))
    assert contains(setup, sub, (2, 0, -1)) and not contains(setup, sub, (1, 1, 0))
    assert contains(setup, sub, (Fraction(4, 2), 0, 1))
    assert not contains(setup, sub, (Fraction(1, 2), 0, 1))
