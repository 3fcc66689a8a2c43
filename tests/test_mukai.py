import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mukailat import (
    IntegralLattice,
    LatticeError,
    MukaiSetup,
    PointedSublattice,
    classify_line_class,
    contraction_budget,
    jh_feasibility,
    kummer_bbf_lattice,
    kummer_mukai_setup,
    mori_candidates,
    rank_one_setup,
    smith_normal_form,
    theta_dual,
)
from mukailat.mukai import MEMO_SIZE, _setup
from oracles import construct_p_type

# A bool, a float and a str where an integer belongs.
NON_INTEGERS = [True, 1.0, "1"]


def assert_invalid_matrix(build):
    with pytest.raises(LatticeError) as err:
        build()
    assert err.value.code == "invalid-matrix"


@pytest.fixture
def six():
    return rank_one_setup(6)


def test_pair_worked_examples(six):
    v = (0, 1, -3)
    assert six.square(v) == 6
    s = (1, 0, 0)
    assert six.pair(s, v) == 3


def test_pair_middle_part_is_ns_form():
    setup = MukaiSetup([[4, 1], [1, -2]])
    c = (0, 2, -1, 0)
    # 4*2^2 + 2*1*2*(-1) + (-2)*(-1)^2
    assert setup.square(c) == 10


def test_a_setup_keeps_its_checked_ns_lattice():
    setup = MukaiSetup([[4, 1], [1, -2]])
    assert type(setup.ns) is IntegralLattice and setup.ns.gram == ((4, 1), (1, -2))
    assert setup.rho == setup.ns.rank == 2
    assert tuple(row[1:-1] for row in setup.gram[1:-1]) == setup.ns.gram
    assert rank_one_setup(6).ns == IntegralLattice([[6]])
    u = ((0, 1), (1, 0))
    u_cubed = tuple(tuple(u[i % 2][j % 2] if i // 2 == j // 2 else 0 for j in range(6)) for i in range(6))
    assert kummer_mukai_setup().ns.gram == u_cubed
    assert kummer_mukai_setup().ns.signature() == (3, 3, 0)


def _mukai_form(setup, x, y):
    """``c.Nc' - r s' - s r'``, from the components and the NS Gram alone."""
    ns = setup.ns.gram
    middle = sum(a * ns[i][j] * b for i, a in enumerate(x[1:-1]) for j, b in enumerate(y[1:-1]))
    return middle - x[0] * y[-1] - x[-1] * y[0]


def test_pair_agrees_with_ambient_form(six):
    rng = random.Random(20240811)
    setups = [six, kummer_mukai_setup(), MukaiSetup([[2, 1], [1, -4]])]
    for setup in setups:
        for _ in range(1000 // len(setups)):
            x = tuple(rng.randint(-99, 99) for _ in range(setup.rank))
            y = tuple(rng.randint(-99, 99) for _ in range(setup.rank))
            assert setup.pair(x, y) == _mukai_form(setup, x, y)
            assert setup.pair(x, y) == setup.pair(y, x)


@given(st.lists(st.integers(-1000, 1000), min_size=3, max_size=3))
def test_ambient_is_even(coords):
    assert rank_one_setup(6).square(coords) % 2 == 0


def test_from_chern(six):
    # the Todd class of an abelian surface is trivial, so a vector is the
    # Chern data (rank, c1, ch2) verbatim; a line bundle with c1 = H,
    # H^2 = 6 has ch2 = H^2/2 = 3 and is isotropic
    assert six.square((1, 1, 3)) == 0


def test_kummer_dimension(six):
    v = (0, 1, -3)
    assert six.kummer_dimension(v) == 4
    assert six.kummer_dimension(v) // 2 == 2
    assert six.kummer_dimension(v) == six.square(v) - 2
    with pytest.raises(LatticeError) as err:
        six.kummer_dimension((0, 2, -6))
    assert (err.value.code, str(err.value)) == ("imprimitive", "v must be primitive")
    with pytest.raises(LatticeError) as err:
        six.kummer_dimension((1, 0, 0))
    assert (err.value.code, str(err.value)) == ("square-too-small", "v^2 = 0 < 6")


@pytest.mark.parametrize("n", range(2, 21))
def test_kummer_dimension_identity(n):
    setup = rank_one_setup(2 * (n + 1))
    v = (0, 1, -(n + 1))
    assert setup.square(v) == 2 * n + 2
    assert setup.kummer_dimension(v) == 2 * n
    assert setup.kummer_dimension(v) // 2 == n


def test_kummer_dimension_needs_square_at_least_six():
    # v^2 = 4 (n = 1) is below the fibre definition's threshold
    setup = rank_one_setup(4)
    v = (0, 1, -2)
    assert setup.square(v) == 4
    with pytest.raises(LatticeError) as err:
        setup.kummer_dimension(v)
    assert err.value.code == "square-too-small"


def test_kummer_mukai_preset_is_unimodular_u4():
    setup = kummer_mukai_setup()
    assert setup.rank == 8
    group = setup.discriminant_group()
    assert group.order == 1 and group.invariant_factors == ()
    assert setup.signature() == (4, 4, 0)
    assert setup.is_even()


def test_rank_one_ambient_signature(six):
    assert six.signature() == (2, 1, 0)
    assert six.is_even()


def test_kummer_bbf_lattice():
    lattice = kummer_bbf_lattice(2)
    assert lattice.rank == 7
    assert lattice.discriminant_group().invariant_factors == (6,)
    with pytest.raises(LatticeError):
        kummer_bbf_lattice(0)


@pytest.mark.parametrize("n", [True, 2.0, "2"])
def test_kummer_bbf_lattice_rejects_a_non_integer_n(n):
    # Though True == 1 and 2.0 == 2, neither builds the lattice of 1 or 2.
    assert kummer_bbf_lattice(1).gram[6][6] == -4
    assert kummer_bbf_lattice(2).gram[6][6] == -6
    with pytest.raises(LatticeError) as err:
        kummer_bbf_lattice(n)
    assert (err.value.code, str(err.value)) == ("invalid-matrix", "n must be an integer")


def test_factories_share_their_results():
    assert rank_one_setup(6) is rank_one_setup(6)
    assert _setup(((6,),)) is rank_one_setup(6)
    assert kummer_mukai_setup() is kummer_mukai_setup()
    # A Kummer BBF lattice is built on each call, equal to the last one.
    lattice = kummer_bbf_lattice(2)
    assert kummer_bbf_lattice(2) == lattice and hash(kummer_bbf_lattice(2)) == hash(lattice)
    # A number equal to a valid argument but of another type still fails.
    assert_invalid_matrix(lambda: rank_one_setup(6.0))
    assert_invalid_matrix(lambda: kummer_bbf_lattice(2.0))


def test_the_memos_are_bounded():
    for k in range(1, MEMO_SIZE + 11):
        rank_one_setup(2 * k)
    assert _setup.cache_info().currsize <= MEMO_SIZE


def test_setup_validation():
    with pytest.raises(LatticeError) as err:
        MukaiSetup([[3]])
    assert err.value.code == "not-even"
    with pytest.raises(LatticeError):
        MukaiSetup([[0, 1], [2, 0]])
    with pytest.raises(LatticeError) as err:
        MukaiSetup([[-2]])
    assert err.value.code == "bad-signature"
    with pytest.raises(LatticeError) as err:
        MukaiSetup([[2, 0], [0, 2]])
    assert err.value.code == "bad-signature"
    # A preset degree fails with the code and message of its explicit Gram.
    for degree in (5, 0, -2):
        with pytest.raises(LatticeError) as preset:
            rank_one_setup(degree)
        with pytest.raises(LatticeError) as explicit:
            MukaiSetup([[degree]])
        assert (preset.value.code, str(preset.value)) == (explicit.value.code, str(explicit.value))
    # A degree that is not an int fails on entry, never with a TypeError.
    for degree in ["6", *NON_INTEGERS]:
        assert_invalid_matrix(lambda: rank_one_setup(degree))
    for ns in ([[0]], [[2, 2], [2, 2]]):
        with pytest.raises(LatticeError) as err:
            MukaiSetup(ns)
        assert err.value.code == "degenerate-lattice"
    # Every public entry point that takes a matrix rejects non-integer entries.
    plane = IntegralLattice([[0, 1], [1, 0]])
    for bad in NON_INTEGERS:
        assert_invalid_matrix(lambda: MukaiSetup([[bad]]))
        assert_invalid_matrix(lambda: MukaiSetup([[0, bad], [bad, 0]]))
        assert_invalid_matrix(lambda: IntegralLattice([[2, bad], [bad, 2]]))
        assert_invalid_matrix(lambda: plane.span([[1, 0], [0, bad]]))
        assert_invalid_matrix(lambda: smith_normal_form([[1, bad], [0, 1]]))


def test_vector_is_the_tuple_r_c_s(six):
    # The tuple is flat: c sits between r and s.  Every public function reads
    # a list as the tuple it holds.
    report = jh_feasibility(six, [0, 1, -3], [[1, 0, 0], (-1, 1, -3)])
    assert report.parts == ((1, 0, 0), (-1, 1, -3)) and all(type(p) is tuple for p in report.parts)
    assert PointedSublattice.span(six, [0, 1, -3], [[0, 1, -3], [1, 0, 0]]).v == (0, 1, -3)
    w = (2, 3, -4, 5)
    assert (w[0], w[1:-1], w[-1]) == (2, (3, -4), 5)
    # (w, e_r) = -s and (w, e_s) = -r, so r and s are the ends.
    setup = MukaiSetup([[2, 1], [1, -4]])
    assert setup.pair(w, (1, 0, 0, 0)) == -5 and setup.pair(w, (0, 0, 0, 1)) == -2


def test_vector_validation(six):
    with pytest.raises(LatticeError) as err:
        theta_dual(six, (0, 1, -3), (1, 0, 0, 0))
    assert err.value.code == "dimension-mismatch"
    # A vector of another setup is rejected at every entry, with one code.
    kummer = kummer_mukai_setup()
    for setup, v, foreign in [
        (six, (0, 1, -3), (1,) + (0,) * 7),
        (kummer, (1,) + (0,) * 6 + (-3,), (1, 0, 0)),
    ]:
        entries = [
            lambda: setup.pair(v, foreign),
            lambda: setup.pair(foreign, v),
            lambda: setup.square(foreign),
            lambda: setup.is_primitive(foreign),
            lambda: theta_dual(setup, v, foreign),
            lambda: classify_line_class(setup, v, foreign),
            lambda: mori_candidates(setup, v, foreign, 1),
            lambda: PointedSublattice.span(setup, v, [v, foreign]),
            lambda: PointedSublattice.span(setup, v, [v, list(foreign)]),
            lambda: construct_p_type(setup, v, foreign),
            lambda: jh_feasibility(setup, v, [foreign, v]),
            lambda: contraction_budget(setup, v, [foreign, v]),
        ]
        for entry in entries:
            with pytest.raises(LatticeError) as err:
                entry()
            assert err.value.code == "dimension-mismatch"
    for short in ([1], []):
        with pytest.raises(LatticeError) as err:
            theta_dual(six, short, (1, 0, 0))
        assert (err.value.code, str(err.value)) == ("dimension-mismatch", "need at least rank and degree-4 parts")
    for bad in NON_INTEGERS:
        assert_invalid_matrix(lambda: theta_dual(six, (bad, 0, 0), (1, 0, 0)))
        assert_invalid_matrix(lambda: theta_dual(six, (0, bad, 0), (1, 0, 0)))
        assert_invalid_matrix(lambda: theta_dual(six, (0, 0, bad), (1, 0, 0)))
        assert_invalid_matrix(lambda: PointedSublattice.span(six, (0, 1, -3), [[0, bad, 0], (1, 0, 0)]))
        assert_invalid_matrix(lambda: PointedSublattice.span(six, (0, 1, -3), [[bad, 0, 0], (1, 0, 0)]))


def test_vector_reports_its_first_non_integer_entry(six):
    # The entries are checked in order, and all of them before the length.
    for vector, bad in [
        (("r", 1.5, None), "r"),
        ((0, 1.5, None), 1.5),
        (("r", 0, None), "r"),
        ((0, 0, None), None),
        (("r", 0, 0, 0), "r"),
    ]:
        with pytest.raises(LatticeError) as err:
            theta_dual(six, vector, (1, 0, 0))
        assert (err.value.code, str(err.value)) == ("invalid-matrix", f"non-integer entry {bad!r}")
