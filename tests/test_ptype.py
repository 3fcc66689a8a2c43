from math import gcd

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from mukailat import (
    IntegralLattice,
    LatticeError,
    MukaiSetup,
    PointedSublattice,
    enumerate_p_type,
    is_p_type_form,
    isotropic_lines,
    kummer_mukai_setup,
    ptype,
    rank_one_setup,
)
from oracles import construct_p_type, coords, lincomb, saturated_span


def brute_lines(a, b, c, box=60):
    """Independent census oracle: scan primitive (x, y) with q(x, y) = 0."""
    found = set()
    for x in range(0, box + 1):
        for y in range(-box, box + 1):
            if gcd(x, y) != 1 or (x == 0 and y < 0):
                continue
            if a * x * x + 2 * b * x * y + c * y * y == 0:
                found.add((x, y))
    return found


def test_isotropic_lines_examples():
    assert isotropic_lines([[0, 3], [3, 0]]) == ((0, 1), (1, 0))
    assert isotropic_lines([[2, 0], [0, -2]]) == ((1, -1), (1, 1))
    assert isotropic_lines([[2, 0], [0, -6]]) == ()


# Grams that are not symmetric 2x2, with the code and message each binary-form
# entry raises: IntegralLattice checks the matrix, then the entry its rank.
NOT_BINARY = [
    ([[0, 1], [2, 0]], "Gram matrix must be symmetric"),
    ([[1, 2]], "Gram matrix must be square of positive rank"),
    ([[1, 0], [0]], "rows have unequal lengths"),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "need a symmetric 2x2 Gram matrix"),
]


def test_isotropic_lines_degenerate_cases():
    assert isotropic_lines([[0, 0], [0, 4]]) == ((1, 0),)
    assert isotropic_lines([[4, 0], [0, 0]]) == ((0, 1),)
    assert isotropic_lines([[2, 2], [2, 2]]) == ((1, -1),)
    with pytest.raises(LatticeError) as err:
        isotropic_lines([[0, 0], [0, 0]])
    assert err.value.code == "totally-isotropic"
    for gram, message in NOT_BINARY:
        with pytest.raises(LatticeError) as err:
            isotropic_lines(gram)
        assert (err.value.code, str(err.value)) == ("invalid-matrix", message)


@settings(max_examples=300)
@given(st.integers(-25, 25), st.integers(-25, 25), st.integers(-25, 25))
def test_isotropic_lines_against_brute_force(a, b, c):
    if a == 0 and b == 0 and c == 0:
        return
    lines = isotropic_lines([[a, b], [b, c]])
    assert set(lines) == brute_lines(a, b, c)
    assert len(lines) <= 2
    for xy in lines:
        assert a * xy[0] ** 2 + 2 * b * xy[0] * xy[1] + c * xy[1] ** 2 == 0
        assert gcd(*xy) == 1


@pytest.fixture
def worked():
    setup = rank_one_setup(6)
    v = (0, 1, -3)
    lattice = PointedSublattice.span(setup, v, [v, (1, 0, 0)])
    return setup, v, lattice


def test_span_normalizes_to_hermite_basis(worked):
    setup, v, lattice = worked
    assert lattice.basis == ((1, 0, 0), (0, 1, -3))
    assert lattice.gram2 == ((0, 3), (3, 6))
    assert lattice.v_coords == (0, 1)
    # generator order does not matter
    again = PointedSublattice.span(setup, v, [(1, 0, 0), v])
    assert again == lattice


def test_span_saturates(worked):
    setup, v, _ = worked
    doubled = PointedSublattice.span(setup, v, [(2, 0, 0), v])
    assert doubled.basis == ((1, 0, 0), (0, 1, -3))
    assert setup.saturation(doubled.basis) == (doubled.basis, 1)


def test_span_requires_rank_two_and_membership(worked):
    setup, v, _ = worked
    with pytest.raises(LatticeError) as err:
        PointedSublattice.span(setup, v, [v, lincomb((2, v))])
    assert err.value.code == "dependent-rows"
    with pytest.raises(LatticeError) as err:
        PointedSublattice.span(setup, (1, 1, 1), [v, (1, 0, 0)])
    assert err.value.code == "not-pointed"


def test_census_worked_example(worked):
    setup, v, lattice = worked
    census = lattice.isotropic_classes()
    assert list(census) == [(1, -1, 3), (1, 0, 0)]
    for a in census:
        assert setup.square(a) == 0
        assert setup.is_primitive(a)
        first = next(x for x in a if x)
        assert first > 0


def test_is_p_type_worked_example(worked):
    _, _, lattice = worked
    assert lattice.is_p_type()


def test_is_p_type_false_when_smaller_pairing_exists():
    # the saturation of span{v, (1,0,0)} in NS=<2> picks up (0,0,1),
    # which pairs to -1 against v, under v^2/2 = 3
    setup = rank_one_setup(2)
    v = (1, 0, -3)
    lattice = PointedSublattice.span(setup, v, [v, (1, 0, 0)])
    census = list(lattice.isotropic_classes())
    assert (0, 0, 1) in census
    assert not lattice.is_p_type()


def test_is_p_type_false_on_empty_census():
    setup = rank_one_setup(6)
    v = (0, 1, 0)
    lattice = PointedSublattice.span(setup, v, [v, (1, 0, 1)])
    assert lattice.isotropic_classes() == ()
    assert not lattice.is_p_type()
    with pytest.raises(LatticeError) as err:
        lattice.decomposition()
    assert err.value.code == "not-p-type"


def test_is_p_type_preconditions(worked):
    setup, v, _ = worked
    negative = PointedSublattice.span(setup, (1, 0, 1), [(1, 0, 1), (0, 0, 1)])
    imprimitive = PointedSublattice.span(setup, lincomb((2, v)), [v, (1, 0, 0)])
    for lattice, code in ((negative, "nonpositive-square"), (imprimitive, "imprimitive")):
        for check in (lattice.is_p_type, lattice.decomposition):
            with pytest.raises(LatticeError) as err:
                check()
            assert err.value.code == code


def test_decomposition_worked_example(worked):
    setup, v, lattice = worked
    dec = lattice.decomposition()
    assert dec.s == (1, 0, 0)
    assert dec.t == (-1, 1, -3)
    assert lincomb((1, dec.s), (1, dec.t)) == v
    assert setup.square(dec.s) == 0 and setup.square(dec.t) == 0
    assert setup.pair(dec.s, v) == 3 and setup.pair(dec.t, v) == 3
    assert setup.pair(dec.s, dec.t) == 3


def test_decomposition_solves_the_census_once(worked, monkeypatch):
    _, _, lattice = worked
    calls = []
    census = ptype._isotropic_lines

    def counted(gram2):
        calls.append(gram2)
        return census(gram2)

    monkeypatch.setattr(ptype, "_isotropic_lines", counted)
    assert lattice.decomposition().s == (1, 0, 0)
    assert calls == [lattice.gram2]


def test_construct_worked_example(worked):
    setup, v, lattice = worked
    built = construct_p_type(setup, v, (1, 0, 0))
    assert built == lattice
    assert built.is_p_type()
    # the complementary witness spans the same lattice
    assert construct_p_type(setup, v, (-1, 1, -3)) == built


def test_construct_rejects_bad_witnesses(worked):
    setup, v, _ = worked
    with pytest.raises(LatticeError) as err:
        construct_p_type(setup, v, (0, 0, 1))
    assert err.value.code == "pairing-mismatch"
    with pytest.raises(LatticeError) as err:
        construct_p_type(setup, v, (1, 0, 1))
    assert err.value.code == "not-isotropic"
    with pytest.raises(LatticeError) as err:
        construct_p_type(setup, v, (2, 0, 0))
    assert err.value.code == "imprimitive"
    with pytest.raises(LatticeError) as err:
        construct_p_type(setup, lincomb((2, v)), (1, 0, 0))
    assert err.value.code == "imprimitive"
    small = rank_one_setup(4)
    with pytest.raises(LatticeError) as err:
        construct_p_type(small, (0, 1, -2), (1, 0, 0))
    assert err.value.code == "square-too-small"


def test_enumerate_worked_example(worked):
    setup, v, lattice = worked
    lattices = enumerate_p_type(setup, v, 3)
    assert lattice in lattices
    assert enumerate_p_type(setup, v, 0) == []
    # deterministic, canonically sorted, deduplicated
    again = enumerate_p_type(setup, v, 3)
    assert [l.basis for l in again] == sorted({l.basis for l in lattices})


@pytest.mark.parametrize("bound", [1.5, "3", True, None])
def test_enumerate_takes_only_an_integer_bound(worked, bound):
    setup, v, _ = worked
    with pytest.raises(LatticeError) as err:
        enumerate_p_type(setup, v, bound)
    assert err.value.code == "invalid-matrix"
    with pytest.raises(LatticeError) as err:
        enumerate_p_type(setup, v, -1)
    assert (err.value.code, str(err.value)) == ("invalid-matrix", "bound must be nonnegative")


def test_enumerate_at_bound_six(worked):
    setup, v, _ = worked
    lattices = enumerate_p_type(setup, v, 6)
    assert [l.basis for l in lattices] == [
        ((1, 0, 0), (0, 1, -3)),
        ((3, 0, -2), (0, 1, -3)),
    ]
    for lat in lattices:
        assert lat.is_p_type()
        dec = lat.decomposition()
        assert lincomb((1, dec.s), (1, dec.t)) == v
        assert setup.square(dec.s) == 0 and setup.square(dec.t) == 0
        assert setup.pair(dec.s, v) == setup.square(v) // 2
        # closure: every census witness rebuilds a known lattice
        rebuilt = construct_p_type(setup, v, dec.s)
        assert rebuilt in lattices


def test_decomposition_dimension_identity(worked):
    setup, v, _ = worked
    for lat in enumerate_p_type(setup, v, 6):
        dec = lat.decomposition()
        assert 2 * (setup.pair(dec.s, dec.t) - 1) == setup.square(v) - 2


def test_is_p_type_form_matches_lattice_level(worked):
    _, _, lattice = worked
    assert is_p_type_form(lattice.gram2, lattice.v_coords)
    assert not is_p_type_form([[0, -1], [-1, 0]], (1, -3))
    # v^2 = 3 is odd, and the isotropic lines pair 1 and -3 with v: no class
    # pairs to v^2/2 = 3/2, although 1 equals v^2 // 2.
    assert not is_p_type_form([[0, 1], [1, 1]], (1, 1))
    # Primitivity is tested before the sign of v^2: (2, 0) has v^2 = 0.
    with pytest.raises(LatticeError) as err:
        is_p_type_form([[0, 1], [1, 0]], (2, 0))
    assert (err.value.code, str(err.value)) == ("imprimitive", "v must be primitive")
    with pytest.raises(LatticeError) as err:
        is_p_type_form([[0, -1], [-1, 0]], (1, 1))
    assert (err.value.code, str(err.value)) == ("nonpositive-square", "v^2 = -2 <= 0")


def test_is_p_type_form_checks_v_at_entry():
    gram = [[0, 1], [1, 0]]
    for v_xy in [(1, 1, 0), (1,)]:
        with pytest.raises(LatticeError) as err:
            is_p_type_form(gram, v_xy)
        assert (err.value.code, str(err.value)) == (
            "dimension-mismatch",
            f"vector of length {len(v_xy)} in a rank 2 lattice",
        )
    for v_xy in [(1.0, 1), ("1", 1), (True, 1)]:
        with pytest.raises(LatticeError) as err:
            is_p_type_form(gram, v_xy)
        assert err.value.code == "invalid-matrix"
    # The Gram is checked first, so a v of the wrong length changes nothing.
    for bad, message in NOT_BINARY:
        for v_xy in [(1, 1), (1, 1, 0)]:
            with pytest.raises(LatticeError) as err:
                is_p_type_form(bad, v_xy)
            assert (err.value.code, str(err.value)) == ("invalid-matrix", message)


def test_construct_checks_a_at_entry(worked):
    # a is checked as v is, before any arithmetic or domain check runs.
    setup, v, _ = worked
    for a in [(1.0, 0, 0), "abc", (1, 0, True)]:
        with pytest.raises(LatticeError) as err:
            construct_p_type(setup, v, a)
        assert err.value.code == "invalid-matrix"
    with pytest.raises(LatticeError) as err:
        construct_p_type(setup, v, (1, 0))
    assert (err.value.code, str(err.value)) == ("dimension-mismatch", "c has length 0, NS rank is 1")


def test_form_pair_is_restriction(worked):
    setup, v, lattice = worked
    census = lattice.isotropic_classes()
    for a in census:
        xy = coords(lattice.basis, a)
        assert xy is not None
        assert IntegralLattice(lattice.gram2).pair(xy, lattice.v_coords) == setup.pair(a, v)


SETUPS = [rank_one_setup(2), rank_one_setup(6), MukaiSetup([[2, 1], [1, -2]]), kummer_mukai_setup()]


@st.composite
def spans(draw):
    """A setup, a primitive ``v`` and a second generator, isotropic half the time.

    ``(1, c, c.Nc/2)`` is isotropic for every ``c``, so those spans have a
    nonempty census.
    """
    setup = draw(st.sampled_from(SETUPS))
    entries = st.lists(st.integers(-6, 6), min_size=setup.rank, max_size=setup.rank)
    v = tuple(draw(entries.filter(lambda x: gcd(*x) == 1)))
    if draw(st.booleans()):
        c = draw(st.lists(st.integers(-3, 3), min_size=setup.rho, max_size=setup.rho))
        w = lincomb((draw(st.integers(-3, 3)), (1, *c, setup.ns.square(c) // 2)))
    else:
        w = tuple(draw(entries))
    return setup, v, w


@settings(max_examples=300)
@given(spans())
def test_census_classes_are_sign_fixed_and_sorted(drawn):
    setup, v, w = drawn
    try:
        census = PointedSublattice.span(setup, v, [v, w]).isotropic_classes()
    except LatticeError as err:
        assert err.code in ("dependent-rows", "totally-isotropic")
        return
    classes = list(census)
    assert classes == sorted(set(classes))
    for a in classes:
        assert next(x for x in a if x) > 0
        assert setup.square(a) == 0 and gcd(*a) == 1


@st.composite
def isotropic(draw, setup):
    """A primitive isotropic ``(r, c, s)``: ``s = c.Nc / 2r``, or ``r = 0`` and ``c.Nc = 0``."""
    c = draw(st.lists(st.integers(-3, 3), min_size=setup.rho, max_size=setup.rho))
    form = setup.ns.square(c)
    r = draw(st.integers(-3, 3))
    if r:
        assume(form % (2 * r) == 0)
        s = form // (2 * r)
    else:
        assume(form == 0)
        s = draw(st.integers(-3, 3))
    assume(gcd(r, *c, s) == 1)
    return (r, *c, s)


@st.composite
def witnessed(draw):
    """``(setup, v, a)`` with ``v = a + t``, both primitive isotropic and ``(a, t) >= 3``."""
    setup = draw(st.sampled_from(SETUPS))
    a, t = draw(isotropic(setup)), draw(isotropic(setup))
    pairing = setup.pair(a, t)
    assume(abs(pairing) >= 3)
    v = lincomb((1, a), (1 if pairing > 0 else -1, t))
    assume(setup.is_primitive(v))
    return setup, v, a


def _outcome(call):
    """What ``call()`` returns, or the code of the ``LatticeError`` it raises."""
    try:
        return call()
    except LatticeError as err:
        return err.code


# Spans of either kind: P-type ones from a witness, most others not.
@settings(max_examples=300, suppress_health_check=[HealthCheck.filter_too_much])
@given(st.one_of(spans(), witnessed()))
@example((SETUPS[1], (0, 1, -3), (1, 0, 0)))
def test_the_lattice_level_census_and_test_match_the_form_level(drawn):
    setup, v, w = drawn
    try:
        lattice = PointedSublattice.span(setup, v, [v, w])
    except LatticeError as err:
        assert err.code == "dependent-rows"
        return
    lines = _outcome(lambda: isotropic_lines(lattice.gram2))
    expected = lines if isinstance(lines, str) else tuple(lattice.member(xy) for xy in lines)
    assert _outcome(lattice.isotropic_classes) == expected
    assert _outcome(lattice.is_p_type) == _outcome(lambda: is_p_type_form(lattice.gram2, lattice.v_coords))


@pytest.mark.parametrize(
    "gram", [[[0, 1], [2, 0]], [[2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 2]], [], [[1, 0], [0]], [[1.5, 0], [0, 1]]]
)
def test_the_form_functions_need_a_symmetric_binary_gram(gram):
    for call in (lambda: isotropic_lines(gram), lambda: is_p_type_form(gram, (1, 0))):
        with pytest.raises(LatticeError) as err:
            call()
        assert err.value.code == "invalid-matrix"


# Witnesses whose span {a, v - a} has index 5 and 3 in its saturation.
@settings(max_examples=200, suppress_health_check=[HealthCheck.filter_too_much])
@given(witnessed())
@example((SETUPS[1], (2, 3, 1), (-1, 1, -3)))
@example((SETUPS[2], (-2, 2, 1, 2), (-1, 1, -1, 1)))
def test_construct_matches_the_checked_span(drawn):
    setup, v, a = drawn
    assert construct_p_type(setup, v, a) == PointedSublattice.span(setup, v, [a, lincomb((1, v), (-1, a))])


# Spans {a, v - a} on each branch of the saturation test ptype._saturated,
# by the pivot of the first Hermite row times the
# content of the second: 1 (saturated at once), 3 with coprime minors
# (saturated), and 5 and 3 at index 5 and 3 (the two spans above).
@pytest.mark.parametrize(
    "setup, v, a, lead, index",
    [
        (SETUPS[1], (0, -1, -3), (-1, -1, -3), 1, 1),
        (SETUPS[1], (-3, -1, 0), (-3, -1, -1), 3, 1),
        (SETUPS[1], (2, 3, 1), (-1, 1, -3), 5, 5),
        (SETUPS[2], (-2, 2, 1, 2), (-1, 1, -1, 1), 3, 3),
    ],
)
def test_span_matches_the_smith_saturation(setup, v, a, lead, index):
    t = lincomb((1, v), (-1, a))
    b1, b2 = setup.span([a, t])
    assert next(x for x in b1 if x) * gcd(*b2) == lead
    assert setup.saturation([a, t])[1] == index
    span = PointedSublattice.span(setup, v, [a, t])
    assert span == saturated_span(setup, v, [a, t])
    assert span.is_p_type()


# The witness span reads its Gram and v's coordinates off the Hermite
# transform of {a, v - a}, and falls back to the span through pairings on a
# span that is not saturated.  The examples are the four spans above, one on
# each branch of the saturation test, and a kummer-mukai witness.
@settings(max_examples=150, suppress_health_check=[HealthCheck.filter_too_much])
@given(witnessed())
@example((SETUPS[1], (0, -1, -3), (-1, -1, -3)))
@example((SETUPS[1], (-3, -1, 0), (-3, -1, -1)))
@example((SETUPS[1], (2, 3, 1), (-1, 1, -3)))
@example((SETUPS[2], (-2, 2, 1, 2), (-1, 1, -1, 1)))
@example((SETUPS[3], (1, 1, 1, 1, 1, 0, 0, -1), (-1, 0, 1, 1, 1, 1, 0, -1)))
def test_the_witness_span_matches_the_span_through_pairings(drawn):
    setup, v, a = drawn
    t = lincomb((1, v), (-1, a))
    span = PointedSublattice._of_witness(setup, v, a, t, setup.square(v) // 2)
    assert span == PointedSublattice.span(setup, v, [a, t])
    assert span == saturated_span(setup, v, [a, t])


@st.composite
def pointed(draw):
    """``(setup, v, generators)``: ``m1 x, m2 y`` with ``v = p x + q y``, or ``m1 v, m2 y``.

    Multipliers above 1 put the span at an index above 1 in its saturation,
    and ``p, q`` or the entries of ``x, y`` with a common factor make ``v``
    imprimitive.
    """
    setup = draw(st.sampled_from(SETUPS[1:]))
    vector = st.lists(st.integers(-4, 4), min_size=setup.rank, max_size=setup.rank)
    x, y = draw(vector), draw(vector)
    assume(any(x[i] * y[j] != x[j] * y[i] for i in range(setup.rank) for j in range(i)))
    p, q = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    m1, m2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        v = lincomb((p, x), (q, y))
        generators = [lincomb((m1, x)), lincomb((m2, y))]
    else:
        v = lincomb((p, x))
        generators = [lincomb((m1, v)), lincomb((m2, y))]
    assume(any(v))
    return setup, v, generators


# Both constructors return saturated bases, on which v is primitive in the
# ambient lattice exactly when its coordinates are coprime: the P-type test
# reads only gram2 and v_coords.
@settings(max_examples=200, suppress_health_check=[HealthCheck.filter_too_much])
@given(pointed())
@example((SETUPS[1], (0, 2, -6), [(0, 2, -6), (1, 0, 0)]))
@example((SETUPS[1], (0, 1, -3), [(2, 0, 0), (0, 3, -9)]))
@example((SETUPS[2], (2, 0, 2, 2), [(4, 0, 4, 4), (0, 1, 0, 0)]))
@example((SETUPS[3], (1, 1, 1, 1, 1, 0, 0, -1), [(2, 2, 2, 2, 2, 0, 0, -2), (0, 1, 0, 0, 0, 0, 0, 0)]))
def test_v_is_primitive_exactly_when_its_coordinates_are(drawn):
    setup, v, generators = drawn
    lattice = PointedSublattice.span(setup, v, generators)
    assert lattice == saturated_span(setup, v, generators)
    assert setup.is_primitive(lattice.v) == (gcd(*lattice.v_coords) == 1)


def test_span_keeps_the_checked_v(worked):
    # A v given as a list is stored as the checked tuple.
    setup, v, lattice = worked
    spanned = PointedSublattice.span(setup, list(v), [list(v), [1, 0, 0]])
    assert spanned == lattice and hash(spanned) == hash(lattice)
    assert type(spanned.v) is tuple
    assert spanned.decomposition() == lattice.decomposition()
