import random
from fractions import Fraction

import pytest

from mukailat import (
    ALBANESE_FIBRE_CODIM,
    IntegralLattice,
    LatticeError,
    PointedSublattice,
    classify_line_class,
    contraction_budget,
    enumerate_p_type,
    jh_feasibility,
    kummer_bbf_lattice,
    kummer_mukai_setup,
    mori_candidates,
    rank_one_setup,
    theta_dual,
    v_perp,
)
from oracles import construct_p_type, lincomb, restricted_gram


def _coords(lc):
    """The ambient coordinates of the line class ``R`` as ``Fraction``s."""
    return tuple(Fraction(x, lc.denominator) for x in lc.numerators)


def _square(lc):
    return Fraction(lc.square_numerator, lc.denominator)


@pytest.fixture
def six():
    setup = rank_one_setup(6)
    return setup, (0, 1, -3)


def test_theta_dual_worked_example(six):
    setup, v = six
    lc = theta_dual(setup, v, (1, 0, 0))
    assert _coords(lc) == (Fraction(1), Fraction(-1, 2), Fraction(3, 2))
    assert _square(lc) == Fraction(-3, 2)
    assert lc.disc_order == 2
    assert lc.two_r == (2, -1, 3)
    assert setup.pair(_coords(lc), v) == 0


def test_theta_dual_fixes_v_perp(six):
    setup, v = six
    h = (-2, 1, 0)
    assert setup.pair(h, v) == 0
    lc = theta_dual(setup, v, h)
    assert _coords(lc) == tuple(Fraction(x) for x in h)
    assert _square(lc) == setup.square(h)
    assert lc.disc_order == 1


def test_theta_dual_kills_v(six):
    setup, v = six
    lc = theta_dual(setup, v, v)
    assert all(x == 0 for x in _coords(lc))
    assert _square(lc) == 0 and lc.disc_order == 1


def test_theta_dual_requires_positive_square(six):
    setup, _ = six
    with pytest.raises(LatticeError) as err:
        theta_dual(setup, (1, 0, 0), (0, 0, 1))
    assert err.value.code == "nonpositive-square"


def test_projection_is_idempotent_and_orthogonal(six):
    setup, v = six
    rng = random.Random(7)
    vsq = setup.square(v)
    for _ in range(200):
        a = tuple(rng.randint(-30, 30) for _ in range(3))
        coords = _coords(theta_dual(setup, v, a))
        assert setup.pair(coords, v) == 0
        # by linearity, projecting the integral v^2 R gives back v^2 R
        again = theta_dual(setup, v, tuple(int(vsq * x) for x in coords))
        assert _coords(again) == tuple(vsq * x for x in coords)


def test_line_class_square(six):
    setup, v = six
    assert _square(theta_dual(setup, v, (1, 0, 0))) == Fraction(-3, 2)
    # isotropic witness with (a, v) = v^2/2 always lands on -v^2/4
    assert _square(theta_dual(setup, v, (-1, 1, -3))) == Fraction(-6, 4)
    h = (-2, 1, 0)
    assert _square(theta_dual(setup, v, h)) == setup.square(h)


def test_classify_worked_example(six):
    setup, v = six
    verdict = classify_line_class(setup, v, (1, 0, 0))
    assert verdict.n == 2
    assert verdict.square_ok and verdict.torsion_ok and verdict.isotropic_witness_ok
    assert verdict.all_ok
    assert verdict.lattice is not None
    assert verdict.lattice.basis == ((1, 0, 0), (0, 1, -3))
    assert _square(verdict.line_class) == Fraction(-3, 2)


def test_classify_failure_modes(six):
    setup, v = six
    # pairing 0 != 3: not an isotropic witness, projection square is 0
    verdict = classify_line_class(setup, v, (0, 0, 1))
    assert not verdict.isotropic_witness_ok
    assert not verdict.square_ok
    assert verdict.lattice is None
    # a^2 = 2 shifts the square off the target value
    bump = (-1, 0, 1)
    assert setup.square(bump) == 2
    verdict = classify_line_class(setup, v, bump)
    assert not verdict.square_ok
    # negative witness sign is fine: |(a, v)| is what counts
    verdict = classify_line_class(setup, v, (-1, 0, 0))
    assert verdict.all_ok
    assert verdict.lattice is not None


def test_classify_imprimitive_witness_has_no_lattice():
    # v^2 = 8 on the full U^4 lattice; a doubled isotropic witness passes
    # every numeric check but spans no P-type lattice
    setup = kummer_mukai_setup()
    v = (1, 0, 0, 0, 0, 0, 0, -4)
    a = (0, 2, 0, 0, 0, 0, 0, -4)
    assert setup.square(v) == 8
    assert setup.square(a) == 0 and not setup.is_primitive(a)
    assert setup.pair(a, v) == 4
    verdict = classify_line_class(setup, v, a)
    assert verdict.all_ok
    assert _square(verdict.line_class) == Fraction(-2)
    assert verdict.lattice is None


def test_classify_preconditions(six):
    setup, v = six
    with pytest.raises(LatticeError):
        classify_line_class(setup, lincomb((2, v)), (1, 0, 0))
    with pytest.raises(LatticeError):
        classify_line_class(setup, (1, 0, 0), v)


def test_v_perp(six):
    setup, v = six
    perp = v_perp(setup, v)
    assert perp == ((2, -1, 0), (0, 0, 1))
    assert all(setup.pair(row, v) == 0 for row in perp)
    assert setup.saturation(perp) == (perp, 1)


def test_v_perp_is_the_kummer_bbf_lattice():
    # For primitive v with v^2 = 2n + 2 in the unimodular Mukai lattice U^4,
    # v_perp is even of signature (3, 4) with discriminant group Z/(2n + 2):
    # that of U^3 + <-(2n + 2)>, the Beauville-Bogomolov form of the fibre.
    setup = kummer_mukai_setup()
    for n in range(1, 9):
        vectors = [
            (1, 0, 0, 0, 0, 0, 0, -(n + 1)),
            (0, 1, n + 1, 0, 0, 0, 0, 0),
            (2, 1, n + 2, 0, 0, 1, 1, 1),
        ]
        for v in vectors:
            assert setup.square(v) == 2 * n + 2 and setup.is_primitive(v)
            perp = v_perp(setup, v)
            lattice = IntegralLattice(restricted_gram(setup, perp))
            assert lattice.is_even()
            assert lattice.rank == 7
            assert lattice.signature() == (3, 4, 0)
            assert lattice.discriminant_group() == kummer_bbf_lattice(n).discriminant_group()


def test_mori_bound_zero_is_empty(six):
    setup, v = six
    assert mori_candidates(setup, v, (-2, 1, 0), 0) == []


@pytest.mark.parametrize("bound", [1.5, "3", True, None])
def test_mori_takes_only_an_integer_bound(six, bound):
    setup, v = six
    h = (-2, 1, 0)
    with pytest.raises(LatticeError) as err:
        mori_candidates(setup, v, h, bound)
    assert err.value.code == "invalid-matrix"
    with pytest.raises(LatticeError) as err:
        mori_candidates(setup, v, h, -1)
    assert (err.value.code, str(err.value)) == ("invalid-matrix", "bound must be nonnegative")


def test_mori_validates_h(six):
    setup, v = six
    with pytest.raises(LatticeError) as err:
        mori_candidates(setup, v, (1, 0, 0), 2)
    assert err.value.code == "not-orthogonal"
    with pytest.raises(LatticeError) as err:
        mori_candidates(setup, v, (0, 1, 0), 2)
    assert err.value.code == "not-orthogonal"
    # (0, 0, 1) is orthogonal to v but isotropic, so it fails the other gate
    with pytest.raises(LatticeError) as err:
        mori_candidates(setup, v, (0, 0, 1), 2)
    assert err.value.code == "nonpositive-square"
    isotropic_h = (-2, 1, -1)
    # h = (-2, 1, -1) has square 2; (-2, 1, -2) pairs to 0 but squares to -2
    bad = (-2, 1, -2)
    assert setup.pair(bad, v) == 0 and setup.square(bad) < 0
    with pytest.raises(LatticeError) as err:
        mori_candidates(setup, v, bad, 2)
    assert err.value.code == "nonpositive-square"
    assert setup.square(isotropic_h) == 2


def test_mori_filters(six):
    setup, v = six
    h = (-2, 1, -1)
    candidates = mori_candidates(setup, v, h, 3)
    assert candidates
    half = setup.square(v) // 2
    seen = set()
    for cand in candidates:
        assert setup.square(cand.a) >= 0
        assert abs(setup.pair(cand.a, v)) <= half
        assert setup.pair(_coords(cand.line_class), h) > 0
        assert cand.a not in seen
        seen.add(cand.a)
    assert [c.a for c in candidates] == sorted(c.a for c in candidates)


def test_mori_lagrangian_flags_match_enumeration(six):
    setup, v = six
    h = (-2, 1, -1)
    flagged = [c for c in mori_candidates(setup, v, h, 6) if c.lagrangian]
    assert len(flagged) == 4
    projections = {
        _coords(theta_dual(setup, v, lat.decomposition().s))
        for lat in enumerate_p_type(setup, v, 6)
    }
    for cand in flagged:
        coords = _coords(cand.line_class)
        negated = tuple(-x for x in coords)
        assert coords in projections or negated in projections


def test_converse_square_forces_witness_pairing(six):
    # any integral isotropic a whose projection squares to -(n+1)/2 must
    # satisfy (a, v)^2 = v^4/4, so a sign-fixed primitive witness with a
    # primitive complement spans a P-type lattice
    from itertools import product

    setup, v = six
    vsq = setup.square(v)
    target = Fraction(-vsq, 4)
    hits = 0
    for coords in product(range(-4, 5), repeat=3):
        if not any(coords):
            continue
        a = coords
        if setup.square(a) != 0:
            continue
        if _square(theta_dual(setup, v, a)) != target:
            continue
        pairing = setup.pair(a, v)
        assert pairing * pairing == vsq * vsq // 4
        witness = lincomb((1 if pairing > 0 else -1, a))
        if setup.is_primitive(witness) and setup.is_primitive(lincomb((1, v), (-1, witness))):
            lattice = construct_p_type(setup, v, witness)
            assert lattice.is_p_type()
            hits += 1
    assert hits >= 4


def test_jh_feasibility(six):
    setup, v = six
    report = jh_feasibility(setup, v, [v])
    assert report.m == 1 and report.jh_ok
    assert report.ext1_cross is None and report.dim_identity_ok is None
    report = jh_feasibility(setup, v, [(1, 0, 0), (-1, 1, -3)])
    assert report.jh_ok  # 0 + 0 + 4 <= 8
    with pytest.raises(LatticeError) as err:
        jh_feasibility(setup, v, [(1, 0, 0), (1, 0, 0)])
    assert err.value.code == "sum-mismatch"
    with pytest.raises(LatticeError) as err:
        jh_feasibility(setup, v, [])
    assert err.value.code == "empty-partition"
    # two parts with squares summing to v^2 overshoot by 2
    report = jh_feasibility(setup, v, [(0, 1, 0), (0, 0, -3)])
    assert sum(setup.square(p) for p in report.parts) == setup.square(v)
    assert not report.jh_ok


def test_a_part_from_another_setup_is_a_dimension_mismatch(six):
    setup, v = six
    foreign = (1,) + (0,) * 7
    for check in (jh_feasibility, contraction_budget):
        for parts in ([foreign, v], [v, foreign], [tuple(foreign), v]):
            with pytest.raises(LatticeError) as err:
                check(setup, v, parts)
            assert err.value.code == "dimension-mismatch"


def test_contraction_budget_worked_example(six):
    setup, v = six
    report = contraction_budget(setup, v, [(1, 0, 0), (-1, 1, -3)])
    assert report.ext1_budget_ok
    assert report.ext1_cross == 3
    assert report.dim_identity_ok
    assert report.jh_ok
    single = contraction_budget(setup, v, [v])
    assert not single.ext1_budget_ok  # v^2 + 2 = 8 > 4
    with pytest.raises(LatticeError) as err:
        contraction_budget(setup, v, [(2, 0, 0), (-2, 1, -3)])
    assert err.value.code == "imprimitive"
    # The partition is checked before its parts: a sum that misses v, or no
    # parts at all, wins over imprimitive parts.
    with pytest.raises(LatticeError) as err:
        contraction_budget(setup, v, [(2, 0, 0), (-2, 2, -6)])
    assert err.value.code == "sum-mismatch"
    with pytest.raises(LatticeError) as err:
        contraction_budget(setup, v, [])
    assert err.value.code == "empty-partition"


def test_budget_equality_for_isotropic_pairs(six):
    setup, v = six
    for lat in enumerate_p_type(setup, v, 6):
        dec = lat.decomposition()
        report = contraction_budget(setup, v, [dec.s, dec.t])
        assert report.ext1_budget_ok
        total = sum(setup.square(p) + 2 for p in report.parts)
        assert total == ALBANESE_FIBRE_CODIM


def test_wall_sides_are_negatives(six):
    # the two sides of a P-type wall project s and t = v - s
    setup, v = six
    dec = construct_p_type(setup, v, (1, 0, 0)).decomposition()
    plus = theta_dual(setup, v, dec.s)
    minus = theta_dual(setup, v, dec.t)
    assert _coords(plus) == (Fraction(1), Fraction(-1, 2), Fraction(3, 2))
    assert _coords(minus) == tuple(-x for x in _coords(plus))
    assert _square(plus) == _square(minus) == Fraction(-3, 2)
    assert plus.disc_order == minus.disc_order == 2


def test_pipeline_on_picard_rank_two_setups():
    # enumerate -> decompose -> wall sides -> classify, on NS lattices of
    # rank 2 with signature (1, 1); every stage must agree with the others
    from mukailat import MukaiSetup

    rng = random.Random(31337)
    tested = seen = 0
    while tested < 60:
        a, c = rng.randint(1, 4), rng.randint(1, 4)
        b = rng.randint(-3, 3)
        setup = MukaiSetup([[2 * a, b], [b, -2 * c]])
        for _ in range(200):
            coords = [rng.randint(-3, 3) for _ in range(4)]
            if not any(coords):
                continue
            v = tuple(coords)
            if not setup.is_primitive(v):
                continue
            vsq = setup.square(v)
            if vsq not in (6, 8, 10):
                continue
            n = vsq // 2 - 1
            for lattice in enumerate_p_type(setup, v, 4):
                assert lattice.is_p_type()
                dec = lattice.decomposition()
                assert lincomb((1, dec.s), (1, dec.t)) == v
                assert setup.square(dec.s) == 0 == setup.square(dec.t)
                assert setup.pair(dec.s, v) == vsq // 2 == setup.pair(dec.t, v)
                assert 2 * (setup.pair(dec.s, dec.t) - 1) == vsq - 2
                plus = theta_dual(setup, v, dec.s)
                minus = theta_dual(setup, v, dec.t)
                assert _square(plus) == Fraction(-(n + 1), 2)
                assert plus.disc_order == 2
                assert _coords(plus) == tuple(-x for x in _coords(minus))
                verdict = classify_line_class(setup, v, dec.s)
                assert verdict.all_ok and verdict.lattice == lattice
                seen += 1
            tested += 1
            if tested >= 60:
                break
    assert seen >= 40


def test_wall_side_requires_p_type():
    # a lattice that is not of P-type has no wall, so no (s, t) to project
    from mukailat import PointedSublattice

    two = rank_one_setup(2)
    w = (1, 0, -3)
    lattice = PointedSublattice.span(two, w, [w, (1, 0, 0)])
    with pytest.raises(LatticeError) as err:
        lattice.decomposition()
    assert err.value.code == "not-p-type"


@pytest.mark.parametrize("plain", [tuple, list])
@pytest.mark.parametrize(
    "make_setup, v, a",
    [
        pytest.param(lambda: rank_one_setup(6), (0, 1, -3), (1, 0, 0), id="rank1"),
        pytest.param(kummer_mukai_setup, (1, 0, 0, 0, 0, 0, 0, -3), (0, 1, 0, 0, 0, 0, 0, -3), id="kummer"),
    ],
)
def test_public_functions_take_plain_coordinates(plain, make_setup, v, a):
    # Lists give what tuples give.
    setup = make_setup()
    minus_a, t = lincomb((-1, a)), lincomb((1, v), (-1, a))
    built = construct_p_type(setup, v, a)
    assert construct_p_type(setup, plain(v), plain(a)) == built
    verdict = classify_line_class(setup, plain(v), plain(minus_a))
    assert verdict == classify_line_class(setup, v, minus_a)
    assert verdict.lattice == built
    spanned = PointedSublattice.span(setup, plain(v), [plain(v), plain(a)])
    assert spanned.decomposition() == built.decomposition() == (a, t)
    report = jh_feasibility(setup, plain(v), [plain(a), plain(t)])
    assert report == jh_feasibility(setup, v, [a, t])
    assert report.dim_identity_ok


def test_each_public_function_checks_its_vectors_first():
    # Every vector is checked against the setup, with the one message of
    # MukaiSetup._check, before any arithmetic or domain check runs.
    six = rank_one_setup(6)
    mismatch = ("dimension-mismatch", "c has length 0, NS rank is 1")
    calls = [
        lambda: theta_dual(six, (0, 1, -3), (1, 0)),
        lambda: theta_dual(six, (0, 1), (1, 0, 0)),
        # v = (0, 2, -6) is imprimitive, but the short a is reported first.
        lambda: classify_line_class(six, (0, 2, -6), (1, 0)),
        # v^2 = 0 < 6, but the short h is reported first.
        lambda: mori_candidates(six, (1, 0, 0), (1, 0), 1),
    ]
    for call in calls:
        with pytest.raises(LatticeError) as err:
            call()
        assert (err.value.code, str(err.value)) == mismatch
    with pytest.raises(LatticeError) as err:
        theta_dual(six, (0, 1, -3), (1, 0, 0.5))
    assert err.value.code == "invalid-matrix"
    # Lists are taken as the tuples they hold.
    assert theta_dual(six, [0, 1, -3], [1, 0, 0]) == theta_dual(six, (0, 1, -3), (1, 0, 0))
    assert classify_line_class(six, [0, 1, -3], [1, 0, 0]) == classify_line_class(six, (0, 1, -3), (1, 0, 0))
