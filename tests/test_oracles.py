"""The closed-form searches, the rank-2 span and the normal forms against the old code.

``oracles.py`` keeps the box scans and the generic saturation that
``enumerate_p_type``, ``mori_candidates`` and ``PointedSublattice.span``
replaced, and the ``(c, r)`` loop that ``enumerate_p_type`` ran before it
solved for ``r``.  Each ``v`` is built as a witness plus an isotropic
complement, so that most enumerations are not empty, and the strategies
force the branches of the closed form: a witness with ``r = 0``, and a ``v`` with
``r_v = 0``, and for ``mori`` an ``h`` with ``r_h = 0``.  The ``lagrangian``
candidates of ``mori`` are checked against the witnesses of the P-type
lattices that ``enumerate_p_type`` finds, and against the lattices of
``classify_line_class`` and of the checked witness span ``construct_p_type``
of ``oracles.py`` on the ``[-1, 1]`` box,
whose squares and orders the rational solve checks.  The sparse pairing
and the box of squares the searches scan are checked against the dense
double loop.  Saturation is
checked against the route through the Smith transform, and discriminant
groups against sympy's invariant factors.  The
Smith form, which goes through alternating Hermite forms, is checked
against sympy's decomposition and its diagonal.  The
integer ``signature`` is checked against the ``Fraction`` congruence
diagonalisation it replaced, and the nondegeneracy checks that read the
signature or the Smith diagonal (``discriminant_group`` and ``MukaiSetup``)
against the Bareiss ``determinant`` of ``oracles.py``.  The orthogonal
complement, on degenerate lattices too, is checked against the kernel of
the pairings through sympy's Smith form.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    construct_p_type,
    coords,
    dense_pair,
    determinant,
    enumerate_p_type_pairs,
    enumerate_p_type_scan,
    kernel_via_smith,
    lincomb,
    line_class_scan,
    mori_candidates_scan,
    restricted_gram,
    saturate_snf,
    saturated_span,
    signature_congruence,
    smith_by_sympy,
)
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors, smith_normal_form as sympy_smith

from mukailat import (
    IntegralLattice,
    LatticeError,
    MukaiSetup,
    PointedSublattice,
    classify_line_class,
    enumerate_p_type,
    kummer_bbf_lattice,
    kummer_mukai_setup,
    mori_candidates,
    theta_dual,
)
from mukailat.intlinalg import _hermite, signature, smith_diagonal, smith_normal_form

BOX = 4


def slow(examples: int):
    return settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )


@lru_cache(maxsize=None)
def _setup(ns) -> MukaiSetup:
    return MukaiSetup(ns)


@lru_cache(maxsize=None)
def _isotropic(ns) -> tuple:
    """Primitive isotropic vectors in the box ``[-BOX, BOX]``."""
    setup = _setup(ns)
    return tuple(
        a
        for a in product(range(-BOX, BOX + 1), repeat=setup.rank)
        if gcd(*a) == 1 and setup.square(a) == 0
    )


@st.composite
def even_ns(draw, rho):
    """An even NS Gram of signature (1, rho - 1)."""
    if rho == 1:
        return ((2 * draw(st.integers(1, 5)),),)
    a, c = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    b = draw(st.sampled_from([b for b in range(-5, 6) if b * b > 4 * a * c]))
    return ((2 * a, b), (b, 2 * c))


@st.composite
def pointed(draw, rho, mode=None):
    """``(setup, v, a)``: ``v = a + t`` with ``a``, ``t`` primitive isotropic and ``v^2 >= 6``."""
    ns = draw(even_ns(rho))
    setup = _setup(ns)
    if mode is None:
        mode = draw(st.sampled_from(["any", "witness r = 0", "v r = 0"]))
    witnesses = [a for a in _isotropic(ns) if mode != "witness r = 0" or a[0] == 0]
    assume(witnesses)
    a = draw(st.sampled_from(witnesses))
    complements = [
        t
        for t in _isotropic(ns)
        if 3 <= setup.pair(a, t) <= 8
        and gcd(*(x + y for x, y in zip(a, t))) == 1
        and (mode != "v r = 0" or a[0] + t[0] == 0)
    ]
    assume(complements)
    t = draw(st.sampled_from(complements))
    v = tuple(x + y for x, y in zip(a, t))
    return setup, v, a


@slow(40)
@given(st.sampled_from([1, 2]).flatmap(pointed), st.integers(0, 4))
def test_enumerate_matches_the_box_scan(case, bound):
    setup, v, a = case
    found = enumerate_p_type(setup, v, bound)
    assert found == enumerate_p_type_scan(setup, v, bound)
    if max(map(abs, a)) <= bound:
        assert found


@pytest.mark.parametrize("v", [(1, 1, 1, 1, 1, 0, 0, -1), (0, 1, 1, 1, 1, 1, 1, 0)])
def test_enumerate_matches_the_box_scan_on_kummer_mukai(v):
    setup = kummer_mukai_setup()
    assert setup.square(v) == 6
    found = enumerate_p_type(setup, v, 1)
    assert found
    assert found == enumerate_p_type_scan(setup, v, 1)


# The (c, r) loop that enumerate_p_type ran before it solved for r, at
# bounds past the corners of the strategies' witnesses.
@pytest.mark.parametrize("mode", ["any", "witness r = 0", "v r = 0"])
@pytest.mark.parametrize("rho, max_bound", [(1, 30), (2, 8)])
@slow(60)
@given(data=st.data())
def test_enumerate_matches_the_pair_scan(rho, max_bound, mode, data):
    setup, v, a = data.draw(pointed(rho, mode))
    bound = data.draw(st.integers(0, max_bound))
    assert enumerate_p_type(setup, v, bound) == enumerate_p_type_pairs(setup, v, bound)


# On U, v = (1, (1, 3), 0) has (a, v) = 3c_1 + c_2 - s, free of r, and
# v = (0, (1, 3), 1) has (a, v) = 3c_1 + c_2 - r, free of s.  So at c = (1, 0),
# where c.Nc = 0, every r != 0 (with s = 0), and every s (with r = 0), is a
# witness.
@pytest.mark.parametrize("v", [(1, 1, 3, 0), (0, 1, 3, 1)])
@pytest.mark.parametrize("bound, count", [(1, 4), (2, 8), (3, 11), (5, 21)])
def test_enumerate_keeps_every_in_box_root_of_a_vanishing_equation(v, bound, count):
    setup = _setup(((0, 1), (1, 0)))
    found = enumerate_p_type(setup, v, bound)
    assert len(found) == count
    assert found == enumerate_p_type_pairs(setup, v, bound)


# Rank 1 cases whose v_perp is isotropic (<6>) or anisotropic (the others).
@pytest.mark.parametrize(
    "degree, v, count", [(6, (0, 1, -3), 2), (10, (1, 1, -4), 2), (12, (1, 0, -3), 4), (4, (1, 2, -1), 3)]
)
def test_enumerate_matches_the_pair_scan_at_bound_400(degree, v, count):
    setup = _setup(((degree,),))
    found = enumerate_p_type(setup, v, 400)
    assert len(found) == count
    assert found == enumerate_p_type_pairs(setup, v, 400)


@st.composite
def pointed_with_h(draw, rho):
    """``(setup, v, h)``; the modes force ``r_h = 0`` or ``r_v = 0``, where the
    ``(a, h)`` or the ``(a, v)`` test of ``mori_candidates`` does not depend
    on ``s``."""
    mode = draw(st.sampled_from(["any", "h r = 0", "v r = 0"]))
    setup, v, a = draw(pointed(rho, "v r = 0" if mode == "v r = 0" else None))
    positive = [
        h
        for h in product(range(-3, 4), repeat=setup.rank)
        if setup.pair(h, v) == 0
        and setup.square(h) > 0
        and (mode != "h r = 0" or h[0] == 0)
    ]
    assume(positive)
    return setup, v, draw(st.sampled_from(positive))


@slow(40)
@given(st.data())
def test_mori_matches_the_box_scan(data):
    rho = data.draw(st.sampled_from([1, 2]))
    setup, v, h = data.draw(pointed_with_h(rho))
    # The rank-4 scan of the old code runs about half a second at bound 4.
    bound = data.draw(st.integers(0, 6 if rho == 1 else 3))
    assert mori_candidates(setup, v, h, bound) == mori_candidates_scan(setup, v, h, bound)


def test_mori_matches_the_box_scan_on_kummer_mukai():
    # rho = 6: the heads come from the box of squares of the rank-6 NS block.
    setup = kummer_mukai_setup()
    v = (1, 1, 1, 1, 1, 0, 0, -1)
    h = next(
        h
        for h in product(range(-1, 2), repeat=setup.rank)
        if setup.pair(h, v) == 0 and setup.square(h) > 0
    )
    found = mori_candidates(setup, v, h, 1)
    assert any(cand.lagrangian for cand in found)
    assert found == mori_candidates_scan(setup, v, h, 1)


@slow(40)
@given(st.data())
def test_lagrangian_candidates_are_the_enumerated_witnesses(data):
    rho = data.draw(st.sampled_from([1, 2]))
    setup, v, h = data.draw(pointed_with_h(rho))
    bound = data.draw(st.integers(0, 6))
    lagrangian = {cand.a for cand in mori_candidates(setup, v, h, bound) if cand.lagrangian}
    witnesses = set()
    for lattice in enumerate_p_type(setup, v, bound):
        dec = lattice.decomposition()
        for w in (dec.s, dec.t, lincomb((-1, dec.s)), lincomb((-1, dec.t))):
            if max(map(abs, w)) <= bound and setup.pair(w, h) > 0:
                witnesses.add(w)
    assert lagrangian == witnesses


# kummer-mukai vectors with v^2 = 6 or 8 whose [-1, 1] box holds witnesses.
KUMMER_VS = [(1, 1, 1, 1, 1, 0, 0, -1), (0, 1, 1, 1, 1, 1, 1, 0), (1, 0, 0, 0, 0, 0, 0, -3), (1, 0, 0, 0, 0, 0, 0, -4)]


@lru_cache(maxsize=None)
def _unit_box(setup, v) -> tuple:
    """The nonzero points of ``[-1, 1]^rank``, those with ``a^2 = 0`` and
    ``|(a, v)| = v^2/2``, and those ``h`` with ``(h, v) = 0`` and ``h^2 > 0``."""
    box = [a for a in product(range(-1, 2), repeat=setup.rank) if any(a)]
    half = setup.square(v) // 2
    witnesses = [a for a in box if setup.square(a) == 0 and abs(setup.pair(a, v)) == half]
    return box, witnesses, [h for h in box if setup.pair(h, v) == 0 and setup.square(h) > 0]


@lru_cache(maxsize=None)
def _mori_flags(setup, v, h) -> dict:
    return {cand.a: cand.lagrangian for cand in mori_candidates(setup, v, h, 1)}


@st.composite
def witness_cases(draw):
    """``(setup, v, h, a)`` on rho = 1, rho = 2 or kummer-mukai, with ``a`` in
    the ``[-1, 1]`` box, half the time one with ``a^2 = 0`` and ``|(a, v)| = v^2/2``."""
    rho = draw(st.sampled_from([1, 2, None]))
    if rho is None:
        setup, v = kummer_mukai_setup(), draw(st.sampled_from(KUMMER_VS))
        h = draw(st.sampled_from(_unit_box(setup, v)[2]))
    else:
        setup, v, h = draw(pointed_with_h(rho))
    box, witnesses, _ = _unit_box(setup, v)
    return setup, v, h, draw(st.sampled_from(witnesses if witnesses and draw(st.booleans()) else box))


# classify_line_class, the oracle construct_p_type and mori_candidates share
# one witness test.  The examples are the doubled witness of a v with v^2 = 8, and a
# witness whose complement (-3, 0, 0) is imprimitive.
@slow(80)
@given(witness_cases())
@example((kummer_mukai_setup(), KUMMER_VS[3], (0, -1, -1, -1, -1, -1, -1, 0), (0, 2, 0, 0, 0, 0, 0, -4)))
@example((_setup(((6,),)), (-3, 0, 1), (-3, -3, -1), (0, 0, 1)))
def test_classify_construct_and_mori_agree_on_witnesses(case):
    setup, v, h, a = case
    verdict = classify_line_class(setup, v, a)
    w = lincomb((1 if setup.pair(a, v) > 0 else -1, a))
    built = _outcome(construct_p_type, setup, v, w)
    assert isinstance(built, PointedSublattice) == (verdict.lattice is not None)
    if verdict.lattice is not None:
        assert built == verdict.lattice
        assert set(verdict.lattice.decomposition()) == {w, lincomb((1, v), (-1, w))}
    if max(map(abs, a)) <= 1 and setup.pair(a, h) > 0:
        assert _mori_flags(setup, v, h).get(a, False) == (verdict.lattice is not None)
    oracle = line_class_scan(setup, v, a)
    assert verdict.square_ok == (Fraction(oracle.square_numerator, oracle.denominator) == Fraction(-setup.square(v), 4))
    assert verdict.torsion_ok == (oracle.disc_order <= 2)


@slow(60)
@given(st.data())
def test_theta_dual_matches_the_rational_solve(data):
    kummer = data.draw(st.booleans())
    if kummer:
        setup = kummer_mukai_setup()
        v = (1, 1, 1, 1, 1, 0, 0, -1)
    else:
        setup, v, _ = data.draw(pointed(data.draw(st.sampled_from([1, 2]))))
    a = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=setup.rank, max_size=setup.rank)))
    lc = theta_dual(setup, v, a)
    assert lc == line_class_scan(setup, v, a)
    assert (lc.two_r is not None) == (lc.disc_order <= 2)
    if lc.two_r is not None:
        assert all(x * lc.denominator == 2 * p for x, p in zip(lc.two_r, lc.numerators, strict=True))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LatticeError as exc:
        return exc.code, str(exc)


@slow(150)
@given(st.data())
def test_span_matches_the_generic_saturation(data):
    ns = data.draw(st.sampled_from([None, ((6,),)]) | even_ns(2))
    setup = kummer_mukai_setup() if ns is None else _setup(ns)
    vector = st.lists(st.integers(-4, 4), min_size=setup.rank, max_size=setup.rank).map(tuple)
    g1, g2 = data.draw(vector), data.draw(vector)
    # Keep most draws at rank 2; a zero or repeated generator is one shape of many.
    independent = any(g1[i] * g2[j] != g1[j] * g2[i] for i, j in combinations(range(setup.rank), 2))
    assume(independent or data.draw(st.integers(0, 4)) == 0)
    x, y = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    shape = data.draw(st.sampled_from(["two"] * 4 + ["dependent third", "third", "single", "v off the span"]))
    # A multiplier above 1 puts the span at an index above 1 in its saturation.
    m1, m2 = data.draw(st.sampled_from([1, 1, 2, 3])), data.draw(st.sampled_from([1, 1, 2, 3]))
    generators = [tuple(m1 * p for p in g1), tuple(m2 * q for q in g2)]
    v = tuple(x * p + y * q for p, q in zip(g1, g2))
    if shape == "dependent third":
        generators.append(tuple(p + q for p, q in zip(g1, g2)))
    elif shape == "third":
        generators.append(data.draw(vector))
    elif shape == "single":
        generators = generators[:1]
    elif shape == "v off the span":
        v = data.draw(vector)
    got = _outcome(PointedSublattice.span, setup, v, generators)
    assert got == _outcome(saturated_span, setup, v, generators)
    if isinstance(got, PointedSublattice):
        saturated = setup.saturation(generators)[0]
        assert got.basis == saturated
        assert got.gram2 == restricted_gram(setup, saturated)
        assert got.v_coords == coords(saturated, v)


def test_span_error_codes():
    setup = _setup(((6,),))
    v = (0, 1, -3)
    a = (1, 0, 0)
    doubled = PointedSublattice.span(setup, v, [lincomb((2, a)), v])
    assert doubled == saturated_span(setup, v, [a, v])
    assert setup.saturation([(2, 0, 0), v])[1] == 2
    cases = {
        "rank-mismatch": [a],
        "dependent-rows": [a, v, lincomb((1, a), (1, v))],
        "not-pointed": [a, (0, 0, 1)],
    }
    for code, generators in cases.items():
        with pytest.raises(LatticeError) as err:
            PointedSublattice.span(setup, v, generators)
        assert err.value.code == code


@slow(150)
@given(st.data())
def test_saturation_matches_the_smith_route(data):
    n = data.draw(st.integers(1, 8))
    k = n - data.draw(st.integers(0, min(3, n - 1)))
    rows = data.draw(st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n), min_size=k, max_size=k))
    # A mixer with diagonal 1-3 puts most spans at an index above 1.
    mixer = [[data.draw(st.integers(1, 3) if i == j else st.integers(-2, 2)) for j in range(k)] for i in range(k)]
    basis = [[sum(m * row[c] for m, row in zip(mix, rows)) for c in range(n)] for mix in mixer]
    ambient = IntegralLattice([[int(i == j) for j in range(n)] for i in range(n)])
    try:
        sub = ambient.span(basis)
    except LatticeError as exc:
        assert exc.code == "dependent-rows"
        assume(False)
    expected = saturate_snf(sub)
    assert ambient.saturation(basis) == expected
    assert ambient.saturation(expected[0]) == (expected[0], 1)


@st.composite
def smith_inputs(draw):
    """A square or non-square matrix with entries up to 50, a rank-deficient
    product, or ``A @ diag(d) @ B`` with unimodular ``A`` and ``B``.

    The first three mostly leave one non-unit row after the unit pivots
    split off; the last, with ``d`` from {0, 1, 2, 3, 4, 6, 12, 36}, leaves
    several, so the alternating Hermite forms and the gcd/lcm pass both run.
    """
    shape = draw(st.sampled_from(("square", "non-square", "rank-deficient", "diagonal")))
    m = draw(st.integers(1, 7))
    if shape == "square":
        n = m
    elif shape == "non-square":
        n = draw(st.integers(1, 7).filter(lambda c: c != m))
    else:
        n = draw(st.integers(1, 7))

    def matrix(rows, cols, entry):
        cell = st.integers(-entry, entry)
        return draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    if shape == "diagonal":
        d = draw(st.lists(st.sampled_from((0, 1, 2, 3, 4, 6, 12, 36)), min_size=min(m, n), max_size=min(m, n)))
        mat = [[d[i] if i == j else 0 for j in range(n)] for i in range(m)]
        # Elementary operations: add c times row (column) j to row (column) i.
        for _ in range(draw(st.integers(0, 12))):
            axis = draw(st.sampled_from(("row", "column")))
            size = m if axis == "row" else n
            if size < 2:
                continue
            i, j = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
            c = draw(st.integers(-3, 3))
            if axis == "row":
                mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]
            else:
                for row in mat:
                    row[i] += c * row[j]
        return mat
    if shape != "rank-deficient":
        return matrix(m, n, 50)
    # A product through an inner dimension below min(m, n); 0 gives the zero matrix.
    inner = draw(st.integers(0, min(m, n) - 1))
    if not inner:
        return [[0] * n for _ in range(m)]
    left, right = matrix(m, inner, 3), matrix(inner, n, 16)
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


@slow(200)
@given(smith_inputs())
def test_smith_form_matches_the_pivoting_route(mat):
    snf = smith_normal_form(mat)
    assert snf.d == smith_by_sympy(mat).d
    assert smith_diagonal(tuple(map(tuple, mat))) == snf.diagonal


@slow(100)
@given(smith_inputs())
def test_smith_diagonal_matches_sympy(mat):
    m, n = len(mat), len(mat[0])
    expected = sympy_smith(Matrix(mat), domain=ZZ)
    assert smith_normal_form(mat).diagonal == tuple(abs(int(expected[i, i])) for i in range(min(m, n)))


@slow(150)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_discriminant_group_matches_sympy(mat):
    n = len(mat)
    gram = [[mat[i][j] + mat[j][i] for j in range(n)] for i in range(n)]
    det = determinant(gram)
    assume(det)
    group = IntegralLattice(gram).discriminant_group()
    assert group.invariant_factors == tuple(d for d in smith_normal_form(gram).diagonal if d > 1)
    sympy_factors = tuple(abs(int(d)) for d in invariant_factors(Matrix(gram), domain=ZZ))
    assert group.invariant_factors == tuple(d for d in sympy_factors if d > 1)
    assert group.order == abs(det)


@slow(150)
@given(st.data())
def test_pairing_matches_the_dense_form(data):
    n = data.draw(st.integers(1, 6))
    upper = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
    gram = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    # Zero rows (and so zero columns) leave a row with no entries at all.
    for i in data.draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for j in range(n):
            gram[i][j] = gram[j][i] = 0
    lattice = IntegralLattice(gram)
    entry = st.integers(-50, 50) | st.fractions(min_value=-9, max_value=9, max_denominator=12)
    x = tuple(data.draw(entry) for _ in range(n))
    y = tuple(data.draw(entry) for _ in range(n))
    assert lattice.pair(x, y) == dense_pair(gram, x, y)
    assert lattice.square(x) == dense_pair(gram, x, x)
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    assert lattice.dual_pairings(x) == tuple(dense_pair(gram, e, x) for e in basis)
    if all(isinstance(c, int) for c in x + y):
        assert type(lattice.pair(x, y)) is int
    # The squares of a box, grown one coordinate at a time, in product order;
    # the bound keeps the box to at most 5^5 points.
    bound = data.draw(st.integers(0, max(b for b in range(4) if (2 * b + 1) ** n <= 5**5)))
    box = product(range(-bound, bound + 1), repeat=n)
    assert list(lattice._box_squares(bound)) == [(c, dense_pair(gram, c, c)) for c in box]


@pytest.mark.parametrize("n", [1, 3])
def test_pairing_rejects_a_wrong_length(n):
    lattice = IntegralLattice([[2 * int(i == j) for j in range(n)] for i in range(n)])
    good, long = (1,) * n, (1,) * (n + 1)
    calls = [
        (lattice.pair, (long, good), n + 1),
        (lattice.pair, (good, long), n + 1),
        (lattice.pair, (good[1:], good[1:]), n - 1),
        (lattice.square, (long,), n + 1),
        (lattice.dual_pairings, (good[1:],), n - 1),
    ]
    for method, args, length in calls:
        with pytest.raises(LatticeError) as err:
            method(*args)
        assert err.value.code == "dimension-mismatch"
        assert str(err.value) == f"vector of length {length} in a rank {n} lattice"


@st.composite
def symmetric_matrices(draw, max_n=8):
    """A symmetric integer matrix, dense, low-rank ``B^T D B`` or with a zero diagonal."""
    n = draw(st.integers(1, max_n))
    mode = draw(st.sampled_from(["dense", "low rank", "zero diagonal"]))
    if mode == "low rank":
        r = draw(st.integers(0, n))
        b = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(r)]
        d = [draw(st.sampled_from([-2, -1, 1, 2])) for _ in range(r)]
        return [[sum(b[k][i] * d[k] * b[k][j] for k in range(r)) for j in range(n)] for i in range(n)]
    upper = [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
    gram = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if mode == "zero diagonal":
        for i in range(n):
            gram[i][i] = 0
    return gram


@slow(300)
@given(symmetric_matrices())
@example(kummer_mukai_setup().ns.gram)
@example(kummer_bbf_lattice(1).gram)
@example(kummer_bbf_lattice(2).gram)
@example(kummer_bbf_lattice(3).gram)
@example(kummer_bbf_lattice(4).gram)
@example(kummer_mukai_setup().gram)
def test_signature_matches_the_congruence_diagonalisation(gram):
    assert signature(gram) == signature_congruence(gram)


@slow(200)
@given(symmetric_matrices(6))
def test_degenerate_exactly_when_the_determinant_vanishes(gram):
    singular = determinant(gram) == 0
    degenerate = ("degenerate-lattice", "discriminant_group requires a nondegenerate lattice")
    assert (_outcome(IntegralLattice(gram).discriminant_group) == degenerate) == singular
    # Doubling keeps the matrix singular or not and makes its diagonal even.
    # The degeneracy check comes before the signature check.
    ns = [[2 * x for x in row] for row in gram]
    outcome = _outcome(lambda: MukaiSetup(ns))
    assert (outcome == ("degenerate-lattice", "Gram matrix has determinant 0")) == singular


@st.composite
def lattices_with_rows(draw):
    """A Gram of ``symmetric_matrices(6)``, degenerate or not, and 0 to n independent rows in ``[-2, 2]``."""
    gram = draw(symmetric_matrices(6))
    n = len(gram)
    rows = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=n))
    assume(len(_hermite(rows)) == len(rows))
    return gram, rows


@slow(200)
@given(lattices_with_rows())
@example(([[1, 1], [1, 1]], [(1, 0)]))
@example(([[0, 0], [0, 0]], [(1, 0)]))
def test_orthogonal_complement_on_any_lattice(case):
    gram, rows = case
    lattice = IntegralLattice(gram)
    n = lattice.rank
    perp = lattice.orthogonal_complement(rows)
    span = lattice.span(rows)
    pairings = [lattice.dual_pairings(b) for b in span]
    if pairings:
        assert perp == kernel_via_smith(pairings)
    else:
        assert perp == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert all(lattice.pair(b, x) == 0 for b in span for x in perp)
    assert len(perp) == n - (Matrix(pairings).rank() if pairings else 0)


def test_determinant_examples():
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[2, 0], [0, 3]]) == 6
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([]) == 1
