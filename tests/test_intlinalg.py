import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mukailat import kummer_mukai_setup
from mukailat.errors import LatticeError
from mukailat.intlinalg import (
    _hermite,
    identity,
    signature,
    smith_diagonal,
    smith_normal_form,
    transpose,
    xgcd,
)
from oracles import (
    determinant,
    hermite_kannan_bachem,
    hermite_with_transform,
    invert_unimodular,
    kernel_via_smith,
    mat_mul,
    solve_rational,
)

matrices = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-100, 100), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@st.composite
def matrices_with_relations(draw):
    """A matrix with zero rows and integer combinations of its rows mixed in."""
    rows = [list(row) for row in draw(matrices)]
    width = len(rows[0])
    for _ in range(draw(st.integers(0, 3))):
        coefficients = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        extra = [sum(c * row[j] for c, row in zip(coefficients, rows)) for j in range(width)]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
def test_xgcd_identity(a, b):
    g, x, y = xgcd(a, b)
    assert g == a * x + b * y
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


def test_smith_identity():
    result = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert result.d == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_smith_hand_examples():
    # [[0,2],[2,0]]: invariant factors gcd 2, |det| 4
    assert smith_normal_form([[0, 2], [2, 0]]).diagonal == (2, 2)
    assert smith_normal_form([[0, 1], [1, 0]]).diagonal == (1, 1)
    # Diagonal cores off the divisibility chain: (2, 3) -> (1, 6), and
    # (4, 6, 10) -> (2, 2, 60) through gcd/lcm swaps on two pairs.
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == (1, 6)
    _check_certificate([[2, 0], [0, 3]])
    assert smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]]).diagonal == (2, 2, 60)
    _check_certificate([[4, 0, 0], [0, 6, 0], [0, 0, 10]])


def test_smith_rectangular_and_zero():
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == (0, 0)
    result = smith_normal_form([[2, 4, 6]])
    assert result.diagonal == (2,)
    assert smith_normal_form([]).d == ()


def _check_certificate(mat):
    result = smith_normal_form(mat)
    frozen = tuple(tuple(row) for row in mat)
    assert mat_mul(mat_mul(result.u, frozen), result.v) == result.d
    assert determinant(result.u) in (1, -1)
    assert determinant(result.v) in (1, -1)
    diag = result.diagonal
    assert smith_diagonal(mat) == diag
    assert all(x >= 0 for x in diag)
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    # off-diagonal entries vanish
    for i, row in enumerate(result.d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0


@settings(max_examples=200)
@given(matrices)
def test_smith_certificates(mat):
    _check_certificate(mat)


def test_smith_transforms_stay_near_the_hermite_form():
    # The smallest-pivot elimination on the whole matrix reached about 1800
    # bits on the first of these, and on the core left by one Hermite form
    # 273; the alternating Hermite forms on that core reach 142 and 88.
    rng = random.Random(1)

    def draw(m, n):
        return [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]

    left, right = draw(24, 22), draw(22, 24)
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
    for mat, rank in ((product, 22), (draw(16, 14), 14)):
        result = smith_normal_form(mat)
        assert sum(1 for x in result.diagonal if x) == rank
        assert max(abs(x).bit_length() for t in (result.u, result.v) for row in t for x in row) <= 200
        assert mat_mul(mat_mul(result.u, mat), result.v) == result.d


def test_smith_deterministic():
    mat = [[6, 4, 2], [4, 8, 0], [2, 0, 10]]
    assert smith_normal_form(mat) == smith_normal_form(mat)


@settings(max_examples=200)
@given(matrices_with_relations())
def test_hermite_certificate(mat):
    h, t = hermite_with_transform(mat)
    frozen = tuple(tuple(row) for row in mat)
    assert mat_mul(t, frozen) == h
    assert _hermite(mat) == tuple(row for row in h if any(row)) == hermite_kannan_bachem(mat)
    assert determinant(t) in (1, -1)
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            continue
        j = nz[0]
        assert row[j] > 0
        pivots.append(j)
    assert pivots == sorted(pivots)
    # entries above each pivot are reduced
    rows = [row for row in h if any(row)]
    for k, row in enumerate(rows):
        j = next(i for i, x in enumerate(row) if x)
        for above in rows[:k]:
            assert 0 <= above[j] < row[j]


def _hermite_cases():
    """Seeded inputs on which the re-reduction schedule of ``_hermite`` matters."""
    rng = random.Random(25)

    def draw(m, n, bound=50):
        return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]

    for n in (*range(1, 13), 16, 24, 32, 48):
        yield f"a-i-{n}", [[*row, *unit] for row, unit in zip(draw(n, n), identity(n))]
    yield "rank-22", mat_mul(draw(24, 22), draw(22, 24))
    yield "tall-40x12", draw(40, 12)
    yield "wide-12x40", draw(12, 40)
    rows = draw(10, 9)
    yield "zero-and-repeated", [[0] * 9, rows[0], *rows[:5], [0] * 9, rows[3], *rows[5:], rows[9], [0] * 9]
    yield "zero-only", [[0] * 5] * 3
    yield "empty-rows", [[], []]
    for i in range(12):
        w, t = draw(2, 6, 5)
        if i % 3 == 0:
            t = [3 * x for x in w]
        yield f"witness-pair-{i}", [[*w, 1, 0], [*t, 0, 1]]
    yield "entries-1e12", draw(9, 11, 10**12)
    yield "a-i-6-entries-1e12", [[*row, *unit] for row, unit in zip(draw(6, 6, 10**12), identity(6))]


@pytest.mark.parametrize("rows", [pytest.param(rows, id=name) for name, rows in _hermite_cases()])
def test_hermite_matches_kannan_bachem(rows):
    # Re-reducing only the touched rows, and all rows at square ranks, ends
    # at the same canonical form as re-reducing every row after every insertion.
    assert _hermite(rows) == hermite_kannan_bachem(rows)


@settings(max_examples=100)
@given(matrices)
def test_hermite_canonical_under_row_ops(mat):
    basis = _hermite(mat)
    reversed_rows = list(reversed([list(r) for r in mat]))
    assert _hermite(reversed_rows) == basis
    if len(mat) >= 2:
        bumped = [list(r) for r in mat]
        bumped[0] = [a + b for a, b in zip(bumped[0], bumped[1])]
        assert _hermite(bumped) == basis


@settings(max_examples=150)
@given(matrices)
def test_invert_unimodular_on_snf_transforms(mat):
    result = smith_normal_form(mat)
    for u in (result.u, result.v):
        n = len(u)
        inv = invert_unimodular(u)
        eye = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        assert mat_mul(u, inv) == eye
        assert mat_mul(inv, u) == eye


def test_invert_unimodular_rejects_non_unimodular():
    with pytest.raises(LatticeError) as err:
        invert_unimodular([[2, 0], [0, 1]])
    assert err.value.code == "not-unimodular"


def _v_perp_row(v):
    """The pairings of ``v`` with the ``U^4`` Mukai basis, whose kernel is ``v_perp``."""
    return [kummer_mukai_setup().dual_pairings(v)]


@settings(max_examples=150)
@given(matrices_with_relations())
@example(_v_perp_row((1, 0, 0, 0, 0, 0, 0, -3)))
@example(_v_perp_row((0, 1, 1, 0, 0, 0, 0, 0)))
@example(_v_perp_row((2, 1, 3, -1, 2, 0, 1, 5)))
@example(_v_perp_row((0, 0, 0, 0, 0, 0, 3, 1)))
def test_integer_kernel(mat):
    # The rows of the left transform of mat^T past the rank are the Hermite
    # basis of the kernel of mat: the tail of the Hermite form of [mat^T | I],
    # which orthogonal_complement reads off.
    snf = smith_normal_form(transpose(mat))
    kernel = snf.u[sum(1 for x in snf.diagonal if x) :]
    assert kernel == kernel_via_smith(mat)
    n = len(mat[0])
    for vec in kernel:
        assert len(vec) == n
        assert all(sum(r * x for r, x in zip(row, vec)) == 0 for row in mat)
    assert len(kernel) == n - sum(1 for x in smith_normal_form(mat).diagonal if x)


def test_solve_rational():
    from fractions import Fraction

    rows = [(2, 0, 1), (0, 3, 1)]
    target = (1, 3, Fraction(3, 2))
    sol = solve_rational(rows, target)
    assert sol == (Fraction(1, 2), Fraction(1))
    assert solve_rational(rows, (1, 0, 0)) is None
    assert solve_rational([], (0, 0)) == ()
    assert solve_rational([], (1, 0)) is None


def test_signature_examples():
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature([[2, 0], [0, -2]]) == (1, 1, 0)
    assert signature([[-6]]) == (0, 1, 0)
    assert signature([[6]]) == (1, 0, 0)
    assert signature([[0, 0], [0, 0]]) == (0, 0, 2)
    assert signature([[2, 0, 0], [0, 0, 1], [0, 1, 0]]) == (2, 1, 0)
    # U^3 block
    u3 = [[0] * 6 for _ in range(6)]
    for b in range(3):
        u3[2 * b][2 * b + 1] = u3[2 * b + 1][2 * b] = 1
    assert signature(u3) == (3, 3, 0)


@settings(max_examples=150)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-20, 20), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_signature_counts_rank(mat):
    n = len(mat)
    sym = [[mat[i][j] + mat[j][i] for j in range(n)] for i in range(n)]
    pos, neg, zero = signature(sym)
    assert pos + neg + zero == n
    assert (zero == 0) == (determinant(sym) != 0)


def test_ragged_matrix_rejected():
    with pytest.raises(LatticeError) as err:
        smith_normal_form([[1, 2], [3]])
    assert err.value.code == "invalid-matrix"
