"""Reference implementations that the fast paths are tested against.

These are the box scans that ``enumerate_p_type`` and ``mori_candidates``
used to run, and the generic saturation that ``PointedSublattice.span``
used for every span: they visit every point of the ``(2B+1)^(rho+2)`` box,
saturate through the Smith form and solve for coordinates over the
rationals.  They are slow and
obviously right, which is what an oracle should be.

``enumerate_p_type_pairs`` is the loop ``enumerate_p_type`` ran before it
solved for ``r``: it scans every ``(c, r)`` of the ``(2B+1)^(rho+1)`` box,
solves only for ``s``, and spans each witness pair through its pairings.

``construct_p_type`` is the checked span of one witness that the library
exported before ``classify_line_class(...).lattice`` became its one checked
route to ``PointedSublattice._of_witness``; it raises ``not-isotropic`` and
``pairing-mismatch``, codes no library function raises.

The normal forms that ``_hermite`` and ``IntegralLattice.saturation`` used
to run are here too: the row Hermite form with its unimodular transform,
which reduces entries above a pivot only once the pivot's column is done,
the inverse of a unimodular matrix through it, and the saturation through
the Smith transform ``v`` and its inverse.  ``hermite_kannan_bachem`` is
``_hermite`` as it ran before it re-reduced all its rows only at square
ranks: after every inserted row it reduces every entry above every pivot
again, the order of Kannan and Bachem (SIAM J. Comput. 8, 1979).
``smith_by_sympy`` is the Smith form with transforms from sympy's
``smith_normal_decomp``: it shares
no elimination with the library, whose Smith form goes through the Hermite
form that ``saturation`` uses.

``dense_pair`` is the bilinear form as the full double loop over the Gram
matrix, zero entries included, that ``IntegralLattice.pair`` replaced.
``kernel_via_smith`` is the integer kernel read off the transform ``v`` of
``smith_by_sympy``; the library reads it off its own Smith transform ``u``
of the transpose, whose rows past the rank are one Hermite form.

``signature_congruence`` is the symmetric congruence diagonalisation over
``Fraction``s that the integer ``signature`` replaced.

``mat_mul``, ``solve_rational`` and ``coords`` are the
matrix product and the rational and integer coordinate solves that the
library no longer needs; the certificate tests and the oracles above use
them.  ``determinant`` (Bareiss elimination), ``restricted_gram`` and
``contains`` are the Gram determinant, the Gram matrix of a sublattice and
its membership test, which no library code calls.
"""

from fractions import Fraction
from numbers import Rational
from itertools import product
from math import gcd, lcm
from operator import mul, sub

from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_decomp

from mukailat import (
    IntegralLattice,
    LatticeError,
    LineClass,
    MoriCandidate,
    MukaiSetup,
    PointedSublattice,
    v_perp,
)
from mukailat.intlinalg import (
    IntMatrix,
    SNFResult,
    _hermite,
    freeze_matrix,
    identity,
    transpose,
    xgcd,
)


def lincomb(*terms) -> tuple[int, ...]:
    """The componentwise sum of ``k * x`` over the ``(k, x)`` pairs ``terms``.

    Vectors are plain tuples, on which ``+`` concatenates and ``*`` repeats.
    """
    return tuple(map(sum, zip(*([k * c for c in x] for k, x in terms), strict=True)))


def mat_mul(a, b) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise LatticeError("dimension-mismatch", "incompatible matrix shapes")
    cols = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def solve_rational(rows, target):
    """Coefficients ``c`` with ``sum(c[i] * rows[i]) == target`` over Q.

    Returns a tuple of Fractions, or None when the target is outside the
    rational row span.  Free coefficients (dependent rows) are set to zero.
    """
    k = len(rows)
    if k == 0:
        return () if not any(target) else None
    n = len(rows[0])
    if len(target) != n:
        raise LatticeError("dimension-mismatch", "target length mismatch")
    aug = [[Fraction(rows[i][j]) for i in range(k)] + [Fraction(target[j])] for j in range(n)]
    piv_cols = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, n):
        if aug[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for idx, c in enumerate(piv_cols):
        sol[c] = aug[idx][k]
    return tuple(sol)


def determinant(mat) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    m = [list(row) for row in mat]
    n = len(m)
    if any(len(row) != n for row in m):
        raise LatticeError("invalid-matrix", "determinant needs a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def restricted_gram(ambient: IntegralLattice, basis: IntMatrix) -> IntMatrix:
    """Gram matrix of the form of ``ambient`` restricted to ``basis``."""
    return tuple(tuple(ambient.pair(b1, b2) for b2 in basis) for b1 in basis)


def contains(ambient: IntegralLattice, basis: IntMatrix, x) -> bool:
    """True iff ``x``, of integers or ``Fraction``s, lies in the span of the Hermite ``basis``."""
    ambient._check_length(x)
    vec = list(x)
    if not all(isinstance(e, Rational) for e in vec):
        raise LatticeError("invalid-matrix", "contains needs a vector of integers or Fractions")
    for row in basis:
        j = next(i for i, val in enumerate(row) if val)
        if vec[j] % row[j]:
            return False
        q = vec[j] // row[j]
        if q:
            vec = [a - q * b for a, b in zip(vec, row)]
    return not any(vec)


def coords(basis: IntMatrix, x):
    """Integer coordinates of ``x`` in ``basis``, or None."""
    sol = solve_rational(basis, x)
    if sol is None or any(c.denominator != 1 for c in sol):
        return None
    return tuple(int(c) for c in sol)


def smith_by_sympy(mat) -> SNFResult:
    """Smith form with transforms from sympy's ``smith_normal_decomp``.

    Sympy returns ``s == u @ mat @ v``; a row of ``u`` is negated wherever
    the diagonal entry of ``s`` is negative.
    """
    s, u, v = (m.tolist() for m in smith_normal_decomp(Matrix(freeze_matrix(mat)), domain=ZZ))
    d = [[int(x) for x in row] for row in s]
    u = [[int(x) for x in row] for row in u]
    for i in range(min(len(d), len(v))):
        if d[i][i] < 0:
            d[i][i] = -d[i][i]
            u[i] = [-x for x in u[i]]
    return SNFResult(tuple(map(tuple, u)), tuple(map(tuple, d)), tuple(tuple(int(x) for x in row) for row in v))


def kernel_via_smith(mat) -> IntMatrix:
    """The Hermite basis of ``{x : mat @ x == 0}`` through sympy's Smith form: the last columns of ``v`` past the rank."""
    snf = smith_by_sympy(mat)
    n = len(snf.v)
    rank = sum(1 for x in snf.diagonal if x)
    cols = [tuple(snf.v[i][j] for i in range(n)) for j in range(rank, n)]
    return _hermite(cols)


def dense_pair(gram, x, y):
    """``x^T . gram . y`` summed over every entry of ``gram``."""
    n = len(gram)
    return sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))


def hermite_with_transform(mat) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form ``h`` with unimodular ``t @ mat == h``.

    Pivots are positive, entries above each pivot are reduced into
    ``[0, pivot)``, and zero rows sink to the bottom.
    """
    frozen = freeze_matrix(mat)
    a = [list(row) for row in frozen]
    m = len(a)
    n = len(a[0]) if a else 0
    t = identity(m)
    r = 0
    for j in range(n):
        if r == m:
            break
        pivot_found = False
        for i in range(r, m):
            if a[i][j] == 0:
                continue
            if not pivot_found:
                if i != r:
                    a[r], a[i] = a[i], a[r]
                    t[r], t[i] = t[i], t[r]
                pivot_found = True
            else:
                p, q = a[r][j], a[i][j]
                g, x, y = xgcd(p, q)
                p_, q_ = p // g, q // g
                a[r], a[i] = (
                    [x * u + y * w for u, w in zip(a[r], a[i])],
                    [-q_ * u + p_ * w for u, w in zip(a[r], a[i])],
                )
                t[r], t[i] = (
                    [x * u + y * w for u, w in zip(t[r], t[i])],
                    [-q_ * u + p_ * w for u, w in zip(t[r], t[i])],
                )
        if not pivot_found:
            continue
        if a[r][j] < 0:
            a[r] = [-x for x in a[r]]
            t[r] = [-x for x in t[r]]
        p = a[r][j]
        for i in range(r):
            q = a[i][j] // p
            if q:
                a[i] = [u - q * w for u, w in zip(a[i], a[r])]
                t[i] = [u - q * w for u, w in zip(t[i], t[r])]
        r += 1
    return (
        tuple(tuple(row) for row in a),
        tuple(tuple(row) for row in t),
    )


def hermite_kannan_bachem(rows) -> IntMatrix:
    """``_hermite`` in the order of Kannan and Bachem: after every inserted row,
    every entry above every pivot is reduced again."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        x = list(row)
        n = len(x)
        lead = k = 0
        while True:
            while lead < n and not x[lead]:
                lead += 1
            if lead == n:
                break
            while k < len(pivots) and pivots[k] < lead:
                k += 1
            if k == len(pivots) or pivots[k] != lead:
                if x[lead] < 0:
                    x = [-w for w in x]
                basis.insert(k, x)
                pivots.insert(k, lead)
                break
            b = basis[k]
            p, q = b[lead], x[lead]
            if q % p:
                g, s, t = xgcd(p, q)
                p, q = p // g, q // g
                basis[k] = [s * w + t * y for w, y in zip(b, x)]
                x = [p * y - q * w for w, y in zip(b, x)]
            else:
                q //= p
                x = [y - q * w for w, y in zip(b, x)]
            k += 1
        for j, (c, b) in enumerate(zip(pivots, basis)):
            for i in range(j):
                q = basis[i][c] // b[c]
                if q:
                    basis[i] = [w - q * y for w, y in zip(basis[i], b)]
    return tuple(tuple(row) for row in basis)


def invert_unimodular(mat) -> IntMatrix:
    """Inverse of a square integer matrix with determinant +-1."""
    h, t = hermite_with_transform(mat)
    n = len(h)
    if h != tuple(tuple(identity(n)[i]) for i in range(n)):
        raise LatticeError("not-unimodular", "matrix is not unimodular")
    return t


def saturate_snf(basis: IntMatrix) -> tuple[IntMatrix, int]:
    """``IntegralLattice.saturation`` through the Smith form ``u @ basis @ v == d``.

    The first ``len(basis)`` rows of ``v^-1`` span the saturation, whose
    Hermite basis is returned, and the index is the product of the diagonal
    of ``d``.
    """
    snf = smith_by_sympy(basis)
    vinv = invert_unimodular(snf.v)
    index = 1
    for d in snf.diagonal:
        index *= d
    return _hermite(vinv[: len(basis)]), index


def saturated_span(setup: MukaiSetup, v: tuple[int, ...], vectors) -> PointedSublattice:
    """``PointedSublattice.span`` through ``saturate_snf`` and a rational solve."""
    v = setup._check(v)
    basis, _ = saturate_snf(setup.span([setup._check(w) for w in vectors]))
    if len(basis) != 2:
        raise LatticeError("rank-mismatch", f"span has rank {len(basis)}, expected 2")
    v_coords = coords(basis, v)
    if v_coords is None:
        raise LatticeError("not-pointed", "v does not lie in the sublattice")
    return PointedSublattice(v, basis, restricted_gram(setup, basis), v_coords)


def construct_p_type(setup: MukaiSetup, v: tuple[int, ...], a: tuple[int, ...]) -> PointedSublattice:
    """Pointed sublattice spanned by a witness: the saturation of span{a, v - a}.

    Requires ``v`` primitive with ``v^2 >= 6`` and ``a`` primitive isotropic
    with ``(a, v) = v^2/2``; the complement ``v - a`` must be primitive as
    well (automatic when the witness comes from a primitive extremal ray),
    otherwise the saturation contains an isotropic class of strictly smaller
    pairing.  The result is always of P-type.
    """
    v, a = setup._check(v), setup._check(a)
    half = (setup.kummer_dimension(v) + 2) // 2
    asq, pairing = setup.square(a), setup.pair(a, v)
    if asq:
        raise LatticeError("not-isotropic", f"a^2 = {asq} != 0")
    if not setup.is_primitive(a):
        raise LatticeError("imprimitive", "a must be primitive")
    if pairing != half:
        raise LatticeError("pairing-mismatch", f"(a, v) = {pairing}, expected {half}")
    t = tuple(map(sub, v, a))
    if gcd(*t) != 1:
        raise LatticeError("imprimitive", "v - a must be primitive")
    return PointedSublattice._of_witness(setup, v, a, t, half)


def enumerate_p_type_scan(setup: MukaiSetup, v: tuple[int, ...], bound: int) -> list[PointedSublattice]:
    """``enumerate_p_type`` by a scan of every point of the box."""
    if bound < 0:
        raise LatticeError("invalid-matrix", "bound must be nonnegative")
    if not setup.is_primitive(v):
        raise LatticeError("imprimitive", "v must be primitive")
    vsq = setup.square(v)
    if vsq < 6:
        raise LatticeError("square-too-small", f"v^2 = {vsq} < 6")
    half = vsq // 2
    found = {}
    for a in product(range(-bound, bound + 1), repeat=setup.rank):
        if not any(a):
            continue
        g = 0
        for x in a:
            g = gcd(g, x)
        if g != 1:
            continue
        if setup.square(a) != 0 or setup.pair(a, v) != half:
            continue
        t = lincomb((1, v), (-1, a))
        if not setup.is_primitive(t):
            continue
        lattice = saturated_span(setup, v, [a, t])
        found.setdefault(lattice.basis, lattice)
    return [found[key] for key in sorted(found)]


def enumerate_p_type_pairs(setup: MukaiSetup, v: tuple[int, ...], bound: int) -> list[PointedSublattice]:
    """``enumerate_p_type`` by a scan of every ``(c, r)`` of the box, solving only ``s``."""
    if bound < 0:
        raise LatticeError("invalid-matrix", "bound must be nonnegative")
    vsq = setup.kummer_dimension(v) + 2
    half = vsq // 2
    ns = setup.ns
    # (a, v) is the dot product of a with v_row, whose last entry is -r_v.
    v_row = setup.dual_pairings(v)
    s_weight = v_row[-1]
    box = range(-bound, bound + 1)
    found = {}
    # a = (r, c, s) has a^2 = c.Nc - 2rs; c.Nc does not depend on r, so c
    # is the outer loop.
    for c, form in ns._box_squares(bound):
        c_pairing = sum(map(mul, c, v_row[1:]))
        for r in box:
            pairing = r * v_row[0] + c_pairing
            if r:
                s, rem = divmod(form, 2 * r)
                if rem or abs(s) > bound or pairing + s * s_weight != half:
                    continue
                choices = (s,)
            elif form:
                continue
            elif s_weight:
                s, rem = divmod(half - pairing, s_weight)
                if rem or abs(s) > bound:
                    continue
                choices = (s,)
            elif pairing == half:
                choices = box
            else:
                continue
            for s in choices:
                a = (r, *c, s)
                t = tuple(x - y for x, y in zip(v, a))
                if gcd(*a) != 1 or gcd(*t) != 1:
                    continue
                # A P-type lattice has exactly the two witnesses a and t; span
                # it from the smaller one when both lie in the box.
                if t < a and max(map(abs, t)) <= bound:
                    continue
                lattice = PointedSublattice.span(setup, v, [a, t])
                found.setdefault(lattice.basis, lattice)
    return [found[key] for key in sorted(found)]


def _project(setup, v, coords, vsq):
    weight = Fraction(setup.pair(coords, v), vsq)
    return tuple(Fraction(a) - weight * b for a, b in zip(coords, v))


def _line_class(setup, v, a, vsq, perp):
    """The projection ``R`` of ``a`` and its square as ``Fraction``s, and
    the integer ``LineClass`` they make."""
    projected = _project(setup, v, a, vsq)
    square = Fraction(setup.pair(projected, projected))
    if not all(Fraction(p).denominator == 1 for p in (setup.pair(projected, b) for b in perp)):
        raise LatticeError("not-in-dual", "projection left the dual of v_perp")
    if any(projected):
        rational = solve_rational(perp, projected)
        if rational is None:
            raise LatticeError("not-in-dual", "projection left the rational span of v_perp")
        disc_order = lcm(*(c.denominator for c in rational))
    else:
        disc_order = 1
    numerators = [vsq * x for x in projected]
    assert all(x.denominator == 1 for x in numerators)
    assert (vsq * square).denominator == 1
    lc = LineClass(tuple(int(x) for x in numerators), vsq, int(vsq * square), disc_order)
    return lc, projected, square


def line_class_scan(setup: MukaiSetup, v: tuple[int, ...], a: tuple[int, ...]) -> LineClass:
    """``theta_dual`` through a rational solve in the basis of ``v_perp``."""
    return _line_class(setup, v, a, setup.square(v), v_perp(setup, v))[0]


def _lagrangian(setup, v, a, vsq, projected, square) -> bool:
    n = vsq // 2 - 1
    square_ok = square == Fraction(-(n + 1), 2)
    torsion_ok = all((2 * x).denominator == 1 for x in projected)
    pairing = setup.pair(a, v)
    isotropic_witness_ok = setup.square(a) == 0 and abs(pairing) == vsq // 2
    lattice = None
    if square_ok and torsion_ok and isotropic_witness_ok:
        witness = lincomb((1 if pairing > 0 else -1, a))
        complement = lincomb((1, v), (-1, witness))
        if setup.is_primitive(witness) and setup.is_primitive(complement):
            lattice = saturated_span(setup, v, [witness, complement])
    return lattice is not None


def mori_candidates_scan(setup: MukaiSetup, v: tuple[int, ...], h: tuple[int, ...], bound: int) -> list[MoriCandidate]:
    """``mori_candidates`` by a scan of every point of the box."""
    if not setup.is_primitive(v):
        raise LatticeError("imprimitive", "v must be primitive")
    vsq = setup.square(v)
    if vsq < 6:
        raise LatticeError("square-too-small", f"v^2 = {vsq} < 6")
    if setup.pair(h, v) != 0:
        raise LatticeError("not-orthogonal", "h must be orthogonal to v")
    if setup.square(h) <= 0:
        raise LatticeError("nonpositive-square", f"h^2 = {setup.square(h)} <= 0")
    if bound < 0:
        raise LatticeError("invalid-matrix", "bound must be nonnegative")
    perp = v_perp(setup, v)
    half = vsq // 2
    out = []
    for a in product(range(-bound, bound + 1), repeat=setup.rank):
        if not any(a):
            continue
        if setup.square(a) < 0 or abs(setup.pair(a, v)) > half:
            continue
        lc, projected, square = _line_class(setup, v, a, vsq, perp)
        if setup.pair(projected, h) <= 0:
            continue
        lagrangian = _lagrangian(setup, v, a, vsq, projected, square)
        out.append(MoriCandidate(a=a, line_class=lc, lagrangian=lagrangian))
    out.sort(key=lambda cand: cand.a)
    return out


def signature_congruence(gram) -> tuple[int, int, int]:
    """Inertia ``(positive, negative, zero)`` of a symmetric integer matrix.

    Exact symmetric congruence diagonalisation over Q; Sylvester's law makes
    the diagonal signs an invariant.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    pos = neg = zero = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if swap is not None:
                i = swap
                a[k], a[i] = a[i], a[k]
                for row in a:
                    row[k], row[i] = row[i], row[k]
            else:
                off = next(
                    (
                        (i, j)
                        for i in range(k, n)
                        for j in range(i + 1, n)
                        if a[i][j] != 0
                    ),
                    None,
                )
                if off is None:
                    zero += n - k
                    break
                i, j = off
                # a[i][i] == a[j][j] == 0, so adding row/col j to row/col i
                # produces diagonal entry 2*a[i][j] != 0.
                for col in range(n):
                    a[i][col] += a[j][col]
                for row in a:
                    row[i] += row[j]
                if i != k:
                    a[k], a[i] = a[i], a[k]
                    for row in a:
                        row[k], row[i] = row[i], row[k]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        col = [a[i][k] for i in range(n)]
        for i in range(k + 1, n):
            if col[i] == 0:
                continue
            f = col[i] / d
            for j in range(k + 1, n):
                a[i][j] -= f * col[j]
        for i in range(k + 1, n):
            a[i][k] = Fraction(0)
            a[k][i] = Fraction(0)
    return pos, neg, zero
