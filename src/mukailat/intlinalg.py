"""Exact linear algebra over the integers and the rationals.

Everything here operates on plain Python ints and ``fractions.Fraction``,
so every result is exact at arbitrary size; no floating point is used
anywhere in this package.  Matrices are sequences of equal-length rows and
are returned as immutable tuples of tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import LatticeError

IntMatrix = tuple[tuple[int, ...], ...]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``g = gcd(a, b) >= 0`` and ``g == a*x + b*y``."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def freeze_matrix(rows) -> IntMatrix:
    """Validate a rectangular integer matrix and return it as nested tuples."""
    out = tuple(freeze_vector(row) for row in rows)
    if len({len(row) for row in out}) > 1:
        raise LatticeError("invalid-matrix", "rows have unequal lengths")
    return out


def freeze_vector(vec) -> tuple[int, ...]:
    out = tuple(vec)
    for x in out:
        if not isinstance(x, int) or isinstance(x, bool):
            raise LatticeError("invalid-matrix", f"non-integer entry {x!r}")
    return out


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(mat) -> IntMatrix:
    return tuple(zip(*mat)) if mat else ()


def mat_mul(a, b) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise LatticeError("dimension-mismatch", "incompatible matrix shapes")
    cols = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


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


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form certificate: ``u @ input @ v == d``.

    ``u`` and ``v`` are unimodular; ``d`` is diagonal with nonnegative
    entries forming a divisibility chain (trailing entries may be zero).
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        k = min(len(self.d), len(self.d[0]) if self.d else 0)
        return tuple(self.d[i][i] for i in range(k))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def _smallest_pivot(a, t: int, m: int, n: int):
    # Smallest absolute value wins; ties go to the leftmost column, then the
    # topmost row, which makes the whole reduction deterministic.
    best = None
    best_abs = 0
    for j in range(t, n):
        for i in range(t, m):
            x = a[i][j]
            if x and (best is None or abs(x) < best_abs):
                best = (i, j)
                best_abs = abs(x)
    return best


def smith_normal_form(mat) -> SNFResult:
    """Smith normal form with unimodular transforms, ``u @ mat @ v == d``."""
    frozen = freeze_matrix(mat)
    a = [list(row) for row in frozen]
    m = len(a)
    n = len(a[0]) if a else 0
    u = identity(m)
    v = identity(n)
    size = min(m, n)
    t = 0
    while t < size:
        pivot = _smallest_pivot(a, t, m, n)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        p = a[t][t]
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // p
                if q:
                    arow, apiv = a[i], a[t]
                    for j in range(n):
                        arow[j] -= q * apiv[j]
                    urow, upiv = u[i], u[t]
                    for j in range(m):
                        urow[j] -= q * upiv[j]
                if a[i][t]:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # The pivot must divide everything that remains, or the diagonal
        # would not form a divisibility chain.
        carrier = None
        for i in range(t + 1, m):
            if any(x % p for x in a[i][t + 1 :]):
                carrier = i
                break
        if carrier is not None:
            arow, acar = a[t], a[carrier]
            for j in range(n):
                arow[j] += acar[j]
            urow, ucar = u[t], u[carrier]
            for j in range(m):
                urow[j] += ucar[j]
            continue
        t += 1
    for i in range(size):
        if a[i][i] < 0:
            a[i][i] = -a[i][i]
            u[i] = [-x for x in u[i]]
    return SNFResult(
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in a),
        tuple(tuple(row) for row in v),
    )


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


def hermite_basis(mat) -> IntMatrix:
    """Nonzero rows of the Hermite form: the canonical basis of the row span."""
    h, _ = hermite_with_transform(mat)
    return tuple(row for row in h if any(row))


def integer_rank(mat) -> int:
    return len(hermite_basis(mat))


def invert_unimodular(mat) -> IntMatrix:
    """Inverse of a square integer matrix with determinant +-1."""
    h, t = hermite_with_transform(mat)
    n = len(h)
    if h != tuple(tuple(identity(n)[i]) for i in range(n)):
        raise LatticeError("not-unimodular", "matrix is not unimodular")
    return t


def integer_kernel(mat) -> IntMatrix:
    """Hermite basis of ``{x : mat @ x == 0}``; the span is saturated."""
    snf = smith_normal_form(mat)
    n = len(snf.v)
    rank = snf.rank
    cols = [tuple(snf.v[i][j] for i in range(n)) for j in range(rank, n)]
    return hermite_basis(cols)


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
    aug = [
        [Fraction(rows[i][j]) for i in range(k)] + [Fraction(target[j])]
        for j in range(n)
    ]
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


def signature(gram) -> tuple[int, int, int]:
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
