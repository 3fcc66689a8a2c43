"""Exact linear algebra over the integers.

Everything here operates on plain Python ints, so every result is exact at
arbitrary size; no floating point is used anywhere in this package.
Matrices are sequences of equal-length rows and are returned as immutable
tuples of tuples.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

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


class SNFResult(NamedTuple):
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


def _smith_core(a, u, vt):
    """Smith form of ``a``, k x r of rank k in row echelon form.

    Kannan and Bachem's alternation: the Hermite form of the rows of
    ``[a^T | vt]`` (column operations on ``a``, applied to the rows of
    ``vt``, the transpose of ``v``), then of ``[a | u]``, and so on until
    ``a`` is diagonal.  ``a`` has full row rank and the rows of ``vt`` are
    independent, so no pass drops a row (without ``vt``, a column pass
    drops only zero columns of ``a``).  A pair ``d_i, d_j`` off the
    divisibility chain then becomes ``gcd, lcm`` by one 2 x 2 unimodular
    operation on each side.  Returns the diagonal and the new rows of ``u``
    and ``vt``; with empty rows for ``u`` and ``vt``, the diagonal alone.
    """
    k = len(a)
    # ``a`` is a row Hermite form already, so the column pass comes first.
    sides = [vt, u]
    side = 0
    # An echelon row i is d * e_i when it is zero past column i.
    while any(any(row[i + 1 :]) for i, row in enumerate(a)):
        a = transpose(a)
        w = len(a[0])
        h = _hermite([(*row, *x) for row, x in zip(a, sides[side])])
        a, sides[side] = [row[:w] for row in h], [row[w:] for row in h]
        side ^= 1
    vt, u = sides
    d = [a[i][i] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if d[j] % d[i]:
                # [[s, t], [-q, p]] @ diag(d_i, d_j) @ [[1, -t*q], [1, s*p]]
                # is diag(g, lcm); both factors have determinant s*p + t*q = 1.
                g, s, t = xgcd(d[i], d[j])
                p, q = d[i] // g, d[j] // g
                d[i], d[j] = g, d[i] * q
                ui, uj = u[i], u[j]
                u[i] = [s * x + t * y for x, y in zip(ui, uj)]
                u[j] = [p * y - q * x for x, y in zip(ui, uj)]
                vi, vj = vt[i], vt[j]
                vt[i] = [x + y for x, y in zip(vi, vj)]
                vt[j] = [s * p * y - t * q * x for x, y in zip(vi, vj)]
    return d, u, vt


def _split_units(h, n: int):
    """The rows of a Hermite form ``h`` with a pivot 1 before column ``n``,
    their pivot columns, the other rows with a pivot before column ``n``,
    and the other columns before ``n``.

    A pivot 1 is the only nonzero entry of its column, so column operations
    with it clear its row and change no other row: the Smith form of the
    first ``n`` columns of ``h`` is ``I`` beside that of the core, the
    other rows in the other columns.
    """
    units, cols, core = [], [], []
    for row in h:
        lead = next(j for j, x in enumerate(row) if x)
        if lead >= n:
            break
        if row[lead] == 1:
            units.append(row)
            cols.append(lead)
        else:
            core.append(row)
    return units, cols, core, [j for j in range(n) if j not in cols]


def smith_normal_form(mat) -> SNFResult:
    """Smith normal form with unimodular transforms, ``u @ mat @ v == d``.

    The Hermite form of the rows ``[mat | I]`` is ``[h | u1]`` with
    ``u1 @ mat == h``.  Its unit pivots split off (``_split_units``), and
    the alternating Hermite forms of ``_smith_core`` run on the small core
    alone.  The rows of ``h`` that vanish in ``mat``'s columns span the
    left kernel and come last.  So the transforms stay near the size of the
    Hermite form; they are deterministic but not canonical, save that the
    rows of ``u`` past the rank are the Hermite basis of the left kernel.
    """
    rows = freeze_matrix(mat)
    m = len(rows)
    n = len(rows[0]) if rows else 0
    h = _hermite([(*row, *unit) for row, unit in zip(rows, identity(m))])
    units, cols, core, rest = _split_units(h, n)
    # The column operations that clear the unit rows leave column j of v as
    # e_j minus the unit rows' entries in column j, at their pivot rows.
    vt = identity(n)
    for row, c in zip(units, cols):
        for j in rest:
            vt[j][c] = -row[j]
    diag, u, core_vt = _smith_core(
        [[row[j] for j in rest] for row in core], [row[n:] for row in core], [vt[j] for j in rest]
    )
    d = [[0] * n for _ in range(m)]
    for i, x in enumerate([1] * len(units) + diag):
        d[i][i] = x
    kernel = h[len(units) + len(core) :]
    return SNFResult(
        tuple(row[n:] for row in units) + tuple(map(tuple, u)) + tuple(row[n:] for row in kernel),
        tuple(map(tuple, d)),
        transpose([vt[c] for c in cols] + core_vt),
    )


def smith_diagonal(mat) -> tuple[int, ...]:
    """``smith_normal_form(mat).diagonal`` of an unchecked ``mat``, from the Hermite form of ``mat`` alone."""
    n = len(mat[0]) if mat else 0
    units, _, core, rest = _split_units(_hermite(mat), n)
    diag, _, _ = _smith_core([[row[j] for j in rest] for row in core], [()] * len(core), [()] * len(rest))
    diag = (1,) * len(units) + tuple(diag)
    return diag + (0,) * (min(len(mat), n) - len(diag))


def _hermite(rows) -> IntMatrix:
    """Nonzero rows of the Hermite form of rows already known to be integers
    of equal length: the canonical basis of the row span.

    Pivots are positive, entries above each pivot lie in ``[0, pivot)``, and
    pivot columns increase down the rows.  Rows are inserted one at a time;
    the rows each one touched, all rows at a square rank and all rows at the
    end are reduced again, so entries stay near the size of the form.
    ``IntegralLattice.span`` checks the rows and returns this basis.

    Before each input row, ``_reduce`` passes over the rows the last one inserted or replaced
    by a Bezout combination, or over all rows when their number reaches a square ``root ** 2``,
    but not over the last row alone, which has no later pivot.  The pass over all rows at the
    end gives the form of Kannan and Bachem's order, which passes over all rows after each row."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    touched, root = (), 1
    for row in rows:
        if touched and touched[0] < len(basis) - 1:
            _reduce(basis, pivots, touched)
        touched = []
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
                touched.append(k)
                if len(basis) == root * root:
                    touched, root = range(len(basis)), root + 1
                break
            b = basis[k]
            p, q = b[lead], x[lead]
            if q % p:
                g, s, t = xgcd(p, q)
                p, q = p // g, q // g
                basis[k] = [s * w + t * y for w, y in zip(b, x)]
                touched.append(k)
                x = [p * y - q * w for w, y in zip(b, x)]
            else:
                q //= p
                x = [y - q * w for w, y in zip(b, x)]
            k += 1
    _reduce(basis, pivots, range(len(basis)))
    return tuple(tuple(row) for row in basis)


def _reduce(basis, pivots, indices) -> None:
    """Reduce rows ``indices`` (ascending) of ``basis``, bottom-up, against every later pivot."""
    for i in reversed(indices):
        for j in range(i + 1, len(basis)):
            q = basis[i][pivots[j]] // basis[j][pivots[j]]
            if q:
                basis[i] = [w - q * y for w, y in zip(basis[i], basis[j])]


def saturation(rows) -> tuple[IntMatrix, int]:
    """Hermite basis of ``Q-span(rows) & Z^n``, and the index of the row span in it.

    ``rows`` (k x n, unchecked) must be linearly independent and should be
    a Hermite basis: every library caller passes one from ``IntegralLattice.span``,
    which checks the rows first.  On other rows the working entries can grow
    to hundreds of thousands of bits.  One column-echelon pass brings them to
    ``rows @ V = [L | 0]`` with ``L`` lower triangular, so ``rows = L @ W[:k]``
    for the unimodular ``W = V^-1``: ``W[:k]`` is a basis of the saturation,
    and the index is ``|det L|``.  Row ``t`` of ``W`` follows from rows ``< t`` by forward
    substitution, once the column operations ``col_s -= c * col_t`` (which
    add ``c * W[s]`` to ``W[t]`` and change only column ``s`` of ``L`` from
    row ``t`` down) have reduced ``L[t][s]`` modulo ``L[t][t]``.  So no other
    row of ``W`` is kept, and the rows found stay near the size of ``rows``.
    """
    b = [list(row) for row in rows]
    k = len(b)
    n = len(b[0]) if b else 0
    w = []
    index = 1
    for t in range(k):
        pivot_row = b[t]
        below = b[t:]
        for j in range(t + 1, n):
            q = pivot_row[j]
            if not q:
                continue
            p = pivot_row[t]
            if p and q % p == 0:
                f = q // p
                for row in below:
                    row[j] -= f * row[t]
                continue
            g, x, y = xgcd(p, q)
            p, q = p // g, q // g
            for row in below:
                row[t], row[j] = x * row[t] + y * row[j], p * row[j] - q * row[t]
        d = pivot_row[t]
        index *= d
        found = rows[t]
        for s in range(t):
            c = pivot_row[s] // d
            if c:
                for row in below:
                    row[s] -= c * row[t]
            if pivot_row[s]:
                found = [x - pivot_row[s] * y for x, y in zip(found, w[s])]
        w.append([x // d for x in found])
    return _hermite(w), abs(index)


def signature(gram) -> tuple[int, int, int]:
    """Inertia ``(positive, negative, zero)`` of a symmetric integer matrix.

    The Faddeev-LeVerrier recursion gives ``p(x) = det(xI - gram)`` in
    integers, with exact divisions, in n matrix products: O(n^4), slower than
    an elimination beyond about n = 16.  The roots are all real, so Descartes'
    rule of signs is exact: the sign changes of ``p(x)`` and ``p(-x)`` count
    the positive and negative eigenvalues, and the exponent of the lowest
    nonzero term counts the zero ones.
    """
    n = len(gram)
    p, m = [1], identity(n)  # p ends as the coefficients of x^0, ..., x^n
    for k in range(1, n + 1):
        # M_k is a polynomial in the symmetric gram, so its rows are its columns.
        m = [[sum(map(mul, row, col)) for col in m] for row in gram]
        p.insert(0, -sum(m[i][i] for i in range(n)) // k)
        for i in range(n):
            m[i][i] += p[0]
    zero = next(i for i, c in enumerate(p) if c)
    return _sign_changes(p), _sign_changes([-c if i % 2 else c for i, c in enumerate(p)]), zero

def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))
