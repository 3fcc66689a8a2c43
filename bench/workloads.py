"""Seeded request generators for the three benchmark workloads.

Each generator takes a seed and returns the NDJSON request lines together
with one expectation per line.  The program under test only ever sees the
lines; the expectations feed the output checker.  An expectation is a dict:

    {"code": None}                   the request must succeed
    {"code": "<error code>"}         the request must fail with that code
    {"code": None, "pair": 12}       ... and ``pair`` must return this value
    {"code": None, "order": 36}      ... and ``disc`` must report |det(gram)|
    {"code": None, "snf": True}      ... and the ``snf`` certificate must hold

The same seed always gives the same lines (``random.Random`` is stable
across Python releases for the calls used here).  The request mix per
workload is fixed; the seed only chooses the values inside each request, so
the cost of a batch barely moves between seeds.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd

DEFAULT_SEED = 1

# Parameters of each workload.  They are fixed: a change to any of them is a
# change to the benchmark and invalidates the recorded expected bytes.
MIXED = {
    # Each round makes three requests for each of the rank1, rank2 and
    # kummer setups and three bare-lattice requests: 12 a round.
    "rounds": 260,
    "bad_every": 10,  # every tenth request is malformed or fails a domain check
}
SCAN = {
    # (family, command, bound, count).  The bounds make each family cost
    # roughly a third of the batch on the seed code.  Most requests are
    # enumerations of similar cost, so the median request falls among them
    # rather than between cost clusters, which would make req_p50_ms jump
    # from seed to seed.  ``mori`` on
    # kummer-mukai is left out: one such request at bound 1 takes seconds,
    # more than the rest of the batch together.
    "plan": [
        ("rank1", "ptype-enumerate", 10, 8),
        ("rank1", "mori", 5, 6),
        ("rank2", "ptype-enumerate", 4, 8),
        ("rank2", "mori", 3, 5),
        ("kummer", "ptype-enumerate", 1, 4),
    ],
}
KERNELS = {
    # (size range, count) for square-ish matrices; entries in [-50, 50].
    "sizes": [((4, 7), 780), ((8, 11), 150), ((12, 16), 50), ((17, 24), 14), ((25, 32), 6)],
    "entry": 50,
    "commands": ("snf", "saturate", "disc"),
}


def _line(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


# --- exact helpers, independent of the package under test -----------------


def _pair(ns, x, y):
    """Mukai pairing ((r,c,s),(r',c',s')) = c.N.c' - r s' - s r'."""
    r, c, s = x[0], x[1:-1], x[-1]
    r2, c2, s2 = y[0], y[1:-1], y[-1]
    cc = sum(c[i] * ns[i][j] * c2[j] for i in range(len(c)) for j in range(len(c2)))
    return cc - r * s2 - s * r2


def _form(gram, x, y):
    return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))


def _det(mat):
    """Exact determinant by Fraction elimination (not the package's Bareiss)."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return int(det)


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def _content(vec):
    g = 0
    for x in vec:
        g = gcd(g, x)
    return g


# --- Mukai setups and witness-plus-complement vectors ---------------------


def _rank1_ns(rng):
    return [[2 * rng.randint(1, 8)]]


def _rank2_ns(rng):
    # Even hyperbolic binary forms: det = 4ac - b^2 < 0 gives signature (1, 1).
    while True:
        a, b, c = rng.randint(-3, 3), rng.randint(-5, 5), rng.randint(-3, 3)
        if b * b - 4 * a * c > 0:
            return [[2 * a, b], [b, 2 * c]]


def _kummer_ns():
    ns = [[0] * 6 for _ in range(6)]
    for blk in range(3):
        ns[2 * blk][2 * blk + 1] = ns[2 * blk + 1][2 * blk] = 1
    return ns


def _twist(ns, x, d):
    """Tensor by the line bundle ``d``: an isometry of the Mukai lattice."""
    r, c, s = x[0], list(x[1:-1]), x[-1]
    rho = len(c)
    cd = sum(c[i] * ns[i][j] * d[j] for i in range(rho) for j in range(rho))
    dd = sum(d[i] * ns[i][j] * d[j] for i in range(rho) for j in range(rho))
    return (r, *(c[i] + r * d[i] for i in range(rho)), s + cd + r * dd // 2)


def _witness_triple(rng, ns, max_k, moves=True):
    """Return (v, a, b) with v = a + b, a^2 = b^2 = 0 and (a, b) = v^2/2 >= 3.

    Built as e = (1, 0, 0) plus an isotropic t0 = (-q/k, c, -k), q = c^2/2,
    then, with ``moves``, moved by a random isometry; v, a and b are all
    primitive.  Some NS lattices admit no such triple with small entries:
    give up after a fixed number of draws and return None.
    """
    rho = len(ns)
    for _ in range(200):
        c = [rng.randint(-3, 3) for _ in range(rho)]
        q = _form(ns, c, c) // 2
        ks = [k for k in range(3, max_k + 1) if q and q % k == 0]
        if not ks:
            continue
        k = rng.choice(ks)
        t0 = (-q // k, *c, -k)
        e = (1,) + (0,) * rho + (0,)
        v0 = tuple(x + y for x, y in zip(e, t0))
        if _content(t0) != 1 or _content(v0) != 1:
            continue
        vecs = [e, t0]
        for _ in range(rng.randint(0, 2) if moves else 0):
            d = [rng.randint(-1, 1) for _ in range(rho)]
            vecs = [_twist(ns, x, d) for x in vecs]
        if moves and rng.random() < 0.5:  # swap r and s: another isometry
            vecs = [(x[-1], *x[1:-1], x[0]) for x in vecs]
        a, b = vecs
        v = tuple(x + y for x, y in zip(a, b))
        assert _pair(ns, a, a) == 0 and _pair(ns, b, b) == 0 and _pair(ns, a, v) == k
        return list(v), list(a), list(b)
    return None


def _positive_perp(rng, ns, v):
    """A primitive h with (h, v) = 0 and h^2 > 0, from h = v^2 w - (w, v) v.

    Returns None when no small ``w`` gives one.
    """
    vsq = _pair(ns, v, v)
    for attempt in range(400):
        span = 2 + attempt // 100
        w = [rng.randint(-span, span) for _ in range(len(v))]
        wv = _pair(ns, w, v)
        h = [vsq * x - wv * y for x, y in zip(w, v)]
        g = _content(h)
        if g and _pair(ns, h, h) > 0:
            return [x // g for x in h]
    return None


def _setup_fields(rng, family):
    """(payload fields naming the setup, NS Gram) for one Mukai family."""
    if family == "rank1":
        ns = _rank1_ns(rng)
        if rng.random() < 0.5:
            return {"setup": f"ns-rank1:{ns[0][0]}"}, ns
        return {"ns": ns}, ns
    if family == "rank2":
        ns = _rank2_ns(rng)
        return {"ns": ns}, ns
    return {"setup": "kummer-mukai"}, _kummer_ns()


def _pointed_setup(rng, family, max_k=12, moves=True):
    """Setup fields, NS Gram and a witness triple (v, a, b) for ``family``."""
    while True:
        fields, ns = _setup_fields(rng, family)
        triple = _witness_triple(rng, ns, max_k, moves)
        if triple is not None:
            return fields, ns, triple


# --- mixed -----------------------------------------------------------------


def _random_matrix(rng, m, n, entry):
    return [[rng.randint(-entry, entry) for _ in range(n)] for _ in range(m)]


def _even_gram(rng, n, entry):
    """A random nondegenerate even symmetric Gram matrix and its determinant."""
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-entry // 2, entry // 2)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-entry, entry)
        det = _det(g)
        if det:
            return g, det


def _mukai_request(rng, family):
    fields, ns, (v, a, b) = _pointed_setup(rng, family)
    cmd = rng.choice(("line-class", "classify", "ptype-check", "ptype-decompose", "jh-check", "budget-check"))
    doc = {"command": cmd, **fields, "v": v}
    if cmd in ("line-class", "classify"):
        doc["a"] = rng.choice((a, b, [-x for x in a]))
    elif cmd in ("ptype-check", "ptype-decompose"):
        doc["generators"] = rng.choice(([a, b], [v, a], [b, v]))
    elif cmd == "jh-check" and rng.random() < 0.5:
        w = [rng.randint(-1, 1) for _ in v]
        doc["parts"] = [a, [x - y for x, y in zip(b, w)], w]
        if not any(w):
            doc["parts"] = [a, b]
    else:
        doc["parts"] = [a, b]
    return doc, {"code": None}


def _lattice_request(rng):
    cmd = rng.choice(("pair", "disc", "saturate", "snf"))
    if cmd == "snf":
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        return {"command": "snf", "matrix": _random_matrix(rng, m, n, 20)}, {"code": None, "snf": True}
    if cmd == "saturate":
        n = rng.randint(3, 5)
        rows = _random_matrix(rng, 2, n, 9)
        p, q, s = rng.randint(1, 3), rng.randint(-3, 3), rng.randint(1, 3)
        basis = [[p * x + q * y for x, y in zip(*rows)], [s * y for y in rows[1]]]
        if _det([[_dot(r1, r2) for r2 in basis] for r1 in basis]) == 0:
            basis = [[1] + [0] * (n - 1), [0, 2] + [0] * (n - 2)]
        return {"command": "saturate", "basis": basis}, {"code": None}
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(1, 4)
        gram = [row + [0] for row in _kummer_ns()] + [[0] * 6 + [-(2 * n + 2)]]
        fields = {"setup": f"kummer-bbf:{n}"}
    elif kind == 1:
        gram = _rank2_ns(rng)
        fields = {"gram": gram}
    else:
        deg = 2 * rng.randint(1, 8)
        gram = [[0, 0, -1], [0, deg, 0], [-1, 0, 0]]
        fields = {"setup": f"ns-rank1:{deg}"}
    if cmd == "disc":
        return {"command": "disc", **fields}, {"code": None, "order": abs(_det(gram))}
    size = len(gram)
    x = [rng.randint(-30, 30) for _ in range(size)]
    y = [rng.randint(-30, 30) for _ in range(size)]
    return {"command": "pair", **fields, "x": x, "y": y}, {"code": None, "pair": _form(gram, x, y)}


def _bad_request(rng):
    """A request that must fail, with the error code it must fail with."""
    fields, ns, (v, a, b) = _pointed_setup(rng, rng.choice(("rank1", "rank2")))
    kind = rng.randrange(8)
    if kind == 0:
        return _line({"command": "classify", **fields, "v": v, "a": a})[:-3], "parse-error"
    if kind == 1:
        return _line({"command": "classify", **fields, "v": v}), "schema-error"
    if kind == 2:
        return _line({"command": "lattice-class", **fields, "v": v, "a": a}), "schema-error"
    if kind == 3:
        return _line({"command": "line-class", **fields, "v": v + [0], "a": a}), "dimension-mismatch"
    if kind == 4:
        odd = [row[:] for row in ns]
        odd[0][0] += 1
        return _line({"command": "classify", "ns": odd, "v": v, "a": a}), "not-even"
    if kind == 5:
        return _line({"command": "classify", **fields, "v": [2 * x for x in v], "a": a}), "imprimitive"
    if kind == 6:
        parts = [a, [x + (i == 0) for i, x in enumerate(b)]]
        return _line({"command": "jh-check", **fields, "v": v, "parts": parts}), "sum-mismatch"
    rho = len(ns)
    positive = [[2 if i == j else 0 for j in range(rho)] for i in range(rho)]
    vec = [0] * (rho + 2)
    vec[0] = 1
    if rho == 1:
        return _line({"command": "classify", "ns": ns, "v": [1, 0, -1], "a": vec}), "square-too-small"
    return _line({"command": "line-class", "ns": positive, "v": v, "a": a}), "bad-signature"


def mixed(seed: int):
    rng = random.Random(seed)
    lines, expect = [], []
    count = 0
    for _ in range(MIXED["rounds"]):
        for family in ("rank1", "rank2", "kummer", None):
            for _ in range(3):
                count += 1
                if count % MIXED["bad_every"] == 0:
                    line, code = _bad_request(rng)
                    lines.append(line)
                    expect.append({"code": code})
                    continue
                doc, exp = _mukai_request(rng, family) if family else _lattice_request(rng)
                lines.append(_line(doc))
                expect.append(exp)
    return lines, expect


# --- scan ------------------------------------------------------------------


def scan(seed: int):
    rng = random.Random(seed)
    lines, expect = [], []
    for family, cmd, bound, count in SCAN["plan"]:
        for _ in range(count):
            while True:
                if family == "kummer":
                    # v^2 = 6 (a Kummer fourfold) and no isometry: the
                    # witness count, and so the cost of the scan, then
                    # varies little from seed to seed.
                    fields, ns, (v, _, _) = _pointed_setup(rng, family, max_k=3, moves=False)
                else:
                    fields, ns, (v, _, _) = _pointed_setup(rng, family, max_k=6)
                doc = {"command": cmd, **fields, "v": v, "bound": bound}
                if cmd != "mori":
                    break
                doc["h"] = _positive_perp(rng, ns, v)
                if doc["h"] is not None:
                    break
            lines.append(_line(doc))
            expect.append({"code": None})
    order = list(range(len(lines)))
    rng.shuffle(order)
    return [lines[i] for i in order], [expect[i] for i in order]


# --- kernels ---------------------------------------------------------------


def kernels(seed: int):
    rng = random.Random(seed)
    entry = KERNELS["entry"]
    lines, expect = [], []
    index = 0
    for (lo, hi), count in KERNELS["sizes"]:
        for i in range(count):
            n = lo + i % (hi - lo + 1)
            cmd = KERNELS["commands"][index % 3]
            index += 1
            if cmd == "disc":
                gram, det = _even_gram(rng, n, entry)
                lines.append(_line({"command": "disc", "gram": gram}))
                expect.append({"code": None, "order": abs(det)})
                continue
            if cmd == "saturate":
                # k independent rows in Z^n with k < n; a random left factor
                # with det > 1 makes the saturation index nontrivial.  Corank
                # 1 to 3 only up to n = 20: above that the seed code's cost on
                # such bases is heavy-tailed (0.03 s to over 30 s a request),
                # so one request could outlast a whole run.
                k = n - 1 - i % 3 if n <= 20 else n // 2
                while True:
                    rows = _random_matrix(rng, k, n, entry)
                    mixer = [[rng.randint(-2, 2) if j != r else rng.randint(1, 3) for j in range(k)] for r in range(k)]
                    basis = [[sum(mixer[r][j] * rows[j][col] for j in range(k)) for col in range(n)] for r in range(k)]
                    if _det([[_dot(r1, r2) for r2 in basis] for r1 in basis]):
                        break
                lines.append(_line({"command": "saturate", "basis": basis}))
                expect.append({"code": None})
                continue
            shape = i % 3
            if shape == 0:
                mat = _random_matrix(rng, n, n, entry)
            elif shape == 1:  # non-square
                mat = _random_matrix(rng, n, max(2, n - 2 - i % 4), entry)
            else:  # rank-deficient: a product through an inner dimension < n
                inner = max(1, n - 2)
                left = _random_matrix(rng, n, inner, 3)
                right = _random_matrix(rng, inner, n, entry // 3)
                mat = [[sum(left[r][j] * right[j][c] for j in range(inner)) for c in range(n)] for r in range(n)]
            lines.append(_line({"command": "snf", "matrix": mat}))
            expect.append({"code": None, "snf": True})
    order = list(range(len(lines)))
    rng.shuffle(order)
    return [lines[i] for i in order], [expect[i] for i in order]


GENERATORS = {"mixed": mixed, "scan": scan, "kernels": kernels}


def generate(workload: str, seed: int):
    """Request lines and expectations for ``workload`` at ``seed``."""
    return GENERATORS[workload](seed)
