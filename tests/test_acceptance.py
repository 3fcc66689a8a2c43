"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Everything here is exact arithmetic; brute-force oracles are independent of
the code paths they check.
"""

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import numpy as np

import mukailat
from mukailat import (
    classify_line_class,
    contraction_budget,
    enumerate_p_type,
    isotropic_lines,
    is_p_type_form,
    kummer_bbf_lattice,
    kummer_mukai_setup,
    mori_candidates,
    rank_one_setup,
    theta_dual,
)
from mukailat.intlinalg import smith_normal_form
from oracles import dense_pair, determinant, lincomb, mat_mul


@contextmanager
def reported(number, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


def corollary_family():
    """Triples (setup, v, a) with a^2 = 0 and (a, v) = v^2/2 = n + 1, n = 1..20."""
    full = kummer_mukai_setup()
    for n in range(1, 21):
        setup = rank_one_setup(2 * (n + 1))
        yield n, setup, (0, 1, -(n + 1)), (1, 0, 0)
        for d in (1, 2, 3):
            small = rank_one_setup(2 * d)
            yield n, small, (1, 1, d - n - 1), (1, 1, d)
        v = (1, 0, 0, 0, 0, 0, 0, -(n + 1))
        a = (0, 1, 0, 0, 0, 0, 0, -(n + 1))
        yield n, full, v, a


def test_criterion_1_kummer_fourfold_constant():
    with reported(1, "Kummer fourfold constant"):
        setup = rank_one_setup(6)
        v = (0, 1, -3)
        lc = theta_dual(setup, v, (1, 0, 0))
        assert Fraction(lc.square_numerator, lc.denominator) == Fraction(-3, 2)
        assert lc.disc_order == 2


def test_criterion_2_corollary_sweep():
    with reported(2, "line-class square sweep n=1..20"):
        start = time.monotonic()
        count = 0
        for n, setup, v, a in corollary_family():
            assert setup.square(a) == 0
            assert setup.square(v) == 2 * n + 2
            assert setup.pair(a, v) == n + 1
            lc = theta_dual(setup, v, a)
            assert Fraction(lc.square_numerator, lc.denominator) == Fraction(-(n + 1), 2)
            assert lc.two_r is not None
            assert lc.disc_order == 2
            count += 1
        assert count == 100
        assert time.monotonic() - start < 1.0


def test_criterion_3_isotropic_census_vs_brute_force():
    with reported(3, "census vs brute force, never more than two classes"):
        start = time.monotonic()
        rng = np.random.default_rng(987654321)
        box = 200
        axis = np.arange(-box, box + 1)
        x, y = np.meshgrid(axis, axis, indexing="ij")
        x2, xy, y2 = x * x, x * y, y * y
        primitive = np.gcd(np.abs(x), np.abs(y)) == 1
        checked = 0
        while checked < 500:
            a, b, c = (int(t) for t in rng.integers(-50, 51, size=3))
            if a == 0 and b == 0 and c == 0:
                continue
            values = a * x2 + 2 * b * xy + c * y2
            points = np.argwhere((values == 0) & primitive)
            found = set()
            for i, j in points:
                px, py = int(axis[i]), int(axis[j])
                if px < 0 or (px == 0 and py < 0):
                    px, py = -px, -py
                found.add((px, py))
            assert found == set(isotropic_lines([[a, b], [b, c]]))
            assert len(found) <= 2
            checked += 1
        assert time.monotonic() - start < 10.0


def test_criterion_4_p_type_iff_decomposition():
    with reported(4, "P-type by definition iff brute-force decomposition exists iff is_p_type_form"):
        start = time.monotonic()
        entry_bound = 20
        # Any primitive isotropic vector of such a form has |x| <= |b| + isqrt(b*b - a*c) <= 48
        # and |y| <= max(|a|, 2|b|) <= 40, so a radius-50 scan is exhaustive.
        scan = 50
        points = [
            (px, py)
            for px in range(0, scan + 1)
            for py in range(-scan, scan + 1)
            if gcd(px, py) == 1 and (px > 0 or py > 0)
        ]
        xs = np.array([p[0] for p in points], dtype=np.int32)
        ys = np.array([p[1] for p in points], dtype=np.int32)
        x2, xy2, y2 = xs * xs, 2 * xs * ys, ys * ys

        axis = np.arange(-entry_bound, entry_bound + 1, dtype=np.int32)
        ga, gb, gc = (m.ravel() for m in np.meshgrid(axis, axis, axis, indexing="ij"))
        ngrams = ga.size
        isotropics = {}
        chunk = 4000
        for lo in range(0, ngrams, chunk):
            hi = min(lo + chunk, ngrams)
            values = (
                ga[lo:hi, None] * x2[None]
                + gb[lo:hi, None] * xy2[None]
                + gc[lo:hi, None] * y2[None]
            )
            rows, cols = np.nonzero(values == 0)
            for g, p in zip(rows.tolist(), cols.tolist()):
                isotropics.setdefault(lo + g, []).append(points[p])

        v_candidates = [
            (p, q)
            for p in range(-2, 3)
            for q in range(-2, 3)
            if (p, q) != (0, 0) and gcd(p, q) == 1
        ]
        pairs = agreements = 0
        for idx in range(ngrams):
            a, b, c = int(ga[idx]), int(gb[idx]), int(gc[idx])
            if a == 0 and b == 0 and c == 0:
                continue
            gram = ((a, b), (b, c))
            brute = isotropics.get(idx, [])
            # the scan doubles as an exhaustive census cross-check
            assert set(brute) == set(isotropic_lines(gram))
            for vxy in v_candidates:
                vsq = dense_pair(gram, vxy, vxy)
                if vsq not in (6, 8, 10):
                    continue
                pairs += 1
                half = vsq // 2
                # the definition: the brute-force census is nonempty and its
                # minimum |(a, v)| is v^2/2
                defined = bool(brute) and min(abs(dense_pair(gram, a, vxy)) for a in brute) == half
                # oracle: search s with s^2 = 0, (s, v) = v^2/2, both s and
                # t = v - s primitive; t^2 = 0 is checked, not assumed
                witnessed = False
                for sx0, sy0 in brute:
                    for sx, sy in ((sx0, sy0), (-sx0, -sy0)):
                        if dense_pair(gram, (sx, sy), vxy) != half:
                            continue
                        tx, ty = vxy[0] - sx, vxy[1] - sy
                        if (tx, ty) == (0, 0) or gcd(tx, ty) != 1:
                            continue
                        if dense_pair(gram, (tx, ty), (tx, ty)) != 0:
                            continue
                        witnessed = True
                        break
                    if witnessed:
                        break
                assert defined == witnessed == is_p_type_form(gram, vxy), (gram, vxy)
                agreements += 1
        assert pairs == agreements
        assert pairs > 30000
        assert time.monotonic() - start < 30.0


def test_criterion_5_dimension_identity_on_random_instances():
    with reported(5, "2((s,t) - 1) = v^2 - 2 on 1000 random P-type instances"):
        rng = random.Random(421)
        full = kummer_mukai_setup()
        for _ in range(1000):
            if rng.random() < 0.5:
                # v = (0, 1, d(2m - 1)) with witness a = (1, m, d m^2); the
                # complement (-1, 1 - m, -d(1 - m)^2) is primitive, v^2 = 2d
                d = rng.randint(3, 40)
                m = rng.randint(-30, 30)
                setup = rank_one_setup(2 * d)
                v = (0, 1, d * (2 * m - 1))
                a = (1, m, d * m * m)
            else:
                # full U^4 lattice: v = (1, 0, .., -(n+1)), witness in the
                # first hyperbolic NS block, complement (1, -e1, 0)
                n = rng.randint(2, 40)
                setup = full
                v = (1, 0, 0, 0, 0, 0, 0, -(n + 1))
                a = (0, 1, 0, 0, 0, 0, 0, -(n + 1))
            lattice = classify_line_class(setup, v, a).lattice
            dec = lattice.decomposition()
            assert lincomb((1, dec.s), (1, dec.t)) == v
            assert 2 * (setup.pair(dec.s, dec.t) - 1) == setup.square(v) - 2


def test_criterion_6_budget_uniqueness():
    with reported(6, "only two-part isotropic partitions fit the ext^1 budget"):
        start = time.monotonic()
        for degree, v, expected in [
            (6, (0, 1, -3), {(( -3, 2, -4), (3, -1, 1)), ((-1, 1, -3), (1, 0, 0))}),
            (8, (0, 1, -4), {((-1, 1, -4), (1, 0, 0))}),
        ]:
            setup = rank_one_setup(degree)
            box = [c for c in product(range(-4, 5), repeat=3) if any(c)]
            # parts must be primitive with square >= 0 (an abelian surface
            # carries no rigid objects, so every factor class satisfies this)
            eligible = [
                c
                for c in box
                if gcd(gcd(c[0], c[1]), c[2]) == 1
                and setup.square(c) >= 0
            ]
            index = set(eligible)
            passing = set()
            if v in index:
                if contraction_budget(setup, v, [v]).ext1_budget_ok:
                    passing.add((v,))
            for a in eligible:
                b = tuple(va - xa for va, xa in zip(v, a))
                if b in index and a <= b:
                    if contraction_budget(setup, v, [a, b]).ext1_budget_ok:
                        passing.add((a, b))
            # sum(a_i^2 + 2) >= 2m > 4 for m >= 3 given square >= 0, and the
            # m = 3 layer is searched to confirm
            for a in eligible:
                rest = tuple(va - xa for va, xa in zip(v, a))
                for b in eligible:
                    c = tuple(ra - xb for ra, xb in zip(rest, b))
                    if c in index and a <= b <= c:
                        if contraction_budget(setup, v, [a, b, c]).ext1_budget_ok:
                            passing.add((a, b, c))
            assert passing == expected
            for parts in passing:
                assert len(parts) == 2
                assert all(setup.square(p) == 0 for p in parts)
        assert time.monotonic() - start < 60.0


def test_criterion_7_normal_form_certificates():
    with reported(7, "1000 SNF certificates and kummer-bbf discriminants"):
        rng = random.Random(20240229)
        for _ in range(1000):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            mat = tuple(
                tuple(rng.randint(-100, 100) for _ in range(cols)) for _ in range(rows)
            )
            result = smith_normal_form(mat)
            assert mat_mul(mat_mul(result.u, mat), result.v) == result.d
            assert determinant(result.u) in (1, -1)
            assert determinant(result.v) in (1, -1)
            diag = result.diagonal
            assert all(x >= 0 for x in diag)
            for i in range(len(diag) - 1):
                if diag[i]:
                    assert diag[i + 1] % diag[i] == 0
                else:
                    assert diag[i + 1] == 0
        for n in range(1, 21):
            group = kummer_bbf_lattice(n).discriminant_group()
            assert group.invariant_factors == (2 * n + 2,)
            assert group.order == 2 * n + 2


def _scan_for_h(setup, v, radius):
    """First vector (lexicographic) in the box with (h, v) = 0 and h^2 > 0."""
    for coords in product(range(-radius, radius + 1), repeat=setup.rank):
        if not any(coords):
            continue
        if setup.pair(coords, v) == 0 and setup.square(coords) > 0:
            return coords
    raise AssertionError("no valid h in the scan box")


def test_criterion_8_cross_module_consistency():
    with reported(8, "mori lagrangian flags match the P-type enumeration"):
        setup = rank_one_setup(6)
        v = (0, 1, -3)
        h = _scan_for_h(setup, v, 3)
        assert setup.pair(h, v) == 0 and setup.square(h) > 0
        flagged = [c for c in mori_candidates(setup, v, h, 6) if c.lagrangian]
        lattices = enumerate_p_type(setup, v, 6)
        projections = {}
        for lattice in lattices:
            lc = theta_dual(setup, v, lattice.decomposition().s)
            projections[lc.numerators] = lattice
            projections[tuple(-x for x in lc.numerators)] = lattice
        assert flagged and lattices
        # every flagged candidate is (up to sign) a projected census class
        covered = set()
        for cand in flagged:
            key = cand.line_class.numerators
            assert key in projections
            covered.add(projections[key])
        # and every enumerated lattice is hit by some flagged candidate
        assert covered == set(lattices)


def _criterion_requests():
    lines = [
        {"command": "line-class", "ns": [[6]], "v": [0, 1, -3], "a": [1, 0, 0]},
        {"command": "classify", "ns": [[6]], "v": [0, 1, -3], "a": [1, 0, 0]},
        {
            "command": "ptype-check",
            "ns": [[6]],
            "v": [0, 1, -3],
            "generators": [[0, 1, -3], [1, 0, 0]],
        },
        {
            "command": "ptype-decompose",
            "ns": [[6]],
            "v": [0, 1, -3],
            "generators": [[0, 1, -3], [1, 0, 0]],
        },
        {"command": "ptype-enumerate", "ns": [[6]], "v": [0, 1, -3], "bound": 6},
        {"command": "mori", "ns": [[6]], "v": [0, 1, -3], "h": [-2, 1, -1], "bound": 6},
        {"command": "saturate", "basis": [[2, 4], [2, -4]]},
        {"command": "pair", "setup": "kummer-mukai", "x": [1, 0, 0, 0, 0, 0, 0, 1], "y": [1, 0, 0, 0, 0, 0, 0, -1]},
        {"command": "disc", "setup": "kummer-mukai"},
    ]
    for n in range(1, 21):
        lines.append({"command": "disc", "setup": f"kummer-bbf:{n}"})
        lines.append(
            {
                "command": "line-class",
                "ns": [[2 * (n + 1)]],
                "v": [0, 1, -(n + 1)],
                "a": [1, 0, 0],
            }
        )
        if n >= 2:
            lines.append(
                {
                    "command": "classify",
                    "setup": f"ns-rank1:{2 * (n + 1)}",
                    "v": [0, 1, -(n + 1)],
                    "a": [1, 0, 0],
                }
            )
    rng = random.Random(5)
    for _ in range(10):
        size = rng.randint(1, 5)
        matrix = [[rng.randint(-60, 60) for _ in range(size)] for _ in range(size)]
        lines.append({"command": "snf", "matrix": matrix})
    for parts in ([[1, 0, 0], [-1, 1, -3]], [[0, 1, -3]]):
        lines.append({"command": "jh-check", "ns": [[6]], "v": [0, 1, -3], "parts": parts})
        lines.append({"command": "budget-check", "ns": [[6]], "v": [0, 1, -3], "parts": parts})
    lines.append(
        {"command": "budget-check", "ns": [[8]], "v": [0, 1, -4], "parts": [[1, 0, 0], [-1, 1, -4]]}
    )
    return [json.dumps(doc, sort_keys=True) for doc in lines]


def test_criterion_9_cli_determinism(tmp_path):
    with reported(9, "byte-identical CLI output across runs and --jobs values, which the CLI ignores"):
        batch = tmp_path / "requests.ndjson"
        batch.write_text("\n".join(_criterion_requests()) + "\n", encoding="utf-8")

        def run(*extra):
            return subprocess.run(
                [sys.executable, "-m", "mukailat", str(batch), *extra],
                capture_output=True,
                env={**os.environ, "PYTHONPATH": str(Path(mukailat.__file__).parents[1])},
            )

        first = run("--jobs", "1")
        second = run("--jobs", "1")
        ignored = run("--jobs", "4")
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout == ignored.stdout
        responses = [json.loads(line) for line in first.stdout.splitlines()]
        assert len(responses) == len(_criterion_requests())
        assert all(doc["status"] == "ok" for doc in responses)
