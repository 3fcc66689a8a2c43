"""Output checker for benchmark batches.

A response passes when

* its status and error code match what the generator built the request to
  produce, and any oracle value recorded with the request (a ``pair`` value,
  a discriminant order equal to ``|det|``) matches;
* for ``snf``, the certificate holds: ``u . M . v == d``, ``d`` diagonal
  with a nonnegative divisibility chain, ``u`` and ``v`` unimodular.  The
  transforms themselves are not compared, since a bounded-coefficient SNF
  may legitimately return other ones;
* at the default seed, its bytes hash to the value recorded at the commit
  that defined the benchmark (``expected/<workload>.json``).  ``snf``
  responses are hashed without ``u`` and ``v``, which still pins the exact
  diagonal.

Cross-run byte equality (``--jobs 1`` against ``--jobs N``, repeated runs,
in-process against CLI) is checked by the runner, which owns the runs.

``python3 bench/check.py --record`` rewrites the recorded hashes from the
package found on ``PYTHONPATH``.  Do that only when the benchmark's inputs
change, never to make a changed program pass.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import workloads

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Unimodularity is checked as det = +-1 modulo these primes: a determinant
# other than +-1 passes only if it is congruent to the same unit modulo all
# of them, i.e. divisible by their product after shifting by +-1.
_PRIMES = (2**61 - 1, 2**31 - 1, 1_000_000_007, 998_244_353)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def comparable(response: str, doc) -> str:
    """The part of a response pinned by the recorded bytes."""
    if doc.get("command") == "snf" and doc.get("status") == "ok":
        result = {k: v for k, v in doc["result"].items() if k not in ("u", "v")}
        return canonical({**doc, "result": result})
    return response


def _det_mod(mat, p: int) -> int:
    a = [[x % p for x in row] for row in mat]
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det % p


def _unimodular(mat, size: int) -> bool:
    if len(mat) != size or any(len(row) != size for row in mat):
        return False
    dets = [_det_mod(mat, p) for p in _PRIMES]
    return all(d == 1 for d in dets) or all(d == p - 1 for d, p in zip(dets, _PRIMES))


def _mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def snf_problem(matrix, result) -> str | None:
    """Why ``result`` is not a Smith normal form certificate of ``matrix``, or None."""
    m, n = len(matrix), len(matrix[0])
    u, d, v, diag = result.get("u"), result.get("d"), result.get("v"), result.get("diagonal")
    if not (isinstance(d, list) and len(d) == m and all(len(row) == n for row in d)):
        return "snf: d has the wrong shape"
    size = min(m, n)
    if any(d[i][j] for i in range(m) for j in range(n) if i != j):
        return "snf: d is not diagonal"
    if diag != [d[i][i] for i in range(size)]:
        return "snf: diagonal does not match d"
    if any(x < 0 for x in diag):
        return "snf: negative diagonal entry"
    for x, y in zip(diag, diag[1:]):
        if (x == 0 and y != 0) or (x != 0 and y % x):
            return "snf: diagonal is not a divisibility chain"
    if not _unimodular(u, m) or not _unimodular(v, n):
        return "snf: u or v is not unimodular"
    if _mul(_mul(u, matrix), v) != d:
        return "snf: u . M . v != d"
    return None


def response_problem(request: str, expectation, response: str) -> str | None:
    """Why ``response`` is a wrong answer to ``request``, or None."""
    try:
        doc = json.loads(response)
    except ValueError:
        return "response is not JSON"
    if not isinstance(doc, dict):
        return "response is not an object"
    code = expectation["code"]
    if code is None:
        if doc.get("status") != "ok":
            return f"expected ok, got {doc.get('code')}: {doc.get('diagnostics')}"
    elif doc.get("status") != "error" or doc.get("code") != code:
        return f"expected error {code}, got {doc.get('status')} {doc.get('code')}"
    if code is not None:
        return None
    result = doc.get("result")
    if "pair" in expectation and result != {"value": expectation["pair"]}:
        return f"pair: expected {expectation['pair']}, got {result}"
    if "order" in expectation:
        factors = result.get("factors", [])
        product = 1
        for f in factors:
            product *= f
        if result.get("order") != expectation["order"] or product != expectation["order"]:
            return f"disc: expected order {expectation['order']}, got {result}"
    if expectation.get("snf"):
        return snf_problem(json.loads(request)["matrix"], result)
    return None


def load_expected(workload: str):
    path = EXPECTED_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else None


def batch_digest(lines) -> str:
    return digest("\n".join(lines))


def check_batch(workload: str, seed: int, lines, expect, output: str):
    """Check one batch's output; returns (indices of failed requests, problems)."""
    responses = output.splitlines()
    failed = set()
    problems = []
    if len(responses) != len(lines):
        problems.append(f"{len(responses)} responses to {len(lines)} requests")
        failed.update(range(min(len(responses), len(lines)), len(lines)))
    recorded = load_expected(workload)
    if recorded is not None and recorded["seed"] == seed:
        if recorded["batch"] != batch_digest(lines):
            raise RuntimeError(f"{workload}: the generator no longer gives the recorded inputs")
    else:
        recorded = None
    for i, (request, exp, response) in enumerate(zip(lines, expect, responses)):
        problem = response_problem(request, exp, response)
        if problem is None and recorded is not None:
            if digest(comparable(response, json.loads(response))) != recorded["responses"][i]:
                problem = "bytes differ from the recorded response"
        if problem is not None:
            failed.add(i)
            problems.append(f"request {i}: {problem}")
    return sorted(failed), problems


def record(workload: str) -> None:
    from mukailat.cli import DEFAULT_BOUND, handle_line

    seed = workloads.DEFAULT_SEED
    lines, _ = workloads.generate(workload, seed)
    responses = [handle_line(line, DEFAULT_BOUND)[0] for line in lines]
    doc = {
        "workload": workload,
        "seed": seed,
        "batch": batch_digest(lines),
        "responses": [digest(comparable(r, json.loads(r))) for r in responses],
    }
    EXPECTED_DIR.mkdir(exist_ok=True)
    (EXPECTED_DIR / f"{workload}.json").write_text(json.dumps(doc, indent=0) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python3 bench/check.py --record")
    for name in workloads.GENERATORS:
        record(name)
