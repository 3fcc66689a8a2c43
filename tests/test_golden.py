"""Golden batch: every command's ok and error paths, pinned to exact bytes.

``golden/requests.ndjson`` holds an ok request and at least one failing
request for each command, plus parse and schema errors and blank lines;
``golden/responses.ndjson`` is its exact output.  Regenerate both files only
for an intended output change:

    PYTHONPATH=src python -m mukailat tests/golden/requests.ndjson > tests/golden/responses.ndjson
    PYTHONPATH=src python -m mukailat --schema > tests/golden/schema.json
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mukailat
from mukailat.cli import DEFAULT_BOUND, main, run_batch
from oracles import determinant, mat_mul

GOLDEN = Path(__file__).parent / "golden"
REQUESTS = GOLDEN / "requests.ndjson"
EXPECTED = (GOLDEN / "responses.ndjson").read_bytes()


def run_cli(*args):
    env = {**os.environ, "PYTHONPATH": str(Path(mukailat.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "mukailat", *args], capture_output=True, env=env)


@pytest.mark.parametrize("jobs", [1, 2])
def test_golden_batch_in_process(jobs):
    out = io.StringIO()
    status = run_batch(REQUESTS.read_text(encoding="utf-8").splitlines(), DEFAULT_BOUND, jobs, out)
    assert out.getvalue().encode("utf-8") == EXPECTED
    assert status == 1


@pytest.mark.parametrize("flags", [(), ("--jobs", "2")], ids=["no-flag", "jobs-2"])
def test_golden_batch_through_the_cli(flags):
    done = run_cli(*flags, str(REQUESTS))
    assert done.stdout == EXPECTED
    assert done.returncode == 1
    assert done.stderr == b""


def test_golden_schema(capsys):
    assert main(["--schema"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / "schema.json").read_bytes()


def test_golden_snf_transforms_are_certificates():
    # The transforms are deterministic but not canonical: only the diagonal
    # is, so each recorded ``u`` and ``v`` is checked as a certificate too.
    requests = [line for line in REQUESTS.read_text(encoding="utf-8").splitlines() if line.strip()]
    responses = [json.loads(line) for line in EXPECTED.decode("utf-8").splitlines()]
    checked = 0
    for request, response in zip(requests, responses, strict=True):
        if response["command"] != "snf" or response["status"] != "ok":
            continue
        result = response["result"]
        matrix = [[int(x) for x in row] for row in json.loads(request)["matrix"]]
        assert mat_mul(mat_mul(result["u"], matrix), result["v"]) == tuple(map(tuple, result["d"]))
        assert determinant(result["u"]) in (1, -1) and determinant(result["v"]) in (1, -1)
        checked += 1
    assert checked == 7
