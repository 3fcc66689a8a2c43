"""Tests of the benchmark itself: generators, checker and tracer."""

import inspect
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import tracing
import workloads
from mukailat.cli import DEFAULT_BOUND, handle_line, run_batch

BENCH = Path(__file__).resolve().parent


def _outputs(lines):
    return "".join(handle_line(line, DEFAULT_BOUND)[0] + "\n" for line in lines)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 3)
    assert workloads.generate(workload, 3) == first
    assert workloads.generate(workload, 4)[0] != first[0]
    lines, expect = first
    assert len(lines) == len(expect)


def test_recorded_bytes_accept_the_seed_code_and_reject_a_flipped_byte():
    seed = workloads.DEFAULT_SEED
    lines, expect = workloads.generate("mixed", seed)
    output = _outputs(lines)
    assert check.check_batch("mixed", seed, lines, expect, output) == ([], [])

    responses = output.splitlines()
    target = next(i for i, response in enumerate(responses) if '"disc_order":2' in response)
    flipped = responses[target].replace('"disc_order":2', '"disc_order":3', 1)
    assert flipped != responses[target]
    responses[target] = flipped
    failed, problems = check.check_batch("mixed", seed, lines, expect, "\n".join(responses) + "\n")
    assert failed == [target]
    assert "recorded" in problems[0]


def test_missing_responses_count_as_failed():
    lines, expect = workloads.generate("scan", 5)
    output = _outputs(lines[:3])
    failed, _ = check.check_batch("scan", 5, lines[:5], expect[:5], output)
    assert failed == [3, 4]


def test_snf_certificate_accepts_the_seed_code():
    matrix = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    result = json.loads(handle_line(json.dumps({"command": "snf", "matrix": matrix}), DEFAULT_BOUND)[0])["result"]
    assert check.snf_problem(matrix, result) is None


def test_snf_certificate_rejects_forgeries():
    matrix = [[2, 0], [0, 4]]
    # u . M . v == d and d is a divisibility chain, but det(u) = 2.
    forged = {"u": [[2, 0], [0, 1]], "d": [[4, 0], [0, 4]], "v": [[1, 0], [0, 1]], "diagonal": [4, 4]}
    assert "unimodular" in check.snf_problem(matrix, forged)
    # Unimodular transforms, but the product is not d.
    forged = {"u": [[1, 1], [0, 1]], "d": [[2, 0], [0, 4]], "v": [[1, 0], [0, 1]], "diagonal": [2, 4]}
    assert "!= d" in check.snf_problem(matrix, forged)
    # Right product, wrong order on the diagonal.
    forged = {"u": [[0, 1], [1, 0]], "d": [[4, 0], [0, 2]], "v": [[0, 1], [1, 0]], "diagonal": [4, 2]}
    assert "divisibility" in check.snf_problem(matrix, forged)


def _namespace_snapshot():
    snap = {}
    for name, module in list(sys.modules.items()):
        if name != "mukailat" and not name.startswith("mukailat."):
            continue
        for attr, obj in vars(module).items():
            snap[(name, attr)] = obj
            if inspect.isclass(obj):
                for member, raw in vars(obj).items():
                    snap[(name, attr, member)] = raw
    return snap


def test_tracing_keeps_responses_and_restores_every_name():
    lines = workloads.generate("mixed", 2)[0][:240] + workloads.generate("scan", 2)[0][:4]
    plain = io.StringIO()
    run_batch(lines, DEFAULT_BOUND, 1, plain)
    before = _namespace_snapshot()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = io.StringIO()
        run_batch(lines, DEFAULT_BOUND, 1, traced)
    finally:
        tracer.uninstall()

    assert traced.getvalue() == plain.getvalue()
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []

    metrics = tracer.layer_metrics()
    for layer in tracing.LAYERS:
        assert metrics[f"{layer}.self_s"] > 0
    assert tracer.request == len(lines) - 1
    assert metrics["cli.out_bytes"] == len(plain.getvalue())
    assert metrics["cli.errors"] == sum('"status":"error"' in r for r in plain.getvalue().splitlines())
    assert metrics["mukai.errors"] + metrics["moduli.errors"] > 0
    assert metrics["ptype.box_points"] > 0 and metrics["intlinalg.snf_calls"] > 0


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
