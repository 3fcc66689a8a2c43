"""Benchmark for the mukailat batch CLI and library.

    python3 bench/run.py --workload mixed --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` (the checkout under test), never from an installed copy.  The load
model is a closed loop: one caller, one process, each request answered
before the next is sent.  The whole batch is generated from ``--seed``
before any timing starts.

``--trace 0`` measures what a user sees, with tracing off (times in the
scaled seconds described at REFERENCE_S below):

* ``setup_s``      median wall time of ``python -m mukailat`` on empty input
* ``batch_s``      median wall time of ``python -m mukailat --jobs 1`` on the batch
* ``batch_par_s``  the same at ``--jobs $(nproc)``
* ``req_p50_ms``, ``req_p99_ms``  per-request latency of ``cli.handle_line``,
  timed one request at a time in this process over whole passes of the batch
* ``peak_rss_mb``  median peak RSS of the ``--jobs 1`` child (``os.wait4``)
* ``fail_ratio``   wrong, missing or unexpectedly failed responses over
  requests attempted; printed in the table, and carried by ``failed`` and
  ``attempted`` in the result line

``--trace 1`` runs the batch in process through ``cli.run_batch`` with the
outside-in tracer of ``tracing.py`` installed and reports per-layer self
time and counters, plus ``trace.overhead_ratio`` (median traced pass over
median untraced pass).  The traced output must equal the untraced output
byte for byte.  Spans go to ``.bench_out/trace_<workload>.jsonl``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import check
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# An end-to-end run repeats rounds (setup spawns, --jobs 1 batches,
# --jobs N batches, one in-process pass) while the next round should end
# within --seconds, and at least MIN_ROUNDS times.  Batch runs vary most from
# run to run, so they get the most samples.
MIN_ROUNDS, SETUP_SPAWNS_PER_ROUND = 2, 5
SERIAL_RUNS_PER_ROUND, PARALLEL_RUNS_PER_ROUND = 3, 3

# The machines this runs on share their cores, and the speed of each core
# for pure Python swings by up to 1.7x in phases lasting seconds to minutes.
# Every timing sample is therefore bracketed by a fixed stdlib-only
# reference loop (no mukailat code, so no change to the package moves it),
# run on the cores the sample ran on, and scaled to a machine on which that
# loop takes REFERENCE_S.  Timings are reported in those scaled seconds.
# The runner and its children stay on one core (BENCH_CPU), except the
# --jobs N batch, which gets every core.
REFERENCE_ITERATIONS, REFERENCE_S = 10000, 0.040
CHUNK_S = 0.25
ALL_CPUS = sorted(os.sched_getaffinity(0))
BENCH_CPU = ALL_CPUS[-1]


def reference_loop(cpus=(BENCH_CPU,)) -> float:
    """Mean time of the reference loop over ``cpus``, one run on each."""
    total = 0.0
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        start = time.perf_counter()
        acc = Fraction(0)
        table = {}
        for k in range(1, REFERENCE_ITERATIONS):
            acc += Fraction(k % 97 + 1, k % 89 + 2)
            table[k % 211] = json.dumps([k, acc.denominator % 1009])
        total += time.perf_counter() - start
    os.sched_setaffinity(0, {BENCH_CPU})
    return total / len(cpus)


def timed(fn, cpus=(BENCH_CPU,)):
    """(scaled seconds, scale factor, result) of one call of ``fn`` running on ``cpus``."""
    before = reference_loop(cpus)
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    scale = 2 * REFERENCE_S / (before + reference_loop(cpus))
    return wall * scale, scale, result


def _env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def spawn(args, stdin_path, cpus=(BENCH_CPU,)):
    """Run the CLI on ``cpus``; returns (stdout bytes, exit code, peak RSS MB, stderr)."""
    cmd = [sys.executable, "-m", "mukailat", *args]
    with open(stdin_path, "rb") as stdin, tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(
        dir=OUT
    ) as err:
        proc = subprocess.Popen(
            cmd,
            stdin=stdin,
            stdout=out,
            stderr=err,
            env=_env(),
            cwd=ROOT,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return out.read(), proc.returncode, usage.ru_maxrss / 1024, err.read().decode(errors="replace")


class Run:
    """One benchmark run: a generated batch, its checks and its metrics."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.lines, self.expect = workloads.generate(workload, seed)
        self.batch_path = OUT / f"batch_{workload}.ndjson"
        self.batch_path.write_text("\n".join(self.lines) + "\n", encoding="utf-8")
        self.failed: set = set()
        self.problems: list = []
        self.reference: str | None = None

    def check_output(self, output: str, label: str) -> None:
        """Full check on the first output; byte equality with it afterwards."""
        if self.reference is None:
            self.reference = output
            failed, problems = check.check_batch(self.workload, self.seed, self.lines, self.expect, output)
            self.failed.update(failed)
            self.problems.extend(problems)
            return
        if output == self.reference:
            return
        got, want = output.splitlines(), self.reference.splitlines()
        bad = [i for i in range(len(self.lines)) if i >= len(got) or i >= len(want) or got[i] != want[i]]
        self.failed.update(bad)
        self.problems.append(f"{label}: {len(bad)} responses differ from the first run")

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not self.failed and not self.problems,
            "attempted": len(self.lines),
            "failed": len(self.failed),
            "metrics": metrics,
        }

    # -- end to end ------------------------------------------------------------

    def end_to_end(self):
        sys.path.insert(0, str(SRC))
        from mukailat.cli import DEFAULT_BOUND, handle_line

        jobs = len(ALL_CPUS)
        want_status = 1 if any(e["code"] for e in self.expect) else 0
        empty = OUT / "empty.ndjson"
        empty.write_text("")
        spawn([], empty)  # warm-up: byte-compiles the checkout

        def batch(n, samples):
            cpus = ALL_CPUS if n > 1 else (BENCH_CPU,)
            wall, _, (out, status, peak, err) = timed(lambda: spawn(["--jobs", str(n)], self.batch_path, cpus), cpus)
            if status != want_status:
                self.problems.append(f"jobs {n}: exit {status}, expected {want_status}: {err.strip()[-200:]}")
            self.check_output(out.decode("utf-8", errors="replace"), f"jobs {n}")
            samples.append(wall)
            return peak

        def in_process():
            # One pass, each request timed alone.  Reference loops split the
            # pass into chunks of about CHUNK_S, and each chunk's latencies
            # take that chunk's scale factor.
            responses, chunk, chunk_s = [], [], 0.0
            clock = time.perf_counter
            before = reference_loop()
            for i, line in enumerate(self.lines):
                start = clock()
                outcome = handle_line(line, DEFAULT_BOUND)
                chunk.append(clock() - start)
                chunk_s += chunk[-1]
                responses.append(outcome[0])
                if chunk_s > CHUNK_S or i == len(self.lines) - 1:
                    after = reference_loop()
                    scale = 2 * REFERENCE_S / (before + after)
                    latencies.extend(t * scale for t in chunk)
                    before, chunk, chunk_s = after, [], 0.0
            self.check_output("".join(r + "\n" for r in responses), "in process")

        setup, serial, parallel, rss, latencies = [], [], [], [], []
        start = time.perf_counter()
        rounds = 0
        # Start another round only while it should end within --seconds.
        while rounds < MIN_ROUNDS or time.perf_counter() + (time.perf_counter() - start) / rounds < start + self.seconds:
            rounds += 1
            for _ in range(SETUP_SPAWNS_PER_ROUND):
                wall, _, (out, status, _, err) = timed(lambda: spawn([], empty))
                if status != 0 or out:
                    self.problems.append(f"empty input: exit {status}, {len(out)} bytes out, {err.strip()[-200:]}")
                setup.append(wall)
            for _ in range(SERIAL_RUNS_PER_ROUND):
                rss.append(batch(1, serial))
            for _ in range(PARALLEL_RUNS_PER_ROUND):
                batch(jobs, parallel)
            in_process()

        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "batch_s": (statistics.median(serial), "s"),
            "batch_par_s": (statistics.median(parallel), "s"),
            "req_p50_ms": (1000 * statistics.median(latencies), "ms"),
            "req_p99_ms": (1000 * statistics.quantiles(latencies, n=100, method="inclusive")[98], "ms"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }
        table = {**metrics, "fail_ratio": (len(self.failed) / len(self.lines), "ratio")}
        few = " (< 1000: reads near the slowest request)" if len(latencies) < 1000 else ""
        notes = {
            "setup_s": f"median of {len(setup)} spawns",
            "batch_s": f"median of {len(serial)} runs, {len(self.lines)} requests",
            "batch_par_s": f"median of {len(parallel)} runs at --jobs {jobs}",
            "req_p50_ms": f"{len(latencies)} samples",
            "req_p99_ms": f"{len(latencies)} samples{few}",
            "peak_rss_mb": f"median of {len(rss)} runs at --jobs 1",
            "fail_ratio": f"{len(self.failed)} of {len(self.lines)} requests",
        }
        return metrics, table, notes

    # -- traced ------------------------------------------------------------------

    def traced(self):
        sys.path.insert(0, str(SRC))
        import mukailat.cli as cli

        def one_pass(tracer=None):
            out = io.StringIO()
            if tracer is not None:
                tracer.install()
            try:
                wall, scale, _ = timed(lambda: cli.run_batch(self.lines, cli.DEFAULT_BOUND, 1, out))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            return wall, scale, out.getvalue()

        plain, traced, self_times = [], [], []
        deadline = time.perf_counter() + self.seconds
        while len(traced) < 2 or time.perf_counter() < deadline:
            wall, _, out = one_pass()
            self.check_output(out, "untraced")
            plain.append(wall)
            tracer = tracing.Tracer()
            wall, scale, out = one_pass(tracer)
            self.check_output(out, "traced")
            traced.append(wall)
            self_times.append({layer: t * scale for layer, t in tracer.self_time.items()})
            if len(traced) == 1:
                first = tracer
                counts = tracer.layer_metrics()

        metrics = {}
        for key, value in counts.items():
            if key.endswith(".self_s"):
                layer = key.split(".")[0]
                metrics[key] = (statistics.median(t.get(layer, 0.0) for t in self_times), "s")
            else:
                metrics[key] = (value, _unit(key))
        bits = 0
        for line in (self.reference or "").splitlines():
            doc = json.loads(line)
            if doc.get("command") == "snf" and doc.get("status") == "ok":
                for row in doc["result"]["u"] + doc["result"]["v"]:
                    bits = max(bits, *(abs(x).bit_length() for x in row))
        metrics["intlinalg.cert_bits_max"] = (bits, "bits")
        metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
        first.write_spans(OUT / f"trace_{self.workload}.jsonl")
        notes = {"trace.overhead_ratio": f"{len(traced)} traced and {len(plain)} untraced passes"}
        return metrics, metrics, notes


def _unit(key: str) -> str:
    if key.endswith("_ratio"):
        return "ratio"
    if key.endswith("out_bytes"):
        return "bytes"
    if key.endswith("box_points"):
        return "points"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mukailat" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}; run from a mukailat checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    os.sched_setaffinity(0, {BENCH_CPU})

    run = Run(args.workload, args.seed, args.seconds)
    metrics, table, notes = run.traced() if args.trace else run.end_to_end()

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in table.items():
        print(f"{name:28s} {value:>16.6g} {unit:7s} {notes.get(name, '')}")
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(run.result({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
