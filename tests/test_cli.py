import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mukailat
from mukailat import MukaiSetup, rank_one_setup
from mukailat.cli import DEFAULT_BOUND, _lattice_from, _ratio, canonical_json, handle_line, main, run_batch
from mukailat.mukai import _setup

# ``python -m mukailat`` in a child process imports the package under test.
CLI_ENV = {**os.environ, "PYTHONPATH": str(Path(mukailat.__file__).parents[1])}


def run_lines(lines, bound=DEFAULT_BOUND):
    out = io.StringIO()
    status = run_batch(lines, bound, 1, out)
    return status, out.getvalue().splitlines()


def response(line, bound=DEFAULT_BOUND):
    outcome = handle_line(line, bound)
    assert outcome is not None
    text, _ = outcome
    return json.loads(text)


def ok_result(line):
    doc = response(line)
    assert doc["status"] == "ok", doc
    assert doc["diagnostics"] == []
    return doc["result"]


def test_disc_preset():
    result = ok_result('{"command": "disc", "setup": "kummer-bbf:2"}')
    assert result == {"factors": [6], "order": 6}


@pytest.mark.parametrize("preset", ["kummer-mukai:", "kummer-mukai:1"])
def test_kummer_mukai_takes_no_parameter(preset):
    # The separator is a parameter, even with nothing after it.
    doc = response(json.dumps({"command": "disc", "setup": preset}))
    assert (doc["code"], doc["diagnostics"]) == ("schema-error", ["setup: kummer-mukai takes no parameter"])
    assert ok_result('{"command": "disc", "setup": "kummer-mukai"}') == {"factors": [], "order": 1}


def test_disc_explicit_gram():
    result = ok_result('{"command": "disc", "gram": [[-6]]}')
    assert result == {"factors": [6], "order": 6}


def test_line_class_worked_example():
    result = ok_result('{"command": "line-class", "ns": [[6]], "v": [0, 1, -3], "a": [1, 0, 0]}')
    assert result == {
        "disc_order": 2,
        "r": ["1", "-1/2", "3/2"],
        "square": "-3/2",
        "two_r": [2, -1, 3],
    }


def test_classify_worked_example():
    result = ok_result('{"command": "classify", "ns": [[6]], "v": [0, 1, -3], "a": [1, 0, 0]}')
    assert result["all_ok"] is True
    assert result["square"] == "-3/2"
    assert result["h_basis"] == [[1, 0, 0], [0, 1, -3]]


def test_classify_accepts_preset():
    result = ok_result('{"command": "classify", "setup": "ns-rank1:6", "v": [0, 1, -3], "a": [1, 0, 0]}')
    assert result["all_ok"] is True


def test_snf_and_pair_and_saturate():
    result = ok_result('{"command": "snf", "matrix": [[0, 2], [2, 0]]}')
    assert result["diagonal"] == [2, 2]
    result = ok_result('{"command": "pair", "gram": [[0, 1], [1, 0]], "x": [1, 1], "y": [1, 1]}')
    assert result["value"] == 2
    result = ok_result('{"command": "saturate", "basis": [[2, 4]]}')
    assert result == {"basis": [[1, 2]], "index": 2}
    # The zero sublattice is saturated, with index 1, with or without a Gram matrix.
    assert ok_result('{"command": "saturate", "basis": []}') == {"basis": [], "index": 1}
    assert ok_result('{"command": "saturate", "gram": [[1]], "basis": []}') == {"basis": [], "index": 1}
    # Empty rows with no Gram matrix name the rows, not a Gram the request never sent.
    doc = response('{"command": "saturate", "basis": [[]]}')
    assert (doc["code"], doc["diagnostics"]) == ("invalid-matrix", ["basis rows are empty"])
    # With a Gram matrix, an empty row is too short for the ambient, not dependent.
    doc = response('{"command": "saturate", "gram": [[2]], "basis": [[]]}')
    assert (doc["code"], doc["diagnostics"]) == ("dimension-mismatch", ["basis row length != ambient rank"])


def test_ptype_commands():
    payload = '{"command": "%s", "ns": [[6]], "v": [0, 1, -3], "generators": [[0, 1, -3], [1, 0, 0]]}'
    result = ok_result(payload % "ptype-check")
    assert result["p_type"] is True
    assert result["census"] == [[1, -1, 3], [1, 0, 0]]
    assert result["v_square"] == 6
    result = ok_result(payload % "ptype-decompose")
    assert result == {"s": [1, 0, 0], "t": [-1, 1, -3], "s_pairing": 3, "cross": 3}
    result = ok_result('{"command": "ptype-enumerate", "ns": [[6]], "v": [0, 1, -3], "bound": 6}')
    assert result["count"] == 2


@pytest.mark.parametrize("command", ["ptype-check", "ptype-decompose"])
def test_ptype_commands_need_a_primitive_v(command):
    line = '{"command": "%s", "ns": [[6]], "v": %s, "generators": %s}'
    # v = 0, then imprimitive v with v^2 = 24 and v^2 = -8: primitivity is
    # tested before the sign of v^2.
    for v, generators in [
        ([0, 0, 0], [[1, 0, 0], [0, 1, 0]]),
        ([0, 2, -6], [[0, 2, -6], [1, 0, 0]]),
        ([2, 0, 2], [[1, 0, 1], [0, 1, 0]]),
    ]:
        doc = response(line % (command, v, generators))
        assert (doc["code"], doc["diagnostics"]) == ("imprimitive", ["v must be primitive"])
    doc = response(line % (command, [1, 0, 1], [[1, 0, 1], [0, 1, 0]]))
    assert (doc["code"], doc["diagnostics"]) == ("nonpositive-square", ["v^2 = -2 <= 0"])


def test_ptype_enumerate_loops_over_c_only():
    # The (c, r) scan would visit about 4 * 10^10 pairs at bound 100000; the
    # loop over c alone visits 200001 points.
    line = '{"command": "ptype-enumerate", "ns": [[6]], "v": [0, 1, -3], "bound": %d}'
    status, out = run_lines([line % bound for bound in (1280, 20000, 100000)])
    assert status == 0
    results = [json.loads(text)["result"] for text in out]
    assert results[0]["count"] == 2
    assert results[1] == results[0] and results[2] == results[0]


def test_mori_command():
    result = ok_result('{"command": "mori", "ns": [[6]], "v": [0, 1, -3], "h": [-2, 1, -1], "bound": 6}')
    flagged = [c for c in result["candidates"] if c["lagrangian"]]
    assert len(flagged) == 4
    assert result["count"] == len(result["candidates"])


def test_partition_commands():
    line = '{"command": "jh-check", "ns": [[6]], "v": [0, 1, -3], "parts": [[1, 0, 0], [-1, 1, -3]]}'
    assert ok_result(line)["jh_ok"] is True
    line = '{"command": "budget-check", "ns": [[6]], "v": [0, 1, -3], "parts": [[1, 0, 0], [-1, 1, -3]]}'
    result = ok_result(line)
    assert result["ext1_budget_ok"] is True
    assert result["ext1_cross"] == 3
    assert result["dim_identity_ok"] is True


def test_big_integers_as_strings():
    big = 10**30
    line = json.dumps({"command": "snf", "matrix": [[str(big)]]})
    result = ok_result(line)
    assert result["diagonal"] == [big]
    line = json.dumps({"command": "pair", "gram": [[1]], "x": [str(big)], "y": [str(big)]})
    assert ok_result(line)["value"] == big**2


@pytest.mark.parametrize("text", [" 12", "\t3\n", "1_000", "+3", "\u0661\u0662", "", "-", "--3"])
def test_decimal_strings_are_an_optional_minus_and_ascii_digits(text):
    doc = response(json.dumps({"command": "pair", "gram": [[1]], "x": [text], "y": [1]}))
    assert doc["code"] == "schema-error"
    assert doc["diagnostics"] == [f"x: {text!r} is not a decimal integer"]
    doc = response(json.dumps({"command": "disc", "setup": f"kummer-bbf:{text}"}))
    assert doc["diagnostics"] == [f"setup parameter: {text!r} is not a decimal integer"]


def test_decimal_strings_keep_signs_and_leading_zeros():
    line = json.dumps({"command": "pair", "gram": [[1]], "x": ["-12"], "y": ["007"]})
    assert ok_result(line) == {"value": -84}
    assert ok_result(json.dumps({"command": "pair", "gram": [[1]], "x": ["-0"], "y": [5]})) == {"value": 0}


def test_error_codes_are_distinct():
    doc = response("not json")
    assert doc["status"] == "error" and doc["code"] == "parse-error"
    assert doc["diagnostics"]
    doc = response('{"command": "frobnicate"}')
    assert doc["code"] == "schema-error"
    doc = response('{"command": "pair", "gram": [[0, 1], [1, 0]], "x": [1, 1]}')
    assert doc["code"] == "schema-error"
    doc = response('{"command": "disc", "gram": [[0]]}')
    assert doc["code"] == "degenerate-lattice"
    doc = response('{"command": "classify", "ns": [[6]], "v": [0, 2, -6], "a": [1, 0, 0]}')
    assert doc["code"] == "imprimitive"
    doc = response('{"command": "pair", "gram": [[0, 1.5], [1.5, 0]], "x": [1, 1], "y": [1, 1]}')
    assert doc["code"] == "schema-error"
    for line in ('{"command": ["disc"]}', '{"command": {}}'):
        doc = response(line)
        assert doc["status"] == "error" and doc["code"] == "schema-error"


def test_batch_keeps_order_and_survives_failures():
    lines = [
        '{"command": "disc", "gram": [[-6]]}',
        "garbage",
        '{"command": ["disc"]}',
        '{"command": {}}',
        '{"command": "pair", "gram": [[2]], "x": [1], "y": [3]}',
    ]
    status, output = run_lines(lines)
    assert status == 1
    assert len(output) == 5
    docs = [json.loads(line) for line in output]
    assert docs[0]["status"] == "ok"
    assert [doc["status"] for doc in docs[1:4]] == ["error"] * 3
    assert docs[4]["result"] == {"value": 6}


HOSTILE = [
    # a JSON number past Python's 4300-digit int-string limit
    ("internal-error", '{"command": "pair", "gram": [[1]], "x": [%s], "y": [1]}' % ("7" * 5000)),
    # a decimal string past that limit
    ("schema-error", json.dumps({"command": "pair", "gram": [[1]], "x": ["7" * 5000], "y": [1]})),
    # a result of 6000 digits, too long to print
    ("internal-error", json.dumps({"command": "pair", "gram": [[1]], "x": ["7" * 3000], "y": ["9" * 3000]})),
    # nesting too deep for the JSON parser
    ("internal-error", "[" * 100_000),
    # an unknown command or preset too long to echo
    ("schema-error", json.dumps({"command": "z" * 100_000})),
    ("schema-error", json.dumps({"command": [1] * 50_000})),
    ("schema-error", json.dumps({"command": "disc", "setup": "z" * 100_000})),
]


def test_hostile_requests_never_abort_the_batch():
    ok = '{"command": "pair", "gram": [[2]], "x": [1], "y": [3]}'
    for code, line in HOSTILE:
        status, output = run_lines([ok, line, "", ok])
        assert status == 1
        assert len(output) == 3
        docs = [json.loads(text) for text in output]
        assert docs[1]["status"] == "error" and docs[1]["code"] == code
        # An internal error echoes no command, even one already read, like
        # the pair whose 6000-digit result is too long to print.
        if code == "internal-error":
            assert docs[1]["command"] is None
        # No response echoes a long input back in full.
        assert len(output[1]) < 300
        assert docs[0]["result"] == docs[2]["result"] == {"value": 6}
    # The long decimal string is a decimal integer, past the digit limit.
    assert json.loads(handle_line(HOSTILE[1][1], DEFAULT_BOUND)[0])["diagnostics"] == [
        f"x: {'7' * 40!r}... (5000 characters) has 5000 digits, past Python's int-string limit"
    ]
    done = subprocess.run(
        [sys.executable, "-m", "mukailat"],
        input="\n".join([line for _, line in HOSTILE] + [ok]),
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )
    assert done.returncode == 1
    docs = [json.loads(text) for text in done.stdout.splitlines()]
    assert [doc["code"] for doc in docs[:-1]] == [code for code, _ in HOSTILE]
    assert docs[-1]["result"] == {"value": 6}


def test_an_unknown_command_is_echoed_only_when_its_repr_is_short():
    # The repr of "z" * 38 has ECHO_LIMIT = 40 characters.
    doc = response(json.dumps({"command": "z" * 38}))
    assert doc["command"] == "z" * 38 and doc["diagnostics"] == [f"unknown command {'z' * 38!r}"]
    doc = response(json.dumps({"command": "z" * 39}))
    assert doc["command"] is None and doc["diagnostics"] == [f"unknown command {'z' * 39!r}"]
    # The repr of a list command is cut: [1] * 50 prints in 150 characters.
    doc = response(json.dumps({"command": [1] * 50}))
    assert doc["command"] is None
    assert doc["diagnostics"] == [f"unknown command {repr([1] * 50)[:40]!r}... (150 characters)"]
    doc = response(json.dumps({"command": "disc", "setup": "z" * 100_000}))
    assert doc["command"] == "disc"
    assert doc["diagnostics"] == [f"setup: unknown preset {'z' * 40!r}... (100000 characters)"]


def test_batch_empty_input():
    status, output = run_lines([])
    assert status == 0 and output == []
    status, output = run_lines(["", "   "])
    assert status == 0 and output == []


def test_batch_classifies_the_rank_one_family_in_order():
    lines = [
        json.dumps({"command": "classify", "ns": [[2 * (n + 1)]], "v": [0, 1, -(n + 1)], "a": [1, 0, 0]})
        for n in range(2, 12)
    ] + ['{"command": "snf", "matrix": [[6, 4], [4, 8]]}', "oops"]
    _, output = run_lines(lines)
    assert len(output) == len(lines) and json.loads(output[-1])["code"] == "parse-error"
    for n, line in zip(range(2, 12), output):
        doc = json.loads(line)
        assert doc["result"]["square"] == str(Fraction(-(n + 1), 2))
        assert doc["result"]["all_ok"] is True


@given(st.integers(), st.integers(min_value=1))
def test_ratio_prints_as_a_reduced_fraction(p, q):
    assert _ratio(p, q) == str(Fraction(p, q))


JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**80), 10**80) | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=25,
)


@given(JSON_DOCS)
def test_canonical_json_is_json_dumps(doc):
    expected = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    assert canonical_json(doc) == expected


def test_round_trip_canonicalisation():
    line = '{"v": [0, 1, -3],   "command": "line-class", "ns": [[6]], "a": [1, 0, 0]}'
    canonical = canonical_json(json.loads(line))
    assert canonical_json(json.loads(canonical)) == canonical


def test_responses_are_single_lines():
    lines = [
        '{"command": "mori", "ns": [[6]], "v": [0, 1, -3], "h": [-2, 1, -1], "bound": 4}',
        "broken",
    ]
    for line in lines:
        text, _ = handle_line(line, DEFAULT_BOUND)
        assert "\n" not in text and "\r" not in text


def test_schema_flag(capsys):
    assert main(["--schema"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["commands"]) == {
        "snf",
        "disc",
        "saturate",
        "pair",
        "ptype-check",
        "ptype-decompose",
        "ptype-enumerate",
        "line-class",
        "classify",
        "mori",
        "jh-check",
        "budget-check",
    }


def test_main_exit_codes(tmp_path):
    good = tmp_path / "good.ndjson"
    good.write_text('{"command": "disc", "gram": [[-6]]}\n', encoding="utf-8")
    bad = tmp_path / "bad.ndjson"
    bad.write_text("nope\n", encoding="utf-8")

    run = lambda *args: subprocess.run(
        [sys.executable, "-m", "mukailat", *args], capture_output=True, text=True, env=CLI_ENV
    )
    ok = run(str(good))
    assert ok.returncode == 0
    assert json.loads(ok.stdout)["status"] == "ok"
    failed = run(str(bad))
    assert failed.returncode == 1
    missing = run(str(tmp_path / "absent.ndjson"))
    assert missing.returncode == 2
    assert missing.stderr
    # There is no --seed flag: argparse rejects it as a usage error.
    seeded = run("--seed", "7", str(good))
    assert seeded.returncode == 2
    assert "--seed" in seeded.stderr


def test_default_bound_flows_into_enumeration():
    line = '{"command": "ptype-enumerate", "ns": [[6]], "v": [0, 1, -3]}'
    narrow = response(line, bound=0)
    wide = response(line, bound=6)
    assert narrow["result"]["count"] == 0
    assert wide["result"]["count"] == 2


def test_the_box_radius_is_set_per_request_only(tmp_path, capsys):
    # --bound is retired: a request's own bound overrides the radius of 10.
    path = tmp_path / "enumerate.ndjson"
    path.write_text('{"command": "ptype-enumerate", "ns": [[6]], "v": [0, 1, -3]}\n', encoding="utf-8")
    with pytest.raises(SystemExit) as exited:
        main(["--bound", "3", str(path)])
    assert exited.value.code == 2
    assert "--bound" in capsys.readouterr().err
    assert main(["--schema"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "--bound" not in doc["flags"]
    assert "10 when the request has none" in doc["request"]["bound"]


GOLDEN_REQUESTS = Path(__file__).parent / "golden" / "requests.ndjson"


def test_answers_do_not_depend_on_earlier_requests():
    # The setups are shared within a process: the golden batch answered
    # backwards, on setups the forward pass built, gives the same answers.
    lines = [line for line in GOLDEN_REQUESTS.read_text(encoding="utf-8").splitlines() if line.strip()]
    _setup.cache_clear()
    forward = [handle_line(line, DEFAULT_BOUND) for line in lines]
    backward = [handle_line(line, DEFAULT_BOUND) for line in reversed(lines)]
    assert backward[::-1] == forward


@pytest.mark.parametrize("ns, code", [([[3]], "not-even"), ([[2, 0], [0, 2]], "bad-signature")])
def test_a_bad_ns_fails_the_same_way_every_time(ns, code):
    line = json.dumps({"command": "line-class", "ns": ns, "v": [0, 1, -3], "a": [1, 0, 0]})
    misses = _setup.cache_info().misses
    answers = [handle_line(line, DEFAULT_BOUND) for _ in range(3)]
    assert answers[0] == answers[1] == answers[2]
    assert json.loads(answers[0][0])["code"] == code
    # An error is never kept: each request builds and fails again.
    assert _setup.cache_info().misses == misses + 3


def test_a_batch_builds_each_setup_once(monkeypatch):
    built = []
    init = MukaiSetup.__init__

    def counted(self, ns_gram, **kwargs):
        built.append(ns_gram)
        init(self, ns_gram, **kwargs)

    monkeypatch.setattr(MukaiSetup, "__init__", counted)
    _setup.cache_clear()
    classify = {"command": "classify", "v": [0, 1, -5], "a": [1, 0, 0]}
    lines = [json.dumps({**classify, "ns": [[10]]}), json.dumps({**classify, "setup": "ns-rank1:10"})] * 5
    status, output = run_lines(lines)
    assert status == 0 and len(set(output)) == 1
    assert built == [((10,),)]


def test_ns_and_presets_share_one_setup():
    six = rank_one_setup(6)
    assert rank_one_setup(6) is six
    assert _lattice_from({"ns": [[6]]}, "ns") is six
    assert _lattice_from({"setup": "ns-rank1:6"}, "ns") is six


def test_only_line_breaks_split_requests(tmp_path):
    # A JSON string may hold U+2028, U+2029 and U+0085 raw; str.splitlines
    # would split a request at them, and at a form feed.  Line breaks are
    # "\n", "\r\n" and "\r", through a file and through stdin alike.
    request = '{"command":"disc","gram":[[2]],"note":"a%sb"}'
    batch = (
        "\n".join(request % inner for inner in ("\u2028", "\u2029\x85", "\f"))
        + "\r\n"
        + request % ""
        + "\r"
        + request % "\x0b"
        + "\n"
    ).encode("utf-8")
    path = tmp_path / "batch.ndjson"
    path.write_bytes(batch)
    for args, stdin in (([str(path)], None), ([], batch)):
        done = subprocess.run(
            [sys.executable, "-m", "mukailat", *args],
            input=stdin,
            capture_output=True,
            env={**CLI_ENV, "PYTHONIOENCODING": "utf-8"},
        )
        assert done.returncode == 1
        docs = [json.loads(line) for line in done.stdout.decode("ascii").split("\n")[:-1]]
        assert [doc.get("code") or doc["result"]["order"] for doc in docs] == [2, 2, "parse-error", 2, "parse-error"]


def test_schema_errors_come_before_domain_errors():
    # Every payload field is parsed before the library checks a vector, so
    # a short v is not reported while a field is missing or malformed.
    short_v = {"ns": [[6]], "v": [0, 1]}
    for doc in (
        {"command": "line-class", **short_v},
        {"command": "line-class", **short_v, "a": "x"},
        {"command": "mori", **short_v, "h": [1, 0, 0], "bound": "x"},
    ):
        assert response(json.dumps(doc))["code"] == "schema-error"
    doc = response(json.dumps({"command": "line-class", **short_v, "a": [1, 0, 0]}))
    assert (doc["code"], doc["diagnostics"]) == ("dimension-mismatch", ["c has length 0, NS rank is 1"])


def test_only_json_whitespace_is_trimmed():
    request = '{"command":"disc","gram":[[2]]}'
    for tail in ("\u2028", "\x85", "\x0c", "\x0b", "\x1c"):
        for line in (request + tail, tail + request):
            doc = response(line)
            assert doc["code"] == "parse-error", repr(line)
        assert "Extra data" in response(request + tail)["diagnostics"][0]
    assert response(" \t\r" + request + "\r\n \t")["status"] == "ok"
    # A line is blank, and skipped, when it holds JSON whitespace only.
    assert handle_line(" \t\r\n", DEFAULT_BOUND) is None
    assert response("\x0c")["code"] == "parse-error"


# The same bytes through a file and through stdin, in three environments: the
# default one, a C locale with UTF-8 mode off, and a UTF-8 stdin encoding.
BASE_ENV = {k: v for k, v in CLI_ENV.items() if k not in ("LC_ALL", "PYTHONUTF8", "PYTHONIOENCODING")}
ENVIRONMENTS = [BASE_ENV, {**BASE_ENV, "LC_ALL": "C", "PYTHONUTF8": "0"}, {**BASE_ENV, "PYTHONIOENCODING": "utf-8"}]
OK_DISC = {"command": "disc", "diagnostics": [], "result": {"factors": [2], "order": 2}, "status": "ok"}


@pytest.mark.parametrize(
    "batch, expected",
    [
        # A byte that is not UTF-8 fails only the request holding it.
        (
            b'{"command":"disc","gram":[[2]],"note":"\xff"}\n{"command":"disc","gram":[[2]]}\n',
            [
                {
                    "code": "parse-error",
                    "command": None,
                    "diagnostics": ["invalid UTF-8 at column 40"],
                    "result": None,
                    "status": "error",
                },
                OK_DISC,
            ],
        ),
        # A non-ASCII digit is echoed as the character it is, U+FF16.
        (
            '{"command":"disc","setup":"ns-rank1:\uff16"}\r\n'.encode("utf-8"),
            [
                {
                    "code": "schema-error",
                    "command": "disc",
                    "diagnostics": ["setup parameter: '\uff16' is not a decimal integer"],
                    "result": None,
                    "status": "error",
                }
            ],
        ),
    ],
)
def test_file_and_stdin_are_one_utf8_reader_in_any_locale(tmp_path, batch, expected):
    path = tmp_path / "batch.ndjson"
    path.write_bytes(batch)
    for env in ENVIRONMENTS:
        through_file = subprocess.run([sys.executable, "-m", "mukailat", str(path)], capture_output=True, env=env)
        through_stdin = subprocess.run([sys.executable, "-m", "mukailat"], input=batch, capture_output=True, env=env)
        for done in (through_file, through_stdin):
            assert done.returncode == 1
            assert [json.loads(line) for line in done.stdout.decode("ascii").splitlines()] == expected
        assert through_file.stdout == through_stdin.stdout


class FailingInput(io.RawIOBase):
    """A raw stream that yields ``data`` and then fails to read."""

    def __init__(self, data: bytes):
        self.data = data

    def readable(self):
        return True

    def readinto(self, buffer):
        if not self.data:
            raise OSError(errno.EIO, "Input/output error")
        n = min(len(buffer), len(self.data))
        buffer[:n], self.data = self.data[:n], self.data[n:]
        return n


def test_a_read_failure_exits_2_after_the_responses_so_far(monkeypatch, capsys):
    request = b'{"command":"disc","gram":[[2]]}\n'
    monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=io.BufferedReader(FailingInput(request * 2))))
    with pytest.raises(SystemExit) as exited:
        main([])
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert [json.loads(line) for line in captured.out.splitlines()] == [OK_DISC, OK_DISC]
    assert "cannot read input" in captured.err


# With and without PYTHONUNBUFFERED: a buffered stdout still holds responses
# when a write fails, and the interpreter's last flush must not fail again.
BUFFERING = [
    pytest.param({k: v for k, v in CLI_ENV.items() if k != "PYTHONUNBUFFERED"}, id="buffered"),
    pytest.param({**CLI_ENV, "PYTHONUNBUFFERED": "1"}, id="unbuffered"),
]


@pytest.mark.parametrize("env", BUFFERING)
def test_a_closed_pipe_ends_the_batch_quietly_with_exit_2(tmp_path, env):
    # The golden responses are about 250 KB, more than a pipe holds, so the
    # CLI is still writing when the reader leaves after 10 bytes, as
    # ``| head -c 10`` does.
    with open(tmp_path / "err", "w+b") as err:
        cli = subprocess.Popen(
            [sys.executable, "-m", "mukailat", str(GOLDEN_REQUESTS)], stdout=subprocess.PIPE, stderr=err, env=env
        )
        assert len(cli.stdout.read(10)) == 10
        cli.stdout.close()
        assert cli.wait() == 2
        err.seek(0)
        assert err.read() == b""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="writes to /dev/full")
@pytest.mark.parametrize("env", BUFFERING)
@pytest.mark.parametrize("args", [[str(GOLDEN_REQUESTS)], ["--schema"]], ids=["batch", "schema"])
def test_output_that_cannot_be_written_exits_2_with_one_line(env, args):
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, "-m", "mukailat", *args], stdout=full, stderr=subprocess.PIPE, env=env)
    assert done.returncode == 2
    assert done.stderr.decode().splitlines() == [
        f"mukailat: cannot read input or write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    ]


# A child process runs the CLI and reports its own peak resident set.
PEAK_CHILD = """
import re, sys
from mukailat.cli import main
main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1), file=sys.stderr)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc/self/status")
def test_the_cli_holds_one_line_at_a_time(tmp_path):
    request = b'{"command":"disc","gram":[[2]]}\n'

    def peak_kib(blank_lines):
        path = tmp_path / "batch.ndjson"
        with open(path, "wb") as batch:
            for _ in range(blank_lines):
                batch.write(b" " * 2**18 + b"\n")
            batch.write(request)
        done = subprocess.run([sys.executable, "-c", PEAK_CHILD, str(path)], capture_output=True, env=CLI_ENV)
        assert [json.loads(line) for line in done.stdout.splitlines()] == [OK_DISC]
        return int(done.stderr)

    # 40 MiB of blank lines, 256 KiB each, may raise the peak by at most
    # 2 MB.  Reading one line of n bytes briefly needs about 2n: its chunks
    # and their join.
    assert peak_kib(160) - peak_kib(0) <= 2000
