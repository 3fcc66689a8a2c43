"""Batch command line interface.

Reads newline-delimited JSON requests (one document per line) from a file or
stdin and writes one JSON response per request, in input order.  Both go
through one reader: UTF-8 whatever the locale, one line held at a time, and
only JSON whitespace trimmed from a line's ends; a blank line is skipped,
and a byte that is not UTF-8 fails only its own line, with ``parse-error``.
Integers may be given as JSON numbers or as decimal strings (an optional
``-`` and ASCII digits) of up to 4300 digits, Python's int-string limit;
rational results are rendered as reduced strings ``"p/q"`` with positive
``q`` (plain ``"p"`` when integral).  A request that fails in an unexpected
way gets an ``internal-error`` response.  Output is byte-stable for
identical input.  The ``MEMO_SIZE`` (128) most recently used Mukai setups
are kept and shared between requests, the least recently used dropped
first; an answer does not depend on the requests before it.
Requests run one after another.

Arguments, parsed by hand: an optional input path (stdin when absent),
``--schema``, ``--jobs N`` or ``--jobs=N`` and ``-h``/``--help``.  ``N``
must be an int and is ignored, because the work is pure Python and holds
the interpreter lock.  Flags are not abbreviated; any other argument, or a
second input, is a usage error, which prints the usage on stderr.

Exit status: 0 when every response is ok, 1 when any request failed,
2 on a usage error, or when the input could not be opened or read or the
output could not be written, with one line on stderr; the responses written
before a read failure stay written.  A closed output pipe ends the run
quietly, with exit status 2.
"""

from __future__ import annotations

import io
import json
import os
import sys
from math import gcd
from typing import Callable, NamedTuple

from . import moduli, ptype
from .errors import LatticeError
from .intlinalg import identity, smith_normal_form
from .lattice import IntegralLattice
from .mukai import _setup, kummer_bbf_lattice, kummer_mukai_setup, rank_one_setup

DEFAULT_BOUND = 10
# A rejected string is echoed in its error message up to this many characters.
ECHO_LIMIT = 40


def _echo(value) -> str:
    """``value``'s repr, cut at ``ECHO_LIMIT`` characters of a string or of another value's repr."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= ECHO_LIMIT:
        return repr(value)
    return f"{text[:ECHO_LIMIT]!r}... ({len(text)} characters)"


def _as_int(value, field):
    if isinstance(value, bool):
        raise LatticeError("schema-error", f"{field}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        # int() alone would also take spaces, "_", "+" and non-ASCII digits.
        digits = value[1:] if value.startswith("-") else value
        if not (digits.isascii() and digits.isdigit()):
            raise LatticeError("schema-error", f"{field}: {_echo(value)} is not a decimal integer")
        try:
            return int(value, 10)
        except ValueError:
            raise LatticeError(
                "schema-error",
                f"{field}: {_echo(value)} has {len(digits)} digits, past Python's int-string limit",
            ) from None
    raise LatticeError("schema-error", f"{field}: expected an integer, got {type(value).__name__}")


def _as_vector(value, field):
    if not isinstance(value, list):
        raise LatticeError("schema-error", f"{field}: expected a list")
    return tuple(_as_int(x, field) for x in value)


def _as_matrix(value, field):
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise LatticeError("schema-error", f"{field}: expected a list of lists")
    return tuple(_as_vector(row, field) for row in value)


def _lattice_from(payload, field) -> IntegralLattice:
    """The lattice under ``field``, ``"ns"`` or ``"gram"``, else under ``setup``.

    An ``ns`` Gram matrix goes through the shared setup memo, and an ``ns``
    command takes no preset that is a bare lattice.
    """
    if field in payload:
        gram = _as_matrix(payload[field], field)
        return _setup(gram) if field == "ns" else IntegralLattice(gram)
    if "setup" not in payload:
        raise LatticeError("schema-error", f"need {field!r} (Gram matrix) or 'setup' (preset)")
    name = payload["setup"]
    if not isinstance(name, str):
        raise LatticeError("schema-error", "setup: expected a preset string")
    head, sep, arg = name.partition(":")
    if head == "kummer-mukai":
        if sep:
            raise LatticeError("schema-error", "setup: kummer-mukai takes no parameter")
        return kummer_mukai_setup()
    if head == "ns-rank1":
        return rank_one_setup(_as_int(arg, "setup parameter"))
    if head != "kummer-bbf":
        raise LatticeError("schema-error", f"setup: unknown preset {_echo(name)}")
    lattice = kummer_bbf_lattice(_as_int(arg, "setup parameter"))
    if field == "ns":
        raise LatticeError("schema-error", "setup: this command needs a Mukai setup, not a bare lattice")
    return lattice


def _arguments(fields, payload, bound) -> list:
    """Parse a command's payload fields, named as in the schema, in order.

    A trailing ``?`` marks an optional field: ``bound?`` defaults to the
    batch's bound and ``gram|setup?`` to None.  ``v``, ``a``, ``h``, ``x``
    and ``y`` are integer vectors, which the library checks against its
    lattice; any other field is a matrix.
    """
    args = []
    for field in fields:
        name = field.rstrip("?")
        optional = name != field
        if optional and not any(key in payload for key in name.split("|")):
            args.append(bound if name == "bound" else None)
        elif "|" in name:
            args.append(_lattice_from(payload, name.partition("|")[0]))
        elif name not in payload:
            raise LatticeError("schema-error", f"missing field {name!r}")
        elif name == "bound":
            args.append(_as_int(payload["bound"], "bound"))
        elif name in ("v", "a", "h", "x", "y"):
            args.append(_as_vector(payload[name], name))
        else:
            args.append(_as_matrix(payload[name], name))
    return args


def _ratio(p: int, q: int) -> str:
    """The rational ``p / q``, for ``q >= 1``, as ``"p/q"`` in lowest terms, or ``"p"``."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


# Each handler takes the parsed payload fields of its command and returns the
# values of its result fields, both in the order its ``COMMANDS`` entry lists.
# Tuples serialise as JSON lists.


def _cmd_snf(matrix):
    result = smith_normal_form(matrix)
    return result.d, result.u, result.v, result.diagonal


def _cmd_disc(lattice):
    group = lattice.discriminant_group()
    return group.invariant_factors, group.order


def _cmd_saturate(basis, ambient):
    if ambient is None:
        if not basis:
            # The zero sublattice is saturated, with index 1, in any ambient.
            return (), 1
        if not basis[0]:
            raise LatticeError("invalid-matrix", "basis rows are empty")
        ambient = IntegralLattice(identity(len(basis[0])))
    return ambient.saturation(basis)


def _cmd_pair(lattice, x, y):
    return (lattice.pair(x, y),)


def _cmd_ptype_check(setup, v, generators):
    lattice = ptype.PointedSublattice.span(setup, v, generators)
    return lattice.is_p_type(), lattice.isotropic_classes(), setup.square(v), lattice.basis


def _cmd_ptype_decompose(setup, v, generators):
    dec = ptype.PointedSublattice.span(setup, v, generators).decomposition()
    return dec.s, dec.t, setup.pair(dec.s, v), setup.pair(dec.s, dec.t)


def _cmd_ptype_enumerate(setup, v, bound):
    lattices = ptype.enumerate_p_type(setup, v, bound)
    return len(lattices), [{"basis": lat.basis, "gram2": lat.gram2} for lat in lattices]


def _line_class(lc):
    """A line class's ``r``, ``square`` and ``disc_order`` as printed."""
    q = lc.denominator
    return [_ratio(p, q) for p in lc.numerators], _ratio(lc.square_numerator, q), lc.disc_order


def _cmd_line_class(setup, v, a):
    lc = moduli.theta_dual(setup, v, a)
    return (*_line_class(lc), lc.two_r)


def _cmd_classify(setup, v, a):
    verdict = moduli.classify_line_class(setup, v, a)
    lc = verdict.line_class
    return (
        verdict.n,
        _ratio(lc.square_numerator, lc.denominator),
        lc.disc_order,
        verdict.square_ok,
        verdict.torsion_ok,
        verdict.isotropic_witness_ok,
        verdict.all_ok,
        verdict.lattice.basis if verdict.lattice else None,
    )


def _cmd_mori(setup, v, h, bound):
    candidates = moduli.mori_candidates(setup, v, h, bound)
    rendered = []
    for a, lc, lagrangian in candidates:
        r, square, disc_order = _line_class(lc)
        rendered.append({"a": a, "r": r, "square": square, "disc_order": disc_order, "lagrangian": lagrangian})
    return len(candidates), rendered


# A partition's result is its report without the parts it was given.
def _cmd_jh_check(setup, v, parts):
    return moduli.jh_feasibility(setup, v, parts)[1:]


def _cmd_budget_check(setup, v, parts):
    return moduli.contraction_budget(setup, v, parts)[1:]


class Command(NamedTuple):
    """A CLI command: its handler and the payload and result fields ``--schema`` lists."""

    handler: Callable
    payload: tuple[str, ...]
    result: tuple[str, ...]


_PARTITION_PAYLOAD = ("ns|setup", "v", "parts")
_PARTITION_RESULT = moduli.PartitionReport._fields[1:]

COMMANDS = {
    "snf": Command(_cmd_snf, ("matrix",), ("d", "u", "v", "diagonal")),
    "disc": Command(_cmd_disc, ("gram|setup",), ("factors", "order")),
    "saturate": Command(_cmd_saturate, ("basis", "gram|setup?"), ("basis", "index")),
    "pair": Command(_cmd_pair, ("gram|setup", "x", "y"), ("value",)),
    "ptype-check": Command(
        _cmd_ptype_check, ("ns|setup", "v", "generators"), ("p_type", "census", "v_square", "basis")
    ),
    "ptype-decompose": Command(
        _cmd_ptype_decompose, ("ns|setup", "v", "generators"), ("s", "t", "s_pairing", "cross")
    ),
    "ptype-enumerate": Command(_cmd_ptype_enumerate, ("ns|setup", "v", "bound?"), ("count", "lattices")),
    "line-class": Command(_cmd_line_class, ("ns|setup", "v", "a"), ("r", "square", "disc_order", "two_r")),
    "classify": Command(
        _cmd_classify,
        ("ns|setup", "v", "a"),
        (
            "n",
            "square",
            "disc_order",
            "square_ok",
            "torsion_ok",
            "isotropic_witness_ok",
            "all_ok",
            "h_basis",
        ),
    ),
    "mori": Command(_cmd_mori, ("ns|setup", "v", "h", "bound?"), ("count", "candidates")),
    "jh-check": Command(_cmd_jh_check, _PARTITION_PAYLOAD, _PARTITION_RESULT),
    "budget-check": Command(_cmd_budget_check, _PARTITION_PAYLOAD, _PARTITION_RESULT),
}

SCHEMA = {
    "format": "newline-delimited JSON; one request per line, one response per line, order preserved",
    "request": {
        "command": sorted(COMMANDS),
        "integers": "JSON numbers or decimal strings of up to 4300 digits (Python's int-string limit)",
        "setup": "preset string: kummer-mukai | ns-rank1:<2d> | kummer-bbf:<n>",
        "ns": "explicit NS Gram matrix (alternative to setup for Mukai commands)",
        "gram": "explicit Gram matrix (alternative to setup for lattice commands)",
        "bound": f"box radius of ptype-enumerate and mori; {DEFAULT_BOUND} when the request has none",
    },
    "response": {
        "ok": {"command": "echoed", "status": "ok", "result": "per command", "diagnostics": []},
        "error": {
            "command": "echoed or null",
            "status": "error",
            "code": "parse-error | schema-error | internal-error | <domain code>",
            "result": None,
            "diagnostics": ["message"],
        },
        "rationals": "strings 'p/q' with q > 0, 'p' when integral",
    },
    "commands": {name: {"payload": cmd.payload, "result": cmd.result} for name, cmd in COMMANDS.items()},
    "flags": {"--jobs": "accepted for compatibility; batches run sequentially, because the work holds the GIL"},
    "exit_codes": {"0": "all responses ok", "1": "some response failed", "2": "unreadable input, unwritable output or a closed output pipe"},
}


# json.dumps with these options would build a new encoder for every response.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_json(doc) -> str:
    return _ENCODER.encode(doc)


def _error(command, code, message) -> str:
    return canonical_json(
        {
            "command": command,
            "status": "error",
            "code": code,
            "result": None,
            "diagnostics": [message],
        }
    )


def handle_line(line: str, bound: int) -> tuple[str, bool] | None:
    """Process one request line; returns (response, ok), or None for a line
    of JSON whitespace only, which is all that is trimmed from its ends.

    Any failure while parsing, handling or printing the request becomes its
    own error response, so that no request can abort the batch.
    """
    text = line.strip(" \t\n\r")
    if not text:
        return None
    command = None
    try:
        # main's surrogateescape reader keeps a byte that is not UTF-8 as a lone
        # surrogate, which json.loads accepts.
        text.encode("utf-8")
        doc = json.loads(text)
        if not isinstance(doc, dict):
            return _error(None, "schema-error", "request must be a JSON object"), False
        command = doc.get("command")
        spec = COMMANDS.get(command) if isinstance(command, str) else None
        if spec is None:
            # A command too long to echo is named, cut, in the message alone.
            echoed = command if len(repr(command)) <= ECHO_LIMIT else None
            return _error(echoed, "schema-error", f"unknown command {_echo(command)}"), False
        result = dict(zip(spec.result, spec.handler(*_arguments(spec.payload, doc, bound))))
        return canonical_json({"command": command, "status": "ok", "result": result, "diagnostics": []}), True
    except UnicodeEncodeError as exc:
        return _error(None, "parse-error", f"invalid UTF-8 at column {exc.start + 1}"), False
    except json.JSONDecodeError as exc:
        return _error(None, "parse-error", f"invalid JSON: {exc.msg} at column {exc.colno}"), False
    except LatticeError as exc:
        return _error(command, exc.code, str(exc)), False
    except Exception as exc:
        # For instance a JSON number past Python's int-string digit limit,
        # a result too long to print, or nesting too deep to parse.  The
        # traceback module is imported here to keep it out of start-up.
        import traceback

        traceback.print_exc(file=sys.stderr)
        return _error(None, "internal-error", f"{type(exc).__name__}: {exc}"), False


def run_batch(lines, bound: int, jobs: int, out) -> int:
    """Answer the request lines in order, writing each response as it is made;
    ``jobs`` is ignored, and stays only because ``bench/run.py`` passes it."""
    failed = False
    for line in lines:
        outcome = handle_line(line, bound)
        if outcome is None:
            continue
        response, ok = outcome
        out.write(response + "\n")
        failed = failed or not ok
    return 1 if failed else 0


USAGE = "usage: mukailat [-h] [--schema] [--jobs N] [input]"


def _usage_error(message):
    print(f"{USAGE}\nmukailat: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_args(argv) -> tuple[str | None, bool]:
    """The input path (None for stdin) and whether ``--schema`` was given.

    ``-h`` prints the usage and exits 0.  ``--jobs N`` and ``--jobs=N`` need
    an int ``N``, which is ignored.  Any other argument, a second input or
    an abbreviated flag is a usage error, which exits 2.
    """
    path, schema = None, False
    args = iter(argv)
    for arg in args:
        flag, eq, value = arg.partition("=")
        if arg in ("-h", "--help"):
            print(USAGE)
            for name, text in SCHEMA["flags"].items():
                print(f"  {name}  {text}")
            raise SystemExit(0)
        if arg == "--schema":
            schema = True
        elif flag == "--jobs":
            value = value if eq else next(args, None)
            if value is None:
                _usage_error("argument --jobs: expected one argument")
            try:
                int(value)
            except ValueError:
                _usage_error(f"argument --jobs: invalid int value: {value!r}")
        elif arg.startswith("-") or path is not None:
            _usage_error(f"unrecognized argument: {arg}")
        else:
            path = arg
    return path, schema


def main(argv=None) -> int:
    path, schema = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if schema:
            print(canonical_json(SCHEMA))
            status = 0
        else:
            # A line ends at \n, \r\n or \r only, not at U+2028, U+0085 or a form feed.
            raw = sys.stdin.buffer if path is None else open(path, "rb")
            with io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape", newline=None) as lines:
                status = run_batch(lines, DEFAULT_BOUND, 1, sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):  # a closed pipe ends the run quietly
            print(f"mukailat: cannot read input or write output: {exc}", file=sys.stderr)
        # Write what stdout still holds, or if it cannot take that either, point
        # it at devnull, so that the interpreter's last flush stays quiet.
        try:
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(2)
    return status
