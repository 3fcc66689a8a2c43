"""Outside-in tracer for the mukailat package.

``Tracer.install()`` rebinds every public function of the six layer modules
(``cli``, ``mukai``, ``lattice``, ``intlinalg``, ``ptype``, ``moduli``) in
every ``mukailat.*`` namespace that holds it, and wraps the public methods
of their classes.  Nothing under ``src/`` is edited; ``uninstall()`` puts
every original object back.

Coarse entry points get a span: name, start, end, parent span and request
id, kept in memory.  A layer's self time is the sum over its spans of the
span's duration minus the time covered by its direct child spans.  The hot
primitives in ``COUNT_ONLY`` are called per box point; a span on each would
double the time of a scan and inflate the ``mukai`` share, so they only
count calls, and their time stays with the span that called them.

``<layer>.errors`` counts ``LatticeError``s that leave a public function of
the layer into a caller outside it (an error that passes through several
functions of one layer counts once for that layer).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import Counter

PACKAGE = "mukailat"
LAYERS = ("cli", "mukai", "lattice", "intlinalg", "ptype", "moduli")

COUNT_ONLY = frozenset(
    {
        "mukai.MukaiSetup.pair",
        "mukai.MukaiSetup.square",
        "mukai.MukaiSetup.is_primitive",
        "mukai.MukaiVector.__post_init__",
        "mukai.MukaiVector.from_coords",
        "mukai.MukaiVector.is_zero",
        "intlinalg.freeze_vector",
        "intlinalg.freeze_matrix",
        "intlinalg.xgcd",
        "intlinalg.identity",
        "intlinalg.transpose",
        "lattice.IntegralLattice.pair",
        "lattice.IntegralLattice.square",
    }
)


def _box_points(arguments) -> int:
    return (2 * arguments["bound"] + 1) ** arguments["setup"].rank


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans: list = []
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.request = -1
        self._stack: list = []
        self._patches: list = []
        self._after = {
            "cli.handle_line": self._after_request,
            "ptype.enumerate_p_type": self._after_enumerate,
            "moduli.mori_candidates": self._after_mori,
        }

    # -- result hooks ------------------------------------------------------

    def _after_request(self, arguments, outcome):
        if outcome is not None:
            response, ok = outcome
            self.counters["cli.out_bytes"] += len(response) + 1
            self.counters["cli.errors"] += not ok

    def _after_enumerate(self, arguments, lattices):
        self.counters["ptype.lattices_found"] += len(lattices)
        self.counters["ptype.box_points"] += _box_points(arguments)

    def _after_mori(self, arguments, candidates):
        self.counters["moduli.mori_kept"] += len(candidates)
        self.counters["moduli.box_points"] += _box_points(arguments)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        LatticeError = sys.modules[f"{PACKAGE}.errors"].LatticeError
        calls, errors, stack = self.calls, self.errors, self._stack
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                try:
                    return fn(*args, **kwargs)
                except LatticeError:
                    if not stack or stack[-1][1] != layer:
                        errors[layer] += 1
                    raise

            return counted

        spans, self_time, clock = self.spans, self.self_time, time.perf_counter
        after = self._after.get(name)
        signature = inspect.signature(fn) if after is not None else None
        is_request = name == "cli.handle_line"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            if is_request:
                self.request += 1
            parent = stack[-1] if stack else None
            frame = [len(spans), layer, 0.0]
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except LatticeError:
                if parent is None or parent[1] != layer:
                    errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_time[layer] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                spans[frame[0]] = (name, start, end, parent[0] if parent else None, self.request)
            if after is not None:
                after(signature.bind(*args, **kwargs).arguments, result)
            return result

        return spanned

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _patch_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__post_init__"):
                continue
            if attr == "__init__" and dataclasses.is_dataclass(cls):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(layer, name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(layer, name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(layer, name, raw))

    # -- lifecycle -----------------------------------------------------------

    def _namespaces(self):
        return [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__ or attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    replacements[obj] = self._wrap(layer, f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._patch_class(layer, obj)
        for module in self._namespaces():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._set(module, attr, replacements[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer self time and counters, keyed by metric name."""
        c = self.calls
        span_calls = c["ptype.PointedSublattice.span"]
        out = {f"{layer}.self_s": self.self_time[layer] for layer in LAYERS}
        out.update({f"{layer}.errors": self.errors[layer] for layer in LAYERS if layer != "cli"})
        out.update(
            {
                "cli.out_bytes": self.counters["cli.out_bytes"],
                "cli.errors": self.counters["cli.errors"],
                "mukai.setups_built": c["mukai.MukaiSetup.__init__"],
                "mukai.vectors_built": c["mukai.MukaiVector.__post_init__"],
                "mukai.pair_calls": c["mukai.MukaiSetup.pair"],
                "ptype.span_calls": span_calls,
                "ptype.lattices_found": self.counters["ptype.lattices_found"],
                "ptype.span_useful_ratio": (
                    self.counters["ptype.lattices_found"] / span_calls if span_calls else 0.0
                ),
                "ptype.box_points": self.counters["ptype.box_points"],
                "moduli.mori_kept": self.counters["moduli.mori_kept"],
                "moduli.box_points": self.counters["moduli.box_points"],
                "intlinalg.snf_calls": c["intlinalg.smith_normal_form"],
                "intlinalg.hnf_calls": c["intlinalg.hermite_with_transform"],
                "intlinalg.solve_calls": c["intlinalg.solve_rational"],
                "lattice.saturate_calls": c["lattice.Sublattice.saturate"],
                "lattice.complement_calls": c["lattice.Sublattice.orthogonal_complement"],
                "lattice.sublattices_built": c["lattice.Sublattice.__init__"],
            }
        )
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start and end (s, from the first span), parent, request."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps([name, round(start - origin, 9), round(end - origin, 9), parent, request]))
                handle.write("\n")
