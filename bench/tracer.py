"""Outside-in tracer for the thetasym layers.

The tracer wraps public functions of the package from outside it.  Each
wrapped name is replaced in every loaded ``thetasym`` module that binds it:
``theta``, ``oracle``, ``catalog`` and ``ggp`` import with ``from .core
import ...``, so patching only the defining module would miss their calls.

Spans (name, start, end, parent) are kept in flat arrays in memory while the
traced work runs; :meth:`Tracer.summary` turns them into per-function call
counts and self times at the end.  A span's self time is its duration minus
the time covered by its direct child spans.  Functions listed as count-only
get a bare call counter and no span, because they are called too often for
a span each to be cheap; their time stays inside the caller's self time.
"""

from __future__ import annotations

import sys
import time
from array import array

#: (module, function, kind).  Kinds: "span" times every call, "gen" times
#: every ``next()`` of the returned generator, "count" only counts calls.
TRACED = (
    ("core", "enumerate_symbols", "span"),
    ("core", "upsilon", "span"),
    ("core", "upsilon_inverse", "span"),
    ("core", "partition", "count"),
    ("theta", "theta_fiber", "span"),
    ("theta", "in_B", "span"),
    ("theta", "in_G", "span"),
    ("theta", "first_occurrence_unipotent", "span"),
    ("catalog", "enumerate_labels", "gen"),
    ("catalog", "make_label", "span"),
    ("catalog", "kh_of", "count"),
    ("ggp", "ggp_multiplicity", "span"),
    ("ggp", "select_nonzero_variant", "span"),
    ("ggp", "branch_decomposition", "span"),
    ("oracle", "verify_f1", "span"),
    ("oracle", "verify_variant_uniqueness", "span"),
    ("oracle", "verify_counts", "span"),
    ("oracle", "brute_first_occurrence", "span"),
)

#: Multiplicity kinds by the value of ``MultKind``, renamed for metric names.
_OUTCOMES = {"zero": "zero", "one": "one", "symbolic-base": "symbolic", "undetermined": "undetermined"}


class Tracer:
    """Span recorder plus the counters that are measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.span_names = array("l")
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def _bump(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _note_result(self, name: str, result) -> None:
        """Counters read off a return value: sizes, hit ratios, outcomes."""
        if name == "core.enumerate_symbols":
            self._bump("core.enumerate_symbols.symbols", len(result))
        elif name in ("theta.in_B", "theta.in_G"):
            if result is not None and result is not False:
                self._bump(name + ".hits")
        elif name == "ggp.ggp_multiplicity":
            kind = getattr(getattr(result, "kind", None), "value", None)
            self._bump(f"ggp.ggp_multiplicity.{_OUTCOMES.get(kind, 'other')}")
        elif name.startswith("oracle.verify_"):
            self._bump("oracle.checks", result.checked)

    def _wrap_span(self, nid: int, name: str, fn):
        starts, ends, parents, span_names = self.starts, self.ends, self.parents, self.span_names
        stack, calls, clock = self.stack, self.calls, time.perf_counter

        def traced(*args, **kwargs):
            calls[nid] += 1
            idx = len(starts)
            parents.append(stack[-1])
            span_names.append(nid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            self._note_result(name, result)
            return result

        return traced

    def _wrap_gen(self, nid: int, name: str, fn):
        starts, ends, parents, span_names = self.starts, self.ends, self.parents, self.span_names
        stack, calls, clock = self.stack, self.calls, time.perf_counter
        yielded = name + ".labels"

        def step(it):
            idx = len(starts)
            parents.append(stack[-1])
            span_names.append(nid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return next(it)
            finally:
                ends[idx] = clock()
                stack.pop()

        def traced(*args, **kwargs):
            calls[nid] += 1
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                self._bump(yielded)
                yield item

        return traced

    def _wrap_count(self, nid: int, fn):
        calls = self.calls

        def traced(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every function in :data:`TRACED` in all loaded thetasym modules.

        A name missing from its module is skipped, so its counters read 0.
        """
        modules = [m for n, m in list(sys.modules.items()) if n == "thetasym" or n.startswith("thetasym.")]
        for module_name, func_name, kind in TRACED:
            home = sys.modules.get(f"thetasym.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            name = f"{module_name}.{func_name}"
            nid = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            if kind == "span":
                wrapper = self._wrap_span(nid, name, original)
            elif kind == "gen":
                wrapper = self._wrap_gen(nid, name, original)
            else:
                wrapper = self._wrap_count(nid, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def summary(self) -> dict:
        """Calls, self time and counters per traced function, from the spans."""
        child = [0.0] * len(self.starts)
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(len(starts)):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_names):
            self_s[nid] += ends[i] - starts[i] - child[i]
        out = dict(self.counts)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        out["spans"] = len(starts)
        return out
