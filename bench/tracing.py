"""Spans and counters around the calls the benchmark makes into chorex.

A `Tracer` replaces a function at the name its caller looks it up by
(for example `chorex.extraction.enabled_steps`, which is how the search
finds it) with a wrapper that records a span: name, start, end, parent
span and op id.  Spans stay in memory until `write` dumps them.  Counters
are taken from arguments and results at the same boundaries, so every
ratio is measured where the work happens.

The search runs on a thread that `extract` spawns; a span opened on a
thread with no open span of its own takes the main thread's innermost
open span as its parent, which is the `extract` call waiting for it.
Time metrics are lengths of the union of span intervals, so spans of
component searches that run side by side are not counted twice.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter

from chorex import equiv, extraction

# Spans whose time `extraction.search_self_ms` subtracts from `extract`.
_SEARCH_CHILDREN = (
    "semantics.enabled_steps",
    "strategies.order_steps",
    "extraction.verify_seg",
    "extraction.unroll_graph",
    "extraction.build_choreography",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op


def _union_ms(intervals) -> float:
    """Total length in ms of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total * 1000.0


class Tracer:
    """Install with `install(api)`, read with `metrics()`, undo with `remove()`."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, owner, attr, name, count=None):
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span = Span(name, time.perf_counter(), parent, self.op)
            self.spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def _count_only(self, owner, attr, key):
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._restore.append((owner, attr, original))

    def install(self, api):
        """Wrap the benchmark's own entry points (attributes of `api`) and
        the layer boundaries inside chorex that the ops reach."""

        def on_extract(c, args, result):
            c["extraction.calls"] += 1
            c["extraction.nodes_created"] += result.nodes_created
            c["extraction.nodes_deleted"] += result.nodes_deleted
            c["extraction.badloops"] += result.badloops
            c["extraction.components"] += len(result.components)

        def on_enabled(c, args, result):
            c["semantics.enabled_steps_calls"] += 1
            c["semantics.successors_built"] += len(result)

        def on_bisimilar(c, args, result):
            c["equiv.pairs_explored"] += result.pairs_explored
            c["equiv.undecided"] += result.verdict == "exhausted"

        def on_parse(c, args, result):
            c["parser.chars"] += len(args[0])

        def calls(key):
            def count(c, args, result):
                c[key] += 1

            return count

        self._wrap(api, "extract", "extraction.extract", on_extract)
        self._wrap(api, "bisimilar", "equiv.bisimilar", on_bisimilar)
        self._wrap(api, "parse_network", "parser.parse", on_parse)
        self._wrap(api, "parse_program", "parser.parse", on_parse)
        self._wrap(api, "pretty", "parser.pretty")
        self._wrap(api, "check_well_formed", "wellformed.check")
        self._wrap(api, "check_guardedness", "wellformed.check")
        self._wrap(api, "epp", "epp.project")
        self._wrap(api, "generate", "testgen.generate")
        self._wrap(api, "amend", "testgen.amend")
        self._wrap(api, "fuzz", "testgen.variants")
        self._wrap(api, "unroll", "testgen.variants")
        self._wrap(extraction, "enabled_steps", "semantics.enabled_steps", on_enabled)
        self._wrap(
            extraction, "order_steps", "strategies.order_steps",
            calls("strategies.order_calls"),
        )
        self._wrap(extraction, "verify_seg", "extraction.verify_seg")
        self._wrap(extraction, "unroll_graph", "extraction.unroll_graph")
        self._wrap(extraction, "build_choreography", "extraction.build_choreography")
        self._wrap(
            equiv, "chor_enabled", "semantics.chor_enabled",
            calls("semantics.chor_enabled_calls"),
        )
        self._count_only(
            extraction.Seg, "find_loop_candidate", "extraction.successors_tried"
        )

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def keep(self, prefix: str):
        """Forget every count, and every span whose name does not start with
        `prefix`."""
        self.spans = [s for s in self.spans if s.name.startswith(prefix)]
        self.counts.clear()

    def _ms(self, name) -> float:
        return _union_ms(
            (s.start, s.end) for s in self.spans if s.name == name and s.end
        )

    def _search_self_ms(self) -> float:
        children = {}
        for s in self.spans:
            if s.name in _SEARCH_CHILDREN and s.parent is not None:
                children.setdefault(id(s.parent), []).append((s.start, s.end))
        total = 0.0
        for s in self.spans:
            if s.name != "extraction.extract":
                continue
            inner = [
                (max(a, s.start), min(b, s.end))
                for a, b in children.get(id(s), ())
            ]
            total += (s.end - s.start) * 1000.0 - _union_ms(inner)
        return total

    def metrics(self) -> dict:
        """Every per-layer metric, as {name: (value, unit)}."""
        c = self.counts
        bisimilar_ms = self._ms("equiv.bisimilar")
        out = {
            "semantics.enabled_steps_ms": (self._ms("semantics.enabled_steps"), "ms"),
            "semantics.enabled_steps_calls": (c["semantics.enabled_steps_calls"], "count"),
            "semantics.successors_built": (c["semantics.successors_built"], "count"),
            "semantics.chor_enabled_ms": (self._ms("semantics.chor_enabled"), "ms"),
            "semantics.chor_enabled_calls": (c["semantics.chor_enabled_calls"], "count"),
            "strategies.order_ms": (self._ms("strategies.order_steps"), "ms"),
            "strategies.order_calls": (c["strategies.order_calls"], "count"),
            "extraction.extract_ms": (self._ms("extraction.extract"), "ms"),
            "extraction.calls": (c["extraction.calls"], "count"),
            "extraction.search_self_ms": (self._search_self_ms(), "ms"),
            "extraction.verify_ms": (self._ms("extraction.verify_seg"), "ms"),
            "extraction.unroll_ms": (self._ms("extraction.unroll_graph"), "ms"),
            "extraction.readoff_ms": (self._ms("extraction.build_choreography"), "ms"),
            "extraction.nodes_created": (c["extraction.nodes_created"], "count"),
            "extraction.nodes_deleted": (c["extraction.nodes_deleted"], "count"),
            "extraction.badloops": (c["extraction.badloops"], "count"),
            "extraction.components": (c["extraction.components"], "count"),
            "extraction.successors_tried": (c["extraction.successors_tried"], "count"),
            "extraction.successors_per_node": (
                c["semantics.successors_built"] / max(1, c["extraction.nodes_created"]),
                "ratio",
            ),
            "equiv.bisimilar_ms": (bisimilar_ms, "ms"),
            "equiv.pairs_explored": (c["equiv.pairs_explored"], "count"),
            "equiv.ms_per_pair": (
                bisimilar_ms / max(1, c["equiv.pairs_explored"]), "ms"
            ),
            "equiv.undecided": (c["equiv.undecided"], "count"),
            "parser.parse_ms": (self._ms("parser.parse"), "ms"),
            "parser.pretty_ms": (self._ms("parser.pretty"), "ms"),
            "parser.chars": (c["parser.chars"], "count"),
            "wellformed.check_ms": (self._ms("wellformed.check"), "ms"),
            "epp.project_ms": (self._ms("epp.project"), "ms"),
            "testgen.generate_ms": (self._ms("testgen.generate"), "ms"),
            "testgen.amend_ms": (self._ms("testgen.amend"), "ms"),
            "testgen.variants_ms": (self._ms("testgen.variants"), "ms"),
        }
        return out

    def write(self, path):
        """Dump spans as JSON lines: id, name, start, end, parent id, op."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                parent = ids.get(id(s.parent)) if s.parent is not None else None
                fh.write(json.dumps([i, s.name, s.start, s.end, parent, s.op]) + "\n")
