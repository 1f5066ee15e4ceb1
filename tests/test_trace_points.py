"""The layer boundaries a tracer wraps to time and count extraction.

The benchmark's tracer (`bench/tracing.py`) replaces each name below
with a wrapper, at the attribute its caller looks it up by.  So each
must stay a module-level name (a `Seg` method for
`find_loop_candidate`) that is looked up at call time: a name inlined
into its caller, or bound when the module is imported (say, as a
default argument), would drop out of the trace without any failure.

`Seg.find_loop_candidate` is a one-line lookup in the search's index of
open nodes, and it stays a method because the benchmark counts
`extraction.successors_tried` through it: the search calls it once per
step it tries, which the last test pins.
"""

from collections import Counter

from chorex import bisimilar, equiv, extract, extraction
from chorex.parser import parse_choreography, parse_network

from conftest import (
    SIGNON_NET_TEXT,
    TWO_LOOPS_TEXT,
    TWO_LOOPS_VARIANT_A,
    TWO_LOOPS_VARIANT_B,
)

TRACED = (
    (extraction, "enabled_steps"),
    (extraction, "order_steps"),
    (extraction, "verify_seg"),
    (extraction, "unroll_graph"),
    (extraction, "build_choreography"),
    (extraction.Seg, "find_loop_candidate"),
    (equiv, "chor_enabled"),
)


def _counting(original, name, calls):
    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return counted


def test_every_traced_name_is_called_through(monkeypatch):
    calls = Counter()
    for owner, attr in TRACED:
        monkeypatch.setattr(owner, attr, _counting(getattr(owner, attr), attr, calls))

    result = extract(parse_network(SIGNON_NET_TEXT))
    assert result.ok
    (chor,) = result.program.components
    assert chor.procedures  # the read-off produced a procedure
    verdict = bisimilar(
        parse_choreography(TWO_LOOPS_VARIANT_A), parse_choreography(TWO_LOOPS_VARIANT_B)
    ).verdict
    assert verdict == "yes"

    assert set(calls) == {attr for _, attr in TRACED}


def test_loop_lookups_count_the_steps_tried(monkeypatch):
    # With no node deleted, every step tried left an edge in the graph or
    # was a rejected loop closure (one, on the two loops as one component).
    calls = Counter()
    monkeypatch.setattr(
        extraction.Seg,
        "find_loop_candidate",
        _counting(extraction.Seg.find_loop_candidate, "lookups", calls),
    )
    for text, parallel in ((SIGNON_NET_TEXT, True), (TWO_LOOPS_TEXT, False)):
        calls.clear()
        result = extract(parse_network(text), parallel=parallel)
        assert result.ok and result.nodes_deleted == 0
        edges = sum(
            len(c.seg.edges(node)) for c in result.components for node in range(len(c.seg.state))
        )
        assert calls["lookups"] == edges + result.badloops
