"""The execution-graph search: undo by rollback, loop validity, read-off,
and whole-network extraction against hand-checked results."""

import copy
import gc
import sys
import threading
import tracemalloc

import pytest

from chorex import sp
from chorex.extraction import (
    ExtractionResult,
    Outcome,
    Seg,
    Strategy,
    build_choreography,
    extract,
    unroll_graph,
    verify_seg,
)
from chorex.cli import main as cli_main
from chorex.epp import epp
from chorex.parser import parse_network, pretty
from chorex.semantics import ComAction, Kernel, enabled_steps
from chorex.strategies import STRATEGY_NAMES
from chorex.testgen import FuzzParams, GenParams, amend, fuzz, generate
from chorex.wellformed import check_guardedness, check_well_formed

import oracles
import workloads
from conftest import (
    LIVELOCK_TRIPLE_TEXT,
    LOOP_PLUS_FINITE_TEXT,
    N1_TEXT,
    N2_TEXT,
    N3_TEXT,
    RANKED_LOOP_NET_TEXT,
    SHIFTED_LOOP_NET_TEXT,
    SIGNON_NET_TEXT,
    TWO_LOOPS_TEXT,
    UNDO_TEXT,
)
from test_equiv import _corpus_roundtrip
from test_golden import POINTS as GOLDEN_POINTS, _digest


def _edge(seg, src: int, label, dst: int, slot: int = 0):
    """Give `src` an edge in its slot `slot` of the graph's columns, as
    `build_graph` writes the edge of a unit's step number `slot`."""
    if slot:
        seg.label1[src], seg.target1[src] = label, dst
    else:
        seg.label0[src], seg.target0[src] = label, dst


class TestSegJournal:
    """The graph's bookkeeping: `rollback`, node identities and loop
    candidates."""

    def _root(self):
        """A kernel, its root state, and the state with every process
        terminated."""
        net = parse_network("p { main { q!<e>; stop } } | q { main { p?x; stop } }")
        kernel = Kernel(net)
        ((step,),) = enabled_steps(kernel, kernel.root)
        return kernel, kernel.root, kernel.successor(kernel.root, step)

    def test_rollback_undoes_nodes_and_edges(self):
        kernel, a, b = self._root()
        seg = Seg(kernel)
        mark = len(seg.state)
        child = seg.add_node(b, "0")
        _edge(seg, 0, "lbl", child)
        assert seg.created == 2 and seg.deleted == 0
        seg.rollback(mark, 0)
        assert seg.created == 2 and seg.deleted == 1  # creation events stay counted
        assert len(seg.state) == 1
        assert seg.edges(0) == []
        columns = (seg.path, seg.white, seg.label0, seg.target0, seg.label1, seg.target1)
        assert all(len(column) == 1 for column in columns)

    def test_rollback_prunes_deleted_deadlock_leaves(self):
        kernel, a, b = self._root()
        seg = Seg(kernel)
        owner = seg.add_node(b, "0")
        leaf = seg.add_node(a, "0")
        _edge(seg, owner, "lbl", leaf)
        seg.deadlocks.update((owner, leaf))
        seg.rollback(leaf, owner)
        assert seg.deadlocks == {owner}
        assert seg.edges(owner) == []

    def test_edges_list_the_filled_slots_in_order(self):
        kernel, a, b = self._root()
        seg = Seg(kernel)
        child = seg.add_node(b, "0")
        _edge(seg, 0, "then", child)
        assert seg.edges(0) == [("then", child)] and seg.edges(child) == []
        _edge(seg, 0, "else", child, slot=1)
        assert seg.edges(0) == [("then", child), ("else", child)]

    def test_recreation_counts_twice(self):
        kernel, a, b = self._root()
        seg = Seg(kernel)
        mark = len(seg.state)
        seg.add_node(b, "0")
        seg.rollback(mark, 0)
        seg.add_node(b, "0")
        assert seg.created == 3 and seg.deleted == 1
        assert oracles.identities(seg) == 2  # the root, and the node created twice

    def test_duplicate_identity_is_refused(self):
        kernel, a, b = self._root()
        seg = Seg(kernel)
        seg.add_node(b, "0")
        seg.add_node(b, "0")
        with pytest.raises(AssertionError, match="created twice"):
            oracles.identities(seg)

    def test_only_open_nodes_are_loop_candidates(self):
        kernel, a, b = self._root()
        seg = Seg(kernel)
        child = seg.add_node(b, "0")
        # Added, never opened: neither the root nor the child is a target.
        assert seg.find_loop_candidate(a, "") is None
        assert seg.find_loop_candidate(b, "01") is None
        entry = seg.open[b] = (child, 0)
        assert seg.find_loop_candidate(b, "01") is entry
        with pytest.raises(AssertionError, match="not an ancestor"):
            seg.find_loop_candidate(b, "1")  # a diverged branch

    @pytest.mark.parametrize(
        "fixture, parallel",
        [("n1", True), ("n3", True), ("two_loops", False), ("livelock_triple", True)],
    )
    def test_extract_closes_every_open_node(self, fixture, parallel, request):
        result = extract(request.getfixturevalue(fixture), parallel=parallel)
        assert result.components
        assert all(c.seg.open == {} for c in result.components)

    def test_nodes_stay_in_creation_order_across_rollback(self):
        # The graph is walked in node id order (the dot output too), which
        # must be creation order: a node's id is its index in every list.
        kernel, a, b = self._root()
        seg = Seg(kernel)
        owner = seg.add_node(b, "0")
        mark = len(seg.state)
        seg.add_node(b, "1")
        seg.add_node(a, "1")
        seg.rollback(mark, owner)
        ids = [0, owner, seg.add_node(a, "1"), seg.add_node(b, "1")]
        assert ids == list(range(len(seg.state)))
        assert len(ids) == 4
        assert seg.state == [a, b, a, b] and seg.path == ["", "0", "1", "1"]


class TestLoopClosure:
    """A closing edge is accepted iff the cycle it closes holds a white
    node.  Rejected closures, counted in `badloops`, are checked in
    `TestFixtures` (two loops as one component, the starved receiver)."""

    def test_closure_onto_a_white_node_is_accepted(self):
        # Both processes act at once, so the marking resets at every step
        # and the loop closes on the white root itself.
        net = parse_network("p { def X { q!<e>; X } main { X } } | q { def Y { p?x; Y } main { Y } }")
        result = extract(net)
        assert pretty(result.program) == "def X1 { p.e -> q.x; X1 } main { X1 }"
        seg = result.components[0].seg
        assert seg.white[0] and seg.edges(0)[0][1] == 0
        assert result.badloops == 0

    def test_closure_onto_a_marked_node_through_a_white_one_is_accepted(self):
        # The loop closes on a marked node; the white node on the cycle is
        # the one the closing edge leaves.
        net = parse_network(
            "p { def X { r!<b>; q!<a>; X } main { q!<c>; X } } |"
            " q { def Y { p?x; Y } main { Y } } | r { def Z { p?y; Z } main { Z } }"
        )
        result = extract(net)
        assert pretty(result.program) == (
            "def X1 { p.b -> r.y; p.a -> q.x; X1 } main { p.c -> q.x; X1 }"
        )
        seg = result.components[0].seg
        assert len(seg.state) == 3
        target, top = 1, 2
        assert not seg.white[target] and seg.white[top]
        assert seg.edges(top)[0][1] == target
        assert result.badloops == 0


class TestComponents:
    def test_communication_graph_links_mentioned_peers(self, n1):
        parts = Kernel(n1).split()
        assert [part.names for part in parts] == [("p", "q"), ("r", "s")]
        for part in parts:  # each main's peer, as an index within its part
            assert [part.peer[x] for x in part.ids(part.root)] == [1, 0]

    def test_components_sorted_by_smallest_member(self):
        # Components {a, d}, {b, e} and {c}: their members interleave.
        net = parse_network(
            "a { main { d!<x>; stop } } | b { main { e!<y>; stop } } | c { main { stop } } |"
            " d { main { a?u; stop } } | e { main { b?v; stop } }"
        )
        parts = Kernel(net).split()
        assert [part.names for part in parts] == [("a", "d"), ("b", "e"), ("c",)]
        assert [list(part.names) for part in parts] == oracles.reference_components(net)

    def test_components_do_not_depend_on_discovery_order(self):
        # d receives from a, b and c, in either order, and b sends to c
        # too: a walk from a meets d before b and c.
        for order in ("b?u; c?v; a?w", "a?w; c?v; b?u"):
            net = parse_network(
                "a { main { d!<x>; stop } } | b { main { c!<y>; d!<y>; stop } } |"
                " c { main { b?t; d!<z>; stop } } | d { main { %s; stop } } | e { main { stop } }"
                % order
            )
            parts = Kernel(net).split()
            assert [part.names for part in parts] == [("a", "b", "c", "d"), ("e",)]
            assert [list(part.names) for part in parts] == oracles.reference_components(net)

    @pytest.mark.parametrize("name", ["Random", "UnmarkedThenRandom"])
    def test_component_order_is_pinned_under_shuffling_strategies(self, n1, name):
        """Components are printed in split order, and each one's shuffles
        are seeded with its place in it: the two copies of one diamond
        in TWO_DIAMONDS_TEXT take their two opening exchanges in orders
        that differ under Random."""
        shown = [
            pretty(extract(net, strategy=Strategy(name, 0)).program)
            for net in (n1, parse_network(INTERLEAVED_TEXT), parse_network(TWO_DIAMONDS_TEXT))
        ]
        diamonds = {
            "Random": "c.3 -> d.z; a.1 -> b.x; b.2 -> c.y; stop",
            "UnmarkedThenRandom": "a.1 -> b.x; c.3 -> d.z; b.2 -> c.y; stop",
        }[name]
        assert shown == [
            "main { p.e -> q.x; stop } || main { r.e' -> s.y; stop }",
            "main { a -> c[go]; a.e -> c.x; c.f -> a.y; stop } || main { b.u -> d.w; deadlock }",
            f"main {{ {diamonds} }} || main {{ e.1 -> f.x; g.3 -> h.z; f.2 -> g.y; stop }}",
        ]

    def test_single_component_when_disabled(self, n1):
        result = extract(n1, parallel=False)
        assert len(result.components) == 1
        assert result.components[0].processes == ("p", "q", "r", "s")

    def test_split_matches_the_term_walk(self, n1):
        """On n1, every network of the benchmark's `variants` workload
        (the `compose-*` pairs too, extracted here with `parallel`), the
        golden points and the first 40 acceptance-corpus records."""
        api = _RecordingApi()
        workloads.variants(api)
        nets = [n1] + [
            net
            for net in api.nets
            if check_well_formed(net).ok and check_guardedness(net).ok
        ]
        nets += [epp(amend(generate(params))) for params in GOLDEN_POINTS.values()]
        nets += [epp(chor) for _, chor in _corpus_roundtrip(range(40))]
        split = 0
        for net in nets:
            processes = [list(c.processes) for c in extract(net).components]
            assert processes == oracles.reference_components(net), pretty(net)
            split += len(processes) > 1
        assert split >= 20  # n1 and the composed pairs at least

    def test_each_process_is_interned_once(self, n1, monkeypatch):
        """One compile per network, whatever the split: every component's
        kernel shares one `behaviour` table, as long as a whole-network
        kernel's, and every body is interned once by the first `extract`
        of a network object.  Later extractions of that object, under
        another strategy, whole or with a service, intern nothing."""
        loops = [epp(amend(generate(p))) for p in workloads.variant_params(0, 1)]
        composed = workloads._compose(workloads.Api(), *loops)
        for net in (n1, composed):
            whole = len(Kernel(net).behaviour)
            interned = []
            original = Kernel._intern
            monkeypatch.setattr(
                Kernel,
                "_intern",
                lambda k, i, b, *rest: interned.append(b) or original(k, i, b, *rest),
            )
            result = extract(net)
            bodies = sum(1 + len(t.procedures) for t in net.processes.values())
            assert len(interned) == bodies
            again = [
                extract(net, strategy=Strategy("UnmarkedFirst", 0)),
                extract(net, services={min(net.names())}, parallel=False),
            ]
            monkeypatch.undo()
            assert len(interned) == bodies
            kernels = [c.seg.kernel for r in [result, *again] for c in r.components]
            assert len(kernels) == 5
            assert all(k.behaviour is kernels[0].behaviour for k in kernels)
            assert len(kernels[0].behaviour) == whole

    def test_a_split_leaves_the_whole_kernel_intact(self, n1):
        """A split gives its parts their own peer indices and units: the
        whole kernel lists the same steps after it as before, and so do
        the parts of a second split.  In INTERLEAVED_TEXT a process's
        index differs between the whole network and its component."""
        for net in (n1, parse_network(INTERLEAVED_TEXT)):
            whole = Kernel(net)

            def labels(kernel):
                return [[s.label for s in unit] for unit in enabled_steps(kernel, kernel.root)]

            before = labels(whole)
            parts = [labels(part) for part in whole.split()]
            assert labels(whole) == before
            assert [labels(part) for part in whole.split()] == parts
            assert sorted(map(repr, before)) == sorted(map(repr, sum(parts, [])))

    def test_a_reused_compile_extracts_as_a_fresh_one(self, n1):
        """All ten strategies on one network object, alternating `parallel`
        and services, so every call but the first reuses the compile, and
        the `compose-*` networks are searched whole and split from one:
        each call shows what an extraction of an equal network, compiled
        afresh, shows."""
        api = workloads.Api()
        pairs = workloads.VARIANT_LOOP_PAIRS
        loops = [epp(amend(generate(p))) for p in workloads.variant_params(0, pairs)]
        composed = [workloads._compose(api, *loops[2 * i : 2 * i + 2]) for i in range(pairs)]
        golden = [epp(amend(generate(params))) for params in GOLDEN_POINTS.values()]
        cases = [(n1, {"r"}), (parse_network(INTERLEAVED_TEXT), {"c"})]
        cases += [(net, {min(net.names())}) for net in composed + golden]
        for net, services in cases:
            calls = [
                (Strategy(name, 0), services if i % 4 < 2 else (), i % 2 == 0)
                for i, name in enumerate(STRATEGY_NAMES)
            ]
            reused = [extract(net, svc, strategy, parallel) for strategy, svc, parallel in calls]
            tables = {id(c.seg.kernel.behaviour) for r in reused for c in r.components}
            assert len(tables) == 1  # one compile for all ten
            seen = [_shown(result) for result in reused]
            for (strategy, svc, parallel), shown in zip(calls, seen):
                fresh = extract(parse_network(pretty(net)), svc, strategy, parallel)
                assert _shown(fresh) == shown, (pretty(net), strategy.name, svc, parallel)

    def test_threads_extracting_one_network_extract_as_one_thread_does(self, n1):
        """Four threads extract three network objects, each under every
        strategy, whole and split, and switch every microsecond, so each
        thread compiles a network while another is searching its own
        compile of the same object: every call shows what it shows on one
        thread."""
        nets = [n1, parse_network(INTERLEAVED_TEXT), parse_network(TWO_LOOPS_TEXT)]
        calls = [
            (net, Strategy(name, 0), i % 2 == 0)
            for net in nets
            for i, name in enumerate(STRATEGY_NAMES)
        ]
        want = [_shown(extract(net, strategy=s, parallel=p)) for net, s, p in calls]
        got = {}

        def work(t):
            for k in range(len(calls)):
                j = (k + 7 * t) % len(calls)  # each thread starts elsewhere
                net, s, p = calls[j]
                got[t, j] = _shown(extract(net, strategy=s, parallel=p))

        _in_threads(work, 4)
        assert got == {(t, j): want[j] for t in range(4) for j in range(len(calls))}

    def test_threads_intern_each_position_once(self):
        """Six threads, each under its own strategy, extract one network
        object whole and split, and switch every microsecond: no positions
        table serves components of two threads, every position maps back
        to its own number, and every call shows what it shows on one
        thread."""
        loops = [epp(amend(generate(p))) for p in workloads.variant_params(0, 1)]
        nets = [
            epp(amend(generate(GOLDEN_POINTS["ifs-k2-r0"]))),
            epp(amend(generate(GOLDEN_POINTS["procedures-k3-r1"]))),
            workloads._compose(workloads.Api(), *loops),
        ]
        names = STRATEGY_NAMES[:6]
        for net in nets:
            twin = parse_network(pretty(net))  # an equal network, compiled apart
            want = {
                (name, p): _shown(extract(twin, strategy=Strategy(name, 0), parallel=p))
                for name in names
                for p in (False, True)
            }
            got, results = {}, []

            def work(t):
                for parallel in (t % 2 == 0, t % 2 == 1):
                    result = extract(net, strategy=Strategy(names[t], 0), parallel=parallel)
                    results.append((t, result))
                    got[names[t], parallel] = _shown(result)

            _in_threads(work, len(names))
            assert got == want
            kernels, owners = {}, {}
            for t, result in results:
                for c in result.components:
                    kernels[id(c.seg.kernel.positions)] = c.seg.kernel
                    owners.setdefault(id(c.seg.kernel.positions), set()).add(t)
            assert all(len(threads) == 1 for threads in owners.values())
            for kernel in kernels.values():
                assert len(kernel._position_of) == len(kernel.positions)
                assert all(kernel._position_of[ids] == p for p, ids in enumerate(kernel.positions))

    def test_each_thread_compiles_a_network_for_itself(self, n1):
        """One network object extracted on this thread, then on another,
        then here again: the other thread gets a compile of its own and
        leaves this thread's in place, and both show the same extraction."""

        def tables(result):
            return {id(c.seg.kernel.behaviour) for c in result.components}

        here = extract(n1)
        there = []
        _in_threads(lambda t: there.append(extract(n1)), 1)
        again = extract(n1)
        assert tables(here) == tables(again)
        assert not tables(here) & tables(there[0])
        assert _shown(here) == _shown(there[0]) == _shown(again)

    def test_strategies_on_one_network_share_its_positions(self, n1):
        """A second strategy on one network object interns no position that
        the first one reached, and reaches some of them.  A `serving` view
        shares its kernel's table, and each split part has its own."""
        for net in (n1, epp(amend(generate(GOLDEN_POINTS["procedures-k3-r1"])))):
            for parallel in (False, True):
                first = extract(net, strategy=Strategy("InteractionsFirst", 0), parallel=parallel)
                kernels = [c.seg.kernel for c in first.components]
                reached = [{c.seg.kernel.ids(s) for s in c.seg.state} for c in first.components]
                counts = [len(k.positions) for k in kernels]
                second = extract(
                    net, {min(net.names())}, Strategy("UnmarkedThenConditionals", 0), parallel
                )
                for k, r, count, c in zip(kernels, reached, counts, second.components):
                    assert c.seg.kernel.positions is k.positions
                    assert not r & set(k.positions[count:])
                    assert r & {k.ids(s) for s in c.seg.state}
            whole = Kernel(net)
            assert whole.serving({min(net.names())}).positions is whole.positions
        whole = Kernel(n1)
        parts = whole.split()
        tables = {id(k.positions) for k in [whole, *parts]}
        assert len(parts) == 2 and len(tables) == 3

    def test_peers_are_local_to_their_component(self, capsys, tmp_path):
        """Components {a, c} and {b, d} interleave in name order, so a peer
        or service index left global points into the other component; the
        second one deadlocks."""
        net = parse_network(INTERLEAVED_TEXT)
        result = extract(net, services={"c"})
        assert [c.processes for c in result.components] == [("a", "c"), ("b", "d")]
        assert result.to_dot() == INTERLEAVED_DOT
        assert result.deadlock_remainders == [
            {
                "b": sp.ProcessTerm({}, sp.Receive("d", "v", sp.NIL)),
                "d": sp.ProcessTerm({}, sp.Receive("b", "z", sp.NIL)),
            }
        ]
        path = tmp_path / "net.sp"
        path.write_text(INTERLEAVED_TEXT)
        assert cli_main(["extract", str(path), "--strict", "--services", "c"]) == 1
        out, err = capsys.readouterr()
        assert out == (
            "main { a -> c[go]; a.e -> c.x; c.f -> a.y; stop } || main { b.u -> d.w; deadlock }\n"
        )
        assert err == (
            "extraction contains deadlocks; stuck processes:\n"
            "  b: d?v; stop\n"
            "  d: b?z; stop\n"
        )


def _in_threads(work, count: int):
    """Run `work(t)` on `count` threads, t = 0, 1, ..., switching between
    them every microsecond, and fail if any of them raised or hung."""
    errors = []

    def run(t):
        try:
            work(t)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(t,)) for t in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


INTERLEAVED_TEXT = (
    "a { main { c+go; c!<e>; c?y; stop } } | b { main { d!<u>; d?v; stop } } | "
    "c { main { a&{ go: a?x; a!<f>; stop } } } | d { main { b?w; b?z; stop } }"
)

# Two copies of one connected network whose first two exchanges, a with b
# and c with d, are both enabled at the root.
TWO_DIAMONDS_TEXT = (
    "a { main { b!<1>; stop } } | b { main { a?x; c!<2>; stop } } | "
    "c { main { d!<3>; b?y; stop } } | d { main { c?z; stop } } | "
    "e { main { f!<1>; stop } } | f { main { e?x; g!<2>; stop } } | "
    "g { main { h!<3>; f?y; stop } } | h { main { g?z; stop } }"
)

INTERLEAVED_DOT = r"""digraph seg {
  node [shape=box];
  n0 [label="a { main { c+go; c!<e>; c?y; stop } } | c { main { a&{ go: a?x; a!<f>; stop } } }\\nmarking: a=0 c=1\\npath: []"];
  n1 [label="a { main { c!<e>; c?y; stop } } | c { main { a?x; a!<f>; stop } }\\nmarking: a=0 c=1\\npath: []"];
  n2 [label="a { main { c?y; stop } } | c { main { a!<f>; stop } }\\nmarking: a=0 c=1\\npath: []"];
  n3 [label="a { main { stop } } | c { main { stop } }\\nmarking: a=0 c=0\\npath: []"];
  n4 [label="b { main { d!<u>; d?v; stop } } | d { main { b?w; b?z; stop } }\\nmarking: b=0 d=0\\npath: []"];
  n5 [label="b { main { d?v; stop } } | d { main { b?z; stop } }\\nmarking: b=0 d=0\\npath: []"];
  n0 -> n1 [label="a -> c[go]"];
  n1 -> n2 [label="a.e -> c.x"];
  n2 -> n3 [label="c.f -> a.y"];
  n4 -> n5 [label="b.u -> d.w"];
}
"""


def _shown(result) -> tuple:
    """What an extraction shows its caller: the program, the graph (as
    dot, below 2,000 nodes), the counters, the deadlock leaves and the
    failure."""
    nodes = sum(len(c.seg.state) for c in result.components)
    return (
        pretty(result.program) if result.ok else None,
        result.to_dot() if nodes < 2000 else None,
        (result.nodes_created, result.nodes_deleted, result.badloops),
        result.deadlock_remainders,
        result.failure,
    )


def _copied_view(kernel, services):
    """`Kernel.serving` as a copy whatever the services: a view with its
    own services mask and root, sharing every table."""
    view = copy.copy(kernel)
    view.services = sum(1 << i for i, p in enumerate(kernel.names) if p in services)
    view.root = view._root(kernel.ids(kernel.root))
    return view


VIEW_CASES = [N1_TEXT, N3_TEXT, SIGNON_NET_TEXT, RANKED_LOOP_NET_TEXT, TWO_LOOPS_TEXT, UNDO_TEXT]


class TestServingViews:
    """`Kernel.serving` gives the kernel itself when the services are the
    ones it has, and a view of it otherwise."""

    def test_no_services_is_the_kernel_itself(self):
        for text in VIEW_CASES:
            whole = Kernel(parse_network(text))
            for kernel in [whole, *whole.split()]:
                assert kernel.serving(frozenset()) is kernel

    def test_a_service_gives_a_view_and_leaves_the_kernel(self):
        for text in VIEW_CASES:
            whole = Kernel(parse_network(text))
            for kernel in [whole, *whole.split()]:
                root, service = kernel.root, kernel.names[-1]
                view = kernel.serving({service})
                assert view is not kernel and view.positions is kernel.positions
                assert view.marked(view.root) == {service}  # live at every root here
                assert view.ids(view.root) == kernel.ids(root)
                assert (kernel.services, kernel.root) == (0, root)
                assert view.serving({service}) is view

    @pytest.mark.parametrize(
        "text", VIEW_CASES, ids=["N1", "N3", "signon", "ranked", "two-loops", "undo"]
    )
    def test_extractions_match_a_copied_views(self, text, monkeypatch):
        """Under every strategy, with no service and with each process as
        the one service, whole and split: the same as with a copy."""
        net = parse_network(text)
        cases = [
            (services, Strategy(name, 0), parallel)
            for services in [(), *((p,) for p in net.names())]
            for name in STRATEGY_NAMES
            for parallel in (True, False)
        ]
        shown = [_shown(extract(net, *case)) for case in cases]
        monkeypatch.setattr(Kernel, "serving", _copied_view)
        assert [_shown(extract(net, *case)) for case in cases] == shown


def _fuzz_variants():
    """The fuzz variants of the `variants` workload's bases that pass the
    input checks, as the workload builds them."""
    for params in workloads.variant_params(workloads.VARIANT_BASES, 0):
        net = epp(amend(generate(params)))
        for d, s in workloads.FUZZ_GRID:
            fuzzed = fuzz(net, FuzzParams(deletions=d, swaps=s, seed=params.seed))
            if check_well_formed(fuzzed).ok and check_guardedness(fuzzed).ok:
                yield fuzzed


class TestDeadlockRemainders:
    """`deadlock_remainders`, read off the kernel, against
    `oracles.reference_deadlock_remainders`, which rebuilds each leaf's
    network, under every strategy, with no service and with one."""

    def _leaves(self, net) -> int:
        leaves = 0
        for services in ((), (min(net.names()),), (max(net.names()),)):
            for name in STRATEGY_NAMES:
                result = extract(net, services, Strategy(name, 0))
                remainders = result.deadlock_remainders
                assert remainders == oracles.reference_deadlock_remainders(result)
                assert [list(leaf) for leaf in remainders] == [sorted(leaf) for leaf in remainders]
                leaves += len(remainders)
        return leaves

    def test_on_the_fuzz_variants(self):
        assert sum(self._leaves(net) for net in _fuzz_variants()) > 4000

    def test_on_n3(self, n3):
        assert self._leaves(n3) >= 40


class TestNodeBound:
    def test_formula_without_conditionals(self):
        net = parse_network("p { main { q!<e>; stop } } | q { main { p?x; stop } }")
        assert oracles.node_bound(net) == 16  # 2^2 processes * (2*2) sizes * 2^0 conds

    def test_formula_with_conditionals(self):
        net = parse_network(
            "p { main { if e then q!<a>; stop else q!<b>; stop } } | q { main { p?x; stop } }"
        )
        assert oracles.node_bound(net) == 80  # 2^2 * (5*2) * 2^1

    def test_every_fixture_respects_the_bound(self, n1, n2, n3, signon_net, two_loops):
        for net in (n1, n2, n3, signon_net, two_loops):
            result = extract(net, parallel=False)
            seg = result.components[0].seg
            assert oracles.identities(seg) <= oracles.node_bound(net)


class _RecordingApi(workloads.Api):
    """The benchmark's API, keeping every network it builds."""

    def __init__(self):
        super().__init__()
        self.nets = []
        for name in ("epp", "unroll", "fuzz", "parse_network"):
            setattr(self, name, self._recorded(getattr(self, name)))

    def _recorded(self, build):
        def recorded(*args, **kwargs):
            self.nets.append(build(*args, **kwargs))
            return self.nets[-1]

        return recorded


class TestFixtures:
    def test_independent_pairs_split_into_components(self, n1):
        result = extract(n1)
        assert result.ok
        assert pretty(result.program) == "main { p.e -> q.x; stop } || main { r.e' -> s.y; stop }"

    def test_independent_pairs_sequential(self, n1):
        result = extract(n1, parallel=False)
        assert pretty(result.program) == "main { p.e -> q.x; r.e' -> s.y; stop }"

    def test_conditional_network(self, n2):
        result = extract(n2)
        assert pretty(result.program) == (
            "main { if p.e then p -> q[left]; p.1 -> q.y; stop"
            " else p -> q[right]; q.2 -> p.x; stop }"
        )
        # root + three nodes per branch, nothing rolled back
        assert result.nodes_created == 7
        assert result.nodes_deleted == 0
        assert result.badloops == 0

    def test_deadlocking_conditional(self, n3):
        result = extract(n3)
        assert result.ok  # completes, but records the stuck processes
        assert pretty(result.program) == (
            "main { p.1 -> q.x; if r.e then p.2 -> r.y; deadlock"
            " else q.3 -> r.y; deadlock }"
        )
        remainders = result.deadlock_remainders
        assert [sorted(leaf) for leaf in remainders] == [["q"], ["p"]]
        assert remainders[0]["q"].main == sp.Send("r", "3", sp.NIL)
        assert remainders[1]["p"].main == sp.Send("r", "2", sp.NIL)

    def test_two_loops_as_single_component(self, two_loops):
        result = extract(two_loops, parallel=False)
        assert pretty(result.program) == "def X1 { p.e -> q.x; r.e' -> s.y; X1 } main { X1 }"
        # Closing p-q's loop on itself leaves q-r starved: rejected once,
        # then the closure through the fully reset state succeeds.
        assert result.badloops == 1

    def test_two_loops_in_parallel(self, two_loops):
        result = extract(two_loops)
        assert pretty(result.program) == (
            "def X1 { p.e -> q.x; X1 } main { X1 } || def X1 { r.e' -> s.y; X1 } main { X1 }"
        )
        assert result.badloops == 0

    def test_starved_receiver_fails(self, livelock_triple):
        result = extract(livelock_triple)
        assert not result.ok
        assert result.failure is not None
        assert str(result.failure) == (
            "no valid execution graph for component {p, q, r}: "
            "exhausted all loop closures (1 rejected)"
        )
        with pytest.raises(AssertionError):
            result.program

    def test_ranked_loop_with_service(self, ranked_loop_net):
        result = extract(ranked_loop_net, services={"r"})
        assert pretty(result.program) == (
            "def X1 { p.e -> q.x; p.e -> q.x; r.e' -> q.y;"
            " if q.(x=y) then q -> p[left]; X1 else q -> p[right]; stop } main { X1 }"
        )
        assert result.deadlock_remainders == []

    def test_ranked_loop_without_service_deadlocks_the_server(self, ranked_loop_net):
        result = extract(ranked_loop_net)
        assert result.ok
        remainders = result.deadlock_remainders
        assert [sorted(leaf) for leaf in remainders] == [["r"]]

    def test_signon(self, signon_net):
        result = extract(signon_net)
        assert pretty(result.program) == (
            "def X1 { u.cred -> a.c; if a.check(c)"
            " then a -> u[ok]; a -> w[ok]; w.t -> u.t; stop"
            " else a -> u[ko]; a -> w[ko]; X1 } main { X1 }"
        )

    def test_loop_beside_finite_exchange(self):
        net = parse_network(LOOP_PLUS_FINITE_TEXT)
        result = extract(net, parallel=False)
        assert result.ok
        assert result.deadlock_remainders == []

    def test_unknown_service_rejected(self, n1):
        with pytest.raises(ValueError, match="services not in network"):
            extract(n1, services={"nobody"})

    def test_unreachable_bare_self_call_is_never_unfolded(self):
        # The fuzz variant d2s2 of the benchmark's variants base 9, cut
        # down: p1's procedure X1 is a bare self-call that no main reaches,
        # so the guardedness check, which looks at reachable procedures
        # only, lets it through, and nothing may chase the call.
        net = parse_network(
            "p1 { def X1 { X1 } main { p2+L1; stop } } |"
            " p2 { main { p1&{ L1: p1&{ elseL: stop, thenL: stop } } } }"
        )
        assert check_guardedness(net).violations == []
        for name in STRATEGY_NAMES:
            result = extract(net, strategy=Strategy(name, 0))
            assert pretty(result.program) == "main { p1 -> p2[L1]; deadlock }"
            assert (result.nodes_created, result.nodes_deleted, result.badloops) == (2, 0, 0)
            (leaf,) = result.deadlock_remainders
            assert sorted(leaf) == ["p2"]
            assert leaf["p2"].main == sp.Offer("p1", {"elseL": sp.NIL, "thenL": sp.NIL})

    def test_main_that_reaches_a_bare_self_call_is_refused(self):
        net = parse_network("p { def X { X } main { q!<e>; X } } | q { main { p?x; stop } }")
        with pytest.raises(AssertionError, match="unguarded recursion in process p along X -> X"):
            extract(net)

    @pytest.mark.parametrize("extra", [{}, {"Y": sp.NIL}], ids=["alone", "beside-Y"])
    def test_main_that_reaches_an_undefined_procedure_names_it(self, extra):
        term = sp.ProcessTerm({"X": sp.Call("Z"), **extra}, sp.Call("X"))
        net = sp.Network({"p": term, "q": sp.ProcessTerm({}, sp.NIL)})
        with pytest.raises(KeyError) as info:
            extract(net)
        assert info.value.args == ("undefined procedure Z in process p along X -> Z",)


# `UNDO_TEXT` as one component, per strategy: (nodes created, deleted,
# rejected closures), the program and the `to_dot` digest.  A strategy
# that tries p's conditional first and only then the exchange builds a
# then branch and deletes it.
_LOOP_ONLY = "def X1 { if p.c then stop else X1 }"
_EXCHANGE_FIRST = f"{_LOOP_ONLY} main {{ r.v -> s.y; X1 }}"
_CONDITIONAL_FIRST = (
    f"{_LOOP_ONLY} main {{ if p.c then r.v -> s.y; stop else r.v -> s.y; X1 }}"
)
UNDO_EXPECTED = {
    **dict.fromkeys(STRATEGY_NAMES, ((3, 0, 0), _EXCHANGE_FIRST, "7eaadbf4bc782c4a")),
    **dict.fromkeys(
        ("ConditionalsFirst", "ShortestFirst"),
        ((8, 2, 1), _CONDITIONAL_FIRST, "113ea764e40fa124"),
    ),
    **dict.fromkeys(
        ("UnmarkedFirst", "UnmarkedThenConditionals", "UnmarkedThenRandom"),
        ((6, 0, 0), _CONDITIONAL_FIRST, "113ea764e40fa124"),
    ),
}


class TestUndo:
    """The search's two undos: a rejected closing edge on an else step
    deletes its then branch, and a failed search deletes every node but
    the root."""

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_rejected_else_closure_deletes_the_then_branch(self, name):
        result = extract(parse_network(UNDO_TEXT), strategy=Strategy(name, 0), parallel=False)
        counters, program, dot = UNDO_EXPECTED[name]
        assert (result.nodes_created, result.nodes_deleted, result.badloops) == counters
        assert pretty(result.program) == program
        assert _digest(result.to_dot()) == dot
        assert result.components[0].seg.open == {}

    def test_failed_search_keeps_only_the_root(self, livelock_triple):
        result = extract(livelock_triple)
        assert (result.nodes_created, result.nodes_deleted, result.badloops) == (2, 1, 1)
        (comp,) = result.components
        seg = comp.seg
        assert seg.state == [seg.kernel.root] and seg.path == [""]
        assert seg.edges(0) == []
        columns = (seg.white, seg.label0, seg.target0, seg.label1, seg.target1)
        assert all(len(column) == 1 for column in columns)
        assert seg.open == {}
        assert oracles.identities(seg) == 2


def test_results_hold_no_reference_cycles():
    """A dropped result is freed by reference counting alone: nothing in
    the graph, the kernel or the read-off points back at its owner, so
    no result waits for the cyclic collector."""
    texts = (
        N1_TEXT,
        N2_TEXT,
        N3_TEXT,
        SIGNON_NET_TEXT,
        TWO_LOOPS_TEXT,
        LIVELOCK_TRIPLE_TEXT,
        LOOP_PLUS_FINITE_TEXT,
        RANKED_LOOP_NET_TEXT,
        SHIFTED_LOOP_NET_TEXT,
        UNDO_TEXT,
    )
    nets = [parse_network(text) for text in texts]
    gc.collect()
    gc.disable()
    try:
        for net in nets:
            for parallel in (True, False):
                result = extract(net, parallel=parallel)
                result.to_dot()
                result.deadlock_remainders
                del result
        assert gc.collect() == 0
    finally:
        gc.enable()


def _retained(net):
    """The result of extracting `net` under `InteractionsFirst`, and the
    heap it retains, by tracemalloc: the graph, and the compile the
    memo keeps.  A tiny network goes first, so the compile the memo drops
    inside the measurement is negligible."""
    extract(parse_network(N1_TEXT))
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = extract(net, strategy=Strategy("InteractionsFirst"))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    return result, retained


def test_retained_heap_per_node():
    """procedures-k7-r2 under `InteractionsFirst` (10,934 nodes, none
    deleted): the heap a result retains, per node.  With states as ints
    over interned positions, it retains 282 B a node; with a tuple per
    state, 327-338 B; an object per node, with an edge list and a tuple
    per edge, retains 548-559 B, above the bound."""
    net = epp(amend(generate(GenParams(size=20, processes=5, ifs=8, defs=7, seed=2))))
    result, retained = _retained(net)
    assert result.ok
    assert (result.nodes_created, result.nodes_deleted) == (10934, 0)
    assert retained / result.nodes_created < 400


def test_retained_heap_per_node_when_no_position_repeats():
    """size-k42-r0 under `InteractionsFirst` (2,101 nodes): every node has
    a position of its own, so each pays for its row in the position
    tables and its (position, step) successor, and nothing is shared.
    It retains 1,412 B a node, the compile included: 1,383 with a tuple
    per state and no position tables, and 1,652 in a prototype with a
    dict of successors per position."""
    net = epp(amend(generate(GenParams(size=2100, processes=6, seed=0))))
    result, retained = _retained(net)
    assert result.ok
    (comp,) = result.components
    assert len(comp.seg.kernel.positions) == result.nodes_created == 2101
    assert retained / result.nodes_created < 1500


# A handshake whose conditional can re-enter either the opening phase or
# the middle phase: two join points, two procedures.
TWO_PHASE_TEXT = """
p { def X { q!<a>; Y } def Y { q?y; if c then q+goX; X else q+goY; Y } main { X } } |
q { def X { p?x; Y } def Y { p!<b>; p&{ goX: X, goY: Y } } main { X } }
"""


class TestGraphShape:
    def test_accepted_graphs_pass_independent_verification(self, n2, n3, signon_net):
        for net in (n2, n3, signon_net):
            for comp in extract(net).components:
                verify_seg(comp.seg)

    def test_unroll_names_follow_discovery_order(self, ranked_loop_net, signon_net):
        for net, expected in ((ranked_loop_net, ["X1"]), (signon_net, ["X1"])):
            comp = extract(net, services={"r"} if net is ranked_loop_net else frozenset()).components[0]
            names = unroll_graph(comp.seg)
            assert sorted(names.values()) == expected

    def test_two_phase_loop_gets_two_procedure_names(self):
        result = extract(parse_network(TWO_PHASE_TEXT))
        assert result.ok
        assert pretty(result.program) == (
            "def X1 { p.a -> q.x; X2 }"
            " def X2 { q.b -> p.y; if p.c then p -> q[goX]; X1 else p -> q[goY]; X2 }"
            " main { X1 }"
        )
        assert result.nodes_created == 5 and result.badloops == 0

    def test_unreachable_cycle_is_refused(self):
        # A 2-cycle that no edge enters: without the edges into loop nodes
        # it is the graph's only cycle, and reachability alone rejects it.
        seg = Seg(Kernel(parse_network("p { main { q!<e>; stop } } | q { main { p?x; stop } }")))
        x, y = seg.add_node(seg.state[0], "0"), seg.add_node(seg.state[0], "1")
        _edge(seg, x, "lbl", y)
        _edge(seg, y, "lbl", x)
        with pytest.raises(AssertionError, match="unreachable nodes survive"):
            unroll_graph(seg)

    def test_a_node_entered_only_from_a_newer_node_is_refused(self):
        # root -> y -> x, with x created before y: x is reachable, but no
        # graph of the search enters a node first from a newer one, and
        # the check in creation order needs an edge from an older node.
        seg = Seg(Kernel(parse_network("p { main { q!<e>; stop } } | q { main { p?x; stop } }")))
        x, y = seg.add_node(seg.state[0], "0"), seg.add_node(seg.state[0], "1")
        _edge(seg, 0, "lbl", y)
        _edge(seg, y, "lbl", x)
        with pytest.raises(AssertionError, match="unreachable nodes survive"):
            unroll_graph(seg)

    def test_all_marked_cycle_is_refused(self):
        net = parse_network("p { main { q!<e>; stop } } | q { main { p?x; stop } }")
        kernel = Kernel(net)
        seg = Seg(kernel)
        marked = oracles.marked_root(kernel, {"p"})
        x, y = seg.add_node(marked, "0"), seg.add_node(marked, "1")
        com = ComAction("p", "e", "q", "x")
        _edge(seg, 0, com, x)
        _edge(seg, x, com, y)
        _edge(seg, y, com, x)
        with pytest.raises(AssertionError, match="all-marked cycle"):
            verify_seg(seg)

    def test_dot_export_lists_every_node_and_edge(self, n2):
        result = extract(n2)
        dot = result.to_dot()
        assert dot.startswith("digraph seg {")
        assert dot.count("[label=") == 7 + 6  # 7 nodes + 6 edges
        assert "marking:" in dot and "path: [0]" in dot


class TestReadOff:
    """The naming of loop nodes and the read-off against
    `oracles.reference_read_off`, which walks the graph from the root."""

    def _check(self, result) -> int:
        """Checks every component; returns how many loop nodes were named."""
        assert result.ok
        named = 0
        for comp in result.components:
            names = unroll_graph(comp.seg)
            reference_names, reference = oracles.reference_read_off(comp.seg)
            assert list(names.items()) == list(reference_names.items())
            assert build_choreography(comp.seg, names) == reference
            assert comp.choreography == reference
            named += len(names)
        return named

    def test_matches_the_reference_on_the_corpus(self):
        """Records 0-39 of the acceptance corpus stream, under every
        strategy."""
        named = 0
        for _, chor in _corpus_roundtrip(range(40)):
            net = epp(chor)
            for name in STRATEGY_NAMES:
                named += self._check(extract(net, strategy=Strategy(name, 0)))
        assert named > 4000

    def test_matches_the_reference_after_a_rollback(self):
        deleted = 0
        for name in STRATEGY_NAMES:
            result = extract(parse_network(UNDO_TEXT), strategy=Strategy(name, 0), parallel=False)
            self._check(result)
            deleted += result.nodes_deleted
        assert deleted > 0

    @pytest.mark.parametrize(
        "text",
        [SIGNON_NET_TEXT, TWO_LOOPS_TEXT, TWO_PHASE_TEXT],
        ids=["signon", "two-loops", "two-phase"],
    )
    @pytest.mark.parametrize("parallel", [True, False])
    def test_matches_the_reference_on_loops(self, text, parallel):
        net = parse_network(text)
        for name in STRATEGY_NAMES:
            assert self._check(extract(net, strategy=Strategy(name, 1), parallel=parallel)) >= 1


class TestAgainstBruteForce:
    def test_fixture_agreement(self, n1, n2, n3, two_loops, livelock_triple):
        for net in (n1, n2, n3, two_loops, livelock_triple):
            engine = extract(net, parallel=False).ok
            assert oracles.valid_graph_exists(net) == engine

    def test_strategies_cannot_change_the_verdict(self, two_loops, livelock_triple):
        from chorex.strategies import STRATEGY_NAMES

        for net, expected in ((two_loops, True), (livelock_triple, False)):
            for name in STRATEGY_NAMES:
                result = extract(net, strategy=Strategy(name, seed=1), parallel=False)
                assert result.ok == expected, name


def test_result_counters_cover_all_components(n1):
    result = extract(n1)
    assert isinstance(result, ExtractionResult)
    assert result.nodes_created == sum(c.seg.created for c in result.components)
    assert result.failure is None
    assert all(c.outcome is Outcome.OK for c in result.components)


def test_successors_are_built_only_when_tried(monkeypatch):
    """processes-k20-r0 (100 processes): the search builds a successor
    state only for steps it tries, not for every enabled step of a node.
    Building them all took 3,411 networks for 501 nodes."""
    from chorex.epp import epp
    from chorex.testgen import GenParams, amend, generate

    net = epp(amend(generate(GenParams(size=500, processes=100, seed=0))))
    built = []
    successor = Kernel.successor

    def counted(self, state, step):
        built.append(len(step.procs))
        return successor(self, state, step)

    monkeypatch.setattr(Kernel, "successor", counted)
    result = extract(net, strategy=Strategy("InteractionsFirst"))
    assert result.ok
    assert result.nodes_created == 501
    assert len(built) <= 1.1 * result.nodes_created
