"""The extraction engine.

Extraction searches for a *valid symbolic execution graph* of a network:
a graph over annotated networks (a network plus its marking) where every
node commits to one interaction (or to the two branches of one
conditional), every leaf is either fully terminated or recorded as
deadlocked, and every cycle passes through a node whose live processes
are all unmarked.  That last condition is what rules out starvation: a
loop is only closed if every process that still wants to run got a turn
since the previous closure.

The search is a depth-first construction with three-valued outcomes:

* ``ok`` — the subgraph below the node was completed;
* ``badloop`` — a closing edge was rejected by the validity test, try the
  next candidate action;
* ``fail`` — a state was reached from which no graph can be completed
  (all candidate actions exhausted); this aborts the whole search, since
  abstract execution is confluent, and deletes all but the root.

Nodes carry a *choice path* — the string of conditional branches (0 then,
1 else) under which they were created.  Communications inherit their
parent's path; conditional children extend it.  A closing edge may only
target a node whose path is a prefix of its own, which keeps conditional
branches apart; that node is the open ancestor with the same state.

The search runs over the network compiled once (`semantics.Kernel`),
and compiled again only when another network comes (`compiled`), so
strategies run on one network one call after another share one compile,
its split into components, the steps built and the positions met.  Each
thread keeps its own compile, so no kernel is written by two threads.  A
node's state is one int, `position << n | marking`, where the position
stands for the tuple of the processes' behaviour ids: the kernel lists
a position's units and makes its successors once, so a state met again,
in this search or another over the same compile, is stepped by lookups.
Terms and networks are built again from a state only to print it
(`to_dot`) or report it (`deadlock_remainders`).  The graph (`Seg`) is
parallel lists indexed by node id, with no object per node and no
reference per edge, so it is freed by reference counting alone and gives
the cyclic collector nothing to walk.  The search keeps a frame only for
an open node with a choice; a node with one interaction is stepped in
place.

When the search succeeds, nodes with more than one incoming edge (and a
root with any) become recursive procedure definitions, named in creation
order, and their incoming edges become calls.  Every other edge runs
from an older node to a newer one, so one sweep over the nodes, newest
first, reads the graph off into a choreography.  The compiled network
finds its own components (`Kernel.split`, over the process indices of
its peer table) and splits into component kernels that share the
compiled tables, each with process indices of its own, extracted one
after another on the caller's thread, then recomposed as a parallel
program.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from enum import Enum

from . import cc, sp
from .parser import pretty
from .semantics import (
    ComAction,
    ElseAction,
    Kernel,
    SelAction,
    ThenAction,
    enabled_steps,
    pretty_action,
)
from .strategies import SHUFFLED, Strategy, order_steps


class Outcome(Enum):
    OK = "ok"
    FAIL = "fail"
    BADLOOP = "badloop"


class Seg:
    """The graph under construction over a kernel's states.

    A node is its id, the index it was created at; node 0 is the root.
    Each list below holds one entry per node: its state, its choice path,
    whether it is white, and two out-edge slots, a label (None for none)
    and a target id (-1 for none).  A node with one edge, an interaction,
    fills the first slot; a conditional puts its then edge there and its
    else edge in the second.  `deadlocks` holds the ids of deadlocked
    leaves.  States are ints and nodes hold ids, never references, so the
    graph makes no reference cycle and leaves nothing for the cyclic
    collector.

    `add_node` adds the root; `build_graph` appends the other nodes and
    writes their edges.  `rollback` deletes nodes, newest first, by
    truncating every list.
    `created`/`deleted` count events (a node created, deleted, and
    recreated counts twice in both).
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.open = {}  # state -> (node, whites) of each open node, kept by `build_graph`
        self.state = []
        self.path = []
        self.white = []
        self.label0 = []
        self.target0 = []
        self.label1 = []
        self.target1 = []
        self.deadlocks = set()
        self.deleted = 0
        self.badloops = 0
        self._deleted_keys = set()  # the (state, path) of every deleted node
        # The marking bits of the non-service processes: a state is white,
        # no live non-service process marked, iff it has none of them.
        self._clients = ((1 << kernel.n) - 1) & ~kernel.services
        self.add_node(kernel.root, "")

    def add_node(self, state: int, path: str) -> int:
        self.state.append(state)
        self.path.append(path)
        self.white.append(not state & self._clients)
        self.label0.append(None)
        self.target0.append(-1)
        self.label1.append(None)
        self.target1.append(-1)
        return len(self.state) - 1

    @property
    def created(self) -> int:
        return len(self.state) + self.deleted

    def edges(self, src: int) -> list:
        """The out-edges of `src`, as [(label, dst)]."""
        slots = ((self.label0[src], self.target0[src]), (self.label1[src], self.target1[src]))
        return [(label, dst) for label, dst in slots if dst >= 0]

    def rollback(self, count: int, owner: int):
        """Clear `owner`'s edges and delete every node after the first
        `count`: an edge is kept at its source, so this undoes all built
        since there were `count` nodes if `owner` is the one older node to
        have gained edges since then and had none before (`build_graph`)."""
        self.label0[owner] = self.label1[owner] = None
        self.target0[owner] = self.target1[owner] = -1
        self._deleted_keys.update(zip(self.state[count:], self.path[count:]))
        self.deleted += len(self.state) - count
        for column in (self.state, self.path, self.white, self.label0, self.target0,
                       self.label1, self.target1):
            del column[count:]
        if self.deadlocks:
            self.deadlocks = {u for u in self.deadlocks if u < count}

    def find_loop_candidate(self, state: int, path: str):
        """The entry in `open`, (node, whites), of the node that a step to
        `state` under the choice path `path` closes a loop onto, if any:
        the node with that state whose path is a prefix of `path`.

        Open nodes are ancestors of the node being extended, so their
        paths are prefixes, and no two share a state: the shallower would
        have been the deeper's target.  A node keeps only the children of
        the unit it tries, so a closed node lies below the other branch of
        an open conditional and its path is no prefix.  `rollback` deletes
        closed nodes only.
        """
        entry = self.open.get(state)
        assert entry is None or path.startswith(self.path[entry[0]]), "not an ancestor"
        return entry


class _Frame:
    """An open node with a choice: more than one unit, or a conditional.

    It holds the node's id and ordered units, the unit and the step being
    tried, `unit_mark`, the node count from before the unit, `whites`, the
    number of white nodes on the depth-first path from the root up to and
    including this node, and `forced`, the number of open nodes stepped in
    place below it on that path.
    """

    __slots__ = ("node", "units", "unit_at", "step_at", "unit_mark", "whites", "forced")

    def __init__(self, node: int, units, whites: int, forced: int):
        self.node = node
        self.units = units
        self.unit_at = 0
        self.step_at = 0
        self.unit_mark = 0
        self.whites = whites
        self.forced = forced


def build_graph(seg: Seg, strategy: Strategy, rng) -> tuple[Outcome, bool]:
    """Depth-first construction of the graph below the root, node 0.

    Returns the search's outcome and whether it saw a deadlocked leaf.
    The search runs in one loop.  Every open node is in `seg.open`, by
    state, with its node id and `whites`, the number of white nodes on
    the depth-first path from the root up to and including it.  A node
    with a choice also has a `_Frame` on an explicit stack.  A node whose
    one unit is an interaction is stepped in place: its state goes on
    `forced` until it settles, and the search goes straight on to its
    successor.  `result` is None while a step is to be tried: the current
    step of `top`, or a forced node's step when `top` is None; otherwise
    it is the outcome of that step.

    A closing edge onto an open node is valid iff the cycle it closes
    holds a white node.  The cycle is the path from that node up to the
    node being extended, so its white nodes number `whites` of the one
    minus those of the other, plus one if the target is white: an O(1)
    test.

    Only OK is reported to a parent: a node whose units are all rejected
    fails the search, a forced node as soon as its one step is, and
    undoing each frame on the way to the root, with no other step tried,
    would leave the root alone and without edges, as one `rollback` to it
    does.  The other undo deletes a then branch when its else step is a
    rejected closing edge.  A rollback never reaches below an open node,
    so the branch's nodes are the newest; the one older node with new
    edges is the frame's own, and it had none when the unit began, since
    a unit before kept none or it would have settled.
    """
    kernel = seg.kernel
    successor, terminal = kernel.successor, kernel.terminal
    states, paths, white = seg.state, seg.path, seg.white  # truncated in place
    label0, target0, label1, target1 = seg.label0, seg.target0, seg.label1, seg.target1
    clients, opened = seg._clients, seg.open
    stack = []  # a `_Frame` per open node with a choice
    forced = []  # the state of each open node stepped in place, oldest first
    saw_deadlock = False
    node, whites = 0, 0  # the node to open, and the white nodes above it
    while True:
        # Open `node`: settle it as a leaf, step it in place, or push a frame.
        state = states[node]
        whites += white[node]
        units = enabled_steps(kernel, state)
        if not units:
            if not terminal(state):
                seg.deadlocks.add(node)
                saw_deadlock = True
            result = Outcome.OK
        else:
            opened[state] = (node, whites)
            result = None
            if len(units) == 1 and len(units[0]) == 1:
                forced.append(state)
                top, step, path = None, units[0][0], paths[node]
                labels, targets = label0, target0
            else:
                units = order_steps(units, strategy, kernel, state, rng)
                top = _Frame(node, units, whites, len(forced))
                stack.append(top)
        while True:
            if result is None:  # try the step
                if top is not None:
                    node, j = top.node, top.step_at
                    unit = top.units[top.unit_at]
                    if j == 0:
                        top.unit_mark = len(states)
                    step = unit[j]
                    path = paths[node] if len(unit) == 1 else paths[node] + "01"[j]
                    state, whites = states[node], top.whites
                    # A step's edge goes in the slot of its place in the unit.
                    labels, targets = (label1, target1) if j else (label0, target0)
                after = successor(state, step)
                target = seg.find_loop_candidate(after, path)
                if target is None:  # a new node, as `Seg.add_node` adds the root
                    labels[node], targets[node] = step.label, len(states)
                    node = len(states)
                    states.append(after)
                    paths.append(path)
                    white.append(not after & clients)
                    label0.append(None)
                    target0.append(-1)
                    label1.append(None)
                    target1.append(-1)
                    break  # open it
                at, above = target
                if whites - above + white[at] >= 1:
                    labels[node], targets[node] = step.label, at
                    result = Outcome.OK
                else:
                    seg.badloops += 1
                    result = Outcome.BADLOOP
            if result is Outcome.BADLOOP:
                if top is not None:
                    if top.step_at == 1:
                        seg.rollback(top.unit_mark, top.node)  # delete the then branch
                    top.unit_at += 1
                    top.step_at = 0
                    if top.unit_at < len(top.units):
                        result = None
                        continue
                opened.clear()  # nothing but rejected loops: the search fails
                seg.rollback(1, 0)
                return Outcome.FAIL, saw_deadlock
            # OK: every node stepped in place since the top frame settles.
            top = stack[-1] if stack else None
            mark = top.forced if top is not None else 0
            while len(forced) > mark:
                del opened[forced.pop()]
            if top is None:
                opened.clear()  # empty already: this frees its table, as deletes do not
                return result, saw_deadlock
            if top.step_at == 0 and len(top.units[top.unit_at]) == 2:
                top.step_at = 1  # then branch done: now the else branch
                result = None
                continue
            # The node is settled: OK is now the outcome of its parent's step.
            stack.pop()
            del opened[states[top.node]]


# ------------------------------------------------------- graph verification


def verify_seg(seg: Seg):
    """Independent whole-graph check of the accepted result.

    Out-degrees must be 0 (leaves), 1 (an interaction) or 2 (a then/else
    pair over the same guard); a node has two edge slots.  The
    subgraph induced by non-white nodes must be acyclic, which is
    equivalent to every cycle containing a white node.  That every node
    is reachable from the root is checked by `unroll_graph`, in its pass
    over the edges: every node but the root must have an edge from an
    older node.
    """
    terminal = seg.kernel.terminal
    for node, (state, l0, d0, l1, d1) in enumerate(
        zip(seg.state, seg.label0, seg.target0, seg.label1, seg.target1)
    ):
        if d0 < 0:
            assert node in seg.deadlocks or terminal(state), "bare internal node"
        elif d1 < 0:
            assert isinstance(l0, (ComAction, SelAction)), (
                "single outgoing edge must be an interaction"
            )
        else:
            assert isinstance(l0, ThenAction) and isinstance(l1, ElseAction), (
                "double outgoing edges must be a then/else pair"
            )
            assert (l0.process, l0.expr) == (l1.process, l1.expr)

    # Peel nodes of in-degree 0 off the marked subgraph; the nodes that
    # are never peeled lie on or behind a cycle.  The peel reads the slots
    # in place: a list per node would be one more tracked object each.
    white, target0, target1 = seg.white, seg.target0, seg.target1
    indegree = [0] * len(white)
    for node, (d0, d1) in enumerate(zip(target0, target1)):
        if not white[node]:
            for dst in (d0, d1):
                if dst >= 0 and not white[dst]:
                    indegree[dst] += 1
    ready = [node for node, is_white in enumerate(white) if not is_white and not indegree[node]]
    peeled = 0
    while ready:
        node = ready.pop()
        peeled += 1
        for dst in (target0[node], target1[node]):
            if dst >= 0 and not white[dst]:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
    assert peeled == white.count(False), "accepted graph has an all-marked cycle"


# --------------------------------------------------- unrolling and read-off


def unroll_graph(seg: Seg) -> dict:
    """Name the loop nodes, which become procedure definitions.

    Loop nodes are those with more than one incoming edge, or the root if
    it has any.  They are named X1, X2, … in creation order, which is the
    search's depth-first order, as `rollback` only truncates; the result
    maps each loop node's id to its name.

    Every node but the root must have an edge from an older node, so
    every node is reachable from the root.  The search's graphs pass: a
    node keeps the edge from its parent that created it, and every other
    edge closes a loop onto an open ancestor, an older node.

    The check also makes the graph without the edges into loop nodes
    (each reads off as a call) acyclic: there an unnamed non-root node
    keeps its one incoming edge, from an older node, and an unnamed root
    has none, so every edge runs from an older node to a newer one.
    """
    indegree = [0] * len(seg.state)
    indegree[0] = 1  # the root counts as entered from outside
    for node, (d0, d1) in enumerate(zip(seg.target0, seg.target1)):
        # `indegree` counts the edges of older nodes so far.
        assert indegree[node], "unreachable nodes survive"
        if d0 >= 0:
            indegree[d0] += 1
        if d1 >= 0:
            indegree[d1] += 1
    loops = [node for node, d in enumerate(indegree) if d > 1]
    return {node: f"X{i}" for i, node in enumerate(loops, 1)}


def build_choreography(seg: Seg, names: dict) -> cc.Choreography:
    """Read the graph off into a choreography, in one sweep over the
    nodes, newest first.

    `bodies` lists what an edge into each node reads as: for a loop node,
    put in before the sweep, a call of its procedure, and for any other
    node its body, which the sweep builds before the node's one incoming
    edge, from an older node (`unroll_graph`), is read.  A loop node's
    body is its procedure's.  The root reads as its entry of `bodies`.
    """
    label0, target0, target1 = seg.label0, seg.target0, seg.target1
    bodies = [None] * len(label0)
    for node, name in names.items():
        bodies[node] = cc.Call(name)
    procedures = {}
    for node in reversed(range(len(label0))):
        label = label0[node]
        if label is None:
            body = cc.DEADLOCK if node in seg.deadlocks else cc.NIL
        elif type(label) is ComAction:
            kid = bodies[target0[node]]
            body = cc.Com(label.sender, label.expr, label.receiver, label.var, kid)
        elif type(label) is SelAction:
            body = cc.Sel(label.sender, label.receiver, label.label, bodies[target0[node]])
        else:  # a then/else pair (`verify_seg`)
            body = cc.Cond(label.process, label.expr, bodies[target0[node]], bodies[target1[node]])
        if bodies[node] is None:
            bodies[node] = body
        else:
            procedures[bodies[node].name] = body
    return cc.Choreography(procedures, bodies[0])


# ------------------------------------------------- components and top level


# Per thread, the network that thread compiled last and its kernels, for
# `compiled`: `_last.entry` is (network, whole kernel, its split).  It
# holds at most one network a thread, and a caller's result usually holds
# that network anyway, as its kernels do.  A compile belongs to the thread
# that built it, so no kernel's tables are ever written by two threads and
# the kernel needs no lock.
_last = threading.local()


def compiled(n: sp.Network, parallel: bool = True) -> list:
    """The kernels `extract` searches for `n`, without services: its
    components (`Kernel.split`) with `parallel`, else the whole network
    as one.

    The network this thread extracted last (the same object, not an
    equal one) keeps its compile, so a run of extractions of one network
    on one thread, under every strategy, compiles and splits it once.
    Another thread compiles it again, into kernels of its own.
    """
    entry = getattr(_last, "entry", None)
    if entry is None or entry[0] is not n:
        _last.entry = None  # let the last network's kernels go before compiling
        kernel = Kernel(n)
        entry = _last.entry = (n, kernel, kernel.split())
    return entry[2] if parallel else [entry[1]]


@dataclass
class ComponentResult:
    processes: tuple
    services: frozenset
    outcome: Outcome
    seg: Seg
    choreography: object  # cc.Choreography | None
    saw_deadlock: bool

    @property
    def deadlock_remainders(self) -> list:
        """For each deadlock leaf, oldest first: the stuck processes, in
        name order, and their terms: the leaf position's live processes
        less the services, the only terms built."""
        seg, kernel = self.seg, self.seg.kernel
        remainders = []
        for node in sorted(seg.deadlocks):
            state = seg.state[node]
            stuck, ids = kernel._live[state >> kernel.n] & ~kernel.services, kernel.ids(state)
            remainders.append({
                p: sp.ProcessTerm(kernel.terms[i].procedures, kernel.behaviour[ids[i]])
                for i, p in enumerate(kernel.names)
                if stuck >> i & 1
            })
        return remainders


@dataclass
class FailureReport:
    processes: tuple
    saw_deadlock: bool
    badloops: int

    def __str__(self):
        why = (
            "encountered a deadlocked state"
            if self.saw_deadlock
            else f"exhausted all loop closures ({self.badloops} rejected)"
        )
        names = ", ".join(self.processes)
        return f"no valid execution graph for component {{{names}}}: {why}"


class ExtractionResult:
    def __init__(self, components: list):
        self.components = components

    @property
    def ok(self) -> bool:
        return all(c.outcome is Outcome.OK for c in self.components)

    @property
    def program(self):
        assert self.ok
        return cc.Program([c.choreography for c in self.components])

    @property
    def failure(self):
        for c in self.components:
            if c.outcome is not Outcome.OK:
                return FailureReport(c.processes, c.saw_deadlock, c.seg.badloops)
        return None

    @property
    def nodes_created(self) -> int:
        return sum(c.seg.created for c in self.components)

    @property
    def nodes_deleted(self) -> int:
        return sum(c.seg.deleted for c in self.components)

    @property
    def badloops(self) -> int:
        return sum(c.seg.badloops for c in self.components)

    @property
    def deadlock_remainders(self) -> list:
        return [leaf for c in self.components for leaf in c.deadlock_remainders]

    def to_dot(self) -> str:
        def esc(s: str) -> str:
            return s.replace("\\", "\\\\").replace('"', '\\"')

        lines = ["digraph seg {", "  node [shape=box];"]
        offsets = [0]  # dot ids run on across components: each one's node 0
        for comp in self.components:
            seg, kernel = comp.seg, comp.seg.kernel
            offset = offsets[-1]
            offsets.append(offset + len(seg.state))
            for node, (state, path) in enumerate(zip(seg.state, seg.path)):
                marked = kernel.marked(state)
                marking = " ".join(
                    f"{p}={'1' if p in marked else '0'}" for p in kernel.names
                )
                label = esc(
                    f"{pretty(kernel.network(state))}\\nmarking: {marking}"
                    f"\\npath: [{path}]"
                )
                lines.append(f'  n{offset + node} [label="{label}"];')
        for comp, offset in zip(self.components, offsets):
            for node in range(len(comp.seg.state)):
                for action, dst in comp.seg.edges(node):
                    lines.append(
                        f'  n{offset + node} -> n{offset + dst} '
                        f'[label="{esc(pretty_action(action))}"];'
                    )
        lines.append("}")
        return "\n".join(lines) + "\n"


def extract(
    n: sp.Network,
    services=frozenset(),
    strategy: Strategy = Strategy(),
    parallel: bool = True,
) -> ExtractionResult:
    """Extract a choreography program from a network.

    `services` are processes allowed to run forever without being served
    in every loop (they start marked and stay marked).  With `parallel`
    the network is split into communication-graph components, searched
    one after another on the caller's thread; without it the whole
    network is searched as one component.  Consecutive calls on one
    network object compile and split it once (`compiled`), whatever
    their services, strategy and `parallel`.
    """
    services = frozenset(services)
    missing = services - n.processes.keys()
    if missing:
        raise ValueError(f"services not in network: {sorted(missing)}")
    shuffles = strategy.name in SHUFFLED
    results = []
    for i, kernel in enumerate(compiled(n, parallel)):
        part = kernel.serving(services)
        seg = Seg(part)
        rng = random.Random(f"{strategy.seed}:{strategy.name}:{i}") if shuffles else None
        outcome, saw_deadlock = build_graph(seg, strategy, rng)
        choreography = None
        if outcome is Outcome.OK:
            verify_seg(seg)
            choreography = build_choreography(seg, unroll_graph(seg))
        results.append(
            ComponentResult(
                processes=part.names,
                services=services.intersection(part.names),
                outcome=outcome,
                seg=seg,
                choreography=choreography,
                saw_deadlock=saw_deadlock,
            )
        )
    return ExtractionResult(results)
