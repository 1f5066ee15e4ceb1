"""Budgeted similarity and bisimilarity checking for choreographies.

The checker runs a worklist over pairs of configurations.  A configuration
is a tuple of bodies, one per parallel component, so a single choreography
and a multi-component program can be compared directly.  For every action
enabled on the left, the right side must enable the same action; successor
pairs are enqueued until the set is exhausted (yes), an action goes
unmatched (no), or the budget runs out (exhausted).

Pairs are normalised before they are counted, which keeps the reachable
pair set small for the common case of loops that only differ in where the
recursive call closes:

  * a top-level procedure call is replaced by its body,
  * identical communication/selection heads on both sides are stripped,
  * a conditional on the same process and guard on both sides is split
    into a then/then pair and an else/else pair.

Each rewrite preserves the verdict: a stripped head is enabled on both
sides and has a unique successor, and the split conditional can only be
matched by its own then/else actions.

A check (one `_simulate` call) interns every pair it meets as a node of
its rewrite graph and computes each node's rewrite step once, as the
nodes that step leads to; the graph lives as long as the check.
Normalising a pair follows those pointers from a seen-set that is new on
every call, and stops at a normal form or at the first node already seen
in that call.  That is exactly where rewriting the terms from scratch
stops (`tests/oracles.reference_normalise`): a step depends only on the
pair and the two fixed procedure environments, and two pairs are one
node exactly when they are equal, so both walks meet the same pairs in
the same order and return the same list.  Verdicts, pair counts and
witnesses therefore do not depend on the graph.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from .cc import Call, Choreography, Com, Cond, Program, Sel
from .parser import pretty_body
from .semantics import chor_enabled, pretty_action


@dataclass(frozen=True)
class SimBudget:
    """Resource cap for a similarity check.

    max_pairs bounds the number of (normalised) pairs explored;
    max_millis, when not None, bounds wall-clock time.  Both must be
    positive.
    """

    max_pairs: int = 100_000
    max_millis: float | None = None

    def __post_init__(self):
        if self.max_pairs <= 0:
            raise ValueError("max_pairs must be positive")
        if self.max_millis is not None and not self.max_millis > 0:
            raise ValueError("max_millis must be positive")


class SimResult:
    """Outcome of a similarity or bisimilarity check."""

    __slots__ = ("verdict", "pairs_explored", "witness")

    def __init__(self, verdict, pairs_explored, witness=None):
        assert verdict in ("yes", "no", "exhausted")
        self.verdict = verdict
        self.pairs_explored = pairs_explored
        self.witness = witness  # (action, left_bodies, right_bodies) | None

    def __repr__(self):
        return f"SimResult({self.verdict!r}, pairs={self.pairs_explored})"

    def to_json(self):
        doc = {"verdict": self.verdict, "pairsExplored": self.pairs_explored}
        if self.witness is not None:
            action, left, right = self.witness
            doc["witness"] = {
                "action": pretty_action(action),
                "left": [pretty_body(b) for b in left],
                "right": [pretty_body(b) for b in right],
            }
        return doc


def _components(thing) -> tuple[Choreography, ...]:
    if isinstance(thing, Program):
        return tuple(thing.components)
    if isinstance(thing, Choreography):
        return (thing,)
    raise TypeError(f"expected Choreography or Program, got {type(thing).__name__}")


class _Side:
    """One side of the check: fixed procedure environments plus the
    initial configuration (tuple of component bodies)."""

    __slots__ = ("chors", "initial")

    def __init__(self, chors: tuple[Choreography, ...]):
        self.chors = chors
        self.initial = tuple(c.main for c in chors)

    def steps(self, config):
        out = []
        for i, body in enumerate(config):
            for label, succ in chor_enabled(self.chors[i], body):
                out.append((label, config[:i] + (succ,) + config[i + 1 :]))
        return out


def _unfold_top(chors, config):
    """Replace bare top-level Call bodies by the named procedure body.

    Procedure bodies are never bare calls themselves, so one pass per
    component suffices.
    """
    for body in config:
        if type(body) is Call:
            break
    else:
        return (config, False)
    out = list(config)
    for i, body in enumerate(out):
        if type(body) is Call:
            out[i] = chors[i].procedures[body.name]
    return (tuple(out), True)


def _same_head(lconf, rconf, kinds):
    """The first (i, j) such that lconf[i] and rconf[j] are the same
    constructor, one of `kinds`, over the same label; None if none is."""
    for i, lb in enumerate(lconf):
        if type(lb) in kinds:
            kind, label = type(lb), lb._label()
            for j, rb in enumerate(rconf):
                if type(rb) is kind and rb._label() == label:
                    return i, j
    return None


class _Node:
    """One (left, right) configuration pair of a check, interned.

    `steps` is None until `_normalise` first rewrites the pair, then the
    nodes its one rewrite step leads to (`_rewrite`): none for a normal
    form, one for an unfold or a strip, a then node and an else node for
    a split.  `settled` is set once `_simulate` has met the node as a
    normal form: it is then explored or skipped as trivially equal, and
    never looked at again.
    """

    __slots__ = ("lconf", "rconf", "steps", "settled")

    def __init__(self, lconf, rconf):
        self.lconf = lconf
        self.rconf = rconf
        self.steps = None
        self.settled = False


class _Graph:
    """The rewrite graph of one `_simulate` call: its two sides and every
    pair met so far, each interned as one `_Node`."""

    __slots__ = ("left", "right", "nodes")

    def __init__(self, left: _Side, right: _Side):
        self.left = left
        self.right = right
        self.nodes = {}

    def node(self, lconf, rconf) -> _Node:
        node = self.nodes.get(key := (lconf, rconf))
        if node is None:
            node = self.nodes[key] = _Node(lconf, rconf)
        return node


def _rewrite(graph: _Graph, node: _Node) -> tuple:
    """The nodes that the one rewrite step of `node` leads to.

    Unfold top-level calls if there are any; else strip one pair of
    identical interaction heads if there is one; else split a conditional
    guarded identically on both sides into its then and else pairs.
    """
    lconf, lch = _unfold_top(graph.left.chors, node.lconf)
    rconf, rch = _unfold_top(graph.right.chors, node.rconf)
    if lch or rch:
        return (graph.node(lconf, rconf),)
    found = _same_head(lconf, rconf, (Com, Sel)) or _same_head(lconf, rconf, (Cond,))
    if found is None:
        return ()
    i, j = found
    lkids, rkids = lconf[i].children(), rconf[j].children()
    return tuple(
        graph.node(lconf[:i] + (lkid,) + lconf[i + 1 :], rconf[:j] + (rkid,) + rconf[j + 1 :])
        for lkid, rkid in zip(lkids, rkids)
    )


def _normalise(graph: _Graph, node: _Node) -> list:
    """Rewrite a pair into zero or more smaller equivalent pairs.

    Returns a list of nodes.  A split's else node waits on a stack until
    its then node is done, and one seen-set for all of them, new on every
    call, guards against cycling through unfold/strip on self-similar
    loops.  Each node's step is computed once per check (`_rewrite`).
    """
    out = []
    seen = set()
    todo = [node]
    while todo:
        node = todo.pop()
        while node not in seen:
            seen.add(node)
            steps = node.steps
            if steps is None:
                steps = node.steps = _rewrite(graph, node)
            if not steps:
                break
            if len(steps) == 2:
                todo.append(steps[1])
            node = steps[0]
        out.append(node)
    return out


def _simulate(left: _Side, right: _Side, budget: SimBudget) -> SimResult:
    """Does the right side simulate the left side?"""
    envs_equal = left.chors == right.chors
    started = time.perf_counter()
    graph = _Graph(left, right)
    work = deque([(left.initial, right.initial)])
    explored = 0
    while work:
        if explored >= budget.max_pairs:
            return SimResult("exhausted", explored)
        if budget.max_millis is not None:
            if (time.perf_counter() - started) * 1000.0 > budget.max_millis:
                return SimResult("exhausted", explored)
        for node in _normalise(graph, graph.node(*work.popleft())):
            if node.settled:
                continue
            node.settled = True
            lconf, rconf = node.lconf, node.rconf
            if envs_equal and lconf == rconf:
                continue
            explored += 1
            # A program's components have disjoint processes, and
            # `chor_enabled` lists no label twice, so neither does a side.
            rsteps = dict(right.steps(rconf))
            for label, lsucc in left.steps(lconf):
                rsucc = rsteps.get(label)
                if rsucc is None:
                    return SimResult("no", explored, witness=(label, lconf, rconf))
                work.append((lsucc, rsucc))
    return SimResult("yes", explored)


def can_simulate(c1, c2, budget: SimBudget = SimBudget()) -> SimResult:
    """Check whether c2 can simulate c1 (every behaviour of c1 is matched)."""
    return _simulate(_Side(_components(c1)), _Side(_components(c2)), budget)


def bisimilar(c1, c2, budget: SimBudget = SimBudget()) -> SimResult:
    """yes iff both directions simulate; no if either fails; else exhausted."""
    forward = can_simulate(c1, c2, budget)
    if forward.verdict == "no":
        return SimResult("no", forward.pairs_explored, forward.witness)
    backward = can_simulate(c2, c1, budget)
    pairs = forward.pairs_explored + backward.pairs_explored
    if backward.verdict == "no":
        return SimResult("no", pairs, backward.witness)
    if forward.verdict == "yes" and backward.verdict == "yes":
        return SimResult("yes", pairs)
    return SimResult("exhausted", pairs)
