"""Budgeted bisimilarity checking for choreographies, over their
transitions.

`chor_enabled` lists the actions of a choreography body executable up to
the swap relation, computed with a blocked-set scan instead of rewriting:
an action deeper in the body is enabled when no process it involves is
"blocked" by an earlier action or by a conditional it sits under, and
an action under a conditional must be enabled in both branches.

The scan is a loop over an explicit stack, one entry per conditional
branch being scanned, and it stops as soon as the blocked set covers
every process of the choreography.  That cut-off loses nothing: the
blocked set only grows deeper in the body, every action involves at
least one process, and an action is listed only if none of its
processes is blocked; a conditional's branches inherit the blocked
set, so they list nothing either, and neither does their
intersection.  Bodies that `chor_enabled` is given are the
choreography's own bodies or successors of them, so their processes
are the choreography's, computed once per choreography.

The checker runs a worklist over pairs of configurations.  A configuration
is a tuple of bodies, one per parallel component, so a single choreography
and a multi-component program can be compared directly.  `bisimilar`
asks that both sides enable the same actions.  Successor pairs are
enqueued until the set is exhausted (yes), an action goes unmatched
(no), or the budget runs out (exhausted).  The budget counts the pairs
the check explores; the check is one pass, not one per direction.

Each side is a deterministic transition system: `chor_enabled` lists no
label twice, and a program's components have disjoint processes, so a
configuration has at most one successor per action.  A check therefore
never has to choose which successor matches: the pair of successors by
the same action is the only candidate.

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

A check (one `bisimilar` call) interns every pair it meets as a node of
its rewrite graph.  Each `_normalise` call of the check has its own
stamp, marks every node it walks with it, follows each node's one
rewrite step to the nodes that step leads to, and stops at three kinds
of node:

  * a normal form, which it returns;
  * a node this call has already marked, where a rewrite cycle closes
    (or a second path meets the first); it returns that node too;
  * a node an earlier call marked, which it drops.

`bisimilar` settles every node `_normalise` returns: it explores it
(compares the actions of its two sides and enqueues the successor
pairs), or skips it.  It keeps a union-find over configurations, each
tagged by its side unless the two sides' procedure environments are
equal: it skips a pair whose two configurations are in one class
already, and merges the classes of any other pair before it explores
it.  So a pair equal on both sides under equal environments is
skipped.

Dropping and skipping are bisimulation up-to techniques (Pous &
Sangiorgi, *Enhancements of the bisimulation proof method*, 2011):
dropping is up to the rewrite closure, and the union-find is up to
equivalence (Hopcroft & Karp 1971; Bonchi & Pous, *Checking NFA
equivalence with bisimulations up to congruence*, 2013).  They are
sound together because up-to techniques compose (Pous, *Coinduction all
the way up*, 2016).  For these systems the composition can be checked
directly:

  * A call marks a node at most once, so its walk is finite, and every
    node it marks rewrites, in a finite tree of steps, into nodes the
    call returns and nodes an earlier call marked.  By induction on the
    calls, every marked node rewrites in a finite tree into nodes that
    some call returned, and each of those was settled before the next
    call; a "no" ends the check.
  * Let R be the explored pairs at "yes", and E the equivalence over
    tagged configurations that the union-find holds: the reflexive,
    symmetric and transitive closure of R.  Every enqueued pair
    rewrites in a finite tree into pairs of E, since a skipped pair was
    in E when it was skipped and E only grows.
  * Write x =n y when x and y have the same traces of length at most
    n.  Each =n is an equivalence, and a pair is in =n if every pair
    its unfold, strip or split step leads to is.  An unfold changes no
    trace.  For a strip or a split this follows by induction on n: an
    action the pair can take first is the stripped head, a branch of
    the split guard, or an action of the kids that runs ahead of them,
    and by determinism that action leads both sides to pairs that are
    again the kids' successors under the same step.
  * By induction on n, every pair of E and every enqueued pair is in
    =n.  For n = 0 this is trivial.  For the step, take a pair of R:
    its two sides enable the same actions, and by determinism each
    action leads to one enqueued pair, which is in =n; so the pair is
    in =n+1.  Chains of such pairs are in =n+1 by transitivity, so all
    of E is; and an enqueued pair rewrites into pairs of E, so it is
    in =n+1 too.  This is where determinism is used: the links of a
    chain in E agree on the successor of their shared middle
    configuration.
  * So the initial pair has the same traces on both sides, and for
    deterministic systems trace equivalence is bisimilarity.

A "no" needs no up-to argument.  Every explored pair is reached from
the initial pair by matched actions and rewrite steps, and if a pair is
bisimilar then so is each pair one of these leads to:
by determinism, the successors by a matched action, the kids of a strip
(each side takes the stripped head) and of a split (each side takes the
same branch).  So an unmatched action anywhere refutes the initial
pair.

A dropped node needs nothing returned: its normal forms are settled
already.  Each node is rewritten once per check, when it is
first marked, so nothing keeps its step.  A call returns only pairs that
rewriting from scratch returns (`tests/oracles.reference_normalise`),
and leaves out only pairs an earlier call marked.  Which pairs are left
out and which are skipped depends on the order of the calls, so pair
counts, the point where a budget runs out and the witness of a "no" do
too; a "yes" or "no" does not.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from . import cc
from .cc import Call, Choreography, Com, Cond, Program, Sel
from .parser import pretty_body
from .semantics import ComAction, ElseAction, SelAction, ThenAction, pretty_action


# ------------------------------------------------- choreography transitions


def _under(heads: list, body):
    """`body` under the communication and selection `heads`, outermost first."""
    for head in reversed(heads):
        body = head.rebuild((body,))
    return body


def _chain(procedures: dict, names: frozenset, body, blocked: frozenset, visiting: frozenset):
    """Actions enabled along one chain of `body`, up to its conditional.

    Walks the communications, selections and calls at the top of `body`
    and lists their enabled actions, each successor rebuilt under the
    heads passed on the way.  A generator: at a conditional it yields a
    scan request `(branch, blocked, visiting)` for the then branch and
    then for the else branch, is sent each branch's actions in reply, and
    keeps the actions both branches list.  No scan lists a label twice
    (once it lists an action, that action's processes stay blocked for
    the rest of the scan), so a branch's actions can go into a dict.  It
    stops once `blocked` covers `names`.  `visiting` holds the
    (procedure, blocked) pairs unfolded on the way here; reaching one
    again would rescan the same body under the same constraints, so the
    chain ends there.
    """
    heads = []
    out = []
    blocked = set(blocked)
    while not blocked >= names:
        kind = type(body)
        if kind is cc.Com or kind is cc.Sel:
            p, q = body.sender, body.receiver
            if p not in blocked and q not in blocked:
                if kind is cc.Com:
                    action = ComAction(p, body.expr, q, body.var)
                else:
                    action = SelAction(p, q, body.label)
                out.append((action, _under(heads, body.cont)))
            heads.append(body)
            blocked.add(p)
            blocked.add(q)
            body = body.cont
        elif kind is cc.Call:
            key = (body.name, frozenset(blocked))
            if key in visiting:
                break
            visiting = visiting | {key}
            body = procedures[body.name]
        elif kind is cc.Cond:
            p, e = body.process, body.expr
            if p not in blocked:
                out.append((ThenAction(p, e), _under(heads, body.then)))
                out.append((ElseAction(p, e), _under(heads, body.orelse)))
            blocked.add(p)
            inner = frozenset(blocked)
            then_res = yield body.then, inner, visiting
            else_res = dict((yield body.orelse, inner, visiting))
            for a, then_succ in then_res:
                if a in else_res:
                    out.append((a, _under(heads, cc.Cond(p, e, then_succ, else_res[a]))))
            break
        elif kind is cc.Nil or kind is cc.Deadlock:
            break
        else:
            raise TypeError(f"not a choreography body: {body!r}")
    return out


def _scan(procedures: dict, names: frozenset, body) -> list:
    """Actions enabled in `body`, each with its successor.

    An explicit stack of `_chain` scans, one per conditional branch being
    scanned; each finished scan's actions are sent to the scan below it.
    """
    stack = [_chain(procedures, names, body, frozenset(), frozenset())]
    sent = None
    while True:
        try:
            branch = stack[-1].send(sent)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            sent = done.value
        else:
            stack.append(_chain(procedures, names, *branch))
            sent = None


def chor_enabled(c: cc.Choreography, body=None) -> list:
    """All (action, successor-body) pairs executable up to swapping.

    The successor has the fired action removed at every position where it
    was matched — in both branches when it was pulled out of a
    conditional.  No label is listed twice: once the scan lists an
    action, its processes stay blocked for the rest of the scan.  `body`
    defaults to `c.main`; any other body must use only `c`'s processes,
    as its procedures and every successor listed here do.
    """
    if body is None:
        body = c.main
    return _scan(c.procedures, cc.choreography_process_names(c), body)


# ---------------------------------------------------------------- the check


@dataclass(frozen=True)
class SimBudget:
    """Resource cap for a bisimilarity check.

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
    """Outcome of a bisimilarity check.

    A "no" carries a witness `(action, left, right, side)`: `left` is the
    first argument's configuration and `right` the second's, and `side`
    ("left" or "right") names the one that enables `action`; the other
    does not.  `rewrites` (rewrite steps computed), `scans`
    (`chor_enabled` calls) and `equated` (pairs skipped because the
    union-find already equates their two sides) count the check's work;
    `to_json` leaves them out.
    """

    __slots__ = ("verdict", "pairs_explored", "witness", "rewrites", "scans", "equated")

    def __init__(self, verdict, pairs_explored, witness=None, rewrites=0, scans=0, equated=0):
        assert verdict in ("yes", "no", "exhausted")
        self.verdict = verdict
        self.pairs_explored = pairs_explored
        self.witness = witness
        self.rewrites = rewrites
        self.scans = scans
        self.equated = equated

    def __repr__(self):
        return f"SimResult({self.verdict!r}, pairs={self.pairs_explored})"

    def to_json(self):
        doc = {"verdict": self.verdict, "pairsExplored": self.pairs_explored}
        if self.witness is not None:
            action, left, right, side = self.witness
            doc["witness"] = {
                "action": pretty_action(action),
                "enabledOn": side,
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

    `stamp` is 0 until a `_normalise` call walks the node, then the
    stamp of that call.  `settled` is set once `bisimilar` has met the
    node as a normal form: it is then explored or skipped as equated
    already, and never looked at again.
    """

    __slots__ = ("lconf", "rconf", "stamp", "settled")

    def __init__(self, lconf, rconf):
        self.lconf = lconf
        self.rconf = rconf
        self.stamp = 0
        self.settled = False


class _Graph:
    """The rewrite graph of one `bisimilar` call: its two sides, every
    pair met so far, each interned as one `_Node`, and the number of
    `_normalise` calls and rewrite steps made so far."""

    __slots__ = ("left", "right", "nodes", "calls", "rewrites")

    def __init__(self, left: _Side, right: _Side):
        self.left = left
        self.right = right
        self.nodes = {}
        self.calls = 0
        self.rewrites = 0

    def node(self, lconf, rconf) -> _Node:
        node = self.nodes.get(key := (lconf, rconf))
        if node is None:
            node = self.nodes[key] = _Node(lconf, rconf)
        return node


class _Classes:
    """Union-find over the configurations of a `bisimilar` check.

    Each configuration gets an integer id on first sight; a left and a
    right configuration share ids only when the two sides' procedure
    environments are equal, so an equal tuple is the same state.
    """

    __slots__ = ("left", "right", "parent")

    def __init__(self, shared: bool):
        self.left = {}
        self.right = self.left if shared else {}
        self.parent = []

    def _find(self, ids, config) -> int:
        parent = self.parent
        i = ids.get(config)
        if i is None:
            i = ids[config] = len(parent)
            parent.append(i)
        while (up := parent[i]) != i:
            parent[i] = i = parent[up]  # path halving
        return i

    def merge(self, lconf, rconf) -> bool:
        """Put the two configurations in one class; False if they were."""
        a, b = self._find(self.left, lconf), self._find(self.right, rconf)
        if a == b:
            return False
        self.parent[a] = b
        return True


def _rewrite(graph: _Graph, node: _Node) -> tuple:
    """The nodes that the one rewrite step of `node` leads to.

    Unfold top-level calls if there are any; else strip one pair of
    identical interaction heads if there is one; else split a conditional
    guarded identically on both sides into its then and else pairs.
    """
    graph.rewrites += 1
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
    """Rewrite a pair into the smaller equivalent pairs the check has yet
    to settle.

    Returns a list of nodes: every normal form the walk reaches and
    every node it meets again, each marked by this call.  A node an
    earlier call marked is dropped.  A split's else node waits on a
    stack until its then node is done.
    """
    graph.calls += 1
    stamp = graph.calls
    out = []
    todo = [node]
    while todo:
        node = todo.pop()
        while not node.stamp:
            node.stamp = stamp
            steps = _rewrite(graph, node)
            if not steps:
                break
            if len(steps) == 2:
                todo.append(steps[1])
            node = steps[0]
        if node.stamp == stamp:
            out.append(node)
    return out


def bisimilar(c1, c2, budget: SimBudget = SimBudget()) -> SimResult:
    """Check whether c1 and c2 are bisimilar, in one pass over pairs."""
    left, right = _Side(_components(c1)), _Side(_components(c2))
    classes = _Classes(left.chors == right.chors)
    started = time.perf_counter()
    graph = _Graph(left, right)
    work = deque([(left.initial, right.initial)])
    explored = scans = equated = 0

    def result(verdict, witness=None):
        return SimResult(verdict, explored, witness, graph.rewrites, scans, equated)

    while work:
        if budget.max_millis is not None:
            if (time.perf_counter() - started) * 1000.0 > budget.max_millis:
                return result("exhausted")
        for node in _normalise(graph, graph.node(*work.popleft())):
            if node.settled:
                continue
            node.settled = True
            lconf, rconf = node.lconf, node.rconf
            if not classes.merge(lconf, rconf):
                equated += 1
                continue
            if explored >= budget.max_pairs:
                return result("exhausted")
            explored += 1
            scans += len(lconf) + len(rconf)
            # A program's components have disjoint processes, and
            # `chor_enabled` lists no label twice, so neither does a side.
            rsteps = dict(right.steps(rconf))
            for label, lsucc in left.steps(lconf):
                rsucc = rsteps.pop(label, None)
                if rsucc is None:
                    return result("no", (label, lconf, rconf, "left"))
                work.append((lsucc, rsucc))
            if rsteps:
                return result("no", (next(iter(rsteps)), lconf, rconf, "right"))
    return result("yes")
