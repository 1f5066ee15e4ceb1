"""Slow reference implementations used to cross-check the engine.

Nothing here shares code with the search in `chorex.extraction`: the
network semantics steps terms by the definition (`AnnotatedNetwork`,
`reference_steps`), where the engine steps integer states compiled by
`semantics.Kernel`; the graph search is a plain existential recursion
that tries every alternative instead of pruning, and its loop test is a
literal scan of the closing segment for a white node.  Disagreements
with the engine are findings, not test bugs.  The bisimilarity checker's
pair rewriting has an oracle here too: `reference_normalise` rewrites
every pair from scratch, and `reference_bisimilar` judges verdicts the
way the checker did before it stopped at settled pairs: one simulation
pass per direction, with no union-find.  `reference_epp`
projects one process at a time by plain recursion, with its own merge.
`node_bound` bounds a search's node identities by walking every
subterm, and `identities` counts a finished search's from its graph's
columns and deleted keys.  `reference_components` splits a network by
walking every subterm for the peers `Kernel.split` reads off its peer
table, and `reference_loop_target` finds a loop target by
the definition, among all the graph's nodes, where the engine looks
among the open ones.  `reference_read_off` names loop nodes by a walk
from the root and reads the graph off by post-order walks of its own,
where the engine sweeps the nodes in creation order.
`reference_deadlock_remainders` rebuilds each deadlock leaf's whole
network and keeps the terms that are `live`, where the engine reads the
stuck set off the kernel's live mask.  `reference_compile` interns a
network by `term.fold`, keyed by each subterm's type, label and kids'
ids, where the kernel walks each body once with a hand-written stack.
Two small helpers serve the tests that step a kernel by hand:
`marked_root` marks processes in a kernel's root state, and
`participants` lists the processes of an action.
"""

from __future__ import annotations

import sys
from collections import deque

from chorex import cc, sp
from chorex.cc import Call, Com, Cond, Sel
from chorex.epp import epp
from chorex.equiv import chor_enabled
from chorex.semantics import (
    COND, NIL, OFFER, RECEIVE, SELECT, SEND, UNRESOLVED,
    ComAction, ElseAction, SelAction, ThenAction,
)
from chorex.term import fold


def live(term: sp.ProcessTerm) -> bool:
    """True unless the process has terminated: its head, calls chased,
    is Nil."""
    return not isinstance(term.head_behaviour(), sp.Nil)


class AnnotatedNetwork:
    """A network plus its marking, on terms.

    `live` is the set of processes that have not terminated.  `marked`
    only ever contains live processes (dead ones are scrubbed on
    construction so that structurally equal states compare equal), and
    always every live service; `services` are the processes that count as
    permanently marked and are exempt from the termination test.
    """

    __slots__ = ("net", "live", "marked", "services")

    def __init__(self, net: sp.Network, marked: frozenset, services: frozenset):
        self.net = net
        self.live = frozenset(p for p, t in net.processes.items() if live(t))
        self.marked = frozenset((marked | services) & self.live)
        self.services = services

    def __eq__(self, other):
        return (
            type(other) is AnnotatedNetwork
            and self.marked == other.marked
            and self.services == other.services
            and self.net == other.net
        )

    def __hash__(self):
        return hash((self.net, self.marked, self.services))

    @property
    def white(self) -> bool:
        """True iff no live non-service process is marked."""
        return self.marked <= self.services

    @property
    def terminal(self) -> bool:
        """True iff every non-service process has terminated."""
        return self.live <= self.services

    def __repr__(self):
        return f"AnnotatedNetwork({self.net!r}, marked={sorted(self.marked)})"


def marked_root(kernel, marked) -> int:
    """`kernel`'s root state with the live processes of `marked` marked too."""
    bits = sum(1 << kernel.names.index(p) for p in marked)
    return kernel.root | bits & kernel._live[kernel.root >> kernel.n]


def annotate(net: sp.Network, services=frozenset()) -> AnnotatedNetwork:
    """Initial annotation: everything unmarked except services."""
    return AnnotatedNetwork(net, frozenset(), frozenset(services))


def participants(action) -> tuple:
    """Processes taking part in an action, actor first."""
    match action:
        case ComAction(p, _, q, _) | SelAction(p, q, _):
            return (p, q)
        case ThenAction(p, _) | ElseAction(p, _):
            return (p,)
    raise TypeError(f"not an action: {action!r}")


class ReferenceStep:
    """An enabled reduction on terms: its label and its successor."""

    __slots__ = ("label", "successor")

    def __init__(self, label, successor: AnnotatedNetwork):
        self.label = label
        self.successor = successor


def _reference_successor(an: AnnotatedNetwork, label, conts) -> AnnotatedNetwork:
    """The participants move on to `conts`, every term rebuilt.  The
    marking is erased if every live unmarked process took part, and grows
    by the participants otherwise."""
    touched = participants(label)
    net = an.net
    updates = {p: sp.ProcessTerm(net[p].procedures, b) for p, b in zip(touched, conts)}
    waiting = an.live - an.marked
    marked = frozenset() if waiting <= set(touched) else an.marked | set(touched)
    return AnnotatedNetwork(net.replace(updates), marked, an.services)


def reference_steps(an: AnnotatedNetwork) -> list:
    """Every reduction of an annotated network, processes in name order,
    a conditional's Then step right before its Else step."""
    procs = an.net.processes
    steps = []
    for p, term in procs.items():
        match term.head_behaviour():
            case sp.Send(q, e, k) if q in procs:
                match procs[q].head_behaviour():
                    case sp.Receive(frm, x, kq) if frm == p:
                        steps.append((ComAction(p, e, q, x), (k, kq)))
            case sp.Select(q, l, k) if q in procs:
                match procs[q].head_behaviour():
                    case sp.Offer(frm, branches) if frm == p and l in dict(branches):
                        steps.append((SelAction(p, q, l), (k, dict(branches)[l])))
            case sp.Cond(e, then, orelse):
                steps.append((ThenAction(p, e), (then,)))
                steps.append((ElseAction(p, e), (orelse,)))
    return [
        ReferenceStep(label, _reference_successor(an, label, conts))
        for label, conts in steps
    ]


def _units(steps):
    units = []
    i = 0
    while i < len(steps):
        if isinstance(steps[i].label, ThenAction):
            assert isinstance(steps[i + 1].label, ElseAction)
            units.append((steps[i], steps[i + 1]))
            i += 2
        else:
            units.append((steps[i],))
            i += 1
    return units


def valid_graph_exists(net, services=frozenset()) -> bool:
    """Existential search for a valid execution graph, no pruning.

    Where the engine gives up on the first dead end (and justifies that
    by confluence of the abstract reductions), this search tries every
    unit at every node and only answers False when all of them lose.  A
    cycle may only close at an ancestor holding the same state under a
    compatible branch history, and is accepted when the closing segment
    contains a node with an empty marking.
    """
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))
    root = annotate(net, frozenset(services))

    def follow(an, path, spine):
        for i, (a, p, _) in enumerate(spine):
            if a == an and path.startswith(p):
                return any(white for _, _, white in spine[i:])
        return search(an, path, spine + [(an, path, an.white)])

    def search(an, path, spine):
        steps = reference_steps(an)
        if not steps:
            return True  # terminated or stuck: both are completed leaves
        for unit in _units(steps):
            if len(unit) == 1:
                ok = follow(unit[0].successor, path, spine)
            else:
                ok = follow(unit[0].successor, path + "0", spine) and follow(
                    unit[1].successor, path + "1", spine
                )
            if ok:
                return True
        return False

    return search(root, "", [(root, "", root.white)])


def reference_loop_target(seg, state: int, path: str):
    """The node id of `seg` that a step to `state` under the choice path
    `path` closes a loop onto, if any: the one node with that state whose
    path is a prefix of `path`."""
    targets = [
        node
        for node, (s, p) in enumerate(zip(seg.state, seg.path))
        if s == state and path.startswith(p)
    ]
    assert len(targets) <= 1, "duplicate loop candidates"
    return targets[0] if targets else None


def reference_read_off(seg) -> tuple:
    """The loop nodes of an accepted graph, named by node id, and its
    choreography, by a walk from the root (node 0): (names, choreography).

    Loop nodes (more than one incoming edge, or the root with any) are
    named X1, X2, … in depth-first discovery order from the root, edges
    left to right.  Each loop node's body, and the root's, is then read
    off by one post-order walk over the graph below it, with the edges
    into loop nodes cut into calls; the walk from the root asserts that
    every node is reachable.  The engine names loop nodes in creation
    order and reads the graph off in one sweep, newest first.
    """
    indegree = {}
    for node in range(len(seg.state)):
        for _, dst in seg.edges(node):
            indegree[dst] = indegree.get(dst, 0) + 1
    names = {}
    visited = set()
    frontier = [0]  # the root
    while frontier:
        node = frontier.pop()
        if node in visited:
            continue
        visited.add(node)
        if indegree.get(node, 0) > (0 if node == 0 else 1):
            names[node] = f"X{len(names) + 1}"
        frontier.extend(dst for _, dst in reversed(seg.edges(node)))
    assert len(visited) == len(seg.state), "unreachable nodes survive"

    def children(target):
        if type(target) is str:
            return ()
        return [names.get(dst, dst) for _, dst in seg.edges(target)]

    def read(target, conts):
        if type(target) is str:
            return Call(target)
        es = seg.edges(target)
        if not es:
            return cc.DEADLOCK if target in seg.deadlocks else cc.NIL
        match es[0][0]:
            case ComAction(p, e, q, x):
                return Com(p, e, q, x, *conts)
            case SelAction(p, q, l):
                return Sel(p, q, l, *conts)
            case ThenAction(p, e):
                return Cond(p, e, *conts)
        raise AssertionError(f"unexpected edge label {es[0][0]!r}")

    def body(root):
        # Post-order, children left to right: a walk that takes the last
        # edge first, reversed.
        order, stack = [], [root]
        while stack:
            target = stack.pop()
            kids = children(target)
            order.append((target, len(kids)))
            stack.extend(kids)
        out = []
        for target, arity in reversed(order):
            conts = out[len(out) - arity :]
            del out[len(out) - arity :]
            out.append(read(target, conts))
        return out[0]

    procedures = {name: body(node) for node, name in names.items()}
    main = body(names.get(0, 0))
    return names, cc.Choreography(procedures, main)


def chor_action_labels(c: cc.Choreography, body=None):
    """Actions of a choreography body, as a set of labels."""
    return {action for action, _ in chor_enabled(c, body)}


def network_action_labels(an):
    """Actions of an annotated network, as a set of labels."""
    return {step.label for step in reference_steps(an)}


def compare_chor_vs_network(c: cc.Choreography, depth: int, rng):
    """Walk a projectable choreography and its projection side by side.

    At every state the set of actions the choreography offers (up to
    swapping) must equal the set its projected network can fire.  One
    common action is then chosen at random and both sides advance.
    Returns the number of states compared.
    """
    body = c.main
    an = annotate(epp(c))
    compared = 0
    for _ in range(depth):
        chor_steps = chor_enabled(c, body)
        chor_labels = {action for action, _ in chor_steps}
        net_labels = network_action_labels(an)
        assert chor_labels == net_labels, (
            f"choreography offers {sorted(map(str, chor_labels))} but its "
            f"projection offers {sorted(map(str, net_labels))}"
        )
        compared += 1
        if not chor_labels:
            break
        picked = rng.choice(sorted(chor_steps, key=lambda s: str(s[0])))
        action, body = picked
        (net_succ,) = [s.successor for s in reference_steps(an) if s.label == action]
        an = net_succ
    return compared


def _action_of_head(body):
    match body:
        case cc.Com(p, e, q, x, cont):
            return ComAction(p, e, q, x), cont
        case cc.Sel(p, q, l, cont):
            return SelAction(p, q, l), cont
    return None, None


def _scan(procedures: dict, body, blocked: frozenset, visiting: frozenset):
    """Reference scan: every action of `body` whose processes are not
    blocked, by plain structural recursion over the whole body.

    `visiting` holds (procedure, blocked) pairs on the current unfolding
    spine; revisiting one would rescan the same body under the same
    constraints and can be cut off.
    """
    match body:
        case cc.Nil() | cc.Deadlock():
            return []
        case cc.Call(x):
            key = (x, blocked)
            if key in visiting:
                return []
            return _scan(procedures, procedures[x], blocked, visiting | {key})
        case cc.Com(p, _, q, _, cont) | cc.Sel(p, q, _, cont):
            action, cont = _action_of_head(body)
            out = []
            if p not in blocked and q not in blocked:
                out.append((action, cont))
            inner_blocked = blocked | {p, q}
            rebuild = (
                (lambda c: cc.Com(body.sender, body.expr, body.receiver, body.var, c))
                if isinstance(body, cc.Com)
                else (lambda c: cc.Sel(body.sender, body.receiver, body.label, c))
            )
            for a, succ in _scan(procedures, cont, inner_blocked, visiting):
                out.append((a, rebuild(succ)))
            return out
        case cc.Cond(p, e, then, orelse):
            out = []
            if p not in blocked:
                out.append((ThenAction(p, e), then))
                out.append((ElseAction(p, e), orelse))
            inner_blocked = blocked | {p}
            then_res = _scan(procedures, then, inner_blocked, visiting)
            else_res = {}
            for a, succ in _scan(procedures, orelse, inner_blocked, visiting):
                else_res.setdefault(a, succ)
            for a, then_succ in then_res:
                if a in else_res:
                    out.append((a, cc.Cond(p, e, then_succ, else_res[a])))
            return out
    raise TypeError(f"not a choreography body: {body!r}")


def reference_chor_enabled(c: cc.Choreography, body=None) -> list:
    """`equiv.chor_enabled` as a recursive scan to the end of every
    branch: the same list, in the same order, for bodies of at most a few
    hundred actions."""
    if body is None:
        body = c.main
    out = []
    seen = set()
    for action, succ in _scan(c.procedures, body, frozenset(), frozenset()):
        if action not in seen:
            seen.add(action)
            out.append((action, succ))
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


def reference_normalise(left, right, pair):
    """Rewrite a pair into zero or more smaller equivalent pairs.

    Returns a list of pairs.  A split's else pair waits on a stack until
    its then pair is done, and one seen-set for all of them guards
    against cycling through unfold/strip on self-similar loops.

    `equiv._normalise` as it was before the rewrite graph: every call
    rewrites from an empty seen-set, with nothing shared between calls.
    `left` and `right` need only a `chors` tuple each.
    """
    out = []
    seen = set()
    todo = [pair]
    while todo:
        lconf, rconf = todo.pop()
        while (key := (lconf, rconf)) not in seen:
            seen.add(key)
            lconf, lch = _unfold_top(left.chors, lconf)
            rconf, rch = _unfold_top(right.chors, rconf)
            if lch or rch:
                continue
            # Strip one pair of identical interaction heads if there is
            # one, else split a conditional guarded identically on both
            # sides and go on with its then pair.
            found = _same_head(lconf, rconf, (Com, Sel)) or _same_head(lconf, rconf, (Cond,))
            if found is None:
                break
            i, j = found
            lkids, rkids = lconf[i].children(), rconf[j].children()
            if len(lkids) == 2:
                todo.append(
                    (
                        lconf[:i] + (lkids[1],) + lconf[i + 1 :],
                        rconf[:j] + (rkids[1],) + rconf[j + 1 :],
                    )
                )
            lconf = lconf[:i] + (lkids[0],) + lconf[i + 1 :]
            rconf = rconf[:j] + (rkids[0],) + rconf[j + 1 :]
        out.append((lconf, rconf))
    return out


class _ReferenceSide:
    """One side of a reference check: its procedure environments, one
    choreography per component, and the steps of a configuration."""

    def __init__(self, thing):
        self.chors = tuple(thing.components) if isinstance(thing, cc.Program) else (thing,)

    def steps(self, config):
        return [
            (label, config[:i] + (succ,) + config[i + 1 :])
            for i, body in enumerate(config)
            for label, succ in reference_chor_enabled(self.chors[i], body)
        ]


def _reference_simulate(left, right, max_pairs):
    envs_equal = left.chors == right.chors
    work = deque([(tuple(c.main for c in left.chors), tuple(c.main for c in right.chors))])
    settled = set()
    explored = 0
    while work:
        if explored >= max_pairs:
            return "exhausted"
        for pair in reference_normalise(left, right, work.popleft()):
            if pair in settled:
                continue
            settled.add(pair)
            lconf, rconf = pair
            if envs_equal and lconf == rconf:
                continue
            explored += 1
            rsteps = dict(right.steps(rconf))
            for label, lsucc in left.steps(lconf):
                if label not in rsteps:
                    return "no"
                work.append((lsucc, rsteps[label]))
    return "yes"


def reference_bisimilar(c1, c2, max_pairs: int) -> str:
    """The verdict of `equiv.bisimilar` under a pair budget, by the
    two-direction worklist `equiv` ran before it stopped at settled
    pairs: every pair normalised from scratch by `reference_normalise`,
    every action listed by `reference_chor_enabled`, no union-find,
    nothing shared between calls or with `equiv`.  It explores the pairs
    `equiv` used to explore, and `max_pairs` bounds each direction, so
    it can run out of pairs where the one pass of `equiv.bisimilar`
    decides."""
    a, b = _ReferenceSide(c1), _ReferenceSide(c2)
    forward = _reference_simulate(a, b, max_pairs)
    if forward == "no":
        return "no"
    backward = _reference_simulate(b, a, max_pairs)
    if backward == "no":
        return "no"
    return "yes" if forward == backward == "yes" else "exhausted"


class ReferenceMergeFailure(Exception):
    """Where and between which two behaviours a reference merge failed."""

    def __init__(self, location, left, right):
        super().__init__(location)
        self.location = location
        self.left = left
        self.right = right


class _Clash(Exception):
    pass


def _reference_merge(a, b):
    """Merge two behaviours by recursion, children left to right and offer
    labels in sorted order; raises _Clash with the first pair that
    differs in its head."""
    if type(a) is sp.Offer and type(b) is sp.Offer and a.frm == b.frm:
        left, right = dict(a.branches), dict(b.branches)
        merged = {}
        for label in sorted(left.keys() | right.keys()):
            if label in left and label in right:
                merged[label] = _reference_merge(left[label], right[label])
            else:
                merged[label] = left.get(label) or right[label]
        return sp.Offer(a.frm, merged)
    if type(a) is not type(b) or a._label() != b._label():
        raise _Clash(a, b)
    kids = [_reference_merge(x, y) for x, y in zip(a.children(), b.children())]
    return a.rebuild(kids) if kids else a


def _reference_project(body, r):
    """Project `body` onto `r`; branches are projected then before else,
    and a conditional merges after both, so the first failure raised is
    the first in post-order."""
    match body:
        case cc.Nil():
            return sp.NIL
        case cc.Call(x):
            return sp.Call(x)
        case cc.Com(p, e, q, x, cont):
            k = _reference_project(cont, r)
            if r == p:
                return sp.Send(q, e, k)
            return sp.Receive(p, x, k) if r == q else k
        case cc.Sel(p, q, label, cont):
            k = _reference_project(cont, r)
            if r == p:
                return sp.Select(q, label, k)
            return sp.Offer(p, {label: k}) if r == q else k
        case cc.Cond(p, e, then, orelse):
            t = _reference_project(then, r)
            f = _reference_project(orelse, r)
            if r == p:
                return sp.Cond(e, t, f)
            try:
                return _reference_merge(t, f)
            except _Clash as clash:
                left, right = clash.args
                where = f"process {r} at conditional on {p}.{e}"
                raise ReferenceMergeFailure(where, left, right) from None
    raise TypeError(f"not a projectable body: {body!r}")


def _dead_procedures(procedures: dict) -> set:
    """Procedures that reach themselves through bare calls alone."""
    dead = set()
    for name in procedures:
        seen = set()
        body = procedures[name]
        while type(body) is sp.Call and body.name not in seen:
            if body.name == name:
                dead.add(name)
                break
            seen.add(body.name)
            body = procedures.get(body.name)
    return dead


def reference_epp(c: cc.Choreography) -> sp.Network:
    """Project `c` onto each of its processes in name order, each body
    (procedures by name, then main) on its own.

    Raises ReferenceMergeFailure for the first conditional that does not
    project.  Recursion depth grows with the length of a body, so the
    recursion limit is raised for the call and restored after it.
    """
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 50_000))
    try:
        universe = set()
        for body in (c.main, *c.procedures.values()):
            for node in _nodes(body):
                if isinstance(node, (cc.Com, cc.Sel)):
                    universe |= {node.sender, node.receiver}
                elif isinstance(node, cc.Cond):
                    universe.add(node.process)
        terms = {}
        for r in sorted(universe):
            procedures = {x: _reference_project(b, r) for x, b in c.procedures.items()}
            main = _reference_project(c.main, r)
            for x in _dead_procedures(procedures):
                procedures[x] = sp.NIL
            terms[r] = sp.ProcessTerm(procedures, main)
        return sp.Network(terms)
    finally:
        sys.setrecursionlimit(limit)


def _nodes(body):
    stack = [body]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def node_bound(net: sp.Network) -> int:
    """Upper bound on distinct node identities for one component:
    2^processes times the product of the process terms' sizes times
    2^conditionals, over all main and procedure bodies."""
    conds = 0
    product = 1
    for term in net.processes.values():
        bodies = [term.main, *term.procedures.values()]
        product *= sum(body.size for body in bodies)
        for body in bodies:
            conds += sum(type(node) is sp.Cond for node in _nodes(body))
    return 2 ** len(net.processes) * product * 2**conds


def identities(seg) -> int:
    """How many distinct (state, path) identities the nodes of `seg`, an
    `extraction.Seg`, were ever created with, surviving or deleted."""
    live = set(zip(seg.state, seg.path))
    assert len(live) == len(seg.state), "node identity created twice"
    return len(live | seg._deleted_keys)


def reference_components(net: sp.Network) -> list:
    """Communication-graph components as sorted name lists, ordered by
    smallest member: p—q iff a communication constructor anywhere in
    either's main or procedure bodies names the other."""
    adjacency = {p: set() for p in net.processes}
    for p, term in net.processes.items():
        for body in [term.main, *term.procedures.values()]:
            for node in _nodes(body):
                q = node.peer
                if q is not None and q != p and q in adjacency:
                    adjacency[p].add(q)
                    adjacency[q].add(p)
    seen = set()
    out = []
    for start in sorted(adjacency):
        if start not in seen:
            comp, frontier = set(), [start]
            while frontier:
                p = frontier.pop()
                if p not in comp:
                    comp.add(p)
                    frontier.extend(adjacency[p])
            seen |= comp
            out.append(sorted(comp))
    return out


def reference_deadlock_remainders(result) -> list:
    """`ExtractionResult.deadlock_remainders` by the definition: for each
    deadlock leaf of each component, oldest first, its whole network
    rebuilt, less the terms that have terminated and the services."""
    return [
        {
            p: t
            for p, t in c.seg.kernel.network(c.seg.state[node]).processes.items()
            if live(t) and p not in c.services
        }
        for c in result.components
        for node in sorted(c.seg.deadlocks)
    ]


_KINDS = {sp.Nil: NIL, sp.Send: SEND, sp.Receive: RECEIVE, sp.Select: SELECT,
          sp.Offer: OFFER, sp.Cond: COND, sp.Call: UNRESOLVED}


def reference_compile(net: sp.Network) -> dict:
    """The tables `semantics.Kernel` compiles `net` to, by `term.fold`:
    per process, in name order, its procedure bodies in name order and
    then its main are folded, and each subterm, keyed by its type, its
    label and its kids' ids, gets the next id if its key is new to the
    process.  A call's head is the body its `sp.call_chain` ends at, if
    that is defined and no call, and the call itself otherwise; its kind
    and peer are its head's, or UNRESOLVED and -1 with no head.  Returns
    the name -> list of `behaviour`, `size`, `kind`, `peer`, `cont` and
    `head`, and `mains`, each process's main id."""
    names = list(net.processes)
    behaviour, kids, mains, heads = [], [], [], []
    for term in net.processes.values():
        memo = {}

        def intern(t, results):
            key = (type(t), t._label(), tuple(results))
            if key not in memo:
                memo[key] = len(behaviour)
                behaviour.append(t)
                kids.append(key[2])
            return memo[key]

        procedures = {x: fold(body, intern) for x, body in term.procedures.items()}
        mains.append(fold(term.main, intern))
        for x in range(len(heads), len(behaviour)):
            head = x
            if type(behaviour[x]) is sp.Call:
                last = sp.call_chain(term.procedures, behaviour[x].name)[-1]
                if last in procedures and type(term.procedures[last]) is not sp.Call:
                    head = procedures[last]
            heads.append(head)
    kind, peer, cont = [], [], []
    for x, t in enumerate(behaviour):
        h = behaviour[heads[x]]
        kind.append(_KINDS[type(h)])
        peer.append(names.index(h.peer) if h.peer in names else -1)
        if type(t) is sp.Offer:
            cont.append(dict(zip([l for l, _ in t.branches], kids[x])))
        elif type(t) is sp.Cond:
            cont.append(kids[x])
        else:
            cont.append(kids[x][0] if kids[x] else None)
    return {
        "behaviour": behaviour, "size": [t.size for t in behaviour], "kind": kind,
        "peer": peer, "cont": cont, "head": heads, "mains": mains,
    }
