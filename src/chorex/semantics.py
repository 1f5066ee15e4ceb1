"""Abstract labelled transitions.

Two labelled transition systems live here:

* `enabled_steps` — abstract reductions of a network and its marking,
  over a `Kernel`: a network or one of its components compiled to
  integer ids, where a state is a tuple of main behaviour ids plus a
  marking bit mask.  A process whose main behaviour is a procedure call
  acts through the head its calls unfold to, which the kernel tabulated
  once per id.  Each step also advances the per-process marking:
  processes that act become marked, and when every live, unmarked,
  non-service process takes part in an action the whole marking is
  erased (services stay marked forever).

  Steps are listed in the units the search tries: `(step,)` for an
  interaction, `(then, else)` for a conditional.  Successors are lazy: a
  step holds its label and the continuation ids of its participants, and
  the search builds its successor state (`Kernel.successor`) only when it
  tries the step.  That replaces one or two entries of the tuple and
  updates the marking and live masks from the participants; nothing is
  rebuilt, rehashed or rescanned over every process.  Units are built
  once per pair of heads and shared by every state that lists them, in
  every search over the same kernel.

* `chor_enabled` — actions of a choreography body executable up to the
  swap relation, computed with a blocked-set scan instead of rewriting:
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

Markings quantify over live processes only: a process that has terminated
can never take part in any action again, so it is exempt both from the
reset condition and from the all-unmarked ("white") test.  Without that
exemption a network that finishes some processes early could never erase
its marking again.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from . import cc, sp


# ------------------------------------------------------------- action labels


@dataclass(frozen=True, slots=True)
class ComAction:
    sender: str
    expr: str
    receiver: str
    var: str


@dataclass(frozen=True, slots=True)
class SelAction:
    sender: str
    receiver: str
    label: str


@dataclass(frozen=True, slots=True)
class ThenAction:
    process: str
    expr: str


@dataclass(frozen=True, slots=True)
class ElseAction:
    process: str
    expr: str


def participants(action) -> tuple:
    """Processes taking part in an action, actor first."""
    match action:
        case ComAction(p, _, q, _) | SelAction(p, q, _):
            return (p, q)
        case ThenAction(p, _) | ElseAction(p, _):
            return (p,)
    raise TypeError(f"not an action: {action!r}")


def pretty_action(action) -> str:
    match action:
        case ComAction(p, e, q, x):
            return f"{p}.{e} -> {q}.{x}"
        case SelAction(p, q, l):
            return f"{p} -> {q}[{l}]"
        case ThenAction(p, e):
            return f"if {p}.{e} then"
        case ElseAction(p, e):
            return f"if {p}.{e} else"
    raise TypeError(f"not an action: {action!r}")


# ------------------------------------------------------- compiled components

# Kinds of head behaviour; a call takes the kind of the head it unfolds
# to, and UNRESOLVED marks a call that unfolds to no head (see `Kernel`).
NIL, SEND, RECEIVE, SELECT, OFFER, COND = range(6)
UNRESOLVED = -1


class Step:
    """One enabled reduction: its label, its participants (process
    indices, actor first), their continuation ids, and two bit masks of
    participants: all of them, and those the step terminates.

    A step depends only on the heads of its participants, so the kernel
    builds it once, in its unit, and every state whose participants have
    those heads lists the same unit.
    """

    __slots__ = ("label", "procs", "conts", "bits", "dead")

    def __init__(self, label, procs: tuple, conts: tuple, kind: list):
        self.label = label
        self.procs = procs
        self.conts = conts
        self.bits = self.dead = 0
        for p, c in zip(procs, conts):
            self.bits |= 1 << p
            if kind[c] == NIL:
                self.dead |= 1 << p

    def __repr__(self):
        return f"Step({pretty_action(self.label)})"


class Kernel:
    """A network or one of its components, compiled for the search.

    Every subterm of every process's main and procedure bodies gets an
    integer id.  Ids are interned bottom-up per process, each subterm
    keyed by its kind, its labels and its kids' ids (hash-consing), so
    structurally equal subterms of one process share an id.  For each id
    the kernel tabulates its head after chasing calls (`head`), the
    head's kind and peer process index (`kind`, `peer`, -1 for no peer
    in the kernel), its node count (`size`) and, for a head, its
    continuation ids (`cont`: one id, the (then, else) pair, or an
    offer's label -> id dict).  A network is compiled whole, once, and
    `split` into component kernels that share these tables, all but
    `peer`, whose indices are local to each component.  Neither the
    tables nor the steps depend on services: `serving` gives a view of a
    kernel with its services, and the whole kernel and its split parts
    stay usable for any number of searches.

    Each index space, the whole kernel and each split part, builds its
    own units (`_pairs`, `_conds`) once per pair of heads and shares them
    with its views: a step holds process indices, so it never crosses
    from one index space to another.

    A search state is a plain tuple: the main behaviour id of each
    process in name order, then the marking as an int bit mask (bit i for
    process i).  The marking holds only live processes, and always every
    live service.  A process is live unless its head is Nil, so the
    search carries the live set of a state beside it as a mask too.

    Heads are chased once every body is interned, a bounded number of
    hops: a call that unfolds to no head (a cycle of bare calls, or an
    undefined procedure) is marked UNRESOLVED, and `enabled_steps`
    raises its error only if a state's main reaches it.
    """

    # Slots, not a dict: a split part and a view are copies, and CPython
    # 3.11 reads the attributes of a copied object's dict about half as
    # fast as those of the object `__init__` built.
    __slots__ = (
        "names", "n", "_index", "terms", "services", "behaviour", "size", "head",
        "kind", "peer", "cont", "ifs", "unresolved", "_memo", "_procedures",
        "_calls", "_pairs", "_conds", "root",
    )

    def __init__(self, net: sp.Network):
        self.names = tuple(net.processes)
        self.n = len(self.names)
        self._index = {p: i for i, p in enumerate(self.names)}
        self.terms = tuple(net.processes.values())
        self.services = 0  # a mask, set by `serving`
        self.behaviour = []  # id -> a behaviour with that id
        self.size = []
        self.head = []
        self.kind = []
        self.peer = []
        self.cont = []
        self.ifs = {}  # id of each body interned -> the conditionals in its tree
        self.unresolved = {}  # id -> the error its unfolding raises
        self._memo = [{} for _ in self.names]  # per process: key -> id (`_intern`)
        self._procedures = []  # per process: procedure name -> id
        self._calls = []  # (process, id) of calls still to chase
        self._pairs = {}  # (actor head, partner head) -> (Step,) or None
        self._conds = {}  # conditional head -> (then Step, else Step)
        mains = []
        for i, term in enumerate(self.terms):
            self._procedures.append({x: self._intern(i, b) for x, b in term.procedures.items()})
            mains.append(self._intern(i, term.main))
        self._resolve()
        self.root = self._state(mains, 0)

    # -- compiling

    def _intern(self, i: int, root: sp.Behaviour) -> int:
        """The id of `root` in process `i`, interning its subterms first.

        One walk in post-order, children left to right (as `term.fold`),
        keys each subterm by a plain tuple of its kind, its label fields
        and its kids' ids, which hashes and compares in C.  Kids are
        interned first, so two subterms of one process get one key, and
        one id, exactly when they are equal.  A new key gets the next id
        and its entries in the tables; `_resolve` then fills in `head`.
        The walk also counts the tree's conditionals, for `node_bound`.
        """
        memo, index, behaviour = self._memo[i], self._index, self.behaviour
        size, kind, peer, cont = self.size, self.kind, self.peer, self.cont
        ifs = 0
        order = []
        stack = [root]
        while stack:
            t = stack.pop()
            order.append(t)
            stack.extend(t.children())
        ids = []  # the ids of the subterms walked whose parent is still to come
        for t in reversed(order):
            typ = type(t)
            if typ is sp.Send:
                key = (SEND, t.to, t.expr, ids.pop())
            elif typ is sp.Receive:
                key = (RECEIVE, t.frm, t.var, ids.pop())
            elif typ is sp.Select:
                key = (SELECT, t.to, t.label, ids.pop())
            elif typ is sp.Cond:
                orelse = ids.pop()
                key = (COND, t.expr, ids.pop(), orelse)
                ifs += 1
            elif typ is sp.Offer:
                n = len(t.branches)
                key = (OFFER, t.frm, tuple([l for l, _ in t.branches]), *ids[-n:])
                del ids[-n:]
            elif typ is sp.Call:
                key = (UNRESOLVED, t.name)
            else:
                key = (NIL,)
            x = memo.get(key)
            if x is None:
                x = memo[key] = len(behaviour)
                k = key[0]
                behaviour.append(t)
                size.append(t.size)
                kind.append(k)
                if k == OFFER:
                    cont.append(dict(zip(key[2], key[3:])))
                elif k == COND:
                    cont.append(key[2:])
                else:  # one kid, or none for Nil and a call
                    cont.append(key[3] if len(key) == 4 else None)
                peer.append(index.get(key[1], -1) if SEND <= k <= OFFER else -1)
                if k == UNRESOLVED:  # a call, until `_resolve` chases it
                    self._calls.append((i, x))
            ids.append(x)
        self.ifs[ids[0]] = ifs  # the walk met every node of the tree, shared or not
        return ids[0]

    def _resolve(self):
        """Chase every new call to its head, as `ProcessTerm.head_behaviour`
        does: at most one hop per procedure of the process.  Every other
        new id is its own head."""
        behaviour = self.behaviour
        self.head.extend(range(len(self.head), len(behaviour)))
        for i, x in self._calls:
            procedures = self._procedures[i]
            b = x
            hops = 0
            while type(behaviour[b]) is sp.Call:
                hops += 1
                name = behaviour[b].name
                if hops > len(procedures):
                    self.unresolved[x] = AssertionError(
                        f"unguarded recursion while unfolding {behaviour[x]!r}"
                    )
                    break
                if name not in procedures:
                    self.unresolved[x] = KeyError(name)
                    break
                b = procedures[name]
            else:
                self.head[x] = b
                self.kind[x] = self.kind[b]
                self.peer[x] = self.peer[b]
        self._calls.clear()

    def node_bound(self) -> int:
        """Upper bound on the distinct node identities of a search from
        the root: 2^processes times the product of the process terms'
        sizes times 2^conditionals, over all main and procedure bodies,
        read off the `size` and `ifs` of their ids."""
        product, total = 1, 0
        for i, main in enumerate(self.root[: self.n]):
            ids = [main, *self._procedures[i].values()]
            product *= sum(self.size[x] for x in ids)
            total += sum(self.ifs[x] for x in ids)
        return 2**self.n * product * 2**total

    # -- components

    def communication_graph(self) -> dict:
        """Undirected adjacency over names: p—q iff a body of either
        communicates with the other, read off the `peer` of their ids."""
        names, peer = self.names, self.peer
        adjacency = {p: set() for p in names}
        for i, memo in enumerate(self._memo):
            for j in set(map(peer.__getitem__, memo.values())):
                if j >= 0 and j != i:
                    adjacency[names[i]].add(names[j])
                    adjacency[names[j]].add(names[i])
        return adjacency

    def split(self, groups: list) -> list:
        """A kernel per group of names, for the components of
        `communication_graph` in name order.

        Each shares the interned tables, as ids are disjoint per process
        and a step's processes lie in one group, and has its own processes
        in name order, services, root and unit memos.  With two or more
        groups, the parts read a new `peer` list of indices within each
        group, and this kernel keeps its own: it stays whole.  Only the
        whole kernel interns (`state`); the parts read the ids it
        compiled."""
        if len(groups) == 1:
            return [self]
        local = {self._index[p]: li for names in groups for li, p in enumerate(names)}
        local[-1] = -1  # no peer stays no peer
        peer = [local[j] for j in self.peer]
        parts = []
        for names in groups:
            at = [self._index[p] for p in names]
            part = copy.copy(self)
            part.names, part.n = tuple(names), len(names)
            part._index = {p: li for li, p in enumerate(names)}
            part.terms = [self.terms[g] for g in at]
            part._memo = [self._memo[g] for g in at]
            part._procedures = [self._procedures[g] for g in at]
            part.peer = peer
            part._pairs, part._conds = {}, {}
            part.services = sum((self.services >> g & 1) << li for li, g in enumerate(at))
            part.root = part._state([self.root[g] for g in at], 0)
            parts.append(part)
        return parts

    def serving(self, services) -> Kernel:
        """A view of this kernel with the processes `services`, those of
        them it has, as its services: a copy with its own services mask
        and root, sharing every table and unit memo."""
        view = copy.copy(self)
        view.services = sum(1 << i for i, p in enumerate(self.names) if p in services)
        view.root = view._state(self.root[: self.n], 0)
        return view

    # -- states

    def _state(self, ids: list, marked: int) -> tuple:
        return (*ids, (marked | self.services) & self.live(ids))

    def state(self, net: sp.Network, marked=frozenset()) -> tuple:
        """The state of `net`, a network over the same processes and
        procedures, with the processes `marked` marked (and the live
        services)."""
        ids = [self._intern(i, net[p].main) for i, p in enumerate(self.names)]
        self._resolve()
        return self._state(ids, sum(1 << self._index[p] for p in marked))

    def live(self, state) -> int:
        """The mask of live processes of a state."""
        kind = self.kind
        return sum(1 << i for i in range(self.n) if kind[state[i]] != NIL)

    def white(self, state) -> bool:
        """True iff no live non-service process is marked."""
        return not state[-1] & ~self.services

    def terminal(self, state) -> bool:
        """True iff every non-service process has terminated.

        Services are allowed to keep spinning; a network where only
        services can still act counts as successfully terminated.
        """
        return not self.live(state) & ~self.services

    def successor(self, state: tuple, live: int, step: Step) -> tuple:
        """The state after `step`, and its live mask, from a state and its
        live mask.

        Only the participants' entries change.  The marking is erased
        when the participants are all the live, unmarked processes there
        are (the marking holds every live service, so those are never
        waiting); otherwise the participants join it.  Terminated
        processes leave it either way.
        """
        out = list(state)
        for p, c in zip(step.procs, step.conts):
            out[p] = c
        after = live & ~step.dead
        marked = state[-1]
        if live & ~(marked | step.bits):
            out[-1] = (marked | step.bits) & after
        else:
            out[-1] = self.services & after
        return tuple(out), after

    # -- back to terms

    def network(self, state) -> sp.Network:
        return sp.Network(
            {
                p: sp.ProcessTerm(term.procedures, self.behaviour[x])
                for p, term, x in zip(self.names, self.terms, state)
            }
        )

    def marked(self, state) -> frozenset:
        mask = state[-1]
        return frozenset(p for i, p in enumerate(self.names) if mask >> i & 1)

    # -- steps

    def _interaction(self, i: int, j: int, hx: int, hy: int):
        """The unit of the step of process `i` with head `hx`, a send or a
        selection, and process `j` with head `hy`, the matching receive or
        offer; None if an offer lacks the selected label."""
        b, c = self.behaviour[hx], self.behaviour[hy]
        p, q = self.names[i], self.names[j]
        if type(b) is sp.Send:
            label, k = ComAction(p, b.expr, q, c.var), self.cont[hy]
        else:
            label, k = SelAction(p, q, b.label), self.cont[hy].get(b.label)
        unit = None if k is None else (Step(label, (i, j), (self.cont[hx], k), self.kind),)
        self._pairs[hx, hy] = unit
        return unit

    def _conditional(self, i: int, h: int) -> tuple:
        """The unit of process `i`'s conditional head `h`: its then step,
        then its else step."""
        b = self.behaviour[h]
        p = self.names[i]
        then, orelse = self.cont[h]
        pair = self._conds[h] = (
            Step(ThenAction(p, b.expr), (i,), (then,), self.kind),
            Step(ElseAction(p, b.expr), (i,), (orelse,), self.kind),
        )
        return pair


_UNSEEN = object()


def enabled_steps(kernel: Kernel, state: tuple) -> list:
    """All abstract reductions available from a state, as the units the
    search tries: `(step,)` for an interaction, `(then, else)` for a
    conditional.

    Units are listed by actor in name order (the sender or selector of an
    interaction, the process of a conditional), in a new list each call.
    No successor is built here: see `Kernel.successor`.
    """
    kind, peer, head = kernel.kind, kernel.peer, kernel.head
    pairs, conds = kernel._pairs, kernel._conds
    units = []
    for i in range(kernel.n):
        x = state[i]
        k = kind[x]
        if k == SEND or k == SELECT:
            j = peer[x]
            if j < 0:
                continue
            y = state[j]
            # RECEIVE and OFFER follow SEND and SELECT.
            if peer[y] != i or kind[y] != k + 1:
                continue
            key = (head[x], head[y])
            unit = pairs.get(key, _UNSEEN)
            if unit is _UNSEEN:
                unit = kernel._interaction(i, j, *key)
            if unit is not None:
                units.append(unit)
        elif k == COND:
            h = head[x]
            units.append(conds.get(h) or kernel._conditional(i, h))
        elif k == UNRESOLVED:
            raise kernel.unresolved[x]
    return units


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
