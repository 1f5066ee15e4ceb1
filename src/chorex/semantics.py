"""Abstract labelled transitions.

Two labelled transition systems live here:

* `enabled_steps` — abstract reductions of annotated networks.  A process
  whose main behaviour is a procedure call is head-unfolded only when that
  lets an action fire, and the unfolding is materialized only in the
  successor of the step that consumed it.  Each step also advances the
  per-process marking: processes that act become marked, and when every
  live, unmarked, non-service process takes part in an action the whole
  marking is erased (services stay marked forever).

  Successors are lazy: a step is listed with its label and the
  continuations of its one or two participants, and its successor state
  is built when the search first asks for it.  An annotated network
  carries its live set, so building a successor touches only the
  participants: their terms, the network hash, the live set and the
  marking are all updated from them; nothing is re-sorted, rehashed or
  rescanned over every process.

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


# -------------------------------------------------------- annotated networks


class AnnotatedNetwork:
    """A network plus its marking.

    `live` is the set of processes that have not terminated.  `marked`
    only ever contains live processes (dead ones are scrubbed on
    construction so that structurally equal states compare equal);
    `services` are the processes that count as permanently marked and are
    exempt from the termination test.
    """

    __slots__ = ("net", "live", "marked", "services", "_hash")

    def __init__(self, net: sp.Network, marked: frozenset, services: frozenset):
        live = frozenset(p for p, t in net.processes.items() if t.is_live())
        self._init(net, live, frozenset((marked | services) & live), services)

    def _init(self, net, live, marked, services):
        self.net = net
        self.live = live
        self.marked = marked
        self.services = services
        self._hash = hash((net._hash, marked, services))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not AnnotatedNetwork or self._hash != other._hash:
            return False
        return (
            self.marked == other.marked
            and self.services == other.services
            and self.net == other.net
        )

    def __hash__(self):
        return self._hash

    @property
    def white(self) -> bool:
        """True iff no live non-service process is marked."""
        return self.marked <= self.services

    @property
    def terminal(self) -> bool:
        """True iff every non-service process has terminated.

        Services are allowed to keep spinning; a network where only
        services can still act counts as successfully terminated.
        """
        return self.live <= self.services

    def __repr__(self):
        return f"AnnotatedNetwork({self.net!r}, marked={sorted(self.marked)})"


def annotate(net: sp.Network, services=frozenset()) -> AnnotatedNetwork:
    """Initial annotation: everything unmarked except services."""
    return AnnotatedNetwork(net, frozenset(), frozenset(services))


class Step:
    """One enabled reduction: its label, and its successor built on demand.

    Until `successor` is first read, a step holds only the state it leaves
    and the continuations of its participants (actor first).  The first
    read builds the successor from those one or two processes alone,
    caches it, and drops the inputs.
    """

    __slots__ = ("label", "_source", "_conts", "_successor")

    def __init__(self, label, source: AnnotatedNetwork, conts: tuple):
        self.label = label
        self._source = source
        self._conts = conts
        self._successor = None

    @property
    def successor(self) -> AnnotatedNetwork:
        succ = self._successor
        if succ is None:
            succ = self._successor = _successor(
                self._source, participants(self.label), self._conts
            )
            self._source = self._conts = None
        return succ

    def __repr__(self):
        return f"Step({pretty_action(self.label)})"


def _successor(an: AnnotatedNetwork, touched: tuple, conts: tuple) -> AnnotatedNetwork:
    """The state after `touched` move on to `conts`.

    Only the participants change, so the live set, the marking and the
    network are all updated from them.  The marking is erased when the
    participants are all the live, unmarked processes there are (the
    marked set includes every live service, so those are never waiting).
    """
    procs = an.net.processes
    updates = {p: procs[p].with_main(b) for p, b in zip(touched, conts)}
    net = an.net.replace(updates)
    died = [p for p, t in updates.items() if not t.is_live()]
    live = an.live.difference(died) if died else an.live
    waiting_touched = sum(1 for p in touched if p not in an.marked)
    if len(an.live) - len(an.marked) == waiting_touched:
        marked = an.services & live  # everyone had their turn
    else:
        marked = an.marked.union(touched).difference(died)
    succ = AnnotatedNetwork.__new__(AnnotatedNetwork)
    succ._init(net, live, marked, an.services)
    return succ


def enabled_steps(an: AnnotatedNetwork) -> list:
    """All abstract reductions available from an annotated network.

    Conditionals contribute their Then and Else steps adjacently, in that
    order.  The listing order is deterministic (processes in name order).
    No successor is built here: see `Step`.
    """
    procs = an.net.processes
    steps = []
    for p, term in procs.items():
        head = term.head_behaviour()
        kind = type(head)
        if kind is sp.Send:
            partner = procs.get(head.to)
            if partner is None:
                continue
            qhead = partner.head_behaviour()
            if type(qhead) is sp.Receive and qhead.frm == p:
                action = ComAction(p, head.expr, head.to, qhead.var)
                steps.append(Step(action, an, (head.cont, qhead.cont)))
        elif kind is sp.Select:
            partner = procs.get(head.to)
            if partner is None:
                continue
            qhead = partner.head_behaviour()
            if (
                type(qhead) is sp.Offer
                and qhead.frm == p
                and qhead.has_label(head.label)
            ):
                action = SelAction(p, head.to, head.label)
                steps.append(Step(action, an, (head.cont, qhead.branch(head.label))))
        elif kind is sp.Cond:
            steps.append(Step(ThenAction(p, head.expr), an, (head.then,)))
            steps.append(Step(ElseAction(p, head.expr), an, (head.orelse,)))
    return steps


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
