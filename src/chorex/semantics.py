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


def process_names_of(action) -> frozenset:
    """Processes taking part in an action."""
    return frozenset(participants(action))


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

    def __ne__(self, other):
        return not self.__eq__(other)

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


def _action_of_head(body):
    match body:
        case cc.Com(p, e, q, x, cont):
            return ComAction(p, e, q, x), cont
        case cc.Sel(p, q, l, cont):
            return SelAction(p, q, l), cont
    return None, None


def _scan(procedures: dict, body, blocked: frozenset, visiting: frozenset):
    """Actions enabled in `body` given already-blocked processes.

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


def chor_enabled(c: cc.Choreography, body=None) -> list:
    """All (action, successor-body) pairs executable up to swapping.

    The successor has the fired action removed at every position where it
    was matched — in both branches when it was pulled out of a
    conditional.  Duplicate labels keep their first (shallowest)
    occurrence.
    """
    if body is None:
        body = c.main
    raw = _scan(c.procedures, body, frozenset(), frozenset())
    out = []
    seen = set()
    for action, succ in raw:
        if action not in seen:
            seen.add(action)
            out.append((action, succ))
    return out
