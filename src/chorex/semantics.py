"""Abstract labelled transitions of networks, and the action labels that
networks and choreographies share (the choreography transitions are
`equiv.chor_enabled`).

`enabled_steps` lists the abstract reductions of a network and its
marking, over a `Kernel`: a network or one of its components compiled to
integer ids, where a state is one int, `position << n | marking`.  Its
position is the tuple of the processes' main behaviour ids, interned
once per kernel; its marking is a bit mask.  A process whose main
behaviour is a procedure call acts through the head its calls unfold
to, which the kernel tabulated once per id.  Each step also advances
the per-process marking: processes that act become marked, and when
every live, unmarked, non-service process takes part in an action the
whole marking is erased (services stay marked forever).

Steps are listed in the units the search tries: `(step,)` for an
interaction, `(then, else)` for a conditional.  Units are built once
per pair of heads, and listed once per position: every marking of a
position, in every search over the same kernel, looks them up.
Successors are lazy: a step holds its label and the continuation ids
of its participants, and the search asks for its successor state
(`Kernel.successor`) only when it tries the step.  The successor
position is made once per (position, step), by replacing one or two
entries of the tuple, and looked up after that; the marking follows
from the participants' bit masks.

Markings quantify over live processes only: a process that has terminated
can never take part in any action again, so it is exempt both from the
reset condition and from the all-unmarked ("white") test.  Without that
exemption a network that finishes some processes early could never erase
its marking again.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

from . import sp


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

# A (position, step) pair is one int key, `position << _STEP_BITS | step
# number`: no kernel holds 2^32 steps.  An int, unlike a tuple holding a
# step, is no object for the cyclic collector.
_STEP_BITS = 32


class Step:
    """One enabled reduction: its label, its participants (process
    indices, actor first), their continuation ids, two bit masks of
    participants (all of them, and those the step terminates) and its
    number in its kernel's index space.

    A step depends only on the heads of its participants, so the kernel
    builds it once, in its unit, and every state whose participants have
    those heads lists the same unit.
    """

    __slots__ = ("label", "procs", "conts", "bits", "dead", "number")

    def __init__(self, label, procs: tuple, conts: tuple, bits: int, dead: int, number: int):
        self.label = label
        self.procs = procs
        self.conts = conts
        self.bits = bits
        self.dead = dead
        self.number = number

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
    `split` finds its components from `peer` and the id range of each
    process (`_first`), into component kernels that share these tables,
    all but `peer`, whose indices are local to each component.  Neither
    the tables nor the steps depend on services: `serving` gives a view
    of a kernel with its services, and the whole kernel and its split
    parts stay usable for any number of searches.

    A search state is one int, `position << n | marking`.  Its *position*
    is the tuple of each process's main behaviour id, in name order,
    interned to an int (hash-consing again, now of global configurations):
    `positions` maps it back to the tuple.  Its marking is a bit mask
    (bit i for process i) that holds only live processes, and always
    every live service.  A process is live unless its head is Nil; each
    position's live mask is tabulated when it is interned (`_live`).

    Each index space, the whole kernel and each split part, has its own
    position tables and its own units (`_pairs`, `_conds`, built once per
    pair of heads), and shares them with its views: a step and a position
    hold process indices, so neither crosses from one index space to
    another.  Per position, the kernel tabulates its units the first time
    they are listed (`enabled_steps`), and per (position, step) tried,
    the successor position (`successor`).  So every marking of a
    position, in every search over the index space under any strategy,
    lists and steps by lookups.  A compile belongs to the thread that
    built it (`extraction.compiled`), so no table is written by two
    threads.

    Heads are chased once every body is interned, along each call's
    `sp.call_chain`: a call that unfolds to no head (a cycle of bare
    calls, or an undefined procedure) is marked UNRESOLVED, and
    `enabled_steps` raises its error only if a state's main reaches it.
    """

    # Slots, not a dict: a split part and a view are copies, and CPython
    # 3.11 reads the attributes of a copied object's dict about half as
    # fast as those of the object `__init__` built.
    __slots__ = (
        "names", "n", "_index", "terms", "services", "behaviour", "size", "head",
        "kind", "peer", "cont", "ifs", "unresolved", "_first", "_procedures", "_pairs",
        "_conds", "_numbers", "positions", "_position_of", "_live", "_units", "_next",
        "root",
    )

    def __init__(self, net: sp.Network):
        self.names = tuple(net.processes)
        self.n = len(self.names)
        self._index = {p: i for i, p in enumerate(self.names)}
        self.terms = tuple(net.processes.values())
        self.services = 0  # a mask, set by `serving`
        self.behaviour = []  # id -> a behaviour with that id
        self.size = []
        self.kind = []
        self.peer = []
        self.cont = []
        self.ifs = {}  # id of each body interned -> the conditionals in its tree
        self.unresolved = {}  # id -> the error its unfolding raises
        self._first = []  # process i compiles to the ids from _first[i] to _first[i + 1]
        self._procedures = []  # per process: procedure name -> id
        calls = []  # (process, id) of every call, for `_resolve`
        mains = []
        for i, term in enumerate(self.terms):
            memo = {}  # key -> id, for this process (`_intern`)
            self._first.append(len(self.behaviour))
            procedures = term.procedures.items()
            self._procedures.append({x: self._intern(i, b, memo, calls) for x, b in procedures})
            mains.append(self._intern(i, term.main, memo, calls))
        self._first.append(len(self.behaviour))
        self._resolve(calls)
        self._index_space()
        self.root = self._root(mains)

    def _index_space(self):
        """Give this kernel new, empty unit and position tables."""
        self._pairs = {}  # (actor head, partner head) -> (Step,) or None
        self._conds = {}  # conditional head -> (then Step, else Step)
        self._numbers = itertools.count()  # numbers the steps
        self.positions = []  # position -> its tuple of main ids
        self._position_of = {}  # tuple of main ids -> position
        self._live = []  # position -> its live mask
        self._units = []  # position -> its units, None until listed
        self._next = {}  # position << _STEP_BITS | step number -> the successor position

    # -- compiling

    def _intern(self, i: int, root: sp.Behaviour, memo: dict, calls: list) -> int:
        """The id of `root` in process `i`, interning its subterms first
        in `memo`, the process's map from key to id.

        One walk in post-order, children left to right (as `term.fold`),
        keys each subterm by a plain tuple of its kind, its label fields
        and its kids' ids, which hashes and compares in C.  Kids are
        interned first, so two subterms of one process get one key, and
        one id, exactly when they are equal.  A new key gets the next id
        and its entries in the tables, and a new call goes on `calls`
        for `_resolve` to fill in its `head`.  The walk also counts the
        tree's conditionals, for `node_bound`.
        """
        index, behaviour = self._index, self.behaviour
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
                    calls.append((i, x))
            ids.append(x)
        self.ifs[ids[0]] = ifs  # the walk met every node of the tree, shared or not
        return ids[0]

    def _resolve(self, calls: list):
        """Chase every call, a (process, id) of `calls`, along its
        `sp.call_chain` to its head, as `ProcessTerm.head_behaviour` does;
        a call with no head keeps the error that method raises, a KeyError
        or an AssertionError, with a message naming the process and the
        chain.  Every other id is its own head."""
        behaviour = self.behaviour
        self.head = list(range(len(behaviour)))
        for i, x in calls:
            procedures = self.terms[i].procedures
            chain = sp.call_chain(procedures, behaviour[x].name)
            last, along = chain[-1], f"process {self.names[i]} along {' -> '.join(chain)}"
            if last not in procedures:
                self.unresolved[x] = KeyError(f"undefined procedure {last} in {along}")
            elif type(procedures[last]) is sp.Call:
                self.unresolved[x] = AssertionError(
                    f"unguarded recursion in {along} -> {procedures[last].name}"
                )
            else:
                b = self.head[x] = self._procedures[i][last]
                self.kind[x] = self.kind[b]
                self.peer[x] = self.peer[b]

    def node_bound(self) -> int:
        """Upper bound on the distinct node identities of a search from
        the root: 2^processes times the product of the process terms'
        sizes times 2^conditionals, over all main and procedure bodies,
        read off the `size` and `ifs` of their ids."""
        product, total = 1, 0
        for i, main in enumerate(self.ids(self.root)):
            ids = [main, *self._procedures[i].values()]
            product *= sum(self.size[x] for x in ids)
            total += sum(self.ifs[x] for x in ids)
        return 2**self.n * product * 2**total

    # -- components

    def split(self) -> list:
        """A kernel per component of the communication graph, where
        processes are linked iff a body of either communicates with the
        other, read off the `peer` of the ids each process compiled to.

        Components come by smallest process index, members in index (name)
        order; `extract` seeds a component's shuffles with its place in
        this list.  Each part shares the interned tables, as ids are
        disjoint per process and a step's processes lie in one component,
        and has its own processes, services, root, unit memos and position
        tables.  With two or more components, the parts read a new `peer`
        list of indices within each component, and this kernel keeps its
        own: it stays whole."""
        n, peer, first = self.n, self.peer, self._first
        leader = list(range(n))  # union-find; a link hangs the larger root under the smaller

        def root(i):
            while leader[i] != i:
                i = leader[i]
            return i

        for i in range(n):
            for j in set(peer[first[i] : first[i + 1]]) - {-1}:
                a, b = sorted((root(i), root(j)))
                leader[b] = a
        groups = {}  # root -> members; a root is met first, as its smallest member
        local = [-1] * (n + 1)  # index -> index within its component; local[-1] stays -1
        for i in range(n):
            group = groups.setdefault(root(i), [])
            local[i] = len(group)
            group.append(i)
        if len(groups) == 1:
            return [self]
        peer = [local[j] for j in peer]
        ids = self.ids(self.root)
        parts = []
        for at in groups.values():
            part = copy.copy(self)
            part.names, part.n = tuple(self.names[i] for i in at), len(at)
            part.terms = [self.terms[i] for i in at]
            part._index = part._first = None  # compile tables of the whole network
            part._procedures = [self._procedures[i] for i in at]
            part.peer = peer
            part._index_space()
            part.services = sum((self.services >> i & 1) << li for li, i in enumerate(at))
            part.root = part._root([ids[i] for i in at])
            parts.append(part)
        return parts

    def serving(self, services) -> Kernel:
        """A view of this kernel with the processes `services`, those of
        them it has, as its services: a copy with its own services mask
        and root, sharing every table and memo, the positions too."""
        view = copy.copy(self)
        view.services = sum(1 << i for i, p in enumerate(self.names) if p in services)
        view.root = view._root(self.ids(self.root))
        return view

    # -- states

    def _position(self, ids: tuple, live: int) -> int:
        """The position of the main ids `ids`, whose live mask is `live`;
        a new tuple gets the next one, and its entries in `positions`,
        `_live` and `_units`."""
        positions = self.positions
        new = len(positions)
        position = self._position_of.setdefault(ids, new)
        if position == new:
            positions.append(ids)
            self._live.append(live)
            self._units.append(None)
        return position

    def _root(self, ids) -> int:
        """The state of the main ids `ids` with only the live services
        marked."""
        kind = self.kind
        live = sum(1 << i for i, x in enumerate(ids) if kind[x] != NIL)
        return self._position(tuple(ids), live) << self.n | self.services & live

    def ids(self, state: int) -> tuple:
        """The main behaviour id of each process in a state."""
        return self.positions[state >> self.n]

    def terminal(self, state: int) -> bool:
        """True iff every non-service process has terminated.

        Services are allowed to keep spinning; a network where only
        services can still act counts as successfully terminated.
        """
        return not self._live[state >> self.n] & ~self.services

    def successor(self, state: int, step: Step) -> int:
        """The state after `step`.

        The successor position is looked up, or made once per (position,
        step) by replacing the participants' entries.  The marking is
        erased when the participants are all the live, unmarked processes
        there are (the marking holds every live service, so those are
        never waiting); otherwise the participants join it.  Terminated
        processes leave it either way.
        """
        n = self.n
        position = state >> n
        live = self._live[position]
        key = position << _STEP_BITS | step.number
        after = self._next.get(key)
        if after is None:
            ids = list(self.positions[position])
            for p, c in zip(step.procs, step.conts):
                ids[p] = c
            after = self._next[key] = self._position(tuple(ids), live & ~step.dead)
        marked = (state | step.bits) & ((1 << n) - 1)
        if live & ~marked:
            return after << n | marked & live & ~step.dead
        return after << n | self.services & live & ~step.dead

    # -- back to terms

    def network(self, state: int) -> sp.Network:
        return sp.Network(
            {
                p: sp.ProcessTerm(term.procedures, self.behaviour[x])
                for p, term, x in zip(self.names, self.terms, self.ids(state))
            }
        )

    def marked(self, state: int) -> frozenset:
        return frozenset(p for i, p in enumerate(self.names) if state >> i & 1)

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
        unit = None
        if k is not None:
            kx = self.cont[hx]
            dead = (self.kind[kx] == NIL) << i | (self.kind[k] == NIL) << j
            unit = (Step(label, (i, j), (kx, k), 1 << i | 1 << j, dead, next(self._numbers)),)
        self._pairs[hx, hy] = unit
        return unit

    def _conditional(self, i: int, h: int) -> tuple:
        """The unit of process `i`'s conditional head `h`: its then step,
        then its else step."""
        b = self.behaviour[h]
        p = self.names[i]
        kind, numbers = self.kind, self._numbers
        pair = self._conds[h] = tuple(
            Step(action(p, b.expr), (i,), (k,), 1 << i, (kind[k] == NIL) << i, next(numbers))
            for action, k in zip((ThenAction, ElseAction), self.cont[h])
        )
        return pair


_UNSEEN = object()


def enabled_steps(kernel: Kernel, state: int) -> list:
    """All abstract reductions available from a state, as the units the
    search tries: `(step,)` for an interaction, `(then, else)` for a
    conditional.

    Units are listed by actor in name order (the sender or selector of an
    interaction, the process of a conditional), in a new list each call.
    They depend only on the state's position, so they are listed once per
    position and kept in the kernel's `_units`.  No successor is built
    here: see `Kernel.successor`.
    """
    position = state >> kernel.n
    units = kernel._units[position]
    if units is not None:
        return list(units)
    ids = kernel.positions[position]
    kind, peer, head = kernel.kind, kernel.peer, kernel.head
    pairs, conds = kernel._pairs, kernel._conds
    units = []
    for i, x in enumerate(ids):
        k = kind[x]
        if k == SEND or k == SELECT:
            j = peer[x]
            if j < 0:
                continue
            y = ids[j]
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
    kernel._units[position] = tuple(units)
    return units
