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
per pair of heads, and listed once per position, in a tuple that every
marking of the position, in every search over the same kernel, gets
back.  Successors are lazy: a step holds its label and the continuation
ids of its participants, and the search asks for its successor state
(`Kernel.successor`) only when it tries the step.  The successor
position is made once per (position, step), by replacing one or two
entries of the tuple, and looked up after that; the marking follows
from the participants' bit masks.  A new position's units are derived
from its parent's: the units the step leaves alone, and at most one new
unit per participant.  A root, and a position left unlisted, is scanned.

Markings quantify over live processes only: a process that has terminated
can never take part in any action again, so it is exempt both from the
reset condition and from the all-unmarked ("white") test.  Without that
exemption a network that finishes some processes early could never erase
its marking again.
"""

from __future__ import annotations

import bisect
import copy
import itertools

from . import sp


# ------------------------------------------------------------- action labels


class _Label:
    """An action label: a subclass lists its fields in `__slots__`, and
    this base writes its initialiser, equality (same class, equal fields)
    and hash, each reading the fields directly, as `namedtuple` does;
    `repr` and `__match_args__` are a dataclass's."""

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__match_args__ = cls.__slots__
        args = ", ".join(fields)
        mine, theirs = (", ".join(f"{who}.{f}" for f in fields) for who in ("self", "other"))
        methods = {}
        exec(
            f"def __init__(self, {args}):\n    {mine} = {args}\n"
            f"def __eq__(self, other):\n"
            f"    return type(other) is type(self) and ({mine}) == ({theirs})\n"
            f"def __hash__(self):\n    return hash(({mine}))\n", {}, methods
        )
        for name, method in methods.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class ComAction(_Label):
    __slots__ = ("sender", "expr", "receiver", "var")


class SelAction(_Label):
    __slots__ = ("sender", "receiver", "label")


class ThenAction(_Label):
    __slots__ = ("process", "expr")


class ElseAction(_Label):
    __slots__ = ("process", "expr")


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
    the tables nor the steps depend on services: `serving` gives the
    kernel itself, or a view of it with other services, and the whole
    kernel and its split parts stay usable for any number of searches.

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
    another.  Per position, the kernel tabulates its units (`_derived`
    from its parent's, or else `_scan`ned), and per (position, step)
    tried, the successor position (`successor`).  So every marking of a
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
        "kind", "peer", "cont", "unresolved", "_first", "_procedures", "_pairs",
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
        self._pairs = {}  # actor head << _STEP_BITS | partner head -> (Step,) or None
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

        A walk pre-order by constructor type, into a conditional's else
        and an offer's last branch, reversed, is post-order, children
        left to right (as `term.fold`).  Each subterm is keyed by a plain
        tuple of its kind, label fields and kids' ids, which hashes and
        compares in C: a one-kid subterm's kid is the one just before it,
        and a leaf puts the one before it on `ids` for its conditional or
        offer.  Kids come first, so two subterms of one process get one
        key, and one id, exactly when they are equal.  A new key gets the
        next id and its table entries, and a new call goes on `calls`.
        """
        index, behaviour = self._index, self.behaviour
        size, kind, peer, cont = self.size, self.kind, self.peer, self.cont
        order = []
        stack = []  # the subterms still to walk: each a then, or an offer's earlier branches
        t = root
        while True:
            order.append(t)
            typ = type(t)
            if typ is sp.Send or typ is sp.Receive or typ is sp.Select:
                t = t.cont
            elif typ is sp.Cond:
                stack.append(t.then)
                t = t.orelse
            elif typ is sp.Offer:
                stack.extend([b for _, b in t.branches])
                t = stack.pop()
            elif stack:
                t = stack.pop()
            else:
                break
        ids = []  # the ids of finished subterms whose parent is not next
        x = -1  # the id of the subterm before
        for t in reversed(order):
            typ = type(t)
            if typ is sp.Send:
                key = (SEND, t.to, t.expr, x)
            elif typ is sp.Receive:
                key = (RECEIVE, t.frm, t.var, x)
            elif typ is sp.Select:
                key = (SELECT, t.to, t.label, x)
            elif typ is sp.Cond:
                key = (COND, t.expr, ids.pop(), x)
            elif typ is sp.Offer:
                n = len(ids) + 1 - len(t.branches)
                key = (OFFER, t.frm, tuple([l for l, _ in t.branches]), *ids[n:], x)
                del ids[n:]
            else:
                if x >= 0:  # a leaf starts a subterm: the one before waits for its parent
                    ids.append(x)
                key = (UNRESOLVED, t.name) if typ is sp.Call else (NIL,)
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
        return x

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
        """This kernel with the processes `services`, those of them it
        has, as its services: itself if it has those (every call with no
        services in this component), else a view, a copy with its own
        services mask and root sharing every table and memo."""
        mask = sum(1 << i for i, p in enumerate(self.names) if p in services)
        if mask == self.services:
            return self
        view = copy.copy(self)
        view.services = mask
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
        step) by replacing the participants' entries; a new one gets its
        units from this position's, if they are listed.  The marking is
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
            ids, new, units = tuple(ids), len(self.positions), self._units[position]
            after = self._next[key] = self._position(ids, live & ~step.dead)
            if after == new and units is not None:
                self._units[after] = self._derived(units, step, ids)
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

    def _unit(self, i: int, ids: tuple):
        """The unit whose actor is process `i` at the main ids `ids`: its
        conditional, or its send or selection with the peer that waits on
        it; None if it has neither, or if an offer lacks the label."""
        x = ids[i]
        k = self.kind[x]
        if k == COND:
            h = self.head[x]
            return self._conds.get(h) or self._conditional(i, h)
        if k != SEND and k != SELECT:
            return None
        j = self.peer[x]
        if j < 0:
            return None
        y = ids[j]
        # RECEIVE and OFFER follow SEND and SELECT.
        if self.peer[y] != i or self.kind[y] != k + 1:
            return None
        hx, hy = self.head[x], self.head[y]
        unit = self._pairs.get(hx << _STEP_BITS | hy, _UNSEEN)
        return self._interaction(i, j, hx, hy) if unit is _UNSEEN else unit

    def _scan(self, ids: tuple) -> tuple:
        """The units of the main ids `ids`: each process's own, by index."""
        units = []
        for i, x in enumerate(ids):
            unit = self._unit(i, ids)
            if unit is not None:
                units.append(unit)
            elif self.kind[x] == UNRESOLVED:
                raise self.unresolved[x]
        return tuple(units)

    def _derived(self, units: tuple, step: Step, ids: tuple):
        """The units of the new position with main ids `ids`, reached by
        `step` from a position whose units are `units`; None, to be
        scanned, if a participant's new head is unresolved.  A unit with
        no participant of the step stays, as its processes' heads do.  A
        new unit has a participant as its actor, or as the partner of the
        sender or selector waiting on its new receive or offer."""
        kind, peer, bits = self.kind, self.peer, step.bits
        kept = []  # a loop, not a comprehension: on a few units it takes half the time
        for unit in units:
            if not unit[0].bits & bits:
                kept.append(unit)
        done = -1
        for p in step.procs:
            x = ids[p]
            k = kind[x]
            if k == UNRESOLVED:
                return None
            actor = peer[x] if k == RECEIVE or k == OFFER else p
            if actor >= 0 and actor != done:
                done = actor
                unit = self._unit(actor, ids)
                if unit is not None and unit[0].bits & bits:
                    bisect.insort(kept, unit, key=_actor)
        return tuple(kept)

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
        self._pairs[hx << _STEP_BITS | hy] = unit
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


def _actor(unit: tuple) -> int:
    return unit[0].procs[0]


def enabled_steps(kernel: Kernel, state: int) -> tuple:
    """All abstract reductions available from a state, as the units the
    search tries: `(step,)` for an interaction, `(then, else)` for a
    conditional.

    Units are listed by actor in name order (the sender or selector of an
    interaction, the process of a conditional).  They depend only on the
    state's position, so they are listed once per position, in a tuple
    the kernel keeps in `_units` and returns to every caller: derived
    from its parent's by `Kernel.successor`, or scanned here the first
    time.  No successor is built here: see `Kernel.successor`.
    """
    position = state >> kernel.n
    units = kernel._units[position]
    if units is None:
        units = kernel._units[position] = kernel._scan(kernel.positions[position])
    return units
