"""Process-side terms: behaviours, process terms, and networks.

A network maps process names to process terms; a process term couples a set
of named procedure definitions with a main behaviour.  Behaviours are the
usual communication prefixes (send, receive, label selection, label offer),
a binary conditional, procedure calls, and the terminated behaviour.

Behaviour constructors derive from `term.Term`.  Each declares its fields
and which of them are subterms, and the kernel writes its initialiser,
label, children and rebuild (see `term`); only `Offer`, whose branches
are sorted (label, behaviour) pairs, is written by hand.  A procedure
call unfolds along its `call_chain`, the one place that chases bare
calls to procedure bodies.

Expressions are never evaluated here: they are carried around as opaque
token strings and compared by string equality.  All terms are immutable,
cache their hash at construction (behaviours their node count too), and
are safe to share between threads.

The extraction search does not step these terms: it compiles each
network to integer ids once (`semantics.Kernel`) and builds terms and
networks again only to print or report a state.
"""

from __future__ import annotations

from .term import Definitions, Term, subterms


class Behaviour(Term):
    """Base class for process behaviours."""

    __slots__ = ()

    peer = None  # the other process of a communication constructor


class Nil(Behaviour):
    """Terminated behaviour."""

    __slots__ = ()
    KIDS = ()


NIL = Nil()


class Call(Behaviour):
    """Invocation of a named procedure."""

    __slots__ = ("name",)
    KIDS = ()


class Send(Behaviour):
    """Send the value of expression `e` to process `to`, then continue."""

    __slots__ = ("to", "expr", "cont")
    KIDS = ("cont",)

    peer = property(lambda self: self.to)


class Receive(Behaviour):
    """Receive a value from process `frm` into variable `var`, then continue."""

    __slots__ = ("frm", "var", "cont")
    KIDS = ("cont",)

    peer = property(lambda self: self.frm)


class Select(Behaviour):
    """Select branch label `label` at process `to`, then continue."""

    __slots__ = ("to", "label", "cont")
    KIDS = ("cont",)

    peer = property(lambda self: self.to)


class Offer(Behaviour):
    """Offer a choice of labelled branches to process `frm`.

    Branches are stored as a tuple of (label, behaviour) pairs sorted by
    label, so two offers with the same branches in different source order
    compare equal.
    """

    __slots__ = ("frm", "branches")
    __match_args__ = ("frm", "branches")

    def __init__(self, frm: str, branches):
        items = tuple(branches.items() if isinstance(branches, dict) else branches)
        self.frm = frm
        if len(items) == 1:  # most offers: one label, nothing to sort or check
            ((label, b),) = items
            self.branches = items
            self._hash = hash(("sp.Offer", frm, (label, b._hash)))
            self.size = 1 + b.size
            return
        items = sorted(items)
        if not items:
            raise ValueError("offer must have at least one branch")
        labels = [l for l, _ in items]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate branch labels in offer: {labels}")
        self.branches = tuple(items)
        self._hash = hash(("sp.Offer", frm) + tuple((l, b._hash) for l, b in self.branches))
        self.size = 1 + sum(b.size for _, b in self.branches)

    peer = property(lambda self: self.frm)

    def _label(self):
        return (self.frm, tuple(l for l, _ in self.branches))

    def children(self):
        return tuple(b for _, b in self.branches)

    def rebuild(self, children):
        return Offer(self.frm, zip([l for l, _ in self.branches], children))


class Cond(Behaviour):
    """Conditional on an opaque expression."""

    __slots__ = ("expr", "then", "orelse")
    KIDS = ("then", "orelse")


class ProcessTerm(Definitions):
    """A set of procedure definitions together with a main behaviour.

    The parser, which collects the peers and calls of a process as it
    reads it, hands them in (`peers_and_calls`); a term built any other
    way has none, and `peers_and_calls()` finds them by a walk.
    """

    __slots__ = ("_head", "_peers_and_calls")

    def __init__(self, procedures, main: Behaviour, peers_and_calls=None):
        super().__init__(procedures, main)
        self._head = None
        self._peers_and_calls = peers_and_calls

    def peers_and_calls(self) -> tuple:
        """(peers, calls), each a tuple of distinct names: the processes
        that main and the procedure bodies communicate with, and the
        procedures they call.  A walk's result is not kept: no caller
        asks twice, and a network kept after its check would keep two
        tuples a process."""
        if self._peers_and_calls is not None:
            return self._peers_and_calls
        peers, calls = set(), set()
        for body in (self.main, *self.procedures.values()):
            for node in subterms(body):
                if node.peer is not None:
                    peers.add(node.peer)
                elif type(node) is Call:
                    calls.add(node.name)
        return tuple(peers), tuple(calls)

    def head_behaviour(self) -> Behaviour:
        """Main behaviour with leading procedure calls chased away along
        its `call_chain`; the result is cached.

        A chain that ends at an undefined procedure raises its KeyError,
        and one that ends in a cycle of bare calls (unguarded recursion)
        an AssertionError.
        """
        head = self._head
        if head is None:
            head = self.main
            if type(head) is Call:
                head = self.procedures[call_chain(self.procedures, head.name)[-1]]
                if type(head) is Call:
                    raise AssertionError(f"unguarded recursion while unfolding {self.main!r}")
            self._head = head
        return head

    def is_live(self) -> bool:
        """True unless the process has terminated (head is Nil)."""
        return not isinstance(self.head_behaviour(), Nil)


def call_chain(procedures: dict, name: str) -> list:
    """The procedure names a call of `name` passes through, in order.

    The chain starts at `name` and follows each body that is a bare call.
    It stops at the first name that is undefined, whose body is not a
    bare call (the head the call unfolds to), or whose body calls a name
    already in the chain (a cycle of bare calls, which never reaches an
    action).  So the verdict is read off the last name: undefined, an
    action, or a bare call back into the chain.
    """
    chain = [name]
    body = procedures.get(name)
    while type(body) is Call and body.name not in chain:
        name = body.name
        chain.append(name)
        body = procedures.get(name)
    return chain


class Network:
    """A nonempty map from process names to process terms.

    Terminated processes stay in the map (as ⟨∅, Nil⟩-like terms).  The
    map is kept in name order.
    """

    __slots__ = ("processes", "_hash")

    def __init__(self, processes: dict):
        if not processes:
            raise ValueError("network must contain at least one process")
        self.processes = dict(sorted(processes.items()))
        self._hash = hash(tuple((p, t._hash) for p, t in self.processes.items()))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Network or self._hash != other._hash:
            return False
        return self.processes == other.processes

    def __hash__(self):
        return self._hash

    def names(self):
        return self.processes.keys()

    def __getitem__(self, name: str) -> ProcessTerm:
        return self.processes[name]

    def replace(self, updates: dict) -> "Network":
        """New network with some terms swapped out (or added)."""
        return Network({**self.processes, **updates})

    def __repr__(self):
        return f"Network({self.processes!r})"

