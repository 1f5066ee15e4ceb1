"""Choreography terms: global descriptions of multiparty protocols.

A choreography body describes interactions from a global viewpoint:
value communications `p.e -> q.x`, label selections `p -> q[l]`, local
conditionals `if p.e then .. else ..`, procedure calls, successful
termination, and a distinguished deadlock term used to report groups of
processes that got stuck during extraction.

A program is a parallel composition of choreographies over pairwise
disjoint sets of process names.  Body constructors derive from
`term.Term` and declare only their fields; the kernel writes the rest
(see `term`).  `Com` and `Sel` add a guard against a process talking to
itself.
"""

from __future__ import annotations

from .term import Definitions, Term, subterms


class ChoreographyBody(Term):
    __slots__ = ()


class Nil(ChoreographyBody):
    """Successful termination."""

    __slots__ = ()
    KIDS = ()


NIL = Nil()


class Deadlock(ChoreographyBody):
    """A group of processes that can never reduce again."""

    __slots__ = ()
    KIDS = ()


DEADLOCK = Deadlock()


class Call(ChoreographyBody):
    __slots__ = ("name",)
    KIDS = ()


class Com(ChoreographyBody):
    """`p.e -> q.x; cont` — p sends the value of e, q stores it in x."""

    __slots__ = ("sender", "expr", "receiver", "var", "cont")
    KIDS = ("cont",)

    def __init__(self, sender, expr, receiver, var, cont):
        if sender == receiver:
            raise ValueError(f"self-communication at {sender!r}")
        self._init(sender, expr, receiver, var, cont)


class Sel(ChoreographyBody):
    """`p -> q[l]; cont` — p selects branch l at q."""

    __slots__ = ("sender", "receiver", "label", "cont")
    KIDS = ("cont",)

    def __init__(self, sender, receiver, label, cont):
        if sender == receiver:
            raise ValueError(f"self-selection at {sender!r}")
        self._init(sender, receiver, label, cont)


class Cond(ChoreographyBody):
    """`if p.e then .. else ..` — p branches on its local expression e."""

    __slots__ = ("process", "expr", "then", "orelse")
    KIDS = ("then", "orelse")


class Choreography(Definitions):
    """Procedure definitions plus a main body."""

    __slots__ = ("_process_names",)

    def __init__(self, procedures, main):
        super().__init__(procedures, main)
        for x, body in self.procedures.items():
            if isinstance(body, Call):
                raise ValueError(
                    f"procedure {x} is a bare call to {body.name}; "
                    "calls must be guarded by at least one action"
                )
        self._process_names = None  # filled by `choreography_process_names`


class Program:
    """Parallel composition of choreographies over disjoint process sets."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("program must have at least one component")
        if len(components) > 1:  # a lone component has no other to overlap
            seen = set()
            for c in components:
                pns = choreography_process_names(c)
                if seen & pns:
                    raise ValueError(f"components share process names: {sorted(seen & pns)}")
                seen |= pns
        self.components = components

    def __eq__(self, other):
        return type(other) is Program and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"Program({self.components!r})"


def body_process_names(body: ChoreographyBody) -> frozenset:
    """Process names occurring in a choreography body."""
    out = set()
    for node in subterms(body):
        if isinstance(node, (Com, Sel)):
            out.add(node.sender)
            out.add(node.receiver)
        elif isinstance(node, Cond):
            out.add(node.process)
    return frozenset(out)


def choreography_process_names(c: Choreography) -> frozenset:
    """Process names occurring in the main body or a procedure of `c`,
    computed once per choreography."""
    names = c._process_names
    if names is None:
        names = set(body_process_names(c.main))
        for body in c.procedures.values():
            names |= body_process_names(body)
        names = c._process_names = frozenset(names)
    return names
