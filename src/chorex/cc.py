"""Choreography terms: global descriptions of multiparty protocols.

A choreography body describes interactions from a global viewpoint:
value communications `p.e -> q.x`, label selections `p -> q[l]`, local
conditionals `if p.e then .. else ..`, procedure calls, successful
termination, and a distinguished deadlock term used to report groups of
processes that got stuck during extraction.

A program is a parallel composition of choreographies over pairwise
disjoint sets of process names.  Body constructors derive from
`term.Term`, which walks, folds and compares them without recursion.
"""

from __future__ import annotations

from .term import Term, subterms


class ChoreographyBody(Term):
    __slots__ = ()


class Nil(ChoreographyBody):
    """Successful termination."""

    __slots__ = ()

    def __init__(self):
        self._hash = hash(("cc.Nil",))
        self.size = 1


NIL = Nil()


class Deadlock(ChoreographyBody):
    """A group of processes that can never reduce again."""

    __slots__ = ()

    def __init__(self):
        self._hash = hash(("cc.Deadlock",))
        self.size = 1


DEADLOCK = Deadlock()


class Call(ChoreographyBody):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("cc.Call", name))
        self.size = 1

    def _label(self):
        return (self.name,)


class Com(ChoreographyBody):
    """`p.e -> q.x; cont` — p sends the value of e, q stores it in x."""

    __slots__ = ("sender", "expr", "receiver", "var", "cont")
    __match_args__ = ("sender", "expr", "receiver", "var", "cont")

    def __init__(self, sender, expr, receiver, var, cont):
        if sender == receiver:
            raise ValueError(f"self-communication at {sender!r}")
        self.sender = sender
        self.expr = expr
        self.receiver = receiver
        self.var = var
        self.cont = cont
        self._hash = hash(("cc.Com", sender, expr, receiver, var, cont._hash))
        self.size = 1 + cont.size

    def _label(self):
        return (self.sender, self.expr, self.receiver, self.var)

    def children(self):
        return (self.cont,)

    def rebuild(self, children):
        return Com(self.sender, self.expr, self.receiver, self.var, *children)


class Sel(ChoreographyBody):
    """`p -> q[l]; cont` — p selects branch l at q."""

    __slots__ = ("sender", "receiver", "label", "cont")
    __match_args__ = ("sender", "receiver", "label", "cont")

    def __init__(self, sender, receiver, label, cont):
        if sender == receiver:
            raise ValueError(f"self-selection at {sender!r}")
        self.sender = sender
        self.receiver = receiver
        self.label = label
        self.cont = cont
        self._hash = hash(("cc.Sel", sender, receiver, label, cont._hash))
        self.size = 1 + cont.size

    def _label(self):
        return (self.sender, self.receiver, self.label)

    def children(self):
        return (self.cont,)

    def rebuild(self, children):
        return Sel(self.sender, self.receiver, self.label, *children)


class Cond(ChoreographyBody):
    """`if p.e then .. else ..` — p branches on its local expression e."""

    __slots__ = ("process", "expr", "then", "orelse")
    __match_args__ = ("process", "expr", "then", "orelse")

    def __init__(self, process, expr, then, orelse):
        self.process = process
        self.expr = expr
        self.then = then
        self.orelse = orelse
        self._hash = hash(("cc.Cond", process, expr, then._hash, orelse._hash))
        self.size = 1 + then.size + orelse.size

    def _label(self):
        return (self.process, self.expr)

    def children(self):
        return (self.then, self.orelse)

    def rebuild(self, children):
        return Cond(self.process, self.expr, *children)


class Choreography:
    """Procedure definitions plus a main body."""

    __slots__ = ("procedures", "main", "_hash", "_process_names")

    def __init__(self, procedures, main):
        if isinstance(procedures, dict):
            items = sorted(procedures.items())
        else:
            items = sorted(procedures)
        names = [x for x, _ in items]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate procedure names: {names}")
        for x, body in items:
            if isinstance(body, Call):
                raise ValueError(
                    f"procedure {x} is a bare call to {body.name}; "
                    "calls must be guarded by at least one action"
                )
        self.procedures = dict(items)
        self.main = main
        object.__setattr__(
            self,
            "_hash",
            hash(tuple((x, b._hash) for x, b in items) + (main._hash,)),
        )
        self._process_names = None  # filled by `choreography_process_names`

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Choreography or self._hash != other._hash:
            return False
        return self.main == other.main and self.procedures == other.procedures

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Choreography({self.procedures!r}, {self.main!r})"


class Program:
    """Parallel composition of choreographies over disjoint process sets."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("program must have at least one component")
        seen = set()
        for c in components:
            pns = choreography_process_names(c)
            if seen & pns:
                raise ValueError(
                    f"components share process names: {sorted(seen & pns)}"
                )
            seen |= pns
        self.components = components

    def __eq__(self, other):
        return type(other) is Program and self.components == other.components

    def __ne__(self, other):
        return not self.__eq__(other)

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
