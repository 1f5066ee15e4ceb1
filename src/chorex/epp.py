"""Projection of choreographies onto per-process behaviours.

Each process sees only its own side of every interaction; a conditional
decided by somebody else collapses to the merge of the two branch
projections, which is defined only when the branches differ behind
distinct offered labels.  A choreography is projectable when every such
merge is defined for every process.

One bottom-up pass over a body projects it onto every process at once.
The value of a node is a tuple of behaviours, one per process of the
sorted universe.  A process that the node does not involve shares its
entry with the continuation, and a conditional merges only the entries
of its two branches that differ.  Projection onto one process is the
same pass over a one-process universe, so the rules exist once.
"""

from __future__ import annotations

from functools import partial

from . import cc, sp
from .term import fold


class MergeError(Exception):
    """Two behaviours whose heads cannot be reconciled."""

    def __init__(self, left: sp.Behaviour, right: sp.Behaviour, location=None):
        self.left = left
        self.right = right
        self.location = location
        super().__init__(self._render())

    def _render(self):
        msg = f"cannot merge {describe_head(self.left)} with {describe_head(self.right)}"
        if self.location:
            msg = f"{self.location}: {msg}"
        return msg

    def at(self, location: str) -> "MergeError":
        return MergeError(self.left, self.right, location)


def describe_head(b: sp.Behaviour) -> str:
    match b:
        case sp.Nil():
            return "stop"
        case sp.Call(x):
            return f"call {x}"
        case sp.Send(to, expr, _):
            return f"send {expr} to {to}"
        case sp.Receive(frm, var, _):
            return f"receive {var} from {frm}"
        case sp.Select(to, label, _):
            return f"select {label} at {to}"
        case sp.Offer(frm, branches):
            labels = ", ".join(l for l, _ in branches)
            return f"offer {{{labels}}} from {frm}"
        case sp.Cond(expr, _, _):
            return f"conditional on {expr}"
    raise TypeError(f"not a behaviour: {b!r}")


def merge(a: sp.Behaviour, b: sp.Behaviour) -> sp.Behaviour:
    """Combine behaviours that differ only behind distinct offered labels.

    Offers union their branches (shared labels merge recursively); every
    other constructor requires an identical head and merges its
    continuations pointwise.  Pairs are merged off an explicit stack,
    then and offer branches in order, and each merged node is rebuilt
    once its children are done.
    """
    done = []  # merged subterms, in completion order
    todo = [(a, b)]  # pairs to merge, and (None, (build, arity)) markers
    while todo:
        x, y = todo.pop()
        if x is None:
            build, arity = y
            kids = done[len(done) - arity :]
            del done[len(done) - arity :]
            done.append(build(kids))
        elif x is y:  # every term merges with itself into itself
            done.append(x)
        elif type(x) is sp.Offer and type(y) is sp.Offer and x.frm == y.frm:
            left = dict(x.branches)
            right = dict(y.branches)
            labels = sorted(left.keys() | right.keys())
            todo.append((None, (partial(_offer, x.frm, labels), len(labels))))
            for l in reversed(labels):
                todo.append((left.get(l) or right[l], right.get(l) or left[l]))
        elif type(x) is type(y) and x._label() == y._label():
            kids = x.children()
            if kids:
                todo.append((None, (x.rebuild, len(kids))))
                todo.extend(reversed(list(zip(kids, y.children()))))
            else:
                done.append(x)
        else:
            raise MergeError(x, y)
    return done[0]


def _offer(frm: str, labels: list, branches: list) -> sp.Offer:
    return sp.Offer(frm, zip(labels, branches))


def _projector(universe):
    """The `fold` function that projects a body onto every process of
    `universe` at once: a node's value is a tuple of behaviours, one per
    process, in the order of `universe`."""
    index = {r: i for i, r in enumerate(universe)}
    nils = (sp.NIL,) * len(universe)

    def project(node, kids):
        kind = type(node)
        if kind is cc.Com or kind is cc.Sel:
            cont = kids[0]
            i = index.get(node.sender)
            j = index.get(node.receiver)
            out = list(cont)
            if kind is cc.Com:
                if i is not None:
                    out[i] = sp.Send(node.receiver, node.expr, cont[i])
                if j is not None:
                    out[j] = sp.Receive(node.sender, node.var, cont[j])
            else:
                if i is not None:
                    out[i] = sp.Select(node.receiver, node.label, cont[i])
                if j is not None:
                    out[j] = sp.Offer(node.sender, {node.label: cont[j]})
            return tuple(out)
        if kind is cc.Cond:
            then, orelse = kids
            out = list(then)
            i = index.get(node.process)
            if i is not None:
                out[i] = sp.Cond(node.expr, then[i], orelse[i])
            for j, (a, b) in enumerate(zip(then, orelse)):
                if a is not b and j != i:
                    try:
                        out[j] = merge(a, b)
                    except MergeError as err:
                        where = (
                            f"process {universe[j]} at conditional on "
                            f"{node.process}.{node.expr}"
                        )
                        raise err.at(where) from None
            return tuple(out)
        if kind is cc.Nil:
            return nils
        if kind is cc.Call:
            return (sp.Call(node.name),) * len(universe)
        if kind is cc.Deadlock:
            raise ValueError("deadlock terms cannot be projected")
        raise TypeError(f"not a choreography body: {node!r}")

    return project


def project_each(body: cc.ChoreographyBody, universe) -> tuple:
    """Project one choreography body onto each process of `universe`, in
    one pass; the projections come in the order of `universe`."""
    return fold(body, _projector(universe))


def _collapse_call_cycles(procedures: dict, main: sp.Behaviour) -> sp.ProcessTerm:
    """Rewrite procedures on a cycle of bare calls into stop.

    Projection for an uninvolved process turns a looping procedure into a
    bare self-call; such a procedure can never expose an action, so its
    body is equivalent to termination.  A procedure whose `sp.call_chain`
    only leads into a cycle keeps its call.
    """
    dead = set()
    for name in procedures:
        chain = sp.call_chain(procedures, name)
        body = procedures.get(chain[-1])
        if type(body) is sp.Call:
            dead.update(chain[chain.index(body.name):])
    if dead:
        procedures = {
            x: (sp.NIL if x in dead else b) for x, b in procedures.items()
        }
    return sp.ProcessTerm(procedures, main)


def _project(c: cc.Choreography, universe) -> list:
    """The process terms of every process of `universe`, in its order:
    one pass over each procedure, then one over main."""
    project = _projector(universe)
    procedures = {x: fold(b, project) for x, b in c.procedures.items()}
    main = fold(c.main, project)
    return [
        _collapse_call_cycles({x: b[i] for x, b in procedures.items()}, main[i])
        for i in range(len(universe))
    ]


def project_process(c: cc.Choreography, r: str) -> sp.ProcessTerm:
    """Project every procedure and the main body onto process r."""
    return _project(c, (r,))[0]


def epp(c: cc.Choreography, processes=()) -> sp.Network:
    """Project a choreography onto every process it names.

    `processes` adds names to the universe beyond those occurring in the
    choreography (their projections are all-stop terms unless some
    procedure involves them).  All processes are projected in one pass.
    When a merge fails, the error is that of the first process in name
    order that fails: its first failing body (procedures by name, then
    main), at its first failing conditional in post-order.  The one pass
    meets failures in another order, so the processes are then projected
    one by one until that error is raised.
    """
    universe = tuple(sorted(set(cc.choreography_process_names(c)) | set(processes)))
    if not universe:
        raise ValueError("cannot project: no processes in the choreography")
    try:
        terms = _project(c, universe)
    except MergeError:
        for r in universe:
            project_process(c, r)
        raise
    return sp.Network(dict(zip(universe, terms)))
