"""The term kernel shared by both term languages.

Behaviours (`sp`) and choreography bodies (`cc`) are trees whose
constructors derive from `Term`.  A constructor is declared once: its
`__slots__` list its fields, labels first and subterms last, and `KIDS`
names the subterm fields.  From that, `Term.__init_subclass__` writes the
constructor's initialiser, which caches the hash and the node count,
`_label` (the label fields), `children` (the subterms, left to right),
`rebuild` (the same constructor over other children) and
`__match_args__`.

Every walk over a term is written once, here, as a loop over an explicit
stack: the paper's grid holds chains of 2,100 actions, deeper than
Python's default recursion limit.

* `subterms` — every subterm, pre-order;
* `positions` — the same, each with its path of child indices;
* `fold` — bottom-up, one call per subterm with its children's results;
* `subterm_at` / `replace_at` — read or replace the subterm at a path.

Equality is structural and iterative too.  Terms cache their hash, so
`==` first tries identity, then the type and the hash, before it walks
the pairs of subterms.

`Definitions` is the container of procedure definitions and a main term
that both languages build their programs from (`sp.ProcessTerm`,
`cc.Choreography`).
"""

from __future__ import annotations


class Term:
    """Base class of behaviour and choreography constructors."""

    __slots__ = ("_hash", "size")

    _hash: int
    size: int  # number of constructor nodes in this subtree

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "KIDS" in cls.__dict__:
            _declare(cls)

    def children(self) -> tuple:
        return ()

    def rebuild(self, children) -> "Term":
        """This constructor over other children (a leaf returns itself)."""
        return self

    def _label(self) -> tuple:
        """Everything but the children: equal terms have equal labels."""
        return ()

    def __eq__(self, other):
        if self is other:
            return True
        if type(self) is not type(other) or self._hash != other._hash:
            return False
        a, b = self, other
        pending = []  # pairs of later siblings still to compare
        while True:
            if a is not b:
                if (
                    type(a) is not type(b)
                    or a._hash != b._hash
                    or a._label() != b._label()
                ):
                    return False
                kids = a.children()
                if kids:
                    others = b.children()
                    if len(kids) > 1:
                        pending.extend(zip(kids[1:], others[1:]))
                    a, b = kids[0], others[0]
                    continue
            if not pending:
                return True
            a, b = pending.pop()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return fold(self, _repr)


def _declare(cls) -> None:
    """Write the methods of constructor `cls` from its fields, as
    `collections.namedtuple` does, so that no call loops over them.
    `_init` is also `__init__` unless `cls` defines its own, which then
    calls `_init`; any method `cls` defines is kept, and a leaf keeps
    `Term`'s `children` and `rebuild`."""
    fields, kids = cls.__slots__, cls.KIDS
    labels = fields[: len(fields) - len(kids)]
    assert fields[len(labels) :] == kids, f"{cls.__name__}: subterm fields go last"
    tag = f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}"

    def own(names):
        return "".join(f"self.{f}, " for f in names)

    hashed = ", ".join([repr(tag), *labels, *(f"{k}._hash" for k in kids)])
    source = [
        f"def _init(self, {', '.join(fields)}):",
        *(f"    self.{f} = {f}" for f in fields),
        f"    self._hash = hash(({hashed},))",
        f"    self.size = {' + '.join(['1', *(f'{k}.size' for k in kids)])}",
        "def _label(self):",
        f"    return ({own(labels)})",
    ]
    if kids:
        source += [
            "def children(self):",
            f"    return ({own(kids)})",
            "def rebuild(self, children):",
            f"    return {cls.__name__}({own(labels)}*children)",
        ]
    methods = {}
    code = compile("\n".join(source), f"<{tag}>", "exec")
    exec(code, {"hash": hash, cls.__name__: cls}, methods)
    methods["__init__"] = methods["_init"]
    for name, method in methods.items():
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls.__match_args__ = fields


class Definitions:
    """Named procedure definitions plus a main term, the container that
    process terms (`sp`) and choreographies (`cc`) share.

    `procedures` is a dict or a list of (name, body) pairs, kept as a
    dict in name order; a name given twice is a ValueError.  The hash is
    cached at construction.
    """

    __slots__ = ("procedures", "main", "_hash")

    def __init__(self, procedures, main: Term):
        items = procedures.items() if isinstance(procedures, dict) else procedures
        items = sorted(items, key=lambda item: item[0])
        self.procedures = dict(items)
        if len(self.procedures) != len(items):
            raise ValueError(f"duplicate procedure names: {[x for x, _ in items]}")
        self.main = main
        self._hash = hash((tuple((x, b._hash) for x, b in items), main._hash))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self) or self._hash != other._hash:
            return False
        return self.main == other.main and (
            self.procedures is other.procedures or self.procedures == other.procedures
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({self.procedures!r}, {self.main!r})"


def _repr(term: Term, children) -> str:
    fields = [*map(repr, term._label()), *children]
    return f"{type(term).__name__}({', '.join(fields)})"


def subterms(term: Term):
    """Every subterm of `term`, itself first, in pre-order (children left
    to right)."""
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def positions(term: Term):
    """(path, subterm) pairs in pre-order; a path lists child indices from
    `term` down."""
    stack = [((), term)]
    while stack:
        path, node = stack.pop()
        yield path, node
        kids = node.children()
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i]))


def subterm_at(term: Term, path) -> Term:
    for i in path:
        term = term.children()[i]
    return term


def replace_at(term: Term, path, new: Term) -> Term:
    """`term` with the subterm at `path` replaced by `new`."""
    spine = []
    for i in path:
        spine.append(term)
        term = term.children()[i]
    for node, i in zip(reversed(spine), reversed(path)):
        kids = list(node.children())
        kids[i] = new
        new = node.rebuild(kids)
    return new


def fold(root: Term, f):
    """Bottom-up: `f(node, results)` for every node, where `results` are
    the values of its children, left to right; returns the root's value.

    Nodes are visited in post-order, children left to right, which is
    the order a recursive walk would visit them in.  A pre-order walk
    that takes the right child first, reversed, is that post-order; the
    results of a node's children are then the topmost values on the
    result stack.
    """
    order = []
    arities = []
    stack = [root]
    while stack:
        node = stack.pop()
        kids = node.children()
        order.append(node)
        arities.append(len(kids))
        stack.extend(kids)
    out = []
    for node, arity in zip(reversed(order), reversed(arities)):
        if arity == 0:
            out.append(f(node, ()))
        elif arity == 1:
            out.append(f(node, (out.pop(),)))
        else:
            results = out[-arity:]
            del out[-arity:]
            out.append(f(node, results))
    return out[0]
