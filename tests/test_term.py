"""The traversal kernel shared by behaviours and choreography bodies."""

import dis
import sys

import pytest

from chorex import cc, sp
from chorex.term import Term, fold, positions, replace_at, subterm_at, subterms

OFFER = sp.Offer("p", {"b": sp.Call("X"), "a": sp.Send("q", "e", sp.NIL)})
TERM = sp.Cond("g", OFFER, sp.Receive("r", "x", sp.NIL))

# Each constructor's fields, in declaration (and positional) order.
FIELDS = {
    sp.Call: ("name",),
    sp.Send: ("to", "expr", "cont"),
    sp.Receive: ("frm", "var", "cont"),
    sp.Select: ("to", "label", "cont"),
    sp.Offer: ("frm", "branches"),
    sp.Cond: ("expr", "then", "orelse"),
    cc.Call: ("name",),
    cc.Com: ("sender", "expr", "receiver", "var", "cont"),
    cc.Sel: ("sender", "receiver", "label", "cont"),
    cc.Cond: ("process", "expr", "then", "orelse"),
}


def _every_sp_constructor():
    return sp.Cond(
        "g",
        sp.Offer("p", {"b": sp.Call("X"), "a": sp.Send("q", "e", sp.NIL)}),
        sp.Select("s", "l", sp.Receive("r", "x", sp.NIL)),
    )


def _every_cc_constructor():
    return cc.Cond(
        "p",
        "g",
        cc.Com("p", "e", "q", "x", cc.Sel("q", "r", "l", cc.Call("X"))),
        cc.Cond("q", "h", cc.NIL, cc.DEADLOCK),
    )


EVERY = pytest.mark.parametrize(
    "make", [_every_sp_constructor, _every_cc_constructor], ids=["sp", "cc"]
)


def _constructors(module):
    return {
        c
        for c in vars(module).values()
        if isinstance(c, type) and issubclass(c, Term) and not c.__subclasses__()
    }


def _chain(n, last):
    body = last
    for i in range(n):
        body = cc.Com("p", f"e{i}", "q", "x", body)
    return body


def test_walks_go_left_to_right():
    assert [type(t).__name__ for t in subterms(TERM)] == [
        "Cond", "Offer", "Send", "Nil", "Call", "Receive", "Nil",
    ]
    assert [path for path, _ in positions(TERM)] == [
        (), (0,), (0, 0), (0, 0, 0), (0, 1), (1,), (1, 0),
    ]
    seen = []
    fold(TERM, lambda node, kids: seen.append(type(node).__name__))
    assert seen == ["Nil", "Send", "Call", "Offer", "Nil", "Receive", "Cond"]


def test_paths_read_and_replace_subterms():
    assert subterm_at(TERM, (0, 1)) == sp.Call("X")
    replaced = replace_at(TERM, (0, 1), sp.NIL)
    assert subterm_at(replaced, (0, 1)) is sp.NIL
    assert replaced.then.frm == "p" and replaced.orelse is TERM.orelse
    assert replace_at(TERM, (), sp.NIL) is sp.NIL


def test_rebuild_keeps_the_label():
    for term in (TERM, _every_sp_constructor(), _every_cc_constructor()):
        assert fold(term, lambda node, kids: node.rebuild(kids)) == term
    assert OFFER.rebuild((sp.NIL, sp.NIL)) == sp.Offer("p", {"a": sp.NIL, "b": sp.NIL})


@pytest.mark.parametrize("module", [sp, cc], ids=["sp", "cc"])
def test_the_terms_below_use_every_constructor(module):
    make = {sp: _every_sp_constructor, cc: _every_cc_constructor}[module]
    assert {type(node) for node in subterms(make())} == _constructors(module)
    assert _constructors(module) - {type(module.NIL), cc.Deadlock} <= FIELDS.keys()


@pytest.mark.parametrize("module", [sp, cc], ids=["sp", "cc"])
def test_every_constructor_is_declared(module):
    # A hand-written initialiser would have to repeat what the kernel
    # writes; only `Offer`, whose branches are sorted, keeps its own.
    classes = {
        c for c in vars(module).values() if isinstance(c, type) and issubclass(c, Term)
    }
    bases = {Term, sp.Behaviour, cc.ChoreographyBody, sp.Offer}
    assert [c.__name__ for c in classes - bases if "KIDS" not in c.__dict__] == []


@EVERY
def test_positional_patterns_bind_fields_in_declaration_order(make):
    for node in subterms(make()):
        fields = FIELDS.get(type(node))
        if fields is None:  # a leaf singleton
            continue
        assert type(node).__match_args__ == fields
        values = tuple(getattr(node, f) for f in fields)
        assert type(node)(*values) == node
        assert type(node)(**dict(zip(fields, values))) == node
    match make():
        case cc.Cond(p, e, cc.Com(_, _, _, _, cc.Sel(q, r, l, k)), orelse):
            assert (p, e, q, r, l, k) == ("p", "g", "q", "r", "l", cc.Call("X"))
            assert orelse == cc.Cond("q", "h", cc.NIL, cc.DEADLOCK)
        case sp.Cond(e, sp.Offer(frm, branches), sp.Select(to, l, sp.Receive(cont=k))):
            assert (e, frm, to, l, k) == ("g", "p", "s", "l", sp.NIL)
            assert [l for l, _ in branches] == ["a", "b"]
        case other:
            pytest.fail(f"no pattern matched {other!r}")


@EVERY
def test_size_counts_the_nodes(make):
    for node in subterms(make()):
        assert node.size == sum(1 for _ in subterms(node))


def _relabelled(node, field):
    """`node` with the label `field` changed, or None if that field is a
    subterm."""
    fields = FIELDS[type(node)]
    values = dict((f, getattr(node, f)) for f in fields)
    if isinstance(values[field], str):
        values[field] += "'"
    elif field == "branches":  # rename the offer's first label
        (label, body), *rest = values[field]
        values[field] = [(label + "'", body), *rest]
    else:
        return None
    return type(node)(**values)


@EVERY
def test_equal_terms_hash_equal_and_every_label_counts(make):
    term = make()
    twin = make()
    assert term is not twin and term == twin and hash(term) == hash(twin)
    changed = 0
    for path, node in positions(term):
        for field in FIELDS.get(type(node), ()):
            other = _relabelled(node, field)
            if other is not None:
                assert replace_at(term, path, other) != term, (path, field)
                changed += 1
    assert changed >= 10


def test_equality_walks_deep_terms_without_recursion():
    a, b = _chain(100_000, cc.NIL), _chain(100_000, cc.NIL)
    assert a is not b and a == b and not a != b
    c = _chain(100_000, cc.DEADLOCK)
    assert a != c
    assert fold(a, lambda node, kids: 1 + sum(kids)) == a.size


# The kernel writes constructor methods at class creation, where the
# recursion guard's reading of the source cannot see them; so read
# their code.  A call instruction there may only call what a
# LOAD_GLOBAL put on the stack, and that may only be `hash` or the
# constructor itself; attributes may only be its fields, `_hash` and
# `size`.
_CALLS = {"CALL", "CALL_FUNCTION", "CALL_FUNCTION_EX", "CALL_KW", "CALL_METHOD"}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: f"{c.__module__}.{c.__name__}")
def test_generated_methods_call_only_hash_and_their_class(cls):
    source = sys.modules[cls.__module__].__file__
    generated = {
        name: f.__code__
        for name, f in vars(cls).items()
        if callable(f) and hasattr(f, "__code__") and f.__code__.co_filename != source
    }
    if cls is sp.Offer:  # written by hand
        assert not generated
        return
    assert {"_init", "_label"} <= generated.keys()
    for name, code in generated.items():
        ops = list(dis.get_instructions(code))
        loaded = [op.argval for op in ops if op.opname == "LOAD_GLOBAL"]
        assert set(loaded) <= {"hash", cls.__name__}, name
        assert sum(op.opname in _CALLS for op in ops) == len(loaded), name
        assert set(code.co_names) <= {*loaded, *cls.__slots__, "_hash", "size"}, name
        assert not code.co_freevars and not any(
            hasattr(c, "co_code") for c in code.co_consts
        ), name
