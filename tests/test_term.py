"""The traversal kernel shared by behaviours and choreography bodies."""

from chorex import cc, sp
from chorex.term import fold, positions, replace_at, subterm_at, subterms

OFFER = sp.Offer("p", {"b": sp.Call("X"), "a": sp.Send("q", "e", sp.NIL)})
TERM = sp.Cond("g", OFFER, sp.Receive("r", "x", sp.NIL))


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
    assert fold(TERM, lambda node, kids: node.rebuild(kids)) == TERM
    assert OFFER.rebuild((sp.NIL, sp.NIL)) == sp.Offer("p", {"a": sp.NIL, "b": sp.NIL})


def test_equality_walks_deep_terms_without_recursion():
    a, b = _chain(100_000, cc.NIL), _chain(100_000, cc.NIL)
    assert a is not b and a == b and not a != b
    c = _chain(100_000, cc.DEADLOCK)
    assert a != c
    assert fold(a, lambda node, kids: 1 + sum(kids)) == a.size
