"""Construction guards, sizes, equality, and head unfolding of terms."""

import pytest

from chorex import cc, sp
from chorex.parser import parse_network
from chorex.semantics import (
    ComAction,
    ElseAction,
    Kernel,
    SelAction,
    ThenAction,
    enabled_steps,
)

from oracles import AnnotatedNetwork, participants

from conftest import N1_TEXT, N2_TEXT, N3_TEXT, RANKED_LOOP_NET_TEXT, SIGNON_NET_TEXT

TERMINATED = sp.ProcessTerm({}, sp.NIL)


class TestBehaviourBasics:
    def test_sizes_count_constructor_nodes(self):
        b = sp.Send("q", "e", sp.Receive("q", "x", sp.NIL))
        assert b.size == 3  # send + receive + nil
        c = sp.Cond("e", b, sp.NIL)
        assert c.size == 1 + 3 + 1

    def test_offer_branches_sort_by_label(self):
        o1 = sp.Offer("p", [("b", sp.NIL), ("a", sp.NIL)])
        o2 = sp.Offer("p", {"a": sp.NIL, "b": sp.NIL})
        assert o1 == o2
        assert hash(o1) == hash(o2)
        assert [l for l, _ in o1.branches] == ["a", "b"]

    def test_offer_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="duplicate branch labels"):
            sp.Offer("p", [("a", sp.NIL), ("a", sp.NIL)])
        with pytest.raises(ValueError, match="at least one branch"):
            sp.Offer("p", [])

    def test_structural_equality_and_hash(self):
        a = sp.Send("q", "e", sp.Send("q", "f", sp.NIL))
        b = sp.Send("q", "e", sp.Send("q", "f", sp.NIL))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != sp.Send("q", "e", sp.NIL)
        assert sp.Call("X") != sp.Call("Y")

    def test_mentioned_processes(self):
        # The kernel reads a process's peers off its compiled bodies: a
        # peer it missed would be a component of its own.
        b = sp.Cond(
            "e",
            sp.Send("q", "v", sp.NIL),
            sp.Offer("r", {"l": sp.Receive("s", "x", sp.NIL)}),
        )
        t = sp.ProcessTerm({"X": sp.Select("t", "l", sp.Call("X"))}, b)
        net = sp.Network({p: TERMINATED for p in "qrst"} | {"p": t})
        assert [part.names for part in Kernel(net).split()] == [("p", "q", "r", "s", "t")]


class TestProcessTerm:
    def test_head_behaviour_chases_calls(self):
        body = sp.Send("q", "e", sp.Call("X"))
        t = sp.ProcessTerm({"X": sp.Call("Y"), "Y": body}, sp.Call("X"))
        assert t.head_behaviour() == body

    def test_head_behaviour_rejects_bare_call_cycles(self):
        t = sp.ProcessTerm({"X": sp.Call("X")}, sp.Call("X"))
        with pytest.raises(AssertionError, match="unguarded recursion"):
            t.head_behaviour()

    @pytest.mark.parametrize("extra", [{}, {"Y": sp.NIL}], ids=["alone", "beside-Y"])
    def test_head_behaviour_names_an_undefined_end_of_chain(self, extra):
        # X is a bare call to an undefined Z: nothing cycles, so the
        # chase reports the missing procedure, whatever else is defined.
        t = sp.ProcessTerm({"X": sp.Call("Z"), **extra}, sp.Call("X"))
        with pytest.raises(KeyError) as info:
            t.head_behaviour()
        assert info.value.args == ("Z",)

    def test_terminated_term_is_not_live(self):
        # A process is live unless its head, calls chased, is Nil.
        acting = sp.ProcessTerm({"X": sp.Send("p", "e", sp.Call("X"))}, sp.Call("X"))
        net = sp.Network(
            {"p": TERMINATED, "q": sp.ProcessTerm({"X": sp.NIL}, sp.Call("X")), "r": acting}
        )
        kernel = Kernel(net)
        assert kernel._live[kernel.root >> kernel.n] == 0b100

    def test_duplicate_procedure_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate procedure"):
            sp.ProcessTerm([("X", sp.NIL), ("X", sp.NIL)], sp.NIL)


class TestNetwork:
    def test_networks_sort_names_and_compare(self):
        a = sp.Network({"q": TERMINATED, "p": TERMINATED})
        b = sp.Network({"p": TERMINATED, "q": TERMINATED})
        assert a == b and hash(a) == hash(b)
        assert list(a.names()) == ["p", "q"]

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="at least one process"):
            sp.Network({})

    def test_replace_leaves_the_original(self):
        t = sp.ProcessTerm({}, sp.Send("q", "e", sp.NIL))
        n = sp.Network({"p": t, "q": TERMINATED})
        n2 = n.replace({"p": TERMINATED})
        assert n2["p"] == TERMINATED
        assert n["p"] == t  # original untouched


def _fresh(n: sp.Network) -> sp.Network:
    """The same network built from scratch, sharing no term objects."""
    return sp.Network(
        {p: sp.ProcessTerm(dict(t.procedures), t.main) for p, t in n.processes.items()}
    )


class TestIncrementalUpdates:
    """`Network.replace` must agree with building from scratch, hash
    included."""

    T = sp.ProcessTerm(
        {"X": sp.Send("q", "e", sp.Call("X"))}, sp.Receive("q", "x", sp.Call("X"))
    )
    NET = sp.Network({"p": T, "q": TERMINATED, "r": sp.ProcessTerm(T.procedures, sp.Call("X"))})

    @pytest.mark.parametrize(
        "updates",
        [
            {"q": T},
            {"p": TERMINATED, "r": T},
            {"r": TERMINATED},
            {"p": T},
            {"s": T},
        ],
        ids=["one", "two", "terminate", "same-term", "new-name"],
    )
    def test_replace_equals_rebuilding(self, updates):
        n = self.NET
        got = n.replace(updates)
        want = sp.Network({**n.processes, **updates})
        assert got == want and hash(got) == hash(want)
        assert list(got.names()) == list(want.names())
        assert got == _fresh(want) and hash(got) == hash(_fresh(want))

    def test_replace_round_trip_restores_hash(self):
        n = self.NET
        there = n.replace({"p": TERMINATED, "q": self.T})
        back = there.replace({"p": n["p"], "q": n["q"]})
        assert back == n and hash(back) == hash(n)


def _eager_successor(an, label):
    """A step's successor by the definition: rebuild every term and the
    network, and recompute the live and waiting sets."""
    net = an.net
    match label:
        case ComAction(p, _, q, _):
            after = {p: net[p].head_behaviour().cont, q: net[q].head_behaviour().cont}
        case SelAction(p, q, l):
            after = {
                p: net[p].head_behaviour().cont,
                q: dict(net[q].head_behaviour().branches)[l],
            }
        case ThenAction(p, _):
            after = {p: net[p].head_behaviour().then}
        case ElseAction(p, _):
            after = {p: net[p].head_behaviour().orelse}
    updates = {p: sp.ProcessTerm(dict(net[p].procedures), b) for p, b in after.items()}
    succ_net = sp.Network({**net.processes, **updates})
    touched = frozenset(participants(label))
    waiting = an.live - an.marked - an.services
    marked = frozenset() if waiting <= touched else an.marked | touched
    return AnnotatedNetwork(succ_net, marked, an.services)


@pytest.mark.parametrize(
    "text, services",
    [
        (N1_TEXT, ()),
        (N2_TEXT, ()),
        (N3_TEXT, ()),
        (SIGNON_NET_TEXT, ()),
        (SIGNON_NET_TEXT, ("w",)),
        (RANKED_LOOP_NET_TEXT, ("r",)),
    ],
    ids=["N1", "N2", "N3", "signon", "signon-service", "ranked-service"],
)
def test_lazy_successors_equal_eager_ones(text, services):
    """Every step of every reachable state of the kernel: its successor,
    built only when asked for and turned back into terms, equals the
    eagerly built one, marking and live set included."""
    net = parse_network(text)
    kernel = Kernel(net).serving(services)
    seen = {kernel.root}
    frontier = [kernel.root]
    steps = 0
    while frontier:
        state = frontier.pop()
        an = AnnotatedNetwork(kernel.network(state), kernel.marked(state), frozenset(services))
        for step in [s for unit in enabled_steps(kernel, state) for s in unit]:
            want = _eager_successor(an, step.label)
            succ = kernel.successor(state, step)
            assert kernel.successor(state, step) == succ
            got = AnnotatedNetwork(kernel.network(succ), kernel.marked(succ), an.services)
            assert got == want and hash(got) == hash(want)
            assert got.marked == want.marked
            assert got.live == want.live
            assert kernel._live[succ >> kernel.n] == sum(
                1 << i for i, p in enumerate(kernel.names) if p in want.live
            )
            assert got.net.names() == want.net.names()
            steps += 1
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    assert steps > 0


class TestChoreographyTerms:
    def test_com_and_sel_reject_self_interaction(self):
        with pytest.raises(ValueError, match="self-communication"):
            cc.Com("p", "e", "p", "x", cc.NIL)
        with pytest.raises(ValueError, match="self-selection"):
            cc.Sel("p", "p", "l", cc.NIL)

    def test_bare_call_procedure_bodies_rejected(self):
        with pytest.raises(ValueError, match="guarded"):
            cc.Choreography({"X": cc.Call("Y"), "Y": cc.NIL}, cc.NIL)

    def test_body_sizes(self):
        body = cc.Com("p", "e", "q", "x", cc.Sel("p", "q", "l", cc.NIL))
        assert body.size == 3
        assert cc.Cond("p", "e", body, cc.DEADLOCK).size == 1 + 3 + 1

    def test_process_names_skip_expressions(self):
        body = cc.Cond("p", "q", cc.Com("r", "e", "s", "x", cc.NIL), cc.NIL)
        # The guard expression "q" is opaque text, not a process.
        assert cc.body_process_names(body) == frozenset({"p", "r", "s"})

    def test_program_requires_disjoint_components(self):
        c1 = cc.Choreography({}, cc.Com("p", "e", "q", "x", cc.NIL))
        c2 = cc.Choreography({}, cc.Com("q", "e", "r", "x", cc.NIL))
        with pytest.raises(ValueError, match="share process names"):
            cc.Program([c1, c2])
        ok = cc.Choreography({}, cc.Com("r", "e", "s", "x", cc.NIL))
        assert len(cc.Program([c1, ok]).components) == 2

    def test_one_component_is_not_walked_for_overlaps(self, monkeypatch):
        def walked(c):
            raise AssertionError("walked a lone component")

        monkeypatch.setattr(cc, "choreography_process_names", walked)
        c = cc.Choreography({}, cc.Com("p", "e", "q", "x", cc.NIL))
        assert cc.Program([c]).components == (c,)

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            cc.Program([])

    def test_equality_and_repr(self):
        a = cc.Choreography({"X": cc.Com("p", "e", "q", "x", cc.Call("X"))}, cc.Call("X"))
        b = cc.Choreography({"X": cc.Com("p", "e", "q", "x", cc.Call("X"))}, cc.Call("X"))
        assert a == b and hash(a) == hash(b)
        assert "Choreography" in repr(a)
