"""Abstract network reductions, markings, and choreography transitions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from chorex import equiv, sp
from chorex.epp import epp
from chorex.equiv import SimBudget, bisimilar, chor_enabled
from chorex.extraction import extract
from chorex.parser import parse_choreography, parse_network
from chorex.semantics import (
    ComAction,
    ElseAction,
    Kernel,
    SelAction,
    ThenAction,
    enabled_steps,
    pretty_action,
)
from chorex.testgen import GenParams, amend, generate

import oracles
from oracles import AnnotatedNetwork, annotate, marked_root, participants, reference_steps


def _labels(an):
    """The labels of `an`'s steps by the reference semantics, which the
    kernel lists too, in the same order."""
    want = [pretty_action(s.label) for s in reference_steps(an)]
    kernel = Kernel(an.net).serving(an.services)
    units = enabled_steps(kernel, marked_root(kernel, an.marked))
    assert [pretty_action(s.label) for unit in units for s in unit] == want
    return want


class TestEnabledSteps:
    def test_two_independent_communications(self, n1):
        assert _labels(annotate(n1)) == ["p.e -> q.x", "r.e' -> s.y"]

    def test_conditional_contributes_adjacent_pair(self, n2):
        assert _labels(annotate(n2)) == ["if p.e then", "if p.e else"]

    def test_mixed_listing_is_process_ordered(self, n3):
        assert _labels(annotate(n3)) == ["p.1 -> q.x", "if r.e then", "if r.e else"]

    def test_head_unfolding_through_calls(self, two_loops):
        # Every main is a bare call; actions still show up.
        assert _labels(annotate(two_loops)) == ["p.e -> q.x", "r.e' -> s.y"]

    def test_select_offer_matching_requires_label(self):
        net = parse_network(
            "p { main { q+go; stop } } | q { main { p&{ halt: stop } } }"
        )
        assert _labels(annotate(net)) == []

    def test_send_without_matching_receive_is_blocked(self):
        net = parse_network(
            "p { main { q!<e>; stop } } | q { main { p+go; stop } }"
        )
        assert _labels(annotate(net)) == []


class TestMarking:
    # Four processes, p/q exchange twice while r/s exchange once: after the
    # first p-q communication only p and q are marked; the r-s step then
    # touches every remaining waiter, erasing the whole marking.
    CHAIN = """
    p { main { q!<e>; q!<f>; stop } } |
    q { main { p?x; p?y; stop } } |
    r { main { s!<g>; stop } } |
    s { main { r?z; stop } }
    """

    def test_participants_become_marked(self):
        an = annotate(parse_network(self.CHAIN))
        step = [s for s in reference_steps(an) if s.label.sender == "p"][0]
        assert sorted(step.successor.marked) == ["p", "q"]
        assert not step.successor.white

    def test_marking_resets_when_last_waiters_act(self):
        an = annotate(parse_network(self.CHAIN))
        first = [s for s in reference_steps(an) if s.label.sender == "p"][0]
        second = [
            s for s in reference_steps(first.successor) if s.label.sender == "r"
        ][0]
        assert sorted(second.successor.marked) == []
        assert second.successor.white

    def test_terminated_processes_leave_the_marking(self, n1):
        # Both participants die on firing, so nothing stays marked.
        an = annotate(n1)
        step = reference_steps(an)[0]
        assert step.successor.marked == frozenset()

    def test_services_stay_marked_and_exempt(self, ranked_loop_net):
        an = annotate(ranked_loop_net, services={"r"})
        assert an.marked == frozenset({"r"})
        assert an.white  # services do not count against whiteness
        assert an.services == frozenset({"r"})

    def test_terminal_ignores_spinning_services(self):
        net = parse_network(
            "p { main { stop } } | r { def Z { p!<e>; Z } main { Z } }"
        )
        assert annotate(net, services={"r"}).terminal
        assert not annotate(net).terminal

    def test_annotated_network_equality(self, n1):
        a = annotate(n1)
        b = AnnotatedNetwork(n1, frozenset(), frozenset())
        c = AnnotatedNetwork(n1, frozenset({"p"}), frozenset())
        assert a == b and hash(a) == hash(b)
        assert a != c


@given(st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_marking_reset_matches_definition(seed):
    """After any step: either every live unmarked non-service process took
    part and the marking is empty, or the marking grew by the actors."""
    c = amend(generate(GenParams(size=12, processes=3, ifs=2, seed=seed)))
    from chorex.epp import epp

    an = annotate(epp(c))
    rng = random.Random(f"walk:{seed}")
    for _ in range(12):
        steps = reference_steps(an)
        if not steps:
            break
        step = rng.choice(steps)
        touched = frozenset(participants(step.label))
        waiting = an.live - an.marked
        if waiting <= touched:
            assert step.successor.marked == frozenset()
        else:
            assert step.successor.marked == (an.marked | touched) & step.successor.live
        an = step.successor


class TestChorEnabled:
    def test_only_unblocked_actions_fire(self, signon_chor):
        acts = [pretty_action(a) for a, _ in chor_enabled(signon_chor)]
        # The conditional is decided by a, which the first communication
        # blocks, so nothing else is available yet.
        assert acts == ["u.cred -> a.c"]

    def test_independent_actions_swap_past_each_other(self):
        c = parse_choreography("main { p.e -> q.x; r.f -> s.y; stop }")
        acts = [pretty_action(a) for a, _ in chor_enabled(c)]
        assert acts == ["p.e -> q.x", "r.f -> s.y"]

    def test_dependent_action_stays_blocked(self):
        c = parse_choreography("main { p.e -> q.x; q.f -> r.y; stop }")
        acts = [pretty_action(a) for a, _ in chor_enabled(c)]
        assert acts == ["p.e -> q.x"]

    def test_action_under_conditional_needs_both_branches(self):
        c = parse_choreography(
            "main { if p.e then q.g -> r.z; p.a -> q.w; stop else q.g -> r.z; stop }"
        )
        steps = {pretty_action(a): succ for a, succ in chor_enabled(c)}
        assert set(steps) == {"if p.e then", "if p.e else", "q.g -> r.z"}
        # Firing the shared communication removes it from both branches.
        from chorex.parser import pretty_body

        assert (
            pretty_body(steps["q.g -> r.z"])
            == "if p.e then p.a -> q.w; stop else stop"
        )

    def test_conditional_under_conditional(self):
        inner = "if q.f then r.g1 -> s.z; stop else s.g2 -> r.w; stop"
        c = parse_choreography(f"main {{ if p.e then {inner} else {inner} }}")
        steps = {pretty_action(a): succ for a, succ in chor_enabled(c)}
        assert set(steps) == {
            "if p.e then",
            "if p.e else",
            "if q.f then",
            "if q.f else",
        }
        from chorex.parser import pretty_body

        # Resolving the inner conditional first keeps the outer one intact
        # with the chosen branch substituted on both sides.
        assert (
            pretty_body(steps["if q.f then"])
            == "if p.e then r.g1 -> s.z; stop else r.g1 -> s.z; stop"
        )

    def test_calls_unfold_and_loops_terminate(self):
        c = parse_choreography("def X { p.e -> q.x; X } main { X }")
        acts = chor_enabled(c)
        assert [pretty_action(a) for a, _ in acts] == ["p.e -> q.x"]
        (_, succ) = acts[0]
        # The successor of the loop body is the call again.
        assert [pretty_action(a) for a, _ in chor_enabled(c, succ)] == ["p.e -> q.x"]

    def test_duplicate_labels_keep_first_occurrence(self):
        c = parse_choreography("main { p.e -> q.x; p.e -> q.x; stop }")
        acts = chor_enabled(c)
        assert len(acts) == 1
        from chorex.parser import pretty_body

        assert pretty_body(acts[0][1]) == "p.e -> q.x; stop"

    def test_deadlock_has_no_actions(self):
        c = parse_choreography("main { deadlock }")
        assert chor_enabled(c) == []


def test_chor_enabled_matches_the_reference_scan_on_round_trips(monkeypatch):
    """Every body the round trip's bisimilarity check reaches, on records
    0-59 of the acceptance corpus stream, lists the same actions with the
    same successors, in the same order, as a full recursive scan.  The
    full scan's answer is kept per choreography and body within a record,
    since a check meets most bodies more than once; the full scans of
    records 14, 36, 41, 44 and 59 still take most of this test's time."""
    checked = []
    scanned = {}

    def checking(c, body=None):
        got = chor_enabled(c, body)
        key = (id(c), body)
        if key not in scanned:
            scanned[key] = oracles.reference_chor_enabled(c, body)
        assert got == scanned[key], body
        checked.append(body)
        return got

    monkeypatch.setattr(equiv, "chor_enabled", checking)
    rng = random.Random("corpus:roundtrip")
    for i in range(60):
        size = rng.randint(5, 50)
        procs = rng.randint(2, 6)
        ifs = min(rng.randint(0, 10), size)
        defs = rng.randint(0, 3)
        chor = amend(
            generate(GenParams(size=size, processes=procs, ifs=ifs, defs=defs, seed=i))
        )
        program = extract(epp(chor)).program
        scanned.clear()  # the ids of this record's choreographies
        assert bisimilar(chor, program, SimBudget(max_pairs=3000)).verdict == "yes"
    assert len(checked) > 3000


class TestDualRoute:
    """A projectable choreography and its projected network must offer the
    same action sets at every reachable state."""

    def test_fixture_walks(self, signon_chor):
        rng = random.Random("dual:signon")
        assert oracles.compare_chor_vs_network(signon_chor, 80, rng) >= 1

    def test_loop_walks(self):
        c = parse_choreography(
            "def X { p.e -> q.x; r.e' -> s.y; X } main { X }"
        )
        oracles.compare_chor_vs_network(c, 60, random.Random("dual:loop"))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_generated_walks(self, seed):
        c = amend(generate(GenParams(size=18, processes=4, ifs=2, defs=1, seed=seed)))
        oracles.compare_chor_vs_network(c, 40, random.Random(f"dual:{seed}"))


def test_action_helpers():
    com = ComAction("p", "e", "q", "x")
    assert participants(com) == ("p", "q")
    assert participants(SelAction("p", "q", "l")) == ("p", "q")
    assert participants(ThenAction("p", "e")) == ("p",)
    assert pretty_action(ElseAction("p", "e")) == "if p.e else"
    with pytest.raises(TypeError):
        participants("not an action")


class TestLabels:
    """The action labels compare, hash, print and match as the frozen
    dataclasses they replace did."""

    LABELS = (
        ComAction("p", "e", "q", "x"),
        SelAction("p", "q", "l"),
        ThenAction("p", "e"),
        ElseAction("p", "e"),
    )

    def test_then_and_else_of_one_guard_differ(self):
        then, orelse = ThenAction("p", "e"), ElseAction("p", "e")
        assert then != orelse and not then == orelse
        assert len({then, orelse}) == 2

    def test_equal_labels_hash_equal(self):
        for label in self.LABELS:
            copy = type(label)(*(getattr(label, f) for f in type(label).__match_args__))
            assert copy is not label and copy == label and hash(copy) == hash(label)
        assert ComAction("p", "e", "q", "x") != ComAction("p", "e", "q", "y")
        assert ComAction("p", "e", "q", "x") != ("p", "e", "q", "x")
        assert {SelAction("p", "q", "l"): 1}[SelAction("p", "q", "l")] == 1

    def test_repr_is_a_dataclass_repr(self):
        assert [repr(label) for label in self.LABELS] == [
            "ComAction(sender='p', expr='e', receiver='q', var='x')",
            "SelAction(sender='p', receiver='q', label='l')",
            "ThenAction(process='p', expr='e')",
            "ElseAction(process='p', expr='e')",
        ]

    def test_match_reads_the_fields_in_order(self):
        assert ComAction.__match_args__ == ("sender", "expr", "receiver", "var")
        assert SelAction.__match_args__ == ("sender", "receiver", "label")
        assert ThenAction.__match_args__ == ElseAction.__match_args__ == ("process", "expr")
        matched = []
        for label in self.LABELS:
            match label:
                case ComAction(p, e, q, x):
                    matched.append(("com", p, e, q, x))
                case SelAction(p, q, l):
                    matched.append(("sel", p, q, l))
                case ThenAction(p, e):
                    matched.append(("then", p, e))
                case ElseAction(process=p, expr=e):
                    matched.append(("else", p, e))
        assert matched == [
            ("com", "p", "e", "q", "x"),
            ("sel", "p", "q", "l"),
            ("then", "p", "e"),
            ("else", "p", "e"),
        ]
