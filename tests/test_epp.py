"""Projection and the merge operator."""

import pytest
from hypothesis import given, settings, strategies as st

from chorex import sp
from chorex.epp import MergeError, describe_head, epp, merge, project_each, project_process
from chorex.parser import parse_choreography, parse_network, pretty

from chorex.testgen import GenParams, amend, generate

import oracles
from conftest import RANKED_LOOP_CHOR_TEXT, SIGNON_NET_TEXT
from test_golden import POINTS


def test_projecting_the_signon_choreography_recovers_the_network(signon_chor):
    assert epp(signon_chor) == parse_network(SIGNON_NET_TEXT)


def test_projection_roles():
    c = parse_choreography("main { p.e -> q.x; p -> q[go]; stop }")
    assert project_each(c.main, ("p",))[0] == sp.Send("q", "e", sp.Select("q", "go", sp.NIL))
    assert project_each(c.main, ("q",))[0] == sp.Receive(
        "p", "x", sp.Offer("p", {"go": sp.NIL})
    )
    # Uninvolved processes see nothing.
    assert project_each(c.main, ("r",))[0] == sp.NIL


def test_decider_keeps_conditional_others_merge():
    c = parse_choreography(
        "main { if p.e then p -> q[l]; q.a -> r.x; stop else p -> q[m]; stop }"
    )
    p = project_each(c.main, ("p",))[0]
    assert isinstance(p, sp.Cond)
    q = project_each(c.main, ("q",))[0]
    assert q == sp.Offer("p", {"l": sp.Send("r", "a", sp.NIL), "m": sp.NIL})
    with pytest.raises(MergeError):
        # r hears nothing about the choice but behaves differently.
        project_each(c.main, ("r",))[0]


def test_deadlock_cannot_be_projected():
    c = parse_choreography("main { deadlock }")
    with pytest.raises(ValueError, match="deadlock"):
        project_each(c.main, ("p",))[0]


def test_unprojectable_conditional_reports_location():
    c = parse_choreography(RANKED_LOOP_CHOR_TEXT)
    with pytest.raises(MergeError) as err:
        epp(c)
    assert err.value.location == "process r at conditional on q.(x=y)"
    assert "cannot merge" in str(err.value)


def test_merge_error_names_the_first_process_not_the_first_conditional():
    # c fails at the inner conditional, which a bottom-up walk meets
    # first; b, first in name order, fails at the outer one.
    c = parse_choreography(
        "main { if a.u then b.e -> a.x; if a.v then c.f -> a.y; stop else stop"
        " else stop }"
    )
    with pytest.raises(MergeError) as err:
        epp(c)
    assert str(err.value) == (
        "process b at conditional on a.u: cannot merge send e to a with stop"
    )


def test_merge_error_names_a_procedure_before_main():
    # b fails in main and in X, c only in main: b's failure in X is named.
    c = parse_choreography(
        "def X { if a.w then b.g -> a.z; stop else stop }"
        " main { if a.u then c.e -> b.x; X else X }"
    )
    with pytest.raises(MergeError) as err:
        epp(c)
    assert str(err.value) == (
        "process b at conditional on a.w: cannot merge send g to a with stop"
    )


def _assert_epp_matches_reference(c):
    try:
        expected = oracles.reference_epp(c)
    except oracles.ReferenceMergeFailure as failure:
        with pytest.raises(MergeError) as err:
            epp(c)
        assert err.value.location == failure.location
        assert (err.value.left, err.value.right) == (failure.left, failure.right)
    else:
        assert epp(c) == expected


@pytest.mark.parametrize("point", sorted(POINTS))
def test_epp_matches_the_reference_on_golden_points(point):
    raw = generate(POINTS[point])
    _assert_epp_matches_reference(raw)
    _assert_epp_matches_reference(amend(raw))


def test_epp_matches_the_reference_on_seeded_draws():
    for seed in range(30):
        size = 4 + (seed * 7) % 40
        params = GenParams(
            size=size,
            processes=2 + seed % 5,
            ifs=min(size, seed % 6),
            defs=seed % 4,
            seed=seed,
        )
        raw = generate(params)
        _assert_epp_matches_reference(raw)
        _assert_epp_matches_reference(amend(raw))


def test_epp_universe_extension():
    c = parse_choreography("main { p.e -> q.x; stop }")
    net = epp(c, processes=("r",))
    assert set(net.names()) == {"p", "q", "r"}
    assert not net["r"].is_live()


def test_epp_requires_some_process():
    with pytest.raises(ValueError, match="no processes"):
        epp(parse_choreography("main { stop }"))


def test_uninvolved_looping_procedure_collapses_to_stop():
    c = parse_choreography("def X { p.e -> q.x; X } main { X }")
    term = project_process(c, "r")
    # r's view of the loop is a bare self-call, which can never act.
    assert term.procedures == {"X": sp.NIL}
    assert term.main == sp.Call("X")
    assert not term.is_live()
    # Only the members of a cycle collapse: Z leads into the X-Y cycle
    # and keeps its call.
    c = parse_choreography(
        "def X { p -> q[l]; Y } def Y { p.e -> q.y; X } def Z { p.e -> q.x; X } main { Z }"
    )
    net = epp(c, processes=("r",))
    assert pretty(sp.Network({"r": net["r"]})) == (
        "r { def X { stop } def Y { stop } def Z { X } main { Z } }"
    )


class TestMerge:
    def test_identical_heads_merge_pointwise(self):
        a = sp.Send("q", "e", sp.Offer("q", {"l": sp.NIL}))
        b = sp.Send("q", "e", sp.Offer("q", {"m": sp.NIL}))
        merged = merge(a, b)
        assert merged == sp.Send("q", "e", sp.Offer("q", {"l": sp.NIL, "m": sp.NIL}))

    def test_offers_union_and_shared_labels_recurse(self):
        a = sp.Offer("p", {"l": sp.Send("q", "e", sp.NIL), "m": sp.NIL})
        b = sp.Offer("p", {"l": sp.Send("q", "e", sp.NIL), "n": sp.NIL})
        merged = merge(a, b)
        assert [l for l, _ in merged.branches] == ["l", "m", "n"]

    def test_mismatched_heads_raise(self):
        with pytest.raises(MergeError):
            merge(sp.Send("q", "e", sp.NIL), sp.Send("q", "f", sp.NIL))
        with pytest.raises(MergeError):
            merge(sp.Send("q", "e", sp.NIL), sp.Receive("q", "x", sp.NIL))
        with pytest.raises(MergeError):
            merge(sp.Call("X"), sp.NIL)

    def test_merge_error_carries_both_sides_and_location(self):
        err = MergeError(sp.NIL, sp.Call("X"))
        assert err.location is None
        located = err.at("process p somewhere")
        assert located.location == "process p somewhere"
        assert located.left == sp.NIL and located.right == sp.Call("X")
        assert str(located).startswith("process p somewhere: cannot merge stop with call X")

    def test_describe_head_covers_every_shape(self):
        cases = [
            (sp.NIL, "stop"),
            (sp.Call("X"), "call X"),
            (sp.Send("q", "e", sp.NIL), "send e to q"),
            (sp.Receive("q", "x", sp.NIL), "receive x from q"),
            (sp.Select("q", "l", sp.NIL), "select l at q"),
            (sp.Offer("q", {"l": sp.NIL, "m": sp.NIL}), "offer {l, m} from q"),
            (sp.Cond("e", sp.NIL, sp.NIL), "conditional on e"),
        ]
        for behaviour, text in cases:
            assert describe_head(behaviour) == text


# Random behaviours for merge laws: a small pool keeps offers colliding.

_peers = st.sampled_from(["q", "r"])
_labels = st.sampled_from(["a", "b", "c"])

_behaviours = st.recursive(
    st.just(sp.NIL),
    lambda inner: st.one_of(
        st.builds(sp.Send, _peers, st.sampled_from(["e", "f"]), inner),
        st.builds(sp.Receive, _peers, st.sampled_from(["x", "y"]), inner),
        st.builds(sp.Select, _peers, _labels, inner),
        st.builds(sp.Offer, _peers, st.dictionaries(_labels, inner, min_size=1, max_size=3)),
        st.builds(sp.Cond, st.sampled_from(["e", "f"]), inner, inner),
    ),
    max_leaves=10,
)


@given(_behaviours)
@settings(max_examples=150, deadline=None)
def test_merge_is_idempotent(b):
    assert merge(b, b) == b


@given(_behaviours, _behaviours)
@settings(max_examples=150, deadline=None)
def test_merge_is_commutative_when_defined(a, b):
    try:
        left = merge(a, b)
    except MergeError:
        with pytest.raises(MergeError):
            merge(b, a)
        return
    assert left == merge(b, a)


@given(_behaviours, _behaviours, _behaviours)
@settings(max_examples=150, deadline=None)
def test_merge_is_associative_when_defined(a, b, c):
    try:
        left = merge(merge(a, b), c)
    except MergeError:
        return
    assert left == merge(a, merge(b, c))


@given(st.dictionaries(_labels, _behaviours, min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_offer_absorbs_its_restrictions(branches):
    whole = sp.Offer("q", branches)
    for label in branches:
        part = sp.Offer("q", {label: branches[label]})
        assert merge(whole, part) == whole


@pytest.mark.xfail(
    strict=True,
    raises=MergeError,
    reason="known fault: epp.merge cannot merge an offer with a procedure call "
    "that an extraction leaves in the other branch of a conditional",
)
def test_extraction_of_a_projection_projects_again():
    """procedures-k3-r0 at seed 0: project, extract, print, parse, project.
    The second projection fails with "process p1 at conditional on p2.e4:
    cannot merge offer {thenL} from p2 with call X5"."""
    from chorex.extraction import extract
    from chorex.parser import parse_program, pretty
    from chorex.testgen import GenParams, amend, generate

    c = amend(generate(GenParams(size=20, processes=5, ifs=8, defs=3, seed=0)))
    result = extract(epp(c))
    assert result.ok
    program = parse_program(pretty(result.program))
    for component in program.components:
        epp(component)
