"""The compiled kernel and the search's loop lookup against the
references.

Every state the extraction search opens is turned back into terms and
stepped by `oracles.reference_steps`: the kernel must list the same
labels in the same order, grouped into the same units, and each of its
successors, turned back into a network and a set of marked names, must
equal the reference successor.
Every loop target the search looks up among its open nodes must be the
one `oracles.reference_loop_target` finds among all the graph's nodes.
Interning by keys must agree with structural equality of the terms.
"""

import random

import pytest

from chorex import extraction, sp
from chorex.epp import epp
from chorex.parser import parse_network, pretty
from chorex.semantics import Kernel, enabled_steps
from chorex.term import subterms
from chorex.testgen import FuzzParams, GenParams, amend, fuzz, generate, unroll

from conftest import (
    N2_TEXT,
    N3_TEXT,
    RANKED_LOOP_NET_TEXT,
    SIGNON_NET_TEXT,
    TWO_LOOPS_TEXT,
    UNDO_TEXT,
)
from oracles import (
    AnnotatedNetwork,
    _units,
    node_bound,
    reference_loop_target,
    reference_steps,
)
from test_golden import FUZZ_GRID, POINTS


def _live_mask(kernel, an) -> int:
    """The mask of the live processes of `an`, by their terms."""
    return sum(1 << i for i, p in enumerate(kernel.names) if p in an.live)


class _Checked:
    """`extraction.enabled_steps`, checking each opened state against the
    reference and counting the states it checked."""

    def __init__(self, monkeypatch):
        self.opened = 0
        self._steps = extraction.enabled_steps
        monkeypatch.setattr(extraction, "enabled_steps", self)

    def __call__(self, kernel, state):
        units = self._steps(kernel, state)
        services = frozenset(
            p for i, p in enumerate(kernel.names) if kernel.services >> i & 1
        )
        an = AnnotatedNetwork(kernel.network(state), kernel.marked(state), services)
        assert an.marked == kernel.marked(state)  # the kernel's marking is scrubbed
        reference = _units(reference_steps(an))
        labels = [tuple(s.label for s in unit) for unit in units]
        assert labels == [tuple(r.label for r in unit) for unit in reference]
        assert kernel._live[state >> kernel.n] == _live_mask(kernel, an)
        for unit, r_unit in zip(units, reference):
            for step, r in zip(unit, r_unit):
                succ = kernel.successor(state, step)
                assert kernel.network(succ) == r.successor.net
                assert kernel.marked(succ) == r.successor.marked
                assert kernel._live[succ >> kernel.n] == _live_mask(kernel, r.successor)
        self.opened += 1
        return units


class _CheckedTargets:
    """`extraction.Seg.find_loop_candidate`, checking each target against
    the reference and counting the lookups and the targets found."""

    def __init__(self, monkeypatch):
        self.calls = self.found = 0
        find = extraction.Seg.find_loop_candidate

        def checked(seg, state, path):
            entry = find(seg, state, path)
            target = reference_loop_target(seg, state, path)
            assert (None if entry is None else entry[0]) == target
            self.calls += 1
            self.found += target is not None
            return entry

        monkeypatch.setattr(extraction.Seg, "find_loop_candidate", checked)


def _variants(params):
    net = epp(amend(generate(params)))
    yield net
    for d, s in FUZZ_GRID:
        yield fuzz(net, FuzzParams(deletions=d, swaps=s, seed=params.seed))
    yield unroll(net, seed=params.seed)


def _seeded_draws():
    rng = random.Random("kernel")
    for seed in range(30):
        size = rng.randint(4, 40)
        params = GenParams(
            size=size,
            processes=rng.randint(2, 6),
            ifs=min(size, rng.randint(0, 6)),
            defs=rng.randint(0, 3),
            seed=seed,
        )
        yield epp(amend(generate(params)))


SERVICE_CASES = pytest.mark.parametrize(
    "text, services",
    [
        (N2_TEXT, ()),
        (N3_TEXT, ()),
        (SIGNON_NET_TEXT, ("w",)),
        (RANKED_LOOP_NET_TEXT, ("r",)),
    ],
    ids=["N2", "N3", "signon-service", "ranked-service"],
)


@pytest.mark.parametrize("point", sorted(POINTS))
def test_kernel_matches_the_reference_on_golden_points(point, monkeypatch):
    checked = _Checked(monkeypatch)
    for net in _variants(POINTS[point]):
        extraction.extract(net)
    assert checked.opened > 100


def test_kernel_matches_the_reference_on_seeded_draws(monkeypatch):
    checked = _Checked(monkeypatch)
    for net in _seeded_draws():
        extraction.extract(net)
    assert checked.opened > 30


@SERVICE_CASES
def test_kernel_matches_the_reference_with_services(text, services, monkeypatch):
    checked = _Checked(monkeypatch)
    extraction.extract(parse_network(text), services=services, parallel=False)
    assert checked.opened >= 2


@pytest.mark.parametrize("point", sorted(POINTS))
def test_loop_targets_match_the_reference_on_golden_points(point, monkeypatch):
    checked = _CheckedTargets(monkeypatch)
    for net in _variants(POINTS[point]):
        extraction.extract(net)
    assert checked.calls > 100  # the loop-free points find no target


def test_loop_targets_match_the_reference_on_seeded_draws(monkeypatch):
    checked = _CheckedTargets(monkeypatch)
    for net in _seeded_draws():
        extraction.extract(net)
    assert checked.found > 30


@SERVICE_CASES
def test_loop_targets_match_the_reference_with_services(text, services, monkeypatch):
    checked = _CheckedTargets(monkeypatch)
    extraction.extract(parse_network(text), services=services, parallel=False)
    assert checked.calls >= 2


def test_states_with_the_same_heads_share_their_steps():
    # One turn of p and q's loop brings their heads back and marks them.
    kernel = Kernel(parse_network(TWO_LOOPS_TEXT))
    first = enabled_steps(kernel, kernel.root)
    state = kernel.successor(kernel.root, first[0][0])
    assert state != kernel.root and kernel.marked(state) == {"p", "q"}
    again = enabled_steps(kernel, state)
    assert len(first) == 2 and all(a is b for a, b in zip(first, again))  # the units
    steps = [s for unit in first for s in unit]
    assert all(a is b for a, b in zip(steps, [s for unit in again for s in unit]))
    # p's else branch brings its conditional back: the same (then, else) unit.
    kernel = Kernel(parse_network(UNDO_TEXT))
    (cond,) = [unit for unit in enabled_steps(kernel, kernel.root) if len(unit) == 2]
    state = kernel.successor(kernel.root, cond[1])
    assert state != kernel.root and kernel.marked(state) == {"p"}
    assert [unit for unit in enabled_steps(kernel, state) if unit is cond] == [cond]


def test_ids_are_shared_exactly_by_equal_subterms():
    """On the seeded draws, which hold offers, conditionals and
    procedures: within each process's id range no two `behaviour`
    entries are equal, and every subterm of its bodies equals one of
    them.  A re-parsed copy of the network, equal but built of other
    objects, compiles to the same root ids and the same number of ids."""
    kinds = set()
    for net in _seeded_draws():
        kernel = Kernel(net)
        first = kernel._first
        for i, term in enumerate(kernel.terms):
            entries = kernel.behaviour[first[i] : first[i + 1]]
            found = {t for body in [term.main, *term.procedures.values()] for t in subterms(body)}
            kinds |= {type(t) for t in found}
            assert len(set(entries)) == len(entries)
            assert set(entries) == found
        copy = Kernel(parse_network(pretty(net)))
        assert all(copy.terms[i].main is not t.main for i, t in enumerate(kernel.terms))
        assert copy.ids(copy.root) == kernel.ids(kernel.root)
        assert len(copy.behaviour) == len(kernel.behaviour)
        assert kernel.node_bound() == node_bound(net)
    assert {sp.Offer, sp.Cond, sp.Call} <= kinds
