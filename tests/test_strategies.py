"""Step-ordering heuristics: the kernel's units and per-strategy orderings."""

import random

import pytest

from chorex.parser import parse_network
from chorex.semantics import Kernel, enabled_steps, pretty_action
from chorex.strategies import STRATEGY_NAMES, Strategy, order_steps

from oracles import AnnotatedNetwork, annotate, marked_root

# One communication, one selection, one conditional, with main sizes
# 3 (p/q), 2 (r/s), 3 (t) to give the size-based strategies a spread.
MIX = parse_network("""
p { main { q!<e>; q!<f>; stop } } |
q { main { p?x; p?y; stop } } |
r { main { s+go; stop } } |
s { main { r&{ go: stop } } } |
t { main { if c then stop else stop } }
""")


def _units(an):
    """The kernel of `an`'s network, the state of `an`, and its units."""
    kernel = Kernel(an.net).serving(an.services)
    state = marked_root(kernel, an.marked)
    return kernel, state, enabled_steps(kernel, state)


def _ordered(name, an=None, rng=None, seed=0):
    an = an or annotate(MIX)
    rng = rng or random.Random(seed)
    kernel, state, units = _units(an)
    units = order_steps(units, Strategy(name, seed), kernel, state, rng)
    return [pretty_action(s.label) for unit in units for s in unit]


COM, SEL, THEN, ELSE = "p.e -> q.x", "r -> s[go]", "if t.c then", "if t.c else"


def test_strategy_names_are_fixed():
    assert len(STRATEGY_NAMES) == 10
    assert STRATEGY_NAMES[0] == "Random"
    assert "InteractionsFirst" in STRATEGY_NAMES


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strategy"):
        Strategy("Fastest")


def test_kernel_units_pair_then_with_else():
    _, _, units = _units(annotate(MIX))
    shapes = [[pretty_action(s.label) for s in u] for u in units]
    assert shapes == [[COM], [SEL], [THEN, ELSE]]


class TestOrderings:
    def test_canonical_enumeration(self):
        assert _ordered("InteractionsFirst") == [COM, SEL, THEN, ELSE]

    def test_conditionals_first(self):
        assert _ordered("ConditionalsFirst") == [THEN, ELSE, COM, SEL]

    def test_longest_first_prefers_big_mains(self):
        # com and cond both touch a size-3 main; ties keep canonical order.
        assert _ordered("LongestFirst") == [COM, THEN, ELSE, SEL]

    def test_shortest_first(self):
        assert _ordered("ShortestFirst") == [SEL, COM, THEN, ELSE]

    def test_unmarked_first_with_clean_marking(self):
        assert _ordered("UnmarkedFirst") == [COM, SEL, THEN, ELSE]

    def test_unmarked_first_demotes_marked_participants(self):
        an = AnnotatedNetwork(MIX, frozenset({"p", "q"}), frozenset())
        assert _ordered("UnmarkedFirst", an) == [SEL, THEN, ELSE, COM]

    def test_unmarked_then_selections(self):
        assert _ordered("UnmarkedThenSelections") == [SEL, COM, THEN, ELSE]

    def test_unmarked_then_conditionals(self):
        assert _ordered("UnmarkedThenConditionals") == [THEN, ELSE, COM, SEL]

    def test_random_permutes_whole_units(self):
        out = _ordered("Random", rng=random.Random("freeze:0"))
        assert out == [THEN, ELSE, SEL, COM]
        # The pair travelled together through the shuffle.
        assert out.index(ELSE) == out.index(THEN) + 1

    def test_random_is_reproducible(self):
        a = _ordered("Random", rng=random.Random("k"), seed=3)
        b = _ordered("Random", rng=random.Random("k"), seed=3)
        assert a == b


def test_every_strategy_emits_every_step_once():
    _, _, units = _units(annotate(MIX))
    want = sorted(pretty_action(s.label) for unit in units for s in unit)
    for name in STRATEGY_NAMES:
        got = _ordered(name, rng=random.Random(name))
        assert sorted(got) == want, name
