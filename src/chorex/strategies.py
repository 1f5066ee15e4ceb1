"""Step-ordering heuristics for the extraction search.

A strategy turns the list of enabled steps of a node into the order in
which the engine will try them, as a list of units (see `group_units`).
Orderings are total preorders; ties keep the canonical enumeration order
(process name, then constructor), so every strategy is fully deterministic
given its seed.  Sort keys read step labels and the current marking only,
so ordering never builds a successor state.

The two halves of a conditional (its then and else steps) always travel
together: they receive identical sort keys and random shuffles permute
whole units, never separating a pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .semantics import (
    AnnotatedNetwork,
    ComAction,
    ElseAction,
    SelAction,
    Step,
    participants,
)

STRATEGY_NAMES = (
    "Random",
    "LongestFirst",
    "ShortestFirst",
    "InteractionsFirst",
    "ConditionalsFirst",
    "UnmarkedFirst",
    "UnmarkedThenInteractions",
    "UnmarkedThenSelections",
    "UnmarkedThenConditionals",
    "UnmarkedThenRandom",
)


@dataclass(frozen=True)
class Strategy:
    name: str = "InteractionsFirst"
    seed: int = 0

    def __post_init__(self):
        if self.name not in STRATEGY_NAMES:
            raise ValueError(
                f"unknown strategy {self.name!r}; choose from {', '.join(STRATEGY_NAMES)}"
            )


def group_units(steps: list) -> list:
    """Group steps into schedulable units, pairing Then with Else.

    Returns a list of tuples of steps: singletons for interactions, pairs
    for conditionals (then first).  `steps` comes in `enabled_steps`
    order, which lists each Else step right after its Then step.
    """
    units = []
    for step in steps:
        if type(step.label) is ElseAction:
            units[-1] += (step,)  # the unit of its Then step
        else:
            units.append((step,))
    return units


def _is_interaction(step: Step) -> bool:
    return isinstance(step.label, (ComAction, SelAction))


def _largest_main(step: Step, an: AnnotatedNetwork) -> int:
    return max(an.net[p].main.size for p in participants(step.label))


def _touches_unmarked(step: Step, an: AnnotatedNetwork) -> bool:
    return not an.marked.issuperset(participants(step.label))


def _secondary_selections(step: Step) -> int:
    match step.label:
        case SelAction():
            return 0
        case ComAction():
            return 1
    return 2


def _unmarked_last(step: Step, an: AnnotatedNetwork) -> int:
    return 0 if _touches_unmarked(step, an) else 1


def _conditionals_last(step: Step, an: AnnotatedNetwork) -> int:
    return 0 if _is_interaction(step) else 1


# Sort key of each strategy, on the head step of a unit; None keeps the
# order as given (canonical, or shuffled for the random strategies).
_SORT_KEYS = {
    "Random": None,
    "LongestFirst": lambda step, an: -_largest_main(step, an),
    "ShortestFirst": _largest_main,
    "InteractionsFirst": _conditionals_last,
    "ConditionalsFirst": lambda step, an: 1 - _conditionals_last(step, an),
    "UnmarkedFirst": _unmarked_last,
    "UnmarkedThenInteractions": lambda step, an: (
        _unmarked_last(step, an),
        _conditionals_last(step, an),
    ),
    "UnmarkedThenSelections": lambda step, an: (
        _unmarked_last(step, an),
        _secondary_selections(step),
    ),
    "UnmarkedThenConditionals": lambda step, an: (
        _unmarked_last(step, an),
        1 - _conditionals_last(step, an),
    ),
    "UnmarkedThenRandom": _unmarked_last,
}


def order_steps(
    steps: list, strategy: Strategy, an: AnnotatedNetwork, rng: random.Random
) -> list:
    """The units of `steps` (see `group_units`) in the order the strategy
    wants them tried: shuffled first by `rng` for the random strategies,
    then stably sorted by the strategy's key."""
    units = group_units(steps)
    if strategy.name in ("Random", "UnmarkedThenRandom"):
        rng.shuffle(units)
    key = _SORT_KEYS[strategy.name]
    if key is not None:
        units.sort(key=lambda unit: key(unit[0], an))
    return units
