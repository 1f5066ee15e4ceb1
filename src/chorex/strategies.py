"""Step-ordering heuristics for the extraction search.

A strategy turns the list of enabled steps of a node into the order in
which the engine will try them, as a list of units (see `group_units`).
Orderings are total preorders; ties keep the canonical enumeration order
(process name, then constructor), so every strategy is fully deterministic
given its seed.  Sort keys read step labels, the sizes of the
participants' main behaviours and the marking mask of the state only, so
ordering never builds a successor state.

The two halves of a conditional (its then and else steps) always travel
together: they receive identical sort keys and random shuffles permute
whole units, never separating a pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .semantics import ComAction, ElseAction, Kernel, SelAction, Step

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


def _largest_main(step: Step, state: tuple, size: list) -> int:
    return max(size[state[p]] for p in step.procs)


def _touches_unmarked(step: Step, state: tuple) -> bool:
    return bool(step.bits & ~state[-1])


def _secondary_selections(step: Step) -> int:
    match step.label:
        case SelAction():
            return 0
        case ComAction():
            return 1
    return 2


def _unmarked_last(step: Step, state: tuple, size: list) -> int:
    return 0 if _touches_unmarked(step, state) else 1


def _conditionals_last(step: Step, state: tuple, size: list) -> int:
    return 0 if _is_interaction(step) else 1


# Sort key of each strategy, on the head step of a unit, the state and
# the kernel's main sizes; None keeps the order as given (canonical, or
# shuffled for the random strategies).
_SORT_KEYS = {
    "Random": None,
    "LongestFirst": lambda step, state, size: -_largest_main(step, state, size),
    "ShortestFirst": _largest_main,
    "InteractionsFirst": _conditionals_last,
    "ConditionalsFirst": lambda step, state, size: 1 - _conditionals_last(step, state, size),
    "UnmarkedFirst": _unmarked_last,
    "UnmarkedThenInteractions": lambda step, state, size: (
        _unmarked_last(step, state, size),
        _conditionals_last(step, state, size),
    ),
    "UnmarkedThenSelections": lambda step, state, size: (
        _unmarked_last(step, state, size),
        _secondary_selections(step),
    ),
    "UnmarkedThenConditionals": lambda step, state, size: (
        _unmarked_last(step, state, size),
        1 - _conditionals_last(step, state, size),
    ),
    "UnmarkedThenRandom": _unmarked_last,
}


def order_steps(
    steps: list, strategy: Strategy, kernel: Kernel, state: tuple, rng: random.Random
) -> list:
    """The units of `steps`, enabled in `state` (see `group_units`), in the
    order the strategy wants them tried: shuffled first by `rng` for the
    random strategies, then stably sorted by the strategy's key."""
    units = group_units(steps)
    if len(units) == 1:  # nothing to order, and a shuffle draws nothing
        return units
    if strategy.name in ("Random", "UnmarkedThenRandom"):
        rng.shuffle(units)
    key = _SORT_KEYS[strategy.name]
    if key is not None:
        size = kernel.size
        units.sort(key=lambda unit: key(unit[0], state, size))
    return units
