"""Step-ordering heuristics for the extraction search.

A strategy turns the units of a node (see `semantics.enabled_steps`) into
the order in which the engine will try them.  Orderings are total
preorders; ties keep the canonical enumeration order (process name, then
constructor), so every strategy is fully deterministic given its seed.
Sort keys read a unit's length (two for a conditional), its head step's
label and participants, the sizes of the participants' main behaviours
and the marking of the state only, so ordering never builds a successor
state.  Random shuffles permute whole units.  The search orders only the
units of a node with a choice: a node whose one unit is an interaction
has nothing to order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .semantics import Kernel, SelAction

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

# The strategies that shuffle a node's units with the search's random
# generator; no other strategy needs one.
SHUFFLED = frozenset({"Random", "UnmarkedThenRandom"})


@dataclass(frozen=True)
class Strategy:
    name: str = "InteractionsFirst"
    seed: int = 0

    def __post_init__(self):
        if self.name not in STRATEGY_NAMES:
            raise ValueError(
                f"unknown strategy {self.name!r}; choose from {', '.join(STRATEGY_NAMES)}"
            )


def _largest_main(unit: tuple, ids: tuple, state: int, size: list) -> int:
    return max(size[ids[p]] for p in unit[0].procs)


def _unmarked_last(unit: tuple, ids: tuple, state: int, size: list) -> int:
    # A state's low bits are its marking, and a step's `bits` lie there.
    return 0 if unit[0].bits & ~state else 1


def _secondary_selections(unit: tuple) -> int:
    if len(unit) == 2:
        return 2
    return 0 if type(unit[0].label) is SelAction else 1


# Sort key of each strategy, on a unit, the main ids of the state, the
# state and the kernel's sizes; None keeps the order as given (canonical,
# or shuffled for the random strategies).  `len(unit)` is 1 for an
# interaction, 2 for a conditional.
_SORT_KEYS = {
    "Random": None,
    "LongestFirst": lambda unit, ids, state, size: -_largest_main(unit, ids, state, size),
    "ShortestFirst": _largest_main,
    "InteractionsFirst": lambda unit, ids, state, size: len(unit),
    "ConditionalsFirst": lambda unit, ids, state, size: -len(unit),
    "UnmarkedFirst": _unmarked_last,
    "UnmarkedThenInteractions": lambda unit, ids, state, size: (
        _unmarked_last(unit, ids, state, size),
        len(unit),
    ),
    "UnmarkedThenSelections": lambda unit, ids, state, size: (
        _unmarked_last(unit, ids, state, size),
        _secondary_selections(unit),
    ),
    "UnmarkedThenConditionals": lambda unit, ids, state, size: (
        _unmarked_last(unit, ids, state, size),
        -len(unit),
    ),
    "UnmarkedThenRandom": _unmarked_last,
}


def order_steps(
    units: list,
    strategy: Strategy,
    kernel: Kernel,
    state: int,
    rng: random.Random | None,
) -> list:
    """`units`, enabled in `state`, in the order the strategy wants them
    tried: shuffled first by `rng` for the random strategies (`SHUFFLED`;
    the others may pass None), then stably sorted by the strategy's key.  Orders the list in place and returns
    it."""
    if len(units) == 1:  # nothing to order, and a shuffle draws nothing
        return units
    if strategy.name in SHUFFLED:
        rng.shuffle(units)
    key = _SORT_KEYS[strategy.name]
    if key is not None:
        ids, size = kernel.ids(state), kernel.size
        units.sort(key=lambda unit: key(unit, ids, state, size))
    return units
