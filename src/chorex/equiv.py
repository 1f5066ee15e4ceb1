"""Budgeted similarity and bisimilarity checking for choreographies.

The checker runs a worklist over pairs of configurations.  A configuration
is a tuple of bodies, one per parallel component, so a single choreography
and a multi-component program can be compared directly.  For every action
enabled on the left, the right side must enable the same action; successor
pairs are enqueued until the set is exhausted (yes), an action goes
unmatched (no), or the budget runs out (exhausted).

Pairs are normalised before they are counted, which keeps the reachable
pair set small for the common case of loops that only differ in where the
recursive call closes:

  * a top-level procedure call is replaced by its body,
  * identical communication/selection heads on both sides are stripped,
  * a conditional on the same process and guard on both sides is split
    into a then/then pair and an else/else pair.

Each rewrite preserves the verdict: a stripped head is enabled on both
sides and has a unique successor, and the split conditional can only be
matched by its own then/else actions.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from .cc import Call, Choreography, Com, Cond, Program, Sel
from .parser import pretty_body
from .semantics import chor_enabled, pretty_action


@dataclass(frozen=True)
class SimBudget:
    """Resource cap for a similarity check.

    max_pairs bounds the number of (normalised) pairs explored;
    max_millis, when not None, bounds wall-clock time.
    """

    max_pairs: int = 100_000
    max_millis: float | None = None

    def __post_init__(self):
        if self.max_pairs <= 0:
            raise ValueError("max_pairs must be positive")


class SimResult:
    """Outcome of a similarity or bisimilarity check."""

    __slots__ = ("verdict", "pairs_explored", "witness")

    def __init__(self, verdict, pairs_explored, witness=None):
        assert verdict in ("yes", "no", "exhausted")
        self.verdict = verdict
        self.pairs_explored = pairs_explored
        self.witness = witness  # (action, left_bodies, right_bodies) | None

    def __repr__(self):
        return f"SimResult({self.verdict!r}, pairs={self.pairs_explored})"

    def to_json(self):
        doc = {"verdict": self.verdict, "pairsExplored": self.pairs_explored}
        if self.witness is not None:
            action, left, right = self.witness
            doc["witness"] = {
                "action": pretty_action(action),
                "left": [pretty_body(b) for b in left],
                "right": [pretty_body(b) for b in right],
            }
        return doc


def _components(thing) -> tuple[Choreography, ...]:
    if isinstance(thing, Program):
        return tuple(thing.components)
    if isinstance(thing, Choreography):
        return (thing,)
    raise TypeError(f"expected Choreography or Program, got {type(thing).__name__}")


class _Side:
    """One side of the check: fixed procedure environments plus the
    initial configuration (tuple of component bodies)."""

    __slots__ = ("chors", "initial")

    def __init__(self, chors: tuple[Choreography, ...]):
        self.chors = chors
        self.initial = tuple(c.main for c in chors)

    def steps(self, config):
        out = []
        for i, body in enumerate(config):
            for label, succ in chor_enabled(self.chors[i], body):
                out.append((label, config[:i] + (succ,) + config[i + 1 :]))
        return out


def _unfold_top(chors, config):
    """Replace bare top-level Call bodies by the named procedure body.

    Procedure bodies are never bare calls themselves, so one pass per
    component suffices.
    """
    for body in config:
        if type(body) is Call:
            break
    else:
        return (config, False)
    out = list(config)
    for i, body in enumerate(out):
        if type(body) is Call:
            out[i] = chors[i].procedures[body.name]
    return (tuple(out), True)


def _same_head(lconf, rconf, kinds):
    """The first (i, j) such that lconf[i] and rconf[j] are the same
    constructor, one of `kinds`, over the same label; None if none is."""
    for i, lb in enumerate(lconf):
        if type(lb) in kinds:
            kind, label = type(lb), lb._label()
            for j, rb in enumerate(rconf):
                if type(rb) is kind and rb._label() == label:
                    return i, j
    return None


def _normalise(left: _Side, right: _Side, pair):
    """Rewrite a pair into zero or more smaller equivalent pairs.

    Returns a list of pairs.  A split's else pair waits on a stack until
    its then pair is done, and one seen-set for all of them guards
    against cycling through unfold/strip on self-similar loops.
    """
    out = []
    seen = set()
    todo = [pair]
    while todo:
        lconf, rconf = todo.pop()
        while (key := (lconf, rconf)) not in seen:
            seen.add(key)
            lconf, lch = _unfold_top(left.chors, lconf)
            rconf, rch = _unfold_top(right.chors, rconf)
            if lch or rch:
                continue
            # Strip one pair of identical interaction heads if there is
            # one, else split a conditional guarded identically on both
            # sides and go on with its then pair.
            found = _same_head(lconf, rconf, (Com, Sel)) or _same_head(lconf, rconf, (Cond,))
            if found is None:
                break
            i, j = found
            lkids, rkids = lconf[i].children(), rconf[j].children()
            if len(lkids) == 2:
                todo.append(
                    (
                        lconf[:i] + (lkids[1],) + lconf[i + 1 :],
                        rconf[:j] + (rkids[1],) + rconf[j + 1 :],
                    )
                )
            lconf = lconf[:i] + (lkids[0],) + lconf[i + 1 :]
            rconf = rconf[:j] + (rkids[0],) + rconf[j + 1 :]
        out.append((lconf, rconf))
    return out


def _simulate(left: _Side, right: _Side, budget: SimBudget) -> SimResult:
    """Does the right side simulate the left side?"""
    envs_equal = left.chors == right.chors
    started = time.perf_counter()
    seen = set()
    work = deque([(left.initial, right.initial)])
    explored = 0
    while work:
        if explored >= budget.max_pairs:
            return SimResult("exhausted", explored)
        if budget.max_millis is not None:
            if (time.perf_counter() - started) * 1000.0 > budget.max_millis:
                return SimResult("exhausted", explored)
        raw = work.popleft()
        for lconf, rconf in _normalise(left, right, raw):
            if envs_equal and lconf == rconf:
                continue
            if (lconf, rconf) in seen:
                continue
            seen.add((lconf, rconf))
            explored += 1
            rsteps = {}
            for label, succ in right.steps(rconf):
                rsteps.setdefault(label, succ)
            for label, lsucc in left.steps(lconf):
                rsucc = rsteps.get(label)
                if rsucc is None:
                    return SimResult("no", explored, witness=(label, lconf, rconf))
                work.append((lsucc, rsucc))
    return SimResult("yes", explored)


def can_simulate(c1, c2, budget: SimBudget = SimBudget()) -> SimResult:
    """Check whether c2 can simulate c1 (every behaviour of c1 is matched)."""
    return _simulate(_Side(_components(c1)), _Side(_components(c2)), budget)


def bisimilar(c1, c2, budget: SimBudget = SimBudget()) -> SimResult:
    """yes iff both directions simulate; no if either fails; else exhausted."""
    forward = can_simulate(c1, c2, budget)
    if forward.verdict == "no":
        return SimResult("no", forward.pairs_explored, forward.witness)
    backward = can_simulate(c2, c1, budget)
    pairs = forward.pairs_explored + backward.pairs_explored
    if backward.verdict == "no":
        return SimResult("no", pairs, backward.witness)
    if forward.verdict == "yes" and backward.verdict == "yes":
        return SimResult("yes", pairs)
    return SimResult("exhausted", pairs)
