"""Inefficiency injection: behaviour-preserving rewrites that blow up a
choreography without changing its protocol.

`inject_inefficiency` inlines procedures, swaps nested conditionals and
pushes an interaction into both branches of the conditional after it.
The tests use it to build large projectable inputs (the deep pipeline in
`test_depth`) and pin its output (`test_golden`); the library never
calls it.
"""

from __future__ import annotations

import random

from chorex.cc import Call, Choreography, Com, Cond, Sel
from chorex.term import fold


def _inline_calls(body, name, replacement):
    """Replace every Call(name) in body with replacement (one round)."""

    def inline(node, kids):
        if isinstance(node, Call) and node.name == name:
            return replacement
        return node.rebuild(kids)

    return fold(body, inline)


def _swap_cond_cond(body, rng):
    """Swap a conditional with the two equal conditionals under it."""

    def swap(node, kids):
        if isinstance(node, Cond):
            then, orelse = kids
            match (then, orelse):
                case (Cond(q1, f1, a, b), Cond(q2, f2, c, d)) if (
                    q1 == q2 and f1 == f2 and q1 != node.process and rng.random() < 0.5
                ):
                    return Cond(q1, f1, node.rebuild((a, c)), node.rebuild((b, d)))
        return node.rebuild(kids)

    return fold(body, swap)


def _push_eta(body, rng):
    """Push an interaction into both branches of the conditional after it."""

    def push(node, kids):
        if isinstance(node, (Com, Sel)):
            match kids[0]:
                case Cond(p, e, then, orelse) if (
                    p not in {node.sender, node.receiver} and rng.random() < 0.5
                ):
                    return Cond(p, e, node.rebuild((then,)), node.rebuild((orelse,)))
        return node.rebuild(kids)

    return fold(body, push)


def inject_inefficiency(c: Choreography, seed=0) -> Choreography:
    """Blow up a projectable choreography without changing its behaviour.

    Applies, in order: one round of whole-procedure inlining for a random
    subset of procedures (call sites outside the procedure's own body are
    replaced by its body), conditional/conditional swaps, and pushes of an
    interaction into both branches of a following conditional.  Inlining a
    procedure at all of its call sites keeps projection working: wherever
    two merged branches both said `X`, they now both carry the same body.
    """
    rng = random.Random(f"ineff:{seed}")
    procedures = dict(c.procedures)
    main = c.main
    for name in sorted(procedures):
        if rng.random() < 0.5:
            body = procedures[name]
            main = _inline_calls(main, name, body)
            procedures = {
                x: (_inline_calls(b, name, body) if x != name else b)
                for x, b in procedures.items()
            }
    main = _swap_cond_cond(main, rng)
    procedures = {x: _swap_cond_cond(b, rng) for x, b in procedures.items()}
    for _ in range(2):
        main = _push_eta(main, rng)
        procedures = {x: _push_eta(b, rng) for x, b in procedures.items()}
    return Choreography(procedures, main)
