"""Pre-extraction validation of networks.

Two passes: structural well-formedness (no self-communication, no calls to
undefined procedures) and guardedness (no reachable procedure unfolds
forever through bare calls).  Violations are data, not exceptions, so a
caller can report all of them at once.  `parse_network` raises the first
well-formedness violation of each process it reads, so a parsed network
is always well formed.

Each pass skips, without a walk, a process that cannot have a violation
of its kind: `process_violations` one whose peers and calls
(`sp.ProcessTerm.peers_and_calls`, which the parser collects as it reads)
include neither its own name nor an undefined procedure, and
`check_guardedness` one with no procedure body that is a bare call.

Guard expressions are opaque strings and are never evaluated, so there is
nothing to validate about them; that check is intentionally skipped.
"""

from __future__ import annotations

from . import sp
from .term import subterms


class CheckReport:
    """Outcome of a validation pass; ok iff no violations."""

    __slots__ = ("violations",)

    def __init__(self, violations=()):
        self.violations = list(violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self):
        return f"CheckReport(ok={self.ok}, violations={self.violations!r})"


def process_violations(name: str, term: sp.ProcessTerm):
    """Yield the well-formedness violations of process `name`, main first
    and then each definition in order, as (kind, where, description).

    Every violation is a node whose peer is `name` or a call to a name
    that `term` does not define, so a process that names no such peer or
    call (`ProcessTerm.peers_and_calls`) has none, and is not walked."""
    peers, calls = term.peers_and_calls()
    if name not in peers and all(x in term.procedures for x in calls):
        return
    bodies = [("main", term.main)]
    bodies.extend((f"def {x}", b) for x, b in term.procedures.items())
    for where, body in bodies:
        loc = f"{name}/{where}"
        for node in subterms(body):
            if node.peer == name:
                yield ("self-communication", loc,
                       f"process {name} communicates with itself")
            elif type(node) is sp.Call and node.name not in term.procedures:
                yield ("unresolved-call", loc,
                       f"call to undefined procedure {node.name!r}")


def check_well_formed(n: sp.Network) -> CheckReport:
    return CheckReport(
        v for name, term in n.processes.items() for v in process_violations(name, term)
    )


def _reachable_procedures(term: sp.ProcessTerm):
    """Procedures reachable from main, over-approximating through all
    constructors (both conditional branches, every offer branch)."""
    seen = set()
    frontier = [term.main]
    while frontier:
        body = frontier.pop()
        for node in subterms(body):
            if isinstance(node, sp.Call) and node.name not in seen:
                if node.name in term.procedures:
                    seen.add(node.name)
                    frontier.append(term.procedures[node.name])
    return seen


def check_guardedness(n: sp.Network) -> CheckReport:
    """A violation for each reachable procedure whose `sp.call_chain`
    ends in a cycle of bare calls: unfolding it never exposes an action.
    The message names the cycle, from where the chain enters it, unless
    the procedure calls itself.  A chain that ends at an undefined
    procedure is left to `check_well_formed`.

    A chain ends in a cycle only where the body of its last name is a
    bare `sp.Call`, so a process none of whose procedure bodies is one
    has no violation, and its procedures are not walked."""
    violations = []
    for name, term in n.processes.items():
        if not any(type(b) is sp.Call for b in term.procedures.values()):
            continue
        for x in sorted(_reachable_procedures(term)):
            chain = sp.call_chain(term.procedures, x)
            back = term.procedures.get(chain[-1])
            if type(back) is sp.Call:
                cycle = chain[chain.index(back.name):] + [back.name]
                if cycle == [x, x]:
                    what = "a bare self-call"
                else:
                    what = "the bare-call cycle " + " -> ".join(cycle)
                violations.append(
                    ("unguarded-recursion", f"{name}/def {x}", f"procedure {x} unfolds to {what}")
                )
    return CheckReport(violations)
