"""Random choreography generation, amendment, network fuzzing, and loop
unrolling.

The generator partitions an action budget and a conditional budget
uniformly over the main body and the procedure bodies, then draws each
body.  It draws before it builds: an attempt draws random numbers only,
recording for each body a compact plan and the set of procedures that
the body calls, and reachability from main is tested on those call sets.
Terms and fresh names are built for the accepted draw alone, so the
hundreds of draws that dense procedure budgets reject cost no terms.
Generated choreographies are not necessarily projectable; amend()
inserts selections at conditionals, in one pass, so that projection
succeeds.  fuzz() damages one process of a network by deleting and
swapping actions; unroll() unfolds procedure calls and rotates the
closing point of simple loops, both of which keep the network's
behaviour intact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import cc
from . import sp
from .cc import Call, Choreography, Com, Cond, Sel, choreography_process_names
from .epp import MergeError, epp, merge, project_each
from .sp import Network, ProcessTerm
from .term import fold, positions, replace_at, subterm_at


@dataclass(frozen=True)
class GenParams:
    """Budget for one generated choreography."""

    size: int
    processes: int
    ifs: int = 0
    defs: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.ifs < 0 or self.size < self.ifs:
            raise ValueError("need size >= ifs >= 0")
        if self.processes < 2:
            raise ValueError("need at least two processes")
        if self.defs < 0:
            raise ValueError("defs must be nonnegative")


@dataclass(frozen=True)
class FuzzParams:
    """Damage budget for one fuzzed network."""

    deletions: int = 0
    swaps: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.deletions < 0 or self.swaps < 0:
            raise ValueError("deletions and swaps must be nonnegative")
        if self.deletions == 0 and self.swaps == 0:
            raise ValueError("nothing to do: deletions and swaps are both zero")


class _Fresh:
    """Counters for fresh expressions, variables, and labels."""

    def __init__(self):
        self.e = 0
        self.x = 0
        self.l = 0

    def expr(self):
        self.e += 1
        return f"e{self.e}"

    def var(self):
        self.x += 1
        return f"x{self.x}"

    def label(self):
        self.l += 1
        return f"L{self.l}"


_BODY, _COND, _PAIR = "body", "cond", "pair"  # _draw's pending work


def _def_name(i):
    return f"X{i + 1}"


def _draw(params: GenParams, rng: random.Random, nil_terminals=False):
    """Draw main and each procedure body as a plan, by random numbers alone.

    Returns two lists, `plans` and `calls`, with one entry for main and
    then one for each procedure i = 0..defs-1: `calls[b]` is the set of
    the indices of the procedures that the terminals of `plans[b]` call.
    A plan lists, in the order `_build_body` consumes them: an int k for
    a terminal (0 for Nil, else a call to procedure k-1); a process name
    where a conditional that it decides opens; None where the innermost
    open conditional closes over its two finished branches; and
    (sender, receiver, is_com) for an interaction over the last finished
    body.

    The budgets go to the bodies first: each action, then each
    conditional, to a uniformly chosen body.  A body is drawn in the order
    a recursive generator would draw it.  A conditional draws its process,
    both budget splits and its guard before its branches, then the then
    branch first; an interaction draws its pair before its continuation
    and its kind after it.  Pending work sits on an explicit stack:
    (_BODY, actions, conds) to draw, (_COND, ..) and (_PAIR, sender,
    receiver) to emit once the bodies above them are drawn.  With
    `nil_terminals` every terminal is Nil and draws nothing.
    """
    getrandbits, random_float = rng.getrandbits, rng.random

    def below(n):
        # What `Random._randbelow` does, which `choice(seq)` and
        # `randrange(n)` call: the random stream stays the same.
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def split(n):
        """Send each of n budget units left or right with equal probability."""
        left = sum(getrandbits(1) for _ in range(n))
        return left, n - left

    procs = [f"p{i + 1}" for i in range(params.processes)]
    partners = [[q for q in procs if q != p] for p in procs]
    buckets = params.defs + 1  # main plus one per procedure
    act = [0] * buckets
    cnd = [0] * buckets
    for _ in range(params.size):
        act[below(buckets)] += 1
    for _ in range(params.ifs):
        cnd[below(buckets)] += 1
    plans, calls = [], []
    for owner in range(buckets):
        plan, called = [], set()
        plans.append(plan)
        calls.append(called)
        if owner and act[owner] == 0 and cnd[owner] == 0:
            plan.append(0)  # a procedure body must not be a bare call
            continue
        todo = [(_BODY, act[owner], cnd[owner])]
        while todo:
            kind, x, y = todo.pop()
            if kind is _COND:
                plan.append(None)
            elif kind is _PAIR:
                plan.append((x, y, getrandbits(1)))
            else:
                # Draw interactions until the budget runs out or a
                # conditional is drawn; each continuation comes next.
                while (x or y) and random_float() >= y / (x + y):
                    i = below(len(procs))
                    others = partners[i]
                    todo.append((_PAIR, procs[i], others[below(len(others))]))
                    x -= 1
                if x or y:
                    p = procs[below(len(procs))]
                    ta, ea = split(x)
                    tc, ec = split(y - 1)
                    plan.append(p)
                    todo.append((_COND, None, None))
                    todo.append((_BODY, ea, ec))
                    todo.append((_BODY, ta, tc))
                else:
                    k = 0 if nil_terminals else below(buckets)
                    plan.append(k)
                    if k:
                        called.add(k - 1)
    return plans, calls


def _build_body(plan, names, fresh):
    """The body a plan describes; its fresh names come from `fresh`."""
    done = []
    guards = []  # (process, expression) of each open conditional
    for step in plan:
        if type(step) is int:
            done.append(Call(names[step - 1]) if step else cc.NIL)
        elif type(step) is str:
            guards.append((step, fresh.expr()))
        elif step is None:
            orelse = done.pop()
            done.append(Cond(*guards.pop(), done.pop(), orelse))
        elif step[2]:
            done.append(Com(step[0], fresh.expr(), step[1], fresh.var(), done.pop()))
        else:
            done.append(Sel(step[0], step[1], fresh.label(), done.pop()))
    return done[0]


def _build(params: GenParams, plans) -> Choreography:
    """The choreography of main's plan and the procedures' plans, built in
    that order with one set of fresh-name counters."""
    names = [_def_name(i) for i in range(params.defs)]
    fresh = _Fresh()
    main, *bodies = [_build_body(plan, names, fresh) for plan in plans]
    return Choreography(dict(zip(names, bodies)), main)


def _all_reachable(calls) -> bool:
    """Whether main (calls[0]) reaches every procedure i (calls[i + 1])."""
    seen = set()
    frontier = set(calls[0])
    while frontier:
        i = frontier.pop()
        if i not in seen:
            seen.add(i)
            frontier |= calls[i + 1] - seen
    return len(seen) == len(calls) - 1


def _generate_connected(params: GenParams, attempt=0):
    """Build a choreography whose procedures are reachable by construction.

    Bodies are drawn as usual but with all-Nil terminals; each procedure
    then gets one call site at a uniformly chosen free leaf of a body that
    is already reachable from main.  Leftover leaves take the ordinary
    Nil-or-call draw.  Bodies are visited as `Choreography` orders them,
    main first and then procedures by name, and a body's leaves in
    pre-order.  Returns None when the spanning placement strands a
    procedure (caller retries with a fresh draw).
    """
    rng = random.Random(f"gen:{params.seed}:fallback:{attempt}")
    names = [_def_name(i) for i in range(params.defs)]
    plans, _ = _draw(params, rng, nil_terminals=True)
    plans = dict(zip(["main", *names], plans))
    free = {}
    for owner in ["main", *sorted(names)]:
        plan = plans[owner]
        # A procedure body must not collapse to a bare call.
        if owner == "main" or len(plan) > 1:
            free[owner] = [i for i, step in enumerate(plan) if type(step) is int]
        else:
            free[owner] = []
    order = sorted(names)
    rng.shuffle(order)
    reachable = ["main"]
    for name in order:
        hosts = [o for o in reachable if free[o]]
        if not hosts:
            return None
        host = rng.choice(hosts)
        slot = free[host].pop(rng.randrange(len(free[host])))
        plans[host][slot] = names.index(name) + 1
        reachable.append(name)
    for owner, slots in free.items():
        for slot in slots:
            plans[owner][slot] = rng.randrange(len(names) + 1)
    return _build(params, plans.values())


def generate(params: GenParams) -> Choreography:
    """Draw a random choreography; redraw while some procedure is unreachable.

    Each attempt draws plans only; reachability is tested on the plans'
    call sets, and terms are built for the accepted draw alone.  Dense
    procedure budgets can make the reachability condition all but
    unsatisfiable for independent uniform draws (every body has only one
    terminal slot, so covering all procedures needs a call chain), so
    after 1000 rejections the terminals are placed constructively instead.
    """
    for attempt in range(1000):
        rng = random.Random(f"gen:{params.seed}:{attempt}")
        plans, calls = _draw(params, rng)
        if _all_reachable(calls):
            return _build(params, plans)
    for attempt in range(1000):
        c = _generate_connected(params, attempt)
        if c is not None:
            return c
    raise RuntimeError(
        f"no reachable draw after 1000 attempts and no connected layout "
        f"found for {params}"
    )


# --- amendment -----------------------------------------------------------


def _amend_body(body, universe):
    """Below every conditional, select a branch label at each process
    whose two branch projections do not merge.

    Both branches are already amended, so each projects onto every
    process (a conditional below that needed a selection got one); only
    the merge at this conditional can fail.
    """

    def amend_node(node, kids):
        if not isinstance(node, Cond):
            return node.rebuild(kids)
        p = node.process
        then, orelse = kids
        need = []
        projections = zip(project_each(then, universe), project_each(orelse, universe))
        for r, (a, b) in zip(universe, projections):
            if r != p and a is not b:
                try:
                    merge(a, b)
                except MergeError:
                    need.append(r)
        for r in reversed(need):
            then = Sel(p, r, "thenL", then)
            orelse = Sel(p, r, "elseL", orelse)
        return Cond(p, node.expr, then, orelse)

    return fold(body, amend_node)


def amend(c: Choreography) -> Choreography:
    """Insert selections at conditionals so that the choreography
    projects; `c` itself if it already does.

    One bottom-up pass of `_amend_body` suffices.  A selection from a
    conditional's process p to r changes only p's projection, a
    conditional that needs no merge, and r's, whose two branches then
    start with offers from p of distinct labels, which always merge.
    Other merges are untouched, and one further out is checked after
    this one is amended.  A call projects to a call, so each body
    projects on its own.
    """
    try:
        epp(c)
        return c
    except MergeError:
        pass
    universe = tuple(sorted(choreography_process_names(c)))
    return Choreography(
        {x: _amend_body(b, universe) for x, b in c.procedures.items()},
        _amend_body(c.main, universe),
    )


# --- network fuzzing -----------------------------------------------------


def _places(term: ProcessTerm, keep):
    """(owner, path) of every subterm that `keep` accepts: main first,
    then the procedures in name order, each body in preorder."""
    return [
        (owner, path)
        for owner, body in [("main", term.main), *sorted(term.procedures.items())]
        for path, node in positions(body)
        if keep(node)
    ]


def _term_edit(term: ProcessTerm, where, op):
    """`term` with the body `where` names replaced by `op(body, path)`."""
    name, path = where
    if name == "main":
        return ProcessTerm(term.procedures, op(term.main, path))
    return ProcessTerm({**term.procedures, name: op(term.procedures[name], path)}, term.main)


def _delete_at(b, path):
    """Delete the action at path: a prefix keeps its continuation, an
    offer keeps its first branch, a conditional keeps its then branch."""
    return replace_at(b, path, subterm_at(b, path).children()[0])


_PREFIXES = (sp.Send, sp.Receive, sp.Select)


def _with_first_child(node, child):
    """`node` with `child` in the slot of its structurally next action:
    the continuation of a prefix, the first branch of an offer, the then
    branch of a conditional."""
    return node.rebuild((child, *node.children()[1:]))


def _swap_at(b, path):
    """Swap the action at path with its structural successor.

    Swapping with a terminal (the successor slot holds nil or a call)
    deletes the action.  A prefix swapped with a following prefix is the
    usual exchange.  A prefix swapped with an offer or conditional is
    pushed into the successor slot of that construct; an offer or
    conditional swapped with a leading prefix of its first/then branch
    pulls that prefix out in front.  Anything else is left unchanged.
    """
    node = subterm_at(b, path)
    succ = node.children()[0]
    if not succ.children():
        return _delete_at(b, path)
    prefix_node = isinstance(node, _PREFIXES)
    prefix_succ = isinstance(succ, _PREFIXES)
    if prefix_node and prefix_succ:
        swapped = succ.rebuild((node.rebuild(succ.children()),))
        return replace_at(b, path, swapped)
    if prefix_node:
        # Push the prefix into the successor slot of the offer/conditional.
        inner = succ.children()[0]
        return replace_at(b, path, _with_first_child(succ, node.rebuild((inner,))))
    if prefix_succ:
        # Pull the leading prefix of the first/then branch out in front.
        return replace_at(b, path, succ.rebuild((_with_first_child(node, succ.cont),)))
    return b


def fuzz(n: Network, params: FuzzParams) -> Network:
    """Damage one uniformly chosen process of the network."""
    rng = random.Random(f"fuzz:{params.seed}")
    victim = rng.choice(sorted(n.processes))
    term = n.processes[victim]
    for op in [_delete_at] * params.deletions + [_swap_at] * params.swaps:
        # An action is any subterm but nil and a bare call.
        places = _places(term, lambda node: node.children())
        if not places:
            break  # no action left, so no swap either
        term = _term_edit(term, rng.choice(places), op)
    return n.replace({victim: term})


# --- unrolling -----------------------------------------------------------


def _action_chain(body):
    """Split a pure prefix chain ending in a call: returns (prefixes, name)
    or None if the body has any other shape."""
    chain = []
    while True:
        match body:
            case sp.Send() | sp.Receive() | sp.Select():
                chain.append(body)
                body = body.cont
            case sp.Call(name):
                return chain, name
            case _:
                return None


def _rotate_loop(term: ProcessTerm, rng):
    """Shift the closing point of one self-calling action-chain loop."""
    eligible = []
    for name in sorted(term.procedures):
        split = _action_chain(term.procedures[name])
        if split is None:
            continue
        chain, target = split
        if target == name and len(chain) >= 2:
            eligible.append((name, chain))
    if not eligible:
        return term
    name, chain = eligible[rng.randrange(len(eligible))]
    j = rng.randrange(1, len(chain))
    rotated = chain[j:] + chain[:j]
    body = sp.Call(name)
    for prefix in reversed(rotated):
        body = prefix.rebuild((body,))

    def entry(cont):
        for prefix in reversed(chain[:j]):
            cont = prefix.rebuild((cont,))
        return cont

    def fix(owner, b):
        # Prepend the skipped prefix at every call site outside the loop body.
        def visit(node, kids):
            if isinstance(node, sp.Call) and node.name == name and owner != name:
                return entry(sp.Call(name))
            return node.rebuild(kids)

        return fold(b, visit)

    procedures = {}
    for x, b in term.procedures.items():
        if x == name:
            procedures[x] = body
        else:
            procedures[x] = fix(x, b)
    return ProcessTerm(procedures, fix("main", term.main))


def unroll(n: Network, seed=0) -> Network:
    """Unfold a few procedure calls of one process and rotate one loop."""
    rng = random.Random(f"unroll:{seed}")
    candidates = sorted(p for p, t in n.processes.items() if t.procedures)
    if not candidates:
        return n
    victim = rng.choice(candidates)
    term = n.processes[victim]
    for _ in range(rng.randint(1, 3)):
        sites = _places(term, lambda node: isinstance(node, sp.Call))
        if not sites:
            break
        procedures = term.procedures
        term = _term_edit(
            term,
            sites[rng.randrange(len(sites))],
            lambda b, path: replace_at(b, path, procedures[subterm_at(b, path).name]),
        )
    term = _rotate_loop(term, rng)
    return n.replace({victim: term})
