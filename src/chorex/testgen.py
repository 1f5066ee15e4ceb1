"""Random choreography generation, amendment, inefficiency injection,
network fuzzing, and loop unrolling.

The generator partitions an action budget and a conditional budget
uniformly over the main body and the procedure bodies, then builds each
body sequentially.  Generated choreographies are not necessarily
projectable; amend() inserts selections at conditionals until projection
succeeds.  inject_inefficiency() applies behaviour-preserving rewrites
(procedure inlining, conditional/conditional swaps, pushing an
interaction into both branches of a conditional) that blow up the term
without changing the protocol.  fuzz() damages one process of a network
by deleting and swapping actions; unroll() unfolds procedure calls and
rotates the closing point of simple loops, both of which keep the
network's behaviour intact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import cc
from . import sp
from .cc import Call, Choreography, Com, Cond, Sel, choreography_process_names
from .epp import MergeError, epp, merge, project_body
from .sp import Network, ProcessTerm
from .term import fold, positions, replace_at, subterm_at, subterms


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


_BODY, _COND, _PAIR = "body", "cond", "pair"  # _Gen.body's pending work


def _def_name(i):
    return f"X{i + 1}"


class _Gen:
    def __init__(self, params: GenParams, rng: random.Random, nil_terminals=False):
        self.p = params
        self.rng = rng
        self.fresh = _Fresh()
        self.procs = [f"p{i + 1}" for i in range(params.processes)]
        self.names = [_def_name(i) for i in range(params.defs)]
        self.nil_terminals = nil_terminals

    def _split(self, n):
        """Send each of n budget units left or right with equal probability."""
        left = sum(self.rng.getrandbits(1) for _ in range(n))
        return left, n - left

    def _pair(self):
        a = self.rng.choice(self.procs)
        b = self.rng.choice([q for q in self.procs if q != a])
        return a, b

    def _terminal(self):
        if self.nil_terminals:
            return cc.NIL
        k = self.rng.randrange(len(self.names) + 1)
        if k == 0:
            return cc.NIL
        return Call(self.names[k - 1])

    def body(self, actions, conds, def_top=False):
        """Draw a body, in the order a recursive generator would draw.

        A conditional draws its process, both budget splits and its
        guard before its branches, then builds the then branch first; an
        interaction draws its pair before its continuation and its kind
        and fresh names after it.  Pending work sits on an explicit stack:
        (_BODY, actions, conds) to draw, (_COND, p, expr) and
        (_PAIR, a, b) to build from finished bodies.
        """
        if def_top and actions == 0 and conds == 0:
            return cc.NIL  # a procedure body must not be a bare call
        rng, fresh = self.rng, self.fresh
        done = []
        todo = [(_BODY, actions, conds)]
        while todo:
            kind, x, y = todo.pop()
            if kind is _BODY:
                if x == 0 and y == 0:
                    done.append(self._terminal())
                elif rng.random() < y / (x + y):
                    p = rng.choice(self.procs)
                    ta, ea = self._split(x)
                    tc, ec = self._split(y - 1)
                    todo.append((_COND, p, fresh.expr()))
                    todo.append((_BODY, ea, ec))
                    todo.append((_BODY, ta, tc))
                else:
                    todo.append((_PAIR, *self._pair()))
                    todo.append((_BODY, x - 1, y))
            elif kind is _COND:
                orelse = done.pop()
                done.append(Cond(x, y, done.pop(), orelse))
            elif rng.getrandbits(1):
                done.append(Com(x, fresh.expr(), y, fresh.var(), done.pop()))
            else:
                done.append(Sel(x, y, fresh.label(), done.pop()))
        return done[0]

    def build(self):
        buckets = self.p.defs + 1  # main plus one per procedure
        act = [0] * buckets
        cnd = [0] * buckets
        for _ in range(self.p.size):
            act[self.rng.randrange(buckets)] += 1
        for _ in range(self.p.ifs):
            cnd[self.rng.randrange(buckets)] += 1
        main = self.body(act[0], cnd[0])
        procedures = {
            self.names[i]: self.body(act[i + 1], cnd[i + 1], def_top=True)
            for i in range(self.p.defs)
        }
        return Choreography(procedures, main)


def _called_names(body):
    return {node.name for node in subterms(body) if isinstance(node, Call)}


def _all_reachable(c: Choreography) -> bool:
    seen = set()
    frontier = _called_names(c.main)
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        frontier |= _called_names(c.procedures[name]) - seen
    return seen == set(c.procedures)


def _generate_connected(params: GenParams, attempt=0):
    """Build a choreography whose procedures are reachable by construction.

    Bodies are drawn as usual but with all-Nil terminals; each procedure
    then gets one call site at a uniformly chosen free leaf of a body that
    is already reachable from main.  Leftover leaves take the ordinary
    Nil-or-call draw.  Returns None when the spanning placement strands a
    procedure (caller retries with a fresh draw).
    """
    rng = random.Random(f"gen:{params.seed}:fallback:{attempt}")
    gen = _Gen(params, rng, nil_terminals=True)
    c = gen.build()
    bodies = {"main": c.main, **c.procedures}
    free = {}
    for owner, body in bodies.items():
        paths = [path for path, node in positions(body) if isinstance(node, cc.Nil)]
        if owner != "main":
            # A procedure body must not collapse to a bare call.
            paths = [p for p in paths if p != ()]
        free[owner] = paths
    order = list(c.procedures)
    rng.shuffle(order)
    reachable = ["main"]
    for name in order:
        hosts = [o for o in reachable if free[o]]
        if not hosts:
            return None
        host = rng.choice(hosts)
        slot = free[host].pop(rng.randrange(len(free[host])))
        bodies[host] = replace_at(bodies[host], slot, Call(name))
        reachable.append(name)
    for owner, paths in free.items():
        for slot in paths:
            k = rng.randrange(len(gen.names) + 1)
            if k:
                bodies[owner] = replace_at(bodies[owner], slot, Call(gen.names[k - 1]))
    return Choreography({x: bodies[x] for x in c.procedures}, bodies["main"])


def generate(params: GenParams) -> Choreography:
    """Draw a random choreography; redraw while some procedure is unreachable.

    Dense procedure budgets can make the reachability condition all but
    unsatisfiable for independent uniform draws (every body has only one
    terminal slot, so covering all procedures needs a call chain), so
    after 1000 rejections the terminals are placed constructively instead.
    """
    for attempt in range(1000):
        rng = random.Random(f"gen:{params.seed}:{attempt}")
        c = _Gen(params, rng).build()
        if _all_reachable(c):
            return c
    for attempt in range(1000):
        c = _generate_connected(params, attempt)
        if c is not None and _all_reachable(c):
            return c
    raise RuntimeError(
        f"no reachable draw after 1000 attempts and no connected layout "
        f"found for {params}"
    )


# --- amendment -----------------------------------------------------------


def _amend_body(body, universe):
    """Below every conditional, select a branch label at each process
    whose two branch projections do not merge."""

    def amend_node(node, kids):
        if not isinstance(node, Cond):
            return node.rebuild(kids)
        p = node.process
        then, orelse = kids
        need = []
        for r in universe:
            if r == p:
                continue
            try:
                merge(project_body(then, r), project_body(orelse, r))
            except MergeError:
                need.append(r)
        for r in reversed(need):
            then = Sel(p, r, "thenL", then)
            orelse = Sel(p, r, "elseL", orelse)
        return Cond(p, node.expr, then, orelse)

    return fold(body, amend_node)


def amend(c: Choreography) -> Choreography:
    """Insert selections at conditionals until the choreography projects."""
    universe = sorted(choreography_process_names(c))
    for _ in range(50):
        try:
            epp(c)
            return c
        except MergeError:
            pass
        c = Choreography(
            {x: _amend_body(b, universe) for x, b in c.procedures.items()},
            _amend_body(c.main, universe),
        )
    epp(c)  # surface the residual failure
    return c


# --- inefficiency injection ---------------------------------------------


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


# --- network fuzzing -----------------------------------------------------


def _occurrences(b):
    """Preorder paths of every action constructor in a behaviour.

    An action here is anything that is not Nil and not a bare call:
    sends, receives, selections, offers, and conditionals all count.
    """
    return [path for path, node in positions(b) if node.children()]


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


def _term_paths(term: ProcessTerm):
    """Occurrences across main and all procedure bodies, main first."""
    out = [("main", p) for p in _occurrences(term.main)]
    for name in sorted(term.procedures):
        out.extend((name, p) for p in _occurrences(term.procedures[name]))
    return out


def _term_edit(term: ProcessTerm, where, op):
    name, path = where
    if name == "main":
        return ProcessTerm(term.procedures, op(term.main, path))
    procs = dict(term.procedures)
    procs[name] = op(procs[name], path)
    return ProcessTerm(procs, term.main)


def fuzz(n: Network, params: FuzzParams) -> Network:
    """Damage one uniformly chosen process of the network."""
    rng = random.Random(f"fuzz:{params.seed}")
    victim = rng.choice(sorted(n.processes))
    term = n.processes[victim]
    for _ in range(params.deletions):
        places = _term_paths(term)
        if not places:
            break
        term = _term_edit(term, rng.choice(places), _delete_at)
    for _ in range(params.swaps):
        places = _term_paths(term)
        if not places:
            break
        term = _term_edit(term, rng.choice(places), _swap_at)
    return n.replace({victim: term})


# --- unrolling -----------------------------------------------------------


def _call_sites(term: ProcessTerm):
    """(owner, path) of every call, main first, each body in preorder."""
    return [
        (owner, path)
        for owner, body in [("main", term.main), *sorted(term.procedures.items())]
        for path, node in positions(body)
        if isinstance(node, sp.Call)
    ]


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
        sites = _call_sites(term)
        if not sites:
            break
        owner, path = sites[rng.randrange(len(sites))]
        host = term.main if owner == "main" else term.procedures[owner]
        unfolded = replace_at(host, path, term.procedures[subterm_at(host, path).name])
        if owner == "main":
            term = ProcessTerm(term.procedures, unfolded)
        else:
            term = ProcessTerm({**term.procedures, owner: unfolded}, term.main)
    term = _rotate_loop(term, rng)
    return n.replace({victim: term})
