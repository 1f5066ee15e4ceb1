"""The benchmark's three workloads: how each builds its inputs, what one
op does, and which properties every output must have.

A workload's `setup` builds its inputs with `testgen` and returns a list
of `Op`.  An op's `run` is the timed call.  `digest` turns the output
into a canonical text (a later round must reproduce it exactly) and
counts the input actions; `check` tests the output against properties
extraction must have, never against a stored copy of an earlier output.
Checks and digests run outside op timing.  `round_problems` holds checks
that span several ops of one round.

Every call into chorex goes through an `Api` object, so the traced run
can wrap it at the name the benchmark uses.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable

from chorex import cc, equiv, extraction, parser, sp, testgen, wellformed
from chorex.epp import epp
from chorex.strategies import STRATEGY_NAMES, Strategy


class Api:
    """The public chorex functions the benchmark calls."""

    def __init__(self):
        self.epp = epp
        self.pretty = parser.pretty
        self.parse_network = parser.parse_network
        self.parse_program = parser.parse_program
        self.check_well_formed = wellformed.check_well_formed
        self.check_guardedness = wellformed.check_guardedness
        self.extract = extraction.extract
        self.bisimilar = equiv.bisimilar
        self.generate = testgen.generate
        self.amend = testgen.amend
        self.fuzz = testgen.fuzz
        self.unroll = testgen.unroll
        self.undecided_checks = 0  # bisimilarity checks skipped or exhausted


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    digest: Callable[[object], tuple]  # output -> (canonical text, input actions)
    check: Callable[[object], list]  # output -> problems
    error: BaseException | None = None  # set-up failed: the op fails every time
    group: str = ""  # ops whose outputs `round_problems` compares


@dataclass
class Workload:
    ops: list
    round_problems: Callable[[dict], list] = field(default=lambda outputs: [])


INTERACTIONS_FIRST = Strategy("InteractionsFirst", 0)

_ACTION_TYPES = (sp.Send, sp.Receive, sp.Select, sp.Offer, sp.Cond)


def count_actions(net: sp.Network) -> int:
    """Send, receive, select, offer and conditional constructors of a network."""
    total = 0
    for term in net.processes.values():
        stack = [term.main, *term.procedures.values()]
        while stack:
            b = stack.pop()
            if isinstance(b, _ACTION_TYPES):
                total += 1
            match b:
                case sp.Send(cont=k) | sp.Receive(cont=k) | sp.Select(cont=k):
                    stack.append(k)
                case sp.Offer(branches=branches):
                    stack.extend(body for _, body in branches)
                case sp.Cond(then=t, orelse=e):
                    stack.append(t)
                    stack.append(e)
    return total


def verdict_class(result) -> str:
    if not result.ok:
        return "no graph"
    return "ok with deadlock" if result.deadlock_remainders else "ok"


def project_program(api: Api, program: cc.Program) -> sp.Network:
    processes = {}
    for component in program.components:
        processes.update(api.epp(component).processes)
    return sp.Network(processes)


# Bounds of the bisimilarity checks on outputs, which run once a run.  A
# pair costs 5-60 ms on grid extractions of 5,000-19,000 characters, and
# up to 90 s on the largest (procedures-k4-r0: 1,446 procedures, 9 * 10^5
# characters), so extractions printed longer than CHECK_MAX_CHARS are not
# checked.  At 100 pairs a direction, the grid's checks take about 11 s;
# 11 of its 13 ifs-defs checks decide yes.  A check skipped or out of pairs
# counts as undecided.
CHECK_PAIRS = 100
CHECK_MAX_CHARS = 15_000


def differs(api: Api, reference, program, text: str) -> bool:
    """True if a bounded bisimilarity check finds the two apart."""
    if len(text) > CHECK_MAX_CHARS:
        api.undecided_checks += 1
        return False
    budget = equiv.SimBudget(max_pairs=CHECK_PAIRS)
    verdict = api.bisimilar(reference, program, budget).verdict
    api.undecided_checks += verdict == "exhausted"
    return verdict == "no"


# ------------------------------------------------------------------- grid

# The paper's rows as `chorex gen` draws them at seed 0, where repetition
# r<i> uses generator seed i.  One round must hold 100 ops, fewer than a
# tenth of them failed, and two rounds must still fit a run:
# * size: every k up to k19, the last that completes today, plus k20 and
#   k42, which fail; repetitions r0-r2, as its ops are cheap;
# * processes: every even k, 10 to 100 processes; r0;
# * ifs: every point, r0-r2;
# * ifs-defs: r0 at every point with k0-k2 (up to 10 procedures), and at
#   j5k3.  At the other k3 points rejection sampling takes 1.2-1.4 s per
#   point, which would double set-up;
# * procedures: k1..k9 at r1 and r2.  The row is heavy-tailed at seed 0,
#   and r0 holds its two heaviest searches below k10: k4 (50,455 nodes,
#   12-14 s) and k6 (33,896 nodes, 9-11 s), which would take most of a
#   round.  k7-r2 keeps one search of 10^4 nodes (10,934).
SIZE_KS = (*range(1, 20), 20, 42)
PROCESSES_KS = tuple(range(2, 21, 2))
IFS_DEFS_JKS = (*((j, k) for j in range(6) for k in range(3)), (5, 3))
PROCEDURES_KS = tuple(range(1, 10))
CHEAP_ROW_REPS = (0, 1, 2)


def grid_points():
    """(name, GenParams) for every op of a grid round."""
    rows = []
    for k in SIZE_KS:
        rows.append((f"size-k{k}", CHEAP_ROW_REPS, dict(size=50 * k, processes=6, ifs=0, defs=0)))
    for k in PROCESSES_KS:
        rows.append((f"processes-k{k}", (0,), dict(size=500, processes=5 * k, ifs=0, defs=0)))
    for k in range(1, 5):
        rows.append((f"ifs-k{k}", CHEAP_ROW_REPS, dict(size=50, processes=6, ifs=10 * k, defs=0)))
    for j, k in IFS_DEFS_JKS:
        rows.append((f"ifs-defs-j{j}k{k}", (0,), dict(size=200, processes=5, ifs=j, defs=5 * k)))
    for k in PROCEDURES_KS:
        rows.append((f"procedures-k{k}", (1, 2), dict(size=20, processes=5, ifs=8, defs=k)))
    for point, reps, params in rows:
        for rep in reps:
            yield f"{point}-r{rep}", testgen.GenParams(seed=rep, **params)


def _grid_op(api: Api, chor: cc.Choreography):
    """The `chorex project` / `chorex extract` path, in one process."""
    net = api.epp(chor)
    text = api.pretty(net)
    parsed = api.parse_network(text)
    violations = (
        api.check_well_formed(parsed).violations
        + api.check_guardedness(parsed).violations
    )
    if violations:
        raise ValueError(f"projection fails the input checks: {violations[0]}")
    result = api.extract(parsed, strategy=INTERACTIONS_FIRST)
    out = api.pretty(result.program) if result.ok else None
    return parsed, result, out


def _grid_check(api: Api, chor, output) -> list:
    net, result, text = output
    if not result.ok:
        return [f"no graph: {result.failure}"]
    if result.deadlock_remainders:
        return ["a projection extracted with a deadlock leaf"]
    if not chor.procedures:
        if project_program(api, result.program) != net:
            return ["projecting the extraction does not give the input network"]
        return []
    if differs(api, chor, result.program, text):
        return ["extraction is not bisimilar to the source choreography"]
    return []


def grid(api: Api, quick: bool = False) -> Workload:
    """The paper's rows, the same points in every run, so that the ops that
    fail are the same in every run."""
    points = list(grid_points())
    if quick:
        keep = {"size-k1-r0", "size-k1-r1", "size-k2-r0", "size-k3-r0", "size-k4-r0",
                "size-k20-r0", "size-k5-r0", "processes-k2-r0", "ifs-k1-r0",
                "ifs-defs-j0k0-r0", "ifs-defs-j1k1-r0", "procedures-k1-r1"}
        points = [(name, params) for name, params in points if name in keep]
    ops = []
    for name, params in points:
        chor = error = None
        try:
            chor = api.amend(api.generate(params))
        except RecursionError as exc:
            error = exc
        ops.append(
            Op(
                key=name,
                run=lambda chor=chor: _grid_op(api, chor),
                digest=lambda out: (out[2], count_actions(out[0])),
                check=lambda out, chor=chor: _grid_check(api, chor, out),
                error=error,
            )
        )
    return Workload(ops)


# -------------------------------------------------------------- roundtrip

# The first records of the acceptance corpus stream (tests/test_acceptance.py,
# `corpus:roundtrip`).  Records 14, 41, 44 and 59 of that stream take 34 s to
# 61 s each in `bisimilar` alone, longer than one run, so the workload
# stops before the first of them.
ROUNDTRIP_RECORDS = 13
ROUNDTRIP_PAIRS = 3_000


def roundtrip_params(count: int):
    rng = random.Random("corpus:roundtrip")
    for i in range(count):
        size = rng.randint(5, 50)
        procs = rng.randint(2, 6)
        ifs = min(rng.randint(0, 10), size)
        defs = rng.randint(0, 3)
        yield testgen.GenParams(size=size, processes=procs, ifs=ifs, defs=defs, seed=i)


def _roundtrip_op(api: Api, chor):
    net = api.epp(chor)
    result = api.extract(net)
    if not result.ok:
        return net, result, None
    budget = equiv.SimBudget(max_pairs=ROUNDTRIP_PAIRS)
    return net, result, api.bisimilar(chor, result.program, budget)


def _roundtrip_digest(output):
    """Prints with `parser.pretty` itself: a digest is no op's work."""
    net, result, sim = output
    if sim is None:
        return "no graph", count_actions(net)
    text = parser.pretty(result.program)
    return f"{sim.verdict} {sim.pairs_explored} {text}", count_actions(net)


def _roundtrip_check(api: Api, output) -> list:
    net, result, sim = output
    if sim is None:
        return [f"no graph: {result.failure}"]
    if sim.verdict != "yes":
        return [f"round trip verdict {sim.verdict}, not yes"]
    problems = []
    if not api.check_well_formed(net).ok:
        problems.append("projection is not well formed")
    if api.parse_program(api.pretty(result.program)) != result.program:
        problems.append("printed extraction does not parse back to itself")
    return problems


def roundtrip(api: Api, quick: bool = False) -> Workload:
    ops = []
    for i, params in enumerate(roundtrip_params(3 if quick else ROUNDTRIP_RECORDS)):
        chor = api.amend(api.generate(params))
        ops.append(
            Op(
                key=f"record-{i}",
                run=lambda chor=chor: _roundtrip_op(api, chor),
                digest=_roundtrip_digest,
                check=lambda out: _roundtrip_check(api, out),
            )
        )
    return Workload(ops)


# --------------------------------------------------------------- variants

VARIANT_BASES = 40
VARIANT_LOOP_PAIRS = 20
FUZZ_GRID = ((1, 0), (0, 1), (2, 2))

_PROCESS_NAME = re.compile(r"\bp(\d+)\b")


def _compose(api: Api, a: sp.Network, b: sp.Network) -> sp.Network:
    """`a` beside a copy of `b` whose processes are renamed p<i> -> q<i>."""
    renamed = _PROCESS_NAME.sub(r"q\1", api.pretty(b))
    return api.parse_network(api.pretty(a) + " | " + renamed)


def variant_params(bases: int, loops: int):
    """Base choreographies, then two-process loops to compose in pairs."""
    rng = random.Random("variants")
    for i in range(bases):
        yield testgen.GenParams(
            size=rng.randint(6, 25),
            processes=rng.randint(2, 4),
            ifs=rng.randint(0, 3),
            defs=rng.randint(1, 2),
            seed=i,
        )
    for i in range(bases, bases + 2 * loops):
        yield testgen.GenParams(
            size=rng.randint(2, 10), processes=2, ifs=rng.randint(0, 1), defs=1, seed=i
        )


def _extract_op(api: Api, net, strategy, parallel):
    """Only the verdict class and the program outlive the op, so a round
    does not keep thousands of search graphs alive."""
    result = api.extract(net, strategy=strategy, parallel=parallel)
    program = result.program if result.ok else None
    return net, verdict_class(result), program, program and api.pretty(program)


def _extract_digest(out):
    net, cls, _, text = out
    return f"{cls} {text}", count_actions(net)


@dataclass
class _Variant:
    net: sp.Network
    clean: bool  # a projection or a behaviour-preserving rewrite of one
    parallel: bool
    reference: object = None  # what the InteractionsFirst result must match


def variants(api: Api, quick: bool = False) -> Workload:
    """Bases with their unroll and fuzz variants, and pairs of two-process
    loops composed into one network and extracted whole, each under all ten
    strategies."""
    n_bases, n_loops = (2, 1) if quick else (VARIANT_BASES, VARIANT_LOOP_PAIRS)
    params = list(variant_params(n_bases, n_loops))
    nets = {}
    for i, p in enumerate(params[:n_bases]):
        chor = api.amend(api.generate(p))
        net = api.epp(chor)
        nets[f"base-{i}"] = _Variant(net, True, True, chor)
        nets[f"unroll-{i}"] = _Variant(api.unroll(net, seed=p.seed), True, True, f"base-{i}")
        for d, s in FUZZ_GRID:
            fuzzed = api.fuzz(net, testgen.FuzzParams(deletions=d, swaps=s, seed=p.seed))
            # What `chorex extract` rejects with exit code 2 is no input.
            if api.check_well_formed(fuzzed).ok and api.check_guardedness(fuzzed).ok:
                nets[f"fuzz-{i}-d{d}s{s}"] = _Variant(fuzzed, False, True)
    loops = [api.epp(api.amend(api.generate(p))) for p in params[n_bases:]]
    for i in range(n_loops):
        composed = _compose(api, loops[2 * i], loops[2 * i + 1])
        nets[f"compose-{i}"] = _Variant(composed, True, False, "split")

    ops = []
    for name, v in nets.items():
        for strategy_name in STRATEGY_NAMES:

            def check(out, v=v, strategy_name=strategy_name):
                cls = out[1]
                if v.clean and cls != "ok":
                    return [f"{cls} under {strategy_name}"]
                return []

            ops.append(
                Op(
                    key=f"{name}/{strategy_name}",
                    run=lambda v=v, s=Strategy(strategy_name, 0): _extract_op(
                        api, v.net, s, v.parallel
                    ),
                    digest=_extract_digest,
                    check=check,
                    group=name,
                )
            )

    def round_problems(outputs: dict) -> list:
        """Checks across the ten strategies of each network, on one round's
        outputs by op key."""
        problems = []
        for name, v in nets.items():
            classes = sorted({outputs[f"{name}/{s}"][1] for s in STRATEGY_NAMES})
            if len(classes) > 1:
                problems.append(f"{name}: strategies disagree: {classes}")
            _, cls, program, text = outputs[f"{name}/InteractionsFirst"]
            if v.reference is None or program is None:
                continue
            if v.reference == "split":
                split = api.extract(v.net, strategy=INTERACTIONS_FIRST)
                if verdict_class(split) != cls:
                    problems.append(f"{name}: whole and split extraction disagree")
                    continue
                other = split.program
            elif isinstance(v.reference, str):
                other = outputs[f"{v.reference}/InteractionsFirst"][2]
            else:
                other = v.reference
            if differs(api, other, program, text):
                problems.append(f"{name}: extraction is not bisimilar to its reference")
        return problems

    return Workload(ops, round_problems)


WORKLOADS = {"grid": grid, "roundtrip": roundtrip, "variants": variants}
