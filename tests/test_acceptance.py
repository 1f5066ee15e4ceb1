"""Whole-toolkit checks, one test per advertised guarantee.

Each test here exercises a full pipeline (generate, project, extract,
compare) rather than a single module, and the thresholds are the ones
the package promises to hold.  The generated 200-instance corpus is
shared between the round-trip, node-bound, and strategy-agreement tests
through a session fixture so it is built and extracted only once.
"""

import json
import random
import statistics
import time

import pytest

from chorex import cc, sp
from chorex.cli import main as cli_main
from chorex.epp import epp
from chorex.equiv import SimBudget, bisimilar
from chorex.extraction import extract
from chorex.parser import parse_choreography, parse_network, pretty
from chorex.strategies import STRATEGY_NAMES, Strategy
from chorex.testgen import FuzzParams, GenParams, amend, fuzz, generate, unroll
from chorex.wellformed import check_guardedness, check_well_formed

import oracles
from conftest import (
    N1_CHOR_TEXT,
    N1_TEXT,
    N2_CHOR_TEXT,
    N2_TEXT,
    N3_CHOR_TEXT,
    N3_TEXT,
    RANKED_LOOP_CHOR_TEXT,
    RANKED_LOOP_NET_TEXT,
    SIGNON_CHOR_TEXT,
    SIGNON_NET_TEXT,
    TWO_LOOPS_TEXT,
    TWO_LOOPS_VARIANT_A,
)


# --- shared generated corpus ---------------------------------------------


class _Record:
    __slots__ = ("chor", "net", "program", "text", "verdict", "bound_pairs")

    def __init__(self, chor, net, program, text, verdict, bound_pairs):
        self.chor = chor
        self.net = net
        self.program = program
        self.text = text
        self.verdict = verdict
        self.bound_pairs = bound_pairs


class _Corpus:
    def __init__(self, records, elapsed):
        self.records = records
        self.elapsed = elapsed


@pytest.fixture(scope="session")
def round_trip_corpus():
    """200 projectable choreographies, projected and extracted back.

    Sizes up to 50 actions, up to 6 processes, up to 10 conditionals and
    up to 3 procedures.  Each record keeps the source choreography, its
    projection, the re-extracted program, and the equivalence verdict
    under a 10^5-pair budget with a 1 s wall cap per instance.
    """
    started = time.perf_counter()
    rng = random.Random("corpus:roundtrip")
    budget = SimBudget(max_pairs=100_000, max_millis=1000)
    records = []
    for i in range(200):
        size = rng.randint(5, 50)
        procs = rng.randint(2, 6)
        ifs = min(rng.randint(0, 10), size)
        defs = rng.randint(0, 3)
        chor = amend(
            generate(GenParams(size=size, processes=procs, ifs=ifs, defs=defs, seed=i))
        )
        net = epp(chor)
        result = extract(net)
        assert result.ok, f"corpus instance {i} failed to extract"
        bound_pairs = tuple(
            (
                comp.seg.identities,
                oracles.node_bound(sp.Network({p: net[p] for p in comp.processes})),
            )
            for comp in result.components
        )
        program = result.program
        verdict = bisimilar(chor, program, budget).verdict
        records.append(_Record(chor, net, program, pretty(program), verdict, bound_pairs))
    return _Corpus(records, time.perf_counter() - started)


def _count_deadlocks(prog) -> int:
    def walk(body):
        if isinstance(body, cc.Deadlock):
            return 1
        if isinstance(body, (cc.Com, cc.Sel)):
            return walk(body.cont)
        if isinstance(body, cc.Cond):
            return walk(body.then) + walk(body.orelse)
        return 0

    total = 0
    for chor in prog.components:
        total += walk(chor.main)
        for body in chor.procedures.values():
            total += walk(body)
    return total


# --- 1: reference networks extract to their known choreographies ---------


def test_fixture_extractions_match_known_results():
    cases = [
        ("independent pairs", N1_TEXT, N1_CHOR_TEXT, {}),
        ("conditional", N2_TEXT, N2_CHOR_TEXT, {}),
        ("deadlocking trio", N3_TEXT, N3_CHOR_TEXT, {}),
        ("sign-on", SIGNON_NET_TEXT, SIGNON_CHOR_TEXT, {}),
        (
            "ranked loop",
            RANKED_LOOP_NET_TEXT,
            RANKED_LOOP_CHOR_TEXT,
            {"services": frozenset({"r"})},
        ),
        ("starving loops", TWO_LOOPS_TEXT, TWO_LOOPS_VARIANT_A, {"parallel": False}),
    ]
    for name, net_text, chor_text, kwargs in cases:
        started = time.perf_counter()
        result = extract(parse_network(net_text), **kwargs)
        elapsed = time.perf_counter() - started
        assert result.ok, name
        assert elapsed < 1.0, name
        verdict = bisimilar(parse_choreography(chor_text), result.program)
        assert verdict.verdict == "yes", name
        if name == "deadlocking trio":
            assert _count_deadlocks(result.program) == 2
        if name == "starving loops":
            # closing the first loop on itself starves the second pair, so
            # exactly one candidate closure must be rejected on the way.
            assert result.badloops == 1


# --- 2: round trips on the generated corpus ------------------------------


def test_round_trip_extraction_on_generated_corpus(round_trip_corpus):
    records = round_trip_corpus.records
    assert len(records) == 200
    finished = [r for r in records if r.verdict != "exhausted"]
    assert len(finished) >= 160  # at least 80% decided within budget
    assert all(r.verdict == "yes" for r in finished)
    assert round_trip_corpus.elapsed < 600.0


# --- 4: engine verdicts vs. exhaustive search ----------------------------

_LABELS = ("go", "hi")
_EXPRS = ("e1", "e2")
_VARS = ("x", "y")


def _small_behaviour(rng, others, budget, may_call, at_root):
    # Size of the result is always within `budget`; calls appear only
    # under a prefix so the terms are guarded by construction.
    if budget <= 1:
        if may_call and not at_root and rng.random() < 0.5:
            return sp.Call("L")
        return sp.NIL
    kinds = ["send", "recv", "sel", "offer", "stopish"]
    if budget >= 3:
        kinds.append("cond")
    kind = rng.choice(kinds)
    partner = rng.choice(others)
    if kind == "stopish":
        return sp.NIL if at_root or not may_call or rng.random() < 0.5 else sp.Call("L")
    if kind == "send":
        cont = _small_behaviour(rng, others, budget - 1, may_call, False)
        return sp.Send(partner, rng.choice(_EXPRS), cont)
    if kind == "recv":
        cont = _small_behaviour(rng, others, budget - 1, may_call, False)
        return sp.Receive(partner, rng.choice(_VARS), cont)
    if kind == "sel":
        cont = _small_behaviour(rng, others, budget - 1, may_call, False)
        return sp.Select(partner, rng.choice(_LABELS), cont)
    if kind == "offer":
        labels = ["go"] if budget - 1 < 2 or rng.random() < 0.5 else ["go", "hi"]
        per = (budget - 1) // len(labels)
        branches = [
            (l, _small_behaviour(rng, others, rng.randint(1, max(1, per)), may_call, False))
            for l in labels
        ]
        return sp.Offer(partner, branches)
    half = (budget - 1) // 2
    return sp.Cond(
        rng.choice(_EXPRS),
        _small_behaviour(rng, others, rng.randint(1, half), may_call, False),
        _small_behaviour(rng, others, rng.randint(1, half), may_call, False),
    )


def _small_network(seed):
    rng = random.Random(f"brute:{seed}")
    names = ["p", "q", "r"][: rng.randint(2, 3)]
    processes = {}
    for owner in names:
        others = [n for n in names if n != owner]
        if rng.random() < 0.6:
            def_budget = rng.randint(2, 4)
            body = _small_behaviour(rng, others, def_budget, True, True)
            main = _small_behaviour(rng, others, rng.randint(1, 8 - def_budget), True, False)
            processes[owner] = sp.ProcessTerm({"L": body}, main)
        else:
            main = _small_behaviour(rng, others, rng.randint(1, 8), False, False)
            processes[owner] = sp.ProcessTerm({}, main)
    return sp.Network(processes)


def test_engine_verdicts_match_exhaustive_search():
    for seed in range(100):
        net = _small_network(seed)
        for t in net.processes.values():
            assert sum(b.size for b in (t.main, *t.procedures.values())) <= 8
        engine = extract(net, parallel=False).ok
        oracle = oracles.valid_graph_exists(net)
        assert engine == oracle, f"seed {seed}: engine {engine}, exhaustive {oracle}"


# --- 5: fuzzed networks break at the expected rates ----------------------


def _strictly_unextractable(net) -> bool:
    if not (check_well_formed(net).ok and check_guardedness(net).ok):
        return True
    result = extract(net)
    return (not result.ok) or bool(result.deadlock_remainders)


def test_fuzzed_networks_fail_to_extract_at_expected_rates():
    bases = [
        epp(amend(generate(GenParams(size=20, processes=4, ifs=0, defs=1, seed=i))))
        for i in range(100)
    ]
    rates = {}
    for deletions, swaps in ((1, 0), (2, 2), (0, 1)):
        rates[(deletions, swaps)] = sum(
            _strictly_unextractable(
                fuzz(net, FuzzParams(deletions=deletions, swaps=swaps, seed=i))
            )
            for i, net in enumerate(bases)
        )
    assert rates[(1, 0)] >= 95  # one dropped action almost always wedges a peer
    assert rates[(2, 2)] == 100
    assert 30 <= rates[(0, 1)] <= 60  # a single swap often stays extractable


# --- 6: unrolled networks still extract to the same behaviour ------------


def test_unrolled_networks_extract_to_equivalent_results():
    rng = random.Random("corpus:unroll")
    budget = SimBudget(max_pairs=100_000, max_millis=2000)
    extracted = finished = agreed = 0
    for i in range(100):
        params = GenParams(
            size=rng.randint(6, 25),
            processes=rng.randint(2, 4),
            ifs=rng.randint(0, 3),
            defs=rng.randint(1, 2),
            seed=i,
        )
        net = epp(amend(generate(params)))
        base = extract(net)
        assert base.ok, f"instance {i} failed before unrolling"
        result = extract(unroll(net, seed=i))
        if not result.ok:
            continue
        extracted += 1
        verdict = bisimilar(base.program, result.program, budget).verdict
        if verdict != "exhausted":
            finished += 1
            agreed += verdict == "yes"
    assert extracted == 100
    assert agreed == finished


# --- 7: component splitting keeps duplicated networks cheap --------------


def _com_loop(length, a, b):
    sends = "; ".join(f"{b}!<e{i}>" for i in range(length))
    recvs = "; ".join(f"{a}?x{i}" for i in range(length))
    return (
        f"{a} {{ def R {{ {sends}; R }} main {{ R }} }} | "
        f"{b} {{ def S {{ {recvs}; S }} main {{ S }} }}"
    )


def _timed_extract(net, parallel):
    """CPU seconds of one extraction, and the nodes it created."""
    started = time.process_time()
    result = extract(net, parallel=parallel)
    elapsed = time.process_time() - started
    assert result.ok
    return elapsed, result.nodes_created


def test_component_splitting_bounds_duplication_cost():
    blew_up = False
    for length in (40, 60, 80, 100, 120):
        single = parse_network(_com_loop(length, "p", "q"))
        double = parse_network(
            _com_loop(length, "p", "q") + " | " + _com_loop(length, "c", "d")
        )
        # Five pairs of the two sides, timed one right after the other in
        # process CPU time.  The machine's speed can change within the
        # test, so each pair is compared within itself and the median of
        # the pair ratios is held to the bound.
        pairs = [(_timed_extract(single, True), _timed_extract(double, True)) for _ in range(5)]
        (_, single_nodes), (_, split_nodes) = pairs[0]
        assert split_nodes == 2 * single_nodes, f"length {length}"
        ratio = statistics.median(split[0] / one[0] for one, split in pairs)
        assert ratio <= 2.5, f"length {length}: ratio {ratio:.2f}"
        if length == 40:
            # without splitting, the engine walks the product of both loops
            t_single = min(one[0] for one, _ in pairs)
            t_whole, whole_nodes = min(_timed_extract(double, False) for _ in range(2))
            assert whole_nodes >= 4 * single_nodes
            blew_up = blew_up or t_whole / t_single >= 4.0
    assert blew_up


# --- 8: node identities stay within the state-space bound ----------------


def test_node_counts_respect_state_space_bound(round_trip_corpus):
    for record in round_trip_corpus.records:
        for created, bound in record.bound_pairs:
            assert created <= bound
    for net_text in (N1_TEXT, N2_TEXT, N3_TEXT, SIGNON_NET_TEXT, TWO_LOOPS_TEXT):
        net = parse_network(net_text)
        result = extract(net, parallel=False)
        (component,) = result.components
        assert component.seg.identities <= oracles.node_bound(net)


# --- 9: everything is reproducible under a fixed seed --------------------


def test_identical_seeds_give_identical_outputs(tmp_path, capsys):
    def run(*argv):
        rc = cli_main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    net_file = tmp_path / "net.sp"
    net_file.write_text(N2_TEXT)
    chor_a = tmp_path / "a.cc"
    chor_b = tmp_path / "b.cc"
    chor_a.write_text(SIGNON_CHOR_TEXT)
    chor_b.write_text(RANKED_LOOP_CHOR_TEXT)

    # single-file commands: run twice, keep every byte of output
    seen = {}
    for attempt in ("first", "second"):
        dot = tmp_path / f"{attempt}.dot"
        stats = tmp_path / f"{attempt}.json"
        outputs = [
            run(
                "extract", str(net_file), "--strategy", "Random", "--seed", "9",
                "--dot", str(dot), "--stats", str(stats),
            ),
            run("project", str(chor_a)),
            run("equiv", str(chor_a), str(chor_a)),
        ]
        outputs.append(dot.read_bytes())
        stats_payload = json.loads(stats.read_text())
        del stats_payload["wallMillis"]  # the only timing-dependent field
        outputs.append(stats_payload)
        seen[attempt] = outputs
    assert seen["first"] == seen["second"]

    # corpus commands: every generated file must match byte for byte
    for command in ("gen", "fuzz", "unroll"):
        first = tmp_path / f"{command}-1"
        second = tmp_path / f"{command}-2"
        for out_dir in (first, second):
            rc, _, _ = run(command, "ifs", "--out", str(out_dir), "--scale", "0.1")
            assert rc == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    # bench: identical apart from the measured-time column
    def rows_without_time(path):
        rows = []
        for line in (path / "bench.csv").read_text().splitlines():
            cells = line.split(",")
            del cells[6]
            rows.append(cells)
        return rows

    first = tmp_path / "bench-1"
    second = tmp_path / "bench-2"
    for out_dir in (first, second):
        rc, _, _ = run("bench", "ifs", "--out", str(out_dir), "--scale", "0.1")
        assert rc == 0
    assert rows_without_time(first) == rows_without_time(second)

    # library level: a randomised strategy still replays exactly
    net = parse_network(SIGNON_NET_TEXT)
    runs = {
        pretty(extract(net, strategy=Strategy("Random", 3)).program) for _ in range(2)
    }
    assert len(runs) == 1


# --- 10: all strategies land on equivalent extractions -------------------


# The checks of `test_all_strategies_agree_on_corpus` that a 2,000-pair
# budget leaves undecided: (corpus record, strategy).
UNDECIDED_STRATEGY_CHECKS = {
    (41, "Random"),
    (41, "UnmarkedFirst"),
    (41, "UnmarkedThenConditionals"),
    (41, "UnmarkedThenRandom"),
    (44, "ConditionalsFirst"),
    (44, "Random"),
    (44, "ShortestFirst"),
    (75, "ConditionalsFirst"),
    (75, "Random"),
    (75, "UnmarkedFirst"),
    (75, "UnmarkedThenConditionals"),
    (79, "ConditionalsFirst"),
    (107, "UnmarkedThenRandom"),
    (143, "ConditionalsFirst"),
    (143, "LongestFirst"),
    (143, "Random"),
    (143, "UnmarkedFirst"),
    (143, "UnmarkedThenConditionals"),
    (143, "UnmarkedThenRandom"),
    (143, "UnmarkedThenSelections"),
    (158, "Random"),
}


def test_all_strategies_agree_on_corpus(round_trip_corpus):
    budget = SimBudget(max_pairs=2000)
    verified = 0
    exhausted = set()
    for index, record in enumerate(round_trip_corpus.records):
        seen = {record.text}
        for name in STRATEGY_NAMES:
            if name == "InteractionsFirst":
                continue  # the reference extraction in the corpus fixture
            result = extract(record.net, strategy=Strategy(name, 0))
            assert result.ok, f"strategy {name} disagrees on extractability"
            text = pretty(result.program)
            if text in seen:
                continue
            seen.add(text)
            sim = bisimilar(result.program, record.program, budget)
            assert sim.verdict != "no", f"strategy {name} produced a different behaviour"
            if sim.verdict == "yes":
                verified += 1
            else:
                exhausted.add((index, name))
    # spot-check power: the checks are decided by pairs, not by wall
    # time, so the same checks stay undecided on every machine.  Under
    # this budget one pass with union-find verifies 978 of 999; two
    # simulation passes verified 963, and 946 before they stopped at
    # settled pairs.
    assert exhausted == UNDECIDED_STRATEGY_CHECKS
    assert verified == 978
