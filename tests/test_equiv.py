"""Bounded bisimilarity checking between choreographies."""

import random

import pytest

from chorex import equiv
from chorex.cc import Call
from chorex.epp import epp
from chorex.equiv import SimBudget, SimResult, bisimilar
from chorex.extraction import extract
from chorex.parser import parse_choreography, parse_network
from chorex.strategies import Strategy
from chorex.testgen import GenParams, amend, generate

import oracles
from conftest import (
    LOOP_PLUS_FINITE_TEXT,
    N1_CHOR_TEXT,
    N1_TEXT,
    N2_CHOR_TEXT,
    N2_TEXT,
    N3_CHOR_TEXT,
    N3_TEXT,
    RANKED_LOOP_CHOR_TEXT,
    RANKED_LOOP_NET_TEXT,
    SHIFTED_LOOP_CHOR_TEXT,
    SHIFTED_LOOP_NET_TEXT,
    SIGNON_CHOR_TEXT,
    SIGNON_NET_TEXT,
    TWO_LOOPS_TEXT,
    TWO_LOOPS_VARIANT_A,
    TWO_LOOPS_VARIANT_B,
    TWO_LOOPS_VARIANT_B_TWICE,
    UNDO_TEXT,
)


class TestBudget:
    def test_defaults(self):
        budget = SimBudget()
        assert budget.max_pairs == 100_000
        assert budget.max_millis is None

    def test_zero_pairs_rejected(self):
        with pytest.raises(ValueError, match="max_pairs"):
            SimBudget(max_pairs=0)

    def test_negative_pairs_rejected(self):
        with pytest.raises(ValueError):
            SimBudget(max_pairs=-5)

    @pytest.mark.parametrize("millis", [0, -5, 0.0, float("nan")])
    def test_time_budget_must_be_positive(self, millis):
        with pytest.raises(ValueError, match="max_millis"):
            SimBudget(max_millis=millis)


class TestVerdicts:
    def test_identical_choreographies_explore_nothing(self):
        c = parse_choreography(TWO_LOOPS_VARIANT_A)
        result = bisimilar(c, c, SimBudget())
        assert result.verdict == "yes"
        assert result.pairs_explored == 0
        # Under one procedure environment the union-find equates a pair
        # whose sides are equal.
        assert result.equated == 1

    def test_swapped_independent_actions_are_bisimilar(self):
        a = parse_choreography(TWO_LOOPS_VARIANT_A)
        b = parse_choreography(TWO_LOOPS_VARIANT_B)
        result = bisimilar(a, b, SimBudget())
        assert result.verdict == "yes"
        assert result.pairs_explored == 1

    def test_rotated_loop_is_bisimilar_to_its_extraction(self):
        extracted = extract(parse_network(SHIFTED_LOOP_NET_TEXT)).program
        displayed = parse_choreography(SHIFTED_LOOP_CHOR_TEXT)
        result = bisimilar(extracted, displayed, SimBudget())
        assert result.verdict == "yes"
        assert result.pairs_explored == 1

    def test_asymmetric_pair_is_not_bisimilar(self):
        shorter = parse_choreography("main { p.e -> q.x; stop }")
        longer = parse_choreography("main { p.e -> q.x; p.f -> q.y; stop }")
        assert bisimilar(shorter, longer, SimBudget()).verdict == "no"
        assert bisimilar(longer, shorter, SimBudget()).verdict == "no"

    def test_witness_follows_argument_order(self):
        """The witness's left bodies are the first argument's, whichever
        side enables the action."""
        shorter = parse_choreography("main { p.e -> q.x; stop }")
        longer = parse_choreography("main { p.e -> q.x; p.f -> q.y; stop }")
        witness = {
            "action": "p.f -> q.y",
            "enabledOn": "right",
            "left": ["stop"],
            "right": ["p.f -> q.y; stop"],
        }
        assert bisimilar(shorter, longer).to_json()["witness"] == witness
        witness.update(enabledOn="left", left=witness["right"], right=witness["left"])
        assert bisimilar(longer, shorter).to_json()["witness"] == witness

    def test_parallel_program_against_interleaved_choreography(self, two_loops):
        program = extract(two_loops).program
        interleaved = parse_choreography(TWO_LOOPS_VARIANT_A)
        result = bisimilar(program, interleaved, SimBudget())
        assert result.verdict == "yes"
        assert result.pairs_explored == 1

    def test_deadlock_bearing_terms_compare(self, n3):
        extracted = extract(n3).program
        displayed = parse_choreography(N3_CHOR_TEXT)
        assert bisimilar(extracted, displayed, SimBudget()).verdict == "yes"

    def test_verdict_is_symmetric(self):
        a = parse_choreography(TWO_LOOPS_VARIANT_A)
        b = parse_choreography(TWO_LOOPS_VARIANT_B)
        assert (
            bisimilar(a, b, SimBudget()).verdict
            == bisimilar(b, a, SimBudget()).verdict
        )


class TestExhaustion:
    def test_pair_budget(self):
        a = parse_choreography(TWO_LOOPS_VARIANT_A)
        b = parse_choreography(TWO_LOOPS_VARIANT_B_TWICE)
        assert bisimilar(a, b, SimBudget(max_pairs=2)).verdict == "yes"
        result = bisimilar(a, b, SimBudget(max_pairs=1))
        assert result.verdict == "exhausted"
        assert result.to_json() == {"verdict": "exhausted", "pairsExplored": 1}

    def test_pair_budget_is_a_hard_bound(self):
        """The budget is checked before each explored pair, not once per
        work item, whose normalisation can give several pairs; a check
        that runs out has explored exactly `max_pairs`."""
        exhausted = 0
        for i, chor in _corpus_roundtrip(range(14)):
            program = extract(epp(chor)).program
            for budget in (SimBudget(max_pairs=7), SimBudget(max_pairs=20)):
                for sim in (bisimilar(chor, program, budget), bisimilar(program, chor, budget)):
                    assert sim.pairs_explored <= budget.max_pairs, i
                    if sim.verdict == "exhausted":
                        assert sim.pairs_explored == budget.max_pairs, i
                        exhausted += 1
        assert exhausted >= 10

    def test_wall_clock_budget(self):
        a = parse_choreography(TWO_LOOPS_VARIANT_A)
        b = parse_choreography(TWO_LOOPS_VARIANT_B)
        # A picosecond: spent before the first pair is explored.
        result = bisimilar(a, b, SimBudget(max_pairs=10, max_millis=1e-9))
        assert result.verdict == "exhausted"
        assert result.pairs_explored == 0


class TestResultShape:
    def test_json_without_witness(self):
        extracted = extract(parse_network(SHIFTED_LOOP_NET_TEXT)).program
        displayed = parse_choreography(SHIFTED_LOOP_CHOR_TEXT)
        result = bisimilar(extracted, displayed, SimBudget())
        assert result.to_json() == {"verdict": "yes", "pairsExplored": 1}

    def test_result_is_a_plain_record(self):
        result = SimResult("yes", 3)
        assert result.witness is None


def test_generated_choreographies_are_self_bisimilar():
    for seed in range(20):
        c = amend(generate(GenParams(size=12, processes=3, ifs=2, defs=1, seed=seed)))
        assert bisimilar(c, c, SimBudget()).verdict == "yes"


def test_extraction_round_trip_on_small_samples():
    for seed in (0, 7, 23):
        c = amend(generate(GenParams(size=15, processes=3, ifs=1, defs=2, seed=seed)))
        result = extract(epp(c))
        assert result.ok
        assert bisimilar(c, result.program, SimBudget()).verdict == "yes"


def _corpus_roundtrip(indices):
    """(index, choreography) for the given records of the acceptance
    corpus stream, as the `roundtrip` benchmark draws them."""
    wanted = set(indices)
    rng = random.Random("corpus:roundtrip")
    for i in range(max(wanted) + 1):
        size = rng.randint(5, 50)
        procs = rng.randint(2, 6)
        ifs = min(rng.randint(0, 10), size)
        defs = rng.randint(0, 3)
        if i in wanted:
            params = GenParams(size=size, processes=procs, ifs=ifs, defs=defs, seed=i)
            yield i, amend(generate(params))


def _pairs(nodes):
    return [(node.lconf, node.rconf) for node in nodes]


def _reference(graph, node):
    return oracles.reference_normalise(graph.left, graph.right, (node.lconf, node.rconf))


class TestNormalise:
    """`_normalise` follows a check's rewrite graph and stops at the pairs
    an earlier call of the check normalised: it returns only pairs that a
    rewrite from scratch returns, and leaves out only pairs normalised
    before."""

    @staticmethod
    def _graph(left_text, right_text):
        left = equiv._Side((parse_choreography(left_text),))
        right = equiv._Side((parse_choreography(right_text),))
        graph = equiv._Graph(left, right)
        return graph, graph.node(left.initial, right.initial)

    @staticmethod
    def _normalised_twice(graph, node):
        """The first call of a check returns what a rewrite from scratch
        returns; a second call finds the pair normalised and returns
        nothing."""
        want = _reference(graph, node)
        first = equiv._normalise(graph, node)
        assert _pairs(first) == want
        assert equiv._normalise(graph, node) == []
        return first

    def test_a_self_similar_loop_stops_at_the_pair_it_started_from(self):
        graph, start = self._graph(
            "def X { p.e -> q.x; X } main { X }", "def Y { p.e -> q.x; Y } main { Y }"
        )
        assert self._normalised_twice(graph, start) == [start]

    def test_a_split_whose_else_pair_was_seen_gives_that_pair(self):
        graph, start = self._graph(
            "def X { if p.c then p.e -> q.x; X else X } main { X }",
            "def Y { if p.c then p.e -> q.x; Y else Y } main { Y }",
        )
        assert self._normalised_twice(graph, start) == [start, start]

    def test_a_pair_met_on_an_earlier_call_is_dropped(self):
        graph, start = self._graph(
            "def X { p.e -> q.x; X } main { p.f -> q.y; X }",
            "def Y { p.e -> q.x; Y } main { p.f -> q.y; Y }",
        )
        loop = graph.node((Call("X"),), (Call("Y"),))
        assert equiv._normalise(graph, loop) == [loop]
        # Stripping p.f -> q.y leads to the loop pair, normalised already.
        assert _pairs(equiv._normalise(graph, start)) == []
        assert _reference(graph, start) == [(loop.lconf, loop.rconf)]

    def test_matches_the_reference_on_round_trips(self, monkeypatch):
        """Every raw pair that `bisimilar` reaches on records 0-59 of the
        acceptance corpus stream."""
        real = equiv._normalise
        checked = []

        def checking(graph, node):
            got = real(graph, node)
            want = _reference(graph, node)
            assert set(_pairs(got)) <= set(want), (node.lconf, node.rconf)
            for pair in set(want) - set(_pairs(got)):
                assert 0 < graph.nodes[pair].stamp < graph.calls, pair
            checked.append(node)
            return got

        monkeypatch.setattr(equiv, "_normalise", checking)
        for i, chor in _corpus_roundtrip(range(60)):
            program = extract(epp(chor)).program
            assert bisimilar(chor, program, SimBudget(max_pairs=3000)).verdict == "yes", i
        assert len(checked) > 3000


def test_heavy_round_trip_records_keep_their_pair_counts():
    """The corpus records the `roundtrip` benchmark leaves out for their
    cost: same verdicts as a rewrite from scratch gave, with the pair
    counts of one symmetric pass (784, 410, 4,558 and 826 when every pair
    was rewritten from scratch, and 200, 394, 482 and 110 when two
    simulation passes stopped at settled pairs)."""
    budget = SimBudget(max_pairs=3000)
    got = {}
    for i, chor in _corpus_roundtrip((14, 41, 44, 59)):
        sim = bisimilar(chor, extract(epp(chor)).program, budget)
        got[i] = (sim.verdict, sim.pairs_explored)
    assert got == {14: ("yes", 100), 41: ("yes", 197), 44: ("yes", 241), 59: ("yes", 55)}


def test_union_find_decides_heavy_strategy_checks():
    """Records 41 and 143 of the corpus stream, extracted under `Random`
    against their `InteractionsFirst` extractions: two simulation passes
    needed 19,086 and 104,824 pairs.  One pass with union-find decides
    each in the pinned number of pairs, skipping the pinned number of
    pairs it had already equated."""
    got = {}
    for i, chor in _corpus_roundtrip((41, 143)):
        net = epp(chor)
        program = extract(net, strategy=Strategy("Random", 0)).program
        sim = bisimilar(program, extract(net).program, SimBudget(max_pairs=20_000))
        got[i] = (sim.verdict, sim.pairs_explored, sim.equated)
    assert got == {41: ("yes", 4252, 355), 143: ("yes", 9724, 762)}


def test_work_counters_on_round_trips(monkeypatch):
    """`rewrites` and `scans` repeat exactly on records 0-12 of the corpus
    stream, and `scans` is the number of `chor_enabled` calls.  When every
    pair was rewritten from scratch the same checks made 1,880 pairs,
    4,952 rewrite steps and 3,762 scans; two simulation passes that
    stopped at settled pairs made 528, 4,802 and 1,058."""
    real = equiv.chor_enabled
    calls = []

    def counting(c, body=None):
        calls.append(body)
        return real(c, body)

    monkeypatch.setattr(equiv, "chor_enabled", counting)
    pairs = rewrites = scans = 0
    for i, chor in _corpus_roundtrip(range(13)):
        sim = bisimilar(chor, extract(epp(chor)).program, SimBudget(max_pairs=3000))
        assert sim.verdict == "yes", i
        assert set(sim.to_json()) == {"verdict", "pairsExplored"}
        pairs += sim.pairs_explored
        rewrites += sim.rewrites
        scans += sim.scans
    assert (pairs, rewrites, scans) == (264, 2401, 529)
    assert scans == len(calls)


def _fixture_terms():
    """The fixture choreographies and the extractions of the fixture
    networks that extract."""
    chors = [
        parse_choreography(text)
        for text in (
            N1_CHOR_TEXT,
            N2_CHOR_TEXT,
            N3_CHOR_TEXT,
            SIGNON_CHOR_TEXT,
            TWO_LOOPS_VARIANT_A,
            TWO_LOOPS_VARIANT_B,
            RANKED_LOOP_CHOR_TEXT,
            SHIFTED_LOOP_CHOR_TEXT,
        )
    ]
    nets = (
        (N1_TEXT, {}),
        (N2_TEXT, {}),
        (N3_TEXT, {}),
        (SIGNON_NET_TEXT, {}),
        (TWO_LOOPS_TEXT, {}),
        (RANKED_LOOP_NET_TEXT, {"services": frozenset({"r"})}),
        (SHIFTED_LOOP_NET_TEXT, {}),
        (UNDO_TEXT, {}),
        (LOOP_PLUS_FINITE_TEXT, {}),
    )
    return chors + [extract(parse_network(text), **kwargs).program for text, kwargs in nets]


def _labels(thing, config):
    return {
        label
        for chor, body in zip(equiv._components(thing), config)
        for label, _ in oracles.reference_chor_enabled(chor, body)
    }


def _assert_judged(c1, c2, budget):
    """`bisimilar` gives the reference checker's verdict in both argument
    orders, and a "no" comes with a genuine witness: the configuration
    of the side it names (left for `c1`, right for `c2`) enables the
    action and the other one does not.

    The reference runs two simulation passes and `bisimilar` one, so
    where the reference runs out of pairs and `bisimilar` decides, the
    reference runs again with twenty times the pairs and must decide the
    same way."""
    sim = bisimilar(c1, c2, budget)
    assert bisimilar(c2, c1, budget).verdict == sim.verdict
    verdict = oracles.reference_bisimilar(c1, c2, budget.max_pairs)
    if verdict == "exhausted" and sim.verdict != "exhausted":
        verdict = oracles.reference_bisimilar(c1, c2, 20 * budget.max_pairs)
    assert sim.verdict == verdict
    if verdict == "no":
        action, left, right, side = sim.witness
        enabled = (action in _labels(c1, left), action in _labels(c2, right))
        assert enabled == (side == "left", side == "right")
    return verdict


class TestReferenceVerdicts:
    """`bisimilar` against `oracles.reference_bisimilar`, which rewrites
    every pair from scratch and shares nothing between calls."""

    def test_fixtures(self):
        terms = _fixture_terms()
        # Some pairs have infinitely many successor pairs in one direction
        # (one side keeps actions the other never takes): a simulation
        # check would run that direction to the budget, but a bisimilarity
        # check meets an action the other side lacks and decides "no".
        verdicts = [
            _assert_judged(c1, c2, SimBudget(max_pairs=300)) for c1 in terms for c2 in terms
        ]
        assert set(verdicts) == {"yes", "no"}
        a, b, twice = (
            parse_choreography(t)
            for t in (TWO_LOOPS_VARIANT_A, TWO_LOOPS_VARIANT_B, TWO_LOOPS_VARIANT_B_TWICE)
        )
        assert _assert_judged(a, twice, SimBudget(max_pairs=1)) == "exhausted"
        # The reference needs a pair per direction, so it decides only
        # when it runs again with more pairs.
        assert oracles.reference_bisimilar(a, b, 1) == "exhausted"
        assert _assert_judged(a, b, SimBudget(max_pairs=1)) == "yes"

    def test_round_trips(self):
        """Records 0-12 against their own extractions (yes) and against
        the next record's (no), each in both argument orders."""
        budget = SimBudget(max_pairs=3000)
        records = [(chor, extract(epp(chor)).program) for _, chor in _corpus_roundtrip(range(14))]
        for (chor, program), (_, following) in zip(records, records[1:]):
            assert _assert_judged(chor, program, budget) == "yes"
            assert _assert_judged(chor, following, budget) == "no"
            assert _assert_judged(following, chor, budget) == "no"
