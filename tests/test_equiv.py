"""Bounded similarity / bisimilarity checking between choreographies."""

import random

import pytest

from chorex import equiv
from chorex.epp import epp
from chorex.equiv import SimBudget, SimResult, bisimilar, can_simulate
from chorex.extraction import extract
from chorex.parser import parse_choreography, parse_network
from chorex.testgen import GenParams, amend, generate

import oracles
from conftest import (
    N3_CHOR_TEXT,
    N3_TEXT,
    SHIFTED_LOOP_CHOR_TEXT,
    SHIFTED_LOOP_NET_TEXT,
    TWO_LOOPS_TEXT,
    TWO_LOOPS_VARIANT_A,
    TWO_LOOPS_VARIANT_B,
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

    def test_swapped_independent_actions_are_bisimilar(self):
        a = parse_choreography(TWO_LOOPS_VARIANT_A)
        b = parse_choreography(TWO_LOOPS_VARIANT_B)
        result = bisimilar(a, b, SimBudget())
        assert result.verdict == "yes"
        assert result.pairs_explored == 2

    def test_rotated_loop_is_bisimilar_to_its_extraction(self):
        extracted = extract(parse_network(SHIFTED_LOOP_NET_TEXT)).program
        displayed = parse_choreography(SHIFTED_LOOP_CHOR_TEXT)
        result = bisimilar(extracted, displayed, SimBudget())
        assert result.verdict == "yes"
        assert result.pairs_explored == 4

    def test_prefix_simulation_is_one_directional(self):
        shorter = parse_choreography("main { p.e -> q.x; stop }")
        longer = parse_choreography("main { p.e -> q.x; p.f -> q.y; stop }")
        forward = can_simulate(shorter, longer, SimBudget())
        assert forward.verdict == "yes"
        assert forward.pairs_explored == 1
        backward = can_simulate(longer, shorter, SimBudget())
        assert backward.verdict == "no"
        assert backward.to_json() == {
            "verdict": "no",
            "pairsExplored": 1,
            "witness": {
                "action": "p.f -> q.y",
                "left": ["p.f -> q.y; stop"],
                "right": ["stop"],
            },
        }

    def test_asymmetric_pair_is_not_bisimilar(self):
        shorter = parse_choreography("main { p.e -> q.x; stop }")
        longer = parse_choreography("main { p.e -> q.x; p.f -> q.y; stop }")
        assert bisimilar(shorter, longer, SimBudget()).verdict == "no"
        assert bisimilar(longer, shorter, SimBudget()).verdict == "no"

    def test_parallel_program_against_interleaved_choreography(self, two_loops):
        program = extract(two_loops).program
        interleaved = parse_choreography(TWO_LOOPS_VARIANT_A)
        result = bisimilar(program, interleaved, SimBudget())
        assert result.verdict == "yes"
        assert result.pairs_explored == 8

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
        b = parse_choreography(TWO_LOOPS_VARIANT_B)
        result = bisimilar(a, b, SimBudget(max_pairs=1))
        assert result.verdict == "exhausted"
        assert result.pairs_explored == 2  # one pair per direction
        assert result.to_json() == {"verdict": "exhausted", "pairsExplored": 2}

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
        assert result.to_json() == {"verdict": "yes", "pairsExplored": 4}

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
    """`_normalise` follows a check's rewrite graph, yet returns what a
    rewrite from scratch returns, in the same order."""

    @staticmethod
    def _graph(left_text, right_text):
        left = equiv._Side((parse_choreography(left_text),))
        right = equiv._Side((parse_choreography(right_text),))
        graph = equiv._Graph(left, right)
        return graph, graph.node(left.initial, right.initial)

    @staticmethod
    def _normalised_twice(graph, node):
        """The second call finds every step already computed, and must
        still walk from an empty seen-set."""
        want = _reference(graph, node)
        first = equiv._normalise(graph, node)
        assert _pairs(first) == want
        assert equiv._normalise(graph, node) == first
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

    def test_matches_the_reference_on_round_trips(self, monkeypatch):
        """Every raw pair that `bisimilar` (both simulation directions)
        reaches on the first records of the acceptance corpus stream."""
        real = equiv._normalise
        checked = []

        def checking(graph, node):
            got = real(graph, node)
            assert _pairs(got) == _reference(graph, node), (node.lconf, node.rconf)
            checked.append(node)
            return got

        monkeypatch.setattr(equiv, "_normalise", checking)
        for i, chor in _corpus_roundtrip(range(13)):
            program = extract(epp(chor)).program
            assert bisimilar(chor, program, SimBudget(max_pairs=3000)).verdict == "yes", i
        assert len(checked) > 2000


def test_heavy_round_trip_records_keep_their_pair_counts():
    """The corpus records the `roundtrip` benchmark leaves out for their
    cost: same verdicts and pair counts as a rewrite from scratch gave."""
    budget = SimBudget(max_pairs=3000)
    got = {}
    for i, chor in _corpus_roundtrip((14, 41, 44, 59)):
        sim = bisimilar(chor, extract(epp(chor)).program, budget)
        got[i] = (sim.verdict, sim.pairs_explored)
    assert got == {14: ("yes", 784), 41: ("yes", 410), 44: ("yes", 4558), 59: ("yes", 826)}
