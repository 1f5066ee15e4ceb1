"""Corpus tooling: the random choreography generator, the amendment pass,
the inefficiency injector, the network fuzzer, and the unroller."""

import random

import pytest

from chorex import cc, sp
from chorex.epp import epp
from chorex.equiv import SimBudget, bisimilar
from chorex.extraction import extract
from chorex.parser import (
    parse_choreography,
    parse_network,
    pretty,
    pretty_behaviour,
)
from chorex.testgen import (
    FuzzParams,
    GenParams,
    amend,
    fuzz,
    generate,
    unroll,
    _delete_at,
    _rotate_loop,
    _swap_at,
)

from conftest import RANKED_LOOP_CHOR_TEXT, SHIFTED_LOOP_NET_TEXT
from inefficiency import inject_inefficiency


def _counts(c):
    """Number of interactions and conditionals across main and procedures."""
    actions = conds = 0
    stack = [c.main, *c.procedures.values()]
    while stack:
        b = stack.pop()
        match b:
            case cc.Com(cont=k) | cc.Sel(cont=k):
                actions += 1
                stack.append(k)
            case cc.Cond(then=t, orelse=o):
                conds += 1
                stack.append(t)
                stack.append(o)
            case _:
                pass
    return actions, conds


def _reachable_procedures(c):
    def called(body):
        out = set()
        stack = [body]
        while stack:
            b = stack.pop()
            match b:
                case cc.Call(name):
                    out.add(name)
                case cc.Com(cont=k) | cc.Sel(cont=k):
                    stack.append(k)
                case cc.Cond(then=t, orelse=o):
                    stack.extend((t, o))
        return out

    seen = set()
    frontier = called(c.main)
    while frontier:
        name = frontier.pop()
        if name not in seen:
            seen.add(name)
            frontier |= called(c.procedures[name])
    return seen


class TestParams:
    def test_ifs_above_size_rejected(self):
        with pytest.raises(ValueError, match="size >= ifs"):
            GenParams(size=3, processes=2, ifs=4)

    def test_single_process_rejected(self):
        with pytest.raises(ValueError, match="two processes"):
            GenParams(size=3, processes=1)

    def test_negative_defs_rejected(self):
        with pytest.raises(ValueError):
            GenParams(size=3, processes=2, defs=-1)

    def test_fuzz_needs_some_damage(self):
        with pytest.raises(ValueError, match="both zero"):
            FuzzParams()
        with pytest.raises(ValueError):
            FuzzParams(deletions=-1, swaps=2)


class TestGenerate:
    def test_budgets_are_spent_exactly(self):
        for params in (
            GenParams(size=10, processes=3, seed=1),
            GenParams(size=25, processes=5, ifs=6, defs=2, seed=9),
            GenParams(size=8, processes=2, ifs=8, defs=0, seed=4),
        ):
            c = generate(params)
            actions, conds = _counts(c)
            assert actions == params.size
            assert conds == params.ifs
            assert sorted(c.procedures) == [f"X{i+1}" for i in range(params.defs)]

    def test_process_names_stay_in_range(self):
        c = generate(GenParams(size=20, processes=4, ifs=2, defs=1, seed=7))
        assert cc.choreography_process_names(c) <= {"p1", "p2", "p3", "p4"}

    def test_every_procedure_is_reachable(self):
        for seed in range(10):
            c = generate(GenParams(size=12, processes=3, ifs=2, defs=3, seed=seed))
            assert _reachable_procedures(c) == set(c.procedures)

    def test_dense_defs_use_the_connected_layout(self):
        # One action per procedure on average: uniform terminal draws almost
        # never connect all eight, so the spanning placement must kick in.
        params = GenParams(size=8, processes=4, ifs=0, defs=8, seed=0)
        c = generate(params)
        actions, conds = _counts(c)
        assert actions == 8 and conds == 0
        assert _reachable_procedures(c) == set(c.procedures) == {
            "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8"
        }

    def test_same_params_same_choreography(self):
        params = GenParams(size=18, processes=4, ifs=4, defs=2, seed=11)
        assert generate(params) == generate(params)

    def test_different_seeds_differ(self):
        a = generate(GenParams(size=18, processes=4, ifs=4, defs=2, seed=0))
        b = generate(GenParams(size=18, processes=4, ifs=4, defs=2, seed=1))
        assert a != b


class TestAmend:
    def test_projectable_input_is_returned_untouched(self):
        c = parse_choreography("main { p.e -> q.x; stop }")
        assert amend(c) is c

    def test_single_selection_inserted(self):
        c = parse_choreography(
            "main { if p.e then p.1 -> q.x; stop else p.2 -> q.y; stop }"
        )
        assert pretty(amend(c)) == (
            "main { if p.e then p -> q[thenL]; p.1 -> q.x; stop"
            " else p -> q[elseL]; p.2 -> q.y; stop }"
        )

    def test_selections_for_every_undecided_process(self):
        c = parse_choreography(
            "main { if p.e then q.1 -> r.x; stop else q.2 -> r.y; stop }"
        )
        assert pretty(amend(c)) == (
            "main { if p.e then p -> q[thenL]; p -> r[thenL]; q.1 -> r.x; stop"
            " else p -> q[elseL]; p -> r[elseL]; q.2 -> r.y; stop }"
        )

    def test_ranked_loop_becomes_projectable(self):
        c = parse_choreography(RANKED_LOOP_CHOR_TEXT)
        amended = amend(c)
        epp(amended)  # would raise if the amendment missed a merge failure
        assert pretty(amended) == (
            "def X { p.e -> q.x; p.e -> q.x; r.e' -> q.y;"
            " if q.(x=y) then q -> r[thenL]; q -> p[left]; X"
            " else q -> r[elseL]; q -> p[right]; stop } main { X }"
        )

    def test_amended_generator_output_projects(self):
        for seed in range(8):
            c = amend(generate(GenParams(size=14, processes=4, ifs=3, defs=1, seed=seed)))
            epp(c)


class TestInefficiency:
    def test_procedure_inlining(self):
        c = parse_choreography("def X1 { p.e1 -> q.x1; X1 } main { p.e0 -> q.x0; X1 }")
        out = inject_inefficiency(c, seed=0)
        assert pretty(out) == (
            "def X1 { p.e1 -> q.x1; X1 } main { p.e0 -> q.x0; p.e1 -> q.x1; X1 }"
        )

    def test_conditional_swap(self):
        c = parse_choreography(
            "main { if p.a then if q.b then p.1 -> q.w; stop else p.2 -> q.w; stop"
            " else if q.b then p.3 -> q.w; stop else p.4 -> q.w; stop }"
        )
        out = inject_inefficiency(c, seed=0)
        assert pretty(out) == (
            "main { if q.b then if p.a then p.1 -> q.w; stop else p.3 -> q.w; stop"
            " else if p.a then p.2 -> q.w; stop else p.4 -> q.w; stop }"
        )

    def test_interaction_pushed_into_both_branches(self):
        c = parse_choreography(
            "main { p.e -> q.x; if r.c then p.1 -> q.y; stop else p.2 -> q.z; stop }"
        )
        out = inject_inefficiency(c, seed=0)
        assert pretty(out) == (
            "main { if r.c then p.e -> q.x; p.1 -> q.y; stop"
            " else p.e -> q.x; p.2 -> q.z; stop }"
        )

    def test_rewrites_preserve_behaviour_and_projectability(self):
        for seed in range(6):
            c = amend(generate(GenParams(size=12, processes=3, ifs=2, defs=1, seed=seed)))
            out = inject_inefficiency(c, seed=seed)
            epp(out)
            assert bisimilar(c, out, SimBudget()).verdict == "yes"
            before, _ = _counts(c)
            after, _ = _counts(out)
            assert after >= before


class TestFuzz:
    CHAIN = (
        "p { main { q!<1>; q!<2>; q!<3>; stop } } |"
        " q { main { p?x; p?y; p?z; stop } }"
    )

    def test_deterministic(self):
        net = parse_network(self.CHAIN)
        params = FuzzParams(deletions=1, swaps=1, seed=5)
        assert fuzz(net, params) == fuzz(net, params)

    def test_exactly_one_victim(self):
        net = parse_network(self.CHAIN)
        out = fuzz(net, FuzzParams(deletions=2, seed=3))
        changed = [p for p in net.processes if out.processes[p] != net.processes[p]]
        assert len(changed) == 1

    def test_deletion_removes_one_action(self):
        net = parse_network(self.CHAIN)
        out = fuzz(net, FuzzParams(deletions=1, seed=0))
        assert pretty_behaviour(out.processes["q"].main) == "p?x; p?z; stop"
        assert out.processes["p"] == net.processes["p"]

    def test_swap_exchanges_adjacent_actions(self):
        net = parse_network(self.CHAIN)
        out = fuzz(net, FuzzParams(swaps=1, seed=0))
        assert pretty_behaviour(out.processes["q"].main) == "p?x; p?z; p?y; stop"

    def test_deletions_shrink_chains_by_the_budget(self):
        net = parse_network(self.CHAIN)
        for seed in range(12):
            out = fuzz(net, FuzzParams(deletions=2, seed=seed))
            victim = next(
                p for p in net.processes if out.processes[p] != net.processes[p]
            )
            remaining = sum(
                1 for _ in _behaviour_actions(out.processes[victim].main)
            )
            assert remaining == 1  # 3 actions - 2 deletions

    def test_fuzzed_network_usually_breaks_extraction(self):
        # A deleted receive leaves the partner stranded: spot-check one seed.
        net = parse_network(self.CHAIN)
        out = fuzz(net, FuzzParams(deletions=1, seed=0))
        result = extract(out)
        assert result.ok and result.deadlock_remainders != []


def _behaviour_actions(b):
    stack = [b]
    while stack:
        node = stack.pop()
        match node:
            case sp.Send(cont=k) | sp.Receive(cont=k) | sp.Select(cont=k):
                yield node
                stack.append(k)
            case sp.Offer(branches=branches):
                yield node
                stack.extend(br for _, br in branches)
            case sp.Cond(then=t, orelse=o):
                yield node
                stack.extend((t, o))


class TestSwapDeleteOps:
    def test_prefix_pushed_into_then_branch_only(self):
        b = sp.Send("q", "e", sp.Cond("c", sp.Receive("q", "u", sp.NIL), sp.NIL))
        assert _swap_at(b, ()) == sp.Cond(
            "c", sp.Send("q", "e", sp.Receive("q", "u", sp.NIL)), sp.NIL
        )

    def test_leading_prefix_pulled_out_of_conditional(self):
        b = sp.Cond("c", sp.Send("q", "e", sp.NIL), sp.Receive("q", "u", sp.NIL))
        assert _swap_at(b, ()) == sp.Send(
            "q", "e", sp.Cond("c", sp.NIL, sp.Receive("q", "u", sp.NIL))
        )

    def test_swap_with_terminal_deletes(self):
        b = sp.Send("q", "1", sp.Send("q", "2", sp.NIL))
        assert _swap_at(b, (0,)) == sp.Send("q", "1", sp.NIL)

    def test_offer_deletion_keeps_first_branch(self):
        b = sp.Offer("q", [("a", sp.Send("q", "x", sp.NIL)), ("b", sp.NIL)])
        assert _delete_at(b, ()) == sp.Send("q", "x", sp.NIL)

    def test_conditional_deletion_keeps_then_branch(self):
        b = sp.Cond("c", sp.Send("q", "1", sp.NIL), sp.Send("q", "2", sp.NIL))
        assert _delete_at(b, ()) == sp.Send("q", "1", sp.NIL)


class TestUnroll:
    def test_deterministic(self):
        net = parse_network(SHIFTED_LOOP_NET_TEXT)
        assert unroll(net, seed=4) == unroll(net, seed=4)

    def test_without_procedures_nothing_happens(self):
        net = parse_network("p { main { q!<e>; stop } } | q { main { p?x; stop } }")
        assert unroll(net, seed=3) is net

    def test_inlining_lengthens_one_process(self):
        net = parse_network(SHIFTED_LOOP_NET_TEXT)
        out = unroll(net, seed=1)
        changed = [p for p in net.processes if out.processes[p] != net.processes[p]]
        assert changed == ["p"]
        assert pretty_behaviour(out.processes["p"].main) == (
            "q!<e>; q!<e>; q!<e>; q!<e>; q!<e>; q!<e>; X"
        )
        assert out.processes["p"].procedures["X"] == net.processes["p"].procedures["X"]

    def test_loop_rotation_shifts_entry_prefix(self):
        term = sp.ProcessTerm(
            {"R": sp.Send("q", "1", sp.Send("q", "2", sp.Call("R")))}, sp.Call("R")
        )
        out = _rotate_loop(term, random.Random(0))
        assert pretty_behaviour(out.procedures["R"]) == "q!<2>; q!<1>; R"
        assert pretty_behaviour(out.main) == "q!<1>; R"

    def test_unrolled_network_extracts_to_equivalent_choreography(self):
        for text in (SHIFTED_LOOP_NET_TEXT,):
            net = parse_network(text)
            base = extract(net)
            for seed in range(4):
                out = extract(unroll(net, seed=seed))
                assert out.ok
                verdict = bisimilar(base.program, out.program, SimBudget())
                assert verdict.verdict == "yes"
