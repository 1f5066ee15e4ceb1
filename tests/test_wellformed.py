"""Structural validation and guardedness checking.

Violating networks are built directly from terms because the parser
refuses to produce most of these shapes.
"""

from chorex import sp
from chorex.epp import epp
from chorex.parser import ParseError, parse_network, pretty
from chorex.testgen import FuzzParams, GenParams, amend, fuzz, generate
from chorex.wellformed import CheckReport, check_guardedness, check_well_formed


def _net(**processes):
    return sp.Network(processes)


def test_clean_network_passes_both_checks(signon_net):
    assert check_well_formed(signon_net).ok
    assert check_guardedness(signon_net).ok


def test_self_communication_is_flagged():
    report = check_well_formed(
        _net(p=sp.ProcessTerm({}, sp.Send("p", "e", sp.NIL)))
    )
    assert not report.ok
    assert report.violations == [
        ("self-communication", "p/main", "process p communicates with itself")
    ]


def test_self_offer_in_procedure_is_flagged():
    term = sp.ProcessTerm({"X": sp.Offer("p", {"l": sp.NIL})}, sp.Call("X"))
    report = check_well_formed(_net(p=term))
    assert ("self-communication", "p/def X", "process p communicates with itself") in report.violations


def test_undefined_call_is_flagged():
    report = check_well_formed(_net(p=sp.ProcessTerm({}, sp.Call("X"))))
    assert report.violations == [
        ("unresolved-call", "p/main", "call to undefined procedure 'X'")
    ]


def test_every_violation_is_reported_not_just_the_first():
    term = sp.ProcessTerm({}, sp.Send("p", "e", sp.Call("Y")))
    report = check_well_formed(_net(p=term))
    kinds = sorted(kind for kind, _, _ in report.violations)
    assert kinds == ["self-communication", "unresolved-call"]


class TestGuardedness:
    def test_direct_bare_self_call(self):
        term = sp.ProcessTerm({"X": sp.Call("X")}, sp.Call("X"))
        report = check_guardedness(_net(p=term))
        assert report.violations == [
            ("unguarded-recursion", "p/def X", "procedure X unfolds to a bare self-call")
        ]

    def test_mutual_bare_cycle(self):
        term = sp.ProcessTerm({"X": sp.Call("Y"), "Y": sp.Call("X")}, sp.Call("X"))
        report = check_guardedness(_net(p=term))
        assert not report.ok
        assert {where for _, where, _ in report.violations} == {"p/def X", "p/def Y"}
        # X leads into the Y-Z cycle without being on it, and is reported
        # too, before the members; each message names the cycle from
        # where its chain enters it.
        term = sp.ProcessTerm(
            {"X": sp.Call("Y"), "Y": sp.Call("Z"), "Z": sp.Call("Y")}, sp.Call("X")
        )
        report = check_guardedness(_net(p=term))
        assert report.violations == [
            ("unguarded-recursion", "p/def X", "procedure X unfolds to the bare-call cycle Y -> Z -> Y"),
            ("unguarded-recursion", "p/def Y", "procedure Y unfolds to the bare-call cycle Y -> Z -> Y"),
            ("unguarded-recursion", "p/def Z", "procedure Z unfolds to the bare-call cycle Z -> Y -> Z"),
        ]

    def test_guarded_mutual_recursion_is_fine(self):
        term = sp.ProcessTerm(
            {"X": sp.Call("Y"), "Y": sp.Send("q", "e", sp.Call("X"))},
            sp.Call("X"),
        )
        assert check_guardedness(_net(p=term)).ok

    def test_unreachable_bad_procedure_is_ignored(self):
        # Z is a bare self-call but nothing ever invokes it.
        term = sp.ProcessTerm({"Z": sp.Call("Z")}, sp.Send("q", "e", sp.NIL))
        assert check_guardedness(_net(p=term)).ok


def test_report_ok_and_repr():
    report = CheckReport([("kind", "p/main", "something happened")])
    assert not report.ok
    assert report.violations == [("kind", "p/main", "something happened")]
    assert CheckReport().ok
    assert "ok=True" in repr(CheckReport())


class TestParsedCopies:
    """The parser hands each process term the peers and calls it collected,
    and both checks skip a process that cannot have a violation.  Networks
    built from terms, whose peers and calls are found by a walk, and their
    `parse_network(pretty())` copies must give the same reports."""

    def _reports(self, net):
        return check_well_formed(net).violations, check_guardedness(net).violations

    def _same_reports(self, net):
        """Compare the reports of `net` and its parsed copy; a copy the
        parser refuses must be refused with the first violation."""
        reports = self._reports(net)
        try:
            parsed = parse_network(pretty(net))
        except ParseError as exc:
            assert exc.message == reports[0][0][2]
            return reports
        assert parsed == net
        assert self._reports(parsed) == reports
        for name, term in parsed.processes.items():
            walked = sp.ProcessTerm(term.procedures, term.main).peers_and_calls()
            collected = term.peers_and_calls()
            assert [sorted(names) for names in collected] == [sorted(set(names)) for names in walked]
        return reports

    def test_fuzzed_networks(self):
        found = 0
        for size, seed in ((6, 0), (6, 1), (10, 3), (20, 2)):
            params = GenParams(size=size, processes=3, ifs=1, defs=2, seed=seed)
            net = epp(amend(generate(params)))
            self._same_reports(net)
            for d, s in ((1, 0), (0, 1), (2, 2), (4, 0), (6, 0)):
                fuzzed = fuzz(net, FuzzParams(deletions=d, swaps=s, seed=seed))
                reports = self._same_reports(fuzzed)
                found += bool(reports[0] or reports[1])
        assert found >= 3  # bare-call cycles that deletions leave

    def test_self_communication_in_a_procedure_body(self):
        term = sp.ProcessTerm(
            {"X": sp.Send("q", "e", sp.Receive("p", "x", sp.Call("X")))}, sp.Call("X")
        )
        q = sp.ProcessTerm({}, sp.Receive("p", "y", sp.NIL))
        reports = self._same_reports(_net(p=term, q=q))
        assert reports == (
            [("self-communication", "p/def X", "process p communicates with itself")],
            [],
        )

    def test_undefined_call(self):
        q = sp.ProcessTerm({}, sp.Receive("p", "y", sp.NIL))
        net = _net(p=sp.ProcessTerm({}, sp.Send("q", "e", sp.Call("Y"))), q=q)
        assert self._same_reports(net) == (
            [("unresolved-call", "p/main", "call to undefined procedure 'Y'")],
            [],
        )

    def test_chain_into_a_bare_call_cycle(self):
        term = sp.ProcessTerm(
            {"X": sp.Call("Y"), "Y": sp.Call("Z"), "Z": sp.Call("Y")},
            sp.Send("q", "e", sp.Call("X")),
        )
        q = sp.ProcessTerm({}, sp.Receive("p", "y", sp.NIL))
        _, guardedness = self._same_reports(_net(p=term, q=q))
        assert [where for _, where, _ in guardedness] == ["p/def X", "p/def Y", "p/def Z"]

    def test_unreachable_bare_self_call(self):
        term = sp.ProcessTerm({"X": sp.Call("X")}, sp.Send("q", "e", sp.NIL))
        q = sp.ProcessTerm({}, sp.Receive("p", "y", sp.NIL))
        assert self._same_reports(_net(p=term, q=q)) == ([], [])
