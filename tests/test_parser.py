"""Grammar coverage, error reporting, and print/parse round-trips."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from chorex import cc, sp
from chorex.epp import epp
from chorex.parser import (
    ParseError,
    parse_choreography,
    parse_network,
    parse_program,
    pretty,
    pretty_behaviour,
    pretty_body,
)
from chorex.testgen import GenParams, amend, generate

from conftest import N1_TEXT, SIGNON_CHOR_TEXT, SIGNON_NET_TEXT


def test_parses_send_receive_pairs(n1):
    assert set(n1.names()) == {"p", "q", "r", "s"}
    assert n1["p"].main == sp.Send("q", "e", sp.NIL)
    assert n1["q"].main == sp.Receive("p", "x", sp.NIL)
    assert n1["s"].main == sp.Receive("r", "y", sp.NIL)


def test_parses_procedures_and_offers(signon_net):
    u = signon_net["u"]
    assert set(u.procedures) == {"X"}
    assert u.main == sp.Call("X")
    offer = u.procedures["X"].cont
    assert isinstance(offer, sp.Offer)
    assert [l for l, _ in offer.branches] == ["ko", "ok"]


def test_expression_capture():
    # Parenthesized groups come through verbatim; whitespace between
    # atoms outside parens is dropped.
    net = parse_network("p { main { if check( c ) then q!<e>; stop else stop } }")
    assert net["p"].main.expr == "check( c )"
    net = parse_network("p { main { q!< f(x, g(y)) >; stop } }")
    assert net["p"].main.expr == "f(x, g(y))"
    net = parse_network("p { main { if a  b then stop else stop } }")
    assert net["p"].main.expr == "ab"


def test_primed_names_allowed_in_expressions():
    net = parse_network("p { main { q!<e'>; stop } }")
    assert net["p"].main.expr == "e'"


def test_comments_are_skipped():
    net = parse_network("# leading note\np { main { stop } } # trailing\n")
    assert not net["p"].is_live()


def test_optional_continue_keyword_is_ignored():
    a = parse_network("p { main { if e then stop else stop continue } }")
    b = parse_network("p { main { if e then stop else stop } }")
    assert a == b


def test_choreography_terms():
    c = parse_choreography("def X { p.e -> q.x; X } main { if p.go then X else stop }")
    assert c.procedures["X"] == cc.Com("p", "e", "q", "x", cc.Call("X"))
    assert c.main == cc.Cond("p", "go", cc.Call("X"), cc.NIL)
    d = parse_choreography("main { p -> q[l]; deadlock }")
    assert d.main == cc.Sel("p", "q", "l", cc.DEADLOCK)


def test_program_composition():
    prog = parse_program("main { p.e -> q.x; stop } || main { r.e -> s.x; stop }")
    assert len(prog.components) == 2


class TestLexer:
    """Spaces are needed only between two words, and a comment may stand
    between any two tokens outside parentheses."""

    # A parenthesized group counts as one token: its text is kept verbatim.
    _TOKENS = re.compile(r"\([^()]*\)|->|\|\||[A-Za-z0-9_']+|\S")
    _WORDS = re.compile(r"[A-Za-z0-9_']+")

    def _variants(self, text):
        tokens = self._TOKENS.findall(text)
        squeezed = tokens[0]
        for before, token in zip(tokens, tokens[1:]):
            between = before[-1] + token[0]
            squeezed += (" " if self._WORDS.fullmatch(between) else "") + token
        return squeezed, "# note\n".join(tokens)

    def test_network_variants_parse_alike(self):
        original = parse_network(SIGNON_NET_TEXT)
        squeezed, commented = self._variants(SIGNON_NET_TEXT)
        assert squeezed.startswith("u{def X{a!<cred>;a&{ok:w?t;stop,ko:X}}main{X}}|")
        assert "if check(c)then u+ok;" in squeezed
        assert commented.count("# note") > 80
        assert parse_network(squeezed) == original
        assert parse_network(commented) == original

    def test_choreography_variants_parse_alike(self):
        original = parse_choreography(SIGNON_CHOR_TEXT)
        squeezed, commented = self._variants(SIGNON_CHOR_TEXT)
        assert squeezed.startswith("def X{u.cred->a.c;if a.check(c)then a->u[ok];")
        assert parse_choreography(squeezed) == original
        assert parse_choreography(commented) == original

    def test_comment_inside_parentheses_is_kept(self):
        net = parse_network("p { main { q!<f(a # b)>; stop } }")
        assert net["p"].main.expr == "f(a # b)"

    def test_arrow_without_spaces(self):
        c = parse_choreography("main { p.e->q.x; stop }")
        assert c.main == cc.Com("p", "e", "q", "x", cc.NIL)


class TestHeadPatterns:
    """A behaviour head is read by one pattern match where it can be, and
    token by token where it cannot; the two readings must agree."""

    _TOKENS = re.compile(r"->|\|\||[A-Za-z0-9_']+|\S")
    _WORD_CHARS = re.compile(r"[A-Za-z0-9_']")
    # What may stand between two tokens: nothing, spaces, tabs, CRLF line
    # ends and comments, one of which holds the text of whole actions.
    _GAPS = ("", " ", " \t ", "\r\n", "# comment\n", " # q!<e>; p?x; q+l;\n", "\n#\n\t")

    def _regapped(self, text, rng):
        """`text` with a random gap between every pair of tokens."""
        tokens = self._TOKENS.findall(text)
        out = [tokens[0]]
        for before, token in zip(tokens, tokens[1:]):
            gap = rng.choice(self._GAPS)
            if not gap and self._WORD_CHARS.match(before[-1]) and self._WORD_CHARS.match(token):
                gap = " "  # two words need a gap between them
            out += (gap, token)
        out.append(rng.choice(("", "\n", " # trailing")))
        return "".join(out)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_gaps_parse_to_the_same_terms(self, seed):
        params = GenParams(size=30, processes=4, ifs=3, defs=2, seed=seed)
        chor = amend(generate(params))
        net = epp(chor)
        rng = random.Random(f"gaps:{seed}")
        for _ in range(5):
            assert parse_network(self._regapped(pretty(net), rng)) == net
            assert parse_choreography(self._regapped(pretty(chor), rng)) == chor

    # Heads the patterns do not read whole: multi-word expressions, groups,
    # a primed `then`, keywords in name slots, self-communication, and a
    # name whose action a comment holds.  Each outcome is the one the
    # token-by-token scanner gave.
    TOKEN_PATH_CASES = (
        (parse_network, "p { main { q!<a b>; stop } } | q { main { p?x; stop } }",
         "ok p { main { q!<ab>; stop } } | q { main { p?x; stop } }"),
        (parse_network, "p { main { q!<f(x)>; stop } } | q { main { p?x; stop } }",
         "ok p { main { q!<f(x)>; stop } } | q { main { p?x; stop } }"),
        (parse_network, "p { main { if e then' stop else stop } }",
         "\"unexpected character '}' in expression\" 1:38:37"),
        (parse_network, "p { main { if e then'x then stop else stop } }",
         "ok p { main { if ethen'x then stop else stop } }"),
        (parse_network, "p { main { if then then stop else stop } }",
         "'empty expression' 1:15:14"),
        (parse_network, "p { main { q?stop; stop } }",
         "\"expected variable name, found keyword 'stop'\" 1:14:13"),
        (parse_network, "p { main { q+else; stop } }",
         "\"expected label, found keyword 'else'\" 1:14:13"),
        (parse_network, "p { main { q&{ main: stop } } }",
         "\"expected label, found keyword 'main'\" 1:16:15"),
        (parse_network, "p { main { q!<stop>; stop } }", "ok p { main { q!<stop>; stop } }"),
        (parse_network, "p { main { def!<e>; stop } }",
         "\"expected process or procedure name, found keyword 'def'\" 1:12:11"),
        (parse_network, "p { main { q!<e>;X' } }",
         "'expected process or procedure name, found \"X\\' } }\"' 1:18:17"),
        (parse_network, "p { main { q #!<e>;\n?x; stop } }", "ok p { main { q?x; stop } }"),
        # A comment that holds the rest of an action is not part of it.
        (parse_network, "p { main { q #!<e>;\n! } }", "\"expected '<', found '} }'\" 2:3:22"),
        (parse_network, "p { main { q #?x;\n? } }",
         "\"expected variable name, found '} }'\" 2:3:20"),
        (parse_choreography, "main { p.a b -> q.x; stop }", "ok main { p.ab -> q.x; stop }"),
        (parse_choreography, "main { p.e -> q.then; stop }",
         "\"expected variable name, found keyword 'then'\" 1:17:16"),
        (parse_choreography, "main { p -> q[def]; stop }",
         "\"expected label, found keyword 'def'\" 1:15:14"),
        (parse_choreography, "main { p.e -> p.x; stop }",
         "\"process 'p' communicates with itself\" 1:8:7"),
        (parse_choreography, "main { p -> p[l]; stop }", "\"process 'p' selects at itself\" 1:8:7"),
        (parse_choreography, "main { if p.e then' stop else stop }",
         "\"unexpected character '}' in expression\" 1:36:35"),
        (parse_choreography, "main { if main.e then stop else stop }",
         "\"expected process name, found keyword 'main'\" 1:11:10"),
        (parse_choreography, "main { p.stop -> q.x; deadlock }",
         "ok main { p.stop -> q.x; deadlock }"),
        (parse_choreography, "main { p #.e -> q.x;\n. }",
         "\"unexpected character '}' in expression\" 2:3:23"),
        (parse_choreography, "main { p #-> q[l];\n-> }", "\"expected process name, found '}'\" 2:4:22"),
    )

    @pytest.mark.parametrize("parse, text, expected", TOKEN_PATH_CASES)
    def test_token_path_outcomes(self, parse, text, expected):
        try:
            outcome = f"ok {pretty(parse(text))}"
        except ParseError as exc:
            span = exc.span
            outcome = f"{exc.message!r} {span.line}:{span.column}:{span.offset}"
        assert outcome == expected


class TestErrors:
    """Every error carries a 1-based line:column span and a bare message."""

    def _fails(self, fn, text, line, column, fragment):
        with pytest.raises(ParseError) as err:
            fn(text)
        assert (err.value.span.line, err.value.span.column) == (line, column)
        assert fragment in err.value.message

    def test_missing_send_argument(self):
        self._fails(parse_network, "p { main { q! }", 1, 15, "expected '<'")

    def test_missing_semicolon(self):
        self._fails(parse_network, "p { main { q!<e> stop } }", 1, 18, "expected ';'")

    def test_program_bar_in_network(self):
        self._fails(
            parse_network,
            "p { main { stop } } || q { main { stop } }",
            1, 21, "'||' joins programs",
        )

    def test_components_sharing_a_process(self):
        self._fails(
            parse_program,
            "main { p.e -> q.x; stop } || main { q.e -> r.y; stop }",
            1, 30, "components share process names: ['q']",
        )

    def test_self_communication(self):
        self._fails(parse_network, "p { main { p?x; stop } }", 1, 1, "communicates with itself")

    def test_undefined_procedure(self):
        self._fails(parse_network, "p { main { X } }", 1, 1, "undefined procedure 'X'")

    def test_duplicate_offer_label(self):
        self._fails(
            parse_network, "p { main { q&{ l: stop, l: stop } } }", 1, 24, "duplicate branch label"
        )

    def test_choreography_self_communication(self):
        self._fails(parse_choreography, "main { p.e -> p.x; stop }", 1, 8, "communicates with itself")

    def test_unguarded_procedure(self):
        self._fails(parse_choreography, "def X { X } main { X }", 1, 4, "unguarded call")

    def test_trailing_input(self):
        self._fails(
            parse_choreography, "main { stop } main { stop }", 1, 15, "trailing input"
        )

    def test_duplicate_process(self):
        with pytest.raises(ParseError, match="duplicate process"):
            parse_network("p { main { stop } } | p { main { stop } }")

    def test_error_spans_track_lines(self):
        with pytest.raises(ParseError) as err:
            parse_network("p {\n  main {\n    q!<e> stop } }")
        assert err.value.span.line == 3


class TestRoundTrip:
    def test_fixture_round_trips(self, n1, n2, n3, signon_net):
        for net in (n1, n2, n3, signon_net):
            assert parse_network(pretty(net)) == net

    def test_choreography_round_trips(self, signon_chor):
        assert parse_choreography(pretty(signon_chor)) == signon_chor

    def test_pretty_is_deterministic(self):
        a = pretty(parse_network(N1_TEXT))
        b = pretty(parse_network(N1_TEXT))
        assert a == b

    def test_pretty_normalises_whitespace(self):
        assert pretty(parse_network(SIGNON_NET_TEXT)) == pretty(
            parse_network(SIGNON_NET_TEXT.replace("\n", " "))
        )


# Hypothesis term generators.  Labels and names are drawn from small pools
# so offers collide often enough to exercise branch sorting.

_procs = st.sampled_from(["p", "q", "r"])
_exprs = st.sampled_from(["e", "f", "val'", "check(x)"])
_vars = st.sampled_from(["x", "y", "z"])
_labels = st.sampled_from(["l", "go", "halt"])


def _behaviours(owner: str):
    peers = st.sampled_from([n for n in ["p", "q", "r"] if n != owner])
    return st.recursive(
        st.just(sp.NIL),
        lambda inner: st.one_of(
            st.builds(sp.Send, peers, _exprs, inner),
            st.builds(sp.Receive, peers, _vars, inner),
            st.builds(sp.Select, peers, _labels, inner),
            st.builds(
                sp.Offer,
                peers,
                st.dictionaries(_labels, inner, min_size=1, max_size=3),
            ),
            st.builds(sp.Cond, _exprs, inner, inner),
        ),
        max_leaves=12,
    )


def _bodies():
    coms = st.tuples(_procs, _procs).filter(lambda t: t[0] != t[1])
    return st.recursive(
        st.just(cc.NIL),
        lambda inner: st.one_of(
            coms.flatmap(
                lambda t: st.builds(
                    cc.Com, st.just(t[0]), _exprs, st.just(t[1]), _vars, inner
                )
            ),
            coms.flatmap(
                lambda t: st.builds(cc.Sel, st.just(t[0]), st.just(t[1]), _labels, inner)
            ),
            st.builds(cc.Cond, _procs, _exprs, inner, inner),
        ),
        max_leaves=12,
    )


@given(st.fixed_dictionaries({"p": _behaviours("p"), "q": _behaviours("q")}))
@settings(max_examples=150, deadline=None)
def test_network_print_parse_round_trip(mains):
    net = sp.Network({name: sp.ProcessTerm({}, main) for name, main in mains.items()})
    assert parse_network(pretty(net)) == net


@given(_bodies())
@settings(max_examples=150, deadline=None)
def test_choreography_print_parse_round_trip(body):
    c = cc.Choreography({}, body)
    assert parse_choreography(pretty(c)) == c


@given(_behaviours("p"))
@settings(max_examples=100, deadline=None)
def test_behaviour_text_round_trips_via_main(b):
    net = sp.Network({"p": sp.ProcessTerm({}, b)})
    text = f"p {{ main {{ {pretty_behaviour(b)} }} }}"
    assert parse_network(text) == net


def test_pretty_body_deadlock():
    assert pretty_body(cc.DEADLOCK) == "deadlock"
    assert pretty_behaviour(sp.NIL) == "stop"


def test_pretty_rejects_foreign_values():
    with pytest.raises(TypeError):
        pretty(42)
