"""The parser pinned on a seeded corpus of malformed texts and on the grid.

Every input goes through `parse_network`, `parse_choreography` and
`parse_program`.  Each outcome is reduced to one line: the printed tree
when the text is accepted, else the exception's type, message, line,
column and offset.  A rewrite of the scanner that keeps the behaviour
keeps the digest of those lines.  The inputs are the fixture texts, two
small generated choreographies and their projections, a program, and
texts with nested parenthesised groups and `#` inside them, each as
written and with one token deleted, duplicated, replaced, inserted
before or cut off with the rest of the input.
"""

import hashlib
import random
import re

import pytest

from chorex import parser
from chorex.epp import epp
from chorex.parser import ParseError, parse_choreography, parse_network, parse_program, pretty
from chorex.testgen import GenParams, amend, generate

import conftest
import workloads

# Spans of the tokens a mutation may touch: parentheses count singly.
_SPANS = re.compile(r"->|\|\||[A-Za-z0-9_']+|\S")

# What a replacement or an insertion puts in: comments, groups, the program
# bar, keywords where names go, every punctuation mark, odd characters.
_POOL = (
    "#", "(", ")", "()", "(#)", "||", "|", "continue", "stop", "deadlock",
    "main", "def", "if", "then", "else", "->", ";", "{", "}", "&", "!", "?",
    "+", ".", "[", "]", ":", ",", "<", ">", "x'", "9", "_", "é", "$", "\n",
)

# Accepted texts with nested groups and `#` inside them, in both languages,
# and rejected ones around groups.
GROUP_TEXTS = (
    "p { main { if f(g(a), (b # c\n)) then q!<(x)(y)>; stop else stop } } |\n"
    "q { main { p?v; stop } }",
    "p { def X { q!<h( # ) (\n)>; X } main { q!<( (a) )b>; X } } | "
    "q { def Y { p?v; Y } main { p?v; Y } }",
    "def X { p.f((a)#x\n) -> q.x; X } main { if q.(y # z\n) then p -> q[l]; X else stop }",
    "main { p.(a)(b)c -> q.x; stop } || main { r.g((#\n)) -> s.y; stop }",
    "p { main { q!<f((a)>; stop } }",
    "p { main { q!<)>; stop } }",
    "main { p.( -> q.x; stop }",
    "p ( main { stop } }",
    "p { main { q!<f(a)#b\n>; stop } }",
    "p { main { q!<(a # b)>; stop } }",
    "main { p.e -> q.(x); stop }",
    "p { main { q!<>; stop } }",
    "main { p.e(#\n -> q.x; stop }",
    "main { p.(a # b\n) -> q.x; stop stop }",
)


# The fixture texts of `conftest`, named so that adding a fixture leaves
# the corpus as it is.
FIXTURES = (
    "LIVELOCK_TRIPLE_TEXT", "LOOP_PLUS_FINITE_TEXT", "N1_CHOR_TEXT", "N1_TEXT",
    "N2_CHOR_TEXT", "N2_TEXT", "N3_CHOR_TEXT", "N3_TEXT", "RANKED_LOOP_CHOR_TEXT",
    "RANKED_LOOP_NET_TEXT", "SHIFTED_LOOP_CHOR_TEXT", "SHIFTED_LOOP_NET_TEXT",
    "SIGNON_CHOR_TEXT", "SIGNON_NET_TEXT", "TWO_LOOPS_TEXT", "TWO_LOOPS_VARIANT_A",
    "TWO_LOOPS_VARIANT_B",
)


def _base_texts() -> list:
    texts = [getattr(conftest, name) for name in FIXTURES]
    for params in (
        GenParams(size=20, processes=3, seed=0),
        GenParams(size=20, processes=4, ifs=2, defs=2, seed=1),
    ):
        chor = amend(generate(params))
        texts += [pretty(chor), pretty(epp(chor))]
    texts.append(f"{conftest.N1_CHOR_TEXT} || {conftest.N2_CHOR_TEXT}")
    return texts + list(GROUP_TEXTS)


def _mutants(text: str, rng: random.Random, count: int):
    spans = [m.span() for m in _SPANS.finditer(text)]
    for _ in range(count):
        start, end = rng.choice(spans)
        kind = rng.choice(("delete", "duplicate", "replace", "insert", "cut"))
        if kind == "delete":
            yield text[:start] + text[end:]
        elif kind == "duplicate":
            yield text[:end] + text[start:end] + text[end:]
        elif kind == "replace":
            yield text[:start] + rng.choice(_POOL) + text[end:]
        elif kind == "insert":
            yield text[:start] + rng.choice(_POOL) + " " + text[start:]
        else:
            yield text[:start]


def corpus() -> list:
    rng = random.Random("parse-corpus")
    out = []
    for text in _base_texts():
        out.append(text)
        out.extend(_mutants(text, rng, 40))
    return out


def outcome(parse, text: str) -> str:
    try:
        return f"ok {pretty(parse(text))}"
    except ParseError as exc:
        span = exc.span
        return f"ParseError {exc.message!r} {span.line} {span.column} {span.offset}"
    except Exception as exc:  # anything else the parser lets through
        return f"{type(exc).__name__} {exc}"


PARSERS = (parse_network, parse_choreography, parse_program)


def test_corpus_outcomes_are_unchanged():
    lines = [outcome(parse, text) for text in corpus() for parse in PARSERS]
    assert len(lines) == 3 * 41 * 36
    assert sum(line.startswith("ok ") for line in lines) == 229
    assert not [line for line in lines if not line.startswith(("ok ", "ParseError "))]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == "b9f20dcfd02af627"


@pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
def test_group_texts_cover_both_outcomes(parse):
    results = [outcome(parse, text) for text in GROUP_TEXTS]
    assert any(r.startswith("ok ") for r in results)
    assert any("parentheses" in r for r in results)


def test_every_grid_text_parses_to_its_network():
    texts = []
    for name, params in workloads.grid_points():
        net = epp(amend(generate(params)))
        text = pretty(net)
        assert parse_network(text) == net, name
        texts.append(text)
    assert len(texts) == 122
    assert sum(map(len, texts)) == 1_090_438
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]
    assert digest == "77a9a9a22ac46f25"


class _Counted:
    """A compiled pattern that counts the calls made through it."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.pattern, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def regex_calls(monkeypatch, parse, text: str) -> int:
    """How many calls `parse(text)` makes to the parser's patterns."""
    counters = []
    with monkeypatch.context() as patch:
        for name, value in vars(parser).items():
            if isinstance(value, re.Pattern):
                counters.append(_Counted(value))
                patch.setattr(parser, name, counters[-1])
        parse(text)
    assert counters
    return sum(c.calls for c in counters)


def test_regex_calls_count_heads_and_structural_tokens(monkeypatch):
    """One match per behaviour head and one per other token, a token
    looked at twice matched once.  The small network has 4 heads and 14
    other tokens (`p { main {`, `} }`, `|`, the same for q, and the end);
    the small choreography 2 heads and 4 (`main {`, `}`, the end).  The
    2,100-action grid point size-k42 projects to 6 processes with 4,206
    heads, 1,059 offers that each end in a `}`, and 7 tokens a process
    around them; its choreography has 2,101 heads."""
    params = dict(workloads.grid_points())["size-k42-r0"]
    chor = amend(generate(params))
    big = {parse_network: pretty(epp(chor)), parse_choreography: pretty(chor)}
    small = {
        parse_network: "p { main { q!<e>; stop } } | q { main { p?x; stop } }",
        parse_choreography: "main { p.e -> q.x; stop }",
    }
    assert len(big[parse_network]) > 40_000
    assert regex_calls(monkeypatch, parse_network, small[parse_network]) == 4 + 14
    assert regex_calls(monkeypatch, parse_choreography, small[parse_choreography]) == 2 + 4
    assert regex_calls(monkeypatch, parse_network, big[parse_network]) == 4_206 + 1_059 + 42
    assert regex_calls(monkeypatch, parse_choreography, big[parse_choreography]) == 2_101 + 4
    program = f"{small[parse_choreography]} || {big[parse_choreography]}"
    assert regex_calls(monkeypatch, parse_program, program) == 5 + 1 + 2_105


def test_a_head_with_a_group_is_read_token_by_token(monkeypatch):
    """A send whose expression holds a group takes 8 matches: the failed
    head pattern, then `q`, `!`, `<`, `f0`, `(` (the group itself is read
    by `str.find`), `>` and `;`.  The same send without the group is one
    head."""
    sends = " ".join(f"q!<f{i}(x, (y # {i}\n))>;" for i in range(50))
    text = f"p {{ main {{ {sends} stop }} }} | q {{ main {{ stop }} }}"
    assert parse_network(text)["p"].main.expr == "f0(x, (y # 0\n))"
    assert regex_calls(monkeypatch, parse_network, text) == 50 * 8 + 16
    plain = " ".join(f"q!<f{i}>;" for i in range(50))
    text = f"p {{ main {{ {plain} stop }} }} | q {{ main {{ stop }} }}"
    assert regex_calls(monkeypatch, parse_network, text) == 50 + 16
