"""Concrete syntax: parsing and pretty-printing.

Networks (`.sp` files)::

    p { def X { q!<e>; X } main { X } } | q { main { p?x; stop } }

    B ::= stop | X | q!<e>; B | p?x; B | q+l; B
        | p&{ l: B, l: B } | if e then B else B [continue]

Choreographies (`.cc` files)::

    def X { p.e -> q.x; X } main { X }

    C ::= stop | deadlock | X | p.e -> q.x; C | p -> q[l]; C
        | if p.e then C else C

Programs are choreographies joined by `||`; networks are process
definitions joined by `|`.

Tokens: after any whitespace and `#` line comments, the next token is
`->`, `||`, a word (a run of `[A-Za-z0-9_']`) or any other single
character.  A name is a word that starts with a letter and has no `'`.
Spaces are needed only between two words.  Expressions are opaque: words
and balanced parenthesized groups, captured verbatim (a group with
everything inside it, `#` included) and joined without what lies between
them; they are never interpreted.

The scanner reads the text at a character cursor.  One match of its
language's head pattern (`_NETWORK_HEAD`, `_BODY_HEAD`) reads a whole
behaviour head, gaps and comments included: an action such as `q!<e>;`
or `p.e -> q.x;`, the `p&{ l:` that opens an offer, `if e then`, or a
leaf.  A head the pattern does not read (an expression of several words
or with a group, a keyword where a name goes, a process that talks to
itself, or a malformed head) is read again token by token, one `_TOKEN`
match a token, and that path raises every error in a head.  Any other
token costs one `_TOKEN` match too.  An error is reported at the start
or the end of a token.

`parse_network` raises the first well-formedness violation of each
process (`wellformed.process_violations`) at the start of its definition.
It collects each definition's peers and calls as it reads them and hands
them to the process term, so only a process that names itself or calls
an undefined procedure is walked again.

Both branches of a conditional are complete behaviours; there is no
joined continuation (the optional trailing `continue` keyword is accepted
and ignored).  Pretty-printing is deterministic and round-trips:
parse(pretty(v)) is structurally equal to v.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from string import ascii_letters, digits

from . import cc, sp
from .term import Definitions
from .wellformed import process_violations

KEYWORDS = {"stop", "deadlock", "main", "def", "if", "then", "else", "continue"}

# Whitespace and `#` line comments, read possessively: a comment runs to
# the end of its line, and a pattern that fails never backtracks into a
# gap, as nothing after a gap accepts whitespace or a comment.
_GAP = r"[ \t\r\n]*+(?:#[^\n]*+[ \t\r\n]*+)*+"
# A gap, then one token: a word, or `->`, `||` or any other single
# character; at the end of the input the token is "".
_TOKEN = re.compile(_GAP + r"([A-Za-z0-9_']+|->|\|\||.|)")

# Whole words, by the token rule: a word ends where `[A-Za-z0-9_']` does.
# A name slot takes no keyword, and a guard is not `then`.
_END = r"(?![A-Za-z0-9_'])"
_WORD = r"([A-Za-z0-9_']+)" + _END
_GUARD = rf"(?!then{_END}){_WORD}"
_NAME = rf"(?!(?:{'|'.join(sorted(KEYWORDS))}){_END})([A-Za-z][A-Za-z0-9_]*){_END}"

# A gap, then a whole behaviour head.  The last group that matched
# (`lastindex`) tells which head it is: 1 `stop`, 2 the guard of
# `if e then`, 3 a procedure call, or the peer of 4 `q!<e>;`, 5 `p?x;`,
# 6 `q+l;` or 7 `p&{ l:`, with that group holding e, x, l or l.
_NETWORK_HEAD = re.compile(
    _GAP
    + rf"(?:(stop){_END}|if{_END}{_GAP}{_GUARD}{_GAP}then{_END}|{_NAME}{_GAP}(?:"
    + rf"!{_GAP}<{_GAP}{_WORD}{_GAP}>{_GAP};|\?{_GAP}{_NAME}{_GAP};"
    + rf"|\+{_GAP}{_NAME}{_GAP};|&{_GAP}\{{{_GAP}{_NAME}{_GAP}:|(?!{_GAP}[!?+&])))"
)
# The same for a choreography body: 1 `stop` or `deadlock`, 3 the guard
# of `if p.e then` (p in 2), 4 a procedure call, or the sender of
# `p.e -> q.x;` (e, q, x in 5, 6, 7) or of `p -> q[l];` (q, l in 8, 9),
# where q is not the sender.
_OTHER = rf"(?!\4{_END})"
_BODY_HEAD = re.compile(
    _GAP
    + rf"(?:(stop|deadlock){_END}|if{_END}{_GAP}{_NAME}{_GAP}\.{_GAP}{_GUARD}{_GAP}then{_END}"
    + rf"|{_NAME}{_GAP}(?:\.{_GAP}{_WORD}{_GAP}->{_GAP}{_OTHER}{_NAME}{_GAP}\.{_GAP}{_NAME}{_GAP};"
    + rf"|->{_GAP}{_OTHER}{_NAME}{_GAP}\[{_GAP}{_NAME}{_GAP}\]{_GAP};|(?!{_GAP}(?:\.|->))))"
)
_LETTERS = frozenset(ascii_letters)
_WORD_START = _LETTERS | frozenset(digits + "_'")
_PREFIXES = frozenset("!?+&")  # after a name: it is a peer, not a call


@dataclass(slots=True)
class SourceSpan:
    """1-based line/column plus character offset into the input."""

    line: int
    column: int
    offset: int

    def __repr__(self):
        return f"{self.line}:{self.column}"


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class _Scanner:
    """A text read at the character cursor `pos`, which stands at the end
    of the last token read.  `_m` is the `_TOKEN` match of the last token
    looked at, so that looking twice reads it once.
    `_procedures_and_main` sets `peers` and `calls`: the names that the
    definition being read communicates with and calls."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._m = _TOKEN.match(text, 0)

    def _next(self) -> re.Match:
        """The match of the token after the cursor."""
        m = self._m
        if m.pos != self.pos:
            m = self._m = _TOKEN.match(self.text, self.pos)
        return m

    def peek(self) -> str:
        """The token after the cursor, "" at the end of the input."""
        return self._next()[1]

    def here(self) -> int:
        """Where the token after the cursor starts."""
        return self._next().start(1)

    def error(self, message: str, at=None, found=False):
        """Raise at offset `at` (by default the start of the next token),
        quoting the text there if `found`."""
        text = self.text
        pos = self.here() if at is None else at
        if found:
            message += f", found {text[pos : pos + 12] or 'end of input'!r}"
        line = text.count("\n", 0, pos) + 1
        raise ParseError(message, SourceSpan(line, pos - text.rfind("\n", 0, pos), pos))

    def try_take(self, tok: str) -> bool:
        m = self._next()
        if m[1] != tok:
            return False
        self.pos = m.end()
        return True

    def expect(self, tok: str):
        if not self.try_take(tok):
            self.error(f"expected {tok!r}", found=True)

    def ident(self, what: str, then=None) -> str:
        """Read a name, and then the token `then` if one is given."""
        m = self._next()
        tok = m[1]
        if tok in KEYWORDS:
            self.error(f"expected {what}, found keyword {tok!r}")
        if tok[:1] not in _LETTERS or "'" in tok:
            self.error(f"expected {what}", found=True)
        self.pos = m.end()
        if then:
            self.expect(then)
        return tok

    def expression(self, stop: str) -> str:
        """Read an opaque expression and the `stop` token after it: ">"
        (send argument), "then" (conditional guard) or "->" (communication
        arrow)."""
        start = self.here()
        parts = []
        while (tok := (m := self._next())[1]) != stop:
            if tok[:1] in _WORD_START:
                parts.append(tok)
                self.pos = m.end()
            elif tok == "(":
                parts.append(self._group(m.start(1)))
            elif not tok:
                self.error(f"unterminated expression (expected {stop!r})", start)
            else:
                self.error(f"unexpected character {tok[0]!r} in expression")
        if not parts:
            self.error("empty expression", start)
        self.pos = m.end()
        return "".join(parts)

    def _group(self, a: int) -> str:
        """The group opened at offset `a`, read from the text up to its
        matching `)`, `#` and all; the cursor moves past it."""
        text = self.text
        depth, j = 1, a + 1
        while depth:
            close = text.find(")", j)
            if close < 0:
                self.error("unbalanced parentheses in expression", a)
            depth += text.count("(", j, close) - 1
            j = close + 1
        self.pos = j
        return text[a:j]


# ------------------------------------------------------------------- terms


def _parse_term(sc: _Scanner, head):
    """Parse one behaviour or choreography body, without recursion.

    `head(sc)` reads the tokens that open one constructor and returns
    ("prefix", make) for a prefix whose continuation follows, ("cond",
    make) after `if .. then`, where `make` is the constructor and its
    fields before the subterms, ("offer", (name, label)) after `name&{
    label:`, or ("leaf", term).  Prefixes collect in a list until a leaf
    closes them; conditionals and offers wait on a stack of frames for
    their branches.
    """
    # A frame: [outer prefixes, kind, make or (offer name, label), branches]
    frames = []
    prefixes = []
    while True:
        kind, value = head(sc)
        if kind == "prefix":
            prefixes.append(value)
            continue
        if kind != "leaf":
            frames.append([prefixes, kind, value, []])
            prefixes = []
            continue
        term = value
        while True:
            for make, fields in reversed(prefixes):
                term = make(*fields, term)
            if not frames:
                return term
            frame = frames[-1]
            prefixes, kind, value, branches = frame
            if kind == "cond":
                branches.append(term)
                if len(branches) == 1:
                    sc.expect("else")
                    break
                sc.try_take("continue")  # optional, carries no meaning
                make, fields = value
                term = make(*fields, *branches)
            else:
                name, label = value
                branches.append((label, term))
                if sc.try_take(","):
                    frame[2] = (name, _branch_label(sc, branches))
                    break
                sc.expect("}")
                term = sp.Offer(name, branches)
            frames.pop()
        prefixes = []


def _branch_label(sc: _Scanner, branches) -> str:
    at = sc.pos
    label = sc.ident("label")
    if any(l == label for l, _ in branches):
        sc.error(f"duplicate branch label {label!r}", at)
    sc.expect(":")
    return label


def _procedures_and_main(sc: _Scanner, head):
    """Read `def X { .. } .. main { .. }`, each body by `_parse_term`.

    A choreography procedure that is a bare call is an error here; in a
    network that is for `wellformed.check_guardedness` to judge.
    """
    sc.peers, sc.calls = set(), set()
    procedures = {}
    while sc.try_take("def"):
        x_at = sc.pos
        x = sc.ident("procedure name")
        if x in procedures:
            sc.error(f"duplicate procedure {x!r}", x_at)
        sc.expect("{")
        procedures[x] = body = _parse_term(sc, head)
        sc.expect("}")
        if type(body) is cc.Call:
            message = f"procedure {x!r} is an unguarded call to {body.name!r}"
            sc.error(message, x_at)
    if not sc.try_take("main"):
        sc.error("expected 'def' or 'main'")
    sc.expect("{")
    main = _parse_term(sc, head)
    sc.expect("}")
    return procedures, main


# ---------------------------------------------------------------- networks

_PREFIX_BUILDERS = {4: sp.Send, 5: sp.Receive, 6: sp.Select}


def _behaviour_head(sc: _Scanner):
    """One `_NETWORK_HEAD` match, or the tokens of a head it does not read."""
    m = _NETWORK_HEAD.match(sc.text, sc.pos)
    if m is None:
        return _behaviour_head_by_tokens(sc)
    sc.pos = m.end()
    k = m.lastindex
    if k > 3:
        name = m[3]
        sc.peers.add(name)
        if k == 7:
            return "offer", (name, m[7])
        return "prefix", (_PREFIX_BUILDERS[k], (name, m[k]))
    if k == 3:
        sc.calls.add(m[3])
        return "leaf", sp.Call(m[3])
    if k == 2:
        return "cond", (sp.Cond, (m[2],))
    return "leaf", sp.NIL


def _behaviour_head_by_tokens(sc: _Scanner):
    if sc.try_take("stop"):
        return "leaf", sp.NIL
    if sc.try_take("if"):
        return "cond", (sp.Cond, (sc.expression("then"),))
    name = sc.ident("process or procedure name")
    (sc.peers if sc.peek() in _PREFIXES else sc.calls).add(name)
    if sc.try_take("!"):
        sc.expect("<")
        expr = sc.expression(">")
        sc.expect(";")
        return "prefix", (sp.Send, (name, expr))
    if sc.try_take("?"):
        return "prefix", (sp.Receive, (name, sc.ident("variable name", ";")))
    if sc.try_take("+"):
        return "prefix", (sp.Select, (name, sc.ident("label", ";")))
    if sc.try_take("&"):
        sc.expect("{")
        return "offer", (name, _branch_label(sc, ()))
    return "leaf", sp.Call(name)


def parse_network(text: str) -> sp.Network:
    sc = _Scanner(text)
    processes = {}
    while True:
        at = sc.here()
        name = sc.ident("process name", "{")
        procedures, main = _procedures_and_main(sc, _behaviour_head)
        term = sp.ProcessTerm(procedures, main, (tuple(sc.peers), tuple(sc.calls)))
        sc.expect("}")
        for _, _, description in process_violations(name, term):
            sc.error(description, at)  # the first violation
        if name in processes:
            sc.error(f"duplicate process {name!r}", at)
        processes[name] = term
        if not sc.peek():
            return sp.Network(processes)
        if sc.peek() == "||":
            sc.error("'||' joins programs; use '|' between processes")
        sc.expect("|")


# ------------------------------------------------------------ choreographies


def _body_head(sc: _Scanner):
    """One `_BODY_HEAD` match, or the tokens of a head it does not read."""
    m = _BODY_HEAD.match(sc.text, sc.pos)
    if m is None:
        return _body_head_by_tokens(sc)
    sc.pos = m.end()
    k = m.lastindex
    if k == 7:
        return "prefix", (cc.Com, (m[4], m[5], m[6], m[7]))
    if k == 9:
        return "prefix", (cc.Sel, (m[4], m[8], m[9]))
    if k == 4:
        sc.calls.add(m[4])
        return "leaf", cc.Call(m[4])
    if k == 3:
        return "cond", (cc.Cond, (m[2], m[3]))
    return "leaf", cc.NIL if m[1] == "stop" else cc.DEADLOCK


def _body_head_by_tokens(sc: _Scanner):
    if sc.try_take("stop"):
        return "leaf", cc.NIL
    if sc.try_take("deadlock"):
        return "leaf", cc.DEADLOCK
    if sc.try_take("if"):
        p = sc.ident("process name", ".")
        return "cond", (cc.Cond, (p, sc.expression("then")))
    at = sc.here()
    name = sc.ident("process or procedure name")
    if sc.try_take("."):
        expr = sc.expression("->")
        q = sc.ident("process name", ".")
        var = sc.ident("variable name", ";")
        if name == q:
            sc.error(f"process {name!r} communicates with itself", at)
        return "prefix", (cc.Com, (name, expr, q, var))
    if sc.try_take("->"):
        q = sc.ident("process name", "[")
        label = sc.ident("label", "]")
        sc.expect(";")
        if name == q:
            sc.error(f"process {name!r} selects at itself", at)
        return "prefix", (cc.Sel, (name, q, label))
    sc.calls.add(name)
    return "leaf", cc.Call(name)


def _parse_one_choreography(sc: _Scanner) -> cc.Choreography:
    start = sc.here()
    procedures, main = _procedures_and_main(sc, _body_head)
    for x in sorted(sc.calls - procedures.keys()):
        sc.error(f"call to undefined procedure {x!r}", start)
    return cc.Choreography(procedures, main)


def parse_choreography(text: str) -> cc.Choreography:
    sc = _Scanner(text)
    out = _parse_one_choreography(sc)
    if sc.peek():
        sc.error("trailing input after choreography (use parse_program for '||')")
    return out


def parse_program(text: str) -> cc.Program:
    sc = _Scanner(text)
    components = []
    seen = set()
    while True:
        at = sc.here()
        c = _parse_one_choreography(sc)
        names = cc.choreography_process_names(c)
        if seen & names:
            sc.error(f"components share process names: {sorted(seen & names)}", at)
        seen |= names
        components.append(c)
        if not sc.peek():
            return cc.Program(components)
        sc.expect("||")


# ------------------------------------------------------------------ pretty


def _render(term, pieces: dict) -> str:
    """Print a term without recursion.  `pieces[type(node)](node)` gives
    the text that opens `node` and what follows it: strings and subterms,
    in reverse print order, ready to push on the stack."""
    out = []
    stack = [term]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        else:
            text, rest = pieces[type(item)](item)
            out.append(text)
            stack += rest
    return "".join(out)


def _offer_pieces(b: sp.Offer) -> tuple:
    rest = [" }"]
    for i in range(len(b.branches) - 1, -1, -1):
        label, body = b.branches[i]
        rest += (body, f", {label}: " if i else f"{label}: ")
    return f"{b.frm}&{{ ", rest


_BEHAVIOUR_PIECES = {
    sp.Nil: lambda b: ("stop", ()),
    sp.Call: lambda b: (b.name, ()),
    sp.Send: lambda b: (f"{b.to}!<{b.expr}>; ", (b.cont,)),
    sp.Receive: lambda b: (f"{b.frm}?{b.var}; ", (b.cont,)),
    sp.Select: lambda b: (f"{b.to}+{b.label}; ", (b.cont,)),
    sp.Offer: _offer_pieces,
    sp.Cond: lambda b: (f"if {b.expr} then ", (b.orelse, " else ", b.then)),
}


def pretty_behaviour(b: sp.Behaviour) -> str:
    return _render(b, _BEHAVIOUR_PIECES)


_BODY_PIECES = {
    cc.Nil: lambda c: ("stop", ()),
    cc.Deadlock: lambda c: ("deadlock", ()),
    cc.Call: lambda c: (c.name, ()),
    cc.Com: lambda c: (f"{c.sender}.{c.expr} -> {c.receiver}.{c.var}; ", (c.cont,)),
    cc.Sel: lambda c: (f"{c.sender} -> {c.receiver}[{c.label}]; ", (c.cont,)),
    cc.Cond: lambda c: (f"if {c.process}.{c.expr} then ", (c.orelse, " else ", c.then)),
}


def pretty_body(body: cc.ChoreographyBody) -> str:
    return _render(body, _BODY_PIECES)


def _pretty_definitions(defs: Definitions, pieces) -> str:
    """`def X { .. } .. main { .. }`, procedures in name order."""
    parts = [f"def {x} {{ {_render(b, pieces)} }}" for x, b in defs.procedures.items()]
    parts.append(f"main {{ {_render(defs.main, pieces)} }}")
    return " ".join(parts)


def pretty(value) -> str:
    if isinstance(value, sp.Network):
        return " | ".join(
            f"{p} {{ {_pretty_definitions(t, _BEHAVIOUR_PIECES)} }}"
            for p, t in value.processes.items()
        )
    if isinstance(value, cc.Choreography):
        return _pretty_definitions(value, _BODY_PIECES)
    if isinstance(value, cc.Program):
        return " || ".join(map(pretty, value.components))
    raise TypeError(f"cannot pretty-print {type(value).__name__}")
