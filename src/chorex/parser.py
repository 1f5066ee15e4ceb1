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

`parse_network` raises the first well-formedness violation of each
process (`wellformed.process_violations`) at the start of its definition.

Both branches of a conditional are complete behaviours; there is no
joined continuation (the optional trailing `continue` keyword is accepted
and ignored).  Pretty-printing is deterministic and round-trips:
parse(pretty(v)) is structurally equal to v.
"""

from __future__ import annotations

import re
from functools import partial

from . import cc, sp
from .term import subterms
from .wellformed import process_violations

KEYWORDS = {"stop", "deadlock", "main", "def", "if", "then", "else", "continue"}

# Whitespace and comments, then one token: a word, or `->`, `||` or any
# other single character.  The token is optional, so the end of the input
# reads as None; a required one would backtrack into a trailing comment
# (possessive quantifiers, which would stop that, need Python 3.11).
_TOKEN = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*(?:([A-Za-z0-9_']+)|(->|\|\||.))?")


class SourceSpan:
    """1-based line/column plus character offset into the input."""

    __slots__ = ("line", "column", "offset")

    def __init__(self, line: int, column: int, offset: int):
        self.line = line
        self.column = column
        self.offset = offset

    def __repr__(self):
        return f"{self.line}:{self.column}"

    def __eq__(self, other):
        return (
            isinstance(other, SourceSpan)
            and (self.line, self.column, self.offset)
            == (other.line, other.column, other.offset)
        )


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


class _Scanner:
    """One token of lookahead: `tok` (None at the end of the input) starts
    at offset `at`, `word` is `tok` if it is a word, and `end` is the
    offset just after the last token taken."""

    def __init__(self, text: str):
        self.text = text
        self._read(0)

    def _read(self, pos: int):
        """Take the input up to `pos` and read the token after it."""
        self.end = pos
        m = _TOKEN.match(self.text, pos)
        self.word, self.tok, self.next = m[1], m[1] or m[2], m.end()
        self.at = self.next - len(self.tok) if self.tok else self.next

    def span(self, pos: int) -> SourceSpan:
        line = self.text.count("\n", 0, pos) + 1
        return SourceSpan(line, pos - self.text.rfind("\n", 0, pos), pos)

    def error(self, message: str, pos=None):
        raise ParseError(message, self.span(self.at if pos is None else pos))

    def _found(self) -> str:
        return repr(self.text[self.at : self.at + 12] or "end of input")

    def take(self):
        tok = self.tok
        self._read(self.next)
        return tok

    def try_take(self, tok: str) -> bool:
        if self.tok != tok:
            return False
        self._read(self.next)
        return True

    def expect(self, tok: str):
        if not self.try_take(tok):
            self.error(f"expected {tok!r}, found {self._found()}")

    def ident(self, what="identifier") -> str:
        word = self.word
        if word in KEYWORDS:
            self.error(f"expected {what}, found keyword {word!r}")
        if not word or not word[0].isalpha() or "'" in word:
            self.error(f"expected {what}, found {self._found()}")
        return self.take()

    def expression(self, stop: str) -> str:
        """Read an opaque expression and the `stop` token after it: ">"
        (send argument), "then" (conditional guard) or "->" (communication
        arrow).  Words and balanced parenthesized groups are kept verbatim,
        a `#` inside parentheses too, and joined without what lies between
        them."""
        start = self.at
        parts = []
        while self.tok != stop:
            if self.word:
                parts.append(self.take())
            elif self.tok == "(":
                text, depth, j = self.text, 0, self.at
                while j < len(text):
                    if text[j] == "(":
                        depth += 1
                    elif text[j] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                if depth != 0:
                    self.error("unbalanced parentheses in expression")
                parts.append(text[self.at : j + 1])
                self._read(j + 1)
            elif self.tok is None:
                self.error(f"unterminated expression (expected {stop!r})", start)
            else:
                self.error(f"unexpected character {self.tok[0]!r} in expression")
        if not parts:
            self.error("empty expression", start)
        self.take()
        return "".join(parts)


# ------------------------------------------------------------------- terms


def _parse_term(sc: _Scanner, head):
    """Parse one behaviour or choreography body, without recursion.

    `head(sc)` reads the tokens that open one constructor and returns
    ("prefix", build) for a prefix whose continuation follows,
    ("cond", build) after `if .. then`, ("offer", (name, label)) after
    `name&{ label:`, or ("leaf", term).  Prefixes collect in a list until
    a leaf closes them; conditionals and offers wait on a stack of frames
    for their branches.
    """
    # A frame: [outer prefixes, kind, build or (offer name, label), branches]
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
            for build in reversed(prefixes):
                term = build(term)
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
                term = value(*branches)
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
    at = sc.end
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
    procedures = {}
    while sc.try_take("def"):
        x_at = sc.end
        x = sc.ident("procedure name")
        if x in procedures:
            sc.error(f"duplicate procedure {x!r}", x_at)
        sc.expect("{")
        procedures[x] = body = _parse_term(sc, head)
        sc.expect("}")
        if type(body) is cc.Call:
            sc.error(f"procedure {x!r} is an unguarded call to {body.name!r}", x_at)
    if not sc.try_take("main"):
        sc.error("expected 'def' or 'main'")
    sc.expect("{")
    main = _parse_term(sc, head)
    sc.expect("}")
    return procedures, main


# ---------------------------------------------------------------- networks


def _behaviour_head(sc: _Scanner):
    if sc.try_take("stop"):
        return "leaf", sp.NIL
    if sc.try_take("if"):
        return "cond", partial(sp.Cond, sc.expression("then"))
    name = sc.ident("process or procedure name")
    if sc.try_take("!"):
        sc.expect("<")
        expr = sc.expression(">")
        sc.expect(";")
        return "prefix", partial(sp.Send, name, expr)
    if sc.try_take("?"):
        var = sc.ident("variable name")
        sc.expect(";")
        return "prefix", partial(sp.Receive, name, var)
    if sc.try_take("+"):
        label = sc.ident("label")
        sc.expect(";")
        return "prefix", partial(sp.Select, name, label)
    if sc.try_take("&"):
        sc.expect("{")
        return "offer", (name, _branch_label(sc, ()))
    return "leaf", sp.Call(name)


def parse_network(text: str) -> sp.Network:
    sc = _Scanner(text)
    processes = {}
    while True:
        at = sc.at
        name = sc.ident("process name")
        sc.expect("{")
        term = sp.ProcessTerm(*_procedures_and_main(sc, _behaviour_head))
        sc.expect("}")
        for _, _, description in process_violations(name, term):
            sc.error(description, at)  # the first violation, if any
        if name in processes:
            sc.error(f"duplicate process {name!r}", at)
        processes[name] = term
        if sc.tok is None:
            return sp.Network(processes)
        if sc.tok == "||":
            sc.error("'||' joins programs; use '|' between processes")
        sc.expect("|")


# ------------------------------------------------------------ choreographies


def _body_head(sc: _Scanner):
    if sc.try_take("stop"):
        return "leaf", cc.NIL
    if sc.try_take("deadlock"):
        return "leaf", cc.DEADLOCK
    if sc.try_take("if"):
        p = sc.ident("process name")
        sc.expect(".")
        return "cond", partial(cc.Cond, p, sc.expression("then"))
    at = sc.at
    name = sc.ident("process or procedure name")
    if sc.try_take("."):
        expr = sc.expression("->")
        q = sc.ident("process name")
        sc.expect(".")
        var = sc.ident("variable name")
        sc.expect(";")
        if name == q:
            sc.error(f"process {name!r} communicates with itself", at)
        return "prefix", partial(cc.Com, name, expr, q, var)
    if sc.try_take("->"):
        q = sc.ident("process name")
        sc.expect("[")
        label = sc.ident("label")
        sc.expect("]")
        sc.expect(";")
        if name == q:
            sc.error(f"process {name!r} selects at itself", at)
        return "prefix", partial(cc.Sel, name, q, label)
    return "leaf", cc.Call(name)


def _parse_one_choreography(sc: _Scanner) -> cc.Choreography:
    start = sc.at
    procedures, main = _procedures_and_main(sc, _body_head)
    calls = {
        node.name
        for body in (main, *procedures.values())
        for node in subterms(body)
        if type(node) is cc.Call
    }
    for x in sorted(calls - procedures.keys()):
        sc.error(f"call to undefined procedure {x!r}", start)
    return cc.Choreography(procedures, main)


def parse_choreography(text: str) -> cc.Choreography:
    sc = _Scanner(text)
    out = _parse_one_choreography(sc)
    if sc.tok is not None:
        sc.error("trailing input after choreography (use parse_program for '||')")
    return out


def parse_program(text: str) -> cc.Program:
    sc = _Scanner(text)
    components = []
    seen = set()
    while True:
        at = sc.at
        c = _parse_one_choreography(sc)
        names = cc.choreography_process_names(c)
        if seen & names:
            sc.error(f"components share process names: {sorted(seen & names)}", at)
        seen |= names
        components.append(c)
        if sc.tok is None:
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


def _pretty_procedures(procedures, main, pieces) -> str:
    """`def X { .. } .. main { .. }`, procedures in name order."""
    parts = [f"def {x} {{ {_render(procedures[x], pieces)} }}" for x in sorted(procedures)]
    parts.append(f"main {{ {_render(main, pieces)} }}")
    return " ".join(parts)


def pretty(value) -> str:
    if isinstance(value, sp.Network):
        return " | ".join(
            f"{p} {{ {_pretty_procedures(t.procedures, t.main, _BEHAVIOUR_PIECES)} }}"
            for p, t in value.processes.items()
        )
    if isinstance(value, cc.Choreography):
        return _pretty_procedures(value.procedures, value.main, _BODY_PIECES)
    if isinstance(value, cc.Program):
        return " || ".join(map(pretty, value.components))
    raise TypeError(f"cannot pretty-print {type(value).__name__}")
