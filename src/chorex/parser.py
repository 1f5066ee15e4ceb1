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
definitions joined by `|`.  `#` starts a line comment.  Expressions are
opaque: runs of identifier-ish characters and/or balanced parenthesized
groups, captured verbatim and never interpreted.

`parse_network` raises the first well-formedness violation of each
process (`wellformed.process_violations`) at the start of its definition.

Both branches of a conditional are complete behaviours; there is no
joined continuation (the optional trailing `continue` keyword is accepted
and ignored).  Pretty-printing is deterministic and round-trips:
parse(pretty(v)) is structurally equal to v.
"""

from __future__ import annotations

from functools import partial

from . import cc, sp
from .term import subterms
from .wellformed import process_violations

KEYWORDS = {"stop", "deadlock", "main", "def", "if", "then", "else", "continue"}

_IDENT_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_IDENT_CHARS = _IDENT_START | set("0123456789_")
_EXPR_CHARS = _IDENT_CHARS | {"'"}


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
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def span(self, pos=None) -> SourceSpan:
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        last_nl = self.text.rfind("\n", 0, pos)
        return SourceSpan(line, pos - last_nl, pos)

    def error(self, message: str, pos=None):
        raise ParseError(message, self.span(pos))

    def skip_ws(self):
        text, n = self.text, len(self.text)
        while self.pos < n:
            ch = text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif ch == "#":
                nl = text.find("\n", self.pos)
                self.pos = n if nl < 0 else nl + 1
            else:
                return

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self, s: str) -> bool:
        self.skip_ws()
        return self.text.startswith(s, self.pos)

    def try_take(self, s: str) -> bool:
        if self.peek(s):
            self.pos += len(s)
            return True
        return False

    def expect(self, s: str):
        if not self.try_take(s):
            got = self.text[self.pos : self.pos + 12] or "end of input"
            self.error(f"expected {s!r}, found {got!r}")

    def peek_word(self):
        """The identifier starting at the cursor, or None."""
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] not in _IDENT_START:
            return None
        j = self.pos + 1
        while j < len(self.text) and self.text[j] in _IDENT_CHARS:
            j += 1
        return self.text[self.pos : j]

    def try_keyword(self, kw: str) -> bool:
        if self.peek_word() == kw:
            self.pos += len(kw)
            return True
        return False

    def ident(self, what="identifier") -> str:
        word = self.peek_word()
        if word is None:
            got = self.text[self.pos : self.pos + 12] or "end of input"
            self.error(f"expected {what}, found {got!r}")
        if word in KEYWORDS:
            self.error(f"expected {what}, found keyword {word!r}")
        self.pos += len(word)
        return word

    def expression(self, stop: str) -> str:
        """Capture an opaque expression.

        `stop` selects the terminator: ">" (send argument), "then"
        (conditional guard) or "->" (communication arrow).  Atoms and
        balanced parenthesized groups are captured verbatim; surrounding
        whitespace is dropped.
        """
        self.skip_ws()
        start = self.pos
        parts = []
        text, n = self.text, len(self.text)
        while True:
            self.skip_ws()
            if stop == "then" and self.peek_word() == "then":
                break
            if self.pos >= n:
                self.error(f"unterminated expression (expected {stop!r})", start)
            ch = text[self.pos]
            if stop == ">" and ch == ">":
                break
            if stop == "->" and ch == "-":
                break
            if ch in _EXPR_CHARS:
                j = self.pos
                while j < n and text[j] in _EXPR_CHARS:
                    j += 1
                parts.append(text[self.pos : j])
                self.pos = j
            elif ch == "(":
                depth, j = 0, self.pos
                while j < n:
                    if text[j] == "(":
                        depth += 1
                    elif text[j] == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                if depth != 0:
                    self.error("unbalanced parentheses in expression", self.pos)
                parts.append(text[self.pos : j + 1])
                self.pos = j + 1
            else:
                self.error(f"unexpected character {ch!r} in expression")
        expr = "".join(parts)
        if not expr:
            self.error("empty expression", start)
        return expr


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
                    if not sc.try_keyword("else"):
                        sc.error("expected 'else'")
                    break
                sc.try_keyword("continue")  # optional, carries no meaning
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
    at = sc.pos
    label = sc.ident("label")
    if any(l == label for l, _ in branches):
        sc.error(f"duplicate branch label {label!r}", at)
    sc.expect(":")
    return label


# ---------------------------------------------------------------- networks


def _behaviour_head(sc: _Scanner):
    if sc.try_keyword("stop"):
        return "leaf", sp.NIL
    if sc.try_keyword("if"):
        expr = sc.expression("then")
        if not sc.try_keyword("then"):
            sc.error("expected 'then'")
        return "cond", partial(sp.Cond, expr)
    name = sc.ident("process or procedure name")
    if sc.try_take("!"):
        sc.expect("<")
        expr = sc.expression(">")
        sc.expect(">")
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


def _parse_process_def(sc: _Scanner):
    sc.skip_ws()
    at = sc.pos
    name = sc.ident("process name")
    sc.expect("{")
    procedures = {}
    while sc.try_keyword("def"):
        x_at = sc.pos
        x = sc.ident("procedure name")
        if x in procedures:
            sc.error(f"duplicate procedure {x!r} in process {name!r}", x_at)
        sc.expect("{")
        procedures[x] = _parse_term(sc, _behaviour_head)
        sc.expect("}")
    if not sc.try_keyword("main"):
        sc.error("expected 'main'")
    sc.expect("{")
    main = _parse_term(sc, _behaviour_head)
    sc.expect("}")
    sc.expect("}")
    term = sp.ProcessTerm(procedures, main)
    for _, _, description in process_violations(name, term):
        sc.error(description, at)  # the first violation, if any
    return name, term, at


def parse_network(text: str) -> sp.Network:
    sc = _Scanner(text)
    processes = {}
    while True:
        name, term, at = _parse_process_def(sc)
        if name in processes:
            sc.error(f"duplicate process {name!r}", at)
        processes[name] = term
        if sc.at_end():
            break
        if sc.peek("||"):
            sc.error("'||' joins programs; use '|' between processes")
        sc.expect("|")
    return sp.Network(processes)


# ------------------------------------------------------------ choreographies


def _body_head(sc: _Scanner):
    if sc.try_keyword("stop"):
        return "leaf", cc.NIL
    if sc.try_keyword("deadlock"):
        return "leaf", cc.DEADLOCK
    if sc.try_keyword("if"):
        p = sc.ident("process name")
        sc.expect(".")
        expr = sc.expression("then")
        if not sc.try_keyword("then"):
            sc.error("expected 'then'")
        return "cond", partial(cc.Cond, p, expr)

    sc.skip_ws()
    at = sc.pos
    name = sc.ident("process or procedure name")
    if sc.try_take("."):
        expr = sc.expression("->")
        sc.expect("->")
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
    procedures = {}
    start = sc.pos
    while sc.try_keyword("def"):
        x_at = sc.pos
        x = sc.ident("procedure name")
        if x in procedures:
            sc.error(f"duplicate procedure {x!r}", x_at)
        sc.expect("{")
        body = _parse_term(sc, _body_head)
        sc.expect("}")
        if isinstance(body, cc.Call):
            sc.error(f"procedure {x!r} is an unguarded call to {body.name!r}", x_at)
        procedures[x] = body
    if not sc.try_keyword("main"):
        sc.error("expected 'def' or 'main'")
    sc.expect("{")
    main = _parse_term(sc, _body_head)
    sc.expect("}")
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
    if not sc.at_end():
        sc.error("trailing input after choreography (use parse_program for '||')")
    return out


def parse_program(text: str) -> cc.Program:
    sc = _Scanner(text)
    components = []
    seen = set()
    while True:
        sc.skip_ws()
        at = sc.pos
        c = _parse_one_choreography(sc)
        names = cc.choreography_process_names(c)
        if seen & names:
            sc.error(f"components share process names: {sorted(seen & names)}", at)
        seen |= names
        components.append(c)
        if sc.at_end():
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


def _pretty_process(name: str, term: sp.ProcessTerm) -> str:
    parts = [name, "{"]
    for x in sorted(term.procedures):
        parts.append(f"def {x} {{ {pretty_behaviour(term.procedures[x])} }}")
    parts.append(f"main {{ {pretty_behaviour(term.main)} }}")
    parts.append("}")
    return " ".join(parts)


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


def _pretty_choreography(c: cc.Choreography) -> str:
    parts = []
    for x in sorted(c.procedures):
        parts.append(f"def {x} {{ {pretty_body(c.procedures[x])} }}")
    parts.append(f"main {{ {pretty_body(c.main)} }}")
    return " ".join(parts)


def pretty(value) -> str:
    if isinstance(value, sp.Network):
        return " | ".join(
            _pretty_process(p, t) for p, t in value.processes.items()
        )
    if isinstance(value, cc.Choreography):
        return _pretty_choreography(value)
    if isinstance(value, cc.Program):
        return " || ".join(_pretty_choreography(c) for c in value.components)
    raise TypeError(f"cannot pretty-print {type(value).__name__}")
