"""Nothing under `src/chorex` may exist for the tests alone.

Every function, method and class a module of `src/chorex` defines, and
every name its top level assigns, must be named somewhere in
`src/chorex` or `bench/` outside its own definition.  The tests build
what else they need from public pieces (`tests/oracles.py`).  The
allowlist below exempts the public contract and the CLI's entry point,
each for its reason, and dunders, which Python calls or reads itself.

The check matches by identifier: any variable or attribute read of the
same name counts as a use, whatever it refers to, and an f-string's
expressions count too.  So it is a ratchet, not a proof: it catches a
definition whose name appears nowhere else, but not one that shares its
name with a live one (a method `state` among the search's `state`
variables), nor a helper whose only caller is itself unused.
"""

import ast
from collections import Counter
from pathlib import Path

import chorex

SOURCE = Path(chorex.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# name -> why it may be defined with no use in `src/chorex` or `bench/`.
ALLOWED = {
    "extract": "public contract",
    "epp": "public contract",
    "bisimilar": "public contract",
    "parse_choreography": "public contract",
    "parse_network": "public contract",
    "parse_program": "public contract",
    "pretty": "public contract",
    "main": "the CLI's entry point, named by pyproject.toml",
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _named(node: ast.AST) -> Counter:
    """How often `node` reads each identifier, as a variable or an
    attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def _definitions(tree: ast.Module):
    """(name, node) of every function, method and class of a module,
    nested ones included, and of every name its top level assigns."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node


def unused(sources: dict, others) -> set:
    """(module, name) of every definition of `sources` (module name ->
    tree) that no tree of `sources` or `others` names outside the
    definition itself."""
    named = Counter()
    for tree in [*sources.values(), *others]:
        named += _named(tree)
    return {
        (module, name)
        for module, tree in sources.items()
        for name, node in _definitions(tree)
        if named[name] == _named(node)[name]
    }


def _parsed(directory: Path) -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(directory.glob("*.py"))}


def test_every_engine_definition_is_named_outside_the_tests():
    found = unused(_parsed(SOURCE), _parsed(BENCH).values())
    unexpected = sorted((m, n) for m, n in found if n not in ALLOWED and not _dunder(n))
    assert not unexpected, "named by no engine or benchmark code: " + ", ".join(
        f"{m}.{n}" for m, n in unexpected
    )


def test_allowlist_names_engine_definitions():
    defined = {name for tree in _parsed(SOURCE).values() for name, _ in _definitions(tree)}
    assert ALLOWED.keys() <= defined


def test_the_check_sees_unnamed_definitions():
    tree = ast.parse(
        "LIMIT = 3\n"
        "UNUSED: int = 4\n"
        "def a(): return a()\n"
        "def b(c): return f'{c.d}'\n"
        "class C:\n"
        "    def d(self): return LIMIT\n"
        "    def e(self): return self.e\n"
        "def g(): pass\n"
    )
    other = ast.parse("b(C())\n")
    assert unused({"m": tree}, [other]) == {("m", "UNUSED"), ("m", "a"), ("m", "e"), ("m", "g")}
