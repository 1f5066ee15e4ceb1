"""No function in `src/chorex` may recurse, except those listed below.

Terms and search graphs as deep as the paper's grid (2,100 actions in a
chain) exceed Python's default recursion limit, so every traversal is a
loop.  This test keeps it so: it builds each module's call graph by
function name, nested functions included, and fails on any cycle through
a function outside the allowlist.
"""

import ast
from pathlib import Path

import chorex

SOURCE = Path(chorex.__file__).parent

# (module, function) -> why its recursion is allowed to stay.
ALLOWED = {}


# Methods of the builtin containers: `self.entries.pop()` calls a list's
# `pop`, not a function of the module that happens to share the name.
_BUILTIN_METHODS = set(dir(list)) | set(dir(dict)) | set(dir(set)) | set(dir(str))


def _callee(call: ast.Call):
    """The name a call resolves to by name, or None: `f(..)`, `self.f(..)`
    and `x.f(..)` count; `super().f(..)` and container methods called on
    anything but `self` do not."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if not isinstance(func, ast.Attribute):
        return None
    receiver = func.value
    if isinstance(receiver, ast.Call) and getattr(receiver.func, "id", None) == "super":
        return None
    if func.attr in _BUILTIN_METHODS and getattr(receiver, "id", None) != "self":
        return None
    return func.attr


def _call_graph(tree: ast.Module) -> dict:
    """Function name -> names of the module's functions it calls (see
    `_callee`)."""
    defined = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    graph = {name: set() for name in defined}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            if name in defined:
                graph[func.name].add(name)
    return graph


def _on_cycles(graph: dict) -> set:
    """Functions that can reach themselves."""
    out = set()
    for start in graph:
        seen = set()
        frontier = list(graph[start])
        while frontier:
            name = frontier.pop()
            if name == start:
                out.add(start)
                break
            if name not in seen:
                seen.add(name)
                frontier.extend(graph[name])
    return out


def recursive_functions() -> set:
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        graph = _call_graph(ast.parse(path.read_text()))
        found |= {(path.stem, name) for name in _on_cycles(graph)}
    return found


def test_no_function_recurses_outside_the_allowlist():
    unexpected = sorted(recursive_functions() - ALLOWED.keys())
    assert not unexpected, "recursive: " + ", ".join(f"{m}.{f}" for m, f in unexpected)


def test_allowlist_has_no_stale_entries():
    assert ALLOWED.keys() <= recursive_functions()


def test_the_guard_sees_direct_and_mutual_recursion():
    tree = ast.parse(
        "def a(x): return a(x)\n"
        "class C:\n"
        "    def b(self): return self.c()\n"
        "    def c(self):\n"
        "        def d(): return C().b()\n"
        "        return d()\n"
        "def e(): return a(1)\n"
        "class D(C):\n"
        "    def __init__(self): super().__init__()\n"
        "    def pop(self): return self.items.pop()\n"
    )
    assert _on_cycles(_call_graph(tree)) == {"a", "b", "c", "d"}
