"""Nothing under `src/chorex` but `extraction` may know about threads.

A compile belongs to the thread that built it: `extraction.compiled`
keeps each thread's compile in a thread-local, so no kernel table is
ever written by two threads and nothing needs a lock.  This check fails
if any module of `src/chorex` other than `extraction` imports
`threading`, or if any module builds a `Lock`, `RLock` or `Condition`.

Like `test_engine_surface`, it matches by identifier, so it is a
ratchet, not a proof: a call of any function named `Lock` counts,
whatever module it comes from, and a lock reached under another name
does not.
"""

import ast
from pathlib import Path

import chorex

SOURCE = Path(chorex.__file__).parent
THREADED = {"extraction"}  # the modules that may import `threading`
LOCKS = {"Lock", "RLock", "Condition"}


def _imports_threading(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "threading" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "threading":
            return True
    return False


def _locks_built(tree: ast.Module) -> set:
    """The names in `LOCKS` that a module calls, as a variable or an
    attribute."""
    called = (node.func for node in ast.walk(tree) if isinstance(node, ast.Call))
    names = {f.id if isinstance(f, ast.Name) else getattr(f, "attr", None) for f in called}
    return names & LOCKS


def violations(sources: dict) -> list:
    """What each module of `sources` (module name -> tree) does against
    the rule, in module order."""
    found = []
    for module, tree in sources.items():
        if module not in THREADED and _imports_threading(tree):
            found.append(f"{module} imports threading")
        found += [f"{module} builds a {name}" for name in sorted(_locks_built(tree))]
    return found


def test_only_extraction_knows_about_threads():
    sources = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    assert THREADED <= sources.keys()
    assert violations(sources) == []


def test_the_check_sees_threads_and_locks():
    sources = {
        "extraction": ast.parse("import threading\n_last = threading.local()\n"),
        "a": ast.parse("import threading as t\n"),
        "b": ast.parse("from threading import local\n"),
        "c": ast.parse("from multiprocessing import Lock\nLOCK = Lock()\n"),
        "d": ast.parse("import asyncio\ncv = asyncio.Condition(asyncio.RLock())\n"),
        "extraction2": ast.parse("x = threading.Lock\n"),  # named, not built
    }
    assert violations(sources) == [
        "a imports threading",
        "b imports threading",
        "c builds a Lock",
        "d builds a Condition",
        "d builds a RLock",
    ]
