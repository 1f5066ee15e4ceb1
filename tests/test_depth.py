"""Terms as deep as the paper's grid, in a fresh interpreter.

The `size` row of the paper's grid reaches 2,100 actions in one chain
(size-k42).  Every layer must handle it under Python's default recursion
limit, and extraction must leave the interpreter's global state as it
found it.  Each check runs in a subprocess so that nothing an earlier
test did to the process can help it.
"""

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

from chorex import extraction
from chorex.parser import parse_network

SRC = Path(extraction.__file__).parents[1]
TESTS = Path(__file__).resolve().parent

PIPELINE = """
import sys
from chorex import sp
from chorex.epp import epp
from chorex.equiv import SimBudget, bisimilar
from chorex.extraction import extract
from chorex.parser import parse_network, parse_program, pretty
from chorex.testgen import FuzzParams, GenParams, amend, fuzz, generate, unroll
from chorex.wellformed import check_guardedness, check_well_formed
from inefficiency import inject_inefficiency

limit = sys.getrecursionlimit()


def compound_ids(net):
    from chorex.term import subterms

    return {
        id(node)
        for term in net.processes.values()
        for body in (term.main, *term.procedures.values())
        for node in subterms(body)
        if node.children()
    }


def project(program):
    processes = {}
    for component in program.components:
        processes.update(epp(component).processes)
    return sp.Network(processes)


for defs in (0, 2):
    params = GenParams(size=2100, processes=6, defs=defs, seed=0)
    chor = inject_inefficiency(amend(generate(params)), seed=0)
    net = parse_network(pretty(epp(chor)))
    assert sum(b.size for b in (chor.main, *chor.procedures.values())) > 2100
    assert check_well_formed(net).ok and check_guardedness(net).ok
    result = extract(net)
    assert result.ok, result.failure
    text = pretty(result.program)
    program = parse_program(text)
    assert program == result.program
    back = project(program)
    assert not compound_ids(back) & compound_ids(net)
    if defs == 0:
        assert back == net
    else:
        # Procedures come back under the extraction's own names, so the
        # projection differs from the input; extracting it again is a
        # fixpoint.
        assert pretty(extract(back).program) == text
    assert bisimilar(chor, result.program, SimBudget(max_pairs=3000)).verdict == "yes"
    for d, s in ((1, 0), (0, 1), (2, 2)):
        parse_network(pretty(fuzz(net, FuzzParams(deletions=d, swaps=s, seed=0))))
    parse_network(pretty(unroll(net, seed=0)))
    print(defs, "ok")
assert sys.getrecursionlimit() == limit
"""

# One independent action behind, or ahead of, a long chain of another
# pair's actions: each side must find the other's first action at the far
# end of its chain.
SWAPPED = """
import sys
from chorex import cc
from chorex.equiv import SimBudget, bisimilar

depth, max_pairs = map(int, sys.argv[1:])


def chain(n, body):
    for _ in range(n):
        body = cc.Com("p", "e", "q", "x", body)
    return body


left = cc.Choreography({}, chain(depth, cc.Com("r", "e", "s", "y", cc.NIL)))
right = cc.Choreography({}, cc.Com("r", "e", "s", "y", chain(depth, cc.NIL)))
sim = bisimilar(left, right, SimBudget(max_pairs=max_pairs))
print(sim.verdict, sim.pairs_explored)
"""

STATE = """
import sys, threading
from chorex import extraction
from chorex.parser import parse_network

net = parse_network(
    "p { def X { q!<e>; X } main { X } } | q { def Y { p?x; Y } main { Y } }"
    " | r { def Z { s!<e>; Z } main { Z } } | s { def W { r?y; W } main { W } }"
)
before = sys.getrecursionlimit(), threading.stack_size(), threading.active_count()
for parallel in (True, False):
    assert extraction.extract(net, parallel=parallel).ok
after = sys.getrecursionlimit(), threading.stack_size(), threading.active_count()
assert before == after, (before, after)
print("unchanged")
"""


def _run(script: str, *args) -> str:
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(TESTS)))},
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return done.stdout


def test_the_full_size_row_runs_every_layer_at_the_default_limit():
    assert _run(PIPELINE).split() == ["0", "ok", "2", "ok"]


def test_bisimilarity_finds_an_action_behind_a_long_chain():
    assert _run(SWAPPED, "1500", "10").split() == ["exhausted", "10"]
    assert _run(SWAPPED, "300", "5000").split() == ["yes", "301"]


def test_gen_writes_the_whole_size_row(tmp_path):
    out = _run(
        "import sys; from chorex.cli import main; sys.exit(main(sys.argv[1:]))",
        "gen", "size", "--scale", "0.1", "--out", str(tmp_path),
    )
    assert out.strip() == f"wrote 42 choreographies to {tmp_path}"
    assert (tmp_path / "size-k42-r0.cc").stat().st_size > 30_000


def test_extract_leaves_the_interpreter_state_alone():
    assert _run(STATE).strip() == "unchanged"


def test_the_search_runs_on_the_calling_thread(monkeypatch):
    net = parse_network(
        "p { main { q!<e>; stop } } | q { main { p?x; stop } }"
        " | r { main { s!<e>; stop } } | s { main { r?y; stop } }"
    )
    threads = set()
    enabled_steps = extraction.enabled_steps

    def recording(*args):
        threads.add(threading.get_ident())
        return enabled_steps(*args)

    monkeypatch.setattr(extraction, "enabled_steps", recording)
    before = sys.getrecursionlimit(), threading.stack_size(), threading.active_count()
    for parallel in (True, False):
        result = extraction.extract(net, parallel=parallel)
        assert result.ok
    assert len(extraction.extract(net).components) == 2
    assert threads == {threading.get_ident()}
    after = sys.getrecursionlimit(), threading.stack_size(), threading.active_count()
    assert before == after
