"""Shared fixtures: small hand-written networks and choreographies used
across the test modules.  The benchmark's workload definitions
(`bench/workloads.py`) import as `workloads`.
"""

import sys
from pathlib import Path

import pytest

from chorex.parser import parse_choreography, parse_network

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

# Two independent send/receive pairs.
N1_TEXT = """
p { main { q!<e>; stop } } |
q { main { p?x; stop } } |
r { main { s!<e'>; stop } } |
s { main { r?y; stop } }
"""

# One conditional driving a selection either way.
N2_TEXT = """
p { main { if e then q+left; q!<1>; stop else q+right; q?x; stop } } |
q { main { p&{ left: p?y; stop, right: p!<2>; stop } } }
"""

# Both branches of r's conditional leave someone stuck.
N3_TEXT = """
p { main { q!<1>; r!<2>; stop } } |
q { main { p?x; r!<3>; stop } } |
r { main { if e then p?y; stop else q?y; stop } }
"""

# Choreographies describing the three networks above.
N1_CHOR_TEXT = "main { p.e -> q.x; r.e' -> s.y; stop }"
N2_CHOR_TEXT = (
    "main { if p.e then p -> q[left]; p.1 -> q.y; stop"
    " else p -> q[right]; q.2 -> p.x; stop }"
)
N3_CHOR_TEXT = (
    "main { p.1 -> q.x; if r.e then p.2 -> r.y; deadlock"
    " else q.3 -> r.y; deadlock }"
)

# Single sign-on: user, authenticator, witness.
SIGNON_NET_TEXT = """
u { def X { a!<cred>; a&{ ok: w?t; stop, ko: X } } main { X } } |
a { def X { u?c; if check(c) then u+ok; w+ok; stop else u+ko; w+ko; X } main { X } } |
w { def X { a&{ ok: u!<t>; stop, ko: X } } main { X } }
"""

SIGNON_CHOR_TEXT = """
def X {
  u.cred -> a.c;
  if a.check(c)
  then a -> u[ok]; a -> w[ok]; w.t -> u.t; stop
  else a -> u[ko]; a -> w[ko]; X
}
main { X }
"""

# Two disjoint loops; a valid graph must let both make progress.
TWO_LOOPS_TEXT = """
p { def X { q!<e>; X } main { X } } |
q { def Y { p?x; Y } main { Y } } |
r { def Z { s!<e'>; Z } main { Z } } |
s { def W { r?y; W } main { W } }
"""

TWO_LOOPS_VARIANT_A = "def X { p.e -> q.x; r.e' -> s.y; X } main { X }"
TWO_LOOPS_VARIANT_B = "def X { r.e' -> s.y; p.e -> q.x; X } main { X }"
# Variant B with its loop body written out twice: a bisimilarity check
# against variant A explores two pairs.
TWO_LOOPS_VARIANT_B_TWICE = (
    "def X { r.e' -> s.y; p.e -> q.x; r.e' -> s.y; p.e -> q.x; X } main { X }"
)

# r can never receive: no loop lets every process run.
LIVELOCK_TRIPLE_TEXT = """
p { def X { q!<e>; X } main { X } } |
q { def Y { p?x; Y } main { Y } } |
r { def Z { p?y; Z } main { Z } }
"""

# p loops on a conditional beside a finite exchange between r and s.
# Tried first, p's conditional reaches its else state a second time before
# r and s have acted: that closure would starve them and is rejected, and
# the then branch built under it is deleted.  As one component, the only
# fixture whose successful search deletes nodes.
UNDO_TEXT = (
    "p { def X { if c then stop else X } main { X } } |"
    " r { main { s!<v>; stop } } | s { main { r?y; stop } }"
)

# A loop between p and q beside a finite exchange between r and s.
LOOP_PLUS_FINITE_TEXT = """
p { def X { q!<e>; X } main { X } } |
q { def Y { p?x; Y } main { Y } } |
r { main { s!<e'>; stop } } |
s { main { r?y; stop } }
"""

# Repeated exchange with a ranker deciding when to stop; r keeps serving.
RANKED_LOOP_NET_TEXT = """
p { def X { q!<e>; q&{ left: q!<e>; X, right: stop } } main { q!<e>; X } } |
q { def Y { p?x; p?x; r?y; if (x=y) then p+left; Y else p+right; stop } main { Y } } |
r { def Z { q!<e'>; Z } main { Z } }
"""

RANKED_LOOP_CHOR_TEXT = """
def X {
  p.e -> q.x; p.e -> q.x; r.e' -> q.y;
  if q.(x=y) then q -> p[left]; X else q -> p[right]; stop
}
main { X }
"""

# Procedure whose body inlines one loop iteration into main.
SHIFTED_LOOP_NET_TEXT = """
p { def X { q!<e>; q!<e>; X } main { q!<e>; X } } |
q { def Y { p?x; p?x; Y } main { p?x; Y } }
"""

SHIFTED_LOOP_CHOR_TEXT = "def X { p.e -> q.x; p.e -> q.x; X } main { X }"


@pytest.fixture
def n1():
    return parse_network(N1_TEXT)


@pytest.fixture
def n2():
    return parse_network(N2_TEXT)


@pytest.fixture
def n3():
    return parse_network(N3_TEXT)


@pytest.fixture
def signon_net():
    return parse_network(SIGNON_NET_TEXT)


@pytest.fixture
def signon_chor():
    return parse_choreography(SIGNON_CHOR_TEXT)


@pytest.fixture
def two_loops():
    return parse_network(TWO_LOOPS_TEXT)


@pytest.fixture
def livelock_triple():
    return parse_network(LIVELOCK_TRIPLE_TEXT)


@pytest.fixture
def ranked_loop_net():
    return parse_network(RANKED_LOOP_NET_TEXT)
