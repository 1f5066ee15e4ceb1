"""Seeded outputs pinned across commits.

For a few points of the paper's grid at generator seed 0 (parameters as
in `bench/workloads.grid_points`), every text the toolkit prints from
them is reduced to a sha256 digest: the amended choreography and its
projection, the extraction under all ten strategies (or the failure
text), the fuzz and unroll variants and their extractions, the
inefficiency injection, and one `to_dot` graph.  A refactor that keeps
the behaviour keeps every digest.  The search counters of the same
extractions are pinned too, and so is one digest over a seeded sweep of
small extractions that includes failing ones.
"""

import hashlib
import random

import pytest

from chorex.cli import main as cli_main
from chorex.epp import epp
from chorex.extraction import extract
from chorex import sp
from chorex.parser import pretty
from chorex.strategies import STRATEGY_NAMES, Strategy
from chorex.testgen import (
    FuzzParams,
    GenParams,
    amend,
    fuzz,
    generate,
    unroll,
)
from chorex.wellformed import check_guardedness, check_well_formed

from inefficiency import inject_inefficiency

POINTS = {
    "size-k5-r0": GenParams(size=250, processes=6, seed=0),
    "processes-k2-r0": GenParams(size=500, processes=10, seed=0),
    "ifs-k2-r0": GenParams(size=50, processes=6, ifs=20, seed=0),
    "ifs-defs-j2k1-r0": GenParams(size=200, processes=5, ifs=2, defs=5, seed=0),
    "procedures-k3-r1": GenParams(size=20, processes=5, ifs=8, defs=3, seed=1),
}

FUZZ_GRID = ((1, 0), (0, 1), (2, 2))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _extraction_text(net, strategy=Strategy()) -> str:
    result = extract(net, strategy=strategy)
    return pretty(result.program) if result.ok else str(result.failure)


def digests(point: str) -> dict:
    params = POINTS[point]
    chor = amend(generate(params))
    net = epp(chor)
    out = {"amend": pretty(chor), "epp": pretty(net)}
    for name in STRATEGY_NAMES:
        out[f"extract:{name}"] = _extraction_text(net, Strategy(name, 0))
    for d, s in FUZZ_GRID:
        variant = fuzz(net, FuzzParams(deletions=d, swaps=s, seed=params.seed))
        out[f"fuzz:d{d}s{s}"] = pretty(variant)
        out[f"extract-fuzz:d{d}s{s}"] = _extraction_text(variant)
    unrolled = unroll(net, seed=params.seed)
    out["unroll"] = pretty(unrolled)
    out["extract-unroll"] = _extraction_text(unrolled)
    out["inject_inefficiency"] = pretty(inject_inefficiency(chor, seed=params.seed))
    return {key: _digest(text) for key, text in out.items()}


def dot_digest() -> str:
    net = epp(amend(generate(POINTS["ifs-k2-r0"])))
    return _digest(extract(net).to_dot())


EXPECTED = {
    "size-k5-r0": {
        "amend": "3e7177bd85975614",
        "epp": "b64765445a8e655d",
        "extract:Random": "88b2b255dedb6d8c",
        "extract:LongestFirst": "d33887f202fabd55",
        "extract:ShortestFirst": "7cca50021c2b0a5a",
        "extract:InteractionsFirst": "4264b97d753786d9",
        "extract:ConditionalsFirst": "4264b97d753786d9",
        "extract:UnmarkedFirst": "92d69b69bcf96327",
        "extract:UnmarkedThenInteractions": "92d69b69bcf96327",
        "extract:UnmarkedThenSelections": "65e4dc6d3b7a7731",
        "extract:UnmarkedThenConditionals": "92d69b69bcf96327",
        "extract:UnmarkedThenRandom": "16830db55f0b9e84",
        "fuzz:d1s0": "8f147a40898753bd",
        "extract-fuzz:d1s0": "5a4a521a3067f66e",
        "fuzz:d0s1": "d0e5013d12fb6c7a",
        "extract-fuzz:d0s1": "5a4a521a3067f66e",
        "fuzz:d2s2": "389313d6a38a06e2",
        "extract-fuzz:d2s2": "b87fea431a74da39",
        "unroll": "b64765445a8e655d",
        "extract-unroll": "4264b97d753786d9",
        "inject_inefficiency": "3e7177bd85975614",
    },
    "processes-k2-r0": {
        "amend": "fb19b972c154417e",
        "epp": "328711923f9053d3",
        "extract:Random": "cc165fdeb6505b1a",
        "extract:LongestFirst": "19a42b9b94b1d4c6",
        "extract:ShortestFirst": "a1cbdafa820d089f",
        "extract:InteractionsFirst": "d5ccad73f6c509d8",
        "extract:ConditionalsFirst": "d5ccad73f6c509d8",
        "extract:UnmarkedFirst": "821fd22b51f8e50b",
        "extract:UnmarkedThenInteractions": "821fd22b51f8e50b",
        "extract:UnmarkedThenSelections": "d923d8326d311507",
        "extract:UnmarkedThenConditionals": "821fd22b51f8e50b",
        "extract:UnmarkedThenRandom": "f927427c84799fe6",
        "fuzz:d1s0": "26d6eef33a57a8df",
        "extract-fuzz:d1s0": "a0fa3cdbb43343da",
        "fuzz:d0s1": "c1ea4ba1e5c0158b",
        "extract-fuzz:d0s1": "a0fa3cdbb43343da",
        "fuzz:d2s2": "a03e9a40afc995e5",
        "extract-fuzz:d2s2": "3a3f660811aa19ec",
        "unroll": "328711923f9053d3",
        "extract-unroll": "d5ccad73f6c509d8",
        "inject_inefficiency": "fb19b972c154417e",
    },
    "ifs-k2-r0": {
        "amend": "6ba1c215b479b5a2",
        "epp": "82d36455ba27d0cb",
        "extract:Random": "48a22f80eb26a89c",
        "extract:LongestFirst": "8805ac5209a4b323",
        "extract:ShortestFirst": "12e42ef5afe43a21",
        "extract:InteractionsFirst": "55b23fab9fd39e44",
        "extract:ConditionalsFirst": "92d8aeb946e37140",
        "extract:UnmarkedFirst": "3234b54cd5b25802",
        "extract:UnmarkedThenInteractions": "857eafc3eaaa071c",
        "extract:UnmarkedThenSelections": "fb3603bc237ee5b4",
        "extract:UnmarkedThenConditionals": "b9c9038ffa657944",
        "extract:UnmarkedThenRandom": "c1bbde6c8dea3ff3",
        "fuzz:d1s0": "a3340f96234007ed",
        "extract-fuzz:d1s0": "4d5100e482a24bcf",
        "fuzz:d0s1": "caf3abdd9082bede",
        "extract-fuzz:d0s1": "8174cbcfdd27bc23",
        "fuzz:d2s2": "bab0b3dd5f9689e0",
        "extract-fuzz:d2s2": "91805bb727121401",
        "unroll": "82d36455ba27d0cb",
        "extract-unroll": "55b23fab9fd39e44",
        "inject_inefficiency": "b74b2874b9a47fb6",
    },
    "ifs-defs-j2k1-r0": {
        "amend": "b45d9b03ca69f5e6",
        "epp": "e37b42297d43da89",
        "extract:Random": "1ac5e064322a4251",
        "extract:LongestFirst": "352ad4efbd555cde",
        "extract:ShortestFirst": "8705693e1be66a09",
        "extract:InteractionsFirst": "f812bcf761ee77fd",
        "extract:ConditionalsFirst": "f812bcf761ee77fd",
        "extract:UnmarkedFirst": "bb4577bf17b2af25",
        "extract:UnmarkedThenInteractions": "bb4577bf17b2af25",
        "extract:UnmarkedThenSelections": "f32c3452a2774471",
        "extract:UnmarkedThenConditionals": "bb4577bf17b2af25",
        "extract:UnmarkedThenRandom": "2f27de4b78445be6",
        "fuzz:d1s0": "d2a1cb2b7795d63a",
        "extract-fuzz:d1s0": "85a94cc95aacd71b",
        "fuzz:d0s1": "ebdbf7d0cae69bf3",
        "extract-fuzz:d0s1": "889fa045bd02058d",
        "fuzz:d2s2": "eebb452f8c5c5535",
        "extract-fuzz:d2s2": "34cd2d4490ab4dda",
        "unroll": "6126f7116a08ed7a",
        "extract-unroll": "f812bcf761ee77fd",
        "inject_inefficiency": "1cf0ffa6a6f2a311",
    },
    "procedures-k3-r1": {
        "amend": "de45a8fbcf8c30f8",
        "epp": "83e343c6b25ded1f",
        "extract:Random": "61c8be4297c29677",
        "extract:LongestFirst": "a2e7e91283ee3b95",
        "extract:ShortestFirst": "af8a961ca6824837",
        "extract:InteractionsFirst": "efd877ab4f39e67e",
        "extract:ConditionalsFirst": "7b7b5d6ca6ecfc64",
        "extract:UnmarkedFirst": "fa3e19edac785701",
        "extract:UnmarkedThenInteractions": "4c8cf0adbb805c8f",
        "extract:UnmarkedThenSelections": "8f6cc7c5018480dd",
        "extract:UnmarkedThenConditionals": "bbe3ff1ef2b586de",
        "extract:UnmarkedThenRandom": "2a966e93e48e9061",
        "fuzz:d1s0": "02e0febb38198efb",
        "extract-fuzz:d1s0": "5fb648dde1d2f52a",
        "fuzz:d0s1": "02e0febb38198efb",
        "extract-fuzz:d0s1": "5fb648dde1d2f52a",
        "fuzz:d2s2": "d923e0f8672c2cda",
        "extract-fuzz:d2s2": "bf9fd242aee484ac",
        "unroll": "cf7c187c9e79e6a4",
        "extract-unroll": "507b2bfae0766619",
        "inject_inefficiency": "baa1eeac63e3cb39",
    },
    "dot": "67d65d595a2a7f4c",
}


@pytest.mark.parametrize("point", sorted(POINTS))
def test_seeded_outputs_are_unchanged(point):
    assert digests(point) == EXPECTED[point]


def test_dot_output_is_unchanged():
    assert dot_digest() == EXPECTED["dot"]


def counters(point: str) -> dict:
    """(nodes created, nodes deleted, rejected loop closures) of every
    extraction `digests` makes of `point`: all ten strategies, then the
    fuzz and unroll variants under the default strategy."""
    params = POINTS[point]
    net = epp(amend(generate(params)))
    nets = {name: (net, Strategy(name, 0)) for name in STRATEGY_NAMES}
    for d, s in FUZZ_GRID:
        variant = fuzz(net, FuzzParams(deletions=d, swaps=s, seed=params.seed))
        nets[f"fuzz:d{d}s{s}"] = (variant, Strategy())
    nets["unroll"] = (unroll(net, seed=params.seed), Strategy())
    out = {}
    for key, (n, strategy) in nets.items():
        result = extract(n, strategy=strategy)
        out[key] = (result.nodes_created, result.nodes_deleted, result.badloops)
    return out


def _same_for_every_strategy(created):
    return {name: (created, 0, 0) for name in STRATEGY_NAMES}


COUNTERS_EXPECTED = {
    "size-k5-r0": {
        **_same_for_every_strategy(251),
        "fuzz:d1s0": (128, 0, 0),
        "fuzz:d0s1": (128, 0, 0),
        "fuzz:d2s2": (103, 0, 0),
        "unroll": (251, 0, 0),
    },
    "processes-k2-r0": {
        **_same_for_every_strategy(501),
        "fuzz:d1s0": (205, 0, 0),
        "fuzz:d0s1": (205, 0, 0),
        "fuzz:d2s2": (134, 0, 0),
        "unroll": (501, 0, 0),
    },
    "ifs-k2-r0": {
        "Random": (253, 0, 0),
        "LongestFirst": (252, 0, 0),
        "ShortestFirst": (243, 0, 0),
        "InteractionsFirst": (229, 0, 0),
        "ConditionalsFirst": (255, 0, 0),
        "UnmarkedFirst": (239, 0, 0),
        "UnmarkedThenInteractions": (229, 0, 0),
        "UnmarkedThenSelections": (229, 0, 0),
        "UnmarkedThenConditionals": (240, 0, 0),
        "UnmarkedThenRandom": (233, 0, 0),
        "fuzz:d1s0": (219, 0, 0),
        "fuzz:d0s1": (221, 0, 0),
        "fuzz:d2s2": (215, 0, 0),
        "unroll": (229, 0, 0),
    },
    "ifs-defs-j2k1-r0": {
        "Random": (356, 0, 0),
        "LongestFirst": (338, 0, 0),
        "ShortestFirst": (338, 0, 0),
        "InteractionsFirst": (333, 0, 0),
        "ConditionalsFirst": (333, 0, 0),
        "UnmarkedFirst": (342, 0, 0),
        "UnmarkedThenInteractions": (342, 0, 0),
        "UnmarkedThenSelections": (342, 0, 0),
        "UnmarkedThenConditionals": (342, 0, 0),
        "UnmarkedThenRandom": (342, 0, 0),
        "fuzz:d1s0": (155, 0, 0),
        "fuzz:d0s1": (333, 0, 0),
        "fuzz:d2s2": (101, 0, 0),
        "unroll": (333, 0, 0),
    },
    "procedures-k3-r1": {
        "Random": (3421, 0, 0),
        "LongestFirst": (1058, 0, 0),
        "ShortestFirst": (947, 0, 0),
        "InteractionsFirst": (788, 0, 0),
        "ConditionalsFirst": (1273, 0, 0),
        "UnmarkedFirst": (1005, 0, 0),
        "UnmarkedThenInteractions": (947, 0, 0),
        "UnmarkedThenSelections": (947, 0, 0),
        "UnmarkedThenConditionals": (1437, 0, 0),
        "UnmarkedThenRandom": (2779, 0, 0),
        "fuzz:d1s0": (768, 0, 0),
        "fuzz:d0s1": (768, 0, 0),
        "fuzz:d2s2": (121, 0, 0),
        "unroll": (830, 0, 0),
    },
}


@pytest.mark.parametrize("point", sorted(POINTS))
def test_search_counters_are_unchanged(point):
    """The search itself, not only its output: a change to the engine that
    keeps every printed program must also keep the nodes it creates and
    deletes and the loop closures it rejects."""
    assert counters(point) == COUNTERS_EXPECTED[point]


def _sweep_networks():
    """Small seeded draws with procedures, each with its well-formed fuzz
    variants; a few of the variants starve a process in every loop."""
    rng = random.Random("undo")
    for seed in range(40):
        size = rng.randint(4, 16)
        net = epp(amend(generate(GenParams(
            size=size,
            processes=rng.randint(2, 4),
            ifs=min(size, rng.randint(0, 4)),
            defs=rng.randint(1, 3),
            seed=seed,
        ))))
        yield net
        for d, s in FUZZ_GRID:
            variant = fuzz(net, FuzzParams(deletions=d, swaps=s, seed=seed))
            if check_well_formed(variant).ok and check_guardedness(variant).ok:
                yield variant


def sweep_digest() -> tuple:
    """Extract every sweep network under all ten strategies, split and
    whole, and digest what each result shows: its counters, program or
    failure text, deadlock remainders and per-component node identities,
    plus the `to_dot` graph of every search that deleted nodes.  Returns
    (extractions, failed, deleting, digest)."""
    h = hashlib.sha256()
    extractions = failed = deleting = 0
    for net in _sweep_networks():
        for name in STRATEGY_NAMES:
            for parallel in (False, True):
                result = extract(net, strategy=Strategy(name, 0), parallel=parallel)
                extractions += 1
                failed += not result.ok
                deleting += result.nodes_deleted > 0
                record = (
                    result.nodes_created,
                    result.nodes_deleted,
                    result.badloops,
                    pretty(result.program) if result.ok else str(result.failure),
                    [pretty(sp.Network(leaf)) for leaf in result.deadlock_remainders],
                    [c.seg.identities for c in result.components],
                    result.to_dot() if result.nodes_deleted else "",
                )
                h.update(repr(record).encode())
    return extractions, failed, deleting, h.hexdigest()[:16]


def test_seeded_sweep_is_unchanged():
    assert sweep_digest() == (3100, 40, 40, "6fb248415cff05ae")


def corpus_digests(command: str, out, monkeypatch, capsys) -> dict:
    """Run `chorex COMMAND ifs --out OUT --scale 0.1` at the default seed
    and digest every file it writes, plus its stdout."""
    monkeypatch.delenv("CHOREX_SEED", raising=False)
    assert cli_main([command, "ifs", "--out", str(out), "--scale", "0.1"]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    files = {p.name: _digest(p.read_text()) for p in sorted(out.iterdir())}
    return {"stdout": _digest(stdout), **files}


CORPUS_EXPECTED = {
    "gen": {
        "stdout": "641d2e2290ffd303",
        "ifs-k1-r0.cc": "92660d5aaa88cd82",
        "ifs-k2-r0.cc": "f9657ac056c196c9",
        "ifs-k3-r0.cc": "44512a647c3c0dc2",
        "ifs-k4-r0.cc": "cb0db775713826d7",
        "manifest.json": "a206920000f24001",
    },
    "fuzz": {
        "stdout": "838ca579032c7a50",
        "ifs-k1-r0-d0s1.sp": "bf5f87b541f16b5f",
        "ifs-k1-r0-d1s0.sp": "c45bb2900a4cd2db",
        "ifs-k1-r0-d2s2.sp": "3a740723fcef87ad",
        "ifs-k2-r0-d0s1.sp": "4b619a3219b5d54d",
        "ifs-k2-r0-d1s0.sp": "295f2539305ba782",
        "ifs-k2-r0-d2s2.sp": "a18b4faa0c9e08ea",
        "ifs-k3-r0-d0s1.sp": "e9909a0d4ae69ed3",
        "ifs-k3-r0-d1s0.sp": "e9909a0d4ae69ed3",
        "ifs-k3-r0-d2s2.sp": "67a32fa130cfa43c",
        "ifs-k4-r0-d0s1.sp": "18a8a89ceb48a2ab",
        "ifs-k4-r0-d1s0.sp": "084b32fa66e06192",
        "ifs-k4-r0-d2s2.sp": "e7651adfc4c8efb0",
        "manifest.json": "0a93e013073055b0",
    },
    "unroll": {
        "stdout": "ea1243e518586ed3",
        "ifs-k1-r0-unrolled.sp": "844385b552df1644",
        "ifs-k2-r0-unrolled.sp": "4a8bf42ad25f5b5a",
        "ifs-k3-r0-unrolled.sp": "69a81a063ef06df5",
        "ifs-k4-r0-unrolled.sp": "18a8a89ceb48a2ab",
        "manifest.json": "34e6dd96434f4570",
    },
}


@pytest.mark.parametrize("command", ["gen", "fuzz", "unroll"])
def test_corpus_commands_write_the_same_files(command, tmp_path, monkeypatch, capsys):
    got = corpus_digests(command, tmp_path, monkeypatch, capsys)
    assert got == CORPUS_EXPECTED[command]


# Generator draws alone, before amendment: ifs-defs j0k2-r0 rejects every
# independent draw and takes the connected fallback; j1k2-r0 and j5k3-r0
# are accepted after hundreds of rejected draws.
GENERATE_POINTS = {
    "ifs-defs-j0k2-r0": GenParams(size=200, processes=5, ifs=0, defs=10, seed=0),
    "ifs-defs-j1k2-r0": GenParams(size=200, processes=5, ifs=1, defs=10, seed=0),
    "ifs-defs-j5k3-r0": GenParams(size=200, processes=5, ifs=5, defs=15, seed=0),
    "ifs-defs-j0k3-r1": GenParams(size=200, processes=5, ifs=0, defs=15, seed=1),
    "size-k42-r0": GenParams(size=2100, processes=6, seed=0),
    "procedures-k15-r0": GenParams(size=20, processes=5, ifs=8, defs=15, seed=0),
}

GENERATE_EXPECTED = {
    "ifs-defs-j0k2-r0": "b84f5b4a707dfec9",
    "ifs-defs-j1k2-r0": "332962dc926633c0",
    "ifs-defs-j5k3-r0": "5850e6b36138f433",
    "ifs-defs-j0k3-r1": "da6fa19415cd66d7",
    "size-k42-r0": "97e99aa933f00ebe",
    "procedures-k15-r0": "d111807de1b9347c",
}


@pytest.mark.parametrize("point", sorted(GENERATE_POINTS))
def test_generated_choreographies_are_unchanged(point):
    assert _digest(pretty(generate(GENERATE_POINTS[point]))) == GENERATE_EXPECTED[point]
