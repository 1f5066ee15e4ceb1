"""Command-line front end.

Subcommands:

  extract FILE    extract a choreography from a network file
  project FILE    project a choreography file to a network
  equiv A B       bisimilarity verdict for two choreography files
  gen             materialize a generated-choreography corpus
  fuzz            materialize fuzzed-network variants of a corpus
  unroll          materialize unrolled-network variants of a corpus
  bench           run extraction across all strategies, emit CSV

Exit codes: 0 success; 1 extraction/projection/verdict failure
(no valid graph, merge error, verdict "no", or a deadlocked extraction
under --strict); 2 unreadable input, an output path that cannot be
written, parse error, check failure, or a bad option or CHOREX_SEED; 3
equivalence check exhausted its budget.

The commands that take --seed default it to the CHOREX_SEED environment
variable, an integer, when set; the others do not read it.  Identical
inputs, flags, and seed give byte-identical stdout.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import functools
import json
import math
import multiprocessing
import os
import sys
import time
from pathlib import Path

from .cc import Program, choreography_process_names
from .epp import MergeError, epp
from .equiv import SimBudget, bisimilar
from .extraction import compiled, extract
from .parser import (
    ParseError,
    parse_network,
    parse_program,
    pretty,
    pretty_behaviour,
)
from .sp import Network
from .strategies import STRATEGY_NAMES, Strategy
from .testgen import FuzzParams, GenParams, amend, fuzz, generate, unroll
from .wellformed import check_guardedness


def _default_seed() -> int:
    text = os.environ.get("CHOREX_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise SystemExit(_exit_with(f"CHOREX_SEED must be an integer, not {text!r}", 2)) from None


def _err(msg: str):
    print(msg, file=sys.stderr)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise SystemExit(_exit_with(f"cannot read {path}: {exc}", 2))


@contextlib.contextmanager
def _writing(path):
    """Exit 2, with no traceback, if the output to `path` fails."""
    try:
        yield
    except OSError as exc:
        raise SystemExit(_exit_with(f"cannot write {path}: {exc}", 2))


def _write(path, text: str) -> None:
    with _writing(path):
        Path(path).write_text(text, newline="")  # as given, on every platform


def _exit_with(msg: str, code: int) -> int:
    _err(msg)
    return code


def _parse_or_exit(parse, text: str, path: str):
    try:
        return parse(text)
    except ParseError as exc:
        span = exc.span
        where = f"{path}:{span.line}:{span.column}" if span else path
        raise SystemExit(_exit_with(f"{where}: {exc.message}", 2))


def _check_or_exit(net: Network) -> None:
    # `parse_network` has already rejected ill-formed networks.
    problems = check_guardedness(net).violations
    if problems:
        for kind, where, description in problems:
            _err(f"{kind} in {where}: {description}")
        raise SystemExit(2)


# --- extract -------------------------------------------------------------


def cmd_extract(args) -> int:
    net = _parse_or_exit(parse_network, _read(args.file), args.file)
    _check_or_exit(net)
    services = frozenset(s for s in (args.services or "").split(",") if s)
    unknown = services - set(net.names())
    if unknown:
        return _exit_with(f"unknown service process(es): {', '.join(sorted(unknown))}", 2)
    strategy = Strategy(args.strategy, args.seed)
    started = time.perf_counter()
    result = extract(net, services=services, strategy=strategy, parallel=not args.no_parallel)
    wall_millis = (time.perf_counter() - started) * 1000.0
    if args.dot:
        _write(args.dot, result.to_dot())
    if args.stats:
        stats = {
            "wallMillis": wall_millis,
            "nodesCreated": result.nodes_created,
            "nodesDeleted": result.nodes_deleted,
            "badloops": result.badloops,
            "components": len(result.components),
            "strategy": strategy.name,
            "seed": strategy.seed,
        }
        _write(args.stats, json.dumps(stats, indent=2) + "\n")
    if not result.ok:
        _err(str(result.failure))
        return 1
    print(pretty(result.program))
    remainders = result.deadlock_remainders
    if remainders:
        _err("extraction contains deadlocks; stuck processes:")
        for leaf in remainders:
            for p in sorted(leaf):
                _err(f"  {p}: {pretty_behaviour(leaf[p].head_behaviour())}")
        if args.strict:
            return 1
    return 0


# --- project -------------------------------------------------------------


def _project_program(prog: Program) -> dict:
    terms = {}
    for component in prog.components:
        # A component that mentions no process projects to nothing.
        if choreography_process_names(component):
            terms.update(epp(component).processes)
    return terms


def cmd_project(args) -> int:
    prog = _parse_or_exit(parse_program, _read(args.file), args.file)
    try:
        terms = _project_program(prog)
    except MergeError as exc:
        _err(f"not projectable: merge failed at {exc.location}")
        return 1
    except ValueError as exc:  # a deadlock term
        _err(f"not projectable: {exc}")
        return 1
    if terms:
        print(pretty(Network(terms)))
    return 0


# --- equiv ---------------------------------------------------------------


def cmd_equiv(args) -> int:
    a = _parse_or_exit(parse_program, _read(args.a), args.a)
    b = _parse_or_exit(parse_program, _read(args.b), args.b)
    budget = SimBudget(max_pairs=args.budget, max_millis=args.millis)
    result = bisimilar(a, b, budget)
    print(json.dumps(result.to_json()))
    return {"yes": 0, "no": 1, "exhausted": 3}[result.verdict]


# --- corpus commands -----------------------------------------------------

# Parameter grid rows: each row yields (point-name, GenParams template).
# Repetitions per point scale with --scale (10 at scale 1).

_ROWS = ("size", "processes", "ifs", "ifs-defs", "procedures")


def _grid(rows):
    for row in rows:
        if row == "size":
            for k in range(1, 43):
                yield f"size-k{k}", dict(size=50 * k, processes=6, ifs=0, defs=0)
        elif row == "processes":
            for k in range(1, 21):
                yield f"processes-k{k}", dict(size=500, processes=5 * k, ifs=0, defs=0)
        elif row == "ifs":
            for k in range(1, 5):
                yield f"ifs-k{k}", dict(size=50, processes=6, ifs=10 * k, defs=0)
        elif row == "ifs-defs":
            for j in range(0, 6):
                for k in range(0, 4):
                    yield f"ifs-defs-j{j}k{k}", dict(size=200, processes=5, ifs=j, defs=5 * k)
        elif row == "procedures":
            for k in range(1, 16):
                yield f"procedures-k{k}", dict(size=20, processes=5, ifs=8, defs=k)


def _corpus(rows, scale, seed):
    reps = max(1, round(10 * scale))
    for point, params in _grid(rows):
        for rep in range(reps):
            test_id = f"{point}-r{rep}"
            yield test_id, GenParams(seed=seed * 1_000_003 + rep, **params)


def _rows_arg(args):
    """The grid rows `args` names, checked before any work is done."""
    if not args.rows:
        return _ROWS
    rows = tuple(r.strip() for r in args.rows.split(",") if r.strip())
    for row in rows:
        if row not in _ROWS:
            raise SystemExit(_exit_with(f"unknown parameter row: {row}", 2))
    return rows


def _outdir(args) -> Path:
    out = Path(args.out)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    return out


def _gen_files(test_id, params):
    sizes = {
        "size": params.size,
        "processes": params.processes,
        "ifs": params.ifs,
        "defs": params.defs,
    }
    yield test_id, amend(generate(params)), {"params": sizes}, "extractable"


_FUZZ_GRID = ((0, 1), (1, 0), (2, 2))


def _fuzz_files(test_id, params):
    net = epp(amend(generate(params)))
    for d, s in _FUZZ_GRID:
        variant = fuzz(net, FuzzParams(deletions=d, swaps=s, seed=params.seed))
        verdict = "unextractable-likely" if d else "unknown"
        yield f"{test_id}-d{d}s{s}", variant, {"deletions": d, "swaps": s}, verdict


def _unroll_files(test_id, params):
    net = unroll(epp(amend(generate(params))), seed=params.seed)
    yield f"{test_id}-unrolled", net, {}, "extractable"


def _write_corpus(files, suffix: str, what: str, args) -> int:
    """Write the corpus for `args` and its manifest.json.

    `files(test_id, params)` yields one (file id, term, manifest fields,
    expected verdict) per file of a corpus point; the term is written to
    `<file id><suffix>` and listed in the manifest, in order.
    """
    corpus = _corpus(_rows_arg(args), args.scale, args.seed)
    out = _outdir(args)
    entries = []
    for test_id, params in corpus:
        for file_id, term, fields, verdict in files(test_id, params):
            name = file_id + suffix
            _write(out / name, pretty(term) + "\n")
            entries.append(
                {
                    "testId": file_id,
                    "file": name,
                    **fields,
                    "seed": params.seed,
                    "expectedVerdict": verdict,
                }
            )
    _write(out / "manifest.json", json.dumps(entries, indent=2) + "\n")
    print(f"wrote {len(entries)} {what} to {out}")
    return 0


cmd_gen = functools.partial(_write_corpus, _gen_files, ".cc", "choreographies")
cmd_fuzz = functools.partial(_write_corpus, _fuzz_files, ".sp", "fuzzed networks")
cmd_unroll = functools.partial(_write_corpus, _unroll_files, ".sp", "unrolled networks")


_CSV_HEADER = "testId,size,processes,ifs,defs,strategy,timeMs,nodes,badloops,verdict"


@functools.lru_cache(maxsize=1)
def _bench_network(params: GenParams) -> Network:
    return epp(amend(generate(params)))


def _bench_one(test_id, params, strategy_name):
    """One CSV row.  Runs in a worker process under --jobs, so it builds its
    own network: terms cache string hashes, which differ between processes,
    so a network must not be pickled across.  The network is compiled
    before the timer starts, once for all its rows (`compiled`), so no
    strategy's time holds the compile."""
    net = _bench_network(params)
    compiled(net)
    strategy = Strategy(strategy_name, params.seed)
    started = time.perf_counter()
    result = extract(net, strategy=strategy)
    elapsed = (time.perf_counter() - started) * 1000.0
    if not result.ok:
        verdict = "fail"
    elif result.deadlock_remainders:
        verdict = "deadlock"
    else:
        verdict = "ok"
    return [
        test_id,
        params.size,
        params.processes,
        params.ifs,
        params.defs,
        strategy_name,
        f"{elapsed:.3f}",
        result.nodes_created - result.nodes_deleted,
        result.badloops,
        verdict,
    ]


def cmd_bench(args) -> int:
    corpus = _corpus(_rows_arg(args), args.scale, args.seed)
    path = _outdir(args) / "bench.csv"
    jobs = [
        (test_id, params, name)
        for test_id, params in corpus
        for name in STRATEGY_NAMES
    ]
    # Opened before any extraction, so an unwritable path costs no work.
    with _writing(path):
        stream = open(path, "w", newline="")  # csv ends its rows itself
    with stream:
        if args.jobs > 1:
            # Worker processes, not threads: a job timed on a thread would
            # count the time it waits for the interpreter lock.  Spawned,
            # not forked: a worker starts from a fresh import, with none of
            # the caller's state, the same on every platform.
            spawn = multiprocessing.get_context("spawn")
            with concurrent.futures.ProcessPoolExecutor(args.jobs, spawn) as pool:
                futures = [pool.submit(_bench_one, *j) for j in jobs]
                rows = [f.result() for f in futures]
        else:
            rows = [_bench_one(*j) for j in jobs]
        with _writing(path):
            writer = csv.writer(stream)
            writer.writerow(_CSV_HEADER.split(","))
            writer.writerows(rows)
            stream.flush()
    print(f"wrote {len(rows)} rows to {path}")
    return 0


# --- argument parsing ----------------------------------------------------


def _positive(text: str, kind, noun: str, finite=False):
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not value > 0 or finite and math.isinf(value):  # nan too
        raise argparse.ArgumentTypeError(f"must be a positive {noun}, not {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _positive(text, int, "integer")


def _positive_float(text: str) -> float:
    return _positive(text, float, "number")


def _scale(text: str) -> float:
    return _positive(text, float, "finite number", finite=True)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="chorex", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract a choreography from a network")
    p.add_argument("file")
    p.add_argument("--strategy", default="InteractionsFirst", choices=STRATEGY_NAMES)
    p.add_argument("--services", default="", metavar="p,q")
    p.add_argument("--seed", type=int)
    p.add_argument("--no-parallel", action="store_true")
    p.add_argument("--dot", metavar="OUT.dot")
    p.add_argument("--stats", metavar="OUT.json")
    p.add_argument("--strict", action="store_true", help="treat deadlocks as failure")
    p.set_defaults(run=cmd_extract)

    p = sub.add_parser("project", help="project a choreography to a network")
    p.add_argument("file")
    p.set_defaults(run=cmd_project)

    p = sub.add_parser("equiv", help="check two choreographies for bisimilarity")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--budget", type=_positive_int, default=100_000, help="max pairs")
    p.add_argument("--millis", type=_positive_float, default=None, help="max wall time")
    p.set_defaults(run=cmd_equiv)

    for name, runner, blurb in (
        ("gen", cmd_gen, "write a generated corpus"),
        ("fuzz", cmd_fuzz, "write fuzzed variants of a corpus"),
        ("unroll", cmd_unroll, "write unrolled variants of a corpus"),
        ("bench", cmd_bench, "extract a corpus under every strategy"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("rows", nargs="?", default="", help=f"subset of {','.join(_ROWS)}")
        p.add_argument("--out", required=True)
        p.add_argument("--scale", type=_scale, default=1.0)
        p.add_argument("--seed", type=int)
        if name == "bench":
            p.add_argument("--jobs", type=_positive_int, default=1)
        p.set_defaults(run=runner)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if getattr(args, "seed", 0) is None:  # a command with --seed, not given
        args.seed = _default_seed()
    try:
        return args.run(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
