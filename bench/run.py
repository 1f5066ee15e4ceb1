"""Benchmark for chorex: the paper's grid, the round trip and the strategy
variants.

One workload, in this process:

    python3 bench/run.py --workload grid --seed 0 --seconds 5 --trace 0

All three, each in a fresh process, ten times over, results kept for
`compare.py`:

    python3 bench/run.py --workload all --runs 10 --out bench/out/a.json

A run builds the workload's inputs (several times, to time set-up), then
issues ops one at a time from this thread, in whole rounds of the same
ops, until `--seconds` have passed and at least 100 ops were attempted.
The inputs are fixed: `--seed` is recorded, and changes nothing.
Times are CPU times scaled to a reference machine speed, which a probe
run between the ops measures (see `normalised`).
With `--trace 0` it reports the end-to-end metrics.  With `--trace 1` it
runs one round untraced, with every check, and one round traced, whose
outputs need only match the first round's; it reports the per-layer
metrics of the traced round's ops and of set-up's `testgen` calls, plus
the tracing overhead; the spans go to bench/out/.  The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("grid", "roundtrip", "variants")
# A run attempts whole rounds until `--seconds` have passed and it holds
# MIN_OPS ops (100 gives op_ms_p90 ten ops beyond it), and at least
# MIN_ROUNDS rounds: the grid times each op twice, as one timing of its
# few long ops varies by up to 30% on a shared machine.
MIN_OPS = 100
MIN_ROUNDS = {"grid": 2, "roundtrip": 1, "variants": 1}
SETUP_REPS = {"grid": 2, "roundtrip": 15, "variants": 9}
# Op and set-up times are CPU time of the whole process, all threads: on a
# shared machine, time the process waits for a CPU inflates wall time by
# up to 2x from one minute to the next, and CPU time leaves it out.
CLOCK = time.process_time
# CPU time still varies by 10-25% from one run to the next on a shared
# machine, as its speed drifts over seconds and minutes.  So after each op
# (and each set-up call) the run spends about PROBE_SHARE of the op's time
# on probe slices of fixed work, and scales the op's time by how fast the
# probes around it ran: a slice that took 2 * PROBE_SLICE_S halves it.
PROBE_SLICE = 48  # `_probe_kernel` iterations in one slice
PROBE_SLICE_S = 0.0005  # seconds one slice takes at the reference speed
PROBE_SHARE = 0.15
SPEED_WINDOW_S = 0.25  # CPU seconds before and after an op whose probes count


def _import_chorex():
    """Import chorex from this checkout's sources, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "chorex" / "__init__.py").is_file():
        sys.exit(f"bench: no chorex sources under {src}")
    sys.path.insert(0, str(src))
    import chorex

    if Path(chorex.__file__).resolve().parent != (src / "chorex").resolve():
        sys.exit(f"bench: imported chorex from {chorex.__file__}, not {src}")


def _probe_kernel(n: int = 2_000) -> int:
    """Fixed interpreter work (tuples, hashing, dicts, matching) that does
    not touch chorex; `n` iterations."""
    total, seen = 0, {}
    for i in range(n):
        node = ("leaf", i % 17)
        for d in range(12):
            node = ("pair", node, ("leaf", (i * d) % 50)) if (i + d) % 3 else ("wrap", node)
        seen[hash(node) % 1024] = node
        stack = [node]
        while stack:
            match stack.pop():
                case ("pair", a, b):
                    stack += (a, b)
                case ("wrap", a):
                    stack.append(a)
                case ("leaf", v):
                    total += v
    return total


def pin_to_fastest_cpu():
    """Run the rest of this process on the CPU that runs `_probe_kernel`
    fastest.  On a shared machine one CPU can be 1.7x slower than another
    for minutes at a time; a run that migrates between them, or lands on
    the slow one, reads that as a change in chorex."""
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = sorted(os.sched_getaffinity(0))
    speed = {}
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        times = []
        for _ in range(5):
            started = CLOCK()
            _probe_kernel()
            times.append(CLOCK() - started)
        speed[cpu] = statistics.median(times)
    os.sched_setaffinity(0, {min(allowed, key=speed.get)})


def probe(work_seconds: float) -> tuple:
    """Run probe slices worth about PROBE_SHARE of `work_seconds`, at least
    one; return (their CPU seconds, their count).  The collector is off, so
    that no collection the measured code owes lands in a probe."""
    slices = max(1, round(PROBE_SHARE * work_seconds / PROBE_SLICE_S))
    enabled = gc.isenabled()
    gc.disable()
    started = CLOCK()
    for _ in range(slices):
        _probe_kernel(PROBE_SLICE)
    elapsed = CLOCK() - started
    if enabled:
        gc.enable()
    return elapsed, slices


def normalised(samples: list) -> list:
    """Seconds at the reference speed, from (start, seconds, probe seconds,
    probe slices) per op in run order, where each op's probe starts as the
    op ends.  An op's speed is that of the probes that start from
    SPEED_WINDOW_S before it to SPEED_WINDOW_S after it, and at least of
    the probes right before and right after it."""
    ends = [start + seconds for start, seconds, _, _ in samples]
    out = []
    for i, (start, seconds, _, _) in enumerate(samples):
        lo = max(0, min(i - 1, bisect.bisect_left(ends, start - SPEED_WINDOW_S)))
        hi = max(i, bisect.bisect_right(ends, start + seconds + SPEED_WINDOW_S) - 1)
        window = samples[lo : hi + 1]
        slowness = sum(w[2] for w in window) / (PROBE_SLICE_S * sum(w[3] for w in window))
        out.append(seconds / slowness)
    return out


def timed_setup(build, api, quick) -> tuple:
    """Build a workload with a probe after each call into chorex; return it
    with the build's time in seconds at the reference speed."""
    probes = []
    originals = {name: fn for name, fn in vars(api).items() if callable(fn)}

    def probed(fn):
        def call(*args, **kwargs):
            started = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                probes.append(probe(CLOCK() - started))

        return call

    for name, fn in originals.items():
        setattr(api, name, probed(fn))
    started = CLOCK()
    try:
        workload = build(api, quick)
    finally:
        elapsed = CLOCK() - started
        for name, fn in originals.items():
            setattr(api, name, fn)
    probe_seconds = sum(p for p, _ in probes)
    slowness = probe_seconds / (PROBE_SLICE_S * sum(n for _, n in probes))
    return workload, (elapsed - probe_seconds) / slowness


def percentile(times: list, failed: int, q: float) -> float:
    """Nearest-rank percentile, a failed op ranking above every completed op."""
    ranked = sorted(times) + [math.inf] * failed
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def _checked(check, *args) -> list:
    """Problems a check reports; a check that raises reports its exception."""
    try:
        return check(*args)
    except Exception as exc:  # a malformed output can break a check
        return [f"check raised {type(exc).__name__}: {exc}"]


class Round:
    """Outcome of running every op of a workload once."""

    def __init__(self):
        self.samples = []  # (start, seconds, probe seconds, probe slices) per completed op
        self.actions = 0
        self.failed = {}  # exception name -> count


def run_round(workload, order, full, digests, problems, tracer=None) -> Round:
    """Run the ops in `order`; check each output outside op timing.

    `full` runs every check; otherwise an output need only reproduce the
    digest its op gave in the first round.
    """
    rnd = Round()
    outputs = {}
    for i in order:
        op = workload.ops[i]
        if tracer is not None:
            tracer.op = op.key
        if op.error is not None:
            name = type(op.error).__name__
            rnd.failed[name] = rnd.failed.get(name, 0) + 1
            continue
        started = CLOCK()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is a failed op
            rnd.failed[type(exc).__name__] = rnd.failed.get(type(exc).__name__, 0) + 1
            continue
        elapsed = CLOCK() - started
        rnd.samples.append((started, elapsed, *probe(elapsed)))
        text, actions = op.digest(out)
        rnd.actions += actions
        if full:
            problems.extend(f"{op.key}: {p}" for p in _checked(op.check, out))
            digests[op.key] = text
            if op.group:
                outputs[op.key] = out
        elif digests.get(op.key) != text:
            problems.append(f"{op.key}: output differs from the first round")
    if full:
        problems.extend(_checked(workload.round_problems, outputs))
    return rnd


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS, Api

    api = Api()
    build = WORKLOADS[name]
    if trace:
        tracer = Tracer()
        tracer.install(api)
        tracer.op = "setup"
        try:
            workload = build(api, quick)
        finally:
            tracer.remove()
        tracer.keep("testgen.")  # set-up's calls into other layers are no ops
    else:
        setup_times = []
        for _ in range(1 if quick else SETUP_REPS[name]):
            workload = None  # one set of inputs alive at a time
            workload, setup_s = timed_setup(build, api, quick)
            setup_times.append(setup_s)
    # A user's process holds one input, this one holds them all: keep the
    # collector from walking the inputs again on every full collection.
    gc.collect()
    gc.freeze()
    digests, problems = {}, []
    # Ops run in one fixed order: with the order shuffled by seed, the
    # grid's op_ms_p90 spread over 29% of its median between runs.
    order = list(range(len(workload.ops)))

    if trace:
        # Checks run in the untraced round alone, so that every span and
        # count of the traced round is an op's.
        plain = run_round(workload, order, True, digests, problems)
        tracer.install(api)
        try:
            traced = run_round(workload, order, False, digests, problems, tracer)
        finally:
            tracer.remove()
        rounds = [plain, traced]
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
        metrics = tracer.metrics()
        undecided = metrics["equiv.undecided"][0] + api.undecided_checks
        metrics["equiv.undecided"] = (undecided, "count")
        times = normalised(plain.samples + traced.samples)
        plain_s, traced_s = sum(times[: len(plain.samples)]), sum(times[len(plain.samples) :])
        metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    else:
        rounds = []
        started = time.perf_counter()
        while True:
            rounds.append(run_round(workload, order, not rounds, digests, problems))
            attempted = len(workload.ops) * len(rounds)
            done = (
                time.perf_counter() - started >= seconds
                and attempted >= MIN_OPS
                and len(rounds) >= MIN_ROUNDS[name]
            )
            if done or quick:
                break
        times = normalised([s for r in rounds for s in r.samples])
        failed = sum(sum(r.failed.values()) for r in rounds)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_ms_p50": (1000.0 * percentile(times, failed, 0.5), "ms"),
            "op_ms_p90": (1000.0 * percentile(times, failed, 0.9), "ms"),
            "actions_per_s": (sum(r.actions for r in rounds) / sum(times), "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
        for metric, (value, _) in metrics.items():
            if not math.isfinite(value):
                problems.append(f"{metric} is not finite: too many failed ops")
    gc.unfreeze()
    failures = {}
    for r in rounds:
        for exc, n in r.failed.items():
            failures[exc] = failures.get(exc, 0) + n
    return {
        "workload": name,
        "seed": seed,
        "rounds": len(rounds),
        "op_seconds": sum(times),
        "failures": failures,
        "problems": problems,
        "correct": not problems,
        "attempted": len(workload.ops) * len(rounds),
        "failed": sum(failures.values()),
        "metrics": {
            k: {"value": v if math.isfinite(v) else None, "unit": u}
            for k, (v, u) in metrics.items()
        },
    }


def _print_result(res: dict):
    print(
        f"workload {res['workload']}  seed {res['seed']}  rounds {res['rounds']}  "
        f"ops attempted {res['attempted']}  failed {res['failed']} {res['failures'] or ''}  "
        f"op time {res['op_seconds']:.1f} s"
    )
    for problem in res["problems"][:20]:
        print(f"  PROBLEM {problem}")
    for metric, m in res["metrics"].items():
        print(f"  {metric:32s} {m['value']!s:>22} {m['unit']}")


def _environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit or "unknown",
    }


def run_all(args) -> int:
    """Each workload `--runs` times, each run in a fresh process; keep every
    result, and print the medians and quartiles of each metric."""
    import compare

    modes = [0, 1] if args.trace else [0]
    results = {"environment": _environment(), "runs": {w: [] for w in WORKLOAD_NAMES}}
    for _ in range(args.runs):
        for name in WORKLOAD_NAMES:
            for traced in modes:
                cmd = [
                    sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(traced),
                ]
                if args.quick:
                    cmd.append("--quick")
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(proc.stderr)
                    print(f"bench: {name} exited {proc.returncode}")
                    return 1
                res = json.loads(lines[-1])
                res.update(workload=name, seed=args.seed, traced=bool(traced))
                results["runs"][name].append(res)
                print("\n".join(lines[:-1]), flush=True)
    out = Path(args.out) if args.out else OUT / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results in {out}")
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, runs in results["runs"].items():
        summary["correct"] &= all(r["correct"] for r in runs)
        for traced in modes:
            group = [r for r in runs if r["traced"] == bool(traced)]
            attempted, failed = (sum(r[k] for r in group) for k in ("attempted", "failed"))
            print(f"{name}{' traced' if traced else ''}: {len(group)} runs, "
                  f"ops attempted {attempted}, failed {failed}")
            if not traced:
                summary["attempted"] += attempted
                summary["failed"] += failed
            for metric, m in group[0]["metrics"].items():
                q1, median, q3 = compare.quartiles([r["metrics"][metric]["value"] for r in group])
                print(f"  {metric:32s} median {median:12.5g}  quartiles {q1:.5g}-{q3:.5g} "
                      f"{m['unit']}")
                if not traced:
                    summary["metrics"][f"{name}.{metric}"] = {
                        "value": median if math.isfinite(median) else None, "unit": m["unit"]
                    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--runs", type=int, default=1, help="runs of each workload, with all")
    ap.add_argument("--seconds", type=float, default=5.0, help="as in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny inputs, one round")
    ap.add_argument("--out", default="", help="results file for --workload all")
    args = ap.parse_args(argv)
    _import_chorex()
    if args.workload == "all":
        return run_all(args)
    pin_to_fastest_cpu()
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    _print_result(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # One hash layout in every run, so that string hashing does not
        # change dict and set layouts, and with them op times, between runs.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
