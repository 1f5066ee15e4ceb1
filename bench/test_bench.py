"""Tests of the benchmark itself: each workload's quick mode runs with its
checks on, and a mutated extraction makes every workload's checks fire.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from chorex import cc  # noqa: E402
from chorex.cli import _grid  # noqa: E402

WORKLOADS = ("grid", "roundtrip", "variants")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _quick(workload, trace=0):
    proc = _run("--workload", workload, "--quick", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_mode_passes_its_checks(workload):
    result = _quick(workload)
    assert result["correct"]
    assert result["attempted"] >= 1
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(result["metrics"]) == names
    # The grid's quick round holds size-k20, whose generation recurses too
    # deep in a fresh interpreter; nothing else fails.
    assert result["failed"] == (1 if workload == "grid" else 0)


def test_traced_runs_repeat_their_counts():
    first, second = _quick("variants", trace=1), _quick("variants", trace=1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(first["metrics"]) == {m["name"] for m in declared}
    for name, metric in first["metrics"].items():
        if metric["unit"] == "count":
            assert metric["value"] == second["metrics"][name]["value"], name


def _drop_one_action(body):
    """`body` without the second interaction of its first chain of two."""
    match body:
        case cc.Com() | cc.Sel() if isinstance(body.cont, (cc.Com, cc.Sel)):
            return _with_cont(body, body.cont.cont), True
        case cc.Com() | cc.Sel():
            cont, done = _drop_one_action(body.cont)
            return _with_cont(body, cont), done
        case cc.Cond(p, e, then, orelse):
            then, done = _drop_one_action(then)
            if not done:
                orelse, done = _drop_one_action(orelse)
            return cc.Cond(p, e, then, orelse), done
    return body, False


def _with_cont(body, cont):
    if isinstance(body, cc.Com):
        return cc.Com(body.sender, body.expr, body.receiver, body.var, cont)
    return cc.Sel(body.sender, body.receiver, body.label, cont)


def _mutated_program(program):
    components = list(program.components)
    for i, chor in enumerate(components):
        main, done = _drop_one_action(chor.main)
        procedures = dict(chor.procedures)
        for name in sorted(procedures):
            if done:
                break
            procedures[name], done = _drop_one_action(procedures[name])
        if done:
            components[i] = cc.Choreography(procedures, main)
            return cc.Program(components)
    return program


class _DroppedAction:
    """An extraction result whose program misses one action."""

    def __init__(self, result):
        self._result = result

    def __getattr__(self, name):
        return getattr(self._result, name)

    @property
    def program(self):
        return _mutated_program(self._result.program)


class DropActionApi(workloads.Api):
    def __init__(self):
        super().__init__()
        extract = self.extract
        self.extract = lambda net, *a, **k: _DroppedAction(extract(net, *a, **k))


class WrongNetworkApi(workloads.Api):
    def __init__(self):
        super().__init__()
        extract, seen = self.extract, []

        def wrong(net, *a, **k):
            seen.append(net)
            return extract(seen[0], *a, **k)

        self.extract = wrong


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("mutant", (DropActionApi, WrongNetworkApi))
def test_mutated_extraction_fails_the_checks(monkeypatch, workload, mutant):
    monkeypatch.setattr(workloads, "Api", mutant)
    result = run.run_workload(workload, 0, 0.0, trace=False, quick=True)
    assert not result["correct"]
    assert result["problems"]


def test_grid_points_are_the_cli_grid():
    cli_points = dict(_grid(("size", "processes", "ifs", "ifs-defs", "procedures")))
    for name, params in workloads.grid_points():
        point = name.rsplit("-r", 1)[0]
        expected = cli_points[point]
        assert (params.size, params.processes, params.ifs, params.defs) == (
            expected["size"], expected["processes"], expected["ifs"], expected["defs"]
        ), name


def test_grid_round_keeps_failed_ops_under_a_tenth():
    points = list(workloads.grid_points())
    failing = [n for n, p in points if p.size > 950]  # past size-k19
    assert len(points) >= run.MIN_OPS
    assert len(failing) < len(points) / 10


def test_failed_ops_rank_above_every_completed_op():
    assert run.percentile([1.0, 2.0, 3.0], 0, 0.5) == 2.0
    assert run.percentile([1.0, 2.0, 3.0], 1, 0.5) == 2.0
    assert run.percentile([1.0, 2.0, 3.0], 1, 0.9) == float("inf")
    # Mending a failure can only lower a percentile.
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 0, 0.9) <= run.percentile(
        [1.0, 2.0, 3.0], 1, 0.9
    )


def test_times_are_scaled_by_the_probes_around_them():
    # Probes that take twice the reference time mean a machine at half
    # speed: 10 ms of CPU time is 5 ms at the reference speed.
    slow = 2 * run.PROBE_SLICE_S
    samples = [(0.0, 0.010, slow, 1), (0.0115, 0.010, 3 * slow, 3)]
    assert run.normalised(samples) == pytest.approx([0.005, 0.005])


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _results(values, failed=0):
    runs = [
        {"attempted": 100, "failed": failed,
         "metrics": {"op_ms_p50": {"value": v, "unit": "ms"}}}
        for v in values
    ]
    return {"grid": runs}


def test_compare_flags_a_regression_beyond_the_bound():
    metric = [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}]
    rows = compare.compare(_results([10, 10, 10]), _results([10.5, 10.5, 10.5]), metric)
    assert [r[-1] for r in rows] == ["same", "within bound"]
    rows = compare.compare(_results([10, 10, 10]), _results([12, 12, 12], failed=1), metric)
    assert [r[-1] for r in rows] == ["DIFFERENT", "WORSE"]
    rows = compare.compare(_results([10, 10, 10]), _results([5, 5, 5]), metric)
    assert rows[-1][-1] == "better"
    # A percentile past the completed ops is stored as None, and is worse
    # than any time.
    rows = compare.compare(_results([10, 10, 10]), _results([10, None, None]), metric)
    assert rows[-1][-1] == "WORSE"
    rows = compare.compare(_results([None, None, 10]), _results([10, 10, 10]), metric)
    assert rows[-1][-1] == "better"
