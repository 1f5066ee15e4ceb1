"""End-to-end runs of the command-line front end, in-process."""

import csv
import json

import pytest

from chorex import cli
from chorex.cli import main
from chorex.parser import parse_choreography, parse_network, pretty
from chorex.semantics import Kernel

from conftest import (
    LIVELOCK_TRIPLE_TEXT,
    N2_TEXT,
    N3_TEXT,
    RANKED_LOOP_CHOR_TEXT,
    RANKED_LOOP_NET_TEXT,
    SIGNON_CHOR_TEXT,
    SIGNON_NET_TEXT,
    TWO_LOOPS_TEXT,
    TWO_LOOPS_VARIANT_A,
    TWO_LOOPS_VARIANT_B,
    TWO_LOOPS_VARIANT_B_TWICE,
)


SHARED_PROCESS_TEXT = "main { p.e -> q.x; stop } || main { q.e -> r.y; stop }"


@pytest.fixture
def run(capsys):
    def go(*argv):
        rc = main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    return go


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExtract:
    def test_success_prints_program(self, run, tmp_path):
        f = _write(tmp_path, "net.sp", SIGNON_NET_TEXT)
        rc, out, err = run("extract", f)
        assert rc == 0
        assert out == (
            "def X1 { u.cred -> a.c; if a.check(c)"
            " then a -> u[ok]; a -> w[ok]; w.t -> u.t; stop"
            " else a -> u[ko]; a -> w[ko]; X1 } main { X1 }\n"
        )
        assert err == ""

    def test_sequential_mode(self, run, tmp_path):
        f = _write(tmp_path, "net.sp", TWO_LOOPS_TEXT)
        rc, out, _ = run("extract", f, "--no-parallel")
        assert rc == 0
        assert out == "def X1 { p.e -> q.x; r.e' -> s.y; X1 } main { X1 }\n"

    def test_missing_file(self, run):
        rc, out, err = run("extract", "no-such-file.sp")
        assert rc == 2
        assert "cannot read no-such-file.sp" in err

    def test_parse_error_reports_position(self, run, tmp_path):
        f = _write(tmp_path, "bad.sp", "p { main { q! } }")
        rc, out, err = run("extract", f)
        assert rc == 2
        assert f"{f}:1:" in err

    def test_check_failure(self, run, tmp_path):
        f = _write(
            tmp_path,
            "cycle.sp",
            "p { def X { Y } def Y { X } main { X } } | q { main { p?x; stop } }",
        )
        rc, out, err = run("extract", f)
        assert rc == 2
        assert "unguarded-recursion in p/def X" in err

    def test_unknown_service(self, run, tmp_path):
        f = _write(tmp_path, "net.sp", SIGNON_NET_TEXT)
        rc, _, err = run("extract", f, "--services", "nobody")
        assert rc == 2
        assert "unknown service process(es): nobody" in err

    def test_service_exempts_the_server_loop(self, run, tmp_path):
        f = _write(tmp_path, "net.sp", RANKED_LOOP_NET_TEXT)
        rc, out, err = run("extract", f, "--services", "r")
        assert rc == 0
        assert "deadlock" not in out
        assert err == ""

    def test_failure_reports_the_component(self, run, tmp_path):
        f = _write(tmp_path, "net.sp", LIVELOCK_TRIPLE_TEXT)
        rc, out, err = run("extract", f)
        assert rc == 1
        assert out == ""
        assert (
            "no valid execution graph for component {p, q, r}: "
            "exhausted all loop closures (1 rejected)" in err
        )

    def test_deadlocks_reported_but_tolerated(self, run, tmp_path):
        f = _write(tmp_path, "net.sp", N3_TEXT)
        rc, out, err = run("extract", f)
        assert rc == 0
        assert "deadlock" in out
        assert "stuck processes:" in err
        assert "  q: r!<3>; stop" in err
        assert "  p: r!<2>; stop" in err

    def test_strict_turns_deadlock_into_failure(self, run, tmp_path):
        f = _write(tmp_path, "net.sp", N3_TEXT)
        rc, out, err = run("extract", f, "--strict")
        assert rc == 1
        assert "deadlock" in out  # the program is still printed

    def test_stats_file(self, run, tmp_path):
        f = _write(tmp_path, "net.sp", N2_TEXT)
        stats_path = tmp_path / "stats.json"
        rc, _, _ = run("extract", f, "--stats", str(stats_path))
        assert rc == 0
        stats = json.loads(stats_path.read_text())
        assert stats["nodesCreated"] == 7
        assert stats["nodesDeleted"] == 0
        assert stats["badloops"] == 0
        assert stats["components"] == 1
        assert stats["strategy"] == "InteractionsFirst"
        assert stats["seed"] == 0
        assert stats["wallMillis"] > 0

    def test_dot_export(self, run, tmp_path):
        f = _write(tmp_path, "net.sp", N2_TEXT)
        dot_path = tmp_path / "seg.dot"
        rc, _, _ = run("extract", f, "--dot", str(dot_path))
        assert rc == 0
        dot = dot_path.read_text()
        assert dot.startswith("digraph seg {")
        assert dot.count("[label=") == 13  # 7 nodes and 6 edges

    @pytest.mark.parametrize("flag", ["--dot", "--stats"])
    def test_unwritable_output_exits_2(self, run, tmp_path, flag):
        f = _write(tmp_path, "net.sp", N2_TEXT)
        target = tmp_path / "net.sp" / "out"  # its parent is a file
        rc, out, err = run("extract", f, flag, str(target))
        assert rc == 2
        assert err.startswith(f"cannot write {target}: ")
        assert "Traceback" not in err

    def test_strategy_flag_is_validated(self, tmp_path, capsys):
        f = _write(tmp_path, "net.sp", N2_TEXT)
        with pytest.raises(SystemExit) as exc:
            main(["extract", f, "--strategy", "Sideways"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_seed_from_environment(self, run, tmp_path, monkeypatch):
        monkeypatch.setenv("CHOREX_SEED", "7")
        f = _write(tmp_path, "net.sp", N2_TEXT)
        stats_path = tmp_path / "stats.json"
        rc, _, _ = run("extract", f, "--stats", str(stats_path))
        assert rc == 0
        assert json.loads(stats_path.read_text())["seed"] == 7

    def test_seed_from_environment_must_be_an_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CHOREX_SEED", "abc")
        f = _write(tmp_path, "net.sp", N2_TEXT)
        with pytest.raises(SystemExit) as exc:
            main(["extract", f])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "CHOREX_SEED must be an integer, not 'abc'\n"


class TestProject:
    def test_seed_from_environment_is_not_read(self, run, tmp_path, monkeypatch):
        # project takes no seed, so a bad CHOREX_SEED must not stop it.
        monkeypatch.setenv("CHOREX_SEED", "abc")
        f = _write(tmp_path, "c.cc", SIGNON_CHOR_TEXT)
        rc, out, err = run("project", f)
        assert (rc, err) == (0, "")
        assert out == pretty(parse_network(SIGNON_NET_TEXT)) + "\n"

    def test_projection_round_trips_the_sign_on(self, run, tmp_path):
        f = _write(tmp_path, "c.cc", SIGNON_CHOR_TEXT)
        rc, out, err = run("project", f)
        assert rc == 0
        assert out == pretty(parse_network(SIGNON_NET_TEXT)) + "\n"

    def test_merge_failure(self, run, tmp_path):
        f = _write(tmp_path, "c.cc", RANKED_LOOP_CHOR_TEXT)
        rc, out, err = run("project", f)
        assert rc == 1
        assert out == ""
        assert (
            "not projectable: merge failed at "
            "process r at conditional on q.(x=y)" in err
        )

    def test_empty_choreography_projects_to_nothing(self, run, tmp_path):
        f = _write(tmp_path, "c.cc", "main { stop }")
        rc, out, err = run("project", f)
        assert rc == 0
        assert out == ""

    def test_component_without_processes_is_skipped(self, run, tmp_path):
        f = _write(tmp_path, "c.cc", "main { p.e -> q.x; stop } || main { stop }")
        rc, out, err = run("project", f)
        assert rc == 0
        want = parse_network("p { main { q!<e>; stop } } | q { main { p?x; stop } }")
        assert out == pretty(want) + "\n"

    def test_deadlock_is_not_projectable(self, run, tmp_path):
        f = _write(tmp_path, "c.cc", "main { p.e -> q.x; deadlock }")
        rc, out, err = run("project", f)
        assert rc == 1
        assert out == ""
        assert err == "not projectable: deadlock terms cannot be projected\n"

    def test_components_sharing_a_process_are_a_parse_error(self, run, tmp_path):
        f = _write(tmp_path, "c.cc", SHARED_PROCESS_TEXT)
        rc, out, err = run("project", f)
        assert (rc, out) == (2, "")
        assert err == f"{f}:1:30: components share process names: ['q']\n"


class TestEquiv:
    def test_yes(self, run, tmp_path):
        a = _write(tmp_path, "a.cc", TWO_LOOPS_VARIANT_A)
        b = _write(tmp_path, "b.cc", TWO_LOOPS_VARIANT_B)
        rc, out, _ = run("equiv", a, b)
        assert rc == 0
        assert json.loads(out) == {"verdict": "yes", "pairsExplored": 1}

    def test_no(self, run, tmp_path):
        a = _write(tmp_path, "a.cc", "main { p.e -> q.x; stop }")
        b = _write(tmp_path, "b.cc", "main { p.e -> q.x; p.f -> q.y; stop }")
        rc, out, _ = run("equiv", a, b)
        assert rc == 1
        # The witness's left bodies are A's, and B enables the action.
        assert json.loads(out) == {
            "verdict": "no",
            "pairsExplored": 1,
            "witness": {
                "action": "p.f -> q.y",
                "enabledOn": "right",
                "left": ["stop"],
                "right": ["p.f -> q.y; stop"],
            },
        }

    def test_exhausted(self, run, tmp_path):
        a = _write(tmp_path, "a.cc", TWO_LOOPS_VARIANT_A)
        b = _write(tmp_path, "b.cc", TWO_LOOPS_VARIANT_B_TWICE)
        rc, out, _ = run("equiv", a, b, "--budget", "1")
        assert rc == 3
        assert json.loads(out) == {"verdict": "exhausted", "pairsExplored": 1}

    def test_components_sharing_a_process_are_a_parse_error(self, run, tmp_path):
        a = _write(tmp_path, "a.cc", SHARED_PROCESS_TEXT)
        rc, out, err = run("equiv", a, a)
        assert (rc, out) == (2, "")
        assert "components share process names" in err

    def test_budget_must_be_positive(self, tmp_path, capsys):
        a = _write(tmp_path, "a.cc", TWO_LOOPS_VARIANT_A)
        with pytest.raises(SystemExit) as exc:
            main(["equiv", a, a, "--budget", "0"])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err

    @pytest.mark.parametrize("millis", ["0", "-5", "nan", "x"])
    def test_millis_must_be_positive(self, tmp_path, capsys, millis):
        a = _write(tmp_path, "a.cc", TWO_LOOPS_VARIANT_A)
        with pytest.raises(SystemExit) as exc:
            main(["equiv", a, a, "--millis", millis])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--millis" in captured.err

    def test_seed_from_environment_is_not_read(self, run, tmp_path, monkeypatch):
        monkeypatch.setenv("CHOREX_SEED", "abc")
        a = _write(tmp_path, "a.cc", TWO_LOOPS_VARIANT_A)
        rc, out, err = run("equiv", a, a)
        assert (rc, err) == (0, "")
        assert json.loads(out)["verdict"] == "yes"

    @pytest.mark.parametrize(
        "flag, value, wanted",
        [
            ("--millis", "x", "a positive number"),
            ("--budget", "1.5", "a positive integer"),
            ("--budget", "x", "a positive integer"),
        ],
    )
    def test_unparsable_budgets_name_no_private_function(
        self, tmp_path, capsys, flag, value, wanted
    ):
        a = _write(tmp_path, "a.cc", TWO_LOOPS_VARIANT_A)
        with pytest.raises(SystemExit) as exc:
            main(["equiv", a, a, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be {wanted}, not {value!r}" in err
        assert "_positive" not in err

    def test_positive_millis_is_a_budget(self, run, tmp_path):
        a = _write(tmp_path, "a.cc", TWO_LOOPS_VARIANT_A)
        rc, out, _ = run("equiv", a, a, "--millis", "1000")
        assert rc == 0
        assert json.loads(out)["verdict"] == "yes"


class TestCorpusCommands:
    def test_gen_writes_files_and_manifest(self, run, tmp_path):
        out_dir = tmp_path / "corpus"
        rc, out, _ = run("gen", "ifs", "--out", str(out_dir), "--scale", "0.1")
        assert rc == 0
        assert out == f"wrote 4 choreographies to {out_dir}\n"
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == [
            "ifs-k1-r0.cc",
            "ifs-k2-r0.cc",
            "ifs-k3-r0.cc",
            "ifs-k4-r0.cc",
            "manifest.json",
        ]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert [e["testId"] for e in manifest] == [
            "ifs-k1-r0", "ifs-k2-r0", "ifs-k3-r0", "ifs-k4-r0"
        ]
        for entry in manifest:
            c = parse_choreography((out_dir / entry["file"]).read_text())
            assert entry["expectedVerdict"] == "extractable"
            assert entry["params"]["size"] == 50

    def test_gen_rejects_unknown_row(self, run, tmp_path):
        rc, _, err = run("gen", "nonsense", "--out", str(tmp_path / "x"))
        assert rc == 2
        assert "unknown parameter row: nonsense" in err

    def test_unknown_row_is_refused_before_any_file_is_written(self, run, tmp_path):
        out_dir = tmp_path / "d"
        out_dir.mkdir()
        for command in ("gen", "bench"):
            rc, out, err = run(command, "size,bogus", "--out", str(out_dir))
            assert rc == 2 and out == ""
            assert err == "unknown parameter row: bogus\n"
            assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("command", ["gen", "bench"])
    def test_out_naming_a_file_exits_2(self, run, tmp_path, command):
        target = _write(tmp_path, "taken", "")
        rc, out, err = run(command, "ifs", "--out", target, "--scale", "0.1")
        assert rc == 2 and out == ""
        assert err.startswith(f"cannot write {target}: ")

    def test_unwritable_bench_csv_exits_2(self, run, tmp_path, monkeypatch):
        jobs = []
        monkeypatch.setattr(cli, "_bench_one", lambda *job: jobs.append(job))
        out_dir = tmp_path / "bench"
        (out_dir / "bench.csv").mkdir(parents=True)
        rc, out, err = run("bench", "ifs", "--out", str(out_dir), "--scale", "0.1")
        assert rc == 2 and out == ""
        assert err.startswith(f"cannot write {out_dir / 'bench.csv'}: ")
        assert jobs == []  # before any extraction

    @pytest.mark.parametrize("command", ["gen", "fuzz", "unroll", "bench"])
    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "-1", "0", "x"])
    def test_scale_must_be_positive_and_finite(self, tmp_path, capsys, command, scale):
        out_dir = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            main([command, "ifs", "--out", str(out_dir), f"--scale={scale}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --scale: must be a positive finite number, not {scale!r}" in captured.err
        assert not out_dir.exists()

    def test_fuzz_writes_three_variants_per_point(self, run, tmp_path):
        out_dir = tmp_path / "fuzzed"
        rc, out, _ = run("fuzz", "ifs", "--out", str(out_dir), "--scale", "0.1")
        assert rc == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert len(names) == 13  # 4 points x 3 damage settings + manifest
        assert "ifs-k1-r0-d0s1.sp" in names
        assert "ifs-k1-r0-d1s0.sp" in names
        assert "ifs-k1-r0-d2s2.sp" in names
        for name in names:
            if name.endswith(".sp"):
                parse_network((out_dir / name).read_text())

    def test_unroll_writes_one_variant_per_point(self, run, tmp_path):
        out_dir = tmp_path / "unrolled"
        rc, out, _ = run("unroll", "ifs", "--out", str(out_dir), "--scale", "0.1")
        assert rc == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "ifs-k1-r0-unrolled.sp",
            "ifs-k2-r0-unrolled.sp",
            "ifs-k3-r0-unrolled.sp",
            "ifs-k4-r0-unrolled.sp",
            "manifest.json",
        ]

    def test_bench_csv_shape(self, run, tmp_path):
        out_dir = tmp_path / "bench"
        rc, out, _ = run("bench", "ifs", "--out", str(out_dir), "--scale", "0.1")
        assert rc == 0
        lines = (out_dir / "bench.csv").read_text().splitlines()
        assert lines[0] == (
            "testId,size,processes,ifs,defs,strategy,timeMs,nodes,badloops,verdict"
        )
        assert len(lines) == 1 + 40  # 4 points x 10 strategies
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_bench_compiles_each_network_once(self, run, tmp_path, monkeypatch):
        """The ten rows of a network share one compile, made before any
        row's timer starts: each body of each network is interned once
        across them, and never between a row's two clock readings."""
        cli._bench_network.cache_clear()  # no network of an earlier run
        nets, events = [], []
        network, intern, clock = cli._bench_network, Kernel._intern, cli.time.perf_counter
        monkeypatch.setattr(cli, "_bench_network", lambda p: nets.append(network(p)) or nets[-1])
        monkeypatch.setattr(
            Kernel, "_intern", lambda k, i, b, *rest: events.append(b) or intern(k, i, b, *rest)
        )
        monkeypatch.setattr(cli.time, "perf_counter", lambda: events.append(None) or clock())
        rc, _, _ = run("bench", "ifs", "--out", str(tmp_path / "bench"), "--scale", "0.1")
        monkeypatch.undo()
        assert rc == 0
        distinct = list({id(net): net for net in nets}.values())
        assert len(nets) == 40 and len(distinct) == 4
        assert all(nets[i] is nets[i - i % 10] for i in range(40))
        bodies = sum(1 + len(t.procedures) for net in distinct for t in net.processes.values())
        assert len(events) - events.count(None) == bodies
        clocks = [at for at, event in enumerate(events) if event is None]
        assert len(clocks) == 80
        assert all(events[start + 1 : stop] == [] for start, stop in zip(clocks[::2], clocks[1::2]))

    def test_bench_jobs_write_the_same_rows(self, run, tmp_path):
        """--jobs 2 runs the jobs in worker processes; only the timings
        may differ from a --jobs 1 run."""
        tables = []
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"jobs{jobs}"
            rc, _, _ = run(
                "bench", "ifs", "--out", str(out_dir), "--scale", "0.1", "--jobs", jobs
            )
            assert rc == 0
            rows = list(csv.reader((out_dir / "bench.csv").open()))
            time_col = rows[0].index("timeMs")
            tables.append([r[:time_col] + r[time_col + 1 :] for r in rows])
        assert len(tables[0]) == 1 + 40
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_bench_jobs_must_be_positive(self, tmp_path, capsys, jobs):
        out_dir = tmp_path / "bench"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "ifs", "--out", str(out_dir), "--scale", "0.1", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unparsable_jobs_name_no_private_function(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "ifs", "--out", str(out_dir), "--scale", "0.1", "--jobs", "two"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --jobs: must be a positive integer, not 'two'" in err
        assert "_positive" not in err
        assert not out_dir.exists()

    def test_gen_runs_are_reproducible(self, run, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run("gen", "ifs", "--out", str(a), "--scale", "0.1")
        run("gen", "ifs", "--out", str(b), "--scale", "0.1")
        for path in sorted(a.iterdir()):
            assert (b / path.name).read_bytes() == path.read_bytes()

    def test_seed_changes_the_corpus(self, run, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run("gen", "ifs", "--out", str(a), "--scale", "0.1")
        run("gen", "ifs", "--out", str(b), "--scale", "0.1", "--seed", "1")
        assert (a / "ifs-k1-r0.cc").read_text() != (b / "ifs-k1-r0.cc").read_text()
        manifest = json.loads((b / "manifest.json").read_text())
        assert manifest[0]["seed"] == 1_000_003
