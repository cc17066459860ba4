"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro import TaskGraph
from repro.cli import main


@pytest.fixture
def graph_file(tmp_path, paper_example):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(paper_example.to_dict()))
    return str(path)


class TestSchedule:
    def test_default_heuristic(self, graph_file, capsys):
        assert main(["schedule", graph_file]) == 0
        out = capsys.readouterr().out
        assert "CLANS" in out
        assert "parallel time  : 130" in out

    def test_named_heuristic_with_gantt(self, graph_file, capsys):
        assert main(["schedule", graph_file, "--heuristic", "HU", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "HU" in out
        assert "P0" in out

    def test_unknown_heuristic_rejected(self, graph_file):
        with pytest.raises(SystemExit):
            main(["schedule", graph_file, "--heuristic", "NOPE"])


class TestClassify:
    def test_metrics_printed(self, graph_file, capsys):
        assert main(["classify", graph_file]) == 0
        out = capsys.readouterr().out
        assert "granularity" in out
        assert "anchor out-degree" in out
        assert "serial time       : 150" in out


class TestGenerate:
    def test_generates_classified_graph(self, tmp_path, capsys):
        out_file = tmp_path / "gen.json"
        rc = main(
            ["generate", "--band", "2", "--anchor", "3", "-n", "25",
             "-o", str(out_file)]
        )
        assert rc == 0
        g = TaskGraph.from_dict(json.loads(out_file.read_text()))
        assert g.n_tasks == 25


class TestWorkload:
    @pytest.mark.parametrize("kind", ["chain", "fork_join", "fft", "gauss", "dnc", "stencil"])
    def test_each_kind(self, kind, tmp_path):
        out_file = tmp_path / f"{kind}.json"
        assert main(["workload", kind, "--param", "3", "-o", str(out_file)]) == 0
        g = TaskGraph.from_dict(json.loads(out_file.read_text()))
        assert g.n_tasks >= 3


class TestExperiment:
    def test_small_experiment_prints_tables(self, capsys):
        rc = main(
            ["experiment", "--graphs-per-cell", "1", "--nmin", "12",
             "--nmax", "16", "--tables", "2,4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Table 4" in out
        assert "Table 3" not in out

    def test_figures_printed(self, capsys):
        rc = main(
            ["experiment", "--graphs-per-cell", "1", "--nmin", "12",
             "--nmax", "16", "--tables", "3", "--figures", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out

    def test_bad_table_id(self):
        with pytest.raises(SystemExit, match="unknown ids"):
            main(
                ["experiment", "--graphs-per-cell", "1", "--nmin", "12",
                 "--nmax", "14", "--tables", "99"]
            )


class TestReport:
    def test_writes_markdown(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        rc = main(
            ["report", "--graphs-per-cell", "1", "--nmin", "10",
             "--nmax", "13", "-o", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        assert "## Table 2" in text
        assert "## Figure 6" in text

    def test_prints_to_stdout(self, capsys):
        rc = main(["report", "--graphs-per-cell", "1", "--nmin", "10", "--nmax", "12"])
        assert rc == 0
        assert "## Table 1" in capsys.readouterr().out


class TestExport:
    def test_svg(self, graph_file, tmp_path, capsys):
        out = tmp_path / "gantt.svg"
        rc = main(["export", graph_file, "--format", "svg", "-o", str(out)])
        assert rc == 0
        assert out.read_text().startswith("<svg")

    def test_trace(self, graph_file, tmp_path):
        import json as _json

        out = tmp_path / "trace.json"
        rc = main(
            ["export", graph_file, "--heuristic", "MH", "--format", "trace",
             "-o", str(out)]
        )
        assert rc == 0
        data = _json.loads(out.read_text())
        assert len(data["traceEvents"]) == 5


class TestSaveLoad:
    def test_round_trip_tables_match(self, tmp_path, capsys):
        saved = tmp_path / "run.json"
        rc = main(
            ["experiment", "--graphs-per-cell", "1", "--nmin", "10",
             "--nmax", "13", "--tables", "4", "--save", str(saved)]
        )
        assert rc == 0
        first = capsys.readouterr().out
        rc = main(["experiment", "--load", str(saved), "--tables", "4"])
        assert rc == 0
        second = capsys.readouterr().out
        assert first.strip() == second.strip()


class TestNewWorkloadKinds:
    @pytest.mark.parametrize("kind", ["cholesky", "wavefront"])
    def test_kinds(self, kind, tmp_path):
        out = tmp_path / f"{kind}.json"
        assert main(["workload", kind, "--param", "4", "-o", str(out)]) == 0


class TestImproveFlag:
    def test_improve_never_worse(self, graph_file, capsys):
        assert main(["schedule", graph_file, "--heuristic", "HU"]) == 0
        base = capsys.readouterr().out
        assert main(["schedule", graph_file, "--heuristic", "HU", "--improve"]) == 0
        improved = capsys.readouterr().out

        def makespan(text):
            for line in text.splitlines():
                if line.startswith("parallel time"):
                    return float(line.split(":")[1])
            raise AssertionError(text)

        assert makespan(improved) <= makespan(base) + 1e-9
        assert "HU+ls" in improved


class TestList:
    def test_lists_schedulers_with_docstring_summaries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("CLANS", "DSC", "MCP", "MH", "HU"):
            assert name in out
        # every registered scheduler gets a one-line summary column
        for line in out.splitlines()[1:]:
            assert len(line.split(maxsplit=2)) == 3, line

    def test_survives_missing_docstring(self, capsys):
        from repro.cli import _scheduler_summary

        class Undocumented:
            __doc__ = None

        assert _scheduler_summary(Undocumented) == "(no description)"


class TestObservability:
    def test_experiment_writes_trace_and_manifest(self, tmp_path, capsys):
        import json as _json

        saved = tmp_path / "res.json"
        trace = tmp_path / "run.json"
        rc = main(
            ["experiment", "--graphs-per-cell", "1", "--nmin", "10",
             "--nmax", "13", "--tables", "2", "--save", str(saved),
             "--trace", str(trace)]
        )
        assert rc == 0
        data = _json.loads(trace.read_text())
        names = {e["name"] for e in data["traceEvents"]}
        assert any(n.startswith("graph.") for n in names)
        assert any(n.startswith("schedule.") for n in names)
        manifest = _json.loads((tmp_path / "res.manifest.json").read_text())
        assert manifest["format"] == "repro-manifest"
        assert manifest["seed"] == 19940815
        assert "schedule" in manifest["phases"]

    def test_jsonl_trace_format(self, tmp_path):
        import json as _json

        trace = tmp_path / "run.jsonl"
        rc = main(
            ["experiment", "--graphs-per-cell", "1", "--nmin", "10",
             "--nmax", "12", "--tables", "2", "--trace", str(trace)]
        )
        assert rc == 0
        lines = trace.read_text().strip().splitlines()
        assert len(lines) > 60  # 60 graph spans + 300 scheduler spans
        assert all(_json.loads(line)["ph"] == "X" for line in lines[:5])

    def test_stats_prints_timings_and_counters(self, tmp_path, capsys):
        saved = tmp_path / "res.json"
        rc = main(
            ["experiment", "--graphs-per-cell", "1", "--nmin", "10",
             "--nmax", "13", "--tables", "2", "--save", str(saved)]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(["stats", str(saved)]) == 0
        out = capsys.readouterr().out
        assert "seed           : 19940815" in out
        for name in ("CLANS", "DSC", "MCP", "MH", "HU"):
            assert name in out
        assert "dsc.edge_zeroings" in out
        assert "simulator.events" in out

    def test_stats_without_manifest_degrades_with_hint(self, tmp_path, capsys):
        orphan = tmp_path / "res.json"
        orphan.write_text("{}")
        assert main(["stats", str(orphan)]) == 0
        out = capsys.readouterr().out
        assert "no manifest" in out
        assert "repro experiment --save" in out

    def test_stats_truncated_manifest_degrades(self, tmp_path, capsys):
        results = tmp_path / "res.json"
        results.write_text("{}")
        manifest_path = tmp_path / "res.manifest.json"
        manifest_path.write_text('{"created": "2026-')  # killed mid-write
        assert main(["stats", str(results)]) == 0
        assert "unreadable" in capsys.readouterr().out

    def test_stats_empty_trace_degrades(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        trace.write_text("")
        assert main(["stats", str(trace)]) == 0
        assert "no events" in capsys.readouterr().out

    def test_stats_truncated_trace_summarizes_parsable_prefix(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "run.jsonl"
        trace.write_text(
            '{"name": "schedule.DSC", "ph": "X", "ts": 0, "dur": 5}\n'
            '{"name": "schedule.MCP", "ph": "X", "ts": 9, "du'  # truncated
        )
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "schedule.DSC" in out
        assert "1 spans" in out
        assert "skipped" in out


class TestVersionAndUsage:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro-sched 1." in capsys.readouterr().out

    def test_bare_invocation_prints_usage_and_exits_2(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "subcommand is required" in err


class TestScheduleJson:
    def test_json_output_is_canonical_service_result(self, graph_file, capsys):
        from repro.core import wire
        from repro.core.taskgraph import TaskGraph
        from repro.schedulers.base import get_scheduler
        from repro.service.protocol import schedule_result

        assert main(["schedule", graph_file, "--heuristic", "DSC", "--json"]) == 0
        out = capsys.readouterr().out
        graph = TaskGraph.from_dict(json.loads(open(graph_file).read()))
        direct = get_scheduler("DSC").schedule(graph)
        expected = wire.dumps(schedule_result("DSC", graph, direct)) + "\n"
        assert out == expected


class TestServeSubmit:
    def test_submit_json_matches_schedule_json(self, graph_file, capsys, tmp_path):
        from repro.service.server import ServerThread

        sock = str(tmp_path / "svc.sock")
        with ServerThread(socket_path=sock):
            assert (
                main(
                    [
                        "submit",
                        graph_file,
                        "--heuristic",
                        "DSC",
                        "--socket",
                        sock,
                        "--json",
                    ]
                )
                == 0
            )
            via_service = capsys.readouterr().out
            assert main(["schedule", graph_file, "--heuristic", "DSC", "--json"]) == 0
            direct = capsys.readouterr().out
        assert via_service == direct

    def test_submit_against_dead_daemon_fails(self, graph_file, tmp_path, capsys):
        sock = str(tmp_path / "nothing.sock")
        assert main(["submit", graph_file, "--socket", sock]) == 1
        assert "service error" in capsys.readouterr().err


#: Unreadable graph files, each with the reason the CLI must print.
BAD_GRAPHS = {
    "missing": (None, "No such file or directory"),
    "invalid-json": ('{"tasks": [[1, 1.0]', "Expecting ',' delimiter"),
    "unknown-task": (
        '{"tasks": [[1, 1.0]], "edges": [[1, 2, 1]]}',
        "unknown task 2",
    ),
}


class TestUnreadableGraph:
    """Every graph-reading subcommand prints one line and exits 2."""

    @pytest.mark.parametrize("case", sorted(BAD_GRAPHS))
    @pytest.mark.parametrize(
        "argv",
        [
            ["schedule"],
            ["classify"],
            ["export", "-o", "unused.svg"],
            ["submit", "--socket", "unused.sock"],
        ],
        ids=["schedule", "classify", "export", "submit"],
    )
    def test_one_line_and_exit_2(self, argv, case, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text, reason = BAD_GRAPHS[case]
        path = tmp_path / "g.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main([argv[0], str(path), *argv[1:]])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro: cannot read graph {path}: ")
        assert reason in lines[0]
        assert not (tmp_path / "unused.svg").exists()
