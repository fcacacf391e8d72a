"""Tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_topology(self):
        args = build_parser().parse_args(["topology"])
        assert args.command == "topology"

    def test_table_numbers(self):
        args = build_parser().parse_args(["table", "3"])
        assert args.number == 3

    def test_bad_table_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "9"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_trace_arguments(self):
        args = build_parser().parse_args(
            ["trace", "table2", "--out", "t.json", "--fast"]
        )
        assert args.command == "trace"
        assert args.experiment == "table2" and args.out == "t.json" and args.fast

    def test_trace_default_out(self):
        args = build_parser().parse_args(["trace", "characterization"])
        assert args.out == "trace.json"

    def test_analyze_arguments(self):
        args = build_parser().parse_args(
            ["analyze", "table2", "--out", "s.json", "--top", "3", "--fast"]
        )
        assert args.command == "analyze"
        assert args.experiment == "table2" and args.out == "s.json"
        assert args.top == 3 and args.fast

    def test_analyze_out_is_optional(self):
        args = build_parser().parse_args(["analyze", "characterization"])
        assert args.out is None and args.top == 5

    def test_report_experiment_is_optional(self):
        args = build_parser().parse_args(["report"])
        assert args.command == "report" and args.experiment is None
        args = build_parser().parse_args(["report", "table2", "--fast"])
        assert args.experiment == "table2" and args.fast

    def test_run_all_report_flags(self):
        args = build_parser().parse_args(
            ["run-all", "--no-reports", "--report-dir", "r"]
        )
        assert args.no_reports and args.report_dir == "r"

    def test_timeline_arguments(self):
        args = build_parser().parse_args(
            ["timeline", "table2", "--interval", "32", "--out", "t.json"]
        )
        assert args.command == "timeline" and args.experiment == "table2"
        assert args.interval == 32.0 and args.out == "t.json"
        args = build_parser().parse_args(["timeline", "characterization"])
        assert args.interval == 64.0 and args.out is None

    def test_profile_arguments(self):
        args = build_parser().parse_args(
            ["profile", "table2", "--top", "7", "--out", "p.json"]
        )
        assert args.command == "profile" and args.experiment == "table2"
        assert args.top == 7 and args.out == "p.json"

    def test_trace_timeline_flag(self):
        args = build_parser().parse_args(["trace", "table2", "--timeline"])
        assert args.timeline == 64.0  # bare flag takes the default width
        args = build_parser().parse_args(
            ["trace", "table2", "--timeline", "128"]
        )
        assert args.timeline == 128.0
        args = build_parser().parse_args(["trace", "table2"])
        assert args.timeline is None

    def test_report_interval_flag(self):
        args = build_parser().parse_args(
            ["report", "table2", "--interval", "32"]
        )
        assert args.interval == 32.0
        args = build_parser().parse_args(["report", "table2"])
        assert args.interval is None


class TestExecution:
    def test_topology_output(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Cluster 3" in out

    def test_table3_output(self, capsys):
        assert main(["table", "3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "TRFD" in out

    def test_table4_output(self, capsys):
        assert main(["table", "4"]) == 0
        assert "ARC2D" in capsys.readouterr().out

    def test_table5_output(self, capsys):
        assert main(["table", "5"]) == 0
        assert "In(13,0)" in capsys.readouterr().out

    def test_table6_output(self, capsys):
        assert main(["table", "6"]) == 0
        assert "Restructuring" in capsys.readouterr().out

    def test_fig3_output(self, capsys):
        assert main(["fig3"]) == 0
        assert "YMP" in capsys.readouterr().out

    def test_ppt4_output(self, capsys):
        assert main(["ppt4"]) == 0
        assert "CG" in capsys.readouterr().out

    def test_overheads_output(self, capsys):
        assert main(["overheads"]) == 0
        assert "XDOALL" in capsys.readouterr().out


class TestObservabilityCommands:
    def test_trace_writes_valid_chrome_trace(self, capsys, tmp_path):
        from repro.monitor.tracer import validate_chrome_trace_file

        out = tmp_path / "trace.json"
        assert main(["trace", "characterization", "--out", str(out)]) == 0
        n_events, n_tracks = validate_chrome_trace_file(out)
        assert n_events > 0 and n_tracks >= 3
        stdout = capsys.readouterr().out
        assert str(out) in stdout and "tracks" in stdout

    def test_trace_unknown_experiment_rejected(self, capsys):
        assert main(["trace", "not-an-experiment", "--out", "/tmp/x.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not-an-experiment" in err

    def test_analyze_prints_decomposition_and_writes_spans(
        self, capsys, tmp_path
    ):
        from repro.monitor.spans import validate_spans_file

        out = tmp_path / "spans.json"
        assert main(
            ["analyze", "characterization", "--out", str(out), "--top", "2"]
        ) == 0
        n_requests, n_complete = validate_spans_file(out)
        assert n_requests > 0 and n_complete > 0
        stdout = capsys.readouterr().out
        assert "latency decomposition by phase" in stdout
        assert "bottleneck" in stdout and "p95" in stdout
        assert str(out) in stdout

    def test_buffered_analyze_builds_only_the_spans_it_prints(
        self, capsys, monkeypatch
    ):
        """The tables, the tail attribution and the reconciliation check
        read the collectors' columns; spans are built only for the
        ``--top`` waterfalls."""
        from repro.monitor.spans import RequestSpan

        built = []
        init = RequestSpan.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(RequestSpan, "__init__", counting_init)
        assert main(["analyze", "characterization", "--top", "3"]) == 0
        stdout = capsys.readouterr().out
        assert "slowest 3 requests" in stdout and "bottleneck" in stdout
        assert len(built) == 3

    def test_analyze_unknown_experiment_rejected(self, capsys):
        assert main(["analyze", "not-an-experiment"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not-an-experiment" in err

    def test_report_single_experiment_prints_json(self, capsys):
        import json

        from repro.experiments.characterization import run_characterization

        run_characterization.cache_clear()
        assert main(["report", "characterization"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["experiment"] == "characterization"
        assert report["machines_built"] >= 1
        assert report["machines"][0]["metrics"]

    def test_report_aggregates_directory(self, capsys, tmp_path, monkeypatch):
        import json

        report = {
            "experiment": "x",
            "machines_built": 1,
            "total_sim_cycles": 10.0,
            "total_engine_events": 5,
            "elapsed_s": 0.1,
            "machines": [{"engine": {"run_wall_s": 0.05}}],
        }
        (tmp_path / "x.json").write_text(json.dumps(report))
        assert main(["report", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Run reports" in out and "x" in out

    def test_report_empty_directory_exits(self, tmp_path, capsys):
        assert main(["report", "--dir", str(tmp_path / "missing")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "run-all" in err

    def test_report_missing_collected_report_exits(self, tmp_path, capsys):
        assert main(["report", "table2", "--dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "run `python -m repro run-all table2` first" in err

    def test_report_dir_loads_collected_report(self, tmp_path, capsys):
        import json

        (tmp_path / "table2.json").write_text(
            json.dumps({"experiment": "table2", "machines_built": 1})
        )
        assert main(["report", "table2", "--dir", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["experiment"] == "table2"

    def test_timeline_prints_sparklines_and_writes_document(
        self, capsys, tmp_path
    ):
        from repro.monitor.timeline import validate_timeline_file

        out = tmp_path / "timeline.json"
        assert main(
            ["timeline", "characterization", "--interval", "64",
             "--out", str(out)]
        ) == 0
        n_series, n_intervals = validate_timeline_file(out)
        assert n_series > 2 and n_intervals > 0
        stdout = capsys.readouterr().out
        assert "timeline:" in stdout and "intervals" in stdout
        assert str(out) in stdout

    def test_timeline_unknown_experiment_rejected(self, capsys):
        assert main(["timeline", "not-an-experiment"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not-an-experiment" in err

    def test_trace_timeline_adds_counter_tracks(self, capsys, tmp_path):
        from repro.monitor.tracer import validate_chrome_trace_file

        out = tmp_path / "trace.json"
        assert main(
            ["trace", "characterization", "--timeline", "--out", str(out)]
        ) == 0
        n_events, n_tracks = validate_chrome_trace_file(out)
        assert n_events > 0
        stdout = capsys.readouterr().out
        assert "timeline counter track(s)" in stdout
        import json as _json

        with open(out) as fh:
            events = _json.load(fh)["traceEvents"]
        counters = [e for e in events if e.get("ph") == "C"]
        assert counters and all("args" in e for e in counters)

    def test_profile_prints_subsystem_shares(self, capsys, tmp_path):
        import json as _json

        out = tmp_path / "profile.json"
        assert main(
            ["profile", "characterization", "--top", "5",
             "--out", str(out)]
        ) == 0
        stdout = capsys.readouterr().out
        assert "host profile" in stdout
        assert "subsystem self-time shares" in stdout
        assert "hottest frames" in stdout
        doc = _json.loads(out.read_text())
        assert doc["experiment"] == "characterization"
        assert doc["subsystem_shares"] and len(doc["frames"]) <= 5

    def test_profile_unknown_experiment_rejected(self, capsys):
        assert main(["profile", "not-an-experiment"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not-an-experiment" in err

    def test_run_all_telemetry_flags_parse(self):
        args = build_parser().parse_args(
            ["run-all", "--telemetry", "--telemetry-dir", "t",
             "--heartbeat", "0.1", "--no-progress"]
        )
        assert args.telemetry and args.telemetry_dir == "t"
        assert args.heartbeat == 0.1 and args.no_progress

    def test_run_all_telemetry_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.monitor.telemetry import validate_telemetry_file

        code = main(
            ["run-all", "topology", "--no-reports", "--telemetry",
             "--telemetry-dir", str(tmp_path / "tel")]
        )
        assert code == 0
        (jsonl,) = sorted((tmp_path / "tel").glob("*.jsonl"))
        counts = validate_telemetry_file(jsonl)
        assert counts["run_queued"] == 1 and counts["completed"] == 1
        err = capsys.readouterr().err
        assert "telemetry events ->" in err
        assert "[fleet]" in err  # the no-TTY transition lines


class TestStoreCLI:
    def _populate(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path)
        keys = ["ab" + "cd" * 31, "ef" + "01" * 31]
        for key in keys:
            store.put(key, {"key": key, "output": "x" * 64})
        return store, keys

    def test_store_parser_subcommands(self):
        args = build_parser().parse_args(["store", "verify", "--repair"])
        assert args.command == "store" and args.store_command == "verify"
        assert args.repair and args.dir is None
        args = build_parser().parse_args(
            ["store", "gc", "--max-bytes", "1024", "--dir", "d"]
        )
        assert args.store_command == "gc"
        assert args.max_bytes == 1024 and args.dir == "d"

    def test_store_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])

    def test_missing_store_root_is_a_one_line_error(self, capsys, tmp_path):
        missing = tmp_path / "nowhere"
        assert main(["store", "stats", "--dir", str(missing)]) == 1
        assert capsys.readouterr().err.startswith("error: no result store")

    def test_stats_summarizes_tree(self, capsys, tmp_path):
        self._populate(tmp_path)
        assert main(["store", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries      2" in out and "quarantined  0" in out

    def test_verify_clean_store_exits_zero(self, capsys, tmp_path):
        self._populate(tmp_path)
        assert main(["store", "verify", "--dir", str(tmp_path)]) == 0
        assert "2 entries, 2 ok, 0 issue(s)" in capsys.readouterr().out

    def test_verify_reports_corruption_and_repair_heals(
        self, capsys, tmp_path
    ):
        store, keys = self._populate(tmp_path)
        store.entry_path(keys[0]).write_text("{torn")
        # report-only pass: inconsistency -> exit 1, nothing touched
        assert main(["store", "verify", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1 issue(s), 0 repaired" in out and "unparseable" in out
        assert store.entry_path(keys[0]).exists()
        # repair quarantines the corrupt entry; verify is clean after
        assert main(["store", "repair", "--dir", str(tmp_path)]) == 0
        assert "1 repaired" in capsys.readouterr().out
        assert not store.entry_path(keys[0]).exists()
        assert list((tmp_path / "quarantine").iterdir())
        assert main(["store", "verify", "--dir", str(tmp_path)]) == 0

    def test_gc_evicts_to_budget(self, capsys, tmp_path):
        store, keys = self._populate(tmp_path)
        size = store.stats().total_bytes
        assert main(
            ["store", "gc", "--max-bytes", str(size // 2),
             "--dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "kept 1" in out and "evicted 1" in out
        assert store.stats().entries == 1
