"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "PointNet"])
        assert args.machine == "pointacc"
        assert args.scale == 0.25

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "AlexNet"])

    def test_stream_defaults(self):
        args = build_parser().parse_args(["serve-stream"])
        assert args.benchmark == "MinkNet(o)"
        assert args.shards == 0 and args.workers == 0

    def test_fleet_tile_front_knobs(self):
        """The tile front is gone, and every knob it had with it."""
        gone = (["--tile-size", "2.5"], ["--halo", "2"], ["--no-tiles"],
                ["--no-batch"], ["--no-share"], ["--min-tile-points", "32"])
        for command in ("serve-stream", "bench-stream", "serve-fleet",
                        "bench-fleet"):
            for flag in gone:
                with pytest.raises(SystemExit):
                    build_parser().parse_args([command, *flag])

    def test_bench_stream_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench-stream", "--benchmark", "VGG"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "PointNet++(c)" in out
        assert "fig13" in out
        assert "RTX 2080Ti" in out

    def test_run_pointacc(self, capsys):
        assert main(["run", "PointNet++(c)", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out and "PointAcc" in out

    def test_run_with_layers(self, capsys):
        assert main(["run", "PointNet", "--scale", "0.08", "--layers"]) == 0
        out = capsys.readouterr().out
        assert "per-layer records" in out

    def test_run_on_platform(self, capsys):
        code = main(["run", "PointNet", "--machine", "Jetson Nano",
                     "--scale", "0.08"])
        assert code == 0
        assert "Jetson Nano" in capsys.readouterr().out

    def test_run_mesorasi_rejects_sparseconv(self, capsys):
        code = main(["run", "MinkNet(i)", "--machine", "mesorasi",
                     "--scale", "0.06"])
        assert code == 2
        assert "delayed aggregation" in capsys.readouterr().err

    def test_experiment(self, capsys):
        assert main(["experiment", "tab03"]) == 0
        assert "PointAcc" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "fig99"]) == 2

    def test_compare(self, capsys):
        assert main(["compare", "PointNet", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out

    def test_inspect(self, capsys):
        assert main(["inspect", "PointNet++(c)", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "GMACs" in out and "map_fps" in out

    def test_serve_sim(self, capsys):
        code = main(["serve-sim", "--requests", "6", "--scale", "0.1",
                     "--seed-pool", "2", "--benchmarks", "PointNet++(c)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 6 requests" in out
        assert "reuse" in out  # seed pool < requests => trace reuse happened

    def test_serve_sim_unknown_benchmark(self, capsys):
        assert main(["serve-sim", "--benchmarks", "AlexNet"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_bench_engine(self, capsys):
        code = main(["bench-engine", "--benchmarks", "PointNet++(c)",
                     "--repeats", "2", "--seeds", "1", "--scale", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "bit-identical: yes" in out

    def test_serve_cluster(self, capsys):
        code = main(["serve-cluster", "--requests", "6", "--scale", "0.1",
                     "--seed-pool", "2", "--benchmarks", "PointNet++(c)",
                     "--shards", "2", "--tenant-pool", "2",
                     "--deadline-ms", "1e9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 6/6 requests" in out
        assert "deadlines: 6 met, 0 missed" in out
        assert "tenant tenantA" in out and "tenant tenantB" in out
        assert "trace store: 4 hits / 2 misses" in out
        assert "first-request trace: build" in out

    def test_serve_cluster_persists_and_warm_starts(self, tmp_path, capsys):
        cache_dir = tmp_path / "maps"
        argv = ["serve-cluster", "--requests", "2", "--scale", "0.1",
                "--seed-pool", "1", "--benchmarks", "PointNet++(c)",
                "--shards", "1", "--cache-dir", str(cache_dir)]
        assert main(list(argv)) == 0
        capsys.readouterr()
        assert any(cache_dir.glob("*.trace"))
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert "first-request trace: reuse" in out  # warm-started
        assert "1 disk hits" in out

    def test_serve_cluster_request_file(self, tmp_path, capsys):
        path = tmp_path / "reqs.jsonl"
        path.write_text(
            '{"benchmark": "PointNet++(c)", "scale": 0.1, "tenant": "acme"}\n'
            '{"benchmark": "PointNet++(c)", "scale": 0.1, "deadline_ms": 0}\n'
        )
        code = main(["serve-cluster", "--request-file", str(path),
                     "--shards", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 1/2 requests (1 rejected)" in out
        assert "rejected" in out

    def test_bench_cluster(self, capsys):
        code = main(["bench-cluster", "--benchmarks", "PointNet++(c)",
                     "--repeats", "2", "--seeds", "1", "--scale", "0.1",
                     "--shards", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "bit-identical: yes" in out
        assert "warm cluster" in out

    def test_serve_sim_reports_trace_reuse(self, capsys):
        assert main(["serve-sim", "--requests", "4", "--scale", "0.1",
                     "--seed-pool", "2", "--benchmarks", "PointNet++(c)"]) == 0
        out = capsys.readouterr().out
        assert "traces: 2 built, 2 reused; reports: 2 reused" in out
        assert "by op" not in out

    def test_serve_stream(self, capsys):
        code = main(["serve-stream", "--frames", "3", "--scale", "0.12",
                     "--benchmark", "MinkNet(o)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 3/3 frames" in out
        assert "geometry-only: yes" in out
        assert "by op" not in out

    def test_no_batch_is_a_clear_error(self, capsys):
        """A script still passing the removed --no-batch fails at once,
        with an error that names the flag, instead of serving."""
        with pytest.raises(SystemExit) as exc:
            main(["serve-stream", "--frames", "1", "--no-batch"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --no-batch" in captured.err
        assert "served" not in captured.out

    def test_serve_stream_cluster_with_deadlines(self, capsys):
        code = main(["serve-stream", "--frames", "2", "--scale", "0.1",
                     "--benchmark", "PointNet++(c)", "--shards", "2",
                     "--deadline-ms", "1e9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 2/2 frames" in out
        assert "met" in out

    def test_bench_stream_with_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "BENCH_stream.json"
        code = main(["bench-stream", "--frames", "2", "--scale", "0.12",
                     "--json", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bit-identical: yes" in out
        payload = json.loads(path.read_text())
        assert payload["command"] == "bench-stream"
        assert payload["mismatches"] == 0
        assert payload["speedup"] > 0
        assert "tiles" not in payload and "tile_size" not in payload

    def test_serve_stream_with_trace_and_metrics(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(["serve-stream", "--frames", "2", "--scale", "0.12",
                     "--benchmark", "PointNet++(c)",
                     "--trace", str(trace), "--metrics", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote {trace}" in out
        roots = [json.loads(line) for line in
                 trace.read_text().strip().splitlines()]
        assert [r["name"] for r in roots] == ["frame", "frame"]
        names = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            names.add(node["name"])
            stack.extend(node.get("children", ()))
        assert {"frame", "request", "trace_build", "backend"} <= names
        snapshot = json.loads(metrics.read_text())
        assert snapshot["histograms"]["span_ms.frame"]["count"] == 2
        assert snapshot["counters"]["spans.frame"] == 2
        # The flight-recorder sidecar retains the same frames.
        flight = tmp_path / "trace.flight.jsonl"
        assert flight.exists()
        records = [json.loads(line) for line in
                   flight.read_text().strip().splitlines()]
        assert all(r["kind"] == "slow" for r in records)

    def test_trace_report_renders_phases_and_slow_frames(self, tmp_path,
                                                         capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["serve-stream", "--frames", "2", "--scale", "0.12",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(trace), "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "self ms" in out
        assert "top 1 slow frame(s):" in out
        assert "frame(index=" in out

    def test_trace_report_missing_file_exits_2(self, capsys):
        assert main(["trace-report", "/nonexistent/trace.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_report_empty_file_exits_0(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace-report", str(empty)]) == 0
        assert "empty (no spans)" in capsys.readouterr().out

    def test_trace_report_skips_malformed_lines(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["serve-stream", "--frames", "2", "--scale", "0.12",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        dirty = tmp_path / "dirty.jsonl"
        dirty.write_text("garbage {\n" + trace.read_text() + "[]\n")
        assert main(["trace-report", str(dirty)]) == 0
        out = capsys.readouterr().out
        assert "warning: skipped 2 malformed line(s)" in out
        assert "phase" in out  # the good lines still produce the report

    def test_trace_report_joins_ledger_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        ledger = tmp_path / "ledger.jsonl"
        assert main(["serve-stream", "--frames", "2", "--scale", "0.12",
                     "--benchmark", "PointNet++(c)",
                     "--trace", str(trace), "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(trace),
                     "--ledger-file", str(ledger)]) == 0
        out = capsys.readouterr().out
        # The session's store keeps one trace: frame 1's build evicts
        # frame 0's, and the report joins the eviction to frame 1.
        (event,) = [json.loads(line) for line in ledger.read_text().splitlines()]
        assert (event["kind"], event["tier"], event["frame"]) == (
            "eviction", "memory", "f1")
        assert f"ledger {ledger}: 1 event(s)" in out
        assert "evictions by tier:" in out
        assert "top 2 slow frame(s):" in out
        slow = out.split("top 2 slow frame(s):")[1].split(f"ledger {ledger}")[0]
        evicted = {block.split(",")[0]: "evicted entries: 1" in block
                   for block in slow.split("  frame(")[1:]}
        assert evicted == {"index=0": False, "index=1": True}

    def test_trace_diff_cli_self_diff(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["serve-stream", "--frames", "2", "--scale", "0.12",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        out_json = tmp_path / "diff.json"
        assert main(["trace-diff", str(trace), str(trace),
                     "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "verdict: no self-time delta" in out
        assert json.loads(out_json.read_text())["total_delta_ms"] == 0.0

    def test_trace_diff_missing_file_exits_2(self, capsys):
        assert main(["trace-diff", "/nonexistent/a.jsonl",
                     "/nonexistent/b.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_fleet(self, capsys):
        code = main(["serve-fleet", "--streams", "2", "--frames", "2",
                     "--scale", "0.12", "--shards", "1",
                     "--benchmark", "PointNet++(c)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 4/4 frames from 2 streams" in out
        assert "stream veh0: 2/2 completed" in out
        assert "by op" not in out

    def test_serve_fleet_disjoint(self, capsys):
        code = main(["serve-fleet", "--streams", "2", "--frames", "2",
                     "--scale", "0.1", "--disjoint", "--shards", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 4/4 frames from 2 streams" in out
        assert "stream veh1: 2/2 completed" in out

    def test_bench_fleet_with_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "BENCH_fleet.json"
        code = main(["bench-fleet", "--streams", "2", "--frames", "2",
                     "--scale", "0.12", "--shards", "1",
                     "--benchmark", "PointNet++(c)",
                     "--json", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bit-identical: yes" in out
        payload = json.loads(path.read_text())
        assert payload["command"] == "bench-fleet"
        assert payload["schema"] == 1
        assert payload["mismatches"] == 0
        assert "world_tiles" not in payload and "tile_size" not in payload

    def test_bench_json_payloads_carry_schema_version(self, tmp_path,
                                                      capsys):
        """Satellite contract: every bench --json payload is versioned."""
        import json

        path = tmp_path / "BENCH_engine.json"
        code = main(["bench-engine", "--benchmarks", "PointNet++(c)",
                     "--repeats", "1", "--seeds", "1", "--scale", "0.1",
                     "--json", str(path)])
        assert code == 0
        capsys.readouterr()
        assert json.loads(path.read_text())["schema"] == 1

    def test_bench_engine_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "BENCH_engine.json"
        code = main(["bench-engine", "--benchmarks", "PointNet++(c)",
                     "--repeats", "2", "--seeds", "1", "--scale", "0.1",
                     "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["command"] == "bench-engine"
        assert payload["mismatches"] == 0
        assert payload["map_cache"]["hits"] == payload["trace_reuses"] == 1

    def test_bench_cluster_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "BENCH_cluster.json"
        code = main(["bench-cluster", "--benchmarks", "PointNet++(c)",
                     "--repeats", "2", "--seeds", "1", "--scale", "0.1",
                     "--shards", "2", "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["command"] == "bench-cluster"
        assert payload["speedup"] > 0
        assert len(payload["shard_requests"]) == 2


class TestErrorPaths:
    """Unknown backends/benchmarks and malformed request files must exit 2
    with a stderr message naming the problem — never a traceback."""

    def test_run_unknown_machine(self, capsys):
        assert main(["run", "PointNet", "--machine", "TPUv9",
                     "--scale", "0.08"]) == 2
        err = capsys.readouterr().err
        assert "unknown machine" in err and "TPUv9" in err

    @pytest.mark.parametrize("command", ["serve-sim", "serve-cluster"])
    def test_unknown_backend(self, command, capsys):
        assert main([command, "--backends", "abacus", "--requests", "1"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve-sim", "serve-cluster",
                                         "bench-engine", "bench-cluster"])
    def test_unknown_benchmark(self, command, capsys):
        assert main([command, "--benchmarks", "AlexNet"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    @pytest.mark.parametrize("payload,fragment", [
        ("{broken json", "malformed JSON"),
        ('{"scale": 0.5}', "benchmark"),
        ('{"benchmark": "PointNet", "turbo": 1}', "unknown request field"),
        ('{"benchmark": "PointNet", "scale": true}', "field 'scale' has type"),
        ("", "no requests"),
    ])
    @pytest.mark.parametrize("command", ["serve-sim", "serve-cluster"])
    def test_malformed_request_file(self, command, payload, fragment,
                                    tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(payload + "\n")
        assert main([command, "--request-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert fragment in err and err.startswith("error:")

    @pytest.mark.parametrize("command", ["serve-sim", "serve-cluster"])
    def test_missing_request_file(self, command, tmp_path, capsys):
        code = main([command, "--request-file",
                     str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "cannot read request file" in capsys.readouterr().err

    def test_bad_shard_and_window_counts(self, capsys):
        assert main(["serve-cluster", "--shards", "0", "--requests", "1"]) == 2
        assert "--shards" in capsys.readouterr().err
        assert main(["serve-cluster", "--window", "0", "--requests", "1"]) == 2
        assert "--window" in capsys.readouterr().err
