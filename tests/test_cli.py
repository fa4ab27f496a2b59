"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["rank"])
        assert args.n == 1 << 20
        assert args.algorithm == "sublist"
        assert args.layout == "random"

    def test_rejects_bad_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rank", "--algorithm", "quantum"])

    def test_rejects_bad_machine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--machine", "cray3"])

    def test_batch_defaults(self):
        args = build_parser().parse_args(["batch"])
        assert args.count == 64
        assert args.min_n == 64
        assert args.workers == 1
        assert not args.no_cache

    @pytest.mark.parametrize(
        "flags",
        [
            ["--executor", "processes"],
            ["--distributed"],
            ["--memmap"],
            ["--chunk-nodes", "1024"],
            ["--memory-budget-mb", "8"],
        ],
        ids=["processes", "distributed", "memmap", "chunk-nodes", "memory-budget-mb"],
    )
    def test_batch_rejects_the_scale_out_flags(self, flags, capsys):
        # the process executor and the sharded/out-of-core scan are gone
        with pytest.raises(SystemExit) as exc:
            main(["batch", "-n", "64", "--count", "2", *flags])
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_serve_rejects_the_processes_executor(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--executor", "processes"])
        assert exc.value.code == 2

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8090
        assert args.max_batch == 1024
        assert args.rate is None
        assert not args.allow_shutdown

    def test_bench_client_defaults(self):
        args = build_parser().parse_args(["bench-client"])
        assert args.clients == 4
        assert args.requests == 100
        assert args.sizes == "16,64,256"
        assert args.poison == 0
        assert not args.shutdown


class TestCommands:
    def test_rank(self, capsys):
        assert main(["rank", "-n", "5000", "--algorithm", "wyllie"]) == 0
        out = capsys.readouterr().out
        assert "ranked 5,000 nodes" in out
        assert "tail rank 4999" in out

    def test_scan(self, capsys):
        assert main(["scan", "-n", "3000", "--op", "max", "--inclusive"]) == 0
        out = capsys.readouterr().out
        assert "inclusive max-scan" in out

    def test_scan_sum_matches_length(self, capsys):
        # unit values: exclusive sum at the tail is n − 1
        assert main(["scan", "-n", "1000", "--algorithm", "serial"]) == 0
        out = capsys.readouterr().out
        assert "scan at tail = 999" in out

    def test_batch(self, capsys):
        assert main(
            ["batch", "--count", "24", "--min-n", "16", "-n", "2000"]
        ) == 0
        out = capsys.readouterr().out
        assert "batch of 24 lists" in out
        assert "throughput" in out
        assert "engine stats" in out

    def test_batch_repeat_hits_cache(self, capsys):
        assert main(
            ["batch", "--count", "8", "--min-n", "8", "-n", "200",
             "--repeat", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "cache hits" in out

    def test_batch_rejects_bad_min_n(self, capsys):
        assert main(["batch", "--min-n", "0"]) == 2

    def test_batch_stats_prints_snapshot_json(self, capsys):
        import json

        assert main(
            ["batch", "--count", "8", "--min-n", "8", "-n", "200", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        # the snapshot block is the same serializer the serve layer's
        # /stats endpoint returns: find it and parse it
        start = out.index('{\n  "requests"')
        snapshot = json.loads(out[start : out.rindex("}") + 1])
        assert snapshot["requests"] == 8
        assert snapshot["latency"]["execute"]["count"] >= 1
        assert "shed" in snapshot

    def test_bench_client_rejects_bad_sizes(self, capsys):
        assert main(["bench-client", "--sizes", "16,frog"]) == 2
        assert main(["bench-client", "--sizes", "0,4"]) == 2

    def test_bench_client_reports_unreachable_server(self, capsys):
        # nothing listens on this port; must fail fast, not hang
        assert main(
            ["bench-client", "--port", "1", "--clients", "1", "--requests", "1"]
        ) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_bench_client_stats_prints_containment_counters(self, capsys):
        import asyncio
        import re
        import threading

        from repro.engine import Engine
        from repro.serve import ScanServer, ServeConfig

        server = ScanServer(
            Engine(executor="sync"), ServeConfig(port=0, allow_shutdown=True)
        )
        started = threading.Event()

        async def serve():
            await server.start()
            started.set()
            await server.wait_closed()

        # a daemon, so a failed run cannot keep the suite from exiting
        thread = threading.Thread(target=asyncio.run, args=(serve(),), daemon=True)
        thread.start()
        try:
            assert started.wait(timeout=30)
            assert main(
                ["bench-client", "--port", str(server.port), "--clients", "2",
                 "--requests", "8", "--sizes", "16,64", "--poison", "4",
                 "--stats", "--shutdown"]
            ) == 0
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        line = re.search(
            r"server retries (\d+)  quarantined (\d+)  solo runs (\d+)  "
            r"fused lists (\d+)",
            capsys.readouterr().out,
        )
        assert line is not None
        snap = server.engine.stats.snapshot()
        assert [int(v) for v in line.groups()] == [
            snap["retries"], snap["quarantined"], snap["solo_runs"], snap["fused_lists"]
        ]
        # every poisoned request sent (2 clients x requests 4 and 8) reaches
        # the kernels: the clients' poison differs, so none coalesce
        assert snap["quarantined"] == 4

    @pytest.mark.parametrize("algo", ["sublist", "wyllie", "serial"])
    def test_simulate(self, algo, capsys):
        assert main(["simulate", "-n", "20000", "--algorithm", algo]) == 0
        out = capsys.readouterr().out
        assert "CRAY C-90" in out
        assert "clocks/element" in out

    def test_simulate_ymp_multiproc(self, capsys):
        assert main(
            ["simulate", "-n", "20000", "--machine", "ymp", "-p", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "CRAY Y-MP" in out
        assert "4 CPU(s)" in out

    def test_simulate_layouts(self, capsys):
        for layout in ("random", "ordered", "blocked"):
            assert main(["simulate", "-n", "8000", "--layout", layout]) == 0

    def test_tune(self, capsys):
        assert main(["tune", "-n", "65536"]) == 0
        out = capsys.readouterr().out
        assert "tuned m" in out
        assert "clocks/element" in out

    def test_figures_single(self, tmp_path, capsys):
        assert main(
            ["figures", "--only", "fig12", "--out", str(tmp_path)]
        ) == 0
        assert (tmp_path / "figure12.csv").exists()
        header = (tmp_path / "figure12.csv").read_text().splitlines()[0]
        assert header == "s,g,is_pack_point"


class TestTraceCommand:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.n == 1 << 20
        assert args.algorithm == "sublist"
        assert not args.json and not args.engine
        assert args.jsonl is None
        assert args.max_events == 40

    def test_trace_human_tree(self, capsys):
        assert main(["trace", "-n", "30000"]) == 0
        out = capsys.readouterr().out
        for name in ("list_scan", "sublist_scan", "phase1", "phase3"):
            assert name in out
        assert "observed trajectory vs Section 4 model" in out
        assert "decay-rate ratio" in out

    def test_trace_json_payload(self, capsys):
        import json

        assert main(["trace", "-n", "30000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 30000
        assert payload["compare_error"] is None
        (root,) = payload["trace"]["roots"]
        assert root["name"] == "list_scan"
        compare = payload["compare"]
        assert compare["trajectory"]["points"]
        assert compare["schedule"]["observed_packs"] > 0

    def test_trace_engine_mode(self, capsys):
        assert main(["trace", "-n", "20000", "--engine"]) == 0
        out = capsys.readouterr().out
        assert "run_batch" in out
        assert "shard" in out

    def test_trace_serial_has_no_comparison(self, capsys):
        assert main(["trace", "-n", "5000", "--algorithm", "serial"]) == 0
        out = capsys.readouterr().out
        assert "no model comparison" in out

    def test_trace_jsonl_export(self, tmp_path, capsys):
        import json

        path = tmp_path / "spans.jsonl"
        assert main(["trace", "-n", "20000", "--jsonl", str(path)]) == 0
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows and rows[0]["name"] == "list_scan"
        assert f"wrote {len(rows)} span(s)" in capsys.readouterr().out
