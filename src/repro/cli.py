"""Command-line interface: ``python -m repro`` or the ``repro-c90`` script.

Subcommands
-----------

``rank``      rank a generated list with a chosen algorithm, report timing
``scan``      scan a generated list under an operator
``batch``     run many lists through the batched execution engine and
              report throughput vs. sequential calls
``simulate``  run an algorithm on the simulated Cray C-90 / Y-MP and
              print the cycle breakdown
``tune``      show the model-tuned parameters and pack schedule for a size
``figures``   dump the CSV series of the paper's figures
``trace``     run one traced scan, print the span tree and the
              model-vs-observed deviation report (``--json`` for the
              machine-readable artifact, ``--engine`` to serve the scan
              through a traced engine)
``lint``      run the project-invariant static analyzer (``repro.lint``)
              over source paths; exits non-zero on findings
``sanitize``  run the concurrency & resource sanitizer suite
              (``repro.sanitize``): the sanitizer-specific static rules
              plus dynamic execution of any ``exercise()`` corpus files
              under the happens-before race detector, resource ledger
              and event-loop watchdog; exit 1 on violations, 2 on
              usage/internal errors
``serve``     start the asyncio serving front-end (``repro.serve``):
              admits scan/rank requests over TCP into the engine's
              submission queue and flushes whatever is queued whenever
              the engine is free
``bench-client``  drive a running server with concurrent clients and
              report the latency histogram (the CI smoke artifact)
``calibrate`` fit/show/check host calibration profiles: refit the
              paper's cost-model coefficients from bench artifacts,
              trace payloads, or live measurement (``repro.calibrate``;
              the profile hot-swaps into engines via ``--calibration``)
``perf-gate`` compare a bench JSON artifact's speedup records against
              the committed baseline with a warn/fail tolerance band
              (the CI perf-regression gate)
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Sequence

import numpy as np

from .analysis.predict import predict_run
from .bench.figures import ALL_FIGURES
from .core.list_scan import ALGORITHMS, list_rank, list_scan
from .core.schedule import optimal_schedule
from .core.tuning import tuned_parameters
from .engine.workers import EXECUTORS
from .lists.generate import blocked_list, ordered_list, random_list
from .machine.config import CRAY_C90, CRAY_YMP
from .simulate.serial_sim import serial_scan_sim
from .simulate.sublist_sim import sublist_scan_sim
from .simulate.wyllie_sim import wyllie_scan_sim

__all__ = ["main", "build_parser"]

_LAYOUTS = {
    "random": lambda n, rng: random_list(n, rng),
    "ordered": lambda n, rng: ordered_list(n),
    "blocked": lambda n, rng: blocked_list(n, 64, rng),
}

_MACHINES = {"c90": CRAY_C90, "ymp": CRAY_YMP}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-c90",
        description="List ranking and list scan on the (simulated) Cray C-90",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-n", type=int, default=1 << 20, help="list length")
        p.add_argument(
            "--layout", choices=sorted(_LAYOUTS), default="random",
            help="memory layout of the generated list",
        )
        p.add_argument("--seed", type=int, default=0)

    p_rank = sub.add_parser("rank", help="rank a generated list")
    common(p_rank)
    p_rank.add_argument(
        "--algorithm", choices=ALGORITHMS, default="sublist"
    )

    p_scan = sub.add_parser("scan", help="scan a generated list")
    common(p_scan)
    p_scan.add_argument(
        "--algorithm", choices=ALGORITHMS, default="sublist"
    )
    p_scan.add_argument(
        "--op", default="sum", help="operator name (sum, max, min, …)"
    )
    p_scan.add_argument("--inclusive", action="store_true")

    p_batch = sub.add_parser(
        "batch", help="run many lists through the batched engine"
    )
    common(p_batch)
    p_batch.add_argument(
        "--count", type=int, default=64, help="number of lists in the batch"
    )
    p_batch.add_argument(
        "--min-n", type=int, default=64,
        help="smallest list length (sizes are log-uniform in [min-n, n])",
    )
    p_batch.add_argument(
        "--op", default="sum", help="operator name (sum, max, min, …)"
    )
    p_batch.add_argument("--inclusive", action="store_true")
    p_batch.add_argument(
        "--executor", choices=EXECUTORS, default="threads",
        help="execution backend: sync (no pool) or threads (persistent "
             "thread pool)",
    )
    p_batch.add_argument(
        "--workers", type=int, default=1,
        help="worker-pool width for the threads executor "
             "(>1 executes shards concurrently)",
    )
    p_batch.add_argument(
        "--repeat", type=int, default=1,
        help="resubmit the whole batch this many times (exercises the cache)",
    )
    p_batch.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    p_batch.add_argument(
        "--stats", action="store_true",
        help="print the engine health counters (errors, retries, "
             "quarantined, coalesced, cache, routing) after the run",
    )
    p_batch.add_argument(
        "--poison", type=int, default=0, metavar="K",
        help="corrupt K of the generated lists (out-of-range successor) "
             "to exercise the per-request error channel",
    )
    p_batch.add_argument(
        "--calibration", metavar="PROFILE", default=None,
        help="route on a fitted calibration profile (JSON from "
             "`repro-c90 calibrate fit`) instead of the paper's C-90 "
             "table; also arms the drift detector",
    )

    p_sim = sub.add_parser("simulate", help="run on the simulated machine")
    common(p_sim)
    p_sim.add_argument(
        "--algorithm", choices=("sublist", "wyllie", "serial"), default="sublist"
    )
    p_sim.add_argument("--machine", choices=sorted(_MACHINES), default="c90")
    p_sim.add_argument("-p", "--processors", type=int, default=1)

    p_tune = sub.add_parser("tune", help="model-tuned parameters for a size")
    p_tune.add_argument("-n", type=int, default=1 << 20)

    p_trace = sub.add_parser(
        "trace",
        help="trace one scan and compare the observed trajectory "
             "against the Section 4 model",
    )
    common(p_trace)
    p_trace.add_argument(
        "--algorithm", choices=ALGORITHMS, default="sublist"
    )
    p_trace.add_argument(
        "--op", default="sum", help="operator name (sum, max, min, …)"
    )
    p_trace.add_argument("--inclusive", action="store_true")
    p_trace.add_argument(
        "--engine", action="store_true",
        help="serve the scan through a traced Engine (records the "
             "run_batch/shard/route spans around the kernel)",
    )
    p_trace.add_argument(
        "--json", action="store_true",
        help="emit {'trace': …, 'compare': …} as JSON instead of the "
             "human tree",
    )
    p_trace.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="additionally write the span stream (one JSON object per "
             "span) to PATH",
    )
    p_trace.add_argument(
        "--max-events", type=int, default=40,
        help="events shown per span in the human tree",
    )

    p_lint = sub.add_parser(
        "lint",
        help="run the project-invariant static analyzer over source paths",
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report (the CI artifact) "
             "instead of the human listing",
    )
    p_lint.add_argument(
        "--rules", default=None, metavar="R1,R2",
        help="comma-separated subset of rules to run (default: all); "
             "suppressions of unselected rules are never reported stale",
    )
    p_lint.add_argument(
        "--no-unused-suppressions", action="store_true",
        help="skip the stale `# repolint: disable` check",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog (name, scope, rationale) and exit",
    )

    p_sanitize = sub.add_parser(
        "sanitize",
        help="run the concurrency & resource sanitizer suite over paths",
    )
    p_sanitize.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to sanitize (default: src)",
    )
    p_sanitize.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report (the CI artifact) "
             "instead of the human listing",
    )
    p_sanitize.add_argument(
        "--static-only", action="store_true",
        help="skip the dynamic pass (don't import or run exercise() "
             "corpus files found under the paths)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="serve scan/rank requests over TCP through the batched engine",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8090,
        help="TCP port (0 picks a free port; it is printed at startup)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=1024,
        help="most requests drained into one run_batch call "
             "(1 disables batching)",
    )
    p_serve.add_argument(
        "--rate", type=float, default=None,
        help="per-client sustained requests/second (token bucket; "
             "default: no rate limit)",
    )
    p_serve.add_argument(
        "--burst", type=float, default=32.0,
        help="per-client burst allowance for the token bucket",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=256,
        help="per-client cap on admitted-but-unanswered requests",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=1024,
        help="submission-queue depth; beyond it requests are shed with "
             "a structured 'overloaded' error",
    )
    p_serve.add_argument(
        "--executor", choices=EXECUTORS,
        default="threads", help="engine execution backend",
    )
    p_serve.add_argument(
        "--workers", type=int, default=None,
        help="worker-pool width for the threads executor",
    )
    p_serve.add_argument(
        "--allow-shutdown", action="store_true",
        help="honor the {'type': 'shutdown'} admin message (used by the "
             "CI smoke job); off by default",
    )
    p_serve.add_argument(
        "--stats-interval", type=float, default=0.0,
        help="seconds between stats-snapshot lines on stderr (0 = off)",
    )
    p_serve.add_argument(
        "--calibration", metavar="PROFILE", default=None,
        help="route on a fitted calibration profile (JSON from "
             "`repro-c90 calibrate fit`); drift counters appear in "
             "the /stats snapshot",
    )

    p_bc = sub.add_parser(
        "bench-client",
        help="drive a running server with concurrent clients and report "
             "the latency histogram",
    )
    p_bc.add_argument("--host", default="127.0.0.1")
    p_bc.add_argument("--port", type=int, default=8090)
    p_bc.add_argument(
        "--clients", type=int, default=4, help="concurrent connections"
    )
    p_bc.add_argument(
        "--requests", type=int, default=100, help="requests per client"
    )
    p_bc.add_argument(
        "--sizes", default="16,64,256",
        help="comma-separated list lengths cycled through per client",
    )
    p_bc.add_argument(
        "--poison", type=int, default=0, metavar="K",
        help="make every K-th request per client structurally broken "
             "(must come back as a structured error; 0 = none)",
    )
    p_bc.add_argument("--op", default="sum")
    p_bc.add_argument("--algorithm", default="auto")
    p_bc.add_argument(
        "--outstanding", type=int, default=32,
        help="max in-flight requests per connection",
    )
    p_bc.add_argument(
        "--no-verify", action="store_true",
        help="skip bit-identical verification against list_scan",
    )
    p_bc.add_argument("--seed", type=int, default=0)
    p_bc.add_argument(
        "--stats", action="store_true",
        help="fetch the server stats snapshot into the report and print "
             "its containment counters",
    )
    p_bc.add_argument(
        "--shutdown", action="store_true",
        help="send the admin shutdown message after the run (server "
             "must have --allow-shutdown)",
    )
    p_bc.add_argument(
        "--json", metavar="PATH", default=None, dest="json_out",
        help="write the full JSON report (latency histogram included) "
             "to PATH — the CI smoke job's artifact",
    )

    p_cal = sub.add_parser(
        "calibrate",
        help="fit/show/check host calibration profiles for cost-model "
             "routing",
    )
    cal_sub = p_cal.add_subparsers(dest="calibrate_cmd", required=True)

    p_cal_fit = cal_sub.add_parser(
        "fit", help="fit a profile from bench/trace artifacts or live timing"
    )
    p_cal_fit.add_argument(
        "--from-bench", action="append", default=[], metavar="PATH",
        help="bench JSON artifact (write_records_json output; repeatable)",
    )
    p_cal_fit.add_argument(
        "--from-trace", action="append", default=[], metavar="PATH",
        help="`repro-c90 trace --json` payload (repeatable)",
    )
    p_cal_fit.add_argument(
        "--live", action="store_true",
        help="measure fit samples directly on this machine (a few seconds)",
    )
    p_cal_fit.add_argument(
        "--out", "-o", default="calibration.json", metavar="PATH",
        help="where to write the fitted profile",
    )
    p_cal_fit.add_argument(
        "--no-tune", action="store_true",
        help="skip the m(n)/S1(n) tuning-polynomial refit (faster)",
    )
    p_cal_fit.add_argument(
        "--repeats", type=int, default=3,
        help="timed repetitions per live-measurement cell (min is kept)",
    )
    p_cal_fit.add_argument("--seed", type=int, default=0)

    p_cal_show = cal_sub.add_parser(
        "show", help="print a profile's coefficients and fit metadata"
    )
    p_cal_show.add_argument("profile", help="profile JSON path")
    p_cal_show.add_argument(
        "--json", action="store_true", help="emit the raw profile JSON"
    )

    p_cal_check = cal_sub.add_parser(
        "check",
        help="validate a profile (schema, finite/positive coefficients); "
             "exit 1 on an absurd or malformed profile",
    )
    p_cal_check.add_argument("profile", help="profile JSON path")

    p_gate = sub.add_parser(
        "perf-gate",
        help="compare bench speedup records against the committed "
             "baseline (warn/fail tolerance band)",
    )
    p_gate.add_argument(
        "--baseline", default="benchmarks/baselines/speedups-smoke.json",
        metavar="PATH", help="committed baseline JSON",
    )
    p_gate.add_argument(
        "--report", required=True, metavar="PATH",
        help="bench JSON artifact from this run (write_records_json output)",
    )
    p_gate.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write the comparison report (the CI artifact) to PATH",
    )
    p_gate.add_argument(
        "--warn-ratio", type=float, default=None,
        help="warn when a ratio regresses beyond this factor (default 1.5)",
    )
    p_gate.add_argument(
        "--fail-ratio", type=float, default=None,
        help="fail when a ratio regresses beyond this factor (default 2.0)",
    )
    p_gate.add_argument(
        "--warn-only", action="store_true",
        help="advisory mode: report regressions but always exit 0 "
             "(used when sweep sizes differ from the baseline's)",
    )
    p_gate.add_argument(
        "--update-baseline", action="store_true",
        help="instead of gating, rewrite --baseline from --report's "
             "records (run locally to refresh the committed file)",
    )

    p_fig = sub.add_parser("figures", help="dump figure CSV series")
    p_fig.add_argument(
        "--out", default="figures", help="output directory for CSV files"
    )
    p_fig.add_argument(
        "--only",
        choices=sorted(ALL_FIGURES),
        default=None,
        help="dump a single figure",
    )
    return parser


def _make_list(args: argparse.Namespace):
    rng = np.random.default_rng(args.seed)
    lst = _LAYOUTS[args.layout](args.n, rng)
    return lst, rng


def _cmd_rank(args: argparse.Namespace) -> int:
    lst, rng = _make_list(args)
    t0 = time.perf_counter()
    ranks = list_rank(lst, algorithm=args.algorithm, rng=rng)
    dt = time.perf_counter() - t0
    print(f"ranked {args.n:,} nodes with {args.algorithm} in {dt:.3f}s "
          f"({1e9 * dt / args.n:.1f} ns/element host time)")
    print(f"head rank {ranks[lst.head]}, tail rank {ranks[lst.tail]}")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    lst, rng = _make_list(args)
    t0 = time.perf_counter()
    out = list_scan(
        lst, args.op, inclusive=args.inclusive,
        algorithm=args.algorithm, rng=rng,
    )
    dt = time.perf_counter() - t0
    kind = "inclusive" if args.inclusive else "exclusive"
    print(f"{kind} {args.op}-scan of {args.n:,} nodes with "
          f"{args.algorithm} in {dt:.3f}s")
    print(f"scan at tail = {out[lst.tail]}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .bench.harness import format_table
    from .engine import Engine, ScanRequest
    from .lists.generate import random_values

    if args.min_n < 1 or args.min_n > args.n:
        print("batch: --min-n must satisfy 1 <= min-n <= n", file=sys.stderr)
        return 2
    if args.poison < 0 or args.poison > args.count:
        print("batch: --poison must satisfy 0 <= K <= count", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    sizes = np.exp(
        rng.uniform(np.log(args.min_n), np.log(args.n + 1), args.count)
    ).astype(np.int64)
    sizes = np.clip(sizes, args.min_n, args.n)
    lists = [
        _LAYOUTS[args.layout](int(sz), rng)
        for sz in sizes
    ]
    for lst in lists:
        lst.values = random_values(lst.n, rng)

    poisoned = set()
    if args.poison:
        poisoned = {int(i) for i in rng.choice(args.count, args.poison, replace=False)}
        for i in poisoned:
            lists[i].next[lists[i].n // 2] = -1  # out-of-range successor

    # sequential baseline: one dispatch-API call per healthy list
    healthy = [i for i in range(args.count) if i not in poisoned]
    t0 = time.perf_counter()
    seq = {
        i: list_scan(
            lists[i], args.op, inclusive=args.inclusive, algorithm="auto", rng=rng
        )
        for i in healthy
    }
    t_seq = time.perf_counter() - t0

    try:
        calibration = _load_calibration(args.calibration)
    except ValueError as exc:
        print(f"batch: --calibration: {exc}", file=sys.stderr)
        return 2
    engine = Engine(
        cache_capacity=0 if args.no_cache else max(256, 2 * args.count),
        executor=args.executor,
        max_workers=args.workers,
        calibration=calibration,
    )
    with engine:
        t0 = time.perf_counter()
        for _ in range(args.repeat):
            responses = engine.run_batch(
                [
                    ScanRequest(
                        lst=lst, op=args.op, inclusive=args.inclusive, tag=i
                    )
                    for i, lst in enumerate(lists)
                ]
            )
        t_eng = (time.perf_counter() - t0) / args.repeat

    failures = [resp for resp in responses if not resp.ok]
    mismatches = sum(
        not (responses[i].ok and np.array_equal(responses[i].result, seq[i]))
        for i in healthy
    )
    total_nodes = int(sizes.sum())

    print(f"batch of {args.count} lists, {total_nodes:,} nodes total")
    speedup = t_seq / t_eng if t_eng > 0 else float("inf")
    print()
    print(format_table(
        ["driver", "seconds", "Mnodes/s"],
        [
            ["sequential list_scan", t_seq, total_nodes / t_seq / 1e6],
            [f"engine ({args.executor}, {args.workers} worker(s), "
             f"{engine.kernel_backend} kernels)", t_eng,
             total_nodes / t_eng / 1e6],
        ],
        title=f"throughput (speedup {speedup:.2f}x)",
    ))
    if failures:
        print()
        print(f"{len(failures)} request(s) failed (healthy requests "
              "still returned results):")
        for resp in failures:
            err = resp.error
            print(f"  list {resp.tag} ({resp.n:,} nodes): "
                  f"{err.phase} [{err.code}] {err.message}")
    print()
    print(format_table(["counter", "value"], engine.stats.as_rows(),
                       title="engine stats"))
    if args.stats:
        import json

        st = engine.stats
        print()
        print(format_table(
            ["counter", "value"],
            [["errors", st.errors], ["retries", st.retries],
             ["quarantined", st.quarantined], ["coalesced", st.coalesced]],
            title="engine health counters",
        ))
        # the same serializer the serving front-end's /stats endpoint
        # returns (EngineStats.snapshot)
        print()
        snap = engine.stats.snapshot()
        if args.calibration:
            snap["calibration"] = engine.calibration_snapshot()
        print(json.dumps(snap, indent=2))
    if mismatches:
        print(f"ERROR: {mismatches} result(s) differ from sequential list_scan",
              file=sys.stderr)
        return 1
    if len(failures) != args.poison:
        # every poisoned request must fail, every healthy one succeed
        print(f"ERROR: expected {args.poison} failed request(s) per run, "
              f"saw {len(failures)}", file=sys.stderr)
        return 1
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    lst, rng = _make_list(args)
    config = _MACHINES[args.machine]
    if args.algorithm == "sublist":
        res = sublist_scan_sim(lst, config=config,
                               n_processors=args.processors, rng=rng)
    elif args.algorithm == "wyllie":
        res = wyllie_scan_sim(lst, config=config, n_processors=args.processors)
    else:
        res = serial_scan_sim(lst, config=config)
    print(f"{args.algorithm} on {res.config.name}, "
          f"{res.n_processors} CPU(s), n = {args.n:,}")
    print(f"  {res.cycles:,.0f} clocks = {res.time_ns / 1e6:.3f} ms simulated")
    print(f"  {res.cycles_per_element:.2f} clocks/element "
          f"({res.ns_per_element:.1f} ns/element)")
    if res.breakdown:
        print("  breakdown:")
        for name, cyc in sorted(res.breakdown.items(), key=lambda kv: -kv[1]):
            print(f"    {name:<20} {cyc:>14,.0f}  ({100 * cyc / res.cycles:4.1f}%)")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    n = args.n
    m, s1 = tuned_parameters(n)
    sch = optimal_schedule(n, m, s1)
    pred = predict_run(n)
    print(f"n = {n:,}")
    print(f"tuned m  = {m} sublists (mean length {n / m:.1f})")
    print(f"tuned S1 = {s1:.2f} traversal steps before the first pack")
    print(f"schedule = {len(sch)} packs, last at step {sch[-1]:.0f}")
    print(f"predicted: {pred.clocks_per_element:.2f} clocks/element "
          f"({pred.ns_per_element:.1f} ns/element on the C-90)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .bench.harness import format_table
    from .trace import Tracer, compare_trace, format_tree, trace_to_dict

    lst, rng = _make_list(args)
    tracer = Tracer()
    t0 = time.perf_counter()
    if args.engine:
        from .engine import Engine

        engine = Engine(trace=tracer)
        out = engine.scan(
            lst, args.op, inclusive=args.inclusive, algorithm=args.algorithm
        )
    else:
        out = list_scan(
            lst, args.op, inclusive=args.inclusive,
            algorithm=args.algorithm, rng=rng, trace=tracer,
        )
    dt = time.perf_counter() - t0

    report = None
    report_error = None
    try:
        report = compare_trace(tracer)
    except ValueError as exc:
        # e.g. a serial/wyllie run records no sublist trajectory
        report_error = str(exc)

    if args.jsonl:
        from .trace import write_jsonl

        with open(args.jsonl, "w") as fp:
            lines = write_jsonl(tracer, fp)
        if not args.json:
            print(f"wrote {lines} span(s) to {args.jsonl}")

    if args.json:
        payload = {
            "n": args.n,
            "layout": args.layout,
            "algorithm": args.algorithm,
            "engine": args.engine,
            "seconds": dt,
            "trace": trace_to_dict(tracer),
            "compare": report.as_dict() if report is not None else None,
            "compare_error": report_error,
        }
        print(json.dumps(payload, indent=2))
        return 0

    print(format_tree(tracer, max_events=args.max_events))
    print()
    if report is not None:
        print(format_table(
            ["metric", "value"],
            report.summary_rows(),
            title="observed trajectory vs Section 4 model",
        ))
    else:
        print(f"no model comparison: {report_error}")
    print()
    print(f"scan of {args.n:,} nodes ({args.algorithm}) in {dt:.3f}s; "
          f"scan at tail = {out[lst.tail]}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import all_rules, get_rule, lint_paths, render_human, render_json

    if args.list_rules:
        for rule in all_rules():
            scope = ", ".join(rule.paths) if rule.paths else "all files"
            print(f"{rule.name}  [{scope}]")
            print(f"    {rule.rationale}")
            if rule.hint:
                print(f"    fix: {rule.hint}")
        return 0
    rules = None
    if args.rules:
        try:
            rules = [
                get_rule(name.strip())
                for name in args.rules.split(",")
                if name.strip()
            ]
        except KeyError as exc:
            print(f"lint: {exc.args[0]}", file=sys.stderr)
            return 2
    try:
        result = lint_paths(
            args.paths,
            rules=rules,
            check_unused=not args.no_unused_suppressions,
        )
    except FileNotFoundError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    print(render_json(result) if args.json else render_human(result))
    return result.exit_code()


#: the lint rules that belong to the sanitizer suite (the ``sanitize``
#: subcommand's static pass); ``lint`` runs them too as part of its
#: full catalog
SANITIZER_RULES = (
    "no-blocking-in-async",
    "lock-guard-inference",
)


def _cmd_sanitize(args: argparse.Namespace) -> int:
    import json as json_mod

    from .lint import get_rule, lint_paths
    from .lint.runner import collect_files
    from .sanitize.exercise import has_exercise, run_exercise

    rules = [get_rule(name) for name in SANITIZER_RULES]
    try:
        static = lint_paths(args.paths, rules=rules, check_unused=False)
        files = collect_files(args.paths)
    except FileNotFoundError as exc:
        print(f"sanitize: {exc}", file=sys.stderr)
        return 2

    dynamic = []
    if not args.static_only:
        for path in files:
            if has_exercise(path):
                dynamic.append(run_exercise(path))

    errors = len(static.diagnostics)
    warnings = 0
    internal = 0
    for result in dynamic:
        if result.error:
            internal += 1
        for finding in result.findings:
            if finding.severity == "error":
                errors += 1
            else:
                warnings += 1

    if args.json:
        report = {
            "paths": list(args.paths),
            "rules": list(SANITIZER_RULES),
            "static": [d.as_dict() for d in static.diagnostics],
            "dynamic": [
                {
                    "path": str(r.path),
                    "error": r.error,
                    "findings": [
                        {
                            "check": f.check,
                            "severity": f.severity,
                            "message": f.message,
                            "site": f.site,
                        }
                        for f in r.findings
                    ],
                }
                for r in dynamic
            ],
            "errors": errors,
            "warnings": warnings,
            "internal_errors": internal,
        }
        print(json_mod.dumps(report, indent=2))
    else:
        for diag in sorted(static.diagnostics):
            print(diag.format())
        for result in dynamic:
            for finding in result.findings:
                print(
                    f"{result.path}: [{finding.severity}] "
                    f"{finding.check}: {finding.message}"
                )
            if result.error:
                print(f"{result.path}: exercise failed: {result.error}")
        exercised = sum(1 for r in dynamic if not r.error)
        verdict = "clean" if not (errors or warnings) else "violations"
        print(
            f"sanitize: {verdict}: {len(files)} file(s), "
            f"{len(rules)} static rule(s), {exercised} exercised, "
            f"{errors} error(s), {warnings} warning(s)"
        )
    if internal:
        return 2
    return 1 if errors else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import signal

    from .engine import Engine
    from .serve import ScanServer, ServeConfig

    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            rate=args.rate,
            burst=args.burst,
            max_inflight=args.max_inflight,
            allow_shutdown=args.allow_shutdown,
            stats_interval=args.stats_interval,
        )
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    try:
        calibration = _load_calibration(args.calibration)
    except ValueError as exc:
        print(f"serve: --calibration: {exc}", file=sys.stderr)
        return 2
    engine = Engine(
        max_pending=args.max_pending,
        executor=args.executor,
        max_workers=args.workers,
        calibration=calibration,
    )

    async def _main() -> None:
        server = ScanServer(engine, config)
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(server.shutdown())
                )
        print(
            f"serving on {config.host}:{server.port} "
            f"(executor={args.executor}, kernels={engine.kernel_backend}, "
            f"max_batch={config.max_batch}"
            f"{', allow_shutdown' if config.allow_shutdown else ''})",
            flush=True,
        )
        await server.wait_closed()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    print("server stopped", flush=True)
    return 0


def _cmd_bench_client(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .serve.client import run_bench

    try:
        sizes = tuple(
            int(tok) for tok in args.sizes.split(",") if tok.strip()
        )
    except ValueError:
        print("bench-client: --sizes must be comma-separated integers",
              file=sys.stderr)
        return 2
    if not sizes or any(sz < 1 for sz in sizes):
        print("bench-client: sizes must be positive", file=sys.stderr)
        return 2

    try:
        report = asyncio.run(run_bench(
            args.host,
            args.port,
            clients=args.clients,
            requests=args.requests,
            sizes=sizes,
            poison_every=args.poison,
            op=args.op,
            algorithm=args.algorithm,
            max_outstanding=args.outstanding,
            verify=not args.no_verify,
            seed=args.seed,
            fetch_stats=args.stats,
            shutdown=args.shutdown,
        ))
    except (ConnectionError, OSError) as exc:
        print(f"bench-client: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2

    if args.json_out:
        with open(args.json_out, "w") as fp:
            json.dump(report, fp, indent=2)

    counters = report["counters"]
    lat = report["latency"]
    print(f"{args.clients} client(s) x {args.requests} request(s) "
          f"in {report['elapsed']:.3f}s "
          f"({report['throughput_rps']:.0f} responses/s)")
    print(f"  ok {counters['ok']}  errors {counters['errors']}  "
          f"shed(retried) {counters['shed']}  gave-up {counters['gave_up']}")
    if not args.no_verify:
        print(f"  verified {counters['verified']}  "
              f"mismatched {counters['mismatched']}")
    if args.poison:
        print(f"  poison rejected {counters['poison_rejected']}  "
              f"accepted {counters['poison_accepted']}")
    if lat["count"]:
        print(f"  latency p50 {1000 * lat['p50']:.2f}ms  "
              f"p95 {1000 * lat['p95']:.2f}ms  p99 {1000 * lat['p99']:.2f}ms")
    if report.get("server_stats"):
        # containment: how much fusion the server kept under poison
        eng = report["server_stats"]["engine"]
        print(f"  server retries {eng['retries']}  quarantined {eng['quarantined']}  "
              f"solo runs {eng['solo_runs']}  fused lists {eng['fused_lists']}")
    if args.shutdown:
        print(f"  shutdown acknowledged: {report.get('shutdown')}")

    bad = (
        counters["mismatched"]
        or counters["poison_accepted"]
        or (args.shutdown and not report.get("shutdown"))
        or counters["ok"] == 0
    )
    return 1 if bad else 0


def _load_calibration(path: str | None):
    """Load a profile for ``--calibration``; raises ``ValueError`` on a
    bad file (``None`` passes through)."""
    if path is None:
        return None
    from .calibrate import load_profile

    return load_profile(path)


def _cmd_calibrate(args: argparse.Namespace) -> int:
    import json

    from .bench.harness import format_table
    from .calibrate import (
        FitError,
        ProfileError,
        fit_profile,
        load_profile,
        load_samples,
        measure_samples,
    )

    if args.calibrate_cmd == "fit":
        if not (args.from_bench or args.from_trace or args.live):
            print(
                "calibrate fit: need at least one sample source "
                "(--from-bench, --from-trace, or --live)",
                file=sys.stderr,
            )
            return 2
        samples = []
        sources = []
        try:
            for path in [*args.from_bench, *args.from_trace]:
                found = load_samples(path)
                if not found:
                    print(f"calibrate fit: {path}: no fit samples found",
                          file=sys.stderr)
                    return 2
                samples.extend(found)
                sources.append(path)
        except ProfileError as exc:
            print(f"calibrate fit: {exc}", file=sys.stderr)
            return 2
        if args.live:
            print("measuring live fit samples …", file=sys.stderr)
            samples.extend(measure_samples(repeats=args.repeats, seed=args.seed))
            sources.append("live")
        try:
            profile = fit_profile(
                samples,
                source=",".join(sources),
                created_at=time.time(),
                tune=not args.no_tune,
            )
        except FitError as exc:
            print(f"calibrate fit: {exc}", file=sys.stderr)
            return 1
        profile.save(args.out)
        print(format_table(["field", "value"], profile.summary_rows(),
                           title="fitted calibration profile"))
        print(f"\nwrote {args.out} ({len(samples)} sample(s))")
        return 0

    if args.calibrate_cmd == "show":
        try:
            profile = load_profile(args.profile)
        except ProfileError as exc:
            print(f"calibrate show: {exc}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(json.loads(profile.to_json()), indent=2))
        else:
            print(format_table(["field", "value"], profile.summary_rows(),
                               title=args.profile))
        return 0

    # check: schema + coefficient sanity; the CI calibration-smoke gate
    try:
        profile = load_profile(args.profile)
    except ProfileError as exc:
        print(f"calibrate check: FAIL: {exc}", file=sys.stderr)
        return 1
    from .engine.router import Router

    fitted = Router(costs=profile.costs)
    print(f"calibrate check: OK: {args.profile}")
    print(f"  schema v{profile.schema_version}, source={profile.source}, "
          f"kinds={','.join(profile.fitted_kinds)}")
    print(f"  wyllie->sublist crossover {fitted.crossover():,} nodes "
          f"(static C-90 table: {Router().crossover():,})")
    return 0


def _cmd_perf_gate(args: argparse.Namespace) -> int:
    import json

    from .bench.harness import format_table
    from .bench.regression import (
        FAIL_RATIO,
        GateError,
        WARN_RATIO,
        baseline_from_records,
        compare_records,
        gate_rows,
        load_baseline,
        load_bench_records,
        results_as_dict,
    )

    warn_ratio = args.warn_ratio if args.warn_ratio is not None else WARN_RATIO
    fail_ratio = args.fail_ratio if args.fail_ratio is not None else FAIL_RATIO
    try:
        records = load_bench_records(args.report)
        if args.update_baseline:
            doc = baseline_from_records(
                records, created_at=time.time(),
                note=f"refreshed from {args.report}",
            )
            with open(args.baseline, "w") as fp:
                json.dump(doc, fp, indent=2)
                fp.write("\n")
            print(f"perf-gate: wrote {len(doc['records'])} baseline "
                  f"ratio(s) to {args.baseline}")
            return 0
        baseline = load_baseline(args.baseline)
        results = compare_records(
            records, baseline, warn_ratio=warn_ratio, fail_ratio=fail_ratio
        )
    except (GateError, ValueError) as exc:
        print(f"perf-gate: {exc}", file=sys.stderr)
        return 2

    print(format_table(
        ["benchmark", "baseline", "measured", "regression", "status"],
        gate_rows(results),
        title=f"perf gate: warn >{warn_ratio}x, fail >{fail_ratio}x "
              f"(ratios are speedups; regression = baseline/measured)",
    ))
    report = results_as_dict(results, warn_ratio, fail_ratio)
    if args.json_out:
        with open(args.json_out, "w") as fp:
            json.dump(report, fp, indent=2)
        print(f"\nwrote comparison report to {args.json_out}")
    counts = report["counts"]
    gating = counts["fail"] + counts["missing"]
    if gating and not args.warn_only:
        print(f"perf-gate: FAIL: {counts['fail']} regression(s) beyond "
              f"{fail_ratio}x, {counts['missing']} missing benchmark(s)",
              file=sys.stderr)
        return 1
    if counts["warn"] or (gating and args.warn_only):
        print(f"perf-gate: WARN: {counts['warn']} regression(s) beyond "
              f"{warn_ratio}x"
              + (f", {gating} beyond the hard gate (advisory mode)"
                 if gating else ""))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    names = [args.only] if args.only else sorted(ALL_FIGURES)
    for name in names:
        print(f"generating {name} …", flush=True)
        ALL_FIGURES[name](out_dir=args.out)
    print(f"CSV series written to {args.out}/")
    return 0


_COMMANDS = {
    "rank": _cmd_rank,
    "scan": _cmd_scan,
    "batch": _cmd_batch,
    "simulate": _cmd_simulate,
    "tune": _cmd_tune,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
    "sanitize": _cmd_sanitize,
    "serve": _cmd_serve,
    "bench-client": _cmd_bench_client,
    "calibrate": _cmd_calibrate,
    "perf-gate": _cmd_perf_gate,
    "figures": _cmd_figures,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if os.environ.get("REPRO_SANITIZE") == "1" and args.command != "sanitize":
        # CI smoke jobs set REPRO_SANITIZE=1 to run any subcommand under
        # the resource sanitizer, which prints its verdict to stderr at
        # exit; a worker pool still open is a warning, not a failure.
        from .sanitize import sanitizers

        with sanitizers(races=False, label=f"cli:{args.command}") as state:
            code = _COMMANDS[args.command](args)
        failures = state.failures()
        if failures:
            for finding in failures:
                print(f"sanitize: {finding.check}: {finding.message}",
                      file=sys.stderr)
            print(
                f"sanitize: {args.command!r} leaked resources "
                f"({len(failures)} finding(s))",
                file=sys.stderr,
            )
            return code or 1
        print(
            f"sanitize: resource sanitizer clean for {args.command!r} "
            f"({state.summary()})",
            file=sys.stderr,
        )
        return code
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
