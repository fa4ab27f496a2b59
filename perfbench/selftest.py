"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seconds 4]

1. Every workload, run twice traced with the same seed, reports the
   same count metrics (packs, rounds, work per element, bytes, cache
   hits, coalescing, shards, request bytes).  ``serve_small`` is left
   out: how its requests group into batches depends on arrival timing,
   which is what that workload measures.
2. Both result lines carry exactly the keys and the metrics that
   ``BENCHMARK.json`` names.
3. A copy holding only ``BENCHMARK.json`` and this directory exits
   non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

KERNEL_COUNTS = (
    "kernels.packs",
    "kernels.rounds",
    "kernels.work_per_elem",
    "kernels.bytes_computed",
)

#: Count metrics fixed by the seed alone, per workload.
DETERMINISTIC = {
    "rank_4m": (*KERNEL_COUNTS, "model.packs_predicted"),
    "engine_zipf": (
        *KERNEL_COUNTS,
        "engine.cache_hit_ratio",
        "engine.cache_probes",
        "engine.coalesced",
        "engine.shards",
        "engine.lists_per_shard",
    ),
    # not protocol.bytes_out: each response carries its measured
    # latency as a JSON float, whose printed length varies
    "serve_1m": (
        *KERNEL_COUNTS,
        "protocol.bytes_in",
        "engine.shards",
        "server.requests_per_flush",
    ),
}


def run(cwd: Path, workload: str, seed: int, seconds: float, trace: int) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc: subprocess.CompletedProcess[str], names: list[str]) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(res)}")
    if sorted(res["metrics"]) != sorted(names):
        raise AssertionError(f"metrics {sorted(res['metrics'])} != {sorted(names)}")
    if not res["correct"] or res["failed"]:
        raise AssertionError(f"incorrect result: {res['failed']} of {res['attempted']} failed")
    return res


def main() -> int:
    parser = argparse.ArgumentParser(description="Self-test the benchmark.")
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    problems = []

    for workload, names in DETERMINISTIC.items():
        first, second = (
            result(run(ROOT, workload, args.seed, args.seconds, 1), per_layer)["metrics"]
            for _ in range(2)
        )
        for name in names:
            a, b = first[name]["value"], second[name]["value"]
            status = "ok" if a == b else "DIFFERS"
            print(f"{workload:12s} {name:28s} {a!r:>22} {b!r:>22} {status}")
            if a != b:
                problems.append(f"{workload}/{name}: {a} != {b}")

    result(run(ROOT, "serve_small", args.seed, args.seconds, 0), end_to_end)
    print("serve_small  e2e result line has the BENCHMARK.json metrics")

    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "rank_4m", args.seed, args.seconds, 0)
        printed = proc.stdout.strip()
        if proc.returncode == 0 or printed:
            problems.append(f"bare copy: exit {proc.returncode}, stdout {printed[:200]!r}")
        print(f"bare copy    exits {proc.returncode} with no result")

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
