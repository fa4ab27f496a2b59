"""A loopback ``ScanServer`` in its own process, for the serve workloads.

Started by ``workloads.ServerProcess``::

    python3 perfbench/serve_child.py --seed N --trace 0|1

It serves a sync engine under the default ``ServeConfig`` on a free
loopback port and prints ``{"port": P}`` once it listens.  Then it reads
commands from stdin, one per line: ``reset`` zeroes the layer accounts
(sent after warm-up) and answers ``{"reset": true}``.  End of input shuts the server down; the process
then prints one JSON report line (peak RSS, layer accounts, engine and
server counters) and exits 0.

``--trace 1`` installs the kernel, engine, protocol and server shims
of ``layers.py`` in this process before the server starts.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from boot import bootstrap

bootstrap()

from layers import Shims  # noqa: E402
from measure import peak_rss_mb  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.serve.config import ServeConfig  # noqa: E402
from repro.serve.server import ScanServer  # noqa: E402


async def serve(seed: int, traced: bool) -> dict[str, object]:
    # cache_capacity=0: every request executes its kernel; the result
    # cache is exercised by the engine_zipf workload instead, and a
    # cache of 1M-node results would grow RSS with run length.
    engine = Engine(executor="sync", seed=seed, cache_capacity=0)
    server = ScanServer(engine, ServeConfig(port=0))
    shims = Shims()
    if traced:
        shims.kernels()
        shims.engine_module()
        shims.engine_instance(engine)
        shims.protocol()
        shims.server(server)
    await server.start()
    print(json.dumps({"port": server.port}), flush=True)
    loop = asyncio.get_running_loop()
    base = counters(server)
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if not line:
            break
        if line.strip() == "reset":
            shims.reset()
            base = counters(server)
            print(json.dumps({"reset": True}), flush=True)
    await server.shutdown()
    shims.close()
    final = counters(server)
    return {
        "peak_rss_mb": peak_rss_mb(),
        "accounts": shims.accounts(),
        "counters": {name: final[name] - base[name] for name in final},
        "window_final_ms": 1e3 * server.window.window,
    }


def counters(server: ScanServer) -> dict[str, int]:
    """Integer engine counters plus the server's shed count."""
    snapshot = server.engine.stats_snapshot()
    out = {name: value for name, value in snapshot.items() if isinstance(value, int)}
    out["server_shed"] = server.counters["shed_rate_limited"] + server.counters["shed_overloaded"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    report = asyncio.run(serve(args.seed, bool(args.trace)))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
