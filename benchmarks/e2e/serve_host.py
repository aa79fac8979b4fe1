"""Run ``repro serve`` for the serve-mixed workload.

Usage: ``python3 benchmarks/e2e/serve_host.py CACHE_DIR [--trace DIR | --speed FILE]``

Serves on an ephemeral 127.0.0.1 port with 2 pool workers and the
artifact cache in CACHE_DIR; the CLI's "listening on" line tells the
benchmark the port, and SIGINT stops it.  SIGINT is handled even when
the benchmark was started with it ignored, as a shell does for a
command it runs in the background: Python leaves an inherited ignored
SIGINT ignored, and the server could then not be stopped.

With ``--trace DIR`` the layer wrappers of ``tracing.py`` go in first:
the pool workers, forked later, append their spans to
``DIR/worker-<pid>.jsonl``, and the server's own spans are written to
``DIR/server.json`` once the server has stopped.

With ``--speed FILE`` the server's event loop probes the host's speed
(see ``hostspeed.py``) about every 10 ms, between two of its callbacks,
and the samples are written to FILE once it has stopped.  A probe takes
about 0.1 ms, under 1% of the server's time.  The probes run on the
loop, not in a thread of their own, so the pool workers are forked from
a process with no extra thread running.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))


def _probe_on_loop(meter, interval_s: float) -> None:
    """Make every ``ServeApp`` tick *meter* on its loop every
    *interval_s* once started."""
    from repro.serve.http import ServeApp

    start = ServeApp.start

    async def start_probing(app) -> int:
        port = await start(app)
        loop = asyncio.get_running_loop()

        def probe() -> None:
            meter.tick()
            loop.call_later(interval_s, probe)
        probe()
        return port

    ServeApp.start = start_probing


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("cache")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--trace", type=Path)
    group.add_argument("--speed", type=Path)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    recorder = meter = None
    if args.trace is not None:
        import tracing
        recorder = tracing.Recorder(sink_dir=args.trace)
        tracing.install_serve(recorder)
    if args.speed is not None:
        import hostspeed
        meter = hostspeed.Meter()
        _probe_on_loop(meter, hostspeed.INTERVAL_NS / 1e9)
    from repro.cli import main as repro_main
    code = repro_main(["serve", "--host", "127.0.0.1", "--port", "0",
                       "--jobs", "2", "--cache", args.cache])
    if recorder is not None:
        recorder.dump(args.trace / "server.json")
    if meter is not None:
        args.speed.write_text(json.dumps(meter.samples()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
