"""Run a result server for the serve workload until SIGTERM.

    python benchmarks/e2e/serve_proc.py --cache-dir DIR [--trace DIR]

Builds :class:`repro.serve.ResultService` and
:class:`repro.serve.ResultServer` through the public API with default
tunables, prints ``ready <port>`` once the listener accepts, and on
SIGTERM drains gracefully.  After the drain it prints
``peak_rss_bytes <n>`` (its child-inclusive high-water mark) and, with
``--trace``, exports its spans to ``<trace>/server-spans.jsonl``.  The
traced and untraced servers differ only by that flag.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
# For ``_harness``, the experiment benchmarks' shared helpers.
sys.path.append(str(HERE.parent))

#: File (under ``--trace``) the server exports its spans to.
SERVER_SPANS = "server-spans.jsonl"


async def serve(cache_dir: str, trace_dir: str | None) -> None:
    from repro.obs import MetricsRegistry, Tracer, use_tracer
    from repro.serve import ResultServer, ResultService, ServeConfig

    tracer = Tracer() if trace_dir else None
    layers = None
    if tracer is not None:
        from layertrace import LayerTracer

        layers = LayerTracer(tracer, trace_dir).install()
    try:
        with use_tracer(tracer) if tracer is not None else nullcontext():
            service = ResultService(
                ServeConfig(cache_dir=cache_dir), metrics=MetricsRegistry()
            )
            server = ResultServer(service)
            await server.start()
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, stop.set)
            print(f"ready {server.port}", flush=True)
            await stop.wait()
            await server.drain()
    finally:
        if layers is not None:
            layers.uninstall()
    if tracer is not None:
        tracer.export(Path(trace_dir) / SERVER_SPANS)
    from _harness import peak_rss_bytes

    print(f"peak_rss_bytes {peak_rss_bytes()}", flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", default=None, help="span spill/export directory")
    args = parser.parse_args()
    asyncio.run(serve(args.cache_dir, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
