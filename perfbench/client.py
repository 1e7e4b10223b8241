"""In-process client for the benchmark, started by run.py with ulrichci on sys.path.

``client.py query SEED SECONDS``
    The query workload: a closed loop of requests through ``cli.main``,
    repeating seeded passes over the grid until SECONDS have passed and at
    least one pass is complete.  Writes one JSON line per request:
    ``[request id, kind, seconds, exit code, output]``.

``client.py trace WORKLOAD SEED``
    One repetition of WORKLOAD run twice in this process, untraced and then
    with the tracer installed, each with cold builder caches.  Writes one JSON
    document with both wall times, the per-layer table, the counters and the
    traced run's outputs as ``[request id or null, kind, exit code, output]``.
"""

from __future__ import annotations

import io
import json
import random
import sys
import time
from contextlib import redirect_stdout

import workloads
from tracer import Tracer
from ulrichci import cli, ulrich_functions

BUILDERS = [f for f in vars(ulrich_functions).values() if hasattr(f, "cache_clear")]
BUILD_F = ulrich_functions.build_f


def call(argv: list[str]) -> tuple[int, str, float]:
    """One request through the public entry point; returns exit code, output, seconds."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        start = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - start
    return rc, buf.getvalue(), elapsed


def query(seed: int, seconds: float) -> None:
    out = sys.stdout
    deadline = time.perf_counter() + seconds
    for pass_no, order in enumerate(workloads.query_passes(seed)):
        for request_id, kind, argv in order:
            if pass_no and time.perf_counter() >= deadline:
                return
            rc, text, elapsed = call(argv)
            out.write(json.dumps([request_id, kind, elapsed, rc, text]) + "\n")


def trace(workload: str, seed: int) -> None:
    if workload == "query":
        requests = next(workloads.query_passes(seed))
    else:
        rep = workloads.repetition(workload, seed, random.Random(seed))
        requests = [(None, kind, argv) for kind, argv in rep]

    def run_all():
        outputs, total, hits = [], 0.0, 0
        for request_id, kind, argv in requests:
            for builder in BUILDERS:
                builder.cache_clear()
            rc, text, elapsed = call(argv)
            hits += BUILD_F.cache_info().hits
            outputs.append([request_id, kind, rc, text])
            total += elapsed
        return outputs, total, hits

    _, untraced_s, _ = run_all()
    tracer = Tracer()
    tracer.install()
    try:
        outputs, traced_s, hits = run_all()
    finally:
        tracer.uninstall()
    json.dump(
        {
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "layers": tracer.layer_table(),
            "counters": dict(tracer.counters, **{"ulrich_functions.build_f.cache_hits": hits}),
            "outputs": outputs,
        },
        sys.stdout,
    )


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "query":
        query(int(sys.argv[2]), float(sys.argv[3]))
    elif mode == "trace":
        trace(sys.argv[2], int(sys.argv[3]))
    else:
        sys.exit(f"unknown mode {mode!r}")
