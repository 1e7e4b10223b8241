"""ulrichci benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root (stdlib only, nothing to build):

    python3 perfbench/run.py --workload {verify,scan,query} --seed N --seconds T --trace {0,1}

``--trace 0`` measures the workload for T seconds with no instrumentation and
reports every end-to-end metric:

    setup_s        median wall time of a fresh ``python -m ulrichci.cli --version``
                   (interpreter start, package import, argument parser), 11 per run
    peak_rss_mb    largest peak resident set of the workload's processes
                   (scan pool workers included)
    kind1_p50_ms   median latency of the workload's first request kind
    kind2_p50_ms   median latency of its second request kind

(the request kinds are listed in workloads.py).  The lines printed before the
result also give the workload's figures under their own names: verify_s,
scan_w1_tuples_per_s, scan_w2_tuples_per_s, certify_p50_ms/p99_ms,
invariants_p50_ms/p99_ms, and error_rate = failed / attempted operations,
where an operation is a verify check, a scan cell or a query request.

``--trace 1`` runs one repetition of the workload in one process, first
untraced and then with every public ulrichci function wrapped (tracer.py),
and reports the per-layer call counts, self times and counters, plus the
tracing overhead as traced minus untraced wall time.

Every output is checked outside the timed region (workloads.py).  Each run
appends a record with machine metadata, metrics, sample counts and output
digests to perfbench/runs/runs.jsonl; digests are compared with the ones in
perfbench/baseline.json for the same seed, and a changed digest is reported
but is not a failure.  The last line of stdout is the result as one JSON
object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LOG = HERE / "runs" / "runs.jsonl"
BASELINE = HERE / "baseline.json"

#: Whole-run limit; every child is killed when it would run past it.
TIME_LIMIT_S = 170
SETUP_RUNS = 11

POLY_OPS = ("mul", "add_sub", "scale", "eq", "is_symmetric", "substitute_ones", "divide_all_vars")
SYMFUNC = ("monomial_sym", "expand_direct", "expand_via_restriction", "verify_tf2_table", "verify_tf2bis")
BUILDERS = ("build_f", "build_a", "build_g4", "build_delta", "build_h", "build_k", "build_c", "build_chi_prime")
VERIFIERS = ("verify_tf0", "verify_tf1", "verify_gl1", "verify_gl2", "verify_gl4")
INVARIANTS = ("chi_OZ", "chi_OX", "chi_E", "deg_Z")


def per_layer_names() -> list[str]:
    """The traced run's metrics, in the order BENCHMARK.json lists them."""
    names = []
    for group, funcs in (("polyring", POLY_OPS), ("symfunc", SYMFUNC), ("ulrich_functions", BUILDERS)):
        names += [f"{group}.{f}.{m}" for f in funcs for m in ("calls", "self_s")]
    names += [
        "polyring.mul.terms_out",
        "symfunc.monomial_sym.terms_out",
        "ulrich_functions.build_f.cache_hits",
        "ulrich_functions.build_f.terms_out",
    ]
    names += [f"ulrich_functions.{f}.self_s" for f in VERIFIERS]
    names += [
        "ulrich_functions.verify_cg_scan.self_s",
        "ulrich_functions.verify_cg_scan.tuples",
        "ulrich_functions.scan.pools_started",
        "ulrich_functions.scan.pool_s",
        "ulrich_functions.q_value.calls",
        "ulrich_functions.q_value.self_s",
        "ci_invariants.certify.calls",
        "ci_invariants.certify.self_s",
    ]
    names += [f"ci_invariants.{f}.{m}" for f in INVARIANTS for m in ("calls", "self_s")]
    names += [
        "exact_arith.binom_int.calls",
        "exact_arith.binom_int.self_s",
        "cli.main.self_s",
        "report.check_results",
        "trace.untraced_s",
        "trace.overhead_s",
        "trace.overhead_pct",
    ]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    return "s" if name.endswith("_s") else "count"


# ---------------------------------------------------------------------------
# Children and metadata
# ---------------------------------------------------------------------------


START = time.perf_counter()


def time_left() -> float:
    return TIME_LIMIT_S - (time.perf_counter() - START)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ULRICHCI_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str]) -> tuple[int, bytes, float]:
    """Run one child in its own process group; returns exit code, stdout, wall seconds.

    A child still running when the run's time limit is reached is killed with
    its whole group (scan pool workers included) and reported as exit -9.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, time_left()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -9, b"", time.perf_counter() - start
    return proc.returncode, out, time.perf_counter() - start


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "ulrichci.cli", *argv]


def client_cmd(*argv) -> list[str]:
    return [sys.executable, str(HERE / "client.py"), *map(str, argv)]


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def calibration_s() -> float:
    """A fixed pure-Python Fraction loop; recorded to show machine drift, never divided by."""
    start = time.perf_counter()
    for i in range(40000):
        Fraction(i, 7) * Fraction(3, 11) + Fraction(1, 13)
    return time.perf_counter() - start


def metadata() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "calibration_s": calibration_s(),
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def p99(samples: list[float]) -> float | None:
    """The 99th percentile, only when at least ten samples lie beyond it."""
    if len(samples) < 1000:
        return None
    return statistics.quantiles(samples, n=100)[98]


# ---------------------------------------------------------------------------
# Untraced workloads
# ---------------------------------------------------------------------------


def measure_setup(count: int) -> list[float]:
    return [run_child(cli_cmd(["--version"]))[2] for _ in range(count)]


def run_processes(workload: str, seed: int, seconds: float) -> dict:
    """Repetitions of both request kinds, each request a fresh CLI process."""
    rng = random.Random(seed)
    latencies = {kind: [] for kind in workloads.KINDS[workload]}
    digests: dict[str, set] = {}
    attempted = failed = 0
    tuples = None
    deadline = time.perf_counter() + seconds
    while True:
        rep_start = time.perf_counter()
        outputs = {}
        for kind, argv in workloads.repetition(workload, seed, rng):
            rc, out, wall = run_child(cli_cmd(argv))
            latencies[kind].append(wall)
            outputs[kind] = (rc, out.decode(errors="replace"))
        if workload == "verify":
            for kind, (rc, text) in outputs.items():
                a, f = workloads.check_verify(kind, rc, text)
                attempted, failed = attempted + a, failed + f
                digests.setdefault(kind, set()).add(sha256(text))
        else:
            cells = [workloads.scan_cells(*outputs[k]) for k in ("scan_w1", "scan_w2")]
            a, f = workloads.check_scan_pair(*cells)
            attempted, failed = attempted + a, failed + f
            digests.setdefault("cells", set()).add(sha256(json.dumps(cells[0])))
            if cells[0] is not None:
                tuples = sum(c["tuples_checked"] for c in cells[0])
        # Stop when another repetition as long as this one would overrun.
        now = time.perf_counter()
        if 2 * now - rep_start > deadline or time_left() < 60:
            break
    named = {}
    if workload == "verify":
        named["verify_s"] = (statistics.median(latencies["verify"]), "s", len(latencies["verify"]))
        named["verify_default_s"] = (
            statistics.median(latencies["verify_default"]), "s", len(latencies["verify_default"])
        )
    elif tuples:
        for w in (1, 2):
            xs = latencies[f"scan_w{w}"]
            named[f"scan_w{w}_tuples_per_s"] = (tuples / statistics.median(xs), "1/s", len(xs))
    return {
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "digests": digests,
        "named": named,
    }


def run_query(seed: int, seconds: float) -> dict:
    """The closed query loop in one client process; responses checked afterwards."""
    rc, out, _ = run_child(client_cmd("query", seed, seconds))
    checker = workloads.QueryChecker()
    latencies = {kind: [] for kind in workloads.KINDS["query"]}
    attempted = failed = 0
    first_pass = []
    for line in out.decode().splitlines():
        request_id, kind, elapsed, req_rc, text = json.loads(line)
        latencies[kind].append(elapsed)
        attempted += 1
        failed += not checker.ok(request_id, req_rc, text)
        if len(first_pass) < 2 * len(workloads.QUERY_GRID):
            first_pass.append(text)
    if rc != 0 or len(first_pass) < 2 * len(workloads.QUERY_GRID):
        failed += 1
        attempted = max(attempted, failed)
    named = {}
    for kind, xs in latencies.items():
        if xs:
            named[f"{kind}_p50_ms"] = (statistics.median(xs) * 1e3, "ms", len(xs))
        if p99(xs) is not None:
            named[f"{kind}_p99_ms"] = (p99(xs) * 1e3, "ms", len(xs))
    return {
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "digests": {"responses": {sha256("".join(first_pass))}},
        "named": named,
    }


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    # Half the set-up samples before the workload and half after it, so that
    # their median spans the run's machine state rather than its first seconds.
    run_child(cli_cmd(["--version"]))  # writes bytecode caches if missing
    setup = measure_setup(SETUP_RUNS // 2 + 1)
    if workload == "query":
        result = run_query(seed, seconds)
    else:
        result = run_processes(workload, seed, seconds)
    # Read before the trailing set-up runs: a child's peak RSS starts from the
    # parent's at spawn, and the query check has grown the parent by then.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    setup += measure_setup(SETUP_RUNS // 2)
    kind1, kind2 = (result["latencies"][k] for k in workloads.KINDS[workload])
    if not (kind1 and kind2):
        raise RuntimeError("no request completed")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "kind1_p50_ms": (statistics.median(kind1) * 1e3, "ms"),
        "kind2_p50_ms": (statistics.median(kind2) * 1e3, "ms"),
    }
    result["named"].update(
        setup_s=(metrics["setup_s"][0], "s", len(setup)),
        peak_rss_mb=(peak_rss_mb, "MB", 1),
    )
    return metrics, result


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    rc, out, _ = run_child(client_cmd("trace", workload, seed))
    if rc != 0:
        raise RuntimeError(f"traced client exited with {rc}")
    doc = json.loads(out)
    attempted = failed = 0
    if workload == "verify":
        for _, kind, req_rc, text in doc["outputs"]:
            a, f = workloads.check_verify(kind, req_rc, text)
            attempted, failed = attempted + a, failed + f
    elif workload == "scan":
        by_kind = {kind: workloads.scan_cells(r, t) for _, kind, r, t in doc["outputs"]}
        attempted, failed = workloads.check_scan_pair(by_kind["scan_w1"], by_kind["scan_w2"])
    else:
        checker = workloads.QueryChecker()
        for request_id, _, req_rc, text in doc["outputs"]:
            attempted += 1
            failed += not checker.ok(request_id, req_rc, text)

    layers, counters = doc["layers"], doc["counters"]
    pool = layers.get("ulrich_functions.scan.pool", {})
    overhead = doc["traced_s"] - doc["untraced_s"]
    special = {
        "ulrich_functions.scan.pool_s": pool.get("total_s", 0.0),
        "trace.untraced_s": doc["untraced_s"],
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100 * overhead / doc["untraced_s"],
    }
    metrics = {}
    for name in per_layer_names():
        if name in special:
            value = special[name]
        elif name.endswith((".calls", ".self_s")):
            span, _, field = name.rpartition(".")
            value = layers.get(span, {}).get(field, 0)
        else:
            value = counters.get(name, 0)
        metrics[name] = (value, unit_of(name))
    return metrics, {"attempted": attempted, "failed": failed, "digests": {}, "named": {}}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def baseline_digests(workload: str, seed: int) -> dict:
    try:
        doc = json.loads(BASELINE.read_text())
    except (OSError, ValueError):
        return {}
    return doc.get("digests", {}).get(workload, {}).get(str(seed), {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "scan", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ulrichci" / "cli.py").is_file():
        print(f"error: no ulrichci sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    meta = metadata()
    try:
        if args.trace:
            metrics, result = traced(args.workload, args.seed)
        else:
            metrics, result = untraced(args.workload, args.seed, args.seconds)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"error: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(meta))
    for name, (value, unit, n) in result["named"].items():
        print(f"  {name:24s} {value:14.6g} {unit:6s} n={n}")
    print(f"  {'error_rate':24s} {failed / max(attempted, 1):14.6g} {'':6s} {failed}/{attempted}")
    known = baseline_digests(args.workload, args.seed)
    digests = {}
    for name, values in result["digests"].items():
        digests[name] = sorted(values)
        if len(values) > 1:
            verdict = "VARIES between repetitions"
        elif name not in known:
            verdict = "no baseline for this seed"
        else:
            verdict = "same as baseline" if known[name] in values else "CHANGED from baseline"
        print(f"  digest {name} {' '.join(sorted(values))} ({verdict})")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": meta,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: v[0] for k, v in metrics.items()},
        "named": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in result["named"].items()},
        "digests": digests,
    }
    RUN_LOG.parent.mkdir(exist_ok=True)
    with RUN_LOG.open("a") as log:
        log.write(json.dumps(record) + "\n")

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
