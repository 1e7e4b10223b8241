"""Fold benchmark run records into one summary, the format of baseline.json.

    python3 perfbench/summarize.py [perfbench/runs/runs.jsonl] > summary.json

Groups records by commit, workload and trace flag.  For every metric (the
result metrics and the named figures) it gives the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median and
the number of runs; it also lists the output digests seen per seed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def fold(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "runs": len(values),
    }


def summarize(records: list[dict]) -> dict:
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for rec in records:
        groups[(rec["meta"]["commit"], rec["workload"], rec["trace"])].append(rec)
    summary: dict = {"runs": [], "digests": {}}
    for (commit, workload, trace), recs in sorted(groups.items(), key=str):
        values: dict[str, list[float]] = defaultdict(list)
        for rec in recs:
            for name, value in rec["metrics"].items():
                values[name].append(value)
            for name, figure in rec["named"].items():
                if name not in rec["metrics"]:
                    values[name].append(figure["value"])
            if not trace:
                seeds = summary["digests"].setdefault(workload, {})
                seeds[str(rec["seed"])] = {k: v[0] for k, v in rec["digests"].items()}
        summary["runs"].append(
            {
                "commit": commit,
                "workload": workload,
                "trace": trace,
                "seeds": sorted({rec["seed"] for rec in recs}),
                "seconds": sorted({rec["seconds"] for rec in recs}),
                "attempted": sum(rec["attempted"] for rec in recs),
                "failed": sum(rec["failed"] for rec in recs),
                "calibration_s": fold([rec["meta"]["calibration_s"] for rec in recs]),
                "meta": {k: v for k, v in recs[0]["meta"].items() if k != "calibration_s"},
                "metrics": {name: fold(xs) for name, xs in values.items()},
            }
        )
    return summary


def main(argv: list[str]) -> int:
    path = Path(argv[0]) if argv else Path(__file__).resolve().parent / "runs" / "runs.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    json.dump(summarize(records), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
