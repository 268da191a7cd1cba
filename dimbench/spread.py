"""Run the benchmark over several seeds and record medians and spreads.

    python3 dimbench/spread.py --seeds 0-9 --trace 0,1 [--workloads perc-box,probe] [--write]

Each run is a separate ``run.py`` process started with the BENCHMARK.json command and
``run_seconds`` from BENCHMARK.json.  For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  With --write the
numbers replace the ``measured`` block of ``baseline.json`` for those trace
modes; the rest of the file is kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BASELINE = BENCH / "baseline.json"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(spec, name, seeds, trace):
    """Run one workload once per seed; medians, quartiles and spreads per metric."""
    runs = []
    for seed in seeds:
        cmd = spec["command"][:] + [
            "--workload", name, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", trace,
        ]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["elapsed_s"] = elapsed
        runs.append(result)
        print(f"{name} seed {seed}: {elapsed:.1f} s correct={result['correct']}",
              file=sys.stderr)
    summary = {
        "runs": len(runs),
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "elapsed_s_max": max(r["elapsed_s"] for r in runs),
        "elapsed_s_median": statistics.median(r["elapsed_s"] for r in runs),
        "metrics": {},
    }
    print(f"# {name} trace={trace}: fail_frac {summary['failed'] / summary['attempted']:g} "
          f"({summary['failed']} of {summary['attempted']})")
    for key, first in runs[0]["metrics"].items():
        values = [r["metrics"][key]["value"] for r in runs]
        if len(values) > 1:
            q1, med, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = med = q3 = values[0]
        summary["metrics"][key] = {
            "unit": first["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
        print(f"  {key:40s} median {med:12.6g} {first['unit']:6s} "
              f"spread {summary['metrics'][key]['spread']:.3f}  "
              + " ".join(f"{v:.4g}" for v in values))
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace", default="0", help="0, 1 or 0,1")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)

    measured = {}
    for trace in args.trace.split(","):
        measured[trace] = {}
        for name in args.workloads.split(","):
            summary = summarize(spec, name, seed_list(args.seeds), trace)
            if summary is None:
                return 1
            measured[trace][name] = summary

    if args.write:
        baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        block = baseline.setdefault("measured", {})
        for trace, workloads in measured.items():
            entry = block.setdefault(f"trace{trace}", {"workloads": {}})
            entry["seeds"] = args.seeds
            entry["workloads"].update(workloads)
        BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
