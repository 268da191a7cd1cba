"""dimlab's benchmark: scenario workloads timed end to end, and a traced run.

    python3 dimbench/run.py --workload perc-box --seed 3 --seconds 20 --trace 0
    python3 dimbench/run.py --smoke     # every workload at reduced size, both modes
    python3 dimbench/run.py --record    # re-record reference.json (about 10 minutes)

Every scenario call runs in a fresh process (``worker.py``) through
``dimlab.experiments.run_scenario``, one call at a time: a closed loop with
one client.  numpy's BLAS is held to one thread in every call, so a call
runs DIMLAB_THREADS compute threads and no more.  ``--trace 0`` makes
single-thread calls with tracing off for ``--seconds``, cycling through
the workload's seed pool from ``--seed``, and prints the end-to-end
metrics.  The host's speed drifts by a fifth over minutes, and a drift
moves every call alike, so time is reported as wall_cal: each call's wall
over the time of a fixed calibration kernel (``worker.calibrate``) run in
the same process just before and after it.  A slower host slows both; a
change to the program moves only the wall.  wall_cal is the lower quartile
over the calls, because other tenants only ever add time, in bursts that
stretch a call by up to 1.6 times; the rest are medians.  The raw wall is
printed in the table and is a per-layer metric.  ``--trace 1``
makes untraced and traced calls at one and two threads and prints the
per-layer metrics, including the two-thread wall and RSS.  Each call's
report is checked against the reference recorded for its (workload, seed).
A table goes to stdout first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNTERS, summarize
from workloads import WORKLOADS, checked_values, tolerance

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
REFERENCE = BENCH / "reference.json"

CHILD_TIMEOUT_S = 150
SETUP_RUNS = 5       # setup-only processes per run, besides every scenario call's own setup
MIN_CALLS = 4        # single-thread calls per untraced run, however short --seconds is
RUN_DEADLINE_S = 140  # start no further call past this, so the run ends inside 180 s
SMOKE_SEED = 7
START = time.perf_counter()
# numpy's BLAS starts a thread per core by default; held to one, a call runs
# DIMLAB_THREADS compute threads, so a one-thread wall does not depend on
# whether the other core is free.  A fixed hash seed fixes the order of
# string sets, which decides the order arrays are freed in and so the peak
# RSS (274 or 317 MB for one perc-slices call, by hash seed).
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(RuntimeError):
    pass


def child(scenario, config, threads=1, spans=None, setup_only=False) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), scenario, str(config)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, DIMLAB_THREADS=str(threads), **CHILD_ENV)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{scenario} timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise ChildFailed(f"{scenario} exited {proc.returncode}: " + " | ".join(tail))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# references


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check(workload, ref, result) -> list:
    """Differences between a report and its reference beyond tolerance."""
    got = checked_values(workload, result["report"])
    problems = []
    for name, want in ref["values"].items():
        value = got.get(name)
        if want is None or value is None:
            bad = want != value
        else:
            bad = abs(value - want) > tolerance(workload, name)
        if bad:
            problems.append(f"{name}={value!r}, reference {want!r}")
    return problems


class Tally:
    """Attempted, failed and digest-matching scenario calls of one run.

    ``run`` returns None only for a call that did not finish.
    """

    def __init__(self, workload, ref):
        self.workload, self.ref = workload, ref
        self.attempted = self.failed = self.digest_matches = 0

    def run(self, *args, ref=None, **kwargs):
        ref = ref or self.ref
        self.attempted += 1
        try:
            result = child(*args, **kwargs)
        except ChildFailed as exc:
            print(f"FAIL {exc}", file=sys.stderr)
            self.failed += 1
            return None
        problems = check(self.workload, ref, result)
        if problems:
            print(f"FAIL {self.workload.name}: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
        self.digest_matches += result["digest"] == ref["digest"]
        # a wrong report still ran to the end, so its timing is kept
        return result


# ---------------------------------------------------------------------------
# one run


def _prepare(name, seed, smoke):
    workload = WORKLOADS[name]
    reference = load_reference()
    if smoke:
        scenario_seed = SMOKE_SEED
        ref = reference["smoke"][name]
    else:
        pool = reference["pools"][name]
        scenario_seed = pool[seed % len(pool)]
        ref = reference["runs"][name][str(scenario_seed)]
    OUT.mkdir(exist_ok=True)
    config = OUT / f"{name}.config.json"
    params = workload.smoke_params if smoke else workload.params
    config.write_text(json.dumps({"params": params, "seed": scenario_seed}))
    return workload, ref, config


def _until(seconds, minimum):
    """Yield call numbers until `seconds` have passed and `minimum` calls are made."""
    start = time.perf_counter()
    i = 0
    while i < minimum or (
        time.perf_counter() - start < seconds
        and time.perf_counter() - START < RUN_DEADLINE_S
    ):
        yield i
        i += 1


def lower_quartile(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def measure(name, seed, seconds, smoke=False):
    """End-to-end metrics: single-thread calls with tracing off, for `seconds`.

    Call i runs pool seed (seed + i) mod the pool size, so one run spreads
    over the pool and the seed-to-seed differences in work and memory even
    out inside a run rather than between runs.
    """
    workload, ref, config = _prepare(name, seed, smoke)
    tally = Tally(workload, ref)
    child(workload.scenario, config, setup_only=True)  # warm the bytecode cache
    setups = [
        child(workload.scenario, config, setup_only=True)["setup_s"]
        for _ in range(SETUP_RUNS)
    ]
    runs = []
    for i in _until(seconds, MIN_CALLS):
        _, ref, config = _prepare(name, seed + i, smoke)
        result = tally.run(workload.scenario, config, ref=ref)
        if result is not None:
            runs.append(result)
            setups.append(result["setup_s"])
    if not runs:
        return tally, None, {}
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_cal": lower_quartile([r["wall_s"] / r["cal_s"] for r in runs]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    info = {
        "fail_frac": (tally.failed / tally.attempted, "ratio"),
        "calls": (len(runs), "count"),
        "wall_s": (lower_quartile([r["wall_s"] for r in runs]), "s"),
        "wall_s.median": (statistics.median(r["wall_s"] for r in runs), "s"),
        "cal_s.median": (statistics.median(r["cal_s"] for r in runs), "s"),
        "cpu_s.median": (statistics.median(r["cpu_s"] for r in runs), "s"),
        "setup_samples": (len(setups), "count"),
        "digest_matches": (tally.digest_matches, "count"),
    }
    return tally, metrics, info


def _percentile_tail(items):
    """Highest whole percentile with at least ten items beyond it (nearest rank)."""
    n = len(items)
    pct = max(0, math.floor(100 * (n - 10) / n)) if n else 0
    idx = max(0, math.ceil(pct * n / 100) - 1)
    return pct, sorted(items)[idx] if items else 0.0


def traced(name, seed, seconds, smoke=False):
    """Per-layer metrics from traced calls, with the checks on the tracer itself.

    Calls, in order: untraced and traced single-thread, untraced two-thread,
    traced single-thread again, traced two-thread; then further untraced and
    traced single-thread pairs while `seconds` have not passed.
    """
    workload, ref, config = _prepare(name, seed, smoke)
    tally = Tally(workload, ref)
    child(workload.scenario, config, setup_only=True)
    plain, summaries, problems = [], [], []
    start = time.perf_counter()

    def traced_call(threads, tag):
        spans_path = OUT / f"{name}.spans-{tag}.json"
        result = tally.run(workload.scenario, config, threads=threads, spans=spans_path)
        if result is None:
            return None
        with open(spans_path, encoding="utf-8") as fh:
            recorded = json.load(fh)
        if recorded["missing"]:
            print(f"not traced (absent): {recorded['missing']}", file=sys.stderr)
        if recorded["leftovers"]:
            problems.append(f"wrappers left installed: {recorded['leftovers']}")
        result["summary"] = summarize(recorded["spans"])
        return result

    def pair(i):
        plain.append(tally.run(workload.scenario, config))
        summaries.append(traced_call(1, f"1t-{i}"))

    pair(0)
    two_plain = tally.run(workload.scenario, config, threads=2)
    summaries.append(traced_call(1, "1t-1"))
    two = traced_call(2, "2t")
    for i in _until(seconds - (time.perf_counter() - start), 0):
        pair(i + 2)
    plain = [r for r in plain if r is not None]
    summaries = [r for r in summaries if r is not None]
    if not plain or len(summaries) < 2 or two is None or two_plain is None:
        return tally, None, {}

    digests = {r["digest"] for r in plain + summaries + [two, two_plain]}
    if len(digests) != 1:
        problems.append(f"traced and untraced report digests differ: {sorted(digests)}")
    first = summaries[0]["summary"]
    for other in summaries[1:] + [two]:
        diff = [k for k in COUNTERS if other["summary"][k] != first[k]]
        if diff:
            problems.append(f"work counters do not repeat: {diff}")
    for r in summaries:
        s = r["summary"]
        gap = s["trace.named_self_s"] + s["trace.remainder_s"] - s["trace.wall_s"]
        if abs(gap) > 1e-6 * max(1.0, s["trace.wall_s"]):
            problems.append(f"self times do not add up to the traced wall: gap {gap:.3g} s")
    # the checks on the tracer count as one more attempted operation
    for p in problems:
        print(f"FAIL {name}: {p}", file=sys.stderr)
    tally.attempted += 1
    tally.failed += bool(problems)

    # every span-derived number comes from the traced call with the median
    # wall, so its self times and remainder add up to its wall as printed
    by_wall = sorted(summaries, key=lambda r: r["summary"]["trace.wall_s"])
    picked = by_wall[(len(by_wall) - 1) // 2]["summary"]
    metrics = {k: v for k, v in picked.items() if k != "items"}
    for key in ("experiments.parallel_map.busy_s", "experiments.parallel_map.efficiency"):
        metrics[key] = two["summary"][key]
    items = [t for r in summaries for t in r["summary"]["items"]]
    pct, tail = _percentile_tail(items)
    metrics.update({
        "wall_s": lower_quartile([r["wall_s"] for r in plain]),
        "wall_s_2t": two_plain["wall_s"],
        "peak_rss_mb_2t": two_plain["peak_rss_mb"],
        "item_s.p50": statistics.median(items) if items else 0.0,
        "item_s.tail": tail,
        "item_s.tail_pct": pct,
        "item_s.count": len(items),
        "trace.overhead_s": statistics.median(r["wall_s"] for r in summaries)
        - statistics.median(r["wall_s"] for r in plain),
        "check.digest_matches": tally.digest_matches,
    })
    info = {
        "fail_frac": (tally.failed / tally.attempted, "ratio"),
        "untraced_calls_1t": (len(plain), "count"),
        "traced_calls_1t": (len(summaries), "count"),
        "calls_2t": (2, "count"),
    }
    return tally, metrics, info


# ---------------------------------------------------------------------------
# output


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def report(name, trace, tally, metrics, info, spec):
    """Print the human table, then the result line; return the result dict."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    print(f"# {name} ({'traced' if trace else 'untraced'})")
    for entry in declared:
        value = metrics.get(entry["name"])
        if value is None:
            continue
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:40s} {value:>16.6g} {entry['unit']}")
    for key, (value, unit) in info.items():
        print(f"{key:40s} {value:>16.6g} {unit}")
    result = {
        "correct": tally.failed == 0 and len(out) == len(declared),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out,
    }
    print(json.dumps(result))
    return result


def smoke(spec) -> int:
    """Every workload at reduced size, both modes; every declared metric must print."""
    bad = []
    for name in WORKLOADS:
        for trace in (0, 1):
            fn = traced if trace else measure
            tally, metrics, info = fn(name, 0, 0, smoke=True)
            result = report(name, trace, tally, metrics or {}, info, spec)
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            for entry in declared:
                got = result["metrics"].get(entry["name"])
                if got is None or got["unit"] != entry["unit"]:
                    bad.append(f"{name}/trace={trace}: {entry['name']} missing")
            if not result["correct"]:
                bad.append(f"{name}/trace={trace}: not correct")
        # negative control: the check must reject a reference moved past tolerance
        workload, ref, config = _prepare(name, 0, smoke=True)
        moved = {
            k: (v + 10 * tolerance(workload, k) + 1e-6 if v is not None else 0.0)
            for k, v in ref["values"].items()
        }
        result = child(workload.scenario, config)
        if check(workload, ref, result) or len(
            check(workload, {"values": moved}, result)
        ) != len(moved):
            bad.append(f"{name}: reference check does not separate right from wrong")
    for line in bad:
        print(f"SMOKE FAIL {line}", file=sys.stderr)
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# recording references


def record(candidates=64, pool_size=12) -> int:
    """Run candidate seeds, keep the pool nearest the median work, save references.

    A candidate's work is its nodes sampled, largest tree and cells folded
    (deterministic counters) and its peak RSS; the pool keeps the seeds whose
    work is closest to the candidates' medians on every count, so which seed
    a run draws does not decide how long it takes or how much memory it uses.
    """
    OUT.mkdir(exist_ok=True)
    out = {"pools": {}, "runs": {}, "smoke": {}, "candidates": {}}
    for name, workload in WORKLOADS.items():
        rows = {}
        for seed in range(candidates):
            config = OUT / f"{name}.config.json"
            config.write_text(json.dumps({"params": workload.params, "seed": seed}))
            spans_path = OUT / f"{name}.spans-record.json"
            result = child(workload.scenario, config, spans=spans_path)
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)["spans"]
            s = summarize(spans)
            trees = [sp[5]["nodes"] for sp in spans if sp[2] == "percolation.sample_tree"]
            counts = {
                "nodes": s["percolation.nodes"],
                "max_tree_nodes": max(trees, default=0),
                "cells_folded": s["geometry.cells_folded"],
            }
            work = dict(counts, peak_rss_mb=round(result["peak_rss_mb"]))
            rows[seed] = {
                "digest": result["digest"],
                "values": checked_values(workload, result["report"]),
                "counts": counts,
                "work": work,
            }
            print(f"{name} seed {seed}: {work} {result['wall_s']:.2f} s", file=sys.stderr)
            if seed + 1 == pool_size and all(r["counts"] == counts for r in rows.values()):
                break  # the seed does not change the work, so more candidates add nothing
        medians = {k: statistics.median(r["work"][k] for r in rows.values()) for k in work}

        def spread(seed):
            w = rows[seed]["work"]
            return max(
                abs(math.log(w[k] / medians[k])) if medians[k] else 0.0 for k in w
            )

        pool = sorted(sorted(rows, key=lambda sd: (spread(sd), sd))[:pool_size])
        out["pools"][name] = pool
        out["runs"][name] = {
            str(sd): {"digest": rows[sd]["digest"], "values": rows[sd]["values"]}
            for sd in pool
        }
        out["candidates"][name] = {str(sd): r["work"] for sd, r in rows.items()}
        config = OUT / f"{name}.config.json"
        config.write_text(json.dumps({"params": workload.smoke_params, "seed": SMOKE_SEED}))
        result = child(workload.scenario, config)
        out["smoke"][name] = {
            "digest": result["digest"],
            "values": checked_values(workload, result["report"]),
        }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dimlab" / "__init__.py").is_file():
        print(f"no dimlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record:
        return record()
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        ap.error("--workload is required")
    fn = traced if args.trace else measure
    tally, metrics, info = fn(args.workload, args.seed, args.seconds)
    if metrics is None:
        print(f"{args.workload}: no scenario call succeeded", file=sys.stderr)
        return 1
    report(args.workload, args.trace, tally, metrics, info, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
