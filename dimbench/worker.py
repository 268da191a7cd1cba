"""One fresh process: import dimlab, load a scenario config, run it once.

    python3 dimbench/worker.py SCENARIO CONFIG [--setup-only] [--spans PATH]

dimlab is imported from the checkout's ``src`` directory, never from an
installed copy.  Thread count comes from DIMLAB_THREADS, as for a user.
Prints one JSON line: setup seconds, the call's wall and CPU seconds, the
calibration kernel's seconds around the call, peak RSS, the report digest
and the full report.  With --spans the run is traced and its spans are
written to PATH after the run.
"""

import json
import os
import resource
import sys
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def calibrate(reps=5) -> float:
    """Mean seconds of a fixed mix of interpreter and numpy work, over `reps`.

    Nothing in it comes from dimlab, so only the host's speed moves it.  Its
    one array is 64 KiB, so it leaves the call's peak RSS where it was.
    """
    import numpy as np

    values = np.random.default_rng(0).random(1 << 13)
    start = perf_counter()
    for _ in range(reps):
        total = 0
        for i in range(200_000):
            total += i * i
        table = {}
        for i in range(50_000):
            table[i * 7 % 1000] = i
        for _ in range(100):
            np.sort(values)
            np.cumsum(values)
    return (perf_counter() - start) / reps


def main(argv) -> int:
    scenario, config_path = argv[0], argv[1]
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--spans") + 1] if "--spans" in argv else None

    sys.path.insert(0, SRC)
    start = perf_counter()
    import dimlab.experiments as experiments

    config = experiments.load_config(config_path)
    setup_s = perf_counter() - start
    if not os.path.abspath(experiments.__file__).startswith(SRC + os.sep):
        print(f"dimlab was imported from {experiments.__file__}, not {SRC}", file=sys.stderr)
        return 3
    out = {"setup_s": setup_s}
    if not setup_only:
        tracer = None
        if spans_path:
            from tracing import Tracer

            tracer = Tracer().install()
        cal_s = calibrate()
        t0, c0 = perf_counter(), process_time()
        try:
            report = experiments.run_scenario(
                scenario, params=config["params"], seed=config["seed"]
            )
        finally:
            wall_s = perf_counter() - t0
            cpu_s = process_time() - c0
            cal_s = (cal_s + calibrate()) / 2
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "missing": tracer.missing,
                        "leftovers": tracer.leftovers(),
                        "spans": tracer.spans,
                    },
                    fh,
                )
        out.update(
            wall_s=wall_s,
            cpu_s=cpu_s,
            cal_s=cal_s,
            digest=experiments.report_digest(report),
            report={k: v for k, v in report.items() if k != "volatile"},
        )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
