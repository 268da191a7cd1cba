"""The benchmark's workloads: one scenario each, at default params.

Only the repeat count (samples, trials or beta_grid) is sized for run
length; depth, p, M and grid stay at their defaults so each workload's
working set stays where the defaults put it.  Each workload names the
report values a run is checked against, with the absolute tolerance it may
drift from the recorded reference.  The tolerances admit the last-bit fold
changes that can flip a slice count on a cell boundary, and nothing that
moves a dimension estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    params: dict
    smoke_params: dict
    # report value -> absolute tolerance against the reference
    checked: dict = field(default_factory=dict)


def _row_means(report: dict, key: str, column: str) -> dict:
    """Mean of `column` over report rows, grouped by `key`."""
    cols = report["columns"]
    k, c = cols.index(key), cols.index(column)
    groups = {}
    for row in report["rows"]:
        groups.setdefault(row[k], []).append(row[c])
    return {f"mean_{column}_{key}{g:g}": sum(v) / len(v) for g, v in groups.items()}


def checked_values(workload: Workload, report: dict) -> dict:
    """The report values that correctness is judged on."""
    values = {name: report["metrics"].get(name) for name in workload.checked}
    if workload.scenario == "exceptional-scan":
        # the scan's own gate passes vacuously, so the per-horizon mean of
        # max_fraction is checked as well
        values.update(_row_means(report, "N", "max_fraction"))
    if workload.scenario == "probe":
        values["survived_trials"] = sum(bool(r[1]) for r in report["rows"])
    return values


def tolerance(workload: Workload, name: str) -> float:
    if name in workload.checked:
        return workload.checked[name]
    if name.startswith("mean_max_fraction_"):
        return 1e-12
    return 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="perc-box",
            scenario="percolate-dim",
            params={"samples": 4},
            smoke_params={"samples": 4, "depth": 5},
            checked={"mean_slope": 1e-9, "slope_abs_error": 1e-9, "mean_r2": 1e-9},
        ),
        Workload(
            name="perc-slices",
            scenario="mandelbrot-slices",
            params={"samples": 1},
            smoke_params={"samples": 2, "depth": 5, "grid": 64},
            checked={
                "mean_qualifying_beta_0": 0.01,
                "mean_qualifying_beta_0.5": 0.01,
                "mean_qualifying_beta_1": 0.01,
                "min_mean_qualifying_fraction": 0.01,
            },
        ),
        Workload(
            name="probe",
            scenario="probe",
            params={"trials": 15},
            smoke_params={
                "trials": 10, "depth": 5, "grid": 64, "scales": "3:-2:-4", "min_r2": 0.0,
            },
            # one trial of 15 may flip on a boundary offset
            checked={
                "success_fraction": 1.0 / 15.0 + 1e-12,
                "extinct_trials": 0,
                "n_qualifying": 2,
                "n_non_qualifying": 2,
            },
        ),
        Workload(
            name="align-scan",
            scenario="exceptional-scan",
            params={"beta_grid": 128},
            smoke_params={
                "beta_grid": 64, "tau_grid": 64, "N_values": [10, 20], "chunk": 8,
            },
            checked={
                "max_fraction_increase": 0.0,
                "member_fraction_N50": 0.0,
                "member_fraction_N100": 0.0,
                "member_fraction_N200": 0.0,
            },
        ),
    )
}
