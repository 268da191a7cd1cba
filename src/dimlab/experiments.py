"""Named experiment scenarios with seeded runs and threshold reports.

Each scenario is a pure function of (params, seed) producing a results
table plus summary metrics; pass/fail flags come from thresholds that live
in the scenario defaults and may be overridden by configs.  Overrides may
tighten a threshold freely; loosening one requires an explicit
``override: true`` next to the new value.

Reports are deterministic: everything except the ``volatile`` block
(timestamp, wall clock) is a function of scenario name, params, thresholds,
and seed, regardless of the worker thread count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import metadata

import numpy as np

from . import rng
from .catalog import load_ifs
from .errors import ConfigError
from .exceptional import AlignmentParams, scan_directions
from .geometry import iterate_system, moran_dimension
from .measures import (
    fixed_vector_law,
    forced_pair_law,
    fourier_decay,
    sample_measure,
)
from .percolation import _check_mandelbrot_budget, mandelbrot_config, sample_surviving_tree
from .sections import (
    CellCloud,
    Direction,
    box_count_estimate,
    conservation_profile,
    conservation_profile_sample,
    probe_sections,
)

__all__ = [
    "SCENARIOS",
    "ScenarioSpec",
    "scenario_names",
    "run_scenario",
    "report_to_json",
    "canonical_report_bytes",
    "report_digest",
    "parse_scales",
    "parse_ladder",
    "thread_count",
    "parallel_map",
]

_THREADS_ENV = "DIMLAB_THREADS"


# ---------------------------------------------------------------------------
# plumbing


def thread_count() -> int:
    raw = os.environ.get(_THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"{_THREADS_ENV}={raw!r} is not an integer") from None
    return max(1, n)


def parallel_map(fn, items) -> list:
    """Ordered map over independent work items.

    Results are identical at any thread count; threads only help when the
    work releases the GIL (numpy does).
    """
    items = list(items)
    n = min(thread_count(), len(items))
    if n <= 1:
        return [fn(x) for x in items]
    # imported here: concurrent.futures loads logging, queue and traceback,
    # which a one-thread run never needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


def parse_scales(text: str) -> list:
    """"3:-2:-7" -> [3^-2, 3^-3, ..., 3^-7]."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"scales {text!r} must look like base:hi:lo")
    try:
        base, hi, lo = float(parts[0]), int(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"scales {text!r} must look like base:hi:lo") from None
    if base <= 1.0 or hi < lo:
        raise ConfigError(f"scales {text!r}: need base > 1 and hi >= lo")
    try:
        return [base ** e for e in range(hi, lo - 1, -1)]
    except OverflowError:
        raise ConfigError(f"scales {text!r}: a power of the base overflows") from None


def parse_ladder(text: str) -> list:
    """"2:6" -> [2, 3, 4, 5, 6]."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"ladder {text!r} must look like lo:hi")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"ladder {text!r} must look like lo:hi") from None
    if lo < 1 or hi < lo:
        raise ConfigError(f"ladder {text!r}: need 1 <= lo <= hi")
    return list(range(lo, hi + 1))


def _scrub(obj):
    """Make a report JSON-safe: numpy -> python, non-finite floats -> None."""
    if isinstance(obj, dict):
        return {str(k): _scrub(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_scrub(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_scrub(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    return obj


def _package_version() -> str:
    try:
        return metadata.version("dimlab")
    except Exception:
        return "unknown"


# ---------------------------------------------------------------------------
# thresholds

_TIGHTER_IS_LARGER = {">": True, ">=": True, "<": False, "<=": False}


def _compare(value, op: str, bound: float) -> bool:
    if value is None or not math.isfinite(value):
        return False
    if op == ">":
        return value > bound
    if op == ">=":
        return value >= bound
    if op == "<":
        return value < bound
    if op == "<=":
        return value <= bound
    raise ConfigError(f"unknown threshold op {op!r}")


def _resolve_thresholds(spec: "ScenarioSpec", overrides) -> dict:
    overrides = overrides or {}
    if not isinstance(overrides, dict):
        raise ConfigError(f"{spec.name}.thresholds: must be an object")
    unknown = set(overrides) - set(spec.thresholds)
    if unknown:
        raise ConfigError(
            f"{spec.name}.thresholds.{sorted(unknown)[0]}: unknown threshold"
        )
    resolved = {}
    for name, default in spec.thresholds.items():
        op = default["op"]
        value = float(default["value"])
        if name in overrides:
            entry = overrides[name]
            if isinstance(entry, dict):
                if "value" not in entry:
                    raise ConfigError(
                        f"{spec.name}.thresholds.{name}: missing 'value'"
                    )
                new = entry["value"]
                override = entry.get("override", False)
                if not isinstance(override, bool):
                    raise ConfigError(
                        f"{spec.name}.thresholds.{name}.override: {override!r} "
                        f"is not true or false"
                    )
            else:
                new, override = entry, False
            try:
                new = float(new)
                if not math.isfinite(new):
                    raise ValueError
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{spec.name}.thresholds.{name}: {new!r} is not a finite number"
                ) from None
            looser = (
                new < value if _TIGHTER_IS_LARGER[op] else new > value
            )
            if looser and not override:
                raise ConfigError(
                    f"{spec.name}.thresholds.{name}: {new} is looser than the "
                    f"default {value}; loosening requires override: true"
                )
            value = new
        resolved[name] = {"value": value, "op": op}
    return resolved


# ---------------------------------------------------------------------------
# scenario registry


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    defaults: dict
    thresholds: dict
    runner: object  # fn(params, seed) -> (columns, rows, metrics)


SCENARIOS: dict = {}


def _register(name, defaults, thresholds):
    def wrap(fn):
        SCENARIOS[name] = ScenarioSpec(
            name=name, defaults=defaults, thresholds=thresholds, runner=fn
        )
        return fn

    return wrap


def scenario_names() -> list:
    return sorted(SCENARIOS)


def _sub_seed(seed: int, index: int) -> int:
    return int(rng.derive_seed(np.uint64(seed), np.uint64(index)))


def _need_integer(name: str, key: str, value) -> None:
    """Parameter `key` of scenario `name` must be an integer: int() would
    truncate 1.5 and read True as 1, so two configs would run as one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name}.{key}: need an integer, got {value!r}")


def _nonempty(name: str, key: str, count) -> None:
    """A count parameter of scenario `name` that leaves it nothing to run."""
    if count < 1:
        raise ConfigError(f"{name}.{key}: need at least 1, got {count}")


def _mandelbrot_trees(name: str, params, seed: int):
    """A Mandelbrot scenario's config, and its i-th surviving tree as
    (sample, tries); no sample, or a subcritical p, is a config error of
    scenario `name`."""
    _nonempty(name, "samples", params["samples"])
    M, d, p = params["M"], params["d"], params["p"]
    _check_mandelbrot_budget(M, d, p, params["depth"], params["budget"])
    cfg = mandelbrot_config(M, d, p)
    if not cfg.supercritical:
        raise ConfigError(f"{name}.p: {p} is subcritical")

    def surviving(i):
        return sample_surviving_tree(
            cfg.law,
            params["depth"],
            _sub_seed(seed, i),
            max_tries=params["max_tries"],
            budget=params["budget"],
        )

    return cfg, surviving


# ---------------------------------------------------------------------------
# scenarios


@_register(
    "moran",
    defaults={
        "cases": [
            {"ratios": [0.5, 0.25, 0.25], "expected": 1.0, "tol": 1e-10},
            {
                "ratios": [0.5, 0.5, 0.5],
                "expected": math.log(3.0) / math.log(2.0),
                "tol": 1e-9,
            },
        ]
    },
    thresholds={"max_rel_excess": {"value": 1.0, "op": "<="}},
)
def _run_moran(params, seed):
    """Check the similarity-dimension solver against analytic cases."""
    columns = ["case", "ratios", "dimension", "expected", "abs_error", "tol"]
    rows = []
    worst = 0.0
    for i, case in enumerate(params["cases"]):
        ratios = [float(r) for r in case["ratios"]]
        s = moran_dimension(np.array(ratios))
        err = abs(s - float(case["expected"]))
        worst = max(worst, err / float(case["tol"]))
        rows.append(
            [i, "|".join(repr(r) for r in ratios), s,
             float(case["expected"]), err, float(case["tol"])]
        )
    return columns, rows, {"max_rel_excess": worst, "n_cases": len(rows)}


@_register(
    "percolate-dim",
    defaults={
        "M": 3,
        "d": 2,
        "p": 0.7,
        "depth": 8,
        "samples": 64,
        "min_depth": 1,
        "max_tries": 1000,
        "budget": 20_000_000,
    },
    thresholds={
        "slope_abs_error": {"value": 0.15, "op": "<="},
        "mean_r2": {"value": 0.98, "op": ">="},
    },
)
def _run_percolate_dim(params, seed):
    """Box-count slopes of surviving Mandelbrot samples vs theory."""
    cfg, surviving = _mandelbrot_trees("percolate-dim", params, seed)

    def one(i):
        sample, tries = surviving(i)
        est = box_count_estimate(sample, cfg.ifs, min_depth=params["min_depth"])
        return [i, sample.seed, tries, est.slope, est.r2, int(sample.counts()[-1])]

    rows = parallel_map(one, range(params["samples"]))
    slopes = np.array([r[3] for r in rows])
    r2s = np.array([r[4] for r in rows])
    metrics = {
        "theory_dim": cfg.dimension,
        "mean_slope": float(slopes.mean()),
        "slope_abs_error": abs(float(slopes.mean()) - cfg.dimension),
        "mean_r2": float(r2s.mean()),
        "min_r2": float(r2s.min()),
    }
    columns = ["sample", "seed", "tries", "slope", "r2", "leaf_count"]
    return columns, rows, metrics


@_register(
    "projection-positivity",
    defaults={
        "M": 3,
        "d": 2,
        "p": 0.7,
        "depth": 8,
        "samples": 64,
        "directions": 36,
        "rho": 0.02,
        "max_tries": 1000,
        "budget": 20_000_000,
    },
    thresholds={"min_measure": {"value": 0.05, "op": ">"}},
)
def _run_projection_positivity(params, seed):
    """Projection lengths of surviving samples, all directions."""
    _nonempty("projection-positivity", "directions", params["directions"])
    cfg, surviving = _mandelbrot_trees("projection-positivity", params, seed)
    betas = np.linspace(0.0, math.pi, params["directions"], endpoint=False)

    def one(i):
        sample, _ = surviving(i)
        cloud = CellCloud.from_sample(sample, cfg.ifs, params["rho"])
        return [
            [i, j, float(beta), cloud.projected_length(Direction.from_angle(beta))]
            for j, beta in enumerate(betas)
        ]

    rows = [row for chunk in parallel_map(one, range(params["samples"])) for row in chunk]
    measures = np.array([r[3] for r in rows])
    metrics = {
        "min_measure": float(measures.min()),
        "mean_measure": float(measures.mean()),
    }
    return ["sample", "direction", "beta", "measure"], rows, metrics


@_register(
    "sections-conservation",
    defaults={
        "ifs": "sierpinski_carpet",
        "beta": 0.0,
        "epsilon": 0.15,
        "scales": "3:-2:-7",
        "grid": 512,
    },
    thresholds={"qualifying_fraction": {"value": 0.5, "op": ">="}},
)
def _run_sections_conservation(params, seed):
    """Slice-dimension profile of a deterministic attractor."""
    ifs = load_ifs(params["ifs"])
    scales = parse_scales(params["scales"])
    (profile,) = conservation_profile(
        ifs,
        [Direction.from_angle(params["beta"])],
        params["epsilon"],
        scales,
        grid=params["grid"],
    )
    rows = [
        [float(x), s, r, bool(v), bool(q)]
        for x, s, r, v, q in zip(
            profile.x_grid, profile.slopes, profile.r2, profile.valid, profile.qualifying
        )
    ]
    metrics = {
        "qualifying_fraction": profile.qualifying_fraction,
        "valid_fraction": profile.valid_fraction,
        "n_valid": profile.n_valid,
        "threshold_slope": profile.threshold,
        "dimension": moran_dimension(ifs),
    }
    return ["x", "slope", "r2", "valid", "qualifies"], rows, metrics


@_register(
    "mandelbrot-slices",
    defaults={
        "M": 3,
        "d": 2,
        "p": 0.85,
        "depth": 7,
        "samples": 16,
        "epsilon": 0.25,
        "betas": [0.0, 0.5, 1.0],
        "grid": 256,
        "min_depth": 2,
        "max_tries": 1000,
        "budget": 20_000_000,
    },
    thresholds={"min_mean_qualifying_fraction": {"value": 0.3, "op": ">="}},
)
def _run_mandelbrot_slices(params, seed):
    """Slice-dimension profiles of percolation samples."""
    cfg, surviving = _mandelbrot_trees("mandelbrot-slices", params, seed)
    rmax = float(cfg.ifs.ratios.max())
    scales = [
        cfg.ifs.diameter_proxy * rmax ** k
        for k in range(params["min_depth"], params["depth"] + 1)
    ]
    betas = [float(b) for b in params["betas"]]
    _nonempty("mandelbrot-slices", "betas", len(betas))

    def one(i):
        sample, _ = surviving(i)
        profiles = conservation_profile_sample(
            sample,
            cfg.ifs,
            cfg.dimension,
            [Direction.from_angle(beta) for beta in betas],
            params["epsilon"],
            scales,
            grid=params["grid"],
        )
        return [
            [
                i,
                sample.seed,
                beta,
                profile.qualifying_fraction,
                profile.valid_fraction,
                profile.n_valid,
            ]
            for beta, profile in zip(betas, profiles)
        ]

    rows = [row for chunk in parallel_map(one, range(params["samples"])) for row in chunk]
    metrics = {"theory_dim": cfg.dimension}
    means = []
    for beta in betas:
        fr = np.array([r[3] for r in rows if r[2] == beta])
        mean = float(fr.mean())
        means.append(mean)
        metrics[f"mean_qualifying_beta_{beta:g}"] = mean
    metrics["min_mean_qualifying_fraction"] = min(means)
    columns = ["sample", "seed", "beta", "qualifying_fraction", "valid_fraction", "n_valid"]
    return columns, rows, metrics


@_register(
    "probe",
    defaults={
        "ifs": "sierpinski_carpet",
        "alpha": None,
        "alpha_margin": 0.1,
        "beta": 0.0,
        "epsilon": 0.15,
        "scales": "3:-2:-6",
        "grid": 2048,
        "min_r2": 0.98,
        "trials": 200,
        "depth": 10,
    },
    thresholds={"success_fraction": {"value": 0.9, "op": ">="}},
)
def _run_probe(params, seed):
    """Random-section probing: scenario report, or x/hit_frequency CSV with --alpha."""
    ifs = load_ifs(params["ifs"])
    s = moran_dimension(ifs)
    alpha = params["alpha"]
    if alpha is None:
        alpha = s - 1.0 - params["alpha_margin"]
    direction = Direction.from_angle(params["beta"])
    (profile,) = conservation_profile(
        ifs,
        [direction],
        params["epsilon"],
        parse_scales(params["scales"]),
        grid=params["grid"],
    )
    result = probe_sections(
        ifs,
        alpha,
        direction,
        params["depth"],
        params["trials"],
        seed,
        x_grid=profile.x_grid,
    )
    # only classify offsets whose log-log fit is actually linear; slopes from
    # poor fits say nothing about the fiber either way
    trusted = profile.valid & (profile.r2 >= params["min_r2"])
    qual = trusted & (profile.slopes > profile.threshold)
    non_qual = trusted & (profile.slopes <= profile.threshold)
    n_q, n_nq = int(qual.sum()), int(non_qual.sum())
    columns = ["trial", "survived", "qualifying_mean", "non_qualifying_mean", "success"]
    rows = []
    successes = 0
    for t in range(params["trials"]):
        if n_q and n_nq:
            mq = float(result.hits[t, qual].mean())
            mnq = float(result.hits[t, non_qual].mean())
            ok = mq > mnq
        else:
            mq, mnq, ok = None, None, False
        successes += bool(ok)
        rows.append([t, bool(result.survived[t]), mq, mnq, bool(ok)])
    metrics = {
        "success_fraction": successes / params["trials"],
        "alpha": float(alpha),
        "n_qualifying": n_q,
        "n_non_qualifying": n_nq,
        "extinct_trials": int((~result.survived).sum()),
    }
    return columns, rows, metrics


@_register(
    "exceptional-scan",
    defaults={
        "r": 0.5,
        "theta": 1.0,
        "b": 1.0,
        "gamma": 0.0,
        "q": 2,
        "k": 2,
        "delta": 1.0 / 3.0,
        "N_values": [50, 100, 200],
        "beta_grid": 2048,
        "tau_grid": 4096,
        "chunk": 64,
    },
    thresholds={"max_fraction_increase": {"value": 1.0 / 2048.0, "op": "<="}},
)
def _run_exceptional_scan(params, seed):
    """Phase-alignment membership scan over directions."""
    for key in ("beta_grid", "chunk"):
        _nonempty("exceptional-scan", key, params[key])
    betas = np.linspace(0.0, math.pi, params["beta_grid"], endpoint=False)
    chunks = [
        betas[i : i + params["chunk"]] for i in range(0, len(betas), params["chunk"])
    ]
    n_values = sorted(params["N_values"])
    if len(set(n_values)) < 2:
        # the gate reads the increases between horizons: one would pass it
        raise ConfigError(f"exceptional-scan.N_values: need 2 distinct horizons, got {n_values}")
    columns = ["N", "beta", "max_fraction", "witness_tau", "member"]
    rows = []
    member_fractions = []
    for n in n_values:
        ap = AlignmentParams(
            r=params["r"],
            theta=params["theta"],
            b=params["b"],
            gamma=params["gamma"],
            q=params["q"],
            k=params["k"],
            delta=params["delta"],
            big_n=n,
            tau_grid=params["tau_grid"],
        )
        results = parallel_map(lambda c: scan_directions(ap, c), chunks)
        members = 0
        for res in results:
            for b, f, w, mem in zip(
                res.betas, res.max_fractions, res.witness_taus, res.members
            ):
                rows.append([n, float(b), float(f), float(w), bool(mem)])
                members += bool(mem)
        member_fractions.append(members / len(betas))
    increase = 0.0
    for prev, cur in zip(member_fractions, member_fractions[1:]):
        increase = max(increase, cur - prev)
    metrics = {
        "max_fraction_increase": increase,
        "alignment_threshold": params["r"] ** (2 * params["q"] * params["k"]) / 15.0,
    }
    for n, f in zip(n_values, member_fractions):
        metrics[f"member_fraction_N{n}"] = f
    return columns, rows, metrics


@_register(
    "fourier-decay",
    defaults={
        "ifs": "rotational_m3",
        "epsilon": 0.3,
        "q": None,
        "k": 3,
        "beta": 0.7,
        "ladder": "2:6",
        "tau": 1.0,
        "pad": 2,
        "degenerate_ifs": "degenerate_pair",
    },
    thresholds={
        "decay_slope": {"value": 0.0, "op": ">"},
        "degenerate_slope_abs": {"value": 0.02, "op": "<="},
    },
)
def _run_fourier_decay(params, seed):
    """Decay of the sparse Fourier factor product along a ladder."""
    if params["q"] is not None:
        _need_integer("fourier-decay", "q", params["q"])
    base = load_ifs(params["ifs"])
    selection = forced_pair_law(base, params["epsilon"], q=params["q"])
    system = iterate_system(base, selection.q)
    ladder = parse_ladder(params["ladder"])
    depth = params["k"] * (max(ladder) + params["pad"])
    sample = sample_measure(selection.law, depth, seed)
    est = fourier_decay(
        sample,
        system,
        params["k"],
        params["beta"],
        ladder,
        tau=params["tau"],
        pad=params["pad"],
    )
    rows = [
        ["main", int(n), float(t), v.real, v.imag, float(mod), float(tb)]
        for n, t, v, mod, tb in zip(est.ns, est.ts, est.values, est.moduli, est.tail_bounds)
    ]

    degenerate = load_ifs(params["degenerate_ifs"])
    dg_law = fixed_vector_law(np.full(degenerate.m, 1.0 / degenerate.m))
    dg_sample = sample_measure(dg_law, depth, _sub_seed(seed, 1))
    dg = fourier_decay(
        dg_sample,
        degenerate,
        params["k"],
        params["beta"],
        ladder,
        tau=params["tau"],
        pad=params["pad"],
    )
    rows += [
        ["degenerate", int(n), float(t), v.real, v.imag, float(mod), float(tb)]
        for n, t, v, mod, tb in zip(dg.ns, dg.ts, dg.values, dg.moduli, dg.tail_bounds)
    ]
    metrics = {
        "q_selected": selection.q,
        "p_q": selection.p_q,
        "dim_proxy": selection.dim_proxy,
        "decay_slope": est.slope,
        "decay_r2": est.r2,
        "exact_zeros": est.exact_zeros,
        "degenerate_slope": dg.slope,
        "degenerate_slope_abs": abs(dg.slope),
    }
    columns = ["branch", "N", "t", "re", "im", "modulus", "tail_bound"]
    return columns, rows, metrics


# ---------------------------------------------------------------------------
# running and reporting


def _merge_params(spec: ScenarioSpec, params) -> dict:
    params = params or {}
    if not isinstance(params, dict):
        raise ConfigError(f"{spec.name}.params: must be an object")
    merged = json.loads(json.dumps(spec.defaults))
    for key, value in params.items():
        if key not in merged:
            raise ConfigError(f"{spec.name}.{key}: unknown parameter")
        # a param whose default is an int or a list of ints takes the same
        default = merged[key]
        if isinstance(default, int):
            _need_integer(spec.name, key, value)
        elif isinstance(default, list) and default and isinstance(default[0], int):
            if not isinstance(value, list):
                raise ConfigError(f"{spec.name}.{key}: need a list, got {value!r}")
            for v in value:
                _need_integer(spec.name, key, v)
        merged[key] = value
    return merged


def run_scenario(name: str, params=None, seed=None, thresholds=None) -> dict:
    """Execute one scenario and assemble its report dict."""
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; know {scenario_names()}")
    spec = SCENARIOS[name]
    if seed is None:
        raise ConfigError(f"{name}.seed: a seed is required")
    # int() would truncate 1.5 and read True as 1: two configs, one digest
    fractional = isinstance(seed, (float, np.floating)) and not float(seed).is_integer()
    if fractional or isinstance(seed, (bool, np.bool_)):
        raise ConfigError(f"{name}.seed: {seed!r} is not an integer")
    try:
        seed = int(seed)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name}.seed: {seed!r} is not an integer") from None
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{name}.seed: {seed} is outside 0..2^64-1")
    merged = _merge_params(spec, params)
    resolved = _resolve_thresholds(spec, thresholds)

    start = time.perf_counter()
    columns, rows, metrics = spec.runner(merged, seed)
    wall = time.perf_counter() - start

    metrics = _scrub(metrics)
    passes = {
        tname: _compare(metrics.get(tname), th["op"], th["value"])
        for tname, th in resolved.items()
    }
    body = {
        "scenario": name,
        "seed": seed,
        "params": _scrub(merged),
        "thresholds": resolved,
        "columns": list(columns),
        "rows": _scrub(rows),
        "metrics": metrics,
        "passes": passes,
        "all_pass": all(passes.values()),
        "version": _package_version(),
    }
    body["config_digest"] = hashlib.sha256(
        json.dumps(
            {
                "scenario": name,
                "seed": seed,
                "params": body["params"],
                "thresholds": resolved,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
    ).hexdigest()
    body["volatile"] = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "wall_clock_sec": wall,
    }
    return body


def canonical_report_bytes(report: dict) -> bytes:
    """Deterministic serialization: the volatile block is excluded."""
    stable = {k: v for k, v in report.items() if k != "volatile"}
    return json.dumps(
        stable, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode()


def report_digest(report: dict) -> str:
    return hashlib.sha256(canonical_report_bytes(report)).hexdigest()


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return json.dumps(value)
    return str(value)


def rows_to_csv(columns, rows) -> str:
    """A header line of `columns`, then one line per row."""
    lines = [",".join(columns)]
    lines += [",".join(_csv_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def report_to_csv(report: dict) -> str:
    return rows_to_csv(report["columns"], report["rows"])


def load_config(path) -> dict:
    """Read a scenario config: {"params": ..., "thresholds": ..., "seed": ...}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON ({exc})") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    unknown = set(cfg) - {"params", "thresholds", "seed"}
    if unknown:
        raise ConfigError(f"config {path}: unknown key {sorted(unknown)[0]!r}")
    return cfg
