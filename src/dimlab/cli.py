"""Command line entry points.

Two kinds of commands share one executable: scenario runners (moran,
percolate-dim, ...) that read a JSON config and write a pass/fail report,
and utility commands (percolate, sections, fourier, ...) that expose single
operations as CSV emitters.  Scenario commands are built from
``experiments.SCENARIOS``, each with its runner's docstring as help; probe
adds a utility mode (``--alpha``) to its scenario options.

Every command body runs under one guard, `_guarded`: the body's return value
is the exit code (None means 0), and a DimlabError or OSError prints
``error: ...`` and exits 2.

Exit codes: 0 all thresholds pass, 1 some threshold failed, 2 validation
or I/O error.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import click
import numpy as np
from click.core import ParameterSource

from . import rng
from .catalog import load_ifs
from .errors import BudgetExceededError, ConfigError, DimlabError
from .exceptional import AlignmentParams, scan_directions
from .experiments import (
    SCENARIOS,
    load_config,
    parse_ladder,
    parse_scales,
    report_to_csv,
    report_to_json,
    rows_to_csv,
    run_scenario,
)
from .geometry import DEFAULT_BUDGET, iterate_system
from .measures import forced_pair_law, fourier_decay, measure_dimension, sample_measure
from .percolation import (
    _check_mandelbrot_budget,
    batch_generation_counts,
    sample_tree,
    standard_law,
    table_law,
    uniform_law,
    mandelbrot_config,
)
from .sections import Direction, conservation_profile, probe_sections


def _write(out, text):
    """Write `text` to the file `out`, or to stdout when it is empty."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _emit_rows(out, columns, rows):
    _write(out, rows_to_csv(columns, rows))


def _guarded(body):
    """Make `body` a command callback: its return value is the exit code
    (None means 0), and a DimlabError or OSError prints `error: ...` and
    exits 2."""

    @functools.wraps(body)
    def callback(*args, **kwargs):
        try:
            code = body(*args, **kwargs)
        except (DimlabError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            code = 2
        raise SystemExit(code or 0)

    return callback


@click.group()
def main():
    """Numerical experiments on self-similar sets, percolation, and slices."""


# ---------------------------------------------------------------------------
# scenario commands


def _finish_scenario(name, config, seed, out, fmt):
    cfg = load_config(config) if config else {}
    if seed is None:
        seed = cfg.get("seed")
    report = run_scenario(
        name, params=cfg.get("params"), seed=seed, thresholds=cfg.get("thresholds")
    )
    _write(out, report_to_json(report) if fmt == "json" else report_to_csv(report))
    for tname in sorted(report["passes"]):
        ok = report["passes"][tname]
        click.echo(
            f"{name}: {tname} = {report['metrics'].get(tname)} "
            f"[{'pass' if ok else 'FAIL'}]",
            err=True,
        )
    return 0 if report["all_pass"] else 1


# run_scenario's rule for every --seed: a uint64, as the samplers key trees by
_SEED = click.IntRange(0, 2**64 - 1)

_SCENARIO_OPTIONS = [
    click.Option(["--config"], default=None, help="JSON config with params/thresholds/seed."),
    click.Option(["--seed"], type=_SEED, default=None, help="Seed (required here or in the config)."),
    click.Option(["--out"], default=None, help="Report path (stdout when omitted)."),
    click.Option(
        ["--format", "fmt"],
        type=click.Choice(["json", "csv"]),
        default="json",
        help="Report format.",
    ),
]


for _name, _spec in SCENARIOS.items():
    if _name != "probe":
        main.add_command(click.Command(
            _name,
            params=list(_SCENARIO_OPTIONS),
            callback=_guarded(functools.partial(_finish_scenario, _name)),
            help=_spec.runner.__doc__,
        ))


def _reject_other_probe_mode(alpha):
    """Options given for the mode that `alpha` does not select are errors,
    not silently ignored."""
    if alpha is None:
        other, rule = ("ifs_name", "trials", "depth", "beta", "grid"), "probe {} needs --alpha"
    else:
        other, rule = ("config", "fmt"), "probe --alpha does not take {}"
    ctx = click.get_current_context()
    for param in ctx.command.params:
        if param.name in other and ctx.get_parameter_source(param.name) != ParameterSource.DEFAULT:
            raise DimlabError(rule.format(param.opts[0]))


@main.command("probe", params=list(_SCENARIO_OPTIONS), help=SCENARIOS["probe"].runner.__doc__)
@click.option("--alpha", type=float, default=None, help="Utility mode: survival exponent.")
@click.option("--ifs", "ifs_name", default="sierpinski_carpet", help="Utility mode system.")
@click.option("--trials", type=int, default=200)
@click.option("--depth", type=int, default=8)
@click.option("--beta", type=float, default=0.0)
@click.option("--grid", type=int, default=512)
@_guarded
def probe_command(config, seed, out, fmt, alpha, ifs_name, trials, depth, beta, grid):
    _reject_other_probe_mode(alpha)
    if alpha is None:
        return _finish_scenario("probe", config, seed, out, fmt)
    if seed is None:
        raise DimlabError("probe --alpha needs --seed")
    ifs = load_ifs(ifs_name)
    result = probe_sections(
        ifs, alpha, Direction.from_angle(beta), depth, trials, seed, grid=grid
    )
    rows = [
        [float(x), float(f)]
        for x, f in zip(result.x_grid, result.frequency)
    ]
    _emit_rows(out, ["x", "hit_frequency"], rows)


# ---------------------------------------------------------------------------
# utility commands


def _parse_law(text, ifs):
    kind, _, arg = text.partition(":")
    try:
        if kind == "standard":
            return standard_law(ifs, float(arg))
        if kind == "uniform":
            return uniform_law(ifs.m, float(arg))
        if kind == "table":
            with open(arg, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            law = table_law(doc["masks"], doc["probs"])
            if law.m != ifs.m:
                raise DimlabError(f"table arity {law.m} does not match the system ({ifs.m})")
            return law
    except DimlabError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        # a number that does not parse, a file that is not JSON, or a table
        # whose "masks" or "probs" is missing or of the wrong type
        raise ConfigError(f"law {text!r}: {type(exc).__name__}: {exc}") from None
    raise DimlabError(f"law {text!r}: want standard:A, uniform:P, or table:FILE")


_TREE_BUDGET_HELP = (
    "Bound on node slots: seeds x (depth + 1) at least, then the nodes kept so far "
    "plus the child slots of the next generation; first for the forest of all seeds, "
    "then, if that fails, for each tree alone."
)


def _percolate_rows(law, depth, n_seeds, seed, budget):
    seeds = rng.derive_seed(np.uint64(seed), np.arange(n_seeds, dtype=np.uint64))
    # The batch grows the seeds' trees as one forest, which must fit the
    # budget whole; when it does not, each tree needs to fit alone.
    try:
        counts = batch_generation_counts(law, depth, seeds, budget=budget)
    except BudgetExceededError:
        counts = [sample_tree(law, depth, int(s), budget=budget).counts() for s in seeds]
    return [
        [int(s), bool(gen[-1] > 0), int(gen[-1]), "|".join(str(int(c)) for c in gen)]
        for s, gen in zip(seeds, counts)
    ]


@main.command("percolate")
@click.option("--ifs", "ifs_path", required=True, help="System file or catalog name.")
@click.option("--law", "law_spec", required=True, help="standard:A | uniform:P | table:FILE")
@click.option("--depth", type=int, default=8)
@click.option("--seeds", "n_seeds", type=click.IntRange(min=1), default=1000,
              help="Number of independent trees.")
@click.option("--seed", type=_SEED, required=True, help="Base seed for the tree streams.")
@click.option("--out", default=None)
@click.option("--budget", type=int, default=DEFAULT_BUDGET, help=_TREE_BUDGET_HELP)
@_guarded
def percolate_command(ifs_path, law_spec, depth, n_seeds, seed, out, budget):
    """Sample percolation trees and tabulate per-generation survival counts."""
    ifs = load_ifs(ifs_path)
    law = _parse_law(law_spec, ifs)
    rows = _percolate_rows(law, depth, n_seeds, seed, budget)
    _emit_rows(out, ["seed", "survived", "count_at_depth", "generation_counts"], rows)
    survived = sum(1 for r in rows if r[1])
    click.echo(f"{survived}/{n_seeds} trees survive to depth {depth}", err=True)


@main.command("mandelbrot")
@click.option("--M", "m_grid", type=int, required=True, help="Subdivisions per axis.")
@click.option("--d", type=int, default=2, help="Ambient dimension.")
@click.option("--p", type=float, required=True, help="Retention probability.")
@click.option("--depth", type=int, default=8)
@click.option("--seeds", "n_seeds", type=click.IntRange(min=1), default=1000)
@click.option("--seed", type=_SEED, required=True)
@click.option("--out", default=None)
@click.option("--budget", type=int, default=DEFAULT_BUDGET, help=_TREE_BUDGET_HELP)
@_guarded
def mandelbrot_command(m_grid, d, p, depth, n_seeds, seed, out, budget):
    """Mandelbrot percolation: M^d-adic cubes, uniform retention."""
    _check_mandelbrot_budget(m_grid, d, p, depth, budget)
    cfg = mandelbrot_config(m_grid, d, p)
    if cfg.supercritical:
        click.echo(f"supercritical, a.s. dimension {cfg.dimension:.6f}", err=True)
    else:
        click.echo("subcritical: dies out almost surely", err=True)
    rows = _percolate_rows(cfg.law, depth, n_seeds, seed, budget)
    _emit_rows(out, ["seed", "survived", "count_at_depth", "generation_counts"], rows)


@main.command("sections")
@click.option("--ifs", "ifs_path", required=True)
@click.option("--beta", type=float, default=0.0, help="Projection direction angle.")
@click.option("--eps", type=float, default=0.1, help="Dimension-drop tolerance.")
@click.option("--scales", default="3:-2:-7", help="base:hi:lo geometric scale ladder.")
@click.option("--grid", type=int, default=512)
@click.option("--out", default=None)
@click.option(
    "--budget", type=int, default=DEFAULT_BUDGET,
    help="Bound on the stopping-set cells so far plus m child slots per word "
    "still above the finest scale.",
)
@_guarded
def sections_command(ifs_path, beta, eps, scales, grid, out, budget):
    """Slice-count profile of a deterministic attractor over an offset grid."""
    ifs = load_ifs(ifs_path)
    ladder = parse_scales(scales)
    profile = conservation_profile(
        ifs, Direction.from_angle(beta), eps, ladder, grid=grid, budget=budget
    )
    rows = []
    for j, x in enumerate(profile.x_grid):
        slope = float(profile.slopes[j]) if profile.valid[j] else None
        r2 = float(profile.r2[j]) if profile.valid[j] else None
        for si, scale in enumerate(ladder):
            rows.append(
                [float(x), float(scale), int(profile.counts[si, j]),
                 slope, r2, bool(profile.qualifying[j])]
            )
    _emit_rows(out, ["x", "scale", "count", "slope", "r2", "qualifies"], rows)
    click.echo(
        f"qualifying fraction {profile.qualifying_fraction:.4f} "
        f"(threshold slope {profile.threshold:.4f})",
        err=True,
    )


@main.command("fourier")
@click.option("--ifs", "ifs_path", default="rotational_m3")
@click.option("--q", type=int, default=None, help="Block size (auto-selected if omitted).")
@click.option("--k", type=int, default=3, help="Sparse-factor stride.")
@click.option("--eps", type=float, default=0.3, help="Dimension-drop parameter of the law.")
@click.option("--beta", type=float, default=0.7)
@click.option("--ladder", default="2:6", help="lo:hi range of ladder exponents N.")
@click.option("--tau", type=float, default=1.0)
@click.option("--seed", type=_SEED, required=True)
@click.option("--out", default=None)
@_guarded
def fourier_command(ifs_path, q, k, eps, beta, ladder, tau, seed, out):
    """Sparse Fourier product |eta| along the t-ladder for one direction."""
    base = load_ifs(ifs_path)
    selection = forced_pair_law(base, eps, q=q)
    system = iterate_system(base, selection.q)
    ns = parse_ladder(ladder)
    depth = k * (max(ns) + 2)
    sample = sample_measure(selection.law, depth, seed)
    est = fourier_decay(sample, system, k, beta, ns, tau=tau)
    rows = [
        [float(t), float(v.real), float(v.imag), float(mod), float(tb)]
        for t, v, mod, tb in zip(est.ts, est.values, est.moduli, est.tail_bounds)
    ]
    _emit_rows(out, ["t", "re", "im", "modulus", "tail_bound"], rows)
    slope = est.slope if math.isfinite(est.slope) else float("nan")
    click.echo(
        f"q = {selection.q}, decay slope {slope:.6f}, exact zeros {est.exact_zeros}",
        err=True,
    )


@main.command("measure-dim")
@click.option("--ifs", "ifs_path", default="rotational_m3")
@click.option("--eps", type=float, default=0.3)
@click.option("--q", type=int, default=None)
@click.option("--trials", type=int, default=100000)
@click.option("--seed", type=_SEED, required=True)
@_guarded
def measure_dim_command(ifs_path, eps, q, trials, seed):
    """Monte Carlo dimension of the random-subset measure."""
    base = load_ifs(ifs_path)
    selection = forced_pair_law(base, eps, q=q)
    est, se = measure_dimension(selection.law, trials, seed)
    click.echo(
        f"q = {selection.q}  p_q = {selection.p_q:.6g}  "
        f"retention = {selection.per_symbol_retention:.6g}"
    )
    click.echo(f"dimension = {est:.6f} +/- {se:.6f}  ({trials} draws)")


@main.command("exceptional")
@click.option("--r", type=float, default=0.5)
@click.option("--gamma", type=float, default=0.0)
@click.option("--b", type=float, default=1.0)
@click.option("--theta", type=float, default=1.0)
@click.option("--q", type=int, default=2)
@click.option("--k", type=int, default=2)
@click.option("--delta", type=float, default=1.0 / 3.0)
@click.option("--N", "big_n", type=int, default=100)
@click.option("--beta-grid", type=click.IntRange(min=1), default=2048)
@click.option("--tau-grid", type=int, default=4096)
@click.option("--out", default=None)
@_guarded
def exceptional_command(r, gamma, b, theta, q, k, delta, big_n, beta_grid, tau_grid, out):
    """Scan directions for persistent phase alignment."""
    params = AlignmentParams(
        r=r, theta=theta, b=b, gamma=gamma, q=q, k=k,
        delta=delta, big_n=big_n, tau_grid=tau_grid,
    )
    betas = np.linspace(0.0, math.pi, beta_grid, endpoint=False)
    res = scan_directions(params, betas)
    rows = [
        [float(bb), float(f), float(w), bool(mem)]
        for bb, f, w, mem in zip(
            res.betas, res.max_fractions, res.witness_taus, res.members
        )
    ]
    _emit_rows(out, ["beta", "max_fraction", "witness_tau", "member"], rows)
    click.echo(f"member fraction {res.member_fraction:.6f}", err=True)


if __name__ == "__main__":
    sys.exit(main())
