"""End-to-end runs of the console commands on tiny inputs."""

import csv
import io
import json
import math
import re

import pytest
from click.testing import CliRunner

from dimlab.cli import main
from dimlab.experiments import SCENARIOS


@pytest.fixture()
def runner():
    return CliRunner()


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# scenario commands and exit codes


def test_moran_scenario_passes(runner):
    res = runner.invoke(main, ["moran", "--seed", "1"])
    assert res.exit_code == 0
    report = json.loads(res.stdout)
    assert report["scenario"] == "moran"
    assert report["all_pass"] is True
    assert "max_rel_excess = " in res.stderr and "[pass]" in res.stderr


def test_moran_csv_format(runner):
    res = runner.invoke(main, ["moran", "--seed", "1", "--format", "csv"])
    assert res.exit_code == 0
    header, rows = read_csv(res.stdout.split("# metrics")[0].strip() + "\n")
    assert header[0] == "case"
    assert rows


def test_scenario_out_file(runner, tmp_path):
    dest = tmp_path / "report.json"
    res = runner.invoke(main, ["moran", "--seed", "1", "--out", str(dest)])
    assert res.exit_code == 0
    assert res.stdout == ""
    report = json.loads(dest.read_text())
    assert report["all_pass"] is True


def test_seed_from_config_file(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    res = runner.invoke(main, ["moran", "--config", str(cfg)])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["seed"] == 7


def test_tightened_threshold_fails_with_exit_1(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"thresholds": {"max_rel_excess": {"value": 1e-300}}})
    )
    res = runner.invoke(main, ["moran", "--seed", "1", "--config", str(cfg)])
    assert res.exit_code == 1
    assert json.loads(res.stdout)["all_pass"] is False
    assert "[FAIL]" in res.stderr


def test_missing_seed_is_a_usage_error(runner):
    res = runner.invoke(main, ["moran"])
    assert res.exit_code == 2
    assert "seed" in res.stderr


def test_unknown_param_is_a_usage_error(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"bogus": 1}}))
    res = runner.invoke(main, ["moran", "--seed", "1", "--config", str(cfg)])
    assert res.exit_code == 2
    assert "moran.bogus" in res.stderr


def test_loosened_threshold_is_rejected(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"thresholds": {"max_rel_excess": {"value": 5.0}}}))
    res = runner.invoke(main, ["moran", "--seed", "1", "--config", str(cfg)])
    assert res.exit_code == 2
    assert "looser" in res.stderr


@pytest.mark.parametrize(
    "cfg, named",
    [
        ({"params": [1, 2], "seed": 1}, "moran.params"),
        ({"thresholds": [3], "seed": 1}, "moran.thresholds"),
        ({"thresholds": {"max_rel_excess": "abc"}, "seed": 1},
         "moran.thresholds.max_rel_excess"),
        ({"thresholds": {"max_rel_excess": {"value": None}}, "seed": 1},
         "moran.thresholds.max_rel_excess"),
        ({"thresholds": {"max_rel_excess": "nan"}, "seed": 1},
         "moran.thresholds.max_rel_excess"),
        ({"seed": "abc"}, "moran.seed"),
        ({"seed": -1}, "moran.seed"),
        ({"seed": math.inf}, "moran.seed"),
        ({"seed": 1.5}, "moran.seed"),
        ({"seed": True}, "moran.seed"),
        ({"seed": False}, "moran.seed"),
        ({"thresholds": {"max_rel_excess": {"value": 5.0, "override": "false"}},
          "seed": 1}, "moran.thresholds.max_rel_excess.override"),
        ({"thresholds": {"max_rel_excess": {"value": 5.0, "override": 1}},
          "seed": 1}, "moran.thresholds.max_rel_excess.override"),
        ({"thresholds": {"max_rel_excess": {"value": 5.0, "override": None}},
          "seed": 1}, "moran.thresholds.max_rel_excess.override"),
    ],
    ids=["params-list", "thresholds-list", "threshold-string", "threshold-null",
         "threshold-nan", "seed-string", "seed-negative", "seed-infinite",
         "seed-fractional", "seed-true", "seed-false", "override-string",
         "override-one", "override-null"],
)
def test_malformed_config_is_a_usage_error(runner, tmp_path, cfg, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = runner.invoke(main, ["moran", "--config", str(path)])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and named in res.stderr
    assert "Traceback" not in res.output
    assert isinstance(res.exception, SystemExit)


def test_integral_seeds_are_one_config(runner, tmp_path):
    reports = []
    for seed in (2, 2.0):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": seed}))
        res = runner.invoke(main, ["moran", "--config", str(path)])
        assert res.exit_code == 0
        reports.append(json.loads(res.stdout))
    assert [r["seed"] for r in reports] == [2, 2]
    assert reports[0]["config_digest"] == reports[1]["config_digest"]


def test_scenario_commands_come_from_the_registry(runner):
    listing = runner.invoke(main, ["--help"]).stdout
    assert len(SCENARIOS) == 8
    for name, spec in SCENARIOS.items():
        assert re.search(rf"^  {re.escape(name)}  ", listing, re.M), name
        res = runner.invoke(main, [name, "--help"])
        assert res.exit_code == 0
        assert spec.runner.__doc__ in res.stdout


def test_non_positive_rho_exits_2(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"params": {"depth": 3, "samples": 2, "directions": 2, "rho": -0.1}})
    )
    res = runner.invoke(main, ["projection-positivity", "--seed", "1", "--config", str(cfg)])
    assert res.exit_code == 2
    assert "rho must be > 0" in res.stderr


def test_probe_scenario_mode(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "params": {
                    "trials": 6,
                    "depth": 5,
                    "grid": 32,
                    "scales": "3:-2:-4",
                    "min_r2": 0.0,
                },
                "thresholds": {"success_fraction": {"value": 0.0, "override": True}},
            }
        )
    )
    res = runner.invoke(main, ["probe", "--seed", "4", "--config", str(cfg)])
    assert res.exit_code == 0
    report = json.loads(res.stdout)
    assert 0.0 <= report["metrics"]["success_fraction"] <= 1.0


# ---------------------------------------------------------------------------
# percolate / mandelbrot


def test_percolate_standard_law(runner):
    res = runner.invoke(
        main,
        ["percolate", "--ifs", "sierpinski_carpet", "--law", "standard:0.3",
         "--depth", "3", "--seeds", "5", "--seed", "7"],
    )
    assert res.exit_code == 0
    header, rows = read_csv(res.stdout)
    assert header == ["seed", "survived", "count_at_depth", "generation_counts"]
    assert len(rows) == 5
    for row in rows:
        gens = [int(c) for c in row[3].split("|")]
        assert len(gens) == 4 and gens[0] == 1
        assert row[1] in ("true", "false")
        assert (row[1] == "true") == (gens[-1] > 0)
        assert int(row[2]) == gens[-1]
    assert "trees survive to depth 3" in res.stderr


@pytest.fixture()
def branch_calls(monkeypatch):
    """Counts of batch and per-tree sampler calls made by the CLI."""
    import dimlab.cli as cli

    calls = {"batch": 0, "tree": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "batch_generation_counts",
                        counted("batch", cli.batch_generation_counts))
    monkeypatch.setattr(cli, "sample_tree", counted("tree", cli.sample_tree))
    return calls


def _branches(runner, calls, args):
    calls.update(batch=0, tree=0)
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    return read_csv(res.stdout), dict(calls)


_CARPET_ARGS = ["percolate", "--ifs", "sierpinski_carpet", "--law", "standard:0.3",
                "--depth", "3", "--seeds", "5", "--seed", "7"]


@pytest.mark.parametrize("budget", [1000, 1200])
def test_percolate_per_seed_loop_matches_the_batch(runner, branch_calls, budget):
    batch, took = _branches(runner, branch_calls, _CARPET_ARGS)
    assert took == {"batch": 1, "tree": 0}
    # growing the forest of 5 trees checks 1463 nodes, above either budget,
    # so each tree is sampled alone
    looped, took = _branches(runner, branch_calls, _CARPET_ARGS + ["--budget", str(budget)])
    assert took == {"batch": 1, "tree": 5}
    assert looped == batch
    assert len(batch[1]) == 5


def test_percolate_too_deep_for_the_budget_exits_2_at_once(runner, branch_calls):
    # 3 trees of 1001 generations hold 3003 slots, and one alone 1001: the
    # forest and then the first tree raise before drawing anything
    res = runner.invoke(main, ["percolate", "--ifs", "sierpinski_carpet",
                               "--law", "uniform:0.05", "--depth", "1000",
                               "--seeds", "3", "--seed", "7", "--budget", "1000"])
    assert res.exit_code == 2
    assert "nodes, budget is 1e+03" in res.stderr
    assert branch_calls == {"batch": 1, "tree": 1}


def test_mandelbrot_batch_needs_only_the_live_forest_to_fit(runner, branch_calls):
    args = ["mandelbrot", "--M", "3", "--p", "0.5", "--depth", "5",
            "--seeds", "1000", "--seed", "4"]
    # every word of 1000 trees (66.4M) exceeds the default budget of 5M;
    # the largest growth check of their forest (4.21M) fits it
    batch, took = _branches(runner, branch_calls, args)
    assert took == {"batch": 1, "tree": 0}
    looped, took = _branches(runner, branch_calls, args + ["--budget", "100000"])
    assert took == {"batch": 1, "tree": 1000}
    assert looped == batch
    assert len(batch[1]) == 1000


def test_percolate_uniform_law(runner):
    res = runner.invoke(
        main,
        ["percolate", "--ifs", "unit_square", "--law", "uniform:0.5",
         "--depth", "2", "--seeds", "3", "--seed", "1"],
    )
    assert res.exit_code == 0
    _, rows = read_csv(res.stdout)
    assert len(rows) == 3


@pytest.mark.parametrize(
    "spec, table, named",
    [
        ("telepathy:0.5", None, "standard:A"),
        ("standard:abc", None, "'standard:abc'"),
        ("uniform:", None, "'uniform:'"),
        ("standard:nan", None, "alpha must be >= 0"),
        ("table:{dir}/law.json", '{"probs": [1.0]}', "'masks'"),
        ("table:{dir}/law.json", '{"masks": [[1, 0, 0, 0]], "probs": 1.0}', "TypeError"),
        ("table:{dir}/law.json", "masks: [[1, 0, 0, 0]]", "JSONDecodeError"),
        ("table:{dir}/missing.json", None, "No such file"),
    ],
    ids=["unknown-kind", "standard-not-a-number", "uniform-empty", "standard-nan",
         "table-without-masks", "table-with-scalar-probs", "table-not-json",
         "table-missing"],
)
def test_percolate_rejects_bad_law_spec(runner, tmp_path, spec, table, named):
    if table is not None:
        (tmp_path / "law.json").write_text(table)
    res = runner.invoke(
        main,
        ["percolate", "--ifs", "unit_square", "--law", spec.format(dir=tmp_path),
         "--seed", "1"],
    )
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and named in res.stderr
    assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize(
    "args",
    [
        ["probe", "--alpha", "inf", "--seed", "1", "--trials", "2", "--depth", "3",
         "--grid", "4"],
        ["percolate", "--ifs", "sierpinski_carpet", "--law", "standard:inf",
         "--depth", "2", "--seeds", "2", "--seed", "1"],
    ],
    ids=["probe", "percolate"],
)
def test_an_infinite_alpha_is_rejected(runner, args):
    # r^inf = 0 would retain nothing: every hit frequency 0, every tree extinct
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and "alpha must be >= 0 and finite" in res.stderr


@pytest.mark.parametrize("probs", ["[NaN, 1.0]", "[NaN, NaN]"], ids=["one-nan", "all-nan"])
def test_a_table_law_with_nan_probabilities_exits_2(runner, tmp_path, probs):
    # json reads NaN, which fails every comparison: each tree kept every slot
    law = tmp_path / "t.json"
    law.write_text('{"masks": [[1, 1, 1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0, 0, 0]], '
                   f'"probs": {probs}}}')
    res = runner.invoke(main, ["percolate", "--ifs", "sierpinski_carpet", "--law",
                               f"table:{law}", "--depth", "2", "--seeds", "3", "--seed", "1"])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and "finite" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize(
    "args, config",
    [
        (["mandelbrot", "--M", "700", "--p", "0.5", "--depth", "2", "--seeds", "1",
          "--seed", "1", "--budget", "100000"], None),
        (["percolate-dim", "--config", "{cfg}"],
         {"params": {"M": 700, "depth": 2, "samples": 1, "budget": 100000}, "seed": 1}),
    ],
    ids=["mandelbrot", "percolate-dim"],
)
def test_a_mandelbrot_tree_over_budget_builds_no_maps(runner, tmp_path, monkeypatch,
                                                      args, config):
    # M = 700 has 490,000 maps; the first generation's 1 + 700^2 nodes are
    # over the budget, so the maps are never built
    def unbuilt(*args):
        raise AssertionError("mandelbrot_config was called")

    monkeypatch.setattr("dimlab.cli.mandelbrot_config", unbuilt)
    monkeypatch.setattr("dimlab.experiments.mandelbrot_config", unbuilt)
    cfg = tmp_path / "cfg.json"
    if config is not None:
        cfg.write_text(json.dumps(config))
    res = runner.invoke(main, [a.format(cfg=cfg) for a in args])
    assert res.exit_code == 2, res.output
    assert "needs about 4.9e+05 nodes, budget is 1e+05" in res.stderr


@pytest.mark.parametrize(
    "scenario, params, named",
    [
        ("percolate-dim", {"samples": 0}, "percolate-dim.samples"),
        ("projection-positivity", {"samples": 0}, "projection-positivity.samples"),
        ("projection-positivity", {"directions": 0}, "projection-positivity.directions"),
        ("mandelbrot-slices", {"samples": 0}, "mandelbrot-slices.samples"),
        ("mandelbrot-slices", {"betas": []}, "mandelbrot-slices.betas"),
        ("exceptional-scan", {"N_values": []}, "exceptional-scan.N_values"),
        ("exceptional-scan", {"N_values": [100]}, "exceptional-scan.N_values"),
        ("exceptional-scan", {"N_values": [100, 100]}, "exceptional-scan.N_values"),
    ],
    ids=["percolate-dim-samples", "projection-samples", "projection-directions",
         "slices-samples", "slices-betas", "scan-no-horizon", "scan-one-horizon",
         "scan-one-distinct-horizon"],
)
def test_scenario_params_that_leave_nothing_to_run_exit_2(runner, tmp_path, scenario,
                                                           params, named):
    # each died with a traceback, failed its gate, or (one horizon or none)
    # passed an increase that could not be measured
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": params, "seed": 1}))
    res = runner.invoke(main, [scenario, "--config", str(path)])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and named in res.stderr
    assert res.stdout == ""


_LINE = {"maps": [{"ratio": 1 / 3, "translation": [t]} for t in (0.0, 2 / 3)]}
_OVERLAP = {
    "separation": "SSC-verified",
    "maps": [{"ratio": 0.6, "translation": [t, 0.0]} for t in (0.0, 0.4)],
}


@pytest.mark.parametrize(
    "args, params, named",
    [
        (["projection-positivity"],
         {"d": 3, "depth": 2, "samples": 1, "directions": 2, "rho": 0.5},
         "direction dimension mismatch"),
        (["mandelbrot-slices"],
         {"d": 1, "depth": 4, "samples": 1, "betas": [0.0], "grid": 16},
         "direction dimension mismatch"),
        (["sections", "--ifs", "{line}", "--scales", "3:-2:-4", "--grid", "16"], None,
         "direction dimension mismatch"),
        (["probe", "--alpha", "0.2", "--ifs", "{line}", "--trials", "2", "--depth", "3",
          "--grid", "16", "--seed", "1"], None, "direction dimension mismatch"),
        (["sections", "--ifs", "{overlap}", "--scales", "2:-2:-4", "--grid", "16"], None,
         "SSC-verified"),
    ],
    ids=["projection-d3", "slices-d1", "sections-1d", "probe-1d", "sections-ssc-overlap"],
)
def test_systems_that_do_not_fit_the_command_exit_2(runner, tmp_path, args, params, named):
    # the first four died in numpy's matmul (exit 1); the last loaded silently
    paths = {"line": tmp_path / "line.json", "overlap": tmp_path / "overlap.json"}
    paths["line"].write_text(json.dumps(_LINE))
    paths["overlap"].write_text(json.dumps(_OVERLAP))
    args = [a.format(**paths) for a in args]
    if params is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": params, "seed": 1}))
        args += ["--config", str(cfg)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: ") and named in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize(
    "args, params, named",
    [
        (["exceptional", "--q", "100", "--k", "100", "--beta-grid", "4", "--tau-grid", "4"],
         None, "r^-qk"),
        (["exceptional", "--r", "1e-300", "--beta-grid", "4", "--tau-grid", "4"], None, "r^-qk"),
        (["exceptional-scan"], {"r": 1e-300, "beta_grid": 4, "tau_grid": 4}, "r^-qk"),
        (["sections", "--ifs", "sierpinski_carpet", "--scales", "1e308:2:1"], None, "overflows"),
        (["sections-conservation"], {"scales": "1e308:2:1"}, "overflows"),
        (["fourier", "--seed", "1", "--q", "40"], None, "budget"),
        (["fourier", "--seed", "1", "--q", "1000"], None, "budget"),
        (["measure-dim", "--seed", "1", "--trials", "3", "--q", "40"], None, "budget"),
        (["measure-dim", "--seed", "1", "--trials", "3", "--q", "1000"], None, "budget"),
        (["fourier", "--seed", "1", "--ladder", "2:400"], None, "finite"),
        (["percolate-dim"], {"samples": 2, "depth": 5, "min_depth": -2}, "min_depth"),
    ],
    ids=[
        "exceptional-qk", "exceptional-r", "exceptional-scan", "sections",
        "sections-conservation", "fourier-q40", "fourier-q1000", "measure-dim-q40",
        "measure-dim-q1000", "fourier-ladder", "percolate-dim-min-depth",
    ],
)
def test_powers_out_of_range_exit_2(runner, tmp_path, args, params, named):
    # each of these raised OverflowError (exit 1), or read a negative
    # min_depth or an infinite ladder scale silently (exit 0)
    if params is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": params, "seed": 1}))
        args = args + ["--config", str(cfg)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: ") and named in res.stderr
    assert res.stdout == ""


def test_mandelbrot_supercritical_echoes_dimension(runner):
    res = runner.invoke(
        main,
        ["mandelbrot", "--M", "2", "--p", "0.9", "--depth", "3",
         "--seeds", "4", "--seed", "3"],
    )
    assert res.exit_code == 0
    want = 2 + math.log(0.9) / math.log(2)
    assert f"dimension {want:.6f}" in res.stderr
    header, rows = read_csv(res.stdout)
    assert header[0] == "seed" and len(rows) == 4


def test_mandelbrot_subcritical_notice(runner):
    res = runner.invoke(
        main,
        ["mandelbrot", "--M", "2", "--p", "0.2", "--depth", "2",
         "--seeds", "2", "--seed", "3"],
    )
    assert res.exit_code == 0
    assert "subcritical" in res.stderr


# ---------------------------------------------------------------------------
# sections / probe utility


def test_sections_profile_csv(runner):
    res = runner.invoke(
        main,
        ["sections", "--ifs", "sierpinski_carpet", "--beta", "0.0",
         "--eps", "0.15", "--scales", "3:-2:-4", "--grid", "16"],
    )
    assert res.exit_code == 0
    header, rows = read_csv(res.stdout)
    assert header == ["x", "scale", "count", "slope", "r2", "qualifies"]
    assert len(rows) == 16 * 3
    assert "qualifying fraction" in res.stderr
    for row in rows:
        assert row[5] in ("true", "false")
        assert int(row[2]) >= 0


def test_probe_utility_mode_csv(runner):
    res = runner.invoke(
        main,
        ["probe", "--alpha", "0.8", "--trials", "5", "--depth", "4",
         "--grid", "32", "--seed", "9"],
    )
    assert res.exit_code == 0
    header, rows = read_csv(res.stdout)
    assert header == ["x", "hit_frequency"]
    assert len(rows) == 32
    assert all(0.0 <= float(r[1]) <= 1.0 for r in rows)


_PROBE_UTILITY = ["--alpha", "0.8", "--trials", "5", "--depth", "4", "--grid", "32"]


@pytest.mark.parametrize(
    "args, named",
    [
        (["--config", "{cfg}", "--trials", "50"], "--trials"),
        (["--config", "{cfg}", "--ifs", "unit_square"], "--ifs"),
        (["--config", "{cfg}", "--depth", "9"], "--depth"),
        (["--config", "{cfg}", "--beta", "1.0"], "--beta"),
        (["--config", "{cfg}", "--grid", "512"], "--grid"),
        (_PROBE_UTILITY + ["--config", "{cfg}"], "--config"),
        (_PROBE_UTILITY + ["--format", "json"], "--format"),
    ],
    ids=["trials", "ifs", "depth", "beta", "grid-at-its-default",
         "alpha-with-config", "alpha-with-format"],
)
def test_probe_rejects_options_of_the_other_mode(runner, tmp_path, args, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"trials": 2, "depth": 4, "grid": 16,
                                          "scales": "3:-2:-4", "min_r2": 0.0}}))
    args = [a.format(cfg=cfg) for a in args]
    res = runner.invoke(main, ["probe", "--seed", "4"] + args)
    assert res.exit_code == 2
    assert res.stderr.startswith("error: probe ") and named in res.stderr
    assert res.stdout == ""


def test_probe_utility_mode_needs_seed(runner):
    res = runner.invoke(main, ["probe", "--alpha", "0.8"])
    assert res.exit_code == 2
    assert "--seed" in res.stderr


@pytest.mark.parametrize(
    "args, named",
    [
        (["probe", "--alpha", "0.8", "--seed", "1", "--trials", "0",
          "--depth", "3", "--grid", "8"], "trials must be >= 1"),
        (["measure-dim", "--trials", "0", "--seed", "1"], "trials must be >= 2"),
        (["measure-dim", "--trials", "1", "--seed", "1"], "trials must be >= 2"),
        (["sections", "--ifs", "sierpinski_carpet", "--grid", "0"],
         "grid must be >= 1"),
    ],
    ids=["probe-trials-0", "measure-dim-trials-0", "measure-dim-trials-1",
         "sections-grid-0"],
)
def test_count_options_that_would_print_nan_exit_2(runner, args, named):
    # each used to print NaN (or an empty profile) and exit 0
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and named in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "args, named",
    [
        (["sections", "--ifs", "sierpinski_carpet", "--beta"], "angle must be finite"),
        (["sections", "--ifs", "sierpinski_carpet", "--eps"], "epsilon must be"),
        (["probe", "--alpha", "0.5", "--seed", "1", "--beta"], "angle must be finite"),
        (["fourier", "--seed", "1", "--beta"], "angle must be finite"),
        (["fourier", "--seed", "1", "--tau"], "tau must be"),
        (["exceptional", "--theta"], "theta must be finite"),
        (["exceptional", "--b"], "b must be finite"),
        (["exceptional", "--gamma"], "gamma must be finite"),
    ],
    ids=["sections-beta", "sections-eps", "probe-beta", "fourier-beta", "fourier-tau",
         "exceptional-theta", "exceptional-b", "exceptional-gamma"],
)
def test_non_finite_float_options_exit_2(runner, args, named, value):
    # each used to exit 0 with a vacuous result (a NaN test is always False),
    # or 1 with a traceback
    res = runner.invoke(main, args + [value])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and named in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("param, named", [("beta", "angle"), ("epsilon", "epsilon")])
def test_non_finite_scenario_params_exit_2(runner, tmp_path, param, named, value):
    # json reads NaN and Infinity; a NaN beta passed every offset
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"params": {param: value, "scales": "3:-2:-5"}, "seed": 1}))
    res = runner.invoke(main, ["sections-conservation", "--config", str(path)])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and named in res.stderr
    assert res.stdout == ""


_PERCOLATE = ["percolate", "--ifs", "sierpinski_carpet", "--law", "standard:0.5",
              "--depth", "2", "--seeds", "2"]


@pytest.mark.parametrize(
    "args, named",
    [
        (_PERCOLATE + ["--seed", "-1"], "'--seed'"),
        (_PERCOLATE + ["--seed", str(2**64)], "'--seed'"),
        (["mandelbrot", "--M", "3", "--p", "0.7", "--depth", "2", "--seed", "-1"],
         "'--seed'"),
        (["probe", "--alpha", "0.8", "--seed", "-1", "--trials", "2", "--depth", "3",
          "--grid", "8"], "'--seed'"),
        (["fourier", "--seed", "-1", "--ladder", "2:3"], "'--seed'"),
        (["measure-dim", "--trials", "100", "--seed", "-1"], "'--seed'"),
        (["percolate", "--ifs", "sierpinski_carpet", "--law", "standard:0.5",
          "--seeds", "-5", "--seed", "1"], "'--seeds'"),
        (["mandelbrot", "--M", "3", "--p", "0.7", "--seeds", "0", "--seed", "1"],
         "'--seeds'"),
    ],
    ids=["percolate-seed-negative", "percolate-seed-2^64", "mandelbrot-seed-negative",
         "probe-alpha-seed-negative", "fourier-seed-negative",
         "measure-dim-seed-negative", "percolate-seeds-negative", "mandelbrot-seeds-0"],
)
def test_out_of_range_utility_seeds_exit_2(runner, args, named):
    # the seeds used to raise a traceback (exit 1), and --seeds -5 printed
    # "0/-5 trees survive" with exit 0
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert named in res.stderr and "Traceback" not in res.stderr
    assert res.stdout == ""


def test_the_largest_seed_is_a_valid_seed(runner):
    res = runner.invoke(main, _PERCOLATE + ["--seed", str(2**64 - 1)])
    assert res.exit_code == 0
    header, rows = read_csv(res.stdout)
    assert header[0] == "seed" and len(rows) == 2


# ---------------------------------------------------------------------------
# fourier / measure-dim / exceptional


def test_fourier_ladder_csv(runner):
    res = runner.invoke(main, ["fourier", "--seed", "5", "--ladder", "2:3"])
    assert res.exit_code == 0
    header, rows = read_csv(res.stdout)
    assert header == ["t", "re", "im", "modulus", "tail_bound"]
    assert len(rows) == 2
    for row in rows:
        mod = float(row[3])
        assert math.isclose(mod, math.hypot(float(row[1]), float(row[2])),
                            rel_tol=1e-12, abs_tol=1e-12)
        assert float(row[4]) >= 0.0
    assert "decay slope" in res.stderr


def test_measure_dim_summary_lines(runner):
    res = runner.invoke(main, ["measure-dim", "--trials", "2000", "--seed", "3"])
    assert res.exit_code == 0
    assert "q = 2" in res.stdout
    assert "p_q = " in res.stdout and "retention = " in res.stdout
    assert "dimension = " in res.stdout and "+/-" in res.stdout


def test_exceptional_scan_csv(runner):
    res = runner.invoke(
        main,
        ["exceptional", "--N", "10", "--beta-grid", "8", "--tau-grid", "16"],
    )
    assert res.exit_code == 0
    header, rows = read_csv(res.stdout)
    assert header == ["beta", "max_fraction", "witness_tau", "member"]
    assert len(rows) == 8
    for row in rows:
        assert 0.0 <= float(row[1]) <= 1.0
        assert row[3] in ("true", "false")
    assert "member fraction" in res.stderr


def test_exceptional_rejects_bad_params(runner):
    res = runner.invoke(main, ["exceptional", "--r", "1.5"])
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "scenario, params, named",
    [
        ("exceptional-scan", {"chunk": 0}, "exceptional-scan.chunk"),
        ("exceptional-scan", {"chunk": 1.5}, "exceptional-scan.chunk"),
        ("exceptional-scan", {"chunk": -3}, "exceptional-scan.chunk"),
        ("exceptional-scan", {"beta_grid": 0}, "exceptional-scan.beta_grid"),
        ("exceptional-scan", {"beta_grid": -1}, "exceptional-scan.beta_grid"),
        ("exceptional-scan", {"beta_grid": 8.0}, "exceptional-scan.beta_grid"),
        ("exceptional-scan", {"beta_grid": True}, "exceptional-scan.beta_grid"),
        ("percolate-dim", {"samples": 1.5, "depth": 3}, "percolate-dim.samples"),
        ("mandelbrot-slices", {"samples": True, "depth": 3}, "mandelbrot-slices.samples"),
        ("projection-positivity", {"samples": 2, "depth": 3, "directions": 2.5},
         "projection-positivity.directions"),
    ],
    ids=["scan-chunk-0", "scan-chunk-1.5", "scan-chunk-neg", "scan-beta-grid-0",
         "scan-beta-grid-neg", "scan-beta-grid-float", "scan-beta-grid-bool",
         "percolate-samples-float", "slices-samples-bool", "positivity-directions-float"],
)
def test_scenario_counts_must_be_positive_integers(runner, tmp_path, scenario, params, named):
    # these died with ValueError, TypeError or ZeroDivisionError (exit 1), or
    # ran as if given another count: a negative chunk scanned no direction
    # and passed the gate, and samples true drew one sample
    if scenario == "exceptional-scan":
        params = {**params, "tau_grid": 4}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params, "seed": 1}))
    res = runner.invoke(main, [scenario, "--config", str(cfg)])
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith("error: ") and named in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("grid", ["0", "-1"])
def test_exceptional_beta_grid_must_be_positive(runner, grid):
    res = runner.invoke(main, ["exceptional", "--beta-grid", grid, "--tau-grid", "4"])
    assert res.exit_code == 2, res.output
    assert "--beta-grid" in res.stderr
    assert res.stdout == ""
