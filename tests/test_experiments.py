import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dimlab as dl
from dimlab import experiments as xp
from dimlab.errors import ConfigError


def run_both_thread_counts(monkeypatch, name, **kwargs):
    monkeypatch.setenv("DIMLAB_THREADS", "1")
    one = xp.run_scenario(name, **kwargs)
    monkeypatch.setenv("DIMLAB_THREADS", "8")
    eight = xp.run_scenario(name, **kwargs)
    return one, eight


# ---------------------------------------------------------------------------
# parsing and plumbing


def test_parse_scales():
    assert xp.parse_scales("3:-2:-4") == [3.0 ** -2, 3.0 ** -3, 3.0 ** -4]
    assert xp.parse_scales("2:0:-1") == [1.0, 0.5]
    for bad in ("3:-2", "x:-2:-4", "3:-5:-2", "0.5:-1:-2"):
        with pytest.raises(ConfigError):
            xp.parse_scales(bad)


def test_parse_ladder():
    assert xp.parse_ladder("2:6") == [2, 3, 4, 5, 6]
    assert xp.parse_ladder("3:3") == [3]
    for bad in ("6:2", "0:4", "2", "a:b"):
        with pytest.raises(ConfigError):
            xp.parse_ladder(bad)


def test_parallel_map_is_ordered(monkeypatch):
    monkeypatch.setenv("DIMLAB_THREADS", "4")
    assert xp.parallel_map(lambda x: x * x, range(23)) == [x * x for x in range(23)]
    monkeypatch.setenv("DIMLAB_THREADS", "not-a-number")
    with pytest.raises(ConfigError):
        xp.thread_count()


def test_scenario_registry_names():
    names = xp.scenario_names()
    assert "moran" in names and "probe" in names
    assert names == sorted(names)


# ---------------------------------------------------------------------------
# configuration errors


def test_unknown_scenario_and_missing_seed():
    with pytest.raises(ConfigError):
        xp.run_scenario("nope", seed=1)
    with pytest.raises(ConfigError, match="seed"):
        xp.run_scenario("moran")


def test_unknown_parameter_is_flagged_with_path():
    with pytest.raises(ConfigError, match="moran.nonsense"):
        xp.run_scenario("moran", params={"nonsense": 3}, seed=1)


def test_unknown_threshold_is_flagged():
    with pytest.raises(ConfigError, match="thresholds"):
        xp.run_scenario("moran", thresholds={"bogus": 0.1}, seed=1)


def test_threshold_tightening_and_loosening():
    # "<=" thresholds tighten downward without ceremony
    rep = xp.run_scenario("moran", thresholds={"max_rel_excess": 0.5}, seed=1)
    assert rep["thresholds"]["max_rel_excess"]["value"] == 0.5
    with pytest.raises(ConfigError, match="looser"):
        xp.run_scenario("moran", thresholds={"max_rel_excess": 2.0}, seed=1)
    rep = xp.run_scenario(
        "moran",
        thresholds={"max_rel_excess": {"value": 2.0, "override": True}},
        seed=1,
    )
    assert rep["thresholds"]["max_rel_excess"]["value"] == 2.0


def test_failing_threshold_flips_all_pass():
    rep = xp.run_scenario("moran", thresholds={"max_rel_excess": 1e-300}, seed=1)
    assert not rep["passes"]["max_rel_excess"]
    assert not rep["all_pass"]


def test_load_config_validation(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": 3, "params": {}}')
    assert xp.load_config(path) == {"seed": 3, "params": {}}
    path.write_text('{"sid": 3}')
    with pytest.raises(ConfigError, match="unknown key"):
        xp.load_config(path)
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        xp.load_config(path)


# ---------------------------------------------------------------------------
# reports


def test_moran_scenario_passes_and_repeats_exactly():
    a = xp.run_scenario("moran", seed=1)
    b = xp.run_scenario("moran", seed=1)
    assert a["all_pass"] and a["metrics"]["max_rel_excess"] <= 0.01
    assert xp.canonical_report_bytes(a) == xp.canonical_report_bytes(b)
    assert a["volatile"]["timestamp"] != ""
    assert a["config_digest"] == b["config_digest"]


def test_volatile_block_is_excluded_from_digest():
    rep = xp.run_scenario("moran", seed=1)
    digest = xp.report_digest(rep)
    rep["volatile"]["wall_clock_sec"] = 1e9
    assert xp.report_digest(rep) == digest


def test_seed_and_params_enter_the_config_digest():
    a = xp.run_scenario("moran", seed=1)
    b = xp.run_scenario("moran", seed=2)
    assert a["config_digest"] != b["config_digest"]


def test_csv_cells_round_trip_to_row_values():
    rep = xp.run_scenario("moran", seed=1)
    text = xp.report_to_csv(rep)
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    assert header == rep["columns"]
    for row, want in zip(reader, rep["rows"]):
        for cell, value in zip(row, want):
            if value is None:
                assert cell == ""
                continue
            try:
                parsed = json.loads(cell)
            except json.JSONDecodeError:
                parsed = cell
            assert parsed == value


def test_json_report_has_no_nans():
    rep = xp.run_scenario(
        "sections-conservation",
        params={"grid": 32, "scales": "3:-2:-4"},
        seed=1,
    )
    text = xp.report_to_json(rep)
    assert "NaN" not in text
    assert "Infinity" not in text


# ---------------------------------------------------------------------------
# thread-count independence (reduced workloads)


def test_exceptional_scan_reports_identical_across_threads(monkeypatch):
    kwargs = dict(
        params={"beta_grid": 64, "tau_grid": 64, "N_values": [10, 20], "chunk": 8},
        seed=3,
    )
    one, eight = run_both_thread_counts(monkeypatch, "exceptional-scan", **kwargs)
    assert xp.canonical_report_bytes(one) == xp.canonical_report_bytes(eight)


def test_projection_scenario_identical_across_threads(monkeypatch):
    kwargs = dict(
        params={"samples": 3, "depth": 4, "directions": 6},
        seed=5,
    )
    one, eight = run_both_thread_counts(monkeypatch, "projection-positivity", **kwargs)
    assert xp.canonical_report_bytes(one) == xp.canonical_report_bytes(eight)
    assert one["metrics"]["min_measure"] > 0.0


# ---------------------------------------------------------------------------
# reduced scenario smoke runs


def test_percolate_dim_scenario_reduced():
    rep = xp.run_scenario(
        "percolate-dim", params={"samples": 4, "depth": 5}, seed=2
    )
    assert "slope_abs_error" in rep["metrics"]
    assert len(rep["rows"]) == 4
    assert set(rep["columns"]) >= {"slope", "r2"}


def test_probe_scenario_reduced():
    rep = xp.run_scenario(
        "probe",
        params={
            "trials": 10,
            "depth": 5,
            "grid": 64,
            "scales": "3:-2:-4",
            "min_r2": 0.0,
        },
        seed=2,
    )
    assert 0.0 <= rep["metrics"]["success_fraction"] <= 1.0
    assert len(rep["rows"]) == 10


def test_fourier_decay_scenario_reduced():
    rep = xp.run_scenario("fourier-decay", params={"ladder": "2:3"}, seed=2)
    assert {"decay_slope", "degenerate_slope_abs"} <= set(rep["metrics"])
    assert rep["passes"]["degenerate_slope_abs"]


def test_mandelbrot_slices_scenario_reduced():
    rep = xp.run_scenario(
        "mandelbrot-slices",
        params={"samples": 2, "depth": 5, "grid": 64, "betas": [0.0]},
        seed=2,
    )
    fr = rep["metrics"]["min_mean_qualifying_fraction"]
    assert 0.0 <= fr <= 1.0
    assert rep["metrics"]["theory_dim"] == pytest.approx(1.8520, abs=2e-4)


def _fresh_peak_mb(scenario, params):
    """VmHWM (MB) of a fresh process that runs one scenario at seed 7, with
    BLAS and dimlab on one thread.  The child reads its own VmHWM, the
    peak of its own address space: Linux carries ru_maxrss over an exec,
    so a child started from this test process would read at least this
    process's own peak there."""
    code = (
        "from dimlab.experiments import run_scenario\n"
        f"run_scenario({scenario!r}, params={params!r}, seed=7)\n"
        "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
    )
    src = os.path.dirname(os.path.dirname(dl.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", DIMLAB_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=300,
    )
    return int(done.stdout.split()[-1]) / 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_sections_conservation_peak_rss_in_a_fresh_process():
    # the carpet ladder 3^-2 .. 3^-7 is the largest peak of any scenario
    peak_mb = _fresh_peak_mb("sections-conservation", {})
    # 78.7 MB here: the finest level's 2,097,152 children are made once and
    # turned into disks in place.  Assembling every scale's stopping set
    # before counting peaked at 80.6 MB, per-cell lengths and indices with
    # intp links at 104.3 MB, and per-row ratios and angles, stored ratios,
    # full radii and fresh centers before them at 206.8 MB
    assert peak_mb <= 87, peak_mb


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_probe_peak_rss_in_a_fresh_process():
    # the carpet profile at 3^-2 .. 3^-6 (grid 2048), then 15 pruned trials
    peak_mb = _fresh_peak_mb("probe", {"trials": 15})
    # 42.2 MB here, 34.7 MB of it the imports
    assert peak_mb <= 50, peak_mb


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_mandelbrot_slices_peak_rss_in_a_fresh_process():
    # one p=0.85 depth-7 sample profiled in three directions
    peak_mb = _fresh_peak_mb("mandelbrot-slices", {"samples": 1})
    # 46.4 MB here, 34.7 MB of it the imports: each disk of the finest
    # generation (1.39M disks) is counted at its nearest flat as it is
    # folded.  Buffering the disks its reach test kept peaked at 57.9 MB,
    # and holding the generation's centers at 68.9 MB
    assert peak_mb <= 54, peak_mb


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_percolate_dim_peak_rss_in_a_fresh_process():
    # four depth-8 trees grown and box-counted one after another
    peak_mb = _fresh_peak_mb("percolate-dim", {"samples": 4})
    # 48.1 MB here, 34.7 MB of it the imports; trees stored as parent rows
    # and symbols, 5 bytes per kept node, peaked at 60.0 MB
    assert peak_mb <= 56, peak_mb
