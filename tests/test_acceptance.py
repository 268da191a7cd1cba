"""Whole-pipeline acceptance runs with pinned tolerances.

Each test covers one headline claim end to end and prints a single
PASS/FAIL line with the numbers behind the verdict (visible with -s, or in
the captured output when a run fails).  Tolerances are fixed here, not
derived at runtime; seeds are fixed so every run sees the same streams.
"""

import hashlib
import math
import time

import numpy as np
import pytest

import oracles
from dimlab import rng
from dimlab.catalog import load_ifs
from dimlab.exceptional import AlignmentParams, membership_fraction, scan_directions
from dimlab.experiments import canonical_report_bytes, run_scenario
from dimlab.geometry import iterate_system, moran_dimension, stopping_set
from dimlab.measures import (
    convolution_split,
    forced_pair_law,
    fourier_mu,
    sample_measure,
)
from dimlab.percolation import (
    batch_generation_counts,
    batch_intersection_counts,
    mandelbrot_config,
    path_survival,
    percolation_dimension,
    sample_surviving_tree,
    standard_law,
    survival_probability,
    uniform_law,
)
from dimlab.sections import (
    CellCloud,
    Direction,
    box_count_estimate,
    conservation_profile,
    count_slice,
    projection_measure,
    slice_counts,
)


def verdict(label, ok, detail):
    print(f"\n[{label}] {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# 01 similarity dimension, analytic cases


def test_01_similarity_dimension_analytic_cases():
    d1 = moran_dimension([0.5, 0.25, 0.25])
    e1 = abs(d1 - 1.0)
    d2 = moran_dimension(load_ifs("rotational_m3"))
    e2 = abs(d2 - math.log(3) / math.log(2))
    verdict(
        "01 similarity dimension analytic cases",
        e1 <= 1e-10 and e2 <= 1e-9,
        f"(1/2,1/4,1/4) err {e1:.2e} <= 1e-10; three maps at 1/2 err {e2:.2e} <= 1e-9",
    )


# ---------------------------------------------------------------------------
# 02 percolation dimension closed forms


def test_02_percolation_dimension_closed_forms():
    errs = []
    for name, alpha in (("sierpinski_carpet", 0.4), ("rotational_m3", 0.3)):
        ifs = load_ifs(name)
        got = percolation_dimension(standard_law(ifs, alpha), ifs)
        errs.append(abs(got - (moran_dimension(ifs) - alpha)))
    merrs = []
    for M, d, p in ((3, 2, 0.85), (2, 2, 0.9), (4, 3, 0.1)):
        cfg = mandelbrot_config(M, d, p)
        merrs.append(abs(cfg.dimension - (d + math.log(p) / math.log(M))))
    verdict(
        "02 percolation dimension closed forms",
        max(errs) <= 1e-9 and max(merrs) <= 1e-12,
        f"survival-exponent laws max err {max(errs):.2e} <= 1e-9; "
        f"grid retention max err {max(merrs):.2e} <= 1e-12",
    )


# ---------------------------------------------------------------------------
# 03 extinction probability against Monte Carlo


def test_03_extinction_probability_matches_monte_carlo():
    law = uniform_law(4, 0.3)
    fixed_point = survival_probability(law).extinction_prob
    mc = oracles.gw_extinction_by_depth(4, 0.3, 30, 100_000, 20240804)
    diff = abs(fixed_point - mc)
    verdict(
        "03 extinction probability vs Monte Carlo",
        diff <= 0.02,
        f"fixed point {fixed_point:.6f}, depth-30 frequency {mc:.6f}, |diff| {diff:.5f} <= 0.02",
    )


# ---------------------------------------------------------------------------
# 04 single-path survival probabilities


def test_04_path_survival_probabilities():
    ifs = load_ifs("sierpinski_carpet")
    alpha = 0.45
    law = standard_law(ifs, alpha)
    n_seeds = 100_000
    seeds = rng.derive_seed(np.uint64(424242), np.arange(n_seeds, dtype=np.uint64))
    per_step = (1.0 / 3.0) ** alpha
    details, ok = [], True
    for word in ((1, 2), (3, 1, 4, 1), (2, 5, 8, 1, 6, 3)):
        exact = per_step ** len(word)
        freq = float(path_survival(law, word, seeds).mean())
        se = math.sqrt(exact * (1.0 - exact) / n_seeds)
        ok = ok and abs(freq - exact) <= 3.0 * se
        details.append(f"n={len(word)}: |{freq:.5f}-{exact:.5f}| vs 3SE {3*se:.5f}")
    verdict("04 path survival, exact vs sampled", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 05 intersection of two independent samples vs the product law


def test_05_intersection_statistics_match_product_law():
    n = 10_000
    seeds1 = rng.derive_seed(np.uint64(101), np.arange(n, dtype=np.uint64))
    seeds2 = rng.derive_seed(np.uint64(202), np.arange(n, dtype=np.uint64))
    seeds3 = rng.derive_seed(np.uint64(303), np.arange(n, dtype=np.uint64))
    law_a = mandelbrot_config(2, 2, 0.8).law
    law_b = mandelbrot_config(2, 2, 0.9).law
    law_ab = mandelbrot_config(2, 2, 0.72).law
    inter = batch_intersection_counts(law_a, seeds1, law_b, seeds2, 3)[:, -1].astype(float)
    ref = batch_generation_counts(law_ab, 3, seeds3)[:, -1].astype(float)
    mean_diff = abs(inter.mean() - ref.mean())
    se_mean = math.sqrt(inter.var(ddof=1) / n + ref.var(ddof=1) / n)
    v1, v2 = inter.var(ddof=1), ref.var(ddof=1)
    m4_1 = float(((inter - inter.mean()) ** 4).mean())
    m4_2 = float(((ref - ref.mean()) ** 4).mean())
    se_var = math.sqrt((m4_1 - v1**2) / n + (m4_2 - v2**2) / n)
    var_diff = abs(v1 - v2)
    verdict(
        "05 intersection stats vs product retention",
        mean_diff <= 4 * se_mean and var_diff <= 4 * se_var,
        f"mean diff {mean_diff:.4f} vs 4SE {4*se_mean:.4f}; "
        f"var diff {var_diff:.3f} vs 4SE {4*se_var:.3f}",
    )


# ---------------------------------------------------------------------------
# 06 + 07 share one batch of surviving samples


@pytest.fixture(scope="module")
def surviving_batch():
    cfg = mandelbrot_config(3, 2, 0.7)
    subs = rng.derive_seed(np.uint64(20240801), np.arange(64, dtype=np.uint64))
    directions = [Direction.from_angle(j * math.pi / 36) for j in range(36)]
    slopes, r2s = [], []
    min_measure = math.inf
    start = time.perf_counter()
    # one sample in memory at a time; a depth-8 tree is tens of MB
    for i in range(64):
        sample, _ = sample_surviving_tree(
            cfg.law, 8, int(subs[i]), budget=20_000_000
        )
        est = box_count_estimate(sample, cfg.ifs)
        slopes.append(est.slope)
        r2s.append(est.r2)
        for direction in directions:
            min_measure = min(
                min_measure, projection_measure(sample, direction, 0.02, cfg.ifs)
            )
    return {
        "theory": cfg.dimension,
        "mean_slope": float(np.mean(slopes)),
        "mean_r2": float(np.mean(r2s)),
        "min_measure": min_measure,
        "elapsed": time.perf_counter() - start,
    }


def test_06_box_count_slope_of_surviving_samples(surviving_batch):
    b = surviving_batch
    err = abs(b["mean_slope"] - b["theory"])
    verdict(
        "06 box-count slope of surviving samples",
        err <= 0.15 and b["mean_r2"] >= 0.98 and b["elapsed"] < 300.0,
        f"mean slope {b['mean_slope']:.4f} vs theory {b['theory']:.4f} "
        f"(err {err:.4f} <= 0.15), mean r2 {b['mean_r2']:.5f} >= 0.98, "
        f"{b['elapsed']:.0f}s < 300s",
    )


def test_07_projections_of_surviving_samples_have_length(surviving_batch):
    b = surviving_batch
    verdict(
        "07 projections positive in every direction",
        b["min_measure"] > 0.05,
        f"min projection length over 64 samples x 36 directions "
        f"{b['min_measure']:.4f} > 0.05",
    )


# ---------------------------------------------------------------------------
# 08 vertical slices of the carpet conserve dimension


def test_08_carpet_axis_slices_conserve_dimension():
    carpet = load_ifs("sierpinski_carpet")
    axis = Direction.from_angle(0.0)
    scales = [3.0**-j for j in range(2, 8)]
    profile = conservation_profile(carpet, axis, 0.15, scales, grid=512)

    clouds = [CellCloud.from_stopping_set(stopping_set(carpet, s)) for s in scales]
    exact_ok = True
    for i in range(1, 21):
        x = i / 27.0
        for depth, cloud in zip(range(2, 8), clouds):
            got = int(slice_counts(cloud, axis, x)[0])
            want = oracles.carpet_slice_count(carpet, x, depth)
            exact_ok = exact_ok and got == want
    api_ok = count_slice(carpet, axis, 5.0 / 27.0, scales[1]) == oracles.carpet_slice_count(
        carpet, 5.0 / 27.0, 3
    )
    verdict(
        "08 carpet axis slices conserve dimension",
        profile.qualifying_fraction >= 0.5 and exact_ok and api_ok,
        f"qualifying fraction {profile.qualifying_fraction:.4f} >= 0.5; "
        f"counts equal the digit-column products at 20 ternary rationals x 6 scales: "
        f"{exact_ok}",
    )


# ---------------------------------------------------------------------------
# 09 slices of percolation samples


def test_09_sample_slice_profiles_qualify():
    report = run_scenario("mandelbrot-slices", seed=20240902)
    frac = report["metrics"]["min_mean_qualifying_fraction"]
    verdict(
        "09 percolation sample slices conserve dimension",
        frac >= 0.3 and report["all_pass"],
        f"min mean qualifying fraction over directions {frac:.4f} >= 0.3",
    )


# ---------------------------------------------------------------------------
# 10 probing separates qualifying offsets


def test_10_probe_separates_qualifying_offsets():
    report = run_scenario("probe", seed=12)
    frac = report["metrics"]["success_fraction"]
    verdict(
        "10 probe hit rates follow the slice classification",
        frac >= 0.9 and report["all_pass"],
        f"fraction of trials where qualifying offsets are hit more often "
        f"{frac:.3f} >= 0.9",
    )


# ---------------------------------------------------------------------------
# 11 transform normalization, split product, truncation bound


def test_11_fourier_transform_normalization_and_split():
    base = load_ifs("rotational_m3")
    system = iterate_system(base, 2)
    selection = forced_pair_law(base, 0.3)
    sample = sample_measure(selection.law, 40, 20240811)

    at_zero = fourier_mu(sample, system, (0.0, 0.0), 12)
    zero_ok = at_zero.value == (1.0 + 0.0j) and at_zero.tail_bound == 0.0

    gen = np.random.Generator(np.random.PCG64(20240812))
    xis = gen.uniform(-40.0, 40.0, size=(50, 2))
    moduli_ok = True
    split = convolution_split(sample, system, 3, 12)
    split_err = 0.0
    for xi in xis:
        point = fourier_mu(sample, system, xi, 12)
        moduli_ok = moduli_ok and abs(point.value) <= 1.0 + 1e-12
        split_err = max(
            split_err,
            abs(split.whole_hat(xi) - split.sparse_hat(xi) * split.dense_hat(xi)),
        )

    trunc_ok = True
    for xi in gen.uniform(-10.0, 10.0, size=(10, 2)):
        if math.hypot(*xi) > 10.0:
            xi = xi * (10.0 / math.hypot(*xi))
        coarse = fourier_mu(sample, system, xi, 20)
        fine = fourier_mu(sample, system, xi, 40)
        trunc_ok = trunc_ok and (
            abs(coarse.value - fine.value) <= coarse.tail_bound + 1e-15
        )
    verdict(
        "11 transform normalization, split, truncation",
        zero_ok and moduli_ok and split_err <= 1e-12 and trunc_ok,
        f"value at 0 exactly 1: {zero_ok}; 50 moduli <= 1+1e-12: {moduli_ok}; "
        f"split residual {split_err:.2e} <= 1e-12; truncation bounded: {trunc_ok}",
    )


# ---------------------------------------------------------------------------
# 12 forced-pair selection law


def test_12_forced_pair_retention_and_support():
    base = load_ifs("rotational_m3")
    selection = forced_pair_law(base, 0.3)
    n_levels = 100_000
    sample = sample_measure(selection.law, n_levels, 20240814)
    retained = sample.levels > 0.0
    support_ok = int(retained.sum(axis=1).min()) >= 2
    per_level = retained.mean(axis=1)
    se = float(per_level.std(ddof=1)) / math.sqrt(n_levels)
    drift = abs(float(per_level.mean()) - selection.per_symbol_retention)
    verdict(
        "12 forced-pair selection law",
        selection.q == 2
        and drift <= 3.0 * se
        and support_ok
        and selection.dim_proxy >= 1.15,
        f"q = {selection.q}; retention drift {drift:.2e} vs 3SE {3*se:.2e}; "
        f"every level keeps >= 2 symbols: {support_ok}; "
        f"dimension proxy {selection.dim_proxy:.4f} >= 1.15",
    )


# ---------------------------------------------------------------------------
# 13 alignment scan: brute force, monotonicity, re-thresholding


def test_13_alignment_scan_agreement_and_monotonicity():
    catalog = dict(r=0.5, theta=1.0, b=1.0, gamma=0.0, q=2, k=2, delta=1.0 / 3.0)

    naive = AlignmentParams(**catalog, big_n=50, tau_grid=4096)
    naive_err = 0.0
    for beta in (0.0, 0.7, 1.3, 2.1, 3.0):
        got = membership_fraction(naive, beta).fractions
        want = oracles.alignment_fractions_naive(
            naive.r, naive.theta, naive.b, naive.gamma, naive.q, naive.k,
            naive.big_n, naive.taus(), beta,
        )
        naive_err = max(naive_err, float(np.max(np.abs(got - np.asarray(want)))))

    betas = np.linspace(0.0, math.pi, 2048, endpoint=False)
    fractions, subset_ok, rethreshold_ok = [], True, True
    for big_n in (50, 100, 200):
        params = AlignmentParams(**catalog, big_n=big_n, tau_grid=4096)
        res = scan_directions(params, betas)
        fractions.append(res.member_fraction)
        tighter = res.members_at(params.delta / 2.0)
        subset_ok = subset_ok and bool(np.all(tighter <= res.members))
        rethreshold_ok = rethreshold_ok and bool(
            np.array_equal(res.members_at(params.delta), res.members)
        )
    cell = 1.0 / 2048.0
    monotone_ok = all(
        fractions[i + 1] <= fractions[i] + cell for i in range(len(fractions) - 1)
    )
    verdict(
        "13 alignment scan vs brute force, monotone in the horizon",
        naive_err <= 1e-12 and monotone_ok and subset_ok and rethreshold_ok,
        f"max |fast - naive| {naive_err:.2e} <= 1e-12; member fractions "
        f"{[f'{f:.6f}' for f in fractions]} non-increasing within {cell:.2e}; "
        f"half-delta members are a subset: {subset_ok}",
    )


# ---------------------------------------------------------------------------
# 14 decay of the sparse factor product


def test_14_fourier_decay_positive_slope():
    report = run_scenario("fourier-decay", seed=20240903)
    slope = report["metrics"]["decay_slope"]
    degenerate = report["metrics"]["degenerate_slope_abs"]
    verdict(
        "14 sparse factor product decays",
        slope > 0.0 and degenerate <= 0.02 and report["all_pass"],
        f"decay slope {slope:.4f} > 0; no-cancellation control slope "
        f"{degenerate:.2e} <= 0.02",
    )


# ---------------------------------------------------------------------------
# 15 reports do not depend on the thread count


REDUCED = {
    "moran": {},
    "percolate-dim": {"samples": 4, "depth": 5},
    "projection-positivity": {"samples": 3, "depth": 4, "directions": 6},
    "sections-conservation": {"grid": 32, "scales": "3:-2:-4"},
    "mandelbrot-slices": {"samples": 2, "depth": 5, "grid": 64, "betas": [0.0]},
    "probe": {"trials": 10, "depth": 5, "grid": 64, "scales": "3:-2:-4", "min_r2": 0.0},
    "exceptional-scan": {
        "beta_grid": 64,
        "tau_grid": 64,
        "N_values": [10, 20],
        "chunk": 8,
    },
    "fourier-decay": {"ladder": "2:3"},
}


def test_15_reports_thread_count_invariant(monkeypatch):
    mismatched = []
    for name, params in REDUCED.items():
        blobs = []
        for threads in ("1", "8"):
            monkeypatch.setenv("DIMLAB_THREADS", threads)
            blobs.append(
                canonical_report_bytes(run_scenario(name, params=params, seed=7))
            )
        if blobs[0] != blobs[1]:
            mismatched.append(name)
    verdict(
        "15 reports identical at 1 and 8 threads",
        not mismatched,
        f"all {len(REDUCED)} scenarios byte-identical"
        if not mismatched
        else f"mismatch in {mismatched}",
    )


# sha256 of canonical_report_bytes for each REDUCED run at seed 7.  "version"
# is dropped before hashing: it reads "unknown" when dimlab is not installed,
# so keeping it would tie the digest to the install.  A digest that moves is
# a numerical change and has to be re-pinned here on purpose.
GOLDEN_DIGESTS = {
    "moran": "9306396baa8282f179b9fe33a616309423cdf065ed81a166c66e8d7680c5f0af",
    "percolate-dim": "3aeafbf0cd29858a289fed8e46d20ba5ea4ed5c7088915387092cee496f38965",
    "projection-positivity": "e465002f6ad653b320cda1d0a62a03eacf3164990955837f71ca4e414f4567f6",
    "sections-conservation": "681a88b498b2a32d3aa780dc4a03e89db98df8dd6ab5ec42563ed1c354b3e700",
    "mandelbrot-slices": "90e9fb146bfdf713d2d0e25ea894e754cf624be6b7d62dd2d545ef7d381bf756",
    "probe": "87226093f4682d8f56377acba3d3609252d91538e66679a9ffbe68822a3216a0",
    "exceptional-scan": "8b61ed33b50ea8f334d738d66478cbbe7b39353f6534bb51df48b84a0a4ef76f",
    "fourier-decay": "0b0e03118bf6a0bcaf41a43fb9c64f87c3da6c6c92ddb2bc173aafbddec0c35d",
}


def test_16_reduced_reports_match_golden_digests():
    assert set(GOLDEN_DIGESTS) == set(REDUCED)
    moved = []
    for name, params in REDUCED.items():
        report = run_scenario(name, params=params, seed=7)
        report.pop("version")
        digest = hashlib.sha256(canonical_report_bytes(report)).hexdigest()
        if digest != GOLDEN_DIGESTS[name]:
            moved.append(name)
    verdict(
        "16 reduced reports match their golden digests",
        not moved,
        f"all {len(REDUCED)} digests pinned" if not moved else f"moved: {moved}",
    )
