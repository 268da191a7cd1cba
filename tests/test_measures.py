import cmath
import itertools
import math

import numpy as np
import pytest

import dimlab as dl
from dimlab import RandomWeightLaw
from dimlab.errors import (
    DepthMismatchError,
    ParameterError,
    UnsupportedLawError,
)

import oracles


def two_map_line():
    maps = (
        dl.Similarity(ratio=0.5, angle=0.0, translation=np.array([0.0, 0.0])),
        dl.Similarity(ratio=0.5, angle=0.0, translation=np.array([0.5, 0.0])),
    )
    return dl.IFS.from_maps(maps, label="halves")


# ---------------------------------------------------------------------------
# weight laws and sampling


def test_fixed_vector_law_validation():
    law = dl.fixed_vector_law([0.25, 0.25, 0.5])
    assert law.arity == 3
    with pytest.raises(ParameterError):
        dl.fixed_vector_law([1.0])
    with pytest.raises(ParameterError):
        dl.fixed_vector_law([0.7, 0.4])
    with pytest.raises(ParameterError):
        dl.fixed_vector_law([-0.1, 1.1])
    # NaN fails every comparison, so the check must be written to catch it
    for bad in ([math.nan, 1.0], [math.nan, math.nan], [math.inf, 1.0]):
        with pytest.raises(ParameterError, match="finite"):
            dl.fixed_vector_law(bad)


def test_level_masses_sum_to_one_exactly(rot3):
    sel = dl.forced_pair_law(rot3, 0.3)
    sample = dl.sample_measure(sel.law, depth=40, seed=77)
    for level in sample.levels:
        assert math.fsum(level) == 1.0


def test_total_mass_at_fixed_depth(rot3):
    """Sum of cylinder masses over every depth-k word is a product of unit
    sums; check the literal sum too."""
    sel = dl.forced_pair_law(rot3, 0.3, q=2)
    sample = dl.sample_measure(sel.law, depth=3, seed=5)
    total = math.fsum(
        dl.cylinder_mass(sample, w)
        for w in itertools.product(range(1, 10), repeat=3)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_uniform_point_mass_cylinders():
    law = dl.fixed_vector_law([0.25] * 4)
    sample = dl.sample_measure(law, depth=6, seed=0)
    for word in [(1,), (3, 2), (4, 4, 4, 1, 2, 3)]:
        assert dl.cylinder_mass(sample, word) == 0.25 ** len(word)


def test_cylinder_mass_guards(rot3):
    law = dl.fixed_vector_law([0.5, 0.3, 0.2])
    sample = dl.sample_measure(law, depth=2, seed=1)
    with pytest.raises(DepthMismatchError):
        dl.cylinder_mass(sample, (1, 2, 3))
    with pytest.raises(ParameterError):
        dl.cylinder_mass(sample, (4,))


def test_sample_measure_rejects_unknown_kind():
    law = RandomWeightLaw(kind="mystery", arity=3)
    with pytest.raises(UnsupportedLawError):
        dl.sample_measure(law, depth=2, seed=0)


def test_sampling_is_deterministic_per_seed(rot3):
    sel = dl.forced_pair_law(rot3, 0.3)
    a = dl.sample_measure(sel.law, depth=10, seed=3)
    b = dl.sample_measure(sel.law, depth=10, seed=3)
    c = dl.sample_measure(sel.law, depth=10, seed=4)
    assert np.array_equal(a.levels, b.levels)
    assert not np.array_equal(a.levels, c.levels)


# ---------------------------------------------------------------------------
# the forced-pair block law


def test_forced_pair_law_auto_block_size(rot3):
    sel = dl.forced_pair_law(rot3, 0.3)
    s = dl.moran_dimension(rot3)
    assert sel.q == 2
    assert sel.per_symbol_retention == pytest.approx(
        0.5 ** (sel.q * (s - 1.0 - 0.3)), rel=1e-12
    )
    # retention = p + (1 - p) * 2 / m^q  rearranged
    mq = 3 ** sel.q
    implied = sel.p_q + (1.0 - sel.p_q) * 2.0 / mq
    assert implied == pytest.approx(sel.per_symbol_retention, rel=1e-12)
    assert sel.dim_proxy >= 1.0 + 0.3 / 2.0


def test_forced_pair_every_level_keeps_at_least_two(rot3):
    sel = dl.forced_pair_law(rot3, 0.3)
    sample = dl.sample_measure(sel.law, depth=200, seed=11)
    support = (sample.levels > 0.0).sum(axis=1)
    assert support.min() >= 2
    nonzero = sample.levels[sample.levels > 0.0]
    assert nonzero.min() >= 1.0 / 3 ** sel.q - 1e-15


def test_forced_pair_rejects_bad_parameters(rot3, carpet):
    with pytest.raises(ParameterError):
        dl.forced_pair_law(rot3, -0.1)
    with pytest.raises(ParameterError):
        dl.forced_pair_law(rot3, 0.7)  # epsilon >= s - 1
    with pytest.raises(ParameterError):
        dl.forced_pair_law(rot3, 0.3, q=1)  # r^-1 = 2 is not > 2
    degenerate = dl.load_ifs("degenerate_pair")
    with pytest.raises(ParameterError):
        dl.forced_pair_law(degenerate, 0.1)  # s = 1


def test_forced_pair_marginal_retention(rot3):
    sel = dl.forced_pair_law(rot3, 0.3)
    sample = dl.sample_measure(sel.law, depth=30_000, seed=19)
    freq = (sample.levels > 0.0).mean(axis=0)
    se = math.sqrt(
        sel.per_symbol_retention * (1.0 - sel.per_symbol_retention) / 30_000
    )
    assert np.all(np.abs(freq - sel.per_symbol_retention) <= 4.0 * se)


def test_measure_dimension_degenerate_retentions(rot3):
    sel = dl.forced_pair_law(rot3, 0.3)
    meta = dict(sel.law.meta)
    pair_only = RandomWeightLaw(
        kind="forced-pair-uniform", arity=sel.law.arity, retain_prob=0.0, meta=meta
    )
    est, se = dl.measure_dimension(pair_only, trials=100, seed=1)
    assert est == pytest.approx(math.log(2.0) / (sel.q * math.log(2.0)), abs=1e-12)
    assert se == 0.0

    keep_all = RandomWeightLaw(
        kind="forced-pair-uniform", arity=sel.law.arity, retain_prob=1.0, meta=meta
    )
    est, _ = dl.measure_dimension(keep_all, trials=100, seed=1)
    assert est == pytest.approx(dl.moran_dimension(rot3), abs=1e-12)


def test_measure_dimension_needs_forced_pair():
    law = dl.fixed_vector_law([0.5, 0.5])
    with pytest.raises(UnsupportedLawError):
        dl.measure_dimension(law, trials=10, seed=0)


# ---------------------------------------------------------------------------
# Fourier factors


def test_iterated_system_factor_is_the_block_factor(rot3, rng_np):
    """A block of two base maps is one map of iterate_system(rot3, 2).  At
    an arity-9 level that is the Kronecker product of two arity-3 levels,
    that system's factor is the q = 2 block factor: a sum over the words
    (i, j) of W_i W'_j exp(i pi <T^n a_ij, xi>), with a_ij the composed
    word's translation and T = r^2 R(2 angle), written out here alone."""
    levels3 = rng_np.dirichlet(np.ones(3), size=8)
    levels9 = np.array([np.kron(levels3[2 * n], levels3[2 * n + 1]) for n in range(4)])
    law9 = dl.fixed_vector_law(np.full(9, 1.0 / 9.0))
    sample = dl.MeasureSample(law=law9, seed=0, depth=4, levels=levels9)
    system = dl.iterate_system(rot3, 2)
    r, th = rot3.maps[0].ratio ** 2, 2.0 * rot3.maps[0].angle
    words = list(itertools.product(range(1, 4), repeat=2))
    a = {w: oracles.compose_word(rot3, w).translation for w in words}
    for _ in range(20):
        xi = rng_np.uniform(-30.0, 30.0, size=2)
        for n in range(4):
            c, s = math.cos(n * th), math.sin(n * th)
            t_n = r ** n * np.array([[c, -s], [s, c]])
            want = sum(
                levels3[2 * n][i - 1] * levels3[2 * n + 1][j - 1]
                * cmath.exp(1j * math.pi * float(t_n @ a[i, j] @ xi))
                for i, j in words
            )
            assert abs(dl.fourier_psi(sample, system, n, xi) - want) <= 1e-12
    for n in (4, -1):  # -1 would read the last level
        with pytest.raises(DepthMismatchError):
            dl.fourier_psi(sample, system, n, (1.0, 0.0))


def test_two_point_phase_cancellation():
    ifs = two_map_line()
    law = dl.fixed_vector_law([0.5, 0.5])
    sample = dl.sample_measure(law, depth=4, seed=0)
    # <a2 - a1, xi> = 1 is an odd integer: the two phases cancel exactly
    val = dl.fourier_psi(sample, ifs, n=0, xi=(2.0, 0.0))
    assert abs(val) < 1e-15


def test_factor_moduli_never_exceed_one(rot3, rng_np):
    weights = [0.5, 0.2, 0.3]
    for system, law in (
        (rot3, dl.fixed_vector_law(weights)),
        (dl.iterate_system(rot3, 2), dl.fixed_vector_law(np.kron(weights, weights))),
    ):
        sample = dl.sample_measure(law, depth=6, seed=8)
        for _ in range(100):
            xi = rng_np.uniform(-50.0, 50.0, size=2)
            n = int(rng_np.integers(0, 6))
            assert abs(dl.fourier_psi(sample, system, n, xi)) <= 1.0 + 1e-12


def test_transform_at_zero_is_exactly_one(rot3):
    sel = dl.forced_pair_law(rot3, 0.3)
    for seed in (1, 2, 3, 11):
        sample = dl.sample_measure(sel.law, depth=24, seed=seed)
        pt = dl.fourier_mu(sample, dl.iterate_system(rot3, 2), (0.0, 0.0), 12)
        assert pt.value == 1.0 + 0.0j
        assert pt.tail_bound == 0.0


def test_truncation_tail_bound_self_consistent():
    ifs = two_map_line()
    law = dl.fixed_vector_law([0.5, 0.5])
    sample = dl.sample_measure(law, depth=45, seed=3)
    for xi in [(0.3, 0.0), (2.7, 1.4), (-9.0, 4.0), (10.0, 0.0)]:
        if math.hypot(*xi) > 10.0:
            continue
        a = dl.fourier_mu(sample, ifs, xi, 20)
        b = dl.fourier_mu(sample, ifs, xi, 40)
        assert abs(a.value - b.value) <= a.tail_bound + 1e-15


def test_split_product_reconstructs_whole(rot3, rng_np):
    sel = dl.forced_pair_law(rot3, 0.3)
    sample = dl.sample_measure(sel.law, depth=24, seed=13)
    system = dl.iterate_system(rot3, 2)
    split = dl.convolution_split(sample, system, k=3, truncation=12)
    assert set(split.sparse_indices) | set(split.dense_indices) == set(range(12))
    assert not set(split.sparse_indices) & set(split.dense_indices)
    assert all((n + 1) % 3 == 0 for n in split.sparse_indices)
    for _ in range(50):
        xi = rng_np.uniform(-20.0, 20.0, size=2)
        whole = split.whole_hat(xi)
        parts = split.sparse_hat(xi) * split.dense_hat(xi)
        assert abs(whole - parts) <= 1e-12


def test_decay_estimate_positive_for_spread_out_blocks(rot3):
    sel = dl.forced_pair_law(rot3, 0.3)
    system = dl.iterate_system(rot3, sel.q)
    depth = 3 * (4 + 2)
    sample = dl.sample_measure(sel.law, depth=depth, seed=21)
    est = dl.fourier_decay(sample, system, 3, 0.7, [2, 3, 4])
    assert est.slope > 0.0
    assert est.exact_zeros == 0
    assert np.all(est.ts == 0.5 ** (-2 * 3 * est.ns.astype(float)))


def test_decay_estimate_flat_for_coincident_translations():
    ifs = dl.load_ifs("degenerate_pair")
    law = dl.fixed_vector_law([0.5, 0.5])
    sample = dl.sample_measure(law, depth=18, seed=2)
    est = dl.fourier_decay(sample, ifs, 3, 0.7, [2, 3, 4])
    # both maps share one translation: |Psi| = 1 identically
    assert abs(est.slope) <= 1e-12


def test_fourier_decay_depth_guard(rot3):
    law = dl.fixed_vector_law(np.full(3, 1.0 / 3.0))
    sample = dl.sample_measure(law, depth=10, seed=1)
    with pytest.raises(DepthMismatchError):
        dl.fourier_decay(sample, rot3, 3, 0.0, [2, 3, 4])
    # k = 0 asks for depth 0 and would read the factor Psi_{-1}
    with pytest.raises(ParameterError, match="k must be >= 1"):
        dl.fourier_decay(sample, rot3, 0, 0.0, [2, 3, 4])
