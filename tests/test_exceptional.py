import math

import numpy as np
import pytest

import dimlab as dl
from dimlab import AlignmentParams
from dimlab.errors import ParameterError

import oracles


CATALOG = dict(r=0.5, theta=1.0, b=1.0, gamma=0.0, q=2, k=2, delta=1.0 / 3.0)


def test_params_validation():
    with pytest.raises(ParameterError):
        AlignmentParams(**{**CATALOG, "r": 1.0}, big_n=10)
    with pytest.raises(ParameterError):
        AlignmentParams(**{**CATALOG, "delta": 0.0}, big_n=10)
    with pytest.raises(ParameterError):
        AlignmentParams(**CATALOG, big_n=0)
    with pytest.raises(ParameterError):
        AlignmentParams(**{**CATALOG, "b": -1.0}, big_n=10)
    # a block size, stride, horizon or grid size of 1.5 (or true) means nothing
    for bad in ({"q": 1.5}, {"k": True}, {"big_n": 10.7}, {"tau_grid": 16.0}):
        with pytest.raises(ParameterError, match=f"{next(iter(bad))} must be an integer"):
            AlignmentParams(**{**CATALOG, "big_n": 10, **bad})


def test_threshold_and_tau_grid():
    p = AlignmentParams(**CATALOG, big_n=10, tau_grid=16)
    assert p.threshold == 0.5 ** 8 / 15.0
    taus = p.taus()
    assert len(taus) == 16
    assert taus[0] == 1.0
    assert taus[-1] == pytest.approx(16.0)
    assert np.all(np.diff(np.log(taus)) > 0.0)


def test_fractions_match_naive_loop():
    p = AlignmentParams(**CATALOG, big_n=25, tau_grid=64)
    for beta in (0.0, 0.4, 1.9, 3.0):
        got = dl.membership_fraction(p, beta)
        want = oracles.alignment_fractions_naive(
            p.r, p.theta, p.b, p.gamma, p.q, p.k, p.big_n, p.taus(), beta
        )
        assert np.max(np.abs(got.fractions - np.asarray(want))) <= 1e-12
        assert got.max_fraction == pytest.approx(max(want), abs=1e-12)


def test_zero_displacement_aligns_everywhere():
    """b = 0 makes every term exactly 0, integer-aligned at any scale."""
    p = AlignmentParams(
        r=0.5, theta=1.0, b=0.0, gamma=0.0, q=2, k=2, delta=1.0 / 3.0,
        big_n=30, tau_grid=32,
    )
    res = dl.membership_fraction(p, 0.9)
    assert res.max_fraction == 1.0
    assert res.member


def test_integer_power_terms_align_until_representability():
    """theta = 0 with cos = -1 turns the terms into exact signed powers of
    two: every term with exponent in [2, 53) is an integer, the closing term
    -1/4 never aligns, and anything at 2^53 or beyond is discarded."""
    p = AlignmentParams(
        r=0.5, theta=0.0, b=1.0, gamma=math.pi, q=2, k=2, delta=1.0 / 3.0,
        big_n=30, tau_grid=32,
    )
    res = dl.membership_fraction(p, 0.0)  # cos(pi) == -1.0 exactly
    aligned_n = [n for n in range(1, 31) if 2 <= 4 * (30 - n) - 2 < 53]
    assert res.max_fraction == pytest.approx(len(aligned_n) / 30.0, abs=1e-12)
    assert res.witness_tau == 1.0


def test_catalog_direction_is_not_exceptional():
    p = AlignmentParams(**CATALOG, big_n=100, tau_grid=512)
    res = dl.membership_fraction(p, 0.7)
    assert res.max_fraction < 0.2
    assert not res.member


def test_huge_terms_do_not_count_as_aligned():
    # with b enormous, early terms overflow past 2^53 and must be ignored
    p = AlignmentParams(
        r=0.5, theta=1.0, b=1e300, gamma=0.0, q=2, k=2, delta=0.99,
        big_n=40, tau_grid=8,
    )
    res = dl.membership_fraction(p, 0.3)
    assert res.max_fraction < 1.0


def test_scan_matches_pointwise_membership():
    p = AlignmentParams(**CATALOG, big_n=40, tau_grid=128)
    betas = np.linspace(0.0, math.pi, 64, endpoint=False)
    scan = dl.scan_directions(p, betas)
    assert scan.members.dtype == bool
    for i in (0, 17, 40, 63):
        one = dl.membership_fraction(p, float(betas[i]))
        assert scan.max_fractions[i] == pytest.approx(one.max_fraction, abs=1e-12)
    assert scan.member_fraction == scan.members.mean()


def test_witness_tau_is_argmax():
    p = AlignmentParams(**CATALOG, big_n=40, tau_grid=128)
    res = dl.membership_fraction(p, 1.2)
    taus = p.taus()
    best = int(np.argmax(res.fractions))
    assert res.witness_tau == taus[best]


def test_delta_rethresholding_is_monotone():
    p = AlignmentParams(**CATALOG, big_n=60, tau_grid=256)
    betas = np.linspace(0.0, math.pi, 128, endpoint=False)
    scan = dl.scan_directions(p, betas)
    small = scan.members_at(0.1)
    large = scan.members_at(0.5)
    assert not np.any(small & ~large)  # members at 0.1 stay members at 0.5
    assert np.array_equal(scan.members_at(p.delta), scan.members)


def test_scan_rejects_empty_grid():
    p = AlignmentParams(**CATALOG, big_n=10)
    with pytest.raises(ParameterError):
        dl.scan_directions(p, np.zeros(0))


# Cases where skipping undecidable columns could go wrong, each checked for
# exact equality against the dense tau x N matrix in oracles.py.
DENSE_CASES = {
    # N = 200 at tau_grid 512: all but ~16 columns are pruned
    "catalog": dict(**CATALOG, big_n=200, tau_grid=512),
    # early terms overflow to +-inf, and no column is decidable
    "overflow": dict(
        r=0.5, theta=1.0, b=1e300, gamma=0.0, q=2, k=2, delta=0.99,
        big_n=40, tau_grid=8,
    ),
    # b = 0 with r^exponent overflowing: 0 * inf columns are NaN, never
    # aligned, and the other 257 columns are 0, aligned at every tau: a
    # per-tau byte count over all of them at once would wrap
    "nan_columns": dict(
        r=0.5, theta=1.0, b=0.0, gamma=0.0, q=2, k=2, delta=1.0 / 3.0,
        big_n=300, tau_grid=32,
    ),
    # exact powers of two 2^(59-n) at beta = 0: the n = 6 term is exactly
    # 2^53 at tau_0, which the strict < 2^53 test rejects at every tau, and
    # the n = 7 term reaches exactly 2^53 at the last tau, tau = 2
    "powers_of_two": dict(
        r=0.5, theta=0.0, b=1.0, gamma=math.pi, q=1, k=1, delta=1.0 / 3.0,
        big_n=60, tau_grid=32,
    ),
    "single_tau": dict(**CATALOG, big_n=60, tau_grid=1),
    # r^-598 ~ 405 at most: all 600 columns are decidable, more than one
    # block of 255 rows, so the per-tau byte counts add over three blocks
    "many_columns": dict(
        r=0.99, theta=1.0, b=1.0, gamma=0.0, q=1, k=1, delta=1.0 / 3.0,
        big_n=600, tau_grid=64,
    ),
    # the exceptional-scan scenario's grid and horizons
    **{f"scenario_N{n}": dict(**CATALOG, big_n=n, tau_grid=4096) for n in (50, 100, 200)},
}
DENSE_BETAS = np.linspace(0.0, math.pi, 24, endpoint=False)


def _assert_matches_dense(params, betas):
    fractions, max_fractions, witness_taus = oracles.alignment_scan_dense(params, betas)
    scan = dl.scan_directions(params, betas)
    assert np.array_equal(scan.max_fractions, max_fractions)
    assert np.array_equal(scan.witness_taus, witness_taus)
    assert np.array_equal(scan.members, max_fractions > 1.0 - params.delta)
    for i, beta in enumerate(betas):
        one = dl.membership_fraction(params, beta)
        assert np.array_equal(one.fractions, fractions[i])
        assert one.max_fraction == max_fractions[i]
        assert one.witness_tau == witness_taus[i]


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_scan_equals_dense_reference(case):
    _assert_matches_dense(AlignmentParams(**DENSE_CASES[case]), DENSE_BETAS)


def test_dense_reference_catches_pruning_at_largest_tau(monkeypatch):
    """A column undecidable at the largest tau can still be decidable, and
    aligned, at smaller ones; pruning on tau_max instead of tau_0 drops it."""
    from dimlab import exceptional

    def prune_at_tau_max(bt, c):
        return np.flatnonzero(np.abs(bt[-1] * c) < 2.0 ** 53)

    monkeypatch.setattr(exceptional, "_decidable_columns", prune_at_tau_max)
    with pytest.raises(AssertionError):
        _assert_matches_dense(AlignmentParams(**DENSE_CASES["catalog"]), DENSE_BETAS)


def test_dense_reference_catches_a_skipped_crossing_test(monkeypatch):
    """The n = 7 power of two is 2^52 at tau_0 and exactly 2^53 at the last
    tau, where it rounds to itself; without the per-value 2^53 test on
    columns that cross it, that value counts as aligned."""
    from dimlab import exceptional

    params = AlignmentParams(**DENSE_CASES["powers_of_two"])
    _assert_matches_dense(params, DENSE_BETAS)
    monkeypatch.setattr(exceptional, "_crossing_rows", lambda top, c: np.zeros(0, int))
    with pytest.raises(AssertionError):
        _assert_matches_dense(params, DENSE_BETAS)
