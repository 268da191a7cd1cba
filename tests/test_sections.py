import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dimlab as dl
from dimlab import CellCloud, Direction
from dimlab.experiments import parse_scales
from dimlab.errors import (
    BudgetExceededError,
    DepthMismatchError,
    InsufficientDataError,
    OutOfRangeError,
    ParameterError,
)

import oracles


# ---------------------------------------------------------------------------
# directions and raw slice counts


def test_direction_from_angle_is_unit():
    d = Direction.from_angle(0.0)
    assert np.allclose(d.vector, [1.0, 0.0])
    assert d.dim == 2
    with pytest.raises(ParameterError):
        Direction(vector=np.array([1.0, 1.0]))
    # a NaN norm fails every comparison, so the unit test must not pass it
    with pytest.raises(ParameterError, match="unit length"):
        Direction(vector=np.array([math.nan, 0.0]))
    for beta in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            Direction.from_angle(beta)


def test_count_slice_square_center_hits_all_four(square):
    # depth-1 covering: 4 disks of radius ~0.354, centers at x in {1/4, 3/4}
    n = dl.count_slice(square, Direction.from_angle(0.0), 0.5, rho=0.5)
    assert n == 4


def test_count_slice_far_outside_is_zero(square):
    assert dl.count_slice(square, Direction.from_angle(0.0), 5.0, rho=0.5) == 0


def test_count_slice_dimension_mismatch(square):
    with pytest.raises(ParameterError):
        dl.count_slice(square, Direction(vector=np.array([1.0])), 0.5, rho=0.5)


def test_every_entry_point_rejects_a_direction_of_another_dimension():
    # each of these died in numpy's matmul with a ValueError
    line = dl.IFS.from_maps(
        [dl.Similarity(ratio=1 / 3, angle=0.0, translation=np.array([t])) for t in (0.0, 2 / 3)]
    )
    cube = dl.mandelbrot_config(2, 3, 0.9)
    sample = dl.sample_tree(cube.law, 2, seed=1)
    flat = Direction.from_angle(0.0)
    calls = [
        lambda: dl.conservation_profile(line, [flat], 0.1, [0.2, 0.1, 0.05], grid=8),
        lambda: dl.conservation_profile_sample(
            sample, cube.ifs, 2.8, [flat], 0.1, [0.9, 0.45], grid=8
        ),
        lambda: dl.probe_sections(line, 0.2, flat, depth=3, trials=1, seed=1, grid=8),
        lambda: dl.projection_measure(line, flat, 0.1),
        lambda: dl.projection_measure(sample, flat, 0.9, ifs=cube.ifs),
        lambda: CellCloud(np.zeros((2, 3)), np.ones(2)).projected_length(flat),
        lambda: dl.slice_counts(CellCloud(np.zeros((2, 3)), np.ones(2)), flat, [0.0]),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="direction dimension mismatch"):
            call()


def test_cloud_projection_is_the_slice_counts_projection(carpet):
    # one row goes through the same rule as a block of many
    cloud = CellCloud.from_stopping_set(dl.stopping_set(carpet, 3.0 ** -3))
    d = Direction.from_angle(0.7)
    whole = cloud.project(d)
    for i in range(len(cloud.centers)):
        one = CellCloud(cloud.centers[i:i + 1], cloud.radii[i:i + 1])
        assert one.project(d).tobytes() == whole[i:i + 1].tobytes()


def test_slice_counts_match_scalar_enumeration(carpet, rot3, triangle, mixed):
    cases = [
        (carpet, 0.0, 0.37, 0.06),
        (carpet, 1.1, 0.52, 0.09),
        (rot3, 0.4, 0.31, 0.06),
        (triangle, 2.0, 0.18, 0.05),
        (mixed, 0.7, 0.3, 0.01),
        (mixed, 2.3, 0.4, 0.03),
    ]
    for ifs, beta, x, rho in cases:
        d = Direction.from_angle(beta)
        got = dl.count_slice(ifs, d, x, rho)
        lo, hi = oracles.slice_count_bracket(ifs, d, x, rho)
        assert lo <= got <= hi, (ifs.label, beta, x, rho, lo, got, hi)


def _direct_counts(cloud, d, xs):
    """The disk test fl(p - r) <= x <= fl(p + r), offset by offset."""
    p = cloud.centers @ d.vector
    lo, hi = p - cloud.radii, p + cloud.radii
    return [int(np.count_nonzero((lo <= x) & (x <= hi))) for x in xs]


@pytest.mark.parametrize("equal_radii", [True, False])
def test_slice_counts_are_the_direct_disk_test(equal_radii, rng_np):
    n = 2000
    centers = rng_np.uniform(-1.0, 1.0, (n, 2))
    if equal_radii:
        radii = np.full(n, 0.013)
    else:
        radii = rng_np.uniform(0.001, 0.05, n)
    cloud = CellCloud(centers=centers, radii=radii)
    d = Direction.from_angle(0.9)
    p = centers @ d.vector
    # random offsets, and offsets exactly on disk ends, where ties decide
    xs = np.concatenate(
        [rng_np.uniform(-1.5, 1.5, 300), (p - radii)[:100], (p + radii)[:100]]
    )
    assert dl.slice_counts(cloud, d, xs).tolist() == _direct_counts(cloud, d, xs)


@st.composite
def _filtered_cases(draw):
    """(cloud, direction, offsets, filter expected on) for the reach test.

    Disks sit on offsets, a radius either side of them, and one ulp either
    side of those; offsets are a linspace grid, one moved by a few ulps or
    by 1e-6 h, or the grid reversed."""
    g = draw(st.sampled_from([1, 2, 3, 17, 64]))
    x0 = draw(st.sampled_from([0.0, -0.37, 1e6]))
    h = draw(st.sampled_from([0.01, 1.0 / 3.0, 1e-9]))
    xs = np.linspace(x0, x0 + (g - 1) * h, g)
    grid = draw(st.sampled_from(["exact", "ulps", "relative", "decreasing"]))
    j = draw(st.integers(0, g - 1))
    if grid == "ulps":
        steps = draw(st.integers(-4, 4))
        xs[j] = xs[j] + steps * np.spacing(xs[j])
    elif grid == "relative":
        xs[j] += draw(st.sampled_from([-1e-6, 1e-6])) * h
    elif grid == "decreasing":
        xs = xs[::-1].copy()
    n = draw(st.integers(0, 40))
    scale = draw(st.sampled_from([0.0, 1e-3, 0.2, 0.45]))
    mixed = draw(st.booleans())
    fracs = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=n, max_size=n))
    radii = np.array(fracs if mixed else [1.0] * n, dtype=np.float64) * scale * h
    at = draw(st.lists(st.integers(0, g - 1), min_size=n, max_size=n))
    side = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=n, max_size=n))
    ulp = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
    p = xs[np.array(at, dtype=np.intp)] + np.array(side) * radii
    p = np.where(np.array(ulp) > 0, np.nextafter(p, np.inf), p)
    p = np.where(np.array(ulp) < 0, np.nextafter(p, -np.inf), p)
    d = Direction.from_angle(0.0)
    # a second coordinate that w = (1, 0) ignores: p is each disk's projection
    centers = np.column_stack([p, np.linspace(-1.0, 1.0, n)])
    cloud = CellCloud(centers=centers, radii=radii)
    active = g >= 2 and grid != "decreasing" and h >= 0.01 and scale <= 0.2 and n > 0
    return cloud, d, xs, active


@given(case=_filtered_cases())
@settings(max_examples=300, deadline=None)
def test_slice_counts_with_the_reach_filter_are_the_direct_disk_test(case):
    cloud, d, xs, active = case
    if active:
        step = dl.sections._grid_step(xs)
        assert dl.sections._grid_reach(step, *dl.sections._radius_range(cloud.radii))
    assert dl.slice_counts(cloud, d, xs).tolist() == _direct_counts(cloud, d, xs)


@pytest.mark.parametrize("beta", [0.0, 0.9])
@pytest.mark.parametrize("equal_radii", [True, False])
def test_the_reach_filter_drops_most_fine_disks(beta, equal_radii, rng_np, monkeypatch):
    # radius 0.1 h: about a fifth of the disks can touch a flat
    xs = np.linspace(-0.5, 0.5, 256)
    h = xs[1] - xs[0]
    n = 5000
    centers = rng_np.uniform(-0.6, 0.6, (n, 2))
    radii = np.full(n, 0.1 * h) if equal_radii else rng_np.uniform(0.0, 0.1 * h, n)
    cloud = CellCloud(centers=centers, radii=radii)
    d = Direction.from_angle(beta)
    kept = []
    reach_step = dl.sections._reach_step

    def spy(*args):
        p, j, keep = reach_step(*args)
        kept.append(int(np.count_nonzero(keep)))
        return p, j, keep

    monkeypatch.setattr(dl.sections, "_reach_step", spy)
    got = dl.slice_counts(cloud, d, xs)
    assert len(kept) == 1 and 0 < kept[0] < n // 2
    assert got.tolist() == _direct_counts(cloud, d, xs)
    assert got.sum() > 0


@st.composite
def _streamed_cases(draw):
    """(cloud, direction, offsets) for the nearest-flat count.

    Disks sit at an index inside the grid, below it or past it, on the
    offset there or a radius either side, and one ulp either side of
    those; some rows project to inf, -inf or nan.  Radii of 0.7 h give
    their block no reach, so a pass mixes blocks counted at the nearest
    flat and blocks counted by sorting.  Grids of 1 to 17 offsets are even
    or have one offset moved by a few ulps or by 0.3 h, which the reach
    must take in.
    """
    g = draw(st.sampled_from([1, 2, 3, 17]))
    x0 = draw(st.sampled_from([0.0, -0.37, 1e6]))
    h = draw(st.sampled_from([0.01, 1.0 / 3.0]))
    xs = np.linspace(x0, x0 + (g - 1) * h, g)
    if draw(st.booleans()):
        j = draw(st.integers(0, g - 1))
        xs[j] += draw(st.sampled_from([-3.0 * np.spacing(xs[j]), 2.0 * np.spacing(xs[j]), 0.3 * h]))
    n = draw(st.integers(0, 24))

    def column(values):
        return np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))

    at = np.array(draw(st.lists(st.integers(-3, g + 2), min_size=n, max_size=n)), dtype=np.intp)
    radii = column([0.0, 0.1, 0.25, 0.45, 0.7]).astype(np.float64) * h
    side = column([-1.0, 0.0, 1.0])
    ulp = column([-1, 0, 1])
    kind = column(["finite"] * 4 + ["inf", "-inf", "nan"])
    inside = (0 <= at) & (at < g)
    base = np.where(inside, xs[np.clip(at, 0, g - 1)], x0 + at * h)
    p = base + side * radii
    p = np.where(ulp > 0, np.nextafter(p, np.inf), p)
    p = np.where(ulp < 0, np.nextafter(p, -np.inf), p)
    p = np.where(kind == "inf", np.inf, np.where(kind == "-inf", -np.inf, p))
    # w = (1, 0): a nan second coordinate makes the projection nan
    y = np.where(kind == "nan", np.nan, np.linspace(-1.0, 1.0, n))
    cloud = CellCloud(centers=np.column_stack([p, y]), radii=radii)
    return cloud, Direction.from_angle(0.0), xs


@pytest.mark.parametrize("block_rows", [1, 3, None])
@given(case=_streamed_cases())
@settings(max_examples=200, deadline=None)
def test_streamed_counts_are_the_direct_disk_test(block_rows, case):
    cloud, d, xs = case
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(dl.geometry, "_BLOCK_ROWS", block_rows)
        got = dl.slice_counts(cloud, d, xs)
    assert got.tolist() == _direct_counts(cloud, d, xs)


def test_nearest_flat_and_sorted_blocks_add_up_in_one_pass(monkeypatch):
    # blocks of 3 rows; the middle block's 0.07 = 0.7 h radius leaves it no
    # reach, so it is sorted, and the outer two are counted at their
    # nearest flats, one of which lies below the grid and one past it
    monkeypatch.setattr(dl.geometry, "_BLOCK_ROWS", 3)
    xs = np.linspace(0.0, 1.0, 11)
    p = [xs[2] + 0.01, -0.2, 1.3, xs[5], np.inf, -0.05, np.nan, xs[9] + 0.03, xs[10] + 0.01]
    radii = [0.02, 0.02, 0.02, 0.07, 0.01, 0.05, 0.01, 0.03, 0.02]
    cloud = CellCloud(centers=np.column_stack([p, np.zeros(9)]), radii=np.array(radii))
    d = Direction.from_angle(0.0)
    tested = []
    reach_step = dl.sections._reach_step

    def spy(*args):
        tested.append(len(args[0]))
        return reach_step(*args)

    monkeypatch.setattr(dl.sections, "_reach_step", spy)
    got = dl.slice_counts(cloud, d, xs).tolist()
    want = _direct_counts(cloud, d, xs)
    assert tested == [3, 3]
    assert got == want
    assert [want[j] for j in (0, 2, 5, 10)] == [1, 1, 1, 1] and sum(want) >= 4


@pytest.mark.parametrize("equal_radii", [True, False])
def test_slice_counts_peak_does_not_grow_with_the_cloud(equal_radii, monkeypatch):
    # reach about 0.1, blocks of 1024 rows: a count holds one block's
    # temporaries and its G counts, however many disks there are.
    # Buffering the kept projections grew the peak with the cloud.
    monkeypatch.setattr(dl.geometry, "_BLOCK_ROWS", 1024)
    xs = np.linspace(-0.5, 0.5, 256)
    h = xs[1] - xs[0]
    d = Direction.from_angle(0.9)
    rng = np.random.Generator(np.random.PCG64(3))
    peaks = []
    for n in (32 * 1024, 64 * 1024):
        centers = rng.uniform(-0.6, 0.6, (n, 2))
        radii = np.full(n, 0.1 * h) if equal_radii else rng.uniform(0.0, 0.1 * h, n)
        step = dl.sections._grid_step(xs)
        assert dl.sections._grid_reach(step, *dl.sections._radius_range(radii))
        cloud = CellCloud(centers=centers, radii=radii)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = dl.slice_counts(cloud, d, xs)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert got.tolist() == _direct_counts(cloud, d, xs)
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_the_reach_needs_the_grid_deviation(monkeypatch):
    # one offset moved by 1e-6 h, and a point disk on it: without dev in
    # the reach the disk is dropped, though it meets that flat
    xs = np.linspace(0.0, 1.0, 11)
    h = xs[1] - xs[0]
    xs[5] += 1e-6 * h
    centers = np.array([[xs[5], 0.0], [xs[2], 0.3], [0.43, 0.1]])
    cloud = CellCloud(centers=centers, radii=np.zeros(3))
    d = Direction.from_angle(0.0)
    want = _direct_counts(cloud, d, xs)
    assert want[5] == 1
    assert dl.slice_counts(cloud, d, xs).tolist() == want
    grid_step = dl.sections._grid_step

    def without_dev(xs):
        g, h, _, ends = grid_step(xs)
        return g, h, 0.0, ends

    monkeypatch.setattr(dl.sections, "_grid_step", without_dev)
    got = dl.slice_counts(cloud, d, xs).tolist()
    assert got[5] == 0 and got[:5] == want[:5] and got[6:] == want[6:]


def _projection_clouds(carpet):
    cfg = dl.mandelbrot_config(3, 2, 0.85)
    sample, _ = dl.sample_surviving_tree(cfg.law, 5, seed=7)
    rng = np.random.Generator(np.random.PCG64(5))
    yield sample.cell_cloud(cfg.ifs, 5)[0]
    # 4096 rows: blocks of 7 leave a one-row last block
    yield dl.sample_tree(dl.deterministic_law(carpet.m), 4, seed=0).cell_cloud(carpet, 4)[0]
    yield dl.stopping_set(carpet, 3.0 ** -5).centers
    yield rng.uniform(-1.0, 1.0, (3001, 2))
    yield rng.uniform(-1.0, 1.0, (2049, 2))
    yield rng.normal(0.0, 1e6, (2500, 2))


def _reach_step_projections(centers, d):
    """The projections the reach step makes of each block, joined."""
    parts = []
    for b in dl.geometry._row_blocks(len(centers)):
        p, _, keep = dl.sections._reach_step(centers[b], d.vector, 0.0, 1.0, 1.0)
        assert keep.all()
        parts.append(p)
    return np.concatenate(parts)


@pytest.mark.parametrize("block_rows", [7, 1024])
def test_blockwise_projection_is_bitwise_the_whole_projection(
    block_rows, carpet, monkeypatch
):
    # the reach filter projects a block at a time and must see the bits of
    # centers @ w.  numpy takes a one-row product through a dot that rounds
    # otherwise, so one-row last blocks are checked only through
    # _project, which projects them as two copies of the row.  Reach 1
    # keeps every disk, so the kept projections are all of them.
    monkeypatch.setattr(dl.geometry, "_BLOCK_ROWS", block_rows)
    one_row_tails = 0
    for centers in _projection_clouds(carpet):
        n = len(centers)
        assert n > 2 * block_rows
        one_row_tails += n % block_rows == 1
        for beta in (0.0, 0.5, 1.0, 1.75, 2.7):
            d = Direction.from_angle(beta)
            want = (centers @ d.vector).view(np.uint64)
            for b in dl.geometry._row_blocks(n):
                if len(centers[b]) >= 2:
                    assert np.array_equal((centers[b] @ d.vector).view(np.uint64), want[b])
            got = _reach_step_projections(centers, d)
            assert np.array_equal(got.view(np.uint64), want)
            # a cloud of one of these rows projects it to the same bits
            for i in (0, n // 2, n - 1):
                got = _reach_step_projections(centers[i:i + 1], d)
                assert got.view(np.uint64).tolist() == [want[i]]
    assert one_row_tails > 0


def test_carpet_axis_counts_match_column_products(carpet):
    d0 = Direction.from_angle(0.0)
    for x in (0.2, 5.0 / 27.0, 0.5):
        for depth in (2, 3, 4):
            rho = 3.0 ** -depth
            got = dl.count_slice(carpet, d0, x, rho)
            assert got == oracles.carpet_slice_count(carpet, x, depth)


# ---------------------------------------------------------------------------
# log-log fits


def test_fit_loglog_recovers_exact_power_law():
    scales = np.array([3.0 ** -k for k in range(2, 8)])
    counts = 5.0 * scales ** -1.7
    est = dl.fit_loglog(scales, counts)
    assert est.slope == pytest.approx(1.7, abs=1e-12)
    assert est.r2 == pytest.approx(1.0, abs=1e-12)
    assert est.n_dropped == 0


def test_fit_loglog_drops_zero_counts():
    scales = np.array([0.1, 0.05, 0.025, 0.0125, 0.00625])
    counts = np.array([10.0, 20.0, 0.0, 80.0, 160.0])
    est = dl.fit_loglog(scales, counts)
    assert est.n_dropped == 1
    assert len(est.scales) == 4


def test_fit_loglog_needs_three_points():
    with pytest.raises(InsufficientDataError):
        dl.fit_loglog([0.1, 0.05, 0.025], [4.0, 0.0, 0.0])
    with pytest.raises(ParameterError):
        dl.fit_loglog([0.1, 0.05], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("n", [3, 10])
def test_line_fit_agrees_with_polyfit(n, rng_np):
    x = np.log(1.0 / (3.0 ** -np.arange(2.0, 2.0 + n)))
    series = np.log(rng_np.integers(1, 10 ** 6, (300, n)).astype(np.float64))
    # repeated rows, and all-zero rows of either sign
    zero = np.zeros((1, n))
    ys = np.vstack([series, series[rng_np.integers(0, 300, 200)], zero, -zero, zero])
    slope, intercept, _ = dl.sections._line_fit(x, ys)
    want = np.array([np.polyfit(x, y, 1) for y in ys])
    assert np.allclose(slope, want[:, 0], rtol=0.0, atol=1e-12)
    assert np.allclose(intercept, want[:, 1], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 10])
def test_masked_line_fit_is_the_fit_of_the_kept_points(n, rng_np):
    x = np.log(1.0 / (3.0 ** -np.arange(2.0, 2.0 + n)))
    ys = np.log(rng_np.integers(1, 10 ** 6, (200, n)).astype(np.float64))
    keep = rng_np.random((200, n)) < 0.7
    keep[:, :3] = True
    got = np.array(dl.sections._line_fit(x, ys, keep))
    want = np.array([
        np.concatenate(dl.sections._line_fit(x[k], y[k][None])) for y, k in zip(ys, keep)
    ])
    # bitwise, not just within 1e-12: a dropped point adds zeros to each sum
    assert np.array_equal(got.T, want)


def test_line_fit_recovers_an_exact_line_at_integer_x():
    x = np.arange(7.0)
    ys = np.array([3.0 * x + 2.0, -0.5 * x + 11.0, np.full(7, 4.0)])
    slope, intercept, r2 = dl.sections._line_fit(x, ys)
    assert slope.tolist() == [3.0, -0.5, 0.0]
    assert intercept.tolist() == [2.0, 11.0, 4.0]
    assert r2.tolist() == [1.0, 1.0, 1.0]


def test_a_line_without_spread_in_x_has_no_slope():
    ys = np.array([[1.0, 2.0, 3.0, 4.0]])
    slope, intercept, _ = dl.sections._line_fit(np.full(4, 2.0), ys)
    assert np.isnan(slope[0]) and np.isnan(intercept[0])
    # fit_loglog needs three distinct non-empty scales, whatever their count
    with pytest.raises(InsufficientDataError):
        dl.fit_loglog([0.1] * 4, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(InsufficientDataError):
        dl.fit_loglog([0.1, 0.1, 0.05, 0.05, 0.025], [1.0, 2.0, 3.0, 4.0, 0.0])
    est = dl.fit_loglog([0.1, 0.1, 0.05, 0.025], [1.0, 2.0, 3.0, 4.0])
    assert np.isfinite(est.slope)


def _section_fit(ifs, beta, x, scales):
    """(slope, r2) of the box counts of the one slice through x."""
    (profile,) = dl.conservation_profile(
        ifs, [Direction.from_angle(beta)], 0.1, scales, x_grid=[x]
    )
    assert profile.valid.tolist() == [True]
    return profile.slopes[0], profile.r2[0]


def test_section_dim_square_vertical_line_is_one(square):
    scales = [2.0 ** -k for k in range(2, 8)]
    slope, r2 = _section_fit(square, 0.0, 0.5, scales)
    assert abs(slope - 1.0) < 0.1
    assert r2 > 0.99


def test_product_set_slices_both_ways(cantor_interval):
    """Cantor x interval: vertical slices are intervals, horizontal slices
    are Cantor sets."""
    scales = [3.0 ** -k for k in range(2, 8)]
    slope, _ = _section_fit(cantor_interval, 0.0, 0.25, scales)
    assert abs(slope - 1.0) < 0.1

    slope, r2 = _section_fit(cantor_interval, math.pi / 2.0, 0.5, scales)
    cantor_dim = math.log(2.0) / math.log(3.0)
    assert abs(slope - cantor_dim) < 0.12
    assert r2 > 0.98


# ---------------------------------------------------------------------------
# interval unions and projections


def test_interval_union_merges_touching_intervals():
    assert dl.interval_union_length([0.0, 1.0], [1.0, 2.0]) == 2.0
    assert dl.interval_union_length([], []) == 0.0
    assert dl.interval_union_length([3.0], [3.5]) == 0.5


@given(
    st.lists(
        st.tuples(st.floats(-50.0, 50.0), st.floats(0.0, 10.0)),
        min_size=0,
        max_size=40,
    )
)
@settings(max_examples=120, deadline=None)
def test_interval_union_matches_naive_sweep(pairs):
    lo = [a for a, _ in pairs]
    hi = [a + w for a, w in pairs]
    assert dl.interval_union_length(lo, hi) == pytest.approx(
        oracles.union_length_naive(lo, hi), abs=1e-9
    )


def test_projection_of_full_square_is_about_one(square):
    for beta in (0.0, 0.3, 1.2):
        got = dl.projection_measure(square, Direction.from_angle(beta), 0.1)
        assert 0.9 <= got <= 1.5


def test_projection_shrinks_under_refinement(square):
    d = Direction.from_angle(0.35)
    vals = [
        dl.projection_measure(square, d, 0.5 * 2.0 ** -j) for j in range(5)
    ]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_sample_projection_below_full_projection():
    cfg = dl.mandelbrot_config(3, 2, 0.8)
    sample, _ = dl.sample_surviving_tree(cfg.law, 5, seed=4)
    for beta in (0.0, 0.7):
        d = Direction.from_angle(beta)
        for rho in (0.1, 0.05):
            part = dl.projection_measure(sample, d, rho, ifs=cfg.ifs)
            full = dl.projection_measure(cfg.ifs, d, rho)
            assert part <= full + 1e-12


def test_projection_measure_is_the_union_of_the_projected_disks(carpet):
    cfg = dl.mandelbrot_config(3, 2, 0.85)
    sample, _ = dl.sample_surviving_tree(cfg.law, 5, seed=7)
    d = Direction.from_angle(0.7)
    for source, ifs, rho in ((carpet, None, 3.0 ** -5), (sample, cfg.ifs, 3.0 ** -4)):
        if ifs is None:
            cloud = CellCloud.from_stopping_set(dl.stopping_set(source, rho))
        else:
            cloud = CellCloud.from_sample(source, ifs, rho)
        p, r = cloud.project(d), cloud.radii
        want = dl.interval_union_length(p - r, p + r)
        assert dl.projection_measure(source, d, rho, ifs=ifs) == want > 0.0


def test_projection_measure_requires_ifs_for_samples():
    cfg = dl.mandelbrot_config(2, 2, 0.9)
    sample = dl.sample_tree(cfg.law, 3, seed=1)
    with pytest.raises(ParameterError):
        dl.projection_measure(sample, Direction.from_angle(0.0), 0.2)


# ---------------------------------------------------------------------------
# scale bookkeeping for samples


def test_generation_for_scale_steps(carpet):
    law = dl.deterministic_law(carpet.m)
    sample = dl.sample_tree(law, 3, seed=0)
    c0 = carpet.diameter_proxy
    assert dl.sections.generation_for_scale(sample, carpet, c0 * 1.001) == 0
    assert dl.sections.generation_for_scale(sample, carpet, c0 / 3.0) == 1
    assert dl.sections.generation_for_scale(sample, carpet, 0.1 * c0) == 3
    with pytest.raises(DepthMismatchError):
        dl.sections.generation_for_scale(sample, carpet, 1e-4)


@pytest.mark.parametrize("rho", [-0.1, 0.0, math.nan])
def test_generation_for_scale_rejects_non_positive_rho(carpet, rho):
    sample = dl.sample_tree(dl.deterministic_law(carpet.m), 3, seed=0)
    with pytest.raises(OutOfRangeError, match="rho must be > 0"):
        dl.sections.generation_for_scale(sample, carpet, rho)


def test_box_count_rejects_a_negative_min_depth(carpet):
    sample = dl.sample_tree(dl.deterministic_law(carpet.m), 4, seed=0)
    # min_depth = -2 read counts[-2] and counts[-1], the deepest generations,
    # at scales above the diameter
    with pytest.raises(ParameterError, match="min_depth"):
        dl.box_count_estimate(sample, carpet, min_depth=-2)
    assert dl.box_count_estimate(sample, carpet, min_depth=0).slope == pytest.approx(
        math.log(8.0) / math.log(3.0), abs=1e-12
    )
    with pytest.raises(ParameterError, match="min_depth"):
        dl.run_scenario(
            "percolate-dim", params={"samples": 2, "depth": 5, "min_depth": -2}, seed=7
        )


def test_box_count_slope_of_full_carpet_tree(carpet):
    law = dl.deterministic_law(carpet.m)
    sample = dl.sample_tree(law, 4, seed=0)
    est = dl.box_count_estimate(sample, carpet)
    want = math.log(8.0) / math.log(3.0)
    assert est.slope == pytest.approx(want, abs=1e-12)
    assert est.r2 == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# conservation profiles and probing


def test_conservation_profile_carpet_axis(carpet):
    scales = [3.0 ** -k for k in range(2, 6)]
    (profile,) = dl.conservation_profile(
        carpet, [Direction.from_angle(0.0)], 0.15, scales, grid=128
    )
    s = dl.moran_dimension(carpet)
    assert profile.threshold == pytest.approx(s - 1.0 - 0.15)
    assert profile.counts.shape == (len(scales), 128)
    assert np.all(profile.qualifying <= profile.valid)
    assert profile.qualifying_fraction >= 0.4
    assert 0.0 < profile.qualifying_length <= profile.x_grid[-1] - profile.x_grid[0]


# system, beta, scales, grid, and x grid (None for the default grid)
_WALKS = {
    # probe's profile: disks wider than half a step, counted by sorting
    "carpet": ("carpet", 0.0, parse_scales("3:-2:-6"), 2048, None),
    "rotational_m3": ("rot3", 0.7, parse_scales("2:-3:-9"), 512, None),
    # several scales cut at one level, some sharing one block of maps
    "mixed, dense ladder": ("mixed", 0.7, parse_scales("1.1:-20:-60"), 256, None),
    # the 16 coarsest scales all cut the root
    "mixed, root cut": ("mixed", 0.7, parse_scales("1.1:-1:-40"), None,
                        np.linspace(-0.1, 0.9, 128)),
}


@pytest.mark.parametrize("case", list(_WALKS))
def test_a_walked_profile_counts_each_stopping_set_alone(case, request):
    name, beta, scales, grid, x_grid = _WALKS[case]
    ifs = request.getfixturevalue(name)
    d = Direction.from_angle(beta)
    cells, _ = dl.geometry._ladder_cuts(ifs, scales)
    blocks = [id(maps[2]) for cut in cells for _, maps in cut.values()]
    assert (len(set(blocks)) < len(blocks)) == (name == "mixed")
    if case == "mixed, root cut":
        assert sum(0 in cut for cut in cells) == 16
    (profile,) = dl.conservation_profile(
        ifs, [d], 0.15, scales, grid=grid or 512, x_grid=x_grid
    )
    xs = profile.x_grid
    held = [CellCloud.from_stopping_set(dl.stopping_set(ifs, rho)) for rho in scales]
    want = np.stack([dl.slice_counts(cloud, d, xs) for cloud in held])
    assert profile.counts.dtype == want.dtype and np.array_equal(profile.counts, want)
    assert _same_profile(
        profile,
        dl.sections._profiles_from_counts(
            [want], [d], 0.15, dl.moran_dimension(ifs), [xs], scales
        )[0],
    )
    if name == "carpet":
        radii = held[-1].radii
        step = dl.sections._grid_step(xs)
        assert dl.sections._grid_reach(step, *dl.sections._radius_range(radii)) is None


@pytest.mark.parametrize("x_grid", [None, np.linspace(0.1, 0.9, 48)])
def test_a_multi_direction_walked_profile_is_the_single_direction_profiles(x_grid, rot3):
    scales = parse_scales("2:-3:-8")
    directions = [Direction.from_angle(b) for b in (0.0, 0.7, 2.2)]
    profiles = dl.conservation_profile(rot3, directions, 0.15, scales, grid=96, x_grid=x_grid)
    assert len(profiles) == len(directions)
    for w, got in zip(directions, profiles):
        (want,) = dl.conservation_profile(rot3, [w], 0.15, scales, grid=96, x_grid=x_grid)
        assert _same_profile(got, want)
        assert got.valid.any()
    same_grid = np.array_equal(profiles[0].x_grid, profiles[1].x_grid)
    assert same_grid == (x_grid is not None)


def test_profile_sample_masks_are_consistent():
    cfg = dl.mandelbrot_config(3, 2, 0.85)
    sample, _ = dl.sample_surviving_tree(cfg.law, 5, seed=6)
    scales = [cfg.ifs.diameter_proxy * 3.0 ** -k for k in (2, 3, 4, 5)]
    (profile,) = dl.conservation_profile_sample(
        sample, cfg.ifs, cfg.dimension, [Direction.from_angle(0.5)], 0.25, scales,
        grid=64,
    )
    assert profile.valid.shape == (64,)
    assert np.all(profile.qualifying <= profile.valid)
    assert 0.0 <= profile.qualifying_fraction <= 1.0
    assert np.isnan(profile.slopes[~profile.valid]).all()


def test_a_sample_profile_holds_no_generation_sized_scratch(monkeypatch):
    # the deepest generation is folded and counted a block at a time, each
    # disk at its nearest flat: nothing per deepest cell, 32 bytes per cell
    # of the coarser generations (maps and disks) and a few blocks'
    # temporaries (136,594 bytes here, against a bound of 251,200).
    # Buffering the kept projections peaked at 303,676 bytes, about 16.6
    # per deepest cell; holding its centers at 29.5 per cell, and a
    # one-shot gather, a separate centers array and stored disk ends
    # before that at about 46.
    monkeypatch.setattr(dl.geometry, "_BLOCK_ROWS", 1024)
    cfg = dl.mandelbrot_config(3, 2, 0.85)
    sample, _ = dl.sample_surviving_tree(cfg.law, 5, seed=7)
    scales = [cfg.ifs.diameter_proxy * 3.0 ** -k for k in (2, 3, 4, 5)]
    counts = sample.counts()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        dl.conservation_profile_sample(
            sample, cfg.ifs, cfg.dimension, [Direction.from_angle(0.0)], 0.25,
            scales, grid=64,
        )
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert counts[5] > 16 * 1024
    assert peak <= 32 * counts[2:5].sum() + 96 * 1024 + 2 ** 16


def _same_profile(a, b):
    return a.direction is b.direction and all(
        np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True)
        for f in ("x_grid", "slopes", "r2", "valid", "qualifying", "counts")
    ) and (a.epsilon, a.threshold) == (b.epsilon, b.threshold)


@pytest.mark.parametrize("x_grid", [None, np.linspace(0.1, 0.9, 48)])
def test_a_multi_direction_profile_is_the_single_direction_profiles(x_grid, monkeypatch):
    cfg = dl.mandelbrot_config(3, 2, 0.7)
    sample, _ = dl.sample_surviving_tree(cfg.law, 5, seed=4)
    scales = [cfg.ifs.diameter_proxy * 3.0 ** -k for k in (5, 2, 3, 4)]
    directions = [Direction.from_angle(b) for b in (0.0, 0.5, 1.0, 2.2)]
    folds = []
    extend, extend_blocks = dl.percolation._extend, dl.sections._extend_blocks

    def counted(*args):
        folds.append(np.count_nonzero(args[4]))
        return extend(*args)

    def counted_blocks(*args):
        folds.append(np.count_nonzero(args[4]))
        return extend_blocks(*args)

    # the sample folds the coarser generations, and the finest is folded
    # a block of parent rows at a time
    monkeypatch.setattr(dl.percolation, "_extend", counted)
    monkeypatch.setattr(dl.sections, "_extend_blocks", counted_blocks)
    profiles = dl.conservation_profile_sample(
        sample, cfg.ifs, cfg.dimension, directions, 0.25, scales, grid=96, x_grid=x_grid
    )
    # one pass: each of generations 1..5 is folded once, whatever the directions
    assert folds == sample.counts()[1:].tolist()
    assert len(profiles) == len(directions)
    for w, got in zip(directions, profiles):
        (want,) = dl.conservation_profile_sample(
            sample, cfg.ifs, cfg.dimension, [w], 0.25, scales, grid=96, x_grid=x_grid
        )
        assert _same_profile(got, want)
        assert len(got.x_grid) == (96 if x_grid is None else 48)
    # a given grid serves every direction; default grids follow the direction
    same_grid = np.array_equal(profiles[0].x_grid, profiles[2].x_grid)
    assert same_grid == (x_grid is not None)


def _uneven_grid(lo, hi, n):
    u = np.linspace(-1.0, 1.0, n)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.sign(u) * u ** 2


def _held_profiles(sample, ifs, dim, directions, epsilon, scales, grids):
    """The profiles of every scale's whole cloud: each generation held
    by `cell_cloud`, and counted by `slice_counts`."""
    ks = [dl.sections.generation_for_scale(sample, ifs, rho) for rho in scales]
    clouds = [CellCloud(*sample.cell_cloud(ifs, k)) for k in ks]
    counts = [
        np.stack([dl.slice_counts(c, w, xs) for c in clouds]) for w, xs in zip(directions, grids)
    ]
    return dl.sections._profiles_from_counts(counts, directions, epsilon, dim, grids, scales)


def _mandelbrot(p):
    cfg = dl.mandelbrot_config(3, 2, p)
    return cfg.ifs, cfg.law, cfg.dimension


def _standard(name, alpha):
    def make(request):
        ifs = request.getfixturevalue(name)
        return ifs, dl.standard_law(ifs, alpha), 1.0
    return make


# system, depth, seeds, beta lists, grid, x grid, rows per block
_LADDERS = {
    "default grids": (lambda r: _mandelbrot(0.85), 5, (3, 8), ([0.0, 0.5, 1.0], [2.2]),
                      64, None, None),
    "shared grid": (lambda r: _mandelbrot(0.7), 5, (4, 11), ([0.3, 2.2], [1.0]),
                    None, np.linspace(0.1, 0.9, 48), None),
    "reach keeps every disk": (lambda r: _mandelbrot(0.85), 4, (2, 5), ([0.7], [0.0, 1.6]),
                               None, _uneven_grid(0.05, 0.95, 101), None),
    "0 or 1 child per block": (lambda r: _mandelbrot(0.4), 6, (1, 7), ([0.0, 0.9], [2.5]),
                               64, None, 9),
    "unequal ratios": (_standard("mixed", 0.4), 7, (2, 9), ([0.7, 2.0], [0.1]),
                       None, np.linspace(0.0, 0.8, 96), None),
    "rotations": (_standard("rot3", 0.45), 6, (5, 7), ([0.2], [1.1, 2.9]),
                  None, np.linspace(-0.4, 0.5, 64), 64),
}


@pytest.mark.parametrize("case", list(_LADDERS))
def test_a_ladder_profile_is_the_profile_of_held_clouds(case, request, monkeypatch):
    # the finest generation is counted a block at a time as it is folded;
    # its counts and fits must be bitwise those of its whole cloud
    build, depth, seeds, beta_lists, grid, x_grid, block_rows = _LADDERS[case]
    ifs, law, dim = build(request)
    if block_rows is not None:
        monkeypatch.setattr(dl.geometry, "_BLOCK_ROWS", block_rows)
    # the projections each reach test keeps, joined per (direction, grid
    # start, step, reach) in the order the blocks are tested
    kept = {}
    reach_step = dl.sections._reach_step

    def spy(centers, w, x0, h, reach):
        p, j, keep = reach_step(centers, w, x0, h, reach)
        kept.setdefault((w.tobytes(), x0, h, reach), []).append(p[keep].view(np.uint64))
        return p, j, keep

    def joined():
        out = {key: np.concatenate(parts) for key, parts in kept.items()}
        kept.clear()
        return out

    monkeypatch.setattr(dl.sections, "_reach_step", spy)
    rmax = float(ifs.ratios.max())
    scales = [ifs.diameter_proxy * rmax ** k for k in range(2, depth + 1)][::-1]
    for seed in seeds:
        sample, _ = dl.sample_surviving_tree(law, depth, seed=seed)
        children = sample.generations[depth].sum(axis=1)
        if case == "0 or 1 child per block":
            assert {0, 1} <= set(children.tolist())
        for betas in beta_lists:
            directions = [Direction.from_angle(b) for b in betas]
            if x_grid is None:
                grids = [dl.sections._default_grid(ifs, w, scales, grid) for w in directions]
            else:
                grids = [x_grid] * len(directions)
            kept.clear()
            got = dl.conservation_profile_sample(
                sample, ifs, dim, directions, 0.25, scales, grid=grid or 512, x_grid=x_grid
            )
            streamed = joined()
            want = _held_profiles(sample, ifs, dim, directions, 0.25, scales, grids)
            held = joined()
            for a, b in zip(got, want):
                assert _same_profile(a, b)
                assert a.counts[0].any()
            if ifs.equal_ratio:
                # one radius per generation, so one reach for any blocks:
                # the disks kept are the held clouds', projected to the
                # same bits
                assert streamed.keys() == held.keys()
                assert all(np.array_equal(streamed[k], held[k]) for k in held)
                # the uneven grid has no step, and rot3's disks at depth 6
                # are wider than half a step: both are counted by sorting
                assert bool(held) == (case not in ("reach keeps every disk", "rotations"))
            if case == "reach keeps every disk":
                radii = sample.cell_cloud(ifs, depth)[1]
                step = dl.sections._grid_step(x_grid)
                assert dl.sections._grid_reach(step, *dl.sections._radius_range(radii)) is None


def _per_offset_fits(profile, scales):
    """fit_loglog on each offset's counts, one offset at a time."""
    n = len(profile.x_grid)
    slopes, r2, valid = np.full(n, np.nan), np.full(n, np.nan), np.zeros(n, bool)
    for j in range(n):
        try:
            est = dl.fit_loglog(scales, profile.counts[:, j])
        except InsufficientDataError:
            continue
        slopes[j], r2[j], valid[j] = est.slope, est.r2, True
    return slopes, r2, valid


def _carpet_profile(request):
    scales = [3.0 ** -k for k in range(2, 7)]
    ifs = request.getfixturevalue("carpet")
    return scales, dl.conservation_profile(
        ifs, [Direction.from_angle(0.4)], 0.15, scales, grid=256
    )[0]


def _sparse_sample_profile(request):
    cfg = dl.mandelbrot_config(3, 2, 0.45)
    sample, _ = dl.sample_surviving_tree(cfg.law, 7, seed=5)
    scales = [cfg.ifs.diameter_proxy * 3.0 ** -k for k in range(2, 8)]
    return scales, dl.conservation_profile_sample(
        sample, cfg.ifs, cfg.dimension, [Direction.from_angle(1.0)], 0.25, scales,
        grid=256,
    )[0]


def _repeated_scale_profile(request):
    # the coarsest scale twice: three non-empty scales may be two distinct ones
    cfg = dl.mandelbrot_config(3, 2, 0.45)
    sample, _ = dl.sample_surviving_tree(cfg.law, 7, seed=5)
    scales = [cfg.ifs.diameter_proxy * 3.0 ** -k for k in (2, 2, 3, 4, 5, 6, 7)]
    return scales, dl.conservation_profile_sample(
        sample, cfg.ifs, cfg.dimension, [Direction.from_angle(1.0)], 0.25, scales,
        grid=256,
    )[0]


def _long_ladder_profile(request):
    # ten scales: each sum runs past numpy's 8-element pairwise block
    ifs = request.getfixturevalue("square")
    sample = dl.sample_tree(dl.uniform_law(4, 0.85), 10, seed=3)
    scales = [ifs.diameter_proxy * 0.5 ** k for k in range(1, 11)]
    return scales, dl.conservation_profile_sample(
        sample, ifs, 2.0 + math.log(0.85) / math.log(2.0), [Direction.from_angle(0.3)],
        0.25, scales, x_grid=np.linspace(0.02, 1.23, 256),
    )[0]


@pytest.mark.parametrize(
    "build",
    [_carpet_profile, _sparse_sample_profile, _repeated_scale_profile, _long_ladder_profile],
)
def test_grouped_profile_fits_are_the_per_offset_fits(build, request):
    scales, profile = build(request)
    nonempty = np.count_nonzero(profile.counts > 0, axis=0)
    assert np.any(nonempty >= 3)
    if build is _sparse_sample_profile:
        assert np.any((nonempty >= 3) & (nonempty < len(scales)))
        assert np.any(nonempty < 3)
    if build is _repeated_scale_profile:
        assert np.any((nonempty >= 3) & ~profile.valid)
    if build is _long_ladder_profile:
        assert np.count_nonzero(nonempty >= 9) > 10
    slopes, r2, valid = _per_offset_fits(profile, scales)
    assert np.array_equal(profile.valid, valid)
    assert np.array_equal(profile.slopes, slopes, equal_nan=True)
    assert np.array_equal(profile.r2, r2, equal_nan=True)


def test_probe_hits_vanish_off_support(square):
    x_grid = np.array([-2.0, 0.5, 3.0])
    res = dl.probe_sections(
        square, 0.5, Direction.from_angle(0.0), depth=6, trials=60, seed=2,
        x_grid=x_grid,
    )
    freq = res.frequency
    assert freq[0] == 0.0 and freq[2] == 0.0
    assert freq[1] > 0.2
    # extinct trees cannot hit anything
    dead = ~res.survived
    assert not res.hits[dead].any()


def _trial_seed(seed, t):
    return int(dl.rng.derive_seed(np.uint64(seed), np.uint64(t)))


def _whole_tree_probe(ifs, alpha, direction, depth, trials, seed, xs):
    """Slice counts and survival of each probe trial from its whole tree:
    every deepest disk is folded and counted."""
    law = dl.standard_law(ifs, alpha)
    counts = np.zeros((trials, len(xs)), dtype=np.intp)
    survived = np.zeros(trials, dtype=bool)
    for t in range(trials):
        sample = dl.sample_tree(law, depth, _trial_seed(seed, t))
        survived[t] = not sample.extinct
        cloud = CellCloud(*sample.cell_cloud(ifs, depth))
        counts[t] = dl.slice_counts(cloud, direction, xs)
    return counts, survived


# system, alpha, beta, depth, x grid, and what the reach test does
_PROBES = {
    "carpet beta 0": ("carpet", 0.79, 0.0, 8, None, "prunes"),
    "carpet beta 0.7": ("carpet", 0.79, 0.7, 8, None, "prunes"),
    "carpet beta pi/2": ("carpet", 0.79, math.pi / 2, 8, None, "prunes"),
    "rotational_m3": ("rot3", 0.49, 0.7, 12, None, "prunes"),
    "unequal ratios": ("mixed", 0.3, 0.7, 9, None, "prunes"),
    "cantor x interval": ("cantor_interval", 0.53, 0.0, 7, None, "prunes"),
    "uneven grid": ("carpet", 0.79, 0.7, 7, _uneven_grid(0.05, 0.95, 301), "keeps all"),
    "one offset": ("carpet", 0.79, 0.7, 7, np.array([0.43]), "keeps all"),
    "off the support": ("carpet", 0.79, 0.0, 7, np.linspace(2.0, 3.0, 64), "no hits"),
}


@pytest.mark.parametrize("case", list(_PROBES))
def test_a_pruned_probe_is_the_whole_tree_probe(case, request, monkeypatch):
    name, alpha, beta, depth, x_grid, pruning = _PROBES[case]
    ifs = request.getfixturevalue(name)
    d = Direction.from_angle(beta)
    trials, seed = 6, 11
    masks, counted, regrown = [], [], []
    reach_mask, slice_counts, sample_tree = (
        dl.sections._reach_mask, dl.sections.slice_counts, dl.sections.sample_tree
    )

    def spy_mask(*args):
        masks.append(reach_mask(*args))
        return masks[-1]

    def spy_counts(*args):
        counted.append(slice_counts(*args))
        return counted[-1]

    def spy_tree(*args, **kwargs):
        regrown.append(args)
        return sample_tree(*args, **kwargs)

    monkeypatch.setattr(dl.sections, "_reach_mask", spy_mask)
    monkeypatch.setattr(dl.sections, "slice_counts", spy_counts)
    monkeypatch.setattr(dl.sections, "sample_tree", spy_tree)
    res = dl.probe_sections(
        ifs, alpha, d, depth=depth, trials=trials, seed=seed, grid=256, x_grid=x_grid
    )
    counts, survived = _whole_tree_probe(ifs, alpha, d, depth, trials, seed, res.x_grid)
    assert np.array_equal(res.hits, counts > 0)
    assert np.array_equal(res.survived, survived)
    # every count of the deepest pruned disks is the whole generation's
    assert [c.tolist() for c in counted if c.any()] == [c.tolist() for c in counts if c.any()]
    assert survived.any()
    dropped = [k is not None and not k.all() for k in masks]
    if pruning == "no hits":
        assert not res.hits.any() and len(regrown) == trials
    else:
        assert res.hits.any() and len(regrown) == trials - int(res.hits.any(axis=1).sum())
        assert any(dropped) == (pruning == "prunes")
        assert all(k is None for k in masks) == (pruning == "keeps all")


def _pruned_growth_checks(ifs, law, direction, xs, depth, seed):
    """The budget checks of one pruned probe trial, replayed on its whole
    tree: a node is grown when every ancestor's disk passed the reach test
    of its generation, and a grown node draws children when its own disk
    passes it too.  The first check is the tree's depth + 1 slots."""
    sample = dl.sample_tree(law, depth, seed)
    links = oracles.grow_whole_generations([seed], depth, law.m, retain=law.retain)
    grown = np.ones(1, dtype=bool)
    total, checks = 1, [depth + 1]
    step = dl.sections._grid_step(xs)
    for k in range(depth):
        centers, radii = sample.cell_cloud(ifs, k)
        near = dl.sections._grid_reach(step, *dl.sections._radius_range(radii[grown]))
        frontier = grown.copy()
        if near is not None:
            h, reach = near
            u = (centers @ direction.vector - xs[0]) / h
            frontier &= np.abs(u - np.rint(u)) <= reach
        if not frontier.any():
            break
        checks.append(total + int(frontier.sum()) * law.m)
        grown = frontier[next(links)[0]]
        total += int(grown.sum())
    return checks


def test_a_pruned_probe_is_held_to_its_own_growth_checks(carpet):
    alpha, depth, seed = 0.79, 8, 3
    d = Direction.from_angle(0.7)
    law = dl.standard_law(carpet, alpha)
    sub = _trial_seed(seed, 0)
    want = dl.probe_sections(carpet, alpha, d, depth, 1, seed, grid=256)
    xs = want.x_grid
    assert want.hits.any()
    checks = _pruned_growth_checks(carpet, law, d, xs, depth, sub)
    for budget in sorted({c + e for c in checks for e in (-1, 0, 1)}):
        if budget >= max(checks):
            got = dl.probe_sections(carpet, alpha, d, depth, 1, seed, x_grid=xs, budget=budget)
            assert np.array_equal(got.hits, want.hits) and got.survived[0]
            continue
        with pytest.raises(BudgetExceededError) as err:
            dl.probe_sections(carpet, alpha, d, depth, 1, seed, x_grid=xs, budget=budget)
        assert err.value.required == next(c for c in checks if c > budget)
    # the whole tree does not fit the largest pruned check, so a probe that
    # grew it raised at this budget
    with pytest.raises(BudgetExceededError):
        dl.sample_tree(law, depth, sub, budget=max(checks))


def test_a_trial_with_no_hit_regrows_its_whole_tree_under_the_budget(carpet):
    alpha, depth, seed = 0.79, 7, 3
    d = Direction.from_angle(0.0)
    law = dl.standard_law(carpet, alpha)
    sub = _trial_seed(seed, 0)
    xs = np.linspace(2.0, 3.0, 64)
    budget = max(_pruned_growth_checks(carpet, law, d, xs, depth, sub))
    with pytest.raises(BudgetExceededError) as want:
        dl.sample_tree(law, depth, sub, budget=budget)
    with pytest.raises(BudgetExceededError) as err:
        dl.probe_sections(carpet, alpha, d, depth, 1, seed, x_grid=xs, budget=budget)
    assert err.value.required == want.value.required
