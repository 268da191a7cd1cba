"""Slices, projections, and lower box dimension estimates.

A slice through offset x in direction w is the affine (d-1)-flat
{y : <y, w> = x}.  Counting is always against cylinder disks, so the test
"cylinder meets the flat" is the exact one-dimensional check
|<center, w> - x| <= radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DepthMismatchError,
    InsufficientDataError,
    OutOfRangeError,
    ParameterError,
)
from .geometry import (
    DEFAULT_BUDGET,
    IFS,
    StoppingSet,
    _cell_disks,
    _cell_radii,
    _extend,
    _extend_blocks,
    _identity_maps,
    _row_blocks,
    _rows_of,
    moran_dimension,
    stopping_set,
    stopping_sets,
)
from .percolation import PercolationSample, _Blocks, _Growth, sample_tree, standard_law
from . import rng

__all__ = [
    "Direction",
    "CellCloud",
    "slice_counts",
    "count_slice",
    "DimEstimate",
    "fit_loglog",
    "interval_union_length",
    "projection_measure",
    "ConservationProfile",
    "conservation_profile",
    "conservation_profile_sample",
    "ProbeResult",
    "probe_sections",
    "box_count_estimate",
]


@dataclass(eq=False)
class Direction:
    """A unit vector spanning the line we project onto."""

    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        n = float(np.linalg.norm(self.vector))
        if not abs(n - 1.0) <= 1e-12:
            raise ParameterError("direction vector must be unit length")

    @classmethod
    def from_angle(cls, beta: float) -> "Direction":
        if not math.isfinite(beta):
            raise ParameterError(f"direction angle must be finite, got {beta}")
        return cls(vector=np.array([math.cos(beta), math.sin(beta)]))

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


def _check_direction(direction: Direction, dim: int) -> None:
    """Raise ParameterError unless the direction lives in dimension dim."""
    if direction.dim != dim:
        raise ParameterError("direction dimension mismatch")


@dataclass(eq=False)
class CellCloud:
    """Disks standing in for a family of cylinders."""

    centers: np.ndarray
    radii: np.ndarray

    @classmethod
    def from_stopping_set(cls, ss: StoppingSet) -> "CellCloud":
        return cls(centers=ss.centers, radii=ss.radii)

    @classmethod
    def from_sample(cls, sample: PercolationSample, ifs: IFS, rho: float) -> "CellCloud":
        """The disks of the coarsest generation with cell diameters <= rho
        whose words still have descendants at the sample's deepest one."""
        k = generation_for_scale(sample, ifs, rho)
        return cls(*sample.cell_cloud(ifs, k, persistent=True))

    def project(self, direction: Direction) -> np.ndarray:
        _check_direction(direction, self.centers.shape[1])
        return _project(self.centers, direction.vector)

    def projected_length(self, direction: Direction) -> float:
        """Length of the union of the disks' projections onto the direction."""
        proj = self.project(direction)
        hi = proj + self.radii
        return interval_union_length(np.subtract(proj, self.radii, out=proj), hi)


def generation_for_scale(sample: PercolationSample, ifs: IFS, rho: float) -> int:
    """Coarsest generation whose cell diameters are all <= rho."""
    if not rho > 0.0:
        raise OutOfRangeError(f"rho must be > 0, got {rho}")
    rmax = float(ifs.ratios.max())
    diam = ifs.diameter_proxy
    k = 0
    # slack absorbs ulp drift between this running product and scales built
    # as diameter_proxy * rmax**k, which need not round identically
    while diam > rho * (1.0 + 1e-12):
        diam *= rmax
        k += 1
    if k > sample.depth:
        raise DepthMismatchError(
            f"scale {rho:.3g} needs generation {k}, sample depth is {sample.depth}"
        )
    return k


def slice_counts(cloud: CellCloud, direction: Direction, xs) -> np.ndarray:
    """How many disks each flat {<y,w> = x} meets (boundary touching counts).

    A disk with projected center p and radius r meets the flat at x when
    fl(p - r) <= x <= fl(p + r).  The disks are counted a block of rows at
    a time (`_Tally`), and the blocks' counts add up to the whole cloud's.

    Nearest flat.  For G >= 2 offsets with step h = (x_{G-1} - x_0)/(G -
    1) and dev = max_j |x_j - (x_0 + j*h)|, let u = (p - x_0)/h and reach =
    (r_max + dev)/h + eta, eta = 2^-40 * (G + (|x_0| + |x_{G-1}| + r_max)/h),
    with r_max the largest radius of the disk's block.  When reach < 1/2
    (`_grid_reach`), a disk meeting x_j has |u - j| <= reach: it has |p -
    x_j| <= r plus rounding, and with eps = 2^-53 the rounding of the disk
    ends, of dev, of u and of reach adds at most eps * (8G + 2(|x_0| +
    r_max)/h) to |u - j| (r_max and dev are below h/2 and |u - j| < G),
    which eta exceeds by a factor of at least 2^10.  So j is the one
    integer within 1/2 of u, j = rint(u), and u - rint(u) is exact
    (Sterbenz): a disk meets at most the flat rint(u), and none unless
    |u - rint(u)| <= reach.  Such a block counts each disk the reach test
    keeps at j = rint(u) alone, when 0 <= j < G and the disk meets x_j;
    a j outside the grid counts nowhere.  A block without a reach (fewer
    than two offsets, a step that is not positive and finite, a negative
    or non-finite radius, or reach >= 1/2) is counted by sorting its ends:
    the number of lower ends at or below x less the number of upper ends
    below x.  When its radii are equal, x -> fl(x -+ r) is monotone, so
    one sort of the projection orders both ends.
    """
    centers, radii = cloud.centers, cloud.radii
    _check_direction(direction, centers.shape[1])
    tally = _Tally(direction, xs)
    for b in _row_blocks(len(centers)):
        tally.add(centers[b], radii[b])
    return tally.counts


def _radius_range(radii):
    """(min, max) of the radii, NaN for none; a broadcast's is its one value."""
    if len(radii) == 0:
        return math.nan, math.nan
    if radii.strides == (0,):
        return (float(radii[0]),) * 2
    return float(radii.min()), float(radii.max())


def _grid_step(xs):
    """The terms of `_grid_reach` that depend on the offsets alone, computed
    once per grid: (G, h, dev, |x_0| + |x_{G-1}|), or None when the offsets
    have no positive finite step (fewer than two, decreasing, or not
    finite)."""
    g = len(xs)
    if g < 2:
        return None
    x0, x1 = float(xs[0]), float(xs[-1])
    h = (x1 - x0) / (g - 1)
    if not (math.isfinite(h) and h > 0.0):
        return None
    with np.errstate(all="ignore"):
        dev = float(np.max(np.abs(xs - (x0 + np.arange(g) * h))))
    return g, h, dev, abs(x0) + abs(x1)


def _grid_reach(step, r_min, r_max):
    """(h, reach) of `slice_counts`' nearest-flat count for a grid's
    `_grid_step` and radii in [r_min, r_max], or None to count by sorting:
    when the grid has no step, when there are no radii or one is negative
    or not finite, or when reach >= 1/2, where a disk may meet two flats."""
    if step is None or not r_min >= 0.0:
        return None
    g, h, dev, ends = step
    eta = 2.0 ** -40 * (g + (ends + r_max) / h)
    reach = (r_max + dev) / h + eta
    if not reach < 0.5:
        return None
    return h, reach


def _project(centers, w):
    """centers @ w, row for row as a whole cloud's product.

    A product of two or more rows goes through BLAS, each row's bits the
    same in any block; numpy takes a one-row product through a dot, which
    rounds differently.  So one row is projected as two copies of itself:
    a disk's projection does not depend on which other disks share its
    block.  Rows beyond the float range give inf or nan, silently.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if len(centers) == 1:
            return (np.repeat(centers, 2, axis=0) @ w)[:1]
        return centers @ w


def _reach_step(centers, w, x0, h, reach):
    """The reach test of `slice_counts` on one block of disks.

    Returns (p, j, keep): the disks' projections onto w (`_project`), the
    nearest integer j = rint(u) to u = (p - x0)/h, as floats, and which
    disks are within reach of a flat, |u - j| <= reach.
    """
    p = _project(centers, w)
    # rows beyond the float range give inf - inf = nan here, and are dropped
    with np.errstate(over="ignore", invalid="ignore"):
        u = p - x0
        u /= h
        j = np.rint(u)
        u -= j
        keep = np.abs(u, out=u) <= reach
    return p, j, keep


class _Tally:
    """`slice_counts` of one direction and grid for disks fed a block at
    a time: `counts` holds the G counts of every disk fed, in any blocks.

    Each block's reach comes from its own radii.  A block with a reach
    adds each kept disk at its nearest flat alone; one without is counted
    by sorting its ends (`slice_counts`).
    """

    def __init__(self, direction: Direction, xs):
        self.w = direction.vector
        self.xs = np.atleast_1d(np.asarray(xs, dtype=np.float64))
        self.step = _grid_step(self.xs)
        self.counts = np.zeros(len(self.xs), dtype=np.intp)

    def add(self, centers, radii) -> None:
        xs, g = self.xs, len(self.xs)
        r_min, r_max = _radius_range(radii)
        near = _grid_reach(self.step, r_min, r_max)
        if near is None:
            p = _project(centers, self.w)
            if r_min == r_max:
                p.sort()
                lo, hi = p - radii[0], p + radii[0]
            else:
                lo, hi = p - radii, p + radii
                lo.sort()
                hi.sort()
            self.counts += np.searchsorted(lo, xs, side="right")
            self.counts -= np.searchsorted(hi, xs, side="left")
            return
        p, j, keep = _reach_step(centers, self.w, xs[0], *near)
        i = np.flatnonzero(keep & (j >= 0) & (j < g))
        p, r, j = p[i], radii[i], j[i].astype(np.intp)
        x = xs[j]
        hit = (p - r <= x) & (x <= p + r)
        self.counts += np.bincount(j[hit], minlength=g)


def _reach_mask(cloud, direction, x0, h, reach):
    """Which disks of the cloud are within reach of a flat, by the test
    `slice_counts` makes with the (h, reach) that `_grid_reach` gives."""
    n = len(cloud.centers)
    keep = np.empty(n, dtype=bool)
    for b in _row_blocks(n):
        keep[b] = _reach_step(cloud.centers[b], direction.vector, x0, h, reach)[2]
    return keep


def count_slice(
    ifs: IFS, direction: Direction, x: float, rho: float, budget: int = DEFAULT_BUDGET
) -> int:
    """N(x, rho): stopping-set cylinders whose disk meets the flat at x."""
    _check_direction(direction, ifs.ambient_dim)
    cloud = CellCloud.from_stopping_set(stopping_set(ifs, rho, budget=budget))
    return int(slice_counts(cloud, direction, [x])[0])


# ---------------------------------------------------------------------------
# log-log regression


@dataclass(eq=False)
class DimEstimate:
    slope: float
    intercept: float
    r2: float
    scales: np.ndarray
    log_counts: np.ndarray
    n_dropped: int


def fit_loglog(scales, counts) -> DimEstimate:
    """Least-squares slope of log(count) against log(1/scale).

    Zero counts are dropped; fewer than three distinct surviving scales
    raise InsufficientDataError.
    """
    scales = np.asarray(scales, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    if scales.shape != counts.shape:
        raise ParameterError("scales and counts must align")
    keep = counts > 0
    n_dropped = int(np.count_nonzero(~keep))
    scales, counts = scales[keep], counts[keep]
    x = np.log(1.0 / scales)
    n = int(_distinct_kept(x, np.ones((1, len(x)), dtype=bool))[0])
    if n < 3:
        raise InsufficientDataError(f"only {n} distinct non-empty scales; need at least 3")
    y = np.log(counts)
    slope, intercept, r2 = _line_fit(x, y[None])
    return DimEstimate(
        slope=float(slope[0]),
        intercept=float(intercept[0]),
        r2=float(r2[0]),
        scales=scales,
        log_counts=y,
        n_dropped=n_dropped,
    )


def _distinct_kept(x, keep):
    """How many distinct values of x (n,) each row of the mask keep (k, n)
    keeps: a kept point counts unless an earlier kept point has its x."""
    earlier = np.triu(x[:, None] == x, k=1)
    return np.count_nonzero(keep & ~(keep @ earlier), axis=1)


def _line_fit(x, ys, keep=None):
    """Least-squares lines ys[i] ~ slope * x + intercept over one x.

    ys is a stack of series (k, n) and keep an optional (k, n) mask of the
    points each line goes through; returns (slope, intercept, r2) as
    arrays of k.  The line is the centred closed form, slope =
    sum (x - mean x)(y - mean y) / sum (x - mean x)^2, so a row with no
    spread in x has a NaN slope.  Each sum adds a row's terms left to
    right, a dropped point's term zero, so a masked row's line is bitwise
    the fit of its kept points alone (numpy's pairwise sum would regroup
    the terms by position).
    """
    ys = np.asarray(ys, dtype=np.float64)
    keep = np.ones(ys.shape, dtype=bool) if keep is None else keep

    def kept_sum(a):
        return np.add.accumulate(np.where(keep, a, 0.0), axis=-1)[:, -1]

    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.count_nonzero(keep, axis=1)
        x_mean, y_mean = kept_sum(x) / n, kept_sum(ys) / n
        dx, dy = x - x_mean[:, None], ys - y_mean[:, None]
        slope = kept_sum(dx * dy) / kept_sum(dx * dx)
        intercept = y_mean - slope * x_mean
        ss_res = kept_sum((ys - (slope[:, None] * x + intercept[:, None])) ** 2)
        ss_tot = kept_sum(dy * dy)
        r2 = np.where(ss_tot <= 1e-30, 1.0 * (ss_res <= 1e-30), 1.0 - ss_res / ss_tot)
    return slope, intercept, r2


# ---------------------------------------------------------------------------
# projections


def interval_union_length(lo, hi) -> float:
    """Total length of a union of intervals [lo_i, hi_i] (sweep merge)."""
    mlo, mhi = _merged_intervals(lo, hi)
    return float(np.sum(mhi - mlo))


def _merged_intervals(lo, hi):
    """Disjoint components (starts, ends) of a union of intervals, sorted."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if len(lo) == 0:
        return np.zeros(0), np.zeros(0)
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    run_hi = np.maximum.accumulate(hi)
    # component starts where the next interval opens past everything seen
    new_comp = np.empty(len(lo), dtype=bool)
    new_comp[0] = True
    new_comp[1:] = lo[1:] > run_hi[:-1]
    starts = np.flatnonzero(new_comp)
    ends = np.append(starts[1:], len(lo)) - 1
    return lo[starts], run_hi[ends]


def projection_measure(
    source,
    direction: Direction,
    rho: float,
    ifs: IFS | None = None,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """Length of the projection of the scale-rho disk covering onto w.

    For an IFS the covering is the stopping set at rho; for a percolation
    sample it is the coarsest generation with cell diameters <= rho,
    restricted to cells that still have descendants at the deepest sampled
    generation.
    """
    if isinstance(source, IFS):
        cloud = CellCloud.from_stopping_set(stopping_set(source, rho, budget=budget))
    elif isinstance(source, PercolationSample):
        if ifs is None:
            raise ParameterError("sample projections need the ifs argument")
        cloud = CellCloud.from_sample(source, ifs, rho)
    else:
        raise ParameterError("source must be an IFS or a PercolationSample")
    return cloud.projected_length(direction)


# ---------------------------------------------------------------------------
# conservation profiles


@dataclass(eq=False)
class ConservationProfile:
    """Slice-dimension slopes across a grid of offsets in one direction.

    `qualifying_fraction` is taken over offsets with a valid fit (at least
    three distinct non-empty scales); offsets whose flats miss the covering
    entirely never enter the denominator.
    """

    direction: Direction
    epsilon: float
    threshold: float
    x_grid: np.ndarray
    slopes: np.ndarray
    r2: np.ndarray
    valid: np.ndarray
    qualifying: np.ndarray
    counts: np.ndarray = field(repr=False, default=None)

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())

    @property
    def qualifying_fraction(self) -> float:
        n = self.n_valid
        return float(self.qualifying.sum() / n) if n else 0.0

    @property
    def valid_fraction(self) -> float:
        return float(self.valid.mean()) if len(self.valid) else 0.0

    @property
    def qualifying_length(self) -> float:
        if len(self.x_grid) < 2:
            return 0.0
        cell = float(self.x_grid[1] - self.x_grid[0])
        return cell * float(self.qualifying.sum())


def _default_grid(ifs: IFS, direction: Direction, scales, grid: int) -> np.ndarray:
    if grid < 1:
        raise ParameterError(f"grid must be >= 1, got {grid}")
    mid = float(ifs.ball_center @ direction.vector)
    r0 = ifs.ball_radius
    trim = 2.0 * float(np.max(scales))
    lo, hi = mid - r0 + trim, mid + r0 - trim
    if hi <= lo:
        raise OutOfRangeError("scales too coarse for the enclosing ball")
    return np.linspace(lo, hi, grid)


def _profile_from_counts(
    counts, direction, epsilon, threshold_dim, x_grid, scales
) -> ConservationProfile:
    """The profile of (scales, offsets) slice counts in one direction."""
    x = np.log(1.0 / np.asarray(scales, dtype=np.float64))
    keep = counts.T > 0
    # every offset with three distinct non-empty scales is fitted in one
    # masked call, its line bitwise fit_loglog's on that offset's column
    valid = _distinct_kept(x, keep) >= 3
    y = np.log(np.where(keep, counts.T, 1.0))
    slopes = np.full(len(x_grid), np.nan)
    r2 = np.full(len(x_grid), np.nan)
    slopes[valid], _, r2[valid] = _line_fit(x, y[valid], keep[valid])
    threshold = threshold_dim - 1.0 - epsilon
    qualifying = valid & (slopes > threshold)
    return ConservationProfile(
        direction=direction,
        epsilon=epsilon,
        threshold=threshold,
        x_grid=x_grid,
        slopes=slopes,
        r2=r2,
        valid=valid,
        qualifying=qualifying,
        counts=counts,
    )


def conservation_profile(
    ifs: IFS,
    direction: Direction,
    epsilon: float,
    scales,
    grid: int = 512,
    x_grid=None,
    budget: int = DEFAULT_BUDGET,
) -> ConservationProfile:
    """Profile of slice slopes for the deterministic attractor.

    Qualifying offsets have slope above moran_dimension - 1 - epsilon.
    """
    _check_direction(direction, ifs.ambient_dim)
    if not 0.0 < epsilon < math.inf:
        raise ParameterError("epsilon must be positive and finite")
    if x_grid is None:
        x_grid = _default_grid(ifs, direction, scales, grid)
    x_grid = np.asarray(x_grid)
    counts = [
        slice_counts(CellCloud.from_stopping_set(ss), direction, x_grid)
        for ss in stopping_sets(ifs, scales, budget=budget)
    ]
    return _profile_from_counts(
        np.stack(counts), direction, epsilon, moran_dimension(ifs), x_grid, scales
    )


def conservation_profile_sample(
    sample: PercolationSample,
    ifs: IFS,
    dim_formula: float,
    directions,
    epsilon: float,
    scales,
    grid: int = 512,
    x_grid=None,
) -> list:
    """Same profile against the surviving cells of a percolation sample,
    one per direction, all counted from one ladder of generations.

    dim_formula is the almost-sure dimension of the surviving set (from
    percolation_dimension); qualifying means slope > dim_formula - 1 - eps.
    A given x_grid serves every direction; otherwise each direction gets
    its default grid.  The counts are `slice_counts` of each scale's
    generation (`_ladder_counts`), but the finest generation is never
    held whole.
    """
    for w in directions:
        _check_direction(w, ifs.ambient_dim)
    if not 0.0 < epsilon < math.inf:
        raise ParameterError("epsilon must be positive and finite")
    if x_grid is None:
        grids = [_default_grid(ifs, w, scales, grid) for w in directions]
    else:
        grids = [np.asarray(x_grid)] * len(directions)
    ks = [generation_for_scale(sample, ifs, rho) for rho in scales]
    counts = _ladder_counts(sample, ifs, set(ks), directions, grids)
    return [
        _profile_from_counts(
            np.stack([counts[k][i] for k in ks]), w, epsilon, dim_formula, xs, scales
        )
        for i, (w, xs) in enumerate(zip(directions, grids))
    ]


def _ladder_counts(sample, ifs, ks, directions, grids) -> dict:
    """Slice counts of the sample's generations ks against each direction
    and its grid: {k: [counts per direction]}, from one top-down fold.

    The coarser generations are folded by the sample (`_folds`), and each
    one asked for is made into disks, counted and dropped.  The finest,
    which holds most of the disks, is folded from its parent's maps a
    block of parent rows at a time (`_extend_blocks`); each block's disks
    are made in place and fed to one `_Tally` per direction, which adds
    each disk its reach test keeps at its one nearest flat (the lemma in
    `slice_counts`) and holds nothing but its G counts.  Its centers never
    exist whole, and its counts are `slice_counts` of its whole cloud:
    each disk is bitwise the whole fold's, projects to the same bits in
    any block, and meets no flat but its nearest.
    """
    top = max(ks)
    counts = {}
    maps = _identity_maps(ifs)  # the root's, when the finest is the root
    for k, maps in sample._folds(ifs, top - 1):
        if k in ks:
            counts[k] = _cloud_counts(ifs, maps, directions, grids)
    keep = sample.generations[top]
    blocks = _extend_blocks(*maps, ifs, keep) if top else [maps]
    tallies = [_Tally(w, xs) for w, xs in zip(directions, grids)]
    for block in blocks:
        centers, radii = _cell_disks(ifs, *block, in_place=True)
        for tally in tallies:
            tally.add(centers, radii)
    counts[top] = [tally.counts for tally in tallies]
    return counts


def _cloud_counts(ifs, maps, directions, grids) -> list:
    """`slice_counts` of the disks of composed maps per direction."""
    cloud = CellCloud(*_cell_disks(ifs, *maps))
    return [slice_counts(cloud, w, xs) for w, xs in zip(directions, grids)]


# ---------------------------------------------------------------------------
# probing random sections


@dataclass(eq=False)
class ProbeResult:
    x_grid: np.ndarray
    hits: np.ndarray          # (trials, nx) bool
    survived: np.ndarray      # (trials,) bool: tree non-extinct at depth
    alpha: float
    depth: int

    @property
    def frequency(self) -> np.ndarray:
        return self.hits.mean(axis=0)


def probe_sections(
    ifs: IFS,
    alpha: float,
    direction: Direction,
    depth: int,
    trials: int,
    seed: int,
    grid: int = 512,
    x_grid=None,
    budget: int = DEFAULT_BUDGET,
) -> ProbeResult:
    """Monte Carlo line probing of standard(alpha) percolation.

    For each trial, a fresh sample is drawn and each grid offset records
    whether some surviving depth-`depth` cylinder disk meets its flat.

    A trial's tree is grown only where a flat can see it (`_pruned_hits`),
    and the hits are bit for bit those of the whole tree.  Any hit is a
    surviving depth-`depth` word; a trial with no hit decides survival by
    growing its whole tree, under the same `budget`.  Pruned growth draws
    fewer node slots, so a probe can fit a budget that its whole trees
    would exceed.
    """
    _check_direction(direction, ifs.ambient_dim)
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    rho = ifs.diameter_proxy * float(ifs.ratios.max()) ** depth
    if x_grid is None:
        x_grid = _default_grid(ifs, direction, [rho], grid)
    x_grid = np.asarray(x_grid, dtype=np.float64)
    law = standard_law(ifs, alpha)
    blocks = _Blocks(law)
    step = _grid_step(x_grid)
    hits = np.zeros((trials, len(x_grid)), dtype=bool)
    survived = np.zeros(trials, dtype=bool)
    for t in range(trials):
        sub = int(rng.derive_seed(np.uint64(seed), np.uint64(t)))
        root = rng.root_hash(np.uint64(sub)).reshape(1)
        growth = _Growth(law, root, depth, budget, blocks)
        hits[t] = _pruned_hits(ifs, growth, direction, x_grid, step)
        survived[t] = hits[t].any() or not sample_tree(law, depth, sub, budget).extinct
    return ProbeResult(
        x_grid=x_grid, hits=hits, survived=survived, alpha=alpha, depth=depth
    )


def _pruned_hits(ifs, growth, direction, xs, step) -> np.ndarray:
    """Which flats of the offsets xs (whose `_grid_step` is step) the
    deepest disks of a tree meet, growing only the subtrees whose disks
    can reach one.

    Each generation is folded from its keep mask as soon as it is drawn,
    and before its children are drawn the rows whose disks `_reach_mask`
    drops leave the frontier.  The reach is decided from the radii, which
    the maps' ratios give, before any disk is made: a generation that
    `_grid_reach` would keep whole (reach >= 1/2) makes no centers.

    This is exact.  By the proof in `slice_counts`, a dropped disk's
    projected center is farther than its radius plus eta*h from every
    flat.  `enclosing_ball` makes f_i(B) lie inside B with a 1e-9 relative
    margin, so every descendant disk lies inside its ancestor's disk;
    float error in the folded centers is some ulps, far below both that
    margin and eta*h.  So no disk of a dropped subtree meets a flat.
    A node's keep draw depends only on its path hash, so the subtrees kept
    grow as in the whole tree, their deepest disks are bitwise the whole
    tree's, and each disk projects to the same bits in any cloud
    (`_project`): every slice count is the whole generation's.
    """
    maps = _identity_maps(ifs)
    while growth.left:
        near = _grid_reach(step, *_radius_range(_cell_radii(ifs, maps[0], len(maps[2]))))
        if near is not None:
            cloud = CellCloud(*_cell_disks(ifs, *maps))
            keep = _reach_mask(cloud, direction, xs[0], *near)
            growth.narrow(keep)
            maps = _rows_of(maps, keep)
        if not len(growth.hashes):
            return np.zeros(len(xs), dtype=bool)
        maps = _extend(*maps, ifs, growth.step())
    cloud = CellCloud(*_cell_disks(ifs, *maps, in_place=True))
    return slice_counts(cloud, direction, xs) > 0


# ---------------------------------------------------------------------------
# box counting for percolation samples


def box_count_estimate(sample: PercolationSample, ifs: IFS, min_depth: int = 1) -> DimEstimate:
    """Box-count slope of the deepest surviving generation.

    The count at generation k is the number of depth-k words that still have
    surviving descendants at the deepest generation (ancestor counts), i.e.
    the k-th level covering of the depth-n approximant.
    """
    if min_depth < 0:
        raise ParameterError(f"min_depth must be >= 0, got {min_depth}")
    counts = sample.persistent_counts()
    rmax = float(ifs.ratios.max())
    depths = np.arange(min_depth, sample.depth + 1)
    scales = ifs.diameter_proxy * rmax ** depths.astype(np.float64)
    return fit_loglog(scales, counts[depths])
