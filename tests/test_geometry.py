import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dimlab as dl
from dimlab import IDENTITY, IFS, Similarity
from dimlab.errors import (
    BudgetExceededError,
    ConfigError,
    InvalidWordError,
    OutOfRangeError,
    ParameterError,
)

import oracles


def interval_thirds():
    """x/3, x/3 + 1/3, x/3 + 2/3 on the line: attractor is [0, 1]."""
    maps = tuple(
        Similarity(ratio=1.0 / 3.0, angle=0.0, translation=np.array([t]))
        for t in (0.0, 1.0 / 3.0, 2.0 / 3.0)
    )
    return IFS.from_maps(maps, separation="OSC-assumed", label="thirds")


# ---------------------------------------------------------------------------
# similarities


def test_apply_rotation_by_quarter_turn():
    f = Similarity(ratio=0.5, angle=math.pi / 2.0, translation=np.array([1.0, 0.0]))
    out = f.apply(np.array([1.0, 0.0]))
    assert np.allclose(out, [1.0, 0.5], atol=1e-15)


def test_fixed_point_is_fixed():
    f = Similarity(ratio=0.6, angle=0.9, translation=np.array([0.3, -0.2]))
    x = f.fixed_point()
    assert np.allclose(f.apply(x), x, atol=1e-14)


def test_compose_acts_pointwise():
    f = Similarity(ratio=0.5, angle=0.4, translation=np.array([0.2, 0.1]))
    g = Similarity(ratio=0.7, angle=-1.2, translation=np.array([-0.3, 0.5]))
    pts = np.array([[0.0, 0.0], [1.0, 2.0], [-0.5, 0.25]])
    assert np.allclose(f.compose(g).apply(pts), f.apply(g.apply(pts)), atol=1e-13)


@given(
    r1=st.floats(0.05, 0.9),
    r2=st.floats(0.05, 0.9),
    a1=st.floats(-3.0, 3.0),
    a2=st.floats(-3.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_compose_ratio_and_angle_laws(r1, r2, a1, a2):
    f = Similarity(ratio=r1, angle=a1, translation=np.array([0.1, 0.2]))
    g = Similarity(ratio=r2, angle=a2, translation=np.array([-0.4, 0.3]))
    h = f.compose(g)
    assert h.ratio == pytest.approx(r1 * r2, rel=1e-14)
    assert h.angle == pytest.approx(a1 + a2, abs=1e-14)


def test_identity_sentinel_composes_neutrally():
    f = Similarity(ratio=0.5, angle=0.0, translation=np.array([0.1]))
    assert IDENTITY.compose(f) is f
    assert f.compose(IDENTITY) is f
    assert IDENTITY.is_identity and not f.is_identity
    pts = np.array([[1.0], [2.0]])
    assert np.array_equal(IDENTITY.apply(pts), pts)


def test_similarity_rejects_non_contractions():
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ParameterError):
            Similarity(ratio=bad, angle=0.0, translation=np.array([0.0]))
    with pytest.raises(ParameterError):
        # rotation off the plane
        Similarity(ratio=0.5, angle=0.3, translation=np.array([0.0]))


# ---------------------------------------------------------------------------
# enclosing ball and cylinders


def test_enclosing_ball_maps_into_itself():
    for name in dl.catalog_names():
        ifs = dl.load_ifs(name)
        c, r0 = ifs.ball_center, ifs.ball_radius
        for f in ifs.maps:
            reach = float(np.linalg.norm(f.apply(c) - c)) + f.ratio * r0
            assert reach <= r0 * (1.0 + 1e-12) + 1e-15, name


def test_cylinder_matches_scalar_composition(triangle, rot3):
    for ifs in (triangle, rot3):
        for word in [(1,), (3, 2), (2, 1, 3), (1, 1, 1)]:
            cyl = dl.cylinder(ifs, word)
            g = oracles.compose_word(ifs, word)
            assert np.allclose(cyl.center, g.apply(ifs.ball_center), atol=1e-13)
            assert cyl.radius == pytest.approx(ifs.ball_radius * g.ratio, rel=1e-13)
            assert cyl.diameter == 2.0 * cyl.radius


def test_compose_empty_word_returns_sentinel(triangle):
    assert dl.compose(triangle, ()) is IDENTITY


def test_word_validation(triangle):
    with pytest.raises(InvalidWordError):
        dl.cylinder(triangle, (0,))
    with pytest.raises(InvalidWordError):
        dl.cylinder(triangle, (4,))
    # numpy symbol types coerce cleanly
    a = dl.cylinder(triangle, (np.uint16(2), np.int64(1)))
    b = dl.cylinder(triangle, (2, 1))
    assert np.array_equal(a.center, b.center)
    # a batch of words is checked as a whole: symbol 0 once folded as
    # symbol m, m + 1 raised IndexError and 1.7 acted as symbol 1
    for bad in ([[0, 1]], [[4, 1]], [[1.7, 1.0]], [1, 2]):
        with pytest.raises(InvalidWordError):
            dl.word_geometry(triangle, np.array(bad))


def test_word_geometry_agrees_with_cylinder(rot3):
    words = np.array([[1, 2, 3], [3, 3, 1], [2, 2, 2]], dtype=np.uint16)
    centers, radii = dl.word_geometry(rot3, words)
    for i, w in enumerate(words):
        cyl = dl.cylinder(rot3, tuple(int(s) for s in w))
        assert np.allclose(centers[i], cyl.center, atol=1e-13)
        assert radii[i] == pytest.approx(cyl.radius, rel=1e-13)


def test_from_maps_rejects_single_map_by_default():
    lone = Similarity(ratio=0.5, angle=0.0, translation=np.array([0.0, 0.0]))
    with pytest.raises(ParameterError):
        IFS.from_maps((lone,))


# ---------------------------------------------------------------------------
# moran dimension


def test_moran_analytic_cases():
    assert dl.moran_dimension([0.5, 0.25, 0.25]) == pytest.approx(1.0, abs=1e-10)
    assert dl.moran_dimension([0.5, 0.5, 0.5]) == pytest.approx(
        math.log(3.0) / math.log(2.0), abs=1e-9
    )
    assert dl.moran_dimension([0.25]) == 0.0


def test_moran_accepts_ifs(carpet):
    assert dl.moran_dimension(carpet) == pytest.approx(
        math.log(8.0) / math.log(3.0), abs=1e-12
    )


def test_moran_rejects_expanding_ratios():
    with pytest.raises(ParameterError):
        dl.moran_dimension([0.5, 1.0])


@given(
    ratios=st.lists(st.floats(0.05, 0.9), min_size=2, max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_moran_solves_its_equation(ratios):
    s = dl.moran_dimension(ratios)
    assert sum(r ** s for r in ratios) == pytest.approx(1.0, abs=1e-9)


def _spread_ratios(m):
    return [0.05 + 0.85 * ((i * 0.6180339887498949 + m * 0.1) % 1.0) for i in range(m)]


# m: (moran_dimension, percolation_dimension at uniform p = 0.7) of the
# ratios above, as returned by scipy.optimize.brentq with the same bracket,
# xtol, rtol and maxiter
BRENT_ROOTS = {
    2: ("0x1.e0dafeab1f6a1p-1", "0x1.9f7b0e07aaadap-2"),
    3: ("0x1.0c33ba4efc0bfp+1", "0x1.464023bf153b8p+0"),
    5: ("0x1.b891771d5cfb5p+1", "0x1.260f11ab5476fp+1"),
    8: ("0x1.e568167ebe883p+1", "0x1.6bb9ab6926f2bp+1"),
    13: ("0x1.581fb132cf7f2p+2", "0x1.0f6b0521d0564p+2"),
    21: ("0x1.211260130cb9ap+3", "0x1.d078a66b42a95p+2"),
    30: ("0x1.41fab1b8b2d29p+3", "0x1.0a96748274b15p+3"),
}


@pytest.mark.parametrize("m", sorted(BRENT_ROOTS))
def test_dimension_roots_are_the_recorded_brent_roots(m):
    ratios = _spread_ratios(m)
    maps = [
        Similarity(ratio=r, angle=0.0, translation=np.array([i / m, 0.0]))
        for i, r in enumerate(ratios)
    ]
    perc = dl.percolation_dimension(dl.uniform_law(m, 0.7), IFS.from_maps(maps))
    moran = dl.moran_dimension(ratios)
    assert (moran.hex(), perc.hex()) == BRENT_ROOTS[m]


@pytest.mark.parametrize("m, r", [(2, 0.5), (3, 1.0 / 3.0), (8, 1.0 / 3.0), (30, 0.07)])
def test_moran_root_of_equal_ratios_is_the_closed_form(m, r):
    want = math.log(m) / math.log(1.0 / r)
    assert dl.moran_dimension([r] * m) == pytest.approx(want, rel=0, abs=2e-14)


@given(ratios=st.lists(st.floats(0.05, 0.9), min_size=2, max_size=30))
@settings(max_examples=60, deadline=None)
def test_moran_equation_changes_sign_across_the_root(ratios):
    s = dl.moran_dimension(ratios)
    # Brent stops once the sign-changing bracket is within xtol + rtol |s|
    h = 2.0 * (1e-14 + 8.9e-16 * s)

    def f(t):
        return math.fsum(r ** t for r in ratios) - 1.0

    assert f(s - h) > 0.0 > f(s + h)


# ---------------------------------------------------------------------------
# stopping sets


def test_stopping_set_three_words_on_interval():
    ifs = interval_thirds()
    ss = dl.stopping_set(ifs, 0.2)
    assert ss.words() == [(1,), (2,), (3,)]
    assert np.all(ss.lengths == 1)


def test_stopping_set_can_stop_at_the_empty_word():
    ifs = interval_thirds()
    ss = dl.stopping_set(ifs, 0.5)
    assert len(ss) == 1 and ss.lengths[0] == 0
    assert ss.words() == [()]
    assert ss.radii[0] == ifs.ball_radius


def test_stopping_set_diameter_window_and_completeness(mixed):
    """Mixed contraction ratios: every diameter lands in [rho, c1 rho) and
    the natural measure of the family sums to 1 (complete + prefix-free)."""
    ifs = mixed
    s = dl.moran_dimension(ifs)
    for rho in (0.15, 0.04, 0.011):
        ss = dl.stopping_set(ifs, rho)
        assert ss.c1 == pytest.approx(1.0 / 0.2)
        d = ss.diameters
        assert np.all(d >= rho) and np.all(d < ss.c1 * rho)
        if rho < 0.05:
            assert len(set(ss.lengths)) > 1  # genuinely mixed depths
        words = ss.words()
        assert len(set(words)) == len(words)
        for i, w in enumerate(words):
            for v in words[i + 1 :]:
                k = min(len(w), len(v))
                assert w[:k] != v[:k], f"{w} is comparable with {v}"
        ratios = ss.diameters / ifs.diameter_proxy
        assert math.fsum(r ** s for r in ratios) == pytest.approx(1.0, abs=1e-9)
        assert words == sorted(words)


def test_stopping_set_rho_range_checks():
    ifs = interval_thirds()
    with pytest.raises(OutOfRangeError):
        dl.stopping_set(ifs, 0.0)
    with pytest.raises(OutOfRangeError):
        dl.stopping_set(ifs, ifs.diameter_proxy * 1.01)


def test_stopping_set_budget_guard(carpet):
    with pytest.raises(BudgetExceededError):
        dl.stopping_set(carpet, 1e-4, budget=1000)


# unsorted, and 0.6 stops at the root: c1 = 5 puts its cut at 3 c0
LADDER = (0.05, 0.6, 0.001, 0.2, 0.012)


@pytest.mark.parametrize("name", ["mixed", "rot3", "carpet"])
def test_stopping_ladder_is_the_single_scale_sets(name, request):
    ifs = request.getfixturevalue(name)
    scales = [ifs.diameter_proxy * f for f in LADDER]
    if name == "carpet":
        scales = scales[:2] + scales[3:]  # 8^7 cells at the finest
    # the finest scale again, and a coarser scale cut at the same words
    # (equal ratios): scales whose cells share one level's maps, which
    # only the last scale assembled may turn into centers in place
    fine = min(scales)
    scales += [fine, 1.02 * fine]
    ladder = dl.geometry.stopping_sets(ifs, scales)
    assert len(ladder) == len(scales)
    if ifs.equal_ratio:
        assert ladder[-1].words() == ladder[-2].words()
    for rho, ss in zip(scales, ladder):
        alone = dl.stopping_set(ifs, rho)
        assert ss.rho == rho and ss.c1 == alone.c1
        for attr in ("lengths", "centers", "radii"):
            assert np.array_equal(getattr(ss, attr), getattr(alone, attr)), attr
        words, _ = oracles.stopping_words(ifs, rho)
        assert ss.words() == words == alone.words()
        # each row's disk is its word's, folded on its own
        for length in np.unique(ss.lengths):
            rows = np.flatnonzero(ss.lengths == length)
            symbols = np.array([words[r] for r in rows], dtype=np.int64)
            centers, radii = dl.word_geometry(ifs, symbols.reshape(len(rows), length))
            assert np.array_equal(ss.centers[rows], centers)
            assert np.array_equal(ss.radii[rows], radii)
    assert ladder[1].words() == [()]
    if name == "mixed":
        assert len(set(ladder[2].lengths)) > 2  # genuinely mixed depths


@pytest.mark.parametrize("name", ["mixed", "carpet"])
def test_stopping_ladder_raises_exactly_when_one_scale_would(name, request):
    ifs = request.getfixturevalue(name)
    scales = [ifs.diameter_proxy * f for f in (0.05, 0.6, 0.2, 0.02)]
    checks = [oracles.stopping_words(ifs, rho)[1] for rho in scales]
    need = [max(c) for c in checks]
    assert len(set(need)) == len(need)
    for budget in sorted({b + d for b in need for d in (-1, 0, 1)}):
        # the first count over budget is what a scale raises with on its own
        first = [next((c for c in cs if c > budget), None) for cs in checks]
        for rho, want in zip(scales, first):
            if want is None:
                dl.stopping_set(ifs, rho, budget=budget)
                continue
            with pytest.raises(BudgetExceededError) as err:
                dl.stopping_set(ifs, rho, budget=budget)
            assert err.value.required == want
        failing = [c for c in first if c is not None]
        if failing:
            with pytest.raises(BudgetExceededError) as err:
                dl.geometry.stopping_sets(ifs, scales, budget=budget)
            # the finest scale (last here) fails first and with the largest count
            assert err.value.required == first[-1] == max(failing)
        else:
            assert len(dl.geometry.stopping_sets(ifs, scales, budget=budget)) == 4


def test_stopping_ladder_of_a_shared_ratio_stays_lean(carpet):
    scales = [3.0 ** -k for k in range(2, 7)]
    tracemalloc.start()
    try:
        ladder = dl.geometry.stopping_sets(carpet, scales)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ladder[-1]) == 8 ** 6 and ladder[-1].radii.strides == (0,)
    # per-row ratios, angles, radii and stored ratios, with intp rows and
    # symbols per child, peaked at 21.1 MB here
    assert peak < 12 * 2 ** 20


def test_a_stopping_set_holds_its_centers_and_keep_masks(carpet):
    """A stopping set keeps its centers, one byte per slot of its cells'
    level and the frontier masks above it: no per-cell length, index or
    link array, which held 28 bytes per cell with the centers."""
    k = 5
    tracemalloc.start()
    try:
        ss = dl.stopping_set(carpet, 3.0 ** -k)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(ss) == 8 ** k and ss.radii.strides == (0,)
    slots = len(ss)  # equal ratios: every child of the level above is a cell
    frontier = sum(carpet.m ** j for j in range(k))  # levels 0 .. k - 1, all kept
    # 2^13: array headers and the set's own objects (about 5 KB here)
    assert held <= ss.centers.nbytes + slots + frontier + 2 ** 13, held
    stored = [v for v in vars(ss).values() if isinstance(v, np.ndarray)]
    stored += [a for v in vars(ss).values() if isinstance(v, list) for a in v]
    stored += [a for v in vars(ss).values() if isinstance(v, dict) for a in v.values()]
    assert not any(a.dtype.kind in "iu" for a in stored)


# ---------------------------------------------------------------------------
# derived systems


@pytest.mark.parametrize("name", ["carpet", "rot3", "turns", "mixed"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-row"])
def test_extend_in_blocks_is_the_one_shot_gather(name, shared, request, monkeypatch):
    # carpet: one ratio, no angle; rot3: one ratio and one non-zero angle;
    # turns: one ratio, angles per row; mixed: ratios and angles per row
    ifs = request.getfixturevalue(name)
    monkeypatch.setattr(dl.geometry, "_BLOCK_ROWS", 7)
    ratios, angles, trans = dl.geometry._all_compositions(ifs, 2)
    assert (np.ndim(ratios) == 0) == ifs.equal_ratio
    assert (np.ndim(angles) == 0) == ifs.equal_angle
    if not shared:
        n = len(trans)
        ratios, angles = (np.broadcast_to(v, (n,)).copy() for v in (ratios, angles))
    gen = np.random.Generator(np.random.PCG64(11))
    rows = gen.integers(0, len(trans), 50).astype(np.int32)
    syms = gen.integers(0, ifs.m, 50).astype(np.uint8)
    got = dl.geometry._extend_rows(ratios, angles, trans, ifs, rows, syms)
    want = oracles.extend_one_shot(ratios, angles, trans, ifs, rows, syms)
    for g, w in zip(got, want):
        assert np.ndim(g) == np.ndim(w)
        assert np.array_equal(g, w)
    # the mask form derives its links a block of parents at a time; no
    # mask keeps every child
    mask = gen.random((len(trans), ifs.m)) < 0.6
    for keep, links in ((mask, np.nonzero(mask)), (None, np.nonzero(mask | True))):
        got = dl.geometry._extend(ratios, angles, trans, ifs, keep)
        want = oracles.extend_one_shot(ratios, angles, trans, ifs, *links)
        for g, w in zip(got, want):
            assert np.ndim(g) == np.ndim(w)
            assert np.array_equal(g, w)
    # evaluating the maps at the ball center in blocks, in place or into a
    # copy, is one-shot too
    point = ifs.ball_center
    centers, radii = dl.geometry._cell_disks(ifs, *got)
    if np.any(got[1] != 0.0):
        ca, sa = np.cos(got[1]), np.sin(got[1])
        rx = got[0] * (ca * point[0] - sa * point[1])
        ry = got[0] * (sa * point[0] + ca * point[1])
        ref = np.stack([rx + got[2][:, 0], ry + got[2][:, 1]], axis=1)
    else:
        ref = np.asarray(got[0])[..., None] * point + got[2]
    assert np.array_equal(centers, ref)
    assert np.array_equal(radii, np.broadcast_to(ifs.ball_radius * got[0], len(ref)))
    in_place, _ = dl.geometry._cell_disks(ifs, *got, in_place=True)
    assert in_place is got[2] and np.array_equal(in_place, ref)


def test_iterate_system_orders_words_lexicographically(rot3):
    it2 = dl.iterate_system(rot3, 2)
    assert it2.m == 9
    k = 0
    for i in range(1, 4):
        for j in range(1, 4):
            g = oracles.compose_word(rot3, (i, j))
            assert it2.maps[k].ratio == pytest.approx(g.ratio, rel=1e-14)
            assert it2.maps[k].angle == pytest.approx(g.angle, abs=1e-13)
            assert np.allclose(it2.maps[k].translation, g.translation, atol=1e-14)
            k += 1
    assert it2.ball_radius == rot3.ball_radius


def test_verify_ssc(gasket_1d, square):
    assert dl.verify_ssc(gasket_1d) is True
    # adjacent grid cells touch, so their enclosing disks overlap
    assert dl.verify_ssc(square) is False


def test_a_config_tagged_ssc_verified_must_pass_verify_ssc():
    # depth-1 disks of ratio 0.6 at 0 and 0.4 overlap; this loaded silently
    maps = [{"ratio": 0.6, "translation": [t, 0.0]} for t in (0.0, 0.4)]
    with pytest.raises(ConfigError, match="SSC-verified"):
        dl.ifs_from_config({"separation": "SSC-verified", "maps": maps})
    assert dl.ifs_from_config({"separation": "OSC-assumed", "maps": maps}).m == 2
    tagged = [n for n in dl.catalog_names() if dl.load_ifs(n).separation == "SSC-verified"]
    assert tagged == ["sierpinski_1d"]


def test_verify_ssc_budget_bounds_the_pairs_it_reports():
    ifs = dl.load_ifs("degenerate_pair")  # two identical maps: one pair, overlapping
    assert dl.verify_ssc(ifs, 1, budget=1) is False
    with pytest.raises(BudgetExceededError, match="1 disk pairs, budget is 0") as err:
        dl.verify_ssc(ifs, 1, budget=0)
    assert err.value.required == 1
    # depth 2: four cells, six pairs
    assert dl.verify_ssc(ifs, 2, budget=6) is False
    with pytest.raises(BudgetExceededError) as err:
        dl.verify_ssc(ifs, 2, budget=5)
    assert err.value.required == 6


def _grid_system(side, ratio, jitter, rng_np):
    """side^2 maps of one ratio, translated to a jittered grid of step 1/side."""
    ij = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
    ts = (ij + jitter * rng_np.uniform(-1.0, 1.0, ij.shape)) / side
    return IFS.from_maps([Similarity(ratio=ratio, angle=0.0, translation=t) for t in ts])


def _all_pairs_ssc(ifs):
    """verify_ssc's test at depth 1 with every pair held at once."""
    centers, radii = dl.geometry._cell_disks(ifs, *dl.geometry._all_compositions(ifs, 1))
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt(np.sum(diff ** 2, axis=2))
    np.fill_diagonal(dist, np.inf)
    return bool(np.all(dist > radii[:, None] + radii[None, :]))


@pytest.mark.parametrize("side", [3, 10])
@pytest.mark.parametrize(
    "case, ratio, jitter, want",
    [
        ("disjoint", 0.2, 0.1, True),
        # cells tile the unit square: neighbours touch, so their disks overlap
        ("touching", 1.0, 0.0, False),
        ("overlapping", 0.9, 0.45, False),
    ],
)
def test_verify_ssc_in_row_blocks_is_the_all_pairs_test(
    side, case, ratio, jitter, want, rng_np, monkeypatch
):
    ifs = _grid_system(side, ratio / side, jitter, rng_np)
    assert _all_pairs_ssc(ifs) is want
    assert dl.verify_ssc(ifs) is want
    # blocks of one row, and blocks of two rows with a ragged last one
    for block in (1, 2 * side * side):
        monkeypatch.setattr(dl.geometry, "_BLOCK_ROWS", block)
        assert dl.verify_ssc(ifs) is want


def test_verify_ssc_memory_is_bounded(rng_np):
    ifs = _grid_system(32, 0.2 / 32, 0.1, rng_np)
    assert ifs.m == 1024
    tracemalloc.start()
    try:
        assert dl.verify_ssc(ifs) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every pair at once held about 40 bytes each, 42 MB here
    assert peak < 8 * 2 ** 20


def test_diameter_proxy_is_twice_ball_radius(carpet):
    assert carpet.diameter_proxy == 2.0 * carpet.ball_radius
