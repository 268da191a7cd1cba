import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import dimlab as dl
from dimlab import percolation, rng
from dimlab.errors import BudgetExceededError, ParameterError, SubcriticalLawError

import oracles


def quartic_extinction(m: int, p: float) -> float:
    """Smallest root of E z^X = z in [0, 1) for X ~ Binomial(m, p)."""
    coeffs = [math.comb(m, j) * (1 - p) ** (m - j) * p ** j for j in range(m + 1)]
    poly = np.zeros(m + 1)
    for j, c in enumerate(coeffs):
        poly[m - j] = c
    poly[m - 1] -= 1.0  # subtract z
    roots = np.roots(poly)
    real = sorted(
        float(z.real) for z in roots if abs(z.imag) < 1e-12 and -1e-12 <= z.real < 1.0
    )
    return real[0]


# ---------------------------------------------------------------------------
# offspring laws


def test_standard_law_retention(carpet):
    law = dl.standard_law(carpet, 0.4)
    assert np.array_equal(law.retain, carpet.ratios ** 0.4)
    assert law.independent


def test_uniform_law_requires_probability():
    law = dl.uniform_law(4, 0.3)
    assert np.all(law.retain == 0.3)
    with pytest.raises(ParameterError):
        dl.uniform_law(4, 1.2)
    with pytest.raises(ParameterError):
        dl.uniform_law(0, 0.5)


def test_pgf_binomial_closed_form():
    law = dl.uniform_law(4, 0.3)
    for z in (0.0, 0.25, 0.7, 1.0):
        assert law.pgf(z) == pytest.approx((0.7 + 0.3 * z) ** 4, abs=1e-14)
    assert law.mean_offspring() == pytest.approx(1.2, abs=1e-14)


def test_table_law_masks():
    masks = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]], dtype=bool)
    law = dl.table_law(masks, [0.25, 0.25, 0.5])
    assert not law.independent
    assert law.mean_offspring() == pytest.approx(0.25 * 2 + 0.25 * 2 + 0.5 * 4)
    assert np.allclose(law.marginals(), [0.75, 0.75, 0.75, 0.75])
    with pytest.raises(ParameterError):
        dl.table_law(masks, [0.5, 0.5, 0.5])
    # NaN fails every comparison, so the check must be written to catch it
    for bad in ([math.nan, 0.5, 0.5], [math.nan] * 3, [math.inf, 0.0, 0.0]):
        with pytest.raises(ParameterError, match="finite"):
            dl.table_law(masks, bad)


def test_deterministic_law_keeps_everything():
    law = dl.deterministic_law(3)
    sample = dl.sample_tree(law, 4, seed=1)
    assert np.array_equal(sample.counts(), [1, 3, 9, 27, 81])


# ---------------------------------------------------------------------------
# extinction and survival


def test_extinction_fixed_point_matches_polynomial_root():
    law = dl.uniform_law(4, 0.3)
    stats = dl.survival_probability(law)
    want = quartic_extinction(4, 0.3)
    assert stats.extinction_prob == pytest.approx(want, abs=1e-10)
    assert stats.survival_prob == pytest.approx(1.0 - want, abs=1e-10)
    assert stats.residual < 1e-12


def test_subcritical_law_dies_out():
    stats = dl.survival_probability(dl.uniform_law(4, 0.2))
    assert stats.extinction_prob == 1.0 and stats.survival_prob == 0.0
    stats = dl.survival_probability(dl.deterministic_law(3))
    assert stats.extinction_prob == 0.0


def test_extinction_against_monte_carlo():
    law = dl.uniform_law(4, 0.3)
    stats = dl.survival_probability(law)
    mc = oracles.gw_extinction_by_depth(4, 0.3, depth=30, trials=20_000, seed=7)
    # depth-30 extinction is within MC noise of eventual extinction
    assert abs(mc - stats.extinction_prob) < 0.02


# ---------------------------------------------------------------------------
# tree sampling


def test_sample_tree_is_deterministic(carpet):
    law = dl.standard_law(carpet, 0.3)
    a = dl.sample_tree(law, 5, seed=42)
    b = dl.sample_tree(law, 5, seed=42)
    assert np.array_equal(a.counts(), b.counts())
    for k in range(6):
        assert np.array_equal(a.symbols_at(k), b.symbols_at(k))


def test_sample_tree_downward_closed(carpet):
    law = dl.standard_law(carpet, 0.5)
    sample = dl.sample_tree(law, 4, seed=3)
    for k in range(1, 5):
        parents = set(sample.words_at(k - 1))
        for w in sample.words_at(k):
            assert w[:-1] in parents


def test_batch_counts_match_tree_counts(carpet):
    law = dl.standard_law(carpet, 0.5)
    seeds = rng.derive_seed(np.uint64(11), np.arange(20, dtype=np.uint64))
    batch = dl.batch_generation_counts(law, 4, seeds)
    for i, s in enumerate(seeds):
        assert np.array_equal(batch[i], dl.sample_tree(law, 4, int(s)).counts())


def test_batch_counts_match_tree_for_mask_law():
    masks = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]], dtype=bool)
    law = dl.table_law(masks, [0.25, 0.25, 0.5])
    seeds = np.arange(10, dtype=np.uint64)
    batch = dl.batch_generation_counts(law, 5, seeds)
    for i, s in enumerate(seeds):
        assert np.array_equal(batch[i], dl.sample_tree(law, 5, int(s)).counts())


def test_path_survival_agrees_with_sampled_trees(carpet):
    law = dl.standard_law(carpet, 0.6)
    word = (3, 5, 2)
    seeds = np.arange(200, dtype=np.uint64)
    alive = dl.path_survival(law, word, seeds)
    for s in (0, 17, 63, 128):
        tree_words = set(dl.sample_tree(law, 3, s).words_at(3))
        assert bool(alive[s]) == (word in tree_words)


def test_word_survival_frequency_matches_power_law(carpet):
    """Standard(alpha) word survival is (r^n)^alpha; check MC frequency."""
    alpha = 0.4
    law = dl.standard_law(carpet, alpha)
    seeds = np.arange(100_000, dtype=np.uint64)
    for word in [(1, 5), (2, 7, 1, 4), (8, 3, 6, 1, 2, 5)]:
        n = len(word)
        want = float((carpet.ratios[0] ** n) ** alpha)
        freq = float(dl.path_survival(law, word, seeds).mean())
        se = math.sqrt(want * (1.0 - want) / len(seeds))
        assert abs(freq - want) <= 3.0 * se, (word, freq, want)


def test_surviving_tree_retries_until_alive(carpet):
    law = dl.standard_law(carpet, 0.8)
    sample, tries = dl.sample_surviving_tree(law, 6, seed=5)
    assert not sample.extinct
    assert tries >= 1
    assert sample.counts()[6] > 0


def test_depth_zero_tree_is_just_the_root(carpet):
    law = dl.standard_law(carpet, 0.5)
    sample = dl.sample_tree(law, 0, seed=9)
    assert np.array_equal(sample.counts(), [1])
    assert not sample.extinct


# ---------------------------------------------------------------------------
# persistence and cell clouds


def test_persistent_counts_are_ancestor_counts(carpet):
    law = dl.standard_law(carpet, 0.6)
    sample = dl.sample_tree(law, 5, seed=21)
    deepest = sample.words_at(5)
    counts = sample.counts()
    pcounts = sample.persistent_counts()
    for k in range(6):
        ancestors = {w[:k] for w in deepest}
        assert pcounts[k] == len(ancestors)
        assert pcounts[k] <= counts[k]
    assert pcounts[5] == counts[5]


@pytest.mark.parametrize(
    "law, depth",
    [
        (dl.uniform_law(2, 0.6), 9),
        (dl.uniform_law(3, 0.45), 7),
        (dl.table_law([[1, 1, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], [0.4, 0.4, 0.2]), 8),
    ],
    ids=["m2", "m3", "table"],
)
def test_persistent_masks_mark_the_ancestors_of_the_deepest_words(law, depth):
    # small, thin trees: rows whose only kept child sits in any one slot,
    # the last included, and generations where some words die out
    partial = 0
    for seed in range(8):
        sample = dl.sample_tree(law, depth, seed)
        deepest = sample.words_at(depth)
        masks = sample.persistent_masks()
        for k in range(depth + 1):
            ancestors = {w[:k] for w in deepest}
            assert masks[k].tolist() == [w in ancestors for w in sample.words_at(k)]
        partial += sum(not m.all() for m in masks)
    assert partial > 0


def test_cell_cloud_sizes_and_radii(carpet):
    law = dl.standard_law(carpet, 0.6)
    sample = dl.sample_tree(law, 5, seed=21)
    centers, radii = sample.cell_cloud(carpet, 3)
    assert len(centers) == sample.counts()[3]
    assert np.allclose(radii, carpet.ball_radius * carpet.ratios[0] ** 3)
    pcenters, _ = sample.cell_cloud(carpet, 3, persistent=True)
    assert len(pcenters) == sample.persistent_counts()[3]


def _surviving_words_by_brute_force(law, depth, seed):
    """Per depth, every word whose whole path path_survival keeps, in lex order."""
    out = []
    for k in range(depth + 1):
        words = itertools.product(range(1, law.m + 1), repeat=k)
        out.append([w for w in words if dl.path_survival(law, w, [seed])[0]])
    return out


@pytest.mark.parametrize(
    "law, depth",
    [
        (dl.standard_law(dl.load_ifs("sierpinski_carpet"), 0.5), 3),
        (dl.table_law([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]], [0.25, 0.25, 0.5]), 4),
    ],
)
def test_parent_links_rebuild_the_surviving_words(law, depth):
    for seed in (3, 11):
        sample = dl.sample_tree(law, depth, seed)
        want = _surviving_words_by_brute_force(law, depth, seed)
        for k in range(depth + 1):
            assert sample.words_at(k) == want[k]
            sym = sample.symbols_at(k)
            assert sym.dtype == np.uint16 and sym.shape == (len(want[k]), k)
            assert [tuple(r) for r in sym.tolist()] == want[k]


def _unequal_law():
    retain = np.array([0.9, 0.2, 0.7, 0.0, 1.0])
    return percolation.OffspringLaw(kind="standard", m=5, retain=retain)


def _mask_law():
    return dl.table_law([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]], [0.25, 0.25, 0.5])


def test_oracle_splitmix64_is_the_reference_mixer():
    # first output of the published splitmix64 generator seeded with 0
    assert oracles.splitmix64(0) == 0xE220A8397B1DCDAF
    for x in (0, 1, 12345, (1 << 64) - 1):
        assert oracles.unsplitmix64(oracles.splitmix64(x)) == x


# seeds whose root mask draw lies exactly on a cumulative probability of
# _mask_law(), where searchsorted's side decides which mask is kept
_TIE_SEEDS = tuple(
    oracles.seed_for_root_uniform(u, oracles.SALT_MASK) for u in (0.25, 0.5)
)


@pytest.mark.parametrize(
    "law, depth, seeds",
    [
        (dl.standard_law(dl.load_ifs("sierpinski_carpet"), 0.5), 3, (3, 11)),
        (_mask_law(), 4, (3, 11) + _TIE_SEEDS),
    ],
    ids=["standard", "table"],
)
def test_keep_rule_matches_the_scalar_oracle(law, depth, seeds):
    if law.independent:
        keeps = oracles.standard_rule(law.retain.tolist())
    else:
        keeps = oracles.table_rule(law.masks.tolist(), law.mask_probs.tolist())
    batch = dl.batch_generation_counts(law, depth, np.array(seeds, dtype=np.uint64))
    for i, seed in enumerate(seeds):
        want = oracles.surviving_words(seed, law.m, depth, keeps)
        sample = dl.sample_tree(law, depth, seed)
        for k in range(depth + 1):
            assert sample.words_at(k) == want[k]
        assert batch[i].tolist() == [len(words) for words in want]


def test_tie_seeds_draw_exactly_on_the_cumulative_probabilities():
    roots = [oracles.root_hash(s) for s in _TIE_SEEDS]
    assert [oracles.uniform(h, oracles.SALT_MASK) for h in roots] == [0.25, 0.5]
    # side="right": a draw equal to a cumulative probability takes the next mask
    law = _mask_law()
    assert dl.sample_tree(law, 1, _TIE_SEEDS[0]).words_at(1) == [(3,), (4,)]
    assert dl.sample_tree(law, 1, _TIE_SEEDS[1]).words_at(1) == [(1,), (2,), (3,), (4,)]


@pytest.mark.parametrize(
    "law",
    [dl.uniform_law(1, 0.7), dl.uniform_law(1, 0.5), dl.uniform_law(1, 0.0),
     dl.deterministic_law(1)],
    ids=["p0.7", "p0.5-dyadic", "p0", "p1"],
)
def test_integer_keep_threshold_is_the_float_rule_at_its_boundary(law):
    p = float(law.retain[0])
    t = math.ceil(Fraction(p) * 2 ** 53)
    assert law._retain_thresholds().tolist() == [t]
    # draws on both sides of the threshold, and the extreme draws
    draws = sorted({k for k in (0, t - 1, t, 2 ** 53 - 1) if 0 <= k < 2 ** 53})
    child = [oracles.hash_for_draw(k, oracles.SALT_RETAIN) for k in draws]
    want = [oracles.uniform(c, oracles.SALT_RETAIN) < p for c in child]
    assert want == [k < t for k in draws]
    got = percolation._retained(
        law, np.zeros(len(child), dtype=np.uint64),
        np.array(child, dtype=np.uint64)[:, None], slice(None),
    )
    assert got[:, 0].tolist() == want
    # the same draws reached through a tree: the root's only child
    for c, keep in zip(child, want):
        sample = dl.sample_tree(law, 1, oracles.seed_for_child_hash(c, 1))
        assert sample.counts().tolist() == [1, int(keep)]


def _whole_generation_reference(law, seeds, depth):
    if law.independent:
        rule = dict(retain=law.retain)
    else:
        rule = dict(masks=law.masks, probs=law.mask_probs)
    return list(oracles.grow_whole_generations(seeds, depth, law.m, **rule))


def _assert_same_generations(gens, want):
    # each generation is its keep mask; the links derived from it are the
    # reference's parent rows and symbols
    assert len(gens) == len(want)
    for gen, (rows, syms) in zip(gens, want):
        assert gen.dtype == bool and gen.ndim == 2
        parent, symbol = np.nonzero(gen)
        assert np.array_equal(parent, rows) and np.array_equal(symbol + 1, syms)


@pytest.mark.parametrize("block", ["default", "one-parent", "three-parents"])
@pytest.mark.parametrize(
    "law, depth, forest_depth",
    [
        (dl.standard_law(dl.load_ifs("sierpinski_carpet"), 0.5), 7, 3),
        (dl.mandelbrot_config(3, 2, 0.7).law, 6, 3),
        (_mask_law(), 6, 4),
        # a threshold per symbol: a table shifted by one symbol would differ
        (_unequal_law(), 7, 3),
    ],
    ids=["carpet", "mandelbrot", "table", "unequal"],
)
def test_blocked_growth_equals_the_whole_generation_reference(
    law, depth, forest_depth, block, monkeypatch
):
    if block == "one-parent":
        monkeypatch.setattr(percolation, "_BLOCK_CHILDREN", 1)
    elif block == "three-parents":
        monkeypatch.setattr(percolation, "_BLOCK_CHILDREN", 3 * law.m)
    sample = dl.sample_tree(law, depth, 5)
    _assert_same_generations(
        sample.generations[1:], _whole_generation_reference(law, [5], depth)
    )
    # a forest of 300 trees: generations, and the counts per tree
    seeds = np.arange(300, dtype=np.uint64)
    want = _whole_generation_reference(law, seeds, forest_depth)
    gens = list(percolation._grow(law, rng.root_hash(seeds), forest_depth, 10 ** 7))
    _assert_same_generations(gens, want)
    tree = np.arange(len(seeds))
    counts = [np.ones(len(seeds), dtype=np.int64)]
    for rows, _ in want:
        tree = tree[rows]
        counts.append(np.bincount(tree, minlength=len(seeds)))
    batch = dl.batch_generation_counts(law, forest_depth, seeds)
    assert np.array_equal(batch, np.stack(counts, axis=1))


def test_an_extinct_tree_costs_nothing_per_level_left():
    # seed 12 dies out at generation 7 of 12; the empty levels below it
    # match the whole-generation reference
    law = dl.uniform_law(4, 0.3)
    sample = dl.sample_tree(law, 12, 12)
    assert sample.counts().tolist() == [1, 1, 1, 2, 2, 4, 2] + [0] * 6
    _assert_same_generations(
        sample.generations[1:], _whole_generation_reference(law, [12], 12)
    )
    tracemalloc.start()
    try:
        deep = dl.sample_tree(dl.uniform_law(8, 0.05), 10 ** 5, 7)
        counts = deep.counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[0] == 1 and len(counts) == 10 ** 5 + 1 and not counts[1:].any()
    assert deep.extinct
    # a new pair of empty arrays per level peaked at 31 MB here
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize(
    "law, depth, seed",
    [(dl.uniform_law(8, 0.3), 6, 8), (dl.uniform_law(4, 0.3), 12, 12)],
    ids=["alive", "extinct"],
)
def test_a_generation_is_its_keep_mask_one_byte_per_drawn_slot(law, depth, seed):
    sample = dl.sample_tree(law, depth, seed)
    counts, gens = sample.counts(), sample.generations
    assert gens[0].shape == (1, 1) and gens[0].all()  # the root
    for k in range(1, depth + 1):
        assert gens[k].dtype == bool and gens[k].shape == (counts[k - 1], law.m)
    assert sum(g.nbytes for g in gens[1:]) == law.m * counts[:-1].sum()


def test_growing_and_box_counting_a_tree_peaks_near_two_bytes_per_drawn_slot():
    # what stays is one byte per drawn child slot; the deepest generation's
    # frontier hashes add 8 bytes per parent, 8/9 per slot here.  1.94
    # bytes per slot measured, 14% under the bound's 2 bytes per slot plus
    # 1 MiB for the growth's block buffers.  Parent rows and symbols, 5
    # bytes per kept node, peaked at 5.77 bytes per slot.
    law = dl.mandelbrot_config(3, 2, 0.7).law
    tracemalloc.start()
    try:
        sample = dl.sample_tree(law, 8, 3)
        sample.persistent_counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slots = law.m * int(sample.counts()[:-1].sum())
    assert slots > 4 * 10 ** 6
    assert peak <= 2 * slots + 2 ** 20


def test_symbols_and_intersections_hold_an_alphabet_of_65536_maps():
    # uint16 symbols wrapped the last of 2^16 symbols to 0
    cfg = dl.mandelbrot_config(256, 2, 1.0)
    a, b = (dl.sample_tree(cfg.law, 1, seed) for seed in (3, 4))
    want = np.arange(1, 2 ** 16 + 1)
    for sample in (a, dl.intersect_samples(a, b)):
        sym = sample.symbols_at(1)
        assert sym.dtype == np.uint32 and np.array_equal(sym[:, 0], want)
    batch = dl.batch_intersection_counts(cfg.law, [3], cfg.law, [4], 1)
    assert batch.tolist() == [[1, 2 ** 16]]


def _same_words_stopping_set(ifs, k):
    """Stopping set whose words are exactly all words of length k."""
    r = float(ifs.ratios[0])
    ss = dl.stopping_set(ifs, ifs.diameter_proxy * r ** k * (1.0 + r) / 2.0)
    assert np.all(ss.lengths == k)
    return ss


@pytest.mark.parametrize(
    "name", [name for name in dl.catalog_names() if dl.load_ifs(name).equal_ratio]
)
def test_a_one_level_stopping_set_is_the_all_kept_tree(name):
    """One tree store: the stopping set of all words of length k keeps the
    keep masks of the depth-k tree of a law that keeps every child, and
    walks them to the same words."""
    ifs = dl.load_ifs(name)
    for k in range(4):
        ss = _same_words_stopping_set(ifs, k)
        tree = dl.sample_tree(dl.deterministic_law(ifs.m), k, seed=0)
        assert list(ss._cells) == [k]
        masks = ss._frontier + [ss._cells[k]]
        assert len(masks) == len(tree.generations)
        for got, want in zip(masks, tree.generations):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert ss.words() == tree.words_at(k)


@pytest.mark.parametrize("name", ["rot3", "carpet", "turns", "mixed"])
def test_cell_cloud_is_bitwise_the_word_fold_and_stopping_set(name, request):
    ifs = request.getfixturevalue(name)
    law = dl.uniform_law(ifs.m, 0.8)
    sample = dl.sample_tree(law, 4, seed=13)
    for k in range(5):
        centers, radii = sample.cell_cloud(ifs, k)
        sym = sample.symbols_at(k)
        wc, wr = dl.word_geometry(ifs, sym)
        assert np.array_equal(centers, wc) and np.array_equal(radii, wr)
        # a ratio shared by every map is kept as one value per generation
        assert (radii.strides == (0,)) == ifs.equal_ratio
        assert (wr.strides == (0,)) == ifs.equal_ratio
        # all words of one length form a stopping set only for equal ratios
        if k == 0 or not ifs.equal_ratio:
            continue
        ss = _same_words_stopping_set(ifs, k)
        # all words of length k in lex order: a word's row is its base-m code
        code = np.zeros(len(sym), dtype=np.int64)
        for j in range(k):
            code = code * ifs.m + (sym[:, j].astype(np.int64) - 1)
        assert np.array_equal(centers, ss.centers[code])
        assert np.array_equal(radii, ss.radii[code])
        assert ss.radii.strides == (0,)


def test_cell_cloud_order_of_requests_does_not_matter(carpet):
    law = dl.standard_law(carpet, 0.3)
    late = dl.sample_tree(law, 6, seed=8)
    five = late.cell_cloud(carpet, 5)
    two = late.cell_cloud(carpet, 2)
    for k, got in ((5, five), (2, two)):
        want = dl.sample_tree(law, 6, seed=8).cell_cloud(carpet, k)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("persistent", [False, True])
@pytest.mark.parametrize("name", ["rot3", "carpet", "turns", "mixed"])
def test_cell_clouds_are_bitwise_fresh_single_generation_clouds(
    name, persistent, request, monkeypatch
):
    # a generation's translations become its centers in place, here a
    # block of 7 rows at a time: bitwise the clouds made in one block, and
    # each call's centers are its own
    ifs = request.getfixturevalue(name)
    law = dl.uniform_law(ifs.m, 0.8)
    sample = dl.sample_tree(law, 4, seed=13)
    assert sample.counts()[3] > 7
    want = [sample.cell_cloud(ifs, k, persistent) for k in range(5)]
    monkeypatch.setattr(dl.geometry, "_BLOCK_ROWS", 7)
    for k in (4, 2, 4, 3, 1, 0):
        centers, radii = sample.cell_cloud(ifs, k, persistent)
        assert np.array_equal(centers, want[k][0]) and np.array_equal(radii, want[k][1])
        again = sample.cell_cloud(ifs, k, persistent)[0]
        assert not np.shares_memory(centers, again)


def test_cell_clouds_reject_generations_the_sample_lacks(carpet):
    sample = dl.sample_tree(dl.standard_law(carpet, 0.3), 3, seed=8)
    for k in (4, -1):
        with pytest.raises(ParameterError, match="generation"):
            sample.cell_cloud(carpet, k)


def test_persistent_cloud_is_the_masked_full_cloud(carpet):
    # alpha 1.0 drops rows of generations 2, 3 and 4, below the deepest one
    for alpha in (0.6, 1.0):
        sample = dl.sample_tree(dl.standard_law(carpet, alpha), 5, seed=21)
        masks = sample.persistent_masks()
        for k in range(6):
            centers, radii = sample.cell_cloud(carpet, k)
            pc, pr = sample.cell_cloud(carpet, k, persistent=True)
            assert np.array_equal(pc.view(np.uint64), centers[masks[k]].view(np.uint64))
            assert np.array_equal(pr, radii[masks[k]])
            # one ratio: the radii stay a broadcast of one radius
            assert pr.strides == (0,)


@pytest.mark.parametrize(
    "M, depth, budget, first",
    [(20, 2, 400, True), (20, 2, 401, False), (3, 50, 40, True), (3, 0, 0, False)],
)
def test_the_mandelbrot_budget_check_raises_what_growth_raises_first(M, depth, budget, first):
    # before the M^d maps are built: the tree's depth + 1 slots, then its
    # root and M^d children; a depth-0 tree is left to its growth
    law = dl.mandelbrot_config(M, 2, 0.5).law
    with pytest.raises(BudgetExceededError) as grown:
        dl.sample_tree(law, depth, 1, budget=budget)
    if first:
        with pytest.raises(BudgetExceededError) as err:
            percolation._check_mandelbrot_budget(M, 2, 0.5, depth, budget)
        assert err.value.required == grown.value.required
    else:
        percolation._check_mandelbrot_budget(M, 2, 0.5, depth, budget)


def _by_identity(obj):
    """Attributes of `obj`, and the entries of its dict attributes."""
    snap = {}
    for key, value in vars(obj).items():
        snap[key] = value
        if isinstance(value, dict):
            snap.update({(key, k): v for k, v in value.items()})
    return snap


def test_samples_and_stopping_sets_keep_only_what_they_were_built_with(carpet):
    """No call fills a cache on a sample or a stopping set."""
    sample = dl.sample_tree(dl.uniform_law(carpet.m, 0.8), 4, seed=3)
    ss = dl.stopping_set(carpet, 3.0 ** -3)
    before = [_by_identity(obj) for obj in (sample, ss)]
    assert set(before[0]) == {"law", "seed", "depth", "generations"}
    sample.cell_cloud(carpet, 3)
    sample.cell_cloud(carpet, 4, persistent=True)
    sample.cell_cloud(carpet, 2, persistent=True)
    scales = [carpet.diameter_proxy * 3.0 ** -k for k in (2, 3, 4)]
    dl.conservation_profile_sample(
        sample, carpet, 1.5, [dl.Direction.from_angle(0.3)], 0.25, scales, grid=32
    )
    ss.words()
    for obj, snap in zip((sample, ss), before):
        now = _by_identity(obj)
        assert now.keys() == snap.keys()
        assert all(now[k] is snap[k] for k in snap)


def test_shared_inputs_are_never_written():
    """Threads share one IFS and one law: no call may fill a cache on them."""
    ifs = dl.load_ifs("sierpinski_carpet")
    table = dl.table_law([[1] * 8, [1, 0] * 4, [0, 1] * 4], [0.5, 0.25, 0.25])
    shared = [ifs, dl.standard_law(ifs, 0.4), table]
    before = [_by_identity(obj) for obj in shared]
    seeds = np.arange(20, dtype=np.uint64)
    for law in shared[1:]:
        sample = dl.sample_tree(law, 4, seed=3)
        dl.batch_generation_counts(law, 4, seeds)
        dl.path_survival(law, (2, 5, 1), seeds)
        sample.cell_cloud(ifs, 3, persistent=True)
    dl.conservation_profile(
        ifs, dl.Direction.from_angle(0.0), 0.15, [3.0**-k for k in range(2, 5)], grid=64
    )
    for obj, snap in zip(shared, before):
        now = _by_identity(obj)
        assert now.keys() == snap.keys()
        assert all(now[k] is snap[k] for k in snap)
    with pytest.raises(ValueError, match="read-only"):
        ifs.ratios[0] = 0.5


# ---------------------------------------------------------------------------
# intersections


def test_intersection_is_setwise(carpet):
    law = dl.standard_law(carpet, 0.4)
    a = dl.sample_tree(law, 4, seed=1)
    b = dl.sample_tree(law, 4, seed=2)
    both = dl.intersect_samples(a, b)
    for k in range(5):
        want = set(a.words_at(k)) & set(b.words_at(k))
        assert set(both.words_at(k)) == want
    flipped = dl.intersect_samples(b, a)
    assert np.array_equal(both.counts(), flipped.counts())


def test_law_less_samples_check_their_alphabet_by_their_masks():
    # an intersection carries no law; its keep masks are m = 4 wide
    four, nine = (dl.mandelbrot_config(M, 2, 0.9) for M in (2, 3))
    a, b = (dl.sample_tree(four.law, 3, seed) for seed in (1, 2))
    both = dl.intersect_samples(a, b)
    assert both.law is None and both.counts()[-1] > 0
    with pytest.raises(ParameterError):
        both.cell_cloud(nine.ifs, 3)
    c = dl.sample_tree(nine.law, 3, seed=3)
    for pair in ((both, c), (c, both)):
        with pytest.raises(ParameterError):
            dl.intersect_samples(*pair)
    # matching alphabets go through, law or no law
    assert len(both.cell_cloud(four.ifs, 3)[0]) == both.counts()[-1]
    assert np.array_equal(dl.intersect_samples(both, a).counts(), both.counts())
    assert np.array_equal(dl.intersect_samples(both, both).counts(), both.counts())
    # a depth-0 sample holds no mask that could say its alphabet
    root = dl.sample_tree(four.law, 0, seed=1)
    assert len(root.cell_cloud(nine.ifs, 0)[0]) == 1


def test_batch_intersections_match_pairwise(carpet):
    law1 = dl.standard_law(carpet, 0.3)
    law2 = dl.standard_law(carpet, 0.5)
    seeds1 = np.arange(8, dtype=np.uint64)
    seeds2 = np.arange(100, 108, dtype=np.uint64)
    batch = dl.batch_intersection_counts(law1, seeds1, law2, seeds2, 3)
    for i in range(8):
        a = dl.sample_tree(law1, 3, int(seeds1[i]))
        b = dl.sample_tree(law2, 3, int(seeds2[i]))
        assert np.array_equal(batch[i], dl.intersect_samples(a, b).counts())


def test_batch_intersections_match_pairwise_for_mask_laws():
    law1 = _mask_law()
    law2 = dl.table_law([[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1]], [0.3, 0.3, 0.4])
    seeds1 = np.arange(8, dtype=np.uint64)
    seeds2 = np.arange(50, 58, dtype=np.uint64)
    batch = dl.batch_intersection_counts(law1, seeds1, law2, seeds2, 4)
    assert batch[:, -1].sum() > 0
    for i in range(8):
        a = dl.sample_tree(law1, 4, int(seeds1[i]))
        b = dl.sample_tree(law2, 4, int(seeds2[i]))
        assert np.array_equal(batch[i], dl.intersect_samples(a, b).counts())


def test_batch_budget_bounds_live_nodes_not_the_full_tree(carpet):
    law = dl.uniform_law(carpet.m, 0.3)
    seeds = np.arange(10, dtype=np.uint64)
    depth, budget = 4, 3000
    # every word of every tree would not fit; the live forest does
    assert len(seeds) * sum(carpet.m ** k for k in range(depth + 1)) > budget
    batch = dl.batch_generation_counts(law, depth, seeds, budget=budget)
    for i, s in enumerate(seeds):
        assert np.array_equal(batch[i], dl.sample_tree(law, depth, int(s)).counts())
    with pytest.raises(BudgetExceededError):
        dl.batch_generation_counts(law, depth, seeds, budget=int(batch.sum()))


def _growth_checks(law, seeds, depth):
    """Per generation, the count a tree or forest is checked against its
    budget: roots plus nodes kept so far, plus m slots per frontier node."""
    kept, frontier, checks = len(seeds), len(seeds), []
    for rows, _ in _whole_generation_reference(law, seeds, depth):
        checks.append(kept + frontier * law.m)
        kept, frontier = kept + len(rows), len(rows)
    return checks


def test_tree_and_forest_budgets_are_the_drawn_growth_checks(carpet):
    law = dl.standard_law(carpet, 0.3)
    depth = 3
    seeds = rng.derive_seed(np.uint64(7), np.arange(5, dtype=np.uint64))
    # each tree alone, then the forest of all five
    for group in [seeds[i : i + 1] for i in range(len(seeds))] + [seeds]:
        checks = _growth_checks(law, group, depth)
        tree = int(group[0]) if len(group) == 1 else None
        for budget in sorted({c + d for c in checks for d in (-1, 0, 1)}):
            if budget >= max(checks):
                counts = dl.batch_generation_counts(law, depth, group, budget=budget)
                if tree is not None:
                    sample = dl.sample_tree(law, depth, tree, budget=budget)
                    assert sample.counts().tolist() == counts[0].tolist()
                continue
            first = next(c for c in checks if c > budget)
            with pytest.raises(BudgetExceededError) as err:
                dl.batch_generation_counts(law, depth, group, budget=budget)
            assert err.value.required == first
            if tree is not None:
                with pytest.raises(BudgetExceededError) as err:
                    dl.sample_tree(law, depth, tree, budget=budget)
                assert err.value.required == first
    # the first tree's largest check is below its 230.3 expected live nodes
    assert max(_growth_checks(law, seeds[:1], depth)) == 222
    dl.sample_tree(law, depth, int(seeds[0]), budget=225)
    # the five trees fit 1200 one by one, but their forest is checked at 1463
    with pytest.raises(BudgetExceededError) as err:
        dl.batch_generation_counts(law, depth, seeds, budget=1200)
    assert err.value.required == 1463


def test_a_request_too_deep_for_its_budget_raises_before_any_draw(carpet, monkeypatch):
    law = dl.uniform_law(carpet.m, 0.05)  # subcritical: the trees die out early
    seeds = np.arange(3, dtype=np.uint64)
    budget = 1000
    # each tree holds a slot per generation: depth + 1 slots per tree fit
    assert dl.sample_tree(law, budget - 1, 7, budget=budget).extinct
    dl.batch_generation_counts(law, budget // 3 - 1, seeds, budget=budget)

    drawn = []

    def no_draws(*args, **kwargs):
        drawn.append(args)
        raise AssertionError("children drawn before the depth check")

    monkeypatch.setattr(rng, "child_hashes", no_draws)
    many = np.arange(1000, dtype=np.uint64)
    calls = [
        (lambda: dl.sample_tree(law, budget, 7, budget=budget), budget + 1),
        (lambda: dl.sample_tree(law, 10 ** 8, 7), 10 ** 8 + 1),
        (lambda: dl.batch_generation_counts(law, budget // 3, seeds, budget=budget),
         3 * (budget // 3 + 1)),
        (lambda: dl.batch_generation_counts(law, 10 ** 4, many), 1000 * (10 ** 4 + 1)),
        (lambda: dl.batch_intersection_counts(law, seeds, law, seeds, 20, budget=62), 63),
    ]
    for call, required in calls:
        with pytest.raises(BudgetExceededError) as err:
            call()
        assert err.value.required == required
    with pytest.raises(ParameterError, match="depth"):
        dl.batch_generation_counts(law, -1, seeds)
    # the tripwire is live: a request that fits draws through the patched name
    assert drawn == []
    for call in (lambda: dl.sample_tree(law, 1, 7, budget=budget),
                 lambda: dl.batch_generation_counts(law, 1, seeds, budget=budget)):
        with pytest.raises(AssertionError, match="drawn"):
            call()
    assert len(drawn) == 2


def test_intersections_of_deep_trees_have_no_depth_cap(carpet):
    # a depth-24 carpet generation has m^24 = 2^72 word slots per tree, more
    # than an int64 can number
    law = dl.uniform_law(carpet.m, 0.15)
    seeds = np.arange(8, dtype=np.uint64)
    batch = dl.batch_intersection_counts(law, seeds, law, seeds, 24)
    assert batch.shape == (8, 25) and batch[:, -1].any()
    for row, seed in zip(batch, seeds):
        tree = dl.sample_tree(law, 24, int(seed))
        assert np.array_equal(row, tree.counts())
        both = dl.intersect_samples(tree, tree)
        assert len(both.generations) == len(tree.generations)
        for got, want in zip(both.generations, tree.generations):
            assert got.dtype == bool and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# dimension formulas


def test_standard_law_dimension_shifts_moran(carpet, rot3):
    for ifs, alpha in ((carpet, 0.4), (rot3, 0.3)):
        law = dl.standard_law(ifs, alpha)
        want = dl.moran_dimension(ifs) - alpha
        assert dl.percolation_dimension(law, ifs) == pytest.approx(want, abs=1e-9)


def test_standard_law_dimension_mixed_ratios():
    maps = tuple(
        dl.Similarity(ratio=r, angle=0.0, translation=np.array([t, 0.0]))
        for r, t in ((0.5, 0.0), (0.3, 0.5), (0.2, 0.8))
    )
    ifs = dl.IFS.from_maps(maps)
    alpha = 0.25
    law = dl.standard_law(ifs, alpha)
    want = dl.moran_dimension(ifs) - alpha
    assert dl.percolation_dimension(law, ifs) == pytest.approx(want, abs=1e-9)


def test_mandelbrot_dimension_closed_form():
    cfg = dl.mandelbrot_config(3, 2, 0.7)
    want = 2.0 + math.log(0.7) / math.log(3.0)
    assert cfg.supercritical
    assert cfg.dimension == pytest.approx(want, abs=1e-13)
    assert dl.percolation_dimension(cfg.law, cfg.ifs) == pytest.approx(want, abs=1e-12)


def test_mandelbrot_criticality_boundary():
    sub = dl.mandelbrot_config(3, 2, 1.0 / 9.0)
    assert not sub.supercritical and sub.dimension is None
    assert dl.mandelbrot_config(2, 2, 0.26).supercritical
    cfg = dl.mandelbrot_config(3, 2, 0.5)
    assert cfg.projection_positive_thresholds == {1: pytest.approx(1.0 / 3.0)}


def test_subcritical_dimension_raises(carpet):
    law = dl.uniform_law(carpet.m, 0.1)
    with pytest.raises(SubcriticalLawError):
        dl.percolation_dimension(law, carpet)
