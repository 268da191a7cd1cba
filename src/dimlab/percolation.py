"""Fractal percolation on symbolic trees.

A percolation sample keeps, per depth, the set of words whose whole ancestor
path was retained.  Retention decisions are a pure function of (seed, word
path) via the counter-based PRF in `rng`, so samples are bit-for-bit
reproducible and independent of traversal order.

One keep rule (`_retained`) and one expansion (`_Growth`) serve every
sampler: a batch of trees grows as one forest and is counted per tree id,
carried down from parent to kept children.

A generation is stored as its keep mask: an (n, m) bool array over the m
child slots of each of the n words of the generation above, whose true
slots, in (row, symbol) order, are the generation's words: a word's
parent row is its slot's row and its last symbol the slot's column.  Those
links are derived from the mask only where they are read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import (
    BudgetExceededError,
    ParameterError,
    SubcriticalLawError,
)
from .geometry import (
    DEFAULT_BUDGET,
    IFS,
    Similarity,
    _cell_disks,
    _decreasing_root,
    _extend,
    _identity_maps,
    _mask_symbols,
    _root,
    _rows_of,
)

__all__ = [
    "OffspringLaw",
    "standard_law",
    "uniform_law",
    "table_law",
    "deterministic_law",
    "PercolationSample",
    "sample_tree",
    "sample_surviving_tree",
    "intersect_samples",
    "BranchingStats",
    "survival_probability",
    "percolation_dimension",
    "MandelbrotConfig",
    "mandelbrot_config",
    "batch_generation_counts",
    "batch_intersection_counts",
    "path_survival",
]


@dataclass(eq=False)
class OffspringLaw:
    """Distribution of the random retained-children vector X in {0,1}^m.

    kinds:
      - "standard":        X_i independent Bernoulli(r_i^alpha)
      - "bernoulli-uniform": X_i independent Bernoulli(p)
      - "deterministic":   all children retained
      - "general-table":   explicit list of masks with probabilities
    """

    kind: str
    m: int
    retain: np.ndarray | None = None
    masks: np.ndarray | None = None
    mask_probs: np.ndarray | None = None

    @property
    def independent(self) -> bool:
        return self.kind in ("standard", "bernoulli-uniform", "deterministic")

    def marginals(self) -> np.ndarray:
        """P(X_i = 1) for each symbol."""
        if self.independent:
            return self.retain
        return self.mask_probs @ self.masks

    def mean_offspring(self) -> float:
        return float(self.marginals().sum())

    def pgf(self, z: float) -> float:
        """E(z^{number of retained children})."""
        if self.independent:
            return float(np.prod(1.0 - self.retain + self.retain * z))
        pops = self.masks.sum(axis=1)
        return float(np.sum(self.mask_probs * np.power(float(z), pops)))

    def _cum_mask_probs(self) -> np.ndarray:
        return np.cumsum(self.mask_probs)

    def _retain_thresholds(self) -> np.ndarray:
        """ceil(retain * 2^53) as uint64: a draw's top 53 bits k are kept
        when k < T, exactly when the float test k * 2^-53 < retain holds.

        k < 2^53 and k * 2^-53 are exact floats, and so is retain * 2^53
        for every retain in [0, 1]; for an integer k, k < x iff k < ceil(x).
        """
        return np.ceil(self.retain * 2.0 ** 53).astype(np.uint64)


def standard_law(ifs: IFS, alpha: float) -> OffspringLaw:
    """Retention probabilities r_i^alpha (alpha = 0 keeps everything)."""
    if not 0.0 <= alpha < math.inf:
        raise ParameterError(f"alpha must be >= 0 and finite, got {alpha}")
    retain = ifs.ratios ** alpha
    return OffspringLaw(kind="standard", m=ifs.m, retain=retain)


def uniform_law(m: int, p: float) -> OffspringLaw:
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must lie in [0, 1]")
    if m < 1:
        raise ParameterError("m must be >= 1")
    return OffspringLaw(kind="bernoulli-uniform", m=m, retain=np.full(m, float(p)))


def deterministic_law(m: int) -> OffspringLaw:
    if m < 1:
        raise ParameterError("m must be >= 1")
    return OffspringLaw(kind="deterministic", m=m, retain=np.ones(m))


def table_law(masks, probs) -> OffspringLaw:
    masks = np.asarray(masks, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if masks.ndim != 2 or len(masks) != len(probs):
        raise ParameterError("masks must be (K, m) with matching probabilities")
    if np.any((masks != 0.0) & (masks != 1.0)):
        raise ParameterError("masks must be 0/1")
    # written so that a NaN or infinite probability fails
    if not (np.all(probs >= 0.0) and abs(probs.sum() - 1.0) <= 1e-12):
        raise ParameterError("mask probabilities must be finite, >= 0 and sum to 1")
    return OffspringLaw(
        kind="general-table", m=masks.shape[1], masks=masks, mask_probs=probs
    )


# ---------------------------------------------------------------------------
# sampling


def _row_any(keep: np.ndarray) -> np.ndarray:
    """keep.any(axis=1), a column at a time: numpy reduces a short row
    with a loop per row, several times slower for m < 10."""
    out = keep[:, 0].copy()
    for j in range(1, keep.shape[1]):
        out |= keep[:, j]
    return out


@dataclass(eq=False)
class PercolationSample:
    """Surviving words per depth; word in gen k iff its whole path retained.

    Each generation k >= 1 is stored as its keep mask, one byte per child
    slot drawn (see the module docstring); generation 0 is the root, one
    kept slot.  Whole words are rebuilt on demand from the masks.  The
    sample holds nothing else: cylinder disks are folded from the root by
    `cell_cloud` each time they are asked for.
    """

    law: OffspringLaw | None
    seed: object
    depth: int
    generations: list

    def counts(self) -> np.ndarray:
        return np.array([np.count_nonzero(g) for g in self.generations], dtype=np.int64)

    @property
    def extinct(self) -> bool:
        return not self.generations[-1].any()

    def symbols_at(self, k: int) -> np.ndarray:
        """(n, k) words of generation k, lexicographic order, as uint16
        (uint32 when m >= 2^16)."""
        return _mask_symbols(self.generations[: k + 1])

    def words_at(self, k: int) -> list:
        return [tuple(row) for row in self.symbols_at(k).tolist()]

    def _persistent_walk(self, k: int):
        """Masks of words with descendants in the deepest generation, from
        the deepest generation down to generation k, one at a time.

        A word persists when a slot of its row in the next generation's
        mask holds a persisting word: the row's OR, once the persisting
        words are placed in their slots.  When every word of that
        generation persists (always so for the deepest), the mask's own
        rows are ORed.
        """
        gens = self.generations
        mask = np.ones(np.count_nonzero(gens[-1]), dtype=bool)
        yield mask
        for j in range(len(gens) - 1, k, -1):
            keep = gens[j]
            if not mask.all():
                held = np.zeros(keep.shape, dtype=bool)
                np.place(held, keep, mask)
                keep = held
            mask = _row_any(keep)
            yield mask

    def persistent_masks(self) -> list:
        """Per generation, which words have descendants in the deepest one."""
        return list(self._persistent_walk(0))[::-1]

    def persistent_counts(self) -> np.ndarray:
        return np.array([np.count_nonzero(m) for m in self.persistent_masks()], dtype=np.int64)

    def cell_cloud(self, ifs: IFS, k: int, persistent: bool = False):
        """(centers, radii) of the surviving depth-k cylinder disks, made in
        place from the last maps `_folds` yields.  With `persistent`, only
        the rows that generation k's mask from `_persistent_walk` keeps."""
        if not 0 <= k <= self.depth:
            raise ParameterError(f"generation must lie in 0..{self.depth}, got {k}")
        for _, maps in self._folds(ifs, k):
            pass
        if persistent:
            for keep in self._persistent_walk(k):
                pass
            maps = _rows_of(maps, keep)
        return _cell_disks(ifs, *maps, in_place=True)

    def _folds(self, ifs: IFS, top: int):
        """(k, maps) for k = 0..top: each generation's composed maps, folded
        from the root in one top-down pass, each from the one before.  The
        pass drops a generation's maps once the next one is folded from
        them, so it holds only the last ones it yielded."""
        # the keep masks are m wide; a depth-0 sample holds none
        if self.depth and self.generations[-1].shape[1] != ifs.m:
            raise ParameterError("sample alphabet does not match the IFS")
        maps = _identity_maps(ifs)
        for k in range(top + 1):
            if k:
                maps = _extend(*maps, ifs, self.generations[k])
            yield k, maps


def _retained(
    law: OffspringLaw, hashes, child_hashes, syms, blocks=None, out=None
) -> np.ndarray:
    """Whether child `syms` (0-based index or slice) of each parent is kept:
    a draw per child hash (independent laws) or a mask per parent hash.

    With `blocks` (a `_Blocks`), `child_hashes` holds a block's
    children flat in (parent, symbol) order, all m per parent, and `out`
    is the block's (parents, m) slice of a generation's mask: an
    independent law's draws are made in place in the buffers and compared
    with the tiled thresholds straight into `out`.
    """
    if law.independent:
        if blocks is None:
            draws = scratch = None
            thresholds = law._retain_thresholds()[syms]
        else:
            c = len(child_hashes)
            draws, scratch = blocks.draws[:c], blocks.scratch[:c]
            thresholds = blocks.thresholds[:c]
            out = out.reshape(-1)
        k = np.bitwise_xor(child_hashes, rng.SALT_RETAIN, out=draws)
        rng.mix64(k, out=k, scratch=scratch)
        k >>= 11
        return np.less(k, thresholds, out=out)
    u = rng.uniform_from_hash(hashes, rng.SALT_MASK)
    idx = np.searchsorted(law._cum_mask_probs(), u, side="right")
    idx = np.minimum(idx, len(law.mask_probs) - 1)
    return np.not_equal(law.masks[idx, syms], 0.0, out=out)


# Child hashes per expansion block: a block's buffers (a few hundred KB)
# stay in cache, and never grow with the generation.
_BLOCK_CHILDREN = 1 << 14


class _Blocks:
    """Expansion buffers for blocks of up to `parents` consecutive parents.

    Child hashes, mixing scratch and draws hold one slot per child, flat
    in (parent, symbol) order; the symbol hashes and (for an
    independent law) the keep thresholds are tiled to the same order, so
    a block is hashed, drawn and compared elementwise into them; the hash
    step's one per-block temporary is the repeated parent hashes.  Both
    tables are computed here from the law's m symbols: nothing is cached on
    the law.  Each `_Growth` makes a set unless it is given one, so a caller
    growing many trees of one law (`sections.probe_sections`) makes one.
    The uint64 buffers are rows of one allocation: freed together,
    separate ones below the allocator's mmap threshold can shrink the heap
    and fault their pages in again on the next call.
    """

    def __init__(self, law: OffspringLaw):
        m = law.m
        self.parents = parents = max(1, _BLOCK_CHILDREN // m)
        rows = np.empty((5 if law.independent else 3, parents * m), dtype=np.uint64)
        self.hashes, self.scratch, self.symbols = rows[:3]
        rng.symbol_table(m, parents, out=self.symbols)
        if law.independent:
            self.draws, self.thresholds = rows[3:]
            self.thresholds.reshape(parents, m)[...] = law._retain_thresholds()


def _check_budget(required: int, budget: int) -> None:
    """The one budget comparison of trees and forests, in node slots."""
    if required > budget:
        raise BudgetExceededError(required, budget, what="nodes")


class _Growth:
    """A tree or forest grown one generation at a time below a frontier of
    path hashes: the one tree expansion, and the one place that counts node
    slots against `budget`.

    Rows come in (parent row, symbol) order, so one growth grows one tree
    or a forest of them.  Path hashes are kept for the frontier only.
    `narrow` drops frontier rows before the next generation is drawn; that
    generation's parent rows then index the narrowed frontier.

    Each tree holds a slot per generation at least, so roots * (depth + 1)
    must fit `budget` before any draw; then, before each generation, the
    nodes kept so far (roots included, and rows dropped by `narrow`, which
    were kept when drawn) plus a slot per child about to be drawn (n*m for
    n frontier rows) must fit.  The first count over it is `required`.

    A generation of n parents is grown in blocks of consecutive parents
    holding about `_BLOCK_CHILDREN` child hashes.  Each block is hashed and
    drawn in `_Blocks` buffers: five arrays of 8 bytes per child of a
    block, about 5 x 128 KiB (three for a table law).  Each block's keep
    mask is written straight into its rows of the generation's (n, m) bool
    mask, which is what the generation stores: 1 byte per child slot.  A
    block also makes one temporary of its own, the repeated parent hashes
    that `rng.child_hashes` xors with the symbol table (8 bytes per child,
    one more 128 KiB).  The kept children's path hashes, the next
    frontier, are compressed into an array of n*m slots allocated once per
    generation and then shrunk in place to the kept prefix; pages past the
    prefix are never touched.  Beyond what the caller keeps, a generation's
    peak is its mask and those slots (9 bytes per child) plus the block
    buffers and one block's temporary, not the n*m hashes and draws of a
    whole generation at once.  The deepest generation has no successor to
    hash, so it makes no path hash slots and does no index work: its draws
    make its mask and nothing else.
    """

    def __init__(
        self, law: OffspringLaw, hashes: np.ndarray, depth: int, budget: int,
        blocks: _Blocks | None = None,
    ):
        if depth < 0:
            raise ParameterError("depth must be >= 0")
        self.law, self.hashes, self.left, self.budget = law, hashes, depth, budget
        self.total = len(hashes)
        _check_budget(self.total * (depth + 1), budget)
        self.blocks = _Blocks(law) if blocks is None else blocks

    def narrow(self, keep) -> None:
        """Grow on only from the frontier rows `keep` selects."""
        self.hashes = self.hashes[keep]

    def step(self) -> np.ndarray:
        """Draw the next generation below the frontier: its keep mask."""
        law, hashes, blocks = self.law, self.hashes, self.blocks
        m, n, step = law.m, len(hashes), blocks.parents
        _check_budget(self.total + n * m, self.budget)
        self.left -= 1
        keep = np.empty((n, m), dtype=bool)
        frontier = np.empty(n * m, dtype=np.uint64) if self.left else None
        kept = 0
        for lo in range(0, n, step):
            block = hashes[lo : lo + step]
            c = len(block) * m
            child_h = blocks.hashes[:c]
            rng.child_hashes(
                block, m, out=child_h, scratch=blocks.scratch[:c], table=blocks.symbols
            )
            slots = _retained(law, block, child_h, slice(None), blocks, keep[lo : lo + step])
            if frontier is not None:
                slots = slots.reshape(-1)
                end = kept + np.count_nonzero(slots)
                np.compress(slots, child_h, out=frontier[kept:end])
                kept = end
        if frontier is not None:
            frontier.resize(kept, refcheck=False)  # shrinks in place; no view of it is left
        self.total += int(np.count_nonzero(keep))
        self.hashes = frontier
        return keep


def _grow(law: OffspringLaw, hashes: np.ndarray, depth: int, budget: int):
    """Yield the `depth` generations below a frontier of root path hashes,
    grown whole by one `_Growth`, which checks `budget`."""
    growth = _Growth(law, hashes, depth, budget)
    while growth.left:
        if len(growth.hashes) == 0:
            # an extinct frontier stays extinct: one shared empty generation
            # stands for every level left
            empty = np.empty((0, law.m), dtype=bool)
            yield from itertools.repeat(empty, growth.left)
            return
        yield growth.step()


def sample_tree(
    law: OffspringLaw, depth: int, seed: int, budget: int = DEFAULT_BUDGET
) -> PercolationSample:
    """Sample the retained tree down to `depth`.

    Node decisions are keyed by (seed, word hash): two runs with the same
    arguments produce identical samples, and a word's fate never depends on
    its siblings.  `budget` bounds node slots as `_Growth` counts them.
    """
    gens = [_root()]
    gens.extend(_grow(law, rng.root_hash(np.uint64(seed)).reshape(1), depth, budget))
    return PercolationSample(law=law, seed=seed, depth=depth, generations=gens)


def sample_surviving_tree(
    law: OffspringLaw,
    depth: int,
    seed: int,
    max_tries: int = 1000,
    budget: int = DEFAULT_BUDGET,
):
    """Rejection-resample until the deepest generation is non-empty.

    Returns (sample, tries); raises after max_tries failures.
    """
    for t in range(max_tries):
        sub = int(rng.derive_seed(np.uint64(seed), np.uint64(t)))
        sample = sample_tree(law, depth, sub, budget=budget)
        if not sample.extinct:
            return sample, t + 1
    raise ParameterError(f"no surviving sample in {max_tries} tries (law too thin?)")


def _common_generations(gens_a, gens_b, n: int):
    """Walk two trees, or two forests of n roots, down their keep masks at
    once.  Per generation, yields the keep mask of the words both hold, over
    the common words of the generation above, and each common word's tree.

    The common mask is each side's mask at the rows of the common words
    above, ANDed.  A common word's row in a side's generation is the rank
    of its slot, in (row, symbol) order, among that mask's true slots.
    """
    rows_a = rows_b = tree = np.arange(n)
    for ga, gb in zip(gens_a, gens_b):
        common = ga[rows_a] & gb[rows_b]
        parent, symbol = np.nonzero(common)
        tree = tree[parent]
        m = common.shape[1]
        rows_a = np.searchsorted(np.flatnonzero(ga), rows_a[parent] * m + symbol)
        rows_b = np.searchsorted(np.flatnonzero(gb), rows_b[parent] * m + symbol)
        yield common, tree


def intersect_samples(a: PercolationSample, b: PercolationSample) -> PercolationSample:
    """Per-depth intersection of two samples over the same alphabet.

    The result is again downward closed (a prefix of a common word is a
    common word), so each common generation is a keep mask below the
    common generation above, as `_common_generations` walks them.
    """
    m = a.generations[-1].shape[1]  # the keep masks' width; the root's 1 at depth 0
    if a.depth != b.depth or b.generations[-1].shape[1] != m:
        raise ParameterError("samples must share alphabet and depth")
    walk = _common_generations(a.generations[1:], b.generations[1:], 1)
    gens = [_root()] + [keep for keep, _ in walk]
    return PercolationSample(
        law=None, seed=(a.seed, b.seed), depth=a.depth, generations=gens
    )


# ---------------------------------------------------------------------------
# branching statistics and the dimension equation


@dataclass(eq=False)
class BranchingStats:
    mean_offspring: float
    extinction_prob: float
    survival_prob: float
    iterations: int
    residual: float


def survival_probability(law: OffspringLaw) -> BranchingStats:
    """Extinction probability as the least fixed point of the offspring PGF.

    Iterated from 0 until the step shrinks below 1e-12; at or below the
    critical mean the extinction probability is exactly 1.
    """
    mean = law.mean_offspring()
    if mean <= 1.0 + 1e-10:
        return BranchingStats(mean, 1.0, 0.0, 0, 0.0)
    q = 0.0
    iters = 0
    for iters in range(1, 100_000 + 1):
        nq = law.pgf(q)
        delta = abs(nq - q)
        q = nq
        if delta < 1e-12 and iters >= 200:
            break
    return BranchingStats(mean, q, 1.0 - q, iters, abs(law.pgf(q) - q))


def percolation_dimension(law: OffspringLaw, ifs: IFS) -> float:
    """Solve E(sum_i X_i r_i^s) = 1 for s.

    Only marginal retention probabilities enter by linearity.  Subcritical
    laws get an explicit error rather than a spurious root.
    """
    if law.m != ifs.m:
        raise ParameterError("law arity does not match the IFS")
    if law.mean_offspring() <= 1.0 + 1e-10:
        raise SubcriticalLawError(
            f"mean offspring {law.mean_offspring():.6g} <= 1; surviving set is a.s. empty"
        )
    p = law.marginals()
    r = ifs.ratios

    def f(s):
        return float(np.sum(p * r ** s)) - 1.0

    return _decreasing_root(f, float(ifs.ambient_dim + 1))


# ---------------------------------------------------------------------------
# Mandelbrot percolation


@dataclass(eq=False)
class MandelbrotConfig:
    ifs: IFS
    law: OffspringLaw
    M: int
    d: int
    p: float
    supercritical: bool
    dimension: float | None
    projection_positive_thresholds: dict


def mandelbrot_config(M: int, d: int, p: float) -> MandelbrotConfig:
    """M-adic grid percolation on the unit cube in R^d.

    The IFS is the M^d homotheties of ratio 1/M onto grid cells; the law is
    bernoulli-uniform(p).  Supercritical iff p > M^-d; the surviving-set
    dimension is then d + log p / log M.  Projections to k-dimensional
    subspaces have positive volume iff p > M^-(d-k).
    """
    if M < 2 or d < 1:
        raise ParameterError("need M >= 2 and d >= 1")
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must lie in [0, 1]")
    ratio = 1.0 / M
    grid = np.stack(
        np.meshgrid(*[np.arange(M) for _ in range(d)], indexing="ij"), axis=-1
    ).reshape(-1, d)
    maps = tuple(
        Similarity(ratio=ratio, angle=0.0, translation=g / M) for g in grid
    )
    ifs = IFS.from_maps(
        maps, separation="OSC-assumed", label=f"mandelbrot_M{M}_d{d}"
    )
    law = uniform_law(M ** d, p)
    supercritical = p > M ** (-d)
    dim = d + math.log(p) / math.log(M) if supercritical and p > 0 else None
    thresholds = {k: M ** (-(d - k)) for k in range(1, d)}
    return MandelbrotConfig(
        ifs=ifs,
        law=law,
        M=M,
        d=d,
        p=p,
        supercritical=supercritical,
        dimension=dim,
        projection_positive_thresholds=thresholds,
    )


def _check_mandelbrot_budget(M: int, d: int, p: float, depth: int, budget: int) -> None:
    """Raise the `BudgetExceededError` that a tree of `mandelbrot_config(M,
    d, p)` grown to `depth` >= 1 raises before its first draw (its depth + 1
    slots, then its root and M^d children), without building the M^d maps
    first.  Arguments that `mandelbrot_config` rejects are left to it."""
    if depth > 0 and M >= 2 and d >= 1 and 0.0 <= p <= 1.0:
        _check_budget(depth + 1, budget)
        _check_budget(1 + M ** d, budget)


# ---------------------------------------------------------------------------
# batches of trees, grown as one forest


def batch_generation_counts(
    law: OffspringLaw, depth: int, seeds, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """Surviving-word counts per depth for many seeds at once.

    The trees grow as one forest that must fit `budget` whole; each node
    carries its tree's index to its kept children; counts are per tree.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    tree = np.arange(len(seeds))
    counts = [np.ones(len(seeds), dtype=np.int64)]
    for keep in _grow(law, rng.root_hash(seeds), depth, budget):
        tree = tree[np.nonzero(keep)[0]]
        counts.append(np.bincount(tree, minlength=len(seeds)))
    return np.stack(counts, axis=1)


def batch_intersection_counts(
    law1: OffspringLaw,
    seeds1,
    law2: OffspringLaw,
    seeds2,
    depth: int,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """Per-depth counts of the intersection of two independent samples.

    Each batch grows as one forest, and the common words of the two forests
    are counted per tree (`_common_generations`).
    """
    if law1.m != law2.m:
        raise ParameterError("laws must share the alphabet")
    seeds1 = np.asarray(seeds1, dtype=np.uint64)
    seeds2 = np.asarray(seeds2, dtype=np.uint64)
    if len(seeds1) != len(seeds2):
        raise ParameterError("seed arrays must be paired")
    n = len(seeds1)
    counts = [np.ones(n, dtype=np.int64)]
    walk = _common_generations(
        _grow(law1, rng.root_hash(seeds1), depth, budget),
        _grow(law2, rng.root_hash(seeds2), depth, budget),
        n,
    )
    counts.extend(np.bincount(tree, minlength=n) for _, tree in walk)
    return np.stack(counts, axis=1)


def path_survival(law: OffspringLaw, word, seeds) -> np.ndarray:
    """For a fixed word, whether its whole path is retained, per seed."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    h = rng.root_hash(seeds)
    alive = np.ones(len(seeds), dtype=bool)
    for s in word:
        if not 1 <= int(s) <= law.m:
            raise ParameterError(f"symbol {s} outside 1..{law.m}")
        child = rng.extend_hash(h, np.full(len(seeds), int(s), dtype=np.uint64))
        alive &= _retained(law, h, child, int(s) - 1)
        h = child
    return alive
