"""Self-similar iterated function systems and their cylinder geometry.

Maps are orientation-preserving contracting similarities x -> r R(angle) x + a
(rotations only in the plane; higher-dimensional systems must be homotheties).
Cylinder sets are modelled by enclosing disks: once a ball B(c, R0) with
f_i(B) inside B for every map is fixed, the cylinder [i1..ik] is represented
by the image disk, whose diameter is exactly 2 R0 r_{i1}...r_{ik}.  All
coverings, slice counts and projections in the other modules are computed
against these disks, never against convex hulls.

Stopping sets come from one top-down walk (`_ladder_cuts`) that cuts
every scale of a ladder from one frontier: `stopping_set` assembles one
scale's cells, and a slice profile counts every scale's cells as cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceededError,
    InvalidWordError,
    OutOfRangeError,
    ParameterError,
)

DEFAULT_BUDGET = 5_000_000

_RATIO_EPS = 1e-12
_BALL_INFLATION = 1e-9
_BALL_FLOOR = 1e-12

SEPARATION_TAGS = ("SSC-verified", "OSC-assumed", "unverified")


@dataclass(eq=False)
class Similarity:
    """Contracting similarity x -> ratio * R(angle) x + translation."""

    ratio: float
    angle: float
    translation: np.ndarray

    def __post_init__(self):
        self.translation = np.asarray(self.translation, dtype=np.float64)
        if self.translation.ndim != 1:
            raise ParameterError("translation must be a flat vector")
        if not (_RATIO_EPS < self.ratio < 1.0 - _RATIO_EPS):
            raise ParameterError(f"ratio must lie in (0, 1), got {self.ratio}")
        if self.angle != 0.0 and self.dim != 2:
            raise ParameterError("rotations are only supported in the plane")

    @property
    def dim(self) -> int:
        return self.translation.shape[0]

    @property
    def is_identity(self) -> bool:
        return False

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply to one point (d,) or a batch (n, d)."""
        p = np.asarray(points, dtype=np.float64)
        if self.angle != 0.0:
            c, s = math.cos(self.angle), math.sin(self.angle)
            x, y = p[..., 0], p[..., 1]
            out = np.empty_like(p)
            out[..., 0] = self.ratio * (c * x - s * y)
            out[..., 1] = self.ratio * (s * x + c * y)
        else:
            out = self.ratio * p
        return out + self.translation

    def fixed_point(self) -> np.ndarray:
        """Solve x = f(x)."""
        if self.angle == 0.0:
            return self.translation / (1.0 - self.ratio)
        c, s = math.cos(self.angle), math.sin(self.angle)
        a = np.eye(2) - self.ratio * np.array([[c, -s], [s, c]])
        return np.linalg.solve(a, self.translation)

    def compose(self, other: "Similarity") -> "Similarity":
        """self after other: (self . other)(x) = self(other(x))."""
        if other.is_identity:
            return self
        return Similarity(
            ratio=self.ratio * other.ratio,
            angle=self.angle + other.angle,
            translation=self.apply(other.translation),
        )


class IdentitySimilarity:
    """Sentinel for the empty-word composition.

    Deliberately not a ratio-1 Similarity (which would violate the
    contraction invariant); callers branch on `is_identity`.
    """

    is_identity = True

    def apply(self, points):
        return np.asarray(points, dtype=np.float64)

    def compose(self, other):
        return other

    def __repr__(self):
        return "IDENTITY"


IDENTITY = IdentitySimilarity()


def enclosing_ball(maps) -> tuple[np.ndarray, float]:
    """Ball B(c, R0) with f_i(B) contained in B for every map.

    c is the average of the maps' fixed points and
    R0 = max_i |f_i(c) - c| / (1 - r_i), inflated by a 1e-9 relative margin
    (floored at 1e-12 when all maps share one fixed point).
    """
    fixed = np.array([f.fixed_point() for f in maps])
    center = fixed.mean(axis=0)
    r0 = 0.0
    for f in maps:
        r0 = max(r0, float(np.linalg.norm(f.apply(center) - center)) / (1.0 - f.ratio))
    r0 = max(r0 * (1.0 + _BALL_INFLATION), _BALL_FLOOR)
    return center, r0


@dataclass(eq=False)
class IFS:
    """A finite system of contracting similarities with its enclosing ball.

    `separation` is a catalog assertion ("SSC-verified", "OSC-assumed" or
    "unverified"); only the SSC tag is ever checked numerically, when
    `catalog.ifs_from_config` loads a config (`verify_ssc`).
    """

    maps: tuple
    ambient_dim: int
    ball_center: np.ndarray
    ball_radius: float
    separation: str = "unverified"
    label: str = ""
    dense_rotations: bool = False
    ratios: np.ndarray = field(init=False, repr=False)
    angles: np.ndarray = field(init=False, repr=False)
    translations: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # Built once and read-only: threads share one IFS and write nothing.
        self.ratios = np.array([f.ratio for f in self.maps])
        self.angles = np.array([f.angle for f in self.maps])
        self.translations = np.array([f.translation for f in self.maps])
        for a in (self.ratios, self.angles, self.translations):
            a.flags.writeable = False

    @classmethod
    def from_maps(cls, maps, separation="unverified", label="", dense_rotations=False) -> "IFS":
        maps = tuple(maps)
        if len(maps) < 2:
            raise ParameterError("an IFS needs at least two maps")
        dims = {f.dim for f in maps}
        if len(dims) != 1:
            raise ParameterError("all maps must share the ambient dimension")
        if separation not in SEPARATION_TAGS:
            raise ParameterError(f"unknown separation tag {separation!r}")
        center, radius = enclosing_ball(maps)
        return cls(
            maps=maps,
            ambient_dim=dims.pop(),
            ball_center=center,
            ball_radius=radius,
            separation=separation,
            label=label,
            dense_rotations=dense_rotations,
        )

    @property
    def m(self) -> int:
        return len(self.maps)

    @property
    def equal_ratio(self) -> bool:
        r = self.ratios
        return bool(np.all(r == r[0]))

    @property
    def equal_angle(self) -> bool:
        a = self.angles
        return bool(np.all(a == a[0]))

    @property
    def diameter_proxy(self) -> float:
        """2 R0, the disk-model stand-in for the attractor diameter."""
        return 2.0 * self.ball_radius


def validate_word(word, m: int) -> tuple:
    word = tuple(int(s) for s in word)
    for s in word:
        if not 1 <= s <= m:
            raise InvalidWordError(f"symbol {s} outside 1..{m}")
    return word


def compose(ifs: IFS, word):
    """Composition f_{i1} o ... o f_{ik}; the empty word gives IDENTITY."""
    word = validate_word(word, ifs.m)
    out = IDENTITY
    for s in word:
        out = out.compose(ifs.maps[s - 1]) if not out.is_identity else ifs.maps[s - 1]
    return out


@dataclass(eq=False)
class CylinderGeometry:
    """Disk model of one cylinder: diameter is exactly 2 * radius."""

    word: tuple
    map: object
    center: np.ndarray
    radius: float

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius


def cylinder(ifs: IFS, word) -> CylinderGeometry:
    word = validate_word(word, ifs.m)
    comp = compose(ifs, word)
    if comp.is_identity:
        return CylinderGeometry(word, comp, ifs.ball_center.copy(), ifs.ball_radius)
    return CylinderGeometry(
        word, comp, comp.apply(ifs.ball_center), ifs.ball_radius * comp.ratio
    )


def moran_dimension(ratios_or_ifs) -> float:
    """Solve sum_i r_i^s = 1 for s."""
    if isinstance(ratios_or_ifs, IFS):
        ratios = ratios_or_ifs.ratios
    else:
        ratios = np.asarray(ratios_or_ifs, dtype=np.float64)
    if ratios.ndim != 1 or len(ratios) < 1:
        raise ParameterError("need a flat list of ratios")
    if np.any(ratios <= 0.0) or np.any(ratios >= 1.0):
        raise ParameterError("ratios must lie in (0, 1)")

    def f(s):
        return np.sum(ratios ** s) - 1.0

    if len(ratios) == 1:
        return 0.0
    return _decreasing_root(f, 1.0)


def _decreasing_root(f, hi: float) -> float:
    """Root in [0, hi'] of f with f(0) > 0 that decreases in s.

    hi is doubled until f(hi') <= 0, then Brent's method solves the bracket
    [0, hi'].  The solver is a line-for-line port of scipy's brentq.c (the
    same tolerance test xtol + rtol |x|, interpolation, extrapolation and
    bisection rules, and iteration cap), so it returns bitwise the root
    that scipy.optimize.brentq returns.  Serves both dimension equations
    (Moran's and percolation's).
    """
    xtol, rtol, maxiter = 1e-14, 8.9e-16, 200
    while f(hi) > 0.0:
        hi *= 2.0
    xpre, xcur = 0.0, float(hi)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ParameterError("f must change sign over the bracket")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 * delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise ParameterError(f"no root to tolerance in {maxiter} iterations")


# ---------------------------------------------------------------------------
# vectorized composition folding


# Rows per block of the folding, evaluating and slice counting steps: a
# block's gathered rows and index casts (a few MB) are the only temporaries
# beside an output, however many rows a generation has.
_BLOCK_ROWS = 1 << 16


def _row_blocks(n: int):
    """Slices of consecutive rows covering range(n), `_BLOCK_ROWS` each."""
    return (slice(s, s + _BLOCK_ROWS) for s in range(0, n, _BLOCK_ROWS))


def _identity_maps(ifs: IFS, n: int = 1):
    """n copies of the empty-word composition as (ratios, angles, trans):
    the one place that decides that a ratio (angle) every map has is folded
    as one value shared by every row (0-d), and any other per row."""
    ratio = np.float64(1.0) if ifs.equal_ratio else np.ones(n)
    angle = np.float64(0.0) if ifs.equal_angle else np.zeros(n)
    return ratio, angle, np.zeros((n, ifs.ambient_dim))


def _extend(ratios, angles, trans, ifs: IFS, keep=None):
    """The children of composed maps: maps[i] o f_{j + 1} for each (i, j)
    that keep[i, j] holds, in (row, symbol) order.

    keep is an (n, m) bool mask over the n rows and the m symbols, such as
    a percolation generation; None keeps all n*m children (a level of a
    stopping set, or of all words).  (row, symbol) pairs are derived a
    block of parents at a time: the block's slice of the mask compresses
    a table of each slot's row and symbol within a block, and with no mask
    the block's bounds slice the tables as they are.  So no links are
    made for a whole generation.
    """
    size = len(trans) * ifs.m if keep is None else int(np.count_nonzero(keep))
    return _fold(ratios, angles, trans, ifs, size, _parent_links(len(trans), ifs.m, keep))


def _extend_blocks(ratios, angles, trans, ifs: IFS, keep):
    """`_extend` one block of parent rows at a time: yields the children
    of each block in turn, at most max(`_BLOCK_ROWS`, m) of them, so the
    children are never held whole.  Each row is bitwise `_extend`'s."""
    for link in _parent_links(len(trans), ifs.m, keep):
        yield _fold(ratios, angles, trans, ifs, len(link[1]), [link])


def _parent_links(n: int, m: int, keep):
    """The links of `_extend` for n parent rows of m symbols: (parents,
    rows, syms) per block of parent rows whose m children fit in
    `_BLOCK_ROWS` slots (one parent when m exceeds it)."""
    parents = max(1, _BLOCK_ROWS // m)
    width = min(n, parents)
    row_of = np.repeat(np.arange(width), m)
    sym_of = np.tile(np.arange(m), width)
    for lo in range(0, n, parents):
        block = slice(lo, lo + parents)
        c = (min(n, lo + parents) - lo) * m
        if keep is None:
            yield block, row_of[:c], sym_of[:c]
        else:
            slots = keep[block].reshape(-1)
            yield block, np.compress(slots, row_of[:c]), np.compress(slots, sym_of[:c])


def _extend_rows(ratios, angles, trans, ifs: IFS, rows, syms):
    """Per-row one-symbol extensions maps[rows[i]] o f_{syms[i] + 1}, for
    rows in any order and 0-based syms: `_extend` for word batches."""
    links = ((slice(None), rows[b], syms[b]) for b in _row_blocks(len(rows)))
    return _fold(ratios, angles, trans, ifs, len(rows), links)


def _fold(ratios, angles, trans, ifs: IFS, size, links):
    """The one composition step: `size` children of composed maps, made
    block by block from `links`.  For each block of consecutive children,
    links yields (parents, rows, syms): a slice of the parent rows, rows
    within that slice, and 0-based symbols.  Every composition fold
    (stopping sets, sample cell clouds, word batches, iterated systems)
    goes through this step, so a word's composed map is bitwise the same
    whichever fold built it.

    ratios and angles are each either per row or one value shared by every
    row (0-d), as `_identity_maps` decides, and stay so.  A shared value is
    there only when every map has the same one, so it is the float every
    row would have gathered, and the result is the same either way.

    A block's parent values are gathered straight into the outputs, so the
    only generation-sized arrays made are the outputs.  Each row's
    arithmetic does not depend on the blocks: a row's translation is
    fl(parent + step), as a one-shot gather computes it.  Gathers into an
    output use mode "clip", which writes in place; "raise" would first copy
    the output.  rows index their parent slice by construction.  Rows are
    rotated when any parent angle is non-zero: R(0) has cos 1 and sin 0,
    so a row with a zero angle gets the same product either way.
    """
    r, th, a = ifs.ratios, ifs.angles, ifs.translations
    out_r = np.empty(size) if ratios.ndim else ratios * r[0]
    out_th = np.empty(size) if angles.ndim else angles + th[0]
    out_t = np.empty((size, ifs.ambient_dim))
    rotate = ifs.ambient_dim == 2 and bool(np.any(angles != 0.0))
    start = 0
    for parents, rows, syms in links:
        b = slice(start, start + len(rows))
        start = b.stop
        s = syms.astype(np.intp, copy=False)
        t = np.take(trans[parents], rows, axis=0, out=out_t[b], mode="clip")
        br, bth = ratios, angles
        if ratios.ndim:
            br = np.take(ratios[parents], rows, out=out_r[b], mode="clip")
        if angles.ndim:
            bth = np.take(angles[parents], rows, out=out_th[b], mode="clip")
        _add_linear_part(t, br, bth, np.take(a, s, axis=0), rotate)
        # the parent values of the block are spent: extend them in place
        if ratios.ndim:
            br *= r[s]
        if angles.ndim:
            bth += th[s]
    return out_r, out_th, out_t


def _add_linear_part(out, ratios, angles, v, rotate):
    """out += ratios * R(angles) v, row by row, for a point v (d,) or one
    vector per row (n, d); a per-row v is scratch and may be overwritten.

    Without `rotate` the angles are all zero and are not applied.  Each row
    is fl(out + lin), which is bitwise fl(lin + out).
    """
    if rotate:
        ca, sa = np.cos(angles), np.sin(angles)
        x, y = v[..., 0], v[..., 1]
        out[:, 0] += ratios * (ca * x - sa * y)
        out[:, 1] += ratios * (sa * x + ca * y)
    elif v.ndim == 2:
        v *= ratios[..., None]
        out += v
    else:
        for j, vj in enumerate(v):  # a column at a time: no (n, d) temporary
            out[:, j] += ratios * vj


def _all_compositions(ifs: IFS, q: int):
    """Composed maps of all m^q words of length q, lexicographic order."""
    maps = _identity_maps(ifs)
    for _ in range(q):
        maps = _extend(*maps, ifs)
    return maps


def _cell_disks(ifs: IFS, ratios, angles, trans, in_place=False):
    """(centers, radii) of the images of the enclosing ball under composed maps.

    ratios and angles are per row or shared (0-d), as `_extend` makes them.
    Each center is fl(t + a), with t its map's translation and a the image
    of the ball center under its linear part, which is bitwise fl(a + t).
    The centers go into a copy of trans or, with in_place, over trans,
    which the caller must hold alone.  Rows are done a block at a time, so
    a per-row rotation or ratio makes no generation-sized temporary.  A
    shared ratio gives radii as a read-only broadcast of its one value.
    """
    centers = trans if in_place else trans.copy()
    rotate = trans.shape[1] == 2 and np.any(angles != 0.0)
    for b in _row_blocks(len(trans)):
        block_r = ratios[b] if ratios.ndim else ratios
        block_th = angles[b] if angles.ndim else angles
        _add_linear_part(centers[b], block_r, block_th, ifs.ball_center, rotate)
    return centers, _cell_radii(ifs, ratios, len(trans))


def _cell_radii(ifs: IFS, ratios, n: int):
    """The radii of `_cell_disks` for n composed maps of the given ratios."""
    radii = ifs.ball_radius * ratios
    return np.broadcast_to(radii, (n,)) if radii.ndim == 0 else radii


def word_geometry(ifs: IFS, symbols: np.ndarray):
    """Centers and radii for a batch of equal-length words.

    symbols: (n, k) integer array of symbols 1..m, composed first symbol
    first, so the cost is O(n k) and the disks are bitwise every other fold's.
    """
    symbols = np.asarray(symbols)
    if symbols.ndim != 2 or not np.issubdtype(symbols.dtype, np.integer) or (
        symbols.size and not 1 <= symbols.min() <= symbols.max() <= ifs.m
    ):
        raise InvalidWordError(f"symbols must be an (n, k) integer array of 1..{ifs.m}")
    n, k = symbols.shape
    maps = _identity_maps(ifs, n)
    rows = np.arange(n)
    for j in range(k):
        maps = _extend_rows(*maps, ifs, rows, symbols[:, j] - 1)
    return _cell_disks(ifs, *maps, in_place=True)


# ---------------------------------------------------------------------------
# stopping sets


@dataclass(eq=False)
class StoppingSet:
    """A complete prefix-free family {words : rho <= diameter < c1 rho}.

    Rows are in lexicographic word order.  Words are not stored: the cut is
    kept as keep masks, as a percolation sample keeps its generations
    (`_mask_symbols`).  `_frontier[j]` marks the level-j frontier words and
    `_cells[j]` this scale's cells among the m children of each frontier
    word of level j - 1, with the root at level 0; `lengths` and `words()`
    are derived from them.  Ratios are not stored: with one ratio for
    every map, `radii` is a read-only broadcast of one radius.
    """

    ifs: IFS
    rho: float
    c1: float
    centers: np.ndarray
    radii: np.ndarray
    _frontier: list = field(repr=False)
    _cells: dict = field(repr=False)

    def __len__(self) -> int:
        return len(self.centers)

    @property
    def diameters(self) -> np.ndarray:
        return 2.0 * self.radii

    @property
    def lengths(self) -> np.ndarray:
        lengths = np.empty(len(self), dtype=np.int32)
        for level, rows in _lex_rows(self._cells, self._frontier).items():
            lengths[rows] = level
        return lengths

    def words(self) -> list:
        words = [()] * len(self)
        for level, rows in _lex_rows(self._cells, self._frontier).items():
            symbols = _mask_symbols(self._frontier[:level] + [self._cells[level]])
            for row, word in zip(rows.tolist(), symbols.tolist()):
                words[row] = tuple(word)
        return words


def _root() -> np.ndarray:
    """The keep mask of level 0: the root, one kept slot."""
    return np.ones((1, 1), dtype=bool)


def _mask_symbols(masks: list) -> np.ndarray:
    """The (n, k) words, symbols 1..m in row order, that the last of a
    chain of k + 1 keep masks holds: masks[0] is the root, and the true
    slots of each later (n, m) mask, in (row, symbol) order, extend the n
    words of the one before.  uint16, or uint32 once m does not fit it."""
    last, k = masks[-1], len(masks) - 1
    dtype = np.uint16 if last.shape[1] < 1 << 16 else np.uint32
    out = np.empty((np.count_nonzero(last), k), dtype=dtype)
    rows = slice(None)
    for j in range(k, 0, -1):
        parent, symbol = np.nonzero(masks[j])
        out[:, j - 1] = symbol[rows] + 1
        rows = parent[rows]
    return out


def stopping_set(ifs: IFS, rho: float, budget: int = DEFAULT_BUDGET) -> StoppingSet:
    """Enumerate the stopping set at scale rho: the cells of a ladder of
    one scale (`_ladder_cuts`), assembled in lexicographic order.

    c1 is fixed to 1 / min_i r_i, which guarantees every chain of nested
    cylinders crosses [rho, c1 rho) exactly once, so the family is both
    prefix-free and complete.
    """
    (cells,), frontier = _ladder_cuts(ifs, [rho], budget)
    return _assemble(ifs, float(rho), 1.0 / float(ifs.ratios.min()), cells, frontier)


def _ladder_cuts(ifs: IFS, scales, budget: int = DEFAULT_BUDGET):
    """The cells of every scale of a ladder, from one top-down walk:
    (cells, frontier).

    cells[i] maps each level at which scale i has cells (the root is level
    0) to their keep mask among that level's children and their composed
    maps.  frontier[j] is the keep mask of the level-j frontier words, whose
    diameter c0 r is at least the finest cut c1 rho; it is extended a level
    at a time by `_extend`.  A scale's cells are the children below its cut
    whose parent is not (or the root, when c0 is below the cut).  Scales cut
    at the same words share their cells' maps, as cells that are all of a
    level's children share them with the frontier (`_rows_of`): a caller
    that writes over maps must be their last reader.

    The budget check is the single-scale one, emitted + active * m before
    every level, made for the finest scale.  At every level each coarser
    scale's cells and active children are cells, ancestors of cells or
    active children of the finest scale, so its count is never the larger:
    the ladder raises exactly when its finest scale would on its own.
    """
    c0 = ifs.diameter_proxy
    rhos = [float(rho) for rho in scales]
    for rho in rhos:
        if not (0.0 < rho < c0):
            raise OutOfRangeError(f"rho must lie in (0, {c0:.6g}), got {rho}")
    c1 = 1.0 / float(ifs.ratios.min())
    cuts = [c1 * rho for rho in rhos]
    finest = cuts.index(min(cuts))
    maps = _identity_maps(ifs)
    frontier = [_root()]
    cells = [{0: (frontier[0], maps)} if c0 < cut else {} for cut in cuts]
    emitted = len(cells[finest])
    live = range(len(cuts))
    while True:
        diam = np.broadcast_to(c0 * maps[0], (len(maps[2]),))
        active = {i: diam >= cuts[i] for i in live}
        live = [i for i, act in active.items() if act.any()]
        # while any scale is live the finest is, on the whole frontier
        need = emitted + len(diam) * ifs.m if live else emitted
        if need > budget:
            raise BudgetExceededError(need, budget)
        if not live:
            return cells, frontier
        children = _extend(*maps, ifs)
        ch_diam = np.broadcast_to(c0 * children[0], (len(children[2]),))
        level = len(frontier)
        for i in live:
            done = (ch_diam < cuts[i]).reshape(-1, ifs.m)
            done &= active[i][:, None]
            count = np.count_nonzero(done)
            if count:
                cells[i][level] = (done, _rows_of(children, done))
                if i == finest:
                    emitted += count
        keep = (ch_diam >= cuts[finest]).reshape(-1, ifs.m)
        frontier.append(keep)
        maps = _rows_of(children, keep)
        del children


def _rows_of(maps, keep):
    """The rows of composed maps that a mask over them keeps, in order: the
    one row selection of composed maps.  Shared (0-d) values stay shared,
    and a mask that keeps every row returns `maps` itself.  Rows are taken
    by index, several times faster than a boolean index of (n, d) rows."""
    if keep.all():
        return maps
    rows = np.flatnonzero(keep)
    return tuple(np.take(a, rows, axis=0) if a.ndim else a for a in maps)


def _assemble(ifs: IFS, rho: float, c1: float, cells: dict, frontier: list) -> StoppingSet:
    """One scale's stopping set from its cells, in lexicographic order.

    Within a level, children come in (parent, symbol) order, which is
    lexicographic, so cells cut at one level (always so for equal ratios)
    are in order as they stand; cells of several levels are placed by
    `_lex_rows`.  The centers are written over the cells' translations,
    which the walk of one scale leaves to this set alone.
    """
    masks = {level: keep for level, (keep, _) in cells.items()}
    if len(cells) == 1:
        ((_, maps),) = cells.values()
    else:
        rows = _lex_rows(masks, frontier)
        n = sum(len(rows[level]) for level in rows)
        maps = np.empty(n), np.empty(n), np.empty((n, ifs.ambient_dim))
        for level, (_, part) in cells.items():
            for a, b in zip(maps, part):
                a[rows[level]] = b
    centers, radii = _cell_disks(ifs, *maps, in_place=True)
    return StoppingSet(
        ifs=ifs,
        rho=rho,
        c1=c1,
        centers=centers,
        radii=radii,
        _frontier=frontier[: max(masks)],
        _cells=masks,
    )


def _lex_rows(cells: dict, frontier: list) -> dict:
    """Lexicographic row of each cell of one scale, per level.

    cells maps a level to the keep mask of the scale's cells among that
    level's children, as frontier[level] is the mask of its frontier words.
    Each frontier word's count of cells below it is summed up the masks;
    laying the counts out again from the root, in symbol order, gives each
    child the row of its first cell, and a cell the row of itself.
    """
    bottom = max(cells)
    if len(cells) == 1:
        return {bottom: np.arange(np.count_nonzero(cells[bottom]))}
    sizes = {}
    below = None
    for level in range(bottom, 0, -1):
        at = cells[level] if level in cells else np.zeros_like(frontier[level])
        size = at.astype(np.int64)
        if below is not None:
            size[frontier[level]] += below
        sizes[level] = size
        below = size.sum(axis=1)
    rows = {}
    start = np.zeros(1, dtype=np.int64)
    for level in range(1, bottom + 1):
        size = sizes.pop(level)
        first = np.cumsum(size, axis=1) - size + start[:, None]
        if level in cells:
            rows[level] = first[cells[level]]
        start = first[frontier[level]] if level < bottom else None
    return rows


# ---------------------------------------------------------------------------
# derived systems


def iterate_system(ifs: IFS, q: int, budget: int = DEFAULT_BUDGET) -> IFS:
    """The q-fold iterated system: one map per word of length q (m^q maps).

    Maps are ordered lexicographically by word.  The enclosing ball and the
    separation tag carry over (compositions map the ball into itself, and a
    depth-1 separation of the base system nests to depth q).
    """
    if q < 1:
        raise ParameterError("q must be >= 1")
    count = ifs.m ** q
    if count > budget:
        raise BudgetExceededError(count, budget)
    r, th, t = _all_compositions(ifs, q)
    r, th = np.broadcast_to(r, (count,)), np.broadcast_to(th, (count,))
    maps = tuple(
        Similarity(ratio=float(r[i]), angle=float(th[i]), translation=t[i])
        for i in range(count)
    )
    return IFS(
        maps=maps,
        ambient_dim=ifs.ambient_dim,
        ball_center=ifs.ball_center.copy(),
        ball_radius=ifs.ball_radius,
        separation=ifs.separation,
        label=f"{ifs.label}^iter{q}" if ifs.label else f"iterated_{q}",
        dense_rotations=ifs.dense_rotations,
    )


def verify_ssc(ifs: IFS, depth: int = 1, budget: int = DEFAULT_BUDGET) -> bool:
    """Check pairwise disjointness of depth-n cylinder disks, a block of
    rows against all n disks at a time: about `_BLOCK_ROWS` pairs each."""
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    n = ifs.m ** depth
    pairs = n * (n - 1) // 2
    if pairs > budget:
        raise BudgetExceededError(pairs, budget, what="disk pairs")
    centers, radii = _cell_disks(ifs, *_all_compositions(ifs, depth), in_place=True)
    rows = max(1, _BLOCK_ROWS // n)
    for start in range(0, n, rows):
        b = slice(start, start + rows)
        diff = centers[b, None, :] - centers[None, :, :]
        dist = np.sqrt(np.sum(diff ** 2, axis=2))
        own = np.arange(len(dist))
        dist[own, start + own] = np.inf
        if not np.all(dist > radii[b, None] + radii[None, :]):
            return False
    return True
