"""Self-similar iterated function systems and their cylinder geometry.

Maps are orientation-preserving contracting similarities x -> r R(angle) x + a
(rotations only in the plane; higher-dimensional systems must be homotheties).
Cylinder sets are modelled by enclosing disks: once a ball B(c, R0) with
f_i(B) inside B for every map is fixed, the cylinder [i1..ik] is represented
by the image disk, whose diameter is exactly 2 R0 r_{i1}...r_{ik}.  All
coverings, slice counts and projections in the other modules are computed
against these disks, never against convex hulls.
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
    "unverified"); only the SSC tag is ever checked numerically.
    """

    maps: tuple
    ambient_dim: int
    ball_center: np.ndarray
    ball_radius: float
    separation: str = "unverified"
    label: str = ""
    dense_rotations: bool = False
    _arrays: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_maps(cls, maps, separation="unverified", label="",
                  dense_rotations=False, allow_single=False) -> "IFS":
        maps = tuple(maps)
        if len(maps) < (1 if allow_single else 2):
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

    def _cached(self, key, fn):
        if key not in self._arrays:
            self._arrays[key] = fn()
        return self._arrays[key]

    @property
    def ratios(self) -> np.ndarray:
        return self._cached("ratios", lambda: np.array([f.ratio for f in self.maps]))

    @property
    def angles(self) -> np.ndarray:
        return self._cached("angles", lambda: np.array([f.angle for f in self.maps]))

    @property
    def translations(self) -> np.ndarray:
        return self._cached(
            "translations", lambda: np.array([f.translation for f in self.maps])
        )

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


def _identity_maps(n: int, d: int):
    """n copies of the empty-word composition as (ratios, angles, trans)."""
    return np.ones(n), np.zeros(n), np.zeros((n, d))


def _extend(ratios, angles, trans, ifs: IFS, rows, syms):
    """Per-row one-symbol extensions: maps[rows[i]] o f_{syms[i] + 1}.

    syms are 0-based.  Every composition fold (stopping sets, sample cell
    clouds, word batches, iterated systems) goes through this step, so a
    word's composed map is bitwise the same whichever fold built it.

    ratios and angles are each either per row or one value shared by every
    row (0-d).  A shared value is only passed where every map has the same
    one (IFS.equal_ratio, IFS.equal_angle) and stays shared; a per-row value
    stays per row.  A shared value is the float every row would have
    gathered, so the result is the same either way.
    """
    r, th, a = ifs.ratios, ifs.angles, ifs.translations
    pr = _per_row(ratios, rows)
    pth = _per_row(angles, rows)
    # np.take gathers rows of a 2-d array much faster than fancy indexing
    if ifs.ambient_dim == 2 and np.any(pth != 0.0):
        ca, sa = np.cos(pth), np.sin(pth)
        ax, ay = np.take(a, syms, axis=0).T
        out_t = np.take(trans, rows, axis=0)
        out_t[:, 0] += pr * (ca * ax - sa * ay)
        out_t[:, 1] += pr * (sa * ax + ca * ay)
    else:
        out_t = np.take(a, syms, axis=0)
        out_t *= pr[..., None]
        out_t += np.take(trans, rows, axis=0)
    return _step(np.multiply, pr, r, syms), _step(np.add, pth, th, syms), out_t


def _per_row(values, rows):
    """The parent values of `rows`: a shared (0-d) value stays shared."""
    return values[rows] if values.ndim else values


def _step(op, parent, own, syms):
    """parent op own[syms], with own the maps' values.

    A gathered per-row parent is a fresh array and takes the result in
    place.  A shared parent comes with a value shared by every map.
    """
    if parent.ndim:
        return op(parent, own[syms], out=parent)
    return op(parent, own[0])


def _compose_step(ratios, angles, trans, ifs: IFS):
    """All one-symbol extensions of composed maps, row-major (word, symbol)."""
    n, m = len(ratios), ifs.m
    rows = np.repeat(np.arange(n), m)
    syms = np.tile(np.arange(m), n)
    return _extend(ratios, angles, trans, ifs, rows, syms)


def _all_compositions(ifs: IFS, q: int):
    """Composed maps of all m^q words of length q, lexicographic order."""
    maps = _identity_maps(1, ifs.ambient_dim)
    for _ in range(q):
        maps = _compose_step(*maps, ifs)
    return maps


def _apply_composed(ratios, angles, trans, point):
    """Evaluate each composed map at a single point; returns (n, d).

    ratios and angles are per row or shared (0-d), as `_extend` makes them.
    """
    d = trans.shape[1]
    if d == 2 and np.any(angles != 0.0):
        ca, sa = np.cos(angles), np.sin(angles)
        x, y = point[0], point[1]
        out = np.empty_like(trans)
        out[:, 0] = ratios * (ca * x - sa * y) + trans[:, 0]
        out[:, 1] = ratios * (sa * x + ca * y) + trans[:, 1]
        return out
    return ratios[..., None] * np.asarray(point) + trans


def _cell_disks(ifs: IFS, ratios, angles, trans):
    """(centers, radii) of the images of the enclosing ball under composed maps.

    A shared ratio gives radii as a read-only broadcast of its one value.
    """
    centers = _apply_composed(ratios, angles, trans, ifs.ball_center)
    radii = ifs.ball_radius * ratios
    if radii.ndim == 0:
        radii = np.broadcast_to(radii, (len(trans),))
    return centers, radii


def word_geometry(ifs: IFS, symbols: np.ndarray):
    """Centers and radii for a batch of equal-length words.

    symbols: (n, k) array of symbols 1..m, composed first symbol first, so
    the cost is O(n k) and the result matches every other fold bitwise.
    """
    symbols = np.asarray(symbols)
    n, k = symbols.shape
    maps = _identity_maps(n, ifs.ambient_dim)
    rows = np.arange(n)
    for j in range(k):
        maps = _extend(*maps, ifs, rows, symbols[:, j] - 1)
    return _cell_disks(ifs, *maps)


# ---------------------------------------------------------------------------
# stopping sets


@dataclass(eq=False)
class StoppingSet:
    """A complete prefix-free family {words : rho <= diameter < c1 rho}.

    Stored columnar (words padded with 0) in lexicographic order; `words()`
    materializes python tuples lazily.
    """

    ifs: IFS
    rho: float
    c1: float
    lengths: np.ndarray
    symbols: np.ndarray
    ratios: np.ndarray
    angles: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    _words: list | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def diameters(self) -> np.ndarray:
        return 2.0 * self.radii

    @property
    def max_depth(self) -> int:
        return int(self.lengths.max()) if len(self.lengths) else 0

    def words(self) -> list:
        if self._words is None:
            self._words = [
                tuple(int(s) for s in self.symbols[i, : self.lengths[i]])
                for i in range(len(self))
            ]
        return self._words


def stopping_set(ifs: IFS, rho: float, budget: int = DEFAULT_BUDGET) -> StoppingSet:
    """Enumerate the stopping set at scale rho.

    c1 is fixed to 1 / min_i r_i, which guarantees every chain of nested
    cylinders crosses [rho, c1 rho) exactly once, so the family is both
    prefix-free and complete.
    """
    c0 = ifs.diameter_proxy
    if not (0.0 < rho < c0):
        raise OutOfRangeError(f"rho must lie in (0, {c0:.6g}), got {rho}")
    c1 = 1.0 / float(ifs.ratios.min())
    cut = c1 * rho

    fin_sym, fin_len, fin_r, fin_th, fin_t = [], [], [], [], []
    total = 0

    def emit(sym, rr, th, tt):
        nonlocal total
        total += len(rr)
        if total > budget:
            raise BudgetExceededError(total, budget)
        fin_sym.append(sym)
        fin_len.append(np.full(len(rr), sym.shape[1], dtype=np.int32))
        fin_r.append(rr)
        fin_th.append(th)
        fin_t.append(tt)

    # level 0: the empty word
    act_sym = np.zeros((1, 0), dtype=np.uint16)
    act_r, act_th, act_t = _identity_maps(1, ifs.ambient_dim)
    if c0 < cut:
        emit(act_sym, act_r, act_th, act_t)
        act_sym = act_sym[:0]
        act_r, act_th, act_t = act_r[:0], act_th[:0], act_t[:0]

    m = ifs.m
    while len(act_r):
        if total + len(act_r) * m > budget:
            raise BudgetExceededError(total + len(act_r) * m, budget)
        ch_r, ch_th, ch_t = _compose_step(act_r, act_th, act_t, ifs)
        k = act_sym.shape[1]
        ch_sym = np.empty((len(act_r) * m, k + 1), dtype=np.uint16)
        ch_sym[:, :k] = np.repeat(act_sym, m, axis=0)
        ch_sym[:, k] = np.tile(np.arange(1, m + 1, dtype=np.uint16), len(act_r))
        diam = c0 * ch_r
        done = diam < cut
        if np.any(done):
            emit(ch_sym[done], ch_r[done], ch_th[done], ch_t[done])
        keep = ~done
        act_sym, act_r, act_th, act_t = (
            ch_sym[keep],
            ch_r[keep],
            ch_th[keep],
            ch_t[keep],
        )

    lengths = np.concatenate(fin_len) if fin_len else np.zeros(0, dtype=np.int32)
    n = len(lengths)
    lmax = int(lengths.max()) if n else 0
    symbols = np.zeros((n, lmax), dtype=np.uint16)
    row = 0
    for block in fin_sym:
        symbols[row : row + len(block), : block.shape[1]] = block
        row += len(block)
    ratios = np.concatenate(fin_r) if fin_r else np.zeros(0)
    angles = np.concatenate(fin_th) if fin_th else np.zeros(0)
    trans = np.concatenate(fin_t) if fin_t else np.zeros((0, ifs.ambient_dim))

    if n and lmax:
        order = np.lexsort(tuple(symbols[:, j] for j in range(lmax - 1, -1, -1)))
        lengths, symbols = lengths[order], symbols[order]
        ratios, angles, trans = ratios[order], angles[order], trans[order]

    centers, radii = _cell_disks(ifs, ratios, angles, trans)
    return StoppingSet(
        ifs=ifs,
        rho=rho,
        c1=c1,
        lengths=lengths,
        symbols=symbols,
        ratios=ratios,
        angles=angles,
        centers=centers,
        radii=radii,
    )


def overlap_count(stopping: StoppingSet, point) -> int:
    """Number of stopping-set disks containing the point (boundary counts)."""
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (stopping.ifs.ambient_dim,):
        raise ParameterError("point dimension mismatch")
    d2 = np.sum((stopping.centers - p) ** 2, axis=1)
    return int(np.count_nonzero(d2 <= stopping.radii ** 2))


# ---------------------------------------------------------------------------
# derived systems


def attractor_points(ifs: IFS, depth: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Images of the ball center under all depth-n cylinder maps (m^n points)."""
    if depth < 0:
        raise ParameterError("depth must be >= 0")
    count = ifs.m ** depth
    if count > budget:
        raise BudgetExceededError(count, budget)
    return _apply_composed(*_all_compositions(ifs, depth), ifs.ball_center)


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


def _distinct_permutations(items):
    """Distinct orderings of a multiset as tuples, in lexicographic order.

    Walks the next-permutation successor from the sorted order, so each
    ordering is produced once however many repeated items there are.
    """
    seq = sorted(items)
    while True:
        yield tuple(seq)
        i = len(seq) - 2
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(seq) - 1
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = seq[:i:-1]


@dataclass(eq=False)
class SubsystemResult:
    ifs: IFS
    moran_dim: float
    word_count: int
    words: list


def equal_rotation_subsystem(
    ifs: IFS, counts, budget: int = DEFAULT_BUDGET
) -> SubsystemResult:
    """All distinct orderings of a multiset of maps, as one subsystem.

    With counts = (n_1, ..., n_m), every ordering composes to the same
    contraction ratio prod r_i^{n_i} and rotation sum n_i angle_i, so the
    subsystem is an equal-ratio, equal-rotation IFS.  Ratio and angle are
    canonicalized to one shared float so the equality is exact.
    """
    counts = [int(c) for c in counts]
    if len(counts) != ifs.m or any(c < 0 for c in counts) or sum(counts) < 1:
        raise ParameterError("counts must be non-negative with positive sum")
    total = sum(counts)
    n_words = math.factorial(total)
    for c in counts:
        n_words //= math.factorial(c)
    if n_words > budget:
        raise BudgetExceededError(n_words, budget)

    ratio = 1.0
    angle = 0.0
    for i, c in enumerate(counts):
        ratio *= ifs.maps[i].ratio ** c
        angle += ifs.maps[i].angle * c

    multiset = []
    for i, c in enumerate(counts):
        multiset.extend([i + 1] * c)
    words = list(_distinct_permutations(multiset))
    maps = []
    for w in words:
        comp = compose(ifs, w)
        maps.append(Similarity(ratio=ratio, angle=angle, translation=comp.translation))
    sub = IFS(
        maps=tuple(maps),
        ambient_dim=ifs.ambient_dim,
        ball_center=ifs.ball_center.copy(),
        ball_radius=ifs.ball_radius,
        separation=ifs.separation,
        label=f"{ifs.label}|counts={tuple(counts)}" if ifs.label else "subsystem",
        dense_rotations=ifs.dense_rotations,
    )
    dim = moran_dimension(np.full(n_words, ratio))
    return SubsystemResult(ifs=sub, moran_dim=dim, word_count=n_words, words=words)


def verify_ssc(ifs: IFS, depth: int = 1, budget: int = DEFAULT_BUDGET) -> bool:
    """Check pairwise disjointness of depth-n cylinder disks."""
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    n = ifs.m ** depth
    if n > budget or n * (n - 1) // 2 > budget:
        raise BudgetExceededError(n * (n - 1) // 2, budget, what="disk pairs")
    centers, radii = _cell_disks(ifs, *_all_compositions(ifs, depth))
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt(np.sum(diff ** 2, axis=2))
    need = radii[:, None] + radii[None, :]
    np.fill_diagonal(dist, np.inf)
    return bool(np.all(dist > need))
