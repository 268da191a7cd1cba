"""Independent reference implementations used to cross-check the library.

Everything here is written in the most literal way possible (scalar loops,
fractions.Fraction where exactness matters) and deliberately shares no code
with dimlab beyond the public dataclasses it checks against.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from dimlab import IDENTITY, IFS, Direction


# digit -> number of carpet cells in that column of the 3x3 template
CARPET_COLUMN_CELLS = {0: 3, 1: 2, 2: 3}


def carpet_slice_count(ifs: IFS, x: float, depth: int) -> int:
    """Exact N(x, rho) for a vertical line through the carpet covering.

    The depth-k covering disks of the carpet share one radius R0 * 3^-k and
    their centers' first coordinates depend only on the column word, so the
    count is a sum of column products: for each column word that the line
    reaches, multiply the per-digit cell counts.
    """
    radius = ifs.ball_radius * 3.0 ** -depth
    cx0 = float(ifs.ball_center[0]) * 3.0 ** -depth
    total = 0
    for digits in itertools.product((0, 1, 2), repeat=depth):
        cx = cx0 + sum(d * 3.0 ** -(t + 1) for t, d in enumerate(digits))
        if abs(cx - x) <= radius:
            prod = 1
            for d in digits:
                prod *= CARPET_COLUMN_CELLS[d]
            total += prod
    return total


def compose_word(ifs: IFS, word):
    """Left-to-right scalar composition using only Similarity.compose."""
    g = IDENTITY
    for s in word:
        g = g.compose(ifs.maps[s - 1])
    return g


def extend_one_shot(ratios, angles, trans, ifs: IFS, rows, syms):
    """One-symbol extensions maps[rows[i]] o f_{syms[i] + 1}, gathering
    every row at once.

    The arithmetic of the fold step, written out on whole arrays: ratio
    r_p * r_s, angle t_p + t_s, translation a_p + r_p R(t_p) a_s.  A 0-d
    ratio or angle is one value shared by every row and stays shared.
    """
    r, th, a = ifs.ratios, ifs.angles, ifs.translations
    pr = ratios[rows] if ratios.ndim else ratios
    pth = angles[rows] if angles.ndim else angles
    out_t = trans[rows]
    step = a[syms]
    if ifs.ambient_dim == 2 and np.any(pth != 0.0):
        ca, sa = np.cos(pth), np.sin(pth)
        out_t[:, 0] += pr * (ca * step[:, 0] - sa * step[:, 1])
        out_t[:, 1] += pr * (sa * step[:, 0] + ca * step[:, 1])
    else:
        out_t += pr[..., None] * step
    new_r = pr * r[syms] if pr.ndim else pr * r[0]
    new_th = pth + th[syms] if pth.ndim else pth + th[0]
    return new_r, new_th, out_t


def slice_count_bracket(ifs: IFS, direction: Direction, x: float, rho: float):
    """(lower, upper) slice counts from a scalar stopping-set enumeration.

    The bracket widens the disk radius by a relative 1e-9 both ways so the
    comparison never hinges on a last-ulp boundary tie.
    """
    c0 = ifs.diameter_proxy
    cut = rho / float(ifs.ratios.min())
    lo = hi = 0
    stack = [IDENTITY]
    while stack:
        g = stack.pop()
        diam = c0 if g.is_identity else c0 * g.ratio
        if diam < cut:
            center = g.apply(ifs.ball_center)
            rad = ifs.ball_radius * (1.0 if g.is_identity else g.ratio)
            dist = abs(float(center @ direction.vector) - x)
            if dist <= rad * (1.0 + 1e-9):
                hi += 1
            if dist <= rad * (1.0 - 1e-9):
                lo += 1
        else:
            for f in ifs.maps:
                stack.append(g.compose(f))
    return lo, hi


def stopping_words(ifs: IFS, rho: float):
    """(words, checks): the stopping set at rho, level by level with scalar maps.

    words are sorted lexicographically.  checks are the counts the
    level-by-level enumeration compares with its budget, one per level:
    the words stopped so far plus m children per word still active (a
    stopped root counts one).  The cut is c1 rho with c1 = 1 / min r_i, as
    the library defines it.
    """
    c0 = ifs.diameter_proxy
    cut = (1.0 / min(f.ratio for f in ifs.maps)) * rho
    words, checks = [], []
    level = [((), IDENTITY)]
    while level:
        active = []
        for w, g in level:
            if (c0 if g.is_identity else c0 * g.ratio) < cut:
                words.append(w)
            else:
                active.append((w, g))
        checks.append(len(words) + len(active) * ifs.m)
        level = [
            (w + (s,), g.compose(f))
            for w, g in active
            for s, f in enumerate(ifs.maps, 1)
        ]
    return sorted(words), checks


def union_length_naive(lo, hi) -> float:
    """Sorted sweep over interval endpoints, one interval at a time."""
    pairs = sorted((float(a), float(b)) for a, b in zip(lo, hi))
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in pairs:
        if cur_lo is None:
            cur_lo, cur_hi = a, b
        elif a > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def alignment_fractions_naive(r, theta, b, gamma, q, k, big_n, taus, beta):
    """Per-tau alignment fractions via explicit python loops."""
    threshold = r ** (2 * q * k) / 15.0
    qk = q * k
    out = []
    for tau in taus:
        good = 0
        for n in range(1, big_n + 1):
            try:
                scale = r ** float(q - qk * (big_n - n))
            except OverflowError:
                scale = math.inf
            # same multiplication order as the vectorized code, so values
            # agree to the last ulp and threshold ties cannot disagree
            v = (b * tau) * (scale * math.cos(beta + gamma - n * qk * theta))
            if not math.isfinite(v) or abs(v) >= 2.0 ** 53:
                continue
            if abs(v - round(v)) <= threshold:
                good += 1
        out.append(good / big_n)
    return out


def alignment_scan_dense(params, betas):
    """Per-beta alignment fractions over the whole tau x N matrix.

    No column is skipped: every (tau, n) value is built, rounded and tested.
    Returns (fractions of shape (betas, taus), max fractions, witness taus).
    """
    r, q, k, big_n = params.r, params.q, params.k, params.big_n
    taus = np.geomspace(1.0, r ** (-q * k), params.tau_grid)
    threshold = r ** (2 * q * k) / 15.0
    n = np.arange(1, big_n + 1, dtype=np.float64)
    qk = q * k
    with np.errstate(over="ignore"):
        scales = r ** (q - qk * (big_n - n))
    phase = params.gamma - n * qk * params.theta
    rows = []
    for beta in betas:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = params.b * taus[:, None] * (scales * np.cos(beta + phase))[None, :]
            dist = np.abs(vals - np.round(vals))
            aligned = (np.abs(vals) < 2.0 ** 53) & (dist <= threshold)
        rows.append(aligned.mean(axis=1))
    fractions = np.array(rows)
    best = np.argmax(fractions, axis=1)
    return fractions, fractions[np.arange(len(rows)), best], taus[best]


# splitmix64 and the keep rules, on python ints.  The constants are the
# published splitmix64 ones and the stream salts of the tree samplers; they
# are restated here so that nothing is imported from dimlab's rng.
MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
SALT_TREE = 0x1B873593C9E3779B
SALT_RETAIN = 0x85EBCA6B9E3779B9
SALT_MASK = 0xC2B2AE3D27D4EB4F


def splitmix64(x: int) -> int:
    z = (x + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def _unxorshift(y: int, shift: int) -> int:
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def unsplitmix64(z: int) -> int:
    """Inverse of splitmix64: unsplitmix64(splitmix64(x)) == x."""
    z = _unxorshift(z, 31)
    z = (z * pow(MIX2, -1, 1 << 64)) & MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(MIX1, -1, 1 << 64)) & MASK64
    z = _unxorshift(z, 30)
    return (z - GOLDEN) & MASK64


def root_hash(seed: int) -> int:
    return splitmix64(splitmix64(seed) ^ SALT_TREE)


def child_hash(h: int, symbol: int) -> int:
    """Hash of a word extended by `symbol` (1-based)."""
    return splitmix64(h ^ splitmix64(symbol))


def uniform(h: int, salt: int) -> float:
    """The top 53 bits of splitmix64(h ^ salt), scaled into [0, 1)."""
    return (splitmix64(h ^ salt) >> 11) * 2.0 ** -53


def hash_for_draw(top: int, salt: int) -> int:
    """A hash whose draw on `salt` has top 53 bits exactly `top`."""
    assert 0 <= top < 1 << 53
    return unsplitmix64(top << 11) ^ salt


def seed_for_root_hash(h: int) -> int:
    """The seed whose root hash is `h`."""
    return unsplitmix64(unsplitmix64(h) ^ SALT_TREE)


def seed_for_root_uniform(u: float, salt: int) -> int:
    """A seed whose root hash draws exactly `u` (a multiple of 2^-53) on `salt`."""
    top = int(u * 2.0 ** 53)
    assert top * 2.0 ** -53 == u
    return seed_for_root_hash(hash_for_draw(top, salt))


def seed_for_child_hash(c: int, symbol: int) -> int:
    """A seed whose root's child `symbol` (1-based) has hash `c`."""
    return seed_for_root_hash(unsplitmix64(c) ^ splitmix64(symbol))


def standard_rule(retain):
    """Independent law: child i of a word is kept when its own hash draws
    below retain[i]."""

    def keeps(parent: int, child: int, i: int) -> bool:
        return uniform(child, SALT_RETAIN) < retain[i]

    return keeps


def table_rule(masks, probs):
    """Table law: the parent's hash draws u; the kept mask is the first one
    whose cumulative probability exceeds u (the last one if none does)."""

    def keeps(parent: int, child: int, i: int) -> bool:
        u = uniform(parent, SALT_MASK)
        acc = 0.0
        for mask, p in zip(masks, probs):
            acc += p
            if u < acc:
                return bool(mask[i])
        return bool(masks[-1][i])

    return keeps


def surviving_words(seed: int, m: int, depth: int, keeps):
    """Per depth, in lexicographic order, every word all of whose prefixes
    the rule keeps; each of the m^k words of length k is walked on its own."""
    out = []
    for k in range(depth + 1):
        kept = []
        for word in itertools.product(range(1, m + 1), repeat=k):
            h, alive = root_hash(seed), True
            for s in word:
                c = child_hash(h, s)
                alive = alive and keeps(h, c, s - 1)
                h = c
            if alive:
                kept.append(word)
        out.append(kept)
    return out


def splitmix64_array(x) -> np.ndarray:
    """splitmix64 over a uint64 array, one whole-array expression per step."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + np.uint64(GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
        return z ^ (z >> np.uint64(31))


def _uniforms(h, salt: int) -> np.ndarray:
    top = splitmix64_array(np.asarray(h, dtype=np.uint64) ^ np.uint64(salt)) >> np.uint64(11)
    return top.astype(np.float64) * 2.0 ** -53


def grow_whole_generations(seeds, depth, m, retain=None, masks=None, probs=None):
    """Reference expansion of the trees of `seeds` as one forest, unblocked.

    Yields (parent rows, 1-based symbols) per generation.  Each generation
    hashes, draws and keeps all n*m children of its n parents at once: an
    independent law (`retain`) keeps child i when its own hash draws below
    retain[i]; a table law (`masks`, `probs`) keeps the mask whose
    cumulative probability first exceeds the parent's draw.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    hashes = splitmix64_array(splitmix64_array(seeds) ^ np.uint64(SALT_TREE))
    syms = splitmix64_array(np.arange(1, m + 1, dtype=np.uint64))
    for _ in range(depth):
        child = splitmix64_array(hashes[:, None] ^ syms[None, :])
        if masks is None:
            keep = _uniforms(child, SALT_RETAIN) < np.asarray(retain)[None, :]
        else:
            u = _uniforms(hashes, SALT_MASK)
            pick = np.searchsorted(np.cumsum(probs), u, side="right")
            keep = np.asarray(masks)[np.minimum(pick, len(probs) - 1)] != 0
        rows, cols = np.nonzero(keep)
        yield rows, cols + 1
        hashes = child[rows, cols]


def gw_extinction_by_depth(m: int, p: float, depth: int, trials: int, seed: int):
    """Fraction of Galton-Watson trees extinct by `depth`.

    Offspring ~ Binomial(m, p) per individual, so a generation of z parents
    produces Binomial(m*z, p) children.  Populations are capped at 10^4;
    survival from there is certain at any supercritical p.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    z = np.ones(trials, dtype=np.int64)
    for _ in range(depth):
        alive = z > 0
        z[alive] = gen.binomial(m * np.minimum(z[alive], 10_000), p)
    return float(np.mean(z == 0))
