"""Counter-based randomness keyed by (seed, word path).

Every random decision in the tree samplers is a pure function of the global
seed and a stable 64-bit hash of the word path, so results do not depend on
traversal order, chunking, or thread count.  The mixer is the standard
splitmix64 finalizer, applied over uint64 numpy arrays so millions of nodes
can be keyed in one vectorized pass (numpy's counter-based bit generators
cannot batch across distinct keys, which is the access pattern here).

`mix64` is the one hashing entry point.  It runs every splitmix64 step in
place on one array with one scratch array.  Called on its own it copies its
input and makes the scratch, two arrays of the input's size; given `out`
(which may be the input itself) and `scratch`, it allocates nothing.  Tree
expansion uses the in-place form on blocks of about 16k child hashes,
buffers that each expansion allocates once and that stay in cache.
`symbol_table` mixes the symbols 1..m once per call and tiles them in
(parent, symbol) order, so an expansion mixes them once and nothing is
cached between calls; `child_hashes` xors that table with the repeated
parent hashes, flat, into a caller's buffer or a fresh one; the repeat
(`np.repeat`) is one more array of that size per call.  A
draw is the top 53 bits of a mixed hash: `uniform_from_hash` scales them
into [0, 1), and the samplers' keep rule compares them with an integer
threshold ceil(p * 2^53) instead, which is the same test as `uniform < p`
(see `percolation.OffspringLaw._retain_thresholds`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mix64",
    "uniform_from_hash",
    "root_hash",
    "child_hashes",
    "derive_seed",
    "level_uniforms",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Fixed stream salts.  Distinct salts keep the retention draw, the mask draw,
# and the path-chaining hash independent of each other.
SALT_TREE = np.uint64(0x1B873593C9E3779B)
SALT_RETAIN = np.uint64(0x85EBCA6B9E3779B9)
SALT_MASK = np.uint64(0xC2B2AE3D27D4EB4F)
SALT_LEVEL = np.uint64(0x27D4EB2F165667C5)
SALT_SUBSEED = np.uint64(0x165667B19E3779F9)

_TO_UNIT = 2.0 ** -53


def mix64(x, out=None, scratch=None) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 input.

    The steps run in place in `out` (a uint64 array of the input's shape,
    possibly the input itself) with `scratch` (another one) as the shift
    buffer; missing ones are allocated, so by default the call works on one
    copy of the input.  A 0-d input gives a numpy scalar, as the operator
    form of the same steps does.
    """
    if out is None:
        z = np.array(x, dtype=np.uint64)  # in-place array ops wrap without warnings
    else:
        z = out
        if x is not out:
            z[...] = x
    t = np.empty_like(z) if scratch is None else scratch
    z += _GOLDEN
    np.right_shift(z, 30, out=t)
    z ^= t
    z *= _MIX1
    np.right_shift(z, 27, out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, 31, out=t)
    z ^= t
    return z if z.ndim else z[()]


def uniform_from_hash(h, salt) -> np.ndarray:
    """Map hashes to floats in [0, 1), on an independent stream per salt."""
    with np.errstate(over="ignore"):
        z = mix64(np.asarray(h, dtype=np.uint64) ^ salt)
    return (z >> np.uint64(11)).astype(np.float64) * _TO_UNIT


def root_hash(seed) -> np.ndarray:
    """Hash of the empty word for a given seed (or array of seeds)."""
    with np.errstate(over="ignore"):
        return mix64(mix64(np.asarray(seed, dtype=np.uint64)) ^ SALT_TREE)


def child_hashes(
    parent: np.ndarray, m: int, out=None, scratch=None, table=None
) -> np.ndarray:
    """Hashes of the m children of each parent word; shape (n, m).

    Symbols are 1..m.  The chain h(w . i) = mix(h(w) ^ mix(i)) makes the
    hash a function of the path alone.  The n*m hashes are made flat in
    (parent, symbol) order, in `out` when given (mixed there with
    `scratch`, see `mix64`), and returned as an (n, m) view.  `table` is
    `symbol_table(m, k)` for any k >= n, so a caller hashing block after
    block tiles it once; by default it is tiled for this call.
    """
    parent = np.asarray(parent, dtype=np.uint64)
    n = len(parent)
    if table is None:
        table = symbol_table(m, n)
    z = np.bitwise_xor(np.repeat(parent, m), table[: n * m], out=out)
    return mix64(z, out=z, scratch=scratch).reshape(n, m)


def symbol_table(m: int, parents: int, out=None) -> np.ndarray:
    """mix(1), ..., mix(m), mixed once per call and tiled for `parents`
    parents, flat in (parent, symbol) order, in `out` when given: the table
    `child_hashes` xors the repeated parent hashes with."""
    if out is None:
        out = np.empty(parents * m, dtype=np.uint64)
    out.reshape(parents, m)[...] = mix64(np.arange(1, m + 1, dtype=np.uint64))
    return out


def extend_hash(parent: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Hash of each parent word extended by its own symbol (elementwise)."""
    with np.errstate(over="ignore"):
        return mix64(
            np.asarray(parent, dtype=np.uint64)
            ^ mix64(np.asarray(symbols, dtype=np.uint64))
        )


def derive_seed(seed, index) -> np.ndarray:
    """Child seed for trial `index` under a master seed (vectorizable)."""
    with np.errstate(over="ignore"):
        return mix64(
            mix64(np.asarray(seed, dtype=np.uint64) ^ SALT_SUBSEED)
            ^ mix64(np.asarray(index, dtype=np.uint64))
        )


def level_uniforms(seed, level: int, count: int) -> np.ndarray:
    """Uniforms u(seed, level, 0..count-1) for per-level vector draws."""
    if count >= 1 << 32:
        raise ValueError("per-level draw count must fit in 32 bits")
    base = np.uint64(int(level) << 32)
    with np.errstate(over="ignore"):
        counters = base + np.arange(count, dtype=np.uint64)
        keyed = mix64(np.asarray(seed, dtype=np.uint64) ^ SALT_LEVEL) ^ counters
    return uniform_from_hash(keyed, SALT_LEVEL)
