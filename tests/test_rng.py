import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimlab import rng


def test_mix64_reference_values():
    # splitmix64 with seed 0/1: first outputs of the reference sequence
    assert int(rng.mix64(np.uint64(0))) == 0xE220A8397B1DCDAF
    assert int(rng.mix64(np.uint64(1))) == 0x910A2DEC89025CC1


def test_mix64_vectorizes():
    xs = np.arange(10, dtype=np.uint64)
    batch = rng.mix64(xs)
    single = np.array([rng.mix64(x) for x in xs], dtype=np.uint64)
    assert np.array_equal(batch, single)


def test_uniforms_live_in_unit_interval():
    h = rng.mix64(np.arange(10_000, dtype=np.uint64))
    u = rng.uniform_from_hash(h, rng.SALT_RETAIN)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    # distinct salts give distinct streams
    v = rng.uniform_from_hash(h, rng.SALT_MASK)
    assert not np.array_equal(u, v)


def test_child_hashes_match_extend_hash():
    parents = rng.root_hash(np.arange(5, dtype=np.uint64))
    table = rng.child_hashes(parents, 4)
    assert table.shape == (5, 4)
    for j in range(4):
        col = rng.extend_hash(parents, np.full(5, j + 1, dtype=np.uint64))
        assert np.array_equal(table[:, j], col)


def test_in_place_hashing_is_the_copying_form():
    parents = rng.root_hash(np.arange(5, dtype=np.uint64))
    want = rng.child_hashes(parents, 4)
    # buffers and a symbol table for more parents than hashed, as in blocks
    table = rng.symbol_table(4, 7)
    out, scratch = np.empty(28, dtype=np.uint64), np.empty(28, dtype=np.uint64)
    got = rng.child_hashes(parents, 4, out=out[:20], scratch=scratch[:20], table=table)
    assert np.shares_memory(got, out) and np.array_equal(got, want)
    x = np.arange(20, dtype=np.uint64)
    assert rng.mix64(x, out=x, scratch=scratch[:20]) is x
    assert np.array_equal(x, rng.mix64(np.arange(20, dtype=np.uint64)))


def test_path_hash_ignores_construction_order():
    """h(w) depends on the path alone, not on how siblings were expanded."""
    root = rng.root_hash(np.uint64(99))
    a = rng.child_hashes(rng.child_hashes(root.reshape(1), 3)[0, 1:2].reshape(1), 3)
    b = rng.extend_hash(
        rng.extend_hash(root.reshape(1), np.array([2], dtype=np.uint64)),
        np.array([1], dtype=np.uint64),
    )
    assert int(a[0, 0]) == int(b[0])


def test_derive_seed_is_injective_in_practice():
    seeds = rng.derive_seed(np.uint64(7), np.arange(100_000, dtype=np.uint64))
    assert len(np.unique(seeds)) == 100_000


def test_level_uniforms_prefix_stable():
    long = rng.level_uniforms(np.uint64(5), 3, 50)
    short = rng.level_uniforms(np.uint64(5), 3, 20)
    assert np.array_equal(long[:20], short)


def test_level_uniforms_distinct_across_levels_and_seeds():
    a = rng.level_uniforms(np.uint64(5), 0, 16)
    b = rng.level_uniforms(np.uint64(5), 1, 16)
    c = rng.level_uniforms(np.uint64(6), 0, 16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_level_uniforms_count_cap():
    with pytest.raises(ValueError):
        rng.level_uniforms(np.uint64(1), 0, 1 << 32)


@given(seed=st.integers(0, 2**64 - 1), level=st.integers(0, 2**30))
@settings(max_examples=40, deadline=None)
def test_level_uniforms_deterministic(seed, level):
    a = rng.level_uniforms(np.uint64(seed), level, 8)
    b = rng.level_uniforms(np.uint64(seed), level, 8)
    assert np.array_equal(a, b)
    assert np.all((a >= 0.0) & (a < 1.0))
