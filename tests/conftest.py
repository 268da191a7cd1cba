import numpy as np
import pytest

import dimlab as dl


@pytest.fixture(scope="session")
def carpet():
    return dl.load_ifs("sierpinski_carpet")


@pytest.fixture(scope="session")
def square():
    return dl.load_ifs("unit_square")


@pytest.fixture(scope="session")
def triangle():
    return dl.load_ifs("sierpinski_triangle")


@pytest.fixture(scope="session")
def rot3():
    return dl.load_ifs("rotational_m3")


@pytest.fixture(scope="session")
def cantor_interval():
    return dl.load_ifs("product_cantor_interval")


@pytest.fixture(scope="session")
def gasket_1d():
    return dl.load_ifs("sierpinski_1d")


@pytest.fixture(scope="session")
def mixed():
    """Unequal ratios and unequal angles: no value is shared by two maps."""
    maps = (
        dl.Similarity(ratio=0.5, angle=0.3, translation=np.array([0.1, 0.0])),
        dl.Similarity(ratio=0.3, angle=-0.7, translation=np.array([0.5, 0.2])),
        dl.Similarity(ratio=0.2, angle=1.1, translation=np.array([0.2, 0.6])),
    )
    return dl.IFS.from_maps(maps, label="mixed")


@pytest.fixture(scope="session")
def turns():
    """One ratio shared by every map, with unequal angles."""
    maps = tuple(
        dl.Similarity(ratio=0.45, angle=a, translation=np.array([t, 0.5 * t]))
        for a, t in ((0.0, 0.0), (0.9, 0.5), (-0.4, 0.25))
    )
    return dl.IFS.from_maps(maps, label="turns")


@pytest.fixture
def rng_np():
    return np.random.Generator(np.random.PCG64(20240817))
