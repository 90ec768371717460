import os

import numpy as np
import pytest

from necklace_walks import make_custom_pearl

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True, scope="session")
def package_on_child_path():
    """Child processes running ``python -m necklace_walks.cli`` import the package from src/."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield


@pytest.fixture
def custom_pearl():
    """Asymmetric 4-vertex pearl used across cross-validation tests."""
    return make_custom_pearl(4, [(1, 2), (2, 3), (3, 4), (1, 3)], root_in=1, root_out=4)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def draw_connected_pearl(data, max_m=6):
    """A hypothesis-drawn connected pearl: a random tree, extra edges, roots."""
    from hypothesis import strategies as st

    m = data.draw(st.integers(1, max_m), label="m")
    tree = [(data.draw(st.integers(1, v - 1)), v) for v in range(2, m + 1)]
    others = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)
              if (a, b) not in tree]
    extra = data.draw(st.lists(st.sampled_from(others), unique=True), label="extra") \
        if others else []
    roots = data.draw(st.tuples(st.integers(1, m), st.integers(1, m)), label="roots")
    return make_custom_pearl(m, tree + extra, *roots)
