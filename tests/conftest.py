import numpy as np
import pytest

from twistgraph import manifold as M
from twistgraph.manifold import Pose3, Rotation3


def random_rotation(rng, max_angle=np.pi - 0.1) -> Rotation3:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_angle, max_angle)
    from twistgraph.manifold import exp_so3
    return exp_so3(axis * angle)


def random_pose(rng, max_angle=np.pi - 0.1, scale=2.0) -> Pose3:
    return Pose3(random_rotation(rng, max_angle), rng.normal(0.0, scale, 3))


def matrix_exp_series(A: np.ndarray, terms: int = 30) -> np.ndarray:
    """Brute-force matrix exponential by power series; independent oracle."""
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms):
        term = term @ A / k
        out = out + term
    return out


def q_block_batch(rho: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Q per row, from the batch kernels' own parts: the reference the
    scalar `q_block` is checked against."""
    odd, even = M._q_odd_even_batch(rho, theta, M._sq_norms(theta))
    return even + odd


def assert_identical(a, b):
    """Same dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


@pytest.fixture
def rng():
    return np.random.default_rng(42)
