import os

import numpy as np
import pytest
from hypothesis import settings

from ublr import (
    DenseOperator,
    PointCloud,
    RandomStream,
    build_tessellation,
    grid_points,
    make_synthetic_spec,
    random_points,
)

# HYPOTHESIS_PROFILE=ci draws the same examples on every run
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def snorm(M):
    """Spectral norm of a dense matrix (exact, via SVD)."""
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def uniform_synthetic(d, b, m, k, seed=0):
    """Exact-rank synthetic operator on an equispaced grid with b blocks of
    exactly m points each. Returns (op, tess, spec): op is the dense
    matrix of the truth spec."""
    per_axis = round(b ** (1.0 / d))
    assert per_axis**d == b
    pts_per_axis = per_axis * round(m ** (1.0 / d))
    assert pts_per_axis**d == b * m
    points = grid_points(pts_per_axis, d)
    tess = build_tessellation(points, b)
    assert tess.b == b and tess.block_sizes.min() == tess.block_sizes.max() == m
    spec = make_synthetic_spec(tess, k, RandomStream(seed).child(17))
    return DenseOperator(spec.to_dense()), tess, spec


def ball_points(n, d, seed):
    """The points of random_points(n, d, RandomStream(seed)) within 0.5 of
    the centre: a disc (d = 2) or a ball (d = 3), so the corner cells of a
    grid over it are empty and the grid is ragged."""
    raw = random_points(n, d, RandomStream(seed)).coords
    return PointCloud(raw[np.linalg.norm(raw - 0.5, axis=1) <= 0.5], d)


def probe_columns(tess, coloring):
    """sum_c max m_c: the columns of type A's step-III identity probe."""
    sizes = tess.block_sizes
    return sum(int(sizes[coloring.colors == c].max()) for c in range(coloring.num_colors))


@pytest.fixture
def stream():
    return RandomStream(1234)
