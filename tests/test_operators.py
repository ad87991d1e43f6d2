import sys
import threading
import tracemalloc

import numpy as np
import pytest
from ublr import (
    CountingOperator,
    DenseOperator,
    NonFiniteOracleError,
    PointCloud,
    RandomStream,
    build_tessellation,
    gaussian,
    laplace2d_operator,
    make_synthetic_spec,
    random_points,
    suggest_block_count,
    thin_slab_schur_operator,
)
from ublr import operators
from ublr.operators import _KERNEL_TILE as T

from conftest import ball_points, snorm, uniform_synthetic


def check_linearity(op, stream, cols=3):
    """Relative linearity defect of apply on random probes."""
    n = op.shape[1]
    X = gaussian(n, cols, stream.child(0))
    Y = gaussian(n, cols, stream.child(1))
    alpha, beta = 0.7, -1.3
    lhs = op.apply(alpha * X + beta * Y)
    rhs = alpha * op.apply(X) + beta * op.apply(Y)
    scale = max(np.linalg.norm(lhs), 1.0)
    return float(np.linalg.norm(lhs - rhs) / scale)


def check_adjoint(op, stream, cols=3):
    """Relative adjoint-consistency defect <Ax, y> vs <x, A*y>."""
    n_rows, n_cols = op.shape
    X = gaussian(n_cols, cols, stream.child(0))
    Y = gaussian(n_rows, cols, stream.child(1))
    lhs = np.sum(op.apply(X) * Y)
    rhs = np.sum(X * op.apply_adjoint(Y))
    scale = max(abs(lhs), abs(rhs), 1.0)
    return float(abs(lhs - rhs) / scale)


class TestCountingWrapper:
    def test_counts_columns_by_phase(self, stream):
        op = CountingOperator(DenseOperator(gaussian(20, 20, stream)))
        X = gaussian(20, 5, stream.child(1))
        with op.phase("I"):
            op.apply(X)
        op.apply_adjoint(gaussian(20, 3, stream.child(2)))
        assert op.matvecs == {"I": {"A": 5, "Astar": 0}, "other": {"A": 0, "Astar": 3}}
        assert list(op.times_s) == ["I"]

    def test_passthrough_bitwise(self, stream):
        inner = DenseOperator(gaussian(15, 15, stream))
        wrapped = CountingOperator(inner)
        X = gaussian(15, 4, stream.child(1))
        assert np.array_equal(wrapped.apply(X), inner.apply(X))
        assert np.array_equal(wrapped.apply_adjoint(X), inner.apply_adjoint(X))

    @staticmethod
    def spiked(value, row, col):
        """A dense oracle whose every output has value at (row, col)."""

        class Spiked(DenseOperator):
            def apply(self, X):
                Y = super().apply(X)
                Y[row, col] = value
                return Y

            def apply_adjoint(self, X):
                Y = super().apply_adjoint(X)
                Y[row, col] = value
                return Y

        return CountingOperator(Spiked(np.eye(12)))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("row, col", [(0, 0), (7, 2), (11, 3)])
    def test_any_non_finite_entry_raises(self, value, row, col):
        op = self.spiked(value, row, col)
        X = gaussian(12, 4, RandomStream(0))
        with pytest.raises(NonFiniteOracleError, match=r"of A in phase"):
            op.apply(X)
        with pytest.raises(NonFiniteOracleError, match=r"of A\* in phase"):
            op.apply_adjoint(X)

    def test_zero_column_output_passes(self):
        # k = 0 gives type A's step II no columns: nothing to reduce
        op = CountingOperator(DenseOperator(np.eye(12)))
        assert op.apply(np.zeros((12, 0))).shape == (12, 0)
        assert op.apply_adjoint(np.zeros((12, 0))).shape == (12, 0)
        assert op.matvecs == {"other": {"A": 0, "Astar": 0}}


class TestSyntheticUBLR:
    def test_far_field_rank_is_exact(self):
        op, tess, spec = uniform_synthetic(d=1, b=8, m=20, k=3)
        A = op.matrix
        # blocks 2 and 5 are separated by more than one box: far pair
        i, j = 2, 5
        assert j in tess.far_fields[i]
        block = A[np.ix_(tess.blocks[i], tess.blocks[j])]
        sv = np.linalg.svd(block, compute_uv=False)
        assert sv[3] <= 1e-12 * sv[0]
        assert sv[2] > 1e-6 * sv[0]  # rank not lower than 3 either

    def test_zero_rank_is_block_banded(self):
        op, tess, spec = uniform_synthetic(d=1, b=8, m=16, k=0)
        A = op.matrix
        for i in range(tess.b):
            for j in tess.far_fields[i]:
                assert np.all(A[np.ix_(tess.blocks[i], tess.blocks[j])] == 0.0)

    def test_apply_matches_dense_columns(self, stream):
        op, tess, _ = uniform_synthetic(d=1, b=8, m=16, k=2)
        n = tess.n_points
        for j in [0, 7, n - 1]:
            e = np.zeros((n, 1))
            e[j] = 1.0
            assert np.max(np.abs(op.apply(e)[:, 0] - op.matrix[:, j])) <= 1e-14

    def test_linearity_and_adjoint(self, stream):
        op, _, _ = uniform_synthetic(d=2, b=16, m=16, k=2)
        assert check_linearity(op, stream) <= 1e-12
        assert check_adjoint(op, stream) <= 1e-10

    @pytest.mark.parametrize("rank", [0, 3])
    def test_blocks_on_a_ragged_disc(self, rank):
        # near blocks are B's, bit for bit, with a zero core block; far
        # blocks are U_i C_ij V_j*, the draws of each block's own stream
        tess = build_tessellation(ball_points(2000, 2, 1), 7**2)
        spec = make_synthetic_spec(tess, rank, RandomStream(2))
        A = spec.to_dense()
        offs = spec.rank_offsets()
        for i, rows in enumerate(tess.blocks):
            for j, cols in enumerate(tess.blocks):
                block = A[np.ix_(rows, cols)]
                core = spec.core[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
                if j in tess.neighbor_lists[i]:
                    assert np.array_equal(block, spec.b_blocks[(i, j)])
                    assert not core.any()
                else:
                    assert np.array_equal(core, gaussian(
                        rank, rank, RandomStream(2).child(2, i * tess.b + j)))
                    low = spec.u_blocks[i] @ core @ spec.v_blocks[j].T
                    assert np.abs(block - low).max() <= 1e-14 * max(1.0, np.abs(low).max())

    def test_build_holds_one_dense_matrix(self):
        # to_dense fills block rows: beside the n x n result it holds the
        # representation and an n x m_i row, not an n x n identity
        op, tess, spec = uniform_synthetic(d=2, b=64, m=16, k=4)
        n = tess.n_points
        tracemalloc.start()
        try:
            spec.to_dense()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - 8 * n * n <= 4 * spec.total_rank * n * 8


class TestLaplace2D:
    def test_unit_distance_gives_zero(self):
        pts = PointCloud(np.array([[0.0, 0.0], [1.0, 0.0]]), 2)
        op = laplace2d_operator(pts)
        assert np.allclose(op.matrix, 0.0)

    def test_distance_e_gives_one(self):
        # distance e/4 < 1 keeps the points inside the unit square; rescaling
        # is easier: use distance e via coordinates in [0,1] is impossible,
        # so check log(d) directly on a smaller separation
        d = 0.5
        pts = PointCloud(np.array([[0.0, 0.0], [d, 0.0]]), 2)
        op = laplace2d_operator(pts)
        assert np.allclose(op.matrix[0, 1], np.log(d), atol=1e-15)
        assert np.allclose(op.matrix[1, 0], np.log(d), atol=1e-15)

    def test_symmetric_zero_diagonal(self, stream):
        pts = random_points(50, 2, stream)
        op = laplace2d_operator(pts)
        assert np.array_equal(op.matrix, op.matrix.T)
        assert np.all(np.diag(op.matrix) == 0.0)
        assert check_adjoint(op, stream.child(1)) <= 1e-10

    def test_coincident_points_raise(self):
        pts = PointCloud(np.array([[0.3, 0.3], [0.3, 0.3]]), 2)
        with pytest.raises(ValueError):
            laplace2d_operator(pts)

    def test_wrong_dimension_raises(self):
        with pytest.raises(ValueError):
            laplace2d_operator(PointCloud(np.array([[0.1], [0.9]]), 1))

    # at n = 1 every worker but the last has no rows; at n = 5 five workers
    # have one row each
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "n", [1, 5, T - 1, T, T + 1, 2 * T + 1, 255, 256, 257, 300, 513]
    )
    def test_row_tiles_match_one_broadcast(self, n, workers, monkeypatch):
        # the row-tiled build gives the very bits of the all-pairs formula
        # at any worker count
        monkeypatch.setattr(operators, "_build_workers", lambda: workers)
        x = random_points(n, 2, RandomStream(n)).coords
        diff = x[:, None, :] - x[None, :, :]
        with np.errstate(divide="ignore"):
            want = np.log(np.sqrt((diff**2).sum(axis=2)))
        np.fill_diagonal(want, 0.0)
        got = laplace2d_operator(PointCloud(x, 2)).matrix
        assert np.array_equal(got, want)
        assert not np.signbit(np.diag(got)).any()

    # 2 workers split 400 rows at 200; 5 give the last one rows 320-399
    @pytest.mark.parametrize(
        "first, second, workers", [(0, 300, 2), (T - 1, T, 2), (330, 399, 5)]
    )
    def test_coincident_points_in_different_tiles_raise(
        self, first, second, workers, monkeypatch
    ):
        monkeypatch.setattr(operators, "_build_workers", lambda: workers)
        x = random_points(400, 2, RandomStream(4)).coords.copy()
        x[second] = x[first]
        with pytest.raises(ValueError, match="coincident"):
            laplace2d_operator(PointCloud(x, 2))

    def test_build_joins_its_threads(self, monkeypatch):
        # more workers than CPUs, switching threads as often as possible:
        # the same bits as one worker, and no thread left running
        pts = random_points(300, 2, RandomStream(7))
        monkeypatch.setattr(operators, "_build_workers", lambda: 1)
        want = laplace2d_operator(pts).matrix
        monkeypatch.setattr(operators, "_build_workers", lambda: 5)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = laplace2d_operator(pts).matrix
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert np.array_equal(got, want)

    def test_build_allocates_one_tile_beyond_the_result(self):
        # the only temporary is one T x N array, not N x N or T x N x 2
        n = 2048
        pts = random_points(n, 2, RandomStream(5))
        tracemalloc.start()
        try:
            laplace2d_operator(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - 8 * n * n <= 2 * T * n * 8

    def test_far_field_singular_values_decay(self):
        pts = random_points(1024, 2, RandomStream(6))
        op = laplace2d_operator(pts)
        b = suggest_block_count(1024, 30, 2)
        tess = build_tessellation(pts, b)
        checked = 0
        for i in range(tess.b):
            for j in tess.far_fields[i][:1]:
                block = op.matrix[np.ix_(tess.blocks[i], tess.blocks[j])]
                sv = np.linalg.svd(block, compute_uv=False)
                if len(sv) > 30:
                    assert sv[30] <= 1e-6 * sv[0]
                    checked += 1
        assert checked >= 3


def dense_slab_matrix(nx, ny, nz, kappa):
    """Independent dense assembly of the shifted 7-point Laplacian."""
    n = nx * ny * nz
    A = np.zeros((n, n))

    def idx(ix, iy, iz):
        return ix + nx * iy + nx * ny * iz

    for iz in range(nz):
        for iy in range(ny):
            for ix in range(nx):
                row = idx(ix, iy, iz)
                A[row, row] = 6.0 - kappa**2
                for dx, dy, dz in [(-1, 0, 0), (1, 0, 0), (0, -1, 0),
                                   (0, 1, 0), (0, 0, -1), (0, 0, 1)]:
                    jx, jy, jz = ix + dx, iy + dy, iz + dz
                    if 0 <= jx < nx and 0 <= jy < ny and 0 <= jz < nz:
                        A[row, idx(jx, jy, jz)] = -1.0
    return A


class TestThinSlabSchur:
    def test_hand_computed_single_interior_node(self):
        # 1x1x2 grid, kappa=0: front [[6]] minus (-1)(1/6)(-1)
        op, pts = thin_slab_schur_operator(1, 1, 2, kappa=0.0)
        got = op.apply(np.eye(1))
        assert np.allclose(got, 6.0 - 1.0 / 6.0)
        assert pts.n == 1

    def test_dense_elimination_oracle_small(self):
        nx, ny, nz, kappa = 4, 4, 3, 0.1  # 48 nodes
        op, pts = thin_slab_schur_operator(nx, ny, nz, kappa)
        A = dense_slab_matrix(nx, ny, nz, kappa)
        nf = nx * ny
        schur = A[:nf, :nf] - A[:nf, nf:] @ np.linalg.solve(A[nf:, nf:], A[nf:, :nf])
        got = op.apply(np.eye(nf))
        assert snorm(got - schur) <= 1e-9 * max(1.0, snorm(schur))

    def test_adjoint_consistency_symmetric_case(self, stream):
        op, _ = thin_slab_schur_operator(6, 6, 3, kappa=0.0)
        assert check_adjoint(op, stream) <= 1e-10

    def test_columnwise_match_on_medium_grid(self):
        nx, ny, nz = 8, 8, 4
        kappa = 2 * np.pi / 100
        op, _ = thin_slab_schur_operator(nx, ny, nz, kappa)
        A = dense_slab_matrix(nx, ny, nz, kappa)
        nf = nx * ny
        schur = A[:nf, :nf] - A[:nf, nf:] @ np.linalg.solve(A[nf:, nf:], A[nf:, :nf])
        for j in [0, nf // 2, nf - 1]:
            e = np.zeros((nf, 1))
            e[j] = 1.0
            assert np.max(np.abs(op.apply(e)[:, 0] - schur[:, j])) <= 1e-9

    def test_frontal_points_form_full_grid(self):
        op, pts = thin_slab_schur_operator(32, 32, 10)
        assert pts.n == 1024
        tess = build_tessellation(pts, 16)
        assert tess.b == 16
        assert tess.block_sizes.min() == tess.block_sizes.max() == 64

    def test_interior_resonance_reported(self):
        from ublr.operators import InteriorResonanceError

        # single interior node: A_ii = [[6 - kappa^2]] is singular at sqrt(6)
        with pytest.raises(InteriorResonanceError):
            thin_slab_schur_operator(1, 1, 2, kappa=np.sqrt(6.0))
