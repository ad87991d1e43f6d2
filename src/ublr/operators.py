"""Black-box linear-operator oracles and matvec accounting.

The compression algorithms only ever touch an operator through apply and
apply_adjoint on blocks of columns. This module provides the handle
protocol, a counting wrapper that bills matvec columns to compression
phases and times them, and two desk-scale test operators: the 2D Laplace
log kernel and the thin-slab Schur complement of a shifted Laplacian. The
kernel matrix is symmetric and stored once, in row panels:
(N^2 + N * _PANEL_ROWS) / 2 doubles, 84 MB at N = 4096 against 134 MB for
the full matrix. Its products sum in another order than one GEMM on the
full matrix, so containers and error estimates differ by rounding from
those of a DenseOperator holding it. The exact-rank synthetic ground truth is a
UniformBLR, so make_synthetic_spec lives beside it in reconstruction; the
truth is its own oracle.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dgemm, dgemv

from .linalg import mm
from .tessellation import PointCloud


class LinearOperatorHandle:
    """Protocol base: shape, apply(X), apply_adjoint(X) on column blocks."""

    @property
    def shape(self) -> tuple:
        raise NotImplementedError

    def apply(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_adjoint(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class DenseOperator(LinearOperatorHandle):
    """Handle around an explicitly stored dense matrix, of any shape and
    symmetry; both sides are one linalg.mm call on its buffer, so neither
    copies it."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=float)

    @property
    def shape(self):
        return self.matrix.shape

    def apply(self, X):
        return mm(self.matrix, X)

    def apply_adjoint(self, X):
        return mm(self.matrix.T, X)


class DifferenceOperator(LinearOperatorHandle):
    """Handle for A - B given two operator handles of equal shape."""

    def __init__(self, a: LinearOperatorHandle, b: LinearOperatorHandle):
        if a.shape != b.shape:
            raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
        self.a = a
        self.b = b

    @property
    def shape(self):
        return self.a.shape

    def apply(self, X):
        return self.a.apply(X) - self.b.apply(X)

    def apply_adjoint(self, X):
        return self.a.apply_adjoint(X) - self.b.apply_adjoint(X)


class ConfigError(ValueError):
    """A configuration the library cannot run: an unknown method id, a
    keyword the id does not take, or a value out of range. Raised before
    the first oracle call."""


class NonFiniteOracleError(ValueError):
    """The oracle returned NaN or infinity; names the phase and the side."""


class OracleShapeError(ValueError):
    """The oracle returned an array of the wrong shape; names the phase,
    the side, and the expected and actual shapes."""


class CountingOperator(LinearOperatorHandle):
    """Pass-through wrapper that keeps the phase accounts of a compression.

    matvecs maps each phase to {"A": cols, "Astar": cols}, the columns
    pushed through A and A* while it was current; columns pushed outside a
    phase go to "other". times_s holds the seconds spent in each phase, in
    the order the phases ran. Raises OracleShapeError on oracle output of
    the wrong shape and NonFiniteOracleError on any non-finite oracle output.
    """

    def __init__(self, inner: LinearOperatorHandle):
        self.inner = inner
        self.matvecs = {}
        self.times_s = {}
        self._phase = "other"

    @contextmanager
    def phase(self, name: str):
        """Bill columns to phase name, and time it, until the block exits."""
        previous, self._phase = self._phase, name
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.times_s[name] = time.perf_counter() - t0
            self._phase = previous

    @property
    def shape(self):
        return self.inner.shape

    def apply(self, X):
        self._bill("A", X)
        return self._checked(self.inner.apply(X), "A", (self.shape[0],) + X.shape[1:])

    def apply_adjoint(self, X):
        self._bill("Astar", X)
        return self._checked(self.inner.apply_adjoint(X), "A*", (self.shape[1],) + X.shape[1:])

    def _bill(self, side: str, X):
        entry = self.matvecs.setdefault(self._phase, {"A": 0, "Astar": 0})
        entry[side] += X.shape[1] if X.ndim == 2 else 1

    def _checked(self, Y, side: str, expected: tuple):
        where = f"oracle output of {side} in phase {self._phase!r}"
        if np.shape(Y) != expected:
            raise OracleShapeError(f"{where} has shape {np.shape(Y)}, expected {expected}")
        # min and max both propagate NaN and each catch one sign of inf,
        # without an n x s boolean mask
        if np.size(Y) and not (np.isfinite(np.min(Y)) and np.isfinite(np.max(Y))):
            raise NonFiniteOracleError(f"{where} is not finite")
        return Y


# ---------------------------------------------------------------------------
# 2D Laplace log kernel
# ---------------------------------------------------------------------------


# rows of the kernel matrix evaluated per pass, summed over the build's
# workers: their one _KERNEL_TILE x N temporary (1 MB at N = 4096) stays in
# cache, and the cap of _KERNEL_TILE workers leaves each at least one row
_KERNEL_TILE = 32

# rows per panel of a SymmetricDenseOperator built by laplace2d_operator:
# the store is (N^2 + N * _PANEL_ROWS) / 2 doubles (84 MB at N = 4096,
# against 134 MB for the full matrix). At N = 4096 on 64 to 1600 columns,
# 512-row panels were up to 9 % slower, and 2048-row ones as fast but
# 17 MB larger
_PANEL_ROWS = 1024


class SymmetricDenseOperator(LinearOperatorHandle):
    """Handle around a symmetric dense matrix A stored once.

    For each row panel [lo, hi) it keeps the diagonal block
    D = A[lo:hi, lo:hi] and the block R = A[lo:hi, hi:] to its right, each
    a C-ordered array of its own; the rest of A is R's transposes. Panel p
    of A X is D X[lo:hi] + R X[hi:] plus the earlier panels' R* X, so apply
    sweeps the panels with three dgemm calls each (beta = 1, written in
    place into one zeroed result; dgemv for a 1-D vector or one column) and
    reads every stored entry once per product. apply_adjoint is apply, and
    matrix assembles the full n x n array.
    """

    def __init__(self, diagonal: list, right: list):
        self.diagonal, self.right = diagonal, right
        self.n = sum(len(d) for d in diagonal)
        self.bounds = []
        lo = 0
        for d, r in zip(diagonal, right, strict=True):
            hi = lo + len(d)
            if d.shape != (hi - lo, hi - lo) or r.shape != (hi - lo, self.n - hi):
                raise ValueError(f"panel [{lo}, {hi}) of {self.n} rows has blocks "
                                 f"of shapes {d.shape} and {r.shape}")
            self.bounds.append((lo, hi))
            lo = hi

    @property
    def shape(self):
        return (self.n, self.n)

    @property
    def matrix(self) -> np.ndarray:
        A = np.empty((self.n, self.n))
        for (lo, hi), d, r in zip(self.bounds, self.diagonal, self.right):
            A[lo:hi, lo:hi] = d
            A[lo:hi, hi:] = r
            A[hi:, lo:hi] = r.T
        return A

    def apply(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            return self._apply_vector(X)
        if X.shape[1] == 1:
            return self._apply_vector(X[:, 0])[:, None]
        Y = np.zeros((self.n, X.shape[1]))
        if Y.size == 0:
            return Y
        # the transposes of C-ordered X and Y are F-ordered, and so is every
        # column range of them: dgemm reads and writes them in place
        xt, yt = np.ascontiguousarray(X).T, Y.T
        for (lo, hi), d, r in zip(self.bounds, self.diagonal, self.right):
            dgemm(1.0, xt[:, lo:hi], d.T, beta=1.0, c=yt[:, lo:hi], overwrite_c=1)
            if hi < self.n:
                dgemm(1.0, xt[:, hi:], r.T, beta=1.0, c=yt[:, lo:hi], overwrite_c=1)
                dgemm(1.0, xt[:, lo:hi], r.T, trans_b=1, beta=1.0, c=yt[:, hi:], overwrite_c=1)
        return Y

    def apply_adjoint(self, X):
        return self.apply(X)

    def _apply_vector(self, x):
        x = np.ascontiguousarray(x)
        y = np.zeros(self.n)
        for (lo, hi), d, r in zip(self.bounds, self.diagonal, self.right):
            dgemv(1.0, d.T, x[lo:hi], beta=1.0, y=y[lo:hi], overwrite_y=1)
            if hi < self.n:
                dgemv(1.0, r.T, x[hi:], beta=1.0, y=y[lo:hi], trans=1, overwrite_y=1)
                dgemv(1.0, r.T, x[lo:hi], beta=1.0, y=y[hi:], overwrite_y=1)
        return y


def _build_workers() -> int:
    """Threads that build the kernel matrix: the CPUs available to this
    process, capped at _KERNEL_TILE."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, _KERNEL_TILE)


def laplace2d_operator(points: PointCloud) -> SymmetricDenseOperator:
    """Kernel matrix log||x_i - x_j|| with a zero diagonal, stored once.

    The matrix is symmetric, so it is held as a SymmetricDenseOperator with
    panels of _PANEL_ROWS rows: 8 (N^2 + N h) / 2 bytes for panels of h
    rows (84 MB at N = 4096, 302 MB at N = 8192), against 8 N^2 for the full
    matrix, which is never allocated. Products sum in another order than
    one GEMM on the full matrix, so containers and error estimates differ
    from such a product's by rounding.

    Built in place in the panels' blocks by one thread per available CPU
    (at most _KERNEL_TILE), joined before the call returns. Each panel's
    rows are cut into tiles of _KERNEL_TILE // workers rows, dealt to the
    workers round-robin, so the triangular work stays balanced. A tile is
    filled in its D rows, then in its R rows: each gets (x_0 - y_0)^2
    written into it, then (x_a - y_a)^2 added for each further coordinate
    through the worker's slice of one _KERNEL_TILE x N temporary, the only
    one. Every entry comes from the same operations in the same order at
    any worker count, so the entries, and matrix, are the all-pairs
    formula's, bit for bit. The diagonal distances are set to 1 before the
    log, and log(1) = 0.
    """
    if points.dim != 2:
        raise ValueError("laplace2d requires d=2 points")
    x = points.coords
    xt = np.ascontiguousarray(x.T)
    n = points.n
    workers = _build_workers()
    step = _KERNEL_TILE // workers
    sq = np.empty((workers * step, n))
    bounds = [(lo, min(lo + _PANEL_ROWS, n)) for lo in range(0, n, _PANEL_ROWS)]
    diagonal = [np.empty((hi - lo, hi - lo)) for lo, hi in bounds]
    right = [np.empty((hi - lo, n - hi)) for lo, hi in bounds]
    tiles = [
        (p, a, min(a + step, hi))
        for p, (lo, hi) in enumerate(bounds)
        for a in range(lo, hi, step)
    ]

    def fill(w: int) -> None:
        # flat, so that each segment's slice of it is contiguous: ufuncs on
        # a column slice of the 2-D scratch made the build about 20 % slower
        scratch = sq[w * step:(w + 1) * step].reshape(-1)
        for p, a, b in tiles[w::workers]:
            lo, hi = bounds[p]
            rows = np.arange(b - a)
            d_tile = diagonal[p][a - lo:b - lo]
            r_tile = right[p][a - lo:b - lo]
            for tile, c0, c1 in ((d_tile, lo, hi), (r_tile, hi, n)):
                np.subtract(x[a:b, 0, None], xt[0, c0:c1], out=tile)
                np.square(tile, out=tile)
                for k in range(1, points.dim):
                    d = scratch[:(b - a) * (c1 - c0)].reshape(b - a, c1 - c0)
                    np.subtract(x[a:b, k, None], xt[k, c0:c1], out=d)
                    np.square(d, out=d)
                    tile += d
                np.sqrt(tile, out=tile)
            d_tile[rows, a - lo + rows] = 1.0
            # distances are >= 0, so no boolean mask
            if d_tile.min() == 0.0 or (r_tile.size and r_tile.min() == 0.0):
                raise ValueError("coincident points: log kernel is singular")
            np.log(d_tile, out=d_tile)
            np.log(r_tile, out=r_tile)

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(fill, range(workers)))  # re-raises a worker's error
    return SymmetricDenseOperator(diagonal, right)


# ---------------------------------------------------------------------------
# Thin-slab Schur complement
# ---------------------------------------------------------------------------


class InteriorResonanceError(RuntimeError):
    """Interior solve is singular; the caller should adjust the wavenumber."""


class SchurComplementOperator(LinearOperatorHandle):
    """Matrix-free T = A_ff - A_fi A_ii^{-1} A_if with a cached sparse LU."""

    def __init__(self, a_ff, a_fi, a_if, a_ii):
        self.a_ff = a_ff.tocsr()
        self.a_fi = a_fi.tocsr()
        self.a_if = a_if.tocsr()
        try:
            self._lu = spla.splu(a_ii.tocsc())
        except RuntimeError as exc:
            raise InteriorResonanceError(
                f"interior matrix is singular (resonant wavenumber?): {exc}"
            ) from exc
        u_diag = np.abs(self._lu.U.diagonal())
        # stencil entries are O(1), so a pivot near zero means resonance
        if u_diag.size and u_diag.min() <= 1e-12 * max(1.0, u_diag.max()):
            raise InteriorResonanceError(
                "interior matrix is numerically singular; adjust the wavenumber"
            )

    @property
    def shape(self):
        return self.a_ff.shape

    def apply(self, X):
        X = np.asarray(X, dtype=float)
        return self.a_ff @ X - self.a_fi @ self._lu.solve(self.a_if @ X)

    def apply_adjoint(self, X):
        X = np.asarray(X, dtype=float)
        # A is symmetric here, but route through transposes anyway
        return self.a_ff.T @ X - self.a_if.T @ self._lu.solve(self.a_fi.T @ X, trans="T")


def thin_slab_schur_operator(
    nx: int, ny: int, nz: int = 10, kappa: float = 2.0 * np.pi / 100.0
):
    """Schur complement of a shifted 7-point Laplacian onto one slab face.

    Discretizes -Lap(u) - kappa^2 u on an nx x ny x nz unit-spacing grid with
    homogeneous Dirichlet conditions; the frontal nodes are the z=0 face and
    the interior nodes are eliminated through a sparse LU factored once.
    Returns (operator, frontal point cloud in the unit square).
    """
    if min(nx, ny) < 1 or nz < 2:
        raise ValueError("grid sizes must be positive with nz >= 2")

    def lap1d(n):
        return sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])

    ix_eye, iy_eye, iz_eye = sp.eye(nx), sp.eye(ny), sp.eye(nz)
    A = (
        sp.kron(iz_eye, sp.kron(iy_eye, lap1d(nx)))
        + sp.kron(iz_eye, sp.kron(lap1d(ny), ix_eye))
        + sp.kron(lap1d(nz), sp.kron(iy_eye, ix_eye))
        - kappa**2 * sp.eye(nx * ny * nz)
    ).tocsr()

    n_front = nx * ny  # node index = ix + nx*iy + nx*ny*iz, so z=0 comes first
    front = np.arange(n_front)
    interior = np.arange(n_front, nx * ny * nz)

    op = SchurComplementOperator(
        A[front][:, front],
        A[front][:, interior],
        A[interior][:, front],
        A[interior][:, interior],
    )
    ix = front % nx
    iy = front // nx
    coords = np.column_stack(((ix + 0.5) / nx, (iy + 0.5) / ny))
    return op, PointCloud(coords, 2)
