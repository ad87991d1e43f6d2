"""Black-box linear-operator oracles and matvec accounting.

The compression algorithms only ever touch an operator through apply and
apply_adjoint on blocks of columns. This module provides the handle
protocol, a counting wrapper that bills matvec columns to compression
phases and times them, and two desk-scale test operators: the 2D Laplace
log kernel and the thin-slab Schur complement of a shifted Laplacian. The
exact-rank synthetic ground truth is a UniformBLR, so make_synthetic_spec
lives beside it in reconstruction; the truth is its own oracle.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    """Handle around an explicitly stored dense matrix; both sides are one
    linalg.mm call on its buffer, so neither copies it."""

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


def _build_workers() -> int:
    """Threads that build the kernel matrix: the CPUs available to this
    process, capped at _KERNEL_TILE."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, _KERNEL_TILE)


def laplace2d_operator(points: PointCloud) -> DenseOperator:
    """Dense kernel matrix log||x_i - x_j|| with a zero diagonal.

    Built in place in the result by one thread per available CPU (at most
    _KERNEL_TILE), each over its own contiguous range of rows, joined before
    the call returns. A worker fills _KERNEL_TILE // workers rows per pass:
    each tile gets (x_0 - y_0)^2 written into it, then (x_a - y_a)^2 added
    for each further coordinate through the worker's slice of one
    _KERNEL_TILE x N temporary, the only one. Every entry comes from the
    same operations in the same order at any worker count, so the result is
    the all-pairs formula's, bit for bit. Each tile's diagonal distances are
    set to 1 before the log, and log(1) = 0.
    """
    if points.dim != 2:
        raise ValueError("laplace2d requires d=2 points")
    x = points.coords
    xt = np.ascontiguousarray(x.T)
    n = points.n
    A = np.empty((n, n))
    workers = _build_workers()
    step = _KERNEL_TILE // workers
    sq = np.empty((workers * step, n))

    def fill(w: int) -> None:
        scratch = sq[w * step:(w + 1) * step]
        stop = n * (w + 1) // workers
        for lo in range(n * w // workers, stop, step):
            hi = min(lo + step, stop)
            tile = A[lo:hi]
            rows = np.arange(hi - lo)
            np.subtract(x[lo:hi, 0, None], xt[0], out=tile)
            np.square(tile, out=tile)
            for a in range(1, points.dim):
                d = scratch[:hi - lo]
                np.subtract(x[lo:hi, a, None], xt[a], out=d)
                np.square(d, out=d)
                tile += d
            np.sqrt(tile, out=tile)
            tile[rows, lo + rows] = 1.0
            if tile.min() == 0.0:  # distances are >= 0, so no boolean mask
                raise ValueError("coincident points: log kernel is singular")
            np.log(tile, out=tile)

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(fill, range(workers)))  # re-raises a worker's error
    return DenseOperator(A)


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
