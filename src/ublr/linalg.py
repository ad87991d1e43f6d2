"""Dense linear-algebra kernels shared by all compression algorithms.

Orthonormal column/null-space extraction, truncated pseudoinverses, seeded
Gaussian sampling, and randomized power-method norm estimation. Every
randomized routine draws from a RandomStream, so results are pure functions
of (inputs, seed).
"""

from __future__ import annotations

import numpy as np


class RandomStream:
    """Seeded, splittable source of random matrices.

    Child streams are derived from integer indices and are independent of the
    parent and of each other, so per-block draws don't depend on traversal
    order or parallel schedule. Backed by the counter-based Philox generator.
    """

    def __init__(self, seed: int, key: tuple = ()):
        self.seed = int(seed)
        self.key = tuple(int(i) for i in key)
        self._gen = None

    def child(self, *indices: int) -> "RandomStream":
        """Derive an independent stream addressed by one or more indices."""
        return RandomStream(self.seed, self.key + indices)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=self.key)
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen

    def normal(self, rows: int, cols: int) -> np.ndarray:
        return self.generator.standard_normal((rows, cols))

    def uniform(self, rows: int, cols: int) -> np.ndarray:
        return self.generator.random((rows, cols))

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, key={self.key})"


def gaussian(rows: int, cols: int, stream: RandomStream) -> np.ndarray:
    """i.i.d. standard-normal matrix, bitwise reproducible under the seed."""
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    return stream.normal(rows, cols)


def col_basis(B: np.ndarray, k: int) -> np.ndarray:
    """k orthonormal columns spanning the (numerical) column space of B.

    First k columns of an unpivoted Householder QR. Unpivoted is safe here:
    inputs are random matrices or products with random matrices, so any k
    leading columns carry full rank.
    """
    B = np.asarray(B, dtype=float)
    m, n = B.shape
    if k > min(m, n):
        raise ValueError(f"k={k} exceeds matrix dimensions {m}x{n}")
    if k == 0:
        return np.zeros((m, 0))
    q, _ = np.linalg.qr(B)
    return q[:, :k]


def null_basis(
    B: np.ndarray, k: int, rtol: float = 1e-12, thin_factors: bool = False
):
    """k orthonormal columns of the null space of B.

    Taken as the last k columns of the full QR factor of B* = q r. Raises
    ValueError when the requested null space does not exist, detected by the
    residual ||B Z|| exceeding rtol * max(1, ||B||). With thin_factors, also
    returns the thin factors q1 = q[:, :m], r1 = r[:m] of the same QR, so a
    full-row-rank B has the right inverse q1 r1^-*; Z is unchanged bitwise.
    """
    B = np.asarray(B, dtype=float)
    m, n = B.shape
    if k > n:
        raise ValueError(f"k={k} exceeds column count {n}")
    if k == 0 and not thin_factors:
        return np.zeros((n, 0))
    q, r = np.linalg.qr(B.T, mode="complete")
    Z = q[:, n - k:]
    scale = max(1.0, np.linalg.norm(B))
    resid = np.linalg.norm(B @ Z)
    if resid > rtol * scale:
        raise ValueError(
            f"requested null space of dimension {k} does not exist "
            f"(residual {resid:.3e} > {rtol:.1e} * {scale:.3e})"
        )
    if thin_factors:
        return Z, q[:, :m], r[:m]
    return Z


def project_out(u: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(I - U U*) X for U with orthonormal columns."""
    return X - u @ (u.T @ X)


def pseudo_inverse(B: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below rtol * sigma_max are truncated.
    """
    B = np.asarray(B, dtype=float)
    if B.size == 0:
        return np.zeros((B.shape[1], B.shape[0]))
    u, s, vt = np.linalg.svd(B, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros((B.shape[1], B.shape[0]))
    keep = s > rtol * s[0]
    return (vt[keep].T / s[keep]) @ u[:, keep].T


def estimate_spectral_norm(op, iterations: int = 20, stream: RandomStream | None = None) -> float:
    """Randomized power-method estimate of the spectral norm of an operator.

    Runs power iteration on op* op starting from a Gaussian vector; the
    returned value ||op v|| with unit v is a lower bound on ||op||_2 and is
    nondecreasing in the iteration count.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if stream is None:
        stream = RandomStream(0)
    n_cols = op.shape[1]
    if n_cols == 0 or op.shape[0] == 0:
        return 0.0
    v = gaussian(n_cols, 1, stream)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    est = 0.0
    for _ in range(iterations):
        w = op.apply(v)
        est = float(np.linalg.norm(w))
        if est == 0.0:
            return 0.0
        v = op.apply_adjoint(w)
        v /= np.linalg.norm(v)
    return est
