"""Dense linear-algebra kernels shared by all compression algorithms.

The dense product mm, orthonormal column/null-space extraction, right
inverses from the same QR, seeded Gaussian sampling, and randomized
power-method norm estimation. Every randomized routine draws from a
RandomStream, so results are pure functions of (inputs, seed).

One BLAS thread pool: numpy and scipy each load their own OpenBLAS, and the
idle threads of one pool spin while the other pool works. So every dense
product in ublr goes through mm, which calls scipy's dgemm or dgemv, and
every factorization through scipy's LAPACK wrappers; no numpy product or
np.linalg factorization is left to wake numpy's pool (tests/test_linalg.py
scans the package for them). The sparse products of the Schur-complement
oracle are scipy's own.

Orthonormal columns, null bases and right inverses come from LAPACK's
compact-WY Householder QR: dgeqrt stores the T factor of each block
reflector beside the reflectors and dgemqrt applies Q or Q* with it, so no
workspace query is made and no step falls back to level-2 BLAS.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dgemm, dgemv, dnrm2
from scipy.linalg.lapack import dgemqrt, dgeqrt, dlange, dtrcon, dtrtrs


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


def _transposed(x: np.ndarray) -> tuple:
    """(f, trans): f Fortran-ordered with op(f) = x*, where op transposes
    when trans is 1. f is x's own buffer when x is C- or F-contiguous."""
    if x.flags.c_contiguous:
        return x.T, 0
    if x.flags.f_contiguous:
        return x, 1
    return np.ascontiguousarray(x).T, 0


def _gemv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a x for a 2-D a and a 1-D x, by dgemv on a's own buffer."""
    if a.shape[1] != x.shape[0]:
        raise ValueError(f"mm: shapes {a.shape} and {x.shape} do not align")
    if a.size == 0:
        return np.zeros(a.shape[0])
    f, trans = _transposed(a.T)  # op(f) = a
    return dgemv(1.0, f, x, trans=trans)


def mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b on scipy's BLAS, as a C-ordered array; a 1-D operand is a
    vector, as for @.

    A product with one column, one row or a 1-D operand is one dgemv. Any
    other is one dgemm of (b* a*)*: each operand goes in as the transpose of
    its own buffer, with trans_a/trans_b set from its layout, so no C- or
    F-contiguous operand is copied, and the F-ordered result of dgemm,
    transposed, is C-ordered. The flags depend on the layouts, so equal
    operands of different layouts may give results that differ by rounding.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim + b.ndim < 3 or max(a.ndim, b.ndim) > 2:
        raise ValueError(f"mm takes a matrix and a matrix or vector, not shapes "
                         f"{a.shape} and {b.shape}")
    if b.ndim == 1:
        return _gemv(a, b)
    if a.ndim == 1:
        return _gemv(b.T, a)
    (m, inner), n = a.shape, b.shape[1]
    if inner != b.shape[0]:
        raise ValueError(f"mm: shapes {a.shape} and {b.shape} do not align")
    if n == 1:
        return _gemv(a, b[:, 0])[:, None]
    if m == 1:
        return _gemv(b.T, a[0])[None, :]
    if 0 in (m, n, inner):
        return np.zeros((m, n))
    f_b, op_b = _transposed(b)
    f_a, op_a = _transposed(a)
    return dgemm(1.0, f_b, f_a, trans_a=op_b, trans_b=op_a).T


def _lapack_ok(routine: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} returned info={info}")


def _apply_q(qr: np.ndarray, t: np.ndarray, c: np.ndarray, trans: str) -> np.ndarray:
    """Q c (trans "N") or Q* c (trans "T"), Q held as dgeqrt's output qr,
    whose first min(m, n) columns hold the reflectors, and block reflector
    factors t; c is overwritten."""
    out, info = dgemqrt(qr[:, :t.shape[1]], t, c, trans=trans, overwrite_c=1)
    _lapack_ok("dgemqrt", info)
    return out


_NULL_RTOL = 1e-12  # null_basis's residual limit, relative to max(1, ||B||)
_QR_BLOCK = 64  # dgeqrt's block size nb, clamped to min(m, n)


def _householder(B: np.ndarray) -> tuple:
    """(qr, t) of dgeqrt's compact-WY QR of B, block size _QR_BLOCK clamped
    to min(m, n) >= 1; B is not modified."""
    qr, t, info = dgeqrt(min(_QR_BLOCK, *B.shape), B)
    _lapack_ok("dgeqrt", info)
    return qr, t


def _q_columns(qr: np.ndarray, t: np.ndarray, first: int, count: int) -> np.ndarray:
    """Columns first .. first + count - 1 of the complete Q, as Q applied
    to those unit vectors; F-ordered."""
    unit = np.zeros((qr.shape[0], count), order="F")
    unit[first:first + count] = np.eye(count)
    return _apply_q(qr, t, unit, "N")


def col_basis(B: np.ndarray, k: int) -> np.ndarray:
    """k orthonormal columns spanning the (numerical) column space of B.

    First k columns of an unpivoted Householder QR (dgeqrt, then dgemqrt
    applied to e_1 .. e_k). Unpivoted is safe here: inputs are random
    matrices or products with random matrices, so any k leading columns
    carry full rank.

    Those k columns span only B's first k columns, so the p oversampling
    columns of an r = k + p sample never reach the basis.
    """
    B = np.asarray(B, dtype=float)
    m, n = B.shape
    if k > min(m, n):
        raise ValueError(f"k={k} exceeds matrix dimensions {m}x{n}")
    if k == 0:
        return np.zeros((m, 0))
    return _q_columns(*_householder(B), 0, k)


def null_basis(B: np.ndarray, k: int, rows: np.ndarray | None = None):
    """k orthonormal columns of the null space of B (m x n).

    Factors B* = Q R by dgeqrt (block size _QR_BLOCK), which keeps each block
    reflector's T factor, and returns Z = Q[:, n-k:], the last k columns of
    the complete Q, by applying Q to k unit vectors with dgemqrt; neither
    call needs a workspace query and Q is never formed. B is not modified.
    Raises ValueError when the requested null space does not exist, detected
    by the residual ||B Z|| exceeding _NULL_RTOL * max(1, ||B||) (Frobenius
    norms; ||B|| is computed only when the residual exceeds _NULL_RTOL), and
    np.linalg.LinAlgError, also a ValueError, on a nonzero LAPACK info.

    With rows=Y (n columns), B must have full row rank m <= n, and the same
    factors also give Y B^+ = Y Q[:, :m] R[:m, :m]^-* (dgemqrt, then dtrtrs)
    and LAPACK's 1-norm estimate of cond(R[:m, :m]) (dtrcon); the return
    value is then (Z, Y B^+, cond).
    """
    B = np.asarray(B, dtype=float)
    m, n = B.shape
    if k > n:
        raise ValueError(f"k={k} exceeds column count {n}")
    if rows is not None and m > n:
        raise ValueError(f"a right inverse needs full row rank, but B is {m}x{n}")
    if k == 0 and rows is None:
        return np.zeros((n, 0))
    if m == 0:  # nothing to factor: Q = I (dgeqrt needs 1 <= nb <= min(m, n))
        Z = np.eye(n)[:, n - k:]
        return Z if rows is None else (Z, np.zeros((len(rows), 0)), 1.0)
    # the residual check reads B after the factorization
    qr, t = _householder(B.T)
    Z = np.zeros((n, 0))
    if k:
        Z = _q_columns(qr, t, n - k, k)
        resid = dlange("F", dgemm(1.0, B.T, Z, trans_a=1))
        if resid > _NULL_RTOL:
            scale = max(1.0, dlange("F", B.T))
            if resid > _NULL_RTOL * scale:
                raise ValueError(
                    f"requested null space of dimension {k} does not exist "
                    f"(residual {resid:.3e} > {_NULL_RTOL:.1e} * {scale:.3e})"
                )
    if rows is None:
        return Z
    # dtrcon takes its order from the array, so it gets one copy of R;
    # dtrtrs reads R in qr (order m from its columns) and solves in yq
    rcond, info = dtrcon(np.asfortranarray(qr[:m, :m]))
    _lapack_ok("dtrcon", info)
    yq = _apply_q(qr, t, np.array(rows, dtype=float).T, "T")
    x, info = dtrtrs(qr, yq, overwrite_b=1)
    _lapack_ok("dtrtrs", info)
    # a compact copy: a view would keep all n rows of yq alive
    return Z, np.ascontiguousarray(x[:m].T), (1.0 / rcond if rcond > 0 else np.inf)


def project_out(u: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(I - U U*) X for U with orthonormal columns, in place in X; returns X."""
    X -= mm(u, mm(u.T, X))
    return X


def pseudo_inverse(B: np.ndarray) -> np.ndarray:
    """Right inverse B^+ = Q[:, :m] R[:m, :m]^-* of a full-row-rank B (m x n),
    from null_basis's QR of B*. Raises ValueError for m > n and
    np.linalg.LinAlgError (dtrtrs) for an exactly singular R."""
    return null_basis(B, 0, rows=np.eye(np.shape(B)[1]))[1]


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
    nv = dnrm2(np.ravel(v))
    if nv == 0.0:
        return 0.0
    v /= nv
    est = 0.0
    for _ in range(iterations):
        w = op.apply(v)
        est = float(dnrm2(np.ravel(w)))
        if est == 0.0:
            return 0.0
        v = op.apply_adjoint(w)
        v /= dnrm2(np.ravel(v))
    return est
