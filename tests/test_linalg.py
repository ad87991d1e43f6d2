import ast
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.blas import dgemm

import ublr
import ublr.linalg
from ublr import (
    DenseOperator,
    RandomStream,
    col_basis,
    estimate_spectral_norm,
    gaussian,
    null_basis,
    pseudo_inverse,
)
from ublr.linalg import _QR_BLOCK, mm

from conftest import snorm


def _mm_operands():
    """(a, b) pairs of every layout mm takes, keyed by name."""
    g = np.random.default_rng(7).standard_normal
    a, b = g((7, 5)), g((5, 6))
    return {
        "C": (a, b),
        "F": (np.asfortranarray(a), np.asfortranarray(b)),
        "C_F": (a, np.asfortranarray(b)),
        "strided": (g((14, 10))[::2, ::2], g((5, 12))[:, ::2]),
        "transposed_views": (g((5, 7)).T, g((6, 5)).T),
        "one_column": (a, b[:, :1]),
        "one_column_of_F": (np.asfortranarray(a), np.asfortranarray(b)[:, 3:4]),
        "one_row": (a[2:3], b),
        "one_by_one": (a[:1, :1], b[:1, :1]),
        "vector": (a, b[:, 0]),
        "strided_vector": (a.T, a[:, 1]),
        "vector_on_the_left": (a[:, 0], g((7, 3))),
        "empty_inner": (np.zeros((3, 0)), np.zeros((0, 4))),
        "no_rows": (np.zeros((0, 5)), b),
        "no_columns": (a, np.zeros((5, 0))),
        "empty_vector_product": (np.zeros((0, 5)), b[:, 0]),
        "square_large": (g((300, 300)), g((300, 40))),
        "adjoint_large": (g((300, 300)).T, g((300, 40))),
    }


class TestMm:
    @pytest.mark.parametrize("case", list(_mm_operands()))
    def test_matches_matmul_to_rounding(self, case):
        a, b = _mm_operands()[case]
        got, want = mm(a, b), a @ b
        assert got.shape == want.shape
        # each side is within inner * eps * |a| |b| of the exact product
        bound = 2 * max(a.shape[-1], 1) * np.finfo(float).eps * (np.abs(a) @ np.abs(b))
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("case", list(_mm_operands()))
    def test_output_is_c_contiguous(self, case):
        assert mm(*_mm_operands()[case]).flags.c_contiguous

    def test_contiguous_operands_reach_blas_uncopied(self, monkeypatch):
        # every operand goes in as its own buffer, Fortran-ordered, so the
        # wrapper makes no copy: an n x n C-ordered matrix and its adjoint view
        seen = []

        def recording(alpha, a, b, **flags):
            seen.append((a, b))
            return dgemm(alpha, a, b, **flags)

        monkeypatch.setattr(ublr.linalg, "dgemm", recording)
        g = np.random.default_rng(1).standard_normal
        A, X = g((64, 64)), g((64, 8))
        for a, b in ((A, X), (A.T, X), (np.asfortranarray(A), np.asfortranarray(X))):
            seen.clear()
            assert np.allclose(mm(a, b), a @ b, rtol=1e-13, atol=1e-13)
            (first, second), = seen
            assert first.flags.f_contiguous and second.flags.f_contiguous
            assert np.shares_memory(first, b) and np.shares_memory(second, a)

    def test_one_column_and_one_row_use_gemv(self, monkeypatch):
        def no_gemm(*args, **kwargs):
            raise AssertionError("dgemm called for a matrix-vector product")

        g = np.random.default_rng(2).standard_normal
        A = g((50, 40))
        monkeypatch.setattr(ublr.linalg, "dgemm", no_gemm)
        mm(A, g((40, 1)))
        mm(A, g(40))
        mm(g((1, 50)), A)
        mm(g(50), A)

    @pytest.mark.parametrize("a, b", [
        (np.ones((3, 4)), np.ones((5, 2))),
        (np.ones((3, 4)), np.ones(5)),
        (np.ones(3), np.ones(3)),
        (np.ones((2, 2, 2)), np.ones((2, 2))),
    ])
    def test_rejects_misaligned_and_unsupported_shapes(self, a, b):
        with pytest.raises(ValueError):
            mm(a, b)


# numpy entry points that run a dense product or factorization on numpy's
# own BLAS; np.linalg.norm and np.linalg.LinAlgError stay allowed
_NUMPY_PRODUCTS = {"dot", "matmul", "tensordot", "einsum", "inner", "vdot"}
_NUMPY_LINALG_ALLOWED = {"norm", "LinAlgError"}
# classes whose @ is a scipy.sparse product, not a dense one
_SPARSE_PRODUCT_OWNERS = {"SchurComplementOperator"}


def _numpy_blas_uses(source: str) -> list:
    """(line, what) for every dense product or numpy factorization in a
    module's source, outside the classes of _SPARSE_PRODUCT_OWNERS."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.ClassDef) else owner
            if owner not in _SPARSE_PRODUCT_OWNERS:
                found.extend(_flag(child))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def _flag(node) -> list:
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return [(node.lineno, "@")]
    if isinstance(node, ast.Attribute):
        *owner, name = ast.unparse(node).split(".")
        product = owner[:1] in (["np"], ["numpy"]) and name in _NUMPY_PRODUCTS
        linalg = owner in (["np", "linalg"], ["numpy", "linalg"])
        if name == "dot" or product or (linalg and name not in _NUMPY_LINALG_ALLOWED):
            return [(node.lineno, ast.unparse(node))]
    if isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
        names = {alias.name for alias in node.names}
        bad = names & _NUMPY_PRODUCTS if node.module == "numpy" else names - _NUMPY_LINALG_ALLOWED
        return [(node.lineno, f"from {node.module} import {name}") for name in sorted(bad)]
    if isinstance(node, ast.Import):
        return [(node.lineno, f"import {alias.name}") for alias in node.names
                if alias.name == "numpy.linalg"]
    return []


class TestOneBlasPool:
    """Every dense product in ublr goes through linalg.mm and every
    factorization through scipy's LAPACK, so numpy's OpenBLAS pool never
    works beside scipy's (see the linalg module docstring)."""

    PACKAGE = Path(ublr.__file__).parent

    @pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
    def test_no_numpy_blas_in_the_package(self, module):
        assert _numpy_blas_uses((self.PACKAGE / module).read_text()) == []

    def test_scan_catches_each_form(self):
        source = (
            "import numpy as np\n"
            "import numpy.linalg\n"
            "from numpy.linalg import qr\n"
            "from numpy import einsum\n"
            "y = a @ b\n"
            "y @= b\n"
            "y = np.dot(a, b) + a.dot(b) + np.tensordot(a, b, 1)\n"
            "q, r = np.linalg.qr(a)\n"
            "x = numpy.linalg.solve(a, b)\n"
            "n = np.linalg.norm(a)\n"
            "class SchurComplementOperator:\n"
            "    def apply(self, X):\n"
            "        return self.a_ff @ X\n"
        )
        lines = sorted(line for line, _ in _numpy_blas_uses(source))
        assert lines == [2, 3, 4, 5, 6, 7, 7, 7, 8, 9]


class TestColBasis:
    def test_identity_input(self):
        q = col_basis(np.eye(3), 2)
        assert q.shape == (3, 2)
        assert snorm(q.T @ q - np.eye(2)) <= 1e-13

    def test_rank_one(self, stream):
        u = gaussian(6, 1, stream.child(0))
        v = gaussian(4, 1, stream.child(1))
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        B = u @ v.T
        q = col_basis(B, 1)
        assert snorm(B - q @ (q.T @ B)) <= 1e-12 * snorm(B)

    def test_exact_rank_three_vs_svd_oracle(self, stream):
        # B = (8x3) @ (3x5) has exact rank 3; the SVD oracle confirms the
        # rank-3 projection residual that col_basis must match
        B = gaussian(8, 3, stream.child(0)) @ gaussian(3, 5, stream.child(1))
        sv = np.linalg.svd(B, compute_uv=False)
        assert sv[3] <= 1e-12 * sv[0]  # oracle: rank is exactly 3
        q = col_basis(B, 3)
        assert snorm(B - q @ (q.T @ B)) <= 1e-12 * snorm(B)

    def test_orthonormal_columns(self, stream):
        for i in range(10):
            B = gaussian(12, 7, stream.child(i))
            q = col_basis(B, 5)
            assert snorm(q.T @ q - np.eye(5)) <= 1e-12

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            col_basis(np.eye(3), 4)


class TestNullBasis:
    def test_coordinate_null_space(self):
        B = np.array([[1.0, 0.0, 0.0]])
        z = null_basis(B, 2)
        assert z.shape == (3, 2)
        assert snorm(z.T @ z - np.eye(2)) <= 1e-13
        assert snorm(B @ z) == 0.0

    def test_zero_matrix_full_null_space(self):
        z = null_basis(np.zeros((2, 5)), 5)
        assert z.shape == (5, 5)
        assert snorm(z.T @ z - np.eye(5)) <= 1e-13

    def test_generic_wide_matrix(self, stream):
        B = gaussian(3, 4, stream)
        z = null_basis(B, 1)
        assert abs(np.linalg.norm(z[:, 0]) - 1.0) <= 1e-13
        assert snorm(B @ z) <= 1e-13 * max(1.0, snorm(B))

    def test_rows_orthogonal_to_null_space(self, stream):
        B = gaussian(5, 9, stream)
        z = null_basis(B, 4)
        assert np.max(np.abs(B @ z)) <= 1e-12

    def test_k_exceeds_nullity_raises(self, stream):
        B = gaussian(3, 4, stream)  # generic nullity is exactly 1
        with pytest.raises(ValueError):
            null_basis(B, 2)

    def test_z_is_complete_qr_tail_and_rows_give_right_inverse(self, stream):
        # random shapes from near-square (nullity 1) to wide: Z is the last
        # k columns of the complete Q of B*, and rows=Y adds Y B^+
        for seed in range(24):
            gen = stream.child(seed).generator
            m = int(gen.integers(1, 60))
            nullity = int(gen.integers(1, 12))
            n = m + nullity
            B = gaussian(m, n, stream.child(seed, 1))
            Y = gaussian(int(gen.integers(1, 30)), n, stream.child(seed, 2))
            k = int(gen.integers(0, nullity + 1))
            z, yb, cond = null_basis(B, k, rows=Y)
            q, _ = np.linalg.qr(B.T, mode="complete")
            assert z.shape == (n, k)
            assert np.max(np.abs(z - q[:, n - k:]), initial=0.0) <= 1e-13
            assert snorm(z.T @ z - np.eye(k)) <= 1e-13
            assert np.array_equal(z, null_basis(B, k))
            want = Y @ np.linalg.pinv(B)
            assert snorm(yb - want) <= 1e-12 * snorm(want)
            assert 1.0 <= cond < np.inf

    def test_k_zero_with_rows(self, stream):
        B = gaussian(4, 9, stream.child(0))
        Y = gaussian(3, 9, stream.child(1))
        z, yb, _ = null_basis(B, 0, rows=Y)
        assert z.shape == (9, 0)
        want = Y @ np.linalg.pinv(B)
        assert snorm(yb - want) <= 1e-12 * snorm(want)
        assert null_basis(B, 0).shape == (9, 0)

    def test_singular_stack_with_rows_raises_linalg_error(self, stream):
        B = gaussian(4, 9, stream)
        B[2] = 0.0  # R gets an exact zero on its diagonal
        with pytest.raises(np.linalg.LinAlgError, match="dtrtrs"):
            null_basis(B, 0, rows=gaussian(3, 9, stream.child(1)))

    def test_k_exceeds_nullity_raises_with_rows(self, stream):
        B = gaussian(5, 7, stream)  # m + k > n for k = 3
        with pytest.raises(ValueError, match="does not exist"):
            null_basis(B, 3, rows=gaussian(2, 7, stream.child(1)))

    @pytest.mark.parametrize(
        "m", [1, _QR_BLOCK - 1, _QR_BLOCK, _QR_BLOCK + 1, 2 * _QR_BLOCK + 3]
    )
    def test_block_size_boundaries(self, stream, m):
        # min(m, n) = m at, around and past dgeqrt's block size
        n, k = m + 6, 4
        B = gaussian(m, n, stream.child(m, 0))
        Y = gaussian(7, n, stream.child(m, 1))
        z, yb, cond = null_basis(B, k, rows=Y)
        q, _ = np.linalg.qr(B.T, mode="complete")
        assert np.max(np.abs(z - q[:, n - k:])) <= 1e-12
        want = Y @ np.linalg.pinv(B)
        assert snorm(yb - want) <= 1e-12 * snorm(want)
        assert 1.0 <= cond < np.inf

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_inputs_unmodified(self, stream, order):
        B = np.array(gaussian(70, 80, stream.child(0)), order=order)
        Y = np.array(gaussian(5, 80, stream.child(1)), order=order)
        b_copy, y_copy = B.copy(), Y.copy()
        z, yb, _ = null_basis(B, 10, rows=Y)
        assert np.array_equal(B, b_copy) and np.array_equal(Y, y_copy)
        assert np.array_equal(z, null_basis(np.ascontiguousarray(b_copy), 10))
        assert np.max(np.abs(B @ z)) <= 1e-12

    @pytest.mark.parametrize("m, n", [(2, 4), (3, 4), (8, 10), (9, 10), (26, 28), (27, 28)])
    def test_tagging_shapes(self, stream, m, n):
        # neighbor rows of a tagging matrix (3^d or 3^d - 1 rows, 3^d + 1 columns)
        T = gaussian(m, n, stream.child(m, n))
        T /= np.linalg.norm(T, axis=1, keepdims=True)
        z = null_basis(T, 1)
        q, _ = np.linalg.qr(T.T, mode="complete")
        assert np.max(np.abs(z - q[:, -1:])) <= 1e-12
        assert np.linalg.norm(T @ z) <= 1e-13

    def test_tall_rank_deficient_without_rows(self, stream):
        # m > n: dgeqrt factors a wide B* (n reflectors), Z spans null(B)
        B = gaussian(12, 3, stream.child(0)) @ gaussian(3, 5, stream.child(1))
        z = null_basis(B, 2)
        assert z.shape == (5, 2)
        assert snorm(z.T @ z - np.eye(2)) <= 1e-13
        assert snorm(B @ z) <= 1e-12 * snorm(B)
        assert null_basis(np.zeros((7, 4)), 4).shape == (4, 4)

    def test_residual_is_relative_to_large_norm(self, stream):
        # ||B Z|| exceeds _NULL_RTOL in absolute terms but not relative to ||B||
        B = 1e8 * gaussian(20, 24, stream)
        z = null_basis(B, 4)
        assert np.linalg.norm(B @ z) > 1e-12
        assert snorm(z.T @ z - np.eye(4)) <= 1e-13

    def test_small_residual_above_tolerance_raises(self, stream):
        # ||B|| ~ 1 and a singular value of 1e-9: the residual sits just
        # above _NULL_RTOL * max(1, ||B||), far below 1
        q1, _ = np.linalg.qr(gaussian(3, 3, stream.child(0)))
        q2, _ = np.linalg.qr(gaussian(4, 3, stream.child(1)))
        B = q1 @ np.diag([1.0, 0.5, 1e-9]) @ q2.T
        with pytest.raises(ValueError, match="does not exist"):
            null_basis(B, 2)
        assert null_basis(B, 1).shape == (4, 1)

    def test_missing_null_space_message_names_the_scale(self, stream):
        B = 1e3 * gaussian(3, 4, stream)
        scale = np.linalg.norm(B)
        with pytest.raises(ValueError, match=re.escape(f"> 1.0e-12 * {scale:.3e})")):
            null_basis(B, 2)


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal_with_zero(self):
        # rank deficiency is an error, not a truncation
        with pytest.raises(np.linalg.LinAlgError, match="dtrtrs"):
            pseudo_inverse(np.diag([2.0, 0.0]))

    def test_wide_right_inverse(self, stream):
        G = gaussian(3, 7, stream)
        assert snorm(G @ pseudo_inverse(G) - np.eye(3)) <= 1e-10

    def test_penrose_identities_random_shapes(self, stream):
        for i in range(100):
            rows = int(stream.child(i, 0).generator.integers(1, 9))
            cols = int(stream.child(i, 1).generator.integers(1, 9))
            B = gaussian(rows, cols, stream.child(i, 2))
            if rows > cols:  # a tall B has no right inverse
                with pytest.raises(ValueError, match="full row rank"):
                    pseudo_inverse(B)
                continue
            P = pseudo_inverse(B)
            scale = max(1.0, snorm(B))
            assert snorm(B @ P @ B - B) <= 1e-10 * scale
            assert snorm(P @ B @ P - P) <= 1e-10 * max(1.0, snorm(P))

    def test_empty_rows(self):
        assert pseudo_inverse(np.zeros((0, 5))).shape == (5, 0)


class TestGaussian:
    def test_degenerate_shape(self, stream):
        g = gaussian(0, 5, stream)
        assert g.shape == (0, 5)

    def test_moments(self):
        g = gaussian(1000, 1, RandomStream(7))
        assert abs(g.mean()) <= 0.1
        assert abs(g.var() - 1.0) <= 0.15

    def test_seed_determinism(self):
        a = gaussian(10, 4, RandomStream(99))
        b = gaussian(10, 4, RandomStream(99))
        assert np.array_equal(a, b)

    def test_child_streams_differ(self):
        root = RandomStream(5)
        a = gaussian(8, 2, root.child(0))
        b = gaussian(8, 2, root.child(1))
        assert not np.array_equal(a, b)

    def test_child_streams_order_independent(self):
        root = RandomStream(5)
        first = gaussian(4, 4, root.child(3))
        again = gaussian(4, 4, RandomStream(5).child(3))
        assert np.array_equal(first, again)


class TestSpectralNormEstimate:
    def test_known_spectrum(self, stream):
        op = DenseOperator(np.diag([3.0, 1.0, 0.5]))
        est = estimate_spectral_norm(op, 20, stream)
        assert 2.97 <= est <= 3.0 + 1e-12

    def test_zero_operator(self, stream):
        assert estimate_spectral_norm(DenseOperator(np.zeros((4, 4))), 20, stream) == 0.0

    def test_identity(self, stream):
        est = estimate_spectral_norm(DenseOperator(np.eye(10)), 20, stream)
        assert abs(est - 1.0) <= 1e-12

    def test_monotone_in_iterations(self):
        op = DenseOperator(gaussian(15, 15, RandomStream(3)))
        estimates = [
            estimate_spectral_norm(op, its, RandomStream(11)) for its in range(1, 9)
        ]
        for lo, hi in zip(estimates, estimates[1:]):
            assert hi >= lo - 1e-12

    def test_lower_bound(self):
        A = gaussian(12, 9, RandomStream(2))
        est = estimate_spectral_norm(DenseOperator(A), 20, RandomStream(8))
        assert est <= snorm(A) + 1e-12
