import hashlib

import numpy as np
import pytest

import ublr.bases
import ublr.reconstruction
from ublr import (
    CountingOperator,
    DenseOperator,
    NearField,
    RandomStream,
    UniformBLR,
    block_nullification_bases,
    block_nullification_width,
    build_tessellation,
    color_boxes,
    compress,
    direct_core,
    gaussian,
    grid_points,
    naive_bases,
    null_basis,
    plan_tagging,
    random_points,
    structured_identity_discrepancy,
    tag_null_vector,
    tagging_bases,
    write_ublr,
)
from ublr.bases import _basis_or_identity, assemble_tagging_test_matrix, stack_t
from ublr.linalg import mm, project_out

from conftest import snorm, uniform_synthetic


def far_field_residual(op, tess, bases, i):
    """||(I - U_i U_i*) A(I_i, F_i)|| relative to ||A||."""
    far_cols = np.concatenate([tess.blocks[j] for j in tess.far_fields[i]])
    block = op.matrix[np.ix_(tess.blocks[i], far_cols)]
    u = bases.u_blocks[i]
    return snorm(block - u @ (u.T @ block)) / snorm(op.matrix)


def subspace_angle(U, V):
    """Largest principal angle (radians) between equal-rank column spaces."""
    sv = np.linalg.svd(U.T @ V, compute_uv=False)
    return float(np.arccos(np.clip(sv.min(), -1.0, 1.0)))


@pytest.fixture(scope="module")
def synthetic_small():
    return uniform_synthetic(d=1, b=8, m=16, k=3, seed=5)


class TestNearField:
    def test_keys_are_the_sorted_near_pairs(self):
        tess = build_tessellation(random_points(160, 2, RandomStream(4)), 16)
        near = NearField(tess)
        want = sorted((i, j) for i, nbrs in enumerate(tess.neighbor_lists) for j in nbrs)
        assert list(near) == want and len(near) == len(want)
        far = (0, tess.far_fields[0][0])
        assert far not in near
        with pytest.raises(KeyError):
            near[far]

    def test_rows_are_zeroed_views_into_one_buffer(self):
        tess = build_tessellation(random_points(160, 2, RandomStream(4)), 16)
        near = NearField(tess)
        sizes = tess.block_sizes
        buffer = near.rows[0].base
        assert buffer.nbytes == 8 * sum(m * tess.neighbor_row_count(i)
                                        for i, m in enumerate(sizes))
        for i, row in enumerate(near.rows):
            assert row.base is buffer and row.flags.c_contiguous and not row.any()
            assert row.shape == (sizes[i], tess.neighbor_row_count(i))
        # block (i, j) is j's columns of row i, in neighbour-list order
        for i, nbrs in enumerate(tess.neighbor_lists):
            lo = 0
            for j in nbrs:
                near[(i, j)][...] = j + 1
                assert np.array_equal(near.rows[i][:, lo:lo + sizes[j]], near[(i, j)])
                lo += sizes[j]
            assert near.rows[i].all()


class TestBlockNullification:
    def test_width_formula_uniform_1d(self):
        _, tess, _ = uniform_synthetic(d=1, b=8, m=40, k=3)
        # r = k+p = 40: s = max(40 + 3*40, 3*40) = 160
        assert block_nullification_width(tess, 40) == 160

    def test_ledger_exact(self):
        op, tess, _ = uniform_synthetic(d=1, b=8, m=40, k=30)
        cop = CountingOperator(op)
        block_nullification_bases(cop, tess, 30, 10, RandomStream(0))
        assert cop.matvecs == {"other": {"A": 160, "Astar": 160}}

    def test_nullification_identity(self, synthetic_small):
        op, tess, _ = synthetic_small
        _, bundle = block_nullification_bases(op, tess, 3, 10, RandomStream(2))
        omega_norm = snorm(bundle.omega)
        for i in range(tess.b):
            sub = bundle.omega[tess.neighbor_indices(i), :]
            proj = null_basis(sub, 13)
            assert snorm(sub @ proj) <= 1e-12 * omega_norm

    def test_far_field_residual(self, synthetic_small):
        op, tess, _ = synthetic_small
        bases, _ = block_nullification_bases(op, tess, 3, 10, RandomStream(2))
        for i in range(tess.b):
            assert far_field_residual(op, tess, bases, i) <= 1e-10

    def test_orthonormality(self, synthetic_small):
        op, tess, _ = synthetic_small
        bases, _ = block_nullification_bases(op, tess, 3, 10, RandomStream(2))
        for u, v in zip(bases.u_blocks, bases.v_blocks):
            assert snorm(u.T @ u - np.eye(u.shape[1])) <= 1e-12
            assert snorm(v.T @ v - np.eye(v.shape[1])) <= 1e-12


class TestTaggingBases:
    def test_ledger_exact(self):
        op, tess, _ = uniform_synthetic(d=1, b=8, m=40, k=30)
        cop = CountingOperator(op)
        plan = plan_tagging(tess, 0, "gaussian", RandomStream(1))
        tagging_bases(cop, tess, 30, 10, plan, RandomStream(0))
        # 4 groups of r=40 columns per side
        assert cop.matvecs == {"other": {"A": 160, "Astar": 160}}

    def test_extended_test_matrix_layout(self, synthetic_small):
        # group j of the test matrix carries t_{i,j} * G_i on block i's rows
        op, tess, _ = synthetic_small
        plan = plan_tagging(tess, 1, "gaussian", RandomStream(6))
        _, bundle = tagging_bases(op, tess, 3, 10, plan, RandomStream(0))
        gc = bundle.g_blocks[0].shape[1]
        T = plan.matrix.entries
        omega = assemble_tagging_test_matrix(tess, plan.matrix, bundle.g_blocks, gc)
        for i in range(tess.b):
            rows = tess.blocks[i]
            for j in range(plan.matrix.n_cols):
                got = omega[rows, j * gc:(j + 1) * gc]
                assert np.array_equal(got, T[i, j] * bundle.g_blocks[i])

    def test_combined_sketch_zero_rows_on_neighborhood(self, synthetic_small):
        op, tess, _ = synthetic_small
        plan = plan_tagging(tess, 0, "gaussian", RandomStream(3))
        _, bundle = tagging_bases(op, tess, 3, 10, plan, RandomStream(0))
        gc = bundle.g_blocks[0].shape[1]
        omega = assemble_tagging_test_matrix(tess, plan.matrix, bundle.g_blocks, gc)
        for i in range(tess.b):
            z = plan.null_vectors[i].vector
            groups = omega.reshape(tess.n_points, -1, gc)
            combined = np.tensordot(groups, z, axes=(1, 0))
            nbr_rows = tess.neighbor_indices(i)
            assert np.max(np.abs(combined[nbr_rows])) <= 1e-12 * snorm(omega)

    def test_far_field_residual(self, synthetic_small):
        op, tess, _ = synthetic_small
        plan = plan_tagging(tess, 0, "gaussian", RandomStream(3))
        bases, _ = tagging_bases(op, tess, 3, 10, plan, RandomStream(0))
        for i in range(tess.b):
            assert far_field_residual(op, tess, bases, i) <= 1e-9

    def test_basis_is_one_combined_sample_per_block(self, synthetic_small):
        # the optimized plan's vector, not the base null vector, combines
        # block i's sketch groups into its one sample
        op, tess, _ = synthetic_small
        plan = plan_tagging(tess, 2, "gaussian", RandomStream(3), optimize=True)
        base = [tag_null_vector(plan.matrix, tess, i).vector for i in range(tess.b)]
        assert any(not np.array_equal(nv.vector, z) for nv, z in zip(plan.null_vectors, base))
        stream = RandomStream(0)
        bases, _ = tagging_bases(op, tess, 3, 10, plan, stream)
        gc = 3 + 10  # k + p
        g_blocks = [gaussian(len(rows), gc, stream.child(0, i))
                    for i, rows in enumerate(tess.blocks)]
        y = op.apply(assemble_tagging_test_matrix(tess, plan.matrix, g_blocks, gc))
        for i, rows in enumerate(tess.blocks):
            # row l holds group l of every row of block i
            groups = y[rows].reshape(len(rows), -1, gc).transpose(1, 0, 2)
            groups = groups.reshape(plan.matrix.n_cols, -1)
            sample = mm(plan.null_vectors[i].vector, groups).reshape(len(rows), gc)
            assert np.array_equal(bases.u_blocks[i], _basis_or_identity(sample, 3))

    def test_wide_group_cols_for_type_b(self, synthetic_small):
        op, tess, _ = synthetic_small
        cop = CountingOperator(op)
        plan = plan_tagging(tess, 0, "gaussian", RandomStream(3))
        _, bundle = tagging_bases(
            cop, tess, 3, 10, plan, RandomStream(0),
            group_cols=tess.max_block_size + 10,
        )
        assert all(g.shape[1] == 26 for g in bundle.g_blocks)
        assert cop.matvecs == {"other": {"A": 4 * 26, "Astar": 4 * 26}}


class TestNaiveBases:
    def test_ledger_exact(self):
        op, tess, _ = uniform_synthetic(d=1, b=8, m=40, k=30)
        cop = CountingOperator(op)
        naive_bases(cop, tess, 30, 10, RandomStream(0))
        assert cop.matvecs == {"other": {"A": 8 * 40, "Astar": 8 * 40}}

    def test_zeroing_contract(self, synthetic_small):
        # the probe the oracle receives, b r wide, the same on both sides
        op, tess, _ = synthetic_small
        seen = {}

        class Recording(DenseOperator):
            def apply(self, X):
                seen["A"] = X.copy()
                return super().apply(X)

            def apply_adjoint(self, X):
                seen["A*"] = X.copy()
                return super().apply_adjoint(X)

        _, bundle = naive_bases(Recording(op.matrix), tess, 3, 10, RandomStream(2))
        assert bundle.omega is None
        r = 3 + 10  # k + p
        assert seen["A"].shape == seen["A*"].shape == (tess.n_points, tess.b * r)
        assert np.array_equal(seen["A"], seen["A*"])
        for i in range(tess.b):
            probe = seen["A"][:, i * r:(i + 1) * r]
            assert np.all(probe[tess.neighbor_indices(i)] == 0.0)
            far_rows = np.concatenate([tess.blocks[j] for j in tess.far_fields[i]])
            assert np.all(probe[far_rows] != 0.0)

    def test_far_field_residual(self, synthetic_small):
        op, tess, _ = synthetic_small
        bases, _ = naive_bases(op, tess, 3, 10, RandomStream(2))
        for i in range(tess.b):
            assert far_field_residual(op, tess, bases, i) <= 1e-10


class TestCrossMethod:
    def test_subspace_agreement_with_ground_truth(self, synthetic_small):
        op, tess, spec = synthetic_small
        seed = RandomStream(4)
        plan = plan_tagging(tess, 0, "gaussian", seed.child(1))
        all_bases = [
            block_nullification_bases(op, tess, 3, 10, seed.child(0))[0],
            tagging_bases(op, tess, 3, 10, plan, seed.child(0))[0],
            naive_bases(op, tess, 3, 10, seed.child(0))[0],
        ]
        for bases in all_bases:
            for i in range(tess.b):
                assert subspace_angle(bases.u_blocks[i], spec.u_blocks[i]) <= 1e-6
                assert subspace_angle(bases.v_blocks[i], spec.v_blocks[i]) <= 1e-6

    def test_determinism_bitwise(self, synthetic_small):
        op, tess, _ = synthetic_small
        a, _ = block_nullification_bases(op, tess, 3, 10, RandomStream(9))
        b, _ = block_nullification_bases(op, tess, 3, 10, RandomStream(9))
        for ua, ub in zip(a.u_blocks, b.u_blocks):
            assert np.array_equal(ua, ub)

    @pytest.mark.parametrize("builder", ["tagging", "tagging_group_cols", "naive"])
    def test_forward_bases_ignore_the_adjoint(self, synthetic_small, builder):
        # both sides sketch one test matrix, drawn as the forward side's:
        # an oracle whose adjoint is another matrix leaves every U_i bitwise
        op, tess, _ = synthetic_small
        other = gaussian(tess.n_points, tess.n_points, RandomStream(8))

        class OtherAdjoint(DenseOperator):
            def apply_adjoint(self, X):
                return other.T @ X

        plan = plan_tagging(tess, 0, "gaussian", RandomStream(3))
        build = {
            "tagging": lambda o: tagging_bases(o, tess, 3, 10, plan, RandomStream(0)),
            "tagging_group_cols": lambda o: tagging_bases(
                o, tess, 3, 10, plan, RandomStream(0), group_cols=tess.max_block_size + 10),
            "naive": lambda o: naive_bases(o, tess, 3, 10, RandomStream(0)),
        }[builder]
        want, _ = build(op)
        got, _ = build(OtherAdjoint(op.matrix))
        for u_want, u_got in zip(want.u_blocks, got.u_blocks):
            assert np.array_equal(u_want, u_got)
        assert any(not np.array_equal(a, b) for a, b in zip(want.v_blocks, got.v_blocks))

    def test_tiny_blocks_identity_padded(self):
        op, tess, _ = uniform_synthetic(d=1, b=8, m=4, k=2, seed=3)
        bases, _ = block_nullification_bases(op, tess, 6, 2, RandomStream(0))
        # k=6 exceeds every block size 4: identity bases, effective rank 4
        for u in bases.u_blocks:
            assert u.shape == (4, 4)
            assert np.array_equal(u, np.eye(4))
        assert np.all(bases.effective_ranks == 4)


class TestBlockNullificationRightInverses:
    """The type-B bundle's right-inverse rows come from step I's QR."""

    @staticmethod
    def random_case(seed):
        # d = 1 or 2, uniform grids and ragged random-point grids, and p as
        # small as 0 so the widest neighbor stack is nearly square
        gen = RandomStream(seed).generator
        d = 1 + seed % 2
        b = int(gen.integers(3, 7)) ** d
        n = b * int(gen.integers(6, 16))
        if seed % 3 == 0:
            per_axis = round(n ** (1.0 / d))
            points = grid_points(per_axis, d)
        else:
            points = random_points(n, d, RandomStream(seed).child(1))
        tess = build_tessellation(points, b)
        op = DenseOperator(gaussian(tess.n_points, tess.n_points, RandomStream(seed).child(2)))
        k = int(gen.integers(1, 4))
        p = int(gen.integers(0, 6))
        return op, tess, k, p

    @pytest.mark.parametrize("seed", range(24))
    def test_rows_match_svd_pseudo_inverse_and_keep_bases(self, seed):
        op, tess, k, p = self.random_case(seed)
        plain, plain_bundle = block_nullification_bases(
            op, tess, k, p, RandomStream(seed).child(3)
        )
        bases, bundle = block_nullification_bases(
            op, tess, k, p, RandomStream(seed).child(3), right_inverses=True
        )
        # the keyword adds the rows and leaves the bases bitwise unchanged
        assert plain_bundle.y_rinv is None and plain_bundle.stack_conds is None
        for a, b in zip(plain.u_blocks + plain.v_blocks, bases.u_blocks + bases.v_blocks):
            assert np.array_equal(a, b)
        # one stack, and one condition estimate, per block serves both sides
        assert bundle.stack_conds.shape == (tess.b,)
        assert np.all(np.isfinite(bundle.stack_conds))
        assert np.all(bundle.stack_conds >= 1.0)
        # the bundle keeps no sketch: both come from omega
        y, z = op.apply(bundle.omega), op.apply_adjoint(bundle.omega)
        for i in range(tess.b):
            rows, nbrs = tess.blocks[i], tess.neighbor_indices(i)
            pinv = np.linalg.pinv(bundle.omega[nbrs, :])
            sides = (
                (bundle.y_rinv.rows[i], bases.u_blocks[i], y),
                (bundle.z_rinv.rows[i], bases.v_blocks[i], z),
            )
            for got, basis, sketch in sides:
                want = project_out(basis, sketch[rows, :]) @ pinv
                assert got.shape == (len(rows), len(nbrs))
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.array_equal(bundle.uy, stack_t(bases.u_blocks, tess, y))

    def test_symmetric_operator_gives_equal_spans(self, synthetic_small):
        # A* Omega = A Omega, and one null basis projects both sketches
        _, tess, _ = synthetic_small
        a = gaussian(tess.n_points, tess.n_points, RandomStream(4))
        bases, _ = block_nullification_bases(DenseOperator(a + a.T), tess, 3, 10, RandomStream(6))
        for u, v in zip(bases.u_blocks, bases.v_blocks):
            assert np.linalg.norm(u @ u.T - v @ v.T) <= 1e-10

    def test_one_null_basis_per_stack(self, synthetic_small, monkeypatch):
        # A1 factors each neighbour stack once; B1 also pinv_core's V* Omega.
        # A2 factors nothing in step I; B2 each test block G_j once for both
        # sides, and pinv_core's V* Omega (the plan's QRs are tagging's own)
        op, tess, _ = synthetic_small
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return null_basis(*args, **kwargs)

        monkeypatch.setattr(ublr.bases, "null_basis", counted)
        monkeypatch.setattr(ublr.reconstruction, "null_basis", counted)
        for method, want in (("A1", tess.b), ("B1", tess.b + 1), ("A2", 0), ("B2", tess.b + 1)):
            calls.clear()
            compress(op, tess, 3, method, p=10, stream=RandomStream(1), compute_error=False)
            assert len(calls) == want

    def test_a1_container_matches_keyword_off_pipeline(self, synthetic_small, tmp_path):
        op, tess, _ = synthetic_small

        def digest(rep):
            path = tmp_path / "rep.ublr"
            write_ublr(path, rep)
            return hashlib.sha256(path.read_bytes()).hexdigest()

        stream = RandomStream(11)
        bases, _ = block_nullification_bases(op, tess, 3, 10, stream.child(0))
        core = direct_core(op, tess, bases)
        b_blocks = structured_identity_discrepancy(op, tess, bases, core, color_boxes(tess))
        expected = digest(UniformBLR(
            tess=tess, rank=3, u_blocks=bases.u_blocks, v_blocks=bases.v_blocks,
            core=core, b_blocks=b_blocks,
        ))
        rep, _ = compress(op, tess, 3, "A1", p=10, stream=stream, compute_error=False)
        assert digest(rep) == expected
