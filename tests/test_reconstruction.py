import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import ublr.bases
from ublr import (
    CountingOperator,
    DenseOperator,
    PointCloud,
    RandomStream,
    UniformBLR,
    block_nullification_bases,
    build_tessellation,
    color_boxes,
    compress,
    compress_type_a,
    compress_type_b,
    direct_core,
    evaluate_plan,
    gaussian,
    gaussian_pinv_discrepancy,
    grid_points,
    laplace2d_operator,
    make_tagging_matrix,
    naive_bases,
    null_basis,
    pinv_core,
    plan_tagging,
    pseudo_inverse,
    random_points,
    relative_error,
    structured_identity_discrepancy,
    tagging_bases,
    tagging_pinv_discrepancy,
)
from ublr.bases import (
    BlockBases,
    NearField,
    SketchBundle,
    assemble_tagging_test_matrix,
    blkdiag,
    stack_t,
)
from ublr.linalg import col_basis, mm, project_out
from ublr.reconstruction import b2_denominators_ok
from ublr.tagging import DegenerateTagsError

from conftest import snorm, uniform_synthetic


@pytest.fixture(scope="module")
def synthetic_case():
    return uniform_synthetic(d=1, b=8, m=16, k=3, seed=5)


def box_grid(d, b):
    """Tessellation of b boxes, 4^d grid points each."""
    return build_tessellation(grid_points(4 * round(b ** (1 / d)), d), b)


def ground_truth_rep(spec, op):
    """Exact (U, C, V, B) decomposition of a synthetic exact-rank operator."""
    tess, k, A = spec.tess, spec.rank, op.matrix
    offs = np.arange(tess.b + 1) * k
    core = np.empty((tess.b * k, tess.b * k))
    for i, rows in enumerate(tess.blocks):
        for j, cols in enumerate(tess.blocks):
            core[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = (
                spec.u_blocks[i].T @ A[np.ix_(rows, cols)] @ spec.v_blocks[j]
            )
    b_blocks = NearField(tess)
    for (i, j), blk in b_blocks.items():
        low = spec.u_blocks[i] @ core[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] @ spec.v_blocks[j].T
        blk[...] = A[np.ix_(tess.blocks[i], tess.blocks[j])] - low
    return UniformBLR(
        tess=tess, rank=k, u_blocks=spec.u_blocks, v_blocks=spec.v_blocks,
        core=core, b_blocks=b_blocks,
    )


def dense_discrepancy_oracle(op, tess, bases, core):
    """Near-field remainder computed densely from the assembled matrix."""
    offs = bases.rank_offsets()
    out = {}
    for i in range(tess.b):
        for j in tess.neighbor_lists[i]:
            block = op.matrix[np.ix_(tess.blocks[i], tess.blocks[j])]
            low = (
                bases.u_blocks[i]
                @ core[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
                @ bases.v_blocks[j].T
            )
            out[(i, j)] = block - low
    return out


class TestDirectCore:
    def test_far_blocks_match_ground_truth(self, synthetic_case):
        op, tess, _ = synthetic_case
        bases, _ = block_nullification_bases(op, tess, 3, 10, RandomStream(1))
        core = direct_core(op, tess, bases)
        offs = bases.rank_offsets()
        scale = snorm(op.matrix)
        for i in range(tess.b):
            for j in tess.far_fields[i]:
                assembled = (
                    bases.u_blocks[i]
                    @ core[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
                    @ bases.v_blocks[j].T
                )
                truth = op.matrix[np.ix_(tess.blocks[i], tess.blocks[j])]
                assert snorm(assembled - truth) <= 1e-10 * scale

    def test_zero_rank_empty_core(self):
        op, tess, _ = uniform_synthetic(d=1, b=8, m=16, k=0)
        bases, _ = block_nullification_bases(op, tess, 0, 10, RandomStream(1))
        core = direct_core(op, tess, bases)
        assert core.shape == (0, 0)

    def test_ledger_is_total_rank(self):
        op, tess, _ = uniform_synthetic(d=1, b=16, m=40, k=30)
        bases, _ = block_nullification_bases(op, tess, 30, 10, RandomStream(1))
        cop = CountingOperator(op)
        direct_core(cop, tess, bases)
        assert cop.matvecs == {"other": {"A": 16 * 30, "Astar": 0}}


class TestStructuredIdentityDiscrepancy:
    def test_blocks_match_dense_oracle(self, synthetic_case):
        op, tess, _ = synthetic_case
        bases, _ = block_nullification_bases(op, tess, 3, 10, RandomStream(1))
        core = direct_core(op, tess, bases)
        got = structured_identity_discrepancy(op, tess, bases, core, color_boxes(tess))
        want = dense_discrepancy_oracle(op, tess, bases, core)
        assert set(got) == set(want)
        scale = snorm(op.matrix)
        for key in want:
            assert snorm(got[key] - want[key]) <= 1e-10 * scale

    def test_three_probes_in_1d(self, synthetic_case):
        op, tess, _ = synthetic_case
        bases, _ = block_nullification_bases(op, tess, 3, 10, RandomStream(1))
        core = direct_core(op, tess, bases)
        cop = CountingOperator(op)
        structured_identity_discrepancy(cop, tess, bases, core, color_boxes(tess))
        # 3 colors, each probe m=16 wide
        assert cop.matvecs == {"other": {"A": 48, "Astar": 0}}

    def test_zero_operator_gives_zero_blocks(self):
        tess = build_tessellation(grid_points(32, 1), 8)
        op = DenseOperator(np.zeros((32, 32)))
        bases, _ = block_nullification_bases(op, tess, 2, 4, RandomStream(1))
        core = direct_core(op, tess, bases)
        got = structured_identity_discrepancy(op, tess, bases, core, color_boxes(tess))
        for blk in got.values():
            assert np.max(np.abs(blk)) <= 1e-12

    def test_invalid_coloring_aborts(self, synthetic_case):
        op, tess, _ = synthetic_case
        bases, _ = block_nullification_bases(op, tess, 3, 10, RandomStream(1))
        core = direct_core(op, tess, bases)
        from ublr.tessellation import BoxColoring

        bad = BoxColoring(colors=np.zeros(tess.b, dtype=int), num_colors=1)
        cop = CountingOperator(op)
        with pytest.raises(ValueError, match="invalid coloring"):
            structured_identity_discrepancy(cop, tess, bases, core, bad)
        assert cop.matvecs == {}  # raised before the oracle call


class RecordingOperator(DenseOperator):
    """Dense oracle that keeps a copy of every input, tagged "A" or "A*"."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.calls = []

    def apply(self, X):
        self.calls.append(("A", np.array(X)))
        return super().apply(X)

    def apply_adjoint(self, X):
        self.calls.append(("A*", np.array(X)))
        return super().apply_adjoint(X)


def per_color_discrepancy(op, tess, bases, core, coloring):
    """Reference for structured_identity_discrepancy: one probe and one
    oracle call per color, the low-rank part subtracted on the full probe."""
    colors = np.asarray(coloring.colors)
    sizes = tess.block_sizes
    out = {}
    for c in range(coloring.num_colors):
        members = np.flatnonzero(colors == c)
        probe = np.zeros((tess.n_points, int(sizes[members].max())))
        for j in members:
            probe[tess.blocks[j], : sizes[j]] = np.eye(sizes[j])
        resid = op.apply(probe)
        resid -= blkdiag(bases.u_blocks, tess, core @ stack_t(bases.v_blocks, tess, probe))
        for j in members:
            for i in tess.neighbor_lists[j]:
                out[(i, int(j))] = resid[tess.blocks[i], : sizes[j]].copy()
    return out


def l_shaped_points(n, seed):
    """Random points of the unit square outside its upper-right quarter, so
    a 5 x 5 box grid drops cells."""
    x = RandomStream(seed).uniform(2 * n, 2)
    return PointCloud(x[~((x[:, 0] > 0.55) & (x[:, 1] > 0.55))][:n], 2)


def random_bases(tess, k, seed):
    """Orthonormal U_i, V_i of rank min(k, m_i) and a Gaussian core."""
    ranks = np.minimum(tess.block_sizes, k)
    stream = RandomStream(seed)
    u = [col_basis(gaussian(m, r, stream.child(0, i)), r)
         for i, (m, r) in enumerate(zip(tess.block_sizes, ranks))]
    v = [col_basis(gaussian(m, r, stream.child(1, i)), r)
         for i, (m, r) in enumerate(zip(tess.block_sizes, ranks))]
    bases = BlockBases(u_blocks=u, v_blocks=v, rank=k)
    return bases, gaussian(bases.total_rank, bases.total_rank, stream.child(2))


class TestTypeAOracleInputs:
    """Type A's step III sends every color's probe through the oracle in one
    call, and step II sends block-diagonal V."""

    # (points, box count, k): ragged grids whose colors mix block sizes and
    # hold blocks with m_j <= k, in d = 1, 2 and 3, plus one with dropped cells
    CASES = {
        "d1": (lambda: random_points(200, 1, RandomStream(2)), 16, 10),
        "d2": (lambda: random_points(160, 2, RandomStream(4)), 16, 8),
        "d3": (lambda: random_points(640, 3, RandomStream(3)), 64, 8),
        "dropped-cells": (lambda: l_shaped_points(240, 7), 25, 10),
    }

    @pytest.fixture(scope="class", params=sorted(CASES))
    def case(self, request):
        points, b, k = self.CASES[request.param]
        tess = build_tessellation(points(), b)
        coloring = color_boxes(tess)
        sizes = tess.block_sizes
        assert (sizes <= k).any() and (sizes > k).any()
        assert any(len(set(sizes[coloring.colors == c])) > 1 for c in range(coloring.num_colors))
        op = RecordingOperator(gaussian(tess.n_points, tess.n_points, RandomStream(11)))
        bases, core = random_bases(tess, k, 12)
        return op, tess, bases, core, coloring

    def test_one_apply_of_the_summed_color_widths(self, case):
        op, tess, bases, core, coloring = case
        op.calls.clear()
        structured_identity_discrepancy(op, tess, bases, core, coloring)
        widths = sum(
            tess.block_sizes[coloring.colors == c].max() for c in range(coloring.num_colors)
        )
        assert [(kind, X.shape) for kind, X in op.calls] == [("A", (tess.n_points, widths))]

    def test_blocks_match_per_color_reference(self, case):
        op, tess, bases, core, coloring = case
        got = structured_identity_discrepancy(op, tess, bases, core, coloring)
        want = per_color_discrepancy(op, tess, bases, core, coloring)
        assert set(got) == set(want)
        scale = max(np.abs(blk).max() for blk in want.values())
        for key, blk in want.items():
            assert got[key].shape == blk.shape
            assert np.abs(got[key] - blk).max() <= 1e-13 * scale, key

    def test_direct_core_input_is_block_diagonal_v(self, case):
        op, tess, bases, _, _ = case
        op.calls.clear()
        direct_core(op, tess, bases)
        (kind, X), = op.calls
        assert kind == "A"
        assert np.array_equal(X, blkdiag(bases.v_blocks, tess, np.eye(bases.total_rank)))


class TestTypeBDiscrepancy:
    def test_bn_matches_structured_ids(self, synthetic_case):
        op, tess, _ = synthetic_case
        bases, bundle = block_nullification_bases(
            op, tess, 3, 10, RandomStream(1), right_inverses=True
        )
        core = direct_core(op, tess, bases)
        via_ids = structured_identity_discrepancy(op, tess, bases, core, color_boxes(tess))
        via_pinv = gaussian_pinv_discrepancy(bundle, bases)
        scale = snorm(op.matrix)
        assert set(via_ids) == set(via_pinv)
        for key in via_ids:
            assert snorm(via_ids[key] - via_pinv[key]) <= 1e-8 * scale

    def test_bn_costs_no_matvecs(self, synthetic_case):
        op, tess, _ = synthetic_case
        cop = CountingOperator(op)
        bases, bundle = block_nullification_bases(
            cop, tess, 3, 10, RandomStream(1), right_inverses=True
        )
        before = {ph: dict(cols) for ph, cols in cop.matvecs.items()}
        gaussian_pinv_discrepancy(bundle, bases)
        assert cop.matvecs == before

    def test_projector_annihilation_with_full_bases(self):
        # k >= m: U_i is the identity, so (I - U U*)Y = 0 and B comes
        # entirely from the adjoint-side term
        op, tess, _ = uniform_synthetic(d=1, b=8, m=4, k=2, seed=3)
        bases, bundle = block_nullification_bases(op, tess, 6, 2, RandomStream(0))
        y = op.apply(bundle.omega)
        for i in range(tess.b):
            perp = y[tess.blocks[i], :] - bases.u_blocks[i] @ (
                bases.u_blocks[i].T @ y[tess.blocks[i], :]
            )
            assert np.max(np.abs(perp)) <= 1e-12

    def test_tagging_matches_structured_ids(self, synthetic_case):
        op, tess, _ = synthetic_case
        plan = plan_tagging(tess, 0, "gaussian", RandomStream(2))
        bases, bundle = tagging_bases(
            op, tess, 3, 10, plan, RandomStream(1),
            group_cols=tess.max_block_size + 10,
        )
        core = direct_core(op, tess, bases)
        via_ids = structured_identity_discrepancy(op, tess, bases, core, color_boxes(tess))
        via_tags = tagging_pinv_discrepancy(bundle, bases)
        scale = snorm(op.matrix)
        for key in via_ids:
            assert snorm(via_ids[key] - via_tags[key]) <= 1e-7 * scale

    @pytest.mark.parametrize("d, b, m", [(1, 8, 16), (2, 16, 9)])
    def test_tagging_matches_per_pair_reference(self, d, b, m):
        # one pair at a time, with np.linalg.pinv for both right inverses:
        # the same terms summed in another order, so the blocks agree to
        # rounding
        op, tess, _ = uniform_synthetic(d=d, b=b, m=m, k=2, seed=4)
        plan = plan_tagging(tess, 0, "gaussian", RandomStream(2))
        gc = tess.max_block_size + 6
        bases, bundle = tagging_bases(op, tess, 2, 6, plan, RandomStream(1), group_cols=gc)
        T = bundle.plan.matrix.entries
        # the bundle keeps no sketch: rebuild both from its one test matrix
        omega = assemble_tagging_test_matrix(tess, plan.matrix, bundle.g_blocks, gc)
        y, z = op.apply(omega), op.apply_adjoint(omega)

        def term(i, j, sketch, basis, test_block):
            nbrs = tess.neighbor_lists[i]
            w = np.linalg.pinv(T[nbrs, :])[:, nbrs.index(j)]
            rows = sketch[tess.blocks[i], :]
            comb = sum(w[l] * rows[:, l * gc:(l + 1) * gc] for l in range(len(w)))
            comb -= basis[i] @ (basis[i].T @ comb)
            return comb @ np.linalg.pinv(test_block)

        got = tagging_pinv_discrepancy(bundle, bases)
        big = max(snorm(v) for v in got.values())
        for i in range(tess.b):
            for j in tess.neighbor_lists[i]:
                row = term(i, j, y, bases.u_blocks, bundle.g_blocks[j])
                col = term(j, i, z, bases.v_blocks, bundle.g_blocks[i]).T
                want = row + bases.u_blocks[i] @ (bases.u_blocks[i].T @ col)
                assert snorm(got[(i, j)] - want) <= 1e-12 * big

    @pytest.mark.parametrize("d, b", [(1, 8), (2, 16), (2, 36)])
    def test_tagging_right_inverse_isolates_each_neighbour(self, d, b):
        tess = box_grid(d, b)
        for seed in range(5):
            T = make_tagging_matrix(b, d, 0, "gaussian", RandomStream(seed)).entries
            for nbrs in tess.neighbor_lists:
                w = pseudo_inverse(T[nbrs, :])
                assert w.shape == (T.shape[1], len(nbrs))
                assert snorm(T[nbrs, :] @ w - np.eye(len(nbrs))) <= 1e-12
                assert snorm(w - np.linalg.pinv(T[nbrs, :])) <= 1e-12 * snorm(w)

    @pytest.mark.parametrize("d, b", [(1, 8), (2, 16), (2, 36)])
    def test_pair_null_vector_tag_bounded_by_right_inverse(self, d, b):
        # a unit null vector z of the neighbour rows without j has
        # |t_j . z| <= 1/||w_p||, so 1/||w_p|| is the best pair denominator
        tess = box_grid(d, b)
        for seed in range(10):
            T = make_tagging_matrix(b, d, 0, "gaussian", RandomStream(seed)).entries
            for nbrs in tess.neighbor_lists:
                w = pseudo_inverse(T[nbrs, :])
                for p, j in enumerate(nbrs):
                    z = null_basis(T[[q for q in nbrs if q != j], :], 1)[:, 0]
                    assert abs(T[j] @ z) <= (1 + 1e-12) / np.linalg.norm(w[:, p])

    @pytest.mark.parametrize("offset", [0.0, 1e-13])
    def test_b2_check_rejects_dependent_neighbour_rows(self, offset):
        # rows 0 and 1 are neighbours; within 1e-12 of each other, their
        # right inverse's columns blow up; identical, dtrtrs finds a zero
        # pivot and the plan has no right inverse to check
        tess = build_tessellation(grid_points(32, 1), 8)
        assert 1 in tess.neighbor_lists[0]
        T = make_tagging_matrix(8, 1, 0, "gaussian", RandomStream(3))
        entries = T.entries.copy()
        entries[1] = entries[0] + offset
        T = dataclasses.replace(T, entries=entries)
        if offset == 0.0:
            with pytest.raises(DegenerateTagsError, match="block 0: .* exactly dependent"):
                evaluate_plan(T, tess)
        else:
            assert not b2_denominators_ok(evaluate_plan(T, tess))

    @pytest.mark.parametrize("d, b", [(1, 8), (2, 16), (2, 36)])
    def test_b2_check_accepts_gaussian_draws(self, d, b):
        tess = box_grid(d, b)
        for seed in range(10):
            T = make_tagging_matrix(b, d, 0, "gaussian", RandomStream(seed))
            assert b2_denominators_ok(evaluate_plan(T, tess))

    def test_gaussian_right_inverse_accuracy(self, stream):
        # m x (m+p) Gaussian with p=10 has a right inverse to ~1e-8
        for m in (8, 16, 40):
            G = gaussian(m, m + 10, stream.child(m))
            assert snorm(G @ pseudo_inverse(G) - np.eye(m)) <= 1e-8

    def test_ill_conditioned_stack_warns(self, synthetic_case, monkeypatch):
        op, tess, _ = synthetic_case
        # two nearly identical rows inside one neighborhood stack drive the
        # smallest singular value toward zero; they must exist before step I,
        # which factors the stacks
        def near_duplicate_rows(rows, cols, stream):
            g = gaussian(rows, cols, stream)
            g[1, :] = g[0, :] * (1 + 1e-9)
            return g

        monkeypatch.setattr(ublr.bases, "gaussian", near_duplicate_rows)
        bases, bundle = block_nullification_bases(
            op, tess, 3, 10, RandomStream(1), right_inverses=True
        )
        with pytest.warns(UserWarning, match="condition"):
            gaussian_pinv_discrepancy(bundle, bases)

    def test_bn_without_right_inverses_names_keyword(self, synthetic_case):
        op, tess, _ = synthetic_case
        bases, bundle = block_nullification_bases(op, tess, 3, 10, RandomStream(1))
        with pytest.raises(ValueError, match="right_inverses"):
            gaussian_pinv_discrepancy(bundle, bases)


class TestPinvCore:
    def test_exact_recovery_when_b_is_zero(self, stream):
        # A = U C0 V* globally: pinv_core must reproduce C0 in the same bases
        tess = build_tessellation(grid_points(64, 1), 8)
        k = 3
        u_blocks = [col_basis(gaussian(8, k, stream.child(0, i)), k) for i in range(8)]
        v_blocks = [col_basis(gaussian(8, k, stream.child(1, i)), k) for i in range(8)]
        c0 = gaussian(24, 24, stream.child(2))
        u_dense = np.zeros((64, 24))
        v_dense = np.zeros((64, 24))
        for i in range(8):
            u_dense[tess.blocks[i], 3 * i:3 * i + 3] = u_blocks[i]
            v_dense[tess.blocks[i], 3 * i:3 * i + 3] = v_blocks[i]
        A = u_dense @ c0 @ v_dense.T
        op = DenseOperator(A)

        from ublr.bases import BlockBases

        bases = BlockBases(u_blocks=u_blocks, v_blocks=v_blocks, rank=k)
        s = 40  # > K + p = 34
        omega = gaussian(64, s, stream.child(3))
        y = A @ omega
        bundle = SketchBundle(
            omega=omega, s=s, tess=tess,
            uy=stack_t(u_blocks, tess, y),
        )
        core, added = pinv_core(op, bundle, bases, NearField(tess), 10, stream.child(4))
        assert added == 0
        assert snorm(core - c0) <= 1e-10 * max(1.0, snorm(c0))

    def test_augmentation_count_ledgered(self, synthetic_case):
        op, tess, _ = synthetic_case
        # K = 24; shrink the bundle so augmentation is needed
        bases, bundle = block_nullification_bases(
            op, tess, 3, 10, RandomStream(1), right_inverses=True
        )
        bundle.omega = bundle.omega[:, :20]
        bundle.uy = bundle.uy[:, :20]
        bundle.s = 20
        cop = CountingOperator(op)
        _, added = pinv_core(cop, bundle, bases, NearField(tess), 10, RandomStream(5))
        assert added == 24 + 10 - 20
        assert cop.matvecs == {"other": {"A": added, "Astar": 0}}

    @pytest.mark.parametrize("case", ["B1", "B2", "augmented"])
    def test_matches_dense_formula(self, case):
        # U_i* Y_i - sum_j (U_i* B_ij) Omega_j reorders the sums of the
        # n x s formula U*(Y - B Omega), so the cores agree to rounding:
        # 100 eps per unit of cond(V* Omega)
        pts = random_points(576, 2, RandomStream(3).child(1))
        tess = build_tessellation(pts, 16)
        op = laplace2d_operator(pts)
        k, p = 10, 10
        if case == "B2":
            plan = plan_tagging(tess, 0, "gaussian", RandomStream(2))
            bases, bundle = tagging_bases(
                op, tess, k, p, plan, RandomStream(1), group_cols=tess.max_block_size + p
            )
            b_blocks = tagging_pinv_discrepancy(bundle, bases)
            omega = assemble_tagging_test_matrix(
                tess, plan.matrix, bundle.g_blocks, bundle.g_blocks[0].shape[1]
            )
        else:
            bases, bundle = block_nullification_bases(
                op, tess, k, p, RandomStream(1), right_inverses=True
            )
            b_blocks = gaussian_pinv_discrepancy(bundle, bases)
            omega = bundle.omega
        y = op.apply(omega)  # the bundle keeps U_i* Y_i, not Y
        if case == "augmented":  # K = 160: 40 columns leave 130 to add
            bundle.omega, bundle.s = omega[:, :40], 40
            bundle.uy = bundle.uy[:, :40]
            om_extra = gaussian(tess.n_points, 130, RandomStream(5))
            omega = np.hstack((bundle.omega, om_extra))
            y = np.hstack((y[:, :40], op.apply(om_extra)))
        core, added = pinv_core(op, bundle, bases, b_blocks, p, RandomStream(5))
        assert added == (130 if case == "augmented" else 0)
        b_om = np.zeros_like(omega)  # B Omega, summed over the near pairs
        for (i, j), blk in b_blocks.items():
            b_om[tess.blocks[i]] += blk @ omega[tess.blocks[j]]
        v_om = stack_t(bases.v_blocks, tess, omega)
        _, want, _ = null_basis(v_om, 0, rows=stack_t(bases.u_blocks, tess, y - b_om))
        tol = 100 * np.finfo(float).eps * np.linalg.cond(v_om)
        assert np.linalg.norm(core - want) <= tol * np.linalg.norm(want)

    @staticmethod
    def b2_case(extra):
        """A B2 bundle with its bases; with extra, K + p exceeds its width s
        (214 columns on this N = 1024 grid), so pinv_core widens Omega."""
        n, b, k = (1024, 36, 20) if extra else (576, 16, 10)
        pts = random_points(n, 2, RandomStream(3).child(1))
        tess = build_tessellation(pts, b)
        op = laplace2d_operator(pts)
        plan = plan_tagging(tess, 0, "gaussian", RandomStream(2), extra_check=b2_denominators_ok)
        bases, bundle = tagging_bases(
            op, tess, k, 10, plan, RandomStream(1), group_cols=tess.max_block_size + 10
        )
        assert (bases.total_rank + 10 > bundle.s) == extra
        return op, tess, plan, bases, bundle

    @pytest.mark.parametrize("extra", [False, True], ids=["no_extra", "extra"])
    def test_tagging_test_rows_are_the_assembled_rows(self, extra):
        _, tess, plan, _, bundle = self.b2_case(extra)
        assert bundle.omega is None
        omega = assemble_tagging_test_matrix(
            tess, plan.matrix, bundle.g_blocks, bundle.g_blocks[0].shape[1]
        )
        for j, rows in enumerate(tess.blocks):
            assert np.array_equal(bundle.test_rows(j), omega[rows])

    @pytest.mark.parametrize("extra", [False, True], ids=["no_extra", "extra"])
    def test_tagging_rows_are_the_sketch_formula(self, extra):
        # step I's rows are bitwise project_out(U_i, .) of Y_i's groups
        # contracted with W_i, neighbour p's times G_j^+ for every p, and
        # U_i* Y_i; the adjoint side likewise with Z = A* Omega, V_i and the
        # same G_j^+
        op, tess, plan, bases, bundle = self.b2_case(extra)
        gc = bundle.g_blocks[0].shape[1]
        omega = assemble_tagging_test_matrix(tess, plan.matrix, bundle.g_blocks, gc)
        sides = [
            (bundle.y_rinv, bundle.uy, bases.u_blocks, op.apply),
            (bundle.z_rinv, None, bases.v_blocks, op.apply_adjoint),
        ]
        for got, got_uy, basis, apply in sides:
            sketch = apply(omega)
            if got_uy is not None:
                assert np.array_equal(got_uy, stack_t(basis, tess, sketch))
            for i, rows in enumerate(tess.blocks):
                m = len(rows)
                groups = sketch[rows, :].reshape(m, -1, gc).transpose(1, 0, 2).reshape(-1, m * gc)
                comb = mm(plan.right_inverses[i].T, groups).reshape(-1, m, gc)
                want = [mm(comb[p], pseudo_inverse(bundle.g_blocks[j]))
                        for p, j in enumerate(tess.neighbor_lists[i])]
                assert np.array_equal(got.rows[i], project_out(basis[i], np.hstack(want)))

    @pytest.mark.parametrize("extra", [False, True], ids=["no_extra", "extra"])
    def test_tagging_core_same_with_dense_omega(self, extra):
        # rows rebuilt from the plan give the core the assembled Omega gives
        op, tess, plan, bases, bundle = self.b2_case(extra)
        b_blocks = tagging_pinv_discrepancy(bundle, bases)
        uy = bundle.uy.copy()  # pinv_core takes U* Y out of the bundle
        core, added = pinv_core(op, bundle, bases, b_blocks, 10, RandomStream(5))
        assert (added > 0) == extra and bundle.uy is None
        bundle.omega = assemble_tagging_test_matrix(
            tess, plan.matrix, bundle.g_blocks, bundle.g_blocks[0].shape[1]
        )
        bundle.uy = uy
        dense_core, _ = pinv_core(op, bundle, bases, b_blocks, 10, RandomStream(5))
        assert np.array_equal(core, dense_core)

    @staticmethod
    def b1_case(synthetic_case):
        op, tess, _ = synthetic_case
        bases, bundle = block_nullification_bases(
            op, tess, 3, 10, RandomStream(1), right_inverses=True
        )
        return op, tess, bases, bundle, gaussian_pinv_discrepancy(bundle, bases)

    def test_rank_deficient_v_omega_raises(self, synthetic_case):
        # zero rows of Omega make V_0* Omega[I_0] exactly zero, so R has an
        # exact zero on its diagonal; a well-posed V* Omega does not warn
        op, tess, bases, bundle, b_blocks = self.b1_case(synthetic_case)
        uy = bundle.uy.copy()  # pinv_core takes U* Y out of the bundle
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pinv_core(op, bundle, bases, b_blocks, 10, RandomStream(5))
        bundle.omega[tess.blocks[0]] = 0.0
        bundle.uy = uy
        with pytest.raises(np.linalg.LinAlgError, match="dtrtrs"):
            pinv_core(op, bundle, bases, b_blocks, 10, RandomStream(5))

    def test_ill_conditioned_v_omega_warns(self, synthetic_case):
        op, tess, bases, bundle, b_blocks = self.b1_case(synthetic_case)
        bundle.omega[tess.blocks[0]] *= 1e-10
        with pytest.warns(UserWarning, match=r"V\* Omega has condition .* cond\(R\)"):
            pinv_core(op, bundle, bases, b_blocks, 10, RandomStream(5))


class TestCompressMemory:
    @staticmethod
    def memory_case():
        pts = random_points(1024, 2, RandomStream(0).child(1))
        return laplace2d_operator(pts), build_tessellation(pts, 16)

    @staticmethod
    def traced(fn):
        """(result, tracemalloc peak in bytes) of fn()."""
        tracemalloc.start()
        try:
            out = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out, peak

    @classmethod
    def traced_peak(cls, method):
        """tracemalloc peak inside compress, in units of n s doubles."""
        op, tess = cls.memory_case()
        (_, report), peak = cls.traced(
            lambda: compress(op, tess, 20, method, stream=RandomStream(0), compute_error=False)
        )
        return peak / (tess.n_points * report.matvecs["I"]["A"] * 8)

    # B2's step I holds one side's test matrix and sketch (2 n s doubles) at
    # a time, beside the adjoint side's right-inverse rows once its sketch
    # has gone; step II rebuilds Omega's block rows from the plan. Before the
    # sketch arrays were released after their last reader, these peaks were
    # 5.73 (A3) and 7.62 (B2) n s doubles. B2's was 4.68 while it kept omega
    # and psi, and 3.31 while y and z lived on into steps III and II; it is
    # 2.87 since step I hands on only the rows later steps read, and 2.81
    # since pinv_core reduces U* Y in place instead of stacking a copy.
    @pytest.mark.parametrize("method", ["A3", "B2"])
    def test_traced_peak_within_five_sketch_arrays(self, method):
        assert self.traced_peak(method) < {"A3": 5, "B2": 3.1}[method]

    # Block nullification's step I holds omega, y and z and factors each
    # neighbour stack once for both sides: 4.54 (A1) and 6.22 (B1) n s
    # doubles, against 5.87 and 7.44 while the adjoint side drew its own
    # psi and every stack was factored once per side.
    @pytest.mark.parametrize("method", ["A1", "B1"])
    def test_block_nullification_shares_one_test_matrix(self, method):
        assert self.traced_peak(method) < {"A1": 5.0, "B1": 6.6}[method]

    @pytest.mark.parametrize("method", ["B1", "B2"])
    def test_type_b_bundle_holds_no_sketch(self, method):
        # step I hands on right-inverse rows and U* Y, never y or z: no
        # field but block nullification's omega has n rows
        op, tess = self.memory_case()
        if method == "B1":
            _, bundle = block_nullification_bases(
                op, tess, 20, 10, RandomStream(0), right_inverses=True
            )
        else:
            plan = plan_tagging(tess, 0, "gaussian", RandomStream(1))
            _, bundle = tagging_bases(
                op, tess, 20, 10, plan, RandomStream(0), group_cols=tess.max_block_size + 10
            )
        assert not {"y", "z"} & set(vars(bundle))
        assert isinstance(bundle.y_rinv, NearField) and isinstance(bundle.z_rinv, NearField)
        arrays = [
            a for name, value in vars(bundle).items() if name != "omega"
            for a in (value.rows if isinstance(value, NearField)
                      else value if isinstance(value, list) else [value])
            if isinstance(a, np.ndarray)
        ]
        assert all(a.shape[0] < tess.n_points for a in arrays)

    def test_a3_step_one_holds_one_probe_at_a_time(self):
        # 3.20 n s doubles, set by step III now that step I holds at most
        # one probe and its sketch; 4.14 while naive_bases kept both probes
        # to its end
        assert self.traced_peak("A3") < 3.5

    def test_naive_bases_hold_one_side_at_a_time(self):
        # A3's whole-compress peak is set by step III at this size, so this
        # traces naive_bases alone: one probe and its sketch, the U_i taken
        # before the adjoint probe is drawn: 2.06 n s doubles, against 3.00
        # when y lived on beside psi, z and the oracle check's boolean mask.
        op, tess = self.memory_case()
        (_, bundle), peak = self.traced(
            lambda: naive_bases(op, tess, 20, 10, RandomStream(0))
        )
        assert bundle.omega is None and bundle.uy is None
        assert peak / (tess.n_points * bundle.s * 8) < 2.5


def dense_rep(rep):
    """blkdiag(U) C blkdiag(V)* + B, assembled entry by entry."""
    tess = rep.tess
    offs = rep.rank_offsets()
    u_dense = np.zeros((rep.n, rep.total_rank))
    v_dense = np.zeros((rep.n, rep.total_rank))
    for i, rows in enumerate(tess.blocks):
        u_dense[rows, offs[i]:offs[i + 1]] = rep.u_blocks[i]
        v_dense[rows, offs[i]:offs[i + 1]] = rep.v_blocks[i]
    out = u_dense @ rep.core @ v_dense.T
    for (i, j), blk in rep.b_blocks.items():
        out[np.ix_(tess.blocks[i], tess.blocks[j])] += blk
    return out


@pytest.fixture(scope="module", params=["A1", "ragged", "k0", "B2"])
def rep_case(request, synthetic_case):
    """(rep, exact matrix or None): an A1 rep on the uniform d=1 grid; an A1
    rep on a ragged random-point grid where blocks with m_i <= k keep
    identity bases; a k = 0 rep of a block-banded operator; a B2 rep."""
    if request.param == "ragged":
        tess = build_tessellation(random_points(160, 2, RandomStream(4)), 16)
        k = 8
        assert (tess.block_sizes <= k).any() and (tess.block_sizes > k).any()
        op = DenseOperator(gaussian(160, 160, RandomStream(5)))
        rep, _ = compress(op, tess, k, "A1", p=2, stream=RandomStream(1), compute_error=False)
        assert list(rep.effective_ranks) == list(np.minimum(tess.block_sizes, k))
        return rep, None
    if request.param == "k0":
        op, tess, _ = uniform_synthetic(d=1, b=8, m=16, k=0)
        rep, _ = compress(op, tess, 0, "A1", p=4, stream=RandomStream(1), compute_error=False)
        assert rep.total_rank == 0
        return rep, op.matrix
    op, tess, _ = synthetic_case
    rep, _ = compress(
        op, tess, 3, request.param, p=10, stream=RandomStream(1), compute_error=False
    )
    return rep, op.matrix


class TestUniformBLRApply:
    def test_zero_operator_rep(self):
        tess = build_tessellation(grid_points(32, 1), 8)
        op = DenseOperator(np.zeros((32, 32)))
        rep, _ = compress_type_a(op, tess, 2, 4, "bn", RandomStream(1), compute_error=False)
        X = gaussian(32, 3, RandomStream(2))
        assert np.max(np.abs(rep.apply(X))) <= 1e-12

    def test_adjoint_consistency(self, rep_case):
        rep, _ = rep_case
        X = gaussian(rep.n, 3, RandomStream(2))
        Y = gaussian(rep.n, 3, RandomStream(3))
        lhs = np.sum(rep.apply(X) * Y)
        rhs = np.sum(X * rep.apply_adjoint(Y))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
        dense = dense_rep(rep)
        scale = max(1.0, snorm(dense))
        assert np.linalg.norm(rep.apply_adjoint(Y) - dense.T @ Y) <= 1e-12 * scale

    def test_vector_is_one_column(self, rep_case):
        rep, _ = rep_case
        x = gaussian(rep.n, 1, RandomStream(4))[:, 0]
        assert np.array_equal(rep.apply(x), rep.apply(x[:, None])[:, 0])
        assert np.array_equal(rep.apply_adjoint(x), rep.apply_adjoint(x[:, None])[:, 0])

    def test_matches_dense_columns(self, rep_case):
        rep, exact = rep_case
        n = rep.n
        dense = dense_rep(rep)
        scale = max(1.0, snorm(dense))
        rng = RandomStream(11).generator
        for j in rng.integers(0, n, size=20):
            e = np.zeros((n, 1))
            e[j] = 1.0
            assert np.linalg.norm(rep.apply(e) - dense[:, [j]]) <= 1e-12 * scale
            if exact is not None:
                assert np.linalg.norm(rep.apply(e) - exact[:, [j]]) <= 1e-9 * snorm(exact)

    def test_far_field_blocks_never_stored(self, synthetic_case):
        op, tess, _ = synthetic_case
        rep, _ = compress_type_a(op, tess, 3, 10, "tag", RandomStream(1), compute_error=False)
        near = {
            (i, j) for i in range(tess.b) for j in tess.neighbor_lists[i]
        }
        assert set(rep.b_blocks) == near

    @staticmethod
    def ragged_rep_with_a_zero_block():
        """A1 rep on a ragged grid, rebuilt with one off-diagonal near block
        zeroed; returns (rep, the zeroed pair)."""
        tess = build_tessellation(random_points(160, 2, RandomStream(4)), 16)
        assert tess.block_sizes.min() < tess.block_sizes.max()
        op = DenseOperator(gaussian(160, 160, RandomStream(5)))
        full, _ = compress(op, tess, 8, "A1", p=2, stream=RandomStream(1), compute_error=False)
        pair = next(pair for pair in full.b_blocks if pair[0] != pair[1])
        b_blocks = NearField(tess)
        for key, blk in full.b_blocks.items():
            if key != pair:
                b_blocks[key][...] = blk
        rep = UniformBLR(tess=tess, rank=8, u_blocks=full.u_blocks, v_blocks=full.v_blocks,
                         core=full.core, b_blocks=b_blocks)
        return rep, pair

    def test_apply_matches_dense_with_a_zero_block(self):
        rep, _ = self.ragged_rep_with_a_zero_block()
        dense = rep.to_dense()
        scale = max(1.0, snorm(dense))
        assert np.linalg.norm(dense - dense_rep(rep)) <= 1e-12 * scale
        x = gaussian(rep.n, 1, RandomStream(6))[:, 0]
        for X in [x] + [gaussian(rep.n, c, RandomStream(7)) for c in (1, 8, 64)]:
            assert np.linalg.norm(rep.apply(X) - dense @ X) <= 1e-12 * scale * np.linalg.norm(X)
            assert np.linalg.norm(rep.apply_adjoint(X) - dense.T @ X) <= (
                1e-12 * scale * np.linalg.norm(X))

    def test_b_blocks_are_views_into_c_ordered_rows(self):
        rep, (i, j) = self.ragged_rep_with_a_zero_block()
        sizes = rep.tess.block_sizes
        rows = rep.b_blocks.rows
        for k, row in enumerate(rows):
            assert row.flags.c_contiguous
            assert row.shape == (sizes[k], sizes[rep.tess.neighbor_lists[k]].sum())
        for (k, _), blk in rep.b_blocks.items():
            assert np.shares_memory(blk, rows[k])
        # the zeroed pair's columns of row i are zero
        nbrs = rep.tess.neighbor_lists[i]
        lo = int(sizes[nbrs[:nbrs.index(j)]].sum())
        assert not rep.b_blocks[(i, j)].any()
        assert not rows[i][:, lo:lo + sizes[j]].any()

    def test_near_field_over_another_tessellation_rejected(self):
        points = random_points(400, 2, RandomStream(1))
        tess = build_tessellation(points, 16)
        rep, _ = compress(laplace2d_operator(points), tess, 5, "A1", compute_error=False)
        with pytest.raises(ValueError, match="^b_blocks is a NearField over another tessellation$"):
            UniformBLR(tess=tess, rank=5, u_blocks=rep.u_blocks, v_blocks=rep.v_blocks,
                       core=rep.core, b_blocks=NearField(build_tessellation(points, 16)))

    @pytest.mark.parametrize("factor", ["U", "V", "core", "blocks"])
    def test_misshapen_factor_rejected(self, factor):
        # write_ublr would write each of these into a file read_ublr rejects
        points = random_points(400, 2, RandomStream(1))
        tess = build_tessellation(points, 16)
        rep, _ = compress(laplace2d_operator(points), tess, 5, "A1", compute_error=False)
        fields = {"u_blocks": list(rep.u_blocks), "v_blocks": list(rep.v_blocks),
                  "core": rep.core, "b_blocks": rep.b_blocks}
        m, K = tess.block_sizes.tolist(), rep.total_rank
        if factor == "U":
            fields["u_blocks"][2] = rep.u_blocks[2][1:]
            message = f"U_2 is {m[2] - 1} x 5, expected {m[2]} x 5"
        elif factor == "V":
            fields["v_blocks"][2] = rep.v_blocks[2][:, 1:]
            message = f"V_2 is {m[2]} x 4, expected {m[2]} x 5"
        elif factor == "blocks":
            fields["v_blocks"] = fields["v_blocks"][:-1]
            message = f"{tess.b} U and {tess.b - 1} V blocks for {tess.b} blocks"
        else:
            fields["core"] = rep.core[1:]
            message = f"core is {K - 1} x {K}, expected {K} x {K}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            UniformBLR(tess=tess, rank=5, **fields)


class TestRelativeError:
    def test_exact_block_banded_representation(self):
        # k=0 representation carries everything in B; exact for block-banded A
        op, tess, spec = uniform_synthetic(d=1, b=8, m=16, k=0)
        rep = ground_truth_rep(spec, op)
        assert relative_error(op, rep, 20, RandomStream(1)) <= 1e-12

    def test_exact_rank_ground_truth(self, synthetic_case):
        op, tess, spec = synthetic_case
        rep = ground_truth_rep(spec, op)
        assert relative_error(op, rep, 20, RandomStream(1)) <= 1e-9

    def test_zero_norm_raises(self):
        tess = build_tessellation(grid_points(32, 1), 8)
        zero_op = DenseOperator(np.zeros((32, 32)))
        rep, _ = compress_type_a(zero_op, tess, 2, 4, "bn", RandomStream(1), compute_error=False)
        with pytest.raises(ValueError):
            relative_error(zero_op, rep, 5, RandomStream(2))

    @pytest.mark.parametrize("method_id", ["A1", "A2", "A3", "B1", "B2"])
    def test_zero_operator_keeps_its_representation(self, method_id):
        # compress warns and reports no relative error; relative_error raises
        pts = random_points(600, 2, RandomStream(0))
        tess = build_tessellation(pts, 16)
        op = DenseOperator(np.zeros((600, 600)))
        with pytest.warns(UserWarning, match="operator norm estimate is zero"):
            rep, report = compress(op, tess, 5, method_id, stream=RandomStream(1))
        assert report.relative_error is None
        assert np.array_equal(rep.to_dense(), np.zeros((600, 600)))
        with pytest.raises(ValueError, match="operator norm estimate is zero"):
            relative_error(op, rep, 5, RandomStream(2))

    def test_shape_mismatch_raises(self, synthetic_case):
        op, tess, _ = synthetic_case
        rep, _ = compress_type_a(op, tess, 3, 10, "bn", RandomStream(1), compute_error=False)
        other = DenseOperator(np.zeros((10, 10)))
        with pytest.raises(ValueError):
            relative_error(other, rep, 5, RandomStream(2))


class TestFullPipelines:
    def test_type_a_methods_agree_on_exact_rank(self, synthetic_case):
        op, tess, _ = synthetic_case
        reps = {}
        for method in ("bn", "tag", "naive"):
            rep, _ = compress_type_a(
                op, tess, 3, 10, method, RandomStream(7), compute_error=False
            )
            reps[method] = rep.to_dense()
        scale = snorm(op.matrix)
        assert snorm(reps["bn"] - reps["tag"]) <= 1e-8 * scale
        assert snorm(reps["bn"] - reps["naive"]) <= 1e-8 * scale

    def test_a2_matvec_total_formula(self):
        op, tess, _ = uniform_synthetic(d=1, b=8, m=40, k=30)
        _, report = compress_type_a(
            op, tess, 30, 10, "tag", RandomStream(3), compute_error=False
        )
        sizes = tess.block_sizes
        colors = color_boxes(tess)
        sum_mc = sum(
            sizes[colors.colors == c].max() for c in range(colors.num_colors)
        )
        assert report.phase_total("I") == 2 * 4 * 40
        assert report.phase_total("II") == 8 * 30
        assert report.phase_total("III") == sum_mc
        assert report.matvecs_total == 2 * 4 * 40 + 8 * 30 + sum_mc

    def test_zero_rank_and_oversampling(self):
        # k + p = 0: step I samples nothing, and every type-A id keeps all
        # of A's near field in B, the same blocks bitwise; a type-B id keeps
        # the far-field part of its sketches there too, and says so
        points = random_points(400, 2, RandomStream(1))
        tess = build_tessellation(points, 16)
        op = laplace2d_operator(points)
        reps = {}
        for mid in ("A1", "A2", "A3", "B1", "B2"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rep, report = compress(op, tess, 0, mid, p=0, stream=RandomStream(0))
            assert rep.total_rank == 0 and np.isfinite(report.relative_error)
            at_k0 = [str(w.message) for w in caught
                     if w.category is UserWarning and "at k = 0" in str(w.message)]
            assert [m.split()[0] for m in at_k0] == ([mid] if mid[0] == "B" else [])
            reps[mid] = rep
        for mid in ("A2", "A3"):
            assert reps[mid].b_blocks.keys() == reps["A1"].b_blocks.keys()
            for pair, blk in reps["A1"].b_blocks.items():
                assert np.array_equal(reps[mid].b_blocks[pair], blk)

    def test_b1_matches_a1_as_operator(self, synthetic_case):
        op, tess, _ = synthetic_case
        rep_a, _ = compress_type_a(op, tess, 3, 10, "bn", RandomStream(7), compute_error=False)
        rep_b, _ = compress_type_b(op, tess, 3, 10, "bn", RandomStream(7), compute_error=False)
        scale = snorm(op.matrix)
        assert snorm(rep_a.to_dense() - rep_b.to_dense()) <= 1e-7 * scale

    def test_b2_sampling_cost(self, synthetic_case):
        op, tess, _ = synthetic_case
        _, report = compress_type_b(op, tess, 3, 10, "tag", RandomStream(7), compute_error=False)
        per_side = 4 * (tess.max_block_size + 10)
        a, astar = report.matvecs["I"]["A"], report.matvecs["I"]["Astar"]
        assert (a, astar) == (per_side, per_side)

    def test_tiny_type_b_full_pipeline(self):
        op, tess, _ = uniform_synthetic(d=1, b=4, m=8, k=2, seed=9)
        scale = snorm(op.matrix)
        for method in ("bn", "tag"):
            rep, report = compress_type_b(
                op, tess, 2, 4, method, RandomStream(2), compute_error=False
            )
            assert snorm(rep.to_dense() - op.matrix) <= 1e-8 * scale

    @pytest.mark.parametrize("method_id", ["A1", "A2", "A3", "B1", "B2"])
    def test_near_field_is_one_buffer(self, synthetic_case, method_id):
        # every step writes B into one NearField, which the rep keeps: its
        # rows are views into one buffer of exactly the near field's size,
        # so B1's rows pin no adjoint half and no step-I array
        op, tess, _ = synthetic_case
        rep, _ = compress(op, tess, 3, method_id, stream=RandomStream(4), compute_error=False)
        rows = rep.b_blocks.rows
        buffer = rows[0].base
        assert buffer.flags.owndata and all(row.base is buffer for row in rows)
        assert buffer.nbytes == 8 * sum(
            len(tess.blocks[i]) * tess.neighbor_row_count(i) for i in range(tess.b)
        )
        assert len(rep.b_blocks) == sum(len(nbrs) for nbrs in tess.neighbor_lists)

    def test_storage_accounting(self, synthetic_case):
        op, tess, _ = synthetic_case
        rep, report = compress_type_a(op, tess, 3, 10, "bn", RandomStream(7), compute_error=False)
        n, k, b = tess.n_points, 3, tess.b
        near_entries = sum(
            len(tess.blocks[i]) * len(tess.blocks[j])
            for i in range(b) for j in tess.neighbor_lists[i]
        )
        assert report.storage_entries == 2 * n * k + (b * k) ** 2 + near_entries

    def test_dispatch_by_method_id(self, synthetic_case):
        op, tess, _ = synthetic_case
        for mid in ("A1", "A2", "A3", "B1", "B2"):
            rep, report = compress(op, tess, 3, method_id=mid, stream=RandomStream(4))
            assert report.method == mid
            assert report.relative_error <= 1e-7
        with pytest.raises(ValueError):
            compress(op, tess, 3, method_id="C2")

    def test_sketched_error_tracks_dense_optimal_bases(self):
        # independent route: per-block bases from dense SVDs of the far-field
        # block rows/columns, core and discrepancy assembled densely; the
        # randomized pipelines must land within a modest factor of that error
        from ublr import laplace2d_operator, random_points, suggest_block_count

        pts = random_points(256, 2, RandomStream(13).child(1))
        tess = build_tessellation(pts, suggest_block_count(256, 8, 2))
        op = laplace2d_operator(pts)
        A = op.matrix
        k = 8

        u_blocks, v_blocks = [], []
        for i in range(tess.b):
            far_cols = np.concatenate([tess.blocks[j] for j in tess.far_fields[i]])
            row_strip = A[np.ix_(tess.blocks[i], far_cols)]
            col_strip = A[np.ix_(far_cols, tess.blocks[i])]
            u_blocks.append(np.linalg.svd(row_strip, full_matrices=False)[0][:, :k])
            v_blocks.append(np.linalg.svd(col_strip.T, full_matrices=False)[0][:, :k])

        offs = np.arange(tess.b + 1) * k
        core = np.empty((tess.b * k, tess.b * k))
        for i in range(tess.b):
            for j in range(tess.b):
                block = A[np.ix_(tess.blocks[i], tess.blocks[j])]
                core[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = (
                    u_blocks[i].T @ block @ v_blocks[j]
                )
        b_blocks = NearField(tess)
        for (i, j), blk in b_blocks.items():
            block = A[np.ix_(tess.blocks[i], tess.blocks[j])]
            low = (
                u_blocks[i]
                @ core[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
                @ v_blocks[j].T
            )
            blk[...] = block - low
        dense_rep = UniformBLR(
            tess=tess, rank=k, u_blocks=u_blocks, v_blocks=v_blocks,
            core=core, b_blocks=b_blocks,
        )
        err_dense = snorm(dense_rep.to_dense() - A) / snorm(A)

        for method in ("bn", "tag", "naive"):
            rep, _ = compress_type_a(
                op, tess, k, 10, method, RandomStream(5), compute_error=False
            )
            err = snorm(rep.to_dense() - A) / snorm(A)
            assert err <= 50 * err_dense, (method, err, err_dense)

    def test_three_dimensional_geometry(self):
        # 27-neighbor neighborhoods and 28-column tagging matrices
        op, tess, _ = uniform_synthetic(d=3, b=64, m=8, k=3, seed=1)
        assert max(len(n) for n in tess.neighbor_lists) == 27
        for mid in ("A2", "A3", "B2"):
            _, report = compress(op, tess, 3, method_id=mid, stream=RandomStream(2))
            assert report.relative_error <= 1e-7, mid
