import numpy as np
import pytest

import ublr.tagging
from ublr import (
    ProjectedTags,
    RandomStream,
    aspect_ratio,
    build_tessellation,
    evaluate_plan,
    gaussian,
    grid_points,
    make_tagging_matrix,
    null_basis,
    optimize_null_vector,
    plan_tagging,
    projected_tags,
    pseudo_inverse,
    tag_null_vector,
)
from ublr.tagging import DISTRIBUTIONS, DegenerateTagsError, TaggingMatrix

from conftest import snorm


@pytest.fixture
def tess_1d():
    return build_tessellation(grid_points(8, 1), 8)


def det3(M):
    """Explicit 3x3 determinant, independent of any LAPACK factorization."""
    return (
        M[0, 0] * (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1])
        - M[0, 1] * (M[1, 0] * M[2, 2] - M[1, 2] * M[2, 0])
        + M[0, 2] * (M[1, 0] * M[2, 1] - M[1, 1] * M[2, 0])
    )


def cofactor_null_vector(T_sub):
    """Signed-cofactor null vector of a 3x4 matrix: entry j is
    (-1)^j det(T_sub with column j removed)."""
    out = np.zeros(4)
    for j in range(4):
        minor = np.delete(T_sub, j, axis=1)
        out[j] = (-1.0) ** j * det3(minor)
    return out


class TestMakeTaggingMatrix:
    def test_shapes(self, stream):
        T = make_tagging_matrix(8, 1, 0, "gaussian", stream)
        assert T.entries.shape == (8, 4)
        T5 = make_tagging_matrix(8, 1, 1, "gaussian", stream)
        assert T5.entries.shape == (8, 5)
        T2d = make_tagging_matrix(16, 2, 0, "gaussian", stream)
        assert T2d.entries.shape == (16, 10)

    def test_haar_orthonormal(self, stream):
        T = make_tagging_matrix(20, 1, 2, "haar", stream)
        assert snorm(T.entries.T @ T.entries - np.eye(6)) <= 1e-12

    def test_equidistributed_unit_rows(self, stream):
        T = make_tagging_matrix(12, 1, 0, "equidistributed", stream)
        norms = np.linalg.norm(T.entries, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_equidistributed_spreads_rows(self):
        # energy descent should push the minimum pairwise distance up
        # compared to plain normalized Gaussian rows
        raw = gaussian(12, 4, RandomStream(3))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        T = make_tagging_matrix(12, 1, 0, "equidistributed", RandomStream(3))

        def min_dist(rows):
            d = np.linalg.norm(rows[:, None, :] - rows[None, :, :], axis=2)
            np.fill_diagonal(d, np.inf)
            return d.min()

        assert min_dist(T.entries) > min_dist(raw)

    def test_equidistributed_rows_never_parallel(self):
        # rows matter only up to sign, so no two may align as lines; small b
        # is where spherical-only repulsion would collapse to antipodal pairs
        for b, d, extra in [(8, 1, 1), (16, 1, 0), (28, 3, 0)]:
            T = make_tagging_matrix(b, d, extra, "equidistributed", RandomStream(7))
            G = T.entries @ T.entries.T
            np.fill_diagonal(G, 0.0)
            assert np.abs(G).max() < 0.9

    def test_b_too_small_raises(self, stream):
        with pytest.raises(ValueError):
            make_tagging_matrix(3, 1, 0, "gaussian", stream)

    def test_unknown_distribution_raises(self, stream):
        with pytest.raises(ValueError):
            make_tagging_matrix(8, 1, 0, "cauchy", stream)

    def test_determinism(self):
        a = make_tagging_matrix(10, 1, 1, "haar", RandomStream(4))
        b = make_tagging_matrix(10, 1, 1, "haar", RandomStream(4))
        assert np.array_equal(a.entries, b.entries)


class TestTagNullVector:
    def test_interior_block_1d(self, tess_1d, stream):
        T = make_tagging_matrix(8, 1, 0, "gaussian", stream)
        nv = tag_null_vector(T, tess_1d, 2)
        sub = T.entries[[1, 2, 3], :]
        assert np.linalg.norm(sub @ nv.vector) <= 1e-13
        assert abs(np.linalg.norm(nv.vector) - 1.0) <= 1e-13

    def test_edge_block_underdetermined(self, tess_1d, stream):
        T = make_tagging_matrix(8, 1, 0, "gaussian", stream)
        nv = tag_null_vector(T, tess_1d, 0)  # |N_0| = 2, nullity 2
        sub = T.entries[[0, 1], :]
        assert np.linalg.norm(sub @ nv.vector) <= 1e-12 * snorm(T.entries)

    def test_cramer_cofactor_collinearity(self, stream):
        # independent oracle: the null vector of a generic 3x4 matrix is the
        # alternating-sign vector of its 3x3 minors
        for trial in range(100):
            sub = gaussian(3, 4, stream.child(trial))
            z = null_basis(sub, 1)[:, 0]
            c = cofactor_null_vector(sub)
            cos = abs(z @ c) / np.linalg.norm(c)
            assert cos >= 1.0 - 1e-10

    def test_degenerate_tags_detected(self, tess_1d):
        entries = np.ones((8, 4))
        entries[:, 1] = 2.0  # rank-1 rows: fine, nullity is large
        T = TaggingMatrix(entries)
        nv = tag_null_vector(T, tess_1d, 2)  # still solvable
        sub = entries[tess_1d.neighbor_lists[2], :]
        assert np.linalg.norm(sub @ nv.vector) <= 1e-12 * snorm(entries)


class TestProjectedTags:
    def test_neighbors_vanish(self, tess_1d, stream):
        T = make_tagging_matrix(8, 1, 0, "gaussian", stream)
        nv = tag_null_vector(T, tess_1d, 2)
        pt = projected_tags(T, tess_1d, nv)
        assert np.max(np.abs(pt.values[[1, 2, 3]])) <= 1e-13

    def test_far_field_generically_nonzero(self, tess_1d):
        for seed in range(100):
            T = make_tagging_matrix(8, 1, 0, "gaussian", RandomStream(seed))
            nv = tag_null_vector(T, tess_1d, 2)
            pt = projected_tags(T, tess_1d, nv)
            far = tess_1d.far_fields[2]
            assert np.min(np.abs(pt.values[far])) > 1e-8

    def test_identical_rows_give_ratio_one(self, tess_1d):
        row = np.array([0.3, -1.2, 0.7, 2.0])
        T = TaggingMatrix(np.tile(row, (8, 1)))
        nv = tag_null_vector(T, tess_1d, 2)
        pt = projected_tags(T, tess_1d, nv)
        assert aspect_ratio(pt, tess_1d) == 1.0


class TestAspectRatio:
    def test_equal_magnitudes(self, tess_1d):
        values = np.ones(8)
        values[tess_1d.far_fields[2]] = np.array([-1, 1, 1, -1, 1.0])
        assert aspect_ratio(ProjectedTags(2, values), tess_1d) == 1.0

    def test_two_element_far_field(self):
        tess = build_tessellation(grid_points(4, 1), 4)
        assert tess.far_fields[0] == [2, 3]
        values = np.array([9.0, 9.0, 2.0, -1.0])
        assert aspect_ratio(ProjectedTags(0, values), tess) == 2.0

    def test_vanishing_value_gives_inf(self, tess_1d):
        values = np.ones(8)
        values[tess_1d.far_fields[2][0]] = 0.0
        assert aspect_ratio(ProjectedTags(2, values), tess_1d) == np.inf

    def test_empty_far_field_raises(self):
        tess = build_tessellation(grid_points(2, 1), 2)
        assert tess.far_fields[0] == []
        with pytest.raises(ValueError):
            aspect_ratio(ProjectedTags(0, np.ones(2)), tess)

    def test_scale_invariance(self, tess_1d, stream):
        T = make_tagging_matrix(8, 1, 1, "gaussian", stream)
        nv = tag_null_vector(T, tess_1d, 3)
        pt = projected_tags(T, tess_1d, nv)
        rho = aspect_ratio(pt, tess_1d)
        scaled = ProjectedTags(3, -7.3 * pt.values)
        assert np.isclose(aspect_ratio(scaled, tess_1d), rho)


def grid_oracle_min_ratio(T, tess, i, n_grid=10000):
    """Dense theta-grid oracle for the nullity-2 optimization."""
    sub = T.entries[tess.neighbor_lists[i], :]
    X = null_basis(sub, T.n_cols - len(tess.neighbor_lists[i]))[:, :2]
    far_rows = T.entries[tess.far_fields[i], :] @ X
    thetas = np.linspace(0, 2 * np.pi, n_grid, endpoint=False)
    vals = far_rows @ np.vstack((np.cos(thetas), np.sin(thetas)))
    mags = np.abs(vals)
    hi, lo = mags.max(axis=0), mags.min(axis=0)
    ratios = np.where(lo > 0, hi / np.maximum(lo, 1e-300), np.inf)
    return ratios.min()


def sphere_grid(n_grid):
    """Unit coefficient vectors at every point of an n_grid^2 angle grid over
    [0, pi]^2, which reaches every direction of R^3 up to sign."""
    phi, psi = (a.ravel() for a in np.meshgrid(*[np.linspace(0, np.pi, n_grid)] * 2))
    return np.vstack((np.cos(phi), np.sin(phi) * np.cos(psi), np.sin(phi) * np.sin(psi)))


def sphere_oracle_min_ratio(T, tess, i, coeffs):
    """Dense-grid oracle over the first three null directions of block i."""
    sub = T.entries[tess.neighbor_lists[i], :]
    X = null_basis(sub, T.n_cols - len(tess.neighbor_lists[i]))[:, :3]
    mags = np.abs(T.entries[tess.far_fields[i], :] @ X @ coeffs)
    hi, lo = mags.max(axis=0), mags.min(axis=0)
    return np.where(lo > 0, hi / np.maximum(lo, 1e-300), np.inf).min()


class TestOptimizeNullVector:
    def test_monotone_vs_base(self, tess_1d):
        for seed in range(10):
            for extra in (1, 2):
                T = make_tagging_matrix(8, 1, extra, "gaussian", RandomStream(seed))
                for i in range(tess_1d.b):
                    base = tag_null_vector(T, tess_1d, i)
                    rho_base = aspect_ratio(projected_tags(T, tess_1d, base), tess_1d)
                    best = optimize_null_vector(T, tess_1d, i)
                    rho_best = aspect_ratio(projected_tags(T, tess_1d, best), tess_1d)
                    assert rho_best <= rho_base + 1e-12

    def test_matches_dense_grid_oracle(self, tess_1d):
        for seed in range(10):
            T = make_tagging_matrix(8, 1, 1, "gaussian", RandomStream(seed))
            for i in (2, 3, 4):  # interior blocks: nullity exactly 2
                best = optimize_null_vector(T, tess_1d, i)
                rho = aspect_ratio(projected_tags(T, tess_1d, best), tess_1d)
                assert rho <= (1 + 1e-3) * grid_oracle_min_ratio(T, tess_1d, i)

    def test_nullity_three_near_dense_sphere_oracle(self):
        # extra = 2 in 1-D: nullity 3 inside, 4 (searched over three
        # directions) at the two ends; a local search may settle in another
        # basin, so the worst gap is looser than the median
        tess = build_tessellation(grid_points(16, 1), 16)
        coeffs = sphere_grid(400)
        gaps = []
        for seed in range(3):
            T = make_tagging_matrix(16, 1, 2, "gaussian", RandomStream(seed))
            for i in range(tess.b):
                best = optimize_null_vector(T, tess, i)
                rho = aspect_ratio(projected_tags(T, tess, best), tess)
                gaps.append(rho / sphere_oracle_min_ratio(T, tess, i, coeffs) - 1.0)
        assert np.median(gaps) <= 1e-2
        assert max(gaps) <= 0.25

    def test_nullity_three_search_leaves_the_first_grids_basin(self):
        # seed 8, block 5: zooming around the first grid's best point alone
        # ends at ratio 5.000, 5 % above the dense grid; another of the
        # first grid's local minima leads below it
        tess = build_tessellation(grid_points(16, 1), 16)
        T = make_tagging_matrix(16, 1, 2, "gaussian", RandomStream(8))
        best = optimize_null_vector(T, tess, 5)
        rho = aspect_ratio(projected_tags(T, tess, best), tess)
        assert rho <= 1.01 * sphere_oracle_min_ratio(T, tess, 5, sphere_grid(200))

    def test_engineered_all_equal_optimum(self, tess_1d, stream):
        # build T whose far-field rows all have |<t_j, z*>| = 1 for one unit
        # z* in the null space of the neighbor rows of block 2
        i = 2
        nbrs = tess_1d.neighbor_lists[i]
        far = tess_1d.far_fields[i]
        entries = gaussian(8, 5, stream)
        sub = entries[nbrs, :]
        X = null_basis(sub, 2)
        z_star = X @ np.array([np.cos(0.7), np.sin(0.7)])
        signs = [1.0, -1.0, 1.0, 1.0, -1.0]
        for sign, j in zip(signs, far):
            row = entries[j]
            entries[j] = row - (row @ z_star) * z_star + sign * z_star
        T = TaggingMatrix(entries)
        best = optimize_null_vector(T, tess_1d, i)
        rho = aspect_ratio(projected_tags(T, tess_1d, best), tess_1d)
        assert rho <= 1.0 + 1e-6

    def test_fallback_warns_when_nullity_one(self, tess_1d, stream):
        T = make_tagging_matrix(8, 1, 0, "gaussian", stream)
        with pytest.warns(UserWarning):
            nv = optimize_null_vector(T, tess_1d, 2)  # interior: nullity 1
        base = tag_null_vector(T, tess_1d, 2)
        assert np.allclose(nv.vector, base.vector)

    def test_large_nullity_capped_not_refused(self, stream):
        # boundary block in 2-D with 3 extra columns: nullity well above 3
        tess = build_tessellation(grid_points(8, 2), 16)
        T = make_tagging_matrix(16, 2, 3, "gaussian", stream)
        corner = int(np.argmin([len(n) for n in tess.neighbor_lists]))
        nullity = T.n_cols - len(tess.neighbor_lists[corner])
        assert nullity > 3
        base = tag_null_vector(T, tess, corner)
        best = optimize_null_vector(T, tess, corner)
        rho_base = aspect_ratio(projected_tags(T, tess, base), tess)
        rho_best = aspect_ratio(projected_tags(T, tess, best), tess)
        assert rho_best <= rho_base + 1e-12


class TestPlanTagging:
    def test_single_draw_when_healthy(self, tess_1d, stream):
        plan = plan_tagging(tess_1d, 0, "gaussian", stream)
        assert plan.attempts == 1
        assert len(plan.null_vectors) == 8
        assert np.all(np.isfinite(plan.rho_base))

    def test_redraw_exhaustion_warns(self, tess_1d, stream, monkeypatch):
        monkeypatch.setattr(ublr.tagging, "_RATIO_LIMIT", 1.0)
        with pytest.warns(UserWarning):
            plan = plan_tagging(tess_1d, 0, "gaussian", stream)
        assert plan.attempts == 6  # 1 + _MAX_REDRAWS

    def test_extra_check_forces_redraw(self, tess_1d, stream):
        seen = []

        def reject(plan):
            seen.append(plan)
            return False

        with pytest.raises(DegenerateTagsError):
            plan_tagging(tess_1d, 0, "gaussian", stream, extra_check=reject)
        # every draw is evaluated before the check sees it, and none is kept
        assert [plan.attempts for plan in seen] == [1, 2, 3, 4, 5, 6]
        assert all(len(plan.right_inverses) == tess_1d.b for plan in seen)

    def test_extra_check_rejection_is_never_the_fallback(self, tess_1d, stream, monkeypatch):
        # every draw is over the ratio limit; the fallback is the last draw
        # the check accepted, not the last one drawn
        monkeypatch.setattr(ublr.tagging, "_RATIO_LIMIT", 1.0)
        with pytest.warns(UserWarning):
            plan = plan_tagging(tess_1d, 0, "gaussian", stream,
                                extra_check=lambda plan: plan.attempts <= 2)
        assert plan.attempts == 2

    def test_optimized_plan_records_both_ratios(self, tess_1d, stream):
        plan = plan_tagging(tess_1d, 1, "gaussian", stream, optimize=True)
        assert plan.rho_optimized is not None
        ok = ~np.isnan(plan.rho_base)
        assert np.all(plan.rho_optimized[ok] <= plan.rho_base[ok] + 1e-12)


class TestPlanFactors:
    """The plan's one QR per block gives bitwise what each public function
    computes on its own."""

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    @pytest.mark.parametrize("d, b, extra", [(1, 8, 0), (1, 8, 2), (2, 16, 1)])
    def test_plan_matches_standalone_calls(self, distribution, d, b, extra):
        tess = build_tessellation(grid_points(round(b ** (1 / d)) * 2, d), b)
        for seed in range(3):
            T = make_tagging_matrix(b, d, extra, distribution, RandomStream(seed))
            plan = evaluate_plan(T, tess)
            optimized = evaluate_plan(T, tess, optimize=True)
            for i, nbrs in enumerate(tess.neighbor_lists):
                sub = T.entries[nbrs, :]
                nullity = T.n_cols - len(nbrs)
                assert np.array_equal(plan.right_inverses[i], pseudo_inverse(sub))
                assert np.array_equal(plan.null_vectors[i].vector,
                                      null_basis(sub, nullity)[:, -1])
                assert np.array_equal(plan.null_vectors[i].vector,
                                      tag_null_vector(T, tess, i).vector)
                if nullity >= 2:
                    assert np.array_equal(optimized.null_vectors[i].vector,
                                          optimize_null_vector(T, tess, i).vector)

    def test_exactly_dependent_rows_redraw_but_keep_a_null_vector(self, tess_1d):
        # identical rows: tag_null_vector still finds a null vector, but the
        # rows have no right inverse, so a plan cannot use the draw
        row = np.array([0.3, -1.2, 0.7, 2.0])
        T = TaggingMatrix(np.tile(row, (8, 1)))
        nv = tag_null_vector(T, tess_1d, 2)
        sub = T.entries[tess_1d.neighbor_lists[2], :]
        assert np.linalg.norm(sub @ nv.vector) <= 1e-12 * snorm(T.entries)
        with pytest.raises(DegenerateTagsError, match="exactly dependent"):
            evaluate_plan(T, tess_1d)
