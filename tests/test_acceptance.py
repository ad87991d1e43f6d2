"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (run with -s to see the
lines for passing tests too). Runs in a few minutes on a laptop.
"""

import numpy as np
import pytest

from ublr import (
    RandomStream,
    aspect_ratio,
    block_nullification_bases,
    block_nullification_width,
    build_tessellation,
    color_boxes,
    compress,
    direct_core,
    grid_points,
    laplace2d_operator,
    make_tagging_matrix,
    null_basis,
    optimize_null_vector,
    plan_tagging,
    projected_tags,
    random_points,
    structured_identity_discrepancy,
    suggest_block_count,
    tag_null_vector,
    tagging_bases,
    tagging_pinv_discrepancy,
    thin_slab_schur_operator,
    write_ublr,
)

from conftest import snorm, uniform_synthetic
from test_operators import dense_slab_matrix
from test_tagging import cofactor_null_vector, grid_oracle_min_ratio

ALL_METHODS = ("A1", "A2", "A3", "B1", "B2")

SYNTHETIC_CASES = [
    (1, 8, 16, 2),
    (1, 8, 40, 5),
    (2, 16, 16, 2),
    (2, 81, 16, 5),
]


def report_criterion(num, ok, detail=""):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_exact_rank_recovery():
    worst = {}
    for d, b, m, k in SYNTHETIC_CASES:
        op, tess, _ = uniform_synthetic(d=d, b=b, m=m, k=k, seed=100 + b)
        for mid in ALL_METHODS:
            _, report = compress(
                op, tess, k, method_id=mid, p=10, stream=RandomStream(55),
                error_iterations=20,
            )
            worst[(d, b, m, k, mid)] = report.relative_error
    bad = {key: err for key, err in worst.items() if not err <= 1e-7}
    report_criterion(
        1, not bad,
        f"max rel error {max(worst.values()):.2e} over "
        f"{len(worst)} (case, method) pairs" + (f"; failures: {bad}" if bad else ""),
    )


def test_criterion_2_matvec_bookkeeping():
    failures = []

    def run_case(op, tess, k, p):
        r = k + p
        d = tess.dim
        ell = 3**d + 1
        m = tess.max_block_size
        sizes = tess.block_sizes
        coloring = color_boxes(tess)
        sum_mc = sum(
            sizes[coloring.colors == c].max() for c in range(coloring.num_colors)
        )
        if sum_mc > 3**d * m:
            failures.append(("probe-bound", sum_mc, 3**d * m))
        K = sum(min(k, s) for s in sizes)
        s_bn = block_nullification_width(tess, r)
        widest = max(tess.neighbor_row_count(i) for i in range(tess.b))
        if s_bn != max(r + widest, 3**d * r):
            failures.append(("width-formula", s_bn))
        expected = {
            "A1": {"I": 2 * s_bn, "II": K, "III": sum_mc},
            "A2": {"I": 2 * ell * r, "II": K, "III": sum_mc},
            "A3": {"I": 2 * tess.b * r, "II": K, "III": sum_mc},
            "B1": {"I": 2 * s_bn, "II": max(0, K + p - s_bn), "III": 0},
            "B2": {
                "I": 2 * ell * (m + p),
                "II": max(0, K + p - ell * (m + p)),
                "III": 0,
            },
        }
        for mid, phases in expected.items():
            _, report = compress(
                op, tess, k, method_id=mid, p=p, stream=RandomStream(3),
                compute_error=False,
            )
            for phase, want in phases.items():
                got = report.phase_total(phase)
                if got != want:
                    failures.append((mid, phase, got, want))
            if report.matvecs_total != sum(phases.values()):
                failures.append((mid, "total", report.matvecs_total))

    op, tess, _ = uniform_synthetic(d=1, b=8, m=40, k=30, seed=2)
    run_case(op, tess, 30, 10)
    pts = random_points(500, 2, RandomStream(21))
    tess2 = build_tessellation(pts, 16)
    op2 = laplace2d_operator(pts)
    run_case(op2, tess2, 8, 10)

    report_criterion(2, not failures, f"failures: {failures}" if failures else
                     "all phase ledgers match the closed-form counts")


def test_criterion_3_nullification_identities():
    op, tess, _ = uniform_synthetic(d=1, b=8, m=16, k=5, seed=4)
    r = 15
    worst_bn, worst_tag = 0.0, 0.0
    for seed in range(20):
        _, bundle = block_nullification_bases(op, tess, 5, 10, RandomStream(seed))
        omega_norm = snorm(bundle.omega)
        for i in range(tess.b):
            sub = bundle.omega[tess.neighbor_indices(i), :]
            proj = null_basis(sub, r)
            worst_bn = max(worst_bn, snorm(sub @ proj) / omega_norm)

        T = make_tagging_matrix(tess.b, 1, 0, "gaussian", RandomStream(seed))
        t_norm = snorm(T.entries)
        for i in range(tess.b):
            nv = tag_null_vector(T, tess, i)
            vals = projected_tags(T, tess, nv).values
            worst_tag = max(
                worst_tag, np.max(np.abs(vals[tess.neighbor_lists[i]])) / t_norm
            )
    ok = worst_bn <= 1e-12 and worst_tag <= 1e-12
    report_criterion(
        3, ok, f"max ||Omega^(i) P^(i)||/||Omega|| = {worst_bn:.2e}, "
        f"max |<t_j, z_i>|/||T|| = {worst_tag:.2e} over 20 seeds"
    )


def test_criterion_4_cramer_consistency():
    worst = 1.0
    stream = RandomStream(77)
    for trial in range(100):
        sub = stream.child(trial).normal(3, 4)
        z = null_basis(sub, 1)[:, 0]
        c = cofactor_null_vector(sub)
        worst = min(worst, abs(z @ c) / np.linalg.norm(c))
    report_criterion(
        4, worst >= 1.0 - 1e-10,
        f"min |cos angle| = {1 - (1 - worst):.15f} over 100 tagging submatrices",
    )


def test_criterion_5_aspect_ratio_optimization():
    tess = build_tessellation(grid_points(16, 1), 16)
    monotone_ok = True
    oracle_ok = True
    worst_gap = 0.0
    for seed in range(20):
        for extra in (1, 2):
            T = make_tagging_matrix(16, 1, extra, "gaussian", RandomStream(seed))
            for i in range(tess.b):
                base = tag_null_vector(T, tess, i)
                rho_base = aspect_ratio(projected_tags(T, tess, base), tess)
                best = optimize_null_vector(T, tess, i)
                rho_best = aspect_ratio(projected_tags(T, tess, best), tess)
                if rho_best > rho_base + 1e-12:
                    monotone_ok = False
                nullity = T.n_cols - len(tess.neighbor_lists[i])
                if extra == 1 and nullity == 2:
                    oracle = grid_oracle_min_ratio(T, tess, i, n_grid=10000)
                    worst_gap = max(worst_gap, rho_best / oracle - 1.0)
                    if rho_best > (1 + 1e-3) * oracle:
                        oracle_ok = False
    report_criterion(
        5, monotone_ok and oracle_ok,
        f"monotone={monotone_ok}, worst gap vs 10k-grid oracle = {worst_gap:.2e}",
    )


@pytest.fixture(scope="module")
def laplace_1024():
    pts = random_points(1024, 2, RandomStream(2024))
    b = suggest_block_count(1024, 30, 2)
    return laplace2d_operator(pts), build_tessellation(pts, b)


def test_criterion_6_tagging_vs_alternatives(laplace_1024):
    op, tess = laplace_1024
    ratios, orders = [], []
    for seed in (1, 2, 3, 4, 5):
        reports = {}
        for method, method_id in (("bn", "A1"), ("tag", "A2"), ("naive", "A3")):
            _, reports[method] = compress(op, tess, 30, method_id, 10, RandomStream(seed))
        ratios.append(reports["tag"].relative_error / reports["naive"].relative_error)
        orders.append(
            reports["tag"].phase_total("I") < reports["bn"].phase_total("I")
            and reports["tag"].phase_total("I") < reports["naive"].phase_total("I")
        )
    ok = all(r <= 10.0 for r in ratios) and all(orders)
    report_criterion(
        6, ok,
        f"A2/A3 error ratios per seed: {[f'{r:.2f}' for r in ratios]}, "
        f"A2 fewest phase-I matvecs: {all(orders)}",
    )


def test_criterion_7_error_monotone_in_rank(laplace_1024):
    op, tess = laplace_1024
    failures = []
    table = {}
    for mid in ALL_METHODS:
        errs = []
        for k in (10, 20, 30):
            _, report = compress(
                op, tess, k, method_id=mid, p=10, stream=RandomStream(6)
            )
            errs.append(report.relative_error)
        table[mid] = errs
        if not (errs[0] > errs[1] > errs[2]):
            failures.append((mid, errs))
    report_criterion(
        7, not failures,
        "errors strictly decrease for k=10,20,30 on every method"
        if not failures else f"failures: {failures}",
    )


def test_criterion_8_thin_slab_schur():
    # matrix-free Schur apply vs dense elimination on a 48-node slab
    nx, ny, nz, kappa = 4, 4, 3, 2 * np.pi / 100
    op_small, _ = thin_slab_schur_operator(nx, ny, nz, kappa)
    A = dense_slab_matrix(nx, ny, nz, kappa)
    nf = nx * ny
    schur = A[:nf, :nf] - A[:nf, nf:] @ np.linalg.solve(A[nf:, nf:], A[nf:, :nf])
    col_err = np.max(np.abs(op_small.apply(np.eye(nf)) - schur))
    oracle_ok = col_err <= 1e-9

    op, pts = thin_slab_schur_operator(32, 32, 10, kappa)
    tess = build_tessellation(pts, suggest_block_count(pts.n, 30, 2))
    errs = {}
    for k in (10, 30):
        _, report = compress(op, tess, k, "A2", 10, RandomStream(8))
        errs[k] = report.relative_error
    compression_ok = errs[30] <= 1e-2 and errs[30] < errs[10]
    report_criterion(
        8, oracle_ok and compression_ok,
        f"dense-oracle column error {col_err:.2e}; "
        f"A2 errors k=10: {errs[10]:.2e}, k=30: {errs[30]:.2e}",
    )


def test_criterion_9_cross_family_equivalence():
    op, tess, _ = uniform_synthetic(d=1, b=8, m=16, k=3, seed=5)
    scale = snorm(op.matrix)
    rep_a, _ = compress(op, tess, 3, "A1", 10, RandomStream(7), compute_error=False)
    rep_b, _ = compress(op, tess, 3, "B1", 10, RandomStream(7), compute_error=False)
    op_gap = snorm(rep_a.to_dense() - rep_b.to_dense()) / scale

    plan = plan_tagging(tess, 0, "gaussian", RandomStream(2))
    bases, bundle = tagging_bases(op, tess, 3, 10, plan, RandomStream(1), right_inverses=True)
    core = direct_core(op, tess, bases)
    via_ids = structured_identity_discrepancy(op, tess, bases, core, color_boxes(tess))
    via_tags = tagging_pinv_discrepancy(bundle, bases)
    block_gap = max(
        snorm(via_ids[key] - via_tags[key]) / scale for key in via_ids
    )
    ok = op_gap <= 1e-7 and block_gap <= 1e-7
    report_criterion(
        9, ok, f"B1 vs A1 operator gap {op_gap:.2e}; "
        f"tagging vs structured-identity block gap {block_gap:.2e}",
    )


def test_criterion_10_determinism(tmp_path):
    op, tess, _ = uniform_synthetic(d=2, b=16, m=16, k=2, seed=12)

    def run(tag):
        rep, report = compress(
            op, tess, 2, "A2", 10, RandomStream(99), optimize=True, extra_cols=1
        )
        path = tmp_path / f"{tag}.ublr"
        write_ublr(path, rep)
        payload = report.to_dict()
        payload.pop("times_s")
        return payload, path.read_bytes()

    report_1, bytes_1 = run("first")
    report_2, bytes_2 = run("second")
    reports_equal = report_1 == report_2
    bytes_equal = bytes_1 == bytes_2

    rep_b1_a, _ = compress(op, tess, 2, "B1", 10, RandomStream(42), compute_error=False)
    rep_b1_b, _ = compress(op, tess, 2, "B1", 10, RandomStream(42), compute_error=False)
    b1_equal = np.array_equal(rep_b1_a.core, rep_b1_b.core) and all(
        np.array_equal(rep_b1_a.b_blocks[key], rep_b1_b.b_blocks[key])
        for key in rep_b1_a.b_blocks
    )
    ok = reports_equal and bytes_equal and b1_equal
    report_criterion(
        10, ok,
        f"reports identical: {reports_equal}, containers byte-identical: "
        f"{bytes_equal}, B1 rerun identical: {b1_equal}",
    )
