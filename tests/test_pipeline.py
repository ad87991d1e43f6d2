"""The single compress pipeline: which steps each method id runs,
configuration errors, the type-A/type-B forwarders and non-finite or
wrongly shaped oracle output."""

import hashlib
import re

import numpy as np
import pytest

import ublr.bases
import ublr.reconstruction
import ublr.tagging
from ublr import (
    ConfigError,
    DenseOperator,
    NonFiniteOracleError,
    OracleShapeError,
    RandomStream,
    block_nullification_width,
    build_tessellation,
    color_boxes,
    compress,
    compress_type_a,
    compress_type_b,
    gaussian,
    read_ublr,
    write_ublr,
)

from conftest import ball_points, probe_columns, uniform_synthetic
from test_operators import check_adjoint

# Step functions compress must look up as globals of ublr.reconstruction at
# call time: the benchmark's tracer rebinds exactly these names.
STEPS = (
    "block_nullification_bases",
    "tagging_bases",
    "naive_bases",
    "plan_tagging",
    "b2_denominators_ok",
    "direct_core",
    "color_boxes",
    "structured_identity_discrepancy",
    "gaussian_pinv_discrepancy",
    "tagging_pinv_discrepancy",
    "pinv_core",
)
# Kernels the tracer also rebinds in ublr.reconstruction.
KERNELS = ("estimate_spectral_norm", "null_basis", "pseudo_inverse", "gaussian")

TYPE_A_TAIL = {"direct_core", "color_boxes", "structured_identity_discrepancy"}
EXPECTED_STEPS = {
    "A1": {"block_nullification_bases"} | TYPE_A_TAIL,
    "A2": {"plan_tagging", "tagging_bases"} | TYPE_A_TAIL,
    "A3": {"naive_bases"} | TYPE_A_TAIL,
    "B1": {"block_nullification_bases", "gaussian_pinv_discrepancy", "pinv_core"},
    "B2": {
        "plan_tagging", "b2_denominators_ok", "tagging_bases",
        "tagging_pinv_discrepancy", "pinv_core",
    },
}
METHOD_IDS = sorted(EXPECTED_STEPS)


@pytest.fixture(scope="module")
def case():
    return uniform_synthetic(d=1, b=8, m=16, k=3, seed=5)


def container_sha(rep, tmp_path):
    path = tmp_path / "rep.ublr"
    write_ublr(path, rep)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("method_id", METHOD_IDS)
def test_steps_called_through_module_globals(method_id, case, monkeypatch):
    op, tess, _ = case
    called = set()

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in STEPS:
        monkeypatch.setattr(
            ublr.reconstruction, name, recording(name, getattr(ublr.reconstruction, name))
        )
    compress(op, tess, 3, method_id, p=10, stream=RandomStream(2), compute_error=False)
    assert called == EXPECTED_STEPS[method_id]


def test_traced_kernels_are_module_globals():
    for name in KERNELS:
        assert callable(getattr(ublr.reconstruction, name))


class UncallableOracle:
    """Oracle whose products fail the test: configuration errors must be
    raised before the first oracle call."""

    def __init__(self, n, n_cols=None):
        self.shape = (n, n if n_cols is None else n_cols)

    def apply(self, X):
        pytest.fail("compress called the oracle before rejecting its configuration")

    apply_adjoint = apply


@pytest.mark.parametrize(
    "method_id, kwargs",
    [(m, {"extra_cols": 1}) for m in ["A1", "A3", "B1", "B2"]]
    + [(m, kw) for m in ["A1", "A3", "B1"]
       for kw in [{"optimize": True}, {"distribution": "haar"}]],
)
def test_a2_keywords_rejected_on_other_ids(method_id, kwargs, case):
    _, tess, _ = case
    with pytest.raises(ConfigError, match=f"{method_id}: {next(iter(kwargs))}"):
        compress(UncallableOracle(tess.n_points), tess, 3, method_id, **kwargs)


@pytest.mark.parametrize("method_id, k, kwargs, message", [
    ("A9", 3, {}, "unknown method id 'A9'"),
    ("B1", 3, {"distribution": "haar", "optimize": True},
     "B1: distribution, optimize do not apply"),
    ("A1", -1, {}, "k must be >= 0, got -1"),
    ("B2", 3, {"p": -2}, "p must be >= 0, got -2"),
    ("A3", 3, {"error_iterations": 0}, "error_iterations must be >= 1, got 0"),
    ("A2", 3, {"extra_cols": 5}, "too small for tagging"),  # 3 + 1 + 5 columns, 8 blocks
    ("A2", 3, {"extra_cols": -1}, "extra_cols must be nonnegative"),
    ("B2", 3, {"distribution": "cauchy"}, "unknown distribution 'cauchy'"),
])
def test_config_errors_raised_before_the_oracle(method_id, k, kwargs, message, case):
    _, tess, _ = case
    with pytest.raises(ConfigError, match=re.escape(message)):
        compress(UncallableOracle(tess.n_points), tess, k, method_id, **kwargs)
    assert issubclass(ConfigError, ValueError)


@pytest.mark.parametrize("method_id", METHOD_IDS)
@pytest.mark.parametrize("more_rows, more_cols", [(20, 20), (0, 20)])
def test_wrong_sized_operator_raised_before_the_oracle(method_id, more_rows, more_cols, case):
    # a square operator of the wrong size, and a wide one with n rows
    _, tess, _ = case
    n = tess.n_points
    shape = (n + more_rows, n + more_cols)
    with pytest.raises(ConfigError, match=f"the operator is {shape[0]} x {shape[1]}, "
                                          f"but the tessellation has {n} points"):
        compress(UncallableOracle(*shape), tess, 3, method_id)


@pytest.mark.parametrize("method_id", ["A1", "A2", "A3", "B1", "B2"])
def test_report_config_names_only_keywords_the_id_uses(method_id, case):
    op, tess, _ = case
    _, report = compress(op, tess, 3, method_id, compute_error=False)
    tagging = method_id in ("A2", "B2")
    assert (report.config["optimize"] is None) != tagging
    assert (report.config["distribution"] is None) != tagging
    assert (report.config["extra_cols"] is None) != (method_id == "A2")


@pytest.mark.parametrize(
    "forwarder, method, method_id",
    [(compress_type_a, "bn", "A1"), (compress_type_b, "tag", "B2")],
)
def test_forwarders_match_compress(forwarder, method, method_id, case, tmp_path):
    op, tess, _ = case
    rep_f, report_f = forwarder(op, tess, 3, 10, method, RandomStream(4), compute_error=False)
    rep_c, report_c = compress(
        op, tess, 3, method_id, p=10, stream=RandomStream(4), compute_error=False
    )
    assert container_sha(rep_f, tmp_path) == container_sha(rep_c, tmp_path)
    assert report_f.method == report_c.method == method_id
    assert report_f.matvecs == report_c.matvecs


def test_type_b_has_no_naive_method(case):
    _, tess, _ = case
    with pytest.raises(ConfigError, match="unknown method id 'B/naive'"):
        compress_type_b(UncallableOracle(tess.n_points), tess, 3, 10, "naive")


class PoisonedOperator(DenseOperator):
    """Dense oracle whose chosen side returns NaN from its n-th call on."""

    def __init__(self, matrix, side="A", from_call=0):
        super().__init__(matrix)
        self.side = side
        self.from_call = from_call
        self.calls = 0

    def _maybe_poison(self, Y, side):
        if side == self.side:
            self.calls += 1
            if self.calls > self.from_call:
                Y = Y.copy()
                Y[0, 0] = np.nan
        return Y

    def apply(self, X):
        return self._maybe_poison(super().apply(X), "A")

    def apply_adjoint(self, X):
        return self._maybe_poison(super().apply_adjoint(X), "A*")


@pytest.mark.parametrize("method_id", METHOD_IDS)
def test_nan_entry_in_oracle_raises_in_step_one(method_id, case):
    op, tess, _ = case
    matrix = op.matrix.copy()
    matrix[3, 5] = np.nan
    with pytest.raises(NonFiniteOracleError, match=r"phase 'I'"):
        compress(DenseOperator(matrix), tess, 3, method_id, compute_error=False)


def test_non_finite_error_names_phase_and_side(case):
    op, tess, _ = case
    # A1 makes one A call in step I; the second one is step II's direct core
    poisoned = PoisonedOperator(op.matrix, side="A", from_call=1)
    with pytest.raises(NonFiniteOracleError, match=r"of A in phase 'II'"):
        compress(poisoned, tess, 3, "A1", compute_error=False)
    poisoned = PoisonedOperator(op.matrix, side="A*")
    with pytest.raises(NonFiniteOracleError, match=r"of A\* in phase 'I'"):
        compress(poisoned, tess, 3, "B1", compute_error=False)
    assert issubclass(NonFiniteOracleError, ValueError)


class RowDroppingOperator(DenseOperator):
    """Dense oracle whose chosen side returns one output row too few."""

    def __init__(self, matrix, side):
        super().__init__(matrix)
        self.side = side

    def apply(self, X):
        Y = super().apply(X)
        return Y[:-1] if self.side == "A" else Y

    def apply_adjoint(self, X):
        Y = super().apply_adjoint(X)
        return Y[:-1] if self.side == "A*" else Y


@pytest.mark.parametrize("side", ["A", "A*"])
@pytest.mark.parametrize("method_id", METHOD_IDS)
def test_wrongly_shaped_oracle_output_raises_in_step_one(method_id, side, case):
    op, tess, _ = case
    n = tess.n_points
    pattern = (rf"oracle output of {re.escape(side)} in phase 'I' has shape "
               rf"\({n - 1}, (\d+)\), expected \({n}, \1\)")
    with pytest.raises(OracleShapeError, match=pattern):
        compress(RowDroppingOperator(op.matrix, side), tess, 3, method_id, compute_error=False)
    assert issubclass(OracleShapeError, ValueError)


@pytest.mark.parametrize("method_id, kwargs", [
    ("B2", {}),
    ("A2", {}),
    ("A2", {"optimize": True, "extra_cols": 2}),
])
def test_each_block_tagging_rows_factored_once_per_draw(method_id, kwargs, case, monkeypatch):
    # every QR of a neighbour tagging-row stack T(N_i, :), ell columns wide,
    # wherever it is made: the plan, the optimizer, the B2 check and B2's
    # step III
    op, tess, _ = case
    shapes = []

    def counting(fn):
        def wrapper(B, *args, **kwargs):
            shapes.append(np.shape(B))
            return fn(B, *args, **kwargs)
        return wrapper

    for module in (ublr.tagging, ublr.bases, ublr.reconstruction):
        monkeypatch.setattr(module, "null_basis", counting(module.null_basis))
    monkeypatch.setattr(ublr.reconstruction, "pseudo_inverse",
                        counting(ublr.reconstruction.pseudo_inverse))
    _, report = compress(op, tess, 3, method_id, stream=RandomStream(2),
                         compute_error=False, **kwargs)
    ell = report.config["ell"]
    assert report.aspect_ratios["draws"] == 1
    assert sum(shape[1] == ell for shape in shapes) == tess.b


def closed_form_ledger(tess, k, p):
    """Per-phase columns of each id, as acceptance criterion 2 states them,
    type A's step III from color_boxes."""
    r, ell, m = k + p, 3**tess.dim + 1, tess.max_block_size
    big_k = sum(min(k, s) for s in tess.block_sizes)
    s_bn = block_nullification_width(tess, r)
    sum_mc = probe_columns(tess, color_boxes(tess))
    return {
        "A1": {"I": 2 * s_bn, "II": big_k, "III": sum_mc},
        "A2": {"I": 2 * ell * r, "II": big_k, "III": sum_mc},
        "A3": {"I": 2 * tess.b * r, "II": big_k, "III": sum_mc},
        "B1": {"I": 2 * s_bn, "II": max(0, big_k + p - s_bn), "III": 0},
        "B2": {"I": 2 * ell * (m + p), "II": max(0, big_k + p - ell * (m + p)), "III": 0},
    }


# ragged grids: the disc's 7x7 grid keeps 45 boxes, the ball's 8x8x8 grid
# 322, on which the greedy coloring went over the paper's probe bound
RAGGED_GRIDS = {
    "disc": (lambda: ball_points(2000, 2, 1), 7**2, 45),
    "ball": (lambda: ball_points(4 * 8**3, 3, 0), 8**3, 322),
}


@pytest.fixture(scope="module", params=sorted(RAGGED_GRIDS))
def ragged(request):
    points, target, b = RAGGED_GRIDS[request.param]
    tess = build_tessellation(points(), target)
    assert tess.b == b
    return DenseOperator(gaussian(tess.n_points, tess.n_points, RandomStream(2))), tess


@pytest.mark.parametrize("method_id", METHOD_IDS)
def test_ragged_grid_ledger_and_container(method_id, ragged, tmp_path):
    # every id on a ragged grid: the per-phase columns are the closed forms,
    # step III within 3^d m, the representation's adjoint is consistent, and
    # write -> read -> write gives the same bytes
    op, tess = ragged
    k, p = 3, 4
    rep, report = compress(op, tess, k, method_id, p=p, stream=RandomStream(3),
                           compute_error=False)
    want = closed_form_ledger(tess, k, p)[method_id]
    assert {phase: report.phase_total(phase) for phase in want} == want
    assert report.matvecs_total == sum(want.values())
    assert probe_columns(tess, color_boxes(tess)) <= 3**tess.dim * tess.max_block_size
    assert check_adjoint(rep, RandomStream(4)) <= 1e-10
    first, again = tmp_path / "first.ublr", tmp_path / "again.ublr"
    write_ublr(first, rep)
    write_ublr(again, read_ublr(first))
    assert again.read_bytes() == first.read_bytes()
