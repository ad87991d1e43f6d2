"""Compressed uniform block low-rank format and the compression pipeline.

A compressed operator is U C V* + B with block-diagonal orthonormal U, V, a
dense stacked core C, and a block-sparse discrepancy B supported on the
near field only. ``compress`` is the one pipeline behind the five method
ids of ``METHODS``. Step I builds the bases (block nullification for
A1/B1, tagging for A2/B2, naive randSVD for A3); then one of two
reconstruction families fills in C and B:

* type A (II, then III): C = U*(A V) by direct sketching, then B extracted
  with structured identity probes over a distance-2 box coloring, every
  color's probe side by side in one oracle call;
* type B (III, then II): B first, recovered from the step-I sketches as
  (I - U_i U_i*) Y_i Omega(N_i, :)^+ and (I - V_i V_i*) Z_i Omega(N_i, :)^+
  (no new matvecs), then C from a least-squares solve against the same test
  matrix, augmented with extra Gaussian columns when the bundle is too
  narrow. Step I already forms those right-inverse rows, and U_i* Y_i for
  step II, so no n x s sketch outlives it: step III only combines the rows.
  B1 and B2 differ only in how step I forms the right inverse
  Omega(N_i, :)^+: block nullification takes it from the QR of the
  Gaussian stack that also gives the null basis; tagging uses
  (T(N_i, :)^+ kron I_gc) blkdiag(G_k^+), since its stack factors as
  blkdiag(G_k) (T(N_i, :) kron I_gc). Every right inverse is Q_1 R_1^-*
  from linalg.null_basis's QR of the full-row-rank matrix.

Every product with the bases goes through ``stack_t`` (blkdiag(W)* X) and
``blkdiag`` (blkdiag(W) Y) from ``bases``; UniformBLR makes B X and B* X
one product per block row of B. ``pinv_core`` alone needs only U* B X,
which it forms one block row at a time as sum_j (U_i* B_ij) X_j.
Products with identities are not formed: ``direct_core`` writes each V_i
into block-diagonal V, and type A's step III places each V_j* in its
color's probe columns and applies U_i only to the slices read as B_ij.
Every step writes B into a ``bases.NearField``, which UniformBLR keeps.
Both type-B step-III variants add U_i U_i* col_ij into the bundle's
forward rows row_ij in place, which become B; B1 also warns on
ill-conditioned neighbour stacks.

``compress`` calls every step through its module-level name at call time,
so a profiler can rebind those names in this module to time each step.

The exact-rank synthetic ground truth is a UniformBLR too:
``make_synthetic_spec`` draws it, ``write_ublr`` can store it, and its
apply and apply_adjoint make it its own oracle.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bases import (
    BlockBases,
    NearField,
    SketchBundle,
    blkdiag,
    block_nullification_bases,
    naive_bases,
    stack_t,
    tagging_bases,
)
from .linalg import (
    RandomStream,
    col_basis,
    estimate_spectral_norm,
    gaussian,
    mm,
    null_basis,
    pseudo_inverse,  # no step calls it; kept a global for perfbench/tracer.py to rebind
)
from .operators import (
    ConfigError,
    CountingOperator,
    DifferenceOperator,
    LinearOperatorHandle,
)
from .tagging import TaggingPlan, plan_tagging
from .tessellation import BoxColoring, Tessellation, color_boxes, coloring_collision


class Method(NamedTuple):
    """A method id's family, step-I basis and the keywords of compress it
    takes beyond p, stream, compute_error and error_iterations."""

    family: str
    basis: str
    keywords: tuple = ()


METHODS = {
    "A1": Method("A", "bn"),
    "A2": Method("A", "tag", ("distribution", "extra_cols", "optimize")),
    "A3": Method("A", "naive"),
    "B1": Method("B", "bn"),
    "B2": Method("B", "tag", ("distribution", "optimize")),
}
_IDS = {(m.family, m.basis): mid for mid, m in METHODS.items()}


@dataclass
class UniformBLR(BlockBases):
    """Compressed representation (U, C, V, B) over a tessellation.

    The bases are the BlockBases fields; core is the stacked K x K matrix
    with K = sum k_i; b_blocks is the near field B, a NearField over tess,
    kept as given: B X and B* X are one product per block row, added in
    ascending row order, so bitwise reproducible. Far-field pairs have no
    block. Raises ValueError naming the factor when U, V or the core has
    the wrong shape, or when b_blocks is over another tessellation, so that
    write_ublr never writes what read_ublr rejects.
    """

    tess: Tessellation
    core: np.ndarray
    b_blocks: NearField

    def __post_init__(self):
        # held C-ordered: mm picks its BLAS flags from each operand's layout,
        # so only then does apply give the bits of read_ublr(write_ublr(self))
        self.u_blocks = [np.ascontiguousarray(u, dtype=float) for u in self.u_blocks]
        self.v_blocks = [np.ascontiguousarray(v, dtype=float) for v in self.v_blocks]
        self.core = np.ascontiguousarray(self.core, dtype=float)
        if self.b_blocks.tess is not self.tess:
            raise ValueError("b_blocks is a NearField over another tessellation")
        if len(self.u_blocks) != self.tess.b or len(self.v_blocks) != self.tess.b:
            raise ValueError(f"{len(self.u_blocks)} U and {len(self.v_blocks)} V blocks "
                             f"for {self.tess.b} blocks")
        sizes, ranks = self.tess.block_sizes.tolist(), self.effective_ranks.tolist()
        factors = [(f"{name}_{i}", blk, (sizes[i], ranks[i]))
                   for name, blocks in (("U", self.u_blocks), ("V", self.v_blocks))
                   for i, blk in enumerate(blocks)]
        factors.append(("core", self.core, (sum(ranks), sum(ranks))))
        for name, blk, shape in factors:
            if np.shape(blk) != shape:
                raise ValueError(f"{name} is {' x '.join(map(str, np.shape(blk)))}, "
                                 f"expected {shape[0]} x {shape[1]}")

    @property
    def n(self) -> int:
        return self.tess.n_points

    @property
    def shape(self) -> tuple:
        return (self.n, self.n)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """U C V* X + B X on a block of columns or on one vector."""
        X = np.asarray(X, dtype=float)
        cols = X.reshape(len(X), -1)
        cv = mm(self.core, stack_t(self.v_blocks, self.tess, cols))
        out = blkdiag(self.u_blocks, self.tess, cv)
        for i, row in enumerate(self.b_blocks.rows):
            out[self.tess.blocks[i]] += mm(row, cols[self.tess.neighbor_indices(i)])
        return out.reshape(X.shape)

    def apply_adjoint(self, X: np.ndarray) -> np.ndarray:
        """V C* U* X + B* X on a block of columns or on one vector."""
        X = np.asarray(X, dtype=float)
        cols = X.reshape(len(X), -1)
        cu = mm(self.core.T, stack_t(self.u_blocks, self.tess, cols))
        out = blkdiag(self.v_blocks, self.tess, cu)
        for i, row in enumerate(self.b_blocks.rows):
            # a neighbour list has no repeats, so no target row is added twice
            out[self.tess.neighbor_indices(i)] += mm(row.T, cols[self.tess.blocks[i]])
        return out.reshape(X.shape)

    def to_dense(self) -> np.ndarray:
        """The n x n matrix, one block row at a time: (U_i C_i:) V* with
        B's row i added in its neighbours' columns. No identity is formed;
        beside the result it holds one n x m_i row."""
        offs = self.rank_offsets()
        out = np.empty(self.shape)
        for i, rows in enumerate(self.tess.blocks):
            uc = mm(self.u_blocks[i], self.core[offs[i]:offs[i + 1]])
            row = blkdiag(self.v_blocks, self.tess, uc.T).T
            row[:, self.tess.neighbor_indices(i)] += self.b_blocks.rows[i]
            out[rows] = row
        return out

    @property
    def storage_entries(self) -> int:
        return int(
            sum(u.size for u in self.u_blocks)
            + sum(v.size for v in self.v_blocks)
            + self.core.size
            + sum(row.size for row in self.b_blocks.rows)
        )


def make_synthetic_spec(tess: Tessellation, rank: int, stream: RandomStream) -> UniformBLR:
    """The exact-rank synthetic ground truth, a UniformBLR at rank k:
    orthonormal U_i, V_i from QRs of Gaussians (streams (0, i), (1, i)),
    a Gaussian C_ij on every far pair (stream (2, i b + j)) and zero on
    near pairs, and a Gaussian B_ij on every near pair (stream (3, i b + j))
    scaled by max(k, 1) / sqrt(m_i m_j), so its Frobenius norm roughly
    matches the far-field blocks' and the discrepancy path stays nontrivial.
    Raises ValueError when k is negative or exceeds the smallest block.
    """
    sizes = tess.block_sizes
    if rank < 0:
        raise ValueError(f"rank {rank} is negative")
    if rank > sizes.min():
        raise ValueError(f"rank {rank} exceeds smallest block size {sizes.min()}")
    u_blocks = [col_basis(gaussian(m, rank, stream.child(0, i)), rank) for i, m in enumerate(sizes)]
    v_blocks = [col_basis(gaussian(m, rank, stream.child(1, i)), rank) for i, m in enumerate(sizes)]
    core = np.zeros((tess.b * rank, tess.b * rank))
    for i, far in enumerate(tess.far_fields):
        for j in far:
            core[i * rank:(i + 1) * rank, j * rank:(j + 1) * rank] = gaussian(
                rank, rank, stream.child(2, i * tess.b + j))
    b_blocks = NearField(tess)
    for (i, j), blk in b_blocks.items():
        blk[...] = max(rank, 1) / np.sqrt(sizes[i] * sizes[j]) * gaussian(
            sizes[i], sizes[j], stream.child(3, i * tess.b + j))
    return UniformBLR(u_blocks, v_blocks, rank, tess=tess, core=core, b_blocks=b_blocks)


def relative_error(
    op: LinearOperatorHandle,
    rep: UniformBLR,
    iterations: int = 20,
    stream: RandomStream | None = None,
) -> float:
    """||A - A_compressed|| / ||A||, both estimated by the randomized power
    method with the given iteration count."""
    if stream is None:
        stream = RandomStream(0)
    numerator, denominator = _error_norms(op, rep, iterations, stream)
    if denominator == 0.0:
        raise ValueError("operator norm estimate is zero")
    return numerator / denominator


def _error_norms(op, rep, iterations, stream):
    """(||A - A_compressed||, ||A||) estimates, as relative_error takes them."""
    if op.shape != rep.shape:
        raise ValueError(f"shape mismatch: {op.shape} vs {rep.shape}")
    numerator = estimate_spectral_norm(DifferenceOperator(op, rep), iterations, stream.child(0))
    return numerator, estimate_spectral_norm(op, iterations, stream.child(1))


# ---------------------------------------------------------------------------
# Type A: direct core, then structured-identity discrepancy
# ---------------------------------------------------------------------------


def direct_core(op: LinearOperatorHandle, tess: Tessellation, bases: BlockBases) -> np.ndarray:
    """C = U*(A V): pushes the K columns of block-diagonal V through the
    oracle and projects onto the U blocks. V is filled by writing each V_i
    into its rows and rank columns."""
    offs = bases.rank_offsets()
    v_dense = np.zeros((tess.n_points, bases.total_rank))
    for i, v in enumerate(bases.v_blocks):
        v_dense[tess.blocks[i], offs[i]:offs[i + 1]] = v
    return stack_t(bases.u_blocks, tess, op.apply(v_dense))


def structured_identity_discrepancy(
    op: LinearOperatorHandle,
    tess: Tessellation,
    bases: BlockBases,
    core: np.ndarray,
    coloring: BoxColoring,
) -> NearField:
    """The near field of A - U C V* from every color's identity probe in
    one oracle call.

    Color c owns the probe columns [start_c, start_c + w_c), w_c the largest
    block of that color, and each member j carries an identity in its own
    rows and the first m_j of those columns; the P = sum_c w_c columns go
    through the oracle at once, and the probe is freed as soon as the call
    returns. The distance-2 property guarantees each
    block-row receives at most one probed neighbor per color, so B_ij is
    resid[I_i, cols_j] - U_i (C V* probe)[rows_i, cols_j], written into
    its NearField view and reduced there, the low-rank part subtracted only
    in the slices that are read. V* probe is formed by
    placing each V_j* in its color's columns. The coloring is checked
    before the oracle call.
    """
    colors = np.asarray(coloring.colors)
    if (i := coloring_collision(tess.neighbor_lists, colors)) is not None:
        raise ValueError(f"invalid coloring: two same-color probes collide around block {i}")

    sizes = tess.block_sizes
    widths = [int(sizes[colors == c].max()) for c in range(coloring.num_colors)]
    color_starts = np.concatenate(([0], np.cumsum(widths)))
    cols = [slice(color_starts[c], color_starts[c] + m) for c, m in zip(colors, sizes)]
    probe = np.zeros((tess.n_points, color_starts[-1]))
    for j, rows in enumerate(tess.blocks):
        probe[rows, cols[j]] = np.eye(sizes[j])
    resid = op.apply(probe)
    del probe
    offs = bases.rank_offsets()
    v_probe = np.zeros((offs[-1], resid.shape[1]))
    for j, v in enumerate(bases.v_blocks):
        v_probe[offs[j]:offs[j + 1], cols[j]] = v.T
    low = mm(core, v_probe)
    b_blocks = NearField(tess)
    for (i, j), blk in b_blocks.items():
        blk[...] = resid[tess.blocks[i], cols[j]]
        blk -= mm(bases.u_blocks[i], low[offs[i]:offs[i + 1], cols[j]])
    return b_blocks


# ---------------------------------------------------------------------------
# Type B: discrepancy from reused sketches, then core by least squares
# ---------------------------------------------------------------------------


# Relative floor, times max(1, ||T||_F), of 1/||w_p|| over the columns of
# B2's tagging right inverses T(N_i, :)^+: the largest projected tag that
# isolates one neighbour, so below it that neighbour's block is lost
_DENOM_RTOL = 1e-10
# cond(R) estimate above which B1's neighbour stacks and pinv_core's V* Omega warn
_COND_LIMIT = 1e8
_TYPE_B_BUNDLE = ("build it with block_nullification_bases(..., right_inverses=True) "
                  "or tagging_bases(..., group_cols=m + p)")


def _near_field_from_pairs(bundle: SketchBundle, bases: BlockBases) -> NearField:
    """B_ij = row_ij + U_i U_i* col_ij over every near pair, with
    row_ij = (I - U_i U_i*) A_ij and col_ij = A_ij (I - V_j V_j*).

    Takes both right-inverse rows out of the bundle: row_ij is y_rinv's
    view (i, j), and col_ji* is z_rinv's view (j, i). The second term is
    added into y_rinv in place, which is returned as B. Raises ValueError
    when step I left no such rows.
    """
    if bundle.y_rinv is None:
        raise ValueError(f"bundle has no right-inverse rows; {_TYPE_B_BUNDLE}")
    near, cols = bundle.y_rinv, bundle.z_rinv
    bundle.y_rinv = bundle.z_rinv = None
    for (i, j), blk in near.items():
        u = bases.u_blocks[i]
        blk += mm(u, mm(u.T, cols[(j, i)].T))
    return near


def gaussian_pinv_discrepancy(bundle: SketchBundle, bases: BlockBases) -> NearField:
    """B blocks recovered from the block-nullification sketches.

    (I - U_i U_i*) A(I_i, nbrs) equals the projected sketch rows times the
    right pseudoinverse of the stacked neighbor rows of the test matrix;
    the adjoint side gives A_ji (I - V_i V_i*). Both sides sketch the same
    Omega, so step I took both products from its one QR of each stack
    (block_nullification_bases with right_inverses=True), and this step
    only slices and combines them. Warns once for every stack whose
    condition estimate, LAPACK's 1-norm estimate of cond(R), exceeds
    _COND_LIMIT. Costs no extra matvecs.
    """
    b_blocks = _near_field_from_pairs(bundle, bases)
    for i in np.flatnonzero(bundle.stack_conds > _COND_LIMIT):
        warnings.warn(
            f"block {i}: neighbor test-matrix stack, the test rows of both sides, has "
            f"condition {bundle.stack_conds[i]:.2e} (LAPACK 1-norm estimate of cond(R))"
        )
    return b_blocks


def b2_denominators_ok(plan: TaggingPlan) -> bool:
    """Every right inverse W_i = T(N_i, :)^+ the plan holds has every column
    w_p with 1/||w_p|| >= _DENOM_RTOL * max(1, ||T||_F).

    Column p of W_i tags neighbour p with 1 and the others with 0; a unit
    null vector z of the stack without row j = N_i[p] has |t_j . z| <=
    1/||w_p||, so the check fails only when no such z can give block j a
    projected tag above the floor. An exactly dependent stack has no W_i:
    evaluate_plan already raised DegenerateTagsError for it.
    """
    floor = _DENOM_RTOL * max(1.0, np.linalg.norm(plan.matrix.entries))
    return all(np.linalg.norm(w, axis=0).max() * floor <= 1.0 for w in plan.right_inverses)


def tagging_pinv_discrepancy(bundle: SketchBundle, bases: BlockBases) -> NearField:
    """B blocks recovered from the (wide) tagging sketches.

    Block i's test rows factor as Omega(N_i, :) = blkdiag(G_k) (T(N_i, :)
    kron I_gc) over k in N_i, so with W_i = T(N_i, :)^+ (ell x |N_i|),
    (W_i kron I_gc) blkdiag(G_k^+) is a right inverse of them. As in B1,
    (I - U_i U_i*) Y_i times it is (I - U_i U_i*) A(I_i, N_i) up to
    far-field leakage, and Z_i times it gives A(N_i, I_i) (I - V_i V_i*).
    tagging_bases with group_cols already formed both products, so this
    step only slices and combines them. Costs no extra matvecs beyond the
    step-I bundle.
    """
    return _near_field_from_pairs(bundle, bases)


def pinv_core(
    op: LinearOperatorHandle,
    bundle: SketchBundle,
    bases: BlockBases,
    b_blocks: NearField,
    p: int,
    stream: RandomStream,
):
    """Core by least squares: C = U*(Y - B Omega) (V* Omega)^+.

    V* Omega must have full row rank, so the test matrix is augmented with
    max(0, K + p - s) fresh Gaussian columns, the only extra matvecs of the
    type-B path. Omega is read one block's rows at a time through
    bundle.test_rows, with the extra columns appended, and each block's rows
    are built once: they give V_j* Omega_j and every term (U_i* B_ij) Omega_j.
    U*(Y - B Omega) starts from step I's U* Y, which this takes out of the
    bundle (bundle.uy is None after) and reduces in place, so no K x s copy
    of it is made; the extra columns' U* Y goes beside it. It takes off
    sum_j (U_i* B_ij) Omega_j one block row at a time, with the j in
    ascending order: U_i* goes on first, so each pair costs k/m_j of
    B_ij Omega_j's flops and no n x s or m_i x s temporary is made. The
    right inverse comes from
    null_basis's QR of (V* Omega)*, which also estimates cond(R): above
    _COND_LIMIT it warns, and an exactly rank-deficient V* Omega raises
    np.linalg.LinAlgError (dtrtrs). Returns (core, columns_added).
    """
    if bundle.uy is None:
        raise ValueError(f"bundle has no U* Y rows; {_TYPE_B_BUNDLE}")
    tess = bundle.tess
    extra = max(0, bases.total_rank + p - bundle.s)
    lhs, bundle.uy = bundle.uy, None
    om_extra = None
    if extra:
        om_extra = gaussian(tess.n_points, extra, stream)
        lhs = np.hstack((lhs, stack_t(bases.u_blocks, tess, op.apply(om_extra))))

    def widened(block_rows, j):  # block j's rows of [Omega | extra]
        if om_extra is None:
            return block_rows
        return np.hstack((block_rows, om_extra[tess.blocks[j]]))

    offs = bases.rank_offsets()
    v_omega = np.empty_like(lhs)
    for j, v in enumerate(bases.v_blocks):
        omega_j = widened(bundle.test_rows(j), j)
        v_omega[offs[j]:offs[j + 1]] = mm(v.T, omega_j)
        for i in tess.neighbor_lists[j]:
            lhs[offs[i]:offs[i + 1]] -= mm(mm(bases.u_blocks[i].T, b_blocks[(i, j)]), omega_j)
    _, core, cond = null_basis(v_omega, 0, rows=lhs)
    if cond > _COND_LIMIT:
        warnings.warn(f"V* Omega has condition {cond:.2e} (LAPACK 1-norm estimate of cond(R))")
    return core, extra


# ---------------------------------------------------------------------------
# Reports and the compression pipeline
# ---------------------------------------------------------------------------


@dataclass
class CompressionReport:
    """Everything the benchmark CLI emits about one compression run."""

    method: str
    config: dict
    matvecs: dict
    times_s: dict
    relative_error: float | None
    storage_entries: int
    aspect_ratios: dict | None = None

    @property
    def matvecs_total(self) -> int:
        return sum(v["A"] + v["Astar"] for v in self.matvecs.values())

    def phase_total(self, phase: str) -> int:
        entry = self.matvecs.get(phase, {"A": 0, "Astar": 0})
        return entry["A"] + entry["Astar"]

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "config": self.config,
            "matvecs": self.matvecs,
            "matvecs_total": self.matvecs_total,
            "times_s": {k: _round3(v) for k, v in self.times_s.items()},
            "relative_error": self.relative_error,
            "storage_entries": self.storage_entries,
            "aspect_ratios": self.aspect_ratios,
        }


def _round3(x: float) -> float:
    return float(f"{x:.3g}")


def _ratio_summary(values: np.ndarray) -> dict:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return {"count": 0}
    return {
        "count": int(finite.size),
        "min": float(finite.min()),
        "q1": float(np.quantile(finite, 0.25)),
        "median": float(np.median(finite)),
        "q3": float(np.quantile(finite, 0.75)),
        "max": float(finite.max()),
    }


def compress(
    op: LinearOperatorHandle,
    tess: Tessellation,
    k: int,
    method_id: str = "A2",
    p: int = 10,
    stream: RandomStream | None = None,
    distribution: str = "gaussian",
    extra_cols: int = 0,
    optimize: bool = False,
    compute_error: bool = True,
    error_iterations: int = 20,
):
    """Compress op by one of the five methods; returns (UniformBLR, report).

    The method id picks, through METHODS, the step-I basis builder (A1/B1
    block nullification, A2/B2 tagging, A3 naive) and the family: type A
    runs II (direct core) then III (structured-identity B), type B runs III
    (B from the step-I sketches) then II (core by least squares).
    distribution and optimize shape the tagging plan of A2 and B2;
    extra_cols widens A2's tagging matrix. The report's matvecs and times_s
    are the CountingOperator's phase accounts.

    Each step-I array lives only while a later step reads it (see
    SketchBundle). Within step I, block nullification holds omega, y and
    z, and factors each neighbour stack of omega once for both sides;
    tagging and naive hold one side's test matrix and sketch at a time,
    and type-B tagging also the adjoint side's right-inverse rows. No
    sketch outlives step I. Type A drops the bundle after step I. Type B's
    step III turns the forward right-inverse rows into B in place and drops
    the adjoint ones. Step II reduces U* Y in place and reads block rows of
    omega: B1 keeps omega, B2 rebuilds the rows from the plan and g_blocks.

    A compute_error estimate of ||A|| that reads zero leaves
    report.relative_error None, with a UserWarning, and the representation
    is still returned. A type-B id at k = 0 warns too: with no basis to
    remove it, the far-field part of each sketch stays in the near blocks
    (exact only when A itself is block-banded).

    Raises ConfigError before the first oracle call for an unknown id, a
    keyword given other than at its default to an id that does not take
    it, k < 0, p < 0, error_iterations < 1, an operator that is not
    n x n for the tessellation's n points, and (from the tagging plan)
    too few blocks, a negative extra_cols or an unknown distribution.
    """
    method = METHODS.get(method_id)
    if method is None:
        raise ConfigError(f"unknown method id {method_id!r}; expected one of {sorted(METHODS)}")
    family, basis, keywords = method
    options = {"distribution": distribution, "extra_cols": extra_cols, "optimize": optimize}
    misplaced = [name for name, value in options.items()
                 if name not in keywords and value != KEYWORD_DEFAULTS[name]]
    if misplaced:
        raise ConfigError(f"{method_id}: {', '.join(misplaced)} do not apply to this id")
    for name, value, low in (("k", k, 0), ("p", p, 0), ("error_iterations", error_iterations, 1)):
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
    if tuple(op.shape) != (tess.n_points, tess.n_points):
        raise ConfigError(f"the operator is {op.shape[0]} x {op.shape[1]}, but the "
                          f"tessellation has {tess.n_points} points")
    if family == "B" and k == 0:
        warnings.warn(f"{method_id} at k = 0 keeps each sketch's far-field part in every "
                      f"near block; a type-A id keeps only the near field there")
    if stream is None:
        stream = RandomStream(0)
    cop = CountingOperator(op)
    plan = None

    with cop.phase("I"):
        if basis == "bn":
            bases, bundle = block_nullification_bases(
                cop, tess, k, p, stream.child(0), right_inverses=family == "B"
            )
        elif basis == "naive":
            bases, bundle = naive_bases(cop, tess, k, p, stream.child(0))
        else:  # type B needs short tagging right inverses and m + p wide groups
            plan = plan_tagging(
                tess, extra_cols, distribution, stream.child(1), optimize=optimize,
                extra_check=b2_denominators_ok if family == "B" else None,
            )
            bases, bundle = tagging_bases(
                cop, tess, k, p, plan, stream.child(0),
                group_cols=tess.max_block_size + p if family == "B" else None,
            )

    # Each sketch array is dropped after the last step that reads it.
    if family == "A":
        del bundle
        with cop.phase("II"):
            core = direct_core(cop, tess, bases)
        with cop.phase("III"):
            b_blocks = structured_identity_discrepancy(
                cop, tess, bases, core, color_boxes(tess)
            )
    else:
        with cop.phase("III"):
            if basis == "bn":
                b_blocks = gaussian_pinv_discrepancy(bundle, bases)
            else:
                b_blocks = tagging_pinv_discrepancy(bundle, bases)
        with cop.phase("II"):
            core, _ = pinv_core(cop, bundle, bases, b_blocks, p, stream.child(2))
        del bundle

    rep = UniformBLR(**vars(bases), tess=tess, core=core, b_blocks=b_blocks)

    rel = None
    if compute_error:
        numerator, denominator = _error_norms(op, rep, error_iterations, stream.child(9))
        if denominator == 0.0:
            warnings.warn(f"no relative error: the operator norm estimate is zero "
                          f"(absolute error estimate {numerator:.3g})")
        else:
            rel = numerator / denominator

    aspect = None
    if plan is not None:
        aspect = {"base": _ratio_summary(plan.rho_base), "draws": plan.attempts}
        if plan.rho_optimized is not None:
            aspect["optimized"] = _ratio_summary(plan.rho_optimized)

    config = {
        "N": tess.n_points,
        "b": tess.b,
        "m": tess.max_block_size,
        "k": k,
        "p": p,
        "d": tess.dim,
        "seed": stream.seed,
        "ell": plan.matrix.n_cols if plan is not None else None,
        **{name: value if name in keywords else None for name, value in options.items()},
    }
    report = CompressionReport(
        method=method_id,
        config=config,
        matvecs=dict(sorted(cop.matvecs.items())),
        times_s=cop.times_s,
        relative_error=rel,
        storage_entries=rep.storage_entries,
        aspect_ratios=aspect,
    )
    return rep, report


# The keywords that only some ids take, with compress's defaults, in report
# order. A value other than the default on an id that does not take it is a
# ConfigError.
KEYWORD_DEFAULTS = {
    name: inspect.signature(compress).parameters[name].default
    for name in ("distribution", "extra_cols", "optimize")
}


def compress_type_a(op, tess, k, p=10, method="tag", stream=None, **kwargs):
    """compress with the type-A id of step-I method "bn", "tag" or "naive"."""
    return compress(op, tess, k, _IDS.get(("A", method), f"A/{method}"), p, stream, **kwargs)


def compress_type_b(op, tess, k, p=10, method="bn", stream=None, **kwargs):
    """compress with the type-B id of step-I method "bn" or "tag"."""
    return compress(op, tess, k, _IDS.get(("B", method), f"B/{method}"), p, stream, **kwargs)

