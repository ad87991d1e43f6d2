"""Step I of compression: per-block orthonormal bases from sketches.

Three interchangeable constructions share the (U_i, V_i) contract:

* block nullification: one wide Gaussian test matrix; per block, each
  sketch is right-multiplied by one orthonormal null basis of the neighbor
  rows of the test matrix, which zeroes inadmissible contributions;
* tagging: per-block Gaussian test blocks scaled by tagging-matrix entries;
  a null vector of the neighbor rows of the tagging matrix combines the
  sketch groups into a clean sample at constant sketch width;
* naive blocked randSVD: a Gaussian probe per block with the neighborhood
  rows zeroed out, the benchmark everyone is compared against.

Each builder departs from the paper in one respect: the paper draws
independent test matrices for the two sides, Y = A Omega and Z = A* Psi,
while here both sides sketch the same test matrix, Z = A* Omega. Each
side's range-finder bound needs only a Gaussian test matrix of its own
side, so the matvec columns stay the same, the forward side (and so every
U_i) is what an independent Psi would give, and whatever is factored from
the test matrix serves both sides: one null basis per neighbour stack
(block nullification) and one right inverse per test block (tagging with
group_cols).

Each returns the bases together with the sketch bundle so the type-B
reconstruction can reuse the samples.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .linalg import RandomStream, col_basis, gaussian, mm, null_basis, project_out
from .operators import LinearOperatorHandle
from .tagging import TaggingMatrix, TaggingPlan
from .tessellation import Tessellation


@dataclass
class SketchBundle:
    """What step I hands on to the type-B steps; no n x s sketch is kept.

    Type-B bundles hold, per block i with neighbour test rows
    B_i = Omega(N_i, :), the projected right-inverse rows
    (I - U_i U_i*) Y_i B_i^+ as row i of the NearField y_rinv, the same rows
    from the adjoint sketch and V_i as row i of z_rinv, and U* Y (uy, K x s,
    block i's U_i* Y_i in its rank rows). Both sides use the same B_i^+.
    Block nullification builds them with right_inverses=True, from one QR
    of each stack, and the bundle also keeps that stack's condition
    estimate. Tagging builds them when called with group_cols:
    B_i^+ = (T(N_i, :)^+ kron I_gc) blkdiag(G_k^+).

    Only block nullification keeps omega, for B1's step II. Tagging keeps
    neither test matrix: Omega is fixed by the plan's T and the per-block
    g_blocks, so test_rows rebuilds block j's rows of omega on demand.
    Naive bundles keep no array at all; their sketches go into the bases in
    step I.

    After step I, type A reads no field. Type B's step III takes y_rinv
    and z_rinv out of the bundle and reads, for B1, stack_conds; its step
    II reads s and test_rows (omega for B1, plan and g_blocks for B2) and
    takes uy out of the bundle. compress releases the bundle after step II.
    """

    omega: np.ndarray | None  # (n, s); block nullification only
    s: int
    tess: Tessellation
    plan: TaggingPlan | None = None  # tagging: T, the null vectors and each W_i = T(N_i, :)^+
    g_blocks: list | None = None  # per-block Gaussian test blocks (tagging)
    y_rinv: NearField | None = None  # row i: (I - U_i U_i*) Y_i B_i^+ (type B)
    z_rinv: NearField | None = None  # row i: (I - V_i V_i*) Z_i B_i^+
    uy: np.ndarray | None = None  # U* Y, K x s, in rank-offset row order (type B)
    stack_conds: np.ndarray | None = None  # (b,): cond estimate of each Omega(N_i, :) (bn)

    def test_rows(self, j: int) -> np.ndarray:
        """Block j's rows of omega, (m_j, s): a copy of the slice when the
        bundle holds omega, else the tagging groups t_{j,l} G_j, bitwise
        the rows assemble_tagging_test_matrix writes."""
        if self.omega is not None:
            return self.omega[self.tess.blocks[j]]
        return _tagged_rows(self.plan.matrix.entries[j], self.g_blocks[j])


@dataclass
class BlockBases:
    """Per-block orthonormal bases U_i, V_i (m_i x k_i, k_i = min(k, m_i))."""

    u_blocks: list
    v_blocks: list
    rank: int

    @property
    def effective_ranks(self) -> np.ndarray:
        """k_i, the column count of each U_i."""
        return np.array([u.shape[1] for u in self.u_blocks], dtype=int)

    @property
    def total_rank(self) -> int:
        return int(self.effective_ranks.sum())

    def rank_offsets(self) -> np.ndarray:
        """Start offset of each block's rows inside the stacked core."""
        return np.concatenate(([0], np.cumsum(self.effective_ranks)))


class NearField(Mapping):
    """The near field over tess, zeroed: block row i is the C-ordered
    m_i x sum_{j in N_i} m_j array rows[i], neighbour j's columns in
    neighbour-list order. All rows are views into one buffer, which goes
    back to the OS whole where block-sized arrays leave holes in the heap.
    It maps each near pair (i, j), in sorted order, to the view of j's
    columns in row i; a far pair raises KeyError."""

    def __init__(self, tess: Tessellation):
        self.tess, self.rows, self._blocks = tess, [], {}
        sizes = tess.block_sizes.tolist()
        buffer = np.zeros(sum(m * tess.neighbor_row_count(i) for i, m in enumerate(sizes)))
        start = 0
        for i, nbrs in enumerate(tess.neighbor_lists):  # ascending, so the keys are sorted
            bounds = np.cumsum([0] + [sizes[j] for j in nbrs]).tolist()
            self.rows.append(buffer[start:start + sizes[i] * bounds[-1]].reshape(sizes[i], -1))
            start += self.rows[i].size
            for j, lo, hi in zip(nbrs, bounds[:-1], bounds[1:]):
                self._blocks[(i, j)] = self.rows[i][:, lo:hi]

    def __getitem__(self, pair):
        return self._blocks[pair]

    def __iter__(self):
        return iter(self._blocks)

    def __len__(self):
        return len(self._blocks)


def _width_offsets(blocks: list) -> np.ndarray:
    return np.concatenate(([0], np.cumsum([w.shape[1] for w in blocks]))).astype(int)


def stack_t(blocks: list, tess: Tessellation, X: np.ndarray) -> np.ndarray:
    """blkdiag(W)* X: the stacked W_i* X[I_i], one row per basis column."""
    offs = _width_offsets(blocks)
    out = np.empty((offs[-1], X.shape[1]))
    for i, w in enumerate(blocks):
        out[offs[i]:offs[i + 1]] = mm(w.T, X[tess.blocks[i]])
    return out


def blkdiag(blocks: list, tess: Tessellation, Y: np.ndarray) -> np.ndarray:
    """blkdiag(W) Y: rows I_i hold W_i times block i's rows of the stacked Y."""
    offs = _width_offsets(blocks)
    out = np.zeros((tess.n_points, Y.shape[1]))
    for i, w in enumerate(blocks):
        out[tess.blocks[i]] = mm(w, Y[offs[i]:offs[i + 1]])
    return out


def block_nullification_width(tess: Tessellation, r: int) -> int:
    """Sketch width for block nullification on a possibly ragged grid.

    max(r + max_i sum_{j in N_i} m_j, 3^d r): every neighbor row-stack of the
    test matrix must have nullity at least r.
    """
    widest = max(tess.neighbor_row_count(i) for i in range(tess.b))
    return max(r + widest, 3**tess.dim * r)


def _basis_or_identity(sample: np.ndarray, k: int) -> np.ndarray:
    # Tiny blocks (m_i <= k) keep a full orthonormal basis instead
    m = sample.shape[0]
    if k >= m:
        return np.eye(m)
    return col_basis(sample, k)


def block_nullification_bases(
    op: LinearOperatorHandle,
    tess: Tessellation,
    k: int,
    p: int,
    stream: RandomStream,
    right_inverses: bool = False,
) -> tuple:
    """Bases via null-space projection of one wide Gaussian sketch, taken
    from both sides: Y = A Omega and Z = A* Omega. One null basis of each
    neighbour stack Omega(N_i, :) gives both U_i and V_i.

    With right_inverses (the type-B path), that QR also yields the stack's
    right inverse for both sides at once, and the bundle keeps the
    projected right-inverse rows, U* Y and the condition estimates
    described on SketchBundle. The bases do not depend on it. The sketches
    y and z go when this returns.
    """
    r = k + p
    s = block_nullification_width(tess, r)
    omega = gaussian(tess.n_points, s, stream.child(0))
    y = op.apply(omega)
    z = op.apply_adjoint(omega)

    u_blocks, v_blocks, conds = [], [], []
    y_rinv, z_rinv = (NearField(tess), NearField(tess)) if right_inverses else (None, None)
    for i, rows in enumerate(tess.blocks):
        factor = null_basis(omega[tess.neighbor_indices(i), :], r,
                            rows=np.vstack((y[rows, :], z[rows, :])) if right_inverses else None)
        proj, rinv, cond = factor if right_inverses else (factor, None, None)
        u_blocks.append(_basis_or_identity(mm(y[rows, :], proj), k))
        v_blocks.append(_basis_or_identity(mm(z[rows, :], proj), k))
        if right_inverses:  # [Y; Z] B^+ is copied, so neither side's rows pin the other's
            y_rinv.rows[i][...] = rinv[:len(rows)]
            z_rinv.rows[i][...] = rinv[len(rows):]
            project_out(u_blocks[-1], y_rinv.rows[i])
            project_out(v_blocks[-1], z_rinv.rows[i])
            conds.append(cond)
            del factor, rinv  # else both live through the next QR: 2 MB peak RSS at N = 2048

    bases = BlockBases(u_blocks, v_blocks, k)
    bundle = SketchBundle(omega=omega, s=s, tess=tess, y_rinv=y_rinv, z_rinv=z_rinv)
    if right_inverses:
        bundle.uy = stack_t(u_blocks, tess, y)
        bundle.stack_conds = np.array(conds)
    return bases, bundle


def _tagged_rows(t_row: np.ndarray, g: np.ndarray) -> np.ndarray:
    """[t_1 G, ..., t_ell G]: one block's rows of the extended test matrix."""
    return (g[:, None, :] * t_row[:, None]).reshape(g.shape[0], -1)


def assemble_tagging_test_matrix(
    tess: Tessellation, T: TaggingMatrix, blocks: list, group_cols: int
) -> np.ndarray:
    """Stack t_{i,j} * G_i into the (n, ell * group_cols) extended test matrix."""
    out = np.zeros((tess.n_points, T.n_cols * group_cols))
    for i, rows in enumerate(tess.blocks):
        out[rows] = _tagged_rows(T.entries[i], blocks[i])
    return out


def tagging_bases(
    op: LinearOperatorHandle,
    tess: Tessellation,
    k: int,
    p: int,
    plan: TaggingPlan,
    stream: RandomStream,
    group_cols: int | None = None,
) -> tuple:
    """Bases from tagged sketches: block i, group j carries t_{i,j} G_i.

    group_cols defaults to k + p; the type-B pipeline passes m + p so that the
    per-block test blocks admit right inverses. Block i's sample contracts
    its sketch groups with the plan's null vector.

    One side at a time, adjoint first: the test matrix is assembled for each
    oracle call and goes straight into it, and each sketch goes once its
    bases are taken. The bundle keeps the G_i that Omega is built from (see
    SketchBundle.test_rows). With group_cols (type B), every G_j^+ is
    factored up front, since both sides' rows use it, and each side also
    leaves the projected right-inverse rows of SketchBundle, the forward
    side U* Y too.
    """
    r = k + p
    gc = r if group_cols is None else group_cols
    T = plan.matrix

    g_blocks = [gaussian(len(rows), gc, stream.child(0, i)) for i, rows in enumerate(tess.blocks)]
    g_pinv = None
    if group_cols is not None:
        g_pinv = [null_basis(g, 0, rows=np.eye(gc))[1] for g in g_blocks]

    def one_side(apply, with_uy=False):
        """(bases, right-inverse rows, bases* sketch) of one side; the rows
        are None without group_cols, the last also without with_uy.
        Column p of W_i tags neighbour p with 1 and the others with 0, so
        one contraction of block i's sketch groups with W_i isolates every
        neighbour."""
        sketch = apply(assemble_tagging_test_matrix(tess, T, g_blocks, gc))
        bases = []
        rinv = None if g_pinv is None else NearField(tess)
        for i, rows in enumerate(tess.blocks):
            m = len(rows)
            # row l holds group l of every row of block i, so contracting
            # the groups is one product from the left
            groups = sketch[rows, :].reshape(m, T.n_cols, gc).transpose(1, 0, 2)
            groups = groups.reshape(T.n_cols, m * gc)
            sample = mm(plan.null_vectors[i].vector, groups).reshape(m, gc)
            bases.append(_basis_or_identity(sample, k))
            if g_pinv is None:
                continue
            comb = mm(plan.right_inverses[i].T, groups).reshape(-1, m, gc)
            np.concatenate([mm(comb[q], g_pinv[j]) for q, j in enumerate(tess.neighbor_lists[i])],
                           axis=1, out=rinv.rows[i])
            project_out(bases[-1], rinv.rows[i])
        return bases, rinv, stack_t(bases, tess, sketch) if with_uy else None

    v_blocks, z_rinv, _ = one_side(op.apply_adjoint)
    u_blocks, y_rinv, uy = one_side(op.apply, with_uy=group_cols is not None)

    bases = BlockBases(u_blocks, v_blocks, k)
    bundle = SketchBundle(
        omega=None, s=T.n_cols * gc, tess=tess, plan=plan,
        g_blocks=g_blocks, y_rinv=y_rinv, z_rinv=z_rinv, uy=uy,
    )
    return bases, bundle


def naive_bases(
    op: LinearOperatorHandle,
    tess: Tessellation,
    k: int,
    p: int,
    stream: RandomStream,
) -> tuple:
    """Blocked randSVD benchmark: one zeroed Gaussian probe per block.

    Block i's probe is an n x r Gaussian with the rows of every neighbor
    (including i itself) set to zero; all b probes are batched into a single
    oracle call per side, costing 2 b r matvec columns. No step reads the
    probe or the sketches later: the forward sketch goes once its bases are
    taken, before the adjoint call, and the probe when this returns. The
    bundle holds no array.
    """
    r = k + p
    n = tess.n_points
    probe = np.zeros((n, tess.b * r))
    for i in range(tess.b):
        cols = slice(i * r, (i + 1) * r)
        probe[:, cols] = gaussian(n, r, stream.child(0, i))
        probe[tess.neighbor_indices(i), cols] = 0.0

    def block_bases(sketch):
        return [_basis_or_identity(sketch[rows, i * r:(i + 1) * r], k)
                for i, rows in enumerate(tess.blocks)]

    u_blocks = block_bases(op.apply(probe))
    v_blocks = block_bases(op.apply_adjoint(probe))

    bases = BlockBases(u_blocks, v_blocks, k)
    bundle = SketchBundle(omega=None, s=tess.b * r, tess=tess)
    return bases, bundle
