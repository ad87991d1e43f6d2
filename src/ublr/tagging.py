"""Tagging matrices: construction, per-block null vectors, projected tags.

A tagging matrix T (b x ell, ell >= 3^d + 1) scales per-block Gaussian test
blocks. For each box i, a unit vector in the null space of the neighbor rows
T(N_i, :) zeroes the inadmissible contributions in the combined sketch; the
surviving far-field weights are the projected tags, whose max/min magnitude
ratio (the aspect ratio) measures sketch quality. With extra columns the
null space has dimension >= 2 and the vector can be chosen to shrink that
ratio: one zoomed-grid search over the angles of at most three null
directions serves every nullity.

Each block's single QR of T(N_i, :)* gives the null basis Z_i, whose last
column is the base null vector, and W_i = T(N_i, :)^+. The TaggingPlan keeps
the chosen null vector and W_i; Z_i lives only inside the QR.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import RandomStream, col_basis, gaussian, mm, null_basis
from .operators import ConfigError
from .tessellation import Tessellation


class DegenerateTagsError(RuntimeError):
    """Tagging matrix produced unusable null vectors or projected tags;
    the caller should redraw with a fresh seed."""


@dataclass(frozen=True)
class TaggingMatrix:
    entries: np.ndarray  # (b, ell)

    @property
    def n_cols(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class NullVector:
    block: int
    vector: np.ndarray  # unit vector, length ell


@dataclass(frozen=True)
class ProjectedTags:
    block: int
    values: np.ndarray  # length b, entry j is <t^(j), z>


DISTRIBUTIONS = ("gaussian", "haar", "equidistributed")
_MAX_REDRAWS = 5  # plan_tagging's redraws of degenerate or badly tagged draws
_RATIO_LIMIT = 1e6  # the worst aspect ratio plan_tagging accepts
_FIRST_GRID = 4096  # angle tuples in the null-vector search's first grid
_ZOOM_GRID = 289  # angle tuples in each of its zoomed grids
_ZOOM_ROUNDS = 3  # zoomed grids after the first
_ZOOM_STARTS = 4  # first-grid local minima the zoomed grids search around


def make_tagging_matrix(
    b: int,
    d: int,
    extra_cols: int = 0,
    distribution: str = "gaussian",
    stream: RandomStream | None = None,
) -> TaggingMatrix:
    """b x (3^d + 1 + extra_cols) tagging matrix of the given distribution;
    raises ConfigError for inputs that admit none."""
    if stream is None:
        stream = RandomStream(0)
    if extra_cols < 0:
        raise ConfigError("extra_cols must be nonnegative")
    ell = 3**d + 1 + extra_cols
    if b < ell:
        raise ConfigError(f"b={b} is too small for tagging: its {ell} columns (3^d + 1 + "
                          f"extra_cols, d={d}) need {ell} blocks or more")
    if distribution == "gaussian":
        entries = gaussian(b, ell, stream)
    elif distribution == "haar":
        g = gaussian(b, ell, stream)
        q = col_basis(g, ell)
        signs = np.sign((q * g).sum(axis=0))  # diag(R) = diag(Q* G)
        signs[signs == 0] = 1.0
        entries = q * signs
    elif distribution == "equidistributed":
        entries = _equidistributed_rows(b, ell, stream)
    else:
        raise ConfigError(f"unknown distribution {distribution!r}; expected one of "
                          f"{DISTRIBUTIONS}")
    return TaggingMatrix(entries)


def _equidistributed_rows(b, ell, stream, iterations=200):
    """Rows spread over the unit hypersphere by Riesz-energy descent.

    Gaussian rows are normalized, then repelled pairwise with a step capped
    by the current minimum distance. Each row is repelled by the other rows
    and by their antipodes: tagging only sees rows up to sign, and plain
    spherical descent at small b collapses into antipodal pairs whose
    parallel rows zero out far-field projected tags. Deterministic under
    the seed.
    """
    rows = gaussian(b, ell, stream)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    for _ in range(iterations):
        force = np.zeros_like(rows)
        d_min = np.inf
        for others in (rows, -rows):
            diff = rows[:, None, :] - others[None, :, :]
            dist2 = (diff**2).sum(axis=2)
            dist2[dist2 < 1e-30] = np.inf  # self term (and exact antipodes)
            dist = np.sqrt(dist2)
            force += (diff / dist[:, :, None] ** 3).sum(axis=1)
            d_min = min(d_min, dist.min())
        step = 0.25 * d_min**3
        disp = step * force
        disp_len = np.linalg.norm(disp, axis=1, keepdims=True)
        cap = 0.5 * d_min
        scale = np.minimum(1.0, cap / np.maximum(disp_len, 1e-300))
        rows = rows + disp * scale
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


def tag_null_vector(T: TaggingMatrix, tess: Tessellation, i: int) -> NullVector:
    """Unit null vector of the neighbor-row submatrix T(N_i, :)."""
    return _factor_block(T, tess, i)[0]


def projected_tags(T: TaggingMatrix, tess: Tessellation, nv: NullVector) -> ProjectedTags:
    """All b projected tags <t^(j), z^(i)>; the neighbor entries vanish."""
    return ProjectedTags(block=nv.block, values=mm(T.entries, nv.vector))


def aspect_ratio(pt: ProjectedTags, tess: Tessellation) -> float:
    """Max-to-min magnitude of the far-field projected tags (>= 1).

    All-zero far fields return 1.0 (all values equal); a vanishing value
    among nonzero ones yields +inf. Raises on an empty far field.
    """
    far = tess.far_fields[pt.block]
    if len(far) == 0:
        raise ValueError(f"block {pt.block} has an empty far field (b too small)")
    return float(_ratio_per_column(pt.values[far][:, None])[0])


def _ratio_per_column(far_vals: np.ndarray) -> np.ndarray:
    """Aspect ratio of each column of an (|F|, n) array of far-field values."""
    mags = np.abs(far_vals)
    hi = mags.max(axis=0)
    lo = mags.min(axis=0)
    out = np.full(far_vals.shape[1], np.inf)
    np.divide(hi, lo, out=out, where=lo > 0)
    out[hi == 0] = 1.0
    return out


def optimize_null_vector(T: TaggingMatrix, tess: Tessellation, i: int) -> NullVector:
    """Null vector minimizing the aspect ratio over the unit sphere in the
    null space of T(N_i, :).

    Requires nullity >= 2; with nullity 1 it falls back to tag_null_vector
    with a warning. One search serves every nullity: over the first three
    null directions (two at nullity 2), a grid of 4096 directions up to sign,
    then three zoomed grids of 289 around each of its four best local
    minima, keeping the best direction found. The
    unoptimized vector is kept whenever the search does not beat its ratio,
    so the result is never worse than the base.
    """
    if T.n_cols - len(tess.neighbor_lists[i]) < 2:
        warnings.warn(
            f"block {i}: null space is one-dimensional, nothing to optimize"
        )
    return _factor_block(T, tess, i, optimize=True)[1]


def _factor_block(T: TaggingMatrix, tess: Tessellation, i: int, optimize: bool = False):
    """(base, chosen, W_i, rho_base, rho_chosen) for block i from one QR of
    T(N_i, :)*.

    base is the last column of the null basis Z_i; chosen is
    optimize_null_vector's vector with optimize, else base. W_i is the right
    inverse T(N_i, :)^+, or None when R has an exactly zero pivot (dtrtrs);
    only then does Z_i come from a second QR. The ratios are the aspect
    ratios of base and chosen, NaN when the far field is empty."""
    sub = T.entries[tess.neighbor_lists[i], :]
    nullity = T.n_cols - len(tess.neighbor_lists[i])
    try:
        try:
            Z, W, _ = null_basis(sub, nullity, rows=np.eye(T.n_cols))
        except np.linalg.LinAlgError:  # exactly dependent rows have no right inverse
            Z, W = null_basis(sub, nullity), None
    except ValueError as exc:
        raise DegenerateTagsError(f"block {i}: {exc}") from exc
    # null_basis has already bounded the residuals by _NULL_RTOL max(1, ||T(N_i, :)||_F)
    base = NullVector(block=i, vector=Z[:, -1])
    far = tess.far_fields[i]
    if len(far) == 0:
        return base, base, W, np.nan, np.nan
    base_ratio = aspect_ratio(projected_tags(T, tess, base), tess)
    if not optimize or nullity < 2:
        return base, base, W, base_ratio, base_ratio
    X = Z[:, :3]  # cap the search at three null directions
    z = mm(X, _best_direction(mm(T.entries[far, :], X)))
    z /= np.linalg.norm(z)
    chosen = NullVector(block=i, vector=z)
    chosen_ratio = aspect_ratio(projected_tags(T, tess, chosen), tess)
    if base_ratio <= chosen_ratio:
        return base, base, W, base_ratio, base_ratio
    return base, chosen, W, base_ratio, chosen_ratio


def _best_direction(P: np.ndarray) -> np.ndarray:
    """Unit coefficients c of the q <= 3 columns of P (the far-field tags of
    q null directions) for which P c has the smallest aspect ratio found.

    c runs over q - 1 hyperspherical angles, each in [0, pi], which reach
    every direction up to sign. A first grid of _FIRST_GRID angle tuples is
    searched. Around each of its _ZOOM_STARTS best local minima (points no
    worse than any grid neighbour), _ZOOM_ROUNDS grids of _ZOOM_GRID tuples
    follow; each spans two of the last grid's spacings either side of that
    start's best point so far, and holds that point, so no round loses it.
    The best point over all starts is returned: never worse, up to
    rounding, than zooming around the first grid's best point alone, whose
    basin may not hold the best direction at nullity >= 3."""
    dims = P.shape[1] - 1
    n = round(_FIRST_GRID ** (1 / dims))
    angles = _angle_grid([np.linspace(0.0, np.pi, n)] * dims)
    ratios = _ratio_per_column(mm(P, _unit_coefficients(angles)))
    pad = np.pad(ratios.reshape([n] * dims), 1, mode="edge")
    shifts = [pad[tuple(slice(o, o + n) for o in at)] for at in np.ndindex(*[3] * dims)]
    minima = np.flatnonzero(ratios == np.min(shifts, axis=0).ravel())
    starts = minima[np.argsort(ratios[minima], kind="stable")[:_ZOOM_STARTS]]
    points, ratios, rows = angles[:, starts], ratios[starts], np.arange(len(starts))
    n, spacing = round(_ZOOM_GRID ** (1 / dims)), np.pi / (n - 1)
    for _ in range(_ZOOM_ROUNDS):
        spacing *= 4.0 / (n - 1)
        offsets = _angle_grid([spacing * np.arange(-(n // 2), n // 2 + 1)] * dims)
        grid = points[:, :, None] + offsets[:, None, :]  # (dims, starts, n^dims)
        zoom = _ratio_per_column(mm(P, _unit_coefficients(grid.reshape(dims, -1))))
        zoom = zoom.reshape(len(starts), -1)
        best = np.argmin(zoom, axis=1)
        points, ratios = grid[:, rows, best], zoom[rows, best]
    return _unit_coefficients(points[:, [int(np.argmin(ratios))]])[:, 0]


def _angle_grid(axes: list) -> np.ndarray:
    """Every tuple of one value per axis, as columns of a (len(axes), n) array."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def _unit_coefficients(angles: np.ndarray) -> np.ndarray:
    """Unit vectors in R^q, one per column of q - 1 hyperspherical angles."""
    sines = np.cumprod(np.sin(angles), axis=0)
    return np.vstack((np.cos(angles[:1]), sines[:-1] * np.cos(angles[1:]), sines[-1:]))


@dataclass
class TaggingPlan:
    """A tagging matrix together with per-block null vectors and ratios, and
    W_i from each block's single QR of T(N_i, :)*; the QR's null basis Z_i
    is not kept."""

    matrix: TaggingMatrix
    null_vectors: list
    rho_base: np.ndarray
    rho_optimized: np.ndarray | None
    attempts: int
    right_inverses: list  # W_i = T(N_i, :)^+, ell x |N_i|


def plan_tagging(
    tess: Tessellation,
    extra_cols: int = 0,
    distribution: str = "gaussian",
    stream: RandomStream | None = None,
    optimize: bool = False,
    extra_check=None,
) -> TaggingPlan:
    """Draw a tagging matrix and all per-block null vectors, redrawing with
    the next derived seed (at most _MAX_REDRAWS times) whenever a block comes
    out degenerate or with an aspect ratio above _RATIO_LIMIT.

    extra_check, when given, must accept the evaluated TaggingPlan and return
    False to force a redraw (the type-B pipeline rejects draws whose neighbour
    rows it cannot right-invert well); only a draw it passes is returned."""
    if stream is None:
        stream = RandomStream(0)
    last_error = None
    plan = None
    for attempt in range(_MAX_REDRAWS + 1):
        T = make_tagging_matrix(
            tess.b, tess.dim, extra_cols, distribution, stream.child(attempt)
        )
        try:
            candidate = evaluate_plan(T, tess, optimize, attempt + 1)
            if extra_check is not None and not extra_check(candidate):
                raise DegenerateTagsError("extra_check rejected the draw")
        except DegenerateTagsError as exc:
            last_error = exc
            continue
        plan = candidate
        effective = plan.rho_optimized if plan.rho_optimized is not None else plan.rho_base
        finite = effective[~np.isnan(effective)]
        worst = finite.max() if finite.size else 1.0
        if np.isfinite(worst) and worst <= _RATIO_LIMIT:
            return plan
    if plan is None:
        raise DegenerateTagsError(
            f"no usable tagging matrix after {_MAX_REDRAWS + 1} draws: {last_error}"
        )
    warnings.warn(
        f"tagging matrix still has aspect ratio above {_RATIO_LIMIT:.0e} after "
        f"{_MAX_REDRAWS + 1} draws; proceeding with the last one"
    )
    return plan


def evaluate_plan(
    T: TaggingMatrix, tess: Tessellation, optimize: bool = False, attempts: int = 1
) -> TaggingPlan:
    """Null vector and aspect ratio of every block for one tagging matrix.

    With optimize, blocks of nullity >= 2 take the ratio-minimizing null
    vector. Blocks with an empty far field keep NaN ratios. Raises
    DegenerateTagsError when a block has no null vector or right inverse."""
    null_vectors, right_inverses = [], []
    rho_base = np.full(tess.b, np.nan)
    rho_opt = np.full(tess.b, np.nan) if optimize else None
    for i in range(tess.b):
        _, chosen, W, rho_base[i], rho_chosen = _factor_block(T, tess, i, optimize)
        if W is None:
            raise DegenerateTagsError(f"block {i}: neighbour tagging rows are exactly dependent")
        if optimize:
            rho_opt[i] = rho_chosen
        null_vectors.append(chosen)
        right_inverses.append(W)
    return TaggingPlan(
        matrix=T,
        null_vectors=null_vectors,
        rho_base=rho_base,
        rho_optimized=rho_opt,
        attempts=attempts,
        right_inverses=right_inverses,
    )
