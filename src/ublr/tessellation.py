"""Flat box partitions of the unit hypercube.

Builds the regular grid of boxes behind the strong admissibility pattern:
per-box index sets, neighbor lists (Chebyshev distance 1 on the grid, self
included), far fields, and the distance-2 coloring used by the structured
identity probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import RandomStream

_VALID_DIMS = (1, 2, 3)


@dataclass(frozen=True)
class PointCloud:
    """Points in the unit hypercube [0,1]^d, d in {1,2,3}."""

    coords: np.ndarray  # (n, d)
    dim: int

    def __post_init__(self):
        coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        object.__setattr__(self, "coords", coords)
        if self.dim not in _VALID_DIMS:
            raise ValueError(f"invalid dimension d={self.dim}, expected 1, 2, or 3")
        if coords.ndim != 2 or coords.shape[1] != self.dim:
            raise ValueError(f"coords must have shape (n, {self.dim})")
        if coords.shape[0] < 1:
            raise ValueError("point cloud must contain at least one point")
        if not np.isfinite(coords).all():
            raise ValueError("point coordinates must be finite")
        if np.any(coords < 0.0) or np.any(coords > 1.0):
            raise ValueError("points must lie inside the unit hypercube [0,1]^d")

    @property
    def n(self) -> int:
        return self.coords.shape[0]


def grid_points(per_axis: int, d: int) -> PointCloud:
    """Equispaced cell-center points, per_axis^d of them."""
    centers = (np.arange(per_axis) + 0.5) / per_axis
    axes = np.meshgrid(*([centers] * d), indexing="ij")
    coords = np.stack([a.ravel() for a in axes], axis=1)
    return PointCloud(coords, d)


def random_points(n: int, d: int, stream: RandomStream) -> PointCloud:
    """Uniform random points in the unit hypercube."""
    return PointCloud(stream.uniform(n, d), d)


@dataclass
class Tessellation:
    """Partition of point indices into boxes on a regular grid.

    blocks[i] holds the (ascending) global indices in box i; neighbor_lists[i]
    contains every box within Chebyshev distance 1 on the grid, including i
    itself. Empty grid cells have been dropped, so block ids are contiguous.
    Immutable after construction; safe to share.
    """

    dim: int
    axis_count: int
    n_points: int
    blocks: list
    neighbor_lists: list
    grid_coords: np.ndarray  # (b, d) integer cell coordinates
    full_grid: bool
    _far_fields: list = field(default=None, repr=False)

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def block_sizes(self) -> np.ndarray:
        return np.array([len(blk) for blk in self.blocks])

    @property
    def max_block_size(self) -> int:
        return int(self.block_sizes.max())

    @property
    def far_fields(self) -> list:
        if self._far_fields is None:
            all_ids = set(range(self.b))
            self._far_fields = [
                sorted(all_ids - set(nbrs)) for nbrs in self.neighbor_lists
            ]
        return self._far_fields

    def neighbor_row_count(self, i: int) -> int:
        """Total number of points in the neighborhood of box i."""
        return int(sum(len(self.blocks[j]) for j in self.neighbor_lists[i]))

    def neighbor_indices(self, i: int) -> np.ndarray:
        """Global indices of all points in the neighborhood of box i, stacked
        in neighbor-list order."""
        return np.concatenate([self.blocks[j] for j in self.neighbor_lists[i]])

    def to_json_dict(self, colors=None) -> dict:
        """JSON-ready form; block and box ids are 1-based on the wire."""
        out = {
            "dim": self.dim,
            "b": self.b,
            "blocks": [(np.asarray(blk) + 1).tolist() for blk in self.blocks],
            "neighbors": [[j + 1 for j in nbrs] for nbrs in self.neighbor_lists],
        }
        if colors is not None:
            out["colors"] = [int(c) + 1 for c in np.asarray(colors)]
        return out


@dataclass(frozen=True)
class BoxColoring:
    """Distance-2 coloring: boxes sharing any neighbor get distinct colors."""

    colors: np.ndarray
    num_colors: int


def suggest_block_count(n: int, k: int, d: int) -> int:
    """Number of boxes balancing sketch cost, rounded to a d-th power.

    Targets sqrt(3^d / k) * sqrt(n) boxes and returns the nearest per-axis
    count raised to the d-th power, with at least 2 boxes per axis.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if d not in _VALID_DIMS:
        raise ValueError(f"invalid dimension d={d}")
    target_b = np.sqrt(3.0**d / k) * np.sqrt(n)
    per_axis = int(np.floor(target_b ** (1.0 / d) + 0.5))
    per_axis = max(per_axis, 2)
    return per_axis**d


def build_tessellation(points: PointCloud, target_block_count: int) -> Tessellation:
    """Partition points into a regular grid of target_block_count boxes.

    target_block_count must be a d-th power; empty cells are dropped and
    block ids reindexed. Neighbor lists are computed from grid coordinates
    before dropping, then restricted to surviving boxes.
    """
    d = points.dim
    per_axis = _per_axis_count(target_block_count, d)

    cell_of_point = np.minimum(
        (points.coords * per_axis).astype(int), per_axis - 1
    )  # points at 1.0 fold into the last cell
    flat = np.zeros(points.n, dtype=int)
    for axis in range(d):
        flat = flat * per_axis + cell_of_point[:, axis]

    order = np.argsort(flat, kind="stable")
    sorted_flat = flat[order]
    boundaries = np.flatnonzero(np.diff(sorted_flat)) + 1
    groups = np.split(order, boundaries)
    occupied_cells = sorted_flat[np.concatenate(([0], boundaries))] if points.n else []

    blocks = [np.sort(g) for g in groups]
    grid_coords = np.array(
        [_unflatten(c, per_axis, d) for c in occupied_cells], dtype=int
    )

    b = len(blocks)
    neighbor_lists = []
    for i in range(b):
        cheb = np.abs(grid_coords - grid_coords[i]).max(axis=1)
        neighbor_lists.append(np.flatnonzero(cheb <= 1).tolist())

    return Tessellation(
        dim=d,
        axis_count=per_axis,
        n_points=points.n,
        blocks=blocks,
        neighbor_lists=neighbor_lists,
        grid_coords=grid_coords,
        full_grid=(b == per_axis**d),
    )


def color_boxes(tess: Tessellation) -> BoxColoring:
    """Distance-2 box coloring.

    Full grids use per-axis coordinates modulo 3, which is optimal there
    (3^d colors once each axis has >= 3 boxes). Grids with dropped cells fall
    back to greedy coloring of the distance-2 graph in block-id order.
    """
    if tess.full_grid:
        raw = np.zeros(tess.b, dtype=int)
        for axis in range(tess.dim):
            raw = raw * 3 + (tess.grid_coords[:, axis] % 3)
        _, colors = np.unique(raw, return_inverse=True)
    else:
        colors = _greedy_distance2_coloring(tess)
    return BoxColoring(colors=colors, num_colors=int(colors.max()) + 1)


def _greedy_distance2_coloring(tess: Tessellation) -> np.ndarray:
    neighbor_sets = [set(nbrs) for nbrs in tess.neighbor_lists]
    colors = np.full(tess.b, -1, dtype=int)
    for i in range(tess.b):
        taken = {
            colors[j]
            for j in range(tess.b)
            if j != i and colors[j] >= 0 and neighbor_sets[i] & neighbor_sets[j]
        }
        c = 0
        while c in taken:
            c += 1
        colors[i] = c
    return colors


def _per_axis_count(target: int, d: int) -> int:
    if target < 1:
        raise ValueError("target_block_count must be positive")
    per_axis = int(round(target ** (1.0 / d)))
    for candidate in (per_axis - 1, per_axis, per_axis + 1):
        if candidate >= 1 and candidate**d == target:
            return candidate
    raise ValueError(
        f"target_block_count={target} is not a {d}-th power of a per-axis count"
    )


def _unflatten(flat: int, per_axis: int, d: int) -> tuple:
    coords = []
    for _ in range(d):
        coords.append(flat % per_axis)
        flat //= per_axis
    return tuple(reversed(coords))
