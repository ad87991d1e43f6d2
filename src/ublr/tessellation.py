"""Flat box partitions of the unit hypercube.

Builds the regular grid of boxes behind the strong admissibility pattern:
per-box index sets and neighbor lists (Chebyshev distance 1 on the grid,
self included), from which far fields follow, and the distance-2 coloring
used by the structured identity probes (cell coordinates modulo 3). A
Tessellation holds only its blocks, neighbor lists and colors, so one read
back from a container is the one that was built; the grid is not kept.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property

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

    dim is the geometry dimension d and n_points the number of points.
    blocks[i] holds the (ascending) global indices in box i; neighbor_lists[i]
    lists, ascending, every box within Chebyshev distance 1 on the grid,
    including i itself. Empty grid cells have been dropped, so block ids are
    contiguous. colors is a distance-2 coloring by ids 0..C-1 (see
    color_boxes); far fields derive from the neighbor lists. Immutable
    after construction; safe to share.
    """

    dim: int
    n_points: int
    blocks: list
    neighbor_lists: list
    colors: np.ndarray

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def block_sizes(self) -> np.ndarray:
        return np.array([len(blk) for blk in self.blocks])

    @property
    def max_block_size(self) -> int:
        return int(self.block_sizes.max())

    @cached_property
    def far_fields(self) -> list:
        all_ids = set(range(self.b))
        return [sorted(all_ids - set(nbrs)) for nbrs in self.neighbor_lists]

    def neighbor_row_count(self, i: int) -> int:
        """Total number of points in the neighborhood of box i."""
        return int(sum(len(self.blocks[j]) for j in self.neighbor_lists[i]))

    def neighbor_indices(self, i: int) -> np.ndarray:
        """Global indices of all points in the neighborhood of box i, stacked
        in neighbor-list order."""
        return np.concatenate([self.blocks[j] for j in self.neighbor_lists[i]])

    def to_json(self) -> bytes:
        """Wire form: compact, key-sorted UTF-8 JSON of dim, b, blocks,
        neighbors and colors, all ids 1-based."""
        return json.dumps({
            "dim": self.dim,
            "b": self.b,
            "blocks": [(np.asarray(blk) + 1).tolist() for blk in self.blocks],
            "neighbors": [[j + 1 for j in nbrs] for nbrs in self.neighbor_lists],
            "colors": (self.colors + 1).tolist(),
        }, sort_keys=True, separators=(",", ":")).encode()

    @classmethod
    def from_json(cls, text) -> Tessellation:
        """The tessellation whose to_json is text (bytes or str). Raises
        ValueError, naming the check, unless dim is 1, 2 or 3, b is the block
        count, the blocks are non-empty and partition the ids 1..n, the
        neighbour lists are symmetric, strictly increasing lists of ids in
        1..b that hold their own block, and the colors, kept as stored, are
        a distance-2 coloring by b integer ids that use each of 1..C."""
        try:
            data = json.loads(text)
            dim, b, blocks = data["dim"], data["b"], data["blocks"]
            point_ids = sorted(i for blk in blocks for i in blk)
            neighbors = data["neighbors"]
            neighbor_ids = [j for nbrs in neighbors for j in nbrs]
            colors = list(data["colors"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"unreadable JSON ({exc!r})") from None
        if type(dim) is not int or dim not in _VALID_DIMS:
            raise ValueError(f"dim {dim!r} is not 1, 2 or 3")
        if b != len(blocks):
            raise ValueError(f"b is {b}, but there are {len(blocks)} blocks")
        n = len(point_ids)
        if point_ids != list(range(1, n + 1)):
            raise ValueError(f"blocks do not partition the point ids 1..{n}")
        if not blocks or not all(blocks):
            raise ValueError("blocks are missing or one is empty")
        if len(neighbors) != b or any(type(j) is not int or not 1 <= j <= b for j in neighbor_ids):
            raise ValueError(f"neighbour lists are not {b} lists of block ids in 1..{b}")
        for i, nbrs in enumerate(neighbors, start=1):
            if any(p >= q for p, q in zip(nbrs, nbrs[1:])):
                raise ValueError(f"neighbour list of block {i} is not strictly increasing")
            if i not in nbrs:
                raise ValueError(f"neighbour list of block {i} lacks block {i}")
            for j in nbrs:
                if i not in neighbors[j - 1]:
                    raise ValueError(f"block {i} lists block {j}, but not the reverse")
        if (len(colors) != b or any(type(c) is not int for c in colors)
                or set(colors) != set(range(1, max(colors) + 1))):
            raise ValueError(f"colors are not {b} integer ids that use each of 1..C")
        tess = cls(
            dim=dim, n_points=n, blocks=[np.asarray(blk, dtype=int) - 1 for blk in blocks],
            neighbor_lists=[[j - 1 for j in nbrs] for nbrs in neighbors],
            colors=np.asarray(colors) - 1,
        )
        if (i := coloring_collision(tess.neighbor_lists, tess.colors)) is not None:
            raise ValueError(f"two boxes of one color in the neighbourhood of block {i + 1}")
        return tess


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
    block ids reindexed. Each box's neighbors are looked up among its 3^d
    grid cells through an index from cell to block id, so the build is
    O(b 3^d) and empty cells yield no neighbor. A box's color is its cell
    coordinates modulo 3 as a base-3 code, the codes in use numbered in
    ascending order: at most 3^d colors, distance-2 on ragged grids too.
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
    boundaries = np.flatnonzero(np.diff(flat[order])) + 1
    groups = np.split(order, boundaries)

    blocks = [np.sort(g) for g in groups]
    firsts = [g[0] for g in groups]
    cells = cell_of_point[firsts]  # (b, d) grid coordinates
    # each box's 3^d candidate cells are looked up, not compared with all b
    block_of_cell = np.full(per_axis**d, -1)
    block_of_cell[flat[firsts]] = np.arange(len(groups))
    found = []
    for offset in itertools.product((-1, 0, 1), repeat=d):
        shifted = cells + offset
        inside = ((shifted >= 0) & (shifted < per_axis)).all(axis=1)
        ids = np.full(len(groups), -1)
        ids[inside] = block_of_cell[np.ravel_multi_index(shifted[inside].T, (per_axis,) * d)]
        found.append(ids)
    found = np.sort(np.column_stack(found), axis=1)
    neighbor_lists = [row[row >= 0].tolist() for row in found]
    return Tessellation(
        dim=d, n_points=points.n, blocks=blocks, neighbor_lists=neighbor_lists,
        colors=np.unique(np.ravel_multi_index((cells % 3).T, (3,) * d), return_inverse=True)[1],
    )


def color_boxes(tess: Tessellation) -> BoxColoring:
    """The tessellation's distance-2 box coloring: cell coordinates modulo
    3 as built by build_tessellation, or as stored in a container."""
    return BoxColoring(colors=tess.colors, num_colors=int(tess.colors.max()) + 1)


def coloring_collision(neighbor_lists: list, colors: np.ndarray) -> int | None:
    """The first block whose neighborhood holds two boxes of one color, or
    None: boxes sharing a neighbor lie in one (symmetric) neighbor list."""
    return next((i for i, nbrs in enumerate(neighbor_lists)
                 if len(set(colors[nbrs].tolist())) < len(nbrs)), None)


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
