import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ublr import (
    BoxColoring,
    PointCloud,
    RandomStream,
    Tessellation,
    build_tessellation,
    color_boxes,
    grid_points,
    random_points,
    suggest_block_count,
)

from conftest import ball_points, probe_columns


def check_tessellation_invariants(tess):
    # partition: union covers all indices exactly once
    all_idx = np.concatenate(tess.blocks)
    assert len(all_idx) == tess.n_points
    assert np.array_equal(np.sort(all_idx), np.arange(tess.n_points))
    for i in range(tess.b):
        assert i in tess.neighbor_lists[i]
        assert len(tess.neighbor_lists[i]) <= 3**tess.dim
        assert np.array_equal(tess.blocks[i], np.sort(tess.blocks[i]))
        # far field is the exact complement of the neighbor list
        nbrs, far = set(tess.neighbor_lists[i]), set(tess.far_fields[i])
        assert nbrs | far == set(range(tess.b))
        assert not nbrs & far
    # symmetry
    for i in range(tess.b):
        for j in tess.neighbor_lists[i]:
            assert i in tess.neighbor_lists[j]


def check_coloring(tess, coloring):
    colors = coloring.colors
    assert coloring.num_colors == len(set(colors.tolist()))
    for i in range(tess.b):
        for j in range(i + 1, tess.b):
            if set(tess.neighbor_lists[i]) & set(tess.neighbor_lists[j]):
                assert colors[i] != colors[j], (i, j)


class TestBuildTessellation:
    def test_eight_equispaced_1d(self):
        tess = build_tessellation(grid_points(8, 1), 8)
        assert tess.b == 8
        # box 3 (1-based) has neighbors {2,3,4}; 0-based {1,2,3}
        assert tess.neighbor_lists[2] == [1, 2, 3]
        # edge box has no left neighbor
        assert tess.neighbor_lists[0] == [0, 1]
        assert len(tess.neighbor_lists[0]) == 2 < 3

    def test_interior_box_2d(self):
        pts = grid_points(8, 2)
        tess = build_tessellation(pts, 16)  # 4x4 boxes, 2x2 pts each
        cells = [(pts.coords[tess.blocks[i][0]] * 4).astype(int) for i in range(tess.b)]
        interior = [
            i for i in range(tess.b)
            if np.all(cells[i] >= 1) and np.all(cells[i] <= 2)
        ]
        assert interior
        for i in interior:
            assert len(tess.neighbor_lists[i]) == 9

    @pytest.mark.parametrize("d,b", [(1, 8), (2, 9), (3, 8)])
    def test_invariants_random_points(self, d, b):
        pts = random_points(200, d, RandomStream(3).child(d))
        tess = build_tessellation(pts, b)
        check_tessellation_invariants(tess)

    def test_empty_cells_dropped(self):
        # all points in the left half of [0,1]: right-half cells are empty
        coords = np.linspace(0.0, 0.45, 30).reshape(-1, 1)
        tess = build_tessellation(PointCloud(coords, 1), 8)
        assert tess.b == 4
        check_tessellation_invariants(tess)

    def test_point_at_upper_boundary(self):
        coords = np.array([[0.0], [1.0]])
        tess = build_tessellation(PointCloud(coords, 1), 2)
        assert tess.b == 2

    def test_not_a_power_raises(self):
        with pytest.raises(ValueError):
            build_tessellation(grid_points(4, 2), 8)  # 8 is not a square

    def test_bad_dimension_raises(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((4, 4)), 4)

    def test_points_outside_raise(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[1.2]]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_raise(self, bad):
        # NaN compares false, so the [0, 1]^d check alone lets it through
        with pytest.raises(ValueError, match="finite"):
            PointCloud(np.array([[0.1, 0.2], [bad, 0.5]]), 2)

    def test_json_serialization_one_based(self):
        tess = build_tessellation(grid_points(4, 1), 4)
        data = json.loads(tess.to_json())
        assert data["dim"] == 1 and data["b"] == 4
        assert data["blocks"][0][0] == 1  # 1-based indices
        assert min(min(n) for n in data["neighbors"]) == 1
        assert len(data["colors"]) == 4

    @pytest.mark.parametrize(
        "text, message",
        [('{"b":0,"blocks":[],"colors":[],"dim":1,"neighbors":[]}', "blocks are missing"),
         ('{"b":2,"blocks":[[1,2],[]],"colors":[1,2],"dim":1,"neighbors":[[1,2],[1,2]]}',
          "one is empty"),
         ('{"b":1,"blocks":[[1]],"colors":[1],"dim":4,"neighbors":[[1]]}', "dim 4 is not"),
         ('{"b":1,"blocks":[[1]],"colors":[1],"dim":2.0,"neighbors":[[1]]}', "dim 2.0 is not")],
        ids=["no-blocks", "empty-block", "dim-4", "dim-float"],
    )
    def test_from_json_rejects(self, text, message):
        # what build_tessellation never makes: no block, an empty block, or
        # a dim other than the integers 1, 2 and 3
        with pytest.raises(ValueError, match=message):
            Tessellation.from_json(text)


class TestSuggestBlockCount:
    def test_large_problem_2d(self):
        # round(sqrt(sqrt(9/30) * sqrt(20000))) = 9 per axis
        assert suggest_block_count(20000, 30, 2) == 81

    def test_clamped_floor(self):
        assert suggest_block_count(100, 100, 1) == 2

    def test_direct_evaluation_1d(self):
        assert suggest_block_count(900, 9, 1) == 17

    def test_is_a_power(self):
        for n in (100, 5000, 30000):
            for d in (1, 2, 3):
                b = suggest_block_count(n, 30, d)
                per_axis = round(b ** (1.0 / d))
                assert per_axis**d == b
                assert per_axis >= 2


class TestColorBoxes:
    def test_1d_row_of_8(self):
        tess = build_tessellation(grid_points(8, 1), 8)
        coloring = color_boxes(tess)
        assert coloring.num_colors == 3
        groups = {}
        for i, c in enumerate(coloring.colors):
            groups.setdefault(int(c), []).append(i)
        assert sorted(map(sorted, groups.values())) == [[0, 3, 6], [1, 4, 7], [2, 5]]
        check_coloring(tess, coloring)

    def test_single_box(self):
        tess = build_tessellation(grid_points(2, 1), 1)
        assert color_boxes(tess).num_colors == 1

    def test_3x3_all_distinct(self):
        tess = build_tessellation(grid_points(3, 2), 9)
        coloring = color_boxes(tess)
        # brute-force oracle: every pair of boxes in a 3x3 grid shares a
        # neighbor, so all colors must differ
        for i in range(9):
            for j in range(i + 1, 9):
                assert set(tess.neighbor_lists[i]) & set(tess.neighbor_lists[j])
        assert coloring.num_colors == 9
        check_coloring(tess, coloring)

    @pytest.mark.parametrize("d,per_axis", [(1, 5), (2, 4), (3, 3)])
    def test_full_grid_color_count(self, d, per_axis):
        tess = build_tessellation(grid_points(per_axis * 2, d), per_axis**d)
        coloring = color_boxes(tess)
        assert coloring.num_colors == 3**d
        check_coloring(tess, coloring)

    def test_ragged_grid_colored_by_cell_mod_3(self):
        # occupied cells 0-4 and 11-15 of 16: each box takes its cell mod 3,
        # not the next color after the gap, as a greedy pass would
        coords = np.concatenate(
            (np.linspace(0, 0.3, 20), np.linspace(0.7, 1.0, 20))
        ).reshape(-1, 1)
        tess = build_tessellation(PointCloud(coords, 1), 16)
        assert tess.b == 10
        coloring = color_boxes(tess)
        assert coloring.colors.tolist() == [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]
        check_coloring(tess, coloring)

    def test_probe_bound_on_a_ragged_ball(self):
        # 1042 points of a ball on an 8 x 8 x 8 grid, 322 boxes of at most
        # 8 points: the greedy coloring in block-id order took 36 colors and
        # 223 probe columns, over the paper's 3^3 m = 216; mod 3 takes 27
        tess = build_tessellation(ball_points(4 * 8**3, 3, 0), 8**3)
        assert (tess.b, tess.max_block_size) == (322, 8)
        greedy = greedy_distance2_reference(tess)
        assert probe_columns(tess, BoxColoring(greedy, int(greedy.max()) + 1)) == 223
        coloring = color_boxes(tess)
        check_coloring(tess, coloring)
        assert coloring.num_colors == 27
        assert probe_columns(tess, coloring) == 182


def greedy_distance2_reference(tess):
    # O(b^2) greedy in block-id order: box i takes the smallest color of no
    # earlier box whose neighbor list meets its own. Containers written
    # before the mod-3 coloring store these colors; on full grids they are
    # the mod-3 ones
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


def mod3_reference(cells, d):
    # per-axis cell coordinate modulo 3 of the occupied cells, colors
    # numbered in ascending order of the base-3 code
    raw = np.zeros(len(cells), dtype=int)
    for axis in range(d):
        raw = raw * 3 + (cells[:, axis] % 3)
    return np.unique(raw, return_inverse=True)[1]


@st.composite
def clustered_points(draw):
    """(points, per_axis): a few clusters of points, so that grid cells can be
    empty, plus optionally one point at every cell centre (a full grid)."""
    d = draw(st.sampled_from([1, 2, 3]))
    per_axis = draw(st.integers(2, {1: 20, 2: 8, 3: 5}[d]))
    centres = draw(st.lists(st.tuples(*[st.floats(0.0, 1.0)] * d), min_size=1, max_size=4))
    radius = draw(st.floats(0.0, 0.3))
    seed = draw(st.integers(0, 2**31))
    offsets = RandomStream(seed).uniform(len(centres) * 20, d) * 2 * radius - radius
    coords = np.repeat(np.asarray(centres), 20, axis=0) + offsets
    if draw(st.booleans()):
        coords = np.vstack([coords, grid_points(per_axis, d).coords])
    return PointCloud(np.clip(coords, 0.0, 1.0), d), per_axis


@settings(max_examples=200, deadline=None)
@given(clustered_points())
def test_coloring_matches_references(case):
    # full and ragged grids take the mod-3 coloring of their occupied cells,
    # so type A's step-III probe meets the paper's sum_c max m_c <= 3^d m;
    # full grids keep the greedy colors that containers stored before
    pts, per_axis = case
    d = pts.dim
    tess = build_tessellation(pts, per_axis**d)
    check_tessellation_invariants(tess)
    coloring = color_boxes(tess)
    check_coloring(tess, coloring)
    first = pts.coords[[blk[0] for blk in tess.blocks]]
    cells = np.minimum((first * per_axis).astype(int), per_axis - 1)
    assert np.array_equal(coloring.colors, mod3_reference(cells, d))
    assert probe_columns(tess, coloring) <= 3**d * tess.max_block_size
    if tess.b == per_axis**d:
        assert np.array_equal(coloring.colors, greedy_distance2_reference(tess))


@settings(max_examples=200, deadline=None)
@given(clustered_points())
def test_neighbor_lists_match_brute_force(case):
    # the 3^d cell lookup against comparing every box's cell with all b cells
    pts, per_axis = case
    tess = build_tessellation(pts, per_axis**pts.dim)
    first = pts.coords[[blk[0] for blk in tess.blocks]]
    cells = np.minimum((first * per_axis).astype(int), per_axis - 1)
    want = [np.flatnonzero(np.abs(cells - cell).max(axis=1) <= 1).tolist() for cell in cells]
    assert tess.neighbor_lists == want


@settings(max_examples=200, deadline=None)
@given(clustered_points())
def test_json_round_trip(case):
    # full and ragged grids in d = 1, 2 and 3 read back as built, and write
    # the same bytes again
    pts, per_axis = case
    tess = build_tessellation(pts, per_axis**pts.dim)
    text = tess.to_json()
    back = Tessellation.from_json(text)
    assert (back.dim, back.n_points) == (tess.dim, tess.n_points)
    assert len(back.blocks) == tess.b
    assert all(np.array_equal(p, q) for p, q in zip(back.blocks, tess.blocks))
    assert back.neighbor_lists == tess.neighbor_lists
    assert back.to_json() == text
