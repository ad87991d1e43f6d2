import json

import numpy as np
import pytest

from ublr import (
    NearField,
    RandomStream,
    build_tessellation,
    color_boxes,
    compress,
    gaussian,
    make_synthetic_spec,
    random_points,
    read_ublr,
    write_ublr,
)
from ublr.reconstruction import UniformBLR

from conftest import ball_points, uniform_synthetic
from test_tessellation import greedy_distance2_reference


@pytest.fixture(scope="module")
def compressed():
    op, tess, _ = uniform_synthetic(d=1, b=8, m=16, k=3, seed=5)
    rep, _ = compress(op, tess, 3, "A2", 10, RandomStream(1), compute_error=False)
    return op, rep


def test_roundtrip_preserves_action(compressed, tmp_path):
    op, rep = compressed
    path = tmp_path / "rep.ublr"
    write_ublr(path, rep)
    back = read_ublr(path)
    X = gaussian(rep.n, 5, RandomStream(3))
    assert np.array_equal(rep.apply(X), back.apply(X))
    assert np.array_equal(rep.apply_adjoint(X), back.apply_adjoint(X))


@pytest.mark.parametrize("rank", [0, 3])
def test_synthetic_truth_roundtrip_bit_identical(tmp_path, rank):
    # the ground truth is a UniformBLR, so the container holds it exactly
    truth = make_synthetic_spec(build_tessellation(_disc_points(), 49), rank, RandomStream(2))
    path, again = tmp_path / "truth.ublr", tmp_path / "again.ublr"
    write_ublr(path, truth)
    back = read_ublr(path)
    for cols in (1, 5):
        X = gaussian(truth.n, cols, RandomStream(3))
        assert np.array_equal(truth.apply(X), back.apply(X))
        assert np.array_equal(truth.apply_adjoint(X), back.apply_adjoint(X))
    assert np.array_equal(truth.to_dense(), back.to_dense())
    write_ublr(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_apply_does_not_depend_on_the_factors_layout(compressed, tmp_path):
    # mm picks its BLAS routine and flags from each operand's layout, and on
    # one or two columns F- and C-ordered factors give different rounding;
    # a rep built from F-ordered U, V and core still applies bitwise as its
    # round trip, whose factors read_ublr returns C-ordered
    _, rep = compressed
    fortran = UniformBLR(
        tess=rep.tess, rank=rep.rank,
        u_blocks=[np.asfortranarray(u) for u in rep.u_blocks],
        v_blocks=[np.asfortranarray(v) for v in rep.v_blocks],
        core=np.asfortranarray(rep.core),
        b_blocks=rep.b_blocks,
    )
    path = tmp_path / "fortran.ublr"
    write_ublr(path, fortran)
    back = read_ublr(path)
    for cols in (1, 2, 5):
        X = gaussian(rep.n, cols, RandomStream(3))
        assert np.array_equal(fortran.apply(X), back.apply(X))
        assert np.array_equal(fortran.apply_adjoint(X), back.apply_adjoint(X))
    x = gaussian(rep.n, 1, RandomStream(4))[:, 0]
    assert np.array_equal(fortran.apply(x), back.apply(x))


def test_read_holds_no_view_of_the_file_buffer(compressed, tmp_path):
    # B is read as views of the buffer and copied once, into a NearField's
    # rows; U, V and the core are copied, so nothing read pins the buffer
    _, rep = compressed
    path = tmp_path / "rep.ublr"
    write_ublr(path, rep)
    back = read_ublr(path)
    assert isinstance(back.b_blocks, NearField) and back.b_blocks.tess is back.tess
    buffer = back.b_blocks.rows[0].base
    for array in [*back.u_blocks, *back.v_blocks, back.core, buffer]:
        assert array.flags.owndata and array.flags.writeable
    assert all(row.base is buffer for row in back.b_blocks.rows)


def test_write_is_byte_deterministic(compressed, tmp_path):
    _, rep = compressed
    p1, p2 = tmp_path / "a.ublr", tmp_path / "b.ublr"
    write_ublr(p1, rep)
    write_ublr(p2, rep)
    assert p1.read_bytes() == p2.read_bytes()


def _disc_points():
    # 1577 of 2000 uniform points: on the 7x7 grid four corner cells are
    # empty, leaving 45 boxes
    return ball_points(2000, 2, 1)


@pytest.mark.parametrize(
    "points, target, b",
    [(lambda: random_points(400, 2, RandomStream(0)), 36, 36), (_disc_points, 49, 45)],
    ids=["full-6x6", "ragged-disc"],
)
def test_read_returns_written_tessellation(tmp_path, points, target, b):
    tess = build_tessellation(points(), target)
    assert tess.b == b
    truth = make_synthetic_spec(tess, 3, RandomStream(2))
    rep, _ = compress(truth, tess, 3, "A3", stream=RandomStream(1), compute_error=False)
    path, again = tmp_path / "rep.ublr", tmp_path / "again.ublr"
    write_ublr(path, rep)
    back = read_ublr(path).tess
    assert (back.dim, back.n_points) == (tess.dim, tess.n_points)
    assert len(back.blocks) == tess.b
    assert all(np.array_equal(p, q) for p, q in zip(back.blocks, tess.blocks))
    assert back.neighbor_lists == tess.neighbor_lists
    assert np.array_equal(color_boxes(back).colors, color_boxes(tess).colors)
    write_ublr(again, read_ublr(path))
    assert again.read_bytes() == path.read_bytes()


def test_stored_colors_of_another_coloring_kept(tmp_path):
    # containers written before the mod-3 coloring store the greedy one,
    # which takes 10 colors on the ragged disc where mod 3 takes 9: any
    # distance-2 coloring is read as stored and written back the same
    tess = build_tessellation(_disc_points(), 49)
    greedy = greedy_distance2_reference(tess)
    assert (greedy.max() + 1, color_boxes(tess).num_colors) == (10, 9)
    truth = make_synthetic_spec(tess, 3, RandomStream(2))
    rep, _ = compress(truth, tess, 3, "A1", stream=RandomStream(1), compute_error=False)
    path, again = tmp_path / "rep.ublr", tmp_path / "again.ublr"
    write_ublr(path, rep)

    def greedy_colors(data):
        data["colors"] = (greedy + 1).tolist()

    path.write_bytes(_edit_tessellation(path.read_bytes(), greedy_colors))
    back = read_ublr(path)
    assert np.array_equal(color_boxes(back.tess).colors, greedy)
    write_ublr(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_magic_validation(tmp_path):
    path = tmp_path / "junk.ublr"
    path.write_bytes(b"NOTUBLR" + b"\x00" * 64)
    with pytest.raises(ValueError):
        read_ublr(path)


def test_header_fields(compressed, tmp_path):
    op, rep = compressed
    path = tmp_path / "rep.ublr"
    write_ublr(path, rep)
    raw = path.read_bytes()
    assert raw[:5] == b"UBLR1"
    header = np.frombuffer(raw, dtype="<u8", count=6, offset=5)
    assert header[0] == rep.n
    assert header[1] == rep.tess.b
    assert header[2] == rep.rank
    assert header[3] == rep.tess.dim


def _corrupt_b(raw):
    header = np.frombuffer(raw, dtype="<u8", count=6, offset=5).copy()
    header[1] += 1
    return raw[:5] + header.tobytes() + raw[5 + 48:]


def _repeat_pair(raw):
    # every block of the fixture has 16 points, so each table entry (16
    # bytes) is matched by a 16 x 16 float64 B block after the table
    n_pairs = int(np.frombuffer(raw, dtype="<u8", count=6, offset=5)[5])
    table = len(raw) - n_pairs * (16 + 16 * 16 * 8)
    return raw[:table + 32] + raw[table + 16:table + 32] + raw[table + 48:]


def _json_past_end(raw):
    header = np.frombuffer(raw, dtype="<u8", count=6, offset=5).copy()
    header[4] = len(raw)
    return raw[:5] + header.tobytes() + raw[5 + 48:]


def _json_unreadable(raw):
    json_len = int(np.frombuffer(raw, dtype="<u8", count=6, offset=5)[4])
    return raw[:5 + 48] + b"{" * json_len + raw[5 + 48 + json_len:]


def _pair_out_of_range(raw):
    # the first table entry's row id becomes b + 1 = 9; the length stays
    n_pairs = int(np.frombuffer(raw, dtype="<u8", count=6, offset=5)[5])
    table = len(raw) - n_pairs * (16 + 16 * 16 * 8)
    return raw[:table] + np.asarray([9], dtype="<u8").tobytes() + raw[table + 8:]


def _far_pair(raw):
    # the second table entry (1, 2) becomes (1, 3): ids in range, the table
    # still strictly increasing and its blocks the same size, but blocks 1
    # and 3 are not neighbours
    n_pairs = int(np.frombuffer(raw, dtype="<u8", count=6, offset=5)[5])
    table = len(raw) - n_pairs * (16 + 16 * 16 * 8)
    assert np.frombuffer(raw, dtype="<u8", count=4, offset=table).tolist() == [1, 1, 1, 2]
    return raw[:table + 24] + np.asarray([3], dtype="<u8").tobytes() + raw[table + 32:]


def _move_rank(raw):
    # blocks 1 and 2 both have 16 points and rank k = 3; 3/3 becomes 2/4,
    # which keeps the file length
    json_len = int(np.frombuffer(raw, dtype="<u8", count=6, offset=5)[4])
    start = 5 + 48 + json_len
    assert np.frombuffer(raw, dtype="<u8", count=2, offset=start).tolist() == [3, 3]
    return raw[:start] + np.asarray([2, 4], dtype="<u8").tobytes() + raw[start + 16:]


def _edit_tessellation(raw, edit):
    # rewrites the tessellation JSON as write_ublr does, and its length in
    # the header
    header = np.frombuffer(raw, dtype="<u8", count=6, offset=5).copy()
    start, json_len = 5 + 48, int(header[4])
    tess = json.loads(raw[start:start + json_len])
    edit(tess)
    text = json.dumps(tess, sort_keys=True, separators=(",", ":")).encode()
    header[4] = len(text)
    return raw[:5] + header.tobytes() + text + raw[start + json_len:]


def _move_point(tess):
    # block 0 takes a point id of block 1 (of the same digit count) in place
    # of one of its own, so one id is missing and another appears twice
    first, second = tess["blocks"][:2]
    pos, moved = next((p, q) for p, own in enumerate(first) for q in second
                      if len(str(q)) == len(str(own)))
    first[pos] = moved


def _neighbour_out_of_range(tess):
    tess["neighbors"][0][0] = tess["b"] + 1  # 9 has one digit, as has every id in 1..8


# the fixture is a row of 8 boxes: block 1 lists [1, 2], block 2 [1, 2, 3]
def _neighbour_not_an_id(tess):
    tess["neighbors"][0] = [1.5]


def _neighbours_unsorted(tess):
    tess["neighbors"][1] = [2, 1, 3]


def _neighbours_lack_self(tess):
    tess["neighbors"][1] = [1, 3, 4]


def _neighbours_asymmetric(tess):
    tess["neighbors"][0] = [1, 3]  # block 3 does not list block 1


# its colors are 1, 2, 3, 1, 2, 3, 1, 2
def _colors_collide(tess):
    tess["colors"][1] = 1  # blocks 1 and 2, both of block 1's neighbourhood


def _colors_skip_an_id(tess):
    tess["colors"] = [4 if c == 3 else c for c in tess["colors"]]


def _colors_not_integers(tess):
    tess["colors"][0] = 1.0


@pytest.mark.parametrize(
    "corrupt, field",
    [
        (_corrupt_b, "b: header says 9"),
        (lambda raw: raw[:5 + 20], "header: file ends at byte 25, before byte 53"),
        (_json_past_end, "tessellation: JSON length .* runs past the end of the file"),
        (_json_unreadable, "tessellation: unreadable JSON"),
        (_pair_out_of_range, "B index table: block ids outside 1..8"),
        (_far_pair, r"B index table: far-field pairs \[\(1, 3\)\]"),
        (lambda raw: raw[:-8], "length"),
        (lambda raw: raw + b"\x00" * 8, "length"),
        (_repeat_pair, "B index table: pairs are not strictly increasing"),
        (_move_rank, r"effective ranks: block 2 has rank 4, above min\(k, m_2\) = 3"),
        (lambda raw: _edit_tessellation(raw, _move_point),
         "tessellation: blocks do not partition the point ids 1..128"),
        (lambda raw: _edit_tessellation(raw, _neighbour_out_of_range),
         "tessellation: neighbour lists are not 8 lists of block ids in 1..8"),
        (lambda raw: _edit_tessellation(raw, _neighbour_not_an_id),
         "tessellation: neighbour lists are not 8 lists of block ids in 1..8"),
        (lambda raw: _edit_tessellation(raw, _neighbours_unsorted),
         "tessellation: neighbour list of block 2 is not strictly increasing"),
        (lambda raw: _edit_tessellation(raw, _neighbours_lack_self),
         "tessellation: neighbour list of block 2 lacks block 2"),
        (lambda raw: _edit_tessellation(raw, _neighbours_asymmetric),
         "tessellation: block 1 lists block 3, but not the reverse"),
        (lambda raw: _edit_tessellation(raw, _colors_collide),
         "tessellation: two boxes of one color in the neighbourhood of block 1"),
        (lambda raw: _edit_tessellation(raw, _colors_skip_an_id),
         r"tessellation: colors are not 8 integer ids that use each of 1\.\.C"),
        (lambda raw: _edit_tessellation(raw, _colors_not_integers),
         r"tessellation: colors are not 8 integer ids that use each of 1\.\.C"),
    ],
    ids=["header-b", "header-truncated", "json-past-end", "json-unreadable",
         "pair-out-of-range", "far-pair", "truncated", "trailing-bytes", "repeated-pair",
         "rank-moved",
         "blocks-not-a-partition", "neighbour-out-of-range", "neighbour-not-an-id",
         "neighbours-unsorted", "neighbours-lack-self", "neighbours-asymmetric",
         "colors-collide", "colors-skip-an-id", "colors-not-integers"],
)
def test_inconsistent_container_named_error(compressed, tmp_path, corrupt, field):
    _, rep = compressed
    path = tmp_path / "rep.ublr"
    write_ublr(path, rep)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match=f"rep.ublr: {field}"):
        read_ublr(path)
