"""Binary container for compressed representations.

Layout (all integers little-endian uint64, all floats little-endian
float64, dense blocks row-major):

    magic "UBLR1"
    n, b, k, d, tess_json_len, n_b_blocks
    tess_json (Tessellation.to_json: UTF-8 JSON, ids 1-based)
    effective ranks, one per block
    U blocks in block order, then V blocks
    core (K x K)
    B index table: (i, j) pairs, 1-based, sorted
    B blocks in table order (a near pair left out of the table reads as 0)

Writing the same representation twice yields identical bytes.
"""

from __future__ import annotations

import numpy as np

from .bases import NearField
from .reconstruction import UniformBLR
from .tessellation import Tessellation

MAGIC = b"UBLR1"


def _u64(*values) -> bytes:
    return np.asarray(values, dtype="<u8").tobytes()


def _f64(array) -> bytes:
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


def write_ublr(path, rep: UniformBLR) -> None:
    tess = rep.tess
    tess_json = tess.to_json()
    pairs = list(rep.b_blocks)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_u64(rep.n, tess.b, rep.rank, tess.dim, len(tess_json), len(pairs)))
        fh.write(tess_json)
        fh.write(_u64(*rep.effective_ranks))
        for u in rep.u_blocks:
            fh.write(_f64(u))
        for v in rep.v_blocks:
            fh.write(_f64(v))
        fh.write(_f64(rep.core))
        for i, j in pairs:
            fh.write(_u64(i + 1, j + 1))
        for pair in pairs:
            fh.write(_f64(rep.b_blocks[pair]))


def read_ublr(path) -> UniformBLR:
    """Read a container written by write_ublr.

    Raises ValueError naming the path and the field when the tessellation
    JSON fails the checks of Tessellation.from_json or the header's n, b
    or d disagree with it, an effective rank exceeds min(k, m_i), the B
    index table is not strictly increasing or holds a far-field pair, or
    the file is not exactly as long as its header, ranks and B index table
    say.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a UBLR container")
    off = len(MAGIC)

    def fail(field, message):
        raise ValueError(f"{path}: {field}: {message}")

    def take_u64(count, field):
        nonlocal off
        if off + 8 * count > len(raw):
            fail(field, f"file ends at byte {len(raw)}, before byte {off + 8 * count}")
        vals = np.frombuffer(raw, dtype="<u8", count=count, offset=off)
        off += 8 * count
        return vals.tolist()

    def take_f64(rows, cols):  # a read-only view of raw
        nonlocal off
        vals = np.frombuffer(raw, dtype="<f8", count=rows * cols, offset=off)
        off += 8 * rows * cols
        return vals.reshape(rows, cols)

    n, b, k, d, json_len, n_pairs = take_u64(6, "header")
    if off + json_len > len(raw):
        fail("tessellation", f"JSON length {json_len} runs past the end of the file")
    try:
        tess = Tessellation.from_json(raw[off:off + json_len])
    except ValueError as exc:
        fail("tessellation", exc)
    off += json_len
    for field, header, stored in (("b", b, tess.b), ("d", d, tess.dim), ("n", n, tess.n_points)):
        if header != stored:
            fail(field, f"header says {header}, tessellation JSON says {stored}")
    ranks = take_u64(b, "effective ranks")
    sizes = tess.block_sizes.tolist()
    for i, (m, r) in enumerate(zip(sizes, ranks), start=1):
        if r > min(k, m):
            fail("effective ranks", f"block {i} has rank {r}, above min(k, m_{i}) = {min(k, m)}")
    total = sum(ranks)
    body = off  # U, V and the core come next; skip them to the B index table
    off += 8 * (2 * sum(m * r for m, r in zip(sizes, ranks)) + total * total)
    ids = take_u64(2 * n_pairs, "B index table")
    pairs = [(ids[t] - 1, ids[t + 1] - 1) for t in range(0, len(ids), 2)]
    if any(not (0 <= i < b and 0 <= j < b) for i, j in pairs):
        fail("B index table", f"block ids outside 1..{b}")
    if any(p >= q for p, q in zip(pairs, pairs[1:])):
        fail("B index table", "pairs are not strictly increasing")
    b_blocks = NearField(tess)
    far = [(i + 1, j + 1) for i, j in pairs if (i, j) not in b_blocks]
    if far:
        fail("B index table", f"far-field pairs {far[:4]}")
    expected = off + 8 * sum(sizes[i] * sizes[j] for i, j in pairs)
    if expected != len(raw):
        fail("length", f"header and tables give {expected} bytes, file has {len(raw)}")

    # copied, so the representation does not pin raw
    off = body
    u_blocks = [take_f64(sizes[i], ranks[i]).copy() for i in range(b)]
    v_blocks = [take_f64(sizes[i], ranks[i]).copy() for i in range(b)]
    core = take_f64(total, total).copy()
    off += 16 * n_pairs
    for i, j in pairs:
        b_blocks[(i, j)][...] = take_f64(sizes[i], sizes[j])
    return UniformBLR(
        tess=tess, rank=k, u_blocks=u_blocks, v_blocks=v_blocks,
        core=core, b_blocks=b_blocks,
    )
