"""Property tests: the five ids on exact-rank synthetic ground truths over
drawn ragged grids.

Each example draws d, a grid of g^d cells with a few random points per
cell on average (empty cells drop out, so boxes are ragged and some hold k
points or fewer), the truth's rank and the compression rank k >= it. Every
id either raises a named error, or keeps the closed-form ledger, a
consistent adjoint and a byte-stable container, and recovers the truth
within acceptance criterion 1's tolerance.
"""

import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ublr import (
    ConfigError,
    DegenerateTagsError,
    RandomStream,
    build_tessellation,
    compress,
    make_synthetic_spec,
    random_points,
    read_ublr,
    write_ublr,
)
from ublr.reconstruction import METHODS

from conftest import snorm
from test_operators import check_adjoint
from test_pipeline import closed_form_ledger

REL_TOL = 1e-7  # acceptance criterion 1
GRID_CELLS_PER_AXIS = {1: (4, 12), 2: (3, 6), 3: (3, 4)}


@st.composite
def ragged_truths(draw):
    """(truth, k, p, seed): a synthetic UniformBLR on a drawn ragged grid."""
    d = draw(st.sampled_from(sorted(GRID_CELLS_PER_AXIS)))
    per_axis = draw(st.integers(*GRID_CELLS_PER_AXIS[d]))
    per_cell = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**16))
    points = random_points(per_axis**d * per_cell, d, RandomStream(seed))
    tess = build_tessellation(points, per_axis**d)
    rank = draw(st.integers(0, min(3, int(tess.block_sizes.min()))))
    k = draw(st.integers(rank, rank + 3))
    p = draw(st.integers(1, 6))
    return make_synthetic_spec(tess, rank, RandomStream(seed).child(17)), k, p, seed


@settings(max_examples=50, deadline=None)
@given(ragged_truths())
def test_every_id_recovers_a_drawn_ragged_truth(case):
    truth, k, p, seed = case
    tess = truth.tess
    A = truth.to_dense()  # the dense reference; truth is the oracle
    ledgers = closed_form_ledger(tess, k, p)
    for method_id, method in METHODS.items():
        try:
            with warnings.catch_warnings():  # type B at k = 0, ill-conditioned stacks
                warnings.simplefilter("ignore")
                rep, report = compress(truth, tess, k, method_id, p=p,
                                       stream=RandomStream(seed + 1), compute_error=False)
        except ConfigError:  # tagging needs b >= 3^d + 1 blocks
            assert method.basis == "tag" and tess.b < 3**tess.dim + 1
            continue
        except DegenerateTagsError:
            assert method.basis == "tag"
            continue
        want = ledgers[method_id]
        assert {phase: report.phase_total(phase) for phase in want} == want
        assert report.matvecs_total == sum(want.values())
        assert check_adjoint(rep, RandomStream(4)) <= 1e-10
        assert snorm(A - rep.to_dense()) <= REL_TOL * snorm(A)
        with tempfile.TemporaryDirectory() as tmp:
            first, again = Path(tmp) / "first.ublr", Path(tmp) / "again.ublr"
            write_ublr(first, rep)
            write_ublr(again, read_ublr(first))
            assert again.read_bytes() == first.read_bytes()
