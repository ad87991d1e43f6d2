"""Containers are reproducible byte-for-byte across processes that share a
BLAS thread count. The blocked LAPACK/BLAS kernels split their sums by
thread, so containers can differ in the last bits between, say,
OPENBLAS_NUM_THREADS=1 and 2; the README states the condition. All five
method ids are checked."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
from pathlib import Path
from ublr import (RandomStream, build_tessellation, compress, laplace2d_operator,
                  random_points, write_ublr)
points = random_points(1024, 2, RandomStream(0).child(101))
tess = build_tessellation(points, 16)
op = laplace2d_operator(points)
for method in ("A1", "A2", "A3", "B1", "B2"):
    rep, _ = compress(op, tess, 10, method, stream=RandomStream(0), compute_error=False)
    write_ublr(Path(sys.argv[1]) / f"{method}.ublr", rep)
"""


def test_same_pinned_environment_gives_identical_containers(tmp_path):
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or "1"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        out.mkdir()
        subprocess.run([sys.executable, "-c", SCRIPT, str(out)], env=env, check=True)
    for method in ("A1", "A2", "A3", "B1", "B2"):
        first, second = ((out / f"{method}.ublr").read_bytes() for out in outs)
        assert len(first) > 0 and first == second, method
