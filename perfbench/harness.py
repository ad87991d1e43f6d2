"""Workloads, timed passes, correctness checks and metrics of the ublr benchmark.

A pass builds the case (points, operator, tessellation), then for each of the
workload's methods: one ``compress`` call with ``compute_error=False``, one
separately timed ``relative_error`` call on the same stream compress would
use, ``rep.apply`` plus ``rep.apply_adjoint`` on a fixed 64-column Gaussian,
and a ``write_ublr``/``read_ublr`` round trip. Every one of these is an
operation; it fails if it raises or if its check does not hold.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from ublr import (
    RandomStream,
    block_nullification_width,
    build_tessellation,
    color_boxes,
    compress,
    gaussian,
    laplace2d_operator,
    random_points,
    read_ublr,
    relative_error,
    suggest_block_count,
    thin_slab_schur_operator,
    write_ublr,
)

from tracer import Tracer, TracedOperator, ancestors, self_times

K, P = 30, 10  # the CLI defaults
ERROR_ITERATIONS = 20
APPLY_COLS = 64
APPLY_REPEATS = 5  # apply takes tens of ms, so each pass times it several times
# Timed set-ups before the passes, back to back; setup_s is their median.
# One untimed build comes first: the first build in a process maps fresh
# memory from the OS (on laplace-memory 1.2 s against about 0.75 s later).
SETUP_REPEATS = 7
SLAB_NZ, SLAB_PPW = 10, 100.0  # the CLI defaults for slab-schur


@dataclass(frozen=True)
class Workload:
    name: str
    operator: str  # "slab-schur" (size = nx = ny) or "laplace2d" (size = N)
    size: int
    methods: tuple
    rel_tol: float  # largest accepted relative_error; seed errors sit far below


WORKLOADS = {
    wl.name: wl
    for wl in (  # BENCHMARK.json and README.md give the reason for each
        Workload("slab-oracle", "slab-schur", 32, ("A2", "B2"), 1e-4),
        Workload("laplace-bn", "laplace2d", 2048, ("A1", "B1"), 1e-5),
        Workload("laplace-memory", "laplace2d", 4096, ("A2", "A3", "B2"), 1e-5),
    )
}

# (name, unit) in report order; BENCHMARK.json lists the same names.
END_TO_END = [
    ("setup_s", "s"),
    ("compress_s", "s"),
    ("matvec_cols", "count"),
    ("peak_rss_mb", "MB"),
]

# The error estimate and apply are single-column GEMV and small-block work
# bound by memory bandwidth; on a shared machine their medians drifted by up
# to 50 % between runs minutes apart, too much for an end-to-end bound. They
# are measured on the untraced passes of a --trace 1 run and reported here.
UNTRACED_IN_TRACE_RUN = [
    ("error_estimate_s", "s"),
    ("apply_s", "s"),
]

# Only layers that every gated workload exercises: the method-specific ones
# (tagging.plan_s, tagging.draws, tagging.aspect_ratio_max,
# reconstruction.gaussian_pinv_s, reconstruction.tagging_pinv_s,
# reconstruction.b2_check_s, reconstruction.pinv_core_extra_cols) read 0 on
# laplace-bn or laplace-memory and are printed per method instead.
PER_LAYER = UNTRACED_IN_TRACE_RUN + [
    ("operators.build_s", "s"),
    ("tessellation.build_s", "s"),
    ("operators.oracle_s", "s"),
    ("operators.oracle_cols", "count"),
    ("operators.oracle_calls", "count"),
    ("bases.step1_s", "s"),
    ("bases.step1_oracle_s", "s"),
    ("bases.self_s", "s"),
    ("linalg.null_basis_s", "s"),
    ("linalg.null_basis_calls", "count"),
    ("linalg.col_basis_s", "s"),
    ("linalg.gaussian_s", "s"),
    ("linalg.pseudo_inverse_s", "s"),
    ("linalg.pseudo_inverse_calls", "count"),
    ("reconstruction.core_s", "s"),
    ("reconstruction.core_oracle_s", "s"),
    ("reconstruction.discrepancy_s", "s"),
    ("reconstruction.discrepancy_oracle_s", "s"),
    ("reconstruction.pinv_core_s", "s"),
    ("tessellation.color_s", "s"),
    ("linalg.norm_est_s", "s"),
    ("reconstruction.rep_apply_s", "s"),
    ("operators.error_oracle_s", "s"),
    ("reconstruction.rel_error", "ratio"),
    ("reconstruction.storage_mb", "MB"),
    ("container.write_s", "s"),
    ("container.read_s", "s"),
    ("container.mb", "MB"),
    ("trace.overhead_frac", "frac"),
]

# Per-method layer metrics that are reduced over a workload's methods by max
# rather than by sum.
MAX_OVER_METHODS = {"reconstruction.rel_error"}


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Outcomes:
    """Attempted and failed operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def run(self, label: str, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


@dataclass
class Case:
    op: object
    tess: object


def _span(tracer: Tracer | None):
    return tracer.span if tracer else lambda name: nullcontext()


def build_case(wl: Workload, seed: int, tracer: Tracer | None = None) -> Case:
    span = _span(tracer)
    if wl.operator == "slab-schur":
        with span("operators.build"):
            op, points = thin_slab_schur_operator(
                wl.size, wl.size, SLAB_NZ, 2.0 * np.pi / SLAB_PPW
            )
        with span("tessellation.build"):
            tess = build_tessellation(points, suggest_block_count(points.n, K, 2))
    else:
        with span("tessellation.build"):
            points = random_points(wl.size, 2, RandomStream(seed).child(101))
            tess = build_tessellation(points, suggest_block_count(points.n, K, 2))
        with span("operators.build"):
            op = laplace2d_operator(points)
    return Case(op, tess)


def expected_ledger(method: str, tess, total_rank: int) -> dict:
    """Closed-form matvec columns per phase, zero entries dropped."""
    r = K + P
    ell = 3**tess.dim + 1  # no extra tagging columns
    basis = {"1": "bn", "2": "tag", "3": "naive"}[method[1]]
    if basis == "bn":
        width = block_nullification_width(tess, r)
    elif basis == "tag":
        width = ell * (r if method == "A2" else tess.max_block_size + P)
    else:
        width = tess.b * r
    out = {"I": {"A": width, "Astar": width}}
    if method[0] == "A":
        coloring = color_boxes(tess)
        sizes = tess.block_sizes
        probe_cols = sum(
            int(sizes[np.asarray(coloring.colors) == c].max())
            for c in range(coloring.num_colors)
        )
        out["II"] = {"A": total_rank, "Astar": 0}
        out["III"] = {"A": probe_cols, "Astar": 0}
    elif total_rank + P > width:
        out["II"] = {"A": total_rank + P - width, "Astar": 0}
    return out


def _nonzero_ledger(matvecs: dict) -> dict:
    return {ph: v for ph, v in matvecs.items() if v["A"] or v["Astar"]}


def _method_ops(wl, seed, M, op, tess, X, workdir, refs, outcomes, tracer, repeats):
    """Run the four operations of one method; returns its measurements."""
    span = _span(tracer)
    out = {}

    def do_compress():
        t0 = time.perf_counter()
        with span("compress"):
            rep, report = compress(
                op, tess, K, method_id=M, p=P, stream=RandomStream(seed),
                compute_error=False,
            )
        out["compress_s"] = time.perf_counter() - t0
        want = expected_ledger(M, tess, rep.total_rank)
        got = _nonzero_ledger(report.matvecs)
        check(got == want, f"ledger {got} != closed form {want}")
        out["matvec_cols"] = report.matvecs_total
        out["times_s"] = dict(report.times_s)
        out["storage_mb"] = rep.storage_entries * 8 / 1e6
        out["extra_cols"] = report.matvecs.get("II", {"A": 0})["A"] if M[0] == "B" else 0
        if report.aspect_ratios is not None:
            ratios = report.aspect_ratios.get("optimized", report.aspect_ratios["base"])
            out["draws"] = report.aspect_ratios["draws"]
            out["aspect_ratio_max"] = ratios.get("max", float("nan"))
        return rep

    def do_error():
        t0 = time.perf_counter()
        with span("error_estimate"):
            rel = relative_error(op, rep, ERROR_ITERATIONS, RandomStream(seed).child(9))
        out["error_s"] = time.perf_counter() - t0
        out["rel_error"] = rel
        check(np.isfinite(rel) and rel <= wl.rel_tol, f"rel_error {rel:.3e} > {wl.rel_tol:.1e}")
        ref = refs.setdefault(M, {}).setdefault("rel_error", rel)
        check(rel == ref, f"rel_error {rel!r} differs from the first pass's {ref!r}")

    def do_apply():
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            with span("apply"):
                Y = rep.apply(X)
                Z = rep.apply_adjoint(X)
            times.append(time.perf_counter() - t0)
        out["apply_s"] = times  # every call, pooled by end_to_end
        check(np.isfinite(Y).all() and np.isfinite(Z).all(), "apply is not finite")
        return Y, Z

    def do_round_trip():
        path = workdir / f"{M}.ublr"
        t0 = time.perf_counter()
        with span("container.write"):
            write_ublr(path, rep)
        t1 = time.perf_counter()
        with span("container.read"):
            back = read_ublr(path)
        out["write_s"], out["read_s"] = t1 - t0, time.perf_counter() - t1
        data = path.read_bytes()
        path.unlink()
        out["container_mb"] = len(data) / 1e6
        digest = hashlib.sha256(data).hexdigest()
        ref = refs.setdefault(M, {}).setdefault("container_sha256", digest)
        check(digest == ref, "container bytes differ from the first pass's")
        check(
            np.array_equal(back.apply(X), Y) and np.array_equal(back.apply_adjoint(X), Z),
            "read_ublr(write_ublr(rep)) does not apply bit-identically",
        )

    rep = outcomes.run(f"{M} compress", do_compress)
    if rep is None:
        return out
    outcomes.run(f"{M} error_estimate", do_error)
    applied = outcomes.run(f"{M} apply", do_apply)
    if applied is not None:
        Y, Z = applied
        outcomes.run(f"{M} container", do_round_trip)
    return out


def run_pass(wl, seed, workdir, refs, outcomes, tracer=None) -> dict:
    """One pass: set up, then every method of the workload."""
    t0 = time.perf_counter()
    with _span(tracer)("setup"):
        case = outcomes.run("setup", lambda: build_case(wl, seed, tracer))
    result = {"setup_s": time.perf_counter() - t0, "methods": {}}
    if case is not None:
        op = TracedOperator(case.op, tracer) if tracer else case.op
        X = gaussian(case.tess.n_points, APPLY_COLS, RandomStream(seed).child(201))
        repeats = 1 if tracer else APPLY_REPEATS
        for M in wl.methods:
            if tracer:
                tracer.case = M
            result["methods"][M] = _method_ops(
                wl, seed, M, op, case.tess, X, workdir, refs, outcomes, tracer, repeats
            )
        if tracer:
            tracer.case = None
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def warm_up(methods) -> None:
    """Load every code path on a small case, so the first pass is not a cold one."""
    points = random_points(512, 2, RandomStream(0).child(101))
    tess = build_tessellation(points, 16)
    op = laplace2d_operator(points)
    for M in methods:
        compress(op, tess, K, method_id=M, p=P, stream=RandomStream(0), compute_error=False)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def end_to_end(wl, passes, setups) -> dict:
    """{name: (value, samples)} with tracing off.

    compress_s sums the per-method medians over passes. The error estimate
    and apply costs hardly depend on the method, so their medians pool every
    call of the run.
    """
    def samples(M, key):
        return [p["methods"][M][key] for p in passes if key in p["methods"].get(M, {})]

    out = {"setup_s": (statistics.median(setups), len(setups))}
    compress_s = [samples(M, "compress_s") for M in wl.methods]
    if all(compress_s):
        out["compress_s"] = (
            sum(statistics.median(v) for v in compress_s), min(len(v) for v in compress_s)
        )
    errors = [t for M in wl.methods for t in samples(M, "error_s")]
    applies = [t for M in wl.methods for ts in samples(M, "apply_s") for t in ts]
    for name, calls in (("error_estimate_s", errors), ("apply_s", applies)):
        if calls:
            out[name] = (statistics.median(calls), len(calls))
    cols = [samples(M, "matvec_cols") for M in wl.methods]
    if all(cols):
        out["matvec_cols"] = (sum(v[0] for v in cols), min(len(v) for v in cols))
    # after the first pass: later passes add only allocator fragmentation
    out["peak_rss_mb"] = (passes[0]["peak_rss_mb"], 1)
    return out


def layer_metrics(tracer: Tracer, measured: dict) -> dict:
    """Per-method and workload-level layer metrics of one traced pass.

    Returns {method or None: {metric: value}}; None holds the workload-level
    set-up metrics. ``measured`` is the pass result of run_pass.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    anc = [set(ancestors(spans, i)) for i in range(len(spans))]
    oracle = {"operators.apply", "operators.apply_adjoint"}

    def total(names, under=None, case=None, value=lambda i: spans[i].duration):
        return sum(
            value(i)
            for i, s in enumerate(spans)
            if s.name in names
            and (under is None or anc[i] & under)
            and s.case == case
        )

    def count(names, under, case):
        return total(names, under, case, value=lambda i: 1)

    out = {None: {
        "operators.build_s": total({"operators.build"}),
        "tessellation.build_s": total({"tessellation.build"}),
    }}
    core = {"reconstruction.direct_core", "reconstruction.pinv_core"}
    disc = {
        "reconstruction.identity_probe",
        "reconstruction.gaussian_pinv",
        "reconstruction.tagging_pinv",
    }
    cmp_ = {"compress"}
    for M, m in measured["methods"].items():
        out[M] = {
            "compress_s": m.get("compress_s", float("nan")),
            "operators.oracle_s": total(oracle, cmp_, M),
            "operators.oracle_cols": total(oracle, cmp_, M, lambda i: spans[i].cols),
            "operators.oracle_calls": count(oracle, cmp_, M),
            "bases.step1_s": total({"bases.step1"}, cmp_, M),
            "bases.step1_oracle_s": total(oracle, {"bases.step1"}, M),
            "bases.self_s": total({"bases.step1"}, cmp_, M, lambda i: selfs[i]),
            "linalg.null_basis_s": total({"linalg.null_basis"}, cmp_, M),
            "linalg.null_basis_calls": count({"linalg.null_basis"}, cmp_, M),
            "linalg.col_basis_s": total({"linalg.col_basis"}, cmp_, M),
            "linalg.gaussian_s": total({"linalg.gaussian"}, cmp_, M),
            "linalg.pseudo_inverse_s": total({"linalg.pseudo_inverse"}, cmp_, M),
            "linalg.pseudo_inverse_calls": count({"linalg.pseudo_inverse"}, cmp_, M),
            "tagging.plan_s": total({"tagging.plan"}, cmp_, M),
            "tagging.draws": m.get("draws", 0),
            "tagging.aspect_ratio_max": m.get("aspect_ratio_max", 0.0),
            "reconstruction.core_s": total(core, cmp_, M),
            "reconstruction.core_oracle_s": total(oracle, core, M),
            "reconstruction.discrepancy_s": total(disc, cmp_, M),
            "reconstruction.discrepancy_oracle_s": total(oracle, disc, M),
            "reconstruction.gaussian_pinv_s": total({"reconstruction.gaussian_pinv"}, cmp_, M),
            "reconstruction.tagging_pinv_s": total({"reconstruction.tagging_pinv"}, cmp_, M),
            "reconstruction.b2_check_s": total({"reconstruction.b2_check"}, cmp_, M),
            "reconstruction.pinv_core_s": total({"reconstruction.pinv_core"}, cmp_, M),
            "reconstruction.pinv_core_extra_cols": m.get("extra_cols", 0),
            "tessellation.color_s": total({"tessellation.color"}, cmp_, M),
            "linalg.norm_est_s": total({"linalg.norm_est"}, {"error_estimate"}, M),
            "reconstruction.rep_apply_s": total(
                {"reconstruction.rep_apply"}, {"error_estimate", "apply"}, M
            ),
            "operators.error_oracle_s": total(oracle, {"error_estimate"}, M),
            "reconstruction.rel_error": m.get("rel_error", float("nan")),
            "reconstruction.storage_mb": m.get("storage_mb", float("nan")),
            "container.write_s": m.get("write_s", float("nan")),
            "container.read_s": m.get("read_s", float("nan")),
            "container.mb": m.get("container_mb", float("nan")),
        }
    return out


def reduce_layers(per_method: dict) -> dict:
    """Workload-level layer metrics: sums over methods, maxima where noted."""
    methods = [M for M in per_method if M is not None]
    out = dict(per_method[None])
    for name, _ in PER_LAYER:
        if name not in per_method[methods[0]]:
            continue  # measured per workload, not per method
        values = [per_method[M][name] for M in methods]
        out[name] = max(values) if name in MAX_OVER_METHODS else sum(values)
    return out


def phase_oracle_times(tracer: Tracer, method: str) -> dict:
    """Oracle seconds inside each compression phase of one method."""
    spans = tracer.spans
    phase_of = {
        "tagging.plan": "I", "bases.step1": "I",
        "reconstruction.direct_core": "II", "reconstruction.pinv_core": "II",
        "reconstruction.identity_probe": "III", "reconstruction.gaussian_pinv": "III",
        "reconstruction.tagging_pinv": "III",
    }
    out = {}
    for i, s in enumerate(spans):
        if s.case != method or s.name not in ("operators.apply", "operators.apply_adjoint"):
            continue
        phase = next((phase_of[a] for a in ancestors(spans, i) if a in phase_of), None)
        if phase is not None:
            out[phase] = out.get(phase, 0.0) + s.duration
    return out


def machine_facts(root: Path, blas_threads: int, seed: int) -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    src = sorted((root / "src" / "ublr").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{deps['blas']['name']} {deps['blas'].get('version', '?')}",
        "lapack": f"{deps['lapack']['name']} {deps['lapack'].get('version', '?')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "blas_threads": blas_threads,
        "git_commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when root is not the top of a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]
