"""Benchmark driver: compression runs, parameter sweeps, aspect-ratio studies.

Subcommands:
    compress       one compression run; JSON report, optional binary container
    sweep          grid of runs over N / k / method; CSV, one row per run
    aspect-ratios  projected-tag aspect ratios by tagging distribution; CSV

Exit codes: 0 success, 1 numerical failure, 2 configuration error. The seed
falls back to the UBLR_SEED environment variable when --seed is not given.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .linalg import RandomStream
from .operators import (
    ConfigError,
    InteriorResonanceError,
    NonFiniteOracleError,
    OracleShapeError,
    laplace2d_operator,
    thin_slab_schur_operator,
)
from .container import write_ublr
from .reconstruction import (
    KEYWORD_DEFAULTS,
    METHODS,
    compress,
    make_synthetic_spec,
)
from .tagging import DISTRIBUTIONS, DegenerateTagsError, evaluate_plan, make_tagging_matrix
from .tessellation import (
    build_tessellation,
    grid_points,
    random_points,
    suggest_block_count,
)

SWEEP_COLUMNS = [
    "N", "b", "m", "k", "p", "d", "method", "distribution", "extra_cols",
    "seed", "matvecs_I", "matvecs_II", "matvecs_III", "matvecs_total",
    "time_I_s", "time_II_s", "time_III_s", "rel_error", "error",
]

ASPECT_COLUMNS = [
    "row_type", "b", "d", "distribution", "extra_cols", "seed",
    "block_id", "nullity", "rho_base", "rho_optimized", "stat",
]


def _int_list(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _str_list(text: str) -> list:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ublr",
        description="Matrix-free uniform block low-rank compression benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the options compress and sweep share, with the same defaults
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--op", required=True, choices=["synthetic", "laplace2d", "slab-schur"])
    run.add_argument("--d", type=int, default=2, help="geometry dimension (synthetic)")
    run.add_argument("--b", type=int, help="block count; default balances matvecs")
    run.add_argument("--p", type=int, default=10, help="oversampling")
    run.add_argument("--distribution", choices=DISTRIBUTIONS)
    run.add_argument("--extra-cols", type=int)
    run.add_argument("--optimize", action="store_true",
                     help="optimize tagging null vectors over the null sphere")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--points", default="random", choices=["random", "grid"],
                     help="point distribution for synthetic operators")
    run.add_argument("--nz", type=int, default=10, help="slab thickness")
    run.add_argument("--ppw", type=float, default=100.0, help="points per wavelength")
    run.add_argument("--error-iterations", type=int, default=20)

    comp = sub.add_parser("compress", parents=[run], help="run one compression and report it")
    comp.add_argument("--n", type=int, help="problem size (synthetic, laplace2d)")
    comp.add_argument("--k", type=int, default=30, help="target block rank")
    comp.add_argument("--method", default="A2", choices=sorted(METHODS))
    comp.add_argument("--synthetic-rank", type=int, help="exact far-field rank (default: k)")
    comp.add_argument("--nx", type=int, help="slab grid size in x")
    comp.add_argument("--ny", type=int, help="slab grid size in y")
    comp.add_argument("--kappa", type=float, default=None,
                      help="wavenumber; default set by --ppw")
    comp.add_argument("--report", help="write the JSON report here (default: stdout)")
    comp.add_argument("--save", help="write the binary UBLR container here")
    comp.set_defaults(func=cmd_compress, **KEYWORD_DEFAULTS)

    sweep = sub.add_parser("sweep", parents=[run], help="grid of compression runs, CSV output")
    sweep.add_argument("--n-list", type=_int_list, required=True,
                       help="comma-separated problem sizes")
    sweep.add_argument("--k-list", type=_int_list, default=[30])
    sweep.add_argument("--methods", type=_str_list, default=["A1", "A2", "A3"])
    sweep.add_argument("--jobs", type=int, default=1, help="parallel independent runs")
    sweep.add_argument("--out", required=True, help="CSV output path")
    # compress's own operator options, at their defaults, so both hand the
    # builder the same args
    sweep.set_defaults(func=cmd_sweep, synthetic_rank=None, nx=None, ny=None, kappa=None,
                       **KEYWORD_DEFAULTS)

    ar = sub.add_parser("aspect-ratios", help="projected-tag aspect-ratio study, CSV output")
    ar.add_argument("--b-list", type=_int_list, required=True,
                    help="comma-separated block counts (d-th powers)")
    ar.add_argument("--d", type=int, default=2)
    ar.add_argument("--distributions", type=_str_list, default=list(DISTRIBUTIONS))
    ar.add_argument("--extra-cols-list", type=_int_list, default=[0, 1, 2, 3])
    ar.add_argument("--seeds", type=_int_list, default=[0])
    ar.add_argument("--out", required=True, help="CSV output path")
    ar.set_defaults(func=cmd_aspect_ratios)

    return parser


def _resolve_seed(args) -> int:
    return int(os.environ.get("UBLR_SEED", "0")) if args.seed is None else args.seed


def _build_operator(args, k: int, n: int | None, seed: int):
    """Returns (operator, tessellation), built in one order: the points, their
    tessellation, then the operator. Bad geometry or shape parameters are
    ConfigErrors."""
    master = RandomStream(seed)
    try:
        if args.op == "slab-schur":  # the slab builder makes its frontal points
            nx, ny = args.nx, args.ny
            if n is not None and (nx, ny) != (None, None):
                flag = "--nx" if ny is None else "--ny" if nx is None else "--nx/--ny"
                raise ConfigError(f"--n and {flag} both set the slab's face; give one or the other")
            if n is not None:
                nx = ny = int(round(np.sqrt(n)))
                if nx * nx != n:
                    raise ConfigError(
                        "--n must be a perfect square for slab-schur (or pass --nx/--ny)"
                    )
            if nx is None:
                raise ConfigError("--nx (or --n) is required for --op slab-schur")
            kappa = 2.0 * np.pi / args.ppw if args.kappa is None else args.kappa
            op, points = thin_slab_schur_operator(nx, ny or nx, args.nz, kappa)
        else:
            if n is None:
                raise ConfigError(f"--n is required for --op {args.op}")
            d = args.d if args.op == "synthetic" else 2
            if d not in (1, 2, 3):
                raise ConfigError("--d must be 1, 2, or 3")
            points = _make_points(args.points, n, d, master.child(101))
        if not args.b and k == 0:
            raise ConfigError("--k 0 needs --b: the default block count needs k >= 1")
        tess = build_tessellation(points, args.b or suggest_block_count(points.n, k, points.dim))
        if args.op == "synthetic":
            rank = k if args.synthetic_rank is None else args.synthetic_rank
            if rank > tess.block_sizes.min():
                raise ConfigError(
                    f"--synthetic-rank {rank} exceeds the smallest block "
                    f"({tess.block_sizes.min()}); lower --b or raise --n"
                )
            op = make_synthetic_spec(tess, rank, master.child(102))  # the truth is the oracle
        elif args.op == "laplace2d":
            op = laplace2d_operator(points)
        return op, tess
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _make_points(kind: str, n: int, d: int, stream: RandomStream):
    if kind == "grid":
        per_axis = int(round(n ** (1.0 / d)))
        if per_axis**d != n:
            raise ValueError(f"--points grid needs n to be a d-th power, got n={n}, d={d}")
        return grid_points(per_axis, d)
    return random_points(n, d, stream)


def _run_one(args, method: str, k: int, n: int | None, seed: int, keywords):
    """One compress run; the per-id keywords named in keywords come from args."""
    op, tess = _build_operator(args, k, n, seed)
    options = {name: getattr(args, name) for name in keywords}
    return compress(
        op, tess, k, method_id=method, p=args.p, stream=RandomStream(seed),
        error_iterations=args.error_iterations, **options,
    )


def cmd_compress(args) -> int:
    # every option goes through, so compress names the ones the id does not take
    seed = _resolve_seed(args)
    try:
        rep, report = _run_one(args, args.method, args.k, args.n, seed, KEYWORD_DEFAULTS)
    except (
        DegenerateTagsError, InteriorResonanceError, NonFiniteOracleError,
        OracleShapeError, np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    payload = json.dumps(report.to_dict(), indent=2)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    if args.save:
        write_ublr(args.save, rep)
    if report.relative_error is not None and not np.isfinite(report.relative_error):
        print("numerical failure: relative error is not finite", file=sys.stderr)
        return 1
    return 0


def _sweep_row(args, method, k, n, seed):
    row = {c: "" for c in SWEEP_COLUMNS}
    row.update(N=n, method=method, k=k, p=args.p, seed=seed)
    try:
        _, report = _run_one(args, method, k, n, seed, METHODS[method].keywords)
    except Exception as exc:  # partial failures become rows, sweep continues
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    cfg = report.config
    row.update(
        N=cfg["N"], b=cfg["b"], m=cfg["m"], d=cfg["d"],
        distribution=cfg.get("distribution") or "",
        extra_cols=cfg.get("extra_cols") if cfg.get("extra_cols") is not None else "",
        matvecs_I=report.phase_total("I"),
        matvecs_II=report.phase_total("II"),
        matvecs_III=report.phase_total("III"),
        matvecs_total=report.matvecs_total,
        time_I_s=f"{report.times_s.get('I', 0.0):.3g}",
        time_II_s=f"{report.times_s.get('II', 0.0):.3g}",
        time_III_s=f"{report.times_s.get('III', 0.0):.3g}",
        rel_error=report.relative_error,
    )
    return row


def cmd_sweep(args) -> int:
    base_seed = _resolve_seed(args)
    combos = []
    for idx_nk, (n, k) in enumerate(
        [(n, k) for n in args.n_list for k in args.k_list]
    ):
        for method in args.methods:
            if method not in METHODS:
                raise ConfigError(f"unknown method {method!r} in --methods")
            # same derived seed across methods so comparisons stay paired
            combos.append((args, method, k, n, base_seed + idx_nk))

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_row, *zip(*combos)))
    else:
        rows = [_sweep_row(*combo) for combo in combos]
    return _write_csv(args.out, SWEEP_COLUMNS, rows)


def _write_csv(path, columns, rows) -> int:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return 0


def cmd_aspect_ratios(args) -> int:
    rows = []
    for b in args.b_list:
        per_axis = int(round(b ** (1.0 / args.d)))
        if per_axis**args.d != b:
            raise ConfigError(f"--b-list entry {b} is not a {args.d}-th power")
        tess = build_tessellation(grid_points(per_axis, args.d), b)
        for distribution in args.distributions:
            for extra in args.extra_cols_list:
                study = {"b": b, "d": args.d, "distribution": distribution, "extra_cols": extra}
                group = []
                for seed in args.seeds:
                    T = make_tagging_matrix(b, args.d, extra, distribution, RandomStream(seed))
                    plan = evaluate_plan(T, tess, optimize=extra >= 1)
                    optimized = plan.rho_base if plan.rho_optimized is None else plan.rho_optimized
                    # empty far fields have NaN ratios and stay out of the statistics
                    for i in np.flatnonzero(~np.isnan(plan.rho_base)):
                        rho_base, rho_opt = plan.rho_base[i], optimized[i]
                        nullity = T.n_cols - len(tess.neighbor_lists[i])
                        rows.append({
                            "row_type": "block", **study, "seed": seed, "block_id": i + 1,
                            "nullity": nullity, "rho_base": rho_base,
                            "rho_optimized": rho_opt, "stat": "",
                        })
                        group.append((rho_base, rho_opt))
                if group:
                    arr = np.array(group)
                    for stat, q in (("q1", 0.25), ("median", 0.5), ("q3", 0.75)):
                        rows.append({
                            "row_type": "summary", **study, "seed": "", "block_id": "",
                            "nullity": "", "rho_base": np.quantile(arr[:, 0], q),
                            "rho_optimized": np.quantile(arr[:, 1], q),
                            "stat": stat,
                        })
    return _write_csv(args.out, ASPECT_COLUMNS, rows)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
