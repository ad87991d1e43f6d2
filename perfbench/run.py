"""Closed-loop benchmark of ublr compression: one caller, one process per workload.

Run from the repository root:

    python3 perfbench/run.py --workload laplace-bn --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

A run warms up on a small case, sets up the workload's case a fixed number
of times, then repeats passes (see harness.py) until the next pass would
overrun --seconds. With --trace 1 untraced and traced passes alternate; the
traced ones' spans give the per-layer metrics, and the compression time of
each traced pass against the untraced one just before it gives the tracing
overhead.

Human-readable lines come first, then a JSON line with the machine and build
facts; the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. A record of the run is written to
perfbench/results/. --workload all runs every workload in its own process
and prints every metric of each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("slab-oracle", "laplace-bn", "laplace-memory")

# BLAS threads per workload, capped at nproc. The slab oracle's sparse LU
# solves call BLAS on small supernodes, where a second thread made them
# about 35 % slower; the dense Laplace workloads ran steadier on two.
BLAS_THREADS = {"slab-oracle": 1, "laplace-bn": 2, "laplace-memory": 2}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads(workload: str) -> int:
    """Must run before numpy is imported."""
    threads = min(BLAS_THREADS.get(workload, 1), len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_package() -> str | None:
    """Put the checkout's src/ first on the path; returns an error or None."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import ublr
    except ImportError as exc:
        return f"cannot import ublr from {ROOT / 'src'}: {exc}"
    if Path(ublr.__file__).resolve().parent != (ROOT / "src" / "ublr").resolve():
        return f"ublr resolved to {ublr.__file__}, not to this checkout's src/"
    return None


def _passes(deadline: float, one_pass) -> list:
    """Run passes, at least one, while the longest pass so far still fits."""
    out, longest = [], 0.0
    while True:
        t0 = time.perf_counter()
        out.append(one_pass())
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() + longest > deadline:
            return out


def measure(h, wl, args, workdir: Path) -> dict:
    """Set-ups, then passes; with --trace 1 each untraced pass is followed by a traced one."""
    from tracer import Tracer, instrument

    outcomes, refs = h.Outcomes(), {}
    start = time.perf_counter()
    outcomes.run("setup", lambda: h.build_case(wl, args.seed))  # untimed, see SETUP_REPEATS
    setups = []
    for _ in range(h.SETUP_REPEATS):
        t0 = time.perf_counter()
        outcomes.run("setup", lambda: h.build_case(wl, args.seed))
        setups.append(time.perf_counter() - t0)
    untraced, traced = [], []

    def one_pass():
        untraced.append(h.run_pass(wl, args.seed, workdir, refs, outcomes))
        if args.trace:
            tracer = Tracer()
            with instrument(tracer):
                traced.append((tracer, h.run_pass(wl, args.seed, workdir, refs, outcomes, tracer)))

    _passes(start + args.seconds, one_pass)
    return {"outcomes": outcomes, "setups": setups, "untraced": untraced, "traced": traced}


def _pass_compress_s(result: dict) -> float:
    return sum(m["compress_s"] for m in result["methods"].values() if "compress_s" in m)


def summarize(h, wl, run: dict):
    """({metric: (value, samples)}, metric specs, human-readable lines, rationale checks)."""
    untraced, traced, setups = run["untraced"], run["traced"], run["setups"]
    if not traced:
        values = h.end_to_end(wl, untraced, setups)
        lines = ["# reported with the per-layer metrics (see README.md):"]
        lines += [
            f"{name:40s} {values[name][0]:14.6g} {unit:6s} (n={values[name][1]})"
            for name, unit in h.UNTRACED_IN_TRACE_RUN
            if name in values
        ]
        lines.append("# per method, median over passes:")
        for M in wl.methods:
            for key in ("compress_s", "error_s", "matvec_cols", "rel_error"):
                got = [p["methods"][M][key] for p in untraced if key in p["methods"].get(M, {})]
                if got:
                    lines.append(f"{key + '.' + M:40s} {statistics.median(got):14.6g}"
                                 f"        (n={len(got)})")
        return values, h.END_TO_END, lines, []

    layers = [h.layer_metrics(tracer, result) for tracer, result in traced]
    reduced = [h.reduce_layers(per) for per in layers]
    values = {
        name: (statistics.median(r[name] for r in reduced), len(reduced))
        for name in reduced[0]
    }
    plain = h.end_to_end(wl, untraced, setups)
    values.update((name, plain[name]) for name, _ in h.UNTRACED_IN_TRACE_RUN if name in plain)
    # each traced pass against the untraced pass just before it, so drift cancels
    ratios = [
        _pass_compress_s(res) / _pass_compress_s(plain_pass)
        for plain_pass, (_, res) in zip(untraced, traced)
        if _pass_compress_s(plain_pass) > 0
    ]
    if ratios:
        values["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, len(ratios))
    checks = _rationale(wl, layers[-1])
    return values, h.PER_LAYER, _method_lines(h, wl, layers[-1], traced[-1][0], checks), checks


def run_workload(args, threads: int) -> int:
    import harness as h

    wl = h.WORKLOADS[args.workload]
    facts = h.machine_facts(ROOT, threads, args.seed)
    h.warm_up(wl.methods)
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        run = measure(h, wl, args, Path(tmp))
    values, specs, lines, checks = summarize(h, wl, run)
    outcomes = run["outcomes"]
    result = {
        "correct": not outcomes.failures and all(name in values for name, _ in specs),
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failures),
        "metrics": {
            name: {"value": float(values[name][0]), "unit": unit}
            for name, unit in specs
            if name in values
        },
    }
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": facts,
        "metrics": {n: {"value": v, "samples": s} for n, (v, s) in values.items()},
        "passes": run["untraced"] + [res for _, res in run["traced"]],
        "failures": outcomes.failures,
        "rationale": checks,
        "result": result,
    }
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    out = results_dir / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"# workload {wl.name}, methods {', '.join(wl.methods)}; "
          "timings are medians over n samples")
    for name, unit in specs:
        if name in values:
            print(f"{name:40s} {values[name][0]:14.6g} {unit:6s} (n={values[name][1]})")
    for line in lines:
        print(line)
    for failure in outcomes.failures:
        print(f"FAILED {failure}")
    print(f"# fail_frac {len(outcomes.failures)}/{outcomes.attempted}; "
          f"record {out.relative_to(ROOT)}")
    print(json.dumps({"machine": facts}))
    print(json.dumps(result))
    return 0


def _method_lines(h, wl, per: dict, tracer, checks) -> list:
    """Per-method layer metrics of the last traced pass, and the rationale checks."""
    lines = ["# per method, last traced pass (zeros left out):"]
    for M in wl.methods:
        for name, value in per.get(M, {}).items():
            if value:
                lines.append(f"{name + '.' + M:40s} {value:14.6g}")
        phases = h.phase_oracle_times(tracer, M)
        lines.append(f"# {M} oracle seconds by phase: "
                     + ", ".join(f"{ph} {t:.4g}" for ph, t in sorted(phases.items())))
    lines += [
        f"# rationale {'PASS' if c['passed'] else 'FAIL'}: {c['check']} {c['value']:.1%}"
        f" (needs {c['needs']} {c['threshold']:.0%})"
        for c in checks
    ]
    return lines


def _rationale(wl, per) -> list:
    """The workload's rationale as checks on the last traced pass.

    A failed check means the workload no longer fits the reason it was
    chosen for; it does not make the result incorrect.
    """
    found = []
    if wl.name == "slab-oracle":
        found = [
            (f"{M} oracle share of compress_s",
             per[M]["operators.oracle_s"] / per[M]["compress_s"], ">=", 0.90)
            for M in wl.methods if M in per
        ]
    elif wl.name == "laplace-bn":
        algebra = sum(
            per[M]["linalg.null_basis_s"] + per[M]["reconstruction.gaussian_pinv_s"]
            for M in wl.methods if M in per
        )
        total = sum(per[M]["compress_s"] for M in wl.methods if M in per)
        found = [("null_basis + gaussian_pinv share of compress_s", algebra / total, ">", 0.50)]
    return [
        {"check": name, "value": value, "needs": needs, "threshold": threshold,
         "passed": bool(value >= threshold if needs == ">=" else value > threshold)}
        for name, value, needs, threshold in found
    ]


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            status = 1
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    if status == 0:
        print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads(args.workload)
    error = import_package()
    if error:
        print(error, file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args, threads)


if __name__ == "__main__":
    sys.exit(main())
