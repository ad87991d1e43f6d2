import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import harness as h
import pytest
from tracer import Tracer, instrument
from ublr import RandomStream, compress

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

# Every method on a small Laplace case: 512 points in 16 boxes.
SMALL = h.Workload("small", "laplace2d", 512, ("A1", "A2", "A3", "B1", "B2"), 1e-5)
# The compression phases leave out only the UniformBLR and report assembly.
PHASE_SLACK_FRAC, PHASE_SLACK_S = 0.10, 0.02


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    """An untraced pass, then a traced one that must agree with it."""
    workdir = tmp_path_factory.mktemp("work")
    outcomes, refs, tracer = h.Outcomes(), {}, Tracer()
    untraced = h.run_pass(SMALL, 0, workdir, refs, outcomes)
    with instrument(tracer):
        traced = h.run_pass(SMALL, 0, workdir, refs, outcomes, tracer)
    return outcomes, untraced, traced, tracer


def test_every_operation_passes_its_checks(passes):
    outcomes, untraced, traced, _ = passes
    # set-up plus four operations per method, twice; the checks cover the
    # ledger closed forms, the error tolerance, the container round trip and
    # the traced pass reproducing the untraced rel_error and container bytes
    assert outcomes.failures == []
    assert outcomes.attempted == 2 * (1 + 4 * len(SMALL.methods))
    for M in SMALL.methods:
        assert traced["methods"][M]["rel_error"] == untraced["methods"][M]["rel_error"]


def test_failed_check_counts_as_failed_operation():
    outcomes = h.Outcomes()
    assert outcomes.run("ok", lambda: 3) == 3
    assert outcomes.run("bad", lambda: h.check(False, "broken")) is None
    assert outcomes.attempted == 2
    assert outcomes.failures == ["bad: CheckFailed: broken"]


def test_ledger_closed_forms_reject_a_wrong_count():
    case = h.build_case(SMALL, 0)
    rep, report = compress(case.op, case.tess, h.K, method_id="A2", p=h.P,
                           stream=RandomStream(0), compute_error=False)
    want = h.expected_ledger("A2", case.tess, rep.total_rank)
    assert want["I"]["A"] == 10 * (h.K + h.P)
    assert h._nonzero_ledger(report.matvecs) == want
    assert h.expected_ledger("A2", case.tess, rep.total_rank - 1) != want


def test_separate_error_estimate_matches_compress(passes):
    _, untraced, _, _ = passes
    case = h.build_case(SMALL, 0)
    for M in ("A2", "B1"):
        _, report = compress(case.op, case.tess, h.K, method_id=M, p=h.P,
                             stream=RandomStream(0))
        assert report.relative_error == untraced["methods"][M]["rel_error"]


def test_oracle_time_never_exceeds_its_phase(passes):
    _, _, traced, tracer = passes
    for M in SMALL.methods:
        phases = h.phase_oracle_times(tracer, M)
        assert set(phases) <= set(traced["methods"][M]["times_s"])
        for phase, seconds in phases.items():
            assert 0.0 < seconds <= traced["methods"][M]["times_s"][phase]


@pytest.mark.parametrize("which", [1, 2])
def test_phases_account_for_compress_time(passes, which):
    pass_result = passes[which]
    for M in SMALL.methods:
        m = pass_result["methods"][M]
        phases = sum(m["times_s"].values())
        assert phases <= m["compress_s"]
        assert phases >= (1 - PHASE_SLACK_FRAC) * m["compress_s"] - PHASE_SLACK_S


def test_layer_metrics_cover_the_per_layer_list(passes):
    _, _, traced, tracer = passes
    per = h.layer_metrics(tracer, traced)
    reduced = h.reduce_layers(per)
    names = {name for name, _ in h.PER_LAYER} - {"trace.overhead_frac"} - {
        name for name, _ in h.UNTRACED_IN_TRACE_RUN
    }
    assert names <= set(reduced)
    assert reduced["operators.oracle_cols"] == sum(
        traced["methods"][M]["matvec_cols"] for M in SMALL.methods
    )
    for M in SMALL.methods:
        assert per[M]["bases.self_s"] <= per[M]["bases.step1_s"]
        assert per[M]["operators.oracle_s"] <= per[M]["compress_s"]


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name, _ in h.END_TO_END + h.PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == h.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == h.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(h.WORKLOADS)


def test_rationale_checks_compare_with_their_thresholds():
    import run

    slab = h.WORKLOADS["slab-oracle"]
    per = {"A2": {"operators.oracle_s": 9.5, "compress_s": 10.0},
           "B2": {"operators.oracle_s": 8.0, "compress_s": 10.0}}
    assert [c["passed"] for c in run._rationale(slab, per)] == [True, False]
    bn = h.WORKLOADS["laplace-bn"]
    per = {M: {"linalg.null_basis_s": 2.0, "reconstruction.gaussian_pinv_s": 0.5,
               "compress_s": 5.0} for M in bn.methods}
    assert [c["passed"] for c in run._rationale(bn, per)] == [False]


def test_git_commit_is_none_outside_a_git_checkout(tmp_path):
    assert h.git_commit(tmp_path) is None


def test_stripped_checkout_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", ".work-*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "laplace-bn",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
