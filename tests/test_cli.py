import csv
import json
import tracemalloc

import numpy as np
import pytest

import ublr.cli
from ublr import (
    DenseOperator,
    RandomStream,
    TaggingMatrix,
    UniformBLR,
    aspect_ratio,
    build_tessellation,
    evaluate_plan,
    gaussian,
    grid_points,
    make_tagging_matrix,
    optimize_null_vector,
    projected_tags,
    read_ublr,
    tag_null_vector,
)
from ublr.cli import main


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse error paths
        return exc.code


class TestCompress:
    def test_synthetic_a2_reaches_exact_rank_accuracy(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = run_cli([
            "compress", "--op", "synthetic", "--n", "1280", "--d", "1",
            "--b", "8", "--k", "3", "--method", "A2", "--seed", "1",
            "--report", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["relative_error"] <= 1e-9
        assert report["config"]["N"] == 1280
        assert report["method"] == "A2"

    def test_a3_phase_one_matvecs(self, tmp_path, capsys):
        code = run_cli([
            "compress", "--op", "synthetic", "--n", "640", "--d", "1",
            "--b", "8", "--k", "3", "--method", "A3", "--seed", "1",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        r = 3 + 10
        phase1 = report["matvecs"]["I"]
        assert phase1["A"] + phase1["Astar"] == 2 * 8 * r

    def test_missing_operator_params_exit_2(self, capsys):
        code = run_cli(["compress", "--op", "laplace2d", "--k", "5", "--seed", "1"])
        assert code == 2
        assert "--n" in capsys.readouterr().err

    def test_save_container(self, tmp_path):
        saved = tmp_path / "rep.ublr"
        code = run_cli([
            "compress", "--op", "synthetic", "--n", "320", "--d", "1",
            "--b", "8", "--k", "2", "--method", "A1", "--seed", "3",
            "--report", str(tmp_path / "r.json"), "--save", str(saved),
        ])
        assert code == 0
        rep = read_ublr(saved)
        assert rep.n == 320

    @pytest.mark.parametrize("method", ["A1", "B2"])
    def test_non_finite_oracle_exit_1(self, method, monkeypatch, capsys):
        synthetic = ublr.cli.make_synthetic_spec

        def nan_synthetic(tess, rank, stream):
            truth = synthetic(tess, rank, stream)
            truth.core[0, 0] = np.nan
            return truth

        monkeypatch.setattr(ublr.cli, "make_synthetic_spec", nan_synthetic)
        code = run_cli([
            "compress", "--op", "synthetic", "--n", "256", "--d", "1",
            "--b", "8", "--k", "3", "--method", method, "--seed", "1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "numerical failure" in err and "not finite" in err

    def test_wrongly_shaped_oracle_exit_1(self, monkeypatch, capsys):
        synthetic = ublr.cli.make_synthetic_spec

        class RowDropping:
            def __init__(self, op):
                self.op, self.shape = op, op.shape

            def apply(self, X):
                return self.op.apply(X)[:-1]

            def apply_adjoint(self, X):
                return self.op.apply_adjoint(X)

        monkeypatch.setattr(ublr.cli, "make_synthetic_spec",
                            lambda *args: RowDropping(synthetic(*args)))
        code = run_cli([
            "compress", "--op", "synthetic", "--n", "256", "--d", "1",
            "--b", "8", "--k", "3", "--method", "A3", "--seed", "1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "phase 'I' has shape (255, 104), expected (256, 104)" in err

    def test_synthetic_oracle_is_the_truth(self):
        # no n x n matrix: the UniformBLR the CLI draws is compress's oracle;
        # test_synthetic_a2_reaches_exact_rank_accuracy checks its error
        args = ublr.cli.build_parser().parse_args([
            "compress", "--op", "synthetic", "--n", "4096", "--d", "2", "--k", "20",
        ])
        tracemalloc.start()
        try:
            op, tess = ublr.cli._build_operator(args, args.k, args.n, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 4096**2 / 2  # the n x n matrix alone is 8 n^2 bytes
        assert type(op) is UniformBLR and op.tess is tess and op.rank == 20

    def test_synthetic_rank_zero_is_block_banded(self):
        args = ublr.cli.build_parser().parse_args([
            "compress", "--op", "synthetic", "--n", "256", "--d", "1",
            "--b", "8", "--k", "3", "--synthetic-rank", "0",
        ])
        op, tess = ublr.cli._build_operator(args, args.k, args.n, 0)
        assert 5 in tess.far_fields[0]
        assert not op.apply(np.eye(256))[np.ix_(tess.blocks[0], tess.blocks[5])].any()

    def test_negative_synthetic_rank_exit_2(self, capsys):
        code = run_cli([
            "compress", "--op", "synthetic", "--n", "256", "--d", "1",
            "--b", "8", "--k", "3", "--synthetic-rank", "-1",
        ])
        assert code == 2
        assert "rank -1 is negative" in capsys.readouterr().err

    @pytest.mark.parametrize("method, options, named", [
        ("A1", ["--extra-cols", "2"], "extra_cols"),
        ("B1", ["--optimize"], "optimize"),
        ("A3", ["--distribution", "haar"], "distribution"),
        ("B2", ["--extra-cols", "1"], "extra_cols"),
    ])
    def test_options_that_do_not_apply_exit_2(self, method, options, named, capsys):
        code = run_cli([
            "compress", "--op", "synthetic", "--n", "320", "--d", "1",
            "--b", "8", "--k", "2", "--method", method, "--seed", "3", *options,
        ])
        assert code == 2
        assert f"{method}: {named} do not apply to this id" in capsys.readouterr().err

    @pytest.mark.parametrize("options, message", [
        (["--k", "-2"], "k must be >= 0"),
        (["--error-iterations", "0"], "error_iterations must be >= 1"),
    ])
    def test_out_of_range_values_exit_2_without_output(self, options, message, tmp_path, capsys):
        saved = tmp_path / "x.ublr"
        code = run_cli([
            "compress", "--op", "laplace2d", "--n", "256", "--b", "16",
            "--save", str(saved), *options,
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not saved.exists()

    @pytest.mark.parametrize("method", ["A1", "A2", "A3", "B1", "B2"])
    def test_every_method_id_runs(self, method, tmp_path):
        report_path = tmp_path / "r.json"
        code = run_cli([
            "compress", "--op", "synthetic", "--n", "320", "--d", "1",
            "--b", "8", "--k", "2", "--method", method, "--seed", "3",
            "--report", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["method"] == method
        assert report["relative_error"] <= 1e-7

    def test_k_0_without_b_exit_2(self, capsys):
        # compress runs at k = 0, but the default block count needs k >= 1
        code = run_cli(["compress", "--op", "laplace2d", "--n", "256", "--k", "0"])
        assert code == 2
        assert "--k 0 needs --b" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("UBLR_SEED", "77")
        report_path = tmp_path / "report.json"
        code = run_cli([
            "compress", "--op", "synthetic", "--n", "320", "--d", "1",
            "--b", "8", "--k", "2", "--method", "A1",
            "--report", str(report_path),
        ])
        assert code == 0
        assert json.loads(report_path.read_text())["config"]["seed"] == 77


class TestSweep:
    def test_k_sweep_errors_decrease(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli([
            "sweep", "--op", "laplace2d", "--n-list", "256",
            "--k-list", "5,10,15", "--methods", "A2", "--seed", "2",
            "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        errors = [float(r["rel_error"]) for r in rows]
        assert errors[0] > errors[1] > errors[2]
        assert all(r["error"] == "" for r in rows)

    def test_empty_grid_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = run_cli([
            "sweep", "--op", "laplace2d", "--n-list", "", "--k-list", "",
            "--methods", "A2", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("N,b,m,k,p,d,method")

    @pytest.mark.parametrize("op", ["laplace2d", "slab-schur"])
    def test_missing_n_list_exit_2(self, tmp_path, capsys, op):
        # no sweep runs without sizes: argparse names the missing flag
        out = tmp_path / "none.csv"
        code = run_cli([
            "sweep", "--op", op, "--k-list", "4", "--methods", "A2",
            "--seed", "2", "--out", str(out),
        ])
        assert code == 2
        assert "--n-list" in capsys.readouterr().err
        assert not out.exists()

    def test_partial_failure_recorded(self, tmp_path):
        out = tmp_path / "fail.csv"
        code = run_cli([
            "sweep", "--op", "synthetic", "--n-list", "64", "--k-list", "2,200",
            "--methods", "A1", "--d", "1", "--b", "4", "--seed", "2",
            "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["error"] == "" and rows[0]["rel_error"] != ""
        assert rows[1]["error"] != ""  # k=200 cannot fit the blocks

    def test_type_b_methods_sweep(self, tmp_path):
        out = tmp_path / "typeb.csv"
        code = run_cli([
            "sweep", "--op", "synthetic", "--n-list", "320", "--k-list", "2",
            "--methods", "B1,B2", "--d", "1", "--b", "8", "--seed", "6",
            "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["B1", "B2"]
        for row in rows:
            assert row["error"] == ""
            assert float(row["rel_error"]) <= 1e-7
            assert int(row["matvecs_III"]) == 0  # discrepancy reuses sketches

    def test_mixed_sweep_forwards_options_to_their_ids(self, tmp_path):
        out = tmp_path / "mixed.csv"
        code = run_cli([
            "sweep", "--op", "synthetic", "--n-list", "320", "--k-list", "2",
            "--methods", "A1,A2", "--d", "1", "--b", "8", "--seed", "6",
            "--extra-cols", "1", "--optimize", "--distribution", "haar",
            "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            rows = {r["method"]: r for r in csv.DictReader(fh)}
        assert rows["A1"]["error"] == rows["A2"]["error"] == ""
        assert (rows["A1"]["distribution"], rows["A1"]["extra_cols"]) == ("", "")
        assert (rows["A2"]["distribution"], rows["A2"]["extra_cols"]) == ("haar", "1")

    def test_config_error_becomes_a_row(self, tmp_path):
        out = tmp_path / "config.csv"
        code = run_cli([
            "sweep", "--op", "synthetic", "--n-list", "320", "--k-list", "2",
            "--methods", "A1,A2", "--d", "1", "--b", "8", "--seed", "6",
            "--extra-cols", "5", "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            rows = {r["method"]: r for r in csv.DictReader(fh)}
        assert rows["A1"]["error"] == ""  # extra_cols is forwarded to A2 only
        assert rows["A2"]["error"].startswith("ConfigError: b=8 is too small for tagging")

    def test_method_sweep_matched_seeds(self, tmp_path):
        out = tmp_path / "methods.csv"
        code = run_cli([
            "sweep", "--op", "laplace2d", "--n-list", "576", "--k-list", "10",
            "--methods", "A1,A2,A3", "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            rows = {r["method"]: r for r in csv.DictReader(fh)}
        assert len({r["seed"] for r in rows.values()}) == 1
        assert int(rows["A2"]["matvecs_I"]) < int(rows["A1"]["matvecs_I"])
        assert int(rows["A2"]["matvecs_I"]) < int(rows["A3"]["matvecs_I"])


class TestAspectRatios:
    def test_fallback_rows_equal_without_extra_cols(self, tmp_path):
        out = tmp_path / "ar.csv"
        code = run_cli([
            "aspect-ratios", "--b-list", "16", "--d", "1",
            "--distributions", "gaussian", "--extra-cols-list", "0",
            "--seeds", "1,2", "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            rows = [r for r in csv.DictReader(fh) if r["row_type"] == "block"]
        assert rows
        for row in rows:
            assert row["rho_base"] == row["rho_optimized"]

    def test_optimized_improves_with_extra_cols(self, tmp_path):
        out = tmp_path / "ar.csv"
        code = run_cli([
            "aspect-ratios", "--b-list", "16", "--d", "1",
            "--distributions", "gaussian", "--extra-cols-list", "1",
            "--seeds", "1,2,3", "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            rows = [r for r in csv.DictReader(fh) if r["row_type"] == "block"]
        for row in rows:
            assert float(row["rho_optimized"]) <= float(row["rho_base"]) + 1e-9

    def test_summary_rows_present(self, tmp_path):
        out = tmp_path / "ar.csv"
        run_cli([
            "aspect-ratios", "--b-list", "9", "--d", "1",
            "--distributions", "haar", "--extra-cols-list", "0",
            "--seeds", "1", "--out", str(out),
        ])
        with open(out) as fh:
            stats = [r["stat"] for r in csv.DictReader(fh) if r["row_type"] == "summary"]
        assert stats == ["q1", "median", "q3"]

    def test_bad_block_count_exit_2(self, capsys):
        code = run_cli([
            "aspect-ratios", "--b-list", "15", "--d", "2",
            "--out", "/tmp/never.csv",
        ])
        assert code == 2

    @pytest.mark.parametrize("d, b", [(1, 16), (2, 16)])
    @pytest.mark.parametrize("extra", [0, 2])
    def test_block_rows_match_reference_loop(self, tmp_path, d, b, extra):
        out = tmp_path / "ar.csv"
        seeds = [1, 2]
        code = run_cli([
            "aspect-ratios", "--b-list", str(b), "--d", str(d),
            "--distributions", "gaussian", "--extra-cols-list", str(extra),
            "--seeds", ",".join(map(str, seeds)), "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            got = [
                (int(r["seed"]), int(r["block_id"]), int(r["nullity"]),
                 float(r["rho_base"]), float(r["rho_optimized"]))
                for r in csv.DictReader(fh) if r["row_type"] == "block"
            ]
        # the per-block loop the command ran before it used evaluate_plan
        tess = build_tessellation(grid_points(round(b ** (1 / d)), d), b)
        want = []
        for seed in seeds:
            T = make_tagging_matrix(b, d, extra, "gaussian", RandomStream(seed))
            for i in range(tess.b):
                if len(tess.far_fields[i]) == 0:
                    continue
                base = tag_null_vector(T, tess, i)
                rho_base = aspect_ratio(projected_tags(T, tess, base), tess)
                rho_opt = rho_base
                if extra >= 1:
                    best = optimize_null_vector(T, tess, i)
                    rho_opt = aspect_ratio(projected_tags(T, tess, best), tess)
                nullity = T.n_cols - len(tess.neighbor_lists[i])
                want.append((seed, i + 1, nullity, rho_base, rho_opt))
        assert got == want

    def test_empty_far_field_ratio_is_nan(self):
        # b = 3 in d = 1: the middle block neighbors every block. A valid
        # tagging matrix needs b >= 3^d + 1, so build the 3 x 4 one by hand.
        tess = build_tessellation(grid_points(6, 1), 3)
        T = TaggingMatrix(gaussian(3, 4, RandomStream(5)))
        plan = evaluate_plan(T, tess, optimize=True)
        empty = [len(tess.far_fields[i]) == 0 for i in range(tess.b)]
        assert empty == [False, True, False]
        assert np.isnan(plan.rho_base).tolist() == empty
        assert np.isnan(plan.rho_optimized).tolist() == empty

    def test_median_improves_with_more_extra_cols(self, tmp_path):
        out = tmp_path / "study.csv"
        code = run_cli([
            "aspect-ratios", "--b-list", "64", "--d", "2",
            "--distributions", "gaussian", "--extra-cols-list", "0,1,2,3",
            "--seeds", "2", "--out", str(out),
        ])
        assert code == 0
        with open(out) as fh:
            medians = {
                int(r["extra_cols"]): float(r["rho_optimized"])
                for r in csv.DictReader(fh)
                if r["row_type"] == "summary" and r["stat"] == "median"
            }
        assert medians[0] > medians[1] >= medians[2] >= medians[3]


class TestSlabSchurCli:
    def test_compress_small_slab(self, tmp_path, capsys):
        code = run_cli([
            "compress", "--op", "slab-schur", "--nx", "16", "--ny", "16",
            "--nz", "4", "--k", "8", "--b", "16", "--method", "A2", "--seed", "1",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["N"] == 256
        assert report["relative_error"] <= 1e-2

    @pytest.mark.parametrize("face, named", [
        (["--ny", "20"], "--ny"),
        (["--nx", "16"], "--nx"),
        (["--nx", "16", "--ny", "20"], "--nx/--ny"),
    ])
    def test_n_with_nx_or_ny_exit_2(self, face, named, capsys):
        # --n 256 once silently replaced --ny 20 with a 16 x 16 face
        code = run_cli([
            "compress", "--op", "slab-schur", "--n", "256", *face,
            "--nz", "4", "--k", "8", "--b", "16",
        ])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"--n and {named} both set" in err

    def test_missing_nx_exit_2(self, capsys):
        code = run_cli(["compress", "--op", "slab-schur", "--k", "8"])
        assert code == 2
        assert "--nx" in capsys.readouterr().err

    def test_tagging_needs_enough_blocks_exit_2(self, capsys):
        code = run_cli([
            "compress", "--op", "synthetic", "--n", "128", "--d", "2",
            "--b", "4", "--k", "3", "--method", "A2", "--seed", "1",
        ])
        assert code == 2
        assert "tagging" in capsys.readouterr().err

    def test_grid_points_need_matching_n_exit_2(self, capsys):
        code = run_cli([
            "compress", "--op", "laplace2d", "--n", "1000", "--k", "10",
            "--points", "grid", "--seed", "1",
        ])
        assert code == 2
        assert "grid" in capsys.readouterr().err


class TestParallelSweep:
    def test_jobs_matches_sequential(self, tmp_path):
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        base = [
            "sweep", "--op", "synthetic", "--n-list", "128,256", "--k-list", "3",
            "--methods", "A2", "--d", "1", "--b", "8", "--seed", "5",
        ]
        assert run_cli(base + ["--out", str(seq)]) == 0
        assert run_cli(base + ["--out", str(par), "--jobs", "2"]) == 0

        def strip_times(path):
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                for col in ("time_I_s", "time_II_s", "time_III_s"):
                    row.pop(col)
            return rows

        assert strip_times(seq) == strip_times(par)

    def test_jobs_on_an_empty_grid_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = run_cli([
            "sweep", "--op", "laplace2d", "--n-list", "", "--methods", "A2",
            "--jobs", "2", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().strip().splitlines() == [",".join(ublr.cli.SWEEP_COLUMNS)]

    def test_jobs_records_a_failing_row(self, tmp_path):
        out = tmp_path / "fail.csv"
        code = run_cli([
            "sweep", "--op", "synthetic", "--n-list", "64", "--k-list", "2,200",
            "--methods", "A1", "--d", "1", "--b", "4", "--seed", "2",
            "--jobs", "2", "--out", str(out),
        ])
        assert code == 0
        rows = rows_without_times(out)
        assert rows[0]["error"] == "" and rows[0]["rel_error"] != ""
        assert rows[1]["error"].startswith("ConfigError: --synthetic-rank 200 exceeds")

    def test_jobs_matches_sequential_on_a_mixed_sweep(self, tmp_path):
        seq, par = tmp_path / "seq.csv", tmp_path / "par.csv"
        base = [
            "sweep", "--op", "synthetic", "--n-list", "320", "--k-list", "2",
            "--methods", "A1,A2", "--d", "1", "--b", "8", "--seed", "6",
            "--extra-cols", "1",
        ]
        assert run_cli(base + ["--out", str(seq)]) == 0
        assert run_cli(base + ["--out", str(par), "--jobs", "2"]) == 0
        rows = rows_without_times(par)
        assert [(r["method"], r["extra_cols"]) for r in rows] == [("A1", ""), ("A2", "1")]
        assert rows == rows_without_times(seq)


def rows_without_times(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for col in ("time_I_s", "time_II_s", "time_III_s"):
            del row[col]
    return rows
