import inspect
import json
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from knewimp import metrics
from knewimp.cli import _build_configs, _check_config, build_parser, main
from knewimp.imputer import WgfConfig, knewimp
from knewimp.kernel import KernelConfig
from knewimp.missingness import MissingSpec, simulate
from knewimp.score import DsmConfig, init_network, save_network
from knewimp.tabular import from_complete, load_csv, standardize, write_csv
from test_lanes import blas_threads  # noqa: F401  (fixture)
from test_score import MALFORMED_CHECKPOINTS, write_checkpoint

FAST = [
    "--lambda", "1.0", "--steps", "20", "--loops", "1", "--epochs", "10",
    "--hidden", "16",
]


@pytest.fixture
def complete_csv(tmp_path):
    rng = np.random.default_rng(0)
    chol = np.linalg.cholesky(np.array([[1.0, 0.7], [0.7, 1.0]]))
    truth = rng.standard_normal((80, 2)) @ chol.T
    path = str(tmp_path / "complete.csv")
    write_csv(path, truth, column_names=["u", "v"])
    return path


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path, complete_csv):
        args = [
            "simulate", "--input", complete_csv, "--has-header",
            "--mechanism", "mcar", "--rate", "0.3", "--seed", "1",
        ]
        assert main(args + ["--output-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--output-dir", str(tmp_path / "b")]) == 0
        assert os.listdir(tmp_path / "a") == ["masked.csv"]
        assert read(tmp_path / "a" / "masked.csv") == read(tmp_path / "b" / "masked.csv")

    def test_bad_rate_is_usage_error(self, tmp_path, complete_csv):
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--input", complete_csv, "--has-header",
                "--rate", "1.5", "--output-dir", str(tmp_path),
            ])
        assert exc.value.code == 1

    def test_mar_keeps_three_columns_observed(self, tmp_path):
        rng = np.random.default_rng(1)
        truth = rng.standard_normal((1000, 10))
        path = str(tmp_path / "wide.csv")
        write_csv(path, truth)
        out = tmp_path / "out"
        assert main([
            "simulate", "--input", path, "--mechanism", "mar",
            "--rate", "0.3", "--seed", "2", "--output-dir", str(out),
        ]) == 0
        mask = load_csv(str(out / "masked.csv")).mask
        assert ((mask == 0.0).sum(axis=0) == 0).sum() == 3

    def test_masked_data_matches_mask(self, tmp_path, complete_csv):
        out = tmp_path / "sim"
        main([
            "simulate", "--input", complete_csv, "--has-header",
            "--rate", "0.4", "--seed", "3", "--output-dir", str(out),
        ])
        truth = load_csv(complete_csv, has_header=True).values
        mask = simulate(truth, MissingSpec("mcar", 0.4, 3))
        ds = load_csv(str(out / "masked.csv"), has_header=True)
        assert np.array_equal(ds.mask, mask)
        assert np.array_equal(ds.values[mask == 1.0], truth[mask == 1.0])

    def test_incomplete_input_rejected(self, tmp_path):
        path = str(tmp_path / "holes.csv")
        (tmp_path / "holes.csv").write_text("1.0,\n2.0,3.0\n")
        assert main([
            "simulate", "--input", path, "--rate", "0.3",
            "--output-dir", str(tmp_path),
        ]) == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        # Refused before any file is read: the input does not even exist.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--input", str(tmp_path / "absent.csv"),
                "--seed", "-1", "--output-dir", str(out),
            ])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: knewimp simulate")
        assert "--seed" in err.splitlines()[-1]
        assert not out.exists()


    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    @pytest.mark.parametrize("extra", [
        ["--observed-fraction", "0.5"], ["--overlay-rate", "0.2"],
    ], ids=lambda extra: extra[0].lstrip("-"))
    def test_removed_mask_flags_are_usage_errors(self, tmp_path, capsys, command, extra):
        # The recipe fixes 30% observed columns and the MNAR overlay at --rate.
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", str(tmp_path / "absent.csv"),
                  "--output-dir", str(tmp_path / "out"), *extra])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestImpute:
    def run_pipeline(self, tmp_path, complete_csv, extra=()):
        sim = tmp_path / "sim"
        main([
            "simulate", "--input", complete_csv, "--has-header",
            "--rate", "0.3", "--seed", "4", "--output-dir", str(sim),
        ])
        out = str(tmp_path / "imputed.csv")
        code = main([
            "impute", "--input", str(sim / "masked.csv"), "--has-header",
            "--output", out, "--seed", "4", *FAST, *extra,
        ])
        return code, out, sim

    def test_kernel_grad_masking_flag_is_usage_error(self, tmp_path, complete_csv):
        with pytest.raises(SystemExit) as exc:
            main([
                "impute", "--input", complete_csv, "--has-header",
                "--output", str(tmp_path / "im.csv"), "--no-kernel-grad-masking",
            ])
        assert exc.value.code == 1

    def test_mask_flag_is_usage_error(self, tmp_path, complete_csv):
        # impute reads its mask from the empty cells of --input.
        with pytest.raises(SystemExit) as exc:
            main([
                "impute", "--input", complete_csv, "--has-header",
                "--output", str(tmp_path / "im.csv"),
                "--mask", str(tmp_path / "m.csv"),
            ])
        assert exc.value.code == 1

    def test_output_has_no_missing_cells(self, tmp_path, complete_csv):
        code, out, _ = self.run_pipeline(tmp_path, complete_csv)
        assert code == 0
        ds = load_csv(out, has_header=True)
        assert ds.mask.min() == 1.0

    def test_observed_cells_preserved(self, tmp_path, complete_csv):
        code, out, sim = self.run_pipeline(tmp_path, complete_csv)
        assert code == 0
        imputed = load_csv(out, has_header=True)
        masked = load_csv(str(sim / "masked.csv"), has_header=True)
        obs = masked.mask == 1.0
        assert np.array_equal(imputed.values[obs], masked.values[obs])

    def test_header_width_mismatch_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("a,b,c\n1,2,,4\n5,6,7,8\n", encoding="utf-8")
        code = main([
            "impute", "--input", str(path), "--has-header",
            "--output", str(tmp_path / "out.csv"), *FAST,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"knewimp impute (tabular): {path}: header has 3 cells" in err
        assert not (tmp_path / "out.csv").exists()

    def test_no_missing_cells_is_runtime_error(self, tmp_path, complete_csv, capsys):
        code = main([
            "impute", "--input", complete_csv, "--has-header",
            "--output", str(tmp_path / "out.csv"), *FAST,
        ])
        assert code == 2
        assert "no missing cells" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_smoke_path_minimal_flags(self, tmp_path, complete_csv):
        sim = tmp_path / "sim"
        main([
            "simulate", "--input", complete_csv, "--has-header",
            "--rate", "0.3", "--seed", "5", "--output-dir", str(sim),
        ])
        out = str(tmp_path / "smoke.csv")
        assert main([
            "impute", "--input", str(sim / "masked.csv"), "--has-header",
            "--output", out, "--lambda", "0", "--steps", "1",
            "--loops", "1", "--epochs", "1", "--hidden", "8",
        ]) == 0

    def test_checkpoint_round_trip(self, tmp_path, complete_csv):
        net_path = str(tmp_path / "net.json")
        code, out, sim = self.run_pipeline(
            tmp_path, complete_csv, extra=["--save-net", net_path]
        )
        assert code == 0
        out2 = str(tmp_path / "imputed2.csv")
        assert main([
            "impute", "--input", str(sim / "masked.csv"), "--has-header",
            "--output", out2, "--seed", "4", "--load-net", net_path, *FAST,
        ]) == 0

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_is_runtime_error(self, tmp_path, complete_csv, capsys, case):
        net_path = write_checkpoint(tmp_path, MALFORMED_CHECKPOINTS[case])
        code, out, _ = self.run_pipeline(tmp_path, complete_csv, extra=["--load-net", net_path])
        assert code == 2
        assert f"knewimp impute (builtins): {net_path}: " in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_hidden_width_must_match_checkpoint(self, tmp_path, complete_csv, capsys):
        net_path = str(tmp_path / "net.json")
        save_network(net_path, init_network(2, 8, seed=0))
        code, out, _ = self.run_pipeline(tmp_path, complete_csv, extra=["--load-net", net_path])
        assert code == 2  # FAST passes --hidden 16
        err = capsys.readouterr().err
        assert f"knewimp impute (builtins): {net_path}: --hidden" in err
        assert "hidden width 16" in err and "hidden width 8" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("extra", [
        ["--epochs", "0"], ["--step-size", "0"], ["--seed", "-1"], ["--hidden", "0"],
    ])
    def test_flag_check_errors_show_impute_usage(self, tmp_path, capsys, extra):
        # Checked after parsing, yet reported like argparse's own errors:
        # with the subcommand's usage line and its prog as the prefix.
        with pytest.raises(SystemExit) as exc:
            main([
                "impute", "--input", str(tmp_path / "absent.csv"),
                "--output", str(tmp_path / "im.csv"), *extra,
            ])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: knewimp impute")
        assert "knewimp impute: error:" in err

    @pytest.mark.parametrize("command", ["impute", "experiment"])
    @pytest.mark.parametrize("extra", [
        ["--lambda", "nan"], ["--bandwidth", "inf"], ["--step-size", "inf"],
        ["--sigma", "inf"], ["--lr", "nan"],
    ], ids=lambda extra: extra[0].lstrip("-") + "=" + extra[1])
    def test_non_finite_model_flags_are_usage_errors(self, tmp_path, capsys, command, extra):
        # Refused before any file is read or any network trained: the input
        # does not even exist.
        out = ["--output", str(tmp_path / "im.csv")] if command == "impute" else [
            "--output-dir", str(tmp_path / "exp")]
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", str(tmp_path / "absent.csv"), *out, *extra])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: knewimp {command}")
        assert "must be finite" in err.splitlines()[-1]

    def test_both_bandwidth_flags_are_usage_error(self, tmp_path, capsys):
        # Refused before any file is read: the input does not even exist.
        with pytest.raises(SystemExit) as exc:
            main([
                "impute", "--input", str(tmp_path / "absent.csv"),
                "--output", str(tmp_path / "im.csv"), "--bandwidth", "2",
                "--median-bandwidth",
            ])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: knewimp impute")
        message = err.splitlines()[-1]
        assert "--bandwidth" in message and "--median-bandwidth" in message


class TestEvaluate:
    def test_perfect_imputation_zero_metrics(self, tmp_path, complete_csv):
        sim = tmp_path / "sim"
        main([
            "simulate", "--input", complete_csv, "--has-header",
            "--rate", "0.3", "--seed", "7", "--output-dir", str(sim),
        ])
        report_path = str(tmp_path / "report.json")
        assert main([
            "evaluate", "--truth", complete_csv, "--imputed", complete_csv,
            "--has-header", "--masked", str(sim / "masked.csv"),
            "--output", report_path,
        ]) == 0
        report = json.loads(read(report_path))
        assert set(report) == {"mae", "wass", "m0", "m1"}
        assert report["mae"] == 0.0
        assert report["wass"] == 0.0

    def test_w2_larger_than_memory_is_runtime_error(
        self, tmp_path, complete_csv, capsys, monkeypatch
    ):
        sim = tmp_path / "sim"
        main([
            "simulate", "--input", complete_csv, "--has-header",
            "--rate", "0.3", "--seed", "7", "--output-dir", str(sim),
        ])
        memory = {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", memory.__getitem__)
        assert main([
            "evaluate", "--truth", complete_csv, "--imputed", complete_csv,
            "--has-header", "--masked", str(sim / "masked.csv"),
            "--output", str(tmp_path / "report.json"),
        ]) == 2
        assert "cost matrix" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_missing_mask_file_is_runtime_error(self, tmp_path, complete_csv):
        assert main([
            "evaluate", "--truth", complete_csv, "--imputed", complete_csv,
            "--has-header", "--masked", str(tmp_path / "absent.csv"),
        ]) == 2

    def test_report_to_stdout(self, tmp_path, complete_csv, capsys):
        sim = tmp_path / "sim"
        main([
            "simulate", "--input", complete_csv, "--has-header",
            "--rate", "0.3", "--seed", "8", "--output-dir", str(sim),
        ])
        capsys.readouterr()  # drop the simulate chatter
        assert main([
            "evaluate", "--truth", complete_csv, "--imputed", complete_csv,
            "--has-header", "--masked", str(sim / "masked.csv"),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m0"] > 0

    def test_report_matches_library_over_simulated_mask(self, tmp_path, complete_csv, capsys):
        # The mask comes from the empty cells of simulate's masked.csv.
        sim = tmp_path / "sim"
        main([
            "simulate", "--input", complete_csv, "--has-header", "--mechanism", "mar",
            "--rate", "0.4", "--seed", "5", "--output-dir", str(sim),
        ])
        imputed = str(tmp_path / "imputed.csv")
        truth = load_csv(complete_csv, has_header=True).values
        write_csv(imputed, truth + 0.25, column_names=["u", "v"])
        capsys.readouterr()
        assert main([
            "evaluate", "--truth", complete_csv, "--imputed", imputed,
            "--has-header", "--masked", str(sim / "masked.csv"),
        ]) == 0
        mask = simulate(truth, MissingSpec("mar", 0.4, 5))
        ds_std, stats = standardize(from_complete(truth, mask))
        expected = metrics.evaluate(ds_std, stats.apply(truth + 0.25)).to_json()
        assert capsys.readouterr().out == expected + "\n"

    def test_masked_table_of_other_data_is_data_error(self, tmp_path, complete_csv, capsys):
        # The observed cells of --masked must be the truth's: the same
        # empty cells over another table would otherwise score silently.
        sim = tmp_path / "sim"
        main([
            "simulate", "--input", complete_csv, "--has-header",
            "--rate", "0.3", "--seed", "7", "--output-dir", str(sim),
        ])
        ds = load_csv(str(sim / "masked.csv"), has_header=True)
        other = str(tmp_path / "other.csv")
        write_csv(other, ds.values * 100 + 7, ds.column_names)
        i, j = np.argwhere(ds.mask == 1.0)[0]
        capsys.readouterr()
        assert main([
            "evaluate", "--truth", complete_csv, "--imputed", complete_csv,
            "--has-header", "--masked", other,
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{other}: cell at row {i + 1}, column {j + 1} is " in captured.err

    def test_mask_flag_is_usage_error(self, tmp_path, complete_csv, capsys):
        # The mask is read from the empty cells of --masked.
        with pytest.raises(SystemExit) as exc:
            main([
                "evaluate", "--truth", complete_csv, "--imputed", complete_csv,
                "--has-header", "--mask", str(tmp_path / "mask.csv"),
            ])
        assert exc.value.code == 1
        assert "--mask" in capsys.readouterr().err


    def test_wass_method_flag_is_usage_error(self, tmp_path, complete_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "evaluate", "--truth", complete_csv, "--imputed", complete_csv,
                "--has-header", "--masked", str(tmp_path / "masked.csv"),
                "--wass-method", "exact",
            ])
        assert exc.value.code == 1
        assert "--wass-method" in capsys.readouterr().err


class TestExperiment:
    def run(self, tmp_path, complete_csv, seeds, subdir):
        out = tmp_path / subdir
        code = main([
            "experiment", "--input", complete_csv, "--has-header",
            "--mechanism", "mcar", "--rate", "0.3", "--seeds", seeds,
            "--output-dir", str(out), *FAST,
        ])
        return code, out

    def test_single_seed_zero_std(self, tmp_path, complete_csv):
        code, out = self.run(tmp_path, complete_csv, "3", "single")
        assert code == 0
        summary = json.loads(read(out / "summary.json"))
        for method in summary["methods"].values():
            for metric in method.values():
                assert metric["std"] == 0.0

    def test_mean_matches_per_seed_reports(self, tmp_path, complete_csv):
        code, out = self.run(tmp_path, complete_csv, "1,2,3", "multi")
        assert code == 0
        summary = json.loads(read(out / "summary.json"))
        reports = [
            json.loads(read(out / f"seed_{s}.json")) for s in (1, 2, 3)
        ]
        for name in ("knewimp", "mean_baseline"):
            for metric in ("mae", "wass"):
                per_seed = [r[name][metric] for r in reports]
                assert summary["methods"][name][metric]["mean"] == pytest.approx(
                    float(np.mean(per_seed)), abs=1e-12
                )

    def test_summary_bytes_deterministic(self, tmp_path, complete_csv):
        _, out_a = self.run(tmp_path, complete_csv, "5,6", "detA")
        _, out_b = self.run(tmp_path, complete_csv, "5,6", "detB")
        assert read(out_a / "summary.json") == read(out_b / "summary.json")

    @pytest.mark.parametrize(
        "seeds", ["1,x", ",", "3,3", "-1,2"],
        ids=["non-integer", "empty", "duplicated", "negative"],
    )
    def test_bad_seeds_are_usage_error(self, tmp_path, capsys, seeds):
        # Refused before any file is read: the input does not even exist.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([
                "experiment", "--input", str(tmp_path / "absent.csv"),
                f"--seeds={seeds}", "--output-dir", str(out),
            ])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: knewimp experiment")
        assert "--seeds" in err.splitlines()[-1]
        assert not out.exists()

    def test_mcar_keeps_an_observed_cell_per_column(self, tmp_path):
        # On 3 rows at rate 0.8 an unguarded MCAR draw often leaves a column
        # fully missing, which imputation cannot use.
        path = str(tmp_path / "tiny.csv")
        write_csv(path, np.random.default_rng(2).standard_normal((3, 2)))
        assert main([
            "experiment", "--input", path, "--mechanism", "mcar", "--rate", "0.8",
            "--seeds", "0,1,2", "--output-dir", str(tmp_path / "out"), *FAST,
        ]) == 0

    def test_serial_and_parallel_seeds_agree(self, tmp_path, complete_csv, monkeypatch):
        # The pool is sized by the CPUs the process may run on.
        monkeypatch.setattr("knewimp.lanes.os.sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr("knewimp.lanes.os.cpu_count", lambda: 1)
        _, out_serial = self.run(tmp_path, complete_csv, "7,8", "serial")
        monkeypatch.setattr("knewimp.lanes.os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr("knewimp.lanes.os.cpu_count", lambda: 2)
        _, out_parallel = self.run(tmp_path, complete_csv, "7,8", "parallel")
        assert read(out_serial / "summary.json") == read(out_parallel / "summary.json")

    def test_seeds_run_with_one_blas_thread(self, tmp_path, complete_csv, monkeypatch,
                                            blas_threads):
        # 80 rows are one chunk and one Gram tile, so no lane pins BLAS; the
        # seed pool does, and main() restores the count it found.
        seen = []

        def counted(*args, **kwargs):
            seen.append(blas_threads())
            return knewimp(*args, **kwargs)

        monkeypatch.setattr("knewimp.cli.knewimp", counted)
        code, _ = self.run(tmp_path, complete_csv, "1,2", "pinned")
        n = len(blas_threads())
        assert code == 0
        assert seen == [[1] * n, [1] * n]
        assert blas_threads() == [2] * n

    def test_w2_larger_than_memory_fails_before_training(
        self, tmp_path, complete_csv, capsys, monkeypatch
    ):
        # One 4096-byte page holds a cost matrix of 22 rows at most, and the
        # seed's mask leaves more of the 80 rows incomplete.
        mask = simulate(load_csv(complete_csv, has_header=True).values,
                        MissingSpec("mcar", 0.3, 4))
        incomplete = int((mask == 0.0).any(axis=1).sum())
        assert incomplete > 22
        called = []
        monkeypatch.setattr("knewimp.cli.knewimp", lambda *a, **k: called.append(1))
        memory = {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", memory.__getitem__)
        code, out = self.run(tmp_path, complete_csv, "4", "too_large")
        assert code == 2
        assert f"exact W2 over {incomplete} rows" in capsys.readouterr().err
        assert not called
        assert not (out / "summary.json").exists()


class TestRetiredBenchmark:
    def test_benchmark_subcommand_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--sizes", "40", "--output", str(tmp_path / "b.json")])
        assert exc.value.code == 1


class TestModelDefaults:
    def test_flagless_impute_uses_owner_defaults(self):
        args = build_parser().parse_args(["impute", "--input", "a.csv", "--output", "b.csv"])
        model = _build_configs(args)
        assert model == {"dcfg": DsmConfig(), "kcfg": KernelConfig(), "wcfg": WgfConfig()}
        # None: knewimp() picks 256 for a fresh network, the checkpoint's
        # width for a warm start (tests/test_imputer.py::TestHiddenWidth).
        assert inspect.signature(knewimp).parameters["hidden"].default is None


class TestParserDefaults:
    def test_simulate_defaults_live_on_flags(self):
        args = build_parser().parse_args(["simulate", "--input", "a.csv"])
        assert args.mechanism == "mcar"
        assert args.rate == 0.3
        assert args.seed == 0
        assert args.has_header is False

    def test_experiment_seeds_default(self):
        args = build_parser().parse_args(["experiment", "--input", "a.csv", "--output-dir", "o"])
        assert args.seeds == "0,1,2,3,4"
        assert args.has_header is False


class TestConfigFile:
    def test_config_supplies_defaults_cli_overrides(self, tmp_path, complete_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rate": 0.5, "seed": 11}), encoding="utf-8")
        out_a = tmp_path / "cfgA"
        assert main([
            "--config", str(cfg), "simulate", "--input", complete_csv,
            "--has-header", "--output-dir", str(out_a),
        ]) == 0
        mask_a = load_csv(str(out_a / "masked.csv"), has_header=True).mask
        rate_a = 1.0 - mask_a.mean()
        assert 0.35 < rate_a < 0.65  # config rate 0.5 in effect
        out_b = tmp_path / "cfgB"
        assert main([
            "--config", str(cfg), "simulate", "--input", complete_csv,
            "--has-header", "--rate", "0.1", "--output-dir", str(out_b),
        ]) == 0
        mask_b = load_csv(str(out_b / "masked.csv"), has_header=True).mask
        assert 1.0 - mask_b.mean() < 0.25  # flag overrides config
        # A key of another subcommand is allowed, and a config switch stands in
        # for its flag: the header is honoured without --has-header.
        cfg.write_text(json.dumps({
            "rate": 0.5, "seed": 11, "seeds": "1,2", "has_header": True,
        }), encoding="utf-8")
        out_c = tmp_path / "cfgC"
        assert main([
            "--config", str(cfg), "simulate", "--input", complete_csv,
            "--output-dir", str(out_c),
        ]) == 0
        assert read(out_c / "masked.csv") == read(out_a / "masked.csv")
        assert read(out_c / "masked.csv").startswith("u,v\n")

    def test_config_model_key_and_flag_precedence(self, tmp_path, complete_csv, monkeypatch):
        sim = tmp_path / "sim"
        main([
            "simulate", "--input", complete_csv, "--has-header",
            "--rate", "0.3", "--seed", "9", "--output-dir", str(sim),
        ])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 3}), encoding="utf-8")
        fast = ["--loops", "1", "--epochs", "2", "--hidden", "8"]
        wcfgs = []

        def recording_knewimp(ds, dcfg, kcfg, wcfg, **kwargs):
            wcfgs.append(wcfg)
            return knewimp(ds, dcfg, kcfg, wcfg, **kwargs)

        monkeypatch.setattr("knewimp.cli.knewimp", recording_knewimp)

        def num_steps(extra):
            assert main([
                "--config", str(cfg), "impute", "--input", str(sim / "masked.csv"),
                "--has-header", "--output", str(tmp_path / "im.csv"), *fast, *extra,
            ]) == 0
            return wcfgs[-1].num_steps

        assert num_steps([]) == 3  # config steps replace the default 500
        assert num_steps(["--steps", "4"]) == 4  # flag overrides config

    @pytest.mark.parametrize("config, key", [
        ({"steps": 2.5}, "steps"),
        ({"stepz": 3}, "stepz"),
        ({"lambda": 0.5}, "lambda"),
        ({"has_header": "no"}, "has_header"),
        ({"observed_fraction": 0.5}, "observed_fraction"),
        ({"overlay_rate": 0.2}, "overlay_rate"),
    ], ids=["non-integer", "unknown-key", "flag-spelling", "non-boolean-switch",
            "removed-observed-fraction", "removed-overlay-rate"])
    def test_bad_config_key_or_value_is_usage_error(
        self, tmp_path, complete_csv, capsys, config, key
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main([
                "--config", str(cfg), "impute", "--input", complete_csv,
                "--output", str(tmp_path / "im.csv"),
            ])
        assert exc.value.code == 1
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "im.csv").exists()

    @pytest.mark.parametrize("key", [
        "input", "output", "output_dir", "masked", "truth", "save_net", "load_net", "imputed",
    ])
    def test_path_key_is_usage_error(
        self, tmp_path, complete_csv, capsys, monkeypatch, key
    ):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: str(tmp_path / "elsewhere")}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "simulate", "--input", complete_csv, "--has-header"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert repr(key) in err and "--" + key.replace("_", "-") in err
        assert list(work.iterdir()) == []
        assert not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("config, flags", [
        ({"bandwidth": 2.0, "median_bandwidth": True}, []),
        ({"median_bandwidth": True}, ["--bandwidth", "2"]),
    ], ids=["both-keys", "key-and-flag"])
    def test_both_bandwidth_settings_are_usage_error(self, tmp_path, capsys, config, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main([
                "--config", str(cfg), "impute", "--input", str(tmp_path / "absent.csv"),
                "--output", str(tmp_path / "im.csv"), *flags,
            ])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: knewimp impute")
        message = err.splitlines()[-1]
        assert "--bandwidth" in message and "--median-bandwidth" in message

    def test_config_values_read_as_flags(self):
        config = {
            "steps": "3", "lr": 1, "median_bandwidth": True, "has_header": False,
            "rate": 0.5, "mechanism": "mar",
        }
        checked = _check_config(build_parser(), config)
        assert checked == {
            "steps": 3, "lr": 1.0, "median_bandwidth": True, "has_header": False,
            "rate": 0.5, "mechanism": "mar",
        }
        assert type(checked["steps"]) is int and type(checked["lr"]) is float


def readme_commands():
    """The knewimp command lines of README's CLI block, with backslash
    continuations joined, as argument lists without the program name."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("knewimp ")]


def test_readme_walkthrough_parses():
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["simulate", "impute", "evaluate", "experiment"]
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README's `knewimp {shlex.join(argv)}` is not a valid command")
