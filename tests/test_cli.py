"""CLI subcommands, output files, and exit codes."""

import json
from functools import partial

import pytest
from click.testing import CliRunner

import regret_audit as ra
from regret_audit.cli import cli

from conftest import NanAboveAuction, NanPaymentAuction


@pytest.fixture
def runner():
    return CliRunner()


def eval_args(out, mechanism="second_price", **extra):
    args = [
        "eval", "--mechanism", mechanism, "--bidders", "2", "--items", "2",
        "--grid-q", "10", "--methods", "lower_bound,item_wise",
        "--samples", "3", "--seed", "1", "--out", str(out),
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


class TestEval:
    def test_basic_run_writes_report(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(cli, eval_args(out))
        assert result.exit_code == 0, result.output
        report = ra.read_report(out)
        assert report.samples == 3
        assert report.method_means["lower_bound"] == 0.0

    def test_neural_spec_path_mechanism(self, runner, tmp_path):
        spec_path = tmp_path / "mech.json"
        gen = runner.invoke(cli, ["gen-mech", "--bidders", "2", "--items", "2",
                                  "--hidden", "8", "--seed", "7", "--out", str(spec_path)])
        assert gen.exit_code == 0, gen.output
        out = tmp_path / "report.json"
        result = runner.invoke(cli, eval_args(out, mechanism=str(spec_path)))
        assert result.exit_code == 0, result.output
        assert ra.read_report(out).method_means["item_wise"] > 0.0

    def test_ctxnormal_distribution(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(cli, eval_args(
            out, dist="ctxnormal", x_contexts="3,5", y_contexts="2,9"))
        assert result.exit_code == 0, result.output

    def test_ctxnormal_default_contexts_differ(self, runner, tmp_path):
        # unspecified contexts are drawn from distinct bidder/item streams
        out = tmp_path / "report.json"
        result = runner.invoke(cli, eval_args(out, dist="ctxnormal"))
        assert result.exit_code == 0, result.output
        cfg = ra.read_report(out).config
        assert cfg["distribution"]["x_contexts"] != cfg["distribution"]["y_contexts"]

    def test_preset(self, runner, tmp_path):
        out = tmp_path / "report.json"
        args = eval_args(out, preset="regretformer")
        args[args.index("--methods") + 1] = "guided"
        args += ["--R", "5"]  # keep the k=80 portfolio cheap
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, result.output
        report = ra.read_report(out)
        assert report.config["portfolio"]["k"] == 80

    def test_invalid_config_exits_2(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(cli, eval_args(out, methods="nope"))
        assert result.exit_code == 2
        result = runner.invoke(cli, eval_args(out, mechanism="no_such_thing"))
        assert result.exit_code == 2
        args = eval_args(out)
        del args[args.index("--bidders"):args.index("--bidders") + 2]
        result = runner.invoke(cli, args)
        assert result.exit_code == 2

    def test_infinite_std_exits_2(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(cli, eval_args(out, dist="ctxnormal", std="inf"))
        assert result.exit_code == 2
        assert "std" in result.output

    def test_nonfinite_truthful_utility_exits_2(self, runner, tmp_path, monkeypatch):
        monkeypatch.delenv("REGRET_AUDIT_THREADS", raising=False)
        monkeypatch.setitem(ra.mechanisms.BUILTIN_MECHANISMS, "nan_payment", NanPaymentAuction)
        out = tmp_path / "report.json"
        for methods in ("exhaustive", "lower_bound,item_wise", "pga", "guided"):
            result = runner.invoke(cli, eval_args(out, mechanism="nan_payment", methods=methods))
            assert result.exit_code == 2, result.output
            assert "non-finite truthful utility" in result.output
        assert not out.exists()

    def test_nonfinite_misreport_utility_exits_2(self, runner, tmp_path, monkeypatch):
        monkeypatch.delenv("REGRET_AUDIT_THREADS", raising=False)
        monkeypatch.setitem(ra.mechanisms.BUILTIN_MECHANISMS, "nan_above",
                            partial(NanAboveAuction, threshold=1.2))
        out = tmp_path / "report.json"
        for methods in ("exhaustive", "lower_bound,item_wise", "guided"):
            result = runner.invoke(cli, eval_args(out, mechanism="nan_above", methods=methods))
            assert result.exit_code == 2, result.output
            assert "non-finite misreport utility" in result.output
        assert not out.exists()

    def test_item_method(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(cli, eval_args(out, methods="item"))
        assert result.exit_code == 0, result.output
        report = ra.read_report(out)
        assert [r.estimate.method for r in report.records] == ["item"] * (3 * 2 * 2)

    def test_budget_exceeded_exits_3(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(cli, eval_args(
            out, methods="exhaustive", grid_q=1000, max_grid_evals=1000))
        assert result.exit_code == 3
        assert "budget" in result.output

    def test_unwritable_output_exits_4(self, runner, tmp_path):
        result = runner.invoke(cli, eval_args(tmp_path / "no_dir" / "report.json"))
        assert result.exit_code == 4


class TestSweep:
    def test_sweep_writes_csv(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(cli, [
            "sweep", "--mechanism", "second_price", "--bidders", "2", "--items", "1",
            "--grid-q", "10", "--samples", "2", "--seed", "3",
            "--l-values", "1,2", "--r-values", "5,10", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "L,R,mean_regret,mech_evals,gradient_steps,wall_seconds"
        assert len(lines) == 5

    def test_bad_l_values_exit_2(self, runner, tmp_path):
        result = runner.invoke(cli, [
            "sweep", "--mechanism", "second_price", "--bidders", "2", "--items", "1",
            "--samples", "1", "--l-values", "a,b", "--r-values", "5",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert result.exit_code == 2


class TestGenMech:
    def test_round_trip_through_cli(self, runner, tmp_path):
        path = tmp_path / "mech.json"
        result = runner.invoke(cli, ["gen-mech", "--bidders", "3", "--items", "2",
                                     "--hidden", "4", "--seed", "11", "--out", str(path)])
        assert result.exit_code == 0
        spec = ra.read_neural_spec(path)
        assert spec.setting == ra.AuctionSetting(3, 2)
        assert spec == ra.generate_neural_spec(ra.AuctionSetting(3, 2), 4, 11)

    def test_format_version_present(self, runner, tmp_path):
        path = tmp_path / "mech.json"
        runner.invoke(cli, ["gen-mech", "--bidders", "2", "--items", "2",
                            "--hidden", "4", "--seed", "1", "--out", str(path)])
        assert json.loads(path.read_text())["format_version"] == 1
