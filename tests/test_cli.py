"""Command-line driver: dispatch, config handling, files, determinism."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qhedge
from qhedge import (BasisSet, MarketParams, OptionContract, TransitionDataset,
                    read_dataset_csv)
from qhedge.cli import ExperimentConfig, ingest_prices, main
from qhedge.errors import ConfigError, DataFormatError
from tests.test_black_scholes import put_price_by_quadrature


def run(*argv):
    return main(list(argv))


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        k, _, v = line.partition("=")
        out[k] = v
    return out


SMALL = ["--market.n_steps", "6", "--mc.n_paths", "400", "--basis.m", "8",
         "--mc.seed", "11"]


class TestConfig:
    def test_file_plus_flag_override(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("market.s0=120\nrisk.lambda=0.01\n# comment\n")
        cfg = ExperimentConfig.load(cfg_file, {"risk.lambda": "0.02"})
        assert cfg["market.s0"] == 120.0
        assert cfg["risk.lambda"] == 0.02

    def test_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("market.spot=120\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.load(cfg_file)

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.load(None, {"mc.n_paths": "many"})

    def test_hash_stable_and_sensitive(self):
        a = ExperimentConfig.load(None, {"mc.seed": "1"})
        b = ExperimentConfig.load(None, {"mc.seed": "1"})
        c = ExperimentConfig.load(None, {"mc.seed": "2"})
        assert a.hash() == b.hash() != c.hash()


class TestConfigBoundary:
    """Bad values exit 2 from ExperimentConfig.load, naming their key,
    before any ensemble is simulated."""

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("ensemble simulated before config validation")
        monkeypatch.setattr("qhedge.cli.simulate_gbm", fail)

    @pytest.mark.parametrize("command, key, value", [
        ("rollout", "contract.kind", "foo"),
        ("rollout", "basis.kind", "foo"),
        ("rollout", "market.sigma", "-1"),
        ("rollout", "rollout.policy", "foo"),
        ("make-dataset", "dataset.policy", "foo"),
        ("utility-price", "utility.method", "foo"),
        ("dp-solve", "market.mu", "nan"),
        ("dp-solve", "risk.lambda", "inf"),
        ("dp-solve", "contract.strike", "-5"),
        ("dp-solve", "market.r", "-0.05"),  # e^{-r dt} > 1
        ("simulate", "mc.n_paths", "0"),
        ("dp-solve", "basis.m", "0"),
        ("dp-solve", "basis.degree", "-1"),
        ("tabular-q", "tabular.n_x", "0"),
        ("tabular-q", "tabular.n_a", "1"),
        ("tabular-q", "tabular.n_updates", "0"),
        ("fqi-solve", "dataset.path", "no/such/dataset.csv"),
        ("tabular-q", "tabular.k0", "0"),
        ("tabular-q", "tabular.alpha0", "-1"),
        ("tabular-q", "tabular.action_lo", "nan"),
        ("utility-price", "utility.gamma", "-5"),
        ("utility-price --utility.method numeric", "utility.gamma", "0"),
        ("rollout", "rollout.constant", "nan"),
        ("make-dataset", "dataset.random_lo", "nan"),
        ("make-dataset", "dataset.random_lo", "2"),  # above random_hi = 1.5
        ("dp-solve", "basis.bandwidth", "-1"),
    ])
    def test_bad_value_exits_2_naming_key(self, tmp_path, capsys, command, key, value):
        # the key under test comes last so that SMALL's sizes do not override it
        code = run(*command.split(), *SMALL, "--output.dir", str(tmp_path),
                   f"--{key}", value)
        assert code == 2
        assert key in capsys.readouterr().err


class TestSubcommands:
    def test_bs_quote_matches_quadrature(self, tmp_path):
        out = tmp_path / "o"
        code = run("bs-quote", "--market.s0", "100", "--contract.strike", "100",
                   "--market.sigma", "0.2", "--market.r", "0", "--market.mu", "0",
                   "--market.maturity", "1", "--output.dir", str(out))
        assert code == 0
        summary = read_summary(out / "summary.txt")
        oracle = put_price_by_quadrature(100.0, 100.0, 0.2, 0.0, 1.0)
        assert abs(float(summary["price"]) - oracle) < 1e-6

    def test_import_and_bs_quote_load_no_scipy(self, tmp_path):
        """scipy is imported only by commands that simulate paths."""
        child = (
            "import sys\n"
            "import qhedge.cli\n"
            "def scipy_loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "if scipy_loaded():\n"
            "    sys.exit(f'import qhedge.cli loaded {scipy_loaded()}')\n"
            f"code = qhedge.cli.main(['bs-quote', '--output.dir', {str(tmp_path)!r}])\n"
            "if code or scipy_loaded():\n"
            "    sys.exit(f'bs-quote exited {code} and loaded {scipy_loaded()}')\n"
        )
        src = str(Path(qhedge.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "summary.txt").exists()

    def test_dp_lambda_zero_is_config_error(self, tmp_path, capsys):
        code = run("dp-solve", "--risk.lambda", "0", "--output.dir",
                   str(tmp_path), *SMALL)
        assert code == 2
        assert "risk.lambda > 0" in capsys.readouterr().err

    def test_simulate_writes_ensemble(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--output.dir", str(out), *SMALL) == 0
        text = (out / "ensemble.csv").read_text()
        assert text.startswith("# ")
        assert "path,t,s,x" in text

    def test_rollout_columns(self, tmp_path):
        out = tmp_path / "roll"
        assert run("rollout", "--rollout.policy", "zero",
                   "--output.dir", str(out), *SMALL) == 0
        header = [l for l in (out / "rollout.csv").read_text().splitlines()
                  if l.startswith("path,")][0]
        assert header == "path,t,S,X,a,Pi,B,R"

    def test_dp_solve_outputs(self, tmp_path):
        out = tmp_path / "dp"
        assert run("dp-solve", "--output.dir", str(out), *SMALL) == 0
        summary = read_summary(out / "summary.txt")
        assert "price0" in summary and "hedge0" in summary
        assert (out / "coefficients.csv").exists()
        assert (out / "surfaces.csv").exists()

    def test_dataset_roundtrip_and_fqi(self, tmp_path):
        """dp_optimal dataset reproduces the DP price (mu = r, where the
        penalty's reference portfolio and the optimal one coincide)."""
        rn = ["--market.mu", "0.03", "--mc.n_paths", "2000"]
        data_dir = tmp_path / "data"
        assert run("make-dataset", "--dataset.policy", "dp_optimal",
                   "--output.dir", str(data_dir), *SMALL, *rn) == 0
        ds_file = data_dir / "dataset.csv"
        ds = read_dataset_csv(ds_file)
        assert len(ds) == 2000 * 6
        fqi_dir = tmp_path / "fqi"
        assert run("fqi-solve", "--dataset.path", str(ds_file),
                   "--output.dir", str(fqi_dir), *SMALL, *rn) == 0
        dp_dir = tmp_path / "dp"
        assert run("dp-solve", "--output.dir", str(dp_dir), *SMALL, *rn) == 0
        p_fqi = float(read_summary(fqi_dir / "summary.txt")["price0"])
        p_dp = float(read_summary(dp_dir / "summary.txt")["price0"])
        assert abs(p_fqi - p_dp) / p_dp < 0.05

    def test_make_dataset_zero_policy_zero_rewards(self, tmp_path):
        out = tmp_path / "z"
        assert run("make-dataset", "--dataset.policy", "zero",
                   "--risk.lambda", "0", "--output.dir", str(out), *SMALL) == 0
        ds = read_dataset_csv(out / "dataset.csv")
        np.testing.assert_array_equal(ds.a, 0.0)
        np.testing.assert_array_equal(ds.r, 0.0)

    @pytest.mark.parametrize("command, key", [("rollout", "rollout.policy"),
                                              ("make-dataset", "dataset.policy")])
    @pytest.mark.parametrize("policy", ["zero", "constant", "local_risk",
                                        "dp_optimal", "random"])
    def test_shared_policy_names(self, tmp_path, command, key, policy):
        out = tmp_path / "p"
        assert run(command, f"--{key}", policy, "--rollout.constant", "0.25",
                   "--output.dir", str(out), *SMALL) == 0
        assert read_summary(out / "summary.txt")["policy"] == policy

    def test_tabular_q_summary(self, tmp_path):
        out = tmp_path / "tab"
        assert run("tabular-q", "--tabular.n_x", "5", "--tabular.n_a", "3",
                   "--tabular.n_updates", "20000",
                   "--output.dir", str(out), *SMALL) == 0
        summary = read_summary(out / "summary.txt")
        assert "q0_exact" in summary and "sup_rel_error" in summary
        assert (out / "qtable.csv").exists()

    def test_utility_price_runs(self, tmp_path):
        out = tmp_path / "u"
        assert run("utility-price", "--utility.gamma", "0.01",
                   "--basis.kind", "one_hot_grid", "--basis.m", "10",
                   "--market.mu", "0.03", "--output.dir", str(out), *SMALL) == 0
        assert "price0" in read_summary(out / "summary.txt")

    def test_compare_reports_errors(self, tmp_path):
        out = tmp_path / "cmp"
        assert run("compare", "--market.mu", "0.03", "--market.sigma", "0.15",
                   "--mc.n_paths", "4000", "--market.n_steps", "12",
                   "--output.dir", str(out)) == 0
        summary = read_summary(out / "summary.txt")
        assert float(summary["price_rel_error"]) < 0.10


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["simulate"],
        ["dp-solve"],
        ["make-dataset", "--dataset.policy", "random"],
        ["tabular-q", "--tabular.n_x", "5", "--tabular.n_a", "3",
         "--tabular.n_updates", "5000"],
    ])
    def test_byte_identical_reruns(self, tmp_path, argv):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert run(*argv, "--output.dir", str(d), *SMALL) == 0
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestIngest:
    def test_export_then_ingest_roundtrip(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--output.dir", str(out), *SMALL) == 0
        paths = ingest_prices(out / "ensemble.csv")
        from qhedge import simulate_gbm
        params = MarketParams(s0=100.0, mu=0.05, sigma=0.2, r=0.03,
                              maturity=1.0, n_steps=6)
        direct = simulate_gbm(params, 400, seed=11)
        np.testing.assert_allclose(paths.s_paths, direct.s_paths, rtol=1e-15)

    def test_ragged_panel_names_cell(self, tmp_path):
        f = tmp_path / "panel.csv"
        f.write_text("# mu=0\n# sigma=0.2\n# r=0\n# maturity=1\n"
                     "path,t,s\n0,0,100\n0,1,101\n1,0,100\n")
        with pytest.raises(DataFormatError, match=r"path=1, t=1"):
            ingest_prices(f)

    def test_constant_panel_zero_hedge_discounts(self, tmp_path):
        from qhedge import HedgeStrategy, RiskParams, rollout_portfolio
        f = tmp_path / "flat.csv"
        rows = ["# mu=0.0", "# sigma=0.0", "# r=0.05", "# maturity=1",
                "path,t,s"]
        for p in range(3):
            for t in range(5):
                rows.append(f"{p},{t},100.0")
        f.write_text("\n".join(rows) + "\n")
        paths = ingest_prices(f)
        contract = OptionContract("put", 108.0)
        risk = RiskParams.from_market(0.7, paths.params)
        roll = rollout_portfolio(paths, HedgeStrategy.zero(), contract, risk)
        np.testing.assert_allclose(roll.pi[:, 0], np.exp(-0.05) * 8.0,
                                   rtol=1e-12)

    @pytest.mark.parametrize("row", ["0,-1,250", "0,1.5,250", "-2,1,250"])
    def test_index_must_be_nonnegative_integer(self, tmp_path, row):
        """A negative or fractional t or path id is a format error, not a
        cell that silently overwrites another."""
        f = tmp_path / "panel.csv"
        f.write_text("# mu=0\n# sigma=0.2\n# r=0\n# maturity=1\n"
                     f"path,t,s\n0,0,100\n0,1,101\n{row}\n")
        with pytest.raises(DataFormatError, match=r"non-negative integers; data row 3 "):
            ingest_prices(f)

    @pytest.mark.parametrize("body", [
        "", "# mu=0\n", "path,t,s\n", "path,t,s\n0,0,abc\n",
        "path,t,s\n0,0,100\n0,1\n", "0,0,100\n0,1,101\n",
    ])
    def test_malformed_file_names_path(self, tmp_path, body):
        """Empty files, a missing column-name row and malformed rows are
        format errors naming the file."""
        f = tmp_path / "panel.csv"
        f.write_text(body)
        with pytest.raises(DataFormatError, match="panel.csv"):
            ingest_prices(f)

    @pytest.mark.parametrize("header, message", [
        ("# mu=abc\n# sigma=0.2\n# r=0\n# maturity=1\n", "header value mu='abc'"),
        ("# sigma=0.2\n# r=0\n# maturity=1\n", "header missing key 'mu'"),
    ], ids=["bad_value", "missing_key"])
    def test_bad_header_names_file_and_key(self, tmp_path, header, message):
        f = tmp_path / "panel.csv"
        f.write_text(header + "path,t,s\n0,0,100\n0,1,101\n")
        with pytest.raises(DataFormatError, match=rf"panel\.csv: {message}"):
            ingest_prices(f)

    def test_nonpositive_price_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("# mu=0\n# sigma=0.2\n# r=0\n# maturity=1\n"
                     "path,t,s\n0,0,100\n0,1,-5\n")
        with pytest.raises(DataFormatError):
            ingest_prices(f)

    def test_duplicate_cell_names_cell(self, tmp_path, capsys):
        """Two rows for one (path, t) cell are a format error, not a price
        the later row silently overwrites."""
        f = tmp_path / "panel.csv"
        f.write_text("path,t,s\n0,0,100\n0,1,101\n1,0,100\n1,1,99\n0,1,250\n")
        code = run("simulate", "--ingest.path", str(f), "--market.n_steps", "1",
                   "--output.dir", str(tmp_path / "out"))
        assert code == 3
        assert "duplicate rows for cell (path=0, t=1)" in capsys.readouterr().err

    @pytest.mark.parametrize("price", ["inf", "-inf"])
    def test_infinite_price_names_cell(self, tmp_path, capsys, price):
        """An infinite price is a format error, not a run that reports
        mean_s_final=inf."""
        f = tmp_path / "panel.csv"
        f.write_text(f"path,t,s\n0,0,100\n0,1,{price}\n1,0,100\n1,1,99\n")
        code = run("simulate", "--ingest.path", str(f), "--market.n_steps", "1",
                   "--output.dir", str(tmp_path / "out"))
        assert code == 3
        err = capsys.readouterr().err
        assert f"non-finite price {price} at cell (path=0, t=1)" in err

    def test_nan_price_is_not_a_missing_cell(self, tmp_path):
        """A NaN price is named as a non-finite price, not mistaken for the
        NaN fill that marks missing cells."""
        f = tmp_path / "panel.csv"
        f.write_text("# mu=0\n# sigma=0.2\n# r=0\n# maturity=1\n"
                     "path,t,s\n0,0,100\n0,1,nan\n1,0,100\n1,1,99\n")
        with pytest.raises(DataFormatError,
                           match=r"non-finite price nan at cell \(path=0, t=1\)"):
            ingest_prices(f)


class TestEvaluateOnce:
    """A command evaluates the basis once per distinct input, and
    fqi-solve builds the dataset's ensemble once."""

    @pytest.fixture
    def dataset_path(self, tmp_path):
        assert run("make-dataset", *SMALL, "--dataset.policy", "random",
                   "--output.dir", str(tmp_path / "ds")) == 0
        return str(tmp_path / "ds" / "dataset.csv")

    @pytest.mark.parametrize("command", ["dp-solve", "compare", "fqi-solve"])
    def test_calls_equal_distinct_inputs(self, tmp_path, monkeypatch, dataset_path,
                                         command):
        inputs = []
        evaluate = BasisSet.evaluate

        def counted(self, states):
            inputs.append(np.asarray(states, dtype=float).tobytes())
            return evaluate(self, states)

        monkeypatch.setattr(BasisSet, "evaluate", counted)
        assert run(command, *SMALL, "--dataset.path", dataset_path,
                   "--output.dir", str(tmp_path / "out")) == 0
        assert len(inputs) == len(set(inputs))

    def test_fqi_solve_builds_one_ensemble(self, tmp_path, monkeypatch, dataset_path):
        calls = []
        to_ensemble = TransitionDataset.to_ensemble

        def counted(self):
            calls.append(self)
            return to_ensemble(self)

        monkeypatch.setattr(TransitionDataset, "to_ensemble", counted)
        assert run("fqi-solve", *SMALL, "--dataset.path", dataset_path,
                   "--output.dir", str(tmp_path / "out")) == 0
        assert len(calls) == 1
