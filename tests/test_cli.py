"""Command-line driver: dispatch, config handling, files, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qhedge
from qhedge import (BasisSet, MarketParams, OptionContract, PathEnsemble,
                    PortfolioRollout, read_dataset_csv)
from qhedge.cli import POLICIES, ExperimentConfig, ingest_prices, main
from qhedge.csvio import read_columns
from qhedge.errors import ConfigError, DataFormatError
from tests.test_black_scholes import put_price_by_quadrature
from tests.test_csvio import split_over
from tests.test_market import BENCH_PARAMS, BENCH_PATHS, traced


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
        ("simulate", "market.sigma", "1e200"),
        ("bs-quote", "market.sigma", "1e200"),  # sigma**2 overflows
        ("rollout", "rollout.policy", "foo"),
        ("make-dataset", "dataset.policy", "foo"),
        ("utility-price", "utility.method", "foo"),
        ("dp-solve", "market.mu", "nan"),
        ("dp-solve", "risk.lambda", "inf"),
        ("dp-solve", "contract.strike", "-5"),
        ("dp-solve", "market.r", "-0.05"),  # e^{-r dt} > 1
        ("bs-quote", "market.maturity", "1e308"),  # e^{-r dt} underflows to 0
        ("simulate", "market.maturity", "1e308"),
        ("dp-solve", "market.maturity", "0"),
        ("dp-solve", "market.s0", "0"),
        ("dp-solve", "market.n_steps", "0"),
        ("dp-solve", "risk.lambda", "-1"),
        ("simulate", "mc.n_paths", "0"),
        ("make-dataset", "mc.seed", "-1"),
        ("dp-solve", "basis.m", "0"),
        ("dp-solve", "basis.degree", "-1"),
        ("tabular-q", "tabular.n_x", "0"),
        ("tabular-q", "tabular.n_a", "1"),
        ("tabular-q", "tabular.n_updates", "0"),
        ("fqi-solve", "dataset.path", "no/such/dataset.csv"),
        ("tabular-q", "tabular.k0", "0"),
        ("tabular-q", "tabular.alpha0", "-1"),
        ("tabular-q", "tabular.action_lo", "nan"),
        ("tabular-q", "tabular.action_lo", "1.5"),  # equal to action_hi
        ("tabular-q", "tabular.action_hi", "-2"),  # below action_lo = -1.5
        ("utility-price", "utility.gamma", "-5"),
        ("utility-price --utility.method numeric", "utility.gamma", "0"),
        ("rollout", "rollout.constant", "nan"),
        ("make-dataset", "dataset.random_lo", "nan"),
        ("make-dataset", "dataset.random_lo", "2"),  # above random_hi = 1.5
        ("dp-solve", "basis.bandwidth", "-1"),
        ("dp-solve", "basis.m", "5"),  # one quantile breakpoint at degree 3
        ("compare", "risk.lambda", "0"),
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
        """No command loads scipy, simulating ones included: it is a
        test-time reference only."""
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
            f"code = qhedge.cli.main(['simulate', *{SMALL!r}, "
            f"'--output.dir', {str(tmp_path / 'sim')!r}])\n"
            "if code or scipy_loaded():\n"
            "    sys.exit(f'simulate exited {code} and loaded {scipy_loaded()}')\n"
        )
        src = str(Path(qhedge.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "summary.txt").exists()
        assert (tmp_path / "sim" / "ensemble.csv").exists()

    def test_dp_lambda_zero_is_config_error(self, tmp_path, capsys):
        code = run("dp-solve", "--risk.lambda", "0", "--output.dir",
                   str(tmp_path), *SMALL)
        assert code == 2
        assert "risk.lambda > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--market.mu", "900", "--market.n_steps", "1", "--mc.n_paths", "200"],
        ["dp-solve", "--market.sigma", "60", "--mc.n_paths", "2000"]])
    def test_prices_beyond_the_doubles_exit_3_naming_keys(self, tmp_path, capsys, argv):
        """Simulated prices that overflow (mu 900) or underflow (sigma 60)
        the doubles exit 3 naming the market keys, and write no file."""
        out = tmp_path / "out"
        assert run(*argv, "--output.dir", str(out)) == 3
        err = capsys.readouterr().err
        assert all(key in err for key in ("market.mu", "market.sigma", "market.maturity"))
        assert not out.exists()

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

    def test_fqi_solve_rejects_header_n_paths_mismatch(self, tmp_path, capsys):
        """fqi-solve on a dataset whose header's n_paths disagrees with its
        records exits 3 naming the file and the key."""
        f = tmp_path / "data.csv"
        f.write_text("# n_paths=5\n# n_steps=1\n# mu=0\n# sigma=0.2\n# r=0\n"
                     "# maturity=1\n# lambda=0.1\n# seed=0\npath,t,s,a,r\n"
                     "0,0,100,0,0\n0,1,110,0,0\n1,0,100,0,0\n1,1,120,0,0\n")
        code = run("fqi-solve", "--dataset.path", str(f),
                   "--output.dir", str(tmp_path / "fqi"))
        assert code == 3
        assert "data.csv: header n_paths=5" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv, step", [
        (["--utility.gamma", "1e308", "--mc.n_paths", "200", "--market.n_steps", "2"], 1),
        (["--utility.gamma", "1e6", "--mc.n_paths", "2000"], 18),
    ], ids=["value_inf", "square_overflows"])
    def test_utility_price_refuses_a_non_finite_price(self, tmp_path, capsys, argv, step):
        """A risk aversion that drives the recursion past the doubles exits 3
        naming the step, and writes no summary."""
        out = tmp_path / "u"
        assert run("utility-price", *argv, "--output.dir", str(out)) == 3
        assert (f"indifference value or hedge not finite at step {step}"
                in capsys.readouterr().err)
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize("argv, names", [
        (["dp-solve", "--risk.lambda", "1e-300"], ("Q target", "step 23", "risk.lambda")),
        (["dp-solve", "--market.r", "700", "--market.n_steps", "1"],
         ("risk-return tilt", "step 0", "risk.lambda")),
        (["utility-price", "--market.r", "700", "--market.n_steps", "1"],
         ("increments dS", "step 0", "market.r")),
        (["make-dataset", "--risk.lambda", "1e308", "--dataset.policy", "random",
          "--market.n_steps", "4"],
         ("reward R not finite at step 0 (risk.lambda = 1e+308)",)),
        (["dp-solve", "--risk.lambda", "1e308"],
         ("terminal Q fit", "risk.lambda = 1e+308")),
        (["dp-solve", "--risk.lambda", "1e308", "--market.sigma", "1"],
         ("terminal Q target not finite", "risk.lambda = 1e+308")),
        (["dp-solve", "--market.s0", "1e300"],
         ("hedge fit at step 23: normal equations not finite",)),
        (["dp-solve", "--contract.strike", "1e300"],
         ("terminal payoff variance: squared residual not finite",)),
    ], ids=["dp_tiny_lambda", "dp_tiny_discount", "utility_huge_growth",
            "dataset_reward_overflows", "dp_terminal_fit_overflows",
            "dp_terminal_target_overflows", "dp_gram_overflows",
            "dp_squared_residual_overflows"])
    def test_overflow_exits_3_naming_its_cause(self, tmp_path, capsys, argv, names):
        """A tilt, target, reward or terminal fit past the doubles names
        risk.lambda, price increments whose own moments overflow name
        market.r, not the risk aversion, and a Gram or a squared residual
        past the doubles names its fit: exit 3 with no overflow warning and
        no summary."""
        out = tmp_path / "out"
        assert run(*argv, "--mc.n_paths", "500", "--output.dir", str(out)) == 3
        err = capsys.readouterr().err
        assert all(name in err for name in names), err
        assert "risk aversion" not in err
        assert not (out / "summary.txt").exists()

    def test_bs_quote_tiny_sigma_prices_the_limit(self, tmp_path):
        """At sigma = 1e-300 d1 is about 3e298: the normal CDF's tails are
        exactly 0 and 1 without squaring it, so the ATM put's price is its
        limit 0 (the forward is above the strike), with no overflow
        warning."""
        out = tmp_path / "q"
        assert run("bs-quote", "--market.sigma", "1e-300", "--output.dir", str(out)) == 0
        summary = read_summary(out / "summary.txt")
        assert (summary["price"], summary["delta"]) == ("0", "0")

    def test_compare_zero_bs_price_names_sigma(self, tmp_path, capsys):
        """At sigma = 1e-8 the Black-Scholes price of the ATM put is 0, so
        the relative price error is undefined: exit 3 naming market.sigma
        and the zero price, before the DP solve, and no summary."""
        out = tmp_path / "c"
        assert run("compare", "--market.sigma", "1e-8", "--mc.n_paths", "500",
                   "--output.dir", str(out)) == 3
        err = capsys.readouterr().err
        assert "the Black-Scholes price is 0 at market.sigma=1e-08" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--rollout.policy", "constant", "--rollout.constant", "1e308"],
         "portfolio value Pi not finite at step 23"),
        (["--risk.lambda", "1e308"], "reward R not finite at step 0"),
        # R overflows on this run too: B is checked first
        (["--rollout.policy", "constant", "--rollout.constant", "1e306",
          "--market.n_steps", "2"], "bank account B not finite at step 0"),
    ], ids=["pi_overflows", "reward_overflows", "bank_account_overflows"])
    def test_rollout_refuses_a_non_finite_panel(self, tmp_path, capsys, argv, message):
        """A hedge or a risk aversion that drives Pi, B or R past the doubles
        exits 3 naming the panel and the step, and writes no rollout.csv."""
        out = tmp_path / "r"
        assert run("rollout", "--mc.n_paths", "500", *argv, "--output.dir", str(out)) == 3
        assert message in capsys.readouterr().err
        assert not (out / "rollout.csv").exists()

    def test_tabular_q_refuses_a_non_finite_chain(self, tmp_path, capsys):
        """A risk aversion whose rewards leave the doubles exits 3 naming
        the step, and reports no agreement metric."""
        out = tmp_path / "tab"
        assert run("tabular-q", "--risk.lambda", "1e308", "--mc.n_paths", "500",
                   "--tabular.n_updates", "1000", "--output.dir", str(out)) == 3
        assert ("chain reward coefficients not finite at step 0"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_tabular_q_computes_no_error_from_a_non_finite_table(
            self, tmp_path, capsys, monkeypatch):
        """A learned table holding NaN exits 3 instead of reporting
        sup_rel_error, which a NaN scale would read as 0."""
        import qhedge.cli
        learn = qhedge.cli.q_learn

        def broken(*args, **kwargs):
            table = learn(*args, **kwargs)
            table.q[0, 0, 0] = np.nan
            return table
        monkeypatch.setattr(qhedge.cli, "q_learn", broken)
        out = tmp_path / "tab"
        assert run("tabular-q", "--tabular.n_x", "5", "--tabular.n_a", "3",
                   "--tabular.n_updates", "200", "--output.dir", str(out), *SMALL) == 3
        assert "learned Q-table not finite" in capsys.readouterr().err
        assert not (out / "summary.txt").exists()

    def test_compare_reports_errors(self, tmp_path):
        out = tmp_path / "cmp"
        assert run("compare", "--market.mu", "0.03", "--market.sigma", "0.15",
                   "--mc.n_paths", "4000", "--market.n_steps", "12",
                   "--output.dir", str(out)) == 0
        summary = read_summary(out / "summary.txt")
        assert float(summary["price_rel_error"]) < 0.10


class TestDatasetHeader:
    """fqi-solve takes the market, lambda and contract from the dataset's
    header: a bad value there exits 3 naming the file and the key, and the
    config's risk.lambda is not read."""

    @pytest.fixture
    def dataset_path(self, tmp_path):
        assert run("make-dataset", *SMALL, "--mc.n_paths", "200",
                   "--market.n_steps", "4", "--dataset.policy", "random",
                   "--output.dir", str(tmp_path / "ds")) == 0
        return tmp_path / "ds" / "dataset.csv"

    def fqi_solve(self, tmp_path, dataset_path, *argv):
        return run("fqi-solve", *SMALL, "--mc.n_paths", "200", "--market.n_steps", "4",
                   "--dataset.path", str(dataset_path),
                   "--output.dir", str(tmp_path / "fqi"), *argv)

    @pytest.mark.parametrize("key, value, message", [
        ("contract_kind", "foo", "bad header value for contract_kind: kind must be"),
        ("contract_strike", "abc", "header value contract_strike='abc' is not a valid float"),
        ("s0", "-5", "bad header value for s0: s0 must be positive"),
        ("sigma", "1e200", "bad header value for sigma: sigma must be at most"),
        ("lambda", "-1", "bad header value for lambda: lambda must be non-negative"),
        ("lambda", "0", "bad header value for lambda: fqi-solve requires lambda > 0"),
        ("maturity", "-1", "bad header value for maturity: maturity must be positive"),
        ("maturity", "inf", "bad header value for maturity: maturity must be finite"),
        ("r", "-1", "bad header value for r: r must be non-negative"),
    ])
    def test_bad_value_names_file_and_key(self, tmp_path, capsys, dataset_path,
                                          key, value, message):
        lines = dataset_path.read_text().splitlines(keepends=True)
        edited = [f"# {key}={value}\n" if ln.startswith(f"# {key}=") else ln
                  for ln in lines]
        assert edited != lines
        dataset_path.write_text("".join(edited))
        capsys.readouterr()
        assert self.fqi_solve(tmp_path, dataset_path) == 3
        assert f"dataset.csv: {message}" in capsys.readouterr().err

    def test_no_records_names_file(self, tmp_path, capsys, dataset_path):
        """A dataset with its header but no records exits 3 naming the
        file, not the repr of a file object."""
        lines = dataset_path.read_text().splitlines(keepends=True)
        dataset_path.write_text("".join(ln for ln in lines if ln[0] in "#p"))
        capsys.readouterr()
        assert self.fqi_solve(tmp_path, dataset_path) == 3
        assert capsys.readouterr().err == f"numerical failure: {dataset_path}: no data rows\n"

    def test_config_lambda_is_not_read(self, tmp_path, dataset_path):
        assert self.fqi_solve(tmp_path, dataset_path) == 0
        price0 = read_summary(tmp_path / "fqi" / "summary.txt")["price0"]
        assert self.fqi_solve(tmp_path, dataset_path, "--risk.lambda", "0") == 0
        assert read_summary(tmp_path / "fqi" / "summary.txt")["price0"] == price0

    @pytest.mark.parametrize("policy, mu, step", [("constant", "0.05", 5),
                                                  ("local_risk", "0.05", 0),
                                                  ("local_risk", "0.03", None)])
    def test_one_recorded_action_prices_no_other(self, tmp_path, capsys, policy, mu,
                                                 step):
        """A step where every path recorded one action cannot be read at
        another: the constant policy's last step, or local_risk's t = 0
        (one start state) under the mu != r tilt.  At mu = r the analytic
        action at t = 0 is the recorded one."""
        argv = [*SMALL, "--market.mu", mu, "--rollout.constant", "0.5"]
        assert run("make-dataset", *argv, "--dataset.policy", policy,
                   "--output.dir", str(tmp_path / "ds")) == 0
        code = run("fqi-solve", *argv, "--dataset.path", str(tmp_path / "ds" / "dataset.csv"),
                   "--output.dir", str(tmp_path / "fqi"))
        err = capsys.readouterr().err
        if step is None:
            assert code == 0, err
        else:
            assert code == 3
            assert f"every action recorded at step {step} is" in err


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

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
    def test_any_blas_thread_count_writes_the_same_artifacts(self, tmp_path):
        """One and two BLAS threads write the same bytes: every regression
        sums over the samples in one order.  Each thread count runs in its
        own process, as BLAS reads it at start-up, with the same relative
        paths so that the config hashes agree."""
        size = ["--mc.n_paths", "50000", "--market.n_steps", "2"]
        commands = [
            ["make-dataset", "--dataset.policy", "random", "--output.dir", "dataset"],
            ["fqi-solve", "--dataset.path", "dataset/dataset.csv", "--output.dir", "fqi"],
            ["dp-solve", "--output.dir", "dp"],
            ["utility-price", "--output.dir", "utility"],
            ["rollout", "--rollout.policy", "local_risk", "--output.dir", "rollout"],
        ]
        child = ("import sys\nfrom qhedge.cli import main\n"
                 f"for argv in {commands!r}:\n"
                 f"    if main(argv + {size!r}):\n"
                 "        sys.exit(f'{argv[0]} failed')\n")
        src = str(Path(qhedge.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        dirs = []
        for threads in ("1", "2"):
            cwd = tmp_path / f"threads-{threads}"
            cwd.mkdir()
            env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", child], cwd=cwd, env=env,
                                  capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            dirs.append(cwd)
        files = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(dirs[1]) for p in dirs[1].rglob("*")
                               if p.is_file())
        differ = [str(f) for f in files
                  if (dirs[0] / f).read_bytes() != (dirs[1] / f).read_bytes()]
        assert not differ, f"artifacts differ between 1 and 2 BLAS threads: {differ}"


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

    def test_reexported_panel_has_no_seed_line_and_reads_back(self, tmp_path):
        """An ingested ensemble has no seed: simulate re-exports it with a
        header that carries none (not "seed=None"), and the re-export is
        the same panel and the same bytes as the file it came from, but
        for the seed line."""
        out, again = tmp_path / "sim", tmp_path / "again"
        assert run("simulate", "--output.dir", str(out), *SMALL) == 0
        assert run("simulate", "--ingest.path", str(out / "ensemble.csv"), *SMALL,
                   "--output.dir", str(again)) == 0
        text = (again / "ensemble.csv").read_text()
        assert "seed" not in text
        assert text == (out / "ensemble.csv").read_text().replace("# seed=11\n", "")
        first, second = (ingest_prices(d / "ensemble.csv") for d in (out, again))
        assert np.array_equal(first.s_paths, second.s_paths)
        assert second.seed is None

    def test_dataset_file_is_not_a_price_panel(self, tmp_path, capsys):
        """A make-dataset file holds the simulated prices in its s column:
        dp-solve on it is dp-solve at that seed, price0 and hedge0 bit for
        bit.  A file of states, its columns path,t,x,a,r, is a format error
        naming the file and its columns, so states are never read as
        prices."""
        assert run("make-dataset", *SMALL, "--output.dir", str(tmp_path / "ds")) == 0
        f = tmp_path / "ds" / "dataset.csv"
        summaries = []
        for name, argv in (("dp", []), ("dp-ingest", ["--ingest.path", str(f)])):
            assert run("dp-solve", *SMALL, *argv, "--output.dir", str(tmp_path / name)) == 0
            summaries.append({k: v for k, v in read_summary(tmp_path / name / "summary.txt")
                              .items() if k in ("price0", "hedge0")})
        assert summaries[0] == summaries[1] and len(summaries[0]) == 2
        states = tmp_path / "states.csv"
        states.write_text(f.read_text().replace("\npath,t,s,a,r\n", "\npath,t,x,a,r\n"))
        message = f"{states}: columns path,t,x,a,r; a price panel starts path,t,s"
        with pytest.raises(DataFormatError, match=message):
            ingest_prices(states)
        capsys.readouterr()
        out = tmp_path / "dp-states"
        assert run("dp-solve", "--ingest.path", str(states), "--output.dir", str(out),
                   *SMALL) == 3
        assert message in capsys.readouterr().err
        assert not (out / "summary.txt").exists()

    def test_dataset_of_ingested_prices_has_no_seed(self, tmp_path):
        """make-dataset on an ingested panel records the panel's
        seedlessness, not the configured mc.seed: no seed line, and the
        dataset reads back seedless."""
        assert run("simulate", *SMALL, "--mc.seed", "7", "--output.dir",
                   str(tmp_path / "sim")) == 0
        assert run("make-dataset", *SMALL, "--ingest.path", str(tmp_path / "sim" / "ensemble.csv"),
                   "--output.dir", str(tmp_path / "ds")) == 0
        f = tmp_path / "ds" / "dataset.csv"
        assert not any(line.startswith("# seed=") for line in f.read_text().splitlines())
        assert read_dataset_csv(f).paths.seed is None

    def test_rollout_panel_is_a_price_panel(self, tmp_path):
        """rollout.csv starts path,t,S: it reads back as the prices of the
        same config's ensemble.csv."""
        for command in ("rollout", "simulate"):
            assert run(command, *SMALL, "--output.dir", str(tmp_path)) == 0
        params = MarketParams(s0=100.0, mu=0.05, sigma=0.2, r=0.03, maturity=1.0, n_steps=6)
        rolled, simulated = (ingest_prices(tmp_path / f, params)
                             for f in ("rollout.csv", "ensemble.csv"))
        assert np.array_equal(rolled.s_paths, simulated.s_paths)

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
        risk = RiskParams(0.7)
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
        "# mu=0\n# sigma=0.2\n# r=0\n# maturity=1\npath,t,s\n0,0,100\n",
    ])
    def test_malformed_file_names_path(self, tmp_path, body):
        """Empty files, a missing column-name row, malformed rows and a panel
        of one time step are format errors naming the file."""
        f = tmp_path / "panel.csv"
        f.write_text(body)
        with pytest.raises(DataFormatError, match="panel.csv"):
            ingest_prices(f)

    @pytest.mark.parametrize("header, message", [
        ("# mu=abc\n# sigma=0.2\n# r=0\n# maturity=1\n", "header value mu='abc'"),
        ("# sigma=0.2\n# r=0\n# maturity=1\n", "header missing key 'mu'"),
        ("# mu=0\n# sigma=-1\n# r=0\n# maturity=1\n",
         "bad header value for sigma: sigma must be non-negative"),
        ("# mu=0\n# sigma=1e200\n# r=0\n# maturity=1\n",
         "bad header value for sigma: sigma must be at most"),
        ("# mu=0\n# sigma=0.2\n# r=0\n# maturity=0\n",
         "bad header value for maturity: maturity must be positive"),
        ("# mu=nan\n# sigma=0.2\n# r=0\n# maturity=1\n",
         "bad header value for mu: mu must be finite"),
        ("# mu=0\n# sigma=0.2\n# r=0.05\n# maturity=1e308\n",
         "bad header value for maturity: maturity must keep r dt <= 709.783"),
        ("# mu=0\n# sigma=0.2\n# r=-1\n# maturity=1\n",
         "bad header value for r: r must be non-negative"),
    ], ids=["bad_value", "missing_key", "negative_sigma", "huge_sigma", "zero_maturity",
            "nan_mu", "discount_underflows", "negative_r"])
    def test_bad_header_names_file_and_key(self, tmp_path, header, message):
        f = tmp_path / "panel.csv"
        f.write_text(header + "path,t,s\n0,0,100\n0,1,101\n")
        with pytest.raises(DataFormatError, match=rf"panel\.csv: {message}"):
            ingest_prices(f)

    def test_no_data_rows_names_file(self, tmp_path, capsys):
        """A panel with its column names but no rows is a format error
        naming the file, through ingest_prices and the command line."""
        f = tmp_path / "panel.csv"
        f.write_text("path,t,s\n")
        with pytest.raises(DataFormatError) as exc:
            ingest_prices(f)
        assert str(exc.value) == f"{f}: no data rows"
        code = run("simulate", "--ingest.path", str(f), "--market.n_steps", "1",
                   "--output.dir", str(tmp_path / "out"))
        assert code == 3
        assert capsys.readouterr().err == f"numerical failure: {f}: no data rows\n"

    def test_nonpositive_price_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("# mu=0\n# sigma=0.2\n# r=0\n# maturity=1\n"
                     "path,t,s\n0,0,100\n0,1,-5\n")
        with pytest.raises(DataFormatError):
            ingest_prices(f)

    def test_nonpositive_price_names_file_and_cell(self, tmp_path, capsys):
        f = tmp_path / "panel.csv"
        f.write_text("path,t,s\n0,0,100\n0,1,-5\n1,0,100\n1,1,99\n")
        code = run("simulate", "--ingest.path", str(f), "--market.n_steps", "1",
                   "--output.dir", str(tmp_path / "out"))
        assert code == 3
        assert ("panel.csv: non-positive price -5.0 at cell (path=0, t=1)"
                in capsys.readouterr().err)

    def test_step_count_mismatch_names_key_and_file(self, tmp_path, capsys):
        """A 2-step panel under the default 24 steps is a configuration
        error naming market.n_steps and the file, not a numerical failure."""
        f = tmp_path / "panel.csv"
        f.write_text("path,t,s\n0,0,100\n0,1,101\n0,2,99\n"
                     "1,0,100\n1,1,98\n1,2,97\n")
        code = run("simulate", "--ingest.path", str(f),
                   "--output.dir", str(tmp_path / "out"))
        assert code == 2
        assert ("panel.csv: the panel has 2 steps, but market.n_steps is 24"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, key, value", [
        pytest.param(command, key, value, id=f"{prefix}{key}-{value}")
        for command, prefix in (("simulate", ""), ("make-dataset", "dataset-"))
        for key, value in (("mu", "0.03"), ("sigma", "0.3"), ("r", "0.04"), ("maturity", "2"))])
    def test_header_market_contradiction_names_key_and_file(self, tmp_path, capsys,
                                                             command, key, value):
        """A panel recorded under another market, an ensemble.csv or a
        dataset.csv, is a configuration error naming the key, the file and
        both values, not a price computed under the configured market;
        under the panel's market it runs."""
        assert run(command, f"--market.{key}", value, "--output.dir",
                   str(tmp_path / "sim"), *SMALL) == 0
        capsys.readouterr()
        f = tmp_path / "sim" / ("ensemble.csv" if command == "simulate" else "dataset.csv")
        out = tmp_path / "dp"
        assert run("dp-solve", "--ingest.path", str(f), "--output.dir", str(out), *SMALL) == 2
        default = ExperimentConfig.load().values[f"market.{key}"]
        assert (f"{f}: the panel's header has {key}={float(value)}, but market.{key} is "
                f"{default}" in capsys.readouterr().err)
        assert not (out / "summary.txt").exists()
        assert run("dp-solve", "--ingest.path", str(f), f"--market.{key}", value,
                   "--output.dir", str(out), *SMALL) == 0

    def test_dataset_file_ingests_under_its_own_header(self, tmp_path):
        """A make-dataset file carries the ensemble's header: with no market
        configured it reads back as the recorded prices under the dataset's
        own market, maturity included, and without its seed."""
        assert run("make-dataset", *SMALL, "--market.maturity", "2",
                   "--output.dir", str(tmp_path)) == 0
        paths = ingest_prices(tmp_path / "dataset.csv")
        recorded = read_dataset_csv(tmp_path / "dataset.csv").paths
        assert paths.params == recorded.params
        assert paths.params == MarketParams(s0=100.0, mu=0.05, sigma=0.2, r=0.03,
                                            maturity=2.0, n_steps=6)
        assert np.array_equal(paths.s_paths, recorded.s_paths)
        assert (paths.seed, recorded.seed) == (None, 11)

    @pytest.mark.parametrize("n_cpus", [1, 2])
    @pytest.mark.parametrize("command, name", [("simulate", "ensemble.csv"),
                                               ("rollout", "rollout.csv")])
    def test_ingest_peak_below_two_price_panels(self, tmp_path, n_cpus, command, name):
        """A price panel in writer order goes straight into the one panel
        ingest keeps, its other columns dropped a piece at a time: reading
        a 10k x 24 ensemble.csv or rollout.csv traces less than two price
        panels, parsed here or by forked workers, where reading every
        column whole and scattering them took 11.6 for rollout.csv."""
        assert run(command, "--mc.n_paths", "10000", "--market.n_steps", "24",
                   "--rollout.policy", "zero", "--output.dir", str(tmp_path)) == 0
        with split_over(n_cpus, block=1 << 13) as started:
            paths, peak = traced(lambda: ingest_prices(tmp_path / name))
        assert len(started) == (0 if n_cpus == 1 else n_cpus)
        assert peak / paths.s_paths.nbytes < 2

    def test_rollout_panel_carries_the_market_header(self, tmp_path, capsys):
        """rollout.csv carries simulate's market header, so that it ingests
        under its own market with none configured, and is refused under
        another one, naming the key."""
        for command in ("rollout", "simulate"):
            assert run(command, *SMALL, "--output.dir", str(tmp_path)) == 0
        rolled, simulated = (read_columns(tmp_path / f)[0]
                             for f in ("rollout.csv", "ensemble.csv"))
        assert rolled == {**simulated, "policy": "local_risk", "lambda": "0.001"}
        assert (ingest_prices(tmp_path / "rollout.csv").params
                == ingest_prices(tmp_path / "ensemble.csv").params)
        capsys.readouterr()
        out = tmp_path / "dp"
        assert run("dp-solve", *SMALL, "--ingest.path", str(tmp_path / "rollout.csv"),
                   "--market.mu", "0.2", "--market.sigma", "0.5",
                   "--output.dir", str(out)) == 2
        assert "but market.mu is 0.2" in capsys.readouterr().err
        assert not (out / "summary.txt").exists()

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

    @pytest.mark.parametrize("command", ["dp-solve", "compare", "fqi-solve",
                                         "utility-price"])
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
        init = PathEnsemble.__init__

        def counted(self, *args, **kwargs):
            calls.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PathEnsemble, "__init__", counted)
        assert run("fqi-solve", *SMALL, "--dataset.path", dataset_path,
                   "--output.dir", str(tmp_path / "out")) == 0
        assert len(calls) == 1


class TestModelBasedMemory:
    """At the benchmark's model-based shape (Criterion 1's market, 50k
    paths x 24 steps) a whole command traces less than 2.4 float columns
    of records (n_paths x n_steps doubles): the price panel the ensemble
    stores (1.04) plus the larger of the one sorted pool of states behind
    the basis and the solver's working set (2.14 and 2.27; 3.14 and 3.31
    with the state panel stored too and numpy's quantile copying it)."""

    @pytest.mark.parametrize("command", ["dp-solve", "utility-price"])
    def test_whole_command_peak_below_two_point_four_record_columns(self, tmp_path, command):
        market = [f"--market.{k}={v}" for k, v in BENCH_PARAMS.items()]
        assert run(command, *SMALL, "--output.dir", str(tmp_path / "warm")) == 0  # lazy set-up
        code, peak = traced(lambda: run(command, *market, "--mc.n_paths", str(BENCH_PATHS),
                                        "--output.dir", str(tmp_path / "out")))
        assert code == 0
        assert peak / (BENCH_PATHS * BENCH_PARAMS["n_steps"] * 8) < 2.4


def test_tabular_q_peak_below_two_and_a_half_panels(tmp_path):
    """At the benchmark's chain (Criterion 4's market, 50k paths x 12
    steps) the whole tabular-q command traces less than 2.5 panels of
    (n_paths, n_steps+1) doubles: the stored price panel (1.0) plus the
    larger of discretize's working set, whose state index is one uint8
    panel, and q_learn's (2.19 in all; 3.99 with an intp index panel and
    a snapped state panel held beside the prices)."""
    chain = ["--market.mu", "0.03", "--market.r", "0.03", "--market.sigma", "0.10",
             "--market.n_steps", "12", "--contract.strike", "200", "--risk.lambda", "1e-4",
             "--tabular.n_x", "21", "--tabular.n_a", "5", "--tabular.action_lo", "-1.3",
             "--tabular.action_hi", "0.1", "--tabular.alpha0", "1", "--tabular.k0", "1",
             "--tabular.n_updates", "40000"]
    assert run("tabular-q", *SMALL, "--output.dir", str(tmp_path / "warm")) == 0  # lazy set-up
    code, peak = traced(lambda: run("tabular-q", *chain, "--mc.n_paths", str(BENCH_PATHS),
                                    "--output.dir", str(tmp_path / "out")))
    assert code == 0
    assert peak / (BENCH_PATHS * 13 * 8) < 2.5


def test_rollout_peak_below_six_panels(tmp_path):
    """At the benchmark's artifacts shape (Criterion 1's market, 10k paths
    x 24 steps) the whole rollout command traces less than 6 panels of
    (n_paths, n_steps+1) doubles: the price, action and portfolio panels
    plus a block's working set (4.3; 7.6 with whole bank-account and
    reward panels built to be checked and written)."""
    market = [f"--market.{k}={v}" for k, v in BENCH_PARAMS.items()]
    assert run("rollout", *SMALL, "--output.dir", str(tmp_path / "warm")) == 0  # lazy set-up
    code, peak = traced(lambda: run("rollout", *market, "--mc.n_paths", "10000",
                                    "--output.dir", str(tmp_path / "out")))
    assert code == 0
    assert peak / (10000 * (BENCH_PARAMS["n_steps"] + 1) * 8) < 6


@pytest.mark.parametrize("command, policy", [("simulate", None),
                                             *(("rollout", p) for p in POLICIES),
                                             *(("make-dataset", p) for p in POLICIES)])
def test_writers_build_no_derived_panel(tmp_path, monkeypatch, command, policy):
    """simulate, rollout and make-dataset write the states their ensemble
    derives from its prices a block of rows at a time, and rollout its
    bank account and rewards: none builds a whole derived panel."""
    def refuse(self, *rows):
        raise AssertionError("a whole derived panel was built")
    monkeypatch.setattr(PathEnsemble, "_panel", refuse)
    for name in ("b_account", "rewards"):
        monkeypatch.setattr(PortfolioRollout, name, property(refuse))
    section = "dataset" if command == "make-dataset" else "rollout"
    extra = [] if policy is None else [f"--{section}.policy", policy]
    assert run(command, *SMALL, *extra, "--output.dir", str(tmp_path)) == 0


class TestBenchmarkScripts:
    """The benchmark's helper scripts still run against the package: the
    ``artifacts`` check's round trip, and the traced launcher that wraps
    ``HedgeStrategy.actions`` and ``NormalEquations.solve``."""

    TINY = ["--market.mu", "0.03", "--market.n_steps", "6", "--mc.n_paths", "400",
            "--basis.m", "8", "--mc.seed", "11"]

    @staticmethod
    def script(name, *argv):
        root = Path(__file__).resolve().parents[1]
        src = str(Path(qhedge.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, str(root / "perfbench" / name), *argv],
                              env=env, capture_output=True, text=True, timeout=120)

    def test_roundtrip_exact_and_traced_bs_quote(self, tmp_path):
        assert run("simulate", *self.TINY, "--output.dir", str(tmp_path / "simulate")) == 0
        rollout = [*self.TINY, "--output.dir", str(tmp_path / "rollout")]
        assert run("rollout", *rollout) == 0
        out = tmp_path / "roundtrip.json"
        proc = self.script("roundtrip.py", str(out), "rollout", *rollout)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["exact"]
        proc = self.script("traced.py", str(tmp_path / "spans.json"), "bs-quote",
                           "--output.dir", str(tmp_path / "bs"))
        assert proc.returncode == 0, proc.stderr
