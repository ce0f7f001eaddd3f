"""Fitted Q-iteration: features, weights, file round-trip, DP agreement."""

import numpy as np
import pytest

from qhedge import (BasisSet, DatasetHeader, FQISolution, MarketParams,
                    OptionContract, RiskParams, TransitionDataset,
                    build_basis, build_dataset, build_features,
                    extract_price_hedge, fqi_backward, read_dataset_csv,
                    simulate_gbm, solve_dp, solve_local_risk,
                    write_dataset_csv)
from qhedge.cli import dataset_rewards
from qhedge.errors import DataFormatError

PUT = OptionContract("put", 100.0)


def unit_basis():
    """Single flat cell: Phi(x) = 1 everywhere."""
    return BasisSet("one_hot_grid", 1, edges=np.array([-1e9, 1e9]))


def gbm(n_paths=8000, seed=0, **kw):
    base = dict(s0=100.0, mu=0.03, sigma=0.15, r=0.03, maturity=1.0, n_steps=8)
    base.update(kw)
    return simulate_gbm(MarketParams(**base), n_paths, seed=seed)


def make_pipeline(paths, lam=1e-3, m=10):
    basis = build_basis("bspline", m, paths.x_paths.ravel())
    risk = RiskParams.from_market(lam, paths.params)
    return basis, risk


class TestFeatures:
    def test_zero_action_interleaves_zeros(self):
        basis = build_basis("one_hot_grid", 3, np.linspace(0, 1, 50))
        psi = build_features(basis.evaluate([0.1]), [0.0])
        assert psi.shape == (1, 9)
        np.testing.assert_array_equal(psi[0, 0::3], basis.evaluate([0.1])[0])
        np.testing.assert_array_equal(psi[0, 1::3], 0.0)
        np.testing.assert_array_equal(psi[0, 2::3], 0.0)

    def test_flat_single_cell(self):
        psi = build_features(unit_basis().evaluate([0.0]), [2.0])
        np.testing.assert_array_equal(psi, [[1.0, 2.0, 2.0]])

    def test_vectorization_identity(self):
        """wvec . Psi(x, a) == (1, a, a^2/2) W Phi(x) for random W, x, a."""
        rng = np.random.default_rng(5)
        basis = build_basis("bspline", 7, rng.normal(size=500))
        w = rng.normal(size=(3, 7))
        wvec = w.T.ravel()  # column-major over the 3 x M layout
        x = rng.normal(size=40)
        a = rng.normal(size=40)
        psi = build_features(basis.evaluate(x), a)
        lhs = psi @ wvec
        amat = np.stack([np.ones(40), a, 0.5 * a**2], axis=1)
        rhs = np.einsum("ki,ij,kj->k", amat, w, basis.evaluate(x))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestSingleStepRegression:
    def test_hand_least_squares(self):
        """One step, flat basis: W equals the 3-column least squares of the
        targets on (1, a, a^2/2), checked against numpy's lstsq."""
        # sigma = 0 in the header makes the state exactly log S
        x = np.full(4, np.log(100.0))
        x_next = np.log(np.array([95.0, 99.0, 104.0, 108.0]))
        a = np.array([-1.0, 0.0, 0.5, 1.0])
        r = np.array([0.3, -0.1, 0.2, 0.4])
        header = DatasetHeader(n_paths=4, n_steps=1, mu=0.0, sigma=0.0, r=0.0,
                               dt=1.0, lam=0.5, seed=0,
                               extras={"s0": 100.0, "contract_kind": "put",
                                       "contract_strike": 100.0})
        ds = TransitionDataset.from_records(np.arange(4), np.zeros(4, dtype=int),
                                            x, a, r, x_next, header)
        basis = unit_basis()
        sol = fqi_backward(ds, basis)
        # oracle: terminal Q is the flat-cell fit of -payoff - lam Var(payoff)
        payoff = np.maximum(100.0 - np.exp(x_next), 0.0)
        q_term = (-payoff - 0.5 * payoff.var()).mean()
        targets = r + 1.0 * q_term
        design = np.stack([np.ones(4), a, 0.5 * a**2], axis=1)
        expected, *_ = np.linalg.lstsq(design, targets, rcond=None)
        np.testing.assert_allclose(sol.weights[0][:, 0], expected, rtol=1e-6)


class TestAgainstDP:
    def test_on_policy_reproduces_dp(self):
        paths = gbm(seed=3)
        basis, risk = make_pipeline(paths)
        dp = solve_dp(paths, PUT, risk, basis)
        actions = np.column_stack(
            [basis.evaluate(paths.x_paths[:, t]) @ dp.hedge_coeffs[t]
             for t in range(paths.n_steps)])
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        ds = build_dataset(paths, actions, rewards, risk.lam, PUT)
        sol = fqi_backward(ds, basis)
        assert abs(sol.price0 - dp.price0) / dp.price0 < 0.02
        assert abs(sol.hedge0 - dp.hedge0) < 0.05

    def test_off_policy_random_actions(self):
        """Uniformly random actions still recover the price and hedge."""
        paths = gbm(seed=3)
        basis, risk = make_pipeline(paths)
        dp = solve_dp(paths, PUT, risk, basis)
        rng = np.random.default_rng(9)
        actions = rng.uniform(-1.5, 1.5, size=(paths.n_paths, paths.n_steps))
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        ds = build_dataset(paths, actions, rewards, risk.lam, PUT)
        sol = fqi_backward(ds, basis)
        assert abs(sol.price0 - dp.price0) / dp.price0 < 0.05
        assert abs(sol.hedge0 - dp.hedge0) < 0.10

    def test_residuals_have_zero_mean(self):
        """The Bellman regression treats its noise as zero-mean: fitted
        residuals at each step satisfy |mean| <= 4 std / sqrt(N)."""
        paths = gbm(seed=3)
        basis, risk = make_pipeline(paths)
        rng = np.random.default_rng(9)
        actions = rng.uniform(-1.5, 1.5, size=(paths.n_paths, paths.n_steps))
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        ds = build_dataset(paths, actions, rewards, risk.lam, PUT)
        sol = fqi_backward(ds, basis)
        # recompute targets/fits at the last step, where v is the terminal fit
        t = paths.n_steps - 1
        v = basis.evaluate(ds.x_paths[:, t + 1]) @ sol.terminal_value_coeffs
        targets = ds.r[:, t] + risk.gamma * v
        fitted = build_features(basis.evaluate(ds.x_paths[:, t]), ds.a[:, t]) \
            @ sol.weights[t].T.ravel()
        resid = targets - fitted
        assert abs(resid.mean()) <= 4 * resid.std() / np.sqrt(resid.size)

    def test_reads_out_at_the_recorded_start_state(self):
        """price0 and hedge0 are the fitted Q and action at the start state
        every path records, not at their mean, which at 2000 paths is an
        ulp off it."""
        paths = gbm(n_paths=2000, seed=3)
        x0 = paths.x_paths[0, 0]
        assert paths.x_paths[:, 0].mean() != x0
        basis, risk = make_pipeline(paths)
        actions = np.random.default_rng(9).uniform(-1.5, 1.5,
                                                   (paths.n_paths, paths.n_steps))
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        sol = fqi_backward(build_dataset(paths, actions, rewards, risk.lam, PUT), basis)
        phi0 = basis.evaluate([x0])
        hedge0 = float((phi0 @ sol.action_coeffs[0])[0])
        u0 = phi0 @ sol.weights[0].T
        assert sol.hedge0 == hedge0
        assert sol.price0 == -float(u0[0, 0] + hedge0 * u0[0, 1]
                                    + 0.5 * hedge0**2 * u0[0, 2])

    def test_crossfit_mode_close_to_analytic(self):
        """The data-only fallback needs enough risk aversion for the
        quadratic action coefficient to be identifiable."""
        paths = gbm(n_paths=20_000, seed=5)
        basis, risk = make_pipeline(paths, lam=0.05)
        rng = np.random.default_rng(2)
        actions = rng.uniform(-1.5, 1.5, size=(paths.n_paths, paths.n_steps))
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        ds = build_dataset(paths, actions, rewards, risk.lam, PUT)
        ana = fqi_backward(ds, basis, action_source="analytic")
        cf = fqi_backward(ds, basis, action_source="crossfit")
        assert abs(cf.price0 - ana.price0) / ana.price0 < 0.10


class TestExtract:
    def solution_with_flat_q(self, u0, u1, u2):
        w = np.array([[u0], [u1], [u2]], dtype=float)
        return FQISolution(weights=[w], terminal_value_coeffs=np.array([0.0]),
                           action_coeffs=None, price0=0.0, hedge0=0.0)

    def test_vertex_arithmetic(self):
        sol = self.solution_with_flat_q(5.0, 2.0, -1.0)
        price, hedge = extract_price_hedge(sol, unit_basis(), 0.0, 0)
        assert hedge == 2.0
        assert price == -7.0

    def test_symmetric_parabola_hedges_zero(self):
        sol = self.solution_with_flat_q(3.0, 0.0, -2.0)
        price, hedge = extract_price_hedge(sol, unit_basis(), 0.0, 0)
        assert hedge == 0.0 and price == -3.0

    def test_degenerate_without_fallback(self):
        from qhedge.errors import SingularSystemError
        sol = self.solution_with_flat_q(3.0, 1.0, 0.0)
        with pytest.raises(SingularSystemError):
            extract_price_hedge(sol, unit_basis(), 0.0, 0)

    def test_degenerate_with_fallback(self):
        sol = self.solution_with_flat_q(3.0, 1.0, 0.0)
        sol.action_coeffs = [np.array([0.25])]
        price, hedge = extract_price_hedge(sol, unit_basis(), 0.0, 0)
        assert hedge == 0.25
        assert price == -(3.0 + 0.25)

    def test_hedge_close_to_dp_on_generated_data(self):
        """Vertex read-out of the fitted parabola; its linear and quadratic
        coefficients scale with lam, so identifiability needs lam large
        enough (the analytic route covers the small-lam regime)."""
        paths = gbm(n_paths=20_000, seed=13)
        basis, risk = make_pipeline(paths, lam=0.05)
        dp = solve_dp(paths, PUT, risk, basis)
        rng = np.random.default_rng(1)
        actions = rng.uniform(-1.5, 1.5, size=(paths.n_paths, paths.n_steps))
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        ds = build_dataset(paths, actions, rewards, risk.lam, PUT)
        sol = fqi_backward(ds, basis)
        _, hedge = extract_price_hedge(sol, basis, paths.x_paths[0, 0], 0)
        assert abs(hedge - dp.hedge0) < 0.05


class TestDatasetIO:
    def test_roundtrip_field_for_field(self, tmp_path):
        paths = gbm(n_paths=60, seed=1, n_steps=4)
        basis, risk = make_pipeline(paths, m=6)
        coeffs, pi = solve_local_risk(paths, PUT, basis)
        rng = np.random.default_rng(0)
        actions = rng.uniform(-1, 1, size=(60, 4))
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        ds = build_dataset(paths, actions, rewards, risk.lam, PUT)
        f = tmp_path / "data.csv"
        write_dataset_csv(ds, f)
        back = read_dataset_csv(f)
        assert np.array_equal(back.path_ids, ds.path_ids)
        assert np.array_equal(back.x_paths, ds.x_paths)
        assert np.array_equal(back.a, ds.a)
        assert np.array_equal(back.r, ds.r)
        assert back.header == ds.header

    def test_missing_slice_rejected(self):
        header = DatasetHeader(n_paths=2, n_steps=2, mu=0.0, sigma=0.2, r=0.0,
                               dt=0.5, lam=0.1, seed=0)
        with pytest.raises(DataFormatError):
            TransitionDataset.from_records(
                path_ids=[0, 1, 0], t=[0, 0, 1], x=[0.0, 0.0, 0.1],
                a=[0.0] * 3, r=[0.0] * 3, x_next=[0.1, 0.2, 0.2],
                header=header)

    def test_duplicate_record_rejected(self):
        header = DatasetHeader(n_paths=2, n_steps=2, mu=0.0, sigma=0.2, r=0.0,
                               dt=0.5, lam=0.1, seed=0)
        with pytest.raises(DataFormatError, match=r"duplicate rows for cell \(path=0, t=0\)"):
            TransitionDataset.from_records(
                path_ids=[0, 0, 1, 1], t=[0, 0, 1, 1], x=[0.0] * 4,
                a=[0.0] * 4, r=[0.0] * 4, x_next=[0.1] * 4, header=header)

    def test_nonfinite_reward_rejected(self):
        header = DatasetHeader(n_paths=1, n_steps=1, mu=0.0, sigma=0.2, r=0.0,
                               dt=1.0, lam=0.1, seed=0)
        with pytest.raises(DataFormatError):
            TransitionDataset.from_records([0], [0], [0.0], [0.0], [np.nan], [0.1],
                                           header)

    @pytest.mark.parametrize("field", ["x", "a", "x_next"])
    def test_nonfinite_state_or_action_rejected(self, field):
        header = DatasetHeader(n_paths=1, n_steps=1, mu=0.0, sigma=0.2, r=0.0,
                               dt=1.0, lam=0.1, seed=0)
        rec = dict(x=[0.0], a=[0.0], r=[0.0], x_next=[0.1])
        rec[field] = [np.inf]
        with pytest.raises(DataFormatError, match=f"non-finite {field}"):
            TransitionDataset.from_records([0], [0], header=header, **rec)

    def test_x_next_must_match_next_state(self):
        """A path's x_next at t is its x at t+1: the rebuilt panel keeps
        only one of them, so a disagreement would price two panels."""
        header = DatasetHeader(n_paths=2, n_steps=2, mu=0.0, sigma=0.2, r=0.0,
                               dt=0.5, lam=0.1, seed=0)
        with pytest.raises(DataFormatError, match=r"path=1, t=0"):
            TransitionDataset.from_records(
                path_ids=[0, 0, 1, 1], t=[0, 1, 0, 1], x=[0.0, 0.1, 0.0, 0.2],
                a=[0.0] * 4, r=[0.0] * 4, x_next=[0.1, 0.3, 0.25, 0.1],
                header=header)

    def test_time_outside_horizon_rejected(self):
        header = DatasetHeader(n_paths=1, n_steps=1, mu=0.0, sigma=0.2, r=0.0,
                               dt=1.0, lam=0.1, seed=0)
        with pytest.raises(DataFormatError, match=r"cell \(path=0, t=1\) is outside"):
            TransitionDataset.from_records([0, 0], [0, 1], [0.0, 0.1], [0.0, 0.0],
                                           [0.0, 0.0], [0.1, 0.2], header)

    def test_header_missing_keys(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("# n_paths=1\npath,t,x,a,r,x_next\n0,0,0,0,0,0\n")
        with pytest.raises(DataFormatError):
            read_dataset_csv(f)

    def test_bad_header_value_names_key_and_file(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("# n_paths=abc\n# n_steps=1\n# mu=0\n# sigma=0.2\n# r=0\n"
                     "# dt=1\n# lambda=0.1\n# seed=0\npath,t,x,a,r,x_next\n"
                     "0,0,0,0,0,0.1\n")
        with pytest.raises(DataFormatError, match=r"bad\.csv.*n_paths='abc'"):
            read_dataset_csv(f)

    def test_row_order_is_free(self, tmp_path):
        """Shuffling a written dataset's data rows gives the same panels and
        the same price, bit for bit."""
        paths = gbm(n_paths=400, seed=2, n_steps=4)
        basis, risk = make_pipeline(paths, m=6)
        actions = np.random.default_rng(4).uniform(-1, 1, size=(400, 4))
        rewards = dataset_rewards(paths, actions, PUT, risk, basis)
        f = tmp_path / "data.csv"
        write_dataset_csv(build_dataset(paths, actions, rewards, risk.lam, PUT), f)
        lines = f.read_text().splitlines(keepends=True)
        head = sum(ln.startswith("#") for ln in lines) + 1
        rows = lines[head:]
        np.random.default_rng(5).shuffle(rows)
        g = tmp_path / "shuffled.csv"
        g.write_text("".join(lines[:head] + rows))
        ds, back = read_dataset_csv(f), read_dataset_csv(g)
        for name in ("path_ids", "x_paths", "a", "r"):
            assert np.array_equal(getattr(back, name), getattr(ds, name))
        assert fqi_backward(back, basis).price0 == fqi_backward(ds, basis).price0

    def test_fractional_path_id_rejected(self, tmp_path):
        """A fractional path id is rejected, not truncated to an integer."""
        f = tmp_path / "bad.csv"
        f.write_text("# n_paths=2\n# n_steps=1\n# mu=0\n# sigma=0.2\n# r=0\n"
                     "# dt=1\n# lambda=0.1\n# seed=0\npath,t,x,a,r,x_next\n"
                     "0,0,0,0,0,0.1\n2.7,0,0,0,0,0.2\n")
        with pytest.raises(DataFormatError, match=r"data row 2 is \[2\.7, 0\.0"):
            read_dataset_csv(f)

    @pytest.mark.parametrize("rows, message", [
        ("0,0,0,0,0,0.1\n0,1,0.1,0,0,0.2\n0,1,0.1,0,0,0.2\n",
         r"duplicate rows for cell \(path=0, t=1\)"),
        ("0,0,0,0,0,0.1\n0,1,0.1,0,0,0.2\n1,1,0.1,0,0,0.2\n",
         r"missing cell \(path=1, t=0\)"),
    ], ids=["duplicate", "missing"])
    def test_record_errors_name_file_and_cell(self, tmp_path, rows, message):
        f = tmp_path / "data.csv"
        f.write_text("# n_paths=2\n# n_steps=2\n# mu=0\n# sigma=0.2\n# r=0\n"
                     "# dt=0.5\n# lambda=0.1\n# seed=0\npath,t,x,a,r,x_next\n" + rows)
        with pytest.raises(DataFormatError, match=rf"data\.csv: {message}"):
            read_dataset_csv(f)

    def test_contract_required(self):
        header = DatasetHeader(n_paths=2, n_steps=1, mu=0.0, sigma=0.2, r=0.0,
                               dt=1.0, lam=0.1, seed=0, extras={"s0": 100.0})
        ds = TransitionDataset.from_records([0, 1], [0, 0], [4.6, 4.6], [0.0, 0.0],
                                            [0.0, 0.0], [4.61, 4.59], header)
        with pytest.raises(DataFormatError, match="contract"):
            fqi_backward(ds, unit_basis())
