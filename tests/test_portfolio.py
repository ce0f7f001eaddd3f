"""Replicating-portfolio rollout, rewards, hedges and pricing forms."""

import numpy as np
import pytest

from qhedge import (HedgeStrategy, MarketParams, OptionContract, PathEnsemble, RiskParams,
                    ask_price, build_basis, build_dataset, dataset_rewards,
                    fqi_backward, read_dataset_csv,
                    rollout_portfolio, signed_measure_weights, simulate_gbm, solve_dp,
                    solve_local_risk, terminal_payoff, write_dataset_csv)
from qhedge.errors import DegenerateInputError
from qhedge.portfolio import hedge_step

PUT = OptionContract("put", 100.0)


def gbm(n_paths=2000, seed=0, **kw):
    base = dict(s0=100.0, mu=0.05, sigma=0.2, r=0.03, maturity=1.0, n_steps=6)
    base.update(kw)
    params = MarketParams(**base)
    return simulate_gbm(params, n_paths, seed=seed)


def hand_ensemble(prices, mu=0.0, sigma=0.2, r=0.0, maturity=None):
    """Small ensemble with hand-picked prices (mu defaults to r so the
    model-implied increment mean is exactly zero)."""
    prices = np.asarray(prices, dtype=float)
    n_steps = prices.shape[1] - 1
    params = MarketParams(s0=prices[0, 0], mu=mu, sigma=sigma, r=r,
                          maturity=maturity or float(n_steps), n_steps=n_steps)
    return PathEnsemble(prices, params)


class TestRiskParams:
    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_rejects_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="^lambda must be non-negative and finite"):
            RiskParams(lam)


class TestRollout:
    def test_zero_strategy_discounts_payoff(self):
        paths = gbm()
        risk = RiskParams(0.001)
        roll = rollout_portfolio(paths, HedgeStrategy.zero(), PUT, risk)
        payoff = terminal_payoff(paths.s_paths[:, -1], PUT)
        disc = np.exp(-paths.params.r * paths.params.maturity)
        np.testing.assert_allclose(roll.pi[:, 0], disc * payoff, rtol=1e-12)

    def test_unit_hedge_telescopes_at_zero_rate(self):
        paths = gbm(r=0.0, mu=0.0)
        risk = RiskParams(0.0)
        roll = rollout_portfolio(paths, HedgeStrategy.constant(1.0), PUT, risk)
        payoff = terminal_payoff(paths.s_paths[:, -1], PUT)
        expected = payoff - (paths.s_paths[:, -1] - paths.s_paths[:, 0])
        np.testing.assert_allclose(roll.pi[:, 0], expected, rtol=1e-10, atol=1e-10)

    def test_two_step_hand_unroll(self):
        """Backward recursion against an explicit spreadsheet-style unroll."""
        prices = np.array([[100.0, 110.0, 95.0],
                           [100.0, 90.0, 105.0]])
        paths = hand_ensemble(prices, r=0.0)
        u = np.array([[0.5, 0.25], [0.5, -0.75]])
        risk = RiskParams(0.0)
        roll = rollout_portfolio(paths, HedgeStrategy.from_matrix(u), PUT, risk)
        # path 0: payoff 5; Pi_1 = 5 - 0.25*(95-110) = 8.75; Pi_0 = 8.75 - 0.5*10 = 3.75
        # path 1: payoff 0; Pi_1 = 0 + 0.75*(105-90) = 11.25; Pi_0 = 11.25 - 0.5*(-10) = 16.25
        np.testing.assert_allclose(roll.pi[:, 0], [3.75, 16.25], rtol=1e-12)

    def test_identities_across_strategies(self):
        """Pi = u S + B pointwise and the one-step self-financing identity,
        for zero, constant, risk-minimizing and recorded-matrix strategies."""
        paths = gbm(n_paths=400, seed=9)
        params = paths.params
        risk = RiskParams(0.01)
        basis = build_basis("bspline", 8, paths.x_paths.ravel())
        lr_coeffs, _ = solve_local_risk(paths, PUT, basis)
        rng = np.random.default_rng(3)
        strategies = [
            HedgeStrategy.zero(),
            HedgeStrategy.constant(-0.5),
            HedgeStrategy.from_coefficients(basis, lr_coeffs),
            HedgeStrategy.from_matrix(rng.uniform(-1, 1, (400, params.n_steps))),
        ]
        growth = np.exp(params.r * params.dt)
        for strat in strategies:
            roll = rollout_portfolio(paths, strat, PUT, risk)
            u, s, b = roll.actions, paths.s_paths, roll.b_account
            scale = np.maximum(np.abs(roll.pi), 1.0)
            assert np.max(np.abs(roll.pi - (u * s + b)) / scale) < 1e-10
            lhs = u[:, :-1] * s[:, 1:] + growth * b[:, :-1]
            rhs = u[:, 1:] * s[:, 1:] + b[:, 1:]
            assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)) < 1e-10

    def test_shape_mismatch(self):
        paths = gbm(n_paths=50)
        risk = RiskParams(0.0)
        bad = HedgeStrategy.from_matrix(np.zeros((50, 99)))
        with pytest.raises(ValueError):
            rollout_portfolio(paths, bad, PUT, risk)

    def test_coefficient_count_mismatch(self):
        paths = gbm(n_paths=50)
        risk = RiskParams(0.0)
        steps = paths.n_steps
        bad = HedgeStrategy.from_coefficients(None, [np.zeros(3)] * (steps - 1))
        with pytest.raises(ValueError, match=f"^{steps - 1} coefficient vectors "
                                             f"for {steps} steps$"):
            rollout_portfolio(paths, bad, PUT, risk)


@pytest.mark.parametrize("solver", ["rollout", "local_risk", "dp", "dataset_rewards", "fqi"])
def test_each_pass_derives_each_increment_once(monkeypatch, tmp_path, solver):
    """Every backward pass forms each dS_t once, from prices it derives
    once: on a dataset read back from its file, whose prices are derived
    from its states, S_T for the payoff, then S_T and each S_t once more
    in the recursion, which forms dS_t from S_(t+1) and S_t and hands S_t
    to the hedge rule, n_steps + 2 derivations (at 12 steps, 25 when each
    dS_t derived its own pair, 37 when a hedge step's model center of dS_t
    derived S_t once more)."""
    sim, risk = gbm(n_paths=400, n_steps=12), RiskParams(1e-3)
    basis = build_basis("bspline", 8, sim.x_paths.ravel())
    actions = np.random.default_rng(1).uniform(-1, 1, (400, sim.n_steps))
    write_dataset_csv(build_dataset(sim, actions, dataset_rewards(sim, actions, PUT, risk,
                                                                  basis), risk.lam, PUT),
                      tmp_path / "dataset.csv")
    dataset = read_dataset_csv(tmp_path / "dataset.csv")
    paths = dataset.paths
    run = {"rollout": lambda: rollout_portfolio(paths, HedgeStrategy.constant(0.5), PUT, risk),
           "local_risk": lambda: solve_local_risk(paths, PUT, basis),
           "dp": lambda: solve_dp(paths, PUT, risk, basis),
           "dataset_rewards": lambda: dataset_rewards(paths, actions, PUT, risk, basis),
           "fqi": lambda: fqi_backward(dataset, basis)}[solver]
    calls = []
    s = PathEnsemble.s
    monkeypatch.setattr(PathEnsemble, "s", lambda self, t: calls.append(t) or s(self, t))
    run()
    assert calls == [paths.n_steps, *range(paths.n_steps, -1, -1)]


def local_risk_fit(paths, pi_next, basis, t, ds_mean="model"):
    """The shared hedge step with no tilt, as ``solve_local_risk`` runs it:
    Pi_{t+1} centered on its conditional mean, dS_t on the model-implied
    one or, under ``ds_mean="regression"``, on its regression."""
    return hedge_step(basis.evaluate(paths.x_paths[:, t]), paths, t, pi_next,
                      paths.delta_s(t), paths.s(t), ds_mean=ds_mean)[1]


class TestLocalRiskHedge:
    def test_perfect_replication_gives_unit_hedge(self):
        """Pi_{t+1} = dS_t makes cov/var = 1 identically when both moments
        are centered by the same conditional-mean estimate."""
        paths = gbm(n_paths=1000, mu=0.03, seed=4)
        basis = build_basis("one_hot_grid", 6, paths.x_paths.ravel())
        coeffs = local_risk_fit(paths, paths.delta_s(2), basis, 2, ds_mean="regression")
        # near-empty edge buckets feel the ridge more; identity exact without it
        np.testing.assert_allclose(basis.evaluate(paths.x_paths[:, 2]) @ coeffs,
                                   1.0, atol=1e-4)

    def test_constant_target_gives_zero_hedge(self):
        paths = gbm(n_paths=1000, mu=0.03, seed=4)
        basis = build_basis("one_hot_grid", 6, paths.x_paths.ravel())
        coeffs = local_risk_fit(paths, np.full(1000, 7.3), basis, 1, ds_mean="regression")
        np.testing.assert_allclose(basis.evaluate(paths.x_paths[:, 1]) @ coeffs,
                                   0.0, atol=1e-6)

    def test_three_path_hand_example(self):
        """Sample cov/var arithmetic: dS = (-1, 0, 1), Pi = (-2, 0, 2) -> 2."""
        prices = np.array([[10.0, 9.0], [10.0, 10.0], [10.0, 11.0]])
        paths = hand_ensemble(prices, r=0.0, mu=0.0)
        basis = build_basis("one_hot_grid", 1, paths.x_paths.ravel())
        coeffs = local_risk_fit(paths, np.array([-2.0, 0.0, 2.0]), basis, 0)
        # the 1e-8 trace-scaled ridge perturbs the pure ratio at that order
        np.testing.assert_allclose(coeffs, [2.0], rtol=1e-7)

    def test_degenerate_increments(self):
        prices = np.full((4, 2), 100.0)
        paths = hand_ensemble(prices, r=0.0, mu=0.0)
        basis = build_basis("one_hot_grid", 1, paths.x_paths.ravel())
        with pytest.raises(DegenerateInputError):
            solve_local_risk(paths, PUT, basis)


class TestReward:
    """Realized rewards of a rollout: pooled sample-mean centering, with
    the terminal variance penalty in the expiry column."""

    def test_zero_lambda_zero_action(self):
        paths = gbm()
        risk = RiskParams(0.0)
        roll = rollout_portfolio(paths, HedgeStrategy.zero(), PUT, risk)
        np.testing.assert_array_equal(roll.rewards[:, :-1], 0.0)

    def test_zero_lambda_is_linear_gain(self):
        paths = gbm()
        risk = RiskParams(0.0)
        roll = rollout_portfolio(paths, HedgeStrategy.constant(0.7), PUT, risk)
        for t in (0, 3):
            np.testing.assert_allclose(roll.rewards[:, t],
                                       paths.params.gamma * 0.7 * paths.delta_s(t),
                                       rtol=1e-12)

    def test_variance_penalty_mean(self):
        """lam=1, a=0: mean reward equals -lam gamma^2 Var(Pi_{t+1})."""
        paths = gbm(seed=8)
        risk = RiskParams(1.0)
        roll = rollout_portfolio(paths, HedgeStrategy.zero(), PUT, risk)
        t = 2
        pi_next = roll.pi[:, t + 1]
        expected = -paths.params.gamma**2 * np.mean((pi_next - pi_next.mean()) ** 2)
        np.testing.assert_allclose(roll.rewards[:, t].mean(), expected, rtol=1e-12)

    def test_terminal_penalty(self):
        paths = gbm(seed=8)
        risk = RiskParams(0.5)
        roll = rollout_portfolio(paths, HedgeStrategy.zero(), PUT, risk)
        payoff = terminal_payoff(paths.s_paths[:, -1], PUT)
        np.testing.assert_allclose(roll.rewards[:, -1].mean(), -0.5 * payoff.var(),
                                   rtol=1e-12)


class TestSignedMeasure:
    def test_weights_sum_to_one_every_slice(self):
        paths = gbm(n_paths=3000, seed=13)
        for t in range(paths.n_steps):
            w = signed_measure_weights(paths, t)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_near_uniform_when_driftless(self):
        paths = gbm(n_paths=20_000, mu=0.03, seed=2)
        w = signed_measure_weights(paths, 3)
        assert np.max(np.abs(w * paths.n_paths - 1.0)) < 0.2

    def test_three_path_hand_formula(self):
        """dS = (-1, 0, 4): m = 1, v = 14/3, weights (10/21, 17/42, 5/42)."""
        prices = np.array([[10.0, 9.0], [10.0, 10.0], [10.0, 14.0]])
        paths = hand_ensemble(prices, r=0.0, mu=0.0)
        w = signed_measure_weights(paths, 0)
        np.testing.assert_allclose(w, [10.0 / 21, 17.0 / 42, 5.0 / 42], rtol=1e-12)

    def test_reweighted_fair_price_recursion(self):
        """sum_k w_k gamma Pi_{t+1} = gamma (mean Pi - u* mean dS) with u*
        the pooled cov/var ratio: the one-step fair-price identity."""
        paths = gbm(n_paths=5000, seed=5)
        risk = RiskParams(0.0)
        roll = rollout_portfolio(paths, HedgeStrategy.zero(), PUT, risk)
        g = paths.params.gamma
        for t in range(paths.n_steps):
            w = signed_measure_weights(paths, t)
            ds = paths.delta_s(t)
            pi_next = roll.pi[:, t + 1]
            u_star = np.mean((pi_next - pi_next.mean()) * (ds - ds.mean())) \
                / np.mean((ds - ds.mean()) ** 2)
            lhs = np.sum(w * g * pi_next)
            rhs = g * (pi_next.mean() - u_star * ds.mean())
            assert abs(lhs - rhs) / max(abs(rhs), 1.0) < 1e-10

    def test_zero_variance_rejected(self):
        prices = np.full((3, 2), 50.0)
        paths = hand_ensemble(prices, r=0.0, mu=0.0)
        with pytest.raises(DegenerateInputError):
            signed_measure_weights(paths, 0)


class TestAskPrice:
    def test_lambda_zero_is_fair_price(self):
        paths = gbm(seed=21)
        basis = build_basis("bspline", 8, paths.x_paths.ravel())
        risk = RiskParams(0.0)
        roll = rollout_portfolio(paths, HedgeStrategy.zero(), PUT, risk)
        np.testing.assert_allclose(ask_price(paths, roll, risk, basis),
                                   roll.pi[:, 0].mean(), rtol=1e-12)

    def test_deterministic_world_prices_at_discounted_payoff(self):
        params = MarketParams(s0=100.0, mu=0.02, sigma=0.0, r=0.02,
                              maturity=1.0, n_steps=4)
        paths = simulate_gbm(params, 20, seed=0)
        contract = OptionContract("put", 110.0)
        basis = build_basis("one_hot_grid", 1, paths.x_paths.ravel())
        for lam in (0.0, 0.5, 5.0):
            risk = RiskParams(lam)
            roll = rollout_portfolio(paths, HedgeStrategy.zero(), contract, risk)
            payoff = terminal_payoff(paths.s_paths[0, -1], contract)
            np.testing.assert_allclose(ask_price(paths, roll, risk, basis),
                                       np.exp(-0.02) * payoff, rtol=1e-10)

    def test_monotone_in_lambda(self):
        paths = gbm(seed=30)
        basis = build_basis("bspline", 8, paths.x_paths.ravel())
        risk0 = RiskParams(0.0)
        roll = rollout_portfolio(paths, HedgeStrategy.zero(), PUT, risk0)
        prices = [ask_price(paths, roll, RiskParams(lam),
                            basis)
                  for lam in (0.0, 1e-3, 1e-2, 1e-1)]
        assert np.all(np.diff(prices) > 0)

    def test_two_step_hand_sum(self):
        """With a single-cell basis the conditional variances are pooled, so
        the ask price reduces to mean(Pi_0) + lam * sum_t e^{-rt} Var(Pi_t)."""
        paths = gbm(n_paths=300, n_steps=2, seed=17)
        basis = build_basis("one_hot_grid", 1, paths.x_paths.ravel())
        risk = RiskParams(0.01)
        roll = rollout_portfolio(paths, HedgeStrategy.constant(-0.3), PUT, risk)
        params = paths.params
        expected = roll.pi[:, 0].mean()
        for t in range(3):
            expected += 0.01 * np.exp(-params.r * t * params.dt) * roll.pi[:, t].var()
        np.testing.assert_allclose(ask_price(paths, roll, risk, basis),
                                   expected, rtol=1e-8)

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_dp_price_on_dp_rollout(self, seed):
        """The paper's price = -Q*: on DP's own hedged rollout at mu = r the
        ask equals DP's price0.  Both sum lam gamma^t Var[Pi_t | x_t] over
        t = 0 .. T, so the gap is the difference of their regressions: at
        most 3.1e-5 relative over 200 seeds at this size.  A Q target
        without gamma moves it by 2.8e-2 or more, and one without the
        terminal variance by 1.07e-4 or more."""
        paths = gbm(seed=seed, mu=0.03)
        basis = build_basis("bspline", 8, paths.x_paths)
        risk = RiskParams(1e-3)
        sol = solve_dp(paths, PUT, risk, basis)
        strategy = HedgeStrategy.from_coefficients(basis, sol.hedge_coeffs)
        roll = rollout_portfolio(paths, strategy, PUT, risk)
        np.testing.assert_allclose(ask_price(paths, roll, risk, basis), sol.price0, rtol=6e-5)
