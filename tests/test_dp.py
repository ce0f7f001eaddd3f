"""Dynamic-programming solver: closed-form actions, Q-fits, convergence."""

import numpy as np
import pytest

from qhedge import (MarketParams, OptionContract, PathEnsemble, RiskParams, bs_price_delta,
                    build_basis, price_and_hedge_surface,
                    reward_parabola, simulate_gbm, solve_dp, solve_local_risk,
                    terminal_payoff)
from qhedge.errors import SingularSystemError
from qhedge.regression import RIDGE_SCALE, conditional_variance, least_squares
from tests.test_market import BENCH_PARAMS, BENCH_PATHS, traced
from tests.test_portfolio import local_risk_fit

PUT = OptionContract("put", 100.0)


def gbm(n_paths=4000, seed=0, **kw):
    base = dict(s0=100.0, mu=0.03, sigma=0.2, r=0.03, maturity=1.0, n_steps=6)
    base.update(kw)
    return simulate_gbm(MarketParams(**base), n_paths, seed=seed)


def hand_ensemble(prices, mu=0.0, r=0.0):
    prices = np.asarray(prices, dtype=float)
    params = MarketParams(s0=prices[0, 0], mu=mu, sigma=0.2, r=r,
                          maturity=float(prices.shape[1] - 1),
                          n_steps=prices.shape[1] - 1)
    return PathEnsemble(prices, params)


class TestOptimalActionCoeffs:
    """The action solve inside solve_dp (``hedge_coeffs``)."""

    def test_large_lambda_equals_local_risk(self):
        """The 1/(2 gamma lam) term vanishes, leaving the pure risk hedge:
        the same coefficients at the last step and the same fitted actions
        at every step (at t = 0 all states coincide, so the coefficients
        themselves are fixed only up to the ridge)."""
        paths = gbm(mu=0.05, seed=3)
        basis = build_basis("bspline", 8, paths.x_paths.ravel())
        risk = RiskParams(1e12)
        sol = solve_dp(paths, PUT, risk, basis)
        lr_coeffs, _ = solve_local_risk(paths, PUT, basis)
        t = paths.n_steps - 1
        pi_next = terminal_payoff(paths.s_paths[:, -1], PUT)
        np.testing.assert_allclose(sol.hedge_coeffs[t],
                                   local_risk_fit(paths, pi_next, basis, t), atol=1e-10)
        for t in range(paths.n_steps):
            design = basis.evaluate(paths.x_paths[:, t])
            np.testing.assert_allclose(design @ sol.hedge_coeffs[t],
                                       design @ lr_coeffs[t], atol=1e-10)

    def test_one_hot_is_per_bucket_ratio(self):
        """Two buckets, hand sums: coeff_b = sum_b(pi_dev ds_dev) / sum_b(ds_dev^2)
        with bucket-mean centering and the exact zero drift of mu == r."""
        prices = np.array([[100.0, 104.0], [100.0, 97.0],
                           [120.0, 131.0], [120.0, 112.0]])
        paths = hand_ensemble(prices)
        basis = build_basis("one_hot_grid", 2, paths.x_paths[:, 0])
        contract = OptionContract("put", 120.0)
        pi_next = terminal_payoff(prices[:, 1], contract)  # 16, 23, 0, 8
        risk = RiskParams(0.5)
        coeffs = solve_dp(paths, contract, risk, basis).hedge_coeffs[0]
        expected = np.empty(2)
        for b, rows in enumerate(([0, 1], [2, 3])):
            ds = prices[rows, 1] - prices[rows, 0]
            pi = pi_next[rows]
            ds_dev = ds - 0.0  # model mean is zero at mu == r
            pi_dev = pi - pi.mean() * (len(rows) / (len(rows) + 1e-8 * 2))
            expected[b] = (pi_dev * ds_dev).sum() / (ds_dev**2).sum()
        np.testing.assert_allclose(coeffs, expected, rtol=1e-6)

    def test_grid_search_oracle_one_step(self):
        """On one cell whose model increment mean 100 (e^mu - 1) equals the
        sample mean of dS (1), the action equals the argmax of the summed
        sampled reward over a fine action grid (brute-force oracle)."""
        prices = np.array([[100.0, 93.0], [100.0, 109.0]])
        paths = hand_ensemble(prices, mu=np.log(1.01))
        basis = build_basis("one_hot_grid", 1, paths.x_paths[:, 0])
        pi_next = terminal_payoff(prices[:, 1], PUT)
        risk = RiskParams(0.2)
        sol = solve_dp(paths, PUT, risk, basis)
        g = paths.params.gamma
        ds = paths.delta_s(0)
        grid = np.arange(-2.0, 2.0 + 1e-12, 1e-4)
        pi_dev, ds_dev = pi_next - pi_next.mean(), ds - ds.mean()
        total = np.empty(grid.size)
        for i, a in enumerate(grid):
            rew = g * a * ds - risk.lam * g**2 * (pi_dev - a * ds_dev) ** 2
            total[i] = rew.sum()
        a_star = grid[np.argmax(total)]
        assert abs(float(sol.hedge_coeffs[0][0]) - a_star) <= 1e-4

    def test_lambda_zero_rejected(self):
        paths = gbm(n_paths=100)
        basis = build_basis("bspline", 6, paths.x_paths.ravel())
        risk = RiskParams(0.0)
        with pytest.raises(ValueError, match="solve_local_risk"):
            solve_dp(paths, PUT, risk, basis)


class TestOptimalQCoeffs:
    """The Q fit inside solve_dp: a ridge solve on the step's design."""

    @staticmethod
    def q_fit(paths, targets, basis, t):
        design = basis.evaluate(paths.x_paths[:, t])
        return least_squares(design, targets)

    def test_constant_target_on_indicators(self):
        """The Gram of indicators is diag(c), c a bucket's sample count, and
        its trace is n, so each occupied bucket solves (c + eps) w = 4.2 c
        with the ridge eps = RIDGE_SCALE n / m: w = 4.2 c / (c + eps), a
        sparse bucket's as exactly as a full one's."""
        paths = gbm(n_paths=500, seed=1)
        basis = build_basis("one_hot_grid", 5, paths.x_paths.ravel())
        coeffs = self.q_fit(paths, np.full(500, 4.2), basis, 2)
        counts = basis.evaluate(paths.x_paths[:, 2]).sum(axis=0)
        c, eps = counts[counts > 0], RIDGE_SCALE * 500 / counts.size
        np.testing.assert_allclose(coeffs[counts > 0], 4.2 * c / (c + eps), rtol=1e-12)

    def test_two_bucket_hand_means(self):
        prices = np.array([[100.0, 104.0], [100.0, 97.0],
                           [120.0, 131.0], [120.0, 112.0]])
        paths = hand_ensemble(prices)
        basis = build_basis("one_hot_grid", 2, paths.x_paths[:, 0])
        targets = np.array([1.0, 3.0, 10.0, 14.0])
        coeffs = self.q_fit(paths, targets, basis, 0)
        np.testing.assert_allclose(coeffs, [2.0, 12.0], rtol=1e-7)

    def test_sums_past_the_doubles_name_the_fit(self):
        """Rows whose products leave the doubles raise naming the fit, with
        no overflow warning: in the Gram of the scaled rows, in Phi^T y,
        and in the squared residual of a variance fit."""
        paths = gbm(n_paths=500, seed=1)
        design = build_basis("bspline", 6, paths.x_paths.ravel()).evaluate(
            paths.x_paths[:, 2])
        y = np.random.default_rng(1).standard_normal(500)
        for scale, target in ((np.full(500, 1e160), y), (None, 1e308 * np.sign(y))):
            with pytest.raises(SingularSystemError,
                               match=r"^Q fit: normal equations not finite$"):
                least_squares(design, target, scale, what="Q fit")
        with pytest.raises(SingularSystemError,
                           match=r"^payoff variance: squared residual not finite$"):
            conditional_variance(design, 1e300 * y, what="payoff variance")

    def test_zero_everything_is_zero(self):
        """Zero payoff, zero action value: every fitted Q coefficient of
        solve_dp is exactly zero."""
        paths = gbm(n_paths=500, seed=1)
        basis = build_basis("bspline", 6, paths.x_paths.ravel())
        worthless = OptionContract("put", 1e-6)
        risk = RiskParams(1e-3)
        sol = solve_dp(paths, worthless, risk, basis)
        np.testing.assert_allclose(np.array(sol.value_coeffs), 0.0, atol=1e-12)


class TestSolveDP:
    def test_working_set_below_two_point_three_record_columns(self):
        """At the benchmark's model-based shape solve_dp allocates less than
        2.3 float columns of records (n_paths x n_steps doubles) beyond the
        ensemble: the portfolio recursion holds Pi_(t+1) and Pi_t, not the
        panel of every step."""
        paths = gbm(n_paths=BENCH_PATHS, seed=42, **BENCH_PARAMS)
        basis = build_basis("bspline", 12, paths.x_paths)
        sol, peak = traced(lambda: solve_dp(paths, PUT, RiskParams(1e-3), basis))
        assert np.isfinite(sol.price0)
        assert peak / (BENCH_PATHS * paths.n_steps * 8) < 2.3

    def test_working_set_below_one_point_six_record_columns(self):
        """The terminal design is freed once Q_T is fitted, so solve_dp's
        working set holds one step's design, not two, and stays below 1.6
        record columns at the benchmark's model-based shape."""
        paths = gbm(n_paths=BENCH_PATHS, seed=42, **BENCH_PARAMS)
        basis = build_basis("bspline", 12, paths.x_paths)
        _, peak = traced(lambda: solve_dp(paths, PUT, RiskParams(1e-3), basis))
        assert peak / (BENCH_PATHS * paths.n_steps * 8) < 1.6

    @pytest.mark.parametrize("lam, market, message", [
        (1e-300, {}, r"Q target .* not finite at step 5 \(risk\.lambda = 1e-300\)"),
        (1e-3, {"r": 700.0, "maturity": 1.0, "n_steps": 1},
         r"tilt drift / \(2 gamma lambda\) not finite at step 0 \(risk\.lambda = 0\.001, "
         r"gamma = 9\.85968e-305\)"),
    ], ids=["tiny_lambda", "tiny_discount"])
    def test_past_the_doubles_names_risk_lambda(self, lam, market, message):
        """The optimal action's tilt drift / (2 gamma lambda) grows as 1/lambda
        and 1/gamma: a tiny lambda takes the Q target past the doubles, and
        gamma = e^(-700) the tilt itself.  Either raises naming risk.lambda
        and the step, with no overflow warning."""
        paths = gbm(n_paths=500, seed=1, mu=0.05, **market)
        basis = build_basis("bspline", 8, paths.x_paths.ravel())
        with pytest.raises(SingularSystemError, match=message):
            solve_dp(paths, PUT, RiskParams(lam), basis)

    def test_deterministic_world_prices_at_payoff(self):
        """sigma = 0, r = 0: the price is the certain payoff itself; the
        degenerate action system is absorbed by the ridge floor."""
        params = MarketParams(s0=100.0, mu=0.0, sigma=0.0, r=0.0,
                              maturity=1.0, n_steps=4)
        paths = simulate_gbm(params, 30, seed=0)
        contract = OptionContract("put", 110.0)
        basis = build_basis("one_hot_grid", 1, paths.x_paths.ravel())
        sol = solve_dp(paths, contract, RiskParams(1e-3), basis)
        np.testing.assert_allclose(sol.price0, 10.0, rtol=1e-6)

    def test_one_period_hand_unroll(self):
        """T=1 on three paths, single-cell basis: the price is
        -( mean reward at a* + gamma * mean terminal Q )."""
        prices = np.array([[100.0, 90.0], [100.0, 100.0], [100.0, 112.0]])
        paths = hand_ensemble(prices)
        basis = build_basis("one_hot_grid", 1, paths.x_paths.ravel())
        lam, g = 0.1, paths.params.gamma  # 1 at r = 0
        risk = RiskParams(lam)
        sol = solve_dp(paths, PUT, risk, basis)

        payoff = terminal_payoff(prices[:, 1], PUT)
        q_term = -payoff - lam * payoff.var()       # single cell: pooled variance
        ds = prices[:, 1] - prices[:, 0]
        pi_dev = payoff - payoff.mean()
        a_star = (pi_dev * ds).sum() / (ds**2).sum()  # drift term 0 at mu == r
        rew = g * a_star * ds - lam * g**2 * (pi_dev - a_star * ds) ** 2
        expected = -(rew.mean() + g * q_term.mean())
        np.testing.assert_allclose(sol.price0, expected, rtol=1e-6)

    def test_bs_convergence_quick(self):
        """Small-step limit sanity at reduced size (the acceptance suite
        runs the full configuration)."""
        paths = gbm(n_paths=20_000, mu=0.03, sigma=0.15, n_steps=12, seed=42)
        basis = build_basis("bspline", 12, paths.x_paths.ravel())
        risk = RiskParams(1e-3)
        sol = solve_dp(paths, PUT, risk, basis)
        quote = bs_price_delta(100.0, 100.0, 0.15, 0.03, 1.0, "put")
        assert abs(sol.price0 - quote.price) / quote.price < 0.03
        assert abs(sol.hedge0 - quote.delta) < 0.03

    def test_price_monotone_in_lambda(self):
        paths = gbm(n_paths=8000, seed=11)
        basis = build_basis("bspline", 10, paths.x_paths.ravel())
        prices = [solve_dp(paths, PUT, RiskParams(lam),
                           basis).price0
                  for lam in (1e-4, 1e-3, 1e-2)]
        assert prices[0] < prices[1] < prices[2]

    def test_hedge_lambda_free_when_mu_equals_r(self):
        """With mu == r the model-implied drift term is exactly zero, so the
        action coefficients cannot move as lambda grows."""
        paths = gbm(n_paths=3000, seed=7)
        basis = build_basis("bspline", 8, paths.x_paths.ravel())
        sols = [solve_dp(paths, PUT, RiskParams(lam),
                         basis)
                for lam in (1e-4, 1e-3, 1e-2)]
        for t in range(paths.n_steps):
            np.testing.assert_allclose(sols[0].hedge_coeffs[t],
                                       sols[1].hedge_coeffs[t], atol=1e-10)
            np.testing.assert_allclose(sols[1].hedge_coeffs[t],
                                       sols[2].hedge_coeffs[t], atol=1e-10)

    def test_rejects_lambda_zero(self):
        paths = gbm(n_paths=100)
        basis = build_basis("bspline", 6, paths.x_paths.ravel())
        with pytest.raises(ValueError):
            solve_dp(paths, PUT, RiskParams(0.0), basis)

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_put_call_parity_at_mu_equals_r(self, seed):
        """At mu == r the call and put on one ensemble satisfy
        C - P = S0 - K e^{-rT} and Delta_C - Delta_P = 1.  Over seeds 1-10
        at this size (10k paths, 24 steps, ATM, sigma 0.15, lam 1e-3,
        12 B-splines) the gaps stayed within 3.7e-3 and 1.6e-3; the bounds
        are 1e-2 and 5e-3.  At mu != r the price gap is systematic (-0.007
        to -0.012 at mu 0.05 and 20k paths), so it is not asserted there."""
        paths = gbm(n_paths=10_000, sigma=0.15, n_steps=24, seed=seed)
        basis = build_basis("bspline", 12, paths.x_paths.ravel())
        risk = RiskParams(1e-3)
        call = solve_dp(paths, OptionContract("call", 100.0), risk, basis)
        put = solve_dp(paths, PUT, risk, basis)
        forward = 100.0 - 100.0 * np.exp(-0.03 * 1.0)
        assert abs(call.price0 - put.price0 - forward) <= 1e-2
        assert abs(call.hedge0 - put.hedge0 - 1.0) <= 5e-3

    def test_finite_state_brute_force(self):
        """On a small indicator-basis instance, the semi-analytic price
        matches exhaustive backward induction over a 41-point action grid
        to within the grid's quadratic error bound."""
        paths = gbm(n_paths=3000, n_steps=3, seed=19)
        basis = build_basis("one_hot_grid", 5, paths.x_paths.ravel())
        lam = 1e-4
        risk = RiskParams(lam)
        sol = solve_dp(paths, PUT, risk, basis, ds_mean="regression")

        # independent exhaustive induction on the bucket chain
        g = paths.params.gamma
        n_x = 5
        idx = np.stack([basis.bucket_of(paths.x_paths[:, t])
                        for t in range(4)], axis=1)
        payoff = terminal_payoff(paths.s_paths[:, -1], PUT)

        def bmeans(ix, v):
            cnt = np.bincount(ix, minlength=n_x).astype(float)
            tot = np.bincount(ix, weights=v, minlength=n_x)
            return np.where(cnt > 0, tot / np.maximum(cnt, 1), 0.0)

        # reference rollout with the solver's own actions (the identity under
        # test is the value recursion, not the hedge)
        pi = np.empty((3000, 4))
        pi[:, -1] = payoff
        for t in range(2, -1, -1):
            a = basis.evaluate(paths.x_paths[:, t]) @ sol.hedge_coeffs[t]
            pi[:, t] = g * (pi[:, t + 1] - a * paths.delta_s(t))

        grid = np.linspace(-1.5, 0.5, 41)
        ix_T = idx[:, -1]
        pay_var = bmeans(ix_T, payoff**2) - bmeans(ix_T, payoff) ** 2
        v_next = bmeans(ix_T, -payoff) - lam * np.maximum(pay_var, 0.0)
        max_curv = 0.0
        for t in range(2, -1, -1):
            ix = idx[:, t]
            ds = paths.delta_s(t)
            ds_dev = ds - bmeans(ix, ds)[ix]
            pi_dev = pi[:, t + 1] - bmeans(ix, pi[:, t + 1])[ix]
            c0 = -lam * g**2 * pi_dev**2 + g * v_next[idx[:, t + 1]]
            c1 = g * ds_dev + 2 * lam * g**2 * pi_dev * ds_dev
            c2 = -lam * g**2 * ds_dev**2
            qa = (bmeans(ix, c0)[:, None] + bmeans(ix, c1)[:, None] * grid
                  + bmeans(ix, c2)[:, None] * grid**2)
            v_next = qa.max(axis=1)
            max_curv = max(max_curv, np.abs(bmeans(ix, c2)).max())
        brute = -v_next[idx[0, 0]]
        step = grid[1] - grid[0]
        bound = 3 * max_curv * (step / 2) ** 2 + 1e-9
        assert abs(sol.price0 - brute) <= bound


class TestQuadraticInAction:
    def test_three_point_parabola_reconstruction(self):
        """The Bellman target is an exact parabola in the action: a Lagrange
        fit through a in {-1, 0, 1} reproduces the value at a = 2."""
        paths = gbm(n_paths=300, seed=23)
        risk = RiskParams(0.05)
        rng = np.random.default_rng(4)
        payoff = terminal_payoff(paths.s_paths[:, -1], PUT)
        for _ in range(100):
            t = int(rng.integers(0, paths.n_steps))
            k = int(rng.integers(0, paths.n_paths))
            ds = paths.delta_s(t)
            c0, c1, c2 = reward_parabola(ds, payoff, risk, paths.params.gamma,
                                         pi_center=payoff.mean(),
                                         ds_center=ds.mean())
            target = lambda a: c0[k] + c1[k] * a + c2[k] * a**2
            f_m, f_0, f_p = target(-1.0), target(0.0), target(1.0)
            # Lagrange through three nodes evaluated at a = 2
            recon = f_m * 1.0 - f_0 * 3.0 + f_p * 3.0
            direct = target(2.0)
            assert abs(recon - direct) <= 1e-10 * max(abs(direct), 1e-30)

    def test_analytic_action_is_parabola_argmax(self):
        paths = gbm(n_paths=300, seed=24)
        risk = RiskParams(0.05)
        payoff = terminal_payoff(paths.s_paths[:, -1], PUT)
        t = 2
        ds = paths.delta_s(t)
        c0, c1, c2 = reward_parabola(ds, payoff, risk, paths.params.gamma,
                                     pi_center=payoff.mean(), ds_center=ds.mean())
        pi_dev = payoff - payoff.mean()
        ds_dev = ds - ds.mean()
        closed = (pi_dev * ds_dev + ds / (2 * paths.params.gamma * risk.lam)) / ds_dev**2
        argmax = -c1 / (2 * c2)
        np.testing.assert_allclose(argmax, closed, rtol=1e-10)


class TestSurfaces:
    def test_training_states_reproduce_fitted_q(self):
        paths = gbm(n_paths=2000, seed=31)
        basis = build_basis("bspline", 8, paths.x_paths.ravel())
        risk = RiskParams(1e-3)
        sol = solve_dp(paths, PUT, risk, basis)
        t = 3
        prices, hedges = price_and_hedge_surface(sol, basis, paths.x_paths[:, t])
        design = basis.evaluate(paths.x_paths[:, t])
        np.testing.assert_allclose(prices[t], -(design @ sol.value_coeffs[t]),
                                   rtol=1e-12)
        np.testing.assert_allclose(hedges[t], design @ sol.hedge_coeffs[t],
                                   rtol=1e-12)

    def test_one_hot_surface_is_piecewise_constant(self):
        paths = gbm(n_paths=2000, seed=32)
        basis = build_basis("one_hot_grid", 6, paths.x_paths.ravel())
        risk = RiskParams(1e-3)
        sol = solve_dp(paths, PUT, risk, basis)
        lo, hi = paths.x_paths.min(), paths.x_paths.max()
        xs = np.linspace(lo, hi, 300)
        prices, _ = price_and_hedge_surface(sol, basis, xs)
        assert np.unique(np.round(prices[2], 12)).size <= 6

    def test_early_hedge_surface_near_bs_delta(self):
        """First dispersed step, mu = r, small dt: the fitted hedge tracks
        the BS delta within 0.05 over the central 80% of states."""
        paths = gbm(n_paths=30_000, mu=0.03, sigma=0.15, n_steps=24, seed=42)
        params = paths.params
        basis = build_basis("bspline", 12, paths.x_paths.ravel())
        risk = RiskParams(1e-3)
        sol = solve_dp(paths, PUT, risk, basis)
        t = 1
        xs = np.quantile(paths.x_paths[:, t], np.linspace(0.1, 0.9, 33))
        _, hedges = price_and_hedge_surface(sol, basis, xs)
        from qhedge import from_state
        tau = params.maturity - t * params.dt
        for x, h in zip(xs, hedges[t]):
            s = float(from_state(x, t * params.dt, params))
            delta = bs_price_delta(s, 100.0, 0.15, 0.03, tau, "put").delta
            assert abs(h - delta) < 0.05
