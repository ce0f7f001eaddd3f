"""Exponential-utility hedges and indifference prices."""

from dataclasses import replace

import numpy as np
import pytest

from qhedge import (BasisSet, MarketParams, OptionContract, PathEnsemble, bs_price_delta,
                    build_basis, indifference_price_recursion, simulate_gbm)
from qhedge.errors import DegenerateInputError, SingularSystemError
from tests.test_market import BENCH_PARAMS, BENCH_PATHS, traced

PUT = OptionContract("put", 100.0)


def unit_basis():
    return BasisSet("one_hot_grid", 1, edges=np.array([-1e9, 1e9]))


def rn_gbm(n_paths=20_000, seed=0, **kw):
    """Risk-neutral ensemble (mu == r), as the pricing measure requires."""
    base = dict(s0=100.0, mu=0.03, sigma=0.15, r=0.03, maturity=1.0, n_steps=6)
    base.update(kw)
    return simulate_gbm(MarketParams(**base), n_paths, seed=seed)


def hand_ensemble(prices):
    prices = np.asarray(prices, dtype=float)
    params = MarketParams(s0=prices[0, 0], mu=0.0, sigma=0.2, r=0.0,
                          maturity=float(prices.shape[1] - 1),
                          n_steps=prices.shape[1] - 1)
    return PathEnsemble(prices, params)


def step_hedge(paths, h_next, t, g, **kw):
    """The recursion's hedge coefficients on the one-step ensemble of step
    t, with terminal values ``h_next``, on the single flat cell."""
    step = PathEnsemble(paths.s_paths[:, t:t + 2],
                        replace(paths.params, maturity=paths.params.dt, n_steps=1))
    return indifference_price_recursion(step, PUT, g, unit_basis(),
                                        terminal_values=h_next, **kw).hedge_coeffs[0]


class TestHedgeExpansion:
    def test_perfect_replication(self):
        """h_{t+1} = dS_t gives u0 = 1 and a vanishing first correction."""
        paths = rn_gbm(n_paths=5000, seed=1)
        h_next = paths.delta_s(2)
        u0 = step_hedge(paths, h_next, 2, 0.0, order=0)
        u1 = step_hedge(paths, h_next, 2, 1.0, order=1) - u0
        np.testing.assert_allclose(u0, [1.0], rtol=1e-12)
        np.testing.assert_allclose(u1, [0.0], atol=1e-12)

    def test_constant_claim_needs_no_hedge(self):
        paths = rn_gbm(n_paths=5000, seed=1)
        u0 = step_hedge(paths, np.full(5000, 3.3), 1, 0.0, order=0)
        np.testing.assert_allclose(u0, [0.0], atol=1e-12)

    def test_three_path_hand_moments(self):
        """u0 and u1 from explicit weighted-moment arithmetic."""
        prices = np.array([[10.0, 9.0], [10.0, 10.0], [10.0, 12.0]])
        paths = hand_ensemble(prices)
        h_next = np.array([2.0, 1.0, 5.0])
        ds = np.array([-1.0, 0.0, 2.0])
        ds_c = ds - ds.mean()
        var = np.mean(ds_c**2)
        u0 = np.mean(h_next * ds_c) / var
        resid = h_next - u0 * ds_c
        u1 = 0.5 * np.mean(resid**2 * ds_c) / var
        got0 = step_hedge(paths, h_next, 0, 0.0, order=0)
        got1 = step_hedge(paths, h_next, 0, 0.07, order=1)
        np.testing.assert_allclose(got0, [u0], rtol=1e-12)
        np.testing.assert_allclose(got1, [u0 + 0.07 * u1], rtol=1e-12)

    def test_zero_variance_rejected(self):
        prices = np.full((4, 2), 10.0)
        paths = hand_ensemble(prices)
        with pytest.raises(DegenerateInputError):
            step_hedge(paths, np.ones(4), 0, 0.0, order=0)


class TestNumericHedge:
    def test_perfect_replication_any_aversion(self):
        paths = rn_gbm(n_paths=3000, seed=2)
        h_next = paths.delta_s(1)
        for g in (0.01, 0.5, 3.0):
            u = step_hedge(paths, h_next, 1, g, method="numeric")
            np.testing.assert_allclose(u, [1.0], atol=1e-9)

    def test_small_aversion_limit_is_u0(self):
        paths = rn_gbm(n_paths=3000, seed=3)
        payoff = np.maximum(100.0 - paths.s_paths[:, -1], 0.0)
        u0 = step_hedge(paths, payoff, 4, 0.0, order=0)[0]
        u = step_hedge(paths, payoff, 4, 1e-5, method="numeric")[0]
        assert abs(u - u0) < 1e-3

    def test_quadratic_shrinkage_vs_expansion(self):
        """|numeric - (u0 + g u1)| = O(g^2): halving g shrinks the gap by
        roughly 4 (band [2, 8] at this sample size)."""
        paths = rn_gbm(n_paths=30_000, seed=4, n_steps=2)
        payoff = np.maximum(100.0 - paths.s_paths[:, -1], 0.0)
        errs = []
        for g in (0.04, 0.02):
            exp1 = step_hedge(paths, payoff, 1, g, order=1)[0]
            num = step_hedge(paths, payoff, 1, g, method="numeric")[0]
            errs.append(abs(num - exp1))
        assert 2.0 < errs[0] / errs[1] < 8.0


class TestIndifferencePrice:
    def test_working_set_below_one_point_four_record_columns(self):
        """At the benchmark's model-based shape the recursion allocates less
        than 1.4 float columns of records (n_paths x n_steps doubles) beyond
        the ensemble: each step zeroes the unoccupied cells of its own
        design rather than weighting a copy of it."""
        paths = rn_gbm(n_paths=BENCH_PATHS, seed=42, **BENCH_PARAMS)
        basis = build_basis("bspline", 12, paths.x_paths)
        res, peak = traced(lambda: indifference_price_recursion(paths, PUT, 0.01, basis))
        assert np.isfinite(res.price0)
        assert peak / (BENCH_PATHS * paths.n_steps * 8) < 1.4

    def test_constant_claim_discounts(self):
        """A constant terminal claim is worth its discounted value at every
        aversion level (and exactly b when r = 0)."""
        paths = rn_gbm(n_paths=2000, seed=5, mu=0.0, r=0.0)
        basis = build_basis("one_hot_grid", 8, paths.x_paths.ravel())
        for g in (1e-8, 0.05, 1.0):
            res = indifference_price_recursion(paths, PUT, g, basis,
                                               terminal_values=7.25)
            np.testing.assert_allclose(res.price0, 7.25, rtol=1e-10)
        res = indifference_price_recursion(paths, PUT, 0.3, basis, order=1,
                                           method="numeric",
                                           terminal_values=7.25)
        np.testing.assert_allclose(res.price0, 7.25, rtol=1e-10)

    def test_risk_neutral_limit_matches_analytic_price(self):
        """g -> 0, order 0: the discounted risk-neutral expectation, within
        the chain-of-cells Monte Carlo error of the analytic value."""
        paths = rn_gbm(n_paths=40_000, seed=6)
        basis = build_basis("one_hot_grid", 25, paths.x_paths.ravel())
        res = indifference_price_recursion(paths, PUT, 1e-10, basis, order=0)
        quote = bs_price_delta(100.0, 100.0, 0.15, 0.03, 1.0, "put")
        assert abs(res.price0 - quote.price) / quote.price < 0.02

    def test_order_one_adds_nonnegative_premium(self):
        paths = rn_gbm(n_paths=10_000, seed=7)
        basis = build_basis("one_hot_grid", 12, paths.x_paths.ravel())
        g = 0.02
        p0 = indifference_price_recursion(paths, PUT, g, basis, order=0).price0
        p1 = indifference_price_recursion(paths, PUT, g, basis, order=1).price0
        assert p1 >= p0

    def test_monotone_in_aversion(self):
        paths = rn_gbm(n_paths=10_000, seed=8)
        basis = build_basis("one_hot_grid", 12, paths.x_paths.ravel())
        prices = [indifference_price_recursion(paths, PUT, g, basis,
                                               order=1).price0
                  for g in (0.002, 0.01, 0.05)]
        assert prices[0] < prices[1] < prices[2]

    def test_large_exponent_rescaled_not_overflowed(self):
        paths = rn_gbm(n_paths=2000, seed=9, n_steps=2)
        basis = build_basis("one_hot_grid", 6, paths.x_paths.ravel())
        res = indifference_price_recursion(paths, PUT, 5.0, basis,
                                           method="numeric")
        assert np.isfinite(res.price0)

    def test_linear_claim_prices_at_replication_cost(self):
        """A claim linear in S_T over one step is perfectly replicable, so
        every slippage moment vanishes and the price is aversion-free."""
        paths = rn_gbm(n_paths=4000, seed=12, n_steps=1)
        claim = 2.0 * paths.s_paths[:, -1] - 50.0
        cells = build_basis("one_hot_grid", 5, paths.x_paths.ravel())
        prices = []
        for g, method in ((0.01, "expansion"), (1.0, "expansion"),
                          (0.01, "numeric"), (1.0, "numeric")):
            res = indifference_price_recursion(paths, PUT, g, cells,
                                               order=2, method=method,
                                               terminal_values=claim)
            prices.append(res.price0)
        np.testing.assert_allclose(prices, prices[0], rtol=1e-9)

    @pytest.mark.parametrize("method, order", [("expansion", 1), ("expansion", 2),
                                               ("numeric", 1)])
    def test_values_past_the_doubles_raise_naming_the_step(self, method, order):
        """An aversion that takes a value or hedge past the doubles raises
        at the first step where it happens, never returning a NaN or an
        infinite price."""
        paths = rn_gbm(n_paths=200, seed=9, n_steps=2)
        basis = build_basis("one_hot_grid", 4, paths.x_paths.ravel())
        with pytest.raises(SingularSystemError, match="not finite at step 1"):
            indifference_price_recursion(paths, PUT, 1e308, basis, order=order,
                                         method=method)

    @pytest.mark.parametrize("method", ["expansion", "numeric"])
    def test_increments_past_the_doubles_name_the_rate(self, method):
        """At r dt = 700, e^(r dt) S_t is about 1e306 in every dS, whose
        centered square leaves the doubles whatever the risk aversion: the
        error names dS and market.r, not the aversion."""
        paths = rn_gbm(n_paths=500, seed=9, mu=0.03, r=700.0, n_steps=1)
        basis = build_basis("one_hot_grid", 4, paths.x_paths.ravel())
        with pytest.raises(SingularSystemError, match=r"increments dS = .* not finite at "
                                                      r"step 0 \(market\.r = 700, "):
            indifference_price_recursion(paths, PUT, 0.01, basis, method=method)

    def test_infinite_increments_are_not_a_zero_variance(self):
        """At r dt = 709, e^(r dt) S_t itself overflows, every dS is -inf and
        each cell's centered variance NaN: still named as dS past the
        doubles, not as a cell without dispersion."""
        paths = rn_gbm(n_paths=500, seed=9, mu=0.03, r=709.0, n_steps=1)
        basis = build_basis("one_hot_grid", 4, paths.x_paths.ravel())
        with pytest.raises(SingularSystemError, match=r"increments dS = .* not finite at "
                                                      r"step 0 \(market\.r = 709, "):
            indifference_price_recursion(paths, PUT, 0.01, basis)

    def test_numeric_needs_positive_aversion(self):
        paths = rn_gbm(n_paths=500, seed=9, n_steps=2)
        basis = build_basis("one_hot_grid", 4, paths.x_paths.ravel())
        with pytest.raises(ValueError):
            indifference_price_recursion(paths, PUT, 0.0, basis,
                                         method="numeric")

    def test_expansion_hedges_stored_per_step(self):
        """The first-step hedge approaches the analytic delta once the cell
        grid resolves the continuation value (coarse cells flatten it)."""
        paths = rn_gbm(n_paths=20_000, seed=10, n_steps=4)
        basis = build_basis("one_hot_grid", 40, paths.x_paths.ravel())
        res = indifference_price_recursion(paths, PUT, 0.01, basis, order=1)
        assert len(res.hedge_coeffs) == 4
        x0_cell = basis.bucket_of([paths.x_paths[0, 0]])[0]
        quote = bs_price_delta(100.0, 100.0, 0.15, 0.03, 1.0, "put")
        assert abs(res.hedge_coeffs[0][x0_cell] - quote.delta) < 0.05
