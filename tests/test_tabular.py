"""Discretized chain: transitions, exact induction, online Q-learning."""

import numpy as np
import pytest

from qhedge import (DiscreteMDP, MarketParams, OptionContract, PathEnsemble, RiskParams,
                    discretize, exact_backward_induction,
                    q_learn, simulate_gbm)
from qhedge.tabular import _SnappedPrices
from tests.test_market import traced

PUT = OptionContract("put", 100.0)


def gbm(n_paths=4000, seed=0, **kw):
    base = dict(s0=100.0, mu=0.03, sigma=0.2, r=0.03, maturity=1.0, n_steps=4)
    base.update(kw)
    return simulate_gbm(MarketParams(**base), n_paths, seed=seed)


def tiny_mdp(probs, coeffs, terminal_q, actions, gamma=1.0):
    """Hand-assembled chain; probs (T, n_x, n_x), coeffs same + (3,)."""
    probs = np.asarray(probs, dtype=float)
    n_steps, n_x, _ = probs.shape
    reach = np.ones((n_steps + 1, n_x), dtype=bool)
    return DiscreteMDP(
        x_centers=np.arange(n_x, dtype=float),
        action_grid=np.asarray(actions, dtype=float),
        probs=probs, reward_coeffs=np.asarray(coeffs, dtype=float),
        terminal_q=np.asarray(terminal_q, dtype=float), reachable=reach,
        x0_index=0, gamma=gamma,
        edges=np.arange(n_x + 1, dtype=float) - 0.5,
    )


class TestDiscretize:
    def test_single_state_chain(self):
        paths = gbm(n_paths=200)
        risk = RiskParams(1e-3)
        mdp = discretize(paths, PUT, risk, 1, 3, (-1.0, 0.0))
        np.testing.assert_allclose(mdp.probs, 1.0)
        assert mdp.n_states == 1

    def test_zero_vol_is_deterministic(self):
        params = MarketParams(s0=100.0, mu=0.05, sigma=0.0, r=0.05,
                              maturity=1.0, n_steps=3)
        paths = simulate_gbm(params, 50, seed=0)
        risk = RiskParams(1e-3)
        mdp = discretize(paths, PUT, risk, 1, 2, (-1.0, 0.0))
        for t in range(3):
            rows = mdp.probs[t][mdp.reachable[t]]
            assert np.all(np.isin(rows, (0.0, 1.0)))
            np.testing.assert_allclose(rows.sum(axis=1), 1.0)

    def test_rows_sum_to_one(self):
        paths = gbm(seed=3)
        risk = RiskParams(1e-3)
        mdp = discretize(paths, PUT, risk, 9, 5, (-1.5, 0.5))
        for t in range(mdp.n_steps):
            rows = mdp.probs[t][mdp.reachable[t]]
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)

    def test_transition_counts_match_hand_tally(self):
        """Empirical frequencies against an independent dict-based count."""
        paths = gbm(n_paths=500, seed=11)
        risk = RiskParams(1e-3)
        mdp = discretize(paths, PUT, risk, 3, 2, (-1.0, 0.0))
        idx = mdp.state_index(paths.x_paths)
        for t in range(paths.n_steps):
            tally = {}
            for k in range(paths.n_paths):
                key = (idx[k, t], idx[k, t + 1])
                tally[key] = tally.get(key, 0) + 1
            for (i, j), cnt in tally.items():
                total = sum(c for (i2, _), c in tally.items() if i2 == i)
                np.testing.assert_allclose(mdp.probs[t, i, j], cnt / total,
                                           rtol=1e-12)

    def test_duplicate_quantiles_merge_bins(self):
        prices = np.full((30, 3), 100.0)
        # mu = sigma^2/2 keeps the transformed state constant too
        params = MarketParams(s0=100.0, mu=0.005, sigma=0.1, r=0.0,
                              maturity=2.0, n_steps=2)
        paths = PathEnsemble(prices, params)
        risk = RiskParams(1e-3)
        mdp = discretize(paths, PUT, risk, 4, 2, (-1.0, 0.0))
        assert len(mdp.merged_bins) > 0
        assert mdp.n_states == 1

    def test_working_set_below_four_and_a_half_panels(self):
        """At the benchmark's chain (Criterion 4's market, 50k paths x 12
        steps) discretize allocates less than 4.5 panels of (n_paths,
        n_steps+1) doubles: the state index is computed once, and the
        backward pass holds Pi_(t+1) and Pi_t, with no ds_dev or Pi panel
        (three loops over both panels read 5.73)."""
        paths = gbm(n_paths=50_000, seed=42, sigma=0.10, n_steps=12)
        deep_itm, risk = OptionContract("put", 200.0), RiskParams(1e-4)
        discretize(gbm(n_paths=100), deep_itm, risk, 21, 5, (-1.3, 0.1))  # lazy set-up
        _, peak = traced(lambda: discretize(paths, deep_itm, risk, 21, 5, (-1.3, 0.1)))
        assert peak / (paths.s_paths.size * 8) < 4.5

    def test_working_set_below_one_and_a_half_panels(self):
        """At the same chain discretize allocates less than 1.5 panels: the
        state index is one uint8 panel and each step's snapped prices are
        derived from it when needed, so the pooled sort of the states
        behind the quantile edges sets the peak (1.16; 2.96 with an intp
        index panel and a snapped state panel held)."""
        paths = gbm(n_paths=50_000, seed=42, sigma=0.10, n_steps=12)
        deep_itm, risk = OptionContract("put", 200.0), RiskParams(1e-4)
        discretize(gbm(n_paths=100), deep_itm, risk, 21, 5, (-1.3, 0.1))  # lazy set-up
        _, peak = traced(lambda: discretize(paths, deep_itm, risk, 21, 5, (-1.3, 0.1)))
        assert peak / (paths.s_paths.size * 8) < 1.5

    def test_each_increment_derives_its_snapped_prices_once(self, monkeypatch):
        """discretize's rollout derives each step's snapped prices once, and
        each increment dS_t shares them: S_T for the payoff, then S_T and
        each S_t once more in the recursion, which keeps S_t as the next
        step's S_(t+1) (25 derivations at 12 steps when each increment
        derived its own pair)."""
        calls = []
        s = _SnappedPrices.s
        monkeypatch.setattr(_SnappedPrices, "s", lambda self, t: calls.append(t) or s(self, t))
        discretize(gbm(n_paths=500, n_steps=12), PUT, RiskParams(1e-3), 21, 5, (-1.3, 0.1))
        assert calls == [12, *range(12, -1, -1)]

    def test_rejects_bad_sizes(self):
        paths = gbm(n_paths=100)
        risk = RiskParams(1e-3)
        with pytest.raises(ValueError):
            discretize(paths, PUT, risk, 0, 2, (-1, 0))
        with pytest.raises(ValueError):
            discretize(paths, PUT, risk, 3, 1, (-1, 0))


class TestExactInduction:
    def test_zero_rewards_zero_q(self):
        probs = np.full((2, 2, 2), 0.5)
        coeffs = np.zeros((2, 2, 2, 3))
        mdp = tiny_mdp(probs, coeffs, [0.0, 0.0], [-1.0, 0.0, 1.0])
        table = exact_backward_induction(mdp)
        np.testing.assert_array_equal(table.q, 0.0)

    def test_two_state_hand_induction(self):
        """T=1, 2 states, 2 actions: backward induction done by hand.

        Rewards: R(i, a, j) = base_ij + a (c1 = 1) with no quadratic term;
        terminal Q = (1, 3).
        """
        probs = np.array([[[0.75, 0.25], [0.4, 0.6]]])
        coeffs = np.zeros((1, 2, 2, 3))
        coeffs[0, :, :, 0] = [[1.0, 2.0], [0.0, 4.0]]
        coeffs[0, :, :, 1] = 1.0
        mdp = tiny_mdp(probs, coeffs, [1.0, 3.0], [-1.0, 2.0], gamma=0.5)
        table = exact_backward_induction(mdp)
        # V_1 = terminal max over actions = terminal_q (action-independent)
        # state 0: base = .75*(1 + .5*1) + .25*(2 + .5*3) = 2.0; plus a
        # state 1: base = .4*(0 + .5*1) + .6*(4 + .5*3) = 3.5; plus a
        np.testing.assert_allclose(table.q[0, 0], [2.0 - 1.0, 2.0 + 2.0])
        np.testing.assert_allclose(table.q[0, 1], [3.5 - 1.0, 3.5 + 2.0])

    def test_grid_argmax_tracks_analytic_action(self):
        """The argmax over the action grid sits within one grid step of the
        chain's closed-form vertex action: the vertex -c1 / (2 c2) of the
        probability-averaged reward parabola, since the discounted
        continuation does not depend on the action."""
        paths = gbm(n_paths=20_000, seed=2, n_steps=5)
        risk = RiskParams(1e-2)
        mdp = discretize(paths, PUT, risk, 21, 41, (-1.5, 0.5))
        table = exact_backward_induction(mdp)
        step = mdp.action_grid[1] - mdp.action_grid[0]
        for t in range(mdp.n_steps):
            c1, c2 = (np.einsum("ij,ij->i", mdp.probs[t], mdp.reward_coeffs[t, :, :, k])
                      for k in (1, 2))
            for i in np.flatnonzero(mdp.reachable[t]):
                assert c2[i] < 0
                best = mdp.action_grid[np.argmax(table.q[t, i])]
                assert abs(best + c1[i] / (2.0 * c2[i])) <= step


class TestQLearn:
    def test_deterministic_fixed_point(self):
        """One state, one action, constant reward, gamma = 1: the iterate
        converges to c + terminal Q."""
        probs = np.ones((1, 1, 1))
        coeffs = np.zeros((1, 1, 1, 3))
        coeffs[0, 0, 0, 0] = 2.5
        mdp = tiny_mdp(probs, coeffs, [4.0], [0.0], gamma=1.0)
        table = q_learn(mdp, 10_000, seed=0)
        np.testing.assert_allclose(table.q[0, 0, 0], 6.5, atol=1e-6)

    def test_constant_alpha_overwrites(self):
        """alpha == 1 keeps only the last-seen target: the learned value is
        exactly one of the two possible sampled targets, never an average."""
        probs = np.array([[[0.5, 0.5], [0.5, 0.5]]])
        coeffs = np.zeros((1, 2, 2, 3))
        coeffs[0, :, :, 0] = [[0.0, 1.0], [0.0, 1.0]]
        mdp = tiny_mdp(probs, coeffs, [0.0, 0.0], [0.0], gamma=1.0)
        table = q_learn(mdp, 500, schedule=(1.0, np.inf), seed=3)
        for i in range(2):
            q = table.q[0, i, 0]
            assert min(abs(q - 0.0), abs(q - 1.0)) < 1e-12

    def test_converges_to_exact_small_mdp(self):
        """3 states x 3 actions x 2 steps: sup-norm error below 1e-2 of the
        Q scale after 1e5 sampled transitions per slice."""
        paths = gbm(n_paths=10_000, seed=6, n_steps=2)
        risk = RiskParams(1e-2)
        deep_put = OptionContract("put", 200.0)  # payoff offset widens Q scale
        mdp = discretize(paths, deep_put, risk, 3, 3, (-1.2, 0.2))
        exact = exact_backward_induction(mdp)
        learned = q_learn(mdp, 100_000, schedule=(1.0, 1.0), seed=4)
        mask = np.zeros_like(exact.q, dtype=bool)
        mask[:-1] = learned.visits > 0
        scale = np.abs(exact.q).max()
        err = np.abs(learned.q - exact.q)[mask].max()
        assert err <= 1e-2 * scale

    def test_error_shrinks_with_more_updates(self):
        """Robbins-Monro decay: the sup error at 2e4 updates per slice is
        not more than 10x the error at 2e5."""
        paths = gbm(n_paths=10_000, seed=6, n_steps=2)
        risk = RiskParams(1e-2)
        mdp = discretize(paths, PUT, risk, 3, 3, (-1.2, 0.2))
        exact = exact_backward_induction(mdp)

        def err(n_updates):
            learned = q_learn(mdp, n_updates, schedule=(1.0, 1.0), seed=9)
            mask = np.zeros_like(exact.q, dtype=bool)
            mask[:-1] = learned.visits > 0
            return np.abs(learned.q - exact.q)[mask].max()

        assert err(20_000) <= 10.0 * err(200_000)

    def test_unvisited_cells_stay_initialized(self):
        paths = gbm(n_paths=3000, seed=8, n_steps=5)
        risk = RiskParams(1e-3)
        mdp = discretize(paths, PUT, risk, 15, 3, (-1.2, 0.2))
        learned = q_learn(mdp, 2000, seed=0)
        unreachable = ~mdp.reachable[:-1]
        if unreachable.any():
            assert np.all(learned.q[:-1][unreachable] == 0.0)
            assert np.all(learned.visits[unreachable] == 0)
