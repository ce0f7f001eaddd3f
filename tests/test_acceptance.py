"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
on a green run).  The configurations and tolerances here are frozen; the
oracles are independent of the code paths they check (quadrature for the
analytic quotes, hand recursions and grid argmaxes for the solvers).
"""

import time

import numpy as np
import pytest

from qhedge import (MarketParams, OptionContract, RiskParams,
                    TransitionDataset, bs_price_delta, build_basis,
                    build_dataset, discretize, exact_backward_induction,
                    fqi_backward, indifference_price_recursion, q_learn,
                    reward_parabola, rollout_portfolio, signed_measure_weights,
                    simulate_gbm, solve_dp, solve_local_risk, HedgeStrategy)
from qhedge.cli import dataset_rewards
from qhedge.fqi import DatasetHeader
from tests.test_black_scholes import put_price_by_quadrature

RESULTS = []


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bs_setup():
    """Criterion-1 configuration: ATM put, mu = r, 24 rebalances."""
    params = MarketParams(s0=100.0, mu=0.03, sigma=0.15, r=0.03,
                          maturity=1.0, n_steps=24)
    contract = OptionContract("put", 100.0)
    t0 = time.monotonic()
    paths = simulate_gbm(params, 50_000, seed=42)
    basis = build_basis("bspline", 12, paths.x_paths.ravel())
    solutions = {}
    for lam in (1e-4, 1e-3, 1e-2):
        risk = RiskParams.from_market(lam, params)
        solutions[lam] = solve_dp(paths, contract, risk, basis)
    elapsed = time.monotonic() - t0
    return dict(params=params, contract=contract, paths=paths, basis=basis,
                solutions=solutions, elapsed=elapsed)


class TestCriterion1BSConvergence:
    def test_dp_converges_to_analytic_quote(self, bs_setup):
        quote = bs_price_delta(100.0, 100.0, 0.15, 0.03, 1.0, "put")
        oracle = put_price_by_quadrature(100.0, 100.0, 0.15, 0.03, 1.0)
        assert abs(quote.price - oracle) < 1e-6  # oracle-validated reference
        sol = bs_setup["solutions"][1e-3]
        price_err = abs(sol.price0 - quote.price) / quote.price
        hedge_err = abs(sol.hedge0 - quote.delta)
        ok = price_err <= 0.05 and hedge_err <= 0.05 and bs_setup["elapsed"] <= 60
        report("1 BS-convergence", ok,
               f"price rel err {price_err:.4%} (<=5%), hedge err "
               f"{hedge_err:.4f} (<=0.05), {bs_setup['elapsed']:.1f}s (<=60s)")


class TestCriterion2LambdaPremium:
    def test_monotone_and_extrapolates(self, bs_setup):
        p = {lam: bs_setup["solutions"][lam].price0
             for lam in (1e-4, 1e-3, 1e-2)}
        monotone = p[1e-4] <= p[1e-3] <= p[1e-2]
        # linear extrapolation of (lambda, price) to lambda -> 0
        slope = (p[1e-3] - p[1e-4]) / (1e-3 - 1e-4)
        p_limit = p[1e-4] - slope * 1e-4
        gap = abs(p[1e-4] - p_limit) / p_limit
        ok = monotone and gap <= 0.02
        report("2 lambda-premium", ok,
               f"prices {p[1e-4]:.4f} <= {p[1e-3]:.4f} <= {p[1e-2]:.4f}, "
               f"limit gap {gap:.4%} (<=2%)")


class TestCriterion3FQIMatchesDP:
    def test_on_and_off_policy(self, bs_setup):
        t0 = time.monotonic()
        paths, basis = bs_setup["paths"], bs_setup["basis"]
        contract = bs_setup["contract"]
        risk = RiskParams.from_market(1e-3, bs_setup["params"])
        dp = bs_setup["solutions"][1e-3]

        actions_on = np.column_stack(
            [basis.evaluate(paths.x_paths[:, t]) @ dp.hedge_coeffs[t]
             for t in range(paths.n_steps)])
        rewards_on = dataset_rewards(paths, actions_on, contract, risk, basis)
        ds_on = build_dataset(paths, actions_on, rewards_on, risk.lam, contract)
        sol_on = fqi_backward(ds_on, basis)

        rng = np.random.default_rng(7)
        scale = np.abs(actions_on).max()
        actions_off = rng.uniform(-1.5, 1.5,
                                  size=actions_on.shape) * scale
        rewards_off = dataset_rewards(paths, actions_off, contract, risk, basis)
        ds_off = build_dataset(paths, actions_off, rewards_off, risk.lam, contract)
        sol_off = fqi_backward(ds_off, basis)
        elapsed = time.monotonic() - t0

        on_p = abs(sol_on.price0 - dp.price0) / dp.price0
        on_h = abs(sol_on.hedge0 - dp.hedge0)
        off_p = abs(sol_off.price0 - dp.price0) / dp.price0
        off_h = abs(sol_off.hedge0 - dp.hedge0)
        ok = (on_p <= 0.02 and on_h <= 0.05 and off_p <= 0.05
              and off_h <= 0.10 and elapsed <= 60)
        report("3 FQI=DP", ok,
               f"on-policy {on_p:.4%}/{on_h:.4f} (<=2%/0.05), off-policy "
               f"{off_p:.4%}/{off_h:.4f} (<=5%/0.10), {elapsed:.1f}s (<=60s)")


class TestCriterion4FiniteStateAgreement:
    def test_triple_agreement_and_q_learning(self):
        # deep ITM keeps the Q scale far above the per-cell sampling noise,
        # which the 1e5-updates budget of the online learner needs
        params = MarketParams(s0=100.0, mu=0.03, sigma=0.10, r=0.03,
                              maturity=1.0, n_steps=5)
        contract = OptionContract("put", 200.0)
        risk = RiskParams.from_market(1e-4, params)
        paths = simulate_gbm(params, 20_000, seed=3)

        mdp = discretize(paths, contract, risk, 21, 41, (-1.3, 0.1))
        exact = exact_backward_induction(mdp)
        scale = np.abs(exact.q).max()
        q0_tab = exact.q[0, mdp.x0_index].max()

        snapped = mdp.snapped_ensemble(paths)
        indicator = mdp.indicator_basis()
        dp = solve_dp(snapped, contract, risk, indicator,
                      ds_mean="regression", gain="centered")
        q0_dp = -dp.price0

        # exhaustive dataset: every observed transition under 7 action levels,
        # rewarded by the chain's conditional-mean parabolas
        idx = mdp.state_index(paths.x_paths)
        n, t1 = idx.shape
        n_var = 7
        a_levels = np.linspace(-1.3, 0.1, n_var)
        i_flat = np.repeat(idx[:, :-1].ravel(), n_var)
        j_flat = np.repeat(idx[:, 1:].ravel(), n_var)
        t_flat = np.repeat(np.tile(np.arange(t1 - 1), n), n_var)
        a_flat = np.tile(a_levels, n * (t1 - 1))
        c = mdp.reward_coeffs[t_flat, i_flat, j_flat]
        r_flat = c[:, 0] + c[:, 1] * a_flat + c[:, 2] * a_flat**2
        pid = np.repeat(np.arange(n)[:, None] * n_var, t1 - 1, axis=1)
        pid = np.repeat(pid.ravel(), n_var) + np.tile(np.arange(n_var), n * (t1 - 1))
        header = DatasetHeader(
            n_paths=n * n_var, n_steps=t1 - 1, mu=params.mu, sigma=params.sigma,
            r=params.r, dt=params.dt, lam=risk.lam, seed=3,
            extras={"s0": params.s0, "contract_kind": contract.kind,
                    "contract_strike": contract.strike})
        ds = TransitionDataset.from_records(
            path_ids=pid, t=t_flat, x=mdp.x_centers[i_flat], a=a_flat,
            r=r_flat, x_next=mdp.x_centers[j_flat], header=header)
        # max-term actions regress on the replicating portfolio (per-variant
        # constant-action rollouts would leak snapping autocorrelation)
        growth = np.exp(params.r * params.dt)
        pi_ref = np.empty((n, t1))
        pi_ref[:, -1] = np.maximum(contract.strike - snapped.s_paths[:, -1], 0.0)
        for t in range(t1 - 2, -1, -1):
            a_t = indicator.evaluate(snapped.x_paths[:, t]) @ dp.hedge_coeffs[t]
            pi_ref[:, t] = (pi_ref[:, t + 1] - a_t * snapped.delta_s(t)) / growth
        fqi = fqi_backward(ds, indicator, ds_mean="regression",
                           pi_reference=pi_ref[ds.path_ids // n_var, 1:])
        q0_fqi = -fqi.price0

        diff_tab = abs(q0_tab - q0_dp) / scale
        diff_fqi = abs(q0_fqi - q0_dp) / scale
        agree = diff_tab <= 1e-6 and diff_fqi <= 1e-6

        mdp5 = discretize(paths, contract, risk, 21, 5, (-1.3, 0.1))
        exact5 = exact_backward_induction(mdp5)
        learned = q_learn(mdp5, 100_000, schedule=(1.0, 1.0), seed=1)
        mask = np.zeros_like(exact5.q, dtype=bool)
        mask[:-1] = learned.visits > 0
        scale5 = np.abs(exact5.q).max()
        sup_err = np.abs(learned.q - exact5.q)[mask].max() / scale5
        ok = agree and sup_err <= 1e-2
        report("4 finite-state agreement", ok,
               f"dp-vs-chain {diff_tab:.2e}, dp-vs-fqi {diff_fqi:.2e} "
               f"(<=1e-6 of scale), q-learning sup err {sup_err:.4f} "
               f"(<=1e-2 of scale)")


class TestCriterion5QuadraticExactness:
    def test_parabola_reconstruction_and_argmax(self, bs_setup):
        paths = bs_setup["paths"]
        risk = RiskParams.from_market(1e-3, bs_setup["params"])
        sol = bs_setup["solutions"][1e-3]
        basis = bs_setup["basis"]
        rng = np.random.default_rng(55)
        worst_recon = 0.0
        worst_argmax = 0.0
        pi = np.maximum(100.0 - paths.s_paths[:, -1], 0.0)
        for _ in range(100):
            t = int(rng.integers(0, paths.n_steps))
            k = int(rng.integers(0, paths.n_paths))
            ds = paths.delta_s(t)
            q_next = basis.evaluate(paths.x_paths[:, t + 1]) \
                @ sol.value_coeffs[t + 1]
            c0, c1, c2 = reward_parabola(ds, pi, risk, pi_center=pi.mean(),
                                         ds_center=ds.mean())
            target = lambda a: (c0[k] + c1[k] * a + c2[k] * a**2
                                + risk.gamma * q_next[k])
            f = [target(a) for a in (-1.0, 0.0, 1.0)]
            recon = f[0] - 3.0 * f[1] + 3.0 * f[2]  # Lagrange at a = 2
            direct = target(2.0)
            worst_recon = max(worst_recon,
                              abs(recon - direct) / max(abs(direct), 1e-300))
            if c2[k] != 0.0:
                argmax = -c1[k] / (2.0 * c2[k])
                pi_dev = pi[k] - pi.mean()
                ds_dev = ds[k] - ds.mean()
                closed = (pi_dev * ds_dev + ds[k] / (2 * risk.gamma * risk.lam)) \
                    / ds_dev**2
                worst_argmax = max(worst_argmax,
                                   abs(argmax - closed) / abs(closed))
        ok = worst_recon <= 1e-10 and worst_argmax <= 1e-10
        report("5 quadratic-in-action", ok,
               f"worst reconstruction {worst_recon:.2e}, worst argmax "
               f"{worst_argmax:.2e} (<=1e-10)")


class TestCriterion6SignedMeasure:
    def test_weights_and_recursion_identity(self, bs_setup):
        paths = bs_setup["paths"]
        risk = RiskParams.from_market(0.0, bs_setup["params"])
        roll = rollout_portfolio(paths, HedgeStrategy.zero(),
                                 bs_setup["contract"], risk)
        worst_sum = 0.0
        worst_id = 0.0
        for t in range(paths.n_steps):
            w = signed_measure_weights(paths, t)
            worst_sum = max(worst_sum, abs(w.sum() - 1.0))
            ds = paths.delta_s(t)
            pi_next = roll.pi[:, t + 1]
            u_star = np.mean((pi_next - pi_next.mean()) * (ds - ds.mean())) \
                / np.mean((ds - ds.mean()) ** 2)
            lhs = np.sum(w * risk.gamma * pi_next)
            rhs = risk.gamma * (pi_next.mean() - u_star * ds.mean())
            worst_id = max(worst_id, abs(lhs - rhs) / max(abs(rhs), 1.0))
        ok = worst_sum <= 1e-12 and worst_id <= 1e-10
        report("6 signed-measure identity", ok,
               f"worst weight-sum dev {worst_sum:.2e} (<=1e-12), worst "
               f"recursion dev {worst_id:.2e} (<=1e-10)")


class TestCriterion7SelfFinancing:
    def test_pointwise_for_all_strategy_families(self, bs_setup):
        paths = bs_setup["paths"]
        params = bs_setup["params"]
        contract = bs_setup["contract"]
        basis = bs_setup["basis"]
        risk = RiskParams.from_market(1e-3, params)
        lr_coeffs, _ = solve_local_risk(paths, contract, basis)
        dp = bs_setup["solutions"][1e-3]
        strategies = {
            "zero": HedgeStrategy.zero(),
            "constant": HedgeStrategy.constant(-0.5),
            "local-risk": HedgeStrategy.from_coefficients(basis, lr_coeffs),
            "dp-optimal": HedgeStrategy.from_coefficients(basis, dp.hedge_coeffs),
        }
        growth = np.exp(params.r * params.dt)
        worst = 0.0
        for name, strat in strategies.items():
            roll = rollout_portfolio(paths, strat, contract, risk)
            u, s, b = roll.actions, paths.s_paths, roll.b_account
            lhs = u[:, :-1] * s[:, 1:] + growth * b[:, :-1]
            rhs = u[:, 1:] * s[:, 1:] + b[:, 1:]
            dev = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)
            worst = max(worst, float(dev.max()))
            pointwise = np.abs(roll.pi - (u * s + b)) \
                / np.maximum(np.abs(roll.pi), 1.0)
            worst = max(worst, float(pointwise.max()))
        ok = worst <= 1e-10
        report("7 self-financing", ok,
               f"worst relative deviation {worst:.2e} (<=1e-10) over "
               f"{len(strategies)} strategy families")


class TestCriterion8UtilityExpansion:
    def test_halving_ratios_and_lambda_bridge(self):
        params = MarketParams(s0=100.0, mu=0.03, sigma=0.15, r=0.03,
                              maturity=1.0, n_steps=6)
        contract = OptionContract("put", 100.0)
        paths = simulate_gbm(params, 40_000, seed=11)
        cells = build_basis("one_hot_grid", 12, paths.x_paths.ravel())
        x0_cell = cells.bucket_of([paths.x_paths[0, 0]])[0]

        price_err, hedge_err = [], []
        for g in (0.02, 0.01, 0.005):
            exp1 = indifference_price_recursion(paths, contract, g, cells,
                                                order=1)
            num = indifference_price_recursion(paths, contract, g, cells,
                                               method="numeric")
            price_err.append(abs(num.price0 - exp1.price0))
            hedge_err.append(abs(num.hedge_coeffs[0][x0_cell]
                                 - exp1.hedge_coeffs[0][x0_cell]))
        ratios = [price_err[0] / price_err[1], price_err[1] / price_err[2],
                  hedge_err[0] / hedge_err[1], hedge_err[1] / hedge_err[2]]
        shrink_ok = all(2.5 <= r <= 6.0 for r in ratios)

        smooth = build_basis("bspline", 12, paths.x_paths.ravel())
        bridge_devs = []
        for g in (0.02, 0.01):
            h1 = indifference_price_recursion(paths, contract, g, cells,
                                              order=1).price0
            risk = RiskParams.from_market(g / 2.0, params)
            dp = solve_dp(paths, contract, risk, smooth)
            bridge_devs.append(abs(h1 - dp.price0) / dp.price0)
        bridge_ok = all(d <= 0.10 for d in bridge_devs)
        ok = shrink_ok and bridge_ok
        report("8 utility expansion", ok,
               f"halving ratios {['%.2f' % r for r in ratios]} (in [2.5, 6]), "
               f"bridge devs {['%.3f' % d for d in bridge_devs]} (<=10%)")


class TestCriterion9Determinism:
    def test_every_subcommand_byte_reproducible(self, tmp_path):
        from qhedge.cli import main

        small = ["--market.mu", "0.03", "--market.n_steps", "6",
                 "--mc.n_paths", "400", "--basis.m", "8", "--mc.seed", "11"]
        data_dir = tmp_path / "seed-data"
        assert main(["make-dataset", "--dataset.policy", "dp_optimal",
                     "--output.dir", str(data_dir), *small]) == 0
        ds_path = str(data_dir / "dataset.csv")

        commands = {
            "simulate": [],
            "rollout": ["--rollout.policy", "local_risk"],
            "dp-solve": [],
            "make-dataset": ["--dataset.policy", "random"],
            "fqi-solve": ["--dataset.path", ds_path],
            "tabular-q": ["--tabular.n_x", "5", "--tabular.n_a", "3",
                          "--tabular.n_updates", "2000"],
            "utility-price": ["--basis.kind", "one_hot_grid",
                              "--utility.gamma", "0.01"],
            "bs-quote": [],
            "compare": [],
        }
        bad = []
        for name, extra in commands.items():
            dirs = [tmp_path / f"{name}-a", tmp_path / f"{name}-b"]
            for d in dirs:
                code = main([name, *extra, "--output.dir", str(d), *small])
                if code != 0:
                    bad.append(f"{name} exited {code}")
                    break
            else:
                for f in sorted(p.name for p in dirs[0].iterdir()):
                    if (dirs[0] / f).read_bytes() != (dirs[1] / f).read_bytes():
                        bad.append(f"{name}:{f}")
        ok = not bad
        report("9 determinism", ok,
               "all 9 subcommands byte-identical" if ok else f"diffs: {bad}")


def teardown_module(module):
    print()
    for line in RESULTS:
        print(line)
