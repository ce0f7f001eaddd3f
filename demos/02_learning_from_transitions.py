"""Model-free pricing from transition tuples alone.

Generates a batch of (state, action, reward, next state) records — once
with the optimal hedges, once with completely random actions — and runs
backward fitted Q-iteration on each.  Because the learner is off-policy,
both datasets recover essentially the same price and hedge that the
model-based solver produced, without ever seeing the dynamics.
"""

import numpy as np

from qhedge import (MarketParams, OptionContract, RiskParams, build_basis,
                    build_dataset, dataset_rewards, fqi_backward, simulate_gbm,
                    solve_dp)

params = MarketParams(s0=100.0, mu=0.03, sigma=0.15, r=0.03,
                      maturity=1.0, n_steps=24)
contract = OptionContract("put", 100.0)
risk = RiskParams(1e-3)

paths = simulate_gbm(params, 50_000, seed=42)
basis = build_basis("bspline", 12, paths)
dp = solve_dp(paths, contract, risk, basis)
print(f"model-based reference: price {dp.price0:.4f}, hedge {dp.hedge0:.4f}\n")

optimal_actions = np.column_stack(
    [basis.evaluate(paths.x(t)) @ dp.hedge_coeffs[t]
     for t in range(paths.n_steps)])
rng = np.random.default_rng(7)
random_actions = rng.uniform(-1.5, 1.5, size=optimal_actions.shape) \
    * np.abs(optimal_actions).max()

for label, actions in (("optimal-policy data", optimal_actions),
                       ("random-policy data", random_actions)):
    # rewards penalize variance around the contract's risk-minimizing
    # portfolio, which does not depend on the policy that recorded the actions
    rewards = dataset_rewards(paths, actions, contract, risk, basis)
    dataset = build_dataset(paths, actions, rewards, risk.lam, contract)
    sol = fqi_backward(dataset, basis)
    print(f"{label:20s}: price {sol.price0:.4f} "
          f"({(sol.price0 - dp.price0) / dp.price0:+.2%}), "
          f"hedge {sol.hedge0:.4f} ({sol.hedge0 - dp.hedge0:+.4f})")
