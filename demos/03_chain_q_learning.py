"""Online Q-learning on a discretized chain, against exact induction.

The continuous problem is snapped to a 21-state chain with a small action
grid.  Exact finite-horizon backward induction gives the ground-truth
Q-table; tabular Q-learning with per-cell 1/(1+k) averaging then
approaches it as the per-slice update budget grows, at the usual
stochastic-approximation rate.
"""

import numpy as np

from qhedge import (MarketParams, OptionContract, RiskParams, discretize,
                    exact_backward_induction, q_learn, simulate_gbm)

params = MarketParams(s0=100.0, mu=0.03, sigma=0.10, r=0.03,
                      maturity=1.0, n_steps=5)
contract = OptionContract("put", 200.0)   # deep ITM: wide, well-scaled Q
risk = RiskParams(1e-4)

paths = simulate_gbm(params, 20_000, seed=3)
mdp = discretize(paths, contract, risk, 21, 5, (-1.3, 0.1))
exact = exact_backward_induction(mdp)
scale = np.abs(exact.q).max()
print(f"chain: {mdp.n_states} states x {mdp.n_actions} actions x "
      f"{mdp.n_steps} steps, |Q| scale {scale:.1f}")
print(f"exact Q at the start state: {exact.q[0, mdp.x0_index].max():.4f}\n")

print(f"{'updates/slice':>14} {'sup error':>10} {'relative':>10}")
for n_updates in (1_000, 10_000, 100_000):
    learned = q_learn(mdp, n_updates, schedule=(1.0, 1.0), seed=1)
    mask = np.zeros_like(exact.q, dtype=bool)
    mask[:-1] = learned.visits > 0
    err = np.abs(learned.q - exact.q)[mask].max()
    print(f"{n_updates:14d} {err:10.4f} {err / scale:10.5f}")
