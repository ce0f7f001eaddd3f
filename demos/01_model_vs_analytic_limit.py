"""Discrete-time prices converge to the analytic small-step limit.

Simulates lognormal paths with the drift pinned to the risk-free rate,
solves the risk-adjusted hedging MDP by backward dynamic programming for a
few aversion levels, and compares price and initial hedge against the
closed-form Black-Scholes quote.  As the risk aversion shrinks the
discrete-time ask price collapses onto the analytic value, while the
premium above it grows linearly in lambda.
"""

from qhedge import (MarketParams, OptionContract, RiskParams, bs_price_delta,
                    build_basis, simulate_gbm, solve_dp)

params = MarketParams(s0=100.0, mu=0.03, sigma=0.15, r=0.03,
                      maturity=1.0, n_steps=24)
contract = OptionContract("put", 100.0)

print(f"simulating {50_000} paths, {params.n_steps} rebalances ...")
paths = simulate_gbm(params, 50_000, seed=42)
basis = build_basis("bspline", 12, paths)

quote = bs_price_delta(params.s0, contract.strike, params.sigma, params.r,
                       params.maturity, contract.kind)
print(f"analytic quote: price {quote.price:.4f}, delta {quote.delta:.4f}\n")

print(f"{'lambda':>8} {'price':>9} {'premium':>9} {'hedge':>9} {'hedge err':>10}")
for lam in (1e-4, 1e-3, 1e-2):
    sol = solve_dp(paths, contract, RiskParams(lam), basis)
    print(f"{lam:8.0e} {sol.price0:9.4f} {sol.price0 - quote.price:9.4f} "
          f"{sol.hedge0:9.4f} {sol.hedge0 - quote.delta:10.4f}")

print("\nwith mu != r the optimal position tilts away from the pure hedge:")
tilted = MarketParams(s0=100.0, mu=0.05, sigma=0.15, r=0.03,
                      maturity=1.0, n_steps=24)
paths_t = simulate_gbm(tilted, 50_000, seed=42)
basis_t = build_basis("bspline", 12, paths_t)
for lam in (0.1, 0.01):
    sol = solve_dp(paths_t, contract, RiskParams(lam), basis_t)
    tilt = (tilted.mu - tilted.r) / (2 * lam * tilted.sigma**2 * tilted.s0)
    print(f"  lambda={lam:g}: hedge {sol.hedge0:+.4f}  "
          f"(delta {quote.delta:+.4f} + theoretical tilt {tilt:+.4f})")
