"""Indifference pricing: moment expansion versus the exact optimizer.

Under an exponential utility with small risk aversion g, the writer's
indifference price expands in central moments of the hedged slippage; the
first correction is half the aversion times the cumulative conditional
variance.  Halving g shrinks the gap between the truncated expansion and
the exact per-cell log-expectation by roughly four (a second-order
remainder), and at g = 2 * lambda the order-1 price lines up with the
variance-penalized ask price of the quadratic-risk solver.
"""

from qhedge import (MarketParams, OptionContract, RiskParams, build_basis,
                    indifference_price_recursion, simulate_gbm, solve_dp)

params = MarketParams(s0=100.0, mu=0.03, sigma=0.15, r=0.03,
                      maturity=1.0, n_steps=6)
contract = OptionContract("put", 100.0)
paths = simulate_gbm(params, 40_000, seed=11)
cells = build_basis("one_hot_grid", 12, paths)

print(f"{'g':>7} {'order-1':>9} {'exact':>9} {'gap':>10}")
gaps = []
for g in (0.02, 0.01, 0.005):
    exp1 = indifference_price_recursion(paths, contract, g, cells, order=1)
    num = indifference_price_recursion(paths, contract, g, cells,
                                       method="numeric")
    gaps.append(abs(num.price0 - exp1.price0))
    print(f"{g:7.3f} {exp1.price0:9.4f} {num.price0:9.4f} {gaps[-1]:10.2e}")
print(f"gap shrink factors per halving: {gaps[0] / gaps[1]:.2f}, "
      f"{gaps[1] / gaps[2]:.2f}  (second-order remainder -> 4)\n")

smooth = build_basis("bspline", 12, paths)
print("aversion bridge: order-1 indifference vs quadratic-risk ask price")
for g in (0.02, 0.01):
    h1 = indifference_price_recursion(paths, contract, g, cells, order=1).price0
    dp = solve_dp(paths, contract, RiskParams(g / 2), smooth)
    print(f"  g={g:5.3f}: indifference {h1:.4f}  vs  ask(lambda=g/2) "
          f"{dp.price0:.4f}  ({(h1 - dp.price0) / dp.price0:+.2%})")
