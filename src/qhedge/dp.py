"""Semi-analytic backward solver for the risk-adjusted hedging MDP.

When the dynamics are known, the Bellman recursion alternates two linear
regressions per step: the optimal action (closed form, since the one-step
reward is an exact parabola in the action) and the optimal Q-function fit
to the targets R_t + gamma * Q_{t+1}.  The option's ask price is the
negative of the optimal Q at the initial state, and the optimal hedge is
its action argument — one object carries both.  Each step is centered
and hedged by ``portfolio.hedge_step``, tilted, as in ``fqi_backward``,
and ``terminal_fit`` is shared with it.

The Q-target uses Q_{t+1} evaluated at the previously computed optimal
action, never at the vertex of a parabola refit on the same sample; that
substitution is what keeps the recursion free of max-operator
overestimation bias.
"""

from dataclasses import dataclass

import numpy as np

from .errors import require_finite
from .market import OptionContract, PathEnsemble, terminal_payoff
from .portfolio import RiskParams, _replicate, _reward, hedge_step
from .regression import conditional_variance, least_squares


@dataclass
class DPSolution:
    """Per-step hedge and value coefficients plus the t=0 read-outs."""

    hedge_coeffs: list          # n_steps arrays of shape (M,)
    value_coeffs: list          # n_steps+1 arrays of shape (M,); last is terminal
    price0: float
    hedge0: float


def terminal_fit(design, payoff, lam: float) -> np.ndarray:
    """Value coefficients of the terminal Q on the terminal design:
    -payoff minus lam times the regression estimate of the payoff variance
    conditional on the terminal state (floored at 0)."""
    var = conditional_variance(design, payoff, what="terminal payoff variance")
    note = f"risk.lambda = {lam:g}"
    q_term = require_finite(lambda: -payoff - lam * var, "terminal Q target", note=note)
    return least_squares(design, q_term, what=f"terminal Q fit ({note})")


def solve_dp(paths: PathEnsemble, contract: OptionContract, risk: RiskParams,
             basis, *, ds_mean: str = "model") -> DPSolution:
    """Backward dynamic-programming solve of the hedging MDP.

    Per step (t = T-1 .. 0): fit the optimal action, re-evaluate the
    realized rewards at that action, fit the Q-coefficients to
    R_t + gamma * Q_{t+1}, and roll the portfolio back one step.  ``ds_mean``
    is the convention of ``portfolio.hedge_step``, as in ``fqi_backward``.
    """
    if risk.lam <= 0:
        raise ValueError("solve_dp requires lam > 0; portfolio.solve_local_risk "
                         "gives the pure risk-minimizing hedge")

    n_steps, gamma = paths.n_steps, paths.params.gamma
    value_coeffs = [None] * (n_steps + 1)
    hedge_coeffs = [None] * n_steps

    payoff = terminal_payoff(paths.s(n_steps), contract)
    design = basis.evaluate(paths.x(n_steps))
    value_coeffs[n_steps] = terminal_fit(design, payoff, risk.lam)
    q_next = design @ value_coeffs[n_steps]
    del design  # not held through the steps

    def hedge(t, pi, ds, s):
        """Optimal action at step t, then the Q fit to R_t + gamma Q_{t+1}."""
        nonlocal q_next
        design = basis.evaluate(paths.x(t))
        (ds_c, pi_c, gain), hedge_coeffs[t] = hedge_step(design, paths, t, pi, ds, s, risk,
                                                         ds_mean)
        a = design @ hedge_coeffs[t]

        target = require_finite(
            lambda: _reward(a, ds, pi, risk, gamma, pi_center=pi_c, ds_center=ds_c,
                            gain=gain) + gamma * q_next,
            "Q target R_t + gamma Q_(t+1)", t, f"risk.lambda = {risk.lam:g}")
        value_coeffs[t] = least_squares(design, target, what=f"Q fit at step {t}")
        q_next = design @ value_coeffs[t]
        return a

    _replicate(paths, payoff, hedge)
    phi0 = basis.evaluate(paths.x(0)[:1])
    price0 = -float((phi0 @ value_coeffs[0])[0])
    hedge0 = float((phi0 @ hedge_coeffs[0])[0])
    return DPSolution(hedge_coeffs=hedge_coeffs, value_coeffs=value_coeffs,
                      price0=price0, hedge0=hedge0)


def price_and_hedge_surface(solution: DPSolution, basis, states):
    """Evaluate the fitted price and hedge over arbitrary states at every step.

    Returns (prices, hedges), each (n_steps+1, len(states)): row t holds
    -Phi(states) @ value_coeffs[t] and Phi(states) @ hedge_coeffs[t], the
    hedge row at expiry zero (the position is closed).
    """
    design = basis.evaluate(states)
    hedges = [design @ c for c in solution.hedge_coeffs] + [np.zeros(len(design))]
    return np.array([-(design @ w) for w in solution.value_coeffs]), np.array(hedges)
