"""Replicating-portfolio evaluation, one-step rewards, and pricing forms.

The hedge portfolio Pi_t = u_t S_t + B_t is evaluated backward from the
terminal condition Pi_T = B_T = payoff with u_T = 0.  Self-financing makes

    Pi_t = e^{-r dt} (Pi_{t+1} - u_t dS_t),   dS_t = S_{t+1} - e^{r dt} S_t,

so uncertainty about the future propagates to today path by path, and the
bank account B_t = Pi_t - u_t S_t follows from it.  Every solver, fitted
Q-iteration too, runs that recursion through one function,
``_replicate``, which derives each step's prices S_t once, forms dS_t
from them and the next step's, and hands both to the solver's hedge
rule.  Each hedge step goes through one function, ``hedge_step``, which
centers the step and fits its hedge: untilted in the risk-minimizing
pass (``solve_local_risk`` and ``fqi.dataset_rewards``), tilted by the
risk-return drift in ``dp.solve_dp`` and ``fqi.fqi_backward``.  A
rollout keeps only Pi and the actions: B and the one-step rewards are
fixed by them, and are derived a block of paths at a time
(``PortfolioRollout.b_rows`` and ``r_rows``), so no whole panel of
either is made to check or write them.
On top of the rollout the module provides the risk-adjusted one-step
reward (a quadratic in the action), signed-measure reweighting and the
variance-loaded ask price.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, require_finite
from .market import OptionContract, PathEnsemble, price_increment, terminal_payoff
from .regression import conditional_mean, conditional_variance, least_squares


@dataclass(frozen=True)
class RiskParams:
    """Risk aversion lam >= 0; the discount is the market's ``MarketParams.gamma``."""

    lam: float

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lambda must be non-negative and finite, got {self.lam}")


class HedgeStrategy:
    """A stock-position rule per time step; the position at expiry is 0.

    One rule ``fill(paths, out)`` writes the positions of steps 0 ..
    n_steps-1 into the (n_paths, n_steps) view ``out``: a constant, a
    recorded action matrix, or per-step basis coefficients.
    """

    def __init__(self, fill):
        self._fill = fill

    @classmethod
    def zero(cls):
        return cls.constant(0.0)

    @classmethod
    def constant(cls, value: float):
        value = float(value)
        return cls(lambda paths, out: out.fill(value))

    @classmethod
    def from_matrix(cls, actions):
        mat = np.asarray(actions, dtype=float)

        def fill(paths, out):
            n, t = out.shape
            if mat.shape not in ((n, t + 1), (n, t)):
                raise ValueError(f"action matrix shape {mat.shape} does not match the "
                                 f"({n}, {t}) ensemble")
            out[:] = mat[:, :t]
        return cls(fill)

    @classmethod
    def from_coefficients(cls, basis, coeffs):
        """coeffs: sequence of length n_steps of per-basis coefficient vectors."""
        coeffs = [np.asarray(c, dtype=float) for c in coeffs]

        def fill(paths, out):
            if len(coeffs) != out.shape[1]:
                raise ValueError(f"{len(coeffs)} coefficient vectors for "
                                 f"{out.shape[1]} steps")
            for t, c in enumerate(coeffs):
                out[:, t] = basis.evaluate(paths.x(t)) @ c
        return cls(fill)

    def actions(self, paths: PathEnsemble) -> np.ndarray:
        """(n_paths, n_steps+1) action matrix with the expiry column zeroed,
        stored by step so that its [:, :-1] view is a step-major panel."""
        out = np.zeros((paths.n_paths, paths.n_steps + 1), order="F")
        self._fill(paths, out[:, :-1])
        return out


class PortfolioRollout:
    """Backward-evaluated portfolio values ``pi`` and the ``actions`` that
    made them, each an (n_paths, n_steps+1) panel stored by step, the
    actions' expiry column 0; column T of ``pi`` is the payoff.

    The bank account B = Pi - u S and the realized rewards R (column T
    holding the terminal penalty) are fixed by these and the ensemble, so
    they are not stored: ``b_rows`` and ``r_rows`` derive a slice of paths
    over every step (for writers, a block at a time), bit for bit those
    rows of the whole panels, with the pooled per-step centers the
    rollout took (mean Pi_(t+1) and mean dS_t).  The ``b_account`` and
    ``rewards`` properties are whole panels built on each access: for
    tests, not writers.
    """

    def __init__(self, paths: PathEnsemble, pi, actions, risk: RiskParams, pi_centers,
                 ds_centers):
        self.pi, self.actions = pi, actions
        self._paths, self._risk = paths, risk
        self._pi_centers, self._ds_centers = pi_centers, ds_centers

    def b_rows(self, rows: slice) -> np.ndarray:
        """Rows ``rows`` of the bank account B = Pi - u S."""
        return self.pi[rows] - self.actions[rows] * self._paths.s_paths[rows]

    def r_rows(self, rows: slice) -> np.ndarray:
        """Rows ``rows`` of the rewards: ``_reward`` of each step's action
        around the step's centers, then the terminal penalty, the per-path
        squared deviation of the payoff, which averages to -lam Var[Pi_T]."""
        p, lam = self._paths.params, self._risk.lam
        s, pi = self._paths.s_paths[rows], self.pi[rows]
        out = np.empty(pi.shape)
        ds = price_increment(s[:, 1:], s[:, :-1], p)  # of every step
        out[:, :-1] = _reward(self.actions[rows][:, :-1], ds, pi[:, 1:], self._risk, p.gamma,
                              pi_center=self._pi_centers, ds_center=self._ds_centers)
        out[:, -1] = -lam * (pi[:, -1] - self._pi_centers[-1]) ** 2
        return out

    @property
    def b_account(self) -> np.ndarray:
        return self.b_rows(slice(None))

    @property
    def rewards(self) -> np.ndarray:
        return self.r_rows(slice(None))


def _pi_step(paths: PathEnsemble, t: int, pi_next, u, ds) -> np.ndarray:
    """One step of the self-financing recursion, Pi_t = gamma (Pi_{t+1} -
    u_t dS_t), on step t's increments ``ds``; raises SingularSystemError
    if Pi_t leaves the finite doubles."""
    return require_finite(lambda: paths.params.gamma * (pi_next - u * ds),
                          "portfolio value Pi", t)


def _replicate(paths: PathEnsemble, payoff, hedge, out=None):
    """The backward self-financing recursion every solver shares.

        Pi_T = payoff,   Pi_t = gamma (Pi_{t+1} - u_t dS_t),   t = T-1 .. 0,

    with the steps, the discount gamma and the prices of the ensemble
    ``paths``, where the hedge rule ``hedge(t, pi_next, ds, s)`` chooses
    u_t from Pi_{t+1}, dS_t and S_t (recording whatever fits it makes on
    the way), and ``_pi_step`` takes the step on the same dS_t.  Each
    step's S_t is derived once (S_T once more than the caller's payoff)
    and kept as the next step's S_{t+1}.  Only Pi_{t+1} and Pi_t are held
    at step t; a caller that needs the panel passes ``out``, an (n_paths,
    n_steps+1) array that receives Pi_t in column t, and is returned.
    Raises SingularSystemError at the first step whose Pi leaves the
    finite doubles.
    """
    pi, s_next = payoff, paths.s(paths.n_steps)
    if out is not None:
        out[:, -1] = payoff
    for t in range(paths.n_steps - 1, -1, -1):
        s = paths.s(t)
        ds, s_next = price_increment(s_next, s, paths.params), s
        pi = _pi_step(paths, t, pi, hedge(t, pi, ds, s), ds)
        if out is not None:  # the next step reads Pi_t from the panel: its array goes
            out[:, t] = pi
            pi = out[:, t]
    return out


def _largest_magnitudes(rows, n_paths, n_cols):
    """Per column, the largest |value| of the (n_paths, n_cols) panel that
    the row function ``rows`` derives, a block of about 2^15 values at a
    time: non-finite exactly where the column holds a non-finite value."""
    out, block = np.zeros(n_cols), max(1, (1 << 15) // n_cols)
    for lo in range(0, n_paths, block):
        np.maximum(out, np.abs(rows(slice(lo, lo + block))).max(axis=0), out=out)
    return out


def rollout_portfolio(paths: PathEnsemble, strategy: HedgeStrategy,
                      contract: OptionContract, risk: RiskParams) -> PortfolioRollout:
    """Evaluate the self-financing portfolio backward along every path.

    Raises SingularSystemError naming the first step at which Pi, the
    bank account B or the reward R is not finite.  B and R are checked
    a block of paths at a time, as their row functions derive them, so
    neither is ever held whole."""
    u = strategy.actions(paths)
    centers = np.empty((2, paths.n_steps))  # per step: mean Pi_(t+1), mean dS_t

    def hedge(t, pi_next, ds, _):
        with np.errstate(over="ignore", invalid="ignore"):  # a center past the doubles
            centers[:, t] = pi_next.mean(), ds.mean()      # leaves R non-finite: refused
        return u[:, t]

    pi = _replicate(paths, terminal_payoff(paths.s(paths.n_steps), contract), hedge,
                    out=np.empty_like(u))
    roll = PortfolioRollout(paths, pi, u, risk, *centers)
    for rows, what in ((roll.b_rows, "bank account B"), (roll.r_rows, "reward R")):
        require_finite(lambda: _largest_magnitudes(rows, *u.shape), what, by_step=True)
    return roll


def reward_parabola(delta_s, pi_next, risk: RiskParams, gamma: float, *,
                    pi_center, ds_center, gain=None):
    """Coefficients (c0, c1, c2) of the one-step reward as a function of a.

        R(a) = gamma * a * gain - lam * gamma^2 * (pi_dev - a * ds_dev)^2

    with pi_dev = pi_next - pi_center, ds_dev = delta_s - ds_center and
    gamma the ensemble's ``params.gamma``.  ``gain`` defaults to the raw
    increment delta_s; centers may be scalars (pooled sample means) or
    per-path conditional means.
    """
    delta_s = np.asarray(delta_s, dtype=float)
    pi_dev = np.asarray(pi_next, dtype=float) - pi_center
    ds_dev = delta_s - ds_center
    if gain is None:
        gain = delta_s
    g, lam = gamma, risk.lam
    c2 = -lam * g**2 * ds_dev**2
    c1 = g * np.asarray(gain, dtype=float) + 2.0 * lam * g**2 * pi_dev * ds_dev
    c0 = -lam * g**2 * pi_dev**2
    return c0, c1, c2


def _reward(a, delta_s, pi_next, risk: RiskParams, gamma: float, **centers):
    """The reward c0 + c1 a + c2 a^2 of ``reward_parabola`` at the actions a."""
    c0, c1, c2 = reward_parabola(delta_s, pi_next, risk, gamma, **centers)
    return c0 + c1 * a + c2 * a**2


def hedge_step(design, paths: PathEnsemble, t: int, pi_next, ds, s, risk: RiskParams = None,
               ds_mean="model"):
    """The one hedge step t of the regression solvers, on the step-t design
    rows Phi, the step's increments dS_t, ``ds``, and its prices S_t, ``s``.
    Returns ((ds_center, pi_center, gain), c): the center of dS_t, the
    center of Pi_{t+1} (always its regression on ``design``), the reward's
    gain, and the coefficients c of the ridge system

        Phi^T diag(ds_dev^2) Phi c = Phi^T (pi_dev * ds_dev + tilt).

    Under ``ds_mean="model"`` dS_t is centered on S_t (e^{mu dt} - e^{r dt})
    and the gain is the raw dS_t; under "regression" dS_t is centered on
    its regression and the gain is centered (the chain's martingale
    convention).  Without ``risk`` there is no tilt, so c estimates
    Cov(Pi_{t+1}, dS_t | state) / Var(dS_t | state), the risk-minimizing
    hedge, and increments that are all equal raise DegenerateInputError.
    With it the tilt drift / (2 gamma lam), drift the model center (0
    under "regression"), gives the risk-adjusted optimal action; a tilt
    past the doubles raises SingularSystemError naming risk.lambda."""
    if ds_mean not in ("model", "regression"):
        raise ValueError(f"unknown ds_mean {ds_mean!r}")
    p = paths.params
    pi_center = conditional_mean(design, pi_next)
    if ds_mean == "model":
        ds_center = drift = s * (np.exp(p.mu * p.dt) - np.exp(p.r * p.dt))
    else:
        ds_center, drift = conditional_mean(design, ds), 0.0
    ds_dev = ds - ds_center
    gain = ds if ds_mean == "model" else ds_dev
    if risk is None:
        if np.max(np.abs(ds_dev)) == 0.0:
            raise DegenerateInputError(f"all price increments identical at step {t}; "
                                       "hedge undefined")
        target = (pi_next - pi_center) * ds_dev
    else:
        pi_dev, gamma = pi_next - pi_center, p.gamma
        tilt = require_finite(lambda: drift / (2.0 * gamma * risk.lam),
                              "risk-return tilt drift / (2 gamma lambda)", t,
                              f"risk.lambda = {risk.lam:g}, gamma = {gamma:.6g}")
        target = pi_dev * ds_dev + tilt
    return (ds_center, pi_center, gain), least_squares(
        design, target, scale=ds_dev, what=f"hedge fit at step {t}")


def solve_local_risk(paths: PathEnsemble, contract: OptionContract, basis):
    """Backward risk-minimizing hedge solve, independent of risk aversion.

    Returns (coeffs, pi): per-step hedge coefficient vectors and the
    (n_paths, n_steps+1) portfolio values rolled under that hedge.
    ``fqi.dataset_rewards`` runs the same pass to price recorded actions
    against this portfolio without keeping it.
    """
    coeffs = [None] * paths.n_steps

    def hedge(t, pi_next, ds, s):
        design = basis.evaluate(paths.x(t))
        coeffs[t] = hedge_step(design, paths, t, pi_next, ds, s)[1]
        return design @ coeffs[t]

    pi = _replicate(paths, terminal_payoff(paths.s(paths.n_steps), contract), hedge,
                    out=np.empty((paths.n_paths, paths.n_steps + 1), order="F"))
    return coeffs, pi


def signed_measure_weights(paths: PathEnsemble, t: int) -> np.ndarray:
    """Per-path weights of the signed measure that prices the fair value.

    Weights are p_k [1 - (dS_k - m) m / v] with p_k = 1/N and m, v the
    cross-sectional sample mean and (biased) variance of dS_t; they sum to
    one exactly by construction and may be negative for large moves.
    """
    if paths.n_paths < 2:
        raise ValueError("need at least 2 paths")
    ds = paths.delta_s(t)
    m = ds.mean()
    v = np.mean((ds - m) ** 2)
    if v == 0.0:
        raise DegenerateInputError(f"zero sample variance of dS at step {t}")
    return (1.0 - (ds - m) * m / v) / paths.n_paths


def ask_price(paths: PathEnsemble, rollout: PortfolioRollout, risk: RiskParams,
              basis) -> float:
    """Fair price plus the cumulative discounted variance risk premium.

        ask = E[Pi_0] + lam * sum_t gamma^t E[ Var[Pi_t | state_t] ]

    Conditional variances are regression estimates on the configured basis
    (floored at zero), so a deterministic world prices at the discounted
    payoff for any lam.  Monotone non-decreasing in lam on a fixed rollout.
    """
    gamma = paths.params.gamma
    total = float(rollout.pi[:, 0].mean())
    for t in range(paths.n_steps + 1):
        design = basis.evaluate(paths.x(t))
        var_t = conditional_variance(design, rollout.pi[:, t],
                                     what=f"Pi variance at step {t}")
        total += risk.lam * gamma**t * float(var_t.mean())
    return total
