"""Lognormal market simulation and the drift-removed state transform.

Stock paths follow geometric Brownian motion under the physical measure,
stepped with the exact lognormal scheme so path statistics are unbiased at
any step size.  The working state variable is

    X_t = -(mu - sigma^2/2) * t + log S_t,

a driftless coordinate whose distribution does not translate over time,
which keeps one basis usable across all time steps.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError


@dataclass(frozen=True)
class MarketParams:
    """Market and contract-free simulation parameters.

    Rates are annualized; ``maturity`` is in years and ``n_steps`` is the
    number of rebalancing periods, so ``dt = maturity / n_steps``.
    """

    s0: float
    mu: float
    sigma: float
    r: float
    maturity: float
    n_steps: int

    def __post_init__(self):
        for name in ("s0", "mu", "sigma", "r", "maturity"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.s0 <= 0:
            raise ValueError(f"s0 must be positive, got {self.s0}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.maturity <= 0:
            raise ValueError(f"maturity must be positive, got {self.maturity}")

    @property
    def dt(self) -> float:
        return self.maturity / self.n_steps

    @property
    def gamma(self) -> float:
        """One-period discount factor e^{-r dt}."""
        return float(np.exp(-self.r * self.dt))

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class OptionContract:
    kind: str  # "put" or "call"
    strike: float

    def __post_init__(self):
        if self.kind not in ("put", "call"):
            raise ValueError(f"kind must be 'put' or 'call', got {self.kind!r}")
        if not np.isfinite(self.strike) or self.strike <= 0:
            raise ValueError(f"strike must be positive and finite, got {self.strike}")

    def payoff(self, s) -> np.ndarray:
        return terminal_payoff(s, self)


class PathEnsemble:
    """A matrix of simulated stock paths with their transformed states.

    ``s_paths`` and ``x_paths`` are (n_paths, n_steps+1) read-only arrays
    related pointwise by the state transform.  ``seed`` records the RNG
    seed that produced the ensemble (None for ingested data).
    """

    def __init__(self, s_paths, x_paths, params: MarketParams, seed=None):
        s_paths = np.ascontiguousarray(s_paths, dtype=float)
        x_paths = np.ascontiguousarray(x_paths, dtype=float)
        if s_paths.shape != x_paths.shape:
            raise ValueError("s_paths and x_paths must have the same shape")
        if s_paths.shape[1] != params.n_steps + 1:
            raise ValueError(
                f"paths have {s_paths.shape[1]} columns, expected {params.n_steps + 1}"
            )
        if np.any(s_paths <= 0):
            raise ValueError("all stock prices must be positive")
        s_paths.setflags(write=False)
        x_paths.setflags(write=False)
        self.s_paths = s_paths
        self.x_paths = x_paths
        self.params = params
        self.seed = seed

    @property
    def n_paths(self) -> int:
        return self.s_paths.shape[0]

    @property
    def n_steps(self) -> int:
        return self.s_paths.shape[1] - 1

    def delta_s(self, t: int) -> np.ndarray:
        """Discount-adjusted one-step increment S_{t+1} - e^{r dt} S_t."""
        p = self.params
        return self.s_paths[:, t + 1] - np.exp(p.r * p.dt) * self.s_paths[:, t]

    def delta_s_mean(self, t: int) -> np.ndarray:
        """Model-implied conditional mean of delta_s given time-t prices.

        Equals S_t (e^{mu dt} - e^{r dt}); identically zero when mu == r.
        """
        p = self.params
        return self.s_paths[:, t] * (np.exp(p.mu * p.dt) - np.exp(p.r * p.dt))


def to_state(s, t, params: MarketParams):
    """Map price(s) to the driftless state X = -(mu - sigma^2/2) t + log s."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("prices must be positive")
    return -(params.mu - 0.5 * params.sigma**2) * t + np.log(s)


def from_state(x, t, params: MarketParams):
    """Inverse of :func:`to_state`: S = exp(x + (mu - sigma^2/2) t)."""
    x = np.asarray(x, dtype=float)
    return np.exp(x + (params.mu - 0.5 * params.sigma**2) * t)


def terminal_payoff(s_t, contract: OptionContract):
    """European payoff at expiry: max(K - S, 0) for puts, max(S - K, 0) for calls."""
    s_t = np.asarray(s_t, dtype=float)
    if np.any(s_t <= 0):
        raise ValueError("prices must be positive")
    if contract.kind == "put":
        return np.maximum(contract.strike - s_t, 0.0)
    return np.maximum(s_t - contract.strike, 0.0)


def simulate_gbm(params: MarketParams, n_paths: int, seed: int) -> PathEnsemble:
    """Simulate GBM paths with the exact lognormal step.

    S_{t+1} = S_t exp((mu - sigma^2/2) dt + sigma sqrt(dt) z), z ~ N(0,1).
    Normals are drawn by inverse CDF from PCG64 uniforms, so for a fixed
    seed the output is reproducible bit for bit on one machine and library
    build.  Across machines it is not: numpy's float64 ``log`` and ``exp``
    dispatch to CPU-specific SIMD loops, which may differ by an ulp.
    """
    # imported here, not at module level: scipy.special is the slowest
    # import of the package, and only simulating commands need it
    from scipy.special import ndtri

    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    rng = np.random.default_rng(seed)
    u = rng.random((n_paths, params.n_steps))
    # keep uniforms strictly inside (0, 1) so ndtri stays finite
    z = ndtri(np.clip(u, 1e-300, np.nextafter(1.0, 0.0)))
    dt = params.dt
    increments = (params.mu - 0.5 * params.sigma**2) * dt + params.sigma * np.sqrt(dt) * z
    log_s = np.log(params.s0) + np.cumsum(increments, axis=1)
    s = np.empty((n_paths, params.n_steps + 1))
    s[:, 0] = params.s0
    s[:, 1:] = np.exp(log_s)
    x = to_state(s, params.times()[None, :], params)
    return PathEnsemble(s, x, params, seed=seed)


def ensemble_from_prices(s_paths, params: MarketParams, seed=None) -> PathEnsemble:
    """Wrap a price panel (e.g. ingested market data) into a PathEnsemble.

    The state transform uses the mu/sigma configured in ``params``, which
    for external data must come from the dataset header.
    """
    s_paths = np.asarray(s_paths, dtype=float)
    if s_paths.ndim != 2:
        raise ValueError("s_paths must be a 2-D panel")
    if s_paths.shape[0] < 1:
        raise DegenerateInputError("empty price panel")
    x = to_state(s_paths, params.times()[None, :], params)
    return PathEnsemble(s_paths, x, params, seed=seed)
