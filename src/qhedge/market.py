"""Lognormal market simulation and the drift-removed state transform.

Stock paths follow geometric Brownian motion under the physical measure,
stepped with the exact lognormal scheme so path statistics are unbiased at
any step size.  The working state variable is

    X_t = -(mu - sigma^2/2) * t + log S_t,

a driftless coordinate whose distribution does not translate over time,
which keeps one basis usable across all time steps.  A price-panel file's
header is ``PathEnsemble.header()``, and ``PathEnsemble.from_header`` is
its one decoder.
"""

from dataclasses import dataclass

import numpy as np

from .csvio import typed_header
from .errors import DataFormatError, DegenerateInputError

_SIGMA_MAX = float(np.sqrt(np.finfo(float).max))  # largest sigma with a finite square
_RATE_DT_MAX = float(np.log(np.finfo(float).max))  # largest r dt with a finite e^{r dt}
_PATH_BLOCK = 4096  # paths whose uniforms simulate_gbm draws and transforms at once
# a price panel's header items (PathEnsemble.header) by type; all but these
# four may be absent
_HEADER_TYPES = {"s0": float, "mu": float, "sigma": float, "r": float, "maturity": float,
                 "n_steps": int, "n_paths": int, "seed": int}
_HEADER_REQUIRED = ("mu", "sigma", "r", "maturity")


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
        if self.sigma > _SIGMA_MAX:
            raise ValueError(f"sigma must be at most {_SIGMA_MAX!r}, so that its square "
                             f"is a finite double, got {self.sigma}")
        if self.r < 0:
            raise ValueError(f"r must be non-negative, got {self.r}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.maturity <= 0:
            raise ValueError(f"maturity must be positive, got {self.maturity}")
        if self.r * self.dt > _RATE_DT_MAX:
            raise ValueError(f"maturity must keep r dt <= {_RATE_DT_MAX:.6g} (e^(-r dt) > 0), "
                             f"got {self.maturity} over {self.n_steps} steps at r = {self.r}")

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


class PathEnsemble:
    """A matrix of stock prices with their transformed states.

    It stores the (n_paths, n_steps+1) price panel, read-only and by step
    (Fortran order) so that each step's column is contiguous; a panel in
    another layout is copied into that one.  ``s(t)`` hands out step t's
    column, and ``x(t)`` and ``x_rows`` step t's states or a slice of
    paths' states over every step (for writers, a block at a time):
    ``to_state`` of the stored prices under ``params``' mu and sigma (for
    ingested data, the header's), so they equal the whole-panel transform
    bit for bit.  ``s_paths`` is the stored panel; the ``x_paths``
    property is the whole read-only state panel, built on each access: for
    tests, not solvers or writers.
    ``seed`` records the RNG seed that produced the ensemble (None for
    ingested data).
    """

    def __init__(self, s_paths, params: MarketParams, seed=None):
        self._s = np.asfortranarray(s_paths, dtype=float)
        if self._s.ndim != 2:
            raise ValueError("s_paths must be a 2-D panel")
        if self._s.shape[0] < 1:
            raise DegenerateInputError("empty price panel")
        if self._s.shape[1] != params.n_steps + 1:
            raise ValueError(
                f"paths have {self._s.shape[1]} columns, expected {params.n_steps + 1}"
            )
        if not all(_positive_finite(self.s(t)) for t in range(self._s.shape[1])):
            raise ValueError("all stock prices must be positive and finite")
        self._s.setflags(write=False)
        self.params, self.seed = params, seed

    @classmethod
    def from_header(cls, source, header, path_ids, s) -> "PathEnsemble":
        """``header()`` read back: the ensemble of the step-major price panel
        ``s`` of the paths ``path_ids`` under a file's ``header`` items,
        strings or values.  mu, sigma, r and maturity are required, s0 is
        by default the first path's t = 0 price, n_steps and n_paths must
        count the panel's, and a non-positive price is refused by its
        (path, t) cell before the market is built.  Errors name ``source``."""
        v = typed_header(source, header, {k: typ for k, typ in _HEADER_TYPES.items()
                                          if k in header or k in _HEADER_REQUIRED})
        for key, count in (("n_steps", s.shape[0] - 1), ("n_paths", s.shape[1])):
            if v.get(key, count) != count:
                raise DataFormatError(f"{source}: header {key}={v[key]}, but the records "
                                      f"hold {count} {key[2:]}")
        if (bad := np.argwhere(s <= 0)).size:
            t, i = bad[0]
            raise DataFormatError(f"{source}: non-positive price {s[t, i]} at cell "
                                  f"(path={path_ids[i]}, t={t}); all stock prices must "
                                  "be positive and finite")
        try:
            params = MarketParams(s0=v.get("s0", float(s[0, 0])), n_steps=s.shape[0] - 1,
                                  **{k: v[k] for k in _HEADER_REQUIRED})
        except ValueError as exc:
            key = str(exc).split()[0]
            raise DataFormatError(f"{source}: bad header value for {key}: {exc}" if key in v
                                  else f"{source}: {exc}") from None
        return cls(s.T, params, seed=v.get("seed"))

    def header(self) -> dict:
        """A price-panel file's header items: the market, the panel's
        shape and a simulated ensemble's seed."""
        p = self.params
        return {"s0": p.s0, "mu": p.mu, "sigma": p.sigma, "r": p.r, "maturity": p.maturity,
                "n_steps": p.n_steps, "n_paths": self.n_paths,
                **({} if self.seed is None else {"seed": self.seed})}

    @property
    def n_paths(self) -> int:
        return self._s.shape[0]

    @property
    def n_steps(self) -> int:
        return self._s.shape[1] - 1

    def s(self, t: int) -> np.ndarray:
        """Step t's prices: a read-only view of the stored panel."""
        return self._s[:, t]

    def x(self, t: int) -> np.ndarray:
        """Step t's states: ``to_state`` of step t's prices."""
        return to_state(self._s[:, t], self.params.times()[t], self.params)

    def x_rows(self, rows: slice) -> np.ndarray:
        """Rows ``rows`` of the state panel: ``to_state`` of those rows of
        the prices, each step's drift broadcast along its column."""
        return to_state(self._s[rows], self.params.times(), self.params)

    @property
    def s_paths(self) -> np.ndarray:
        return self._s

    @property
    def x_paths(self) -> np.ndarray:
        return self._panel(self.x_rows)

    def _panel(self, rows):
        """The whole read-only panel of ``rows``, by step."""
        out = rows(slice(None))
        out.setflags(write=False)
        return out

    def sorted_states(self, first_step: int = 0) -> np.ndarray:
        """The states of steps first_step .. n_steps pooled into one fresh
        1-D array and sorted, a step at a time: the one panel-sized array
        behind the pooled quantiles (``basis.quantiles``)."""
        n = self.n_paths
        out = np.empty(n * (self.n_steps + 1 - first_step))
        for i, t in enumerate(range(first_step, self.n_steps + 1)):
            out[i * n:(i + 1) * n] = self.x(t)
        out.sort()
        return out

    def delta_s(self, t: int) -> np.ndarray:
        """Step t's ``price_increment``."""
        return price_increment(self.s(t + 1), self.s(t), self.params)


def price_increment(s_next, s, params: MarketParams):
    """Discount-adjusted one-step increment S_{t+1} - e^{r dt} S_t of the
    prices ``s`` and the next step's ``s_next`` (any matching shapes)."""
    return s_next - np.exp(params.r * params.dt) * s


def _positive_finite(s) -> bool:
    # false on NaN, which fails both comparisons
    return bool(np.all(s > 0) and np.all(s < np.inf))


def to_state(s, t, params: MarketParams):
    """Map price(s) to the driftless state X = -(mu - sigma^2/2) t + log s."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise ValueError("prices must be positive")
    x, drift = np.log(s), -(params.mu - 0.5 * params.sigma**2) * t
    in_place = np.ndim(x) and np.broadcast_shapes(x.shape, np.shape(drift)) == x.shape
    return np.add(x, drift, out=x if in_place else None)  # IEEE addition commutes


def from_state(x, t, params: MarketParams):
    """Inverse of :func:`to_state`: S = exp(x + (mu - sigma^2/2) t)."""
    s = np.asarray(x, dtype=float) + (params.mu - 0.5 * params.sigma**2) * t
    return np.exp(s, out=s) if np.ndim(s) else np.exp(s)  # an array in place


def terminal_payoff(s_t, contract: OptionContract):
    """European payoff at expiry: max(K - S, 0) for puts, max(S - K, 0) for calls."""
    s_t = np.asarray(s_t, dtype=float)
    if np.any(s_t <= 0):
        raise ValueError("prices must be positive")
    if contract.kind == "put":
        return np.maximum(contract.strike - s_t, 0.0)
    return np.maximum(s_t - contract.strike, 0.0)


# Cephes ndtri (Moshier 1989), the code scipy.special.ndtri runs, with its
# coefficients.  P0/Q0 cover the centre e^-2 < y < 1 - e^-2 in y - 1/2;
# P1/Q1 and P2/Q2 cover the tails in 1/x, x = sqrt(-2 log y), below and
# above x = 8 (y = e^-32).  Q0, Q1 and Q2 are Cephes' p1evl polynomials,
# stored with their implicit leading 1: 1.0 * x is exact, so polevl on them
# rounds as p1evl does.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """Cephes polevl: coef[0] x^N + ... + coef[N] by Horner's rule."""
    ans = coef[0] * x
    for c in coef[1:-1]:
        ans += c
        ans *= x
    ans += coef[-1]
    return ans


def _libm_log(v):
    """Natural log of a 1-D float array by the C library's ``log``, which
    Cephes calls; numpy's SIMD loops may differ from it by an ulp.  On an
    input read backward numpy runs its scalar loop, which calls that
    ``log``.  Only the input is reversed: with the output reversed too,
    numpy would flip both back and run the SIMD loop."""
    return np.log(np.ascontiguousarray(v)[::-1])[::-1]


def _ndtri(y):
    """Inverse standard normal CDF of a float array in the open (0, 1), bit
    for bit the Cephes ``ndtri``: the centre's formula runs in Cephes'
    operation order on the whole array, in three array buffers, and the
    tails, gathered by flat index, overwrite their entries.  (For any y
    in (0, 1) the centre's denominator stays below -2e-4, so the values
    the tails overwrite are finite.)"""
    c2 = np.subtract(y, 0.5)
    np.multiply(c2, c2, out=c2)
    z = _polevl(c2, _P0)
    z *= c2
    z /= _polevl(c2, _Q0)
    c = np.subtract(y, 0.5, out=c2)  # c2 is spent: its buffer takes c
    z *= c
    z += c
    z *= _S2PI
    del c, c2
    # a tail value above 1/2 is mapped to 1 - y, which is exact and below
    # e^-2, and keeps its positive sign; the lower tail is negated
    tail = np.flatnonzero((y <= _EXP_M2) | (y > 1.0 - _EXP_M2))
    t = np.take(y, tail)
    upper = t > 0.5
    np.subtract(1.0, t, out=t, where=upper)
    x = np.sqrt(-2.0 * _libm_log(t))
    x0 = x - _libm_log(x) / x
    w = 1.0 / x
    x1 = w * _polevl(w, _P1) / _polevl(w, _Q1)
    far = x >= 8.0
    wf = w[far]
    x1[far] = wf * _polevl(wf, _P2) / _polevl(wf, _Q2)
    x0 -= x1
    np.negative(x0, out=x0, where=~upper)
    np.put(z, tail, x0)
    return z


def simulate_gbm(params: MarketParams, n_paths: int, seed: int) -> PathEnsemble:
    """Simulate GBM paths with the exact lognormal step.

    S_{t+1} = S_t exp((mu - sigma^2/2) dt + sigma sqrt(dt) z), z ~ N(0,1).
    Normals are drawn by inverse CDF from PCG64 uniforms, through a numpy
    port of Cephes ``ndtri`` that equals ``scipy.special.ndtri`` bit for
    bit; its tail logs come from the C library (``_libm_log``), as
    Cephes' do.  So for a fixed seed the output is reproducible bit for
    bit on one machine and library build.  Across machines it is not:
    numpy's float64 ``log`` and ``exp`` dispatch to CPU-specific SIMD
    loops, which may differ by an ulp.  Uniforms are drawn path by path
    from one stream, ``_PATH_BLOCK`` paths at a time, and each block's
    normals go straight into the step-major price panel ``PathEnsemble``
    keeps; its states are derived a step at a time.

    Raises DegenerateInputError when a price leaves the finite positive
    doubles: exp overflows or underflows at extreme drift, volatility or
    maturity.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    rng = np.random.default_rng(seed)
    s = np.empty((params.n_steps + 1, n_paths))  # row t is step t
    s[0] = params.s0
    log_s = s[1:]
    for lo in range(0, n_paths, _PATH_BLOCK):
        u = rng.random((min(_PATH_BLOCK, n_paths - lo), params.n_steps))
        # keep uniforms strictly inside (0, 1) so ndtri stays finite
        np.clip(u, 1e-300, np.nextafter(1.0, 0.0), out=u)
        log_s[:, lo:lo + len(u)] = _ndtri(u).T
    # the normals become log-price increments, then log prices, then
    # prices, in place
    dt = params.dt
    with np.errstate(over="ignore", invalid="ignore"):
        log_s *= params.sigma * np.sqrt(dt)
        log_s += (params.mu - 0.5 * params.sigma**2) * dt
        np.cumsum(log_s, axis=0, out=log_s)
        log_s += np.log(params.s0)
        np.exp(log_s, out=log_s)
    if not _positive_finite(log_s):
        raise DegenerateInputError(
            "simulated prices overflow or underflow the doubles; the drift and "
            "volatility over the horizon (market.mu, market.sigma, "
            "market.maturity) are too large")
    return PathEnsemble(s.T, params, seed=seed)

