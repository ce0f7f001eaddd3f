"""Model-free fitted Q-iteration on batches of transition tuples.

The Q-function is quadratic in the action, so it is parametrized per step
by a 3 x M matrix W acting on (1, a, a^2/2) and the state basis:

    Q_t(x, a) = (1, a, a^2/2) @ W_t @ Phi(x).

Each backward step solves one least-squares problem in the 3M stacked
features.  The max over next actions inside the target is evaluated at an
action estimated independently of the W-fit being maximized (either the
closed-form action ``portfolio.hedge_fit`` of ``dp.solve_dp`` when portfolio
values are reconstructible, or a two-fold cross-fitted vertex otherwise);
maximizing the same fitted parabola on the same sample would bias Q upward
through the convexity of the max.  The terminal fit is ``dp.terminal_fit``.
"""

from dataclasses import dataclass, field

import numpy as np

from .csvio import read_csv, scatter_records, typed_header, write_table
from .dp import terminal_fit
from .errors import DataFormatError, SingularSystemError
from .market import (MarketParams, OptionContract, PathEnsemble,
                     ensemble_from_prices, from_state, terminal_payoff)
from .portfolio import RiskParams, _replicate, hedge_fit
from .regression import conditional_mean, ridge_solve


@dataclass(frozen=True)
class DatasetHeader:
    """Metadata a transition file must carry to be priced model-free."""

    n_paths: int
    n_steps: int
    mu: float
    sigma: float
    r: float
    dt: float
    lam: float
    seed: int
    extras: dict = field(default_factory=dict)

    def market_params(self, s0: float) -> MarketParams:
        return MarketParams(s0=s0, mu=self.mu, sigma=self.sigma, r=self.r,
                            maturity=self.dt * self.n_steps, n_steps=self.n_steps)

    def risk(self) -> RiskParams:
        return RiskParams(lam=self.lam, gamma=float(np.exp(-self.r * self.dt)))

    def contract(self):
        kind = self.extras.get("contract_kind")
        strike = self.extras.get("contract_strike")
        if kind is None or strike is None:
            return None
        return OptionContract(kind=str(kind), strike=float(strike))


class TransitionDataset:
    """Transitions as one (path x step) panel, paths in ascending
    ``path_ids``: ``x_paths`` is (n, n_steps+1) as in ``PathEnsemble``,
    ``a`` and ``r`` are (n, n_steps), each stored by step so that column t
    is contiguous.  ``from_records`` builds one from flat records."""

    def __init__(self, path_ids, x_paths, a, r, header: DatasetHeader):
        self.header = header
        self.path_ids = np.asarray(path_ids, dtype=np.int64)
        n, n_steps = self.path_ids.size, header.n_steps
        for name, v, shape in (("x_paths", x_paths, (n, n_steps + 1)),
                               ("a", a, (n, n_steps)), ("r", r, (n, n_steps))):
            v = np.asarray(v, dtype=float)
            if v.shape != shape:
                raise DataFormatError(f"{name} is {v.shape}; expected {shape}")
            if not np.all(np.isfinite(v)):
                raise DataFormatError(f"non-finite {name} values in dataset")
            setattr(self, name, np.ascontiguousarray(v.T).T)

    @classmethod
    def from_records(cls, path_ids, t, x, a, r, x_next, header: DatasetHeader,
                     source="records"):
        """The dataset of flat (path, t, x, a, r, x_next) records in any
        order, which must form one panel: a record per path and t in
        [0, n_steps), each x_next the path's next x.  Errors name
        ``source`` and the (path, t) cell."""
        ids, p = scatter_records(source, path_ids, t,
                                 {"x": x, "a": a, "r": r, "x_next": x_next},
                                 header.n_steps)
        # one price panel underlies the records: each x_next must be the x
        # of the same path's next record
        gap = (p["x_next"][:-1] != p["x"][1:]).T
        if gap.any():
            i, ti = np.argwhere(gap)[0]
            raise DataFormatError(f"{source}: x_next of (path={ids[i]}, t={ti}) "
                                  f"differs from that path's x at t={ti + 1}")
        x_paths = np.vstack([p["x"], p["x_next"][-1:]])
        return cls(ids, x_paths.T, p["a"].T, p["r"].T, header)

    def __len__(self):
        return self.a.size

    def to_ensemble(self) -> PathEnsemble:
        """The dataset's price panel as an ensemble."""
        h = self.header
        s0 = h.extras.get("s0")
        if s0 is None:
            s0 = float(np.exp(self.x_paths[:, 0].mean()))
        params = h.market_params(float(s0))
        s = from_state(self.x_paths, params.times()[None, :], params)
        return ensemble_from_prices(s, params, seed=h.seed)


def build_features(design, a) -> np.ndarray:
    """Stacked features Psi(x, a) of length 3M per record, from the design
    rows Phi(x) = ``basis.evaluate(x)``.

    Columns of the outer product of (1, a, a^2/2) with Phi(x), concatenated
    column-major: [Phi_1, a Phi_1, a^2/2 Phi_1, Phi_2, ...].
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    out = np.empty((design.shape[0], 3 * design.shape[1]))
    out[:, 0::3] = design
    out[:, 1::3] = design * a[:, None]
    out[:, 2::3] = design * (0.5 * a**2)[:, None]
    return out


def _weights_from_vec(wvec: np.ndarray) -> np.ndarray:
    """Unstack the 3M solution vector into the 3 x M coefficient matrix."""
    return wvec.reshape(-1, 3).T


@dataclass
class FQISolution:
    """Per-step quadratic Q-weights with the t=0 price/hedge read-outs."""

    weights: list               # n_steps arrays of shape (3, M)
    terminal_value_coeffs: np.ndarray
    action_coeffs: list | None  # analytic-action coefficients, when available
    price0: float
    hedge0: float
    warnings: list = field(default_factory=list)

    def action_poly(self, basis, x, t: int):
        """(q0, q1, q2) with Q_t(x, a) = q0 + q1 a + q2 a^2 / 2."""
        u = basis.evaluate(x) @ self.weights[t].T
        return u[:, 0], u[:, 1], u[:, 2]


def fqi_backward(dataset: TransitionDataset, basis, contract: OptionContract = None,
                 *, pi_reference=None, action_source: str = "analytic",
                 ds_mean: str = "model") -> FQISolution:
    """Backward fitted Q-iteration over the dataset's steps.

    Parameters
    ----------
    contract : OptionContract, optional
        Needed for the terminal condition; defaults to the header's
        contract keys.
    pi_reference : ndarray, optional
        Portfolio values as an (n, n_steps) panel in the dataset's path
        order, column t holding Pi_{t+1}.  When omitted it is reconstructed
        by rolling the recorded actions backward on the price panel.
    action_source : {"analytic", "crossfit"}
        How the max-term action at t+1 is estimated: the closed-form
        regression on portfolio values (``portfolio.hedge_fit`` with the
        risk-return tilt, as in ``dp.solve_dp``; the default) or the
        two-fold cross-fitted parabola vertex ("crossfit", the data-only
        fallback).
    ds_mean : {"model", "regression"}
        Conditional mean of the price increment inside the action
        regression: implied by the header's mu/r (default), or estimated
        per state on the basis (matches chains whose snapped increments
        carry quantization drift).
    """
    h = dataset.header
    risk = h.risk()
    if risk.lam <= 0:
        raise ValueError("fqi_backward requires lam > 0 in the dataset header")
    contract = contract or h.contract()
    if contract is None:
        raise DataFormatError(
            "no contract available (argument or header contract_kind/strike); "
            "the terminal condition is undefined without one"
        )
    if action_source not in ("analytic", "crossfit"):
        raise ValueError(f"unknown action_source {action_source!r}")
    if ds_mean not in ("model", "regression"):
        raise ValueError(f"unknown ds_mean {ds_mean!r}")

    paths = dataset.to_ensemble()
    payoff = terminal_payoff(paths.s_paths[:, -1], contract)
    n_steps = h.n_steps
    gamma = risk.gamma

    use_analytic = action_source == "analytic"
    if use_analytic and pi_reference is None:
        # roll the recorded actions backward on the price panel
        pi_reference = _replicate(payoff, n_steps, paths.params.gamma, paths.delta_s,
                                  lambda t, _: dataset.a[:, t])[:, 1:]

    design_term = basis.evaluate(dataset.x_paths[:, -1])
    term_coeffs = terminal_fit(design_term, payoff, risk.lam)

    weights = [None] * n_steps
    action_coeffs = [None] * n_steps if use_analytic else None
    warnings = []

    v_cache = design_term @ term_coeffs  # max_a Q_{t+1}(x_{t+1})
    for t in range(n_steps - 1, -1, -1):
        x_t = dataset.x_paths[:, t]
        targets = dataset.r[:, t] + gamma * v_cache

        design_t = basis.evaluate(x_t)
        psi = build_features(design_t, dataset.a[:, t])
        try:
            wvec = ridge_solve(psi.T @ psi, psi.T @ targets)
        except SingularSystemError as exc:
            raise SingularSystemError(f"FQI weights at step {t}: {exc}") from exc
        w = _weights_from_vec(wvec)
        weights[t] = w

        phi_med = basis.evaluate([float(np.median(x_t))])
        u_med = phi_med @ w.T
        if u_med[0, 2] >= 0:
            warnings.append(
                f"step {t}: fitted Q not concave in the action at the median "
                f"state (quadratic coefficient {u_med[0, 2]:.3e})"
            )

        if use_analytic:
            pi_next = np.ascontiguousarray(pi_reference[:, t], dtype=float)
            ds = paths.delta_s(t)
            if ds_mean == "regression":
                # regression centering pairs with mean-centered reward gains,
                # whose conditional expectation (the drift numerator) is zero
                ds_c = conditional_mean(design_t, ds)
                drift = np.zeros_like(ds)
            else:
                ds_c = paths.delta_s_mean(t)
                drift = ds_c
            action_coeffs[t] = hedge_fit(
                design_t, ds - ds_c, pi_next - conditional_mean(design_t, pi_next), t,
                tilt=drift / (2.0 * gamma * risk.lam))

        if t > 0:  # max_a Q_t at x_t, the previous step's next states
            if use_analytic:
                a_star = design_t @ action_coeffs[t]
                u = design_t @ w.T
                v_cache = u[:, 0] + a_star * u[:, 1] + 0.5 * a_star**2 * u[:, 2]
            else:
                v_cache = _crossfit_v(dataset, design_t, targets, psi, t)

    # read out at the start state every path records, which is then the
    # t = 0 median row; the mean of equal values can be an ulp off them
    x0 = dataset.x_paths[:, 0]
    phi0 = phi_med if np.all(x0 == x0[0]) else basis.evaluate([float(x0.mean())])
    u0 = phi0 @ weights[0].T
    if use_analytic:
        a0 = float((phi0 @ action_coeffs[0])[0])
    elif u0[0, 2] < 0:
        a0 = float(-u0[0, 1] / u0[0, 2])
    else:
        raise SingularSystemError("degenerate Q at t=0: no action estimate available")
    price0 = -float(u0[0, 0] + a0 * u0[0, 1] + 0.5 * a0**2 * u0[0, 2])
    return FQISolution(weights=weights, terminal_value_coeffs=term_coeffs,
                       action_coeffs=action_coeffs, price0=price0, hedge0=a0,
                       warnings=warnings)


def _crossfit_v(dataset, design, targets, psi, t):
    """Two-fold vertex estimator of max_a Q_t at the step-t states
    (``design`` rows): fit W on each half of the paths (split by id parity)
    and take both vertex action and value from the fold the evaluated path
    does not belong to.  The vertex is clamped to the step's observed
    action support (the fitted parabola means nothing beyond it), and
    non-concave points fall back to the value at a = 0."""
    a_lo, a_hi = dataset.a[:, t].min(), dataset.a[:, t].max()
    fold = dataset.path_ids % 2
    w_fold = []
    for f in (0, 1):
        sel = fold == f
        if not sel.any():
            raise DataFormatError(f"cannot 2-fold split slice t={t}")
        wv = ridge_solve(psi[sel].T @ psi[sel], psi[sel].T @ targets[sel])
        w_fold.append(_weights_from_vec(wv))
    out = np.empty(fold.size)
    for f in (0, 1):
        sel = fold == f
        u = design[sel] @ w_fold[1 - f].T
        concave = u[:, 2] < 0
        a_star = np.where(concave, -u[:, 1] / np.where(concave, u[:, 2], -1.0), 0.0)
        a_star = np.clip(a_star, a_lo, a_hi)
        out[sel] = u[:, 0] + a_star * u[:, 1] + 0.5 * a_star**2 * u[:, 2]
    return out


def extract_price_hedge(solution: FQISolution, basis, x, t: int):
    """Price and hedge read-out from the fitted quadratic at (x, t).

    The hedge is the parabola vertex -q1/q2 when the fit is concave;
    otherwise it falls back to the stored analytic-action coefficients.
    The price is -Q_t(x, hedge).
    """
    q0, q1, q2 = solution.action_poly(basis, [float(x)], t)
    q0, q1, q2 = float(q0[0]), float(q1[0]), float(q2[0])
    if q2 < 0:
        hedge = -q1 / q2
    elif solution.action_coeffs is not None:
        hedge = float((basis.evaluate([float(x)]) @ solution.action_coeffs[t])[0])
    else:
        raise SingularSystemError(
            f"fitted Q degenerate in the action at step {t} and no fallback action"
        )
    price = -(q0 + hedge * q1 + 0.5 * hedge**2 * q2)
    return price, hedge


# ---------------------------------------------------------------------------
# dataset construction and CSV round-trip

def build_dataset(paths: PathEnsemble, actions, rewards, lam: float,
                  contract: OptionContract = None, seed=None) -> TransitionDataset:
    """The dataset of an ensemble plus per-step (n_paths, n_steps)
    actions and rewards."""
    n, n_steps = paths.n_paths, paths.n_steps
    p = paths.params
    extras = {"s0": p.s0}
    if contract is not None:
        extras["contract_kind"] = contract.kind
        extras["contract_strike"] = contract.strike
    header = DatasetHeader(
        n_paths=n, n_steps=n_steps, mu=p.mu, sigma=p.sigma, r=p.r, dt=p.dt,
        lam=lam, seed=seed if seed is not None else (paths.seed or 0),
        extras=extras,
    )
    return TransitionDataset(np.arange(n), paths.x_paths, actions, rewards, header)


# header key -> type, for the keys every dataset file carries, in
# DatasetHeader field order
_HEADER_KEYS = {"n_paths": int, "n_steps": int, "mu": float, "sigma": float,
                "r": float, "dt": float, "lambda": float, "seed": int}


def write_dataset_csv(dataset: TransitionDataset, path):
    h = dataset.header
    header = dict(zip(_HEADER_KEYS, (h.n_paths, h.n_steps, h.mu, h.sigma, h.r,
                                     h.dt, h.lam, h.seed)))
    header.update(sorted(h.extras.items()))
    write_table(path, {"path": dataset.path_ids, "t": None},
                {"x": dataset.x_paths[:, :-1], "a": dataset.a, "r": dataset.r,
                 "x_next": dataset.x_paths[:, 1:]}, header)


def _number_or_text(v: str):
    try:
        return float(v)
    except ValueError:
        return v


def read_dataset_csv(path) -> TransitionDataset:
    meta, _, data = read_csv(path)
    values = typed_header(path, meta, _HEADER_KEYS)
    if data.shape[1] != 6:
        raise DataFormatError(f"{path}: expected 6 columns, got {data.shape[1]}")
    extras = {k: _number_or_text(v) for k, v in meta.items() if k not in _HEADER_KEYS}
    header = DatasetHeader(*values.values(), extras=extras)
    return TransitionDataset.from_records(*data.T, header, source=path)
