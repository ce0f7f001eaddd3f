"""Model-free fitted Q-iteration on batches of transition tuples.

The Q-function is quadratic in the action, so it is parametrized per step
by a 3 x M matrix W acting on (1, a, a^2/2) and the state basis:

    Q_t(x, a) = (1, a, a^2/2) @ W_t @ Phi(x).

Each backward step solves one least-squares problem in the 3M stacked
features, made a block of rows at a time from the step's design, so no
(n, 3M) array exists; the steps are the hedge rule of
``portfolio._replicate``, which rolls the portfolio back on the recorded
actions.  The max over next actions inside the target is evaluated at an
action estimated independently of the W-fit being maximized: the
closed-form action of ``dp.solve_dp``, the one hedge step
``portfolio.hedge_step`` tilted by the risk-return drift, on that
portfolio.  Maximizing the same fitted parabola on the same sample would
bias Q upward through the convexity of the max.  The price is -Q_0 at
that action, which is the hedge: the price and the hedge are read out of
one fit.  The terminal fit is ``dp.terminal_fit``.
"""

from dataclasses import dataclass, field

import numpy as np

from .csvio import read_panels, scatter_records, typed_header, write_table
from .dp import terminal_fit
from .errors import DataFormatError, DegenerateInputError, require_finite
from .market import OptionContract, PathEnsemble, terminal_payoff
from .portfolio import RiskParams, _replicate, _reward, hedge_step
from .regression import least_squares


# a dataset header's items after its ensemble's (PathEnsemble.header), by type
_HEADER_KEYS = {"lambda": float, "contract_kind": str, "contract_strike": float}
# a dataset file's columns, in order: a record per path and t in [0, n_steps],
# the one at t = n_steps holding the terminal price with a and r 0 (csvio's rule)
_RECORD_COLUMNS = ("path", "t", "s", "a", "r")


class TransitionDataset:
    """Transitions recorded on one ensemble of prices, ``paths``, whose
    params and seed are the dataset's: a path per id of ``path_ids``
    (ascending), and ``a`` and ``r`` (n, n_steps), a column per step, stored
    by step so that column t is contiguous (a panel so stored, no copy);
    the file's terminal records are the codec's.  ``risk`` holds the
    dataset's lambda, ``contract`` may be None, and ``extras`` holds any
    other header items.  ``from_records`` builds one from flat records."""

    def __init__(self, path_ids, paths: PathEnsemble, a, r, lam: float,
                 contract: OptionContract = None, extras=None):
        self.path_ids = np.asarray(path_ids, dtype=np.int64)
        self.paths, self.contract, self.extras = paths, contract, dict(extras or {})
        self.risk = RiskParams(lam)
        shape = (self.path_ids.size, paths.n_steps)
        if paths.n_paths != shape[0]:
            raise DataFormatError(f"{paths.n_paths} price paths for {shape[0]} path ids")
        for name, v in (("a", a), ("r", r)):
            v = np.ascontiguousarray(np.asarray(v, dtype=float).T).T
            if v.shape != shape:
                raise DataFormatError(f"{name} is {v.shape}; expected {shape}")
            if not np.all(np.isfinite(v)):
                raise DataFormatError(f"non-finite {name} values in dataset")
            setattr(self, name, v)

    @classmethod
    def from_records(cls, path_ids, t, s, a, r, header: dict, source="records"):
        """The dataset of flat (path, t, s, a, r) records in any order, as a
        file holds them, under the file's items ``header``: ``n_steps``, the
        rest of the ensemble's (``PathEnsemble.from_header``), ``lambda``,
        optionally ``contract_kind`` and ``contract_strike``, then extras.
        The records must hold one per path and t in [0, n_steps], with
        a = r = 0 at t = n_steps (csvio's terminal rule).  Errors name
        ``source`` and the header key or the (path, t) cell."""
        n_steps = typed_header(source, header, {"n_steps": int})["n_steps"]
        ids, p = scatter_records(source, dict(zip(_RECORD_COLUMNS, (path_ids, t, s, a, r))),
                                 n_steps + 1, _RECORD_COLUMNS[3:])
        return cls._from_panels(source, header, ids, p)

    @classmethod
    def _from_panels(cls, source, header, ids, p):
        """The dataset of the placed records: ``ids`` and the step-major
        panels ``p`` of ``scatter_records``, under the file's items."""
        paths = PathEnsemble.from_header(source, header, ids, p["s"])
        v = typed_header(source, header, {k: typ for k, typ in _HEADER_KEYS.items()
                                          if k in header or k == "lambda"})
        known = {**_HEADER_KEYS, **paths.header()}
        try:
            contract = (OptionContract(v["contract_kind"], v["contract_strike"])
                        if "contract_kind" in v and "contract_strike" in v else None)
            return cls(ids, paths, p["a"].T, p["r"].T, v["lambda"], contract,
                       {k: val for k, val in header.items() if k not in known})
        except ValueError as exc:  # lambda, or the contract's kind or strike
            key = str(exc).split()[0]
            key = key if key == "lambda" else f"contract_{key}"
            raise DataFormatError(f"{source}: bad header value for {key}: {exc}") from None

    def __len__(self):
        return self.a.size


def build_features(design, a, t=None) -> np.ndarray:
    """Stacked features Psi(x, a) of length 3M per record, from the design
    rows Phi(x) = ``basis.evaluate(x)``.

    Columns of the outer product of (1, a, a^2/2) with Phi(x), concatenated
    column-major: [Phi_1, a Phi_1, a^2/2 Phi_1, Phi_2, ...].  An a^2/2 past the
    doubles raises SingularSystemError naming step ``t`` (no |Phi| exceeds 1).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    out = np.empty((design.shape[0], 3 * design.shape[1]))
    out[:, 0::3] = design
    np.multiply(design, a[:, None], out=out[:, 1::3])
    half_a2 = require_finite(lambda: 0.5 * a**2, "FQI feature a^2/2 of the recorded actions", t)
    np.multiply(design, half_a2[:, None], out=out[:, 2::3])
    return out


def _weights_from_vec(wvec: np.ndarray) -> np.ndarray:
    """Unstack the 3M solution vector into the 3 x M coefficient matrix."""
    return wvec.reshape(-1, 3).T


@dataclass
class FQISolution:
    """Per-step quadratic Q-weights with the t=0 price/hedge read-outs."""

    weights: list               # n_steps arrays of shape (3, M)
    terminal_value_coeffs: np.ndarray
    action_coeffs: list         # n_steps arrays of shape (M,), the analytic actions
    price0: float
    hedge0: float
    warnings: list = field(default_factory=list)


def fqi_backward(dataset: TransitionDataset, basis, *, pi_reference=None,
                 ds_mean: str = "model") -> FQISolution:
    """Backward fitted Q-iteration over the dataset's steps, pricing the
    dataset's own contract (its terminal condition).

    Parameters
    ----------
    pi_reference : ndarray, optional
        Portfolio values as an (n, n_steps+1) panel, such as
        ``solve_local_risk(...)[1]``, in the dataset's path order.  When
        omitted it is the portfolio the recorded actions roll back, whose
        Pi_(t+1) ``portfolio._replicate`` hands step t's fits before it
        takes the step.  The max-term action at each step is the tilted
        ``portfolio.hedge_step`` on these values, as in ``dp.solve_dp``;
        ``hedge0`` is the same action at t = 0.
    ds_mean : {"model", "regression"}
        The step convention of ``portfolio.hedge_step``; "regression"
        matches chains whose snapped increments carry quantization drift.
    """
    risk, paths, contract = dataset.risk, dataset.paths, dataset.contract
    if risk.lam <= 0:
        raise ValueError("fqi_backward requires lam > 0")
    if contract is None:
        raise DataFormatError(
            "no contract in the dataset (header contract_kind/strike); "
            "the terminal condition is undefined without one"
        )
    n_steps = paths.n_steps
    if pi_reference is not None:
        _check_shape("pi_reference", pi_reference, paths.n_paths, n_steps + 1)

    payoff = terminal_payoff(paths.s(n_steps), contract)
    design_term = basis.evaluate(paths.x(n_steps))
    term_coeffs = terminal_fit(design_term, payoff, risk.lam)
    v_cache = design_term @ term_coeffs  # max_a Q_{t+1}(x_{t+1})
    del design_term  # not held through the steps

    weights = [None] * n_steps
    action_coeffs = [None] * n_steps
    warnings = []
    lam_note = f"risk.lambda = {risk.lam:g}"
    phi_med = None  # step 0's median design row, for the read-out

    def hedge(t, pi_next, ds, s):
        """Step t's Q fit, concavity probe and analytic action, then max_a
        Q_t for step t-1's targets; the portfolio rolls on the recorded action."""
        nonlocal v_cache, phi_med
        if pi_reference is not None:
            pi_next = np.ascontiguousarray(pi_reference[:, t + 1], dtype=float)
        x_t, a_t = paths.x(t), dataset.a[:, t]
        targets = require_finite(lambda: dataset.r[:, t] + paths.params.gamma * v_cache,
                                 "FQI target R_t + gamma max_a Q_(t+1)", t, lam_note)
        design = basis.evaluate(x_t)
        weights[t] = w = _weights_from_vec(least_squares(
            lambda rows: build_features(design[rows], a_t[rows], t), targets,
            what=f"FQI weights at step {t}"))

        phi_med = basis.evaluate([float(np.median(x_t))])
        if (q2 := (phi_med @ w.T)[0, 2]) >= 0:
            warnings.append(f"step {t}: fitted Q not concave in the action at the median "
                            f"state (quadratic coefficient {q2:.3e})")

        action_coeffs[t] = hedge_step(design, paths, t, pi_next, ds, s, risk, ds_mean)[1]
        if t > 0:  # max_a Q_t at x_t, the previous step's next states
            a_star = design @ action_coeffs[t]
            _check_one_action(a_t, a_star, t)
            u = design @ w.T
            v_cache = require_finite(  # past the doubles, so is step t-1's target
                lambda: u[:, 0] + a_star * u[:, 1] + 0.5 * a_star**2 * u[:, 2],
                "FQI target R_t + gamma max_a Q_(t+1)", t - 1, lam_note)
        return a_t

    _replicate(paths, payoff, hedge)

    # read out at the start state every path records, which is then the
    # t = 0 median row; the mean of equal values can be an ulp off them
    x0 = paths.x(0)
    phi0 = phi_med if np.all(x0 == x0[0]) else basis.evaluate([float(x0.mean())])
    price0, a0 = _read_out(phi0, weights[0], action_coeffs[0])
    _check_one_action(dataset.a[:, 0], a0, 0)
    return FQISolution(weights=weights, terminal_value_coeffs=term_coeffs,
                       action_coeffs=action_coeffs, price0=price0, hedge0=a0,
                       warnings=warnings)


def _check_one_action(recorded, read, t):
    """Refuse to read step t's fit at an action other than the one value
    every path recorded there: the fitted parabola has no data elsewhere."""
    a, read = recorded[0], np.atleast_1d(read)
    off = np.abs(read - a) > 1e-9 * max(1.0, abs(a))
    if off.any() and np.all(recorded == a):
        raise DegenerateInputError(
            f"every action recorded at step {t} is {a:.17g}, but the fit is read "
            f"at action {read[off][0]:.6g}; one recorded action cannot price another")


def _read_out(phi, w, beta):
    """Price and hedge at the design row ``phi`` (1 x M) from a step's
    weights ``w`` and action coefficients ``beta``: the hedge is the
    analytic action ``phi @ beta`` and the price is -Q at that hedge."""
    q0, q1, q2 = (phi @ w.T)[0]
    hedge = float((phi @ beta)[0])
    return -float(q0 + hedge * q1 + 0.5 * hedge**2 * q2), hedge


def extract_price_hedge(solution: FQISolution, basis, x, t: int):
    """Price and hedge read out at (x, t) by the rule ``fqi_backward``
    applies at t = 0, so at its start state this returns
    (``price0``, ``hedge0``)."""
    return _read_out(basis.evaluate([float(x)]), solution.weights[t],
                     solution.action_coeffs[t])


# ---------------------------------------------------------------------------
# dataset construction and CSV round-trip

def dataset_rewards(paths: PathEnsemble, actions, contract: OptionContract,
                    risk: RiskParams, basis, *, record_hedge=False) -> np.ndarray:
    """Per-record rewards of the recorded (n_paths, n_steps) ``actions``
    under ``portfolio.hedge_step``'s model convention, with the variance
    penalty around the portfolio of ``contract``'s risk-minimizing hedge,
    as an (n_paths, n_steps) panel stored by step, as a dataset keeps it.
    They are built inside that hedge's backward pass, the one
    ``solve_local_risk`` runs: each step evaluates one design and centers
    once, and no portfolio panel is kept.  With ``record_hedge`` the
    actions are written, not read: column t receives the pass's hedge at
    step t, the local_risk policy's action, before its rewards are taken."""
    n, n_steps = paths.n_paths, paths.n_steps
    _check_shape("actions", actions, n, n_steps)

    def rewards():  # stored by step, so that the first bad row names its step
        out = np.empty((n_steps, n))

        def hedge(t, pi_next, ds, s):
            design = basis.evaluate(paths.x(t))
            (ds_c, pi_c, gain), coeffs = hedge_step(design, paths, t, pi_next, ds, s)
            u = design @ coeffs
            if record_hedge:
                actions[:, t] = u
            out[t] = _reward(actions[:, t], ds, pi_next, risk, paths.params.gamma,
                             pi_center=pi_c, ds_center=ds_c, gain=gain)
            return u

        _replicate(paths, terminal_payoff(paths.s(n_steps), contract), hedge)
        return out
    return require_finite(rewards, "reward R", note=f"risk.lambda = {risk.lam:g}",
                          by_step=True).T


def _check_shape(name, panel, n_paths, n_cols):
    if np.shape(panel) != (n_paths, n_cols):
        raise ValueError(f"{name} must be an ({n_paths}, {n_cols}) panel; "
                         f"got {np.shape(panel)}")


def build_dataset(paths: PathEnsemble, actions, rewards, lam: float,
                  contract: OptionContract = None) -> TransitionDataset:
    """The dataset of an ensemble, under its seed, plus (n_paths, n_steps)
    actions and rewards (see ``TransitionDataset``)."""
    return TransitionDataset(np.arange(paths.n_paths), paths, actions, rewards, lam,
                             contract)


def write_dataset_csv(dataset: TransitionDataset, path):
    """Write a record per path and t in [0, n_steps] (see _RECORD_COLUMNS),
    formatted from the stored panels a block of paths at a time: the
    prices are the ensemble's own panel, so no derived panel is built.
    The header is the ensemble's (``PathEnsemble.header``), then
    ``lambda``, and the contract and extras by name."""
    paths, n_steps, c = dataset.paths, dataset.paths.n_steps, dataset.contract
    contract = {} if c is None else {"contract_kind": c.kind, "contract_strike": c.strike}

    def with_expiry(v):  # a or r: each block's rows padded by the terminal record's 0
        return lambda rows: np.pad(v[rows], [(0, 0), (0, 1)])
    write_table(path, {"path": dataset.path_ids, "t": np.arange(n_steps + 1)},
                {"s": paths.s_paths, "a": with_expiry(dataset.a), "r": with_expiry(dataset.r)},
                {**paths.header(), "lambda": dataset.risk.lam,
                 **dict(sorted({**dataset.extras, **contract}.items()))})


def read_dataset_csv(path) -> TransitionDataset:
    """The dataset of a ``write_dataset_csv`` file in any record order, its
    columns, n_paths and n_steps checked before any record is read
    (``csvio.read_panels``, which applies the terminal rule to a and r)."""
    def check(meta, names):
        _check_columns(path, names)
        typed_header(path, meta, {"n_paths": int, "n_steps": int})
        return {name: name for name in _RECORD_COLUMNS[2:]}

    meta, (ids, p) = read_panels(path, check, _RECORD_COLUMNS[3:])
    return TransitionDataset._from_panels(path, meta, ids, p)


def _check_columns(path, names):
    if tuple(names) != _RECORD_COLUMNS:  # x: a layout of states, with or without x_next
        hint = "; states (x) are no longer read: re-run make-dataset" if "x" in names[2:3] else ""
        raise DataFormatError(f"{path}: columns {','.join(names)}, expected "
                              f"{','.join(_RECORD_COLUMNS)}{hint}")
