"""Exponential-utility indifference pricing under the pricing measure.

For a writer with utility -exp(-g W), the indifference value satisfies the
backward recursion

    h_t = e^{-r dt} (1/g) log E_t[ exp(g (h_{t+1} - u dS_t)) ],

with h_T the payoff and u the hedge minimizing the inner expectation.  For
small risk aversion g the recursion expands in central moments of the
hedged slippage

    h~ = h_{t+1} - u0 dS_t,      u0 = Cov_t(h_{t+1}, dS_t) / Var_t(dS_t),

as  h_t = e^{-r dt} ( E_t[h~] + (g/2) Var_t[h~] + (g^2/6) m3_t[h~] + ... ),
and the optimal hedge expands as u0 + g u1 with
u1 = E_t[h~^2 dS_t] / (2 Var_t(dS_t)).

Conditional moments are taken per basis cell with weights Phi_n(x).  The
increments dS are mean-centered within each cell: the recursion assumes a
measure under which dS is a martingale, and any sample drift left in a
cell would be exploited by the exact optimizer as spurious arbitrage of
size O(1/g).  Discounting applies e^{-r dt} to each step's certainty
equivalent, so the g -> 0, order-0 limit is the discounted risk-neutral
expectation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, SingularSystemError, require_finite
from .market import OptionContract, PathEnsemble, terminal_payoff

_BISECT_CAP = 200


@dataclass
class IndifferenceResult:
    """The t = 0 indifference value and the per-step hedges of the recursion."""

    price0: float           # h_0 on the first path
    hedge_coeffs: list      # n_steps arrays of shape (M,), hedge chosen at t
    method: str             # "expansion" or "numeric"


class _Cell:
    """Weighted sample of one basis cell with centered increments.

    Only the samples with nonzero weight are kept, so localized bases cost
    O(cell size) per moment rather than O(n_paths).  A singleton cell
    carries a value estimate but no hedge (its centered increment is
    identically zero); a multi-sample cell with no increment dispersion is
    a genuine degeneracy and raises.
    """

    def __init__(self, w, ds, t, n):
        self.idx = np.flatnonzero(w > 0)
        tot = w[self.idx].sum() if self.idx.size else 0.0
        self.empty = tot <= 0
        if self.empty:
            return
        self.w = w[self.idx] / tot
        self.ds_c = ds[self.idx] - self.mean(ds[self.idx])
        self.var = self.mean(self.ds_c**2)
        self.hedgeable = self.var > 0
        # a NaN variance is not zero: _cells reports it as not finite
        if self.var == 0 and self.idx.size >= 2:
            raise DegenerateInputError(
                f"zero conditional variance of dS in cell {n} at step {t}"
            )

    def take(self, v):
        return np.asarray(v)[self.idx]

    def mean(self, v_sub):
        return float(np.einsum("i,i->", self.w, v_sub))

    def u0(self, h_sub):
        if not self.hedgeable:
            return 0.0
        return self.mean(h_sub * self.ds_c) / self.var

    def u1(self, h_sub, u0):
        if not self.hedgeable:
            return 0.0
        resid = h_sub - u0 * self.ds_c
        return 0.5 * self.mean(resid**2 * self.ds_c) / self.var


def _exact_hedge(cell, h_sub, n, t, gamma_risk):
    """The hedge minimizing E[exp(g (h - u dS))] over a hedgeable cell, by
    bisection on its monotone derivative, to 1e-10 in the hedge."""
    u0 = cell.u0(h_sub)

    def dobj(u):
        z = gamma_risk * (h_sub - u * cell.ds_c)
        return -cell.mean(cell.ds_c * np.exp(z - z.max()))

    lo, hi = u0 - 1.0, u0 + 1.0
    it = 0
    while dobj(lo) > 0:
        lo -= max(1.0, hi - lo)
        it += 1
        if it > _BISECT_CAP:
            raise SingularSystemError(f"hedge bracketing failed in cell {n}")
    while dobj(hi) < 0:
        hi += max(1.0, hi - lo)
        it += 1
        if it > _BISECT_CAP:
            raise SingularSystemError(f"hedge bracketing failed in cell {n}")
    for _ in range(_BISECT_CAP):
        mid = 0.5 * (lo + hi)
        if dobj(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-10:
            break
    else:
        raise SingularSystemError(
            f"hedge bisection did not reach 1e-10 in cell {n} at step {t}"
        )
    return 0.5 * (lo + hi)


def indifference_price_recursion(paths: PathEnsemble, contract: OptionContract,
                                 gamma_risk: float, basis, *, order: int = 1,
                                 method: str = "expansion",
                                 terminal_values=None) -> IndifferenceResult:
    """Backward indifference valuation of a European payoff.

    ``method="expansion"`` truncates the slippage-moment expansion at
    ``order`` (0, 1 or 2; the variance term is floored at zero);
    ``method="numeric"`` evaluates the exact per-cell log-expectation at
    the bisection hedge, rescaled by the cell maximum before
    exponentiation so large g * payoff cannot overflow.  Both use the same
    per-cell moments, so their difference is the truncation remainder.
    ``terminal_values`` overrides the contract payoff for custom claims.
    """
    if method not in ("expansion", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    if method == "numeric" and gamma_risk <= 0:
        raise ValueError("numeric method requires gamma_risk > 0")
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    n_steps = paths.n_steps
    disc = paths.params.gamma
    if terminal_values is not None:
        h = np.broadcast_to(np.asarray(terminal_values, dtype=float), (paths.n_paths,))
    else:
        h = terminal_payoff(paths.s(n_steps), contract)
    hedge_coeffs = [None] * n_steps

    for t in range(n_steps - 1, -1, -1):
        values = require_finite(
            lambda: np.concatenate(_step(paths, t, basis, h, gamma_risk, method, order,
                                         disc)),
            "indifference value or hedge", t, f"utility.gamma = {gamma_risk:g}")
        h, hedge_coeffs[t] = values[:paths.n_paths], values[paths.n_paths:].copy()
    return IndifferenceResult(price0=float(h[0]), hedge_coeffs=hedge_coeffs,
                              method=method)


def _cells(paths, t, design):
    """Step t's basis cells (``design`` columns) of the increments dS_t.
    Their moments do not depend on the risk aversion: a variance past the
    doubles raises SingularSystemError naming dS and market.r, whose growth
    e^(r dt) S_t dominates dS.  Runs inside the step's ``require_finite``,
    which keeps numpy's float warnings off."""
    ds = paths.delta_s(t)
    cells = [_Cell(design[:, n], ds, t, n) for n in range(design.shape[1])]
    p = paths.params
    require_finite(lambda: [c.var for c in cells if not c.empty],
                   "variance of the price increments dS = S_(t+1) - e^(r dt) S_t", t,
                   f"market.r = {p.r:g}, e^(r dt) = {np.exp(p.r * p.dt):.6g}")
    return cells


def _step(paths, t, basis, h_next, gamma_risk, method, order, disc):
    """One backward step: h_t and the per-cell hedges, from h_{t+1}."""
    design = basis.evaluate(paths.x(t))
    cells = _cells(paths, t, design)
    vals, hedges = np.zeros(len(cells)), np.zeros(len(cells))
    occupied = np.array([not c.empty for c in cells])
    for n, cell in enumerate(cells):
        if cell.empty:
            continue
        h_sub = cell.take(h_next)
        if method == "numeric":
            if cell.hedgeable:  # a singleton has no hedge estimate: 0
                hedges[n] = _exact_hedge(cell, h_sub, n, t, gamma_risk)
            z = gamma_risk * (h_sub - hedges[n] * cell.ds_c)
            zmax = float(z.max())
            vals[n] = (zmax + np.log(cell.mean(np.exp(z - zmax)))) / gamma_risk
        else:
            u0 = cell.u0(h_sub)
            hedges[n] = u0
            resid = h_sub - u0 * cell.ds_c
            mean_r = cell.mean(resid)
            vals[n] = mean_r
            if order >= 1:
                var_r = max(cell.mean(resid**2) - mean_r * mean_r, 0.0)
                vals[n] += 0.5 * gamma_risk * var_r
                hedges[n] = u0 + gamma_risk * cell.u1(h_sub, u0)
            if order >= 2:
                vals[n] += gamma_risk * gamma_risk / 6.0 * cell.mean((resid - mean_r) ** 3)
    design[:, ~occupied] = 0.0  # the cells hold copies of what they read
    norm = design.sum(axis=1)
    if np.any(norm <= 0):
        raise DegenerateInputError(f"state outside every occupied cell at step {t}")
    return disc * (design @ vals) / norm, hedges
