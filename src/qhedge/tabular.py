"""Discrete-state, discrete-action version of the hedging MDP.

The continuous state is snapped to a quantile grid, transitions are
estimated from bin counts, and the one-step rewards become per-transition
parabolas in the action whose coefficients are conditional averages of the
continuous rewards.  Reward increments are mean-centered per (step, state)
bucket: snapping the state breaks the martingale property of the price
increments, and without recentering a grid-max Bellman solver would chase
the quantization drift to the edge of the action grid.

On a chain, exact backward induction over the action grid is cheap and
serves as the convergence oracle for online Q-learning, which runs one
time slice at a time (backward) with per-cell Robbins-Monro step sizes.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet
from .market import (OptionContract, PathEnsemble, ensemble_from_prices,
                     from_state, terminal_payoff)
from .portfolio import RiskParams, _replicate, reward_parabola


@dataclass
class DiscreteMDP:
    """A finite hedging chain with quadratic-in-action reward tables.

    ``reward_coeffs[t, i, j]`` holds (c0, c1, c2) of the expected reward of
    the transition state_i -> state_j at step t as a function of the
    action; ``probs[t, i]`` is the step-t transition row (rows of visited
    states sum to one).
    """

    x_centers: np.ndarray       # (n_x,)
    action_grid: np.ndarray     # (n_a,)
    probs: np.ndarray           # (n_steps, n_x, n_x)
    reward_coeffs: np.ndarray   # (n_steps, n_x, n_x, 3)
    terminal_q: np.ndarray      # (n_x,)
    reachable: np.ndarray       # (n_steps+1, n_x) bool
    x0_index: int
    risk: RiskParams
    edges: np.ndarray = None    # (n_x+1,) quantile bucket edges
    slices: str = "per_step"
    merged_bins: list = field(default_factory=list)

    @property
    def n_states(self) -> int:
        return self.x_centers.size

    @property
    def n_actions(self) -> int:
        return self.action_grid.size

    @property
    def n_steps(self) -> int:
        return self.probs.shape[0]

    def state_index(self, x) -> np.ndarray:
        """Bucket index of raw states under the chain's quantile edges."""
        return np.clip(np.searchsorted(self.edges, np.asarray(x), side="right") - 1,
                       0, self.n_states - 1)

    def snapped_ensemble(self, paths: PathEnsemble) -> PathEnsemble:
        """The ensemble with every state snapped to its bucket center."""
        idx = self.state_index(paths.x_paths)
        s = from_state(self.x_centers[idx], paths.params.times()[None, :],
                       paths.params)
        return ensemble_from_prices(s, paths.params, seed=paths.seed)

    def indicator_basis(self):
        """One-hot basis whose buckets are exactly the chain states."""
        c = self.x_centers
        if c.size == 1:
            mids = np.array([c[0] - 0.5, c[0] + 0.5])
        else:
            inner = 0.5 * (c[:-1] + c[1:])
            mids = np.concatenate([[c[0] - 1.0], inner, [c[-1] + 1.0]])
        return BasisSet("one_hot_grid", c.size, edges=mids)


@dataclass
class QTable:
    """Tabulated Q-values (n_steps+1, n_x, n_a); ``visits`` is None for the
    exact solver and the per-cell update count for the online learner."""

    q: np.ndarray
    visits: np.ndarray | None = None


def _bucket_means(ix, vals, n_x):
    cnt = np.bincount(ix, minlength=n_x).astype(float)
    tot = np.bincount(ix, weights=vals, minlength=n_x)
    return np.where(cnt > 0, tot / np.maximum(cnt, 1.0), 0.0)


def discretize(paths: PathEnsemble, contract: OptionContract, risk: RiskParams,
               n_x: int, n_a: int, action_range, *,
               slices: str = "per_step") -> DiscreteMDP:
    """Build the finite chain from an ensemble.

    The state grid sits on quantiles of the pooled states (empty duplicate
    bins are merged and recorded); actions are a uniform grid over
    ``action_range``.  Rewards come from the risk-minimizing replicating
    rollout on the snapped paths, so they do not depend on any exploration
    policy.

    ``slices="per_step"`` keeps one empirical transition table per time
    step (exactly consistent with cross-sectional regression solvers);
    ``"pooled"`` shares one table across steps, as the driftless state
    justifies statistically.
    """
    if n_x < 1 or n_a < 2:
        raise ValueError("need n_x >= 1 and n_a >= 2")
    if slices not in ("per_step", "pooled"):
        raise ValueError(f"unknown slices mode {slices!r}")
    n_steps = paths.n_steps

    pooled = paths.x_paths
    if np.all(pooled[:, 0] == pooled[0, 0]) and n_steps >= 1:
        # the initial column is a point mass; its weight would only
        # collapse quantile edges onto duplicates
        pooled = pooled[:, 1:]
    edges = np.quantile(pooled.ravel(), np.linspace(0.0, 1.0, n_x + 1))
    uniq, first = np.unique(edges, return_index=True)
    merged = []
    if uniq.size < edges.size:
        kept = np.sort(first)
        merged = [(int(i), int(np.searchsorted(kept, i, side="right") - 1))
                  for i in range(edges.size) if i not in kept]
        edges = uniq
    if edges.size < 2:
        edges = np.array([edges[0], edges[0] + 1e-8])
    n_xe = edges.size - 1
    lo, hi = action_range
    mdp = DiscreteMDP(
        x_centers=0.5 * (edges[:-1] + edges[1:]),
        action_grid=np.linspace(float(lo), float(hi), n_a), probs=None,
        reward_coeffs=None, terminal_q=None, reachable=None, x0_index=0, risk=risk,
        edges=edges, slices=slices, merged_bins=merged)
    snapped = mdp.snapped_ensemble(paths)
    idx = mdp.state_index(paths.x_paths)
    payoff = terminal_payoff(snapped.s_paths[:, -1], contract)

    # martingale-enforced increments per (step, bucket)
    ds_dev = np.empty((paths.n_paths, n_steps))
    for t in range(n_steps):
        ds = snapped.delta_s(t)
        ds_dev[:, t] = ds - _bucket_means(idx[:, t], ds, n_xe)[idx[:, t]]

    def bucket_hedge(t, pi_next):
        """Per-bucket risk-minimizing hedge Cov(Pi_{t+1}, dS_t) / Var(dS_t)."""
        ix = idx[:, t]
        pi_dev = pi_next - _bucket_means(ix, pi_next, n_xe)[ix]
        num = _bucket_means(ix, pi_dev * ds_dev[:, t], n_xe)
        den = _bucket_means(ix, ds_dev[:, t] ** 2, n_xe)
        return np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)[ix]

    # risk-minimizing reference rollout on the snapped prices
    pi = _replicate(payoff, n_steps, risk.gamma, snapped.delta_s, bucket_hedge)

    # per-path reward parabolas, then conditional means per (t, i, j);
    # bincount adds each cell's records in path order
    counts = np.empty((n_steps, n_xe * n_xe))
    coeffs = np.empty((n_steps, n_xe * n_xe, 3))
    for t in range(n_steps):
        ix = idx[:, t]
        cell = ix * n_xe + idx[:, t + 1]
        counts[t] = np.bincount(cell, minlength=n_xe * n_xe)
        for k, c in enumerate(reward_parabola(
                ds_dev[:, t], pi[:, t + 1], risk,
                pi_center=_bucket_means(ix, pi[:, t + 1], n_xe)[ix], ds_center=0.0)):
            coeffs[t, :, k] = np.bincount(cell, weights=c, minlength=n_xe * n_xe)
    counts = counts.reshape(n_steps, n_xe, n_xe)
    coeffs = coeffs.reshape(n_steps, n_xe, n_xe, 3)
    coeffs = np.where(counts[..., None] > 0,
                      coeffs / np.maximum(counts[..., None], 1.0), 0.0)

    if slices == "pooled":
        total = counts.sum(axis=0)
        rows = total.sum(axis=1, keepdims=True)
        probs = np.where(rows > 0, total / np.maximum(rows, 1.0), 0.0)
        probs = np.broadcast_to(probs, counts.shape).copy()
    else:
        rows = counts.sum(axis=2, keepdims=True)
        probs = np.where(rows > 0, counts / np.maximum(rows, 1.0), 0.0)

    ix_T = idx[:, -1]
    mean_pay = _bucket_means(ix_T, payoff, n_xe)
    mean_pay2 = _bucket_means(ix_T, payoff**2, n_xe)
    terminal_q = -mean_pay - risk.lam * np.maximum(mean_pay2 - mean_pay**2, 0.0)

    reachable = np.zeros((n_steps + 1, n_xe), dtype=bool)
    reachable[np.arange(n_steps + 1), idx] = True

    mdp.probs, mdp.reward_coeffs, mdp.terminal_q = probs, coeffs, terminal_q
    mdp.reachable, mdp.x0_index = reachable, int(idx[0, 0])
    return mdp


def exact_backward_induction(mdp: DiscreteMDP) -> QTable:
    """Exact finite-horizon solve: Q_t(i, a) = sum_j p_t(j|i) [R_t(i,a,j)
    + gamma max_a' Q_{t+1}(j, a')].  Unreached states keep Q = 0."""
    n_steps, n_x, n_a = mdp.n_steps, mdp.n_states, mdp.n_actions
    ag = mdp.action_grid
    q = np.zeros((n_steps + 1, n_x, n_a))
    q[n_steps] = np.where(mdp.reachable[n_steps, :, None], mdp.terminal_q[:, None], 0.0)
    gamma = mdp.risk.gamma
    for t in range(n_steps - 1, -1, -1):
        v_next = np.where(mdp.reachable[t + 1], q[t + 1].max(axis=1), 0.0)
        cont = mdp.reward_coeffs[t, :, :, 0] + gamma * v_next[None, :]
        base = np.einsum("ij,ij->i", mdp.probs[t], cont)
        lin = np.einsum("ij,ij->i", mdp.probs[t], mdp.reward_coeffs[t, :, :, 1])
        quad = np.einsum("ij,ij->i", mdp.probs[t], mdp.reward_coeffs[t, :, :, 2])
        q_t = base[:, None] + lin[:, None] * ag[None, :] + quad[:, None] * ag[None, :] ** 2
        q[t] = np.where(mdp.reachable[t, :, None], q_t, 0.0)
    return QTable(q=q)


def q_learn(mdp: DiscreteMDP, n_updates_per_slice: int, *,
            schedule=(0.5, 100.0), seed: int = 0) -> QTable:
    """Online Q-learning, one backward slice at a time.

    Each update draws a reachable (state, action) cell uniformly (exploring
    starts), samples the successor from the chain, and applies the
    Robbins-Monro step alpha_k = alpha0 / (1 + k / k0) with a per-cell
    counter k.  The slice above is fully learned (and frozen) before the
    current one starts; the terminal slice is set exactly.  Cells of
    unreachable states are never updated and keep their initialization.

    The updates of a slice are applied grouped by cell, one vectorized
    step per visit rank k, and this is exact, not an approximation: with
    ``v_next`` frozen, a target depends only on its own draws, so each
    cell is an independent Robbins-Monro chain (Watkins & Dayan 1992).
    Ranking by a stable sort keeps every cell's updates in draw order,
    and each arithmetic step is the one-at-a-time update's, so ``q`` and
    ``visits`` are bit-identical to applying the draws one by one.
    """
    alpha0, k0 = float(schedule[0]), float(schedule[1])
    n_steps, n_x, n_a = mdp.n_steps, mdp.n_states, mdp.n_actions
    rng = np.random.default_rng(seed)
    ag = mdp.action_grid
    gamma = mdp.risk.gamma

    q = np.zeros((n_steps + 1, n_x, n_a))
    q[n_steps] = np.where(mdp.reachable[n_steps, :, None], mdp.terminal_q[:, None], 0.0)
    visits = np.zeros((n_steps, n_x, n_a), dtype=np.int64)

    for t in range(n_steps - 1, -1, -1):
        states = np.flatnonzero(mdp.reachable[t])
        v_next = np.where(mdp.reachable[t + 1], q[t + 1].max(axis=1), 0.0)
        cum = mdp.probs[t].cumsum(axis=1)
        xs = rng.choice(states, size=n_updates_per_slice)
        aj = rng.integers(0, n_a, size=n_updates_per_slice)
        u = rng.random(n_updates_per_slice)
        # successors state by state, so no (n_updates, n_x) temporary is built
        xn = np.empty(n_updates_per_slice, dtype=np.intp)
        for i in states:
            drawn = xs == i
            xn[drawn] = np.searchsorted(cum[i], u[drawn], side="right")
        xn = np.minimum(xn, n_x - 1)
        a = ag[aj]
        c = mdp.reward_coeffs[t, xs, xn]
        target = c[:, 0] + c[:, 1] * a + c[:, 2] * a * a + gamma * v_next[xn]

        cell = xs * n_a + aj
        counts = np.bincount(cell, minlength=n_x * n_a)
        by_cell = np.argsort(cell, kind="stable")
        first = np.repeat(np.cumsum(counts) - counts, counts)
        rank = np.arange(n_updates_per_slice) - first     # visit rank of by_cell[j]
        by_rank = by_cell[np.argsort(rank, kind="stable")]
        per_rank = np.bincount(rank)
        steps = alpha0 / (1.0 + np.arange(per_rank.size) / k0)
        q_t = q[t].reshape(-1)      # a view: updates land in q
        lo = 0
        for k, hi in enumerate(np.cumsum(per_rank)):
            sel = by_rank[lo:hi]    # rank k: each visited cell once
            cs = cell[sel]
            q_t[cs] += steps[k] * (target[sel] - q_t[cs])
            lo = hi
        visits[t] = counts.reshape(n_x, n_a)
    return QTable(q=q, visits=visits)


def analytic_actions(mdp: DiscreteMDP) -> np.ndarray:
    """Closed-form optimal action per (step, state) from the chain's own
    moments: the vertex of the probability-averaged reward parabola plus
    the discounted continuation (which does not depend on the action)."""
    n_steps = mdp.n_steps
    out = np.zeros((n_steps, mdp.n_states))
    for t in range(n_steps):
        lin = np.einsum("ij,ij->i", mdp.probs[t], mdp.reward_coeffs[t, :, :, 1])
        quad = np.einsum("ij,ij->i", mdp.probs[t], mdp.reward_coeffs[t, :, :, 2])
        with np.errstate(divide="ignore", invalid="ignore"):
            vert = np.where(quad < 0, -lin / (2.0 * quad), 0.0)
        out[t] = np.where(mdp.reachable[t], vert, 0.0)
    return out
