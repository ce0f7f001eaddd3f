"""Discrete-state, discrete-action version of the hedging MDP.

The continuous state is snapped to a quantile grid, transitions are
estimated from bin counts, and the one-step rewards become per-transition
parabolas in the action whose coefficients are conditional averages of the
continuous rewards.  Reward increments are mean-centered per (step, state)
bucket: snapping the state breaks the martingale property of the price
increments, and without recentering a grid-max Bellman solver would chase
the quantization drift to the edge of the action grid.  One backward pass
of the replicating rollout builds every step's rewards and transitions.
The states are indexed once, into one panel of the narrowest unsigned
integer type that holds a state (uint8 up to 256 states), and each
step's snapped prices are derived once from its row, when the pass
reaches it, so no snapped panel is built beside the ensemble's own.

On a chain, exact backward induction over the action grid is cheap and
serves as the convergence oracle for online Q-learning, which runs one
time slice at a time (backward) with per-cell Robbins-Monro step sizes,
applied a visit rank at a time to every cell visited that often.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import BasisSet, quantiles
from .errors import require_finite
from .market import OptionContract, PathEnsemble, from_state, terminal_payoff
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
    gamma: float                # one-period discount of the chain's ensemble
    edges: np.ndarray = None    # (n_x+1,) quantile bucket edges
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
        idx = np.searchsorted(self.edges, np.asarray(x), side="right")
        idx -= 1  # in place, as is the clip of an array
        return np.clip(idx, 0, self.n_states - 1, out=idx if np.ndim(idx) else None)

    def state_indices(self, paths: PathEnsemble) -> np.ndarray:
        """The (n_steps+1, n_paths) bucket index of every state of
        ``paths``, row t step t's, made a step at a time and held in the
        smallest unsigned integer type that holds n_x - 1 (uint8 up to 256
        states): index arithmetic upcasts a row first."""
        idx = np.empty((paths.n_steps + 1, paths.n_paths),
                       dtype=np.min_scalar_type(self.n_states - 1))
        for t in range(paths.n_steps + 1):
            idx[t] = self.state_index(paths.x(t))
        return idx

    def snapped_ensemble(self, paths: PathEnsemble) -> PathEnsemble:
        """The ensemble of the prices of the states snapped to their bucket
        centers: ``from_state`` of each step's centers, the prices
        ``_SnappedPrices`` derives."""
        x = self.x_centers[self.state_indices(paths)]  # row t: step t's
        return PathEnsemble(from_state(x, paths.params.times()[:, None], paths.params).T,
                            paths.params, seed=paths.seed)

    def indicator_basis(self):
        """One-hot basis whose buckets are exactly the chain states."""
        c = self.x_centers
        if c.size == 1:
            mids = np.array([c[0] - 0.5, c[0] + 0.5])
        else:
            inner = 0.5 * (c[:-1] + c[1:])
            mids = np.concatenate([[c[0] - 1.0], inner, [c[-1] + 1.0]])
        return BasisSet("one_hot_grid", c.size, edges=mids)


class _SnappedPrices:
    """The prices of ``DiscreteMDP.snapped_ensemble``, step t's derived from
    row t of the chain's index when asked for, bit for bit the snapped
    ensemble's: what ``_replicate`` reads of an ensemble, each step's S_t
    once (it forms dS_t from them), with no panel."""

    def __init__(self, centers, idx, params):
        self.centers, self.idx, self.params = centers, idx, params
        self.n_steps = idx.shape[0] - 1

    def s(self, t: int) -> np.ndarray:
        return from_state(self.centers[self.idx[t]], self.params.times()[t], self.params)


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
               n_x: int, n_a: int, action_range) -> DiscreteMDP:
    """Build the finite chain from an ensemble.

    The state grid sits on quantiles of the pooled states (empty duplicate
    bins are merged and recorded); actions are a uniform grid over
    ``action_range``.  Rewards come from the risk-minimizing replicating
    rollout on the snapped paths, so they do not depend on any exploration
    policy.  Each time step keeps its own empirical transition table,
    exactly consistent with the cross-sectional regression solvers.  At
    step t the rollout's hedge rule, holding Pi_{t+1}, also sums step t's
    reward parabolas per (i, j) cell, so no dS or Pi panel is kept, and
    the rollout reads step t's snapped prices from row t of the compact
    state index (``_SnappedPrices``), so no snapped panel is either.
    Raises SingularSystemError naming the first step whose reward
    coefficients or terminal values are not finite.
    """
    if n_x < 1 or n_a < 2:
        raise ValueError("need n_x >= 1 and n_a >= 2")
    n_steps = paths.n_steps

    x0 = paths.x(0)
    # an initial column that is a point mass would only collapse quantile
    # edges onto duplicates
    first_step = int(np.all(x0 == x0[0]) and n_steps >= 1)
    edges = quantiles(paths.sorted_states(first_step), np.linspace(0.0, 1.0, n_x + 1))
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
        reward_coeffs=None, terminal_q=None, reachable=None, x0_index=0,
        gamma=paths.params.gamma, edges=edges, merged_bins=merged)
    idx = mdp.state_indices(paths)  # row t: step t's states
    snapped = _SnappedPrices(mdp.x_centers, idx, paths.params)
    payoff = terminal_payoff(snapped.s(n_steps), contract)
    counts, sums = np.empty((n_steps, n_xe, n_xe)), np.empty((n_steps, n_xe, n_xe, 3))

    def hedge(t, pi_next, ds, _):
        """Step t's reward-parabola sums and counts per (i, j) cell, then its
        per-bucket risk-minimizing hedge Cov(Pi_{t+1}, dS_t) / Var(dS_t), on
        dS_t centered per bucket (the martingale-enforced increment)."""
        ix = idx[t].astype(np.intp)  # a narrow index would overflow in ix * n_xe
        ds_dev = ds - _bucket_means(ix, ds, n_xe)[ix]
        pi_center = _bucket_means(ix, pi_next, n_xe)[ix]
        # bincount adds each cell's records in path order
        cell = ix * n_xe + idx[t + 1]
        counts[t] = np.bincount(cell, minlength=n_xe * n_xe).reshape(n_xe, n_xe)
        for k, c in enumerate(reward_parabola(ds_dev, pi_next, risk, mdp.gamma,
                                              pi_center=pi_center, ds_center=0.0)):
            sums[t, ..., k] = np.bincount(cell, c, n_xe * n_xe).reshape(n_xe, n_xe)
        num = _bucket_means(ix, (pi_next - pi_center) * ds_dev, n_xe)
        den = _bucket_means(ix, ds_dev**2, n_xe)
        return np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)[ix]

    def mean_coeffs():
        _replicate(snapped, payoff, hedge)  # only Pi_{t+1} and Pi_t are held
        n = counts[..., None]
        return np.where(n > 0, sums / np.maximum(n, 1.0), 0.0)
    coeffs = require_finite(mean_coeffs, "chain reward coefficients", by_step=True)

    rows = counts.sum(axis=2, keepdims=True)
    probs = np.where(rows > 0, counts / np.maximum(rows, 1.0), 0.0)

    mean_pay = _bucket_means(idx[-1], payoff, n_xe)
    mean_pay2 = _bucket_means(idx[-1], payoff**2, n_xe)
    terminal_q = require_finite(
        lambda: -mean_pay - risk.lam * np.maximum(mean_pay2 - mean_pay**2, 0.0),
        "chain terminal values", n_steps)

    reachable = np.zeros((n_steps + 1, n_xe), dtype=bool)
    reachable[np.arange(n_steps + 1)[:, None], idx] = True

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
    gamma = mdp.gamma
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
    A stable sort of the draws by cell, on keys of the smallest integer
    type that holds a cell, keeps every cell's updates in draw order and
    each state's draws in one run, on which its successors are drawn.
    The targets are laid out as a (visit rank, visited cell) table whose
    cells are ordered by visit count, most first, so the cells visited at
    rank k are a prefix of its row k and each rank's step runs on basic
    slices.  Each arithmetic step is the one-at-a-time update's, so ``q``
    and ``visits`` are bit-identical to applying the draws one by one.
    """
    alpha0, k0 = float(schedule[0]), float(schedule[1])
    n_steps, n_x, n_a = mdp.n_steps, mdp.n_states, mdp.n_actions
    rng = np.random.default_rng(seed)
    ag = mdp.action_grid
    gamma = mdp.gamma
    key = np.min_scalar_type(n_x * n_a - 1)  # numpy sorts keys of 16 bits or less by radix

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

        cell = (xs * n_a + aj).astype(key)
        by_cell = np.argsort(cell, kind="stable")
        counts = np.bincount(cell, minlength=n_x * n_a)
        aj, u = aj[by_cell], u[by_cell]
        del xs, cell, by_cell
        # successors state by state, each on its state's run of the sort
        per_state = counts.reshape(n_x, n_a).sum(axis=1)
        ends = np.cumsum(per_state)
        xn = np.empty(n_updates_per_slice, dtype=np.intp)
        for i in states:
            run = slice(ends[i] - per_state[i], ends[i])
            xn[run] = np.searchsorted(cum[i], u[run], side="right")
        del u
        np.minimum(xn, n_x - 1, out=xn)
        xs = np.repeat(np.arange(n_x), per_state)
        a = ag[aj]
        c = mdp.reward_coeffs[t, xs, xn]
        target = c[:, 0] + c[:, 1] * a + c[:, 2] * a * a + gamma * v_next[xn]
        del xs, aj, xn, a, c

        seen = np.flatnonzero(counts)   # the visited cells: the table is sized by them alone
        n_seen = counts[seen]
        rank = np.arange(n_updates_per_slice) - np.repeat(np.cumsum(n_seen) - n_seen, n_seen)
        order = np.argsort(-n_seen, kind="stable")   # most visits first
        column = np.empty_like(order)
        column[order] = np.arange(order.size)
        per_rank = np.bincount(rank)    # row k's visited cells: its first per_rank[k]
        table = np.empty((per_rank.size, seen.size))
        table[rank, np.repeat(column, n_seen)] = target
        del rank, target
        steps = alpha0 / (1.0 + np.arange(per_rank.size) / k0)
        cells = seen[order]
        v = q[t].reshape(-1)[cells]
        for k, m in enumerate(per_rank):
            head = v[:m]
            head += steps[k] * (table[k, :m] - head)
        q[t].reshape(-1)[cells] = v
        visits[t] = counts.reshape(n_x, n_a)
    return QTable(q=q, visits=visits)
