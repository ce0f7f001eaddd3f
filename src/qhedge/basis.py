"""Scalar basis families over the state space and their design matrices.

Three families cover the regression solvers' needs: indicator buckets
(``one_hot_grid``), which turn every regression into a per-bucket average
and bridge to the finite-state chain; cubic B-splines (the default smooth
choice); and Gaussian kernels (``rbf``).  One basis is built once from the
pooled states of all time steps and shared across steps — the state
variable is driftless, so its support is stable over the horizon.
"""

import numpy as np

from .errors import DegenerateInputError
from .market import PathEnsemble

KINDS = ("one_hot_grid", "bspline", "rbf")
_ROWS = 1 << 14  # states per block of a design matrix


class BasisSet:
    """A family of m scalar functions evaluable into an (N, m) design matrix.

    States outside the construction range evaluate by clamping to the
    nearest edge, so late-horizon outliers never extrapolate.
    """

    def __init__(self, kind, m, *, edges=None, knots=None, degree=None,
                 centers=None, bandwidth=None):
        self.kind = kind
        self.m = m
        self.edges = edges          # one_hot_grid bucket edges, len m+1
        self.knots = knots          # bspline full knot vector
        self.degree = degree
        self.centers = centers      # rbf centers
        self.bandwidth = bandwidth
        if kind == "bspline":
            self._lo = knots[degree]
            self._hi = knots[-degree - 1]

    def evaluate(self, states) -> np.ndarray:
        """Design matrix Phi with Phi[i, n] = basis_n(states[i]), filled
        ``_ROWS`` rows at a time: each row depends on its state alone, so
        the temporaries are a block's and the values those of one pass."""
        x = np.atleast_1d(np.asarray(states, dtype=float))
        out = np.zeros((x.size, self.m))
        for lo in range(0, x.size, _ROWS):
            self._fill(x[lo:lo + _ROWS], out[lo:lo + _ROWS])
        return out

    def _fill(self, x, out):
        """Write the design rows of the states x into the zeroed ``out``."""
        if self.kind == "one_hot_grid":
            out[np.arange(x.size), self.bucket_of(x)] = 1.0
        elif self.kind == "bspline":
            hi = np.nextafter(self._hi, self._lo)
            _bspline_design(np.clip(x, self._lo, hi), self.knots, self.degree, out)
        else:  # rbf
            z = (x[:, None] - self.centers[None, :]) / self.bandwidth
            np.exp(-0.5 * z**2, out=out)

    def bucket_of(self, states) -> np.ndarray:
        """Bucket index per state (one_hot_grid only); out-of-range clamps."""
        if self.kind != "one_hot_grid":
            raise ValueError("bucket_of only applies to one_hot_grid bases")
        x = np.asarray(states, dtype=float)
        return np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, self.m - 1)


def _bspline_design(x, t, k, out):
    """Write the dense design matrix of the degree-k B-splines on knots t
    at x, with every x in [t[k], t[-k-1]), into the zeroed (x.size, n)
    C-ordered ``out``.

    Cox-de Boor recurrence (de Boor, *A Practical Guide to Splines*, 2001,
    ch. X), with its operations in the order of scipy's ``_deBoor_D`` so
    that the result equals ``BSpline.design_matrix(x, t, k).toarray()``
    bit for bit.  Each row holds the k+1 nonzero values of the span
    t[ell] <= x < t[ell+1] in columns ell-k .. ell.
    """
    n = t.size - k - 1
    # the span ell of each x, less k: the interior knots at or below x (the
    # knots are sorted), which is searchsorted's, clipped to [k, n-1]; one
    # compare per knot beats a binary search at the basis sizes in use
    span = np.zeros(x.size, dtype=np.intp)
    for knot in t[k + 1:n]:
        span += x >= knot

    def knot(d):
        """t[ell + d] at each x."""
        return t[k + d:n + d].take(span)

    to_right = [None] + [knot(q) - x for q in range(1, k + 1)]  # t[ell+q] - x
    from_left = [x - knot(-d) for d in range(k)]                # x - t[ell-d]
    h = [np.ones(x.size)]
    for j in range(1, k + 1):
        # scipy's w = h[q-1] / (t[ell+q] - t[ell+q-j]), h[q-1] += w
        # (t[ell+q] - x) and h[q] = w (x - t[ell+q-j]), q = 1..j, on h[0] = 0
        nxt = [None] * (j + 1)
        for q in range(1, j + 1):
            w = (t[k + q:n + q] - t[k + q - j:n + q - j]).take(span)  # per span
            np.divide(h[q - 1], w, out=w)
            if q == 1:
                nxt[0] = w * to_right[1]  # scipy adds it to 0: both factors are >= 0
            else:
                nxt[q - 1] += w * to_right[q]
            nxt[q] = np.multiply(w, from_left[j - q], out=w)
        h = nxt
    del to_right, from_left  # before the scatter: a lower resident peak
    # row i's value h[c] goes to flat offset i n + ell - k + c
    flat = out.reshape(-1)
    at = np.arange(0, x.size * n, n)
    at += span
    for hc in h:
        flat[at] = hc
        at += 1


def quantiles(pool, q) -> np.ndarray:
    """The q-quantiles of samples by numpy's ``quantile`` (its default,
    linear method) bit for bit, from ``pool``, the non-NaN samples sorted
    ascending in a 1-D array, for q in [0, 1].  It takes numpy's order
    statistics, weights and lerp, so the one sort a caller makes replaces
    the copy that numpy partitions; only the sign of a zero order
    statistic, which the sort and the partition may place differently
    among equal zeros, can differ."""
    q = np.asarray(q, dtype=float)
    n = pool.size
    at = (n - 1) * q
    lo = np.floor(at).astype(np.intp)
    hi = lo + 1
    top = at >= n - 1
    lo[top] = hi[top] = -1  # numpy's index of the largest sample
    a, b = pool[lo], pool[hi]
    gamma = at - lo
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def build_basis(kind, m, state_samples, *, degree=3, bandwidth=None) -> BasisSet:
    """Build a basis sized to the sample distribution.

    B-spline breakpoints and RBF centers sit on equally spaced quantiles of
    the samples, padded by one spacing beyond the observed min/max; one-hot
    buckets are uniform over [min, max].  The samples are sorted once, in
    one fresh array, which every statistic reads.

    Parameters
    ----------
    kind : {"one_hot_grid", "bspline", "rbf"}
    m : int
        Number of basis functions.
    state_samples : array_like or PathEnsemble
        Pooled state observations: an array in any shape and order, or an
        ensemble, whose states of all steps are pooled a step at a time
        (``PathEnsemble.sorted_states``).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown basis kind {kind!r}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if isinstance(state_samples, PathEnsemble):
        samples = state_samples.sorted_states()
    else:
        samples = np.sort(np.asarray(state_samples, dtype=float), axis=None)
    if samples.size == 0:
        raise ValueError("state_samples must be non-empty")
    if np.isnan(samples[-1]):  # NaN sorts last
        raise ValueError("state_samples must not be NaN")
    lo, hi = float(samples[0]), float(samples[-1])

    if kind == "one_hot_grid":
        n_distinct = 1 + np.count_nonzero(samples[1:] != samples[:-1])
        if m > n_distinct:
            raise ValueError(
                f"one_hot_grid with m={m} exceeds the {n_distinct} "
                "distinct sample values"
            )
        if hi == lo:
            hi = lo + 1e-8  # constant samples: one occupied bucket
        return BasisSet(kind, m, edges=np.linspace(lo, hi, m + 1))

    if hi == lo:
        raise DegenerateInputError("smooth bases need dispersed samples")

    if kind == "bspline":
        if m < degree + 3:  # then the quantiles include the distinct min and max
            raise ValueError(f"bspline needs m >= degree + 3, got m={m} with degree {degree}")
        inner = np.unique(quantiles(samples, np.linspace(0.0, 1.0, m - degree - 1)))
        pad_lo = inner[0] - (inner[1] - inner[0])
        pad_hi = inner[-1] + (inner[-1] - inner[-2])
        breaks = np.concatenate([[pad_lo], inner, [pad_hi]])
        m_eff = breaks.size + degree - 1
        knots = np.concatenate([[breaks[0]] * degree, breaks, [breaks[-1]] * degree])
        return BasisSet(kind, m_eff, knots=knots, degree=degree)

    # rbf
    if m >= 3:
        inner = quantiles(samples, np.linspace(0.0, 1.0, m - 2))
        inner = np.unique(inner)
        spacing = inner[1] - inner[0] if inner.size > 1 else (hi - lo)
        centers = np.concatenate([[inner[0] - spacing], inner, [inner[-1] + spacing]])
    else:
        centers = quantiles(samples, np.linspace(0.0, 1.0, m))
    if bandwidth is None:
        bandwidth = float(np.diff(centers).mean()) if centers.size > 1 else (hi - lo)
    return BasisSet(kind, centers.size, centers=centers, bandwidth=bandwidth)
