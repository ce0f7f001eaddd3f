"""Ridge-regularized normal equations shared by every regression solver.

Every fit sums its Gram and Phi^T y over fixed blocks of ``_ROWS`` design
rows, so no caller holds more than a block of scaled or derived regressors.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError, require_finite

RIDGE_SCALE = 1e-8
_ROWS = 1 << 12  # design rows per block of the Gram and Phi^T y sums


@dataclass(frozen=True)
class NormalEquations:
    """A Gram system ``gram @ coeffs = rhs`` with its ridge regularizer."""

    gram: np.ndarray
    rhs: np.ndarray
    ridge_epsilon: float

    def solve(self) -> np.ndarray:
        m = self.gram.shape[0]
        try:
            return require_finite(
                lambda: np.linalg.solve(self.gram + self.ridge_epsilon * np.eye(m), self.rhs),
                "regression coefficients")
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"normal equations singular after ridge: {exc}") from exc


def _named(what, name):
    return f"{what}: {name}" if what else name


def least_squares(design, target: np.ndarray, scale=None, what=None) -> np.ndarray:
    """Ridge least squares: c with (A^T A + eps I) c = Phi^T target, where A is
    the design Phi with each row times ``scale`` (Phi when None) and eps is
    RIDGE_SCALE * trace / m, floored at 1e-12.  ``design`` is the (n, m)
    array, or a function that returns its rows ``lo:hi`` given the slice,
    so that regressors derived from another array are made a block at a
    time.  Both sums run over blocks of ``_ROWS`` rows, added in order,
    so each runs in one order at any BLAS thread count: a block's Gram is
    one symmetric product (``syrk`` splits threads by output block), its
    Phi^T target numpy's einsum.  A Gram or right-hand side past the
    doubles raises SingularSystemError("<what>: normal equations not
    finite"); a singular one is prefixed with "<what>: " when ``what`` is
    given."""
    rows_of = design if callable(design) else design.__getitem__
    n = len(target)

    def sums():  # the Gram, with Phi^T target appended as a last row
        out = None
        for lo in range(0, max(n, 1), _ROWS):  # one empty block when n is 0
            s = slice(lo, lo + _ROWS)
            phi = rows_of(s)
            rows = phi if scale is None else phi * scale[s, None]
            if out is None:
                out = np.zeros((phi.shape[1] + 1, phi.shape[1]))
            out[:-1] += rows.T @ rows
            out[-1] += np.einsum("ij,i->j", phi, target[s])
        return out

    gram_rhs = require_finite(sums, _named(what, "normal equations"))
    gram, rhs, m = gram_rhs[:-1], gram_rhs[-1], gram_rhs.shape[1]
    eps = require_finite(lambda: RIDGE_SCALE * float(np.trace(gram)) / m,
                         _named(what, "normal equations"))
    try:
        return NormalEquations(gram, rhs, eps if eps > 0 else 1e-12).solve()
    except SingularSystemError as exc:
        raise SingularSystemError(_named(what, str(exc))) from exc


def conditional_mean(design: np.ndarray, y: np.ndarray, what=None) -> np.ndarray:
    """Fitted values of the cross-sectional regression of y on the basis."""
    return design @ least_squares(design, y, what=what)


def conditional_variance(design: np.ndarray, y: np.ndarray, what=None) -> np.ndarray:
    """Regression estimate of Var[y | state], floored at zero.

    The conditional mean is fitted first and the squared residual is then
    regressed on the same design; this equals the per-bucket biased
    variance for indicator bases and avoids the catastrophic cancellation
    of fitting E[y^2|x] and E[y|x]^2 separately.  The floor guards against
    fitted values of the non-negative target dipping below zero.  A
    squared residual past the doubles raises SingularSystemError naming
    ``what``.
    """
    resid2 = require_finite(lambda: (y - conditional_mean(design, y, what)) ** 2,
                            _named(what, "squared residual"))
    return np.maximum(conditional_mean(design, resid2, what), 0.0)
