"""Ridge-regularized normal equations shared by every regression solver."""

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError, require_finite

RIDGE_SCALE = 1e-8


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


def least_squares(design: np.ndarray, target: np.ndarray, scale=None,
                  what=None) -> np.ndarray:
    """Ridge least squares: c with (A^T A + eps I) c = Phi^T target, where A is
    the design Phi with each row times ``scale`` (Phi when None) and eps is
    RIDGE_SCALE * trace / m, floored at 1e-12.  Each sum over samples runs in
    one order at any BLAS thread count: the Gram is one symmetric product
    (``syrk`` splits threads by output block), Phi^T target numpy's einsum.
    A SingularSystemError is prefixed with "<what>: " when ``what`` is given."""
    rows = design if scale is None else design * scale[:, None]
    gram = rows.T @ rows
    eps = RIDGE_SCALE * float(np.trace(gram)) / gram.shape[0]
    rhs = np.einsum("ij,i->j", design, target)
    try:
        return NormalEquations(gram, rhs, eps if eps > 0 else 1e-12).solve()
    except SingularSystemError as exc:
        raise SingularSystemError(f"{what}: {exc}" if what else str(exc)) from exc


def conditional_mean(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fitted values of the cross-sectional regression of y on the basis."""
    return design @ least_squares(design, y)


def conditional_variance(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Regression estimate of Var[y | state], floored at zero.

    The conditional mean is fitted first and the squared residual is then
    regressed on the same design; this equals the per-bucket biased
    variance for indicator bases and avoids the catastrophic cancellation
    of fitting E[y^2|x] and E[y|x]^2 separately.  The floor guards against
    fitted values of the non-negative target dipping below zero.
    """
    resid = y - conditional_mean(design, y)
    return np.maximum(conditional_mean(design, resid**2), 0.0)
