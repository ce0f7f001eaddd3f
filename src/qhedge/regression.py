"""Ridge-regularized normal equations shared by every regression solver."""

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError

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
            coeffs = np.linalg.solve(self.gram + self.ridge_epsilon * np.eye(m), self.rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(f"normal equations singular after ridge: {exc}") from exc
        if not np.all(np.isfinite(coeffs)):
            raise SingularSystemError("non-finite regression coefficients")
        return coeffs


def ridge_epsilon(gram: np.ndarray) -> float:
    """Ridge ``RIDGE_SCALE * trace / m`` with an absolute floor for empty systems."""
    m = gram.shape[0]
    eps = RIDGE_SCALE * float(np.trace(gram)) / m
    return eps if eps > 0 else 1e-12


def ridge_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return NormalEquations(gram, rhs, ridge_epsilon(gram)).solve()


def conditional_mean(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fitted values of the cross-sectional regression of y on the basis."""
    return design @ ridge_solve(design.T @ design, design.T @ y)


def conditional_variance(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Regression estimate of Var[y | state], floored at zero.

    The conditional mean is fitted first and the squared residual is then
    regressed on the same design; this equals the per-bucket biased
    variance for indicator bases and avoids the catastrophic cancellation
    of fitting E[y^2|x] and E[y|x]^2 separately.  The floor guards against
    fitted values of the non-negative target dipping below zero.
    """
    gram = design.T @ design
    eps = ridge_epsilon(gram)
    resid = y - design @ NormalEquations(gram, design.T @ y, eps).solve()
    fitted = design @ NormalEquations(gram, design.T @ resid**2, eps).solve()
    return np.maximum(fitted, 0.0)
