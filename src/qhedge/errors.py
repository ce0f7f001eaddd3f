"""Exception types shared across the package, and the one non-finite rule."""

import numpy as np


class QHedgeError(Exception):
    """Base class for all engine errors."""


class ConfigError(QHedgeError):
    """Invalid experiment configuration or command-line input."""


class DegenerateInputError(QHedgeError):
    """Input with no cross-sectional information (e.g. zero price variance)."""


class SingularSystemError(QHedgeError):
    """A regression stayed singular after ridge, or a value left the finite doubles."""


class DataFormatError(QHedgeError):
    """Malformed CSV input (ragged panel, missing time slices, bad header)."""


def require_finite(compute, what, step=None, note=None, *, by_step=False):
    """Return ``compute()``, run with numpy's float warnings off, if it is all
    finite; else raise SingularSystemError("<what> not finite[ at step <step>][
    (<note>)]").  ``by_step`` names the first bad row of a step-major panel."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = compute()
    finite = np.isfinite(value)
    if not finite.all():
        if by_step:
            step = np.flatnonzero(~finite.reshape(len(finite), -1).all(axis=1))[0]
        at = "" if step is None else f" at step {step}"
        raise SingularSystemError(f"{what} not finite{at}" + (f" ({note})" if note else ""))
    return value
