"""Linear model primitives shared by graph construction and the federated optimizers.

All functions are pure and operate on plain numpy arrays: a feature matrix
``X`` of shape (m, d), a label vector ``y`` of shape (m,), and weight
vectors of shape (d,).
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import (
    DegenerateInputError,
    ParameterError,
    ShapeError,
    SingularSystemError,
)

# Normal-equation solves are rejected beyond this condition number; past it
# the solution is numerically meaningless at double precision.
CONDITION_LIMIT = 1e12


def _as_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"expected 2-D feature matrix, got shape {X.shape}")
    if y.ndim != 1:
        raise ShapeError(f"expected 1-D label vector, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ShapeError(f"{X.shape[0]} feature rows vs {y.shape[0]} labels")
    return X, y


def _as_weights(X, w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.shape[0] != X.shape[1]:
        raise ShapeError(
            f"weight vector of shape {w.shape} does not match "
            f"{X.shape[1]} feature columns"
        )
    return w


def predict(X, w) -> np.ndarray:
    """Linear prediction ``X @ w``."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"expected 2-D feature matrix, got shape {X.shape}")
    w = _as_weights(X, w)
    return X @ w


def mse_loss(X, y, w) -> float:
    """Mean squared error ``(1/m) * ||y - X w||^2``."""
    X, y = _as_xy(X, y)
    w = _as_weights(X, w)
    if X.shape[0] == 0:
        raise DegenerateInputError("MSE is undefined on an empty dataset")
    r = y - X @ w
    return float(r @ r) / X.shape[0]


def mse_gradient(X, y, w) -> np.ndarray:
    """Gradient of :func:`mse_loss` in w: ``(2/m) * X^T (X w - y)``."""
    X, y = _as_xy(X, y)
    w = _as_weights(X, w)
    if X.shape[0] == 0:
        raise DegenerateInputError("MSE gradient is undefined on an empty dataset")
    return (2.0 / X.shape[0]) * (X.T @ (X @ w - y))


def least_squares_fit(X, y) -> np.ndarray:
    """Exact minimizer of :func:`mse_loss` via the normal equations.

    Solves ``(X^T X) w = X^T y`` with a Cholesky factorization. The solve
    is rejected when ``cond(X^T X)`` exceeds :data:`CONDITION_LIMIT` or the
    system is not positive definite.
    """
    X, y = _as_xy(X, y)
    m, d = X.shape
    if m < d:
        raise SingularSystemError(
            f"underdetermined system: {m} rows for {d} feature columns"
        )
    xtx = X.T @ X
    cond = np.linalg.cond(xtx)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularSystemError(
            f"cond(X^T X) = {cond:.3e} exceeds {CONDITION_LIMIT:.1e}; "
            "system is rank deficient or too ill-conditioned"
        )
    try:
        factor = scipy.linalg.cho_factor(xtx)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"normal equations not positive definite: {exc}") from exc
    return scipy.linalg.cho_solve(factor, X.T @ y)


def proximal_step(X, y, w_anchor, eta: float) -> np.ndarray:
    """Closed-form minimizer of ``mse_loss(v) + (1/eta) ||v - w_anchor||^2``.

    Stationarity gives the ridge-type system

        ((2/m) X^T X + (2/eta) I) v = (2/m) X^T y + (2/eta) w_anchor,

    which is positive definite for every eta > 0. Small eta pins v to the
    anchor; large eta approaches the unconstrained least-squares fit.
    """
    X, y = _as_xy(X, y)
    w_anchor = _as_weights(X, w_anchor)
    if X.shape[0] == 0:
        raise DegenerateInputError("proximal step is undefined on an empty dataset")
    return proximal_step_gram(X.T @ X, X.T @ y, X.shape[0], w_anchor, eta)


def proximal_step_gram(xtx, xty, m, w_anchor, eta: float) -> np.ndarray:
    """:func:`proximal_step` from precomputed ``X^T X``, ``X^T y`` and row count.

    Broadcasts over leading axes: ``xtx`` of shape (..., d, d) with ``xty``
    and ``w_anchor`` of shape (..., d) and ``m`` a scalar or of shape (...)
    solve every system in one call, and each result is bitwise identical to
    the corresponding single-system call.
    """
    if eta <= 0:
        raise ParameterError(f"eta must be positive, got {eta}")
    m = np.asarray(m, dtype=float)
    if np.any(m < 1):
        raise DegenerateInputError("proximal step is undefined on an empty dataset")
    xtx = np.asarray(xtx, dtype=float)
    xty = np.asarray(xty, dtype=float)
    w_anchor = np.asarray(w_anchor, dtype=float)
    d = xtx.shape[-1] if xtx.ndim else 0
    lead = xtx.shape[:-2]
    if (
        xtx.shape != lead + (d, d)
        or xty.shape != lead + (d,)
        or w_anchor.shape != lead + (d,)
        or m.shape not in ((), lead)
    ):
        raise ShapeError(
            f"inconsistent shapes: xtx {xtx.shape}, xty {xty.shape}, "
            f"anchor {w_anchor.shape}, m {m.shape}"
        )
    scale = (2.0 / m)[..., None]
    lhs = scale[..., None] * xtx + (2.0 / eta) * np.eye(d)
    rhs = scale * xty + (2.0 / eta) * w_anchor
    return np.linalg.solve(lhs, rhs[..., None])[..., 0]
