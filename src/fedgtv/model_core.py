"""Linear model primitives shared by graph construction and the federated optimizers.

All functions are pure and operate on plain numpy arrays: a feature matrix
``X`` of shape (m, d), a label vector ``y`` of shape (m,), and weight
vectors of shape (d,).
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, ParameterError, ShapeError

__all__ = [
    "least_squares_fit",
    "mse_gradient",
    "mse_loss",
    "proximal_step",
]


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


def _as_weights(X, w, stacked: bool = False) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim == 0 or (w.ndim > 1 and not stacked) or w.shape[-1] != X.shape[1]:
        raise ShapeError(
            f"weight vector of shape {w.shape} does not match "
            f"{X.shape[1]} feature columns"
        )
    return w


def _mse_rows(X, y, W) -> np.ndarray:
    """(C,) :func:`mse_loss` of each row of a (C, d) weight stack, unchecked.

    One stacked residual ``y - X w`` (a matrix-vector product per row; a
    matrix product would sum in another order), subtracted into the product's
    own buffer so the call holds one (C, m) temporary, then one stacked
    (1, m) by (m, 1) product, which numpy sends to the BLAS dot of ``r @ r``
    row by row. So each value is bitwise the one-row call's, also for a
    non-contiguous slice ``W[:, i]`` of a larger stack.
    """
    R = np.matmul(X, W[..., None])
    np.subtract(y[:, None], R, out=R)
    return np.matmul(np.swapaxes(R, -1, -2), R)[:, 0, 0] / X.shape[0]


def mse_loss(X, y, w) -> float:
    """Mean squared error ``(1/m) * ||y - X w||^2``."""
    X, y = _as_xy(X, y)
    w = _as_weights(X, w)
    if X.shape[0] == 0:
        raise DegenerateInputError("MSE is undefined on an empty dataset")
    return float(_mse_rows(X, y, w[None])[0])


def _gram_gradient(xtx, xty, scale, w) -> np.ndarray:
    """``scale * (X^T X w - X^T y)`` per vector along ``w``'s leading axes (operands broadcast), unchecked.

    One matrix-vector product per vector, so each result is bitwise the
    one-vector call's, also for a non-contiguous slice of a larger stack.
    """
    return scale * (np.matmul(xtx, w[..., None])[..., 0] - xty)


def mse_gradient(X, y, w) -> np.ndarray:
    """Gradient of :func:`mse_loss` in w, in Gram form: ``(2/m) * (X^T X w - X^T y)``.

    ``X^T X`` and ``X^T y`` are formed as ``train_gram`` forms them, so a
    training round on cached or per-batch statistics is bitwise this call.
    """
    X, y = _as_xy(X, y)
    w = _as_weights(X, w)
    if X.shape[0] == 0:
        raise DegenerateInputError("MSE gradient is undefined on an empty dataset")
    return _gram_gradient(X.T @ X, X.T @ y, 2.0 / X.shape[0], w)


def least_squares_fit(X, y) -> np.ndarray:
    """Minimum-norm minimizer of :func:`mse_loss`: ``np.linalg.lstsq``.

    Unique even when ``X`` is rank deficient (the 19-column layout always
    is: the one-hot rcount slots sum to the intercept column), where it
    equals ``pinv(X) @ y``. Empty or non-finite input is rejected.
    """
    X, y = _as_xy(X, y)
    if X.shape[0] == 0:
        raise DegenerateInputError("least squares is undefined on an empty dataset")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DegenerateInputError("least squares input is not finite")
    return np.linalg.lstsq(X, y, rcond=None)[0]


def proximal_step(X, y, w_anchor, eta: float) -> np.ndarray:
    """Closed-form minimizer of ``mse_loss(v) + (1/eta) ||v - w_anchor||^2``.

    Stationarity gives the ridge-type system

        ((2/m) X^T X + (2/eta) I) v = (2/m) X^T y + (2/eta) w_anchor,

    solved in the eigenbasis of ``(2/m) X^T X`` (:func:`_proximal_system`), so it
    is defined at every finite eta > 0 and v moves only in the range of ``X^T``.
    Small eta pins v to the anchor; large eta approaches the least-squares fit nearest it.
    """
    X, y = _as_xy(X, y)
    w_anchor = _as_weights(X, w_anchor)
    return proximal_step_gram(X.T @ X, X.T @ y, X.shape[0], w_anchor, eta)


def proximal_step_gram(xtx, xty, m, w_anchor, eta: float) -> np.ndarray:
    """:func:`proximal_step` from precomputed ``X^T X``, ``X^T y`` and row count ``m``: one (d, d) system."""
    xtx, xty, w_anchor, m, eta = (np.asarray(a, dtype=float) for a in (xtx, xty, w_anchor, m, eta))
    d = w_anchor.shape[0] if w_anchor.ndim == 1 else -1
    if xtx.shape != (d, d) or xty.shape != (d,) or m.ndim or eta.ndim:
        raise ShapeError(
            f"expected one system, got xtx {xtx.shape}, xty {xty.shape}, "
            f"anchor {w_anchor.shape}, m {m.shape}, eta {eta.shape}"
        )
    # OptimizerConfig requires a finite eta as well
    if not (np.isfinite(eta) and eta > 0):
        raise ParameterError(f"eta must be positive and finite, got {eta}")
    if m < 1:
        raise DegenerateInputError("proximal step is undefined on an empty dataset")
    return _proximal_solve(_proximal_system(xtx, xty, m, eta), w_anchor)


def _proximal_system(xtx, xty, m, eta):
    """:func:`proximal_step_gram`'s step as an affine map ``c + P w_anchor`` of its anchor, unchecked.

    One ``eigh`` of ``(2/m) X^T X = V diag(lam) V^T``, shared by every eta, gives
    ``c = V diag(1/(lam + 2/eta)) V^T (2/m) X^T y`` and ``P = V diag((2/eta)/(lam + 2/eta)) V^T``,
    except on the null space (``lam <= d * eps * max(lam)``): there ``P`` is the
    identity and ``c`` has no component. Leading axes of ``xtx`` (..., d, d),
    ``xty`` (..., d), ``m`` and ``eta`` broadcast: every pair at once, each bitwise as alone.
    """
    scale = (2.0 / m)[..., None]
    lam, V = np.linalg.eigh(scale[..., None] * xtx)
    Vt, pull = np.swapaxes(V, -1, -2), (2.0 / eta)[..., None]
    null = lam <= xtx.shape[-1] * np.finfo(float).eps * lam[..., -1:]
    shifted = np.where(null, np.inf, lam + pull)  # so 1/shifted is 0 on the null space
    offset = np.matmul(V, np.matmul(Vt, (scale * xty)[..., None]) / shifted[..., None])[..., 0]
    return offset, np.matmul(V * np.where(null, 1.0, pull / shifted)[..., None, :], Vt)


def _proximal_solve(system, w_anchor) -> np.ndarray:
    """The step ``c + P w_anchor`` of a :func:`_proximal_system` pair: one matrix-vector product, unchecked."""
    offset, gain = system
    return offset + np.matmul(gain, w_anchor[..., None])[..., 0]
