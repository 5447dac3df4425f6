"""Generalized linear models: ridge least squares and logistic regression."""

from __future__ import annotations

import numpy as np

from ..errors import DataError


def fit_gaussian(X: np.ndarray, y: np.ndarray, ridge: float = 1e-6) -> dict:
    """Closed-form ridge regression on centered data; intercept unpenalized.

    ``ridge=0`` falls back to a least-squares solve, which keeps residuals
    exactly orthogonal to the design columns.
    """
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    xc = X - x_mean
    yc = y - y_mean
    if ridge > 0.0:
        gram = xc.T @ xc + ridge * np.eye(X.shape[1])
        weights = np.linalg.solve(gram, xc.T @ yc)
    else:
        weights, *_ = np.linalg.lstsq(xc, yc, rcond=None)
    intercept = y_mean - float(x_mean @ weights)
    return {"weights": weights, "intercept": intercept}


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _objective(z: np.ndarray, y: np.ndarray, theta: np.ndarray, penalty: np.ndarray) -> float:
    """Mean log loss of linear scores ``z`` plus ``0.5 * sum(penalty * theta**2)``."""
    return float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * (penalty @ (theta * theta)))


_MAX_HALVINGS = 50


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``d`` with ``hess @ d = grad``: an LU solve, or, when that finds the
    Hessian singular or gives a non-finite step, least squares, so that a
    singular Hessian (``l2=0`` on separable data, duplicate columns) still
    gives a finite step."""
    try:
        step = np.linalg.solve(hess, grad)
    except np.linalg.LinAlgError:
        step = None
    if step is None or not np.isfinite(step).all():
        step = np.linalg.lstsq(hess, grad, rcond=None)[0]
    return step


def fit_binomial(
    X: np.ndarray,
    y: np.ndarray,
    l2: float = 1e-4,
    max_iter: int = 50,
    tol: float = 1e-8,
) -> dict:
    """Damped Newton (IRLS) on mean log loss plus ``0.5 * l2 * |w|^2``.

    The intercept is unpenalized.  Each step solves ``H d = g`` with
    ``H = A.T diag(p(1-p)) A / n + diag(l2, ..., l2, 0)`` and ``A = [X 1]``
    (``_newton_step``).  The step is halved while the objective rises; if
    ``_MAX_HALVINGS`` halvings find no descent the fit stops where it is, so
    the objective never rises.  Stops when the objective moves by less than
    ``tol`` or after ``max_iter`` steps.
    Requires both classes to be present, and features small enough (below
    about 1e150) that the Newton system stays finite.
    """
    classes = np.unique(y)
    if classes.size < 2:
        raise DataError("logistic fit needs both classes present in the labels")

    n, width = X.shape
    A = np.column_stack([X, np.ones(n)])
    penalty = np.append(np.full(width, float(l2)), 0.0)
    theta = np.zeros(width + 1)
    z = np.zeros(n)
    loss = _objective(z, y, theta, penalty)
    B = np.empty_like(A)  # A's rows weighted by sqrt(p(1-p)), rewritten each step
    for _ in range(max_iter):
        p = _sigmoid(z)
        np.multiply(A, np.sqrt(p * (1.0 - p))[:, None], out=B)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            grad = A.T @ (p - y) / n + penalty * theta
            hess = B.T @ B / n + np.diag(penalty)
        if not (np.isfinite(hess).all() and np.isfinite(grad).all()):
            # LAPACK's least-squares solve can loop forever on inf or NaN.
            raise DataError("logistic fit overflowed: feature values are too large")
        step = _newton_step(hess, grad)
        for _ in range(_MAX_HALVINGS):
            trial = theta - step
            trial_z = A @ trial
            trial_loss = _objective(trial_z, y, trial, penalty)
            if trial_loss <= loss:
                break
            step *= 0.5
        else:
            break
        moved = loss - trial_loss
        theta, z, loss = trial, trial_z, trial_loss
        if moved < tol:
            break
    return {"weights": theta[:-1], "intercept": float(theta[-1])}


def predict_linear(params: dict, X: np.ndarray) -> np.ndarray:
    return X @ np.asarray(params["weights"], dtype=np.float64) + params["intercept"]


def predict_proba(params: dict, X: np.ndarray) -> np.ndarray:
    return _sigmoid(predict_linear(params, X))
