"""Reference filters: the exact Kalman recursion, the augmented Riccati
benchmark, and the stationary per-wavenumber Riccati values of the
observed turbulence model in closed form.

The augmented recursion inflates the exact one: covariances advance by
``R_hat' = r^2 A R' A.T + r^2 Sigma + tau rho I`` (the stationary
benchmark noise) and update through the Kalman map. It is the recursion
that :func:`stationary_riccati_diag` solves in closed form and that the
default reference of the filter experiment and the general dimension
verifier iterate, both through :func:`_benchmark_iterates`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionMismatch,
    _dense,
    _gain_and_update,
    kalman_update_operator,
    symmetrize,
)
from .models import CoefficientStream, InvalidParams, StepCoefficients, TurbulenceParams

__all__ = [
    "KalmanState",
    "kalman_step",
    "augmented_riccati_step",
    "stationary_riccati_diag",
    "stationary_riccati_ambient",
]


@dataclass
class KalmanState:
    """Gaussian filter state N(mean, cov)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        self.cov = symmetrize(_dense(self.cov))
        if self.cov.shape[0] != self.mean.shape[0]:
            raise DimensionMismatch(
                f"mean has length {self.mean.shape[0]}, cov is {self.cov.shape}"
            )


def kalman_step(state: KalmanState, coeffs: StepCoefficients, y) -> KalmanState:
    """One exact Kalman step: forecast by (A, B, Sigma), update against y.

    With ``H`` absent the step is a pure forecast and ``y`` is ignored.
    """
    A = _dense(coeffs.A)
    Sigma = _dense(coeffs.Sigma)
    m_hat = A @ state.mean + coeffs.B
    R_hat = symmetrize(A @ state.cov @ A.T + Sigma)
    if coeffs.H is None:
        return KalmanState(mean=m_hat, cov=R_hat)
    H = _dense(coeffs.H)
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != H.shape[0]:
        raise DimensionMismatch(f"y has length {y.shape[0]}, H is {H.shape}")
    G, cov = _gain_and_update(R_hat, H)
    mean = m_hat + G @ (y - H @ m_hat)
    return KalmanState(mean=mean, cov=cov)


def augmented_riccati_step(cov, coeffs: StepCoefficients, r, tau, rho) -> np.ndarray:
    """One step of the inflated reference recursion from covariance ``cov``.

    ``R_hat' = r^2 A R' A.T + r^2 Sigma + tau rho I`` followed by the
    Kalman covariance update (identity when ``H`` is absent).
    """
    if not (r > 1 and tau > 0 and rho > 0):
        raise ValueError("require r > 1, tau > 0, rho > 0")
    A = _dense(coeffs.A)
    noise = r**2 * _dense(coeffs.Sigma) + tau * rho * np.eye(A.shape[0])
    R_hat = symmetrize(r * r * (A @ cov @ A.T) + noise)
    if coeffs.H is None:
        return R_hat
    return kalman_update_operator(R_hat, _dense(coeffs.H))


def _benchmark_iterates(stream: CoefficientStream, r, tau, rho):
    """Yield ``(coeffs, cov)`` for steps n = 0, 1, ...: the augmented
    recursion from zero covariance.

    Step n's coefficients are fetched once, when its iterate is asked for,
    and handed out with it.
    """
    cov = np.zeros((stream.d, stream.d))
    for n in itertools.count():
        coeffs = stream.at(n)
        cov = augmented_riccati_step(cov, coeffs, r, tau, rho)
        yield coeffs, cov


def stationary_riccati_diag(params: TurbulenceParams, rho=None):
    """Stationary per-wavenumber variances of the observed turbulence model.

    For each k, the fixed point of
    ``f(x) = so (a x + b) / (so + d (a x + b))`` with ``so = sigma_obs``,
    ``d = 2J + 1``, ``a = r^2 e^{-2 gamma_k h}`` and
    ``b = r^2 Sigma_kk + tau rho``. ``f`` is increasing and concave, so its
    iterates from 0 rise to the one nonnegative root of
    ``d a x^2 + B x - so b = 0``, ``B = so (1 - a) + d b``, taken here in
    closed form without cancellation (0 where ``b = 0``). The effective
    rho and sigma_obs must be finite and > 0, and every value finite, else
    :class:`InvalidParams`.
    """
    if params.sigma_obs is None:
        raise ValueError("sigma_obs must be set for the observed stationary solve")
    r, tau = params.r, params.tau
    rho = params.rho if rho is None else rho
    so, d = params.sigma_obs, params.d
    for name, value in (("rho", rho), ("sigma_obs", so)):
        if not (np.isfinite(value) and value > 0):
            raise InvalidParams(f"{name} must be finite and > 0, got {value!r}")
    a = r * r * np.exp(-2.0 * params.gamma() * params.h)
    b = r * r * params.mode_sigma() + tau * rho
    B = so * (1.0 - a) + d * b
    root = np.sqrt(B * B + 4.0 * d * a * so * b)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(B >= 0, 2.0 * so * b / (B + root), (root - B) / (2.0 * d * a))
    x = np.where(b == 0, 0.0, x)  # a NaN b stays NaN and fails below
    if not np.all(np.isfinite(x)):
        raise InvalidParams("the stationary variances are not finite: check r, tau, gamma and h")
    return x


def stationary_riccati_ambient(params: TurbulenceParams) -> np.ndarray:
    """Stationary variances expanded to the d ambient components."""
    vals = stationary_riccati_diag(params)
    out = np.empty(params.d)
    out[0] = vals[0]
    out[1::2] = vals[1:]
    out[2::2] = vals[1:]
    return out
