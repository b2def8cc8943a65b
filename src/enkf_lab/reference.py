"""Reference filters: the exact Kalman recursion, the augmented Riccati
benchmark, and its stationary per-wavenumber values on the turbulence
model in closed form.

The augmented recursion inflates the exact one: covariances advance by
``R_hat' = r^2 A R' A.T + r^2 Sigma + tau rho I`` (the stationary
benchmark noise) and update through the Kalman map. On the turbulence
model, observed or unobserved, :func:`stationary_riccati_diag` gives its
fixed point in closed form, the one reference covariance of the filter
experiment; on any other stream ``verify_dim_general`` iterates it.
Non-finite inputs raise named errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .enkf import InvalidObservation
from .linalg import (
    DimensionMismatch,
    _dense,
    _gain_and_update,
    kalman_update_operator,
    symmetrize,
)
from .models import InvalidParams, StepCoefficients, TurbulenceParams

__all__ = [
    "KalmanState",
    "kalman_step",
    "augmented_riccati_step",
    "stationary_riccati_diag",
    "stationary_riccati_ambient",
]


@dataclass
class KalmanState:
    """Gaussian filter state N(mean, cov); both must be finite, else a
    ``ValueError`` names the one that is not."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        self.cov = symmetrize(_dense(self.cov))
        if self.cov.shape[0] != self.mean.shape[0]:
            raise DimensionMismatch(
                f"mean has length {self.mean.shape[0]}, cov is {self.cov.shape}"
            )
        for name in ("mean", "cov"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"KalmanState {name} must be finite")


def kalman_step(state: KalmanState, coeffs: StepCoefficients, y) -> KalmanState:
    """One exact Kalman step: forecast by (A, B, Sigma), update against y.

    With ``H`` absent the step is a pure forecast and ``y`` is ignored.
    With ``H`` set, a missing or non-finite ``y`` raises
    :class:`~enkf_lab.enkf.InvalidObservation`, as the filter does.
    """
    A = _dense(coeffs.A)
    Sigma = _dense(coeffs.Sigma)
    m_hat = A @ state.mean + coeffs.B
    R_hat = symmetrize(A @ state.cov @ A.T + Sigma)
    if coeffs.H is None:
        return KalmanState(mean=m_hat, cov=R_hat)
    if y is None:
        raise InvalidObservation("the system is observed but y is None")
    H = _dense(coeffs.H)
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != H.shape[0]:
        raise DimensionMismatch(f"y has length {y.shape[0]}, H is {H.shape}")
    if not np.all(np.isfinite(y)):
        raise InvalidObservation("y has non-finite entries")
    G, cov = _gain_and_update(R_hat, H)
    mean = m_hat + G @ (y - H @ m_hat)
    return KalmanState(mean=mean, cov=cov)


def augmented_riccati_step(cov, coeffs: StepCoefficients, r, tau, rho) -> np.ndarray:
    """One step of the inflated reference recursion from covariance ``cov``.

    ``R_hat' = r^2 A R' A.T + r^2 Sigma + tau rho I`` followed by the
    Kalman covariance update (identity when ``H`` is absent). ``r``,
    ``tau`` and ``rho`` must be finite with ``r > 1``, ``tau > 0`` and
    ``rho > 0``, and ``cov``, ``A`` and ``Sigma`` finite, else a
    ``ValueError`` names the first that is not; the update's
    :func:`~enkf_lab.linalg.kalman_gain` names a non-finite ``H``.
    """
    for name, value, low in (("r", r, 1), ("tau", tau, 0), ("rho", rho, 0)):
        if not (np.isfinite(value) and value > low):
            raise ValueError(f"{name} must be finite and > {low}, got {value!r}")
    A, Sigma = _dense(coeffs.A), _dense(coeffs.Sigma)
    for name, M in (("cov", cov), ("A", A), ("Sigma", Sigma)):
        if not np.all(np.isfinite(M)):
            raise ValueError(f"{name} must be finite")
    noise = r**2 * Sigma + tau * rho * np.eye(A.shape[0])
    R_hat = symmetrize(r * r * (A @ cov @ A.T) + noise)
    if coeffs.H is None:
        return R_hat
    return kalman_update_operator(R_hat, _dense(coeffs.H))


def stationary_riccati_diag(params: TurbulenceParams, rho=None):
    """Stationary per-wavenumber variances of the augmented recursion on
    the turbulence model, observed or unobserved.

    Wavenumber k forecasts a variance x as ``a x + b``, with
    ``a = r^2 e^{-2 gamma_k h}`` and ``b = r^2 Sigma_kk + tau rho``.
    Unobserved, the fixed point is ``b / (1 - a)``; it exists only where
    ``a < 1``, and :class:`InvalidParams` names every k with ``a >= 1``.
    Observed, ``f(x) = so (a x + b) / (so + d (a x + b))`` with
    ``so = sigma_obs`` and ``d = 2J + 1`` is increasing and concave, so
    its iterates from 0 rise to the one nonnegative root of
    ``d a x^2 + B x - so b = 0``, ``B = so (1 - a) + d b``, taken here in
    closed form without cancellation (0 where ``b = 0``). The effective
    rho, and sigma_obs when set, must be finite and > 0, and every value
    finite, else :class:`InvalidParams`.
    """
    r, tau = params.r, params.tau
    rho = params.rho if rho is None else rho
    so, d = params.sigma_obs, params.d
    checked = {"rho": rho} if so is None else {"rho": rho, "sigma_obs": so}
    for name, value in checked.items():
        if not (np.isfinite(value) and value > 0):
            raise InvalidParams(f"{name} must be finite and > 0, got {value!r}")
    a = r * r * np.exp(-2.0 * params.gamma() * params.h)
    b = r * r * params.mode_sigma() + tau * rho
    if so is None:
        diverging = np.flatnonzero(a >= 1.0)
        if diverging.size:
            raise InvalidParams(
                f"the unobserved reference diverges on wavenumbers {diverging.tolist()}, "
                "where r^2 exp(-2 gamma_k h) >= 1"
            )
        x = b / (1.0 - a)
    else:
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
    return params.ambient(stationary_riccati_diag(params))
