"""Reference filters: the exact Kalman recursion, the augmented Riccati
benchmark, and the stationary per-wavenumber Riccati values of the
observed turbulence model in closed form.

The augmented recursion inflates the exact one: covariances advance by
``R_hat' = r^2 A R' A.T + Sigma'`` and update through the Kalman map.
Two noise conventions appear:

* ``Sigma' = r^2 Sigma+ + r^2 tau rho I`` (the filter-matched form,
  default of :func:`augmented_riccati_step`, with Sigma+ from the
  filter's own :func:`~enkf_lab.enkf.sigma_plus_factor`),
* ``Sigma' = r^2 Sigma + tau rho I`` (the stationary benchmark form used
  by :func:`stationary_riccati_diag` and the dimension verifiers;
  :func:`_benchmark_iterates` is the one place that builds it).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .enkf import sigma_plus_factor
from .linalg import (
    DimensionMismatch,
    _dense,
    _gain_and_update,
    factor_matrix,
    kalman_update_operator,
    symmetrize,
)
from .models import CoefficientStream, StepCoefficients, TurbulenceParams

__all__ = [
    "KalmanState",
    "AugmentedRiccatiState",
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


@dataclass
class AugmentedRiccatiState:
    """Covariance iterate of the inflated reference recursion."""

    cov: np.ndarray
    r: float
    tau: float
    rho: float

    def __post_init__(self):
        self.cov = symmetrize(_dense(self.cov))
        if not (self.r > 1 and self.tau > 0 and self.rho > 0):
            raise ValueError("require r > 1, tau > 0, rho > 0")


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


def augmented_riccati_step(
    state: AugmentedRiccatiState,
    coeffs: StepCoefficients,
    sigma_prime=None,
) -> AugmentedRiccatiState:
    """One step of the inflated reference recursion.

    ``R_hat' = r^2 A R' A.T + Sigma'`` followed by the Kalman covariance
    update (identity when ``H`` is absent). By default
    ``Sigma' = r^2 Sigma+ + r^2 tau rho I``; pass ``sigma_prime`` to use a
    different noise convention (the stationary benchmark uses
    ``r^2 Sigma + tau rho I``).
    """
    r, tau, rho = state.r, state.tau, state.rho
    A = _dense(coeffs.A)
    if sigma_prime is None:
        sp = factor_matrix(sigma_plus_factor(coeffs, state))
        sigma_prime = r * r * sp + (r * r * tau * rho) * np.eye(A.shape[0])
    else:
        sigma_prime = _dense(sigma_prime)
    R_hat = symmetrize(r * r * (A @ state.cov @ A.T) + sigma_prime)
    if coeffs.H is None:
        cov = R_hat
    else:
        cov = kalman_update_operator(R_hat, _dense(coeffs.H))
    return AugmentedRiccatiState(cov=cov, r=r, tau=tau, rho=rho)


def _benchmark_iterates(stream: CoefficientStream, r, tau, rho):
    """Yield ``(coeffs, state)`` for steps n = 0, 1, ...: the augmented
    recursion from zero covariance under the stationary-benchmark noise
    ``Sigma' = r^2 Sigma + tau rho I``.

    Step n's coefficients are fetched once, when its iterate is asked for,
    and handed out with it.
    """
    d = stream.d
    state = AugmentedRiccatiState(cov=np.zeros((d, d)), r=r, tau=tau, rho=rho)
    eye = np.eye(d)
    for n in itertools.count():
        coeffs = stream.at(n)
        sigma_prime = r**2 * _dense(coeffs.Sigma) + tau * rho * eye
        state = augmented_riccati_step(state, coeffs, sigma_prime=sigma_prime)
        yield coeffs, state


def stationary_riccati_diag(params: TurbulenceParams, r=None, tau=None, rho=None):
    """Stationary per-wavenumber variances of the observed turbulence model.

    For each k, the fixed point of
    ``f(x) = so (a x + b) / (so + d (a x + b))`` with ``so = sigma_obs``,
    ``d = 2J + 1``, ``a = r^2 e^{-2 gamma_k h}`` and
    ``b = r^2 Sigma_kk + tau rho``. ``f`` is increasing and concave, so its
    iterates from 0 rise to the one nonnegative root of
    ``d a x^2 + B x - so b = 0``, ``B = so (1 - a) + d b``, taken here in
    closed form without cancellation (0 where ``b = 0``).
    """
    if params.sigma_obs is None:
        raise ValueError("sigma_obs must be set for the observed stationary solve")
    r = params.r if r is None else r
    tau = params.tau if tau is None else tau
    rho = params.rho if rho is None else rho
    so, d = params.sigma_obs, params.d
    a = r * r * np.exp(-2.0 * params.gamma() * params.h)
    b = r * r * params.mode_sigma() + tau * rho
    B = so * (1.0 - a) + d * b
    root = np.sqrt(B * B + 4.0 * d * a * so * b)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(B >= 0, 2.0 * so * b / (B + root), (root - B) / (2.0 * d * a))
    return np.where(b > 0, x, 0.0)


def stationary_riccati_ambient(params: TurbulenceParams, **kw) -> np.ndarray:
    """Stationary variances expanded to the d ambient components."""
    vals = stationary_riccati_diag(params, **kw)
    out = np.empty(params.d)
    out[0] = vals[0]
    out[1::2] = vals[1:]
    out[2::2] = vals[1:]
    return out
