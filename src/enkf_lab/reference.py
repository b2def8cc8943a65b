"""Reference filters: exact Kalman recursion, augmented Riccati benchmark,
unfiltered covariance bound, stationary per-mode Riccati solve, and the
observability Gramian.

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
    _diag_or_none,
    _gain_and_update,
    factor_matrix,
    kalman_update_operator,
    symmetrize,
)
from .models import CoefficientStream, StepCoefficients, TurbulenceParams

__all__ = [
    "NoConvergence",
    "DivergentMode",
    "KalmanState",
    "AugmentedRiccatiState",
    "kalman_step",
    "augmented_riccati_step",
    "unfiltered_covariance",
    "unfiltered_mode_values",
    "stationary_riccati_diag",
    "stationary_riccati_ambient",
    "observability_gramian",
]


class NoConvergence(RuntimeError):
    """A fixed-point iteration failed to converge."""


class DivergentMode(RuntimeError):
    """A mode's closed-form equilibrium variance diverges."""


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


def unfiltered_covariance(
    stream: CoefficientStream, r, tau, rho, n_steps: int = 200
) -> np.ndarray:
    """Equilibrium covariance of the inflated unfiltered recursion.

    Iterates ``V'_{n+1} = r^2 A V' A.T + r^2 (Sigma + tau rho I)``. For a
    constant stream with diagonal A and Sigma the closed-form fixed point
    ``v_i = r^2 (Sigma_ii + tau rho) / (1 - r^2 a_i^2)`` is returned, and
    a mode with nonpositive denominator and positive numerator raises
    :class:`DivergentMode` naming it. Otherwise ``n_steps`` iterations
    from zero are returned.
    """
    c0 = stream.at(0)
    homogeneous = c0 is stream.at(1)
    if homogeneous:
        a = _diag_or_none(c0.A)
        s = _diag_or_none(c0.Sigma)
        if a is not None and s is not None:
            num = r * r * (s + tau * rho)
            den = 1.0 - r * r * a * a
            bad = (den <= 0) & (num > 0)
            if np.any(bad):
                k = int(np.nonzero(bad)[0][0])
                raise DivergentMode(
                    f"mode {k}: r^2 a^2 = {r * r * a[k] * a[k]:.6g} >= 1"
                )
            out = np.zeros_like(num)
            ok = den > 0
            out[ok] = num[ok] / den[ok]
            return np.diag(out)
    V = np.zeros((stream.d, stream.d))
    for n in range(n_steps):
        c = c0 if homogeneous else stream.at(n)
        A = _dense(c.A)
        S = _dense(c.Sigma)
        V = symmetrize(r * r * (A @ V @ A.T) + r * r * (S + tau * rho * np.eye(stream.d)))
    return V


def unfiltered_mode_values(params: TurbulenceParams, r=None, tau=None, rho=None):
    """Per-wavenumber closed-form equilibrium values for the turbulence model.

    Returns ``(v, den)`` over k = 0..J where
    ``v_k = r^2 (Sigma_kk + tau rho) / den_k``, ``den_k = 1 - r^2 e^{-2 gamma_k h}``.
    Entries with ``den_k <= 0`` are reported as ``inf`` (divergent mode);
    callers decide how divergence enters their criterion.
    """
    r = params.r if r is None else r
    tau = params.tau if tau is None else tau
    rho = params.rho if rho is None else rho
    g = params.gamma()
    num = r * r * (params.mode_sigma() + tau * rho)
    den = 1.0 - r * r * np.exp(-2.0 * g * params.h)
    v = np.full(params.J + 1, np.inf)
    ok = den > 0
    v[ok] = num[ok] / den[ok]
    zero = (~ok) & (num == 0)
    v[zero] = 0.0
    return v, den


def stationary_riccati_diag(params: TurbulenceParams, r=None, tau=None, rho=None):
    """Stationary per-wavenumber variances of the observed turbulence model.

    Solves, for each k, the scalar fixed point
    ``r_k = sigma_obs * rhat_k / (sigma_obs + (2J+1) rhat_k)`` with
    ``rhat_k = r^2 r_k e^{-2 gamma_k h} + r^2 Sigma_kk + tau rho``
    by damped Picard iteration from 0 (absolute tolerance 1e-12, damping
    0.5 on oscillation).

    Raises
    ------
    NoConvergence
        After 1e5 iterations without meeting the tolerance.
    """
    if params.sigma_obs is None:
        raise ValueError("sigma_obs must be set for the observed stationary solve")
    r = params.r if r is None else r
    tau = params.tau if tau is None else tau
    rho = params.rho if rho is None else rho
    sig = params.mode_sigma()
    decay = np.exp(-2.0 * params.gamma() * params.h)
    so = params.sigma_obs
    d = params.d

    def f(x):
        rhat = r * r * x * decay + r * r * sig + tau * rho
        return so * rhat / (so + d * rhat)

    x = np.zeros(params.J + 1)
    prev_delta = np.zeros_like(x)
    for _ in range(100_000):
        x_new = f(x)
        delta = x_new - x
        osc = (delta * prev_delta) < 0
        x_next = np.where(osc, 0.5 * (x + x_new), x_new)
        if np.all(np.abs(x_next - x) < 1e-12):
            return x_next
        prev_delta = x_next - x
        x = x_next
    raise NoConvergence("stationary Riccati iteration exceeded 1e5 steps")


def stationary_riccati_ambient(params: TurbulenceParams, **kw) -> np.ndarray:
    """Stationary variances expanded to the d ambient components."""
    vals = stationary_riccati_diag(params, **kw)
    out = np.empty(params.d)
    out[0] = vals[0]
    out[1::2] = vals[1:]
    out[2::2] = vals[1:]
    return out


def observability_gramian(stream: CoefficientStream, m: int, r) -> tuple[np.ndarray, float]:
    """Inflated observability Gramian over an m-step window.

    ``O_m = sum_{k=1}^m A_{k,1}.T H_k.T H_k A_{k,1}`` with
    ``A_{k,j} = r^{k-j} A_{k-1} ... A_j`` and the empty product equal to
    the identity. Returns ``(O_m, c_m)`` where ``c_m`` is the smallest
    eigenvalue; the caller checks ``c_m > 0`` for observability.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    d = stream.d
    P = np.eye(d)
    O = np.zeros((d, d))
    for k in range(1, m + 1):
        if k > 1:
            A_prev = _dense(stream.at(k - 2).A)
            P = r * (A_prev @ P)
        H = stream.at(k - 1).H
        if H is not None:
            HP = np.asarray(H @ P, dtype=float)
            O += HP.T @ HP
    O = symmetrize(O)
    c_m = float(np.linalg.eigvalsh(O)[0])
    return O, c_m
