"""Dense and per-member reference implementations the tests compare against.

The package computes these quantities on the ensemble's span or in one
batched product; the direct forms here are kept only as oracles. The
factored (Woodbury) gain context is the other way round: the package
takes its gain from :func:`enkf_lab.linalg.kalman_gain`, and the
factored form stays here as an independent algorithm to check it with;
``kalman_gain`` is re-exported next to it, so a test imports both sides
of that comparison from one place. :func:`filter_matched_riccati_step`
keeps the augmented recursion under the filter's own noise, a
convention no package code runs.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from enkf_lab.linalg import (
    PD_RTOL,
    DimensionMismatch,
    NotPositiveDefinite,
    _as_square,
    _cho,
    _dense,
    _scaled_identity_coeff,
    is_positive_definite,
    kalman_gain,
    kalman_update_operator,
    symmetrize,
)
from enkf_lab.enkf import Ensemble, sigma_plus_factor
from enkf_lab.models import DOMAIN_INIT, sample_noise, substream


def mahalanobis_sq(v, C) -> float:
    """Squared Mahalanobis norm ``v.T @ inv(C) @ v`` for PD ``C``.

    Raises :class:`NotPositiveDefinite` if the Cholesky factorization of
    ``C`` fails and :class:`DimensionMismatch` on incompatible shapes.
    """
    v = np.asarray(v, dtype=float).ravel()
    C = _as_square(C, "C")
    if C.shape[0] != v.shape[0]:
        raise DimensionMismatch(f"v has length {v.shape[0]}, C is {C.shape}")
    cf = _cho(C, "C")
    x = scipy.linalg.cho_solve(cf, v, check_finite=False)
    return float(v @ x)


def loewner_ratio(B, A) -> float:
    """Smallest ``lam >= 0`` with ``B <= lam * A`` in the Loewner order.

    Equals the largest generalized eigenvalue of the pencil ``(B, A)``.
    ``B`` must be PSD and ``A`` PD; tiny negative generalized eigenvalues
    from roundoff clamp to zero.
    """
    B = _as_square(B, "B")
    A = _as_square(A, "A")
    if B.shape != A.shape:
        raise DimensionMismatch(f"B is {B.shape}, A is {A.shape}")
    if not is_positive_definite(A):
        raise NotPositiveDefinite("A must be positive definite")
    w = scipy.linalg.eigh(
        symmetrize(B), symmetrize(A), eigvals_only=True, check_finite=False
    )
    return float(max(w[-1], 0.0))


def condition_number(A) -> float:
    """Spectral condition number ``lambda_max / lambda_min`` of a PD matrix."""
    A = _as_square(A, "A")
    w = np.linalg.eigvalsh(symmetrize(A))
    if w[0] <= PD_RTOL * max(1.0, float(w[-1])):
        raise NotPositiveDefinite("A must be positive definite")
    return float(w[-1] / w[0])


def compute_nu(C, R_ref) -> float:
    """Floored Loewner ratio ``max(1, inf{nu: C <= nu R_ref})``."""
    return max(1.0, loewner_ratio(C, R_ref))


def positive_part(M) -> np.ndarray:
    """PSD part of a symmetric matrix: negative eigenvalues clamp to zero."""
    M = _as_square(M)
    w, V = np.linalg.eigh(symmetrize(M))
    w = np.maximum(w, 0.0)
    return symmetrize((V * w) @ V.T)


def instability_covariance(coeffs, r, tau, rho) -> np.ndarray:
    """Dense Sigma+ = PSD part of ``rho A A.T + Sigma - (rho tau / r) I``,
    with no low-rank factor: the twin of ``enkf.sigma_plus_factor``."""
    A = coeffs.A
    if scipy.sparse.issparse(A):
        M = _dense(rho * (A @ A.T) + coeffs.Sigma)
    else:
        M = rho * (A @ A.T) + _dense(coeffs.Sigma)
    d = M.shape[0]
    return positive_part(M - (rho * tau / r) * np.eye(d))


def factor_matrix(factor) -> np.ndarray:
    """Densify a ``(U, s)`` factor into ``U diag(s) U.T``."""
    U, s = factor
    U = _dense(U)
    return (U * s) @ U.T


def filter_matched_riccati_step(cov, coeffs, r, tau, rho) -> np.ndarray:
    """The augmented recursion under the filter-matched noise
    ``r^2 Sigma+ + r^2 tau rho I``, Sigma+ from ``enkf.sigma_plus_factor``:
    ``K(r^2 A C A.T + r^2 Sigma+ + r^2 tau rho I)``, with ``K`` the Kalman
    covariance update (identity when ``H`` is absent)."""
    A = _dense(coeffs.A)
    sp = factor_matrix(sigma_plus_factor(coeffs, r, tau, rho))
    noise = r * r * sp + (r * r * tau * rho) * np.eye(A.shape[0])
    R_hat = symmetrize(r * r * (A @ cov @ A.T) + noise)
    if coeffs.H is None:
        return R_hat
    return kalman_update_operator(R_hat, _dense(coeffs.H))


def unfiltered_mode_values(params, r=None, tau=None, rho=None):
    """Per-wavenumber closed-form equilibrium values for the turbulence model.

    Returns ``(v, den)`` over k = 0..J where
    ``v_k = r^2 (Sigma_kk + tau rho) / den_k``, ``den_k = 1 - r^2 e^{-2 gamma_k h}``.
    Entries with ``den_k <= 0`` are reported as ``inf`` (divergent mode).
    The unfiltered limit that ``reference.stationary_riccati_diag`` must
    approach as sigma_obs grows.
    """
    r = params.r if r is None else r
    tau = params.tau if tau is None else tau
    rho = params.rho if rho is None else rho
    num = r * r * (params.mode_sigma() + tau * rho)
    den = 1.0 - r * r * np.exp(-2.0 * params.gamma() * params.h)
    v = np.full(params.J + 1, np.inf)
    ok = den > 0
    v[ok] = num[ok] / den[ok]
    v[(~ok) & (num == 0)] = 0.0
    return v, den


def forecast_per_member(ens, coeffs, cfg, key, factor):
    """The forecast with one :func:`sample_noise` call per member, on the
    children of ``substream(*key).spawn(K)``, written column by column: the
    loop that ``enkf_forecast``'s batched draw replaced."""
    K = ens.K
    xi = np.empty((ens.mean.shape[0], K))
    for k, child in enumerate(substream(*key).spawn(K)):
        xi[:, k] = sample_noise(factor, child)
    xi_mean = xi.mean(axis=1)
    mean = np.asarray(coeffs.A @ ens.mean).ravel() + coeffs.B + xi_mean
    S_hat = np.sqrt(cfg.r) * (
        np.asarray(coeffs.A @ ens.spread) + (xi - xi_mean[:, None])
    )
    return mean, S_hat


def spawn_normals(key, K, m):
    """``(K, m)`` block whose row k is ``substream(*key).spawn(K)[k]
    .standard_normal(m)``: the per-member loop whose keys
    ``models._member_normals`` derives in bulk."""
    Z = np.empty((K, m))
    for k, child in enumerate(substream(*key).spawn(K)):
        Z[k] = child.standard_normal(m)
    return Z


def forecast_spawned_block(ens, coeffs, cfg, key, factor):
    """The batched forecast with the draws taken through
    ``substream(*key).spawn(K)``: the same ``(m, K)`` block, centred in
    noise space, and the same ``U`` products ``enkf_forecast`` uses,
    written on all d rows at once."""
    U, s = factor
    noise = spawn_normals(key, ens.K, s.shape[0]).T.copy()  # C order, as enkf_forecast's
    noise *= np.sqrt(s)[:, None]
    noise_mean = noise.mean(axis=1)
    noise -= noise_mean[:, None]
    mean = np.asarray(coeffs.A @ ens.mean).ravel() + coeffs.B + U @ noise_mean
    S_hat = np.sqrt(cfg.r) * (np.asarray(coeffs.A @ ens.spread) + U @ noise)
    return mean, S_hat


def forecast_centred_in_state_space(ens, coeffs, cfg, Z, factor):
    """The forecast written densely from the ``(K, m)`` draws ``Z``:
    ``xi = U diag(sqrt(s)) Z.T`` centred over the members in d space, and
    ``S_hat = sqrt(r) (A S + xi_c)``."""
    U, s = factor
    xi = np.asarray(U @ (np.sqrt(s)[:, None] * Z.T))
    xi_mean = xi.mean(axis=1)
    A = _dense(coeffs.A)
    mean = A @ ens.mean + coeffs.B + xi_mean
    return mean, np.sqrt(cfg.r) * (A @ ens.spread + (xi - xi_mean[:, None]))


def initial_ensemble_per_member(d, cfg, seed, init_mean=None, init_cov=None):
    """``EnkfFilter``'s initial ensemble with one ``substream(seed,
    DOMAIN_INIT, k)`` generator per member, written column by column."""
    mean0 = np.zeros(d) if init_mean is None else np.asarray(init_mean, dtype=float).ravel()
    scale = np.sqrt(cfg.rho if init_cov is None else init_cov)
    noise = np.empty((d, cfg.K))
    for k in range(cfg.K):
        noise[:, k] = scale * substream(seed, DOMAIN_INIT, k).standard_normal(d)
    mu_noise = noise.mean(axis=1)
    return Ensemble(mean=mean0 + mu_noise, spread=noise - mu_noise[:, None])


class SingularInnerSolve(np.linalg.LinAlgError):
    """The inner system of a low-rank gain solve is singular or non-finite."""


@dataclass
class KalmanGainContext:
    """Factored form of ``G = C H.T M^{-1}``, ``M = I_q + H C H.T``, for low-rank C.

    Built from the spread factor ``S_hat`` (d x K), the observation
    operator ``H`` (q x d, dense or sparse, possibly ``eta * I``), and the
    additive floor ``tau_rho``, where ``C = S_hat S_hat.T / (K - 1)
    + tau_rho * I``. ``M^{-1}`` is applied by the Cholesky factor of the
    q x q matrix ``M = I_q + tau_rho H H.T + U U.T`` itself, with
    ``U = H S_hat / sqrt(K - 1)``; applying the gain then never forms a
    d x d matrix. (The filter builds no context: it takes the gain from
    ``kalman_gain`` on its dense route and from the eigenpairs of the
    K x K Gram on its ensemble-space route.)
    """

    V: np.ndarray  # S_hat / sqrt(K - 1), d x K
    H: object  # q x d operator (ndarray or sparse), kept for H.T applies
    tau_rho: float
    eta: float | None  # scalar when H = eta * I, else None
    inner_factor: object  # Cholesky factor of M, q x q
    U: np.ndarray  # H V, q x K


def make_gain_context(S_hat, H, tau_rho: float) -> KalmanGainContext:
    """Precompute the factors for repeated gain applications.

    Cost is O(q d K) to form ``H S_hat`` (O(d K) when ``H`` has O(d)
    nonzeros), plus O(q^2 K + q^3) for the q x q factor of ``M``.

    Raises
    ------
    SingularInnerSolve
        If ``M`` cannot be factored or is non-finite.
    """
    S_hat = np.asarray(S_hat, dtype=float)
    if S_hat.ndim != 2:
        raise DimensionMismatch("S_hat must be d x K")
    d, K = S_hat.shape
    if K < 2:
        raise DimensionMismatch("S_hat needs at least 2 columns")
    if tau_rho <= 0:
        raise NotPositiveDefinite("tau_rho must be positive")
    V = S_hat / np.sqrt(K - 1)
    eta = _scaled_identity_coeff(H, d)
    if eta is not None:
        U = eta * V
        M = (1.0 + tau_rho * eta * eta) * np.eye(d) + U @ U.T
    else:
        U = np.asarray(H @ V, dtype=float)
        M = np.eye(U.shape[0]) + tau_rho * _dense(H @ H.T) + U @ U.T
    if not np.all(np.isfinite(M)):
        raise SingularInnerSolve("I + H C H.T is non-finite")
    try:
        inner_factor = scipy.linalg.cho_factor(symmetrize(M), lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularInnerSolve("I + H C H.T is singular") from exc
    return KalmanGainContext(
        V=V, H=H, tau_rho=float(tau_rho), eta=eta, inner_factor=inner_factor, U=U
    )


def gain_apply_woodbury(ctx: KalmanGainContext, y):
    """Apply the gain to ``y`` (a q-vector or q x m batch) without d x d work.

    Solves ``w = M^{-1} y`` with the q x q Cholesky factor of
    ``M = I_q + H C H.T``, then returns
    ``G y = V (V.T (H.T w)) + tau_rho H.T w``, which splits ``C`` into
    its low-rank part ``V V.T`` and its floor ``tau_rho I``.
    """
    y = np.asarray(y, dtype=float)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    w = scipy.linalg.cho_solve(ctx.inner_factor, y, check_finite=False)
    if ctx.eta is not None:
        Htw = ctx.eta * w
    else:
        Htw = np.asarray(ctx.H.T @ w)
    out = ctx.V @ (ctx.V.T @ Htw) + ctx.tau_rho * Htw
    return out[:, 0] if squeeze else out
