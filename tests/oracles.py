"""Dense and per-member reference implementations the tests compare against.

The package computes these quantities on the ensemble's span or in one
batched product; the direct forms here are kept only as oracles.
"""

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
    is_positive_definite,
    symmetrize,
)
from enkf_lab.enkf import Ensemble
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


def forecast_per_member(ens, coeffs, cfg, rng, factor):
    """The forecast with one :func:`sample_noise` call per member, written
    column by column: the loop that ``enkf_forecast``'s batched draw replaced."""
    K = ens.K
    xi = np.empty((ens.mean.shape[0], K))
    for k, child in enumerate(rng.spawn(K)):
        xi[:, k] = sample_noise(factor, child)
    xi_mean = xi.mean(axis=1)
    mean = np.asarray(coeffs.A @ ens.mean).ravel() + coeffs.B + xi_mean
    S_hat = np.sqrt(cfg.r) * (
        np.asarray(coeffs.A @ ens.spread) + (xi - xi_mean[:, None])
    )
    return mean, S_hat


def spawn_normals(rng, K, m):
    """``(K, m)`` block whose row k is ``rng.spawn(K)[k].standard_normal(m)``:
    the per-member loop whose keys ``models._spawn_keys`` now derives in bulk.
    Advances ``rng``'s child counter, as ``spawn`` does."""
    Z = np.empty((K, m))
    for k, child in enumerate(rng.spawn(K)):
        Z[k] = child.standard_normal(m)
    return Z


def forecast_spawned_block(ens, coeffs, cfg, rng, factor):
    """The batched forecast with the draws taken through ``rng.spawn(K)``:
    the same ``U @ (sqrt(s)[:, None] * Z.T)`` product ``enkf_forecast`` uses."""
    U, s = factor
    Z = spawn_normals(rng, ens.K, s.shape[0])
    xi = U @ (np.sqrt(s)[:, None] * Z.T)
    xi_mean = xi.mean(axis=1)
    mean = np.asarray(coeffs.A @ ens.mean).ravel() + coeffs.B + xi_mean
    S_hat = np.sqrt(cfg.r) * (
        np.asarray(coeffs.A @ ens.spread) + (xi - xi_mean[:, None])
    )
    return mean, S_hat


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
