"""Ensemble Kalman filter with covariance inflations and spectral projection.

One step, given ensemble mean/spread (X_bar, S), coefficients
(A, B, Sigma, H), and observation y:

1. forecast: ``xi^(k) = U sqrt(s) z^(k)`` draws N(0, Sigma+), ``Sigma+ = U diag(s) U.T``
   being the PSD part of ``rho A A.T + Sigma - (rho tau / r) I``; the mean
   advances by ``A X_bar + B + mean(xi)``, the spread becomes ``S_hat =
   sqrt(r) (A S + [xi - mean(xi)])``, centred in the m-dim noise space,
2. assimilate: the gain of ``C_hat + tau rho I`` moves the mean; the
   spread is rebuilt by a deterministic square-root transform so that
   ``S+ S+.T / (K-1)`` equals the rank-p projection
   ``P (K(C_hat + tau rho I) - rho I) P`` over the directions above rho,
3. the state estimate is N(mean, S+ S+.T / (K-1) + rho I).

Two equivalent assimilation routes exist. When ``H = eta I`` (or None)
and K < d, the whole analysis runs in ensemble space: the eigenpairs of
the K x K Gram ``S_hat.T S_hat / (K-1)`` give both the mean update (the
gain acts as ``eta kappa(s_i)`` on the spread's left singular vectors and
as ``eta kappa(0)`` off them, the LETKF form) and the posterior spread, in
O(K^2 d + K^3) per step with no d x d matrix. Otherwise a dense route
(general H) factors the q x q gain system once and takes both the mean
update and the posterior map from that gain. Both routes count the
spread's rank ``m`` by one rule (:func:`~enkf_lab.linalg._gram_keep` on
the squared singular values) and hand the posterior map's spectrum to
one rank-p cut, :func:`_projection`, which keeps the top-p directions
above rho that the spread spans. Each route returns the cut as a factor
``F`` and a right basis ``Phi``, from which :func:`_posterior` alone builds
``S+ = F Phi_c.T`` (``Phi`` centred) and the record's factor ``F / sqrt(K-1)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
import scipy.sparse

from .linalg import (
    DimensionMismatch,
    _dense,
    _gain_and_update,
    _gram_keep,
    _scaled_identity_coeff,
    eigh_desc,
    positive_part_factor,
    symmetrize,
)
from .models import (
    DOMAIN_FORECAST,
    DOMAIN_INIT,
    CoefficientStream,
    StepCoefficients,
    _LastValueMemo,
    _check_seed,
    _member_normals,
    substream,
)

__all__ = [
    "RankDeficit",
    "InvalidObservation",
    "FilterDiverged",
    "Ensemble",
    "EnkfConfig",
    "StepRecord",
    "enkf_forecast",
    "enkf_assimilate",
    "EnkfFilter",
    "sigma_plus_factor",
]

class RankDeficit(UserWarning):
    """The projected target needs more directions than the spread spans."""


class InvalidObservation(ValueError):
    """An observation is missing or non-finite where the system is observed."""


class FilterDiverged(ValueError):
    """The forecast mean or spread went non-finite.

    ``quantity`` is "forecast mean" or "forecast spread". ``step`` counts
    filter steps from 1, as the diagnostics rows do, and ``seed`` names
    the filter's seed; both are None when the error comes from
    :func:`enkf_assimilate` called outside an :class:`EnkfFilter`.
    """

    def __init__(self, step, quantity: str, seed=None):
        super().__init__(step, quantity, seed)
        self.step, self.quantity, self.seed = step, quantity, seed

    def __str__(self):
        where = "" if self.step is None else f" at step {self.step}"
        who = "" if self.seed is None else f" (seed {self.seed})"
        return f"filter diverged{where}{who}: the {self.quantity} is non-finite"


@dataclass
class Ensemble:
    """Ensemble mean and spread (deviation columns).

    The mean must be finite, the spread columns must sum to zero within
    ``1e-10 max(1, max|S|)`` per component (one product with a ones vector;
    a non-finite spread fails too), and there must be at least two members.
    """

    mean: np.ndarray
    spread: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).ravel()
        self.spread = np.asarray(self.spread, dtype=float)
        if self.spread.ndim != 2 or self.spread.shape[0] != self.mean.shape[0]:
            raise DimensionMismatch(
                f"spread shape {self.spread.shape} does not match mean length "
                f"{self.mean.shape[0]}"
            )
        if self.spread.shape[1] < 2:
            raise DimensionMismatch("need K >= 2 members")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("ensemble mean must be finite")
        colsum = np.abs(self.spread @ np.ones(self.spread.shape[1]))
        # the bound scales with the spread, so roundoff in a large ensemble
        # passes; the scale costs a d x K pass, taken only when the unit
        # bound fails. An infinite scale or a NaN sum fails.
        if not np.all(colsum <= 1e-10):
            tol = 1e-10 * max(1.0, float(np.max(np.abs(self.spread), initial=0.0)))
            if not (np.isfinite(tol) and np.all(colsum <= tol)):
                raise ValueError("spread columns must sum to zero within 1e-10 of their scale")

    @property
    def K(self) -> int:
        return self.spread.shape[1]

    def covariance(self) -> np.ndarray:
        return symmetrize(self.spread @ self.spread.T / (self.K - 1))


@dataclass
class EnkfConfig:
    """Filter parameters: ensemble size, projection rank, inflations."""

    K: int
    p: int
    r: float
    rho: float
    tau: float = 1.0

    def __post_init__(self):
        for name, low in (("K", 2), ("p", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        for name, low in (("r", 1), ("rho", 0), ("tau", 0)):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > low):
                raise ValueError(f"{name} must be finite and > {low}")


@dataclass
class StepRecord:
    """Per-step byproducts needed by the diagnostics.

    ``posterior_factor`` is the d x take factor ``W`` of the posterior
    covariance, ``W W.T = S+ S+.T / (K-1)``, one nonzero column per kept
    direction (none when the posterior spread is zero).
    ``projection_discard`` is the (p+1)-th eigenvalue of the posterior
    covariance map before projection, and ``chi`` its excess over rho:
    ``chi = max(1, projection_discard / rho)``.
    """

    forecast_spread: np.ndarray
    posterior: Ensemble
    posterior_factor: np.ndarray
    chi: float
    projection_discard: float


def sigma_plus_factor(coeffs: StepCoefficients, r, tau, rho):
    """Low-rank factor (U, s) of the additive inflation target
    Sigma+ = PSD part of ``rho A A.T + Sigma - (rho tau / r) I``.

    The filter and the dimension verifier both take Sigma+ from here. It
    guarantees ``r Sigma+ + rho tau I >= r (rho A A.T + Sigma)`` in the
    Loewner order, which is what lets multiplicative inflation by ``r``
    dominate the forecast covariance growth. Sparse diagonal-structured coefficients
    stay O(d); anything else falls back to a dense eigendecomposition.
    """
    A, Sigma = coeffs.A, coeffs.Sigma
    d = A.shape[0]
    if scipy.sparse.issparse(A) and scipy.sparse.issparse(Sigma):
        eye = partial(scipy.sparse.identity, format="csr")
    else:
        A, Sigma, eye = _dense(A), _dense(Sigma), np.eye
    # the identity is built after A A.T: held across that product, it made
    # each call about 0.3 ms (35 %) slower on a d = 10001 jump stream
    return positive_part_factor(rho * (A @ A.T) + Sigma - (rho * tau / r) * eye(d))


def enkf_forecast(
    ens: Ensemble,
    coeffs: StepCoefficients,
    cfg: EnkfConfig,
    key: tuple,
    factor=None,
):
    """Forecast the ensemble one step.

    Draws one instability-noise vector per member, member k from the k-th
    child that ``substream(*key).spawn(K)`` would make; the filter passes
    its step's key ``(seed, DOMAIN_FORECAST, step)``, so the same key
    gives the same noise. Returns ``(forecast_mean, forecast_spread)``;
    the spread columns sum to zero.

    ``factor`` optionally supplies a precomputed Sigma+ factor from
    :func:`sigma_plus_factor` (worth caching on constant streams).

    Member k's standard normals, the ones its child would draw in a
    per-member :func:`~enkf_lab.models.sample_noise` call, fill column k
    of one ``(m, K)`` block, scaled by ``sqrt(s)`` and centred over the
    members in this noise space. ``U`` maps its mean into the forecast
    mean and the centred block into ``A S`` in place; a sparse ``U``
    touches only its nonzero rows, with no d x K temporary.
    """
    if factor is None:
        factor = sigma_plus_factor(coeffs, cfg.r, cfg.tau, cfg.rho)
    U, s = factor
    K, m = ens.K, s.shape[0]
    noise = np.empty((m, K))
    _member_normals(key, noise.T)
    noise *= np.sqrt(s)[:, None]
    noise_mean = noise.mean(axis=1)
    noise -= noise_mean[:, None]
    mean = np.asarray(coeffs.A @ ens.mean).ravel() + coeffs.B + U @ noise_mean
    S_hat = np.asarray(coeffs.A @ ens.spread)
    rows = np.flatnonzero(U.getnnz(axis=1)) if scipy.sparse.issparse(U) else slice(None)
    S_hat[rows] += U[rows] @ noise
    S_hat *= np.sqrt(cfg.r)
    return mean, S_hat


def _posterior(mean_plus, S_hat, F, Phi, cfg, rho_next):
    """Shared tail of both routes: the posterior and the step record.

    ``F`` (d x take) and ``Phi`` (K x take, orthonormal columns) are the
    route's cut: the posterior spread is ``S+ = F Phi_c.T`` with ``Phi``
    recentred over the members, and ``F / sqrt(K-1)`` is recorded as its
    covariance factor.
    """
    # zero column sums are exact in theory, enforced against roundoff in K
    # space; np.dot, unlike matmul, is fast at zero inner width (take = 0)
    S_plus = np.dot(F, (Phi - Phi.mean(axis=0)).T)
    ens = Ensemble(mean=mean_plus, spread=S_plus)
    rec = StepRecord(
        forecast_spread=S_hat,
        posterior=ens,
        posterior_factor=F / np.sqrt(S_hat.shape[1] - 1),
        chi=max(1.0, rho_next / cfg.rho),
        projection_discard=float(rho_next),
    )
    return ens, rec


def _projection(lam, m: int, K: int, cfg):
    """The rank-p cut both routes share: ``(take, w, rho_next)``.

    ``lam`` is the posterior map's spectrum, descending, with at least
    ``min(p+1, d)`` values, and ``m`` the number of directions the forecast
    spread spans. Of the top p values, ``want`` exceed rho; the cut keeps
    the top ``take = min(want, m)`` directions, with square-root transform
    weights ``w_i = sqrt((lam_i - rho) (K-1))``, all positive, and warns
    :class:`RankDeficit` when ``want > m``. ``rho_next`` is the (p+1)-th
    value, 0.0 when ``lam`` has no more than p values (``p == d``).
    """
    p, rho = cfg.p, cfg.rho
    want = int(np.count_nonzero(lam[:p] > rho))
    if want > m:
        warnings.warn(
            f"projection wants {want} directions but the spread spans {m}",
            RankDeficit,
        )
    take = min(want, m)
    w = np.sqrt((lam[:take] - rho) * (K - 1))
    rho_next = float(lam[p]) if p < lam.shape[0] else 0.0
    return take, w, rho_next


def _kappa(s, eta: float, c: float):
    """Eigenvalue map of the update operator for H = eta I:
    s + c on the forecast side becomes (s + c) / (1 + eta^2 (s + c))."""
    sc = s + c
    return sc / (1.0 + eta * eta * sc)


def _assimilate_structured(mean_hat, S_hat, eta, y, cfg):
    """Ensemble-space route, H = eta I (eta = 0 and y None when unobserved).

    Eigenvectors of the posterior map and of the gain are the left
    singular vectors ``S_hat phi_i / sing_i`` of S_hat, because both are
    monotone functions of the forecast covariance spectrum; everything
    reduces to the eigenpairs ``(s_i, phi_i)`` of the K x K Gram. Raises
    :class:`FilterDiverged` when the Gram is non-finite, as any non-finite
    entry of S_hat makes it.
    """
    d, K = S_hat.shape
    c = cfg.tau * cfg.rho
    gram = S_hat.T @ S_hat / (K - 1)
    if not np.all(np.isfinite(gram)):
        raise FilterDiverged(None, "forecast spread")
    s, Phi = eigh_desc(gram)
    s = np.maximum(s, 0.0)
    sing = np.sqrt(s * (K - 1))  # singular values of S_hat
    m = int(np.count_nonzero(_gram_keep(s, K)))
    kappa_tail = _kappa(0.0, eta, c)
    # the posterior map's spectrum: kappa(s_i) on the spread's m directions,
    # the flat tail kappa(0) on the rest
    lam = np.full(max(m, min(cfg.p + 1, d)), kappa_tail)
    lam[:m] = _kappa(s[:m], eta, c)
    take, w, rho_next = _projection(lam, m, K, cfg)
    if y is None:
        mean_plus = mean_hat.copy()
    else:
        # G r = eta [kappa(0) r + sum_i (kappa(s_i) - kappa(0)) psi_i psi_i.T r]
        # over the left singular vectors psi_i; the weight
        # (kappa(s_i) - kappa(0)) / (s_i (K-1)) is taken in closed form,
        # which does not cancel for small s_i
        resid = y - eta * mean_hat
        a = 1.0 + eta * eta * c
        g = 1.0 / ((K - 1) * a * (1.0 + eta * eta * (s[:m] + c)))
        Phi_m = Phi[:, :m]
        t = Phi_m @ (g * (Phi_m.T @ (S_hat.T @ resid)))
        mean_plus = mean_hat + eta * (kappa_tail * resid + S_hat @ t)
    Phi_t = Phi[:, :take]
    # the kept left singular vectors S_hat phi_i / sing_i, weighted by w_i
    return _posterior(
        mean_plus, S_hat, S_hat @ (Phi_t * (w / sing[:take])), Phi_t, cfg, rho_next
    )


def _assimilate_dense(mean_hat, S_hat, H, y, cfg):
    """Dense route: explicit posterior map, its eigenpairs, and SVD transform.

    One gain ``G`` of ``C_hat = S_hat S_hat.T / (K-1) + tau rho I``,
    from one factorization of the q x q system ``I + H C_hat H.T``,
    moves the mean and gives the Joseph-form posterior map that the
    rank-p projection cuts.
    """
    d, K = S_hat.shape
    c = cfg.tau * cfg.rho
    C_hat = symmetrize(S_hat @ S_hat.T / (K - 1) + c * np.eye(d))
    if H is None:
        Kmat = C_hat
        mean_plus = mean_hat.copy()
    else:
        G, Kmat = _gain_and_update(C_hat, _dense(H))
        mean_plus = mean_hat + G @ (y - np.asarray(H @ mean_hat).ravel())
    lam, Q = eigh_desc(Kmat)
    _, sing, PhiT = np.linalg.svd(S_hat, full_matrices=False)
    m = int(np.count_nonzero(_gram_keep(sing * sing, K)))
    take, w, rho_next = _projection(lam, m, K, cfg)
    # i-th eigenvector of the projected target pairs with the i-th right
    # singular direction of S_hat (both in descending order)
    return _posterior(mean_plus, S_hat, Q[:, :take] * w, PhiT[:take].T, cfg, rho_next)


def enkf_assimilate(mean_hat, S_hat, coeffs: StepCoefficients, y, cfg: EnkfConfig):
    """Assimilate an observation into the forecast ensemble.

    Returns ``(posterior Ensemble, StepRecord)``. The posterior spread
    satisfies ``S+ S+.T / (K-1) = P (K(C_hat^{tau rho}) - rho I) P``
    (over the directions above rho) whenever the needed directions lie in
    the span of ``S_hat``; otherwise a :class:`RankDeficit` warning is
    recorded and the identity holds on the spanned part.

    With ``coeffs.H`` set, ``y`` must be a finite array of shape ``(q,)``
    (else :class:`InvalidObservation`, or :class:`DimensionMismatch` for
    the shape); with ``coeffs.H`` None, ``y`` is ignored. A non-finite
    forecast mean or spread raises :class:`FilterDiverged`; the spread is
    checked through the K x K Gram on the ensemble-space route.
    """
    mean_hat = np.asarray(mean_hat, dtype=float).ravel()
    S_hat = np.asarray(S_hat, dtype=float)
    d = mean_hat.shape[0]
    if cfg.p > d:
        raise DimensionMismatch(f"p={cfg.p} exceeds state dimension d={d}")
    H = coeffs.H
    if H is not None:
        if y is None:
            raise InvalidObservation("the system is observed but y is None")
        y = np.asarray(y, dtype=float)
        if y.shape != (H.shape[0],):
            raise DimensionMismatch(f"y has shape {y.shape}, expected ({H.shape[0]},)")
        if not np.all(np.isfinite(y)):
            raise InvalidObservation("y has non-finite entries")
    if not np.all(np.isfinite(mean_hat)):
        raise FilterDiverged(None, "forecast mean")
    eta = _scaled_identity_coeff(H, d)
    if S_hat.shape[1] < d and (H is None or eta is not None):
        return _assimilate_structured(
            mean_hat, S_hat, 0.0 if H is None else eta, None if H is None else y, cfg
        )
    if not np.all(np.isfinite(S_hat)):
        raise FilterDiverged(None, "forecast spread")
    return _assimilate_dense(mean_hat, S_hat, H, y, cfg)


class EnkfFilter:
    """Stateful driver advancing an ensemble along a coefficient stream.

    Noise substreams are keyed by ``(seed, domain, step, member)``
    independently of the state, so two filters sharing a seed draw
    identical noise regardless of their means (used by the stability
    experiments). The Sigma+ factor of the latest coefficient object is
    kept, so constant streams factor once and memory stays bounded on
    time-varying ones. ``coeffs`` holds the coefficients of the latest
    step (None before the first), so a caller can reuse them and their
    memoised factor instead of fetching the step again.
    """

    def __init__(
        self,
        stream: CoefficientStream,
        cfg: EnkfConfig,
        seed: int,
        init_mean=None,
        init_cov: Optional[float] = None,
    ):
        if cfg.p > stream.d:
            raise DimensionMismatch(f"p={cfg.p} exceeds model dimension d={stream.d}")
        self.stream = stream
        self.cfg = cfg
        self.seed = _check_seed(seed)
        self.n = 0
        self.coeffs: Optional[StepCoefficients] = None
        self._factor_for = _LastValueMemo(
            lambda coeffs: sigma_plus_factor(coeffs, cfg.r, cfg.tau, cfg.rho)
        )
        mean0 = np.zeros(stream.d) if init_mean is None else np.asarray(init_mean, float).ravel()
        if mean0.shape != (stream.d,):
            raise DimensionMismatch(f"init_mean has length {mean0.size}, expected d={stream.d}")
        init_cov = float(cfg.rho if init_cov is None else init_cov)
        if not (np.isfinite(init_cov) and init_cov >= 0):
            raise ValueError(f"init_cov must be finite and >= 0, got {init_cov!r}")
        scale = np.sqrt(init_cov)
        noise = np.empty((stream.d, cfg.K))
        for k in range(cfg.K):
            noise[:, k] = substream(self.seed, DOMAIN_INIT, k).standard_normal(stream.d)
        noise *= scale
        # Center the noise before attaching the mean: the spread is then a
        # function of the seed alone, so paired runs that differ only in
        # init_mean carry bitwise-identical spreads forever.
        mu_noise = noise.mean(axis=1)
        self.ensemble = Ensemble(mean=mean0 + mu_noise, spread=noise - mu_noise[:, None])

    def step(self, y) -> StepRecord:
        """Advance one step; a non-finite forecast raises
        :class:`FilterDiverged` naming this step (from 1) and the seed."""
        coeffs = self.stream.at(self.n)
        factor = self._factor_for(coeffs)
        key = (self.seed, DOMAIN_FORECAST, self.n)
        try:
            mean_hat, S_hat = enkf_forecast(self.ensemble, coeffs, self.cfg, key, factor=factor)
            self.ensemble, rec = enkf_assimilate(mean_hat, S_hat, coeffs, y, self.cfg)
        except FilterDiverged as exc:
            raise FilterDiverged(self.n + 1, exc.quantity, self.seed) from None
        self.coeffs = coeffs
        self.n += 1
        return rec
