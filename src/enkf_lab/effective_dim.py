"""Executable verifier for the low-effective-dimension assumption.

The assumption has two counts: the rank of the additive inflation target
Sigma+ (instability count) and the number of eigenvalues of the reference
stationary covariance above rho (covariance count). For the turbulence
model both reduce to closed-form per-wavenumber tests:

* instability membership: ``rho e^{-2 gamma_k h} + Sigma_kk >= tau rho / r``,
* covariance criterion (unfiltered): the equilibrium bound rearranged as
  ``r^2 Sigma_kk / (1 - r^2 tau - r^2 e^{-2 gamma_k h}) > rho``, failing
  also when the denominator is nonpositive while ``Sigma_kk > 0``,
* covariance criterion (observed): stationary Riccati value ``r_k > rho``.

Reported counts follow the published convention: the headline ``p`` is
the covariance count over wavenumbers k = 0..J; ``pm_*`` fields give the
ambient counts (each k >= 1 contributes two components); ``p_effective``
is the max of the two branches. Boundary equality passes (strictly
"above rho").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .enkf import sigma_plus_factor
from .linalg import PD_RTOL
from .models import CoefficientStream, InvalidParams, TurbulenceParams
from .reference import augmented_riccati_step, stationary_riccati_diag

__all__ = [
    "DimReport",
    "verify_dim_unfiltered",
    "verify_dim_observed",
    "verify_dim_general",
    "minimal_p_search",
    "instability_modes",
]


@dataclass
class DimReport:
    """Mode counts certifying (or refuting) the effective-dimension bound.

    ``p_covariance`` is the headline count (modes whose reference
    variance exceeds rho), ``p_instability`` the rank bound of the
    additive inflation target, and ``p_effective`` their max. ``pm_*``
    are the ambient-component counts (k >= 1 doubled, mode 0 once).
    ``failing_modes`` lists the covariance-branch failures and has
    length ``p_covariance``; ``instability_mode_list`` likewise for the
    instability branch. ``table`` holds the per-mode row dicts that
    verify-dim writes to report.json. ``convention`` is "wavenumber" for
    the closed-form verifiers and "ambient" for the general one.
    """

    p_instability: int
    p_covariance: int
    p_effective: int
    failing_modes: list
    rho: float
    r: float
    tau: float
    pm_instability: int = 0
    pm_covariance: int = 0
    pm_effective: int = 0
    instability_mode_list: list = field(default_factory=list)
    table: list = field(default_factory=list)
    convention: str = "wavenumber"

    @property
    def p(self) -> int:
        return self.p_covariance


def _pm_count(modes) -> int:
    """Ambient count: wavenumber 0 contributes 1 component, k >= 1 two."""
    return sum(1 if k == 0 else 2 for k in modes)


def instability_modes(params: TurbulenceParams, rho=None) -> list:
    """Wavenumbers in the additive inflation target's support.

    Membership: ``rho e^{-2 gamma_k h} + Sigma_kk >= tau rho / r``. The
    effective rho must be finite and > 0, else :class:`InvalidParams`.
    """
    rho = params.rho if rho is None else rho
    if not (np.isfinite(rho) and rho > 0):
        raise InvalidParams(f"rho must be finite and > 0, got {rho!r}")
    r, tau = params.r, params.tau
    lhs = rho * np.exp(-2.0 * params.gamma() * params.h) + params.mode_sigma()
    return [int(k) for k in np.nonzero(lhs >= tau * rho / r)[0]]


def _assemble(params, rho, branch1, fail_cov, r_k=None) -> DimReport:
    """Either closed-form verifier's report, with the instability branch
    ``(r rho / tau) e^{-2 gamma_k h} + (r / tau) Sigma_kk`` both tabulate."""
    inst = instability_modes(params, rho=rho)  # checks rho first
    J, r, tau = params.J, params.r, params.tau
    g = params.gamma()
    sig = params.mode_sigma()
    branch2 = (r * rho / tau) * np.exp(-2.0 * g * params.h) + (r / tau) * sig
    failing = [int(k) for k in np.nonzero(fail_cov)[0]]
    p_cov = len(failing)
    p_inst = len(inst)
    rows = []
    for k in range(J + 1):
        rows.append(
            {
                "k": k,
                "gamma_k": float(g[k]),
                "sigma_kk": float(sig[k]),
                "branch1": float(branch1[k]),
                "branch2": float(branch2[k]),
                "r_k": float(r_k[k]) if r_k is not None else float("nan"),
                "pass": not fail_cov[k],
            }
        )
    return DimReport(
        p_instability=p_inst,
        p_covariance=p_cov,
        p_effective=max(p_inst, p_cov),
        failing_modes=failing,
        rho=float(rho),
        r=float(params.r),
        tau=float(params.tau),
        pm_instability=_pm_count(inst),
        pm_covariance=_pm_count(failing),
        pm_effective=max(_pm_count(inst), _pm_count(failing)),
        instability_mode_list=inst,
        table=rows,
    )


def verify_dim_unfiltered(params: TurbulenceParams, rho=None) -> DimReport:
    """Closed-form check against the unfiltered equilibrium bound.

    A wavenumber fails the covariance branch when
    ``r^2 Sigma_kk / (1 - r^2 tau - r^2 e^{-2 gamma_k h})`` exceeds rho,
    or when that denominator is nonpositive while ``Sigma_kk > 0`` (the
    bound then cannot hold). The instability branch
    ``(r rho / tau) e^{-2 gamma_k h} + (r / tau) Sigma_kk`` is tabulated
    and drives ``p_instability`` only.
    """
    params.validate()
    rho = params.rho if rho is None else rho
    r, tau = params.r, params.tau
    sig = params.mode_sigma()
    decay = np.exp(-2.0 * params.gamma() * params.h)
    den = 1.0 - r * r * tau - r * r * decay
    num = r * r * sig
    with np.errstate(divide="ignore", invalid="ignore"):
        branch1 = np.where(den != 0, num / den, np.inf)
    fail_cov = ((den <= 0) & (sig > 0)) | ((den > 0) & (branch1 > rho))
    return _assemble(params, rho, branch1, fail_cov)


def verify_dim_observed(params: TurbulenceParams, rho=None) -> DimReport:
    """Check against the stationary Riccati values of the observed model.

    The covariance branch fails when the per-wavenumber stationary
    variance ``r_k`` exceeds rho. ``branch1`` tabulates ``r_k``.
    """
    params.validate()
    if params.sigma_obs is None:
        raise InvalidParams("sigma_obs must be set for the observed verifier")
    rho = params.rho if rho is None else rho
    r_k = stationary_riccati_diag(params, rho=rho)
    fail_cov = r_k > rho
    return _assemble(params, rho, r_k, fail_cov, r_k=r_k)


def minimal_p_search(params: TurbulenceParams, rho_grid) -> list:
    """Tabulate ``(rho, p_effective)`` over a grid of thresholds.

    Uses the observed verifier when ``sigma_obs`` is set, else the
    unfiltered one. The table is non-increasing in rho.
    """
    rho_grid = [float(x) for x in rho_grid]
    if not rho_grid or any(x <= 0 for x in rho_grid):
        raise InvalidParams("rho_grid must be nonempty and positive")
    verifier = (
        verify_dim_observed if params.sigma_obs is not None else verify_dim_unfiltered
    )
    return [(rho, verifier(params, rho=rho).p_effective) for rho in rho_grid]


def verify_dim_general(stream: CoefficientStream, r: float, tau: float, rho: float) -> DimReport:
    """Numerical check for streams without a closed form.

    Iterates the augmented reference recursion (stationary-benchmark
    noise convention ``r^2 Sigma + tau rho I``) from zero for 100 steps,
    then over the next 20 steps reports the max count of covariance
    eigenvalues above rho and the max rank of the additive inflation
    target, the filter's own Sigma+ factor. Counts are ambient (per
    component, not per wavenumber).
    """
    max_cov = 0
    max_rank = 0
    worst_idx: list = []
    cov = np.zeros((stream.d, stream.d))
    for n in range(120):
        coeffs = stream.at(n)
        cov = augmented_riccati_step(cov, coeffs, r, tau, rho)
        if n < 100:
            continue
        w = np.linalg.eigvalsh(cov)
        above = [int(i) for i in np.nonzero(w > rho)[0]]
        if len(above) > max_cov:
            max_cov = len(above)
            worst_idx = above
        # Sigma+'s rank from its factor's eigenvalues, all of them positive
        _, s = sigma_plus_factor(coeffs, r, tau, rho)
        rank = int(np.sum(s > PD_RTOL * max(1.0, float(s.max(initial=0.0)))))
        max_rank = max(max_rank, rank)
    return DimReport(
        p_instability=max_rank,
        p_covariance=max_cov,
        p_effective=max(max_rank, max_cov),
        failing_modes=worst_idx,
        rho=float(rho),
        r=float(r),
        tau=float(tau),
        pm_instability=max_rank,
        pm_covariance=max_cov,
        pm_effective=max(max_rank, max_cov),
        convention="ambient",
    )
