"""Tests for the effective-dimension verifiers."""

import numpy as np
import pytest

from enkf_lab.models import InvalidParams, TurbulenceParams, build_turbulence
from enkf_lab.effective_dim import (
    instability_modes,
    minimal_p_search,
    verify_dim,
    verify_dim_general,
    verify_dim_observed,
    verify_dim_unfiltered,
)
from enkf_lab.reference import stationary_riccati_ambient, stationary_riccati_diag

BENCH_UNFILTERED = TurbulenceParams(J=50, tau=0.6)
BENCH_OBSERVED = TurbulenceParams(J=50, sigma_obs=10.0, tau=0.6)


def test_unfiltered_benchmark_dimensions():
    rep = verify_dim_unfiltered(BENCH_UNFILTERED)
    assert rep.p == 15
    assert rep.p_covariance == 15
    assert rep.pm_covariance == 30
    assert rep.failing_modes == list(range(1, 16))


def test_unfiltered_instability_membership():
    rep = verify_dim_unfiltered(BENCH_UNFILTERED)
    assert rep.instability_mode_list == list(range(0, 10))
    assert rep.p_instability == 10
    # ambient count: mode 0 is one component, the rest two
    assert rep.pm_instability == 19


def test_unfiltered_effective_dimension():
    rep = verify_dim_unfiltered(BENCH_UNFILTERED)
    assert rep.p_effective == max(rep.p_covariance, rep.p_instability)
    assert rep.pm_effective == 30
    assert rep.convention == "wavenumber"


def test_observed_benchmark_dimensions():
    rep = verify_dim_observed(BENCH_OBSERVED)
    assert rep.p == 6
    assert rep.failing_modes == list(range(0, 6))
    assert rep.pm_covariance == 11
    # instability dominates the covariance count here
    assert rep.p_instability == 10
    assert rep.pm_effective == 19


def test_observed_requires_observation():
    with pytest.raises(InvalidParams):
        verify_dim_observed(TurbulenceParams(J=10, tau=0.6))


def test_instability_modes_threshold():
    p = BENCH_UNFILTERED
    modes = instability_modes(p)
    assert modes == list(range(0, 10))
    g = p.gamma()
    sig = p.sigma_diag()
    # boundary check at the first excluded wavenumber
    lhs = p.rho * np.exp(-2 * g[10] * p.h) + sig[2 * 10 - 1]
    assert lhs < p.tau * p.rho / p.r


def test_zero_energy_still_counts_mean_instability():
    # E0 = 0 removes all covariance growth; only dynamics-driven modes remain
    p = TurbulenceParams(J=20, tau=0.6, E0=0.0)
    rep = verify_dim_unfiltered(p)
    assert rep.p_covariance == 0
    assert rep.failing_modes == []
    # rho exp(-2 gamma h) >= tau rho / r keeps slow modes unstable
    assert rep.p_instability > 0


def test_stronger_damping_reduces_dimension():
    weak = verify_dim_unfiltered(BENCH_UNFILTERED)
    strong = verify_dim_unfiltered(TurbulenceParams(J=50, tau=0.6, gamma0=0.1))
    assert strong.p <= weak.p


def test_sharp_observation_shrinks_dimension():
    sharp = verify_dim_observed(
        TurbulenceParams(J=50, sigma_obs=1e-8, tau=0.6)
    )
    assert sharp.p == 0
    assert sharp.failing_modes == []


def test_observed_never_exceeds_unfiltered():
    for rho in (0.02, 0.04, 0.08):
        obs = verify_dim_observed(
            TurbulenceParams(J=50, sigma_obs=10.0, tau=0.6, rho=rho)
        )
        unf = verify_dim_unfiltered(TurbulenceParams(J=50, tau=0.6, rho=rho))
        assert obs.p <= unf.p


def test_minimal_p_search_benchmark():
    grid = (0.02, 0.04, 0.08, 0.16)
    rows = minimal_p_search(BENCH_UNFILTERED, grid)
    by_rho = dict(rows)
    assert by_rho[0.04] == 15
    ps = [p for _, p in rows]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_minimal_p_search_validates_grid():
    with pytest.raises(InvalidParams):
        minimal_p_search(BENCH_UNFILTERED, ())
    with pytest.raises(InvalidParams):
        minimal_p_search(BENCH_UNFILTERED, (0.04, -0.1))


RHO_ENTRY_POINTS = {
    "verify_dim_unfiltered": lambda p, rho: verify_dim_unfiltered(p, rho=rho),
    "verify_dim_observed": lambda p, rho: verify_dim_observed(p, rho=rho),
    "minimal_p_search": lambda p, rho: minimal_p_search(p, [rho]),
    "instability_modes": lambda p, rho: instability_modes(p, rho=rho),
    "stationary_riccati_diag": lambda p, rho: stationary_riccati_diag(p, rho=rho),
}


@pytest.mark.parametrize("rho", [np.nan, np.inf, 0.0, -0.04], ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("entry", list(RHO_ENTRY_POINTS))
def test_rho_override_must_be_finite_and_positive(entry, rho):
    # a rho= override bypasses TurbulenceParams.validate(), so the rho each
    # entry point uses is checked where it is used
    with pytest.raises(InvalidParams, match="rho"):
        RHO_ENTRY_POINTS[entry](BENCH_OBSERVED, rho)


@pytest.mark.parametrize("sigma_obs", [-5.0, 0.0, np.inf], ids=["negative", "zero", "inf"])
@pytest.mark.parametrize("entry", [stationary_riccati_diag, stationary_riccati_ambient])
def test_stationary_solve_rejects_bad_sigma_obs(entry, sigma_obs):
    with pytest.raises(InvalidParams, match="sigma_obs"):
        entry(TurbulenceParams(J=10, sigma_obs=sigma_obs))


def test_stationary_solve_rejects_a_non_finite_value():
    # tau is not checked there (its tau = 0 limit is evaluated), but a NaN
    # tau makes every value NaN, and no NaN is masked to a zero
    with pytest.raises(InvalidParams, match="not finite"):
        stationary_riccati_diag(TurbulenceParams(J=10, sigma_obs=10.0, tau=np.nan))


def test_general_verifier_matches_observed_on_time_invariant_model():
    p = TurbulenceParams(J=12, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    rep = verify_dim_general(stream, r=p.r, tau=p.tau, rho=p.rho)
    obs = verify_dim_observed(p)
    assert rep.convention == "ambient"
    assert rep.observed is obs.observed is True
    assert rep.pm_covariance == obs.pm_covariance
    assert rep.pm_instability == obs.pm_instability


def test_general_verifier_on_jump_stream():
    from enkf_lab.models import JumpSpec

    jump = JumpSpec(
        multipliers=((1.0, 1.0), (1.15, 1.15)),
        transition=((0.9, 0.1), (0.5, 0.5)),
        modes=(1, 2),
    )
    p = TurbulenceParams(J=8, sigma_obs=10.0, tau=0.6, jump_spec=jump)
    stream = build_turbulence(p)
    stream.seed = 7
    fetched = []
    generate = stream.generator
    stream.generator = lambda n, seed: fetched.append(n) or generate(n, seed)
    rep = verify_dim_general(stream, r=p.r, tau=p.tau, rho=p.rho)
    assert fetched == list(range(120))  # 100 burn-in and 20 counted steps, one fetch each
    plain = TurbulenceParams(J=8, sigma_obs=10.0, tau=0.6)
    base = verify_dim_general(build_turbulence(plain), r=p.r, tau=p.tau, rho=p.rho)
    # amplifying unstable modes can only grow the count
    assert rep.pm_effective >= base.pm_effective


@pytest.mark.parametrize("params", [BENCH_OBSERVED, BENCH_UNFILTERED], ids=["observed", "unfiltered"])
def test_verify_dim_takes_the_model_s_closed_form(params):
    verifier = verify_dim_observed if params.sigma_obs is not None else verify_dim_unfiltered
    for rho in (None, 0.2):
        got, want = verify_dim(params, rho=rho), verifier(params, rho=rho)
        assert got.observed is (params.sigma_obs is not None)
        assert (got.p, got.pm_effective, got.failing_modes) == (want.p, want.pm_effective, want.failing_modes)


def test_report_table_contents():
    rep = verify_dim_observed(BENCH_OBSERVED)
    assert len(rep.table) == BENCH_OBSERVED.J + 1
    row = rep.table[6]
    assert row["k"] == 6
    assert row["gamma_k"] == pytest.approx(0.01 + 0.01 * 36, rel=1e-12)
    assert row["pass"] is True
    assert row["r_k"] < BENCH_OBSERVED.rho
    assert rep.table[5]["pass"] is False
    assert rep.table[5]["r_k"] > BENCH_OBSERVED.rho
    # unfiltered tables carry no stationary value
    unf = verify_dim_unfiltered(BENCH_UNFILTERED)
    assert np.isnan(unf.table[3]["r_k"])


def test_dimension_grows_with_energy():
    lo = verify_dim_unfiltered(TurbulenceParams(J=50, tau=0.6, E0=0.25))
    hi = verify_dim_unfiltered(TurbulenceParams(J=50, tau=0.6, E0=4.0))
    assert lo.p <= hi.p
