"""Tests for the exact Kalman recursion and the reference benchmarks."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.sparse

from enkf_lab.effective_dim import verify_dim_general
from enkf_lab.enkf import sigma_plus_factor
from enkf_lab.linalg import DimensionMismatch
from enkf_lab.models import (
    JumpSpec,
    StepCoefficients,
    TurbulenceParams,
    build_turbulence,
)
from enkf_lab.reference import (
    KalmanState,
    augmented_riccati_step,
    kalman_step,
    stationary_riccati_ambient,
    stationary_riccati_diag,
)

from oracles import (
    factor_matrix,
    filter_matched_riccati_step,
    instability_covariance,
    unfiltered_mode_values,
)


def sigma_plus(coeffs, r, tau, rho):
    """Dense Sigma+ from the filter's factor."""
    return factor_matrix(sigma_plus_factor(coeffs, r, tau, rho))


def test_scalar_kalman_update():
    # prior variance 2, unit observation: posterior 2/3, gain 2/3
    state = KalmanState(mean=np.zeros(1), cov=np.array([[2.0]]))
    coeffs = StepCoefficients(
        A=np.eye(1), B=np.zeros(1), Sigma=np.zeros((1, 1)), H=np.eye(1)
    )
    out = kalman_step(state, coeffs, np.array([3.0]))
    assert out.cov[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert out.mean[0] == pytest.approx(2.0, rel=1e-12)


def test_kalman_step_matches_gaussian_conditioning():
    # reference recursion: R+ = Rh - Rh H.T (I + H Rh H.T)^{-1} H Rh
    rng = np.random.default_rng(0)
    d, q, T = 4, 2, 50
    A = rng.standard_normal((d, d)) * 0.4
    Sigma = np.eye(d) * 0.3
    H = rng.standard_normal((q, d))
    coeffs = StepCoefficients(A=A, B=np.zeros(d), Sigma=Sigma, H=H)
    state = KalmanState(mean=np.zeros(d), cov=np.eye(d))
    C_ref = np.eye(d)
    m_ref = np.zeros(d)
    for n in range(T):
        y = rng.standard_normal(q)
        state = kalman_step(state, coeffs, y)
        Rh = A @ C_ref @ A.T + Sigma
        mh = A @ m_ref
        S = np.eye(q) + H @ Rh @ H.T
        G = Rh @ H.T @ np.linalg.inv(S)
        C_ref = Rh - G @ H @ Rh
        m_ref = mh + G @ (y - H @ mh)
        np.testing.assert_allclose(state.cov, C_ref, atol=1e-8)
        np.testing.assert_allclose(state.mean, m_ref, atol=1e-8)


def test_kalman_step_pure_forecast():
    rng = np.random.default_rng(1)
    d = 3
    A = rng.standard_normal((d, d))
    Sigma = np.eye(d)
    C0 = np.diag([1.0, 2.0, 3.0])
    state = KalmanState(mean=np.arange(3.0), cov=C0)
    coeffs = StepCoefficients(A=A, B=np.ones(d), Sigma=Sigma)
    out = kalman_step(state, coeffs, None)
    np.testing.assert_allclose(out.cov, A @ C0 @ A.T + Sigma, atol=1e-12)
    np.testing.assert_allclose(out.mean, A @ np.arange(3.0) + 1.0, atol=1e-12)


def test_kalman_step_rejects_bad_observation():
    state = KalmanState(mean=np.zeros(2), cov=np.eye(2))
    coeffs = StepCoefficients(
        A=np.eye(2), B=np.zeros(2), Sigma=np.eye(2), H=np.eye(2)
    )
    with pytest.raises(DimensionMismatch):
        kalman_step(state, coeffs, np.zeros(3))


def test_kalman_covariance_forgets_initialization():
    # long-run covariance independent of C0 within 5%
    p = TurbulenceParams(J=4, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    coeffs = stream.at(0)
    d = p.d
    finals = []
    for c0 in (1.0, 10.0, 100.0):
        state = KalmanState(mean=np.zeros(d), cov=c0 * np.eye(d))
        for _ in range(100):
            state = kalman_step(state, coeffs, np.zeros(d))
        finals.append(np.trace(state.cov))
    spread = (max(finals) - min(finals)) / min(finals)
    assert spread < 0.05


def test_instability_covariance_scalar():
    coeffs = StepCoefficients(A=[[1.0]], B=[0.0], Sigma=[[0.1]])
    out = sigma_plus(coeffs, r=1.1, tau=0.6, rho=0.04)
    want = 0.04 + 0.1 - 0.04 * 0.6 / 1.1
    assert out[0, 0] == pytest.approx(want, rel=1e-12)
    # fully damped case clamps to zero
    coeffs2 = StepCoefficients(A=[[0.0]], B=[0.0], Sigma=[[0.0]])
    assert sigma_plus(coeffs2, 1.1, 0.6, 0.04)[0, 0] == 0.0


def test_instability_covariance_rank():
    A = np.diag([1.0, 0.99, 0.0, 0.0, 0.0, 0.0])
    Sigma = np.diag([0.0, 0.0, 0.5, 0.0, 0.0, 0.0])
    coeffs = StepCoefficients(A=A, B=np.zeros(6), Sigma=Sigma)
    out = sigma_plus(coeffs, r=1.1, tau=1.0, rho=0.04)
    w = np.linalg.eigvalsh(out)
    assert int(np.sum(w > 1e-12)) == 3


def test_instability_covariance_turbulence_ambient_rank():
    # reference configuration: wavenumbers {0..9} unstable, 19 components
    p = TurbulenceParams(J=50, tau=0.6)
    coeffs = build_turbulence(p).at(0)
    out = sigma_plus(coeffs, r=p.r, tau=p.tau, rho=p.rho)
    w = np.linalg.eigvalsh(out)
    assert int(np.sum(w > 1e-12)) == 19


def test_instability_covariance_domination():
    # r Sigma+ + rho tau I >= r (rho A A.T + Sigma) on random instances
    rng = np.random.default_rng(2)
    for _ in range(25):
        d = int(rng.integers(1, 8))
        A = rng.standard_normal((d, d))
        F = rng.standard_normal((d, d))
        Sigma = F @ F.T / d
        r, tau, rho = 1.0 + rng.uniform(0.01, 1), rng.uniform(0.1, 2), rng.uniform(0.01, 1)
        coeffs = StepCoefficients(A=A, B=np.zeros(d), Sigma=Sigma)
        sp = sigma_plus(coeffs, r, tau, rho)
        lhs = r * sp + rho * tau * np.eye(d)
        rhs = r * (rho * A @ A.T + Sigma)
        assert np.linalg.eigvalsh(lhs - rhs)[0] >= -1e-9


def _sigma_plus_case(case):
    """``(coeffs, r, tau, rho)`` for one Sigma+ comparison case."""
    if case == "dense":
        rng = np.random.default_rng(11)
        d = 7
        F = rng.standard_normal((d, d))
        coeffs = StepCoefficients(
            A=0.6 * rng.standard_normal((d, d)), B=np.zeros(d), Sigma=F @ F.T / d
        )
        return coeffs, 1.2, 0.8, 0.3
    if case == "sparse_diag":
        a = np.array([1.0, 0.95, 0.2, 0.0, 0.5])
        sig = np.array([0.0, 0.01, 0.3, 0.0, 0.02])
        coeffs = StepCoefficients(
            A=scipy.sparse.diags(a, format="csr"), B=np.zeros(5),
            Sigma=scipy.sparse.diags(sig, format="csr"),
        )
        return coeffs, 1.1, 0.6, 0.04
    jump = JumpSpec(
        transition=((0.0, 1.0), (1.0, 0.0)),
        multipliers=((1.0, 1.0), (1.15, 1.15)),
        modes=(1, 2),
        init_state=1,  # step 0 scales modes 1 and 2
    )
    p = TurbulenceParams(J=50, tau=0.6, jump_spec=jump if case == "jump" else None)
    return build_turbulence(p).at(0), p.r, p.tau, p.rho


@pytest.mark.parametrize("case", ["dense", "sparse_diag", "turbulence", "jump"])
def test_sigma_plus_factor_matches_dense_oracle(case):
    coeffs, r, tau, rho = _sigma_plus_case(case)
    want = instability_covariance(coeffs, r, tau, rho)
    got = sigma_plus(coeffs, r, tau, rho)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    assert np.linalg.matrix_rank(got) == np.linalg.matrix_rank(want)


def test_augmented_scalar_frozen_value():
    # A=0.9, R'=1, Sigma+ = 0.1, r=1.1, tau*rho = 0.01:
    # R_hat' = 1.21*0.81 + 1.21*0.11 = 1.1132 -> update = 1.1132/2.1132
    tau, rho = 0.25, 0.04
    sigma = 0.1 - rho * 0.81 + rho * tau / 1.1
    coeffs = StepCoefficients(A=[[0.9]], B=[0.0], Sigma=[[sigma]], H=[[1.0]])
    sp = sigma_plus(coeffs, 1.1, tau, rho)
    assert sp[0, 0] == pytest.approx(0.1, rel=1e-12)
    out = filter_matched_riccati_step(np.eye(1), coeffs, 1.1, tau, rho)
    assert out[0, 0] == pytest.approx(0.526784024228658, rel=1e-12)


def test_augmented_without_observation_is_forecast():
    # R_hat' = r^2 A^2 R' + r^2 Sigma + tau rho, with no update
    coeffs = StepCoefficients(A=[[0.5]], B=[0.0], Sigma=[[0.2]])
    out = augmented_riccati_step(np.eye(1), coeffs, 1.1, 1.0, 0.04)
    assert out[0, 0] == pytest.approx(1.21 * 0.25 + 1.21 * 0.2 + 0.04, rel=1e-12)


def test_augmented_state_validation():
    coeffs = StepCoefficients(A=[[0.5]], B=[0.0], Sigma=[[0.2]])
    with pytest.raises(ValueError):
        augmented_riccati_step(np.eye(1), coeffs, 1.0, 1.0, 0.04)


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("name", ["r", "tau", "rho"])
def test_augmented_rejects_non_finite_inflation(name, value):
    # an infinite tau * rho turned the off-diagonal of tau rho I into NaN and
    # ended in LinAlgError after a run of RuntimeWarnings
    args = dict(r=1.1, tau=0.6, rho=0.04) | {name: value}
    coeffs = StepCoefficients(A=[[0.5]], B=[0.0], Sigma=[[0.2]], H=[[1.0]])
    stream = build_turbulence(TurbulenceParams(J=3, sigma_obs=10.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            augmented_riccati_step(np.eye(1), coeffs, **args)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            verify_dim_general(stream, **args)


def test_augmented_reduces_to_kalman():
    # r -> 1, tau*rho -> 0 recovers the plain recursion
    rng = np.random.default_rng(3)
    d, q = 3, 2
    A = rng.standard_normal((d, d)) * 0.5
    Sigma = np.eye(d) * 0.2
    H = rng.standard_normal((q, d))
    coeffs = StepCoefficients(A=A, B=np.zeros(d), Sigma=Sigma, H=H)
    aug = np.eye(d)
    kal = KalmanState(mean=np.zeros(d), cov=np.eye(d))
    for _ in range(20):
        aug = augmented_riccati_step(aug, coeffs, 1 + 1e-12, 1e-3, 1e-11)
        kal = kalman_step(kal, coeffs, np.zeros(q))
    np.testing.assert_allclose(aug, kal.cov, atol=1e-8)


def test_unfiltered_mode_values_reference_configuration():
    p = TurbulenceParams(J=50, tau=0.6)
    v, den = unfiltered_mode_values(p)
    assert v[14] == pytest.approx(0.042636604545403, rel=1e-10)
    # low wavenumbers diverge at these parameters
    assert np.isinf(v[1]) and den[1] < 0
    assert np.all(np.isfinite(v[5:]))


RICCATI_CASES = [(TurbulenceParams(J=50, sigma_obs=10.0, tau=0.6), 0.6)] + [
    (TurbulenceParams(J=20, r=r, sigma_obs=so, E0=E0), tau)
    for r in (1.0005, 1.1, 1.8)
    for so in (10.0, 1e4, 1e8)
    for tau in (0.0, 0.6, 2.1)
    for E0 in (0.0, 1.0)
]


@pytest.mark.parametrize(
    "p, tau", RICCATI_CASES,
    ids=["preset"] + [f"r{p.r}-so{p.sigma_obs:g}-tau{tau}-E0={p.E0:g}" for p, tau in RICCATI_CASES[1:]],
)
def test_stationary_riccati_fixed_point(p, tau):
    # the map's fixed point to roundoff, also where r is near 1 and the
    # iteration from 0 contracts slowly
    vals = stationary_riccati_diag(dataclasses.replace(p, tau=tau))
    g = p.gamma()
    sig = np.zeros(p.J + 1)
    k = np.arange(1, p.J + 1, dtype=float)
    sig[1:] = 0.5 * p.E0 * k ** (-p.beta) * (1 - np.exp(-2 * g[1:] * p.h))
    rhat = p.r**2 * vals * np.exp(-2 * g * p.h) + p.r**2 * sig + tau * p.rho
    fixed = p.sigma_obs * rhat / (p.sigma_obs + p.d * rhat)
    assert np.all(vals >= 0)
    assert np.all(np.abs(fixed - vals) <= 1e-13 * vals)


def test_stationary_riccati_frozen_values():
    p = TurbulenceParams(J=50, sigma_obs=10.0, tau=0.6)
    vals = stationary_riccati_diag(p)
    want = [
        0.04273869, 0.04789978, 0.04613732, 0.04500062,
        0.04359307, 0.04186371, 0.03987927, 0.03774229,
    ]
    np.testing.assert_allclose(vals[:8], want, atol=5e-9)


def test_stationary_riccati_ambient_layout():
    p = TurbulenceParams(J=3, sigma_obs=10.0, tau=0.6)
    vals = stationary_riccati_diag(p)
    amb = stationary_riccati_ambient(p)
    assert amb.shape == (7,)
    assert amb[0] == vals[0]
    assert amb[1] == amb[2] == vals[1]
    assert amb[5] == amb[6] == vals[3]
    # the one layout owner: mode 0 once, then each k >= 1 on its (cos, sin) pair
    np.testing.assert_array_equal(p.ambient(np.arange(4.0)), [0, 1, 1, 2, 2, 3, 3])
    np.testing.assert_array_equal(amb, p.ambient(vals))
    np.testing.assert_array_equal(p.sigma_diag(), p.ambient(p.mode_sigma()))
    assert p.sigma_diag()[0] == 0.0  # mode 0 is unforced


def test_stationary_dominated_by_unfiltered_bound():
    p = TurbulenceParams(J=50, sigma_obs=10.0, tau=0.6)
    r_k = stationary_riccati_diag(p)
    v, _ = unfiltered_mode_values(p)
    assert np.all(r_k <= v + 1e-12)


def test_stationary_riccati_huge_sigma_obs_limit():
    # with tau = 0 both conventions share the additive term (none), so the
    # no-information limit must approach the unfiltered equilibrium
    p = TurbulenceParams(J=10, sigma_obs=1e12)
    r_k = stationary_riccati_diag(dataclasses.replace(p, tau=0.0))
    v, den = unfiltered_mode_values(p, tau=0.0)
    stable = den > 0
    assert stable.sum() >= 5
    np.testing.assert_allclose(r_k[stable], v[stable], rtol=1e-6)


def test_stationary_riccati_zero_noise():
    p = TurbulenceParams(J=5, sigma_obs=10.0, E0=0.0)
    vals = stationary_riccati_diag(dataclasses.replace(p, tau=0.0))
    np.testing.assert_allclose(vals, 0.0, atol=1e-15)


def test_stationary_riccati_monotone_in_observation_noise():
    p5 = TurbulenceParams(J=20, sigma_obs=5.0, tau=0.6)
    p10 = TurbulenceParams(J=20, sigma_obs=10.0, tau=0.6)
    assert np.all(stationary_riccati_diag(p5) <= stationary_riccati_diag(p10) + 1e-12)


def test_stationary_riccati_monotone_in_energy():
    lo = TurbulenceParams(J=20, sigma_obs=10.0, tau=0.6, E0=0.5)
    hi = TurbulenceParams(J=20, sigma_obs=10.0, tau=0.6, E0=1.0)
    assert np.all(stationary_riccati_diag(lo) <= stationary_riccati_diag(hi) + 1e-12)


def test_augmented_converges_to_stationary_under_benchmark_noise():
    p = TurbulenceParams(J=10, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    coeffs = stream.at(0)
    cov = np.zeros((p.d, p.d))
    for _ in range(300):
        cov = augmented_riccati_step(cov, coeffs, p.r, p.tau, p.rho)
    want = stationary_riccati_ambient(p)
    np.testing.assert_allclose(np.diag(cov), want, atol=1e-8)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 1e-10


def test_augmented_step_preserves_ratio_bounds():
    # C <= nu R' is preserved through K(r^2 A C A.T + Sigma') for nu >= 1
    from enkf_lab.linalg import kalman_update_operator
    from oracles import loewner_ratio

    for t in range(200):
        rng = np.random.default_rng((50, t))
        d = int(rng.integers(1, 7))
        q = int(rng.integers(1, d + 1))
        A = rng.standard_normal((d, d))
        F = rng.standard_normal((d, d))
        Rp = F @ F.T / d + 0.1 * np.eye(d)
        G = rng.standard_normal((d, int(rng.integers(1, d + 1))))
        C = G @ G.T / d
        H = rng.standard_normal((q, d))
        W = rng.standard_normal((d, d))
        Sp = W @ W.T / d + 0.05 * np.eye(d)
        r = 1.0 + rng.uniform(0.01, 0.5)
        nu = max(1.0, loewner_ratio(C, Rp))
        lhs = kalman_update_operator(r * r * A @ C @ A.T + Sp, H)
        rhs = kalman_update_operator(r * r * A @ Rp @ A.T + Sp, H)
        w = np.linalg.eigvalsh(nu * rhs - lhs)
        assert w[0] >= -1e-9


def test_augmented_riccati_forgets_initialization():
    # 20 steps wash out C0 in {I, 10I, 100I}: relative spread of
    # ||C_m R_tilde^{-1}|| below 5%, and the norm stays bounded
    p = TurbulenceParams(J=10, sigma_obs=10.0, tau=0.6)
    coeffs = build_turbulence(p).at(0)
    d = p.d
    Rt_inv = np.linalg.inv(np.diag(stationary_riccati_ambient(p)))
    finals = []
    for c0 in (1.0, 10.0, 100.0):
        cov = c0 * np.eye(d)
        for _ in range(20):
            cov = filter_matched_riccati_step(cov, coeffs, p.r, p.tau, p.rho)
        finals.append(np.linalg.norm(cov @ Rt_inv, 2))
    assert (max(finals) - min(finals)) / min(finals) < 0.05
    assert max(finals) < 10.0
