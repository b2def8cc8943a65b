"""Tests for the augmented ensemble filter."""

import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from enkf_lab import enkf, linalg
from enkf_lab.enkf import (
    Ensemble,
    EnkfConfig,
    EnkfFilter,
    FilterDiverged,
    InvalidObservation,
    RankDeficit,
    enkf_assimilate,
    enkf_forecast,
    sigma_plus_factor,
    _assimilate_dense,
)
from enkf_lab.linalg import DimensionMismatch, kalman_gain, kalman_update_operator
from enkf_lab.models import (
    DOMAIN_FORECAST,
    InvalidParams,
    JumpSpec,
    StepCoefficients,
    CoefficientStream,
    TurbulenceParams,
    build_turbulence,
    simulate_truth,
)
from enkf_lab.reference import KalmanState, kalman_step

from oracles import (
    factor_matrix,
    forecast_centred_in_state_space,
    forecast_per_member,
    forecast_spawned_block,
    initial_ensemble_per_member,
    spawn_normals,
)


def make_ensemble(d, K, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    S = scale * rng.standard_normal((d, K))
    S -= S.mean(axis=1, keepdims=True)
    return Ensemble(mean=rng.standard_normal(d), spread=S)


def dense_coeffs(d, q=None, seed=0, radius=0.6, sigma_scale=0.3):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    A *= radius / max(np.abs(np.linalg.eigvals(A)))
    Sigma = sigma_scale * np.eye(d)
    H = None if q is None else rng.standard_normal((q, d))
    return StepCoefficients(A=A, B=rng.standard_normal(d), Sigma=Sigma, H=H)


def posterior_map_eigh(S_hat, H, cfg):
    """Independent dense eigenpairs of the posterior map K(C_hat), descending."""
    d, K = S_hat.shape
    C_hat = S_hat @ S_hat.T / (K - 1) + cfg.tau * cfg.rho * np.eye(d)
    if H is None:
        Kmat = C_hat
    else:
        Hd = H.toarray() if scipy.sparse.issparse(H) else np.asarray(H, dtype=float)
        G = C_hat @ Hd.T @ np.linalg.inv(np.eye(Hd.shape[0]) + Hd @ C_hat @ Hd.T)
        ImGH = np.eye(d) - G @ Hd
        Kmat = ImGH @ C_hat @ ImGH.T + G @ G.T
    w, V = np.linalg.eigh(Kmat)
    return w[::-1], V[:, ::-1]


def posterior_map_reference(S_hat, H, cfg):
    """Independent dense evaluation of P (K(C_hat) - rho I)+ P."""
    w, V = posterior_map_eigh(S_hat, H, cfg)
    lam = np.maximum(w[: cfg.p] - cfg.rho, 0.0)
    return (V[:, : cfg.p] * lam) @ V[:, : cfg.p].T


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(mean=np.zeros(2), spread=np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        Ensemble(mean=np.zeros(2), spread=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="sum to zero"):
        Ensemble(mean=np.zeros(2), spread=np.full((2, 3), np.nan))
    with pytest.raises(ValueError, match="finite"):
        Ensemble(mean=np.array([0.0, np.nan]), spread=np.zeros((2, 3)))
    ens = make_ensemble(3, 5)
    np.testing.assert_allclose(
        ens.covariance(), ens.spread @ ens.spread.T / 4, atol=1e-14
    )


@pytest.mark.parametrize("init_cov", [1e10, 1e12])
def test_large_scale_ensemble_passes_the_column_sum_check(init_cov):
    # the centred spread's column sums are roundoff of its own scale
    p = TurbulenceParams(J=10, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=40, p=7, r=p.r, rho=p.rho, tau=p.tau)
    truth = simulate_truth(stream, np.zeros(stream.d), 2, seed=0)
    f = EnkfFilter(stream, cfg, seed=0, init_cov=init_cov)
    for n in range(2):
        f.step(truth.observations[n])
    assert np.all(np.isfinite(f.ensemble.spread))


def test_column_sum_check_scales_with_the_spread():
    S = make_ensemble(4, 6, seed=43, scale=1e8).spread
    scale = np.abs(S).max()
    Ensemble(mean=np.zeros(4), spread=S)
    S_off = S.copy()
    S_off[1] += 1e-6 * scale / S.shape[1]  # row 1 sums to 1e-6 of the scale
    with pytest.raises(ValueError, match="sum to zero"):
        Ensemble(mean=np.zeros(4), spread=S_off)
    S_inf = S.copy()
    S_inf[0, 0] = np.inf
    with pytest.raises(ValueError, match="sum to zero"):
        Ensemble(mean=np.zeros(4), spread=S_inf)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(K=1, p=1, r=1.1, rho=0.1, tau=1.0),
        dict(K=5, p=0, r=1.1, rho=0.1, tau=1.0),
        dict(K=5, p=1, r=1.0, rho=0.1, tau=1.0),
        dict(K=5, p=1, r=1.1, rho=0.0, tau=1.0),
        dict(K=5, p=1, r=1.1, rho=0.1, tau=0.0),
        dict(K=5, p=1, r=np.inf, rho=0.1, tau=1.0),
        dict(K=5, p=1, r=1.1, rho=np.inf, tau=1.0),
        dict(K=5, p=1, r=1.1, rho=0.1, tau=np.inf),
        dict(K=2.5, p=1, r=1.1, rho=0.1, tau=1.0),
        dict(K=5, p=1.5, r=1.1, rho=0.1, tau=1.0),
        dict(K=True, p=1, r=1.1, rho=0.1, tau=1.0),
        dict(K=5, p=np.float64(2.0), r=1.1, rho=0.1, tau=1.0),
    ],
)
def test_config_validation(kwargs):
    # each row breaks one field of a valid config; the error names it
    valid = dict(K=5, p=1, r=1.1, rho=0.1, tau=1.0)
    (field,) = [k for k in valid if kwargs[k] != valid[k]]
    with pytest.raises(ValueError, match=f"^{field} must be"):
        EnkfConfig(**kwargs)


def test_sigma_plus_factor_sparse_matches_dense():
    p = TurbulenceParams(J=6, sigma_obs=10.0, tau=0.6)
    coeffs = build_turbulence(p).at(0)
    cfg = EnkfConfig(K=8, p=4, r=p.r, rho=p.rho, tau=p.tau)
    U, s = sigma_plus_factor(coeffs, cfg.r, cfg.tau, cfg.rho)
    dense = StepCoefficients(
        A=np.asarray(coeffs.A.todense()),
        B=coeffs.B,
        Sigma=np.asarray(coeffs.Sigma.todense()),
        H=None,
    )
    Ud, sd = sigma_plus_factor(dense, cfg.r, cfg.tau, cfg.rho)
    np.testing.assert_allclose(
        factor_matrix((U, s)), factor_matrix((Ud, sd)), atol=1e-12
    )
    assert np.all(s > 0)


def _sigma_with_non_finite_entry(case):
    """Coefficients whose Sigma holds one non-finite entry: NaN on a sparse
    diagonal, NaN on a dense diagonal, or inf off a dense diagonal."""
    if case == "sparse_nan_diagonal":
        coeffs = build_turbulence(TurbulenceParams(J=3, sigma_obs=10.0, tau=0.6)).at(0)
        Sigma = coeffs.Sigma.tolil(copy=True)
        Sigma[1, 1] = np.nan
        return StepCoefficients(A=coeffs.A, B=coeffs.B, Sigma=Sigma.tocsr(), H=coeffs.H)
    Sigma = 0.3 * np.eye(4)
    if case == "dense_nan_diagonal":
        Sigma[2, 2] = np.nan
    else:
        Sigma[0, 1] = Sigma[1, 0] = np.inf
    return StepCoefficients(A=0.5 * np.eye(4), B=np.zeros(4), Sigma=Sigma, H=np.eye(4))


@pytest.mark.parametrize(
    "case", ["sparse_nan_diagonal", "dense_nan_diagonal", "dense_inf_off_diagonal"]
)
def test_non_finite_sigma_fails_instead_of_dropping_the_component(case):
    coeffs = _sigma_with_non_finite_entry(case)
    d, q = coeffs.B.shape[0], coeffs.H.shape[0]
    stream = CoefficientStream(d=d, q=q, generator=lambda n, rng: coeffs)
    cfg = EnkfConfig(K=6, p=2, r=1.1, rho=0.04, tau=0.6)
    with pytest.raises(ValueError, match="non-finite"):
        sigma_plus_factor(coeffs, cfg.r, cfg.tau, cfg.rho)
    with pytest.raises(ValueError, match="non-finite"):
        simulate_truth(stream, np.zeros(d), 2, seed=0)
    with pytest.raises(ValueError, match="non-finite"):
        EnkfFilter(stream, cfg, seed=0).step(np.zeros(q))


def test_forecast_exact_when_target_vanishes():
    # rho A A.T + Sigma below the subtraction level: no noise is drawn
    d, K = 4, 6
    cfg = EnkfConfig(K=K, p=2, r=1.1, rho=0.1, tau=1.0)
    coeffs = StepCoefficients(
        A=0.2 * np.eye(d), B=np.arange(d, dtype=float), Sigma=0.01 * np.eye(d)
    )
    ens = make_ensemble(d, K, seed=3)
    factor = sigma_plus_factor(coeffs, cfg.r, cfg.tau, cfg.rho)
    mean, S_hat = enkf_forecast(ens, coeffs, cfg, (0, 99, 0), factor)
    np.testing.assert_allclose(mean, 0.2 * ens.mean + coeffs.B, atol=1e-14)
    np.testing.assert_allclose(S_hat, np.sqrt(1.1) * 0.2 * ens.spread, atol=1e-14)


def test_forecast_covariance_law_of_large_numbers():
    d, K = 3, 20000
    cfg = EnkfConfig(K=K, p=d, r=1.2, rho=0.2, tau=1.0)
    coeffs = dense_coeffs(d, seed=5, sigma_scale=0.5)
    ens = make_ensemble(d, K, seed=1)
    U, s = sigma_plus_factor(coeffs, cfg.r, cfg.tau, cfg.rho)
    target = factor_matrix((U, s))
    A = np.asarray(coeffs.A)
    expected = cfg.r * (A @ ens.covariance() @ A.T + target)
    _, S_hat = enkf_forecast(ens, coeffs, cfg, (0, 99, 1), (U, s))
    sample = S_hat @ S_hat.T / (K - 1)
    err = np.linalg.norm(sample - expected, 2) / np.linalg.norm(expected, 2)
    assert err < 0.08
    # spread columns stay centered
    assert np.abs(S_hat.sum(axis=1)).max() < 1e-9


def test_forecast_mean_unbiased():
    d, K = 3, 20000
    cfg = EnkfConfig(K=K, p=d, r=1.2, rho=0.2, tau=1.0)
    coeffs = dense_coeffs(d, seed=5, sigma_scale=0.5)
    ens = make_ensemble(d, K, seed=1)
    U, s = sigma_plus_factor(coeffs, cfg.r, cfg.tau, cfg.rho)
    target = factor_matrix((U, s))
    A = np.asarray(coeffs.A)
    mean, _ = enkf_forecast(ens, coeffs, cfg, (0, 99, 2), (U, s))
    drift = mean - (A @ ens.mean + coeffs.B)
    se = np.sqrt(np.diag(target) / K)
    assert np.all(np.abs(drift) <= 3 * se + 1e-12)


@pytest.mark.parametrize("J, jump", [(3, False), (10, False), (10, True)])
def test_batched_forecast_bit_identical_to_per_member_loop(J, jump):
    # the turbulence model's Sigma+ factor has a sparse selector U: one
    # product with the (K, m) block of draws gives the loop's exact bits
    spec = JumpSpec(transition=[[0.5, 0.5], [0.5, 0.5]], multipliers=[[1.0], [1.3]], modes=(1,))
    p = TurbulenceParams(J=J, sigma_obs=10.0, tau=0.6, jump_spec=spec if jump else None)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=7, p=3, r=p.r, rho=p.rho, tau=p.tau)
    for n in range(4):
        coeffs = stream.at(n)
        factor = sigma_plus_factor(coeffs, cfg.r, cfg.tau, cfg.rho)
        assert scipy.sparse.issparse(factor[0]) and factor[1].size > 0
        ens = make_ensemble(stream.d, cfg.K, seed=n)
        got = enkf_forecast(ens, coeffs, cfg, (5, 4, n), factor=factor)
        want = forecast_per_member(ens, coeffs, cfg, (5, 4, n), factor)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


def test_forecast_matches_spawned_draws_at_kalman_limit_setup():
    # acceptance 03's set-up (d=4, K=1000, dense U): the keys derived in
    # bulk reproduce the substream(*key).spawn(K) draws, so the forecast
    # keeps its bits
    d, K = 4, 1000
    cfg = EnkfConfig(K=K, p=d, r=1.0 + 1e-6, rho=1e-6, tau=1.0)
    rng = np.random.default_rng(2)
    A = rng.standard_normal((d, d))
    A *= 0.7 / max(np.abs(np.linalg.eigvals(A)))
    coeffs = StepCoefficients(A=A, B=np.zeros(d), Sigma=0.3 * np.eye(d), H=np.eye(d))
    factor = sigma_plus_factor(coeffs, cfg.r, cfg.tau, cfg.rho)
    assert isinstance(factor[0], np.ndarray) and factor[1].size > 0
    stream = CoefficientStream(d=d, q=d, generator=lambda n, r_: coeffs)
    for seed in (0, 3):
        ens = EnkfFilter(stream, cfg, seed=seed, init_cov=1.0).ensemble
        for n in range(3):
            key = (seed, DOMAIN_FORECAST, n)
            got = enkf_forecast(ens, coeffs, cfg, key, factor)
            want = forecast_spawned_block(ens, coeffs, cfg, key, factor)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("selector", [True, False], ids=["sparse_selector_U", "dense_U"])
def test_forecast_matches_draws_centred_in_state_space(selector):
    # centring the draws in noise space and mapping them by U gives the
    # d-space form sqrt(r) (A S + xi - mean(xi)) up to roundoff
    if selector:
        p = TurbulenceParams(J=10, sigma_obs=10.0, tau=0.6)
        coeffs = build_turbulence(p).at(0)
        cfg = EnkfConfig(K=40, p=3, r=p.r, rho=p.rho, tau=p.tau)
    else:
        coeffs = dense_coeffs(6, seed=4, sigma_scale=0.5)
        cfg = EnkfConfig(K=40, p=2, r=1.1, rho=0.05, tau=1.0)
    factor = sigma_plus_factor(coeffs, cfg.r, cfg.tau, cfg.rho)
    assert scipy.sparse.issparse(factor[0]) == selector and factor[1].size > 0
    ens = make_ensemble(coeffs.B.shape[0], cfg.K, seed=3)
    got = enkf_forecast(ens, coeffs, cfg, (2, DOMAIN_FORECAST, 1), factor)
    Z = spawn_normals((2, DOMAIN_FORECAST, 1), cfg.K, factor[1].size)
    want = forecast_centred_in_state_space(ens, coeffs, cfg, Z, factor)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize(
    "d, K, seed, init_mean, init_cov",
    [(4, 1000, 0, None, 1.0), (21, 40, 7, None, None), (101, 8, 2**40 + 5, "ramp", 0.3)],
)
def test_initial_ensemble_matches_per_member_substreams(d, K, seed, init_mean, init_cov):
    cfg = EnkfConfig(K=K, p=1, r=1.1, rho=0.04, tau=1.0)
    stream = CoefficientStream(d=d, q=0, generator=None)
    mean = np.linspace(-1.0, 2.0, d) if init_mean == "ramp" else None
    got = EnkfFilter(stream, cfg, seed, init_mean=mean, init_cov=init_cov).ensemble
    want = initial_ensemble_per_member(d, cfg, seed, init_mean=mean, init_cov=init_cov)
    assert np.array_equal(got.mean, want.mean)
    assert np.array_equal(got.spread, want.spread)
    assert got.spread.flags.c_contiguous


@pytest.mark.parametrize("d, K", [(4, 9), (21, 40), (30, 8)])
def test_batched_forecast_matches_per_member_loop_dense_factor(d, K):
    # a dense U changes the product's summation order only: agreement
    # to 1e-15 relative to the largest entry
    cfg = EnkfConfig(K=K, p=2, r=1.1, rho=0.05, tau=1.0)
    coeffs = dense_coeffs(d, seed=d, sigma_scale=0.5)
    factor = sigma_plus_factor(coeffs, cfg.r, cfg.tau, cfg.rho)
    assert isinstance(factor[0], np.ndarray) and factor[1].size > 0
    ens = make_ensemble(d, K, seed=K)
    got = enkf_forecast(ens, coeffs, cfg, (6, 4, 0), factor=factor)
    want = forecast_per_member(ens, coeffs, cfg, (6, 4, 0), factor)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-15 * np.abs(w).max()


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(3, 40),
    k_frac=st.floats(0.0, 1.0),
    rank_frac=st.floats(0.0, 1.0),
    eta=st.floats(0.05, 5.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_ensemble_space_mean_update_matches_kalman_gain(d, k_frac, rank_frac, eta, seed):
    # H = eta I, K < d: the mean moves by G r with G = C H.T (I + H C H.T)^{-1}
    # of C = S_hat S_hat.T / (K-1) + tau rho I, also when the spread has
    # fewer than K - 1 directions (rank 0 included)
    rng = np.random.default_rng(seed)
    K = 2 + int(k_frac * (d - 3))
    rank = int(rank_frac * (K - 1))
    S_hat = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, K))
    S_hat -= S_hat.mean(axis=1, keepdims=True)
    cfg = EnkfConfig(K=K, p=1, r=1.1, rho=0.04, tau=0.6)
    H = scipy.sparse.identity(d, format="csr") * eta
    coeffs = StepCoefficients(A=np.eye(d), B=np.zeros(d), Sigma=np.eye(d), H=H)
    y = rng.standard_normal(d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficit)
        ens, _ = enkf_assimilate(np.zeros(d), S_hat, coeffs, y, cfg)
    C = S_hat @ S_hat.T / (K - 1) + cfg.tau * cfg.rho * np.eye(d)
    want = kalman_gain(C, eta * np.eye(d)) @ y
    np.testing.assert_allclose(ens.mean, want, rtol=1e-8, atol=1e-8 * np.abs(want).max())


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(3, 30),
    k_frac=st.floats(0.0, 1.0),
    p_frac=st.floats(0.0, 1.0),
    eta=st.floats(0.05, 5.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_structured_and_dense_routes_agree(d, k_frac, p_frac, eta, seed):
    rng = np.random.default_rng(seed)
    K = 2 + int(k_frac * (d - 3))
    p = 1 + int(p_frac * (d - 1))
    cfg = EnkfConfig(K=K, p=p, r=1.1, rho=0.04, tau=0.6)
    H = scipy.sparse.identity(d, format="csr") * eta
    coeffs = StepCoefficients(A=np.eye(d), B=np.zeros(d), Sigma=np.eye(d), H=H)
    S_hat = rng.standard_normal((d, K))
    S_hat -= S_hat.mean(axis=1, keepdims=True)
    mean_hat = rng.standard_normal(d)
    y = rng.standard_normal(d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficit)
        ens_s, rec_s = enkf_assimilate(mean_hat, S_hat, coeffs, y, cfg)
        ens_d, rec_d = _assimilate_dense(mean_hat, S_hat, H, y, cfg)
    np.testing.assert_allclose(ens_s.mean, ens_d.mean, atol=1e-9)
    np.testing.assert_allclose(
        ens_s.spread @ ens_s.spread.T, ens_d.spread @ ens_d.spread.T, atol=1e-9
    )
    assert rec_s.projection_discard == pytest.approx(rec_d.projection_discard, abs=1e-12)


def test_structured_step_builds_no_gain_context(monkeypatch):
    # H = eta I with K < d: the gain comes from the Gram eigenpairs, and
    # no q x q gain system is built or factored
    def forbidden(*args, **kwargs):
        raise AssertionError("a q x q gain ran on a structured step")

    monkeypatch.setattr(enkf, "_gain_and_update", forbidden)
    monkeypatch.setattr(linalg, "kalman_gain", forbidden)
    p = TurbulenceParams(J=10, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=8, p=4, r=p.r, rho=p.rho, tau=p.tau)
    truth = simulate_truth(stream, np.zeros(stream.d), 3, seed=0)
    f = EnkfFilter(stream, cfg, seed=0)
    for n in range(3):
        f.step(truth.observations[n])


@pytest.mark.parametrize("collapsed", [True, False], ids=["collapsed", "kept_directions"])
def test_structured_step_allocates_at_most_two_and_a_half_spreads(collapsed):
    # d = 4001, K = 40 on the ensemble-space route: the forecast spread and
    # the posterior spread are a step's only d x K arrays, so its peak new
    # allocation stays below 2.5 d x K doubles (vectors of length d add 1/K each)
    J, K = 2000, 40
    d = 2 * J + 1
    p = TurbulenceParams(J=J, sigma_obs=10.0 if collapsed else d / 10.1, tau=0.6)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=K, p=19, r=p.r, rho=p.rho, tau=p.tau)
    truth = simulate_truth(stream, np.zeros(d), 2, seed=0)
    filt = EnkfFilter(stream, cfg, seed=0)
    filt.step(truth.observations[0])  # factors Sigma+ once
    tracemalloc.start()
    try:
        rec = filt.step(truth.observations[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rec.posterior_factor.shape[1] == 0) == collapsed
    assert peak <= 2.5 * d * K * 8


def _count_gain_work(monkeypatch):
    """Count ``kalman_gain`` calls and Cholesky factorizations."""
    counts = {"kalman_gain": 0, "cho_factor": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(linalg, "kalman_gain", counted("kalman_gain", linalg.kalman_gain))
    monkeypatch.setattr(
        scipy.linalg, "cho_factor", counted("cho_factor", scipy.linalg.cho_factor)
    )
    return counts


@pytest.mark.parametrize(
    "d,q,K",
    [(8, 3, 6), (5, 4, 9), (5, None, 8)],
    ids=["general_H_K_lt_d", "general_H_K_gt_d", "eta_I_K_ge_d"],
)
def test_dense_route_factors_one_gain_per_assimilation(monkeypatch, d, q, K):
    # the mean update and the posterior map share one gain
    if q is None:
        H = 1.3 * np.eye(d)
        coeffs = StepCoefficients(A=np.eye(d), B=np.zeros(d), Sigma=np.eye(d), H=H)
    else:
        coeffs = dense_coeffs(d, q=q, seed=31)
    cfg = EnkfConfig(K=K, p=3, r=1.1, rho=0.05, tau=0.8)
    S_hat = make_ensemble(d, K, seed=37).spread
    y = np.linspace(-1.0, 1.0, coeffs.H.shape[0])
    counts = _count_gain_work(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficit)
        enkf_assimilate(np.zeros(d), S_hat, coeffs, y, cfg)
    assert counts == {"kalman_gain": 1, "cho_factor": 1}


def test_kalman_step_factors_one_gain(monkeypatch):
    d, q = 6, 4
    coeffs = dense_coeffs(d, q=q, seed=41)
    state = KalmanState(mean=np.zeros(d), cov=0.5 * np.eye(d))
    counts = _count_gain_work(monkeypatch)
    kalman_step(state, coeffs, np.ones(q))
    assert counts == {"kalman_gain": 1, "cho_factor": 1}


def _diverging_filter(seed):
    # d = 5, K = 3, H = 2 I: the ensemble-space route
    d = 5
    coeffs = StepCoefficients(
        A=0.5 * np.eye(d), B=np.zeros(d), Sigma=0.1 * np.eye(d),
        H=scipy.sparse.identity(d, format="csr") * 2.0,
    )
    stream = CoefficientStream(d=d, q=d, generator=lambda n, r_: coeffs)
    return EnkfFilter(stream, EnkfConfig(K=3, p=2, r=1.1, rho=0.04, tau=0.6), seed=seed)


def test_filter_diverged_on_non_finite_forecast_mean():
    f = _diverging_filter(seed=4)
    f.step(np.zeros(5))
    f.ensemble.mean[2] = np.inf
    with pytest.raises(FilterDiverged) as info, np.errstate(invalid="ignore"):
        f.step(np.zeros(5))
    assert (info.value.step, info.value.quantity, info.value.seed) == (2, "forecast mean", 4)
    assert "step 2" in str(info.value) and "seed 4" in str(info.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_filter_diverged_on_non_finite_forecast_spread(bad):
    f = _diverging_filter(seed=1)
    f.ensemble.spread[0, 0] = bad
    with pytest.raises(FilterDiverged) as info, np.errstate(invalid="ignore"):
        f.step(np.zeros(5))
    assert (info.value.step, info.value.quantity, info.value.seed) == (1, "forecast spread", 1)
    assert np.all(np.isfinite(f.ensemble.mean))


@pytest.mark.parametrize("J, K", [(3, 4), (1, 8)], ids=["ensemble_space", "dense"])
def test_spread_overflow_is_named_before_numpy_warns(J, K):
    # r = 1e150 inflates the spread until its Gram (K < d) or C_hat (K >= d)
    # overflows at step 3; the suite turns numpy's RuntimeWarning into an
    # error, so the overflow must reach the finiteness check instead
    params = TurbulenceParams(J=J, r=1e150, tau=0.6)
    cfg = EnkfConfig(K=K, p=2, r=params.r, rho=params.rho, tau=params.tau)
    f = EnkfFilter(build_turbulence(params), cfg, seed=0)
    with pytest.raises(FilterDiverged) as info:
        for _ in range(20):
            f.step(None)
    assert (info.value.step, info.value.quantity, info.value.seed) == (3, "forecast spread", 0)


def test_dense_route_rejects_non_finite_forecast_spread():
    d, K = 4, 6
    cfg = EnkfConfig(K=K, p=2, r=1.1, rho=0.05, tau=1.0)
    S_hat = make_ensemble(d, K).spread
    S_hat[1, 2] = np.nan
    with pytest.raises(FilterDiverged, match="forecast spread"):
        enkf_assimilate(np.zeros(d), S_hat, dense_coeffs(d, q=2), np.zeros(2), cfg)


@pytest.mark.parametrize("q", [None, 3])
def test_assimilate_matches_dense_reference(q):
    d, K = 8, 6
    cfg = EnkfConfig(K=K, p=4, r=1.1, rho=0.05, tau=0.8)
    coeffs = dense_coeffs(d, q=q, seed=7)
    mean_hat = np.arange(d, dtype=float)
    S_hat = make_ensemble(d, K, seed=11, scale=2.0).spread
    y = None if q is None else np.ones(q)
    ens, rec = enkf_assimilate(mean_hat, S_hat, coeffs, y, cfg)
    want = posterior_map_reference(S_hat, coeffs.H, cfg)
    got = ens.spread @ ens.spread.T / (K - 1)
    np.testing.assert_allclose(got, want, atol=1e-8)
    assert np.linalg.matrix_rank(ens.spread, tol=1e-10) <= cfg.p
    assert np.abs(ens.spread.sum(axis=1)).max() < 1e-9


def test_assimilate_full_rank_projection():
    # p = d keeps the whole clamped posterior map
    d, K = 4, 12
    cfg = EnkfConfig(K=K, p=d, r=1.1, rho=1e-4, tau=1.0)
    coeffs = dense_coeffs(d, q=4, seed=13)
    S_hat = make_ensemble(d, K, seed=17, scale=3.0).spread
    ens, rec = enkf_assimilate(np.zeros(d), S_hat, coeffs, np.zeros(4), cfg)
    want = posterior_map_reference(S_hat, coeffs.H, cfg)
    np.testing.assert_allclose(ens.spread @ ens.spread.T / (K - 1), want, atol=1e-8)
    assert rec.projection_discard == 0.0
    assert rec.chi == 1.0


def test_posterior_mean_uses_woodbury_gain():
    d, q, K = 8, 3, 6
    cfg = EnkfConfig(K=K, p=4, r=1.1, rho=0.05, tau=0.8)
    coeffs = dense_coeffs(d, q=q, seed=19)
    mean_hat = np.linspace(-1, 1, d)
    S_hat = make_ensemble(d, K, seed=23).spread
    y = np.arange(q, dtype=float)
    ens, _ = enkf_assimilate(mean_hat, S_hat, coeffs, y, cfg)
    H = np.asarray(coeffs.H)
    C_hat = S_hat @ S_hat.T / (K - 1) + cfg.tau * cfg.rho * np.eye(d)
    G = C_hat @ H.T @ np.linalg.inv(np.eye(q) + H @ C_hat @ H.T)
    resid = y - H @ mean_hat
    np.testing.assert_allclose(ens.mean, mean_hat + G @ resid, atol=1e-9)


def test_structured_route_matches_dense_route():
    # identity-scaled sparse observation, K < d: Gram shortcut vs dense
    d, K = 30, 8
    cfg = EnkfConfig(K=K, p=5, r=1.1, rho=0.04, tau=0.6)
    eta = 1.7
    H = scipy.sparse.identity(d, format="csr") * eta
    A = 0.5 * np.eye(d)
    coeffs = StepCoefficients(A=A, B=np.zeros(d), Sigma=0.1 * np.eye(d), H=H)
    mean_hat = np.sin(np.arange(d))
    S_hat = make_ensemble(d, K, seed=29, scale=1.5).spread
    y = np.cos(np.arange(d))
    ens_s, rec_s = enkf_assimilate(mean_hat, S_hat, coeffs, y, cfg)
    ens_d, rec_d = _assimilate_dense(mean_hat, S_hat, H, y, cfg)
    np.testing.assert_allclose(ens_s.mean, ens_d.mean, atol=1e-9)
    np.testing.assert_allclose(
        ens_s.spread @ ens_s.spread.T, ens_d.spread @ ens_d.spread.T, atol=1e-9
    )
    assert rec_s.projection_discard == pytest.approx(
        rec_d.projection_discard, abs=1e-12
    )


def test_structured_route_cuts_rank_like_dense_route():
    # both routes count the spread's rank by one rule at d=50, K=10, and
    # both warn; tau > 1 puts the flat tail kappa(0) above rho. Input one
    # is an exactly rank-3 spread, whose null Gram eigenvalues (~eps s_0)
    # must not count as directions. Input two has three O(1) singular
    # values and two at 1e-10 of the largest: their Gram eigenvalues,
    # 1e-20 of the largest, sit below the roundoff floor, so neither route
    # fills those two directions.
    d, K, eta = 50, 10, 0.5
    cfg = EnkfConfig(K=K, p=6, r=1.1, rho=0.04, tau=2.0)
    rng = np.random.default_rng(11)
    exact = rng.standard_normal((d, 3)) @ rng.standard_normal((3, K))
    U = np.linalg.qr(rng.standard_normal((d, 5)))[0]
    V = rng.standard_normal((K, 5))
    V = np.linalg.qr(V - V.mean(axis=0))[0]  # columns orthogonal to ones
    near = (U * np.array([3.0, 2.0, 1.5, 3e-10, 3e-10])) @ V.T
    H = scipy.sparse.identity(d, format="csr") * eta
    coeffs = StepCoefficients(A=np.eye(d), B=np.zeros(d), Sigma=np.eye(d), H=H)
    y, mean_hat = np.cos(np.arange(d)), np.sin(np.arange(d))
    for S_hat in (exact, near):
        S_hat = S_hat - S_hat.mean(axis=1, keepdims=True)
        out = {}
        for route, run in (
            ("structured", lambda: enkf_assimilate(mean_hat, S_hat, coeffs, y, cfg)),
            ("dense", lambda: _assimilate_dense(mean_hat, S_hat, H, y, cfg)),
        ):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                ens, rec = run()
            out[route] = (
                [str(w.message) for w in caught if issubclass(w.category, RankDeficit)],
                ens,
            )
        assert out["structured"][0] == out["dense"][0]
        assert out["dense"][0] == ["projection wants 6 directions but the spread spans 3"]
        for _, ens in out.values():
            sv = np.linalg.svd(ens.spread, compute_uv=False)
            assert np.count_nonzero(sv > 1e-12 * sv[0]) == 3
        np.testing.assert_allclose(
            out["structured"][1].spread @ out["structured"][1].spread.T,
            out["dense"][1].spread @ out["dense"][1].spread.T,
            atol=1e-12,
        )


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(2, 25),
    K=st.integers(2, 35),
    p_frac=st.floats(0.0, 1.0),
    rank_frac=st.floats(0.0, 1.0),
    route=st.sampled_from(["structured", "unobserved", "general_H"]),
    tau=st.sampled_from([0.6, 2.0]),
    seed=st.integers(0, 2**31 - 1),
)
def test_record_factor_carries_the_posterior_covariance(
    d, K, p_frac, rank_frac, route, tau, seed
):
    # W = rec.posterior_factor gives W W.T = S+ S+.T / (K-1), one nonzero
    # column per kept direction: the top-p posterior-map eigenvalues above
    # rho, at most the spread's rank m. K runs below and above d (K >= d
    # takes the dense route whatever H is), m from 0 to K - 1, and tau = 2
    # lifts the flat tail above rho, so RankDeficit fires when want > m
    rng = np.random.default_rng(seed)
    p = 1 + int(p_frac * (d - 1))
    m = int(rank_frac * min(d, K - 1))
    cfg = EnkfConfig(K=K, p=p, r=1.1, rho=0.04, tau=tau)
    S_hat = rng.standard_normal((d, m)) @ rng.standard_normal((m, K))
    S_hat -= S_hat.mean(axis=1, keepdims=True)
    H = {
        "structured": scipy.sparse.identity(d, format="csr") * rng.uniform(0.1, 3.0),
        "unobserved": None,
        "general_H": rng.standard_normal((1 + d // 2, d)),
    }[route]
    y = None if H is None else rng.standard_normal(H.shape[0])
    coeffs = StepCoefficients(A=np.eye(d), B=np.zeros(d), Sigma=np.eye(d), H=H)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ens, rec = enkf_assimilate(rng.standard_normal(d), S_hat, coeffs, y, cfg)
    W = rec.posterior_factor
    C = ens.spread @ ens.spread.T / (K - 1)
    assert np.linalg.norm(W @ W.T - C) <= 1e-12 * np.linalg.norm(C)
    assert np.all(np.linalg.norm(W, axis=0) > 0)
    want = int(np.count_nonzero(posterior_map_eigh(S_hat, H, cfg)[0][:p] > cfg.rho))
    assert W.shape == (d, min(want, m))
    fired = any(issubclass(w.category, RankDeficit) for w in caught)
    assert fired == (want > m)


def test_structured_route_unobserved_matches_dense():
    d, K = 25, 6
    cfg = EnkfConfig(K=K, p=3, r=1.1, rho=0.04, tau=0.6)
    S_hat = make_ensemble(d, K, seed=31).spread
    mean_hat = np.zeros(d)
    coeffs = StepCoefficients(
        A=np.eye(d), B=np.zeros(d), Sigma=np.eye(d), H=None
    )
    ens_s, _ = enkf_assimilate(mean_hat, S_hat, coeffs, None, cfg)
    ens_d, _ = _assimilate_dense(mean_hat, S_hat, None, None, cfg)
    np.testing.assert_allclose(ens_s.mean, mean_hat, atol=1e-14)
    np.testing.assert_allclose(
        ens_s.spread @ ens_s.spread.T, ens_d.spread @ ens_d.spread.T, atol=1e-9
    )


def test_rank_deficit_warning_dense():
    # tau > 1: unobserved flat directions of the posterior map exceed rho
    d, K, q = 6, 3, 3
    cfg = EnkfConfig(K=K, p=5, r=1.1, rho=0.01, tau=2.0)
    rng = np.random.default_rng(37)
    coeffs = StepCoefficients(
        A=np.eye(d),
        B=np.zeros(d),
        Sigma=np.eye(d),
        H=0.1 * rng.standard_normal((q, d)),
    )
    S_hat = make_ensemble(d, K, seed=41, scale=4.0).spread
    with pytest.warns(RankDeficit):
        enkf_assimilate(np.zeros(d), S_hat, coeffs, np.zeros(q), cfg)


def test_rank_deficit_warning_structured():
    # tau > 1 lifts the flat tail of the posterior map above rho, asking
    # for more directions than K - 1 spread columns can span
    d, K = 10, 3
    cfg = EnkfConfig(K=K, p=5, r=1.1, rho=0.01, tau=2.0)
    H = scipy.sparse.identity(d, format="csr") * 0.1
    coeffs = StepCoefficients(
        A=np.eye(d), B=np.zeros(d), Sigma=np.eye(d), H=H
    )
    S_hat = make_ensemble(d, K, seed=43).spread
    with pytest.warns(RankDeficit):
        enkf_assimilate(np.zeros(d), S_hat, coeffs, np.zeros(d), cfg)


def test_filter_rejects_oversized_projection():
    stream = build_turbulence(TurbulenceParams(J=2, tau=0.6))
    cfg = EnkfConfig(K=4, p=6, r=1.1, rho=0.04, tau=0.6)
    with pytest.raises(DimensionMismatch):
        EnkfFilter(stream, cfg, seed=0)


def test_filter_init_scales_with_init_cov():
    stream = build_turbulence(TurbulenceParams(J=3, tau=0.6))
    cfg = EnkfConfig(K=6, p=2, r=1.1, rho=0.04, tau=0.6)
    base = EnkfFilter(stream, cfg, seed=5)
    wide = EnkfFilter(stream, cfg, seed=5, init_cov=4.0)
    ratio = np.sqrt(4.0 / cfg.rho)
    np.testing.assert_allclose(wide.ensemble.spread, ratio * base.ensemble.spread, rtol=1e-12)


@pytest.mark.parametrize(
    "kwargs, error, name",
    [
        ({"init_mean": np.ones(1)}, DimensionMismatch, "init_mean"),
        ({"init_mean": np.ones(3)}, DimensionMismatch, "init_mean"),
        ({"init_cov": -0.5}, ValueError, "init_cov"),
        ({"init_cov": np.inf}, ValueError, "init_cov"),
        ({"init_cov": np.nan}, ValueError, "init_cov"),
    ],
    ids=["mean_length_1", "mean_length_3", "cov_negative", "cov_inf", "cov_nan"],
)
def test_filter_rejects_bad_initial_arguments(kwargs, error, name):
    stream = CoefficientStream(d=5, q=0, generator=None)
    cfg = EnkfConfig(K=6, p=2, r=1.1, rho=0.04, tau=0.6)
    with pytest.raises(error, match=name):
        EnkfFilter(stream, cfg, seed=0, **kwargs)
    # a zero initial covariance stays valid: a collapsed ensemble
    assert not EnkfFilter(stream, cfg, seed=0, init_cov=0.0).ensemble.spread.any()


@pytest.mark.parametrize(
    "seed",
    [2.7, True, -1, "3", None, np.float64(2.0)],
    ids=["float", "bool", "negative", "str", "none", "numpy_float"],
)
def test_filter_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    stream = CoefficientStream(d=5, q=0, generator=None)
    cfg = EnkfConfig(K=6, p=2, r=1.1, rho=0.04, tau=0.6)
    with pytest.raises(InvalidParams, match="seed"):
        EnkfFilter(stream, cfg, seed=seed)
    # an np.integer seed is the int it holds
    f = EnkfFilter(stream, cfg, seed=np.uint64(2**40 + 5))
    assert type(f.seed) is int and f.seed == 2**40 + 5
    assert np.array_equal(f.ensemble.spread, EnkfFilter(stream, cfg, 2**40 + 5).ensemble.spread)


def test_filter_spread_independent_of_mean():
    p = TurbulenceParams(J=4, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=8, p=4, r=p.r, rho=p.rho, tau=p.tau)
    truth = simulate_truth(stream, np.zeros(stream.d), 12, seed=3)
    a = EnkfFilter(stream, cfg, seed=7)
    b = EnkfFilter(stream, cfg, seed=7, init_mean=10.0 * np.eye(stream.d)[0])
    assert np.array_equal(a.ensemble.spread, b.ensemble.spread)
    for n in range(12):
        ra = a.step(truth.observations[n])
        rb = b.step(truth.observations[n])
        assert np.array_equal(a.ensemble.spread, b.ensemble.spread)
        assert np.array_equal(ra.forecast_spread, rb.forecast_spread)
    assert not np.array_equal(a.ensemble.mean, b.ensemble.mean)


def test_filter_reproducible_and_seed_sensitive():
    p = TurbulenceParams(J=3, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=6, p=3, r=p.r, rho=p.rho, tau=p.tau)
    truth = simulate_truth(stream, np.zeros(stream.d), 5, seed=0)

    def run(seed):
        f = EnkfFilter(stream, cfg, seed=seed)
        for n in range(5):
            f.step(truth.observations[n])
        return f.ensemble

    e1, e2, e3 = run(1), run(1), run(2)
    assert np.array_equal(e1.mean, e2.mean)
    assert np.array_equal(e1.spread, e2.spread)
    assert not np.array_equal(e1.spread, e3.spread)


def test_filter_factor_cache_constant_stream(monkeypatch):
    stream = build_turbulence(TurbulenceParams(J=3, sigma_obs=10.0, tau=0.6))
    cfg = EnkfConfig(K=6, p=3, r=1.1, rho=0.04, tau=0.6)
    calls = []
    real = enkf.sigma_plus_factor
    monkeypatch.setattr(
        enkf, "sigma_plus_factor", lambda c, *args: calls.append(c) or real(c, *args)
    )
    f = EnkfFilter(stream, cfg, seed=0)
    truth = simulate_truth(stream, np.zeros(stream.d), 5, seed=0)
    for n in range(5):
        f.step(truth.observations[n])
    assert len(calls) == 1


def test_filter_factor_memory_bounded_on_jump_stream():
    # a fresh coefficient object every step must not be kept alive by the
    # filter once the next step has replaced it
    jump = JumpSpec(
        transition=[[0.5, 0.5], [0.5, 0.5]],
        multipliers=[[1.0], [1.1]],
        modes=(1,),
    )
    stream = build_turbulence(
        TurbulenceParams(J=3, sigma_obs=10.0, tau=0.6, jump_spec=jump)
    )
    T = 12
    truth = simulate_truth(stream, np.zeros(stream.d), T, seed=0)
    made = []
    generate = stream.generator

    def tracked(n, rng):
        coeffs = generate(n, rng)
        made.append(weakref.ref(coeffs))
        return coeffs

    stream.generator = tracked
    cfg = EnkfConfig(K=6, p=3, r=1.1, rho=0.04, tau=0.6)
    f = EnkfFilter(stream, cfg, seed=0)
    for n in range(T):
        f.step(truth.observations[n])
    gc.collect()
    assert len(made) == T
    assert sum(ref() is not None for ref in made) <= 2


def _observed_step_inputs():
    stream = build_turbulence(TurbulenceParams(J=10, sigma_obs=10.0, tau=0.6))
    cfg = EnkfConfig(K=6, p=3, r=1.1, rho=0.04, tau=0.6)
    ens = make_ensemble(stream.d, cfg.K, seed=41)
    return ens.mean, ens.spread, stream.at(0), cfg


def test_assimilate_rejects_short_observation():
    mean_hat, S_hat, coeffs, cfg = _observed_step_inputs()
    with pytest.raises(DimensionMismatch):
        enkf_assimilate(mean_hat, S_hat, coeffs, np.ones(1), cfg)


def test_assimilate_rejects_nan_observation():
    mean_hat, S_hat, coeffs, cfg = _observed_step_inputs()
    with pytest.raises(InvalidObservation):
        enkf_assimilate(mean_hat, S_hat, coeffs, np.full(coeffs.H.shape[0], np.nan), cfg)


def test_assimilate_rejects_missing_observation():
    mean_hat, S_hat, coeffs, cfg = _observed_step_inputs()
    with pytest.raises(InvalidObservation):
        enkf_assimilate(mean_hat, S_hat, coeffs, None, cfg)


def test_tracks_exact_kalman_filter():
    # near-degenerate augmentation: the filter reduces to a plain
    # square-root filter and its forecast covariance follows the exact
    # recursion at Monte Carlo accuracy
    d, K, T = 4, 1000, 20
    cfg = EnkfConfig(K=K, p=d, r=1.0 + 1e-6, rho=1e-6, tau=1.0)
    rng = np.random.default_rng(2)
    A = rng.standard_normal((d, d))
    A *= 0.7 / max(np.abs(np.linalg.eigvals(A)))
    Sigma = 0.3 * np.eye(d)
    H = np.eye(d)
    coeffs = StepCoefficients(A=A, B=np.zeros(d), Sigma=Sigma, H=H)
    stream = CoefficientStream(d=d, q=d, generator=lambda n, r_: coeffs)
    for seed in (0, 1):
        truth = simulate_truth(stream, np.zeros(d), T, seed=seed)
        f = EnkfFilter(stream, cfg, seed=seed, init_cov=1.0)
        kal = KalmanState(mean=f.ensemble.mean.copy(), cov=f.ensemble.covariance())
        errs = []
        for n in range(T):
            C_prev = kal.cov
            rec = f.step(truth.observations[n])
            S_hat = rec.forecast_spread
            C_fore = S_hat @ S_hat.T / (K - 1)
            R_hat = A @ C_prev @ A.T + Sigma
            errs.append(
                np.linalg.norm(C_fore - R_hat, 2) / np.linalg.norm(R_hat, 2)
            )
            kal = kalman_step(kal, coeffs, truth.observations[n])
        assert np.mean(errs) < 0.15


def kalman_op(C, H):
    Hd = H.toarray() if scipy.sparse.issparse(H) else np.asarray(H, dtype=float)
    q = Hd.shape[0]
    G = C @ Hd.T @ np.linalg.inv(np.eye(q) + Hd @ C @ Hd.T)
    ImGH = np.eye(C.shape[0]) - G @ Hd
    return ImGH @ C @ ImGH.T + G @ G.T


@pytest.mark.parametrize("structured", [False, True])
def test_posterior_sandwich(structured):
    # K(C_hat) + rho I >= C+ + rho I >= K(C_hat) - slack, whenever the
    # projection rank covers every eigenvalue above rho
    if structured:
        d, K, p = 30, 8, 7
        H = scipy.sparse.identity(d, format="csr") * 1.7
        coeffs = StepCoefficients(
            A=np.eye(d), B=np.zeros(d), Sigma=np.eye(d), H=H
        )
        y = np.zeros(d)
    else:
        d, K, p = 6, 12, 6
        coeffs = dense_coeffs(d, q=3, seed=47)
        y = np.zeros(3)
    cfg = EnkfConfig(K=K, p=p, r=1.1, rho=0.04, tau=0.6)
    S_hat = make_ensemble(d, K, seed=53, scale=1.2).spread
    ens, rec = enkf_assimilate(np.zeros(d), S_hat, coeffs, y, cfg)
    C_hat = S_hat @ S_hat.T / (K - 1) + cfg.tau * cfg.rho * np.eye(d)
    Kmat = kalman_op(C_hat, coeffs.H)
    C_plus = ens.spread @ ens.spread.T / (K - 1)
    assert rec.projection_discard <= cfg.rho + 1e-12
    # the (p+1)-th eigenvalue of K(C_hat), 0 when p = d
    w = np.linalg.eigvalsh(Kmat)[::-1]
    assert rec.projection_discard == pytest.approx(w[p] if p < d else 0.0, abs=1e-10)
    upper = np.linalg.eigvalsh(Kmat - C_plus)
    assert upper[0] >= -1e-9
    lower = np.linalg.eigvalsh(C_plus + cfg.rho * np.eye(d) - Kmat)
    assert lower[0] >= -1e-9


def test_posterior_rank_matches_eigenvalue_count():
    d, K = 6, 10
    cfg = EnkfConfig(K=K, p=6, r=1.1, rho=0.05, tau=1.0)
    coeffs = StepCoefficients(
        A=np.eye(d), B=np.zeros(d), Sigma=np.eye(d), H=np.eye(d)
    )
    S_hat = make_ensemble(d, K, seed=59, scale=0.8).spread
    ens, _ = enkf_assimilate(np.zeros(d), S_hat, coeffs, np.zeros(d), cfg)
    C_hat = S_hat @ S_hat.T / (K - 1) + cfg.tau * cfg.rho * np.eye(d)
    n_above = int(np.sum(np.linalg.eigvalsh(kalman_op(C_hat, np.eye(d))) > cfg.rho))
    assert n_above <= cfg.p
    assert np.linalg.matrix_rank(ens.spread, tol=1e-10) == n_above


def test_mean_difference_follows_gain_propagator():
    # paired runs: mean gap evolves exactly by (I - G_n H) A_n
    p = TurbulenceParams(J=4, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    d = stream.d
    cfg = EnkfConfig(K=8, p=5, r=p.r, rho=p.rho, tau=p.tau)
    truth = simulate_truth(stream, np.zeros(d), 15, seed=2)
    delta0 = 3.0 * np.eye(d)[0]
    f1 = EnkfFilter(stream, cfg, seed=21)
    f2 = EnkfFilter(stream, cfg, seed=21, init_mean=delta0)
    delta = delta0.copy()
    H = np.asarray(stream.at(0).H.todense())
    A = np.asarray(stream.at(0).A.todense())
    for n in range(15):
        r1 = f1.step(truth.observations[n])
        f2.step(truth.observations[n])
        S_hat = r1.forecast_spread
        C_hat = S_hat @ S_hat.T / (cfg.K - 1) + cfg.tau * cfg.rho * np.eye(d)
        G = C_hat @ H.T @ np.linalg.inv(np.eye(d) + H @ C_hat @ H.T)
        delta = (np.eye(d) - G @ H) @ (A @ delta)
        np.testing.assert_allclose(
            f2.ensemble.mean - f1.ensemble.mean, delta, atol=1e-9
        )


def test_sampled_posterior_deflates_on_average():
    # with no multiplicative inflation, the Monte Carlo mean of
    # K(C_hat) sits below K(mean C_hat) (concavity + Jensen)
    d, K, N = 3, 5, 10000
    cfg = EnkfConfig(K=K, p=d, r=1.0 + 1e-12, rho=0.1, tau=1.0)
    coeffs = dense_coeffs(d, q=2, seed=61, sigma_scale=0.4)
    ens = make_ensemble(d, K, seed=67)
    H = np.asarray(coeffs.H)
    mean_K = np.zeros((d, d))
    mean_C = np.zeros((d, d))
    samples = np.empty((N, d, d))
    factor = sigma_plus_factor(coeffs, cfg.r, cfg.tau, cfg.rho)
    for i in range(N):
        # the key of substream(0, 98, 0)'s i-th spawned child: the root's
        # words zero-padded to the pool size of 4, then i
        _, S_hat = enkf_forecast(ens, coeffs, cfg, (0, 98, 0, 0, i), factor)
        C_hat = S_hat @ S_hat.T / (K - 1) + cfg.tau * cfg.rho * np.eye(d)
        samples[i] = kalman_op(C_hat, H)
        mean_K += samples[i]
        mean_C += C_hat
    mean_K /= N
    mean_C /= N
    gap = kalman_op(mean_C, H) - mean_K
    se = samples.std(axis=0, ddof=1) / np.sqrt(N)
    slack = 3.0 * np.linalg.norm(se, 2)
    assert np.linalg.eigvalsh(gap)[0] >= -slack


def test_benchmark_run_stays_bounded():
    # reduced benchmark, projection rank from the verifier: 500 steps
    # without error, ensemble covariance below 10x the stationary norm
    from enkf_lab.effective_dim import verify_dim_observed
    from enkf_lab.reference import stationary_riccati_ambient

    p = TurbulenceParams(J=10, sigma_obs=10.0, tau=0.6)
    rep = verify_dim_observed(p)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=40, p=rep.pm_effective, r=p.r, rho=p.rho, tau=p.tau)
    truth = simulate_truth(stream, np.zeros(stream.d), 500, seed=9)
    norm_ref = float(np.max(stationary_riccati_ambient(p)))
    f = EnkfFilter(stream, cfg, seed=9)
    errs = []
    for n in range(500):
        f.step(truth.observations[n])
        errs.append(np.linalg.norm(f.ensemble.mean - truth.states[n + 1]))
        assert np.linalg.norm(f.ensemble.covariance(), 2) < 10.0 * norm_ref
    assert np.mean(errs[250:]) < 2.0 * np.sqrt(stream.d)
