"""Tests for the monitored ratios, experiments, and writers."""

import csv
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from enkf_lab import diagnostics
from enkf_lab.diagnostics import (
    CSV_COLUMNS,
    FilterDiagnostics,
    compute_lambda_mu,
    run_accuracy_experiment,
    run_concentration_experiment,
    run_filter_experiment,
    run_stability_experiment,
    write_csv,
    write_json,
)
from enkf_lab import enkf, models
from enkf_lab.enkf import EnkfConfig, EnkfFilter
from enkf_lab.linalg import (
    DimensionMismatch,
    NotPositiveDefinite,
    positive_part_factor,
    symmetrize,
)
from enkf_lab.models import InvalidParams, JumpSpec, TurbulenceParams, build_turbulence, simulate_truth
from enkf_lab.reference import stationary_riccati_ambient

from oracles import compute_nu, factor_matrix, loewner_ratio, mahalanobis_sq


def dense_lambda_mu(C_hat_taurho, A, C_prev, Sigma_plus, r, tau, rho):
    """The retired d x d form of compute_lambda_mu, kept as its oracle."""
    A = A.toarray() if scipy.sparse.issparse(A) else np.asarray(A, dtype=float)
    base = r * (A @ C_prev @ A.T) + r * Sigma_plus
    d = base.shape[0]
    lam = max(1.0, loewner_ratio(C_hat_taurho, symmetrize(base + r * tau * rho * np.eye(d))))
    mu = max(1.0, loewner_ratio(symmetrize(base + tau * rho * np.eye(d)), C_hat_taurho))
    return lam, mu


def root_of(C):
    """Square factor W of a PSD matrix, W W.T = C."""
    w, V = np.linalg.eigh(C)
    return V * np.sqrt(np.maximum(w, 0.0))


def spread_for(W, K):
    """Zero-column-sum d x K spread S with S S.T / (K-1) = W W.T, for W
    with at most K - 1 columns."""
    # orthonormal K-vectors orthogonal to the ones vector
    E = np.linalg.qr(np.column_stack((np.ones(K), np.eye(K)[:, : K - 1])))[0][:, 1:]
    return np.sqrt(K - 1) * W @ E[:, : W.shape[1]].T


def factored_lambda_mu(C_hat_taurho, A, C_prev, Sigma_plus, r, tau, rho):
    """compute_lambda_mu on a spread and factors of the given d x d operands."""
    K = C_prev.shape[0] + 1
    S_hat = spread_for(root_of(C_hat_taurho - tau * rho * np.eye(K - 1)), K)
    factor = positive_part_factor(Sigma_plus)
    return compute_lambda_mu(S_hat, A, root_of(C_prev), factor, r, tau, rho)


def scalar_bases(a, c, sp, r, tau, rho):
    core = r * (a * a * c + sp)
    return core + r * tau * rho, core + tau * rho


def test_compute_lambda_mu_scalar_floors():
    a, c, sp, r, tau, rho = 0.8, 2.0, 0.3, 1.1, 0.6, 0.04
    b_lam, b_mu = scalar_bases(a, c, sp, r, tau, rho)
    args = (np.array([[a]]), np.array([[c]]), np.array([[sp]]), r, tau, rho)
    lam, mu = factored_lambda_mu(np.array([[b_lam]]), *args)
    assert lam == pytest.approx(1.0) and mu == pytest.approx(1.0)
    lam, mu = factored_lambda_mu(np.array([[2 * b_lam]]), *args)
    assert lam == pytest.approx(2.0, rel=1e-12) and mu == pytest.approx(1.0)
    lam, mu = factored_lambda_mu(np.array([[0.5 * b_lam]]), *args)
    assert lam == pytest.approx(1.0)
    assert mu == pytest.approx(b_mu / (0.5 * b_lam), rel=1e-12)


def test_compute_lambda_mu_matrix_oracle():
    rng = np.random.default_rng(0)
    d = 6
    A = rng.standard_normal((d, d)) * 0.5
    F = rng.standard_normal((d, d))
    C_prev = F @ F.T / d
    G = rng.standard_normal((d, d))
    Sigma_plus = G @ G.T / d
    r, tau, rho = 1.1, 0.6, 0.04
    W = rng.standard_normal((d, d))
    C_hat = W @ W.T / d + 0.1 * np.eye(d)
    lam, mu = factored_lambda_mu(C_hat, A, C_prev, Sigma_plus, r, tau, rho)
    core = r * (A @ C_prev @ A.T + Sigma_plus)
    b_lam = core + r * tau * rho * np.eye(d)
    b_mu = core + tau * rho * np.eye(d)
    # lam: C_hat <= lam * b_lam with equality in one direction
    inv_sqrt = np.linalg.inv(np.linalg.cholesky(b_lam))
    want_lam = max(1.0, np.linalg.eigvalsh(inv_sqrt @ C_hat @ inv_sqrt.T)[-1])
    assert lam == pytest.approx(want_lam, rel=1e-10)
    # mu: inverse-side bound, C_hat^{-1} <= mu * b_mu^{-1}
    w = np.linalg.eigvalsh(mu * np.linalg.inv(b_mu) - np.linalg.inv(C_hat))
    assert w[0] >= -1e-10
    assert lam >= 1.0 and mu >= 1.0


def test_compute_lambda_mu_at_the_mean_realization():
    rng = np.random.default_rng(1)
    d = 4
    A = rng.standard_normal((d, d)) * 0.5
    C_prev = np.eye(d)
    Sigma_plus = 0.2 * np.eye(d)
    r, tau, rho = 1.2, 0.8, 0.05
    base = r * (A @ C_prev @ A.T + Sigma_plus) + r * tau * rho * np.eye(d)
    lam, mu = factored_lambda_mu(base, A, C_prev, Sigma_plus, r, tau, rho)
    assert lam == pytest.approx(1.0)
    assert mu == pytest.approx(1.0)


def centred(M):
    return M - M.mean(axis=1, keepdims=True)


@settings(deadline=None, max_examples=120)
@given(st.integers(0, 10**6))
def test_compute_lambda_mu_matches_dense_oracle(seed):
    # random (d, K < d, p); the stacked width K + width(W_prev) + rank(Sigma+)
    # falls below d and at or above it (Q = I), with sparse and dense A
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 30))
    K = int(rng.integers(2, d))
    p = int(rng.integers(1, d + 1))
    r, tau, rho = float(rng.uniform(1.01, 1.5)), float(rng.uniform(0.3, 1.0)), 0.04
    scale = rng.uniform(0.05, 2.0, d)
    S_hat = centred(scale[:, None] * rng.standard_normal((d, K)))
    if rng.random() < 0.3:  # a full-rank initial spread over sqrt(K-1)
        W_prev = centred(rng.standard_normal((d, K))) / np.sqrt(K - 1)
    else:  # a posterior's thin factor, 0 to p columns
        W_prev = rng.standard_normal((d, int(rng.integers(0, p + 1))))
    m = int(rng.integers(0, d + 1))
    if rng.random() < 0.5:
        A = scipy.sparse.random(d, d, density=0.2, random_state=rng, format="csr")
        A = A + scipy.sparse.identity(d, format="csr") * 0.9
        Sigma_plus = scipy.sparse.diags(np.where(np.arange(d) < m, scale, 0.0))
    else:
        A = 0.4 * rng.standard_normal((d, d))
        Gm = rng.standard_normal((d, m))
        Sigma_plus = Gm @ Gm.T / max(m, 1)
    factor = positive_part_factor(Sigma_plus)
    lam, mu = compute_lambda_mu(S_hat, A, W_prev, factor, r, tau, rho)
    C_hat = S_hat @ S_hat.T / (K - 1) + tau * rho * np.eye(d)
    C_prev = W_prev @ W_prev.T
    want = dense_lambda_mu(C_hat, A, C_prev, factor_matrix(factor), r, tau, rho)
    np.testing.assert_allclose((lam, mu), want, rtol=1e-8)


def dense_rows(stream, cfg, T, seed, r_ref):
    """Every diagnostic of one seed recomputed from d x d matrices."""
    d = stream.d
    truth = simulate_truth(stream, np.zeros(d), T, seed)
    filt = EnkfFilter(stream, cfg, seed)
    rows = []
    for n in range(T):
        C_prev = filt.ensemble.covariance()
        rec = filt.step(truth.observations[n])
        coeffs = filt.coeffs
        S_hat = rec.forecast_spread
        C_hat = S_hat @ S_hat.T / (cfg.K - 1) + cfg.tau * cfg.rho * np.eye(d)
        Sigma_plus = factor_matrix(filt.factor_for(coeffs))
        lam, mu = dense_lambda_mu(
            C_hat, coeffs.A, C_prev, Sigma_plus, cfg.r, cfg.tau, cfg.rho
        )
        C_post = rec.posterior.covariance()
        fid = loewner_ratio(C_post, r_ref)
        e = rec.posterior.mean - truth.states[n + 1]
        maha = mahalanobis_sq(e, C_post + cfg.rho * np.eye(d)) / d
        rows.append((maha, lam, mu, max(1.0, fid), fid))
    return np.array(rows)


@pytest.mark.parametrize("J,K", [(3, 8), (30, 6)], ids=["width_at_d", "width_below_d"])
@pytest.mark.parametrize("reference", ["diagonal", "long_run", "diagonal_vector"])
@pytest.mark.parametrize("jump", [False, True], ids=["constant", "jump"])
def test_run_filter_experiment_matches_dense_oracle(J, K, reference, jump):
    spec = None
    if jump:
        spec = JumpSpec(
            transition=[[0.5, 0.5], [0.5, 0.5]], multipliers=[[1.0, 1.0], [1.2, 0.8]],
            modes=(1, 2),
        )
    p = TurbulenceParams(J=J, sigma_obs=10.0, tau=0.6, jump_spec=spec)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=K, p=3, r=p.r, rho=p.rho, tau=p.tau)
    if reference == "long_run":  # the dense default
        r_ref, passed = diagnostics._long_run_reference(stream, cfg), None
    else:  # the diagonal reference as a d x d matrix or as its diagonal
        r_diag = stationary_riccati_ambient(p)
        r_ref = np.diag(r_diag)
        passed = r_diag if reference == "diagonal_vector" else r_ref
    T = 6
    per_seed, _ = run_filter_experiment(stream, cfg, T=T, seeds=(0,), r_ref=passed)
    got = np.array(
        [(x.maha_sq_per_d, x.lam, x.mu, x.nu, x.cov_fidelity) for x in per_seed[0]]
    )
    np.testing.assert_allclose(got, dense_rows(stream, cfg, T, 0, r_ref), rtol=1e-8)


def test_mahalanobis_without_cancellation():
    # a step whose error e lies almost inside span(W), C_post = W W.T, with
    # variances 1e12 times rho: there e.e / rho and a Woodbury correction
    # agree in their leading 12 digits
    rng = np.random.default_rng(7)
    d, K = 40, 7
    cfg = EnkfConfig(K=K, p=3, r=1.1, rho=1e-4, tau=0.6)
    W = 1e4 * rng.standard_normal((d, K - 1))
    spread = spread_for(W, K)
    factor = positive_part_factor(np.eye(d))
    for tilt in (0.0, 1e-9, 1e-6):
        e = W @ rng.standard_normal(K - 1) + tilt * rng.standard_normal(d)
        rec = enkf.StepRecord(
            forecast_spread=spread, posterior=enkf.Ensemble(e, spread),
            posterior_factor=W, chi=1.0, projection_discard=0.0,
        )
        row = diagnostics._step_diagnostics(
            1, rec, W, np.eye(d), factor, np.zeros(d), np.eye(d), cfg
        )
        want = mahalanobis_sq(e, W @ W.T + cfg.rho * np.eye(d))
        np.testing.assert_allclose(row.maha_sq_per_d * d, want, rtol=1e-8)


def test_step_diagnostics_form_no_d_by_d_array():
    # d = 4001, K = 8: one step's diagnostics from the records' posterior
    # factors, peak below d^2 * 8 / 4 bytes, with r_ref's Cholesky factor
    # and with the factor of its diagonal
    p = TurbulenceParams(J=2000, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    d = stream.d
    cfg = EnkfConfig(K=8, p=4, r=p.r, rho=p.rho, tau=p.tau)
    truth = simulate_truth(stream, np.zeros(d), 2, seed=0)
    filt = EnkfFilter(stream, cfg, seed=0)
    W_prev = filt.step(truth.observations[0]).posterior_factor
    rec = filt.step(truth.observations[1])
    factor = filt.factor_for(filt.coeffs)
    r_diag = stationary_riccati_ambient(p)
    L = np.diag(np.sqrt(r_diag))  # d x d, made before tracing
    rows = []
    for ref in (L, r_diag):
        tracemalloc.start()
        try:
            if ref.ndim == 1:
                ref = diagnostics._reference_factor(ref, d)
            row = diagnostics._step_diagnostics(
                2, rec, W_prev, filt.coeffs.A, factor, truth.states[2], ref, cfg
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(row.lam) and math.isfinite(row.maha_sq_per_d)
        assert peak < d * d * 8 / 4
        rows.append(row)
    assert rows[1].nu == pytest.approx(rows[0].nu, rel=1e-12)
    assert rows[1].cov_fidelity == pytest.approx(rows[0].cov_fidelity, rel=1e-12)


@pytest.mark.parametrize(
    "make_bad,error",
    [
        (lambda R: np.eye(R.shape[0] + 1), DimensionMismatch),
        (lambda R: R - 2.0 * R[0, 0] * np.eye(R.shape[0]), NotPositiveDefinite),
        (lambda R: np.where(np.eye(R.shape[0]) > 0, R, np.nan), NotPositiveDefinite),
        (lambda R: np.diag(R)[:-1], DimensionMismatch),
        (lambda R: np.where(np.arange(R.shape[0]) == 1, 0.0, np.diag(R)), NotPositiveDefinite),
        (lambda R: -np.diag(R), NotPositiveDefinite),
        (lambda R: np.where(np.arange(R.shape[0]) == 1, np.nan, np.diag(R)), NotPositiveDefinite),
    ],
    ids=[
        "wrong_shape", "not_positive_definite", "non_finite", "diagonal_wrong_length",
        "diagonal_zero_entry", "diagonal_negative", "diagonal_non_finite",
    ],
)
def test_run_filter_experiment_rejects_bad_r_ref(monkeypatch, make_bad, error):
    p = TurbulenceParams(J=2, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=6, p=3, r=p.r, rho=p.rho, tau=p.tau)
    r_ref = np.diag(stationary_riccati_ambient(p))

    def no_truth(*args, **kwargs):
        raise AssertionError("a seed ran before r_ref was checked")

    monkeypatch.setattr(diagnostics, "truth_path", no_truth)
    with pytest.raises(error):
        run_filter_experiment(stream, cfg, T=3, seeds=(0,), r_ref=make_bad(r_ref))


@pytest.mark.parametrize("seeds", [(), (0, 0, 1)], ids=["empty", "repeat"])
def test_experiments_reject_empty_or_repeating_seeds_before_any_run(monkeypatch, seeds):
    p = TurbulenceParams(J=2, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=6, p=3, r=p.r, rho=p.rho, tau=p.tau)
    r_ref = stationary_riccati_ambient(p)

    def no_truth(*args, **kwargs):
        raise AssertionError("a seed ran before the seed list was checked")

    monkeypatch.setattr(diagnostics, "truth_path", no_truth)
    runs = (
        lambda: run_filter_experiment(stream, cfg, T=3, seeds=seeds, r_ref=r_ref),
        lambda: run_stability_experiment(stream, cfg, T=3, shift_magnitudes=(1.0,), seeds=seeds),
        lambda: run_accuracy_experiment(stream, cfg, T=3, eps_list=(1.0,), seeds=seeds),
    )
    for run in runs:
        with pytest.raises(ValueError, match="seeds must be nonempty and distinct"):
            run()


def test_filter_experiment_memory_does_not_grow_with_T():
    # the truth is streamed: a run holds the current state, not the path,
    # so 54 more steps add less than 4 d doubles to the peak (a stored
    # path would add two d-vectors per step, states and observations)
    params = TurbulenceParams(J=10000, sigma_obs=20001 / 10.1, tau=0.6)
    stream = build_turbulence(params)
    d = stream.d
    cfg = EnkfConfig(K=8, p=19, r=params.r, rho=params.rho, tau=params.tau)
    r_ref = stationary_riccati_ambient(params)
    peaks = []
    for T in (6, 60):
        tracemalloc.start()
        try:
            run_filter_experiment(stream, cfg, T, seeds=(0,), r_ref=r_ref)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 4 * d * 8


def test_compute_nu():
    rng = np.random.default_rng(2)
    F = rng.standard_normal((5, 5))
    R = F @ F.T + np.eye(5)
    assert compute_nu(R, R) == pytest.approx(1.0)
    assert compute_nu(3.0 * R, R) == pytest.approx(3.0, rel=1e-10)
    assert compute_nu(0.1 * R, R) == 1.0


def test_run_filter_experiment_shapes_and_floors():
    p = TurbulenceParams(J=3, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=8, p=4, r=p.r, rho=p.rho, tau=p.tau)
    seeds = (0, 1)
    per_seed, agg = run_filter_experiment(stream, cfg, T=6, seeds=seeds)
    assert set(per_seed) == set(seeds)
    for series in per_seed.values():
        assert len(series) == 6
        assert [x.step for x in series] == list(range(1, 7))
        for x in series:
            assert x.lam >= 1.0 and x.mu >= 1.0
            assert x.nu >= 1.0 and x.chi >= 1.0
            assert x.cov_fidelity > 0
            assert math.isfinite(x.maha_sq_per_d) and x.maha_sq_per_d > 0
            assert math.isfinite(x.l2_error)
    assert len(agg) == 6
    row = agg[3]
    assert row["step"] == 4
    for name in ("maha_sq_per_d", "l2_error", "nu", "cov_fidelity"):
        assert row[f"{name}_q10"] <= row[f"{name}_q50"] <= row[f"{name}_q90"]
        assert math.isfinite(row[f"{name}_mean"])


def test_run_filter_experiment_reference_override():
    p = TurbulenceParams(J=2, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=6, p=3, r=p.r, rho=p.rho, tau=p.tau)
    r_ref = np.diag(stationary_riccati_ambient(p))
    per_seed, _ = run_filter_experiment(stream, cfg, T=4, seeds=(0,), r_ref=r_ref)
    assert all(math.isfinite(x.nu) for x in per_seed[0])


def test_run_filter_experiment_fetches_and_factors_once_per_step(monkeypatch):
    # every at() on a jump stream builds a new object: truth and filter fetch
    # each step once, and the driver reuses the filter's coefficients, so the
    # Sigma+ factor is made once per step
    jump = JumpSpec(
        transition=[[0.5, 0.5], [0.5, 0.5]], multipliers=[[1.0], [1.1]], modes=(1,)
    )
    p = TurbulenceParams(J=3, sigma_obs=10.0, tau=0.6, jump_spec=jump)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=8, p=4, r=p.r, rho=p.rho, tau=p.tau)
    r_ref = np.diag(stationary_riccati_ambient(p))
    T = 10
    generated = []
    generate = stream.generator
    stream.generator = lambda n, seed: generated.append(n) or generate(n, seed)
    factored = []
    real = enkf.sigma_plus_factor
    monkeypatch.setattr(
        enkf, "sigma_plus_factor", lambda c, *args: factored.append(c) or real(c, *args)
    )
    per_seed, _ = run_filter_experiment(stream, cfg, T=T, seeds=(0,), r_ref=r_ref)
    assert len(generated) == 2 * T
    assert len(factored) == T
    # each row's lambda, mu are those of its own step's coefficients and of
    # the factor of its own step's previous posterior, which the driver
    # carries from the step before (the initial spread over sqrt(K-1) on
    # step 1); nu and the Mahalanobis error take the record's own factor
    truth = simulate_truth(stream, np.zeros(stream.d), T, seed=0)
    filt = EnkfFilter(stream, cfg, seed=0)
    L = diagnostics._reference_factor(r_ref, stream.d)
    W_prev = filt.ensemble.spread / np.sqrt(cfg.K - 1)
    for n, row in enumerate(per_seed[0]):
        coeffs = stream.at(n)
        factor = filt.factor_for(coeffs)
        rec = filt.step(truth.observations[n])
        lam, mu = compute_lambda_mu(
            rec.forecast_spread, coeffs.A, W_prev, factor, cfg.r, cfg.tau, cfg.rho
        )
        assert (row.lam, row.mu) == (lam, mu)
        assert row == diagnostics._step_diagnostics(
            n + 1, rec, W_prev, coeffs.A, factor, truth.states[n + 1], L, cfg
        )
        W_prev = rec.posterior_factor


def test_collapsed_posterior_rows():
    # d = 1001 at sigma_obs = 10: eta^2 = d / 10 >= 1 / rho, so the posterior
    # map has no direction above rho and the posterior spread is exactly 0;
    # the record's factor has no column, and from step 2 on neither has A W_prev
    p = TurbulenceParams(J=500, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    d = stream.d
    cfg = EnkfConfig(K=40, p=19, r=p.r, rho=p.rho, tau=p.tau)
    T = 3
    r_ref = stationary_riccati_ambient(p)
    per_seed, _ = run_filter_experiment(stream, cfg, T=T, seeds=(0,), r_ref=r_ref)
    truth = simulate_truth(stream, np.zeros(d), T, seed=0)
    filt = EnkfFilter(stream, cfg, seed=0)
    for n, row in enumerate(per_seed[0]):
        rec = filt.step(truth.observations[n])
        assert not rec.posterior.spread.any()
        assert rec.posterior_factor.shape == (d, 0)
        assert row.cov_fidelity == 0.0 and row.nu == 1.0
        e = rec.posterior.mean - truth.states[n + 1]
        assert row.maha_sq_per_d == pytest.approx(e @ e / (cfg.rho * d), rel=1e-12)
        assert math.isfinite(row.lam) and math.isfinite(row.mu)
        assert row.lam >= 1.0 and row.mu >= 1.0


def test_lambda_mu_concentrate_for_large_ensembles():
    p = TurbulenceParams(J=2, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=2000, p=5, r=p.r, rho=p.rho, tau=p.tau)
    per_seed, _ = run_filter_experiment(stream, cfg, T=3, seeds=(0,))
    for x in per_seed[0]:
        assert x.lam < 1.5
        assert x.mu < 1.5


def test_lambda_mu_certify_recorded_steps():
    # post-hoc certificates: mu^{-1} (rACA' + rS+ + tau rho I) <= C_hat
    # and C_hat <= lambda (rACA' + rS+ + r tau rho I), with 1e-8 slack
    from enkf_lab.enkf import EnkfFilter
    from enkf_lab.models import simulate_truth

    p = TurbulenceParams(J=3, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    d = stream.d
    cfg = EnkfConfig(K=8, p=4, r=p.r, rho=p.rho, tau=p.tau)
    truth = simulate_truth(stream, np.zeros(d), 10, seed=0)
    filt = EnkfFilter(stream, cfg, seed=0)
    eye = np.eye(d)
    W_prev = filt.ensemble.spread / np.sqrt(cfg.K - 1)
    for n in range(10):
        coeffs = stream.at(n)
        C_prev = filt.ensemble.covariance()
        factor = filt.factor_for(coeffs)
        Sigma_plus = factor_matrix(factor)
        rec = filt.step(truth.observations[n])
        S_hat = rec.forecast_spread
        C_hat = S_hat @ S_hat.T / (cfg.K - 1) + cfg.tau * cfg.rho * eye
        lam, mu = compute_lambda_mu(
            S_hat, coeffs.A, W_prev, factor, cfg.r, cfg.tau, cfg.rho
        )
        W_prev = rec.posterior_factor
        A = np.asarray(coeffs.A.todense())
        core = cfg.r * (A @ C_prev @ A.T + Sigma_plus)
        upper = lam * (core + cfg.r * cfg.tau * cfg.rho * eye) - C_hat
        assert np.linalg.eigvalsh(upper)[0] >= -1e-8
        lower = C_hat - (core + cfg.tau * cfg.rho * eye) / mu
        assert np.linalg.eigvalsh(lower)[0] >= -1e-8


def test_chi_stays_at_floor_under_certified_rank():
    # with p at the verifier's effective ambient dimension, the spectral
    # projection discards nothing above rho, so chi == 1 <= nu throughout
    from enkf_lab.effective_dim import verify_dim_observed

    p = TurbulenceParams(J=10, sigma_obs=10.0, tau=0.6)
    rep = verify_dim_observed(p)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=40, p=rep.pm_effective, r=p.r, rho=p.rho, tau=p.tau)
    per_seed, _ = run_filter_experiment(stream, cfg, T=40, seeds=(0,))
    for x in per_seed[0]:
        assert x.chi == 1.0
        assert x.chi <= x.nu


def test_filter_experiment_substream_budget(monkeypatch):
    # one seed builds K initial-member substreams and, per step, the truth's
    # noise and observation substreams: K + 2T, none for coefficients (the
    # forecast keys its members without building a substream)
    keys = []
    for module in (models, enkf):
        real = module.substream
        monkeypatch.setattr(
            module, "substream", lambda *key, real=real: keys.append(key) or real(*key)
        )
    p = TurbulenceParams(J=10, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    K, T = 40, 20
    cfg = EnkfConfig(K=K, p=4, r=p.r, rho=p.rho, tau=p.tau)
    r_ref = stationary_riccati_ambient(p)
    run_filter_experiment(stream, cfg, T=T, seeds=(3,), r_ref=r_ref)
    assert len(keys) == K + 2 * T


def test_concentration_trial_flag():
    # the sweep counts a draw when lam or mu exceeds 1 + 5 delta: recount
    # each row from the trials on the same DOMAIN_TRIAL substreams
    from enkf_lab.diagnostics import _concentration_trial

    p, rho, delta, trials, seed = 3, 0.1, 0.1, 30, 4
    K_list, conds = (5, 40), (10.0, 1e3)
    report = run_concentration_experiment(
        d=50, p=p, K_list=K_list, rho=rho, delta=delta, trials=trials, seed=seed,
        cond_targets=conds, tail_trials=5, tail_min_count=5,
    )
    sig_vals = np.linspace(1.0, 2.0, p)
    thr = 1.0 + 5 * delta
    rows = iter(report["rare_event"])
    hits = []
    for ci, cond in enumerate(conds):
        for ki, K in enumerate(K_list):
            draws = [
                _concentration_trial(
                    p, K, rho, sig_vals, models.substream(seed, models.DOMAIN_TRIAL, ci, ki, t), cond
                )
                for t in range(trials)
            ]
            assert all(lam >= 0.0 and mu >= 1.0 for lam, mu in draws)
            hits.append(sum(lam > thr or mu > thr for lam, mu in draws))
            assert next(rows)["hits"] == hits[-1]
    assert min(hits) < trials and max(hits) > 0  # the rule decides both ways


def test_concentration_large_ensemble_rare():
    report = run_concentration_experiment(
        d=50, p=2, K_list=(10000,), rho=0.1, delta=0.1, trials=200, seed=0,
        cond_targets=(10.0,), tail_trials=50, tail_min_count=5,
    )
    row = report["rare_event"][0]
    assert row["K"] == 10000
    assert row["prob"] <= 0.01


def test_concentration_probability_decays_in_K():
    report = run_concentration_experiment(
        d=50, p=3, K_list=(5, 20, 80), rho=0.1, delta=0.1, trials=400, seed=0,
        cond_targets=(10.0,), tail_trials=50, tail_min_count=5,
    )
    probs = [row["prob"] for row in report["rare_event"]]
    assert all(0.0 <= q <= 1.0 for q in probs)
    assert probs[-1] <= probs[0]


def test_concentration_tail_fit():
    report = run_concentration_experiment(
        d=50, p=5, K_list=(), rho=0.1, delta=0.1, trials=0, seed=0,
        cond_targets=(), tail_K=3, tail_trials=4000,
        tail_t_grid=(0.0, 0.5, 1.0, 1.5), tail_min_count=10,
    )
    assert report["rare_event"] == []
    counts = [row["count"] for row in report["tail"]]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    fit = report["tail_fit"]
    assert fit["slope"] < 0
    assert fit["r_squared"] > 0.5


@pytest.mark.parametrize(
    "bad,key",
    [
        ({"d": 3, "p": 5, "delta": -1}, "p"),
        ({"p": 0}, "p"),
        ({"K_list": (1,)}, "K_list"),
        ({"tail_K": 1}, "tail_K"),
        ({"trials": 0}, "trials"),
        ({"tail_trials": 0}, "tail_trials"),
        ({"tail_min_count": 0}, "tail_min_count"),
        ({"cond_targets": (0.5,)}, "cond_targets"),
        ({"rho": -0.1}, "rho"),
        ({"delta": 0}, "delta"),
        ({"rho": math.nan}, "rho"),
        ({"rho": math.inf}, "rho"),
        ({"delta": math.nan}, "delta"),
        ({"delta": math.inf}, "delta"),
        ({"cond_targets": (10.0, math.nan)}, "cond_targets"),
        ({"cond_targets": (math.inf,)}, "cond_targets"),
        ({"tail_t_grid": (0.0, math.nan)}, "tail_t_grid"),
    ],
    ids=[
        "p_above_d", "p_zero", "K_list", "tail_K", "trials", "tail_trials", "tail_min_count",
        "cond_targets", "rho", "delta", "rho_nan", "rho_inf", "delta_nan", "delta_inf",
        "cond_targets_nan", "cond_targets_inf", "tail_t_grid_nan",
    ],
)
def test_concentration_rejects_out_of_range_arguments(monkeypatch, bad, key):
    # the CLI's rmt bounds, plus finiteness, hold for Python callers too,
    # checked before any trial runs
    def no_trial(*_args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(diagnostics, "_concentration_trial", no_trial)
    kw = dict(d=20, p=2, K_list=(10,), rho=0.1, delta=0.1, trials=5, seed=0) | bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams, match=f"^{key}: "):
            run_concentration_experiment(**kw)


def test_concentration_reproducible():
    kw = dict(
        d=20, p=2, K_list=(10,), rho=0.1, delta=0.1, trials=50, seed=4,
        cond_targets=(10.0,), tail_trials=20, tail_min_count=5,
    )
    a = run_concentration_experiment(**kw)
    b = run_concentration_experiment(**kw)
    assert a["rare_event"] == b["rare_event"]
    assert a["tail"] == b["tail"]


def test_stability_experiment():
    p = TurbulenceParams(J=3, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=6, p=4, r=p.r, rho=p.rho, tau=p.tau)
    rows = run_stability_experiment(
        stream, cfg, T=40, shift_magnitudes=(10.0, 0.0), seeds=(0, 1)
    )
    assert len(rows) == 4
    shifted = [r for r in rows if r["shift"] == 10.0]
    null = [r for r in rows if r["shift"] == 0.0]
    for row in shifted:
        assert row["spreads_identical"] is True
        assert row["slope"] < 0
        assert row["final_gap"] < 10.0
    for row in null:
        assert math.isnan(row["slope"])
        assert row["final_gap"] < 1e-10


def test_accuracy_experiment_linear_scaling():
    p = TurbulenceParams(J=2, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=8, p=3, r=p.r, rho=p.rho, tau=p.tau)
    rows = run_accuracy_experiment(
        stream, cfg, T=40, eps_list=(1.0, 0.5), seeds=(0, 1)
    )
    assert [r["eps"] for r in rows] == [1.0, 0.5]
    # the filter map is exactly homogeneous in eps
    assert rows[0]["error_over_eps"] == pytest.approx(
        rows[1]["error_over_eps"], rel=1e-6
    )


def test_accuracy_experiment_tiny_eps(monkeypatch):
    p = TurbulenceParams(J=2, sigma_obs=10.0, tau=0.6)
    stream = build_turbulence(p)
    cfg = EnkfConfig(K=8, p=3, r=p.r, rho=p.rho, tau=p.tau)
    rows = run_accuracy_experiment(stream, cfg, T=30, eps_list=(1e-8,), seeds=(0,))
    assert rows[0]["mean_error"] < 1e-6

    def no_truth(*args, **kwargs):
        raise AssertionError("a run started before every eps was checked")

    # a bad eps anywhere in the list fails before the first run
    monkeypatch.setattr(diagnostics, "truth_path", no_truth)
    for eps_list in ((0.0,), (0.5, -1.0), (0.5, np.nan), (np.inf,)):
        with pytest.raises(ValueError, match="eps values must be finite and positive"):
            run_accuracy_experiment(stream, cfg, T=5, eps_list=eps_list, seeds=(0,))


def test_scaled_stream_memoises_constant_steps_and_maps_jump_steps():
    eps = 0.5
    const = build_turbulence(TurbulenceParams(J=3, sigma_obs=10.0, tau=0.6))
    scaled = diagnostics._scaled_stream(const, eps)
    # one scaled object for a constant stream, so the filter factors once
    assert scaled.at(0) is scaled.at(5)
    jump = JumpSpec(
        transition=[[0.5, 0.5], [0.5, 0.5]], multipliers=[[1.0], [1.3]], modes=(1,)
    )
    stream = build_turbulence(TurbulenceParams(J=3, sigma_obs=10.0, tau=0.6, jump_spec=jump))
    scaled = diagnostics._scaled_stream(stream, eps)
    for n in range(6):
        base, got = stream.at(n), scaled.at(n)
        assert (got.A != base.A).nnz == 0
        assert np.array_equal(got.B, base.B)
        assert (got.Sigma != base.Sigma * (eps * eps)).nnz == 0
        assert (got.H != base.H / eps).nnz == 0


def test_write_csv_roundtrip(tmp_path):
    series = [
        FilterDiagnostics(
            step=1, maha_sq_per_d=1.0 / 3.0, l2_error=0.1234567890123456789,
            lam=1.0, mu=2.0, nu=1.5, chi=1.0, cov_fidelity=0.9,
        ),
        FilterDiagnostics(
            step=2, maha_sq_per_d=np.pi, l2_error=1e-17,
            lam=1.1, mu=1.0, nu=2.5, chi=3.0, cov_fidelity=1.2,
        ),
    ]
    path = tmp_path / "diag.csv"
    write_csv(series, path, comments=("config: {}",))
    lines = path.read_text().splitlines()
    assert lines[0] == "# config: {}"
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert CSV_COLUMNS.index("nu") == 3 and CSV_COLUMNS.index("lambda") == 4
    with open(path) as fh:
        rows = list(csv.DictReader(x for x in fh if not x.startswith("#")))
    assert int(rows[0]["step"]) == 1
    # %.17g round-trips doubles exactly
    assert float(rows[0]["maha_sq_per_d"]) == 1.0 / 3.0
    assert float(rows[1]["maha_sq_per_d"]) == np.pi
    assert float(rows[1]["l2_error"]) == 1e-17


def test_write_csv_accepts_dict_rows(tmp_path):
    row = {
        "step": 1, "maha_sq_per_d": 0.5, "l2_error": 0.25, "nu": 1.0,
        "lambda": 2.5, "mu": 1.0, "chi": 1.0, "cov_fidelity": 1.0,
    }
    p1 = tmp_path / "a.csv"
    write_csv([row], p1)
    row2 = dict(row)
    row2["lam"] = row2.pop("lambda")
    p2 = tmp_path / "b.csv"
    write_csv([row2], p2)
    assert p1.read_text() == p2.read_text()


def test_write_json(tmp_path):
    row = FilterDiagnostics(
        step=3, maha_sq_per_d=0.5, l2_error=2.0, lam=1.2, mu=np.float64(1.0),
        nu=1.0, chi=1.0, cov_fidelity=0.9,
    )
    report = {
        "rows": [row], "count": np.int64(1), "arr": np.arange(3), "flag": np.bool_(False)
    }
    path = tmp_path / "report.json"
    write_json(report, path)
    back = json.loads(path.read_text())
    assert back["count"] == 1
    assert back["arr"] == [0, 1, 2]
    assert back["flag"] is False
    assert back["rows"][0]["step"] == 3
    assert back["rows"][0]["mu"] == 1.0
