"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints exactly one PASS/FAIL line (written through the
capture so it shows up in any pytest run) and enforces a wall-clock
budget on top of its numerical tolerance.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.sparse

from test_enkf import dense_coeffs, kalman_op, make_ensemble, posterior_map_reference
from test_lemmas import ALL_SUITES

from enkf_lab.cli import cli_main
from enkf_lab.diagnostics import (
    run_accuracy_experiment,
    run_concentration_experiment,
    run_filter_experiment,
    run_stability_experiment,
)
from enkf_lab.effective_dim import verify_dim_observed, verify_dim_unfiltered
from enkf_lab.enkf import EnkfConfig, EnkfFilter
from oracles import gain_apply_woodbury, kalman_gain, make_gain_context
from enkf_lab.models import (
    CoefficientStream,
    StepCoefficients,
    TurbulenceParams,
    build_turbulence,
    simulate_truth,
)
from enkf_lab.reference import KalmanState, kalman_step, stationary_riccati_ambient

REDUCED = TurbulenceParams(J=10, sigma_obs=10.0, tau=0.6)


def _report(capsys, num, name, ok, detail, elapsed, budget):
    line = (
        f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} - "
        f"{detail} [{elapsed:.2f}s < {budget:g}s]"
    )
    with capsys.disabled():
        print(line)
    assert ok, line
    assert elapsed < budget, line


def _reduced_filter_config():
    rep = verify_dim_observed(REDUCED)
    return EnkfConfig(
        K=40, p=rep.pm_effective, r=REDUCED.r, rho=REDUCED.rho, tau=REDUCED.tau
    )


def test_01_effective_dimension_unfiltered(capsys):
    t0 = time.perf_counter()
    rep = verify_dim_unfiltered(TurbulenceParams(J=50, tau=0.6, rho=0.04))
    elapsed = time.perf_counter() - t0
    ok = rep.p == 15 and rep.pm_covariance == 30 and rep.pm_effective == 30
    _report(
        capsys, 1, "effective dimension, unfiltered",
        ok, f"p={rep.p} (want 15), ambient={rep.pm_covariance} (want 30)",
        elapsed, 1,
    )


def test_02_effective_dimension_observed(capsys):
    t0 = time.perf_counter()
    rep = verify_dim_observed(
        TurbulenceParams(J=50, sigma_obs=10.0, tau=0.6, rho=0.04)
    )
    elapsed = time.perf_counter() - t0
    ok = rep.p == 6
    _report(
        capsys, 2, "effective dimension, observed",
        ok, f"p={rep.p} (want 6)", elapsed, 1,
    )


def test_03_kalman_limit_tracking(capsys):
    # near-degenerate augmentation: forecast covariance must follow the
    # exact recursion within Monte Carlo accuracy at every step
    t0 = time.perf_counter()
    d, K, T = 4, 1000, 30
    cfg = EnkfConfig(K=K, p=d, r=1.0 + 1e-6, rho=1e-6, tau=1.0)
    rng = np.random.default_rng(2)
    A = rng.standard_normal((d, d))
    A *= 0.7 / max(np.abs(np.linalg.eigvals(A)))
    coeffs = StepCoefficients(
        A=A, B=np.zeros(d), Sigma=0.3 * np.eye(d), H=np.eye(d)
    )
    stream = CoefficientStream(d=d, q=d, generator=lambda n, r_: coeffs)
    worst = 0.0
    for seed in range(5):
        truth = simulate_truth(stream, np.zeros(d), T, seed=seed)
        filt = EnkfFilter(stream, cfg, seed=seed, init_cov=1.0)
        kal = KalmanState(mean=filt.ensemble.mean.copy(), cov=filt.ensemble.covariance())
        for n in range(T):
            R_hat = A @ kal.cov @ A.T + 0.3 * np.eye(d)
            rec = filt.step(truth.observations[n])
            S_hat = rec.forecast_spread
            C_fore = S_hat @ S_hat.T / (K - 1)
            err = np.linalg.norm(C_fore - R_hat, 2) / np.linalg.norm(R_hat, 2)
            worst = max(worst, err)
            kal = kalman_step(kal, coeffs, truth.observations[n])
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 3, "exact-filter limit",
        worst <= 0.15,
        f"max spectral error {worst:.4f} over 5 seeds x 30 steps (tol 0.15)",
        elapsed, 10,
    )


def test_04_deterministic_update_exactness(capsys):
    # posterior spread realizes P (K(C_hat) - rho I)+ P exactly, and the
    # posterior covariance is sandwiched by K(C_hat) within additive rho
    t0 = time.perf_counter()
    runs = []

    d1 = 30
    runs.append((
        CoefficientStream(
            d=d1, q=d1,
            generator=lambda n, r_: StepCoefficients(
                A=np.eye(d1), B=np.zeros(d1), Sigma=np.eye(d1),
                H=scipy.sparse.identity(d1, format="csr") * 1.7,
            ),
        ),
        EnkfConfig(K=8, p=7, r=1.1, rho=0.04, tau=0.6),
    ))

    co2 = dense_coeffs(6, q=3, seed=47)
    runs.append((
        CoefficientStream(d=6, q=3, generator=lambda n, r_: co2),
        EnkfConfig(K=12, p=6, r=1.1, rho=0.04, tau=0.6),
    ))

    turb = TurbulenceParams(J=6, sigma_obs=10.0, tau=0.6)
    runs.append((
        build_turbulence(turb),
        EnkfConfig(K=10, p=9, r=turb.r, rho=turb.rho, tau=turb.tau),
    ))

    worst_exact = worst_upper = worst_lower = 0.0
    steps = 25
    for idx, (stream, cfg) in enumerate(runs):
        d = stream.d
        truth = simulate_truth(stream, np.zeros(d), steps, seed=idx)
        filt = EnkfFilter(stream, cfg, seed=idx)
        H = stream.at(0).H
        eye = np.eye(d)
        for n in range(steps):
            y = truth.observations[n]
            rec = filt.step(y)
            S_hat = rec.forecast_spread
            C_hat = S_hat @ S_hat.T / (cfg.K - 1) + cfg.tau * cfg.rho * eye
            Kmat = kalman_op(C_hat, H)
            C_plus = rec.posterior.spread @ rec.posterior.spread.T / (cfg.K - 1)
            ref = posterior_map_reference(S_hat, H, cfg)
            scale = 1.0 + np.linalg.norm(Kmat, 2)
            worst_exact = max(
                worst_exact, np.linalg.norm(C_plus - ref, 2) / scale
            )
            worst_upper = max(
                worst_upper, -np.linalg.eigvalsh(Kmat - C_plus)[0]
            )
            worst_lower = max(
                worst_lower,
                -np.linalg.eigvalsh(C_plus + cfg.rho * eye - Kmat)[0],
            )
    elapsed = time.perf_counter() - t0
    ok = worst_exact <= 1e-8 and worst_upper <= 1e-9 and worst_lower <= 1e-9
    _report(
        capsys, 4, "square-root update exactness",
        ok,
        f"identity residual {worst_exact:.2e} (tol 1e-8), sandwich slack "
        f"{max(worst_upper, worst_lower):.2e} (tol 1e-9), 3 systems x {steps} steps",
        elapsed, 30,
    )


def test_05_woodbury_equivalence_and_cost(capsys):
    t0 = time.perf_counter()

    # part 1: dense and factored gain paths agree on random instances
    rng = np.random.default_rng(424242)
    worst = 0.0
    for i in range(200):
        if i == 0:
            d, K = 500, 30
        else:
            d = int(rng.integers(5, 501))
            K = int(rng.integers(2, 31))
        S_hat = rng.standard_normal((d, K))
        tau_rho = float(rng.uniform(1e-4, 0.5))
        kind = i % 3
        if kind == 0:
            H = scipy.sparse.identity(d, format="csr") * float(rng.uniform(0.1, 3.0))
            q = d
        elif kind == 1:
            q = int(rng.integers(1, d + 1))
            H = rng.standard_normal((q, d)) / np.sqrt(d)
        else:
            q = int(rng.integers(1, d + 1))
            H = scipy.sparse.random(
                q, d, density=0.05,
                random_state=int(rng.integers(1 << 31)), format="csr",
            )
        C = S_hat @ S_hat.T / (K - 1) + tau_rho * np.eye(d)
        Hd = H.toarray() if scipy.sparse.issparse(H) else H
        dense = kalman_gain(C, Hd)
        ctx = make_gain_context(S_hat, H, tau_rho)
        Y = rng.standard_normal((q, 3))
        rel = np.linalg.norm(gain_apply_woodbury(ctx, Y) - dense @ Y) / (
            np.linalg.norm(dense @ Y) + 1e-300
        )
        worst = max(worst, rel)

    # part 2: per-step cost may grow at most 1.5x faster than d itself
    def sparse_stream(d):
        diag = 0.9 - 0.2 * np.arange(d) / d
        co = StepCoefficients(
            A=scipy.sparse.diags(diag, format="csr"),
            B=np.zeros(d),
            Sigma=scipy.sparse.diags(
                0.4 * np.exp(-np.arange(d) / 40.0) + 0.01, format="csr"
            ),
            H=scipy.sparse.identity(d, format="csr") * 2.0,
        )
        return CoefficientStream(d=d, q=d, generator=lambda n, r_: co)

    per_step = {}
    for d in (200, 400, 800):
        filt = EnkfFilter(sparse_stream(d), EnkfConfig(K=20, p=10, r=1.1, rho=0.04, tau=0.6), seed=0, init_cov=1.0)
        y = np.zeros(d)
        for _ in range(3):
            filt.step(y)
        best = np.inf
        for _ in range(3):
            t1 = time.perf_counter()
            for _ in range(20):
                filt.step(y)
            best = min(best, (time.perf_counter() - t1) / 20)
        per_step[d] = best
    g1 = per_step[400] / per_step[200]
    g2 = per_step[800] / per_step[400]
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and g1 <= 3.0 and g2 <= 3.0
    _report(
        capsys, 5, "factored gain equivalence and cost",
        ok,
        f"200-instance worst rel {worst:.2e} (tol 1e-8); per-step "
        f"{per_step[200]*1e3:.2f}/{per_step[400]*1e3:.2f}/{per_step[800]*1e3:.2f} ms, "
        f"doubling growth {g1:.2f}, {g2:.2f} (allowed 3.0)",
        elapsed, 60,
    )


def test_06_matrix_inequality_suites(capsys):
    t0 = time.perf_counter()
    results = {name: fn() for name, fn in ALL_SUITES}
    elapsed = time.perf_counter() - t0
    worst_name = min(results, key=results.get)
    ok = all(v >= 0.0 for v in results.values())
    _report(
        capsys, 6, "matrix inequality suites",
        ok,
        f"{len(results)} suites x >=1000 instances, tightest slack "
        f"{results[worst_name]:.2e} ({worst_name})",
        elapsed, 60,
    )


def test_07_sample_covariance_concentration(capsys):
    t0 = time.perf_counter()
    res = run_concentration_experiment(
        d=200, p=5, K_list=(10, 20, 40, 80), rho=0.1, delta=0.1,
        trials=2000, seed=0,
    )
    by_target = {}
    for row in res["rare_event"]:
        by_target.setdefault(row["cond_target"], []).append((row["K"], row["prob"]))
    mono = total = 0
    for rows in by_target.values():
        rows.sort()
        probs = [p for _, p in rows]
        for a, b in zip(probs, probs[1:]):
            total += 1
            mono += b <= a
    fit = res["tail_fit"]
    elapsed = time.perf_counter() - t0
    ok = (
        mono >= 0.8 * total
        and fit["slope"] < 0
        and fit["r_squared"] > 0.8
    )
    _report(
        capsys, 7, "sample covariance concentration",
        ok,
        f"non-increasing {mono}/{total} adjacent pairs (need 80%), tail slope "
        f"{fit['slope']:.3f} < 0, R^2 {fit['r_squared']:.3f} > 0.8",
        elapsed, 300,
    )


def test_08_shifted_pair_contraction(capsys):
    t0 = time.perf_counter()
    stream = build_turbulence(REDUCED)
    cfg = _reduced_filter_config()
    rows = run_stability_experiment(stream, cfg, 40, (10.0,), tuple(range(50)))
    slopes = np.array([r["slope"] for r in rows])
    identical = all(r["spreads_identical"] for r in rows)
    frac_neg = float(np.mean(slopes < 0))
    elapsed = time.perf_counter() - t0
    ok = identical and frac_neg >= 0.95
    _report(
        capsys, 8, "paired-run contraction",
        ok,
        f"spreads identical: {identical}, negative slopes {frac_neg:.0%} of 50 "
        f"seeds (need 95%)",
        elapsed, 120,
    )


def test_09_small_noise_error_scaling(capsys):
    t0 = time.perf_counter()
    stream = build_turbulence(REDUCED)
    cfg = _reduced_filter_config()
    rows = run_accuracy_experiment(stream, cfg, 100, (1.0, 0.3, 0.1), tuple(range(20)))
    ratios = [r["error_over_eps"] for r in rows]
    spread = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 9, "small-noise error scaling",
        spread <= 2.0,
        f"error/eps {', '.join(f'{r:.4f}' for r in ratios)}, spread factor "
        f"{spread:.4f} (allowed 2)",
        elapsed, 120,
    )


def test_10_covariance_fidelity_plateau(capsys):
    t0 = time.perf_counter()
    stream = build_turbulence(REDUCED)
    cfg = _reduced_filter_config()
    r_ref = stationary_riccati_ambient(REDUCED)
    _, aggregate = run_filter_experiment(stream, cfg, 300, tuple(range(20)), r_ref=r_ref)
    nu = np.array([row["nu_mean"] for row in aggregate])
    maha = np.array([row["maha_sq_per_d_mean"] for row in aggregate])
    avg_nu = float(nu[-100:].mean())
    m100, m50 = float(maha[-100:].mean()), float(maha[-50:].mean())
    plateau = m100 / m50
    elapsed = time.perf_counter() - t0
    ok = avg_nu <= 2.0 and 0.5 <= plateau <= 2.0
    _report(
        capsys, 10, "covariance fidelity plateau",
        ok,
        f"mean reference ratio (last 100) {avg_nu:.4f} <= 2, error plateau "
        f"ratio {plateau:.3f} in [0.5, 2]",
        elapsed, 120,
    )


def test_11_byte_identical_reruns(capsys, tmp_path):
    t0 = time.perf_counter()
    sim_cfg = {
        "experiment": "simulate",
        "model": "kolmogorov-reduced",
        "enkf": {"K": 8, "p": 4},
        "T": 6,
        "seeds": [0, 1],
    }
    rmt_cfg = {
        "experiment": "rmt",
        "rmt": {
            "d": 30, "p": 3, "K_list": [5, 10], "rho": 0.1, "delta": 0.3,
            "trials": 50, "cond_targets": [10.0],
            "tail_trials": 200, "tail_t_grid": [0.0, 0.5, 1.0], "tail_min_count": 5,
        },
        "seeds": [0],
    }
    compared = 0
    identical = True
    for tag, sub, payload in (
        ("sim", "simulate", sim_cfg),
        ("rmt", "rmt-experiment", rmt_cfg),
    ):
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(payload))
        out1, out2 = tmp_path / f"{tag}_run1", tmp_path / f"{tag}_run2"
        assert cli_main([sub, "--config", str(path), "--out", str(out1)]) == 0
        assert cli_main([sub, "--config", str(path), "--out", str(out2)]) == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        for name in names:
            compared += 1
            if (out1 / name).read_bytes() != (out2 / name).read_bytes():
                identical = False
    elapsed = time.perf_counter() - t0
    _report(
        capsys, 11, "byte-identical reruns",
        identical,
        f"{compared} output files across 2 experiments compared byte for byte",
        elapsed, 120,
    )
