"""Monitored sequences and the Monte Carlo experiments built on them.

Per-step quantities for a filter run against a diagonal reference
covariance R_ref:

* ``maha_sq_per_d``: nondimensionalized Mahalanobis error
  ``(1/d) e.T (C + rho I)^{-1} e`` of the posterior mean,
* ``lam`` / ``mu``: two-sided concentration ratios of the forecast
  sample covariance around its conditional mean (the mu base carries
  ``tau rho I``, the lam base ``r tau rho I``),
* ``nu``: Loewner ratio of the posterior covariance to R_ref, floored
  at 1,
* ``chi``: excess of the first discarded eigenvalue over rho,
* ``cov_fidelity``: the raw (unfloored) ratio ``||C R_ref^{-1}||``.

Each step reduces each span once: the step record's posterior factor
``W`` gives this step's nu and Mahalanobis error and the next step's
lam / mu, and both lam and mu come from one Gram reduction of
``span[V, Y]``.

Experiments: filter diagnostics over seeds, sample-covariance
concentration (rare-event sweep over K and a tail-shape check) and
paired-run exponential stability.
Seeded experiments step filters in lockstep with the streamed truth
(O(d) memory) and first reject an empty or repeating seed list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .enkf import EnkfConfig, EnkfFilter
from .linalg import (
    PD_RTOL,
    DimensionMismatch,
    NotPositiveDefinite,
    _dense,
    _two_sided_ratios,
    lowrank_loewner_ratio,
)
from .models import (
    DOMAIN_TRIAL,
    CoefficientStream,
    InvalidParams,
    _is_index,
    substream,
    truth_path,
)

__all__ = [
    "FilterDiagnostics",
    "compute_lambda_mu",
    "run_filter_experiment",
    "run_concentration_experiment",
    "run_stability_experiment",
    "write_csv",
    "write_json",
]

CSV_COLUMNS = (
    "step",
    "maha_sq_per_d",
    "l2_error",
    "nu",
    "lambda",
    "mu",
    "chi",
    "cov_fidelity",
)


@dataclass
class FilterDiagnostics:
    """One step of monitored quantities (lam/mu/nu/chi are floored at 1)."""

    step: int
    maha_sq_per_d: float
    l2_error: float
    lam: float
    mu: float
    nu: float
    chi: float
    cov_fidelity: float


def compute_lambda_mu(S_hat, A, W_prev, sigma_plus, r, tau, rho):
    """Concentration ratios of the forecast covariance around its mean.

    ``lam = max(1, ratio(C_hat^{tau rho}, r A C A.T + r Sigma+ + r tau rho I))``
    and ``mu`` bounds the inverse side against the base with ``tau rho I``
    (not ``r tau rho I``); it is computed as a generalized eigenvalue of
    the un-inverted pencil, since ``X^{-1} <= m Y^{-1}`` iff ``Y <= m X``
    for positive definite X, Y.

    From factors, in O(d K^2): ``C_hat^{tau rho} = tau rho I + V V.T`` with
    ``V = S_hat / sqrt(K-1)``, the previous posterior covariance
    ``C = W_prev W_prev.T`` (``W_prev`` may have any number of columns: a
    step record's ``posterior_factor``, or a spread over ``sqrt(K-1)``),
    and each base is ``c I + Y Y.T`` with ``Y = sqrt(r) [A W_prev, U sqrt(s)]``,
    ``sigma_plus = (U, s)`` the Sigma+ factor. Both pencils are solved on
    one reduction of ``span[V, Y]``.
    """
    S_hat = np.asarray(S_hat, dtype=float)
    U, s = sigma_plus
    AW = np.asarray(A @ np.asarray(W_prev, dtype=float))
    Y = np.sqrt(r) * np.hstack((AW, _dense(U) * np.sqrt(s)))
    V = S_hat / np.sqrt(S_hat.shape[1] - 1)
    lam, mu = _two_sided_ratios(V, Y, tau * rho, r * tau * rho, tau * rho)
    return max(1.0, lam), max(1.0, mu)


def _reference_factor(r_ref, d: int) -> np.ndarray:
    """Whitening factor ``1/sqrt(r_ref)`` of a reference covariance given
    by its length-d diagonal, which must be finite and positive definite
    under the package's floor, ``min > PD_RTOL * max(1, max)``."""
    r_ref = _dense(r_ref)
    if r_ref.shape != (d,):
        raise DimensionMismatch(f"r_ref is {r_ref.shape}, expected its diagonal, ({d},)")
    if not (np.all(np.isfinite(r_ref)) and r_ref.min() > PD_RTOL * max(1.0, float(r_ref.max()))):
        raise NotPositiveDefinite(
            f"r_ref must be finite with min > {PD_RTOL:g} * max(1, max); min {r_ref.min():.3g}, max {r_ref.max():.3g}"
        )
    return 1.0 / np.sqrt(r_ref)


def _step_diagnostics(step, rec, W_prev, A, sigma_plus, x_true, L, cfg) -> FilterDiagnostics:
    """One row of diagnostics from the step's factors, in O(d K^2) work.

    ``W = rec.posterior_factor`` and ``W_prev`` factor this step's and the
    previous step's posterior covariance, m and m' columns. ``L`` is
    r_ref's whitening factor from :func:`_reference_factor`, applied by
    an O(d m) multiply."""
    W = rec.posterior_factor
    d = W.shape[0]
    lam, mu = compute_lambda_mu(
        rec.forecast_spread, A, W_prev, sigma_plus, cfg.r, cfg.tau, cfg.rho
    )
    # C_post = W W.T <= nu r_ref  iff  (L W)(L W).T <= nu I: the ratio is
    # the top eigenvalue of Z Z.T, which the m x m Gram Z.T Z shares
    Z = L[:, None] * W
    cov_fidelity = float(np.max(np.linalg.eigvalsh(Z.T @ Z), initial=0.0))
    e = rec.posterior.mean - x_true
    # e.T (C_post + rho I)^{-1} e is the ratio of e e.T to C_post + rho I;
    # taken on span[e, W] by QR, it does not cancel when e lies almost in
    # span(W) (a Gram would square that span and lose e's part off it)
    maha = lowrank_loewner_ratio(0.0, e[:, None], cfg.rho, W)
    return FilterDiagnostics(
        step=step,
        maha_sq_per_d=maha / d,
        l2_error=float(np.linalg.norm(e)),
        lam=float(lam),
        mu=float(mu),
        nu=float(max(1.0, cov_fidelity)),
        chi=float(rec.chi),
        cov_fidelity=float(cov_fidelity),
    )


def _check_seeds(seeds) -> None:
    if len(seeds) == 0 or len(set(seeds)) < len(seeds):
        raise ValueError(f"seeds must be nonempty and distinct (a repeat counts twice), got {list(seeds)}")


def run_filter_experiment(
    stream: CoefficientStream,
    cfg: EnkfConfig,
    T: int,
    seeds: Sequence[int],
    r_ref,
):
    """Run truth + filter per seed and collect full diagnostics.

    The truth starts at zero and the filter at its default initial mean.

    ``r_ref`` is the reference covariance for nu / cov_fidelity, given by
    its length-d diagonal. On the turbulence model it is
    ``stationary_riccati_ambient(params)``, the closed-form fixed point of
    the augmented Riccati recursion, as the CLI passes it; that recursion
    keeps every iterate diagonal there. It is checked and factored once,
    before any seed runs: any other shape, a d x d matrix included, raises
    :class:`DimensionMismatch`, a non-finite or non-positive entry
    :class:`NotPositiveDefinite`. Returns
    ``(per_seed, aggregate)`` where ``per_seed`` maps seed to a list of
    :class:`FilterDiagnostics` and ``aggregate`` holds per-step mean and
    (0.1, 0.5, 0.9) quantiles of the error quantities across seeds.
    """
    _check_seeds(seeds)
    d = stream.d
    L = _reference_factor(r_ref, d)
    per_seed = {}
    for seed in seeds:
        path = truth_path(stream, np.zeros(d), T, seed)
        filt = EnkfFilter(stream, cfg, seed)
        # each posterior's factor comes from the filter's step record and
        # serves this step's nu and Mahalanobis error and the next step's
        # lambda / mu; the first step's comes from the initial spread
        W = filt.ensemble.spread / np.sqrt(cfg.K - 1)
        series = []
        for n, (x, y) in enumerate(path):
            rec = filt.step(y)
            coeffs = filt.coeffs  # the step's coefficients; its factor is memoised
            series.append(
                _step_diagnostics(n + 1, rec, W, coeffs.A, filt.factor_for(coeffs), x, L, cfg)
            )
            W = rec.posterior_factor
        per_seed[seed] = series
    aggregate = []
    for n in range(T):
        rows = [per_seed[s][n] for s in seeds]
        agg = {"step": n + 1}
        for name in ("maha_sq_per_d", "l2_error", "nu", "cov_fidelity"):
            vals = np.array([getattr(x, name) for x in rows])
            agg[f"{name}_mean"] = float(vals.mean())
            q = np.quantile(vals, (0.1, 0.5, 0.9))
            agg[f"{name}_q10"], agg[f"{name}_q50"], agg[f"{name}_q90"] = map(float, q)
        aggregate.append(agg)
    return per_seed, aggregate


def _concentration_trial(
    p: int, K: int, rho: float, sig_vals: np.ndarray, rng, cond_target: Optional[float]
) -> tuple[float, float]:
    """One draw of the whitened sample-covariance ratios ``(lam, mu)``, mu
    floored at 1.

    Signal vectors and noise live in the same rank-p subspace, so the
    d-dimensional Loewner ratios reduce exactly to the p-dimensional
    block: the orthocomplement contributes 0 to the lam side and ratio 1
    to the mu side.
    """
    if cond_target is not None:
        a = rng.standard_normal((p, K))
        C_raw = a @ a.T / (K - 1)
        lmax = float(np.linalg.eigvalsh(C_raw)[-1])
        a *= np.sqrt((cond_target - 1.0) * rho / lmax)
    else:
        a = np.zeros((p, K))
    xi = np.sqrt(sig_vals)[:, None] * rng.standard_normal((p, K))
    xi -= xi.mean(axis=1, keepdims=True)
    # sample covariance F F.T against its mean a a.T / (K-1) + diag(sig) = G G.T
    F = (a + xi) / np.sqrt(K - 1)
    G = np.hstack((a / np.sqrt(K - 1), np.diag(np.sqrt(sig_vals))))
    # [F, G] is at least p wide, so no cut; mu's orthocomplement block sits at 1
    lam, mu = _two_sided_ratios(F, G, 0.0, rho, rho)
    return lam, max(1.0, mu)


def _concentration_arg_error(args: dict):
    """The first out-of-range entry of ``args``, the keyword arguments of
    :func:`run_concentration_experiment`, as ``(key, message)``, else None."""
    def what(key):
        return "entries" if np.ndim(args[key]) else key
    for key in ("d", "p", "trials", "tail_K", "tail_trials", "tail_min_count", "K_list"):
        if not all(map(_is_index, args[key] if key == "K_list" else [args[key]])):
            return key, "entries must be integers" if key == "K_list" else f"{key} must be an integer"
    for key in ("rho", "delta", "cond_targets", "tail_t_grid"):
        if not np.all(np.isfinite(args[key])):
            return key, f"{what(key)} must be finite"
    # trials only divide rare-event hit counts, so with no rows 0 is fine
    rows = len(args["K_list"]) * len(args["cond_targets"])
    for key, low in dict(trials=min(rows, 1), K_list=2, tail_K=2, tail_trials=1, cond_targets=1, tail_min_count=1).items():
        if np.any(np.asarray(args[key]) < low):
            return key, f"{what(key)} must be >= {low}"
    if not 1 <= args["p"] <= args["d"]:
        return "p", f"p must satisfy 1 <= p <= d = {args['d']}"
    for key in ("rho", "delta"):
        if not args[key] > 0:
            return key, f"{key} must be > 0"


def run_concentration_experiment(
    d: int = 200,
    p: int = 5,
    K_list: Sequence[int] = (10, 20, 40, 80),
    rho: float = 0.1,
    delta: float = 0.1,
    trials: int = 2000,
    *,
    seed: int,
    cond_targets: Sequence[float] = (10.0, 1e3),
    tail_K: int = 3,
    tail_trials: int = 20000,
    tail_t_grid: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
    tail_min_count: int = 20,
):
    """Empirical concentration of sample covariances, two sub-experiments.

    Rare-event sweep: for each K in ``K_list`` and each condition-number
    target, estimate ``P(lam > 1+5 delta or mu > 1+5 delta)`` over
    ``trials`` draws with signal vectors scaled so
    ``cond(C + rho I) = cond_target``.

    Tail: with zero signal and a small ensemble (``tail_K``, where large
    deviations of ``lam`` are observable at all), estimate
    ``P(lam > 8 + t)`` over the t grid; grid points with fewer than
    ``tail_min_count`` hits are dropped from the returned fit points.

    Returns a dict with "rare_event" rows, "tail" rows, and the
    log-linear tail fit (slope, intercept, r_squared). Only ``seed`` has no
    default. An out-of-range argument, or a count that is not an integer
    (a bool included), raises :class:`InvalidParams` naming it, before
    any trial.
    """
    if error := _concentration_arg_error(locals()):
        raise InvalidParams("%s: %s" % error)
    sig_vals = np.linspace(1.0, 2.0, p)
    thr = 1.0 + 5.0 * delta
    rare_rows = []
    for ci, cond in enumerate(cond_targets):
        for ki, K in enumerate(K_list):
            hits = 0
            for t in range(trials):
                rng = substream(seed, DOMAIN_TRIAL, ci, ki, t)
                lam, mu = _concentration_trial(p, K, rho, sig_vals, rng, cond)
                hits += lam > thr or mu > thr
            rare_rows.append(
                {
                    "K": int(K),
                    "cond_target": float(cond),
                    "trials": int(trials),
                    "hits": int(hits),
                    "prob": hits / trials,
                }
            )
    lam_samples = np.empty(tail_trials)
    for t in range(tail_trials):
        rng = substream(seed, DOMAIN_TRIAL, 999, t)
        lam_samples[t] = _concentration_trial(p, tail_K, rho, sig_vals, rng, None)[0]
    tail_rows = []
    for tv in tail_t_grid:
        count = int(np.count_nonzero(lam_samples > 8.0 + tv))
        tail_rows.append(
            {"t": float(tv), "count": count, "prob": count / tail_trials}
        )
    fit_pts = [(row["t"], row["prob"]) for row in tail_rows if row["count"] >= tail_min_count]
    fit = {"slope": float("nan"), "intercept": float("nan"), "r_squared": float("nan")}
    if len(fit_pts) >= 3:
        ts = np.array([x[0] for x in fit_pts])
        logs = np.log(np.array([x[1] for x in fit_pts]))
        slope, intercept = np.polyfit(ts, logs, 1)
        pred = slope * ts + intercept
        ss_res = float(np.sum((logs - pred) ** 2))
        ss_tot = float(np.sum((logs - logs.mean()) ** 2))
        fit = {
            "slope": float(slope),
            "intercept": float(intercept),
            "r_squared": 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan"),
        }
    return {
        "rare_event": rare_rows,
        "tail": tail_rows,
        "tail_fit": fit,
        "tail_K": int(tail_K),
        "tail_trials": int(tail_trials),
        "params": {
            "d": int(d), "p": int(p), "rho": float(rho), "delta": float(delta),
            "K_list": [int(k) for k in K_list],
            "cond_targets": [float(c) for c in cond_targets],
            "trials": int(trials), "seed": int(seed),
        },
    }


GAP_FLOOR = 1e3 * np.finfo(float).eps


def run_stability_experiment(
    stream: CoefficientStream,
    cfg: EnkfConfig,
    T: int,
    shift_magnitudes: Sequence[float],
    seeds: Sequence[int],
):
    """Paired shifted-initialization runs and their gap decay rates.

    For each (shift, seed): two filters share every noise substream and
    the same observations; the second starts with its initial mean
    shifted by ``shift * e_1``. Reports the log-linear slope of the mean
    gap over steps where the gap exceeds ``1e3 * machine epsilon``, and
    whether the spread matrices stayed bitwise identical (they must, as
    spreads never see the mean).
    """
    _check_seeds(seeds)
    d = stream.d
    rows = []
    for shift in shift_magnitudes:
        delta0 = np.zeros(d)
        delta0[0] = shift
        for seed in seeds:
            path = truth_path(stream, np.zeros(d), T, seed)
            f1 = EnkfFilter(stream, cfg, seed, init_mean=np.zeros(d))
            f2 = EnkfFilter(stream, cfg, seed, init_mean=delta0)
            gaps = np.empty(T)
            spreads_identical = True
            for n, (_, y) in enumerate(path):
                post1, post2 = f1.step(y).posterior, f2.step(y).posterior
                gaps[n] = np.linalg.norm(post1.mean - post2.mean)
                spreads_identical &= np.array_equal(post1.spread, post2.spread)
            mask = gaps > GAP_FLOOR
            if shift == 0 or int(mask.sum()) < 2:
                slope = float("nan")
            else:
                steps = np.arange(1, T + 1)[mask]
                slope = float(np.polyfit(steps, np.log(gaps[mask]), 1)[0])
            rows.append(
                {
                    "shift": float(shift),
                    "seed": int(seed),
                    "slope": slope,
                    "n_points": int(mask.sum()),
                    "spreads_identical": bool(spreads_identical),
                    "final_gap": float(gaps[-1]),
                }
            )
    return rows


def write_csv(rows, path, comments: Sequence[str] = ()):
    """Write one table row per entry of ``rows`` below the '#'-prefixed
    ``comments`` and a header, none if there are no rows.

    ``rows`` holds dicts, whose keys, in order, are the header, or
    :class:`FilterDiagnostics`, written under :data:`CSV_COLUMNS` with
    ``lam`` as "lambda". Ints and bools are written as integers,
    everything else %.17g so floats round-trip exactly.
    """
    rows = [
        row if isinstance(row, dict)
        else {c: getattr(row, "lam" if c == "lambda" else c) for c in CSV_COLUMNS}
        for row in rows
    ]
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        if rows:
            fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            cells = [row[c] for c in rows[0]]
            fh.write(",".join(
                str(int(v)) if isinstance(v, (bool, int, np.integer)) else "%.17g" % float(v) for v in cells
            ) + "\n")


def write_json(report, path):
    """Write a tree of JSON values (dicts, lists, str, numbers, bools,
    None) as indented JSON; any other value raises ``TypeError``."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
