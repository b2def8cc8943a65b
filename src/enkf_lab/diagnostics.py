"""Monitored sequences and the Monte Carlo experiments built on them.

Per-step quantities for a filter run against a reference covariance
R_ref:

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
concentration (rare-event sweep over K and a tail-shape check),
paired-run exponential stability, and small-noise accuracy scaling.
Seeded experiments step filters in lockstep with the streamed truth
(O(d) memory) and first reject an empty or repeating seed list.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, is_dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .enkf import EnkfConfig, EnkfFilter
from .linalg import (
    PD_RTOL,
    DimensionMismatch,
    NotPositiveDefinite,
    _dense,
    _two_sided_ratios,
    is_positive_definite,
    lowrank_loewner_ratio,
    symmetrize,
)
from .models import (
    DOMAIN_TRIAL,
    CoefficientStream,
    InvalidParams,
    StepCoefficients,
    _LastValueMemo,
    substream,
    truth_path,
)

__all__ = [
    "FilterDiagnostics",
    "compute_lambda_mu",
    "run_filter_experiment",
    "run_concentration_experiment",
    "run_stability_experiment",
    "run_accuracy_experiment",
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
    """Whitening factor of a finite, positive definite reference covariance.

    A 1-D ``r_ref`` is the diagonal; the factor is then ``1/sqrt(r_ref)``,
    applied by a multiply. A 2-D one gives its lower Cholesky factor, applied
    by a triangular solve. Positive definite means the package's floor,
    ``min > PD_RTOL * max(1, max)``, for the diagonal as for the matrix.
    """
    r_ref = _dense(r_ref)
    if r_ref.shape not in ((d,), (d, d)):
        raise DimensionMismatch(f"r_ref is {r_ref.shape}, expected ({d},) or ({d}, {d})")
    if not np.all(np.isfinite(r_ref)) or not (
        r_ref.min() > PD_RTOL * max(1.0, float(r_ref.max()))
        if r_ref.ndim == 1
        else is_positive_definite(r_ref)
    ):
        raise NotPositiveDefinite("r_ref must be finite and positive definite")
    if r_ref.ndim == 1:
        return 1.0 / np.sqrt(r_ref)
    return scipy.linalg.cholesky(symmetrize(r_ref), lower=True)


def _step_diagnostics(step, rec, W_prev, A, sigma_plus, x_true, L, cfg) -> FilterDiagnostics:
    """One row of diagnostics from the step's factors, in O(d K^2) work.

    ``W = rec.posterior_factor`` and ``W_prev`` factor this step's and the
    previous step's posterior covariance, m and m' columns. ``L`` is
    r_ref's factor from :func:`_reference_factor`: ``1/sqrt`` of a
    diagonal r_ref (whitening is an O(d m) multiply) or a lower Cholesky
    factor (an O(d^2 m) triangular solve)."""
    W = rec.posterior_factor
    d = W.shape[0]
    lam, mu = compute_lambda_mu(
        rec.forecast_spread, A, W_prev, sigma_plus, cfg.r, cfg.tau, cfg.rho
    )
    # C_post = W W.T <= nu r_ref  iff  (L^{-1} W)(L^{-1} W).T <= nu I: the
    # ratio is the top eigenvalue of Z Z.T, which the m x m Gram Z.T Z shares
    if L.ndim == 1:
        Z = L[:, None] * W
    else:
        Z = scipy.linalg.solve_triangular(L, W, lower=True)
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

    ``r_ref`` is the reference covariance for nu / cov_fidelity: a d x d
    matrix, or a length-d vector holding a diagonal one. On the turbulence
    model it is ``stationary_riccati_ambient(params)``, the closed-form
    fixed point of the augmented Riccati recursion, as the CLI passes it.
    It is checked and factored once, before any seed runs: a wrong shape
    raises :class:`DimensionMismatch`, a non-finite or non-positive
    definite one :class:`NotPositiveDefinite`. Returns
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
    d: int,
    p: int,
    K_list: Sequence[int],
    rho: float,
    delta: float,
    trials: int,
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
    log-linear tail fit (slope, intercept, r_squared). An out-of-range
    argument raises :class:`InvalidParams` naming it, before any trial.
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


def _scaled_stream(stream: CoefficientStream, eps: float) -> CoefficientStream:
    """Noise-rescaled system: Sigma -> eps^2 Sigma, obs noise -> eps^2 I.

    The observation rescaling is expressed with unit noise as
    ``H -> H / eps`` (and observations divided by eps, which
    truth_path then produces directly).
    """

    def scale(c: StepCoefficients) -> StepCoefficients:
        H = None if c.H is None else c.H / eps
        return StepCoefficients(A=c.A, B=c.B, Sigma=c.Sigma * (eps * eps), H=H)

    # a constant stream hands out one object, so it maps to one scaled
    # object and the filter factors Sigma+ once
    scaled = _LastValueMemo(scale)
    return CoefficientStream(d=stream.d, q=stream.q, generator=lambda n, _seed: scaled(stream.at(n)))


def run_accuracy_experiment(
    stream: CoefficientStream,
    cfg: EnkfConfig,
    T: int,
    eps_list: Sequence[float],
    seeds: Sequence[int],
):
    """Small-noise scaling: error should shrink linearly with eps.

    For each eps the system noise, observation noise, and threshold are
    scaled (Sigma -> eps^2 Sigma, obs noise -> eps^2 I, rho -> eps^2 rho)
    and the filter reruns; the row reports the time-averaged l2 error
    over the last half of the run, averaged across seeds. Every eps must
    be finite and positive, else ``ValueError`` before any run.
    """
    _check_seeds(seeds)
    if not all(np.isfinite(eps) and eps > 0 for eps in eps_list):
        raise ValueError(f"eps values must be finite and positive, got {list(eps_list)}")
    rows = []
    for eps in eps_list:
        s_stream = _scaled_stream(stream, eps)
        s_cfg = EnkfConfig(
            K=cfg.K, p=cfg.p, r=cfg.r, rho=eps * eps * cfg.rho, tau=cfg.tau
        )
        errs = []
        for seed in seeds:
            path = truth_path(s_stream, np.zeros(stream.d), T, seed)
            filt = EnkfFilter(s_stream, s_cfg, seed)
            run_err = [np.linalg.norm(filt.step(y).posterior.mean - x) for x, y in path]
            errs.append(np.mean(run_err[T // 2 :]))
        errs = np.array(errs)
        rows.append(
            {
                "eps": float(eps),
                "mean_error": float(errs.mean()),
                "std_error": float(errs.std(ddof=1)) if len(errs) > 1 else 0.0,
                "error_over_eps": float(errs.mean() / eps),
                "seeds": len(errs),
            }
        )
    return rows


def write_csv(rows, path, comments: Sequence[str] = (), columns: Sequence[str] = CSV_COLUMNS):
    """Write one table row per entry of ``rows`` under the header ``columns``.

    ``rows`` holds :class:`FilterDiagnostics` or dicts keyed by column
    name; a "lambda" column falls back to a "lam" key, the field name of
    :class:`FilterDiagnostics`. Ints and bools are written as integers,
    everything else %.17g so floats round-trip exactly. Comment lines are
    '#'-prefixed above the header.
    """
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            if not isinstance(row, dict):
                row = vars(row)
            cells = []
            for c in columns:
                v = row["lam"] if c == "lambda" and c not in row else row[c]
                if isinstance(v, (bool, int, np.integer)):
                    cells.append(str(int(v)))
                else:
                    cells.append("%.17g" % float(v))
            fh.write(",".join(cells) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if is_dataclass(obj):
        return asdict(obj)
    return str(obj)


def write_json(report, path):
    """Serialize a report (dataclass or dict tree) as indented JSON."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, default=_json_default)
        fh.write("\n")
