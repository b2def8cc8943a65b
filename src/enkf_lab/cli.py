"""The ``enkf-lab`` command: config parsing, seeding, output wiring.

Subcommands map one-to-one onto the experiment drivers:

* ``simulate``       filter vs truth with full per-step diagnostics
* ``verify-dim``     effective-dimension report for a turbulence model
* ``rmt-experiment`` sample-covariance concentration Monte Carlo
* ``stability``      paired shifted-initialization decay rates

Config files are strict JSON: unknown keys are rejected so that every
parameter in a file is one the run actually consumed. Exit codes:
0 success, 2 config/validation problem (message names the offending
field or path), 1 runtime failure.

Each runner is a function of its config alone: it returns the run's
files and its summary line, and only a run that succeeds writes its
output directory, with ``manifest.json`` echoing the keys the run
consumed (defaults filled in) and the tool version. Reruns with the same
config and seeds write byte-identical files.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, fields as dc_fields
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .diagnostics import (
    _concentration_arg_error,
    _reference_factor,
    run_concentration_experiment,
    run_filter_experiment,
    run_stability_experiment,
    write_csv,
    write_json,
)
from .effective_dim import minimal_p_search, verify_dim
from .enkf import EnkfConfig
from .linalg import NotPositiveDefinite
from .models import InvalidParams, TurbulenceParams, build_turbulence
from .reference import stationary_riccati_ambient

# preset name -> constructor kwargs
MODEL_PRESETS = {
    "kolmogorov-unfiltered": dict(J=50, r=1.1, tau=0.6, rho=0.04),
    "kolmogorov-observed": dict(J=50, r=1.1, tau=0.6, rho=0.04, sigma_obs=10.0),
    "kolmogorov-reduced": dict(J=10, r=1.1, tau=0.6, rho=0.04, sigma_obs=10.0),
}

# a jump spec has no JSON form; every other field is a config key
_MODEL_KEYS = tuple(f.name for f in dc_fields(TurbulenceParams) if f.name != "jump_spec")
# the keys of each object section, as loaded and as recorded
_SECTIONS = {"model": _MODEL_KEYS, "enkf": ("K", "p")}
# the rmt keys and their defaults: every argument of run_concentration_experiment but its seed
_RMT_DEFAULTS = {
    name: par.default
    for name, par in inspect.signature(run_concentration_experiment).parameters.items()
    if par.default is not par.empty
}


class ParseError(ValueError):
    """Config rejection; ``field`` is the dotted path of the bad entry."""

    def __init__(self, message: str, field: Optional[str] = None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")


@dataclass
class ExperimentConfig:
    """A fully resolved experiment description (defaults filled in)."""

    experiment: str
    model: Optional[TurbulenceParams] = None
    enkf: Optional[EnkfConfig] = None
    T: Optional[int] = None
    seeds: tuple = (0,)
    shifts: tuple = (10.0,)
    rmt: Optional[dict] = None
    rho_grid: Optional[tuple] = None


def _require(cond, message, field_name):
    if not cond:
        raise ParseError(message, field=field_name)


def _convert(kind, raw, field_name):
    """The JSON number ``raw`` as ``kind`` (int or float). Anything else,
    a fractional value where ``kind`` is int, or an integer literal beyond
    the float range where ``kind`` is float, is a ParseError naming
    ``field_name``."""
    number = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    _require(
        number and (kind is float or raw == int(raw)),
        f"expected {'an integer' if kind is int else 'a number'}, got {raw!r}",
        field_name,
    )
    try:
        return kind(raw)
    except OverflowError:
        raise ParseError(f"{raw} is not a finite JSON number", field=field_name) from None


def _convert_list(kind, raw, field_name) -> tuple:
    """The entries of the nonempty JSON list ``raw``, each converted by ``kind``."""
    _require(isinstance(raw, list) and raw, "must be a nonempty list", field_name)
    return tuple(_convert(kind, v, field_name) for v in raw)


def _reject_unknown(raw: dict, allowed, section: Optional[str] = None, note: str = ""):
    """ParseError naming the first key of ``raw`` (sorted) not in ``allowed``."""
    unknown = sorted(set(raw).difference(allowed))
    if unknown:
        key = unknown[0]
        raise ParseError(f"unknown key {key!r}{note}", field=key if section is None else f"{section}.{key}")


def _finite_float(token: str) -> float:
    """JSON number hook: NaN, Infinity and literals that overflow to
    infinity are not finite JSON numbers."""
    value = float(token)
    if not np.isfinite(value):
        raise ParseError(f"{token} is not a finite JSON number")
    return value


def _parse_model(raw) -> TurbulenceParams:
    if isinstance(raw, str):
        _require(raw in MODEL_PRESETS, f"unknown model preset {raw!r} "
                 f"(known: {', '.join(sorted(MODEL_PRESETS))})", "model")
        return TurbulenceParams(**MODEL_PRESETS[raw])
    _require(isinstance(raw, dict), "model must be a preset name or an object", "model")
    _reject_unknown(raw, _MODEL_KEYS, "model")
    kwargs = dict(raw)
    for key, value in raw.items():
        if value is None and key in ("sigma_obs", "omega_spec"):
            continue
        if key == "omega_spec":
            kwargs[key] = _convert_list(float, value, "model.omega_spec")
        elif key == "J":
            kwargs[key] = _convert(int, value, "model.J")
        else:
            _convert(float, value, f"model.{key}")  # checked, kept as written
    try:
        params = TurbulenceParams(**kwargs)
        params.validate()
    except (InvalidParams, TypeError, ValueError) as exc:
        raise ParseError(str(exc), field="model") from exc
    return params


def _parse_seeds(raw) -> tuple:
    if raw is None:
        return (0,)
    if isinstance(raw, dict):
        _reject_unknown(raw, {"base", "count"}, "seeds")
        _require("base" in raw and "count" in raw,
                 "seeds object needs both 'base' and 'count'", "seeds")
        base = _convert(int, raw["base"], "seeds.base")
        count = _convert(int, raw["count"], "seeds.count")
        _require(base >= 0, "base must be >= 0", "seeds.base")
        _require(count >= 1, "count must be >= 1", "seeds.count")
        return tuple(range(base, base + count))
    _require(isinstance(raw, list) and raw, "seeds must be a nonempty list or {base, count}", "seeds")
    seeds = _convert_list(int, raw, "seeds")
    _require(min(seeds) >= 0, "entries must be >= 0", "seeds")
    _require(len(set(seeds)) == len(seeds), "entries must be distinct", "seeds")
    return seeds


def load_config(path: str, experiment: Optional[str] = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment config, strictly.

    ``experiment`` (from the subcommand) must agree with the config's
    own "experiment" entry when both are present. Unknown keys anywhere
    are errors naming the key; omitted optional fields take the
    documented defaults (tau defaults to 1).
    """
    if not os.path.exists(path):
        raise ParseError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            raw = json.load(fh, parse_constant=_finite_float, parse_float=_finite_float)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path} (line {exc.lineno}, column {exc.colno}): {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"config root must be an object: {path}")

    exp = raw.get("experiment", experiment)
    _require(exp is not None, "missing 'experiment' (and no subcommand default)", "experiment")
    _require(isinstance(exp, str) and exp in _REGISTRY, f"must be one of {', '.join(_REGISTRY)}", "experiment")
    if experiment is not None and exp != experiment:
        raise ParseError(f"config says {exp!r} but the subcommand is {experiment!r}", field="experiment")

    _reject_unknown(raw, _REGISTRY[exp].keys, note=f" for experiment {exp!r}")

    cfg = ExperimentConfig(experiment=exp)
    cfg.seeds = _parse_seeds(raw.get("seeds"))

    if exp == "rmt":
        _require(len(cfg.seeds) == 1, "the rmt experiment takes exactly one seed", "seeds")
        sub = raw.get("rmt", {})
        _require(isinstance(sub, dict), "must be an object", "rmt")
        _reject_unknown(sub, set(_RMT_DEFAULTS), "rmt")
        merged = dict(_RMT_DEFAULTS)
        for key, value in sub.items():
            default = _RMT_DEFAULTS[key]
            if isinstance(default, tuple):
                merged[key] = _convert_list(type(default[0]), value, f"rmt.{key}")
            else:
                merged[key] = _convert(type(default), value, f"rmt.{key}")
        if error := _concentration_arg_error(merged):
            raise ParseError(error[1], field=f"rmt.{error[0]}")
        cfg.rmt = merged
        return cfg

    model_raw = raw.get("model")
    _require(model_raw is not None, "experiment needs a 'model' section", "model")
    cfg.model = _parse_model(model_raw)

    if exp == "verify-dim":
        if raw.get("rho_grid") is not None:
            cfg.rho_grid = _convert_list(float, raw["rho_grid"], "rho_grid")
            _require(all(x > 0 for x in cfg.rho_grid), "entries must be positive", "rho_grid")
        return cfg

    # simulate / stability: ensemble + horizon
    enkf_raw = raw.get("enkf")
    _require(enkf_raw is not None, "experiment needs an 'enkf' section", "enkf")
    _require(isinstance(enkf_raw, dict), "must be an object", "enkf")
    _reject_unknown(enkf_raw, _SECTIONS["enkf"], "enkf", note=" (r, tau, rho live in the model section)")
    _require("K" in enkf_raw and "p" in enkf_raw, "needs both 'K' and 'p'", "enkf")
    K, p = _convert(int, enkf_raw["K"], "enkf.K"), _convert(int, enkf_raw["p"], "enkf.p")
    try:
        cfg.enkf = EnkfConfig(
            K=K, p=p,
            r=cfg.model.r, rho=cfg.model.rho, tau=cfg.model.tau,
        )
    except ValueError as exc:
        raise ParseError(str(exc), field="enkf") from exc
    _require(cfg.enkf.p <= cfg.model.d, f"p={cfg.enkf.p} exceeds model dimension d={cfg.model.d}", "enkf.p")

    _require(raw.get("T") is not None, "experiment needs T", "T")
    cfg.T = _convert(int, raw["T"], "T")
    _require(cfg.T >= 1, "T must be >= 1", "T")
    if exp == "simulate":  # the reference simulate measures against must pass run_filter_experiment's check
        try:
            _reference_factor(stationary_riccati_ambient(cfg.model), cfg.model.d)
        except (InvalidParams, NotPositiveDefinite) as exc:
            raise ParseError(str(exc), field="model") from exc

    if exp == "stability" and raw.get("shifts") is not None:
        cfg.shifts = _convert_list(float, raw["shifts"], "shifts")
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The experiment's registry keys, unset optional ones left out, in JSON
    form (a tuple is a list); load_config of it compares equal."""
    out = {}
    for key in sorted(_REGISTRY[cfg.experiment].keys):
        value = getattr(cfg, key)
        if key in _SECTIONS:
            value = {k: getattr(value, k) for k in _SECTIONS[key]}
        if isinstance(value, dict):
            value = {k: list(v) if isinstance(v, tuple) else v for k, v in value.items()}
        if value is not None:
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _write_outputs(cfg: ExperimentConfig, files: dict, out_dir: str):
    """Make ``out_dir`` and write ``manifest.json`` and each of ``files``:
    a name maps to ``(rows, seed)``, a CSV whose comment block names the
    config and the seed (when not None), or to a JSON report."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "tool": "enkf-lab",
        "version": __version__,
        "experiment": cfg.experiment,
        "config": config_to_dict(cfg),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    config_comment = "config: " + json.dumps(config_to_dict(cfg), sort_keys=True)
    for name, content in files.items():
        path = os.path.join(out_dir, name)
        if isinstance(content, tuple):
            rows, seed = content
            write_csv(rows, path, [config_comment] + ([] if seed is None else [f"seed: {seed}"]))
        else:
            write_json(content, path)


# each runner returns (files, summary line); _write_outputs says what files holds
def _run_simulate(cfg: ExperimentConfig):
    stream = build_turbulence(cfg.model)
    per_seed, aggregate = run_filter_experiment(
        stream, cfg.enkf, cfg.T, cfg.seeds, r_ref=stationary_riccati_ambient(cfg.model)
    )
    files = {f"diagnostics_seed{seed}.csv": (series, seed) for seed, series in per_seed.items()}
    last = aggregate[-1]
    return files | {"aggregate.json": {"aggregate": aggregate}}, (
        f"simulate: {len(cfg.seeds)} seeds x {cfg.T} steps, final mean l2 error "
        f"{last['l2_error_mean']:.6g}, final mean fidelity {last['cov_fidelity_mean']:.6g}"
    )


def _run_verify_dim(cfg: ExperimentConfig):
    report = verify_dim(cfg.model)
    payload = asdict(report)
    if cfg.rho_grid is not None:
        payload["minimal_p"] = [
            {"rho": rho, "p_effective": p} for rho, p in minimal_p_search(cfg.model, cfg.rho_grid)
        ]
    return {"report.json": payload}, (
        f"verify-dim: p = {report.p} (ambient {report.pm_effective}), "
        f"rho = {report.rho:g}, instability modes = {report.p_instability}"
    )


def _run_rmt(cfg: ExperimentConfig):
    seed = cfg.seeds[0]
    result = run_concentration_experiment(seed=seed, **cfg.rmt)
    fit = result["tail_fit"]
    files = {"rare_event.csv": (result["rare_event"], seed), "tail.csv": (result["tail"], seed)}
    return files | {"report.json": result}, (
        f"rmt-experiment: {len(result['rare_event'])} rare-event rows, "
        f"tail slope {fit['slope']:.4g} (R^2 {fit['r_squared']:.4g})"
    )


def _run_stability(cfg: ExperimentConfig):
    stream = build_turbulence(cfg.model)
    rows = run_stability_experiment(stream, cfg.enkf, cfg.T, cfg.shifts, cfg.seeds)
    slopes = [r["slope"] for r in rows if not np.isnan(r["slope"])]
    frac_neg = float(np.mean([s < 0 for s in slopes])) if slopes else float("nan")
    summary = {
        "rows": rows,
        "fraction_negative_slope": frac_neg,
        "all_spreads_identical": bool(all(r["spreads_identical"] for r in rows)),
    }
    return {"slopes.csv": (rows, None), "report.json": summary}, (
        f"stability: {len(rows)} paired runs, "
        f"{100 * frac_neg:.1f}% negative slopes, spreads identical: "
        f"{summary['all_spreads_identical']}"
    )


_Experiment = namedtuple("_Experiment", "subcommand keys run")  # keys: the top-level config keys
_BASE_KEYS = frozenset({"experiment"})
_FILTER_KEYS = _BASE_KEYS | {"seeds", "model", "enkf", "T"}
# experiment name -> its subcommand, config keys and runner, in subcommand order
_REGISTRY = {
    "simulate": _Experiment("simulate", _FILTER_KEYS, _run_simulate),
    "verify-dim": _Experiment("verify-dim", _BASE_KEYS | {"model", "rho_grid"}, _run_verify_dim),
    "rmt": _Experiment("rmt-experiment", _BASE_KEYS | {"seeds", "rmt"}, _run_rmt),
    "stability": _Experiment("stability", _FILTER_KEYS | {"shifts"}, _run_stability),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enkf-lab",
        description="Ensemble Kalman filtering experiments with inflation and spectral projection.",
    )
    parser.add_argument("--version", action="version", version=f"enkf-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for experiment, spec in _REGISTRY.items():
        sp = sub.add_parser(spec.subcommand, help=f"run the {spec.subcommand} experiment")
        sp.set_defaults(experiment=experiment)
        sp.add_argument("--config", required=True, help="path to a JSON experiment config")
        if "seeds" in spec.keys:
            sp.add_argument("--seed", type=int, help="override the config's seed list with this single seed")
        sp.add_argument("--out", default=None, help="output directory (default: ./out/<timestamp>)")
    return parser


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config, experiment=args.experiment)
        if getattr(args, "seed", None) is not None:
            _require(args.seed >= 0, "must be >= 0", "--seed")
            cfg.seeds = (args.seed,)
        files, summary = _REGISTRY[cfg.experiment].run(cfg)
        _write_outputs(cfg, files, args.out or os.path.join("out", time.strftime("%Y%m%d-%H%M%S")))
        print(summary)
        return 0
    except ParseError as exc:
        print(f"enkf-lab: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, not a config problem
        print(f"enkf-lab: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
