"""Command-line interface: config parsing, exit codes, output files."""

import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields, replace as dataclass_replace

import numpy as np
import pytest

from enkf_lab.cli import (
    _REGISTRY,
    MODEL_PRESETS,
    ExperimentConfig,
    ParseError,
    cli_main,
    config_to_dict,
    load_config,
)
from enkf_lab.diagnostics import run_concentration_experiment
from enkf_lab.models import TurbulenceParams

CONFIG_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "enkf_lab", "configs",
)
UNFILTERED_CONFIG = os.path.join(CONFIG_DIR, "kolmogorov_unfiltered.json")
OBSERVED_CONFIG = os.path.join(CONFIG_DIR, "kolmogorov_observed.json")


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def tiny_simulate_config(**overrides):
    cfg = {
        "experiment": "simulate",
        "model": {"J": 2, "r": 1.1, "tau": 0.6, "rho": 0.04, "sigma_obs": 10.0},
        "enkf": {"K": 4, "p": 2},
        "T": 3,
        "seeds": [0, 1],
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------- verify-dim


def test_shipped_unfiltered_config(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli_main(["verify-dim", "--config", UNFILTERED_CONFIG, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["p"] == 15
    assert report["p_covariance"] == 15
    assert report["pm_effective"] == 30
    assert report["observed"] is False
    assert report["failing_modes"] == list(range(1, 16))
    assert "p = 15" in capsys.readouterr().out


def test_shipped_observed_config(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli_main(["verify-dim", "--config", OBSERVED_CONFIG, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["p"] == 6
    assert report["observed"] is True
    assert report["failing_modes"] == list(range(0, 6))
    assert report["pm_effective"] == 19
    assert "p = 6" in capsys.readouterr().out


REPORT_KEYS = [
    "convention", "observed", "p", "p_instability", "p_covariance", "p_effective",
    "pm_instability", "pm_covariance", "pm_effective", "rho", "r", "tau",
    "failing_modes", "instability_mode_list", "table",
]


@pytest.mark.parametrize("rho_grid", [None, [0.04, 1.0]], ids=["plain", "rho_grid"])
@pytest.mark.parametrize("preset", ["kolmogorov-observed", "kolmogorov-unfiltered"])
def test_verify_dim_report_key_order(tmp_path, preset, rho_grid):
    cfg = {"experiment": "verify-dim", "model": preset, "rho_grid": rho_grid}
    out = tmp_path / "o"
    assert cli_main(["verify-dim", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report) == REPORT_KEYS + ([] if rho_grid is None else ["minimal_p"])
    assert report["observed"] is (preset == "kolmogorov-observed")


def test_rho_grid_adds_minimal_p(tmp_path):
    payload = json.loads(open(UNFILTERED_CONFIG).read())
    payload["rho_grid"] = [0.02, 0.04, 0.08]
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert cli_main(["verify-dim", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    rows = {row["rho"]: row["p_effective"] for row in report["minimal_p"]}
    assert rows[0.04] == 15
    ps = [row["p_effective"] for row in report["minimal_p"]]
    assert ps == sorted(ps, reverse=True)


def test_verify_dim_near_unit_inflation(tmp_path, capsys):
    # r near 1 and a large sigma_obs: the stationary values converge too
    # slowly to find by iteration, and the closed form gives them at once
    model = {
        "J": 22, "sigma_obs": 121510705.4025342, "tau": 2.0964397224238445, "E0": 0.0,
        "r": 1.0043538742397193, "rho": 0.0001159128771666608,
        "gamma0": 0.0010451874493350177, "h": 0.38689539022414365,
    }
    path = write_config(tmp_path, {"experiment": "verify-dim", "model": model})
    assert cli_main(["verify-dim", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert "p = 23" in capsys.readouterr().out


# ---------------------------------------------------------------- exit codes


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    rc = cli_main(["verify-dim", "--config", missing])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config file not found" in err
    assert missing in err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc = cli_main(["verify-dim", "--config", str(path)])
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_model_key_is_named(tmp_path, capsys):
    cfg = tiny_simulate_config()
    cfg["model"]["rr"] = 1.1
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "model.rr" in err
    assert "'rr'" in err


def test_unknown_top_level_key_is_named(tmp_path, capsys):
    cfg = tiny_simulate_config(extra=1)
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    assert "unknown key 'extra'" in capsys.readouterr().err


def test_enkf_section_rejects_model_parameters(tmp_path, capsys):
    cfg = tiny_simulate_config()
    cfg["enkf"]["tau"] = 0.5
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "enkf.tau" in err
    assert "model section" in err


def test_enkf_section_needs_both_K_and_p(tmp_path, capsys):
    cfg = tiny_simulate_config()
    del cfg["enkf"]["p"]
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    assert "'K' and 'p'" in capsys.readouterr().err


def test_nonpositive_horizon_exits_2(tmp_path, capsys):
    cfg = tiny_simulate_config(T=0)
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    assert "T must be >= 1" in capsys.readouterr().err


def test_projection_rank_above_dimension_exits_2(tmp_path, capsys):
    cfg = tiny_simulate_config()
    cfg["enkf"]["p"] = 9  # model d = 2 J + 1 = 5
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    assert "exceeds model dimension" in capsys.readouterr().err


def test_unknown_preset_exits_2(tmp_path, capsys):
    cfg = tiny_simulate_config(model="kolmogorov-typo")
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    assert "unknown model preset" in capsys.readouterr().err


def test_experiment_subcommand_mismatch_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, tiny_simulate_config())
    rc = cli_main(["verify-dim", "--config", path])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'simulate'" in err
    assert "'verify-dim'" in err


def test_rmt_unknown_key_is_named(tmp_path, capsys):
    cfg = {"experiment": "rmt", "rmt": {"dd": 3}}
    rc = cli_main(["rmt-experiment", "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    assert "rmt.dd" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["kolmogorov-observed", {"J": "x"}, None], ids=["preset", "malformed", "null"])
def test_rmt_rejects_a_model_section(tmp_path, capsys, model):
    # the concentration experiment reads no model, so a model section is unknown
    cfg = {"experiment": "rmt", "model": model, "rmt": {"d": 20, "p": 2, "K_list": [5], "trials": 2}}
    rc = cli_main(["rmt-experiment", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error: model: unknown key 'model'" in capsys.readouterr().err


def test_seeds_object_validation(tmp_path, capsys):
    cfg = tiny_simulate_config(seeds={"base": 0, "count": 0})
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    assert "count must be >= 1" in capsys.readouterr().err

    cfg = tiny_simulate_config(seeds=[])
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    assert "seeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,cfg,field",
    [
        ("simulate", tiny_simulate_config(seeds=["a"]), "seeds"),
        ("simulate", tiny_simulate_config(seeds=[0.5]), "seeds"),
        ("simulate", tiny_simulate_config(seeds={"base": "a", "count": 2}), "seeds.base"),
        ("simulate", tiny_simulate_config(enkf={"K": "4", "p": 2}), "enkf.K"),
        ("verify-dim", {"model": {"J": 2, "omega_spec": "abc"}}, "model.omega_spec"),
        ("verify-dim", {"model": {"J": 2}, "rho_grid": ["x"]}, "rho_grid"),
        ("rmt-experiment", {"rmt": {"trials": "5"}}, "rmt.trials"),
        ("rmt-experiment", {"rmt": {"K_list": ["x"]}}, "rmt.K_list"),
        ("rmt-experiment", {"rmt": {"K_list": 5}}, "rmt.K_list"),
        ("stability", tiny_simulate_config(experiment="stability", shifts=["x"]), "shifts"),
        ("accuracy", tiny_simulate_config(experiment="accuracy", eps_list=[None]), "eps_list"),
        ("verify-dim", {"model": {"J": True}}, "model.J"),
        ("verify-dim", {"model": {"J": 2.5}}, "model.J"),
        ("verify-dim", {"model": {"J": 2, "sigma_obs": True}}, "model.sigma_obs"),
        ("verify-dim", {"model": {"J": 2, "sigma_obs": "10"}}, "model.sigma_obs"),
        ("verify-dim", {"model": {"J": 2, "r": 10**400}}, "model.r"),
        ("verify-dim", {"model": {"J": 2}, "rho_grid": [-0.1]}, "rho_grid"),
        ("verify-dim", {"model": {"J": 2}, "rho_grid": [0.04, 0]}, "rho_grid"),
        ("verify-dim", {"model": {"J": 2}, "seed": 5}, "seed"),
        ("simulate", tiny_simulate_config(seed=[5], seeds=[1]), "seed"),
        ("simulate", tiny_simulate_config(T=2.5), "T"),
        ("simulate", tiny_simulate_config(T=True), "T"),
    ],
)
def test_wrong_value_types_exit_2_naming_the_field(tmp_path, capsys, command, cfg, field):
    rc = cli_main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"config error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "seeds,flag,field",
    [
        ([-1], [], "seeds"),
        ({"base": -3, "count": 2}, [], "seeds.base"),
        ([0, 1], ["--seed", "-2"], "--seed"),
        ([0, 0, 1], [], "seeds"),
    ],
    ids=["list", "base", "flag", "repeat"],
)
def test_negative_seed_exits_2_naming_the_field(tmp_path, capsys, seeds, flag, field):
    cfg = tiny_simulate_config(seeds=seeds)
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")] + flag)
    assert rc == 2
    assert f"config error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "rmt,field",
    [
        ({"d": 3, "p": 5}, "rmt.p"),
        ({"p": 0}, "rmt.p"),
        ({"K_list": [1]}, "rmt.K_list"),
        ({"tail_K": 1}, "rmt.tail_K"),
        ({"tail_trials": 0}, "rmt.tail_trials"),
        ({"rho": -1}, "rmt.rho"),
        ({"cond_targets": [0.5]}, "rmt.cond_targets"),
        ({"delta": -1}, "rmt.delta"),
        ({"delta": 0}, "rmt.delta"),
        ({"tail_min_count": 0}, "rmt.tail_min_count"),
    ],
    ids=[
        "p_above_d", "p_zero", "K_list", "tail_K", "tail_trials", "rho", "cond_targets",
        "delta_negative", "delta_zero", "tail_min_count",
    ],
)
def test_out_of_range_rmt_values_exit_2(tmp_path, capsys, rmt, field):
    cfg = {"experiment": "rmt", "rmt": rmt}
    rc = cli_main(["rmt-experiment", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"config error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("model", [{"J": 10, "tau": 0}, {"J": 10, "r": 0.5}])
def test_out_of_range_model_values_exit_2(tmp_path, capsys, model):
    cfg = {"experiment": "verify-dim", "model": model}
    rc = cli_main(["verify-dim", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "model: " in err
    assert "must satisfy" in err


def test_model_integral_J_and_null_keys_are_accepted(tmp_path):
    cfg = {"experiment": "verify-dim",
           "model": {"J": 2.0, "r": 2, "sigma_obs": None, "omega_spec": None}}
    out = tmp_path / "o"
    rc = cli_main(["verify-dim", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    model = json.loads((out / "manifest.json").read_text())["config"]["model"]
    assert model["J"] == 2 and isinstance(model["J"], int)
    assert model["r"] == 2 and isinstance(model["r"], int)  # kept as written
    assert model["sigma_obs"] is None and model["omega_spec"] is None


def test_integral_float_T_is_accepted_as_an_integer(tmp_path):
    out = tmp_path / "o"
    cfg = tiny_simulate_config(T=10.0, seeds=[0])
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    T = json.loads((out / "manifest.json").read_text())["config"]["T"]
    assert T == 10 and isinstance(T, int)
    rows = (out / "diagnostics_seed0.csv").read_text().splitlines()
    assert len([r for r in rows if not r.startswith("#")]) == 1 + 10


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_json_numbers_exit_2(tmp_path, capsys, token):
    path = tmp_path / "config.json"
    path.write_text('{"experiment": "verify-dim", "model": {"J": 10, "alpha": %s}}' % token)
    rc = cli_main(["verify-dim", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"{token} is not a finite JSON number" in capsys.readouterr().err


def test_runtime_failure_exits_1(tmp_path, capsys):
    # the config is valid; the output directory cannot be made under a file
    path = write_config(tmp_path, json.loads(open(UNFILTERED_CONFIG).read()))
    (tmp_path / "blocker").write_text("")
    rc = cli_main(["verify-dim", "--config", path, "--out", str(tmp_path / "blocker" / "o")])
    assert rc == 1
    assert "enkf-lab: error:" in capsys.readouterr().err


def test_simulate_divergence_exits_1_naming_seed_and_step(tmp_path, capsys, monkeypatch):
    from enkf_lab import enkf

    real, calls = enkf.enkf_forecast, []

    def nan_on_third_step(*args, **kwargs):
        mean, S_hat = real(*args, **kwargs)
        calls.append(None)
        if len(calls) == 3:
            mean[0] = np.nan
        return mean, S_hat

    monkeypatch.setattr(enkf, "enkf_forecast", nan_on_third_step)
    cfg = tiny_simulate_config(T=5, seeds=[7])
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "FilterDiverged" in err and "step 3" in err and "seed 7" in err
    # a run that fails writes nothing: the directory is made only after it succeeds
    assert not (tmp_path / "o").exists()


def test_simulate_unfiltered_preset_exits_2_naming_the_diverging_wavenumbers(tmp_path, capsys):
    # on kolmogorov-unfiltered r^2 exp(-2 gamma_k h) >= 1 for k = 0..4, so
    # the unobserved reference has no fixed point there: a config error
    cfg = {"experiment": "simulate", "model": "kolmogorov-unfiltered",
           "enkf": {"K": 8, "p": 4}, "T": 3, "seeds": [0]}
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: model:" in err and "wavenumbers [0, 1, 2, 3, 4]" in err


def test_simulate_reference_below_the_filter_experiment_floor_exits_2_naming_model(tmp_path, capsys):
    # finite, but E0 = 1e13 puts the reference's max over 1e12 times its
    # min, below the floor run_filter_experiment asks of r_ref
    model = {"J": 10, "tau": 0.6, "gamma0": 0.3, "E0": 1e13}
    cfg = {"experiment": "simulate", "model": model, "enkf": {"K": 8, "p": 4}, "T": 3, "seeds": [0]}
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: model:" in err and "1e-12" in err
    assert not (tmp_path / "o").exists()
    # the same model at E0 = 1e10 runs
    cfg["model"]["E0"] = 1e10
    assert cli_main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0


def test_simulate_runs_on_a_damped_unobserved_model(tmp_path):
    cfg = tiny_simulate_config(model={"J": 10, "gamma0": 0.3, "r": 1.1, "tau": 0.6, "rho": 0.04})
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    rows = (tmp_path / "o" / "diagnostics_seed0.csv").read_text().splitlines()
    assert len([r for r in rows if not r.startswith("#")]) == 1 + 3


# the smallest config each filter or model experiment takes
_SMOKE_CONFIGS = {
    "simulate": {"enkf": {"K": 8, "p": 4}, "T": 3, "seeds": [0]},
    "stability": {"enkf": {"K": 8, "p": 4}, "T": 3, "seeds": [0]},
    "accuracy": {"enkf": {"K": 8, "p": 4}, "T": 3, "seeds": [0]},
    "verify-dim": {},
}


@pytest.mark.parametrize("experiment", list(_SMOKE_CONFIGS))
@pytest.mark.parametrize("preset", list(MODEL_PRESETS))
def test_every_preset_runs_or_exits_2_naming_model(tmp_path, capsys, preset, experiment):
    cfg = {"experiment": experiment, "model": preset, **_SMOKE_CONFIGS[experiment]}
    command = _REGISTRY[experiment].subcommand
    out = tmp_path / "o"
    rc = cli_main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 0 or (rc == 2 and "config error: model:" in err), (rc, err)
    # a config error is found before the output directory is made
    assert rc == 0 or not out.exists()


# ------------------------------------------------------------ config semantics


def test_tau_defaults_to_one(tmp_path):
    cfg = tiny_simulate_config()
    del cfg["model"]["tau"]
    out = tmp_path / "out"
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["model"]["tau"] == 1.0


def test_seed_flag_overrides_config_seeds(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_simulate_config())
    rc = cli_main(["simulate", "--config", path, "--seed", "7", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seeds"] == [7]
    assert (out / "diagnostics_seed7.csv").exists()
    assert not (out / "diagnostics_seed0.csv").exists()


def test_seeds_base_count_expansion(tmp_path):
    cfg = tiny_simulate_config(seeds={"base": 5, "count": 3}, T=2)
    out = tmp_path / "out"
    rc = cli_main(["simulate", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seeds"] == [5, 6, 7]
    for s in (5, 6, 7):
        assert (out / f"diagnostics_seed{s}.csv").exists()


def test_preset_matches_explicit_parameters(tmp_path):
    cfg_preset = load_config(
        write_config(tmp_path, {"experiment": "verify-dim", "model": "kolmogorov-observed"}, "a.json")
    )
    cfg_explicit = load_config(OBSERVED_CONFIG)
    assert cfg_preset.model == cfg_explicit.model
    assert set(MODEL_PRESETS) == {
        "kolmogorov-unfiltered", "kolmogorov-observed", "kolmogorov-reduced",
    }


def test_config_round_trips_through_dict(tmp_path):
    for src in (UNFILTERED_CONFIG, OBSERVED_CONFIG):
        cfg = load_config(src)
        dumped = write_config(tmp_path, config_to_dict(cfg), "dump.json")
        assert load_config(dumped) == cfg

    cfg = load_config(write_config(tmp_path, tiny_simulate_config(), "sim.json"))
    dumped = write_config(tmp_path, config_to_dict(cfg), "sim_dump.json")
    assert load_config(dumped) == cfg


# a valid value other than the default for every model key; a new
# TurbulenceParams field fails below until it gets one here
MODEL_FIELD_VALUES = {
    "J": 3, "alpha": 1.5, "beta": 2.0, "gamma0": 0.02, "nu_visc": 0.03, "E0": 2.0,
    "h": 0.25, "omega_spec": [0.0, 1.0, 0.5], "r": 1.3, "tau": 0.5, "rho": 0.05, "sigma_obs": 5.0,
}


@pytest.mark.parametrize("key", [f.name for f in fields(TurbulenceParams) if f.name != "jump_spec"])
def test_every_model_field_loads_and_round_trips(tmp_path, key):
    cfg = {"experiment": "verify-dim", "model": {"J": 2, key: MODEL_FIELD_VALUES[key]}}
    loaded = load_config(write_config(tmp_path, cfg))
    default = TurbulenceParams(J=2)
    assert getattr(loaded.model, key) != getattr(default, key)
    assert loaded.model == dataclass_replace(default, **{key: getattr(loaded.model, key)})
    out = tmp_path / "o"
    assert cli_main(["verify-dim", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    recorded = json.loads((out / "manifest.json").read_text())["config"]
    assert recorded["model"][key] == MODEL_FIELD_VALUES[key]
    assert recorded == config_to_dict(loaded)
    assert load_config(write_config(tmp_path, recorded, "dump.json")) == loaded


# a minimal config per experiment, optional keys left unset; a new
# registry entry fails below until it gets one here
MINIMAL_CONFIGS = {
    "simulate": tiny_simulate_config(),
    "verify-dim": {"experiment": "verify-dim", "model": {"J": 2}},
    "rmt": {"experiment": "rmt", "rmt": {"d": 20, "p": 2, "K_list": [5], "trials": 4, "tail_trials": 50}},
    "stability": tiny_simulate_config(experiment="stability"),
    "accuracy": tiny_simulate_config(experiment="accuracy", eps_list=[1.0, 0.1]),
}


@pytest.mark.parametrize("experiment", list(_REGISTRY))
def test_manifest_records_exactly_the_registry_keys(tmp_path, experiment):
    path = write_config(tmp_path, MINIMAL_CONFIGS[experiment])
    out = tmp_path / "out"
    assert cli_main([_REGISTRY[experiment].subcommand, "--config", path, "--out", str(out)]) == 0
    recorded = json.loads((out / "manifest.json").read_text())["config"]
    assert set(recorded) == set(_REGISTRY[experiment].keys) - {"rho_grid"}
    assert recorded == config_to_dict(load_config(path))


@pytest.mark.parametrize(
    "command,cfg,flag,field",
    [
        ("verify-dim", dict(MINIMAL_CONFIGS["verify-dim"], seeds=[0]), [], "config error: seeds: "),
        ("verify-dim", MINIMAL_CONFIGS["verify-dim"], ["--seed", "3"], "--seed"),
        ("rmt-experiment", dict(MINIMAL_CONFIGS["rmt"], seeds=[0, 1]), [], "config error: seeds: "),
    ],
    ids=["verify_dim_seeds", "verify_dim_flag", "rmt_two_seeds"],
)
def test_inputs_the_run_would_not_consume_exit_2(tmp_path, capsys, command, cfg, flag, field):
    rc = cli_main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")] + flag)
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment", list(_REGISTRY))
def test_output_dir_key_exits_2_naming_it(tmp_path, capsys, monkeypatch, experiment):
    # --out is the one way to choose the output directory
    monkeypatch.chdir(tmp_path)
    cfg = dict(MINIMAL_CONFIGS[experiment], output_dir=str(tmp_path / "o"))
    rc = cli_main([_REGISTRY[experiment].subcommand, "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    assert "config error: output_dir: unknown key 'output_dir'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_rmt_seed_flag_selects_its_one_seed(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, MINIMAL_CONFIGS["rmt"])
    assert cli_main(["rmt-experiment", "--config", path, "--seed", "5", "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["seeds"] == [5]
    assert "# seed: 5" in (out / "tail.csv").read_text()


def test_load_config_raises_parse_error_directly(tmp_path):
    with pytest.raises(ParseError, match="config file not found"):
        load_config(str(tmp_path / "absent.json"))
    assert isinstance(load_config(OBSERVED_CONFIG), ExperimentConfig)


# ---------------------------------------------------------------- experiments


def test_simulate_writes_expected_files(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, tiny_simulate_config())
    assert cli_main(["simulate", "--config", path, "--out", str(out)]) == 0

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "enkf-lab"
    assert manifest["experiment"] == "simulate"
    assert isinstance(manifest["version"], str) and manifest["version"]
    assert manifest["config"]["T"] == 3

    agg = json.loads((out / "aggregate.json").read_text())
    assert len(agg["aggregate"]) == 3

    lines = (out / "diagnostics_seed0.csv").read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any(ln.startswith("# config:") for ln in comments)
    assert any(ln == "# seed: 0" for ln in comments)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "step,maha_sq_per_d,l2_error,nu,lambda,mu,chi,cov_fidelity"
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 3


def test_stability_writes_expected_files(tmp_path):
    cfg = {
        "experiment": "stability",
        "model": {"J": 2, "r": 1.1, "tau": 0.6, "rho": 0.04, "sigma_obs": 10.0},
        "enkf": {"K": 4, "p": 2},
        "T": 10,
        "shifts": [5.0],
        "seeds": [0, 1],
    }
    out = tmp_path / "out"
    rc = cli_main(["stability", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_spreads_identical"] is True
    assert len(report["rows"]) == 2
    assert 0.0 <= report["fraction_negative_slope"] <= 1.0
    lines = (out / "slopes.csv").read_text().splitlines()
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "shift,seed,slope,n_points,spreads_identical,final_gap"


def test_accuracy_writes_expected_files(tmp_path):
    cfg = {
        "experiment": "accuracy",
        "model": {"J": 2, "r": 1.1, "tau": 0.6, "rho": 0.04, "sigma_obs": 10.0},
        "enkf": {"K": 4, "p": 2},
        "T": 5,
        "eps_list": [1.0, 0.5],
        "seeds": [0],
    }
    out = tmp_path / "out"
    rc = cli_main(["accuracy", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["rows"]) == 2
    # the error scale is exactly proportional to eps here
    assert report["max_over_min_error_per_eps"] == pytest.approx(1.0, abs=1e-9)


def test_rmt_experiment_subcommand(tmp_path, capsys):
    cfg = {
        "experiment": "rmt",
        "rmt": {
            "d": 20, "p": 2, "K_list": [5, 10], "rho": 0.1, "delta": 0.3,
            "trials": 40, "cond_targets": [10.0],
            "tail_trials": 200, "tail_t_grid": [0.0, 0.5, 1.0], "tail_min_count": 5,
        },
        "seeds": [0],
    }
    out = tmp_path / "out"
    rc = cli_main(["rmt-experiment", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "rare_event.csv").exists()
    assert (out / "tail.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert len(report["rare_event"]) == 2  # two K values x one target
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "rmt"
    assert "rmt-experiment:" in capsys.readouterr().out


def test_rmt_manifest_records_the_experiment_defaults(tmp_path):
    cfg = {"experiment": "rmt", "rmt": {"d": 20, "p": 2, "K_list": [5], "trials": 4, "tail_trials": 50}}
    out = tmp_path / "out"
    assert cli_main(["rmt-experiment", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    recorded = json.loads((out / "manifest.json").read_text())["config"]
    assert set(recorded["rmt"]) == {
        "d", "p", "K_list", "rho", "delta", "trials", "cond_targets",
        "tail_K", "tail_trials", "tail_t_grid", "tail_min_count",
    }
    # a key left out records run_concentration_experiment's own default
    defaults = inspect.signature(run_concentration_experiment).parameters
    for key in set(recorded["rmt"]) - set(cfg["rmt"]):
        default = defaults[key].default
        assert recorded["rmt"][key] == (list(default) if isinstance(default, tuple) else default)
    loaded = load_config(write_config(tmp_path, cfg, "again.json"))
    assert load_config(write_config(tmp_path, config_to_dict(loaded), "dump.json")) == loaded
    assert config_to_dict(loaded) == recorded


# ------------------------------------------------------------- reproducibility


def test_rerun_is_byte_identical(tmp_path):
    path = write_config(tmp_path, tiny_simulate_config())
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["simulate", "--config", path, "--out", str(out1)]) == 0
    assert cli_main(["simulate", "--config", path, "--out", str(out2)]) == 0
    names1 = sorted(os.listdir(out1))
    assert names1 == sorted(os.listdir(out2))
    assert names1  # at least manifest + outputs
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_default_output_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli_main(["verify-dim", "--config", OBSERVED_CONFIG])
    assert rc == 0
    runs = os.listdir(tmp_path / "out")
    assert len(runs) == 1
    assert (tmp_path / "out" / runs[0] / "manifest.json").exists()
    assert (tmp_path / "out" / runs[0] / "report.json").exists()


# ------------------------------------------------------------- process-level


def test_module_entry_point(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "enkf_lab", "verify-dim",
         "--config", UNFILTERED_CONFIG, "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "p = 15" in proc.stdout
    assert (out / "report.json").exists()


def test_version_flag(capsys):
    rc = cli_main(["--version"])
    assert rc == 0
    assert "enkf-lab" in capsys.readouterr().out
