"""enkf-lab benchmark: four closed-loop workloads, measured from outside.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run starts one repetition after another, each in a fresh
``python3 bench/rep.py`` process, until ``--seconds`` have passed. Every
child gets ``OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1``
before numpy is imported: the single-threaded run is the baseline, and it
keeps the figures about the program rather than the scheduler.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions on the same inputs and reports the
per-layer metrics of ``bench/spans.py``. The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
``attempted`` and ``failed`` count correctness checks. The two lines
before it record the machine facts, then every repetition and the
counters. See ``bench/README.md``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REP = Path(__file__).resolve().parent / "rep.py"

THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REP_TIMEOUT_S = 60
MAX_REPS = 200  # seeds of group k are run_seed * 1000 + k * seeds + j

# Run lengths per repetition. ``error_band`` brackets the time-averaged
# |mean - truth|^2 over the stationary Riccati total, 0.96 +- 10 %.
WORKLOADS = {
    "simulate-d101": {"kind": "simulate", "K": 40, "T": 80, "seeds": 3},
    "filter-d10001": {
        "kind": "filter", "J": 5000, "K": 40, "jump": False, "T": 60,
        "seeds": 1, "error_band": [0.86, 1.06],
    },
    "filter-jump-d10001": {
        "kind": "filter", "J": 5000, "K": 40, "jump": True, "T": 40,
        "seeds": 1, "error_band": [0.86, 1.06],
    },
    "kalman-limit-K1000": {"kind": "kalman", "K": 1000, "T": 30, "seeds": 1},
}
TINY_T = 3  # --tiny: the smoke run of bench/selftest.py

# Per-layer metrics: name -> (unit, span layer or None, quantity). "ms" is
# self time per filter step and "calls" calls per filter step, both over
# the timed region; "setup_ms" is whole time per repetition, children
# included, wherever the call runs (set-up on most workloads).
LAYER_METRICS = {
    "models.coeffs_ms": ("ms", "models.coeffs", "ms"),
    "models.coeffs_calls": ("calls/step", "models.coeffs", "calls"),
    "models.truth_ms": ("ms", "models.truth", "setup_ms"),
    "models.noise_ms": ("ms", "models.noise", "ms"),
    "models.noise_calls": ("calls/step", "models.noise", "calls"),
    "enkf.filter_ms": ("ms", "enkf.filter", "ms"),
    "enkf.forecast_ms": ("ms", "enkf.forecast", "ms"),
    "enkf.assimilate_ms": ("ms", "enkf.assimilate", "ms"),
    "enkf.sigma_plus_ms": ("ms", "enkf.sigma_plus", "ms"),
    "enkf.sigma_plus_calls": ("calls/step", "enkf.sigma_plus", "calls"),
    "linalg.gram_eig_ms": ("ms", "linalg.gram_eig", "ms"),
    "linalg.projection_ms": ("ms", "linalg.projection", "ms"),
    "linalg.gain_context_ms": ("ms", "linalg.gain_context", "ms"),
    "linalg.gain_apply_ms": ("ms", "linalg.gain_apply", "ms"),
    "linalg.loewner_ms": ("ms", "linalg.loewner", "ms"),
    "linalg.loewner_calls": ("calls/step", "linalg.loewner", "calls"),
    "linalg.maha_ms": ("ms", "linalg.maha", "ms"),
    "diagnostics.lambda_mu_ms": ("ms", "diagnostics.lambda_mu", "ms"),
    "diagnostics.nu_ms": ("ms", "diagnostics.nu", "ms"),
    "diagnostics.driver_ms": ("ms", "diagnostics.driver", "ms"),
    "diagnostics.write_ms": ("ms", "diagnostics.write", "ms"),
    "reference.stationary_ms": ("ms", "reference.stationary", "setup_ms"),
    "effective_dim.verify_ms": ("ms", "effective_dim.verify", "setup_ms"),
    "cli.self_ms": ("ms", "cli.self", "ms"),
    "enkf.step_ms_p50": ("ms", None, "p50"),
    "enkf.step_ms_p99": ("ms", None, "p99"),
    "enkf.step_samples": ("count", None, "samples"),
    "enkf.rank_deficit": ("1/step", None, "rank_deficit"),
    "enkf.chi_gt1": ("1/step", None, "chi_gt1"),
    "trace.overhead_frac": ("fraction", None, "overhead"),
    "trace.uncovered_frac": ("fraction", None, "uncovered"),
}
UNCOVERED_MAX = 0.10  # layer self times must cover 90 % of the traced region


def child_env():
    env = dict(os.environ, **THREAD_CAPS)
    env.pop("ENKF_LAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def machine_facts(env):
    """Facts recorded with every result; the warm-up child also compiles src."""
    probe = (
        "import json, sys, numpy, scipy, enkf_lab\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__, 'blas': blas.get('name'),"
        " 'blas_version': blas.get('version')}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=REP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import enkf_lab from {SRC}: {proc.stderr.strip()}")
    facts = json.loads(proc.stdout.strip().splitlines()[-1])
    facts.update(
        nproc=os.cpu_count(),
        cpus_allowed=len(os.sched_getaffinity(0)),
        machine=platform.machine(),
        thread_caps=THREAD_CAPS,
        src_lines=sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "enkf_lab").rglob("*.py"))
        ),
    )
    return facts


def run_rep(spec, env):
    """One repetition in a fresh process; returns its result, or None."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(REP), json.dumps(spec)], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"repetition killed after {REP_TIMEOUT_S} s\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(f"repetition failed (exit {proc.returncode}):\n{proc.stderr}\n")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_first"] - t_spawn
    return result


def quantile(values, q):
    """Nearest-rank quantile of a nonempty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def steps_per_s(results):
    """One over the upper quartile of the time per step.

    On a shared host the machine's speed comes in fast bursts and single
    steps stall; the upper quartile keeps both out. Timed steps are taken
    in consecutive pairs, since the filter's steps alternate between a
    shorter and a longer one. Where the benchmark does not time single
    steps (``simulate``), each repetition is one sample.
    """
    samples = []
    for r in results:
        step_ns = r.get("timed_step_ns")
        if step_ns is None:
            samples.append(r["timed_ns"] / r["steps"])
        else:
            samples += [(a + b) / 2 for a, b in zip(step_ns[::2], step_ns[1::2])]
    if len(samples) == 1:
        return 1e9 / samples[0]
    return 1e9 / statistics.quantiles(samples, n=4, method="inclusive")[2]


def end_to_end(results):
    return {
        "steps_per_s": (steps_per_s(results), "steps/s"),
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MiB"),
    }


def per_layer(plain, traced):
    steps = sum(r["steps"] for r in traced)
    layers = {}
    for r in traced:
        for name, rec in r["layers"].items():
            acc = layers.setdefault(name, dict.fromkeys(rec, 0))
            for key, value in rec.items():
                acc[key] += value
    step_ms = [ns / 1e6 for r in traced for ns in r["step_ns"]]
    region = sum(r["timed_ns"] for r in traced)
    everyone = plain + traced
    all_steps = sum(r["steps"] for r in everyone)
    derived = {
        "p50": quantile(step_ms, 0.50) if step_ms else 0.0,
        "p99": quantile(step_ms, 0.99) if step_ms else 0.0,
        "samples": len(step_ms),
        "rank_deficit": sum(r["rank_deficit"] for r in everyone) / all_steps,
        "chi_gt1": sum(r["chi_gt1"] for r in everyone) / all_steps,
        "overhead": (steps_per_s(traced) - steps_per_s(plain)) / steps_per_s(plain),
        "uncovered": (region - sum(r["covered_ns"] for r in traced)) / region,
    }
    out = {}
    for name, (unit, layer, what) in LAYER_METRICS.items():
        acc = layers.get(layer, {"region_self_ns": 0, "region_calls": 0, "total_ns": 0})
        if layer is None:
            value = derived[what]
        elif what == "ms":
            value = acc["region_self_ns"] / 1e6 / steps
        elif what == "calls":
            value = acc["region_calls"] / steps
        else:
            value = acc["total_ns"] / 1e6 / len(traced)
        out[name] = (value, unit)
    return out


def same_files(a, b):
    names = sorted(os.listdir(a))
    return names == sorted(os.listdir(b)) and all(
        (Path(a) / n).read_bytes() == (Path(b) / n).read_bytes() for n in names
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "enkf_lab" / "__init__.py").is_file():
        print(f"bench: no enkf_lab sources under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    env = child_env()
    facts = machine_facts(env)
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    plain, traced = [], []
    attempted = failed = 0
    n = wl["seeds"]
    # A group is one repetition, or with --trace 1 an untraced and a traced
    # one on the same seeds. Groups run while the next one, predicted to
    # last as long as the previous, still ends within --seconds.
    start = time.monotonic()
    last = 0.0
    for k in range(MAX_REPS):
        t_group = time.monotonic()
        if k and t_group + last - start > args.seconds:
            break
        done = []
        for trace in (False, True)[: 1 + args.trace]:
            tag = f"rep{k}" + ("-traced" if trace else "")
            result = run_rep(dict(
                wl,
                workload=args.workload,
                T=TINY_T if args.tiny else wl["T"],
                seeds=[args.seed * 1000 + k * n + j for j in range(n)],
                trace=trace,
                config_path=str(out_dir / f"{tag}.json"),
                out_dir=str(out_dir / tag),
                spans_path=str(out_dir / f"{tag}.spans.jsonl"),
            ), env)
            if result is None:
                attempted += 1
                failed += 1
                continue
            result["traced"] = trace
            done.append(out_dir / tag)
            for check in result["checks"]:
                attempted += 1
                failed += not check["ok"]
            (traced if trace else plain).append(result)
        if wl["kind"] == "simulate" and len(done) == 2:
            attempted += 1
            failed += not same_files(*done)
        last = time.monotonic() - t_group

    if not plain or (args.trace and not traced):
        print("bench: no repetition completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(plain, traced)
        attempted += 1
        failed += not metrics["trace.uncovered_frac"][0] <= UNCOVERED_MAX
    else:
        metrics = end_to_end(plain)
        metrics["check_pass_frac"] = ((attempted - failed) / attempted, "fraction")

    print(json.dumps({"machine": facts}))
    print(json.dumps({
        "workload": args.workload,
        "steps": sum(r["steps"] for r in plain + traced),
        "rank_deficit": sum(r["rank_deficit"] for r in plain + traced),
        "chi_gt1": sum(r["chi_gt1"] for r in plain + traced),
        "repetitions": [
            {"traced": r["traced"], "inputs": r["inputs"], "setup_s": r["setup_s"],
             "steps_per_s": steps_per_s([r]), "peak_rss_mb": r["peak_rss_mb"],
             "checks": {c["name"]: c["value"] for c in r["checks"]}}
            for r in sorted(plain + traced, key=lambda r: r["t_first"])
        ],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
