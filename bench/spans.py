"""Outside-in span tracer for the benchmark's traced repetitions.

The tracer wraps public functions of ``enkf_lab`` by rebinding the module
or class attribute that each caller looks up at call time, so the program
itself is unchanged. Spans nest on a stack: a span's self time is its
duration minus the time its child spans cover, so the self times of all
spans inside a timed region add up to the region minus the gaps between
top-level spans (the uncovered remainder).

Spans stay in memory while the repetition runs and are written out once
it ends.
"""

import functools
import json
import time
from collections import defaultdict

from enkf_lab import cli, diagnostics, effective_dim, enkf, models, reference


# (owner, attribute, layer) for every call the traced run times. Each owner
# is the module or class whose attribute the caller reads at call time:
# ``enkf.make_gain_context`` is the name ``enkf`` looks up, and
# ``diagnostics.loewner_ratio`` counts only the calls the diagnostics make.
TARGETS = [
    (cli, "cli_main", "cli.self"),
    (cli, "run_filter_experiment", "diagnostics.driver"),
    (cli, "write_csv", "diagnostics.write"),
    (cli, "write_json", "diagnostics.write"),
    (cli, "stationary_riccati_ambient", "reference.stationary"),
    (reference, "stationary_riccati_ambient", "reference.stationary"),
    (effective_dim, "verify_dim_observed", "effective_dim.verify"),
    (models, "simulate_truth", "models.truth"),
    (diagnostics, "simulate_truth", "models.truth"),
    (models.CoefficientStream, "at", "models.coeffs"),
    (enkf, "sample_noise", "models.noise"),
    (enkf.EnkfFilter, "step", "enkf.filter"),
    (enkf, "enkf_forecast", "enkf.forecast"),
    (enkf, "enkf_assimilate", "enkf.assimilate"),
    (enkf, "sigma_plus_factor", "enkf.sigma_plus"),
    (enkf, "eigh_desc", "linalg.gram_eig"),
    (enkf, "top_p_projection", "linalg.projection"),
    (enkf, "make_gain_context", "linalg.gain_context"),
    (enkf, "gain_apply_woodbury", "linalg.gain_apply"),
    (diagnostics, "compute_lambda_mu", "diagnostics.lambda_mu"),
    (diagnostics, "compute_nu", "diagnostics.nu"),
    (diagnostics, "loewner_ratio", "linalg.loewner"),
    (diagnostics, "mahalanobis_sq", "linalg.maha"),
]


class Tracer:
    """Records one span per wrapped call: layer, ids, start, end, self time."""

    def __init__(self):
        self.spans = []
        self.in_region = False  # set by the workload around its timed calls
        self._stack = []  # [span id, start ns, ns covered by children]
        self._next_id = 0

    def wrap(self, layer, fn):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [self._next_id, 0, 0]
            self._next_id += 1
            in_region = self.in_region
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                self.spans.append(
                    (layer, frame[0], parent, frame[1], end, dur - frame[2], in_region)
                )

        return traced

    def install(self):
        """Rebind every target that exists; a missing one is skipped."""
        for owner, attr, layer in TARGETS:
            fn = owner.__dict__.get(attr)
            if callable(fn):
                setattr(owner, attr, self.wrap(layer, fn))

    def summary(self):
        """Per-layer totals, in-region coverage, and in-region step times.

        ``region_self_ns`` and ``region_calls`` count spans that started in
        the timed region; ``total_ns`` sums whole durations (children
        included) over the repetition, set-up and timed region alike.
        """
        layers = defaultdict(lambda: {"region_self_ns": 0, "region_calls": 0, "total_ns": 0})
        covered = 0
        step_ns = []
        for layer, _, _, start, end, self_ns, in_region in self.spans:
            acc = layers[layer]
            acc["total_ns"] += end - start
            if in_region:
                acc["region_self_ns"] += self_ns
                acc["region_calls"] += 1
                covered += self_ns
                if layer == "enkf.filter":
                    step_ns.append(end - start)
        return {"layers": dict(layers), "covered_ns": covered, "step_ns": step_ns}

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
