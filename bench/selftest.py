"""Smoke test of the benchmark at tiny size (3 filter steps per repetition).

Usage, from the repository root: ``python3 bench/selftest.py``

For every workload it runs ``bench/run.py --tiny`` untraced and traced and
checks that the result line has exactly the contract's keys and every
metric of ``BENCHMARK.json`` with its unit. It then shows that the same
seed reproduces the same inputs and check values, and that another seed
changes the inputs. The tiny runs are too short for the statistical
checks to pass, so ``correct`` is not asserted here. Exits 0 when all
assertions hold.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def first_plain(info):
    rep = next(r for r in info["repetitions"] if not r["traced"])
    return rep["inputs"], rep["checks"]


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            info, result = run(name, 3, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, sorted(set(got) ^ set(want)))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            if trace == 0:
                same = first_plain(info)
        again = first_plain(run(name, 3, 0)[0])
        other = first_plain(run(name, 4, 0)[0])
        assert again == same, (name, same, again)
        assert other[0] != same[0], (name, "seed 4 gave the inputs of seed 3")
        print(f"{name}: metrics and units match; seed 3 reproduces {same[1]}; "
              f"seed 4 changes inputs {same[0]} -> {other[0]}")
    print("selftest passed")


if __name__ == "__main__":
    main()
