"""Run the workloads of BENCHMARK.json on seeds 1 to 10 and record the figures.

    python3 bench/baseline.py [--out FILE]

For each workload this runs ``run.py`` once per seed with tracing off and
once with tracing on (seed 1), then writes, per end-to-end metric, the
values, their median and quartiles and the spread (quartile distance over
the median, as ``statistics.quantiles(values, n=4)`` gives them) next to the
metric's bound; the traced run's per-layer metrics; failing ops by name;
and the environment.  Runs are sequential, from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = parser.parse_args(argv)

    doc = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values, failures = {}, {}
        for seed in SEEDS:
            details, result = run(workload, seed, spec["run_seconds"], 0)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            failures.update(details["failures"])
            doc["environment"] = details["environment"]
        end_to_end = {}
        for metric in spec["end_to_end"]:
            v = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(v, n=4)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "bound": metric["bound"], "median": median,
                "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": v,
            }
        traced_details, traced = run(workload, SEEDS[0], spec["run_seconds"], 1)
        doc["workloads"][workload] = {
            "end_to_end": end_to_end,
            "failures": failures,
            "tail_percentile": details["op_s.tail"],
            "p50_op": details["p50_op"],
            "tail_op": details["tail_op"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_failures": traced_details["failures"],
        }
        for name, row in end_to_end.items():
            print(f"{workload:16s} {name:12s} median {row['median']:.4g} {row['unit']}"
                  f"  spread {row['spread']:.3f}  bound {row['bound']}", file=sys.stderr)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
