"""Run the full benchmark and write one trajectory point.

Run from the repository root::

    python3 perfbench/trajectory.py --out perfbench/trajectory/BENCH_<n>.json

For every workload in ``BENCHMARK.json`` it makes one untraced run for each
of the seeds 1 to 10 and one traced run with seed 1, each as its own process exactly as
``BENCHMARK.json``'s command. Per end-to-end metric it reports the median of
the runs and their spread: the distance between the first and third
quartile as a share of the median.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def bench(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One run as its own process: the result line and the run's record."""
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr}")
    record = out.stderr.rsplit("perfbench: record in ", 1)[1].split()[0]
    return (json.loads(out.stdout.strip().splitlines()[-1]),
            json.loads((ROOT / record / "record.json").read_text()))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            runs.append(bench(spec, workload, seed, 0)[0])
            print(workload, seed, json.dumps(runs[-1]), file=sys.stderr, flush=True)
        traced, record = bench(spec, workload, SEEDS[0], 1)
        point["environment"] = record["environment"]
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bound, "unit": runs[0]["metrics"][name]["unit"]}
            print(f"{workload:14s} {name:12s} median {summary[name]['median']:10.4f} "
                  f"spread {summary[name]['spread']:.3f} (bound {bound})", file=sys.stderr)
        point["workloads"][workload] = {
            "end_to_end": summary,
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "runs": runs,
            "traced": traced,
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=1) + "\n")


if __name__ == "__main__":
    main()
