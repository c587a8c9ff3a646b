"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/spread.py --workloads train unlearn audit --seeds 0-9

Each run is a separate process, made one after another from the
repository root. For every end-to-end metric the tool prints the median
of its values over the runs, the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, and that share against the metric's bound from BENCHMARK.json.
The determinism facts of runs that share a workload and seed must be
identical; every result must be correct. The values are written to
``.bench_out/spread.json``. Exits 1 when a check fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return result, report["facts"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]

    ok = True
    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        facts_by_seed: dict[int, dict] = {}
        for seed in args.seeds:
            result, facts = run_once(workload, seed, spec["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result", flush=True)
                ok = False
            if facts_by_seed.setdefault(seed, facts) != facts:
                print(f"{workload} seed {seed}: facts differ between runs", flush=True)
                ok = False
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        summary[workload] = values
        if len(args.seeds) < 2:
            continue
        for m in metrics:
            vals = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            share = (q3 - q1) / med
            steady = share < m["bound"] / 3
            ok &= share <= m["bound"]
            print(f"  {workload:8s} {m['name']:12s} median {med:12.6g} {m['unit']:3s} "
                  f"spread {share:6.3f} bound {m['bound']:.2f} {'' if steady else 'NOT STEADY'}")
    (ROOT / ".bench_out" / "spread.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
