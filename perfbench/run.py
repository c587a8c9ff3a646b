"""unlearnlab benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload {train,unlearn,audit} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the library is imported from ``src/``.
Rounds of the workload's fixed op list run until ``--seconds`` of
rounds have passed (at least three rounds). Every op's output is
checked, and its deterministic facts must repeat exactly in every
round. The workload is set up before the first round and again at
even intervals between rounds; set-up time is the median of these.

On a shared 2-vCPU virtual machine (Intel Xeon, 2.1 GHz), the machine
ran slower for seconds to minutes at a time, on both vCPUs at once (the
same epoch took 35 ms or 60 ms, with CPU time equal to wall time). So
an op's time is the fastest repeat of its label within the run. Ops
that do the same work share a label (the epochs of ``train``, each
command of ``audit``, the passes of one kind of unlearning request),
which gives the fastest repeat many samples. Even so, the fastest
repeat of a 17-35 ms op moved by up to 27% from run to run, with the
load. A fixed pure-numpy kernel (``floor.reference_kernel``) is
therefore timed after every op, and op times are reported at the speed
the machine had when the benchmark was defined: each is multiplied by
``floor.REFERENCE_S`` over the kernel's fastest time in the run. Over
15-second windows of one long run this nearly halved the run-to-run standard
deviation of ``run_s`` (6.6% of the median down to 3.6%). A change to
the library speeds up or slows down the ops, not the kernel, so it
shows in full. Successive rounds and set-ups run pinned to successive
usable CPUs, and a full garbage collection before every round makes
each round's collections fall on the same ops. ``run_s`` is the sum of
the scaled times over a round's ops, and ``op_p50_ms`` their median;
the report also gives the unscaled sum and the kernel's time.

With ``--trace 0`` the result reports the end-to-end metrics of
``BENCHMARK.json``. With ``--trace 1`` untraced and traced rounds take
turns (see tracing.py), and the result reports the per-layer
metrics, every count and time given per round, plus the tracing
overhead and the pure-numpy step floor (see floor.py).

The last line of standard output is the result object; the lines
before it give the metrics with units, the determinism facts and the
machine. The full report goes to ``.bench_out/``.
"""
from __future__ import annotations

import os

# No matrix here exceeds 2,000 x 32, so BLAS runs single-threaded; it
# must be set before numpy loads.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CPUS = sorted(os.sched_getaffinity(0))
MIN_ROUNDS = 3
# At most this share of the traced rounds may fall outside every layer.
UNATTRIBUTED_LIMIT = 0.02


class SetUps:
    """Timed set-ups of one workload; each must give the same facts."""

    def __init__(self, workload):
        self.workload = workload
        self.times: list[float] = []
        self.facts: list[dict] = []

    def __call__(self) -> None:
        os.sched_setaffinity(0, {CPUS[len(self.times) % len(CPUS)]})
        start = time.perf_counter()
        self.facts.append(self.workload.setup())
        self.times.append(time.perf_counter() - start)
        os.sched_setaffinity(0, set(CPUS))


class Phase:
    """Rounds of one workload, timed and checked."""

    def __init__(self):
        self.rounds: list[float] = []
        self.labels: list[str] = []
        self.latencies: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.facts: dict[str, dict] = {}
        self.counts: Counter = Counter()
        self.reference: list[float] = []

    def fastest(self) -> list[float]:
        """The fastest repeat of each op's label, for the ops of a round."""
        return [min(self.latencies[label]) for label in self.labels]


def run_round(workload, phase: Phase, tracer=None, reference=None) -> None:
    """Run, time and check one round of the workload's ops, timing the
    `reference` kernel after each op when one is given."""
    results = []
    seen: Counter = Counter()
    ops = workload.ops()
    gc.collect()
    if tracer is not None:
        tracer.active = True
        tracer.begin("bench.round")
    start = time.perf_counter()
    for label, fn in ops:
        if tracer is not None:
            tracer.op_id += 1
            tracer.begin("bench.op")
        t0 = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # an op that raises is a failed op
            out, err = None, exc
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
        if reference is not None:
            t0 = time.perf_counter()
            reference()
            phase.reference.append(time.perf_counter() - t0)
        phase.latencies.setdefault(label, []).append(latency)
        results.append((label, f"{label}.{seen[label]}", out, err))
        seen[label] += 1
    phase.rounds.append(time.perf_counter() - start)
    phase.labels = [label for label, *_ in results]
    if tracer is not None:
        tracer.end()
        tracer.active = False
    for label, key, out, err in results:
        phase.attempted += 1
        if err is not None:
            problems, facts, counts = [f"{label}: raised {type(err).__name__}: {err}"], None, {}
        else:
            problems, facts, counts = workload.check(label, out)
        if facts is not None and phase.facts.setdefault(key, facts) != facts:
            problems.append(f"{key}: facts differ from the first round: {facts}")
        phase.counts.update(counts)
        if problems:
            phase.failed += 1
            phase.problems.extend(problems)


def measure(workload, seconds: float, setups: SetUps, reference) -> Phase:
    """Run rounds for `seconds` of round time, setting up again between
    rounds until `setups` holds the workload's set-up repeats."""
    phase = Phase()
    while len(phase.rounds) < MIN_ROUNDS or sum(phase.rounds) < seconds:
        if len(setups.times) < workload.setup_repeats and (
            sum(phase.rounds) >= len(setups.times) * seconds / workload.setup_repeats
        ):
            setups()
        os.sched_setaffinity(0, {CPUS[len(phase.rounds) % len(CPUS)]})
        run_round(workload, phase, reference=reference)
    os.sched_setaffinity(0, set(CPUS))
    return phase


def measure_traced(workload, seconds: float, ul, tracer) -> tuple[Phase, Phase]:
    """Run pairs of rounds, one untraced and one traced, on the same CPU,
    so that both kinds see the same machine; returns both phases."""
    untraced, traced = Phase(), Phase()
    while len(traced.rounds) < MIN_ROUNDS or sum(untraced.rounds + traced.rounds) < seconds:
        os.sched_setaffinity(0, {CPUS[len(traced.rounds) % len(CPUS)]})
        run_round(workload, untraced)
        with tracer.installed(ul):
            run_round(workload, traced, tracer)
    os.sched_setaffinity(0, set(CPUS))
    return untraced, traced


def end_to_end(floor, setups: SetUps, phase: Phase) -> dict[str, float]:
    # Op times at the speed of the machine the benchmark was defined on.
    speed = floor.REFERENCE_S / min(phase.reference)
    fastest = [t * speed for t in phase.fastest()]
    return {
        "setup_s": statistics.median(setups.times),
        "run_s": sum(fastest),
        "op_p50_ms": statistics.median(fastest) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(ul, floor, tracing, workloads, tracer, phase: Phase, untraced: Phase, seed: int) -> tuple[dict, list]:
    rounds = len(phase.rounds)
    metrics = tracer.layer_metrics(rounds)
    metrics["cli.bytes_written"] = phase.counts["cli.bytes_written"] / rounds
    traced_s = sum(phase.rounds)
    layers_s = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) * rounds
    metrics["trace.run_s"] = sum(phase.fastest())
    metrics["trace.untraced_run_s"] = sum(untraced.fastest())
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    metrics["trace.self_coverage"] = layers_s / traced_s
    problems = []
    if metrics["bench.self_s"] * rounds > UNATTRIBUTED_LIMIT * traced_s:
        problems.append(
            f"{metrics['bench.self_s'] * rounds:.4f} s of {traced_s:.4f} s traced is in no layer"
        )

    arch = workloads.conftest_arch(ul)
    data, _ = workloads.synthetic(ul, seed)
    if not floor.check_gradients(ul, arch, data, seed):
        problems.append("floor gradients differ from GradTape.gradient")
    metrics["floor.step_us"] = floor.step_us(ul, arch, data, seed, workloads.TRAIN_LR, epochs=20)
    return metrics, problems


def machine_facts(np, scipy) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def run_facts(setup_facts: dict, phase: Phase) -> dict:
    """Deterministic facts of a run: equal across runs with equal seeds."""
    ops = phase.facts
    facts: dict = {"setup": setup_facts, "ops": ops}
    steps = sum(f.get("gradient_steps", 0) for f in ops.values())
    if steps:
        facts["gradient_steps_per_round"] = steps
    goals = [f["goal_met"] for f in ops.values() if "goal_met" in f]
    if goals:
        facts["goal_met_frac"] = sum(goals) / len(goals)
    retained = [f["retained_acc"] for f in ops.values() if "retained_acc" in f]
    if retained:
        facts["retained_acc"] = statistics.fmean(retained)
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "unlearnlab" / "__init__.py").is_file():
        print(f"error: no unlearnlab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import unlearnlab as ul
    import unlearnlab.cli  # noqa: F401  (the audit workload drives ul.cli.main)

    import floor
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS or args.seed < 0 or args.seconds <= 0:
        print("error: unknown workload, negative seed or no time to measure", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ul, args.seed, workdir)
        setups = SetUps(workload)
        setups()
        problems: list[str] = []
        if args.trace:
            tracer = tracing.Tracer()
            untraced, phase = measure_traced(workload, args.seconds, ul, tracer)
            metrics, trace_problems = per_layer(
                ul, floor, tracing, workloads, tracer, phase, untraced, args.seed
            )
            problems += trace_problems
            if untraced.facts != phase.facts:
                problems.append("traced results differ from untraced results")
            tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.tsv")
            untraced_functions = tracer.missing
            phases = [untraced, phase]
        else:
            phase = measure(workload, args.seconds, setups, floor.reference_kernel())
            metrics = end_to_end(floor, setups, phase)
            untraced_functions = []
            phases = [phase]
        if any(f != setups.facts[0] for f in setups.facts):
            problems.append(f"set-up results differ between repeats: {setups.facts}")
        for p in phases:
            problems += p.problems

        wanted = spec["per_layer" if args.trace else "end_to_end"]
        if set(metrics) != {m["name"] for m in wanted}:
            raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
        steps = sum(f.get("gradient_steps", 0) for f in phase.facts.values())
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            "attempted": sum(p.attempted for p in phases),
            "failed": sum(p.failed for p in phases),
            "rounds": len(phase.rounds),
            "ops": phase.attempted,
            "sgd_steps_per_s": steps / sum(phase.fastest()),
            "raw_run_s": sum(phase.fastest()),
            "reference_fastest_ms": min(phase.reference) * 1e3 if phase.reference else None,
            "setup_s": setups.times,
            "round_s": phase.rounds,
            "op_fastest_ms": {k: min(v) * 1e3 for k, v in phase.latencies.items()},
            "op_median_ms": {k: statistics.median(v) * 1e3 for k, v in phase.latencies.items()},
            "facts": run_facts(setups.facts[0], phase),
            "machine": machine_facts(np, scipy),
            "untraced_functions": untraced_functions,
            "problems": problems,
        }
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=2) + "\n"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{report['rounds']} rounds, {report['ops']} ops, "
          f"{report['sgd_steps_per_s']:.1f} SGD steps/s at each op's fastest")
    if report["reference_fastest_ms"] is not None:
        print(f"  unscaled run_s {report['raw_run_s']:.6g} s, "
              f"reference kernel {report['reference_fastest_ms']:.6g} ms at its fastest")
    for name, m in report["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    for problem in problems[:20]:
        print(f"  PROBLEM {problem}")
    print("facts " + json.dumps(report["facts"], sort_keys=True))
    print("machine " + json.dumps(report["machine"], sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
