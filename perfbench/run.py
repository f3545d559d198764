"""germlab benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every sample is a fresh interpreter
(perfbench/sample.py), because a user pays for a cold process on every
`germlab verify` call and germlab keeps module-level caches.  Samples run
one after another from this single process, never in parallel.

--trace 0: a few set-up-only interpreters, then whole samples until the next
one would end after S seconds (at least one).  Reports the medians of the
end-to-end metrics.
--trace 1: one untraced and one traced sample of the same inputs.  Reports
the per-layer metrics of the traced one and the tracing overhead, and writes
its spans to .perfbench_out/trace-<workload>-<seed>.json.

Both modes check every sample's outputs, require all samples (traced or not)
to give the same report digest, and print one JSON object as the last line.
Metric names and units come from BENCHMARK.json at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5          # set-up-only interpreters per untraced run
DEADLINE_S = 170.0        # a run must end within 180 s


class SampleFailed(RuntimeError):
    pass


def _spawn(workload, seed, mode, out_dir, deadline, trace_file=None) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    ref = speed.reference_speed()
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--t0", repr(t0), "--ref", repr(ref),
           "--out-dir", out_dir]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise SampleFailed(f"{mode} sample passed the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleFailed(f"{mode} sample exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    shutil.rmtree(out_dir, ignore_errors=True)
    return out


def _summary(name, values, unit):
    med = statistics.median(values)
    if len(values) < 3:     # too few samples for quartiles; spread is across runs only
        quartiles = "q1 n/a  q3 n/a"
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
        quartiles = f"q1 {q1:.6g}  q3 {q3:.6g}"
    print(f"{name}: median {med:.6g} {unit}  {quartiles}  n={len(values)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    if ns.workload not in workloads:
        print(f"unknown workload {ns.workload!r}; one of {workloads}", file=sys.stderr)
        return 2

    run_dir = os.path.join(OUT, f"run-{os.getpid()}")
    try:
        if ns.trace:
            samples, metrics = _traced(ns, spec, run_dir, deadline)
        else:
            samples, metrics = _untraced(ns, spec, run_dir, deadline)
    except SampleFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = [p for s in samples for p in s["problems"]]
    if len({(s["digest"], s["ops"], s["failed"]) for s in samples}) != 1:
        problems.append("samples of one input gave different reports: "
                        + ", ".join(f"{s['digest'][:12]}/{s['ops']}/{s['failed']}"
                                    for s in samples))
    for p in problems:
        print(f"check failed: {p}")
    correct = not problems
    print(json.dumps({"correct": correct,
                      "attempted": sum(s["ops"] for s in samples),
                      "failed": sum(s["failed"] for s in samples),
                      "metrics": metrics}))
    return 0 if correct else 1


def _untraced(ns, spec, run_dir, deadline):
    start = time.monotonic()
    setups = [_spawn(ns.workload, ns.seed, "setup", os.path.join(run_dir, f"setup-{i}"),
                     deadline) for i in range(SETUP_PROBES)]
    samples, walls = [], []
    while True:
        t = time.monotonic()
        samples.append(_spawn(ns.workload, ns.seed, "run",
                              os.path.join(run_dir, f"sample-{len(samples)}"), deadline))
        walls.append(time.monotonic() - t)
        if time.monotonic() - start + max(walls) > ns.seconds:
            break
    setups += samples
    series = {
        "setup_s": [s["setup_s"] for s in setups],
        "run_s": [s["run_s"] for s in samples],
        "ops_per_s": [s["ops"] / s["run_s"] for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }
    metrics = {}
    for m in spec["end_to_end"]:
        _summary(m["name"], series[m["name"]], m["unit"])
        metrics[m["name"]] = {"value": statistics.median(series[m["name"]]), "unit": m["unit"]}
    _summary("setup wall time", [s["setup_wall_s"] for s in setups], "s")
    _summary("run wall time", [s["run_wall_s"] for s in samples], "s")
    print(f"operations per sample: {samples[0]['ops']} attempted, {samples[0]['failed']} failed")
    return samples, metrics


def _traced(ns, spec, run_dir, deadline):
    plain = _spawn(ns.workload, ns.seed, "run", os.path.join(run_dir, "plain"), deadline)
    os.makedirs(OUT, exist_ok=True)
    trace_file = os.path.join(OUT, f"trace-{ns.workload}-{ns.seed}.json")
    traced = _spawn(ns.workload, ns.seed, "trace", os.path.join(run_dir, "traced"),
                    deadline, trace_file=trace_file)
    figures = dict(traced["figures"])
    figures["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    # every figure is printed; the JSON keeps the per-layer metrics, which
    # leave out self times of functions that some workloads never call
    for name, value in sorted(figures.items()):
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else "count"
        print(f"{name}: {value:.6g} {unit}")
    metrics = {}
    for m in spec["per_layer"]:
        if m["name"] not in figures:
            raise SampleFailed(f"the traced sample gave no figure for {m['name']}")
        metrics[m["name"]] = {"value": figures[m["name"]], "unit": m["unit"]}
    print(f"untraced run_s {plain['run_s']:.6g} s, traced run_s {traced['run_s']:.6g} s; "
          f"spans in {os.path.relpath(trace_file, ROOT)}")
    return [plain, traced], metrics


if __name__ == "__main__":
    sys.exit(main())
