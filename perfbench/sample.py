"""One benchmark sample in a fresh interpreter; prints one JSON line.

    python3 perfbench/sample.py --workload NAME --seed N --mode setup|run|trace
                                --t0 MONOTONIC --ref SECONDS --out-dir DIR
                                [--trace-file FILE]

`--t0` is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes), so set-up time counts the
interpreter start, the germlab import and building the inputs.  `--ref` is
the reference-loop time the parent measured just before (see speed.py).
`setup` mode stops there; `run` also times the workload and checks its
outputs; `trace` does the same with the per-layer wrappers installed around
the timed call only.  Times are reported in wall seconds and in reference
seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class ColdStateError(RuntimeError):
    """The engine's module-level cache was warm before the first timed call,
    or could not be found."""


def _sqmeas_cache() -> dict:
    """The engine's sqmeas cache; a run without it cannot check cold state."""
    from germlab import orbital
    cache = getattr(orbital, "_SQMEAS_CACHE", None)
    if cache is None:
        raise ColdStateError("germlab.orbital._SQMEAS_CACHE not found; update the "
                             "cold-state guard and orbital.sqmeas.cache_entries")
    return cache


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--ref", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--trace-file")
    ns = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import germlab
    if not os.path.abspath(germlab.__file__).startswith(SRC + os.sep):
        print(f"germlab was imported from {germlab.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    wl = workloads.WORKLOADS[ns.workload]
    inputs = wl.build(ns.seed, ns.out_dir)
    setup_wall_s = time.monotonic() - ns.t0
    ref = (ns.ref + speed.reference_speed(3)) / 2
    setup = {"setup_wall_s": setup_wall_s, "setup_s": setup_wall_s * speed.NOMINAL_S / ref}
    if ns.mode == "setup":
        print(json.dumps(setup))
        return 0

    cache = _sqmeas_cache()
    if cache:
        raise ColdStateError(f"_SQMEAS_CACHE holds {len(cache)} entries before the run")
    tracer = None
    if ns.mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(extra_namespaces=[workloads])
    try:
        with speed.Speedometer(tracer.exclude if tracer else None) as meter:
            result = wl.run(inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run_s = meter.reference_s
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    figures = None
    if tracer is not None:
        figures = tracer.counts(len(_sqmeas_cache()))
        figures["trace.run_s"] = run_s
    checked = wl.check(inputs, result)
    if tracer is not None and ns.trace_file:
        tracer.dump(ns.trace_file, figures)

    print(json.dumps({
        **setup, "run_s": run_s, "run_wall_s": meter.wall_s, "peak_rss_mb": peak_kb / 1024.0,
        "ops": checked.ops, "failed": checked.failed, "digest": checked.digest,
        "problems": checked.problems, "figures": figures}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
