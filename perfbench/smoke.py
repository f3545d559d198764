"""Smoke test of the benchmark itself, at its smallest size.

    python3 perfbench/smoke.py

Checks, on the `oracles` workload (the shortest) with a one-second window:

* an untraced run prints every end-to-end metric of BENCHMARK.json with its
  unit, and the run is correct;
* two traced runs print every per-layer metric with its unit, and their
  counts (every metric whose unit is not a time) repeat exactly.

The file name keeps it out of pytest's default collection, so tier-1 runs
never start it.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIME_UNITS = {"s", "ms"}
WORKLOAD = "oracles"


def _run(trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", WORKLOAD,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)


def _result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"result keys {sorted(out)}")
    if out["correct"] is not True or out["attempted"] < 1:
        raise AssertionError(f"result not correct: {out}")
    return out


def _same_metrics(out, wanted, what):
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    want = {m["name"]: m["unit"] for m in wanted}
    if got != want:
        raise AssertionError(f"{what} metrics differ from BENCHMARK.json: "
                             f"missing {sorted(set(want) - set(got))}, "
                             f"extra {sorted(set(got) - set(want))}, "
                             f"units {[k for k in want if k in got and got[k] != want[k]]}")
    for k, v in out["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            raise AssertionError(f"{k} is not a number: {v}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    plain = _result(_run(0))
    _same_metrics(plain, spec["end_to_end"], "end-to-end")
    print("ok: end-to-end metrics and units")

    first, second = (_result(_run(1)) for _ in range(2))
    _same_metrics(first, spec["per_layer"], "per-layer")
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] not in TIME_UNITS]
    moved = [k for k in counts
             if first["metrics"][k]["value"] != second["metrics"][k]["value"]]
    if moved:
        raise AssertionError(f"traced counts differ between two runs: {moved}")
    print(f"ok: per-layer metrics and units; {len(counts)} counts repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
