"""The four benchmark workloads: inputs from a seed, the timed call, the checks.

A workload is built in three steps inside one fresh interpreter:

* ``build(seed, out_dir)`` makes the inputs (part of set-up time);
* ``run(inputs)`` is the timed call into germlab;
* ``check(inputs, result)`` reads the outputs back, counts operations and
  failures, hashes the deterministic report content and runs the
  workload's own correctness checks (untimed, and never traced).

Why each workload exists is written in NOTES.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

from germlab import cli
from germlab.errors import GermlabError
from germlab.lcfunc import indicator_lattice
from germlab.orbital import ss_orbital
from germlab.padic import FieldConfig, legendre
from germlab.sl2 import Sl2Element, random_conjugate, rep_elliptic
from germlab.tree import BASE, ball, distance


class Checked:
    """Outcome of one sample's checks."""

    def __init__(self, ops: int, failed: int, digest: str, problems: list):
        self.ops = ops
        self.failed = failed
        self.digest = digest
        self.problems = problems


# -- workloads driven through the command line ---------------------------------


def _call_cli(argvs):
    """Run `germlab` once per argv in this process; the exit codes."""
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            codes.append(cli.main(argv))
    return codes


def _report_digest(out_dirs) -> str:
    """sha256 of every report file, without the embedded run configuration.

    The `config` block of a JSON report and the `# config:` header of a CSV
    report embed the --out path, which differs between samples, so both are
    left out; rows and values are all kept.
    """
    h = hashlib.sha256()
    for i, d in enumerate(out_dirs):
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name)) as fh:
                text = fh.read()
            if name.endswith(".json"):
                doc = json.loads(text)
                doc.pop("config", None)
                text = json.dumps(doc, sort_keys=True)
            elif name.endswith(".csv") and text.startswith("# config:"):
                text = text.split("\n", 1)[1]
            h.update(f"{i}/{name}\n{text}\n".encode())
    return h.hexdigest()


def _load(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _csv_rows(out_dir: str, name: str) -> list:
    with open(os.path.join(out_dir, name)) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


class CliSuite:
    """Suites of `germlab verify`, one argv per configuration."""

    def __init__(self, configs, report):
        self.configs = configs          # [(global flags, suite, r)]
        self.report = report            # file stem of the report, given r

    def build(self, seed: int, out_dir: str):
        argvs, dirs = [], []
        for i, (flags, suite, r) in enumerate(self.configs):
            d = os.path.join(out_dir, str(i))
            os.makedirs(d, exist_ok=True)
            argv = list(flags) + ["verify", suite, "--seed", str(seed), "--out", d]
            if r is not None:
                argv += ["--r", str(r)]
            argvs.append(argv)
            dirs.append(d)
        return argvs, dirs

    def run(self, inputs):
        return _call_cli(inputs[0])

    def check(self, inputs, codes) -> Checked:
        _argvs, dirs = inputs
        ops = failed = 0
        problems = []
        for (flags, suite, r), d, code in zip(self.configs, dirs, codes):
            if code not in (0, 1):
                problems.append(f"{suite} {flags}: exit code {code}")
                continue
            stem = self.report(r)
            doc = _load(d, stem + ".json")
            if suite == "oracles":
                rows = doc["rows"] + [t for t in doc["tree"] if "case" in t]
                bad = sum(1 for t in rows if not t["pass"])
            else:
                rows = _csv_rows(d, stem + ".csv")
                bad = sum(1 for t in rows if t[-1] == "fail")
                if len(rows) != doc["rows"]:
                    problems.append(f"{stem}: {len(rows)} CSV rows, JSON says {doc['rows']}")
                if bad != doc["failures"]:
                    problems.append(f"{stem}: {bad} failing CSV rows, JSON says {doc['failures']}")
                # a row passes exactly when its residual is zero
                for t in rows:
                    if (t[-1] == "pass") != (Fraction(t[-2]) == 0):
                        problems.append(f"{stem}: row {t[:2]} verdict disagrees with residual")
                        break
            if code != (1 if bad else 0):
                problems.append(f"{stem}: exit code {code} with {bad} failing rows")
            ops += len(rows)
            failed += bad
        return Checked(ops, failed, _report_digest(dirs), problems)


# -- off-base cells: ss_orbital on cosets of g_{v,n} with v away from the base ----


P = 5


def _to_base(v, a, b, c):
    """Entries of Ad(g_v^{-1}) ((a, b), (c, -a)), g_v = ((1, 0), (x, p^m))."""
    x, pm = v.x, Fraction(P) ** v.m
    a2 = a + b * x
    return a2, b * pm, (c - x * a - x * a2) / pm


class OffBase:
    """ss_orbital(X, 1_{Y + g_{v,n}}) for seed-chosen v at tree distance 1 and 2.

    Each sample integrates four functions (distance 1 and 2, levels 0 and 1,
    seed-chosen vertices) against a split, an unramified and a ramified X,
    each a seed-chosen conjugate of a depth-1 or depth-1/2 representative.
    The distance-1 cosets get seed-chosen centres Y in p sl2(Z); the
    distance-2 ones are lattices (Y = 0).  The seed leaves fixed what moved
    a sample's time and memory by 10-25 %: the levels, the branch and the
    centres of the distance-2 cosets, and -det X and the norm tag.  Every value
    is checked against the same integral moved to the base vertex by
    Ad(g_v^{-1}), which needs no cell refinement.
    """

    def build(self, seed: int, out_dir: str):
        cfg = FieldConfig(P, 12)
        rng = random.Random(seed)
        near = [v for v in ball(cfg, BASE, 1) if v != BASE]
        # below a neighbour (1, a) with a a nonzero square mod p: 10 of the 30
        # vertices at distance 2, all refined at the same cost and memory
        far = [v for v in ball(cfg, BASE, 2)
               if distance(cfg, BASE, v) == 2 and v.m == 2 and legendre(int(v.x), P) == 1]
        funcs = []
        for vertices, n in ((near, 0), (near, 1), (far, 0), (far, 1)):
            v = rng.choice(vertices)
            Y = tuple(Fraction(P * rng.randrange(P) if vertices is near else 0)
                      for _ in range(3))
            f = indicator_lattice(cfg, v, n, center=Sl2Element.from_rationals(cfg, *Y))
            funcs.append((f"1[({','.join(map(str, Y))})+g({v!r},{n})]", v, n, Y, f))
        reps = [("split", Sl2Element.from_rationals(cfg, P, 0, 0)),
                ("unram", rep_elliptic(cfg, cfg.eps * P**2, tag=True)),
                ("ram", rep_elliptic(cfg, P, tag=True))]
        xs = [(name, random_conjugate(X, seed=rng.randrange(10**9))) for name, X in reps]
        return cfg, funcs, xs

    def run(self, inputs):
        _cfg, funcs, xs = inputs
        out = []
        for _fn, _v, _n, _Y, f in funcs:
            for _xn, X in xs:
                try:
                    out.append(ss_orbital(X, f))
                except GermlabError as exc:
                    out.append(exc)
        return out

    def check(self, inputs, results) -> Checked:
        cfg, funcs, xs = inputs
        problems, rows = [], []
        failed = 0
        it = iter(results)
        for fname, v, n, Y, _f in funcs:
            for xname, X in xs:
                res = next(it)
                if isinstance(res, GermlabError):
                    failed += 1
                    rows.append([fname, xname, type(res).__name__])
                    continue
                rows.append([fname, xname, X.matrix_str(), str(res.value), res.v0, res.tail])
                Xb = Sl2Element.from_rationals(cfg, *_to_base(v, *X.exact_entries()))
                Yb = Sl2Element.from_rationals(cfg, *_to_base(v, *Y))
                moved = ss_orbital(Xb, indicator_lattice(cfg, BASE, n, center=Yb)).value
                if moved != res.value:
                    problems.append(f"{fname} at {xname}: {res.value} != {moved} at the base vertex")
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        return Checked(len(rows), failed, digest, problems)


WORKLOADS = {
    "claim-r0": CliSuite([((), "claim", 0)], lambda r: f"claim-r{r}"),
    "theorem": CliSuite([(("--p", "5"), "theorem", 0),
                         (("--p", "5"), "theorem", 1),
                         (("--p", "7"), "theorem", 0)], lambda r: f"theorem-r{r}"),
    "offbase-d2": OffBase(),
    "oracles": CliSuite([((), "oracles", None)], lambda r: "oracles"),
}
