"""Command-line interface: exact orbital integrals and verification suites.

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 computational
error.  Identical configurations produce byte-identical output files; every
emitted document embeds the run configuration and the measure fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import GermlabError, GridTooLarge, NotRegular, TailUnstable
from .padic import FieldConfig, SquareClass
from .sl2 import (ALL_ORBITS, Sl2Element, classify, depth, in_g_nil_r,
                  random_conjugate, rep_elliptic)
from .tree import BASE, make_vertex
from .lcfunc import (LCFunction, h_combination, indicator_lattice,
                     lcfunction_from_json, unit_ball)
from .orbital import (Normalization, brute_force_cell_oracle,
                      nilpotent_orbital, ss_orbital, tree_oracle_compare)
from .germs import (construct_Hr_Omega, default_basis, default_pool,
                    extract_germs, homogeneity_extend, reports_to_csv,
                    verify_claim, verify_scaling, verify_theorem)


@dataclass
class RunConfig:
    p: int
    r: int
    seed: int
    fmt: str
    depth_strict: bool
    out: Optional[str]

    def field(self) -> FieldConfig:
        return FieldConfig(self.p)

    def as_dict(self) -> dict:
        """The configuration embedded in reports; the output directory is
        where they are written, not part of it."""
        d = asdict(self)
        del d["out"]
        return d


def _parse_fraction(s: str) -> Fraction:
    return Fraction(s.strip())


def parse_x_spec(cfg: FieldConfig, spec: str) -> Sl2Element:
    """Accepts "0", "diag(u,-u)", or "[[a,b],[c,-a]]" with rational entries."""
    s = spec.strip().replace(" ", "")
    if s == "0":
        return Sl2Element.zero(cfg)
    if s.startswith("diag(") and s.endswith(")"):
        u, mu = s[5:-1].split(",")
        if _parse_fraction(u) != -_parse_fraction(mu):
            raise ValueError("diag entries must be (u, -u)")
        return Sl2Element.from_rationals(cfg, _parse_fraction(u), 0, 0)
    if s.startswith("[[") and s.endswith("]]"):
        body = s[2:-2]
        row1, row2 = body.split("],[")
        a, b = (_parse_fraction(t) for t in row1.split(","))
        c, d = (_parse_fraction(t) for t in row2.split(","))
        if d != -a:
            raise ValueError("matrix must be trace-zero: [[a,b],[c,-a]]")
        return Sl2Element.from_rationals(cfg, a, b, c)
    raise ValueError(f"unrecognized X spec {spec!r}")


_NIL_LABELS = {"one": SquareClass.ONE, "eps": SquareClass.EPS,
               "pi": SquareClass.PI, "epspi": SquareClass.EPSPI}


def parse_f_spec(cfg: FieldConfig, spec: str) -> LCFunction:
    """Builtins: unit-ball | zero | mp:(m,x):n | nil:label:k | JSON."""
    s = spec.strip()
    if s == "unit-ball":
        return unit_ball(cfg)
    if s == "zero":
        return LCFunction(cfg, [])
    if s.startswith("mp:"):
        _, vtx, n = s.split(":")
        m_str, x_str = vtx.strip("()").split(",")
        v = make_vertex(cfg, int(m_str), Fraction(x_str))
        return indicator_lattice(cfg, v, int(n))
    if s.startswith("nil:"):
        _, label, k = s.split(":")
        cls = _NIL_LABELS[label.lower()]
        from .sl2 import OrbitLabel, rep_nilpotent
        Y = rep_nilpotent(cfg, OrbitLabel("regular", cls))
        return indicator_lattice(cfg, BASE, int(k), center=Y)
    if not s.startswith("["):
        with open(s) as fh:
            s = fh.read()
    return lcfunction_from_json(cfg, json.loads(s))


def _write(text: str, rc: RunConfig, filename: str, to_stdout: bool) -> None:
    """Write a report into --out, or else print it when `to_stdout`."""
    if rc.out:
        os.makedirs(rc.out, exist_ok=True)
        path = os.path.join(rc.out, filename)
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    elif to_stdout:
        sys.stdout.write(text)


def _emit(doc: dict, rc: RunConfig, name: str) -> None:
    doc = {"config": rc.as_dict(),
           "normalization": Normalization(rc.field()).fingerprint(), **doc}
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", rc, f"{name}.json", True)


def _emit_csv(rows_csv: str, rc: RunConfig, name: str) -> None:
    header = (f"# config: {json.dumps(rc.as_dict(), sort_keys=True)} "
              f"normalization: {Normalization(rc.field()).fingerprint()}\n")
    _write(header + rows_csv, rc, f"{name}.csv", rc.fmt == "csv")


def cmd_nilpotent(rc: RunConfig, f_spec: str) -> int:
    cfg = rc.field()
    f = parse_f_spec(cfg, f_spec)
    fz = f.dilate(cfg.zeta**2)
    table = {}
    scaling = {}
    ok = True
    for om in ALL_ORBITS:
        base = nilpotent_orbital(om, f).value
        dil = nilpotent_orbital(om, fz).value
        table[repr(om)] = str(base)
        match = dil == cfg.qpow(om.dim) * base
        ok = ok and match
        scaling[repr(om)] = {"q^d": str(cfg.qpow(om.dim)), "dilated": str(dil),
                             "match": match}
    _emit({"f": f_spec, "table": table, "scaling_check": scaling}, rc, "nilpotent")
    return 0 if ok else 1


def cmd_orbital(rc: RunConfig, x_spec: str, f_spec: str) -> int:
    cfg = rc.field()
    X = parse_x_spec(cfg, x_spec)
    f = parse_f_spec(cfg, f_spec)
    res = ss_orbital(X, f)
    k = classify(X)
    _emit({"X": x_spec, "f": f_spec, "torus": k.torus_kind(),
           "depth": str(depth(X)), "result": res.to_json()}, rc, "orbital")
    return 0


def _standard_grid(cfg: FieldConfig, r: int, seed: int, strict: bool
                   ) -> List[Tuple[str, Sl2Element]]:
    p, e = cfg.p, cfg.eps
    out = []
    for k in (1, 2, 3):
        out.append((f"split-d{k}", Sl2Element.from_rationals(cfg, p**k, 0, 0)))
    for k in (1, 2):
        out.append((f"unram-d{k}-T", rep_elliptic(cfg, e * p ** (2 * k), tag=True)))
        out.append((f"unram-d{k}-F", rep_elliptic(cfg, e * p ** (2 * k), tag=False)))
    for k in (1, 3):
        out.append((f"ramPi-d{k}of2-T", rep_elliptic(cfg, p**k, tag=True)))
        out.append((f"ramPi-d{k}of2-F", rep_elliptic(cfg, p**k, tag=False)))
        out.append((f"ramEpsPi-d{k}of2-T", rep_elliptic(cfg, e * p**k, tag=True)))
    out.append(("split-d1-conj", random_conjugate(out[0][1], seed=seed + 7)))
    out.append(("split-d2-conj", random_conjugate(out[1][1], seed=seed + 11)))
    return [(n, X) for n, X in out if in_g_nil_r(X, r, strict=strict)]


def _theorem_family(cfg: FieldConfig, r: int) -> List[Tuple[str, LCFunction]]:
    pool = default_pool(cfg, r)
    return pool + [("combo-a", 2 * pool[0][1] - 3 * pool[1][1]),
                   ("combo-b", pool[2][1] + pool[5][1]),
                   ("h-comb", h_combination(pool[1][1], 2))]


def _report_expansion(rc: RunConfig, suite: str, reports, gated: bool) -> int:
    """CSV and JSON reports of an expansion suite; 1 if a checked row fails.

    With `gated`, only gating rows are checked and the JSON counts them;
    otherwise every row is checked.
    """
    checked = [x for x in reports if x.gating] if gated else reports
    fails = [x for x in checked if not x.passed]
    name = f"{suite}-r{rc.r}"
    doc = {"suite": suite, "r": rc.r, "rows": len(reports), "failures": len(fails),
           "failing_rows": [x.csv_row() for x in fails]}
    if gated:
        doc["gated"] = len(checked)
    _emit_csv(reports_to_csv(reports), rc, name)
    _emit(doc, rc, name)
    return 1 if fails else 0


def _verify_claim(rc: RunConfig) -> int:
    cfg = rc.field()
    grid = _standard_grid(cfg, rc.r, rc.seed, rc.depth_strict)
    reports = verify_claim(rc.r, default_pool(cfg, rc.r), grid)
    return _report_expansion(rc, "claim", reports, gated=False)


def _verify_scaling(rc: RunConfig) -> int:
    cfg = rc.field()
    pool = default_pool(cfg, rc.r)
    grid = _standard_grid(cfg, rc.r, rc.seed, rc.depth_strict)
    rows = []
    ok = True
    for om in ALL_ORBITS:
        for name, f in construct_Hr_Omega(rc.r, om, pool):
            for xn, X in grid:
                good = verify_scaling(rc.r, om, f, X)
                ok = ok and good
                rows.append({"f": name, "X": xn, "dim": om.dim, "pass": good})
    _emit({"suite": "scaling", "r": rc.r, "rows": rows}, rc, f"scaling-r{rc.r}")
    return 0 if ok else 1


def _verify_theorem(rc: RunConfig) -> int:
    cfg = rc.field()
    grid = _standard_grid(cfg, rc.r, rc.seed, rc.depth_strict)
    reports = verify_theorem(rc.r, _theorem_family(cfg, rc.r), grid)
    return _report_expansion(rc, "theorem", reports, gated=True)


def _verify_homogeneity(rc: RunConfig) -> int:
    cfg = rc.field()
    basis = default_basis(cfg)
    bases = [("split", Sl2Element.from_rationals(cfg, cfg.p**2, 0, 0)),
             ("unram", rep_elliptic(cfg, cfg.eps * cfg.p**4, tag=True)),
             ("ram", rep_elliptic(cfg, cfg.p**5, tag=True))]
    rows = []
    ok = True
    for name, X in bases:
        t = extract_germs(X, basis)
        t2 = extract_germs(X.scale(cfg.zeta**2), basis)
        good = t2.same_values(homogeneity_extend(t, 1))
        ok = ok and good
        rows.append({"base": name, "pass": good})
    _emit({"suite": "homogeneity", "rows": rows}, rc, "homogeneity")
    return 0 if ok else 1


def _verify_oracles(rc: RunConfig) -> int:
    cfg = rc.field()
    ball = unit_ball(cfg)
    f1 = indicator_lattice(cfg, BASE, 1)
    targets = [
        ("split-d0", Sl2Element.from_rationals(cfg, 1, 0, 0)),
        ("split-d1", Sl2Element.from_rationals(cfg, cfg.p, 0, 0)),
        ("unram-d0", rep_elliptic(cfg, cfg.eps, tag=True)),
        ("ram-d1of2", rep_elliptic(cfg, cfg.p, tag=True)),
    ]
    # (target label, f label, target, f, engine integral over the target's orbit)
    cases = [(name, fn, X, f, ss_orbital) for name, X in targets
             for fn, f in (("unit-ball", ball), ("mp:(0,0):1", f1))]
    cases += [(repr(om), "unit-ball", om, ball, nilpotent_orbital) for om in ALL_ORBITS]
    rows = []
    ok = True
    for name, fn, target, f, engine in cases:
        eng = engine(target, f).value
        orc = brute_force_cell_oracle(target, f)
        good = orc.agrees_with(eng)
        ok = ok and good
        rows.append({"target": name, "f": fn, "engine": str(eng),
                     "oracle": str(orc.value), "exact": orc.exact, "pass": good})
    tree_rows, tree_ok = tree_oracle_compare(cfg)
    ok = ok and tree_ok
    _emit({"suite": "oracles", "rows": rows, "tree": tree_rows}, rc, "oracles")
    return 0 if ok else 1


SUITES = {"claim": _verify_claim, "scaling": _verify_scaling,
          "theorem": _verify_theorem, "homogeneity": _verify_homogeneity,
          "oracles": _verify_oracles}


def _add_common(ap: argparse.ArgumentParser, suppress: bool) -> None:
    # the same flags are accepted before and after the subcommand; the
    # subcommand copies use SUPPRESS so they never clobber parsed values
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    ap.add_argument("--p", type=int, default=d(5), help="odd prime (default 5)")
    ap.add_argument("--seed", type=int, default=d(0))
    ap.add_argument("--format", dest="fmt", choices=("json", "csv"), default=d("json"))
    ap.add_argument("--depth-strict", action="store_true",
                    default=d(False),
                    help="use depth(X) > r for grid membership instead of >=")
    ap.add_argument("--out", default=d(None), help="directory for report files")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="germlab",
        description="Exact p-adic orbital integrals and germ verification for sl2")
    _add_common(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    p_nil = sub.add_parser("nilpotent", help="five nilpotent orbital integrals")
    _add_common(p_nil, suppress=True)
    p_nil.add_argument("--f", required=True, help="f-spec (unit-ball|zero|mp:..|nil:..|JSON)")
    p_nil.set_defaults(run=lambda rc, ns: cmd_nilpotent(rc, ns.f))

    p_orb = sub.add_parser("orbital", help="semisimple orbital integral")
    _add_common(p_orb, suppress=True)
    p_orb.add_argument("--X", required=True, help='X-spec ("diag(1,-1)" or [[a,b],[c,-a]])')
    p_orb.add_argument("--f", required=True)
    p_orb.set_defaults(run=lambda rc, ns: cmd_orbital(rc, ns.X, ns.f))

    p_ver = sub.add_parser("verify", help="run a verification suite")
    _add_common(p_ver, suppress=True)
    p_ver.add_argument("suite", choices=tuple(SUITES))
    p_ver.add_argument("--r", type=int, default=0)
    p_ver.set_defaults(run=lambda rc, ns: SUITES[ns.suite](rc))
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    rc = RunConfig(p=ns.p, r=getattr(ns, "r", 0), seed=ns.seed, fmt=ns.fmt,
                   depth_strict=ns.depth_strict, out=ns.out)
    try:
        if ns.p == 3:
            print("warning: p=3 is allowed but small residue characteristic is "
                  "outside the comfortable regime; default test prime is 5",
                  file=sys.stderr)
        return ns.run(rc, ns)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NotRegular, TailUnstable, GridTooLarge) as exc:
        print(f"computational error: {exc}", file=sys.stderr)
        return 3
    except GermlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
