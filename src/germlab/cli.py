"""Command-line interface: exact orbital integrals and verification suites.

The suites of `germlab verify`: claim and theorem on the standard grid at
depth --r, germs (the closed-form germs against extraction) and oracles
(the engine against its independent oracles).

The command line is parsed by `parse_args` from the grammar in
`_COMMON_FLAGS` and `_COMMANDS`: the common flags go before or after the
command (the later one wins), a command's own flags after it, every flag
spelt in full as "--flag value" or "--flag=value".  `-h` or `--help`
anywhere prints the help and exits 0.

Exit codes: 0 pass, 1 verification failure, 2 usage error, reported on
stderr as one "usage error: ..." line (an unknown or abbreviated flag, a
flag without its value, a value that is not an int or not one of the
choices, a missing command, suite or required flag, an extra argument, a
bad --p, X spec or f spec, a file that cannot be opened, an --r that is
negative or leaves the grid empty, or --r, --depth-strict or --format csv
on a command that builds no grid), 3 computational error, a ValueError
raised inside a computation included.  Identical configurations produce
byte-identical output files; every emitted document embeds the run
configuration and the measure fingerprint.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace
from typing import List, Optional, Tuple

from .errors import GermlabError
from .padic import FieldConfig, SquareClass
from .sl2 import (ALL_ORBITS, OrbitLabel, Sl2Element, classify, depth,
                  in_g_nil_r, parse_matrix, random_conjugate, rep_elliptic,
                  rep_nilpotent)
from .tree import BASE, make_vertex
from .lcfunc import (LCFunction, h_combination, indicator_lattice,
                     lcfunction_from_json, unit_ball)
from .orbital import (brute_force_cell_oracle, fingerprint, nilpotent_orbital,
                      ss_orbital, tree_oracle_compare)
from .germs import (GermBasis, closed_form_germs, default_basis, default_pool,
                    extract_germs_auto, reports_to_csv, verify_claim,
                    verify_theorem)


class _UsageError(Exception):
    """A flag or spec that cannot be parsed, or a file that cannot be opened."""


class RunConfig:
    def __init__(self, p: int, r: int, seed: int, fmt: str, depth_strict: bool,
                 out: Optional[str]):
        self.p, self.r, self.seed, self.fmt = p, r, seed, fmt
        self.depth_strict, self.out = depth_strict, out

    def field(self) -> FieldConfig:
        return FieldConfig(self.p)

    def as_dict(self) -> dict:
        """The configuration embedded in reports; the output directory is
        where they are written, not part of it."""
        return {"p": self.p, "r": self.r, "seed": self.seed, "fmt": self.fmt,
                "depth_strict": self.depth_strict}


def parse_x_spec(cfg: FieldConfig, spec: str) -> Sl2Element:
    """Accepts "0", "diag(u,-u)", or "[[a,b],[c,-a]]" with entries n or n/d."""
    s = spec.strip().replace(" ", "")
    if s == "0":
        return Sl2Element.zero(cfg)
    if s.startswith("diag(") and s.endswith(")"):
        u, mu = s[5:-1].split(",")
        return parse_matrix(cfg, f"[[{u},0],[0,{mu}]]")
    if s.startswith("[["):
        return parse_matrix(cfg, s)
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
        v = make_vertex(cfg, int(m_str), x_str)
        return indicator_lattice(cfg, v, int(n))
    if s.startswith("nil:"):
        _, label, k = s.split(":")
        cls = _NIL_LABELS[label.lower()]
        Y = rep_nilpotent(cfg, OrbitLabel("nil", cls))
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


def _emit(doc: dict, rc: RunConfig, name: str, to_stdout: bool = True) -> None:
    doc = {"config": rc.as_dict(),
           "normalization": fingerprint(rc.field()), **doc}
    _write(json.dumps(doc, sort_keys=True, indent=2) + "\n", rc, f"{name}.json", to_stdout)


def _emit_csv(rows_csv: str, rc: RunConfig, name: str) -> None:
    header = (f"# config: {json.dumps(rc.as_dict(), sort_keys=True)} "
              f"normalization: {fingerprint(rc.field())}\n")
    _write(header + rows_csv, rc, f"{name}.csv", rc.fmt == "csv")


def cmd_nilpotent(rc: RunConfig, f_spec: str, f: LCFunction) -> int:
    cfg = rc.field()
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


def cmd_orbital(rc: RunConfig, x_spec: str, X: Sl2Element, f_spec: str,
                f: LCFunction) -> int:
    res = ss_orbital(X, f)
    k = classify(X)
    _emit({"X": x_spec, "f": f_spec, "torus": k.torus_kind(),
           "depth": str(depth(X)), "result": res.to_json()}, rc, "orbital")
    return 0


def _standard_grid(cfg: FieldConfig, r: int, seed: int, strict: bool
                   ) -> List[Tuple[str, Sl2Element]]:
    """The points of the standard grid at depth >= r (> r when strict).

    A negative r, or one that keeps no point, is a usage error: the suite
    would check nothing.
    """
    if r < 0:
        raise _UsageError(f"--r {r} is negative; a depth never is")
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
    grid = [(n, X) for n, X in out if in_g_nil_r(X, r, strict=strict)]
    if not grid:
        raise _UsageError(f"no grid point has depth {'>' if strict else '>='} {r}; "
                          f"the deepest has depth {max(depth(X) for _, X in out)}")
    return grid


def _theorem_family(cfg: FieldConfig, r: int) -> List[Tuple[str, LCFunction]]:
    pool = default_pool(cfg, r)
    return pool + [("combo-a", 2 * pool[0][1] - 3 * pool[1][1]),
                   ("combo-b", pool[2][1] + pool[5][1]),
                   ("h-comb", h_combination(pool[1][1], 2))]


def _report_expansion(rc: RunConfig, suite: str, reports, gated: bool) -> int:
    """CSV and JSON reports of an expansion suite; 1 if a checked row fails.

    With `gated`, only expected rows are checked and the JSON counts them;
    otherwise every row is checked.  Without --out, stdout carries the CSV
    under --format csv and the JSON summary otherwise, never both.
    """
    checked = [x for x in reports if x.expected] if gated else reports
    fails = [x for x in checked if not x.passed]
    name = f"{suite}-r{rc.r}"
    doc = {"suite": suite, "r": rc.r, "rows": len(reports), "failures": len(fails),
           "failing_rows": [x.csv_row() for x in fails]}
    if gated:
        doc["gated"] = len(checked)
    _emit_csv(reports_to_csv(reports), rc, name)
    _emit(doc, rc, name, to_stdout=rc.fmt != "csv")
    return 1 if fails else 0


def _verify_claim(rc: RunConfig, grid) -> int:
    reports = verify_claim(rc.r, GermBasis(default_pool(rc.field(), rc.r)), grid)
    return _report_expansion(rc, "claim", reports, gated=False)


def _verify_theorem(rc: RunConfig, grid) -> int:
    reports = verify_theorem(rc.r, _theorem_family(rc.field(), rc.r), grid)
    return _report_expansion(rc, "theorem", reports, gated=True)


def _germ_grid(cfg: FieldConfig, seed: int) -> List[Tuple[str, Sl2Element]]:
    """The standard grid at r = 0, then seeded conjugates of a split,
    unramified or ramified representative of each t = val(-det) in -2..8,
    with both tags."""
    e = cfg.eps
    reps = []
    for t in range(-2, 9):
        if t % 2 == 0:
            reps.append((f"split-t{t}", Sl2Element.from_rationals(cfg, cfg.qpow(t // 2), 0, 0)))
        kinds = (("unram", e),) if t % 2 == 0 else (("ramPi", 1), ("ramEpsPi", e))
        reps += [(f"{kind}-t{t}-{'T' if tag else 'F'}",
                  rep_elliptic(cfg, u * cfg.qpow(t), tag=tag))
                 for kind, u in kinds for tag in (True, False)]
    return _standard_grid(cfg, 0, seed, False) + [
        (f"{name}-conj", random_conjugate(X, seed=seed + i, size_bound=2))
        for i, (name, X) in enumerate(reps)]


def _verify_germs(rc: RunConfig) -> int:
    """extract_germs_auto, the oracle, against closed_form_germs at every X."""
    cfg = rc.field()
    basis = default_basis(cfg)
    rows = []
    for name, X in _germ_grid(cfg, rc.seed):
        ext, closed = extract_germs_auto(X, basis), closed_form_germs(X)
        rows.append({"X": name, "t": int(2 * depth(X)), "torus": classify(X).torus_kind(),
                     "extracted": {repr(om): str(ext[om]) for om in ALL_ORBITS},
                     "closed_form": {repr(om): str(closed[om]) for om in ALL_ORBITS},
                     "pass": ext == closed})
    fails = sum(not row["pass"] for row in rows)
    _emit({"suite": "germs", "failures": fails, "rows": rows}, rc, "germs")
    return 1 if fails else 0


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
        good = orc == eng
        ok = ok and good
        rows.append({"target": name, "f": fn, "engine": str(eng),
                     "oracle": str(orc), "pass": good})
    tree_rows, tree_ok = tree_oracle_compare(cfg)
    ok = ok and tree_ok
    _emit({"suite": "oracles", "rows": rows, "tree": tree_rows}, rc, "oracles")
    return 0 if ok else 1


SUITES = {"claim": _verify_claim, "theorem": _verify_theorem,
          "germs": _verify_germs, "oracles": _verify_oracles}
# the suites that take main's standard grid, and with it --r, --depth-strict
# and --format csv (the grid's rows are what the CSV holds)
GRID_SUITES = ("claim", "theorem")


# The grammar as data.  A flag maps to (attribute, kind, default), where kind
# is int, str, a tuple of the values it accepts, or None for a switch that
# takes no value.  The common flags are accepted before and after the
# command, and the later one wins.
_COMMON_FLAGS = {
    "--p": ("p", int, 5),
    "--seed": ("seed", int, 0),
    "--format": ("fmt", ("json", "csv"), "json"),
    "--depth-strict": ("depth_strict", None, False),
    "--out": ("out", str, None),
}
# command -> (its own flags, accepted after it only; the ones it requires;
# (attribute, choices) of its one positional argument, or None)
_COMMANDS = {
    "nilpotent": ({"--f": ("f", str, None)}, ("--f",), None),
    "orbital": ({"--X": ("X", str, None), "--f": ("f", str, None)}, ("--X", "--f"), None),
    "verify": ({"--r": ("r", int, None)}, (), ("suite", SUITES)),
}

_HELP = """\
usage: germlab [FLAGS] COMMAND [ARGS] [FLAGS]

Exact p-adic orbital integrals and germ verification for sl2.

commands:
  nilpotent --f F         the five nilpotent orbital integrals of f
  orbital --X X --f F     the orbital integral of f at X
  verify SUITE [--r R]    a verification suite: {suites}

flags, before or after the command (the later one wins):
  --p P                   odd prime (default 5; 3 is allowed and warns)
  --seed N                seed of the grids' random conjugates (default 0)
  --format json|csv       csv: the rows of verify claim and theorem (default json)
  --depth-strict          grid points of depth > r instead of >= r
  --out DIR               directory for the report files
  -h, --help              print this help and exit

--r (default 0), --depth-strict and --format csv apply to verify claim and
theorem only.  A flag is spelt in full and takes its value as "--flag value"
or "--flag=value".
  F: unit-ball | zero | mp:(m,x):n | nil:one|eps|pi|epspi:k | JSON list or file
  X: 0 | diag(u,-u) | [[a,b],[c,-a]], entries n or n/d

exit codes: 0 pass, 1 verification failure, 2 usage error, 3 computational error
"""


def _flag_value(flag: str, kind, text: str):
    if isinstance(kind, tuple):
        if text not in kind:
            raise _UsageError(f"{flag} is one of {', '.join(kind)}, not {text!r}")
        return text
    try:
        return kind(text)
    except ValueError:
        raise _UsageError(f"{flag} takes an int, not {text!r}") from None


def parse_args(argv: List[str]) -> SimpleNamespace:
    """The namespace of one `germlab` command line; a _UsageError if it is not one.

    Every attribute the grammar names is set, to its default when not given.
    """
    ns = SimpleNamespace(command=None, suite=None)
    for flags in (_COMMON_FLAGS, *(own for own, _, _ in _COMMANDS.values())):
        for attr, _, default in flags.values():
            setattr(ns, attr, default)
    flags, required, positional = _COMMON_FLAGS, (), None
    args = iter(argv)
    for arg in args:
        if arg.startswith("-"):
            flag, eq, text = arg.partition("=")
            if flag not in flags:
                where = f"after {ns.command}" if ns.command else "before the command"
                raise _UsageError(f"unknown flag {flag} {where}")
            attr, kind, _ = flags[flag]
            if kind is None:
                if eq:
                    raise _UsageError(f"{flag} takes no value")
                value = True
            else:
                if not eq:
                    text = next(args, None)
                    if text is None or text.startswith("--"):
                        raise _UsageError(f"{flag} needs a value")
                value = _flag_value(flag, kind, text)
            setattr(ns, attr, value)
        elif ns.command is None:
            if arg not in _COMMANDS:
                raise _UsageError(f"unknown command {arg!r}; one of {', '.join(_COMMANDS)}")
            ns.command = arg
            own, required, positional = _COMMANDS[arg]
            flags = {**_COMMON_FLAGS, **own}
        elif positional and getattr(ns, positional[0]) is None:
            if arg not in positional[1]:
                raise _UsageError(f"unknown {positional[0]} {arg!r}; one of "
                                  + ", ".join(positional[1]))
            setattr(ns, positional[0], arg)
        else:
            raise _UsageError(f"unexpected argument {arg!r}")
    if ns.command is None:
        raise _UsageError(f"no command given; one of {', '.join(_COMMANDS)}")
    if positional and getattr(ns, positional[0]) is None:
        raise _UsageError(f"{ns.command} needs a {positional[0]}; one of "
                          + ", ".join(positional[1]))
    for flag in required:
        if getattr(ns, flags[flag][0]) is None:
            raise _UsageError(f"{ns.command} needs {flag}")
    return ns


def _parse_inputs(rc: RunConfig, ns: SimpleNamespace) -> dict:
    """Check --p and parse the command's --X and --f specs."""
    try:
        cfg = rc.field()
        got = {}
        if ns.X is not None:
            got["X"] = parse_x_spec(cfg, ns.X)
        if ns.f is not None:
            got["f"] = parse_f_spec(cfg, ns.f)
        return got
    except (ValueError, ZeroDivisionError, KeyError, TypeError, AttributeError,
            OSError) as exc:
        # JSONDecodeError is a ValueError; TypeError and AttributeError are a
        # JSON f spec of the wrong shape (a float coefficient, a list as centre)
        raise _UsageError(exc) from exc


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_HELP.format(suites=", ".join(SUITES)))
        return 0
    try:
        ns = parse_args(argv)
        rc = RunConfig(p=ns.p, r=ns.r or 0, seed=ns.seed, fmt=ns.fmt,
                       depth_strict=ns.depth_strict, out=ns.out)
        if ns.p == 3:
            print("warning: p=3 is allowed but small residue characteristic is "
                  "outside the comfortable regime; default test prime is 5",
                  file=sys.stderr)
        got = _parse_inputs(rc, ns)
        if ns.suite in GRID_SUITES:
            got["grid"] = _standard_grid(rc.field(), rc.r, rc.seed, rc.depth_strict)
        elif ns.r is not None or rc.depth_strict or rc.fmt == "csv":
            raise _UsageError("--r, --depth-strict and --format csv apply only to verify "
                              + ", ".join(GRID_SUITES))
        if ns.command == "nilpotent":
            return cmd_nilpotent(rc, ns.f, got["f"])
        if ns.command == "orbital":
            return cmd_orbital(rc, ns.X, got["X"], ns.f, got["f"])
        return SUITES[ns.suite](rc, **got)
    except (_UsageError, OSError) as exc:  # OSError here: --out cannot be written
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (GermlabError, ValueError) as exc:
        print(f"computational error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
