"""Per-layer tracing of germlab, installed from outside the package.

Every traced name is replaced in each namespace that binds it (a function
imported into several modules is patched in all of them), and restored by
`Tracer.uninstall`.  Three kinds of wrapper keep the overhead proportional to
what a layer needs:

* COUNT: a call counter only (the p-adic primitives and other hot leaves);
* TIMED: calls, total and self time, no per-call record (hot engine calls);
* SPAN:  as TIMED, plus one in-memory span (id, parent, name, start, end) per
  call, written out by `Tracer.dump` when the sample ends.

Self time is a call's duration minus the time its traced children took.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

COUNT, TIMED, SPAN = "count", "timed", "span"

# (metric prefix, module, attribute, kind).  An attribute of the form
# "Class.method" patches the method on the class.
TARGETS = [
    ("cli.main", "cli", "main", SPAN),
    ("germs.extract_germs", "germs", "extract_germs", SPAN),
    ("germs.kernel_combinations", "germs", "kernel_combinations", SPAN),
    ("germs.construct_Hr_Omega", "germs", "construct_Hr_Omega", SPAN),
    ("germs.nilpotent_vector", "orbital", "nilpotent_vector", TIMED),
    ("linalg.rank", "linalg", "rank", SPAN),
    ("linalg.solve_consistent", "linalg", "solve_consistent", SPAN),
    ("linalg.nullspace", "linalg", "nullspace", SPAN),
    ("orbital.ss_orbital", "orbital", "ss_orbital", SPAN),
    ("orbital.nilpotent_orbital", "orbital", "nilpotent_orbital", SPAN),
    ("orbital.brute_force_cell_oracle", "orbital", "brute_force_cell_oracle", SPAN),
    ("orbital.cell_integral", "orbital", "_cell_integral", TIMED),
    ("orbital.sqmeas", "orbital", "sqmeas", TIMED),
    ("orbital.stratum_value", "orbital", "_stratum_value", COUNT),
    ("lcfunc.integration_cells", "lcfunc", "LCFunction.integration_cells", SPAN),
    ("lcfunc.canonical_cells", "lcfunc", "LCFunction.canonical_cells", SPAN),
    ("tree.tree_count_oracle", "tree", "tree_count_oracle", SPAN),
    ("tree.cartan", "tree", "cartan", COUNT),
    ("padic.val_p", "padic", "val_p", COUNT),
    ("padic.mod_pk", "padic", "mod_pk", COUNT),
    ("padic.hensel_sqrt", "padic", "hensel_sqrt", COUNT),
    ("sl2.classify", "sl2", "classify", COUNT),
]


def _rule_key(rule) -> tuple:
    return (rule.kind, rule.ext, rule.tag, rule.nil_class)


class Tracer:
    """Counters, self times and spans for one traced sample."""

    def __init__(self):
        self.stats = {}            # prefix -> [calls, total_s, self_s]
        self.spans = []            # (id, parent_id, name, start, end)
        self.extra = {"cell_keys": set(), "tail.finite": 0, "tail.zero": 0,
                      "tail.geometric": 0, "v0_max": 0, "cells_out": 0,
                      "nilvec_miss": 0}
        self._stack = []           # open frames: [span_id, child_time]
        self._next_id = 1
        self._patched = []         # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _count(self, fn, prefix):
        st = self.stats.setdefault(prefix, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, fn, prefix, record_span, post=None):
        st = self.stats.setdefault(prefix, [0, 0.0, 0.0])
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            if record_span:
                sid = self._next_id
                self._next_id = sid + 1
            else:
                sid = 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if record_span:
                    parent = next((f[0] for f in reversed(stack) if f[0]), 0)
                    spans.append((sid, parent, prefix, t0, t1))
            if post is not None:
                post(args, out)
            return out
        return wrapper

    def _post(self, prefix):
        ex = self.extra
        if prefix == "orbital.cell_integral":
            keys = ex["cell_keys"]

            def post(args, out):
                _cfg, s, rule, cell, n = args[:5]
                keys.add((s, _rule_key(rule), cell, n))
                tail = out[2]
                kind = ("tail.finite" if tail == "finite" else
                        "tail.zero" if tail == "0" else "tail.geometric")
                ex[kind] += 1
                if out[1] > ex["v0_max"]:
                    ex["v0_max"] = out[1]
            return post
        if prefix == "lcfunc.integration_cells":
            def post(args, out):
                ex["cells_out"] += len(out)
            return post
        return None

    def _nilvec(self, fn, prefix):
        inner = self._timed(fn, prefix, record_span=False)
        ex = self.extra

        def wrapper(f):
            if getattr(f, "_nilvec", None) is None:
                ex["nilvec_miss"] += 1
            return inner(f)
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, extra_namespaces=()) -> None:
        """Patch every traced name wherever germlab's modules bind it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "germlab" or name.startswith("germlab."))]
        modules += list(extra_namespaces)
        for prefix, modname, attr, kind in TARGETS:
            # a renamed or removed layer must fail the run, not read as 0 calls
            mod = importlib.import_module(f"germlab.{modname}")
            owner = mod
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(mod, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                raise AttributeError(f"trace target germlab.{modname}.{attr} not found "
                                     f"(for {prefix}); update TARGETS")
            if prefix == "germs.nilpotent_vector":
                wrapper = self._nilvec(original, prefix)
            elif kind == COUNT:
                wrapper = self._count(original, prefix)
            else:
                wrapper = self._timed(original, prefix, kind == SPAN, self._post(prefix))
            if owner is not mod:
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for ns in modules:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, name, original))
                        setattr(ns, name, wrapper)

    def exclude(self, seconds: float) -> None:
        """Keep time spent outside germlab (a speed probe) out of self times."""
        if self._stack:
            self._stack[-1][1] += seconds

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------------

    def calls(self, prefix: str) -> int:
        return self.stats.get(prefix, [0])[0]

    def self_s(self, prefix: str) -> float:
        return self.stats.get(prefix, [0, 0.0, 0.0])[2]

    def counts(self, sqmeas_cache_entries: int) -> dict:
        """Every per-layer figure of the sample, by metric name."""
        out = {}
        for prefix, _m, _a, kind in TARGETS:
            out[f"{prefix}.calls"] = self.calls(prefix)
            if kind != COUNT:
                out[f"{prefix}.self_s"] = self.self_s(prefix)
        ex = self.extra
        cells = self.calls("orbital.cell_integral")
        sq = self.calls("orbital.sqmeas")
        nv = self.calls("germs.nilpotent_vector")
        out["orbital.cell_integral.distinct_ratio"] = (
            len(ex["cell_keys"]) / cells if cells else 0.0)
        out["orbital.sqmeas.cache_entries"] = sqmeas_cache_entries
        out["orbital.sqmeas.hit_ratio"] = (
            (sq - sqmeas_cache_entries) / sq if sq else 0.0)
        for kind in ("tail.finite", "tail.zero", "tail.geometric"):
            out[f"orbital.{kind}"] = ex[kind]
        out["orbital.v0_max"] = ex["v0_max"]
        out["lcfunc.integration_cells.cells_out"] = ex["cells_out"]
        out["germs.nilpotent_vector.miss_ratio"] = ex["nilvec_miss"] / nv if nv else 0.0
        return out

    def dump(self, path: str, figures: dict) -> None:
        """Write spans and figures once, after the traced sample has ended."""
        with open(path, "w") as fh:
            json.dump({"figures": figures,
                       "spans": [list(s) for s in self.spans]}, fh)
