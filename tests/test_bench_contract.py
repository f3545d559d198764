"""The germlab names that the benchmark in perfbench/ reads.

perfbench/ traces germlab layers by name, reads the engine's sqmeas cache to
check cold state, and builds its workloads from germlab calls.  A renamed or
removed name fails a benchmark run; these tests fail first, without running
the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from germlab import FieldConfig, Sl2Element, classify, orbital, rep_elliptic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("prefix,modname,attr", [t[:3] for t in tracing.TARGETS],
                         ids=[t[0] for t in tracing.TARGETS])
def test_trace_target_resolves(prefix, modname, attr):
    # the lookup of Tracer.install, without patching anything
    owner = importlib.import_module(f"germlab.{modname}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name, None)
    assert callable(getattr(owner, attr, None)), f"{prefix}: germlab.{modname}.{attr}"


def test_rule_key_reads_every_kind_of_label():
    # the traced cell memo keys on the label's fields
    cfg = FieldConfig(5)
    xs = [Sl2Element(cfg, 0, 0, 0), Sl2Element(cfg, 0, 1, 0), Sl2Element(cfg, 1, 0, 0),
          rep_elliptic(cfg, 2, tag=False), rep_elliptic(cfg, 5, tag=True)]
    labels = [classify(X) for X in xs]
    assert {label.kind for label in labels} == {"zero", "nil", "split", "elliptic"}
    keys = [tracing._rule_key(label) for label in labels]
    assert len(set(keys)) == len(keys)


def test_sqmeas_cache_is_a_dict():
    assert isinstance(getattr(orbital, "_SQMEAS_CACHE", None), dict)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_builds(name, tmp_path):
    assert workloads.WORKLOADS[name].build(0, str(tmp_path)) is not None
