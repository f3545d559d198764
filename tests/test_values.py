"""Value semantics of germlab's immutable types, and what the CLI imports.

FieldConfig, OrbitLabel, TreeVertex, CosetCell, Orbit and IntegralResult
share germlab.value.Value: equal when of one class with equal fields, hashed
once at construction, closed to assignment.
"""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import germlab
from germlab import (BASE, ZERO_ORBIT, CosetCell, ExpansionReport, FieldConfig,
                     IntegralResult, Orbit, OrbitLabel, Sl2Element,
                     SquareClass, TreeVertex, classify, make_vertex, rep_elliptic)
from germlab.cli import RunConfig

CFG = FieldConfig(5)
SRC = os.path.dirname(os.path.dirname(germlab.__file__))


def _twins():
    """One pair per frozen type: equal values built apart."""
    X = rep_elliptic(CFG, 5, tag=False)
    twin = Sl2Element(FieldConfig(5), *X.exact_entries())
    return [
        (FieldConfig(5), FieldConfig(5, 12)),
        (classify(X), OrbitLabel("elliptic", ext=SquareClass.PI, tag=False)),
        (make_vertex(CFG, 1, 7), TreeVertex(1, Fraction(2))),
        (CosetCell(Sl2Element.zero(CFG), BASE, 1),
         CosetCell(twin - twin, make_vertex(CFG, 0, 3), 1)),
        (Orbit.of(X), Orbit.of(twin)),
        (IntegralResult(Fraction(1, 5), 2, "finite"),
         IntegralResult(Fraction(2, 10), 2, "finite")),
    ]


@pytest.mark.parametrize("a, b", _twins(), ids=lambda v: type(v).__name__)
class TestFrozen:
    def test_equal_values_hash_equal(self, a, b):
        assert a is not b
        assert a == b and not a != b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_assignment_raises(self, a, b):
        field = next(iter(vars(a)))
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            a.extra = 1
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert a == b

    def test_copies_and_pickles_are_equal_and_hash_equal(self, a, b):
        for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert c == a and hash(c) == hash(a)


def test_unequal_values():
    assert FieldConfig(5) != FieldConfig(7)
    assert FieldConfig(5) != FieldConfig(5, 13)
    assert OrbitLabel("split") != OrbitLabel("nil", SquareClass.ONE) != ZERO_ORBIT
    assert TreeVertex(1, Fraction(0)) != TreeVertex(0, Fraction(0))
    assert TreeVertex(0, Fraction(0)) != (0, Fraction(0))
    assert IntegralResult(Fraction(1), 0, "finite") != IntegralResult(Fraction(1), 0, "point")


def test_checks_run_at_construction():
    for bad in (lambda: FieldConfig(2), lambda: FieldConfig(4),
                lambda: FieldConfig(5, precision=3),
                lambda: OrbitLabel("elliptic", ext=SquareClass.ONE, tag=True),
                lambda: OrbitLabel("elliptic", tag=True)):
        with pytest.raises(ValueError):
            bad()


def test_cached_property_on_a_frozen_value():
    cfg = FieldConfig(7)
    assert cfg.eps == 3 and vars(cfg)["eps"] == 3


def test_reprs():
    assert repr(make_vertex(CFG, 1, 7)) == "(1,2)"
    assert repr(make_vertex(CFG, 2, Fraction(1, 5))) == "(2,1/5)"
    assert repr(BASE) == "(0,0)"
    X = rep_elliptic(CFG, 5, tag=False)
    labels = [ZERO_ORBIT, OrbitLabel("nil", SquareClass.EPS), OrbitLabel("split"),
              classify(rep_elliptic(CFG, 2, tag=True)), classify(X),
              classify(rep_elliptic(CFG, 10, tag=True))]
    assert [repr(om) for om in labels] == [
        "Zero", "Regular(Eps)", "split", "unramified(tag=True)", "ramified-Pi(tag=False)",
        "ramified-EpsPi(tag=True)"]
    # the other types print Name(field=value, ...)
    assert repr(FieldConfig(5)) == "FieldConfig(p=5, precision=12)"
    assert (repr(IntegralResult(Fraction(1, 5), 2, "finite"))
            == "IntegralResult(value=Fraction(1, 5), v0=2, tail='finite')")


def test_run_config_keys():
    rc = RunConfig(p=7, r=1, seed=3, fmt="csv", depth_strict=True, out="somewhere")
    assert rc.as_dict() == {"p": 7, "r": 1, "seed": 3, "fmt": "csv", "depth_strict": True}
    assert list(rc.as_dict()) == ["p", "r", "seed", "fmt", "depth_strict"]


def test_expansion_report_takes_keywords():
    row = ExpansionReport(f_id="f", x_id="X", torus="split", depth=Fraction(1), r=0,
                          lhs=Fraction(1, 2), rhs=Fraction(1, 3), expected=False)
    assert row.residual == Fraction(1, 6) and not row.passed
    assert row.csv_row() == ["f", "X", "split", "1", "0", "1/2", "1/3", "1/6", "contrast"]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since pytest itself imports both; -I -S keep the
    # environment and site hooks out, -B keeps bytecode out of the sources
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import germlab.cli, json; "
            "print(json.dumps([m in sys.modules for m in ('dataclasses', 'inspect')]))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, False]


def test_a_value_pickled_in_another_process_hashes_afresh():
    # the child has its own string-hash seed, so a hash carried in the
    # pickle would not match this process's
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import pickle; "
            "from germlab import OrbitLabel; print(pickle.dumps(OrbitLabel('split')).hex())")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    label = pickle.loads(bytes.fromhex(proc.stdout))
    assert hash(label) == hash(OrbitLabel("split")) and {label: 1}[OrbitLabel("split")] == 1
