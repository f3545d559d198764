import json
import os
from fractions import Fraction

import pytest

from germlab.cli import main, parse_f_spec, parse_x_spec
from germlab import (FieldConfig, indicator_lattice, lcfunction_to_json,
                     make_vertex)
from germlab.tree import BASE

CFG = FieldConfig(5)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsers:
    def test_x_specs(self):
        assert parse_x_spec(CFG, "0").is_zero_elt()
        X = parse_x_spec(CFG, "diag(1,-1)")
        assert X.a == 1
        Y = parse_x_spec(CFG, "[[0,1],[5,0]]")
        assert Y.c == 5
        with pytest.raises(ValueError):
            parse_x_spec(CFG, "[[1,1],[1,1]]")

    def test_f_specs(self):
        assert parse_f_spec(CFG, "unit-ball").evaluate_rational(1, 0, 0) == 1
        assert parse_f_spec(CFG, "zero").is_zero
        f = parse_f_spec(CFG, "mp:(1,0):1")
        assert f.terms[0][1].vertex.m == 1
        g = parse_f_spec(CFG, "nil:pi:2")
        assert g.terms[0][1].center.b == 5

    def test_f_spec_json_file_roundtrip(self, tmp_path):
        f = (indicator_lattice(CFG, BASE, 1)
             + Fraction(1, 2) * indicator_lattice(CFG, make_vertex(CFG, 1, 0), 1))
        path = tmp_path / "f.json"
        path.write_text(json.dumps(lcfunction_to_json(f)))
        assert parse_f_spec(CFG, str(path)).equals(f)


class TestNilpotentCommand:
    def test_unit_ball_table(self, capsys):
        code, out, _ = run(capsys, "nilpotent", "--f", "unit-ball", "--p", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["table"]["Zero"] == "1"
        assert doc["table"]["Regular(One)"] == "1/2"
        assert all(v["match"] for v in doc["scaling_check"].values())
        assert doc["config"]["p"] == 5
        assert set(doc["config"]) == {"p", "r", "seed", "fmt", "depth_strict"}
        assert "normalization" in doc
        code, _, _ = run(capsys, "--precision", "8", "nilpotent", "--f", "zero")
        assert code == 2

    def test_zero_function(self, capsys):
        code, out, _ = run(capsys, "nilpotent", "--f", "zero")
        assert code == 0
        assert all(v == "0" for v in json.loads(out)["table"].values())

    def test_malformed_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "nilpotent", "--f", "bogus{")
        assert code == 2


class TestOrbitalCommand:
    def test_anchor(self, capsys):
        code, out, _ = run(capsys, "orbital", "--X", "diag(1,-1)", "--f", "unit-ball")
        assert code == 0
        assert json.loads(out)["result"]["value"] == "6/5"

    def test_depth_one(self, capsys):
        code, out, _ = run(capsys, "orbital", "--X", "diag(5,-5)", "--f", "unit-ball")
        assert code == 0
        assert json.loads(out)["result"]["value"] == "6"

    def test_non_regular_exits_3(self, capsys):
        code, _, err = run(capsys, "orbital", "--X", "0", "--f", "unit-ball")
        assert code == 3

    def test_usage_error_exits_2(self, capsys):
        assert main(["orbital", "--X", "diag(1,-1)"]) == 2


class TestVerifyCommand:
    def test_homogeneity(self, capsys):
        code, out, _ = run(capsys, "verify", "homogeneity", "--p", "5")
        assert code == 0
        assert all(r["pass"] for r in json.loads(out)["rows"])

    def test_theorem_r0(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--out", str(tmp_path), "verify", "theorem", "--r", "0")
        assert code == 0
        assert (tmp_path / "theorem-r0.json").exists()
        assert (tmp_path / "theorem-r0.csv").exists()
        doc = json.loads((tmp_path / "theorem-r0.json").read_text())
        assert doc["failures"] == 0
        first = (tmp_path / "theorem-r0.csv").read_text().splitlines()
        assert first[0].startswith("# config:")
        assert first[1] == "f_id,X_id,torus,depth,r,lhs,rhs,residual,pass"

    @pytest.mark.parametrize("suite", ["claim", "theorem"])
    def test_determinism_byte_identical(self, tmp_path, capsys, suite):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(capsys, "--out", str(d1), "verify", suite, "--r", "0")
        run(capsys, "--out", str(d2), "verify", suite, "--r", "0")
        for name in (f"{suite}-r0.json", f"{suite}-r0.csv"):
            b1 = (d1 / name).read_bytes()
            b2 = (d2 / name).read_bytes()
            assert b1 == b2

    def test_p3_warns(self, capsys):
        code, _, err = run(capsys, "nilpotent", "--f", "zero", "--p", "3")
        assert code == 0
        assert "p=3" in err
