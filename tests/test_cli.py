import csv
import io
import json
import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction

import pytest

import germlab
from germlab import cli
from germlab.cli import main, parse_f_spec, parse_x_spec
from germlab import (CSV_HEADER, FieldConfig, InvariantViolated, Sl2Element,
                     indicator_lattice, lcfunction_to_json, make_vertex)
from germlab.padic import val_p
from germlab.sl2 import classify
from germlab.tree import BASE

CFG = FieldConfig(5)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_python_dash_m_germlab_runs_the_cli():
    # the package runs as a module: its exit code is main's
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(germlab.__file__)))
    for argv, code in ((["--help"], 0), (["--precision", "3", "verify", "oracles"], 2)):
        proc = subprocess.run([sys.executable, "-m", "germlab", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, (argv, proc.stderr)


def test_a_run_imports_no_argparse_gettext_or_locale(tmp_path):
    # the CLI parses its own argv: a whole run loads none of the three
    src = os.path.dirname(os.path.dirname(germlab.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from germlab import cli; "
            "code = cli.main(['verify', 'oracles', '--out', sys.argv[2]]); "
            "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, src, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


DEFAULT = {"p": 5, "r": 0, "seed": 0, "fmt": "json", "depth_strict": False}
ORBITAL = ["orbital", "--X", "diag(1,-1)", "--f", "unit-ball"]


class TestGrammar:
    @pytest.fixture
    def seen(self, monkeypatch):
        # every command records the configuration it was given instead of running
        seen = []

        def record(rc, *args, **kwargs):
            seen.append(rc.as_dict())
            return 0
        for suite in cli.SUITES:
            monkeypatch.setitem(cli.SUITES, suite, record)
        monkeypatch.setattr(cli, "cmd_nilpotent", record)
        monkeypatch.setattr(cli, "cmd_orbital", record)
        return seen

    @pytest.mark.parametrize("argv, config", [
        (["verify", "claim"], {}),
        (["verify", "claim", "--r", "1"], {"r": 1}),
        (["verify", "claim", "--r=1"], {"r": 1}),
        (["verify", "--r", "2", "theorem"], {"r": 2}),
        (["verify", "claim", "--r", "-1"], None),   # parsed; the grid refuses it
        (["--p", "7", "verify", "claim"], {"p": 7}),
        (["--p=7", "verify", "claim"], {"p": 7}),
        (["verify", "claim", "--p", "7"], {"p": 7}),
        (["--p", "3", "verify", "claim", "--p", "7"], {"p": 7}),
        (["verify", "claim", "--p", "7", "--p=11"], {"p": 11}),
        (["--seed", "3", "verify", "germs", "--seed", "4"], {"seed": 4}),
        (["--format", "csv", "verify", "theorem", "--depth-strict"],
         {"fmt": "csv", "depth_strict": True}),
        (["--depth-strict", "--format=csv", "verify", "claim", "--format", "json"],
         {"depth_strict": True}),
        (["--out", "reports", "verify", "oracles", "--out=elsewhere"], {}),
        (["nilpotent", "--f", "zero", "--p", "7"], {"p": 7}),
        (["--p", "3", "nilpotent", "--f=zero"], {"p": 3}),
        (["orbital", "--f", "unit-ball", "--X=diag(1,-1)", "--seed", "2"], {"seed": 2}),
        # rejected: an unknown flag
        (["--precision", "3", "verify", "oracles"], None),
        (["verify", "oracles", "--precision", "3"], None),
        # a command's own flag before the command, or after another command
        (["--r", "1", "verify", "claim"], None),
        (["--X", "diag(1,-1)", "orbital", "--f", "unit-ball"], None),
        (["verify", "claim", "--f", "zero"], None),
        (["nilpotent", "--f", "zero", "--r", "0"], None),
        # an abbreviation, even a unique one
        (["verify", "claim", "--f", "csv"], None),
        (["--f", "csv", "verify", "claim"], None),
        (["verify", "claim", "--dep"], None),
        (["--form", "csv", "verify", "claim"], None),
        # a missing value
        (["verify", "claim", "--r"], None),
        (["verify", "claim", "--out"], None),
        (["verify", "claim", "--out", "--r", "0"], None),
        (["nilpotent", "--f"], None),
        # a bad int or choice, or a value given to a switch
        (["verify", "claim", "--r", "x"], None),
        (["--p", "five", "verify", "claim"], None),
        (["--seed=1.5", "verify", "claim"], None),
        (["--format", "xml", "verify", "claim"], None),
        (["--depth-strict=yes", "verify", "claim"], None),
        # a missing or unknown command or suite
        ([], None),
        (["--p", "7"], None),
        (["frobnicate"], None),
        (["verify"], None),
        (["verify", "--r", "0"], None),
        (["verify", "nope"], None),
        # a missing required flag
        (["nilpotent"], None),
        (["orbital", "--X", "diag(1,-1)"], None),
        (["orbital", "--f", "unit-ball"], None),
        # an extra positional argument
        (["verify", "claim", "theorem"], None),
        (["nilpotent", "--f", "zero", "extra"], None),
        ([*ORBITAL, "extra"], None),
    ], ids=lambda v: " ".join(v) or "(none)" if isinstance(v, list) else None)
    def test_argv_to_exit_code_and_config(self, capsys, seen, argv, config):
        code, out, err = run(capsys, *argv)
        if config is None:
            assert (code, out, seen) == (2, "", [])
            assert err.startswith("usage error:") and err.count("\n") == 1, err
        else:
            assert (code, seen) == (0, [{**DEFAULT, **config}])

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "claim", "-h"],
                                      ["--precision", "3", "--help"], ["nilpotent", "--f", "--help"]],
                             ids=" ".join)
    def test_help_anywhere_prints_the_help(self, capsys, seen, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err, seen) == (0, "", [])
        assert out.startswith("usage: germlab ")
        assert all(suite in out for suite in cli.SUITES)


class TestOneParser:
    def test_consecutive_runs_keep_no_state(self, capsys, monkeypatch):
        seen = []
        for suite in cli.GRID_SUITES:
            monkeypatch.setitem(cli.SUITES, suite,
                                lambda rc, grid: seen.append(rc.as_dict()) or 0)
        runs = [(["verify", "claim", "--r", "1"], 0), (["verify", "claim"], 0),
                (["--format", "csv", "verify", "theorem", "--depth-strict"], 0),
                (["verify", "theorem"], 0), (["verify", "nope"], 2), (["--help"], 0),
                (["verify", "claim", "--p", "7", "--seed", "3", "--format", "csv"], 0),
                (["verify", "claim"], 0), (["--r", "1", "verify", "claim"], 2)]
        assert [main(argv) for argv, _ in runs] == [code for _, code in runs]
        default = {"p": 5, "r": 0, "seed": 0, "fmt": "json", "depth_strict": False}
        assert seen == [{**default, "r": 1}, default,
                        {**default, "fmt": "csv", "depth_strict": True}, default,
                        {**default, "p": 7, "seed": 3, "fmt": "csv"}, default]


class TestParsers:
    def test_x_specs(self):
        assert parse_x_spec(CFG, "0").is_zero_elt()
        X = parse_x_spec(CFG, "diag(1,-1)")
        assert X.a == 1
        Y = parse_x_spec(CFG, "[[0,1],[5,0]]")
        assert Y.c == 5
        with pytest.raises(ValueError):
            parse_x_spec(CFG, "[[1,1],[1,1]]")
        for spec in ("diag(1,-2)", "[[0,1.5],[0,0]]", "[[1,2,3],[0,-1]]"):
            with pytest.raises(ValueError):
                parse_x_spec(CFG, spec)
        assert parse_x_spec(CFG, "diag(3/5,-3/5)").a == Fraction(3, 5)

    def test_f_specs(self):
        assert parse_f_spec(CFG, "unit-ball").evaluate(Sl2Element(CFG, 1, 0, 0)) == 1
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

    @pytest.mark.parametrize("spec", ["[[1,1],[1,1]]", "[[1/0,0],[0,-1/0]]", "bogus"])
    def test_bad_x_spec_exits_2(self, capsys, spec):
        code, _, err = run(capsys, "orbital", "--X", spec, "--f", "unit-ball")
        assert code == 2
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("spec", [
        "[1]", '[{"x": 1}]', "nil:foo:1", "no-such-file",
        pytest.param('[{"coeff": "1", "center": "[[0,1.5],[0,0]]", "vertex": "(0,0)",'
                     ' "level": 1}]', id="decimal-centre-entry"),
        pytest.param('[{"coeff": "1", "center": "[[1,0],[0,5]]", "vertex": "(0,0)",'
                     ' "level": 1}]', id="centre-not-trace-zero"),
        pytest.param('[{"coeff": 0.1, "center": "[[0,0],[0,0]]", "vertex": "(0,0)",'
                     ' "level": 1}]', id="float-coefficient"),
        pytest.param('[{"coeff": "1", "center": [[0, 1], [0, 0]], "vertex": "(0,0)",'
                     ' "level": 1}]', id="centre-not-a-string"),
        pytest.param('[{"coeff": "1", "center": "[[0,0],[0,0]]", "vertex": "(0,0)",'
                     ' "level": 1.5}]', id="float-level")])
    def test_bad_f_spec_exits_2(self, capsys, spec):
        code, _, err = run(capsys, "orbital", "--X", "diag(1,-1)", "--f", spec)
        assert code == 2
        assert err.startswith("usage error:")

    def test_bad_prime_exits_2(self, capsys):
        code, _, err = run(capsys, "--p", "4", "verify", "germs")
        assert code == 2
        assert err.startswith("usage error:")


class TestVerifyCommand:
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

    @pytest.mark.parametrize("suite", ["claim", "theorem"])
    def test_csv_format_prints_only_the_csv(self, tmp_path, capsys, suite):
        # without --out, stdout is the CSV report's text and no JSON summary
        code, out, _ = run(capsys, "--format", "csv", "verify", suite, "--r", "0")
        assert code == 0
        run(capsys, "--format", "csv", "--out", str(tmp_path), "verify", suite, "--r", "0")
        assert out == (tmp_path / f"{suite}-r0.csv").read_text()

    def test_csv_stdout_parses_as_csv(self, capsys):
        # the config comment line, then one 9-field row per line; the theorem
        # family's names (1[0+g(v0,1)]) hold commas, so they must be quoted
        for suite in ("claim", "theorem"):
            code, out, _ = run(capsys, "--format", "csv", "verify", suite, "--r", "0")
            comment, body = out.split("\n", 1)
            assert code == 0 and comment.startswith("# config:")
            rows = list(csv.reader(io.StringIO(body)))
            assert rows[0] == CSV_HEADER and len(rows) > 1
            assert all(len(row) == 9 for row in rows), suite

    @pytest.mark.parametrize("suite", ["claim", "theorem"])
    def test_depth_strict_drops_the_failing_depth_r_rows(self, capsys, suite):
        # at r=1 the level-2 vertex pool fails at depth exactly 1 (README,
        # "Known findings"); --depth-strict keeps only X of depth > 1
        assert run(capsys, "verify", suite, "--r", "1")[0] == 1
        assert run(capsys, "verify", suite, "--r", "1", "--depth-strict")[0] == 0

    @pytest.mark.parametrize("suite", ["claim", "theorem"])
    @pytest.mark.parametrize("args", [["--r", "-1"], ["--r", "4"],
                                      ["--r", "3", "--depth-strict"]])
    def test_a_grid_that_checks_nothing_exits_2(self, capsys, tmp_path, suite, args):
        # the grid's deepest point has depth 3: these --r keep no point
        code, _, err = run(capsys, "--out", str(tmp_path), "verify", suite, *args)
        assert code == 2
        assert err.startswith("usage error:")
        assert ("is negative" if args[1] == "-1" else "the deepest has depth 3") in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("suite", ["claim", "theorem"])
    def test_r3_checks_the_deepest_points(self, capsys, tmp_path, suite):
        assert run(capsys, "--out", str(tmp_path), "verify", suite, "--r", "3")[0] == 1

    def test_oracles_p7(self, capsys, tmp_path):
        code, _, _ = run(capsys, "--p", "7", "--out", str(tmp_path), "verify", "oracles")
        assert code == 0
        doc = json.loads((tmp_path / "oracles.json").read_text())
        cases = [t for t in doc["tree"] if "case" in t]
        assert doc["rows"] and cases
        assert all(t["pass"] is True for t in doc["rows"] + cases)

    def test_germs_is_deterministic_and_checks_every_kind(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(capsys, "--out", str(d1), "verify", "germs")[0] == 0
        assert run(capsys, "--out", str(d2), "verify", "germs")[0] == 0
        assert (d1 / "germs.json").read_bytes() == (d2 / "germs.json").read_bytes()
        rows = json.loads((d1 / "germs.json").read_text())["rows"]
        assert {row["t"] for row in rows} >= set(range(-2, 9))
        assert {row["torus"] for row in rows} == {"split", "unramified", "ramified-Pi",
                                                  "ramified-EpsPi"}

    @pytest.mark.parametrize("p", [3, 5, 13])
    def test_germ_grid_pairs_t_with_t_plus_4_in_every_class(self, p):
        # zeta^2 adds 4 to t = val(-det X), so verify germs checks homogeneity
        # in a (torus kind, tag) class wherever the class holds t and t + 4
        ts = defaultdict(set)
        for _, X in cli._germ_grid(FieldConfig(p), 0):
            label = classify(X)
            ts[label.torus_kind(), label.tag].add(val_p(-X.det(), p))
        assert set(ts) == {("split", None)} | {
            (kind, tag) for kind in ("unramified", "ramified-Pi", "ramified-EpsPi")
            for tag in (True, False)}
        for cls, seen in ts.items():
            assert any(t + 4 in seen for t in seen), cls

    @pytest.mark.parametrize("argv", [
        *(["verify", suite, *flags] for suite in ("germs", "oracles")
          for flags in (["--r", "0"], ["--r", "3"], ["--depth-strict"])),
        ["--depth-strict", "nilpotent", "--f", "zero"],
        *(["--format", "csv", *cmd] for cmd in (
            ["verify", "germs"], ["verify", "oracles"], ["nilpotent", "--f", "zero"],
            ["orbital", "--X", "diag(1,-1)", "--f", "unit-ball"]))],
        ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
    def test_grid_flags_without_a_grid_exit_2(self, capsys, tmp_path, argv):
        # a flag that is accepted always changes what is checked
        code, _, err = run(capsys, "--out", str(tmp_path), *argv)
        assert code == 2
        assert err.startswith("usage error:")
        assert not list(tmp_path.iterdir())

    def test_germs_exits_1_on_a_mismatch(self, capsys, monkeypatch):
        real = cli.closed_form_germs

        def shifted(X):
            return {om: v + 1 for om, v in real(X).items()}
        monkeypatch.setattr(cli, "closed_form_germs", shifted)
        code, out, _ = run(capsys, "verify", "germs")
        doc = json.loads(out)
        assert code == 1 and doc["failures"] == len(doc["rows"]) > 0

    def test_value_error_mid_run_exits_3(self, capsys, monkeypatch):
        # a ValueError raised inside a computation is not a usage error
        def suite(rc):
            raise ValueError("refinement level too coarse for this cell")
        monkeypatch.setitem(cli.SUITES, "oracles", suite)
        code, _, err = run(capsys, "verify", "oracles")
        assert code == 3
        assert err.startswith("computational error:")

    def test_germlab_error_mid_run_exits_3(self, capsys, monkeypatch):
        # a failed exact re-check is a computational error, like NotRegular
        def verify_claim(*args):
            raise InvariantViolated("strata are not geometric")
        monkeypatch.setattr(cli, "verify_claim", verify_claim)
        code, out, err = run(capsys, "verify", "claim")
        assert (code, out) == (3, "")
        assert err.startswith("computational error:")

    def test_p3_warns(self, capsys):
        code, _, err = run(capsys, "nilpotent", "--f", "zero", "--p", "3")
        assert code == 0
        assert "p=3" in err
