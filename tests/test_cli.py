import argparse
import csv
import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ratbound
from ratbound import DEFAULTS, Tolerances, canonicalize, sample_max_entropy, weak_distance
from ratbound import cli
from ratbound import families as fam
from ratbound.cli import main
from ratbound.escape import cone_angle_report
from ratbound.measure import boundary_measure
from ratbound.ratmap import decompose, iterate_formula


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _encode(value):
    """The encoder's whole text for `value`."""
    return "".join(cli._json_pieces(value))


def write_map(tmp_path, f, name="map.json"):
    path = tmp_path / name
    path.write_text(json.dumps(f.to_json()))
    return str(path)


def test_tolerances_as_dict_matches_dataclasses_asdict():
    # the envelope's tolerance block and the "# tol.*" CSV header lines: same
    # keys, order and values as dataclasses.asdict, and a copy
    for tol in (DEFAULTS, Tolerances(pt=1e-10, gcd=1e-4)):
        got = tol.as_dict()
        assert list(got.items()) == list(dataclasses.asdict(tol).items())
        got["pt"] = 0.0
        assert tol.pt != 0.0


def test_decompose_indeterminate_d1(tmp_path, capsys):
    # (w : 0) at d = 1
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "d": 1,
        "P": {"degree": 1, "coeffs": [[1, 0], [0, 0]]},
        "Q": {"degree": 1, "coeffs": [[0, 0], [0, 0]]},
    }))
    code, out = run(capsys, "decompose", "--input", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["verdict"] == "indeterminate"
    assert rep["tolerances"]["pt"] == 1e-9


def test_decompose_family_nondegenerate(capsys):
    code, out = run(capsys, "decompose", "--family", "example1",
                    "--param", "d=2", "--param", "a=0.5", "--param", "t=0.01")
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "nondegenerate"


def test_indeterminate_command(capsys, tmp_path):
    g = fam.example1_limit(2)
    code, out = run(capsys, "indeterminate", "--input", write_map(tmp_path, g))
    assert code == 0
    assert json.loads(out)["result"]["indeterminate"] is True


def test_iterate_exit_code_on_indeterminacy(tmp_path, capsys):
    g = fam.example1_limit(2)
    code = main(["iterate", "--input", write_map(tmp_path, g), "--param", "n=2"])
    assert code == 3


def test_iterate_hole_depth_table(tmp_path, capsys):
    fa = fam.example1_second_limit(2, a=0.5)
    code, out = run(capsys, "iterate", "--input", write_map(tmp_path, fa),
                    "--param", "n=3", "--tol", "1e-4")
    assert code == 0
    rep = json.loads(out)["result"]
    assert rep["iterate"]["d"] == 64
    # cmd_iterate hands the encoder coefficient arrays; the schema stays to_json()'s
    assert rep["iterate"] == json.loads(json.dumps(iterate_formula(fa, 3, 1e-4).to_json()))
    tables = rep["hole_depth_table"]
    assert tables
    for row in tables:
        seq = row["normalized_depths"]
        assert all(b >= a - 1e-15 for a, b in zip(seq, seq[1:]))


def test_iterate_decomposes_once(tmp_path, capsys, monkeypatch):
    import ratbound.cli
    import ratbound.ratmap

    calls = []
    real = ratbound.ratmap.decompose

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ratbound.cli, "decompose", counting)
    monkeypatch.setattr(ratbound.ratmap, "decompose", counting)
    fa = fam.example1_second_limit(2, a=0.5)
    code, out = run(capsys, "iterate", "--input", write_map(tmp_path, fa),
                    "--param", "n=3", "--tol", "1e-4")
    assert code == 0
    assert len(json.loads(out)["result"]["hole_depth_table"]) >= 2
    assert len(calls) == 1


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_iterate_overflow_exits_numerical_failure(tmp_path, capsys):
    # n = 3 of this degree-16 map has degree 4096; the product formula's power
    # tables overflow and no non-finite coefficients may be written
    f = fam.example2_second_limit(4, 2, a=0.5)
    out = tmp_path / "it.json"
    code = main(["iterate", "--input", write_map(tmp_path, f), "--tol", "1e-4",
                 "--param", "n=3", "--out", str(out)])
    assert code == 4
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_param_lists_do_not_leak_between_calls(capsys):
    code, out = run(capsys, "decompose", "--family", "example1",
                    "--param", "d=3", "--param", "a=0.5", "--param", "t=0.01")
    assert code == 0 and json.loads(out)["result"]["d"] == 3
    # t went only to the first call, so the second lacks it
    assert main(["decompose", "--family", "example1", "--param", "d=2"]) == 2
    code, out = run(capsys, "decompose", "--family", "example1",
                    "--param", "d=2", "--param", "t=0.01")
    assert code == 0 and json.loads(out)["result"]["d"] == 2


def test_measure_command_with_cone_angles(tmp_path, capsys):
    fa = fam.make_epstein_FT(1.0)
    code, out = run(capsys, "measure", "--input", write_map(tmp_path, fa),
                    "--param", "tail_tol=1e-6")
    assert code == 0
    rep = json.loads(out)["result"]
    assert abs(sum(a["mass"] for a in rep["measure"]["atoms"])
               + rep["measure"]["tail_bound"] - 1) < 1e-9
    assert rep["cone_angles"]


def test_pointmass_command(tmp_path, capsys):
    fa = fam.make_epstein_FT(1.0)
    code, out = run(capsys, "pointmass", "--input", write_map(tmp_path, fa),
                    "--param", "at=inf")
    assert code == 0
    rep = json.loads(out)["result"]
    assert abs(rep["mass"] - 1 / 3) < 1e-9


def test_measure_rejects_nondegenerate(capsys):
    code = main(["measure", "--family", "example1",
                 "--param", "d=2", "--param", "a=0.5", "--param", "t=0.1"])
    assert code == 2


def test_sample_command_deterministic(tmp_path, capsys):
    fa = fam.make_polylimit([1.0, -1.0], 5.0)
    path = write_map(tmp_path, fa)
    code1, out1 = run(capsys, "sample", "--input", path, "--seed", "5",
                      "--depth", "6", "--count", "50", "--param", "a0=0.3+0.2j")
    code2, out2 = run(capsys, "sample", "--input", path, "--seed", "5",
                      "--depth", "6", "--count", "50", "--param", "a0=0.3+0.2j")
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)["result"]
    assert rep["count"] == 50 and rep["seed"] == 5


def test_sample_env_seed(tmp_path, capsys, monkeypatch):
    fa = fam.make_polylimit([1.0, -1.0], 5.0)
    path = write_map(tmp_path, fa)
    monkeypatch.setenv("RATBOUND_SEED", "77")
    code, out = run(capsys, "sample", "--input", path,
                    "--depth", "4", "--count", "10", "--param", "a0=0.3+0.2j")
    assert code == 0
    assert json.loads(out)["result"]["seed"] == 77


def test_sample_exceptional_exit_code(tmp_path, capsys):
    from ratbound import BoundaryMap, HPoly

    f = BoundaryMap(2, HPoly.from_coeffs([0, 0, 1]), HPoly.from_coeffs([1, 0, 0]))
    code = main(["sample", "--input", write_map(tmp_path, f),
                 "--param", "a0=0", "--depth", "4", "--count", "10"])
    assert code == 3


def test_sample_degree_one_exit_code(tmp_path, capsys):
    from ratbound import BoundaryMap, HPoly

    f = BoundaryMap(1, HPoly.from_coeffs([0, 2]), HPoly.from_coeffs([1, 0]))  # z -> 2z
    code = main(["sample", "--input", write_map(tmp_path, f),
                 "--param", "a0=1", "--depth", "3", "--count", "10"])
    assert code == 3
    assert "d >= 2" in capsys.readouterr().err


def test_sample_csv_rows_are_the_json_samples(capsys):
    argv = ["sample", "--family", "example1", "--param", "d=3", "--param", "t=1e-2",
            "--seed", "11", "--depth", "7", "--count", "40"]
    code, out = run(capsys, *argv)
    assert code == 0
    samples = json.loads(out)["result"]["samples"]
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    meta = dict(l[2:].split("=", 1) for l in lines if l.startswith("# "))
    assert (meta["seed"], meta["depth"], meta["count"]) == ("11", "7", "40")
    header, *rows = [l.split(",") for l in lines if not l.startswith("#")]
    assert header == ["z_re", "z_im", "w_re", "w_im"]
    # 17 significant digits round-trip the JSON floats exactly
    assert [[float(x) for x in r] for r in rows] == [
        [zr, zi, wr, wi] for (zr, zi), (wr, wi) in samples]


def test_converge_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = main([
        "converge", "--family", "polylimit",
        "--param", "roots=1,-1,2", "--param", "sweep=k",
        "--param", "values=10,1e4",
        "--seed", "4", "--depth", "12", "--count", "400",
        "--out", str(out_path),
    ])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert any(line.startswith("# tol.gcd=") for line in lines)
    header = [l for l in lines if not l.startswith("#")][0]
    assert header.split(",") == ["k", "weak_distance", "mass_in_disk", "flag"]
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 2
    dists = [float(r[1]) for r in rows]
    assert dists[1] < dists[0]  # closer to the limit measure at larger k


def test_converge_rows_equal_weak_distance_to_the_target(tmp_path):
    # the sweep integrates its target once; each row is still exactly
    # weak_distance(emp, target) for that row's sample cloud
    out_path = tmp_path / "sweep.csv"
    argv = ["converge", "--family", "example1", "--param", "values=1e-1,1e-2,1e-3",
            "--param", "d=2", "--param", "a=0.5", "--param", "tail_tol=1e-3",
            "--seed", "5", "--depth", "10", "--count", "300", "--out", str(out_path)]
    assert main(argv) == 0
    rows = [l.split(",") for l in out_path.read_text().splitlines()
            if not l.startswith("#")][1:]
    assert [r[3] for r in rows] == ["ok"] * 3
    fixed = {"d": 2, "a": 0.5}
    target = fam.FamilySpec("example1", fixed).limit(1e-3)
    for t, row in zip((1e-1, 1e-2, 1e-3), rows):
        f = fam.FamilySpec("example1", {**fixed, "t": t}).build()
        emp = sample_max_entropy(f, canonicalize(0.5 + 0.5j, 1.0), depth=10, count=300, seed=5)
        assert float(row[1]) == weak_distance(emp, target)


def test_converge_target_of_bad_mass_fails_each_row(tmp_path, capsys, monkeypatch):
    # tail_tol 0.5 stops the target after two levels, at total mass 0.75; the
    # target is checked before the first sample, so the run exits 2 and writes nothing
    monkeypatch.setattr(cli, "sample_max_entropy", lambda *a, **k: pytest.fail("sampled"))
    out = tmp_path / "sweep.csv"
    code, err = _exit(["converge", "--family", "example1", "--param", "d=2",
                       "--param", "tail_tol=0.5", "--param", "values=0.1,0.01",
                       "--seed", "2", "--depth", "6", "--count", "50", "--out", str(out)],
                      capsys)
    assert code == 2
    assert err == "ratbound: total mass 0.75 outside [0.9, 1.1]\n"
    assert not out.exists()


def test_csv_field_with_a_comma_or_quote_is_quoted(tmp_path):
    # the rows stay as wide as the header when a flag holds a comma or a quote
    args = argparse.Namespace(command="converge", tol=1e-6, out=str(tmp_path / "o.csv"))
    flags = ['error: total mass 0.75 outside [0.9, 1.1]', 'say "hi"', "ok"]
    cli._emit_csv(args, ["t", "flag"], [(0.1, f) for f in flags])
    header, *rows = csv.reader(l for l in (tmp_path / "o.csv").read_text().splitlines()
                               if not l.startswith("#"))
    assert header == ["t", "flag"] and rows == [["0.10000000000000001", f] for f in flags]


@pytest.mark.parametrize("family, params, sweep, values", [
    ("example2", ["d=3", "k=2", "a=0.5"], "t", "1e-1,1e-2"),
    ("cubic_eps", [], "eps", "1e-1,1e-3"),
])
def test_converge_targets(family, params, sweep, values, capsys):
    argv = ["converge", "--family", family, "--param", f"sweep={sweep}",
            "--param", f"values={values}", "--seed", "3", "--depth", "10", "--count", "300"]
    for p in params:
        argv += ["--param", p]
    code, out = run(capsys, *argv)
    assert code == 0
    header, *rows = csv.reader(l for l in out.splitlines() if not l.startswith("#"))
    assert header == [sweep, "weak_distance", "mass_in_disk", "flag"]
    assert [r[3] for r in rows] == ["ok", "ok"]
    assert all(0.0 <= float(r[1]) < 1.0 for r in rows)


def test_converge_family_without_a_sweep_target_exits_2(capsys):
    code = main(["converge", "--family", "epstein_FT", "--param", "values=1,2"])
    assert code == 2
    assert "not defined for family 'epstein_FT'" in capsys.readouterr().err


def test_properness_of_one_map(capsys):
    # without values: one row "-" for the map itself, |Res(f^n)| = 0 exactly
    # when f is degenerate
    code, out = run(capsys, "properness", "--family", "epstein_FT", "--param", "T=1")
    assert code == 0
    header, *rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert header == ["t", "abs_resultant"]
    assert len(rows) == 1 and rows[0][0] == "-" and float(rows[0][1]) < 1e-10
    code, out = run(capsys, "properness", "--family", "example1", "--param", "d=2",
                    "--param", "t=0.1", "--param", "n=3")
    assert code == 0
    _, row = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert row[0] == "-" and float(row[1]) > 0.0
    assert "# n=3" in out.splitlines()


def test_single_root_where_a_root_list_belongs(tmp_path, capsys):
    # a --param value without a comma parses to a scalar: a one-root list
    assert main(["decompose", "--family", "polylimit", "--param", "roots=1"]) == 2
    assert capsys.readouterr().err == "ratbound: need at least two roots\n"
    code, out = run(capsys, "decompose", "--family", "example1", "--param", "d=2",
                    "--param", "t=0.1", "--param", "P_roots=2")
    assert code == 0
    f = fam.make_example1(2, 1.0, 0.1, fam._p_from_roots([2]))
    assert out == run(capsys, "decompose", "--input", write_map(tmp_path, f))[1]


def test_properness_csv_inversion_family(tmp_path, capsys):
    out_path = tmp_path / "prop.csv"
    code = main([
        "properness", "--family", "inversion",
        "--param", "sweep=k", "--param", "values=2,10,100", "--param", "n=2",
        "--out", str(out_path),
    ])
    assert code == 0
    rows = [l.split(",") for l in out_path.read_text().strip().splitlines()
            if not l.startswith("#")][1:]
    vals = [float(r[1]) for r in rows]
    assert max(vals) - min(vals) < 1e-12  # properness fails at d = 1


def test_properness_example1(tmp_path, capsys):
    out_path = tmp_path / "prop1.csv"
    code = main([
        "properness", "--family", "example1",
        "--param", "d=2", "--param", "a=0.5",
        "--param", "sweep=t", "--param", "values=1e-1,1e-3",
        "--param", "n=2", "--out", str(out_path),
    ])
    assert code == 0
    rows = [l.split(",") for l in out_path.read_text().strip().splitlines()
            if not l.startswith("#")][1:]
    vals = [float(r[1]) for r in rows]
    assert vals[1] < vals[0] / 100


def test_escape_grid_csv(tmp_path, capsys):
    from ratbound import BoundaryMap, HPoly

    f = BoundaryMap(2, HPoly.from_coeffs([0, 0, 1]), HPoly.from_coeffs([1, 0, 0]))
    out_path = tmp_path / "grid.csv"
    code = main(["escape", "--input", write_map(tmp_path, f),
                 "--param", "re=-1:1:3", "--param", "im=0:0:1",
                 "--out", str(out_path)])
    assert code == 0
    rows = [l.split(",") for l in out_path.read_text().strip().splitlines()
            if not l.startswith("#")][1:]
    assert len(rows) == 3
    mid = [r for r in rows if float(r[0]) == 0.0][0]
    assert abs(float(mid[2])) < 1e-12


def test_validation_error_exit_code(capsys):
    assert main(["decompose"]) == 2  # no map given
    assert main(["converge", "--family", "example1", "--param", "d=2"]) == 2


@pytest.mark.parametrize("argv", [
    ["measure", "--param", "tail_tol=1,2"],
    ["sample", "--param", "a0=1,2"],
    ["pointmass", "--param", "at=1,2"],
    ["escape", "--param", "n_max=1,2"],
    ["iterate", "--param", "n=1,2"],
    ["decompose", "--param", "T=1,2"],
    ["escape", "--param", "re=-2,2,21"],
    ["converge", "--param", "sweep=t,k"],
])
def test_list_where_one_value_belongs_exits_2(capsys, argv):
    # a comma-separated --param value parses to a list
    assert main(argv + ["--family", "epstein_FT"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ratbound: ") and "takes one value" in err


def test_inversion_is_a_family_of_every_verb(capsys):
    code, out = run(capsys, "decompose", "--family", "inversion", "--param", "k=2")
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "nondegenerate"


@pytest.mark.parametrize("verb, fmt", [("measure", "csv"), ("escape", "json"),
                                       ("decompose", "csv"), ("converge", "json")])
def test_format_a_verb_does_not_write_exits_2(verb, fmt, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--family", "epstein_FT", "--format", fmt])
    assert exc.value.code == 2
    assert "argument --format: invalid choice" in capsys.readouterr().err


def test_tolerance_block_echoes_tol(capsys):
    code, out = run(capsys, "decompose", "--family", "epstein_FT", "--tol", "1e-4")
    assert code == 0
    block = json.loads(out)["tolerances"]
    assert list(block.items()) == list({**DEFAULTS.as_dict(), "gcd": 1e-4}.items())
    code, out = run(capsys, "sample", "--family", "example1", "--param", "d=2",
                    "--param", "t=0.1", "--depth", "4", "--count", "5",
                    "--tol", "1e-9", "--format", "csv")
    assert code == 0
    header = [l for l in out.splitlines() if l.startswith("# tol.")]
    assert header == [f"# tol.{k}={v:.17g}"
                      for k, v in {**DEFAULTS.as_dict(), "gcd": 1e-9}.items()]


def test_sample_and_converge_read_tol(capsys):
    # criterion 11b's map: at the default gcd radius a spurious shared root
    # near infinity makes it degenerate; at --tol 1e-9 it is sampled
    cubic = ["--family", "cubic_eps", "--param", "a0=0.4+0.1j", "--seed", "6",
             "--depth", "8", "--count", "50", "--tol", "1e-9"]
    code, out = run(capsys, "sample", *cubic, "--param", "eps=1e-6", "--format", "csv")
    assert code == 0
    emp = sample_max_entropy(fam.make_cubic_eps(1e-6), canonicalize(0.4 + 0.1j, 1),
                             depth=8, count=50, seed=6, gcd_tol=1e-9)
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
    assert [[float(x) for x in r] for r in rows] == [
        [z.real, z.imag, w.real, w.imag] for z, w in emp.samples]
    code, out = run(capsys, "converge", *cubic, "--param", "sweep=eps",
                    "--param", "values=1e-6")
    assert code == 0
    header, *rows = csv.reader(l for l in out.splitlines() if not l.startswith("#"))
    assert [r[3] for r in rows] == ["ok"]


def test_every_verb_decomposes_at_tol(tmp_path, monkeypatch):
    # --tol is the gcd tolerance of every decomposition of the input map;
    # only converge's target decomposes at FAMILY_LIMIT_GCD_TOL
    import ratbound.ratmap as ratmap

    seen = []
    real = ratmap.numeric_gcd
    monkeypatch.setattr(ratmap, "numeric_gcd",
                        lambda P, Q, tol: seen.append(tol) or real(P, Q, tol))
    e1 = ["--family", "example1", "--param", "d=2", "--param", "t=0.1"]
    ft = ["--family", "epstein_FT", "--param", "T=1"]
    small = ["--depth", "5", "--count", "20"]
    runs = {
        "decompose": e1, "indeterminate": e1, "iterate": e1, "properness": e1,
        "measure": ft + ["--param", "tail_tol=1e-3"], "pointmass": ft,
        "sample": e1 + small,
        "converge": ["--family", "example1", "--param", "d=2", "--param", "values=0.1",
                     "--param", "tail_tol=1e-3", *small],
        "escape": ft + ["--param", "re=-1:1:3", "--param", "im=0:0:1"],
    }
    assert set(runs) == set(cli.COMMANDS)
    for verb, argv in runs.items():
        seen.clear()
        assert main([verb, *argv, "--tol", "3e-5", "--out", str(tmp_path / verb)]) == 0, verb
        assert 3e-5 in seen and DEFAULTS.gcd not in seen, (verb, seen)
        assert set(seen) <= {3e-5, fam.FAMILY_LIMIT_GCD_TOL}, (verb, seen)


def test_tol_defaults_to_the_gcd_tolerance():
    assert cli.build_parser().parse_args(["decompose"]).tol == DEFAULTS.gcd


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-inf"])
def test_tol_must_be_positive_and_finite(tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--family", "epstein_FT", f"--tol={tol}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --tol: must be positive and finite" in err


@pytest.mark.parametrize("tol", ["1", "10"])
def test_tol_must_lie_below_1(tol, capsys):
    # chordal distances lie in [0, 1], so such a tol would match every root pair
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--family", "epstein_FT", f"--tol={tol}"])
    assert exc.value.code == 2
    assert f"argument --tol: must be below 1, got '{tol}'" in capsys.readouterr().err


def test_indeterminate_verdict_is_decompose_verdict_at_the_same_tol(tmp_path, capsys):
    # --tol is the gcd tolerance for indeterminate too: its flag is the
    # decompose verdict, never a second |H(c)| threshold
    from ratbound import BoundaryMap, HPoly

    root = canonicalize(0.7 - 0.2j, 1)
    H = HPoly.from_roots([(root, 1), (canonicalize(3, 1), 1)])
    for c in (root.ratio(), root.ratio() + 1e-5):
        path = write_map(tmp_path, BoundaryMap(2, c * H, H))
        for tol in ("1e-6", "1e-4"):
            _, flag = run(capsys, "indeterminate", "--input", path, "--tol", tol)
            _, dec = run(capsys, "decompose", "--input", path, "--tol", tol)
            verdict = json.loads(dec)["result"]["verdict"] == "indeterminate"
            assert json.loads(flag)["result"]["indeterminate"] is verdict is (c == root.ratio())


def test_measure_and_pointmass_reject_bad_truncation_tolerances(capsys):
    for argv in (["measure", "--param", "tail_tol=0"],
                 ["measure", "--param", "tail_tol=nan"],
                 ["pointmass", "--param", "series_tol=inf"],
                 ["pointmass", "--param", "series_tol=-inf"],
                 ["pointmass", "--param", "series_tol=nan"]):
        assert main(argv + ["--family", "epstein_FT", "--param", "T=1"]) == 2
        assert capsys.readouterr().err.startswith("ratbound: ")


def test_pointmass_ambiguous_hole_exits_4(tmp_path, capsys):
    path = write_map(tmp_path, fam.polylimit_limit([0, 1.5e-6, 1, 2]))
    assert main(["pointmass", "--input", path, "--param", "at=7.5e-7"]) == 4
    assert "ambiguous" in capsys.readouterr().err


def test_float_formatting_17_digits(tmp_path):
    out_path = tmp_path / "p.csv"
    main(["properness", "--family", "inversion", "--param", "sweep=k",
          "--param", "values=3", "--param", "n=2", "--out", str(out_path)])
    data_rows = [l for l in out_path.read_text().splitlines()
                 if not l.startswith("#") and not l.startswith("k,")]
    val = data_rows[0].split(",")[1]
    assert float(val) == pytest.approx(1.0)


def test_escape_grid_indeterminate_exit_code(tmp_path, capsys):
    g = fam.example1_limit(2)
    out_path = tmp_path / "grid.csv"
    code = main(["escape", "--input", write_map(tmp_path, g),
                 "--param", "re=-1:1:3", "--param", "im=-1:1:3", "--out", str(out_path)])
    assert code == 3
    assert not out_path.exists()


# -- JSON output: byte for byte json.dumps(envelope, indent=2) ---------------

KEYS = st.text(max_size=6)
LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
          | st.floats().map(np.float64))


def _json_values(children):
    same_keys = st.lists(KEYS, max_size=4).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries({k: children for k in keys}), max_size=4))
    same_length = st.integers(0, 3).flatmap(
        lambda n: st.lists(st.lists(children, min_size=n, max_size=n), max_size=4))
    return (st.lists(children, max_size=4) | st.dictionaries(KEYS, children, max_size=4)
            | st.lists(children, max_size=3).map(tuple) | same_keys | same_length)


@settings(max_examples=200, deadline=None)
@given(st.recursive(LEAVES, _json_values, max_leaves=40))
def test_encoder_matches_json_dumps_indent_2(value):
    assert _encode(value) == json.dumps(value, indent=2)


# shared by several explicit cases: nested lists (the point shape), an
# empty list and a tuple of tuples
_P, _Q, _E, _T = [[1.0, 2.0], [3.0, 4.0]], [[5.0], []], [], ((1, 2.5), ("x",))


def _aliased(pool):
    """Trees that reuse the objects of `pool`: at several depths, repeated
    within one column, and in columns that are prefixes or permutations of
    one another."""
    columns = (st.lists(st.sampled_from(pool), max_size=5) | st.permutations(pool)
               | st.integers(0, len(pool)).map(lambda n: pool[:n]))
    rows = columns.map(lambda column: [{"point": p} for p in column])
    return st.recursive(LEAVES | st.sampled_from(pool) | columns | rows, _json_values,
                        max_leaves=20)


POINTS = st.lists(st.lists(LEAVES, max_size=2), max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.lists(POINTS | POINTS.map(tuple) | st.just([]), min_size=1, max_size=4)
       .flatmap(_aliased))
def test_encoder_matches_json_dumps_with_shared_lists(value):
    assert _encode(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {}, [], [{}], [[]], [[], []], {"a": {}, "b": []}, [{"a": {}}, {"a": {}}],
    [1, "a", None, True, False, 1.5, [2], {"k": 3}],
    [{"a": 1, "b": [1.0, 2.0]}, {"a": 2, "b": [3.0, 4.0]}],
    [{"a": 1}, {"b": 1}], [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
    [[1, 2], [3]], [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]],
    (1, (2.0, "x")), [(1, 2), [3, 4]], [(), []],
    [np.float64(0.1), np.float64(-0.0), np.float64("nan")], [np.float64(1.5), 2.5],
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324, 1e16, 0.1],
    {"x": math.nan, "y": -math.inf},
    [True, False, True], [0, -1, 2 ** 70], [None, None], [1, True, 1.0],
    {"%": "%", "%s": "%s", "%%d": 1, '"q"': "'", "back\\slash": "\\", "é✓\u2028": "ü\x00"},
    [{"%s": 1, '"': 2}, {"%s": 3, '"': 4}],
    "plain", 7, None, False, 2.5, math.nan,
    # one list object in several places; in the dicts, "a" and "b" render as
    # separate columns, with "b" one level deeper
    {"a": [{"p": _P}, {"p": _Q}], "b": {"c": [{"p": _P, "x": 1}, {"p": _Q, "x": 2}]}},
    {"b": {"c": [{"p": _P}, {"p": _Q}]}, "a": [{"p": _P, "x": 1}, {"p": _Q, "x": 2}]},
    [_P, _P, _Q, _P], [{"p": _P}, {"p": _P}], [[_P, _Q], [_P, _Q]],
    {"a": [{"p": _P}, {"p": _Q}], "b": {"c": [{"p": _P, "x": 1}]}},
    {"a": [{"p": _P}], "b": {"c": [{"p": _P, "x": 1}, {"p": _Q, "x": 2}]}},
    {"a": [{"p": _P}, {"p": _Q}], "b": {"c": [{"p": _P, "x": 1}, {"p": [[6.0]], "x": 2}]}},
    {"a": [{"p": _P}, {"p": _Q}], "b": {"c": [{"p": _Q, "x": 1}, {"p": _P, "x": 2}]}},
    [[_E, _E], {"x": [_E, [_E]]}, [[_E]], {"y": [[_E]]}],
    {"a": [_T, _T], "b": [[_T]], "c": _T, "d": [{"t": _T}]},
])
def test_encoder_explicit_cases(value):
    assert _encode(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [[np.int64(1)], {"a": np.bool_(True)}, {1j}, [1, {"a": 1j}]])
def test_encoder_rejects_what_json_rejects(value):
    with pytest.raises(TypeError) as ours:
        _encode(value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(value, indent=2)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("value", [{1: "x"}, [{"a": 1}, {"a": 2, 3: 4}], {None: 1}])
def test_encoder_rejects_non_str_keys(value):
    with pytest.raises(TypeError):
        _encode(value)


def test_cli_json_is_json_dumps_indent_2(tmp_path):
    ft = fam.make_epstein_FT(1.0)
    path = write_map(tmp_path, ft)
    e1 = ["--family", "example1", "--param", "d=3", "--param", "t=0.01"]
    runs = {
        "measure": ["measure", "--input", path, "--param", "tail_tol=1e-4"],
        "decompose": ["decompose", *e1],
        "iterate": ["iterate", "--input", path, "--param", "n=2"],
        "pointmass": ["pointmass", *e1, "--param", "at=0"],
        "indeterminate": ["indeterminate", "--input", path],
        "sample": ["sample", *e1, "--count", "200", "--depth", "8", "--seed", "4"],
    }
    for verb, argv in runs.items():
        out = tmp_path / f"{verb}.json"
        assert main(argv + ["--out", str(out)]) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", verb
    cones = json.loads((tmp_path / "measure.json").read_text())["result"]["cone_angles"]
    assert len(cones) == 2 ** 14


@pytest.fixture(scope="module")
def ft_measure_envelope(tmp_path_factory):
    """The envelope of cmd_measure for F_T (T=1) at tail_tol 1e-4: the result it hands
    _emit_json, which this captures, in the envelope _emit_json wraps it in."""
    tmp = tmp_path_factory.mktemp("ft")
    path = write_map(tmp, fam.make_epstein_FT(1.0))
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_emit_json", lambda args, result: seen.append(result))
        argv = ["measure", "--input", path, "--param", "tail_tol=1e-4", "--out", str(tmp / "o")]
        assert main(argv) == 0
    return {"command": "measure", "tolerances": DEFAULTS.as_dict(), "seed": 0, "result": seen[0]}


def test_measure_renders_each_distinct_float_once(ft_measure_envelope, monkeypatch):
    # the cone rows reuse the atoms' point texts, and each array renders each
    # distinct float64 bit pattern once: 40,740 renders for 98,304 floats
    rendered, float_texts = [], cli._float_texts
    monkeypatch.setattr(cli, "_float_texts",
                        lambda values, *rest: rendered.extend(values) or float_texts(values, *rest))
    _encode(ft_measure_envelope)
    result = ft_measure_envelope["result"]
    atoms, cones = result["measure"]["atoms"], result["cone_angles"]
    floats = np.concatenate([atoms["point"].ravel(), atoms["mass"], cones["angle"]])
    assert len(floats) == 6 * 2 ** 14 and cones["point"] is atoms["point"]
    bits = np.array(rendered).view(np.int64)
    assert len(bits) == len(set(bits.tolist())) == 40_740
    assert set(bits.tolist()) == set(floats.view(np.int64).tolist())


def test_encoder_peak_memory_is_bounded_by_the_text(ft_measure_envelope):
    # streamed into a sink that only counts bytes, the encoder holds the item
    # texts and one block of rows, never the text: peak/size reads 0.61; keeping
    # rendered columns past their use, or joining more than a block, shows here
    tracemalloc.start()
    try:
        size = sum(map(len, cli._json_pieces(ft_measure_envelope)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * size


# arrays, as `measure` and `sample` pass them: float columns of shapes (n,) and
# (n, 2, 2) whose items repeat and include signed zeros, NaN, infinities and
# subnormals, bool columns, and _Rows tables of them sharing column objects
SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-308, 1 / 3])


def _columns(n):
    floats = st.sampled_from([(n,), (n, 2, 2)]).flatmap(
        lambda shape: hnp.arrays(np.float64, shape, elements=SPECIAL | st.floats()))
    return st.lists(floats | hnp.arrays(bool, (n,)), min_size=1, max_size=4)


def _array_trees(pool):
    tables = st.lists(KEYS, min_size=1, max_size=3, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({k: st.sampled_from(pool) for k in keys}))
    return st.recursive(LEAVES | st.sampled_from(pool) | tables.map(cli._Rows), _json_values,
                        max_leaves=8)


def _as_lists(value):
    """`value` with arrays as nested lists and _Rows as lists of dicts."""
    if isinstance(value, cli._Rows):
        return [dict(zip(value, row)) for row in zip(*map(_as_lists, value.values()))]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    return value


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 1, 5]).flatmap(_columns).flatmap(_array_trees))
def test_encoder_renders_arrays_as_their_lists(value):
    assert _encode(value) == json.dumps(_as_lists(value), indent=2)


# bool arrays map through the constants; an array neither float64 nor bool
# renders as its tolist() does, never as float bits and never as true/false
@pytest.mark.parametrize("value", [
    np.array([True, False, True]), np.array([[True], [False]]), np.zeros((2, 0), bool),
    cli._Rows(infinite_end=np.array([False, True]), angle=np.array([0.5, -0.0])),
    [cli._Rows(flag=np.array([True])), {"x": np.array([[False, True]])}],
    np.array([0, 1, 2 ** 40]), np.array([[1, 0], [0, 1]], np.int8),
    cli._Rows(n=np.array([0, 1]), b=np.array([1, 0], bool)),
    np.array([0.1, np.nan], np.float32), np.array([2.5, -np.inf], ">f8"), np.array(["a", "%s"]),
])
def test_encoder_array_explicit_cases(value):
    assert _encode(value) == json.dumps(_as_lists(value), indent=2)


@pytest.mark.parametrize("n", [cli._BLOCK - 1, cli._BLOCK, cli._BLOCK + 1, 2 * cli._BLOCK + 1])
def test_encoder_rows_across_block_edges(n):
    # an array is joined _BLOCK rows to a piece; around each block edge the
    # rows, and a point column shared by two _Rows as in `measure`, read as
    # json.dumps reads their lists
    rng = np.random.default_rng(n)
    points = rng.standard_normal((n, 2, 2))
    points[::5, 1] = [-0.0, math.nan]
    masses = rng.random(n)
    value = {"points": points, "masses": masses,
             "atoms": cli._Rows(point=points, mass=masses),
             "cones": cli._Rows(point=points, angle=2 * masses, infinite_end=masses < 0.5)}
    assert _encode(value) == json.dumps(_as_lists(value), indent=2)
    # one piece per block, then the closing bracket
    assert len(list(cli._json_pieces(masses))) == -(-n // cli._BLOCK) + 1


def test_multi_block_measure_writes_the_same_bytes_to_stdout_and_out(tmp_path, capsys):
    argv = ["measure", "--family", "epstein_FT", "--param", "tail_tol=1e-4"]
    code, out = run(capsys, *argv)
    assert code == 0 and main(argv + ["--out", str(tmp_path / "o.json")]) == 0
    assert (tmp_path / "o.json").read_bytes() == out.encode()
    assert len(json.loads(out)["result"]["cone_angles"]) > 2 * cli._BLOCK


def test_csv_rows_are_their_fields(tmp_path):
    # a float column is formatted once per bit pattern (-0.0 apart from 0.0,
    # each NaN), any other column field by field; rows cross block edges
    args = argparse.Namespace(command="escape", tol=1e-6, out=str(tmp_path / "o.csv"))
    special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 0.1, 1 / 3]
    rows = [(special[i % 9], i if i % 2 else i / 7, 'a, "b"' if i % 5 else "ok", i * 0.5)
            for i in range(cli._BLOCK + 3)]
    cli._emit_csv(args, ["x", "y", "flag", "z"], rows, {"seed": 1})
    head, body = (tmp_path / "o.csv").read_text().split("\nx,y,flag,z\n")
    assert head.startswith("# command=escape\n# tol.pt=") and head.endswith("# seed=1")
    assert body == "".join(",".join(map(cli._fmt, row)) + "\n" for row in rows)


@pytest.mark.parametrize("value", [np.array([1j]), cli._Rows(z=np.array([0.5 + 1j]))])
def test_encoder_rejects_array_items_json_rejects(value):
    with pytest.raises(TypeError) as ours:
        _encode(value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(_as_lists(value), indent=2)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("source, f, tol, tail_tol", [
    (None, fam.make_epstein_FT(1.0), DEFAULTS.gcd, 1e-4),
    (None, fam.example1_second_limit(2, 0.4), 1e-4, 4e-4),
    (["--family", "polylimit", "--param", "roots=1,2", "--param", "k=inf"],  # e = 0
     fam.make_polylimit([1, 2], math.inf), DEFAULTS.gcd, 1e-9),
])
def test_measure_json_is_the_measure_and_its_cone_angles(source, f, tol, tail_tol, tmp_path,
                                                         capsys, monkeypatch):
    monkeypatch.delenv("RATBOUND_SEED", raising=False)
    code, out = run(capsys, "measure", *(source or ["--input", write_map(tmp_path, f)]),
                    "--tol", repr(tol), "--param", f"tail_tol={tail_tol!r}")
    mu = boundary_measure(decompose(f, tol), tail_tol)
    angles, infinite = cone_angle_report(mu)
    measure = mu.to_json()
    cones = [{"point": atom["point"], "angle": angle, "infinite_end": inf}
             for atom, angle, inf in zip(measure["atoms"], angles.tolist(), infinite.tolist())]
    envelope = {"command": "measure", "tolerances": {**DEFAULTS.as_dict(), "gcd": tol},
                "seed": 0, "result": {"measure": measure, "cone_angles": cones}}
    assert code == 0 and out == json.dumps(envelope, indent=2) + "\n"


def _exit(argv, capsys):
    """main's exit code, argparse's SystemExit included, and what it wrote to stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


E1 = ["--family", "example1", "--param", "d=2"]
FT = ["--family", "epstein_FT"]
SAMPLER = ["--depth", "3", "--count", "5"]


@pytest.mark.parametrize("argv, named", [
    (["measure", *FT, "--param", "tial_tol=0.5"], "--param tial_tol"),
    (["decompose", *FT, "--param", "TT=2"], "--param TT"),
    (["decompose", "--input", "MAP", "--param", "tial_tol=0.5"], "--param tial_tol"),
    (["decompose", "--input", "MAP", *FT], "--family: not allowed with argument --input"),
    (["decompose", *FT, "--depth", "5", "--count", "3"], "arguments: --depth 5 --count 3"),
    (["decompose", *E1], "family example1 needs --param t"),
    (["decompose", "--family", "custom"], "unknown family 'custom'"),
    (["decompose", "--family", "example1", "--param", "d=2.9", "--param", "t=0.1"],
     "--param d must be an integer, got 2.9"),
    (["iterate", *FT, "--param", "n=2.7"], "--param n must be an integer, got 2.7"),
    (["iterate", *FT, "--param", "n=1e400"], "--param n must be an integer, got inf"),
    (["escape", *FT, "--param", "n_max=1e400"], "--param n_max must be an integer"),
    (["pointmass", *FT, "--param", "at=nan"], "--param at must be a point, got nan"),
    (["sample", *E1, "--param", "t=0.1", "--param", "a0=nan", *SAMPLER],
     "--param a0 must be a point, got nan"),
    (["sample", *E1, "--param", "t=0.1", "--depth", "0"], "--depth: must be positive"),
    (["converge", *E1, "--param", "values=0.1", "--count", "0"], "--count: must be positive"),
    (["converge", *E1, "--param", "values=0.1", "--param", "tail_tol=1e-3",
      "--param", "sweep=tt", *SAMPLER], "family example1 takes no --param tt"),
])
def test_inputs_a_verb_does_not_read_exit_2(argv, named, tmp_path, capsys):
    # each exits 2 with a message naming the flag, key or value, before any output
    path = write_map(tmp_path, fam.make_epstein_FT(1.0))
    code, err = _exit([path if a == "MAP" else a for a in argv] + ["--out", str(tmp_path / "o")],
                      capsys)
    assert code == 2 and named in err
    assert "Traceback" not in err and not (tmp_path / "o").exists()


def test_only_sample_and_converge_take_sampler_flags(capsys):
    for verb in set(cli.COMMANDS) - {"sample", "converge"}:
        for flag in ("--seed", "--depth", "--count", "--workers"):
            code, err = _exit([verb, *FT, flag, "1"], capsys)
            assert code == 2 and f"unrecognized arguments: {flag} 1" in err, (verb, flag)


def test_converge_row_the_family_rejects_stays_an_error_row(capsys):
    code, out = run(capsys, "converge", *E1, "--param", "values=0,0.1",
                    "--param", "tail_tol=1e-3", *SAMPLER)
    assert code == 0
    _, *rows = csv.reader(l for l in out.splitlines() if not l.startswith("#"))
    assert [r[3] for r in rows] == ["error: t must be nonzero (the t = 0 limit is example1_limit)",
                                    "ok"]


def test_readme_names_resolve():
    # without running the tour: every rb.<name> / fam.<name> of the "Library
    # tour" block exists, and the CLI block lists exactly the CLI's verbs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = re.findall(r"\b(rb|fam)\.(\w+)", tour)
    assert names
    for owner, name in names:
        assert hasattr(ratbound if owner == "rb" else fam, name), f"{owner}.{name}"
    cli_doc = readme.split("## CLI", 1)[1]
    verbs = cli_doc.split("```\n", 1)[1].split("```", 1)[0].replace("|", " ").split()
    assert verbs == list(cli.COMMANDS)
    examples = set(re.findall(r"^ratbound (\w+)", cli_doc, re.M))
    assert examples and examples <= set(cli.COMMANDS)
    # the verb -> flags table is the parser's, and the family table FAMILY_KEYS
    verb_table, family_table = cli_doc.split("| family |", 1)
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {verb: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
             for verb, p in sub.choices.items()}
    rows = re.findall(r"^\| `(\w+)` \| `(--[^|]*)` \|", verb_table, re.M)
    assert {verb: row.split() for verb, row in rows} == flags
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", family_table, re.M)
    assert {name: tuple(re.findall(r"`(\w+)`", keys)) for name, keys in rows} == fam.FAMILY_KEYS


@pytest.mark.parametrize("argv, key", [
    (["decompose", *FT, "--param", "T=1", "--param", "T=2"], "--param T given twice"),
    (["measure", *FT, "--param", "tail_tol=1j"], "--param tail_tol"),
    (["pointmass", *FT, "--param", "series_tol=1j"], "--param series_tol"),
    (["converge", *E1, "--param", "values=0.1", "--param", "radius=1j", *SAMPLER],
     "--param radius"),
    (["converge", *E1, "--param", "values=0.1", "--param", "tail_tol=1j", *SAMPLER],
     "--param tail_tol"),
    (["decompose", "--family", "polylimit", "--param", "roots=1,2", "--param", "k=1j"],
     "--param k"),
    (["converge", *E1, "--param", "values=0.1", "--param", "sweep=1", *SAMPLER],
     "--param sweep"),
    (["properness", *E1, "--param", "values=0.1", "--param", "sweep=1"], "--param sweep"),
    (["properness", *E1, "--param", "values=0.1", "--param", "sweep="], "--param sweep"),
    (["decompose", *FT, "--param", "=2"], "--param expects key=value, got '=2'"),
    (["escape", *FT, "--param", "n_max=0"], "n_max must be positive, got 0"),
    (["properness", *E1, "--param", "values=0.1,0"], "t must be nonzero"),
    (["converge", *E1, "--param", "values=0.1", "--param", "sweep=tt", *SAMPLER],
     "--param tt"),
    *[(["converge", *E1, "--param", "values=0.1", "--param", f"radius={r}", *SAMPLER],
       "--param radius must be positive") for r in ("nan", "-1", "0")],
    # a row value of the wrong kind exits before the target and the first row
    *[(["converge", *E1, "--param", f"values=0.1,{v}", *SAMPLER],
       "--param t takes finite numbers") for v in ("nan", "inf", "1e400")],
    (["converge", "--family", "example1", "--param", "d=3", "--param", "t=0.1",
      "--param", "values=1", "--param", "sweep=P_roots", *SAMPLER], "--param P_roots takes a list"),
    (["properness", "--family", "polylimit", "--param", "values=1,2", "--param", "sweep=roots"],
     "--param roots takes a list"),
    # escape's re and im: finite real bounds and a positive integer count
    *[(["escape", *FT, "--param", f"{key}={spec}"], f"--param {key}")
      for key in ("re", "im")
      for spec in ("nan:2:3", "1e400:2:2", "-2:inf:2", "1j:2:3", "-2:2:0", "-2:2:-3", "-2:2:2.5",
                   "-2:2:inf", "-2:2", "a:2:3")],
])
def test_bad_input_exits_2_before_any_work(argv, key, tmp_path, capsys, monkeypatch):
    # one "ratbound:" line naming the key; no target is built, nothing sampled
    # and no iterate expanded
    limits = []
    monkeypatch.setattr(fam.FamilySpec, "limit", lambda *a: limits.append(a))
    monkeypatch.setattr(cli, "sample_max_entropy", lambda *a, **k: pytest.fail("sampled"))
    monkeypatch.setattr(cli, "iterate_formula", lambda *a, **k: pytest.fail("iterated"))
    out = tmp_path / "o"
    code, err = _exit(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("ratbound: ") and key in err
    assert not limits and not out.exists()


def _map_json(**changes):
    """The JSON text of a degree-1 map, with changes keyed by path ("P.coeffs.0")."""
    data = {"d": 1, "P": {"degree": 1, "coeffs": [[0.0, 0.0], [1.0, 0.0]]},
            "Q": {"degree": 1, "coeffs": [[1.0, 0.0], [0.0, 0.0]]}}
    for path, value in changes.items():
        *parents, last = [int(k) if k.isdigit() else k for k in path.split(".")]
        target = data
        for k in parents:
            target = target[k]
        target[last] = value
    return json.dumps(data)


@pytest.mark.parametrize("text, field", [
    (_map_json(**{"P.coeffs.1": ["1", 0]}), "P.coeffs[1]"),
    (json.dumps([json.loads(_map_json())]), "d must be"),
    (_map_json(**{"Q.coeffs.0": 1.0}), "Q.coeffs[0]"),
    (_map_json(**{"P.coeffs.0": [math.nan, 0.0]}), "P.coeffs[0]"),
    (_map_json(**{"Q.coeffs.1": [0.0, math.inf]}), "Q.coeffs[1]"),
    (_map_json(**{"P.coeffs.1": [1.0]}), "P.coeffs[1]"),
    (_map_json(**{"P.coeffs.1": [True, 0.0]}), "P.coeffs[1]"),
    (_map_json(d=True), "d must be"),
    (_map_json(d=1.0), "d must be"),
    (_map_json(d=-1), "d must be"),
    (_map_json(**{"Q.degree": False}), "Q.degree"),
    (_map_json(**{"P.coeffs": [[1.0, 0.0]]}), "P.coeffs"),
    (_map_json(**{"P": [1.0, 0.0]}), "P.degree"),
    (_map_json(**{"Q": None}), "Q.degree"),
], ids=["str-coeff", "top-level-list", "bare-number", "nan", "inf", "short-pair",
        "bool-coeff", "d-true", "d-float", "d-negative", "degree-false", "count", "P-list",
        "Q-null"])
def test_malformed_input_file_exits_2_naming_the_field(text, field, tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(text)
    out = tmp_path / "o"
    code, err = _exit(["decompose", "--input", str(path), "--out", str(out)], capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("ratbound: ") and field in err
    assert not out.exists()


def test_an_int_beyond_the_float_range_reads_as_infinity(capsys):
    # as 1e400 does, so a point key gets infinity and a real or integer key
    # its usual message, never an OverflowError
    big = "1" + "0" * 400
    assert cli._parse_params([f"n={big}", f"values=-{big},2"]) == {
        "n": math.inf, "values": [-math.inf, 2]}
    assert (run(capsys, "pointmass", *FT, "--param", f"at={big}")
            == run(capsys, "pointmass", *FT, "--param", "at=inf"))


def _readme_verb_keys():
    """(verb, key) for each key of README's verb table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    verb_table = readme.split("## CLI", 1)[1].split("| family |", 1)[0]
    return [(verb, key) for verb, keys in re.findall(r"^\| `(\w+)` \| `--[^|]*\| ([^|]*) \|",
                                                    verb_table, re.M)
            for key in re.findall(r"`(\w+)`", keys)]


# a cheap valid run of each verb, and of each family; the key under test
# replaces its entry.  No integral n: iterate expands degree d^n.
_VERB_RUNS = {
    "iterate": ("epstein_FT", {}),
    "measure": ("epstein_FT", {"tail_tol": "1e-2"}),
    "pointmass": ("epstein_FT", {}),
    "sample": ("example1", {"d": "2", "t": "0.1"}),
    "converge": ("example1", {"d": "2", "values": "0.1", "tail_tol": "1e-2"}),
    "properness": ("example1", {"d": "2", "t": "0.1"}),
    "escape": ("epstein_FT", {"re": "-2:2:5", "im": "-2:2:5"}),
}
_FAMILY_RUNS = {
    "example1": ({"d": "2", "t": "0.1"}, "t"),
    "example2": ({"d": "3", "k": "2", "t": "0.1"}, "t"),
    "epstein_FT": ({}, None),
    "cubic_eps": ({"eps": "0.1"}, "eps"),
    "polylimit": ({"roots": "1,-1,2"}, "k"),
    "inversion": ({"k": "2"}, None),
}
_BAD_VALUES = ("1j", "abc", "nan", "inf", "1e400", "", "-1", "0", "1+1j")


def _run_cases():
    for verb, key in _readme_verb_keys():
        family, params = _VERB_RUNS[verb]
        yield pytest.param(verb, family, params, key, id=f"{verb}-{key}")
    for family, (params, sweep) in _FAMILY_RUNS.items():
        for key in fam.FAMILY_KEYS[family]:
            yield pytest.param("decompose", family, params, key, id=f"decompose-{family}-{key}")
            if sweep is not None:
                yield pytest.param("converge", family,
                                   {**params, "sweep": sweep, "values": params.get(sweep, "10"),
                                    "tail_tol": "1e-2"},
                                   key, id=f"converge-{family}-{key}")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "nan+1j"])
@pytest.mark.parametrize("verb, family, key", [
    ("decompose", "example1", "t"), ("decompose", "example1", "a"),
    ("decompose", "example1", "P_roots"), ("decompose", "example2", "t"),
    ("decompose", "example2", "a"), ("decompose", "example2", "P_roots"),
    ("decompose", "epstein_FT", "T"), ("decompose", "cubic_eps", "eps"),
    ("decompose", "inversion", "k"), ("decompose", "polylimit", "roots"),
    ("converge", "example1", "a"), ("converge", "example2", "P_roots"),
])
def test_a_non_finite_family_value_exits_2_naming_its_key(verb, family, key, value, capsys):
    # rejected before any coefficient arithmetic, so numpy warns of nothing
    params, sweep = _FAMILY_RUNS[family]
    params = {**params, key: f"1,{value}" if key == "roots" else value}
    if verb == "converge":
        params.update(sweep=sweep, values=params[sweep], tail_tol="1e-2")
    pairs = [a for k, v in params.items() for a in ("--param", f"{k}={v}")]
    code, err = _exit([verb, "--family", family, *pairs, *(SAMPLER if verb == "converge" else [])],
                      capsys)
    assert code == 2 and err.startswith(f"ratbound: --param {key} takes finite numbers, got ")


def test_polylimit_k_inf_is_the_limit_and_k_nan_exits_2(capsys):
    code, out = run(capsys, "decompose", "--family", "polylimit", "--param", "roots=1,2",
                    "--param", "k=inf")
    assert code == 0 and json.loads(out)["result"]["verdict"] == "degenerate"
    code, err = _exit(["decompose", "--family", "polylimit", "--param", "roots=1,2",
                       "--param", "k=nan"], capsys)
    assert code == 2 and err == "ratbound: k must be positive, got nan\n"


@pytest.mark.parametrize("verb, family, params, key", _run_cases())
def test_every_key_value_exits_with_a_documented_code(verb, family, params, key, tmp_path,
                                                       capsys):
    # main returns 0, 2, 3 or 4 for each value, raising nothing, and a failed
    # run writes nothing; the key given twice exits 2
    out = tmp_path / "o"
    sampler = SAMPLER if verb in ("sample", "converge") else []

    def argv(value):
        pairs = [a for k, v in {**params, key: value}.items() for a in ("--param", f"{k}={v}")]
        return [verb, "--family", family, *sampler, *pairs, "--out", str(out)]

    for value in _BAD_VALUES:
        code, err = _exit(argv(value), capsys)
        assert code in (0, 2, 3, 4) and (code == 0) == out.exists(), (value, code, err)
        out.unlink(missing_ok=True)
    code, err = _exit(argv("1") + ["--param", f"{key}=1"], capsys)
    assert code == 2 and f"--param {key} given twice" in err
    assert not out.exists()
