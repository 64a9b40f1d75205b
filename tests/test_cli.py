import json

import pytest

from ratbound import families as fam
from ratbound.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_map(tmp_path, f, name="map.json"):
    path = tmp_path / name
    path.write_text(json.dumps(f.to_json()))
    return str(path)


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
    tables = rep["hole_depth_table"]
    assert tables
    for row in tables:
        seq = row["normalized_depths"]
        assert all(b >= a - 1e-15 for a, b in zip(seq, seq[1:]))


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


def test_float_formatting_17_digits(tmp_path):
    out_path = tmp_path / "p.csv"
    main(["properness", "--family", "inversion", "--param", "sweep=k",
          "--param", "values=3", "--param", "n=2", "--out", str(out_path)])
    data_rows = [l for l in out_path.read_text().splitlines()
                 if not l.startswith("#") and not l.startswith("k,")]
    val = data_rows[0].split(",")[1]
    assert float(val) == pytest.approx(1.0)
