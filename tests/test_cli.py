import json
from pathlib import Path

import pytest

import simtree
from simtree.cli import main

DATA = Path(simtree.__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.rstrip("\n"), out.err


def test_count_bipyramid(capsys):
    code, out, _ = run(capsys, "count", "--complex", f"{DATA}/bipyramid.json", "--dim", "2")
    assert code == 0
    assert out == '{"tau": 15}'


def test_count_methods_agree(capsys):
    outs = set()
    for method in ("oracle", "laplacian", "altproduct"):
        code, out, _ = run(capsys, "count", "--complex", f"{DATA}/bipyramid.json",
                           "--dim", "2", "--method", method)
        assert code == 0
        outs.add(out)
    assert outs == {'{"tau": 15}'}


def test_count_trees_listing(capsys):
    code, out, _ = run(capsys, "count", "--complex", f"{DATA}/tetrahedron_boundary.json",
                       "--dim", "2", "--method", "oracle", "--trees")
    assert code == 0
    data = json.loads(out)
    assert data["tau"] == 4 and len(data["trees"]) == 4


def test_count_non_apc_exit_2(capsys):
    code, out, err = run(capsys, "count", "--complex", f"{DATA}/two_edges.json", "--dim", "1")
    assert code == 2
    assert "complex is not APC" in err


def test_count_cap_exit_3(capsys):
    code, _, err = run(capsys, "count", "--complex", f"{DATA}/bipyramid.json",
                       "--dim", "2", "--method", "oracle", "--cap", "3")
    assert code == 3
    assert "cap" in err


def test_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "count", "--complex", "/nonexistent.json", "--dim", "1")
    assert code == 1
    code, _, err = run(capsys, "nonsense")
    assert code == 1


def test_homology(capsys):
    code, out, _ = run(capsys, "homology", "--complex", f"{DATA}/rp2_six.json", "--dim", "1")
    assert code == 0
    assert json.loads(out) == {"betti": 0, "torsion_order": 2}


def test_weighted_coarse_golden(capsys):
    code, out, _ = run(capsys, "weighted", "--complex", f"{DATA}/bipyramid.json",
                       "--scheme", "coarse")
    assert code == 0
    assert out.startswith("X[1]^5 * X[2]^3 * X[3]^3 * X[4]^2 * X[5]^2")
    code2, out2, _ = run(capsys, "shifted", "tau", "--generators", "2,3,5", "--coarse")
    assert code2 == 0 and out2 == out


def test_shifted_spectrum_and_hear_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "shifted", "spectrum", "--generators", "2,3,5", "--json")
    assert code == 0
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(out)
    code, heard, _ = run(capsys, "shifted", "hear", "--spectrum-file", str(spec_file))
    assert code == 0
    assert json.loads(heard)["facets"] == [
        [1, 2, 3], [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 5], [2, 3, 4], [2, 3, 5]]


def test_shifted_critical_pairs(capsys):
    code, out, _ = run(capsys, "shifted", "critical-pairs", "--generators", "2,3,5", "--json")
    assert code == 0
    rows = json.loads(out)["pairs"]
    assert {tuple(map(tuple, (r["A"], r["B"]))) for r in rows} == {
        ((1, 2, 5), (1, 2, 6)), ((1, 3, 5), (1, 3, 6)), ((1, 3, 5), (1, 4, 5)),
        ((2, 3, 5), (2, 3, 6)), ((2, 3, 5), (2, 4, 5))}


def test_shifted_coarse_spectrum_text(capsys):
    code, out, _ = run(capsys, "shifted", "spectrum", "--generators", "2,3,5", "--coarse")
    assert code == 0
    assert out == "E_5, E_5, E_5, E_3, E_3  + 0^4"


def test_shifted_non_shifted_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"facets": [[1, 3], [2, 4]]}')
    code, _, err = run(capsys, "shifted", "spectrum", "--complex", str(bad))
    assert code == 2
    assert "not shifted" in err


def test_threshold_cli(capsys):
    code, out, _ = run(capsys, "threshold", "--degrees", "3,1,1,1")
    assert code == 0
    assert out == "X[1,1]^3 * X[2,2] * X[2,3] * X[2,4]"


def test_ferrers_cli(capsys):
    code, out, _ = run(capsys, "ferrers", "--partition", "2,2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["vars"] == "X" and len(data["terms"]) == 4


def test_weighted_json_term_list(capsys):
    code, out, _ = run(capsys, "weighted", "--complex", f"{DATA}/bipyramid.json",
                       "--scheme", "coarse", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["vars"] == "X"
    assert {"coeff": "1", "exps": [[1, 5], [2, 3], [3, 3], [4, 2], [5, 2]]} in data["terms"]
    assert sum(int(t["coeff"]) for t in data["terms"]) == 15


def test_deterministic_output(capsys):
    first = run(capsys, "weighted", "--complex", f"{DATA}/bipyramid.json",
                "--scheme", "fine")
    second = run(capsys, "weighted", "--complex", f"{DATA}/bipyramid.json",
                 "--scheme", "fine")
    assert first == second


@pytest.mark.slow
def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 0
    assert out.count("[PASS]") == 13
    assert "13/13 criteria passed" in out


@pytest.mark.parametrize("text", [
    '{"facets": 5}',
    '{"facets": [[1, "2"]]}',
    '{"facets": [[true, 2]]}',
    '{"facets": [5]}',
    '5',
    '{"shifted_generators": [[2, 3]], "min_vertex": "1"}',
])
def test_malformed_complex_json_exit_1(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "count", "--complex", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


def test_malformed_generators_exit_1(capsys):
    code, out, err = run(capsys, "count", "--generators", "2,3,x")
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
