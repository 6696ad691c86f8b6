import itertools
import json
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import simtree
from simtree.cli import build_parser, main
from simtree.laurent import PRODUCT_PAIR_CAP
from simtree.weighted import SCHEMES

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
    # K_9: comb(36, 8) candidate edge sets for the oracle
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--generators", "8,9", "--method", "oracle")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == "error: comb(36, 8) candidate subsets exceed the oracle's budget 2000000\n"


def _write_cone(path, extra=()):
    """The cone on vertex 1 over K_199 plus 10,000 triangles on 2..200, and
    the extra facets: 29,701 facets and 49,802 faces without them, within the
    face budget, and comb(29701, 19701) has about 8,000 digits, past the
    int-to-str digit limit."""
    cone = [[1, a, b] for a, b in itertools.combinations(range(2, 201), 2)]
    rest = itertools.islice(itertools.combinations(range(2, 201), 3), 10_000)
    path.write_text(json.dumps({"facets": cone + [list(F) for F in rest] + list(extra)}))
    return str(path)


def test_oracle_budget_refusal_names_no_unbounded_count(tmp_path, capsys):
    # Building the complex and the rank of bd_1 take about half a second
    # before the budget test, so the bound leaves room for a host running at
    # half speed.
    path = _write_cone(tmp_path / "cone.json")
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--complex", path, "--method", "oracle")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (3, "")
    assert err == ("error: comb(29701, 19701) candidate subsets exceed the oracle's "
                   "budget 2000000\n")


def test_oracle_budget_refusal_comes_before_the_apc_check(tmp_path, capsys):
    # an isolated vertex makes the cone disconnected (49,803 faces): the
    # budget test, which needs only rank bd_1, refuses it before the APC check
    path = _write_cone(tmp_path / "cone.json", extra=[[201]])
    code, out, err = run(capsys, "count", "--complex", path, "--method", "oracle")
    assert (code, out) == (3, "")
    assert err == ("error: comb(29701, 19701) candidate subsets exceed the oracle's "
                   "budget 2000000\n")


def test_weighted_det_cap_exit_3(capsys):
    # the 2-skeleton of the 7-vertex simplex: a 15 x 15 reduced Laplacian
    code, out, err = run(capsys, "weighted", "--generators", "5,6,7", "--scheme", "coarse")
    assert (code, out) == (3, "")
    assert err == "error: symbolic determinant of size 15 exceeds the size budget 12\n"


@pytest.mark.parametrize("argv", [
    ["count", "--complex", f"{DATA}/bipyramid.json", "--method", "oracle", "--cap", "3"],
    ["weighted", "--complex", f"{DATA}/bipyramid.json", "--scheme", "coarse", "--det-cap", "2"],
])
def test_budgets_are_not_options(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: unrecognized arguments: ")


@pytest.mark.parametrize("argv, p", [
    (["shifted", "spectrum", "--generators", "2,3", "--min-vertex", "0"], 0),
    (["count", "--generators", "2,3", "--min-vertex", "-2", "--dim", "1"], -2),
])
def test_generators_with_a_min_vertex_below_1_exit_1(capsys, argv, p):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: min_vertex must be a positive integer, got {p}\n"


def test_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "count", "--complex", "/nonexistent.json", "--dim", "1")
    assert code == 1
    code, _, err = run(capsys, "nonsense")
    assert code == 1


def test_homology(capsys):
    code, out, _ = run(capsys, "homology", "--complex", f"{DATA}/rp2_six.json", "--dim", "1")
    assert code == 0
    assert json.loads(out) == {"betti": 0, "torsion_order": 2}


def test_scheme_choices_are_the_weighting_schemes():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    (scheme,) = [a for a in commands.choices["weighted"]._actions if a.dest == "scheme"]
    assert tuple(scheme.choices) == SCHEMES


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


@pytest.mark.parametrize("bound", ["-1", "0"])
def test_verify_refuses_an_empty_corpus(capsys, bound):
    # below one vertex criteria 8, 10 and 11 would pass on nothing
    for extra in ((), ("--quick",)):
        code, out, err = run(capsys, "verify", "--max-vertices", bound, *extra)
        assert (code, out) == (1, "")
        assert err == f"error: max_vertices must be at least 1, got {bound}\n"


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


@pytest.mark.parametrize("text", [
    '{"x": 1}',
    '{"spectra": {"a": []}}',
    '{"spectra": {"1": [{"S": [1]}]}}',
    '[1]',
    '{"spectra": {"1": [{"S": [2], "T": []}]}}',
])
def test_malformed_spectrum_file_exit_1(tmp_path, capsys, text):
    path = tmp_path / "spectra.json"
    path.write_text(text)
    code, out, err = run(capsys, "shifted", "hear", "--spectrum-file", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("key", ["1" * 4000, "15"], ids=["4000-digit", "15"])
def test_spectra_dimension_past_the_face_budget_exit_1(tmp_path, capsys, key):
    # a d-face brings 2^(d+1) faces, so no complex within the face budget
    # reaches dimension 15; the refusal does not quote the key
    path = tmp_path / "spectra.json"
    path.write_text(json.dumps({"spectra": {key: [{"S": [], "T": [1]}]}}))
    code, out, err = run(capsys, "shifted", "hear", "--spectrum-file", str(path))
    assert (code, out) == (1, "")
    assert err == (f"error: {path}: \"spectra\" must map each dimension, 0 to 14, to a list "
                   "of {\"S\": integer list, \"T\": nonempty integer list}\n")


@pytest.mark.parametrize("argv, message", [
    (["count", "--complex", f"{DATA}/bipyramid.json", "--generators", "2,3"],
     "argument --generators: not allowed with argument --complex"),
    (["shifted", "spectrum", "--generators", "2,3", "--complex", f"{DATA}/bipyramid.json"],
     "argument --complex: not allowed with argument --generators"),
    (["count", "--complex", f"{DATA}/bipyramid.json", "--min-vertex", "2"],
     "--min-vertex applies only to --generators"),
    (["homology", "--complex", f"{DATA}/bipyramid.json", "--dim", "1", "--min-vertex", "1"],
     "--min-vertex applies only to --generators"),
    (["count", "--complex", f"{DATA}/bipyramid.json", "--trees"],
     "--trees applies only to --method oracle"),
    (["count", "--generators", "2,3", "--method", "altproduct", "--trees"],
     "--trees applies only to --method oracle"),
], ids=["complex-and-generators", "generators-and-complex", "min-vertex-with-complex",
        "min-vertex-on-homology", "trees-with-laplacian", "trees-with-altproduct"])
def test_options_the_call_would_ignore_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


# Each shifted action parses only its own options.
_SHIFTED_OPTIONS_OF_OTHER_ACTIONS = [
    ["shifted", "tau", "--generators", "2,3", "--dim", "99"],
    ["shifted", "critical-pairs", "--generators", "2,3", "--coarse"],
    ["shifted", "hear", "--spectrum-file", "SPECTRA", "--generators", "9,9,9",
     "--min-vertex", "4", "--coarse"],
    ["shifted", "spectrum", "--generators", "2,3", "--spectrum-file", "/nonexistent"],
]


@pytest.mark.parametrize("argv, unrecognized", list(zip(_SHIFTED_OPTIONS_OF_OTHER_ACTIONS, [
    "--dim 99", "--coarse", "--generators 9,9,9 --min-vertex 4 --coarse",
    "--spectrum-file /nonexistent"])), ids=["tau-dim", "critical-pairs-coarse",
                                            "hear-complex-options", "spectrum-spectrum-file"])
def test_shifted_actions_refuse_the_options_of_the_others(tmp_path, capsys, argv, unrecognized):
    spectra = tmp_path / "spectra.json"
    spectra.write_text('{"spectra": {"1": [{"S": [], "T": [1, 2]}]}}')
    code, out, err = run(capsys, *[str(spectra) if a == "SPECTRA" else a for a in argv])
    assert (code, out) == (1, "")
    assert err == f"error: unrecognized arguments: {unrecognized}\n"


@pytest.mark.parametrize("argv", [
    ("count", "--complex"),
    ("shifted", "hear", "--spectrum-file"),
], ids=["complex", "spectrum-file"])
@pytest.mark.parametrize("content", [
    b'{"facets": [[' + b"1" * 5000 + b"]]}",
    b'{"facets": [[1, 2]], "x": "\xff"}',
    b"[" * 100_000,
    b'{"spectra": {"' + b"1" * 5000 + b'": [{"S": [1], "T": [1]}]}}',
], ids=["long-integer", "invalid-utf-8", "deep-nesting", "long-dimension-key"])
def test_unreadable_files_exit_1_without_a_traceback(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_zero_dimensional_complex(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text('{"facets": [[1], [2], [3]]}')
    code, out, _ = run(capsys, "weighted", "--complex", str(path), "--scheme", "coarse")
    assert (code, out) == (0, "X[1] + X[2] + X[3]")
    code, out, _ = run(capsys, "count", "--complex", str(path), "--dim", "0")
    assert (code, out) == (0, '{"tau": 3}')


@pytest.mark.parametrize("text", [
    '{"spectra": {"1": [{"S": [250], "T": [1, 500]}]}}',
    '{"spectra": {"1": [{"S": [1000000000], "T": [1]}]}}',
])
def test_hear_face_cap_exit_3(tmp_path, capsys, text):
    path = tmp_path / "spectra.json"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run(capsys, "shifted", "hear", "--spectrum-file", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "50000 faces (the face budget)" in err


@pytest.mark.parametrize("source", ["file", "generators"])
def test_generators_face_cap_exit_3(tmp_path, capsys, source):
    if source == "file":
        path = tmp_path / "generators.json"
        path.write_text('{"shifted_generators": [[200000, 400000]]}')
        argv = ("--complex", str(path))
    else:
        argv = ("--generators", "1000000000")
    start = time.perf_counter()
    code, out, err = run(capsys, "count", *argv, "--dim", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "50000 faces (the face budget)" in err


def test_facet_face_budget_exit_3(tmp_path, capsys):
    path = tmp_path / "facet.json"
    path.write_text(json.dumps({"facets": [list(range(1, 31))]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--complex", str(path), "--dim", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "50000 faces (the face budget)" in err


def test_threshold_face_budget_exit_3(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "threshold", "--degrees", ",".join(["1"] * 60_000))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "50000 faces (the face budget)" in err


@pytest.mark.parametrize("argv", [
    ("ferrers", "--partition", ",".join(["8"] * 8)),
    ("threshold", "--degrees", ",".join(["11"] * 12)),
])
def test_product_budget_exit_3(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 3.0
    assert (code, out) == (3, "")
    assert err.startswith("error: ")
    assert f"{PRODUCT_PAIR_CAP} term pairs (the product budget)" in err


@pytest.mark.parametrize("dim", ["-1", "3"])
def test_count_laplacian_dimension_out_of_range_exit_1(capsys, dim):
    code, out, err = run(capsys, "count", "--complex", f"{DATA}/bipyramid.json",
                         "--dim", dim, "--method", "laplacian")
    assert (code, out) == (1, "")
    assert f"error: tree dimension {dim} out of range [0, 2]" in err


@pytest.mark.parametrize("dim", ["-2", "-1", "3"])
def test_count_methods_refuse_a_dimension_out_of_range_alike(tmp_path, capsys, dim):
    path = tmp_path / "complex.json"
    path.write_text('{"facets": [[1, 2, 3], [1, 2, 4], [1, 3, 4]]}')
    results = {run(capsys, "count", "--complex", str(path), "--dim", dim, "--method", method)
               for method in ("oracle", "laplacian", "altproduct")}
    assert results == {(1, "", f"error: tree dimension {dim} out of range [0, 2]\n")}


# -- fuzzing the whole command line ------------------------------------------------

_ints = st.integers(1, 5) | st.integers(-2, 5)
_int_text = _ints.map(str) | st.sampled_from(["", "x", "1.5", "-0", "99"])
_csv = st.lists(_ints, max_size=6).map(lambda xs: ",".join(map(str, xs)))
_vertex_lists = st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=4, unique=True),
                         min_size=1, max_size=5)
_json_junk = st.recursive(
    st.none() | st.booleans() | _ints | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["facets", "shifted_generators", "min_vertex", "spectra",
                         "S", "T", "0", "1", "2", "01"]), inner, max_size=3),
    max_leaves=8)
_complex_text = st.one_of(
    _vertex_lists.map(lambda fs: json.dumps({"facets": fs})),
    st.tuples(_vertex_lists, _ints).map(
        lambda g: json.dumps({"shifted_generators": g[0], "min_vertex": g[1]})),
    _json_junk.map(json.dumps),
    st.sampled_from(["", "{", "nul", '{"facets": [[1, 2]]']),
)
_pair = st.fixed_dictionaries({"S": st.lists(st.integers(-1, 5), max_size=3),
                               "T": st.lists(st.integers(-1, 5), max_size=4)})
_spectrum_text = st.one_of(
    st.dictionaries(st.sampled_from(["0", "1", "2", "01", "a", "-1"]),
                    st.lists(_pair, max_size=4), max_size=3)
    .map(lambda spectra: json.dumps({"spectra": spectra})),
    _json_junk.map(json.dumps),
    st.sampled_from(["", "[", '{"spectra": ']),
)
_generators = st.lists(_csv, min_size=1, max_size=3).map(";".join)


def _threshold_degree_text(steps) -> str:
    """The degree sequence, largest first, of the threshold graph grown from
    one vertex by adding a dominating (True) or an isolated (False) vertex per
    step, and a dominating one last, so that no vertex is isolated."""
    degrees = [0]
    for dominating in [*steps, True]:
        degrees = [d + 1 for d in degrees] + [len(degrees)] if dominating else degrees + [0]
    return ",".join(map(str, sorted(degrees, reverse=True)))


# mostly degree sequences of threshold graphs on at most 6 vertices, else any list
_degrees = st.integers(0, 3).flatmap(
    lambda i: _csv if i == 0 else st.lists(st.booleans(), max_size=4).map(_threshold_degree_text))

# Options per subcommand, each with a strategy for its value tokens.
# "COMPLEX" and "SPECTRA" stand for the files written for the example.


def _value(strategy):
    return strategy.map(lambda v: [str(v)])


_FLAG = st.just([])
_COMPLEX_OPTIONS = {
    "--complex": st.just(["COMPLEX"]),
    "--generators": _value(_generators),
    "--min-vertex": _value(_int_text),
}
_OPTIONS = {
    "homology": {**_COMPLEX_OPTIONS, "--dim": _value(_int_text)},
    "count": {**_COMPLEX_OPTIONS, "--dim": _value(_int_text),
              "--method": _value(st.sampled_from(["oracle", "laplacian", "altproduct", "x"])),
              "--trees": _FLAG},
    "weighted": {**_COMPLEX_OPTIONS,
                 "--scheme": _value(st.sampled_from(["fine", "coarse", "facet", "x"])),
                 "--json": _FLAG},
    # each shifted action parses its own options; "x" is no action
    "shifted spectrum": {**_COMPLEX_OPTIONS, "--dim": _value(_int_text), "--coarse": _FLAG,
                         "--json": _FLAG},
    "shifted tau": {**_COMPLEX_OPTIONS, "--coarse": _FLAG, "--json": _FLAG},
    "shifted critical-pairs": {**_COMPLEX_OPTIONS, "--dim": _value(_int_text), "--json": _FLAG},
    "shifted hear": {"--spectrum-file": st.just(["SPECTRA"])},
    "shifted x": _COMPLEX_OPTIONS,
    "threshold": {"--degrees": _value(_degrees), "--json": _FLAG},
    "ferrers": {"--partition": _value(_csv), "--json": _FLAG},
}
# Options drawn for every example of a subcommand, so that most examples get
# past argument parsing; a tuple is one choice among its members.
_REQUIRED = {
    "homology": [("--complex", "--generators"), "--dim"],
    "count": [("--complex", "--generators")],
    "weighted": [("--complex", "--generators"), "--scheme"],
    "shifted spectrum": [("--complex", "--generators")],
    "shifted tau": [("--complex", "--generators")],
    "shifted critical-pairs": [("--complex", "--generators")],
    "shifted hear": ["--spectrum-file"],
    "shifted x": [],
    "threshold": ["--degrees"],
    "ferrers": ["--partition"],
}
_COMMANDS = ["count", "ferrers", "homology", "shifted", "threshold", "weighted"]
_ACTIONS = ["spectrum", "tau", "critical-pairs", "hear", "x"]
# Calls just past a budget, so that the draws reach its refusal: K_9's
# oracle (comb(36, 8) candidate subsets), the 15 x 15 symbolic determinant of
# the 2-skeleton of the 7-vertex simplex, and one shifted generator of 25,001
# vertices (50,002 faces by the face budget's count, where 25,000 pass).
_PAST_BUDGETS = [
    ["count", "--generators", "8,9", "--method", "oracle"],
    ["weighted", "--generators", "5,6,7", "--scheme", "coarse"],
    ["homology", "--generators", "25001", "--dim", "0"],
]
# Calls refused for the domain (exit 2), which random draws rarely reach: a
# complex that is not APC, for the reduced Laplacian and the weighted
# enumerator, and a coarse enumerator whose initial vertex is not 1.
_DOMAIN_REFUSALS = [
    ["count", "--generators", "1,2;3"],
    ["weighted", "--generators", "1,2;3", "--scheme", "fine"],
    ["shifted", "tau", "--coarse", "--generators", "3,4", "--min-vertex", "2"],
]


@st.composite
def _argv(draw):
    if draw(st.integers(0, 29)) == 0:
        return list(draw(st.sampled_from(_PAST_BUDGETS + _DOMAIN_REFUSALS
                                         + _SHIFTED_OPTIONS_OF_OTHER_ACTIONS)))
    command = draw(st.sampled_from(_COMMANDS))
    if command == "shifted":
        command += " " + draw(st.sampled_from(_ACTIONS))
    argv = command.split()
    options = _OPTIONS[command]
    names = [draw(st.sampled_from(name)) if isinstance(name, tuple) else name
             for name in _REQUIRED[command]]
    names += draw(st.lists(st.sampled_from(sorted(options)), max_size=3))
    for name in names:
        argv += [name] + draw(options[name])
    if draw(st.integers(0, 9)) == 9:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "7", "-"])))
    return argv


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv(), complex_text=_complex_text, spectrum_text=_spectrum_text)
def test_cli_fuzz_exits_cleanly(tmp_path, capsys, argv, complex_text, spectrum_text):
    """Every subcommand but verify, on small complexes and malformed files:
    an exit code in {0, 1, 2, 3} and never a traceback."""
    files = {"COMPLEX": tmp_path / "complex.json", "SPECTRA": tmp_path / "spectra.json"}
    files["COMPLEX"].write_text(complex_text)
    files["SPECTRA"].write_text(spectrum_text)
    argv = [str(files.get(token, token)) for token in argv]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
