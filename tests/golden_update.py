"""Rewrite the golden files that tier-1 compares the program's outputs with.

    python tests/golden_update.py

golden/render.json holds, for each argv of RENDER_ARGVS, the exit code and
the SHA-256 of stdout when simtree.cli.main runs it: weighted enumerators in
every scheme, as text and as JSON, on the bundled data/*.json, and the
closed-form shifted, threshold and Ferrers enumerators. An argv names a
bundled file as DATA/<name>. golden/acceptance.txt holds the 13 criterion
lines of the full acceptance run, as `sst verify` prints them.

The script rewrites both files from the src/ next to this tests/ directory
and prints every argv and criterion line that changed, so that a rewrite is
a visible diff to explain. pytest does not collect it.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
RENDER = HERE / "golden" / "render.json"
ACCEPTANCE = HERE / "golden" / "acceptance.txt"
DATA_FILES = ("b2", "b3", "b4", "b5", "b6", "b7", "bipyramid", "rp2_six",
              "tetrahedron_boundary", "two_edges")
_FLAGS = ([], ["--json"])

RENDER_ARGVS = (
    [["weighted", "--complex", f"DATA/{name}.json", "--scheme", scheme, *flag]
     for name in DATA_FILES for scheme in ("fine", "coarse", "facet") for flag in _FLAGS]
    + [["shifted", "tau", "--generators", gens, *flag]
       for gens in ("2,3,5", "4,5", "3,4,6", "3,5,6") for flag in ([], ["--coarse"])]
    + [["shifted", "tau", "--generators", "3,4", "--min-vertex", "2", "--coarse"]]
    + [["threshold", "--degrees", degrees, *flag]
       for degrees in ("3,1,1,1", "4,4,3,3,2", "6,6,5,4,4,3,2") for flag in _FLAGS]
    + [["ferrers", "--partition", partition, *flag]
       for partition in ("2,2", "4,4,2,1", "4,4,3,3") for flag in _FLAGS]
)


def run_argv(argv) -> tuple:
    """(exit code, SHA-256 of stdout) of one golden argv run through
    simtree.cli.main, with DATA/<name> read from the bundled data."""
    import simtree
    from simtree.cli import main

    data = Path(simtree.__file__).parent / "data"
    argv = [str(data / a.removeprefix("DATA/")) if a.startswith("DATA/") else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def load_render() -> list:
    """The entries of golden/render.json: {"argv", "exit", "stdout_sha256"}."""
    return json.loads(RENDER.read_text())


def _update():
    from simtree.verification import run_acceptance

    old = {tuple(e["argv"]): e for e in load_render()} if RENDER.exists() else {}
    entries = []
    for argv in RENDER_ARGVS:
        code, digest = run_argv(argv)
        entries.append({"argv": argv, "exit": code, "stdout_sha256": digest})
        if old.get(tuple(argv)) != entries[-1]:
            print("changed:", " ".join(argv))
    RENDER.parent.mkdir(exist_ok=True)
    RENDER.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")

    old_lines = ACCEPTANCE.read_text().splitlines() if ACCEPTANCE.exists() else []
    lines = [r.line() for r in run_acceptance()]
    for line in lines:
        if line not in old_lines:
            print("changed:", line)
    ACCEPTANCE.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    _update()
