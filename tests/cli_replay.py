"""Replay CLI calls drawn from test_cli.py's fuzz strategies and print one
digest of everything they printed.

    python tests/cli_replay.py [-n N]

Each draw is an argv (test_cli._argv), a complex file (_complex_text) and a
spectrum file (_spectrum_text). The files are written at fixed paths in the
temporary directory, so that messages naming them agree between checkouts,
and the argv runs through simtree.cli.main with stdout and stderr captured.
The script prints the number of calls per exit code and one SHA-256 over
every (argv, exit code, stdout, stderr).

The draws depend only on N, the strategies and the installed hypothesis, so
two runs on one checkout print the same line, and so do two checkouts whose
outputs agree. The script imports simtree from the src/ next to this tests/
directory. pytest does not collect it.
"""

import argparse
import hashlib
import io
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hypothesis import HealthCheck, Phase, given, seed, settings  # noqa: E402
from test_cli import _argv, _complex_text, _spectrum_text  # noqa: E402

from simtree.cli import main  # noqa: E402


def replay(n: int) -> str:
    directory = Path(tempfile.gettempdir()) / "simtree-cli-replay"
    directory.mkdir(exist_ok=True)
    files = {"COMPLEX": directory / "complex.json", "SPECTRA": directory / "spectra.json"}
    codes = Counter()
    digest = hashlib.sha256()

    @seed(0)
    @settings(max_examples=n, database=None, deadline=None, phases=[Phase.generate],
              suppress_health_check=list(HealthCheck))
    @given(argv=_argv(), complex_text=_complex_text, spectrum_text=_spectrum_text)
    def call(argv, complex_text, spectrum_text):
        files["COMPLEX"].write_text(complex_text)
        files["SPECTRA"].write_text(spectrum_text)
        argv = [str(files.get(token, token)) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        codes[code] += 1
        digest.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())

    call()
    counts = ", ".join(f"exit {code}: {count}" for code, count in sorted(codes.items()))
    return f"{sum(codes.values())} calls; {counts}; sha256 {digest.hexdigest()}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", type=int, default=1500, help="calls to draw (default 1500)")
    print(replay(parser.parse_args().n))
