"""Replay CLI calls drawn from test_cli.py's fuzz strategies and print one
digest of everything they printed.

    python tests/cli_replay.py [-n N] [--src DIR] [--dump FILE]

Each draw is an argv (test_cli._argv), a complex file (_complex_text) and a
spectrum file (_spectrum_text). The files are written at fixed paths in the
temporary directory, so that messages naming them agree between checkouts,
and the argv runs through simtree.cli.main with stdout and stderr captured.
The script prints the number of calls per exit code and one SHA-256 over
every (argv, exit code, stdout, stderr) on its first line, then one line per
command (a shifted call's command is "shifted" and its action) with the calls
per exit code, so that a strategy that stops reaching a success path shows.

The draws depend only on N, the strategies and the installed hypothesis, so
two runs on one checkout print the same line, and so do two checkouts whose
outputs agree. The strategies always come from the test_cli.py next to this
script. simtree comes from --src (default: the src/ next to this tests/
directory), so one checkout's draws can replay against another checkout's
code. --dump writes every call as one JSON object per line of a JSON list,
so that two runs can be compared call by call with diff. pytest does not
collect this script.
"""

import argparse
import hashlib
import io
import json
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent


def replay(n: int, src: Path, dump: Path | None = None) -> str:
    sys.path[:0] = [str(src), str(HERE)]
    from hypothesis import HealthCheck, Phase, given, seed, settings
    from test_cli import _argv, _complex_text, _spectrum_text

    from simtree.cli import main

    directory = Path(tempfile.gettempdir()) / "simtree-cli-replay"
    directory.mkdir(exist_ok=True)
    files = {"COMPLEX": directory / "complex.json", "SPECTRA": directory / "spectra.json"}
    codes = Counter()
    per_command = {}
    digest = hashlib.sha256()
    calls = []

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
        command = " ".join(argv[:2] if argv[0] == "shifted" else argv[:1])
        per_command.setdefault(command, Counter())[code] += 1
        digest.update(repr((argv, code, out.getvalue(), err.getvalue())).encode())
        calls.append(json.dumps({"argv": argv, "code": code, "stdout": out.getvalue(),
                                 "stderr": err.getvalue()}, sort_keys=True))

    call()
    if dump is not None:
        dump.write_text("[\n" + ",\n".join(calls) + "\n]\n")

    def counts(c):
        return ", ".join(f"exit {code}: {count}" for code, count in sorted(c.items()))

    return "\n".join([f"{sum(codes.values())} calls; {counts(codes)}; sha256 {digest.hexdigest()}"]
                     + [f"  {command}: {counts(c)}" for command, c in sorted(per_command.items())])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", type=int, default=1500, help="calls to draw (default 1500)")
    parser.add_argument("--src", type=Path, default=HERE.parent / "src",
                        help="directory to import simtree from (default: ../src)")
    parser.add_argument("--dump", type=Path,
                        help="write every (argv, exit code, stdout, stderr) to FILE as JSON")
    args = parser.parse_args()
    print(replay(args.n, args.src.resolve(), args.dump))
