"""Rendered enumerators stay byte-identical: each argv of golden/render.json
prints what it printed when the file was written (tests/golden_update.py)."""

from golden_update import load_render, run_argv


def test_rendered_enumerators_match_their_golden_digests():
    changed = [" ".join(e["argv"]) for e in load_render()
               if run_argv(e["argv"]) != (e["exit"], e["stdout_sha256"])]
    assert not changed, "output differs from tests/golden/render.json: " + "; ".join(changed)
