"""Byte-exact golden outputs of the command line on fixed configurations.

Each case runs one ``tbtdec`` command and compares the files it writes (and
its stdout) with the copies under ``tests/golden/``.  Any change to decoding,
tallying, tracing or log writing that alters a single byte fails here.  After
an intended output change, regenerate the copies with
``PYTHONPATH=src python tests/test_golden.py`` and say why in the change.
"""

from __future__ import annotations

import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from tbtdec import cli

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, {output flag -> golden file}, golden file for stdout or None)
CASES = {
    "simulate-mem4": (
        ["simulate", "--code", "mem4-circle20", "--ebn0", "2,3", "--frames", "300",
         "--seed", "7", "--decoders", "two-phase-L1,two-phase-L2,exact-ml,phase1-only"],
        {"--out": "simulate-mem4.csv", "--mismatch-log": "simulate-mem4-mismatch.jsonl"},
        None,
    ),
    "simulate-mem6": (
        ["simulate", "--code", "mem6-circle48", "--ebn0", "1,2", "--frames", "100",
         "--seed", "7", "--decoders", "two-phase-L1,two-phase-L2,exact-ml"],
        {"--out": "simulate-mem6.csv", "--mismatch-log": "simulate-mem6-mismatch.jsonl"},
        None,
    ),
    "decode-frame-mem4-L2": (
        ["decode-frame", "--code", "mem4-circle20", "--ebn0", "2", "--frame", "26",
         "--seed", "7", "--list-size", "2"],
        {"--trace-out": "decode-frame-mem4-L2.trace"},
        "decode-frame-mem4-L2.stdout",
    ),
    "check-lemmas-block6": (
        ["check-lemmas", "--code", "toy-block-n6-k3-c2", "--frames", "200", "--seed", "3"],
        {},
        "check-lemmas-block6.stdout",
    ),
}


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """Run one case in ``workdir``; returns golden file name -> produced text."""
    argv, outputs, stdout_name = CASES[name]
    argv = list(argv)
    for flag, fname in outputs.items():
        argv += [flag, str(workdir / fname)]
    buf = StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == 0
    produced = {f: (workdir / f).read_text(encoding="utf-8") for f in outputs.values()}
    if stdout_name is not None:
        produced[stdout_name] = buf.getvalue().replace(str(workdir), "<dir>")
    return produced


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    for fname, text in run_case(name, tmp_path).items():
        assert text, f"{fname} is empty"
        assert text == (GOLDEN / fname).read_text(encoding="utf-8"), fname


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for fname, text in run_case(case, Path(tmp)).items():
                (GOLDEN / fname).write_text(text, encoding="utf-8")
                print(f"wrote {GOLDEN / fname}", file=sys.stderr)
