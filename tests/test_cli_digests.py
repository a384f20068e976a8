"""Every command of ``cli_digests.txt`` writes its recorded bytes.

Each command runs in-process through :func:`nhlgi.cli.main` into
``tmp_path``.  On a mismatch the test names the command, the new digest and the running
Python and numpy (the file's header names those the digests were taken
with), and pytest keeps the file, so it can be diffed against the recorded
run's.
"""

from __future__ import annotations

import hashlib
import platform
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from nhlgi.cli import main

DIGESTS = Path(__file__).with_name("cli_digests.txt")


def _commands():
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            digest, name, *argv = line.split()
            yield pytest.param(digest, argv, id=name)


def test_names_are_unique():
    names = [param.id for param in _commands()]
    assert len(set(names)) == len(names) > 0


@pytest.mark.parametrize("digest, argv", list(_commands()))
def test_writes_the_recorded_bytes(digest, argv, tmp_path):
    out = tmp_path / "out"
    if argv == ["check"]:
        with out.open("w", encoding="utf-8", newline="\n") as stream, redirect_stdout(stream):
            code = main(argv)
    else:
        code = main([*argv, "--out", str(out)])
    assert code == 0
    actual = hashlib.sha256(out.read_bytes()).hexdigest()
    assert actual == digest, (
        f"`nhlgi {' '.join(argv)}` wrote other bytes: sha256 {actual}, kept at {out}; "
        f"running CPython {platform.python_version()} and numpy {np.__version__} "
        f"on {platform.machine()}"
    )
