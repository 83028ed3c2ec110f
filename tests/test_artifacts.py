"""Byte-identity of the command-line outputs: ``tools/cli_artifacts.py`` run
on this checkout must print the manifest committed as
``tests/artifacts.sha256``, one ``sha256  name`` line per artifact.

The floats the artifacts hold depend on the Python, numpy and scipy builds,
so the manifest's first line names the versions it was written under; under
any others the test fails and says so. A change that moves an artifact on
purpose rewrites the manifest in the same commit, so that its diff names
the artifacts that moved:

    python tests/test_artifacts.py
"""

import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import pytest
import scipy

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "artifacts.sha256"
TOOL = ROOT / "tools" / "cli_artifacts.py"


def environment():
    return (f"# python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}")


def artifact_lines(out):
    """The tool's ``sha256  name`` lines for the new directory ``out``. It
    runs in a child process, since it changes the working directory."""
    run = subprocess.run([sys.executable, str(TOOL), str(out)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def by_name(lines):
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_artifacts_match_the_manifest(tmp_path):
    header, *lines = MANIFEST.read_text().splitlines()
    if header != environment():
        pytest.fail(f"the manifest was written under {header[2:]}, this run has "
                    f"{environment()[2:]}; rewrite it with python tests/test_artifacts.py")
    want, got = by_name(lines), by_name(artifact_lines(tmp_path / "out"))
    moved = sorted(name for name in want.keys() | got.keys()
                   if want.get(name) != got.get(name))
    assert not moved, f"{len(moved)} of {len(want)} artifacts moved: {', '.join(moved)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = artifact_lines(Path(tmp) / "out")
    MANIFEST.write_text("\n".join([environment(), *lines]) + "\n")
