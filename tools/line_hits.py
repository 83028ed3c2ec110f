"""List the statements of ``src/mdlbackbone`` that a command never executes.

Usage: python tools/line_hits.py [COMMAND ...]

Runs COMMAND, by default the tier-1 test command
(``python -m pytest -q --continue-on-collection-errors``), from the root of
the checkout this file sits in, with a temporary ``sitecustomize.py`` first
on ``PYTHONPATH`` and ``src`` after it. Every Python process that starts
with that path, subprocesses included, records through ``sys.settrace``
the lines of ``src/mdlbackbone/*.py`` it executes and writes them out when
it exits; a process that ends in ``os._exit`` (a forked worker) writes
nothing. Then each statement that no process executed is printed as
``file:line  source``. Docstrings, ``def`` and ``class`` lines, imports
and the ``try:`` line itself are not counted; a compound statement counts
by its header, a simple one by any of its lines. The number of statements
missed goes to stderr, and the exit status is the command's.

This is a report, not a test: tracing slows the command down about twice,
so a test that bounds a runtime ratio, such as acceptance criterion 09,
can fail under it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mdlbackbone"
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]

# Written as sitecustomize.py; reads the package directory and the output
# directory from the environment.
RECORDER = '''
import atexit, json, os, sys, threading

_package = os.environ["LINE_HITS_PACKAGE"] + os.sep
_out = os.environ["LINE_HITS_OUT"]
_hits = {}  # file -> set of line numbers
_ours = {}  # co_filename -> its set in _hits, or None


def _lines(filename):
    if filename not in _ours:
        path = os.path.realpath(filename)
        _ours[filename] = (_hits.setdefault(path, set())
                           if path.startswith(_package) else None)
    return _ours[filename]


def _trace(frame, event, arg):
    lines = _lines(frame.f_code.co_filename)
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def _write():
    sys.settrace(None)
    data = {path: sorted(lines) for path, lines in _hits.items() if lines}
    with open(os.path.join(_out, f"{os.getpid()}.json"), "w") as fh:
        json.dump(data, fh)


atexit.register(_write)
threading.settrace(_trace)
sys.settrace(_trace)
'''


def statements(path):
    """``(first line, lines that count)`` of every statement of the module
    at ``path`` that the report checks."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
                ast.ImportFrom, ast.Try, ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring, or a bare constant that compiles to nothing
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        yield node.lineno, range(node.lineno, max(last, node.lineno) + 1)


def missed(hits):
    """``(path, line)`` of each statement no process executed."""
    for path in sorted(PACKAGE.glob("*.py")):
        lines = hits.get(str(path.resolve()), set())
        for first, span in sorted(statements(path)):
            if not lines.intersection(span):
                yield path, first


def main(argv=None):
    command = (sys.argv[1:] if argv is None else argv) or TIER1
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(RECORDER)
        path = [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                   LINE_HITS_PACKAGE=str(PACKAGE.resolve()), LINE_HITS_OUT=str(out))
        code = subprocess.run(command, cwd=ROOT, env=env).returncode
        hits = {}
        for part in out.glob("*.json"):
            for file, lines in json.loads(part.read_text()).items():
                hits.setdefault(file, set()).update(lines)
    count = 0
    for path, line in missed(hits):
        source = path.read_text().splitlines()[line - 1].strip()
        print(f"{path.relative_to(ROOT)}:{line}  {source}")
        count += 1
    print(f"{count} statements of {PACKAGE.relative_to(ROOT)} never executed",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
