"""Write every CLI artifact of the byte-identity check and print their sha256.

Usage: python tools/cli_artifacts.py OUT   (OUT must not exist yet)

Runs the command-line front end of the checkout this file sits in on two
inputs, written into the new directory OUT so that every path recorded in
the JSON artifacts is relative to OUT:

- ``contact-1000.tsv``, the bundled dataset;
- ``dm-seed1.tsv``, the 1M-edge Dirichlet-multinomial file of the
  benchmark, generated by ``perfbench/inputs.py`` and checked against its
  pinned sha256.

Artifacts, each input read directed (``dir``) and undirected (``und``):

- ``backbone`` TSV and JSON: on contact-1000 mdl-global and mdl-local under
  all four objectives, and disparity-alpha, disparity-tope (at the
  micro mdl-global size), hss and percolation; on the DM file mdl-global,
  mdl-local and percolation;
- ``compare`` JSON: the five contact-study backbones (micro mdl-global,
  mdl-local, hss, percolation, disparity-tope) on contact-1000, and the
  three backbones on the DM file;
- ``percolation`` JSON on contact-1000: the grid ``log:1e-4:1:25`` over
  micro mdl-global, mdl-local and disparity-tope read undirected, and
  ``lin:0:1:11`` over hss and percolation.

Prints ``sha256  name`` per artifact, sorted by name. The percolation JSONs
(``contact-1000.study0.json`` and ``study1``) are hashed with their
``eig_seconds`` and ``runtime_ratio`` lines removed, because those are
wall-clock times; every other byte is hashed as written. Run it on two
checkouts and ``diff`` the outputs to see which artifacts a change moved.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import re
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from mdlbackbone import cli  # noqa: E402

CONTACT = "contact-1000.tsv"
DM = "dm-seed1.tsv"
OBJECTIVES = ("micro", "canonical-geometric", "canonical-poisson", "canonical-exponential")
STUDY_METHODS = ("mdl-global", "mdl-local", "hss", "percolation", "disparity-tope")
DM_METHODS = ("mdl-global", "mdl-local", "percolation")
PERCOLATION_STUDIES = {
    "log:1e-4:1:25": ("mdl-global", "mdl-local", "disparity-tope"),
    "lin:0:1:11": ("hss", "percolation"),
}
# One line of a percolation JSON that holds a wall-clock time; the rest of
# the file, its layout included, is hashed as written.
TIMING_LINE = re.compile(rb'^ *"(?:eig_seconds|runtime_ratio)": [^\n]*\n', re.M)
SEED = "1"


def write_dm_file(path):
    spec = importlib.util.spec_from_file_location("bench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    data = inputs.edge_list_bytes(*inputs.dm_edges(1, **inputs.DM_PARAMS))
    if inputs.sha256(data) != inputs.PINNED_SHA256["dm-seed1"]:
        sys.exit("cli_artifacts: the generated DM file does not match its pinned sha256")
    path.write_bytes(data)


def run(*argv):
    code = cli.main([*argv, "--seed", SEED])
    if code != 0:
        sys.exit(f"cli_artifacts: exit code {code} from {' '.join(argv)}")


def backbone(src, method, way, objective="micro", extra=()):
    """Run ``backbone`` into ``<stem>.<way>.<method>[.<objective>]``."""
    name = f"{Path(src).stem}.{way}.{method}"
    if objective != "micro":
        name += f".{objective}"
    flags = ["--undirected"] if way == "und" else []
    run("backbone", src, "--method", method, "--objective", objective,
        "--output", name, *flags, *extra)


def write_artifacts():
    for way in ("dir", "und"):
        flags = ["--undirected"] if way == "und" else []
        for method in ("mdl-global", "mdl-local"):
            for objective in OBJECTIVES:
                backbone(CONTACT, method, way, objective)
        for method in ("disparity-alpha", "hss", "percolation"):
            backbone(CONTACT, method, way)
        with open(f"contact-1000.{way}.mdl-global.json") as fh:
            e_target = json.load(fh)["E_b"]
        backbone(CONTACT, "disparity-tope", way, extra=("--etarget", str(e_target)))
        run("compare", CONTACT, "--output", f"contact-1000.{way}.compare", *flags,
            "--backbones", *[f"contact-1000.{way}.{m}.tsv" for m in STUDY_METHODS])

        for method in DM_METHODS:
            backbone(DM, method, way)
        run("compare", DM, "--output", f"dm-seed1.{way}.compare", *flags,
            "--backbones", *[f"dm-seed1.{way}.{m}.tsv" for m in DM_METHODS])

    for i, (grid, methods) in enumerate(PERCOLATION_STUDIES.items()):
        run("percolation", CONTACT, "--pgrid", grid,
            "--output", f"contact-1000.study{i}",
            "--backbones", *[f"contact-1000.und.{m}.tsv" for m in methods])


def digest(path):
    data = path.read_bytes()
    if path.name.startswith("contact-1000.study"):
        data = TIMING_LINE.sub(b"", data)
    return hashlib.sha256(data).hexdigest()


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    out = Path(argv[0])
    out.mkdir(parents=True)
    shutil.copyfile(ROOT / "datasets" / CONTACT, out / CONTACT)
    write_dm_file(out / DM)
    os.chdir(out)
    write_artifacts()
    inputs = {CONTACT, DM}
    for path in sorted(Path(".").iterdir()):
        if path.name not in inputs:
            print(f"{digest(path)}  {path.name}")


if __name__ == "__main__":
    main(sys.argv[1:])
