"""Write every CLI artifact of the byte-identity check and print their sha256.

Usage: python tools/cli_artifacts.py OUT   (OUT must not exist yet)

Runs the command-line front end of the checkout this file sits in on ten
inputs, written into the new directory OUT so that every path recorded in
the JSON artifacts is relative to OUT:

- ``contact-1000.tsv``, the bundled dataset, and ``contact-real.tsv``, the
  same edges with 0.5 added to every weight, so that every weight is
  fractional and the input reads as real weights;
- ``dm-seed1.tsv``, the 1M-edge Dirichlet-multinomial file of the
  benchmark, and ``dm-canary.tsv``, its 20k-edge canary, both generated by
  ``perfbench/inputs.py`` and checked against their pinned sha256;
- ``dm-canary-padded.tsv``, the canary with every label zero-padded to 5
  digits, so that its labels are decimal but not canonical ("00007" is not
  "7") and the parser numbers them as byte strings;
- ``contact-plus1.tsv``, contact-1000 with 1 added to every weight, so
  that no edge weighs 1 and no segment of the greedy sweep ends in a run of
  weight-1 edges, and ``contact-halves.tsv``, contact-1000 with every other
  weight-1 edge (the first, third, ... in file order) set to 0.5, so that
  real weights lighter than 1 follow the weight-1 edges;
- three copies of contact-1000 that take the parser's other paths:
  ``contact-comments.tsv``, with CRLF line ends, a comment line first and a
  blank and a comment line after every 100th edge, so that its lines are
  bounded one by one; ``contact-unicode.tsv``, whose tokens are separated
  by non-ASCII whitespace and whose lines end in LF, U+2028 and U+0085 by
  turns, so that its lines are rewritten first; and
  ``contact-long-labels.tsv``, every label prefixed with ``node-`` to 10
  bytes, so that its labels are numbered through a dict.

Artifacts, each input read directed (``dir``) and undirected (``und``):

- ``backbone`` TSV and JSON: on contact-1000 mdl-global and mdl-local under
  all four objectives, and disparity-alpha, disparity-tope (at the
  micro mdl-global size), hss and percolation; on the DM file mdl-local
  under all four objectives, mdl-global under micro, canonical-geometric
  and canonical-poisson (whose poisson constant over 1M edges shows its
  summation order), and percolation; on the canary hss; on the padded
  canary mdl-global; on contact-real mdl-global and mdl-local under
  canonical-exponential, the one objective that reads real weights, and
  hss; on contact-plus1 mdl-global and mdl-local under micro, and on
  contact-halves the same two under canonical-exponential; on the three
  parser-path copies mdl-global;
- ``compare`` JSON: the five contact-study backbones (micro mdl-global,
  mdl-local, hss, percolation, disparity-tope) on contact-1000, the
  three backbones on the DM file and the two on contact-real;
- ``percolation`` JSON on contact-1000: the grid ``log:1e-4:1:25`` over
  micro mdl-global, mdl-local and disparity-tope read undirected, and
  ``lin:0:1:11`` over hss and percolation; on contact-real the grid
  ``log:1e-4:1:25`` over its two backbones read undirected;
- ``synth`` TSVs and params JSON, which read no input: ``regular``,
  ``planted`` at global and local scope (with its planted-backbone TSV)
  and ``dm``, on 200 nodes.

Prints ``sha256  name`` per artifact, sorted by name. The percolation JSONs
(``contact-1000.study0.json``, ``study1`` and ``contact-real.study.json``)
are hashed with their ``eig_seconds`` and ``runtime_ratio`` lines removed, because those are
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
REAL = "contact-real.tsv"
REAL_METHODS = (("mdl-global", "canonical-exponential"),
                ("mdl-local", "canonical-exponential"), ("hss", "micro"))
DM = "dm-seed1.tsv"
CANARY = "dm-canary.tsv"
PADDED = "dm-canary-padded.tsv"
PLUS1 = "contact-plus1.tsv"
HALVES = "contact-halves.tsv"
COMMENTS = "contact-comments.tsv"
UNICODE = "contact-unicode.tsv"
LONG_LABELS = "contact-long-labels.tsv"
OBJECTIVES = ("micro", "canonical-geometric", "canonical-poisson", "canonical-exponential")
STUDY_METHODS = ("mdl-global", "mdl-local", "hss", "percolation", "disparity-tope")
DM_METHODS = ("mdl-global", "mdl-local", "percolation")
DM_GLOBAL_OBJECTIVES = ("canonical-geometric", "canonical-poisson")
PERCOLATION_STUDIES = {
    "log:1e-4:1:25": ("mdl-global", "mdl-local", "disparity-tope"),
    "lin:0:1:11": ("hss", "percolation"),
}
# One line of a percolation JSON that holds a wall-clock time; the rest of
# the file, its layout included, is hashed as written.
TIMING_LINE = re.compile(rb'^ *"(?:eig_seconds|runtime_ratio)": [^\n]*\n', re.M)
SEED = "1"
SYNTH = {
    "synth-regular": ("regular", "--N", "200", "--k", "10"),
    "synth-planted-global": ("planted", "--N", "200", "--k", "20", "--gamma", "0.1",
                             "--scope", "global"),
    "synth-planted-local": ("planted", "--N", "200", "--k", "20", "--gamma", "0.1",
                            "--scope", "local"),
    "synth-dm": ("dm", "--N", "200", "--k", "10", "--W", "20000", "--hstr", "1",
                 "--hneig", "1"),
}


def write_dm_files(out):
    spec = importlib.util.spec_from_file_location("bench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for name, pin, seed, params in (
        (DM, "dm-seed1", 1, inputs.DM_PARAMS),
        (CANARY, "dm-canary", inputs.CANARY_SEED, inputs.CANARY_PARAMS),
    ):
        data = inputs.edge_list_bytes(*inputs.dm_edges(seed, **params))
        if inputs.sha256(data) != inputs.PINNED_SHA256[pin]:
            sys.exit(f"cli_artifacts: the generated {name} does not match its pinned sha256")
        (out / name).write_bytes(data)


def write_padded_file(out):
    with open(out / CANARY) as src, open(out / PADDED, "w") as dst:
        for line in src:
            a, b, w = line.split()
            dst.write(f"{a.zfill(5)}\t{b.zfill(5)}\t{w}\n")


def write_real_file(out):
    with open(ROOT / "datasets" / CONTACT) as src, open(out / REAL, "w") as dst:
        for line in src:
            a, b, w = line.split()
            dst.write(f"{a}\t{b}\t{float(w) + 0.5!r}\n")


def write_shifted_files(out):
    ones = 0
    with (open(ROOT / "datasets" / CONTACT) as src, open(out / PLUS1, "w") as plus1,
          open(out / HALVES, "w") as halves):
        for line in src:
            a, b, w = line.split()
            plus1.write(f"{a}\t{b}\t{int(w) + 1}\n")
            if w == "1":
                w, ones = ("0.5" if ones % 2 == 0 else w), ones + 1
            halves.write(f"{a}\t{b}\t{w}\n")


def write_parser_files(out):
    with open(ROOT / "datasets" / CONTACT) as src:
        edges = [line.split() for line in src]
    seps, ends = ("\u3000", "\xa0", "\u2003 "), ("\n", "\u2028", "\x85")
    with (open(out / COMMENTS, "w", newline="\r\n") as comments,
          open(out / UNICODE, "w", encoding="utf-8", newline="") as uni,
          open(out / LONG_LABELS, "w") as long_labels):
        comments.write("# contact-1000, one edge per line\n")
        for i, (a, b, w) in enumerate(edges):
            comments.write(f"{a}\t{b}\t{w}\n")
            if i % 100 == 99:
                comments.write(f"\n# {i + 1} edges\n")
            sep = seps[i % 3]
            uni.write(f"{a}{sep}{b}{sep}{w}{ends[i % 3]}")
            long_labels.write(f"node-{a}\tnode-{b}\t{w}\n")


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
        for objective in OBJECTIVES[1:]:
            backbone(DM, "mdl-local", way, objective)
        for objective in DM_GLOBAL_OBJECTIVES:
            backbone(DM, "mdl-global", way, objective)
        run("compare", DM, "--output", f"dm-seed1.{way}.compare", *flags,
            "--backbones", *[f"dm-seed1.{way}.{m}.tsv" for m in DM_METHODS])
        backbone(CANARY, "hss", way)
        backbone(PADDED, "mdl-global", way)

        for method, objective in REAL_METHODS:
            backbone(REAL, method, way, objective)
        run("compare", REAL, "--output", f"contact-real.{way}.compare", *flags,
            "--backbones", f"contact-real.{way}.mdl-global.canonical-exponential.tsv",
            f"contact-real.{way}.hss.tsv")

        for src, objective in ((PLUS1, "micro"), (HALVES, "canonical-exponential")):
            for method in ("mdl-global", "mdl-local"):
                backbone(src, method, way, objective)
        for src in (COMMENTS, UNICODE, LONG_LABELS):
            backbone(src, "mdl-global", way)

    for i, (grid, methods) in enumerate(PERCOLATION_STUDIES.items()):
        run("percolation", CONTACT, "--pgrid", grid,
            "--output", f"contact-1000.study{i}",
            "--backbones", *[f"contact-1000.und.{m}.tsv" for m in methods])

    run("percolation", REAL, "--output", "contact-real.study",
        "--backbones", "contact-real.und.mdl-global.canonical-exponential.tsv",
        "contact-real.und.hss.tsv")

    for name, argv in SYNTH.items():
        run("synth", *argv, "--output", name)


def digest(path):
    data = path.read_bytes()
    if ".study" in path.name:
        data = TIMING_LINE.sub(b"", data)
    return hashlib.sha256(data).hexdigest()


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    out = Path(argv[0])
    out.mkdir(parents=True)
    shutil.copyfile(ROOT / "datasets" / CONTACT, out / CONTACT)
    write_dm_files(out)
    write_padded_file(out)
    write_real_file(out)
    write_shifted_files(out)
    write_parser_files(out)
    os.chdir(out)
    write_artifacts()
    inputs = {CONTACT, REAL, DM, CANARY, PADDED, PLUS1, HALVES, COMMENTS, UNICODE, LONG_LABELS}
    for path in sorted(Path(".").iterdir()):
        if path.name not in inputs:
            print(f"{digest(path)}  {path.name}")


if __name__ == "__main__":
    main(sys.argv[1:])
