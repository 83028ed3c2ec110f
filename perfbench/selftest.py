"""Self-test of the benchmark's checker: corrupt one output of each kind and
confirm that the corruption is counted as a failed checked output.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It runs the mdl-global CLI job on the
small DM canary instance and one contact-study job, checks the untouched
outputs, then checks three corrupted copies:

- a backbone TSV with one edge dropped;
- a JSON whose dl_bits is off by 1e-3;
- a percolation study whose S at one grid point is flipped to 1 - S.

Exits 0 when every corruption raises the failed count, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from workloads import ContactStudy  # noqa: E402


def n_failed(found):
    return sum(checks.is_failure(c) for c in found)


def cli_global_cases(work):
    from mdlbackbone import cli

    src, dst, weight = inputs.dm_edges(inputs.CANARY_SEED, **inputs.CANARY_PARAMS)
    path = work / "canary.tsv"
    path.write_bytes(inputs.edge_list_bytes(src, dst, weight))
    arrays = {"src": src, "dst": dst, "weight": weight, "N": inputs.CANARY_PARAMS["N"],
              "E": len(src), "W": int(weight.sum())}
    prefix = work / "canary-bb"
    code = cli.main(["backbone", str(path), "--method", "mdl-global", "--output", str(prefix)])
    # seed=None: the seed-1 E_b pin belongs to the full-size instance
    base = n_failed(checks.check_cli_global(prefix, arrays, None, code))

    dropped = work / "dropped"
    shutil.copy(f"{prefix}.json", f"{dropped}.json")
    lines = Path(f"{prefix}.tsv").read_text().splitlines(keepends=True)
    Path(f"{dropped}.tsv").write_text("".join(lines[1:]))
    after_drop = n_failed(checks.check_cli_global(dropped, arrays, None, code))

    off = work / "dl-off"
    shutil.copy(f"{prefix}.tsv", f"{off}.tsv")
    doc = json.loads(Path(f"{prefix}.json").read_text())
    doc["dl_bits"] += 1e-3
    Path(f"{off}.json").write_text(json.dumps(doc))
    after_dl = n_failed(checks.check_cli_global(off, arrays, None, code))
    return [("backbone TSV with one edge dropped", base, after_drop),
            ("dl_bits off by 1e-3", base, after_dl)]


def contact_case(work):
    config = {"run_dir": str(work), "seed": 1,
              "input": str(ROOT / inputs.CONTACT_PATH)}
    wl = ContactStudy(config)
    out = wl.job(None, 0)
    checker = checks.ContactChecker(config["input"], wl.PROGRAM_SEED)
    found = checker.check_job(out["dir"], out["codes"], wl.METHODS, wl.PERCOLATED)
    base = n_failed(found)

    study_path = Path(out["dir"]) / "study.json"
    study = json.loads(study_path.read_text())
    S = study["graphs"][0]["S"]
    passing = {c.name for c in found if c.ok}
    i = next(i for i in range(len(S)) if f"job0.full.S[{i}]" in passing)
    S[i] = 1.0 - S[i]
    study_path.write_text(json.dumps(study))
    after = n_failed(checker.check_job(out["dir"], out["codes"], wl.METHODS, wl.PERCOLATED))
    return [(f"S flipped at grid point {i} of the full graph", base, after)]


def main():
    work = ROOT / ".perfbench-out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cases = cli_global_cases(work) + contact_case(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = True
    for name, base, after in cases:
        caught = after > base
        ok &= caught
        print(f"{'caught' if caught else 'MISSED'}: {name}: "
              f"{base} failed checks before, {after} after")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
