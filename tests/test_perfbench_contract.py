"""The benchmark (perfbench/) calls the package through its CLI and library
API. One job of each workload runs here, followed by the checks the
benchmark runs on that workload's outputs, so that a change that breaks a
call the benchmark makes fails this suite before it fails a benchmark run.
The perfbench modules are loaded from their files and not modified."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = load("checks")
inputs = load("inputs")
workloads = load("workloads")

# not the benchmark's seed 1, whose E_b pin holds for the 1M-edge file only
SEED = 2


def assert_no_failure(found):
    failed = [c for c in (checks.Check(*c) for c in found) if checks.is_failure(c)]
    assert found and not failed


@pytest.fixture
def canary(tmp_path):
    """The benchmark's 20k-edge DM canary written to a file: the file's
    config entries and the arrays ``check_cli_global`` compares against."""
    src, dst, weight = inputs.dm_edges(inputs.CANARY_SEED, **inputs.CANARY_PARAMS)
    path = tmp_path / "canary.tsv"
    path.write_bytes(inputs.edge_list_bytes(src, dst, weight))
    E, W = len(src), int(weight.sum())
    arrays = {"src": src, "dst": dst, "weight": weight,
              "N": inputs.CANARY_PARAMS["N"], "E": E, "W": W}
    return {"input": str(path), "E": E, "W": W}, arrays


def run_one_job(workload, tmp_path, **config):
    wl = workload(dict(config, run_dir=str(tmp_path), seed=SEED))
    state = wl.setup()
    output = wl.job(state, 0)
    gap = wl.local_dl_gap_bits(state, output)
    assert math.isfinite(gap)
    return output, wl.checks(state, 0, output)


def test_cli_global(tmp_path, canary):
    config, arrays = canary
    output, found = run_one_job(workloads.CliGlobal, tmp_path, **config)
    found += checks.check_cli_global(Path(output["prefix"]), arrays, SEED,
                                     output["code"])
    assert_no_failure(found)


def test_lib_undirected(tmp_path, canary):
    config, _ = canary
    _, found = run_one_job(workloads.LibUndirected, tmp_path, **config)
    assert_no_failure(found)


def test_contact_study(tmp_path):
    study = workloads.ContactStudy
    path = str(ROOT / inputs.CONTACT_PATH)
    output, found = run_one_job(study, tmp_path, input=path)
    checker = checks.ContactChecker(path, study.PROGRAM_SEED)
    found += checker.check_job(output["dir"], output["codes"], study.METHODS,
                               study.PERCOLATED)
    assert_no_failure(found)
