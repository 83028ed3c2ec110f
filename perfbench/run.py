"""mdlbackbone benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The harness makes the workload's inputs from the seed, starts the
set-up probes and the workload process (see worker.py), checks every output
the jobs produced, and prints one human-readable line per metric followed by
a JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts checked outputs and ``failed`` those that mismatch for
a reason no recorded program defect explains; ``correct`` is true when none
does. Mismatches that a recorded defect explains (see README.md) are printed
as their own count. With --trace 0 the metrics are job_s, peak_rss_mb and setup_s;
with --trace 1 they are the per-layer metrics of tracing.py. A run record
with the environment, every check and (traced) every span is written to
``.perfbench-out/`` under the checkout.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread everywhere: each workload is a single-threaded process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
# every run ends within this many seconds, builds included
RUN_DEADLINE_S = 170.0


def environment():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def prepare_inputs(workload, seed, run_dir):
    """Write the workload's input and check it against the pinned hashes.
    Returns (worker config entries, arrays for the checks, input checks)."""
    import numpy as np

    import inputs
    from checks import Check

    checks = []
    canary = inputs.sha256(inputs.edge_list_bytes(
        *inputs.dm_edges(inputs.CANARY_SEED, **inputs.CANARY_PARAMS)))
    if workload == "contact-study":
        path = ROOT / inputs.CONTACT_PATH
        digest = inputs.sha256(path.read_bytes())
        checks.append(Check("input.contact-1000.sha256",
                            digest == inputs.PINNED_SHA256["contact-1000"], digest))
        return {"input": str(path)}, None, checks
    checks.append(Check("input.dm-canary.sha256",
                        canary == inputs.PINNED_SHA256["dm-canary"], canary))
    src, dst, weight = inputs.dm_edges(seed, **inputs.DM_PARAMS)
    data = inputs.edge_list_bytes(src, dst, weight)
    digest = inputs.sha256(data)
    if seed == 1:
        checks.append(Check("input.dm-seed1.sha256",
                            digest == inputs.PINNED_SHA256["dm-seed1"], digest))
    path = run_dir / f"dm-seed{seed}.tsv"
    path.write_bytes(data)
    E, W = len(src), int(np.sum(weight))
    arrays = {"src": src, "dst": dst, "weight": weight, "N": inputs.DM_PARAMS["N"],
              "E": E, "W": W}
    return {"input": str(path), "E": E, "W": W, "sha256": digest}, arrays, checks


def run_worker(config, run_dir, name, deadline):
    config = dict(config, result=str(run_dir / f"{name}.json"))
    config_path = run_dir / f"{name}.config.json"
    config_path.write_text(json.dumps(config))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError(f"no time left to start {name}")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(config_path)],
        timeout=timeout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(Path(config["result"]).read_text())


def check_outputs(workload, config, arrays, result, seed):
    import checks
    from workloads import ContactStudy

    out = [checks.Check(*c) for c in result["checks"]]
    if workload == "cli-global-dm1m":
        for o in result["outputs"]:
            out += checks.check_cli_global(Path(o["prefix"]), arrays, seed, o["code"])
    elif workload == "contact-study":
        checker = checks.ContactChecker(config["input"], ContactStudy.PROGRAM_SEED)
        for o in result["outputs"]:
            out += checker.check_job(o["dir"], o["codes"], ContactStudy.METHODS,
                                     ContactStudy.PERCOLATED)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    package = ROOT / "src" / "mdlbackbone" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: no mdlbackbone sources at {package.parent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl_cls = WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    # fixed-width name: job outputs that record their paths keep their size
    run_dir = OUT_DIR / f"tmp-{args.workload}-{os.getpid():07d}"
    run_dir.mkdir()
    try:
        cfg, arrays, input_checks = prepare_inputs(args.workload, args.seed, run_dir)
        config = dict(cfg, workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace), run_dir=str(run_dir), probe=False)
        setup_samples = []
        if not args.trace:
            for i in range(wl_cls.setup_samples - 1):
                probe = run_worker(dict(config, probe=True), run_dir, f"probe{i}", deadline)
                setup_samples.append(probe["setup_s"])
        result = run_worker(config, run_dir, "worker", deadline)
        setup_samples.append(result["setup_s"])
        all_checks = input_checks + check_outputs(args.workload, config, arrays,
                                                  result, args.seed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    import checks

    failed = [c for c in all_checks if checks.is_failure(c)]
    known = Counter(c.known for c in all_checks if not c.ok and c.known)
    env = environment()
    job_s = statistics.median(result["job_s"])
    e2e = {
        "job_s": {"value": job_s, "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
    }
    if args.trace:
        import tracing

        units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
        traced_job = f"job{len(result['outputs']) - 1}."
        result["per_layer"]["percolation.warm_start_mismatches"] = sum(
            c.known == checks.WARM_START_DEFECT and c.name.startswith(traced_job)
            for c in all_checks)
        if set(units) != set(result["per_layer"]):
            raise RuntimeError("per-layer metrics differ from tracing.per_layer_spec()")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["per_layer"].items()}
    else:
        metrics = e2e

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "input": cfg,
        "job_s_samples": result["job_s"], "job_cpu_s_samples": result["job_cpu_s"],
        "setup_s_samples": setup_samples,
        "import_s": result["import_s"], "end_to_end": e2e,
        "per_layer": result.get("per_layer"),
        "checks": [dict(c._asdict(), ok=bool(c.ok)) for c in all_checks],
        "spans": result.get("spans"),
    }
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record))

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"job_s        {job_s:.4f} s   median of {len(result['job_s'])} jobs "
          f"(min {min(result['job_s']):.4f}, max {max(result['job_s']):.4f})")
    print(f"peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
    print(f"setup_s      {e2e['setup_s']['value']:.4f} s   median of "
          f"{len(setup_samples)} set-ups")
    print(f"fail_frac    {len(failed) / len(all_checks):.4f}   {len(failed)} of "
          f"{len(all_checks)} checked outputs failed")
    for k, n in sorted(known.items()):
        print(f"known defect: {k}: {n} of {len(all_checks)} checked outputs "
              f"({n / len(result['outputs']):g} per job)")
    for c in failed[:20]:
        print(f"FAILED {c.name}: {c.detail}")
    if args.trace:
        for name, value in result["per_layer"].items():
            print(f"  {name:48s} {value:.6g} {units[name]}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed, "attempted": len(all_checks),
        "failed": len(failed), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
