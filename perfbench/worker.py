"""One workload process: import mdlbackbone, set up, run jobs in a closed
loop for the given seconds, and write a result file.

    python3 perfbench/worker.py CONFIG_JSON

With "probe": true in the config the process stops after set-up; the
harness starts several probes to take the median set-up time. With
"trace": true the set-up and one extra job run with the tracer installed,
after the untraced jobs, and the per-layer metrics go into the result.
Peak resident memory is read after the timed jobs and before the traced job;
the checks run between jobs need far less memory than a job.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _import_package():
    t0 = time.perf_counter()
    import mdlbackbone
    import mdlbackbone.cli  # noqa: F401

    seconds = time.perf_counter() - t0
    expected = (HERE.parent / "src" / "mdlbackbone").resolve()
    if Path(mdlbackbone.__file__).resolve().parent != expected:
        raise SystemExit(f"mdlbackbone imported from {mdlbackbone.__file__}, not {expected}")
    return seconds


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(config_path):
    with open(config_path) as fh:
        config = json.load(fh)
    import_s = _import_package()

    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[config["workload"]](config)
    tracer = Tracer() if config["trace"] else None
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    state = wl.setup()
    setup_s = import_s + (time.perf_counter() - t0)
    if tracer:
        tracer.uninstall()
    result = {"setup_s": setup_s, "import_s": import_s}
    if config["probe"]:
        _write(config["result"], result)
        return

    records, checks, job_s, job_cpu_s = [], [], [], []

    def run_job(traced=False):
        # in-memory outputs are checked and dropped at once, so that peak
        # memory does not grow with the number of jobs
        index = len(records)
        if traced:
            tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        output = wl.job(state, index)
        seconds = time.perf_counter() - t0
        job_cpu_s.append(time.process_time() - c0)
        if traced:
            tracer.uninstall()
        records.append(wl.record(output))
        checks.extend((n, bool(ok), d) for n, ok, d in wl.checks(state, index, output))
        return seconds, output

    for _ in range(wl.warmup_jobs):
        run_job()
    t_loop = time.perf_counter()
    while not job_s or time.perf_counter() - t_loop < config["seconds"]:
        job_s.append(run_job()[0])
    result["job_s"] = job_s
    result["job_cpu_s"] = job_cpu_s
    result["peak_rss_mb"] = _peak_rss_mb()

    if tracer:
        traced_s, output = run_job(traced=True)
        layers = tracer.layer_metrics()
        layers["trace.overhead_s"] = traced_s - statistics.median(job_s)
        layers["solver.local_dl_gap_bits"] = wl.local_dl_gap_bits(state, output)
        result["per_layer"] = layers
        result["spans"] = tracer.dump()

    result["outputs"] = records
    result["checks"] = checks
    _write(config["result"], result)


def _write(path, doc):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    Path(tmp).replace(path)


if __name__ == "__main__":
    main(sys.argv[1])
