"""One fresh benchmark process: import the CLI, run passes of a job list.

    python3 worker.py --workload NAME --seed N --seconds T --outdir DIR --result FILE
                      [--trace] [--smoke] [--probe]

Only the standard library is imported before ``linopt_bp.cli``, so the
timed import is the program's own set-up cost.  Passes repeat while another
one of the same length still ends within ``--seconds`` (at least one;
exactly one when traced; a traced workload that holds ``het_m4_j2`` then
also runs its ``--jobs 1`` twin).  Each job writes its output to
``DIR/pass<k>/<job>.csv``; nothing is checked here, so the checker's work
stays outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _env_record() -> dict:
    import numpy
    import scipy

    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _run_job(cli, job, seed, path) -> dict:
    argv = [*job.argv, "--seed", str(seed), "--output", path]
    start = time.perf_counter()
    try:
        code, error = cli.main(argv), None
    except SystemExit as exc:  # argparse rejects the arguments
        code, error = exc.code, f"SystemExit({exc.code})"
    except Exception:  # a job that raises is a failure to report, not a crash
        code, error = None, traceback.format_exc(limit=4)
    return {"wall_s": time.perf_counter() - start, "code": code, "error": error}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--outdir")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true", help="only time the import")
    args = parser.parse_args()

    start = time.perf_counter()
    import linopt_bp.cli as cli

    import_s = time.perf_counter() - start
    result = {"import_s": import_s, "module_file": cli.__file__}
    if args.probe:
        with open(args.result, "w") as handle:
            json.dump(result, handle)
        return 0

    import tracing as tr
    import workloads as wl

    jobs = wl.get(args.workload, args.smoke).jobs
    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        result["traced_bindings"] = tr.install(tracer)

    passes = []
    begin = time.perf_counter()
    while True:
        pass_dir = os.path.join(args.outdir, f"pass{len(passes)}")
        os.makedirs(pass_dir)
        runs = {}
        pass_start = time.perf_counter()
        for job in jobs:
            if tracer is not None:
                tracer.job = job.name
            path = os.path.join(pass_dir, f"{job.name}.csv")
            runs[job.name] = _run_job(cli, job, wl.job_seed(args.seed, job.name), path)
        wall = time.perf_counter() - pass_start
        passes.append({"wall_s": wall, "dir": pass_dir, "jobs": runs})
        if tracer is not None or time.perf_counter() - begin + wall > args.seconds:
            break

    if tracer is not None and any(job.name == wl.TWIN_OF for job in jobs):
        twin = wl.reduced(wl.HET_TWIN) if args.smoke else wl.HET_TWIN
        tracer.job = twin.name
        path = os.path.join(args.outdir, f"{twin.name}.csv")
        result["twin"] = {"name": twin.name, "path": path,
                          **_run_job(cli, twin, wl.job_seed(args.seed, wl.TWIN_OF), path)}

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["passes"] = passes
    result["env"] = _env_record()
    if tracer is not None:
        spans_path = os.path.join(args.outdir, "spans.jsonl")
        with open(spans_path, "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
        result["spans"] = spans_path
        result["counts"] = [[job, key, value] for (job, key), value in tracer.counts.items()]
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
