"""linopt-bp benchmark: run one workload of CLI jobs and report its metrics.

    python3 bench/run.py --workload verify --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nothing is installed.  ``--trace 0`` measures the
end-to-end metrics in fresh worker processes: ``setup_s`` is the median
import time of ``linopt_bp.cli`` over ``PROBES`` probe processes and the
measuring worker, ``wall_s`` the median time of one pass over the job list,
``peak_rss_mb`` the worker's peak resident set and ``mc_agree_frac`` the
share of Monte Carlo jobs within 4 standard errors of their closed form
(1 on workloads without one).  ``--trace 1`` runs an untraced worker, a
traced one (spans around every layer's functions) and a single-thread BLAS
worker, and reports the per-layer metrics.  Every job's output file is
checked afterwards; the last line of standard output is the JSON result.
Files go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

PROBES = 16
BUDGET_S = 150.0  # workers' share of the 180 s a run may take; the checks follow
WORKER_ENV = dict(os.environ)
# The checker's oracles run in this process; keep their BLAS calls off the
# workers' cores.  Workers get the environment as it was given.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


class BenchError(RuntimeError):
    """The benchmark could not measure: missing program or a crashed worker."""


class Runner:
    def __init__(self, rundir: Path, seed: int, smoke: bool):
        self.rundir = rundir
        self.seed = seed
        self.smoke = smoke
        self.deadline = time.monotonic() + BUDGET_S
        self.count = 0
        src = str(ROOT / "src")
        self.env = dict(WORKER_ENV, PYTHONPATH=os.pathsep.join(
            p for p in (src, WORKER_ENV.get("PYTHONPATH")) if p))

    def worker(self, workload=None, seconds=0.0, probe=False, trace=False, env=None):
        """Run one fresh worker process and return its result record."""
        self.count += 1
        tag = f"w{self.count}"
        outdir = self.rundir / tag
        outdir.mkdir()
        result = self.rundir / f"{tag}.json"
        argv = [sys.executable, str(BENCH / "worker.py"), "--seed", str(self.seed),
                "--seconds", repr(seconds), "--outdir", str(outdir), "--result", str(result)]
        if workload:
            argv += ["--workload", workload]
        argv += [flag for flag, on in (("--probe", probe), ("--trace", trace),
                                       ("--smoke", self.smoke)) if on]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time budget exhausted before all workers ran")
        try:
            proc = subprocess.run(argv, cwd=ROOT, env={**self.env, **(env or {})}, timeout=timeout,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {tag} exceeded the time budget") from None
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"worker {tag} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
        record = json.loads(result.read_text())
        module = Path(record["module_file"]).resolve()
        if ROOT / "src" not in module.parents:
            raise BenchError(f"imported linopt_bp from {module}, not from {ROOT / 'src'}")
        return record


# -- checking ----------------------------------------------------------------


def check_workers(workload, workers, seed, twin=None):
    """Failures per job execution, oracle findings and MC agreement.

    Each worker's first pass is checked in full, and every later pass must
    equal it byte for byte.  The oracles and the MC agreement use the first
    worker's first pass.
    """
    jobs = workload.jobs
    seeds = {job.name: wl.job_seed(seed, job.name) for job in jobs}
    first = workers[0]["passes"][0]["dir"]
    oracle = {job.name: [] for job in jobs}
    sweeps = [(job, os.path.join(first, f"{job.name}.csv")) for job in jobs
              if job.command in ("regimes", "noise", "heterodyne") and "mc" not in job.expect]
    notes = []
    if sweeps:
        try:
            oracle.update(check.bessel_oracle(sweeps, seed))
        except ImportError as exc:
            notes.append(f"Bessel oracle skipped: {exc}")
    for job in jobs:
        if job.expect.get("train"):
            problems, job_notes = check.gradient_oracle(
                job, os.path.join(first, f"{job.name}.csv"), seeds[job.name])
            oracle[job.name] += problems
            notes += [f"{job.name}: {n}" for n in job_notes]

    attempted = failed = 0
    reported, agree = {}, {}
    for index, record in enumerate(workers):
        base = record["passes"][0]["dir"]
        for pass_index, run in enumerate(record["passes"]):
            for job in jobs:
                path = os.path.join(run["dir"], f"{job.name}.csv")
                outcome = run["jobs"][job.name]
                problems = list(oracle[job.name])
                if outcome["code"] != 0:
                    problems.append(f"exit {outcome['code']}: {outcome['error'] or ''}".strip())
                elif pass_index == 0:
                    found, agrees = check.check_output(job, path, seeds[job.name])
                    problems += found
                    if index == 0:
                        agree[job.name] = agrees
                elif not _same_bytes(os.path.join(base, f"{job.name}.csv"), path):
                    problems.append("output differs from the first pass of the same worker")
                attempted += 1
                if problems:
                    failed += 1
                    reported.setdefault(job.name, set()).update(problems)
    if twin is not None:
        attempted += 1
        if twin["code"] != 0:
            problem = f"exit {twin['code']}: {twin['error'] or ''}".strip()
        elif not check.same_rows(twin["path"], os.path.join(first, f"{wl.TWIN_OF}.csv")):
            problem = f"rows differ from {wl.TWIN_OF}"
        else:
            problem = None
        if problem:
            failed += 1
            reported[twin["name"]] = {problem}
    mc = {name: v for name, v in agree.items() if v is not None}
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": {name: sorted(v) for name, v in reported.items()},
        "notes": notes,
        "mc_jobs": len(mc),
        "mc_agree": sum(mc.values()),
        "mc_agree_by_job": mc,
    }


def _same_bytes(a, b) -> bool:
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


# -- modes ------------------------------------------------------------------------


def measure(runner, workload, seconds):
    # Probes before and after the measuring worker, so the set-up samples
    # span the run as the pass timings do.
    probes = [runner.worker(probe=True)["import_s"] for _ in range(PROBES // 2)]
    main = runner.worker(workload.name, seconds=seconds)
    probes += [runner.worker(probe=True)["import_s"] for _ in range(PROBES - PROBES // 2)]
    walls = [p["wall_s"] for p in main["passes"]]
    start = time.monotonic()
    checks = check_workers(workload, [main], runner.seed)
    check_s = time.monotonic() - start
    agree = checks["mc_agree"] / checks["mc_jobs"] if checks["mc_jobs"] else 1.0
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(probes + [main["import_s"]]), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "mc_agree_frac": (agree, "fraction"),
    }
    detail = {"pass_walls": walls, "import_samples": probes + [main["import_s"]], "check_s": check_s,
              "job_walls": {name: [p["jobs"][name]["wall_s"] for p in main["passes"]]
                            for name in main["passes"][0]["jobs"]}}
    return metrics, checks, main["env"], detail


def measure_traced(runner, workload, seconds):
    base = runner.worker(workload.name, seconds=0.5 * seconds)
    traced = runner.worker(workload.name, trace=True)
    blas1 = runner.worker(workload.name, seconds=0.5 * seconds, env={"OPENBLAS_NUM_THREADS": "1"})
    checks = check_workers(workload, [base, traced, blas1], runner.seed, twin=traced.get("twin"))

    with open(traced["spans"]) as handle:
        spans = [tuple(json.loads(line)) for line in handle]
    counts = {(job, key): value for job, key, value in traced["counts"]}
    job_names = [job.name for job in workload.jobs]
    twin_name = traced["twin"]["name"] if "twin" in traced else None
    values = tracing.layer_metrics(job_names, spans, counts, twin=twin_name)
    base_wall = statistics.median(p["wall_s"] for p in base["passes"])
    traced_dir = traced["passes"][0]["dir"]
    values["cli.import_s"] = statistics.median(w["import_s"] for w in (base, traced, blas1))
    values["cli.bytes_written"] = sum(os.path.getsize(os.path.join(traced_dir, f)) for f in os.listdir(traced_dir))
    values["cli.blas1_wall_ratio"] = statistics.median(p["wall_s"] for p in blas1["passes"]) / base_wall
    values["trace.overhead_ratio"] = traced["passes"][0]["wall_s"] / base_wall
    units = tracing.per_layer_metrics()
    metrics = {name: (values[name], units[name][0]) for name in units}
    detail = {"untraced_wall_s": base_wall, "traced_wall_s": traced["passes"][0]["wall_s"],
              "traced_bindings": traced["traced_bindings"], "spans": len(spans),
              "top_self_s": tracing.top_self_times(spans),
              "blas1_env": blas1["env"]["OPENBLAS_NUM_THREADS"]}
    return metrics, checks, base["env"], detail


def _prune(rundir: Path):
    """Keep the first pass of each worker; later passes only fed the byte comparison."""
    for pass_dir in rundir.glob("w*/pass*"):
        if pass_dir.name != "pass0":
            shutil.rmtree(pass_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced job sizes, one pass (for tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "linopt_bp" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'linopt_bp'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the checker's oracles import the program too
    workload = wl.get(args.workload, args.smoke)
    rundir = ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    runner = Runner(rundir, args.seed, args.smoke)
    seconds = 0.0 if args.smoke else args.seconds
    try:
        mode = measure_traced if args.trace else measure
        metrics, checks, env, detail = mode(runner, workload, seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _prune(rundir)

    env = {**env, "workload_seed": args.seed, "workload": workload.name, "trace": args.trace}
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    fail_frac = checks["failed"] / checks["attempted"]
    print(f"  {'fail_frac':<44} {fail_frac:>16.6g} fraction  ({checks['failed']} of {checks['attempted']} job runs)")
    if checks["mc_jobs"]:
        print(f"  MC jobs within {check.AGREE_SE:g} SE: {checks['mc_agree']} of {checks['mc_jobs']} "
              f"{json.dumps(checks['mc_agree_by_job'])}")
    for name, problems in checks["problems"].items():
        print(f"  FAILED {name}: {'; '.join(problems)}")
    for note in checks["notes"]:
        print(f"  note {note}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (rundir / "result.json").write_text(json.dumps(
        {**result, "fail_frac": fail_frac, "env": env, "checks": checks, "detail": detail}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
