"""Tests of the benchmark itself: reduced-size runs and the output checker.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from linopt_bp.cli import main as cli_main  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = run_bench(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(wl.WORKLOADS[workload].jobs)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric():
    result = run_bench("verify", 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["sampling.haar_calls"] > 0 and metrics["estimators.jobs2_speedup"] > 0
    assert metrics["special_functions.bessel_calls"] > 0
    assert metrics["trainer.evaluations"] == 0


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in wl.WORKLOADS.values()]
    layers = tracing.per_layer_metrics()
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == layers


# -- the checker flags corrupted outputs ---------------------------------------


def cli_output(tmp_path, job, seed=11):
    path = tmp_path / f"{job.name}.csv"
    assert cli_main([*job.argv, "--seed", str(seed), "--output", str(path)]) == 0
    return path, seed


def find(workload, name):
    return next(j for j in wl.WORKLOADS[workload].jobs if j.name == name)


def rewrite(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_mc_moment_ten_standard_errors_off_disagrees(tmp_path):
    job = wl.reduced(find("verify", "prop1_m3"))
    path, seed = cli_output(tmp_path, job)
    assert check.check_output(job, path, seed) == ([], True)
    _, header, rows = check.parse_output(path)
    row = dict(zip(header, rows[0]))
    moved = float(row["pred_hi"]) + 10 * float(row["mc_stderr"])
    rewrite(path, f",{row['mc_second_moment']},", f",{moved!r},")
    problems, agree = check.check_output(job, path, seed)
    assert problems == [] and agree is False


def test_wrong_verdict_fails(tmp_path):
    job = find("verify", "regimes_linear")
    path, seed = cli_output(tmp_path, job)
    assert check.check_output(job, path, seed) == ([], None)
    rewrite(path, "# verdict: BPL", "# verdict: trainable")
    problems, _ = check.check_output(job, path, seed)
    assert any("verdict" in p for p in problems)


def test_nan_row_fails(tmp_path):
    job = wl.reduced(find("train_descent", "train_m2_L4"))
    path, seed = cli_output(tmp_path, job)
    assert check.check_output(job, path, seed) == ([], None)
    _, _, rows = check.parse_output(path)
    rewrite(path, "\n" + ",".join(rows[1]) + "\n", "\n" + ",".join([rows[1][0], "nan", rows[1][2]]) + "\n")
    problems, _ = check.check_output(job, path, seed)
    assert any("non-finite" in p for p in problems)


def test_bessel_oracle_agrees_at_sweep_points(tmp_path):
    job = find("verify", "regimes_power1000")
    path, _ = cli_output(tmp_path, job)
    pytest.importorskip("mpmath")
    assert check.bessel_oracle([(job, path)], seed=1) == {job.name: []}


def test_gradient_oracle_matches_the_cli_start_point(tmp_path):
    job = wl.reduced(find("train_descent", "train_m16_L32_quad"))
    path, seed = cli_output(tmp_path, job)
    problems, notes = check.gradient_oracle(job, path, seed)
    assert problems == [] and notes == []


def test_job_seeds_depend_on_workload_seed_and_job():
    seeds = {wl.job_seed(s, j.name) for s in (1, 2) for j in wl.WORKLOADS["verify"].jobs}
    assert len(seeds) == 2 * len(wl.WORKLOADS["verify"].jobs)
    assert all(0 <= s < 2**63 for s in seeds)

