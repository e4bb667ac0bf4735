"""Correctness checks that read each job's CLI output file.

``check_output`` inspects one output file and returns the problems it finds
(each one makes the job a failure) and, for Monte Carlo jobs, whether the
estimate lies within ``AGREE_SE`` standard errors of the closed form.  The
two oracles recompute numbers independently of the CLI: ``bessel_oracle``
evaluates ``bessel_i`` at the sweep's points against mpmath, and
``gradient_oracle`` compares the trainer's analytic gradient at a job's start
point with central finite differences.  None of this runs inside a timed
region.
"""

from __future__ import annotations

import json
import math
import random

AGREE_SE = 4.0
BESSEL_RTOL = 1e-12
BESSEL_POINTS = 8  # seeded sweep points per closed-form job, plus its last row
FD_STEP = 1e-5
FD_RTOL = 1e-6
FD_COORDS = 4  # layers checked per train job (all of them when fewer)


def parse_output(path):
    """(preamble, header, rows) of a CLI CSV file; rows stay strings."""
    preamble, header, rows = {}, None, []
    with open(path) as handle:
        for line in handle.read().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                preamble[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return preamble, header, rows


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text  # a label column such as toy's "kind"


def _records(header, rows):
    return [{key: _cell(cell) for key, cell in zip(header, row)} for row in rows]


def _flag(job, name):
    argv = list(job.argv)
    return argv[argv.index(name) + 1] if name in argv else None


def check_output(job, path, seed):
    """(problems, agree) for one job's output; agree is None for non-MC jobs."""
    try:
        preamble, header, rows = parse_output(path)
        recs = _records(header or [], rows)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], None
    problems = []
    if preamble.get("command") != job.command:
        problems.append(f"command {preamble.get('command')!r} != {job.command!r}")
    if preamble.get("seed") != str(seed):
        problems.append(f"seed {preamble.get('seed')!r} != {seed}")
    if not recs:
        return problems + ["no rows"], None
    for i, rec in enumerate(recs):
        bad = [k for k, v in rec.items() if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            problems.append(f"row {i}: non-finite {', '.join(bad)}")

    agree = None
    if job.expect.get("mc"):
        estimate = json.loads(preamble.get("estimate", "{}"))
        samples = int(_flag(job, "--samples"))
        if estimate.get("n_samples") != samples:
            problems.append(f"estimate covers {estimate.get('n_samples')} samples, asked {samples}")
        value, stderr, lo, hi = _mc_row(job.command, recs)
        if not stderr > 0:
            problems.append(f"standard error {stderr} is not positive")
        agree = lo - AGREE_SE * stderr <= value <= hi + AGREE_SE * stderr
    if "verdict" in job.expect and preamble.get("verdict") != job.expect["verdict"]:
        problems.append(f"verdict {preamble.get('verdict')!r}, expected {job.expect['verdict']!r}")
    if job.expect.get("train"):
        start, final = recs[0]["cost"], recs[-1]["cost"]
        if not final <= start:
            problems.append(f"final cost {final!r} above start {start!r}")
        if float(preamble.get("final_cost", "nan")) != final:
            problems.append("preamble final_cost differs from the last row")
    return problems, agree


def _mc_row(command, recs):
    """(estimate, standard error, prediction low, prediction high)."""
    if command == "toy":
        closed = next(r for r in recs if r["kind"] == "closed_form")["value"]
        mc = next(r for r in recs if r["kind"] == "mc")
        return mc["value"], mc["std_error"], closed, closed
    row = recs[0]
    if command == "prop1":
        lo, hi = row["pred_lo"], row["pred_hi"]
    elif command == "prop2":
        lo = hi = row["prediction"]
    else:  # heterodyne: global-phase generator, unit column norms
        lo = hi = math.exp(row["log_prefactor"])
    return row["mc_second_moment"], row["mc_stderr"], lo, hi


def same_rows(path_a, path_b) -> bool:
    """True when two outputs hold identical data rows (preambles may differ)."""
    _, header_a, rows_a = parse_output(path_a)
    _, header_b, rows_b = parse_output(path_b)
    return header_a == header_b and rows_a == rows_b


# -- oracles ------------------------------------------------------------------


def _bessel_points(job, path, rng):
    """(nu, x) pairs at which the job's closed form evaluates I_nu."""
    _, header, rows = parse_output(path)
    recs = _records(header, rows)
    if job.command == "regimes":
        points = [(int(r["m"]), 4.0 * r["E"]) for r in recs]
    else:  # noise and heterodyne: Bessel argument 4 sqrt(e0 e1)
        points = [(int(r["m"]), 4.0 * math.sqrt(r["e0"] * r["e1"])) for r in recs]
    chosen = rng.sample(points[:-1], min(BESSEL_POINTS, len(points) - 1)) + points[-1:]
    return [(nu, x) for nu, x in chosen if x > 0]


def bessel_oracle(jobs_and_paths, seed) -> dict:
    """job name -> problems, for bessel_i at the jobs' sweep points vs mpmath."""
    import mpmath

    from linopt_bp.special_functions import bessel_i

    rng = random.Random(seed)
    out = {}
    with mpmath.workdps(40):
        for job, path in jobs_and_paths:
            problems = []
            for nu, x in _bessel_points(job, path, rng):
                ours = bessel_i(nu, x).log_value
                ref = float(mpmath.log(mpmath.besseli(nu, mpmath.mpf(x))))
                err = abs(ours - ref) / max(abs(ref), 1.0)
                if not err <= BESSEL_RTOL:
                    problems.append(f"bessel_i({nu}, {x!r}): log {ours!r} vs mpmath {ref!r} (rel {err:.2e})")
            out[job.name] = problems
    return out


def _train_instance(job, seed):
    """The CLI's train instance: same substream, same draws, same order."""
    from linopt_bp import cli, cost_functions as cf
    from linopt_bp.linear_optics import random_circuit
    from linopt_bp.sampling import RandomSource, uniform_sphere

    m, depth = int(_flag(job, "--m")), int(_flag(job, "--layers"))
    energy = float(_flag(job, "--intensity"))
    inst = RandomSource(seed).substream(cli.INSTANCE_STREAM)
    circuit = random_circuit(m, depth, inst)
    circuit = circuit.with_theta(inst.uniform(-math.pi, math.pi, depth))
    u = uniform_sphere(m, math.sqrt(2 * energy), inst)
    ham = None
    if _flag(job, "--family") == "quadratic":
        a = inst.standard_normal((2 * m, 2 * m))
        ham = cf.QuadraticHamiltonian(a @ a.T / (2 * m))
    return circuit, u, ham


def gradient_oracle(job, path, seed):
    """(problems, notes) comparing the analytic gradient with central differences.

    Costs come from zero-step ``train`` runs, the trainer's public entry point.
    """
    import numpy as np

    from linopt_bp.trainer import TrainConfig, layer_gradients, train

    circuit, u, ham = _train_instance(job, seed)
    family = _flag(job, "--family")

    def cost_at(theta):
        return train(circuit.with_theta(theta), family, u, TrainConfig(1.0, 0, 0.0), hamiltonian=ham)[0].cost

    theta0 = np.array(circuit.theta)
    grad = layer_gradients(circuit, family, u, hamiltonian=ham)
    notes = []
    _, header, rows = parse_output(path)
    start, cli_start = cost_at(theta0), float(rows[0][header.index("cost")])
    if start != cli_start:
        notes.append(f"reconstructed start cost {start!r} differs from the CLI's {cli_start!r}")
    coords = list(range(circuit.depth))
    if len(coords) > FD_COORDS:
        coords = sorted(random.Random(seed).sample(coords, FD_COORDS))
    scale = float(np.max(np.abs(grad)))
    problems = []
    for i in coords:
        e = np.zeros_like(theta0)
        e[i] = FD_STEP
        fd = (cost_at(theta0 + e) - cost_at(theta0 - e)) / (2 * FD_STEP)
        if not abs(fd - grad[i]) <= FD_RTOL * max(scale, 1e-12):
            problems.append(f"layer {i}: analytic {float(grad[i])!r} vs finite difference {fd!r}")
    return problems, notes
