"""Acceptance suite: one test per criterion, at full sample counts.

Each criterion prints a single pass/fail line (run with ``pytest -s`` to see
them live).  Sample sizes, grids and tolerances are fixed here and are not
meant to be tuned; seeds are frozen so every run is identical.
"""

import json
import math

import numpy as np
import pytest

from linopt_bp import (
    GeneratorPair,
    QuadraticHamiltonian,
    RandomSource,
    TrainConfig,
    bessel_i,
    classify_regime,
    estimate_grad_moments,
    heterodyne_prefactor,
    intensity_law,
    linear_intensity_rate,
    make_generator,
    quadratic_second_moment,
    random_circuit,
    second_moment_interval,
    second_moment_point,
    toy_log_abs_expectation,
    train,
    uniform_sphere,
)
from linopt_bp.estimators import (
    MeasurementGradientFamily,
    QuadraticGradientFamily,
    ToyGradientFamily,
)
from linopt_bp.sampling import haar_orthogonal_batch, uniform_sphere_batch
from linopt_bp.cli import main as cli_main

from conftest import (attenuation_values, bk_matrix, compiling_grad, equal_intensity_log_prefactor, fd_gradient,
                      fit_linear_rate, quadratic_grad, series_bessel_i, split_action, toy_grad)

M_GRID = list(range(4, 65, 4))


def _report(tag: str, ok: bool, detail: str):
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def test_criterion_01_toy_model_agreement():
    """Closed-form expected |gradient| vs 1e6-sample Monte Carlo, 3 sigma."""
    worst = 0.0
    for m in (1, 2, 5, 10):
        for s in (0.1, 0.5, 1.0):
            est = estimate_grad_moments(ToyGradientFamily(m=m, s=s), 1_000_000, RandomSource(1101))
            closed = toy_log_abs_expectation(s, m).value
            z = abs(est.mean_abs - closed) / est.std_error_mean_abs
            worst = max(worst, z)
    _report("C1 toy-model-agreement", worst <= 3.0, f"worst deviation {worst:.2f} sigma")


def test_criterion_02_compiling_moment_point_and_interval():
    """Second moment over 1e5 Haar pairs vs the closed-form point / interval."""
    worst = 0.0
    for m in (2, 3, 4, 6):
        for energy in (0.25, 1.0, 4.0):
            gen_k = make_generator("global-phase", (), m)  # equal column norms
            est = estimate_grad_moments(
                MeasurementGradientFamily(gen_k, energy, energy), 100_000, RandomSource(1202)
            )
            interval = second_moment_interval(gen_k, energy)
            assert interval.lo == interval.hi
            z = abs(est.second_moment - interval.lo.value) / est.std_error_second
            worst = max(worst, z)
    _report("C2a compiling-moment-point", worst <= 3.0, f"worst deviation {worst:.2f} sigma")

    inside = True
    detail = []
    for m, energy, eps_builder in [
        (3, 1.0, "two-mode-phase"),
        (4, 0.5, "graded"),
    ]:
        if eps_builder == "two-mode-phase":
            gen_k = make_generator("two-mode-phase", (0, 1), m)
        else:
            eps = np.zeros((2 * m, 2 * m))
            for j in range(m):
                eps[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = 0.5 * (1.0 + j) / m * np.eye(2)
            gen_k = GeneratorPair.from_symmetric(eps)
        est = estimate_grad_moments(MeasurementGradientFamily(gen_k, energy, energy), 100_000, RandomSource(1203))
        interval = second_moment_interval(gen_k, energy)
        slack = 3.0 * est.std_error_second
        ok = interval.lo.value - slack <= est.second_moment <= interval.hi.value + slack
        inside = inside and ok
        detail.append(f"{eps_builder}:{'in' if ok else 'out'}")
    _report("C2b compiling-moment-interval", inside, ", ".join(detail))


def test_criterion_03_quadratic_moment():
    """Quadratic-family second moment over 1e6 Haar draws vs closed form."""
    worst_z = 0.0
    worst_trace = 0.0
    for m, seed in ((2, 1301), (3, 1302), (4, 1303)):
        gen = RandomSource(seed).generator()
        a = gen.standard_normal((2 * m, 2 * m))
        eta = a @ a.T / (2 * m)
        o_plus = haar_orthogonal_batch(m, 1, gen)[0]
        gen_k, ham = make_generator("two-mode-phase", (0, 1), m), QuadraticHamiltonian(o_plus @ eta @ o_plus.T)
        worst_trace = max(worst_trace, abs(float(np.trace(bk_matrix(gen_k, ham.eta)))))  # the dense oracle's
        est = estimate_grad_moments(QuadraticGradientFamily(gen_k, 1.5, ham), 1_000_000, RandomSource(seed + 10))
        z = abs(est.second_moment - quadratic_second_moment(gen_k, 1.5, ham)) / est.std_error_second
        worst_z = max(worst_z, z)
    ok = worst_z <= 3.0 and worst_trace <= 1e-10
    _report(
        "C3 quadratic-moment",
        ok,
        f"worst deviation {worst_z:.2f} sigma, worst |tr B| {worst_trace:.1e}",
    )


def test_criterion_04_heterodyne_prefactor_and_noise_regimes():
    """Equal-intensity reduction to 1e-12 in log scale; attenuation verdicts."""
    worst = 0.0
    for m in (1, 2, 5, 16, 64):
        for energy in (0.25, 1.0, 7.0):
            worst = max(
                worst,
                abs(heterodyne_prefactor(m, energy, energy).log_value
                    - equal_intensity_log_prefactor(m, energy)),
            )
    bpl = classify_regime(M_GRID, *attenuation_values("power:1,0.5", 0.9, lambda m: m, M_GRID))
    trainable = classify_regime(
        M_GRID, *attenuation_values("power:1,0.5", 0.9, lambda m: math.ceil(math.sqrt(m)), M_GRID)
    )
    ok = worst <= 1e-12 and bpl.verdict == "BPL" and trainable.verdict == "trainable"
    _report(
        "C4 heterodyne-prefactor-and-noise",
        ok,
        f"max log gap {worst:.1e}, L=m -> {bpl.verdict}, L=sqrt -> {trainable.verdict}",
    )


def test_criterion_05_intensity_regimes_and_rates():
    """Regime verdicts on the canonical laws; fitted rates to 5 percent."""
    verdicts = {}
    for law in ("linear:1", "expdecay:1,2", "power:1,0.5", "logpower:1,-0.5"):
        energies = intensity_law(law, M_GRID)
        verdicts[law] = classify_regime(M_GRID, energies, energies).verdict
    expected = {
        "linear:1": "BPL",
        "expdecay:1,2": "BPL",
        "power:1,0.5": "trainable",
        "logpower:1,-0.5": "trainable",
    }
    rate_devs = {}
    for a in (0.5, 1.0, 2.0):
        logs = [heterodyne_prefactor(m, a * (m - 1), a * (m - 1)).log_value for m in M_GRID]
        fitted = fit_linear_rate(M_GRID, logs)
        ref = linear_intensity_rate(a)
        rate_devs[a] = abs(fitted - ref) / abs(ref)
    ok = verdicts == expected and all(dev <= 0.05 for dev in rate_devs.values())
    worst_rate = max(rate_devs.values())
    _report(
        "C5 intensity-regimes-and-rates",
        ok,
        f"verdicts {verdicts}, worst rate deviation {worst_rate:.2%}",
    )


def test_criterion_06_gradient_correctness():
    """Analytic vs central finite-difference gradients, 50 instances per family.

    Central differences at step 1e-5 carry an absolute noise floor of ~1e-9
    (truncation plus roundoff), so instances are redrawn until the analytic
    gradient exceeds 1e-2; below that a 1e-6 relative comparison would only
    measure the differencing noise, not the gradient implementation.
    """
    floor = 1e-2
    worst = 0.0

    from conftest import toy_cost

    gen = RandomSource(1601).generator()
    count = 0
    while count < 50:  # toy family
        m = int(gen.integers(1, 9))
        u_single = gen.uniform(-1.2, 1.2, 2)
        theta = gen.uniform(-math.pi, math.pi, m)
        analytic = toy_grad(u_single, theta)
        if abs(analytic) < floor:
            continue
        count += 1
        step = 1e-5
        plus, minus = theta.copy(), theta.copy()
        plus[0] += step
        minus[0] -= step
        fd = (toy_cost(u_single, plus) - toy_cost(u_single, minus)) / (2 * step)
        worst = max(worst, abs(analytic - fd) / abs(analytic))

    gen = RandomSource(1602).generator()
    count = 0
    while count < 50:  # compiling family
        m = int(gen.integers(1, 9))
        depth = int(gen.integers(2, 6))
        k = int(gen.integers(1, depth + 1))  # before the circuit: every later draw is unchanged
        circ = random_circuit(m, depth, gen)
        circ = circ.with_theta(gen.uniform(-math.pi, math.pi, depth))
        direction = gen.standard_normal(2 * m)
        direction /= np.linalg.norm(direction)
        u = math.sqrt(2 * float(gen.uniform(0.2, 2.0))) * direction
        o_minus, o_plus = split_action(circ, k)
        analytic = compiling_grad(u, circ.gens[k - 1], o_minus, o_plus)
        if abs(analytic) < floor:
            continue
        count += 1
        fd = fd_gradient(circ, k, "compiling", u)
        worst = max(worst, abs(analytic - fd) / abs(analytic))

    gen = RandomSource(1603).generator()
    count = 0
    while count < 50:  # quadratic family
        m = int(gen.integers(2, 9))
        depth = int(gen.integers(2, 6))
        k = int(gen.integers(1, depth + 1))  # before the circuit: every later draw is unchanged
        circ = random_circuit(m, depth, gen)
        circ = circ.with_theta(gen.uniform(-math.pi, math.pi, depth))
        a = gen.standard_normal((2 * m, 2 * m))
        ham = QuadraticHamiltonian(a @ a.T / (2 * m))
        direction = gen.standard_normal(2 * m)
        direction /= np.linalg.norm(direction)
        u = math.sqrt(2 * float(gen.uniform(0.2, 2.0))) * direction
        o_minus, o_plus = split_action(circ, k)
        analytic = quadratic_grad(u, circ.gens[k - 1], ham, o_minus, o_plus)
        if abs(analytic) < floor:
            continue
        count += 1
        fd = fd_gradient(circ, k, "quadratic", u, hamiltonian=ham)
        worst = max(worst, abs(analytic - fd) / abs(analytic))

    _report("C6 gradient-correctness", worst <= 1e-6, f"worst relative deviation {worst:.2e}")


def test_criterion_07_special_functions():
    """Series-oracle accuracy, recurrence residuals, and log-scale range."""
    worst_series = 0.0
    for nu in range(0, 51, 2):
        for x in np.arange(0.5, 10.5, 0.5):
            oracle = series_bessel_i(nu, float(x))
            mine = bessel_i(nu, float(x)).log_value
            worst_series = max(worst_series, abs(math.expm1(mine - math.log(oracle))))

    worst_rec = 0.0
    for nu in (1, 2, 5, 10, 20, 50, 100):
        for x in (0.1, 0.5, 2.0, 10.0, 50.0, 150.0, 400.0):
            logs = [bessel_i(nu + d, x).log_value for d in (-1, 0, 1)]
            ref = max(logs)
            lhs = math.exp(logs[0] - ref) - math.exp(logs[2] - ref)
            rhs = (2.0 * nu / x) * math.exp(logs[1] - ref)
            worst_rec = max(worst_rec, abs(lhs - rhs) / abs(rhs))

    finite = all(
        math.isfinite(heterodyne_prefactor(m, energy, energy).log_value)
        for m in (10, 1_000, 10_000)
        for energy in (1.0, 1e3, 1e6)
    )
    ok = worst_series <= 1e-10 and worst_rec <= 1e-8 and finite
    _report(
        "C7 special-functions",
        ok,
        f"series dev {worst_series:.1e}, recurrence dev {worst_rec:.1e}, finite={finite}",
    )


def test_criterion_08_sampler_moments():
    """Haar row second moments and sphere coordinate moments at 1e5 draws."""
    m, n = 3, 100_000
    ts = haar_orthogonal_batch(m, n, RandomSource(1801).generator())
    sq = ts[:, 0, :] ** 2
    se = sq.std(ddof=1, axis=0) / math.sqrt(n)
    z_haar = float(np.max(np.abs(sq.mean(axis=0) - 1.0 / (2 * m)) / se))

    radius = 1.7
    ys = uniform_sphere_batch(m, radius, n, RandomSource(1802).generator())
    sq_y = ys**2
    se_y = sq_y.std(ddof=1, axis=0) / math.sqrt(n)
    z_sphere = float(np.max(np.abs(sq_y.mean(axis=0) - radius**2 / (2 * m)) / se_y))

    ok = z_haar <= 3.0 and z_sphere <= 3.0
    _report(
        "C8 sampler-moments", ok, f"haar worst {z_haar:.2f} sigma, sphere worst {z_sphere:.2f} sigma"
    )


def test_criterion_09_training_contrast():
    """Trainable small instance converges; linear-intensity instance is flat."""
    converged = 0
    for seed in range(10):
        inst = RandomSource(1900 + seed).generator()
        circ = random_circuit(2, 4, inst)
        circ = circ.with_theta(inst.uniform(-math.pi, math.pi, 4))
        u = uniform_sphere(2, math.sqrt(2 * 0.5), inst)
        records = train(circ, "compiling", u, TrainConfig(lr=1.0, max_iters=2000, tol=1e-10))
        converged += records[-1].cost < 1e-3

    def initial_grad_norms(m, energy):
        norms = []
        for seed in range(10):
            inst = RandomSource(1950 + seed).generator()
            circ = random_circuit(m, 4, inst)
            circ = circ.with_theta(inst.uniform(-math.pi, math.pi, 4))
            u = uniform_sphere(m, math.sqrt(2 * energy), inst)
            records = train(circ, "compiling", u, TrainConfig(lr=1.0, max_iters=0, tol=0.0))
            norms.append(records[0].grad_norm)
        return float(np.median(norms))

    ratio = initial_grad_norms(2, 0.5) / initial_grad_norms(12, 12.0)
    ok = converged >= 8 and ratio >= 1e2
    _report(
        "C9 training-contrast",
        ok,
        f"{converged}/10 converged below 1e-3, gradient-norm ratio {ratio:.1e}",
    )


def test_criterion_10_reproducibility(tmp_path):
    """Identical seeds reproduce identical output files, byte for byte."""
    identical = True
    for args, name in [
        (["toy", "--m", "3", "--s", "0.4", "--samples", "20000", "--seed", "77"], "toy"),
        (["prop1", "--m", "2", "--intensity", "1.0", "--samples", "20000", "--seed", "78"], "prop1"),
        (["regimes", "--law", "linear:1", "--m-grid", "4:64:4", "--seed", "79"], "regimes"),
        (["train", "--m", "2", "--layers", "4", "--intensity", "0.5", "--lr", "1.0",
          "--max-iters", "50", "--tol", "0", "--seed", "80"], "train"),
    ]:
        out_a = tmp_path / f"{name}_a.csv"
        out_b = tmp_path / f"{name}_b.csv"
        assert cli_main(args + ["--output", str(out_a)]) == 0
        assert cli_main(args + ["--output", str(out_b)]) == 0
        identical = identical and out_a.read_bytes() == out_b.read_bytes()
    # estimates are also invariant to chunk scheduling
    fam = ToyGradientFamily(m=4, s=0.5)
    serial = estimate_grad_moments(fam, 50_000, RandomSource(81), n_jobs=1)
    threaded = estimate_grad_moments(fam, 50_000, RandomSource(81), n_jobs=8)
    ok = identical and serial == threaded
    _report("C10 reproducibility", ok, f"files identical={identical}, chunk-invariant={serial == threaded}")
