"""Workload definitions: fixed lists of ``linopt-bp`` CLI jobs.

Each job is the argument list of one CLI call, without ``--seed`` and
``--output``; the benchmark adds both.  A job's seed is derived from the
workload seed and the job name, so one workload seed fixes every input.

``expect`` records what the checker verifies beyond finiteness:
``verdict`` for the regime sweeps, ``mc`` for jobs whose Monte Carlo
estimate is compared with the closed form (this feeds ``mc_agree_frac`` and
is deliberately not a failure: ``prop1_deep_m20`` sits in the deep plateau,
where the plain estimator is known to miss the closed form by orders of
magnitude), ``train`` for descent runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

GRID = "4:1024:4"


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    expect: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple


def _regimes(name, law, verdict):
    return Job(name, ("regimes", "--m-grid", GRID, "--law", law), {"verdict": verdict})


def _noise(name, e0_law, k, layers_law, verdict):
    return Job(name, ("noise", "--m-grid", GRID, "--e0-law", e0_law, "--k", k,
                      "--layers-law", layers_law), {"verdict": verdict})


def _het(name, m, e0, e1):
    return Job(name, ("heterodyne", "--m", m, "--e0", e0, "--e1", e1, "--samples", "0"))


def _train(name, m, layers, max_iters, family="compiling"):
    return Job(name, ("train", "--m", m, "--layers", layers, "--intensity", "0.5",
                      "--lr", "1.0", "--max-iters", max_iters, "--family", family),
               {"train": True})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify",
            "Monte Carlo and closed forms from m=2 to the deep plateau: Haar QR sampling, estimators, log-scale Bessel sums out to m=1024 and x=4e6, the regime classifier",
            (
                # Monte Carlo against the closed form
                Job("prop1_m3", ("prop1", "--m", "3", "--intensity", "1", "--samples", "100000"), {"mc": True}),
                Job("prop1_m10_bs", ("prop1", "--m", "10", "--intensity", "1", "--samples", "20000",
                                     "--generator", "beamsplitter"), {"mc": True}),
                Job("prop1_m30", ("prop1", "--m", "30", "--intensity", "1", "--samples", "4096"), {"mc": True}),
                Job("het_m4_j2", ("heterodyne", "--m", "4", "--e0", "1", "--e1", "0.5", "--samples", "100000",
                                  "--jobs", "2"), {"mc": True}),
                Job("prop2_m2", ("prop2", "--m", "2", "--intensity", "1", "--samples", "100000"), {"mc": True}),
                Job("toy_m5", ("toy", "--m", "5", "--s", "0.5", "--samples", "1000000"), {"mc": True}),
                Job("prop1_deep_m20", ("prop1", "--m", "20", "--intensity", "20", "--samples", "8192"),
                    {"mc": True}),
                # closed forms only, out to the deep plateau
                _regimes("regimes_linear", "linear:1", "BPL"),
                _regimes("regimes_expdecay", "expdecay:1,2", "BPL"),
                _regimes("regimes_sqrt", "power:1,0.5", "trainable"),
                _regimes("regimes_logpower", "logpower:1,-0.5", "trainable"),
                _regimes("regimes_power1000", "power:1000,1", "BPL"),
                _noise("noise_linear_layers", "power:1,0.5", "0.9", "linear:1", "BPL"),
                _noise("noise_sqrt_layers", "power:1,0.5", "0.9", "sqrt", "trainable"),
                _noise("noise_power1000", "power:1000,1", "0.99", "sqrt", "BPL"),
                _het("het_m1000_hot", "1000", "1e6", "5e5"),
                _het("het_m200", "200", "200", "100"),
                _het("het_m1000_cold", "1000", "1", "0.5"),
            ),
        ),
        Workload(
            "train_descent",
            "gradient descent on layered circuits: gate exponentials, overlap gradients and validation per layer, BLAS-bound at m=64",
            (
                _train("train_m2_L4", "2", "4", "2000"),
                _train("train_m16_L32", "16", "32", "100"),
                _train("train_m16_L32_quad", "16", "32", "100", family="quadratic"),
                _train("train_m64_L64", "64", "64", "2"),
            ),
        ),
    )
}

# jobs=1 twin of het_m4_j2, run with the same seed only by the traced pass:
# it measures the thread-pool speed-up, and its rows must equal the twin's.
TWIN_OF = "het_m4_j2"
HET_TWIN = Job("het_m4_j1", ("heterodyne", "--m", "4", "--e0", "1", "--e1", "0.5", "--samples", "100000",
                             "--jobs", "1"), {"mc": True})


def job_seed(workload_seed: int, job_name: str) -> int:
    """63-bit CLI seed derived from the workload seed and the job name."""
    digest = hashlib.sha256(f"{workload_seed}/{job_name}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def get(name: str, smoke: bool = False) -> Workload:
    """The named workload, with every job reduced by ``smoke`` when asked."""
    workload = WORKLOADS[name]
    if not smoke:
        return workload
    return Workload(workload.name, workload.why, tuple(reduced(job) for job in workload.jobs))


def reduced(job: Job) -> Job:
    """A reduced-size copy of a job for quick tests: fewer samples and steps."""
    argv = list(job.argv)
    for flag, cap in (("--samples", 2000), ("--max-iters", 3)):
        if flag in argv:
            i = argv.index(flag) + 1
            if int(argv[i]) > 0:
                argv[i] = str(min(int(argv[i]), cap))
    return Job(job.name, tuple(argv), job.expect)
