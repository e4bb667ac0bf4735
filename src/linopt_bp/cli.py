"""Command-line front end: closed-form vs Monte Carlo experiments as CSV/JSON.

Subcommands
-----------
toy         expected |gradient| of the local phase-shifter bank: closed form
            vs Monte Carlo over uniform angles
prop1       compiling-cost gradient second moment: interval prediction
            vs Monte Carlo over the sphere points u O_minus, O_plus u^T of
            Haar pairs (O_minus, O_plus)
prop2       quadratic-cost gradient second moment: closed form vs Monte Carlo
heterodyne  unequal-intensity moment prefactor (optionally vs Monte Carlo)
noise       attenuation sweep E1 = k^(2L(m)) E0(m) with regime verdict
regimes     intensity-law sweep with regime verdict
train       gradient-descent run emitting an iteration,cost,grad_norm trace
            on a random circuit with Haar U(m) fixed layers; the preamble
            records the step-size backoffs and the final step

The sweeps evaluate their intensity law (for ``noise`` also the layer count
and E1) once per grid point, then write and classify those values.  ``--law``
also takes ``list:E1,...``, one intensity per grid point.

Every output file embeds the schema string, the full config (JSON) and the
seed as preamble records, so any file can be reproduced exactly from its own
header.  Exit codes: 0 success, 2 configuration error (such as a negative or
non-finite sweep intensity), 3 numerical failure (such as a closed-form moment
that is exactly zero or underflows, a Bessel argument that overflows or needs
more than ``special_functions.MAX_HALF_WIDTH`` series terms per side; a sweep
names the first such m).
The default output directory is taken from LINOPT_BP_OUTDIR when set.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import closed_forms as cforms
from . import cost_functions as cf
from . import estimators as est
from . import trainer as tr
from .linear_optics import make_generator, random_circuit
from .phase_space import MeanVector
from .sampling import RandomSource, haar_orthogonal, uniform_sphere

SCHEMA = "linopt-bp/5"
ENV_OUTDIR = "LINOPT_BP_OUTDIR"
INSTANCE_STREAM = 2**32  # substream index reserved for instance construction


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


class NumericalError(RuntimeError):
    """A result left the representable range."""


# -- option schema -----------------------------------------------------------

_COMMON = {
    "seed": 0,
    "format": "csv",
    "output": None,
    "jobs": 1,
}

_DEFAULTS = {
    "toy": {**_COMMON, "m": 5, "s": 0.5, "samples": 100_000},
    "prop1": {
        **_COMMON,
        "m": 3,
        "intensity": 1.0,
        "samples": 100_000,
        "generator": "global-phase",
        "modes": None,
    },
    "prop2": {**_COMMON, "m": 2, "intensity": 1.0, "samples": 100_000},
    "heterodyne": {**_COMMON, "m": 4, "e0": 1.0, "e1": 0.5, "samples": 0},
    "noise": {
        **_COMMON,
        "m_grid": "4:64:4",
        "e0_law": "power:1,0.5",
        "k": 0.9,
        "layers_law": "linear:1",
    },
    "regimes": {**_COMMON, "m_grid": "4:64:4", "law": None},
    "train": {
        **_COMMON,
        "m": 2,
        "layers": 4,
        "intensity": 0.5,
        "lr": 1.0,
        "max_iters": 2000,
        "tol": 1e-8,
        "family": "compiling",
    },
}


@functools.cache  # built on first use, once per process; parsing never mutates it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linopt-bp",
        description="Trainability experiments for random linear-optical circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, help="64-bit seed recorded in the output")
        p.add_argument("--format", choices=["csv", "json"], help="output format")
        p.add_argument("--output", "-o", help="output file path")
        p.add_argument("--jobs", type=int, help="parallel chunk workers")
        p.add_argument("--config", help="JSON config file; explicit flags override it")

    p = sub.add_parser("toy", help="toy-model |gradient| vs closed form")
    p.add_argument("--m", type=int)
    p.add_argument("--s", type=float, help="squared single-mode mean norm u1^2+u2^2")
    p.add_argument("--samples", type=int)
    add_common(p)

    p = sub.add_parser("prop1", help="compiling gradient second moment vs closed form")
    p.add_argument("--m", type=int)
    p.add_argument("--intensity", type=float, help="total input intensity E")
    p.add_argument("--samples", type=int)
    p.add_argument("--generator", choices=["global-phase", "phase-shifter", "two-mode-phase", "beamsplitter"])
    p.add_argument("--modes", type=int, nargs="*", help="mode indices for the generator")
    add_common(p)

    p = sub.add_parser("prop2", help="quadratic gradient second moment vs closed form")
    p.add_argument("--m", type=int)
    p.add_argument("--intensity", type=float)
    p.add_argument("--samples", type=int)
    add_common(p)

    p = sub.add_parser("heterodyne", help="unequal-intensity moment prefactor")
    p.add_argument("--m", type=int)
    p.add_argument("--e0", type=float)
    p.add_argument("--e1", type=float)
    p.add_argument("--samples", type=int, help="0 for closed form only")
    add_common(p)

    p = sub.add_parser("noise", help="attenuation sweep with regime verdict")
    p.add_argument("--m-grid", dest="m_grid")
    p.add_argument("--e0-law", dest="e0_law", help="intensity law for E0, e.g. power:1,0.5")
    p.add_argument("--k", type=float, help="attenuation factor in (0,1)")
    p.add_argument("--layers-law", dest="layers_law", help="linear:a | sqrt | const:L")
    add_common(p)

    p = sub.add_parser("regimes", help="intensity-law sweep with regime verdict")
    p.add_argument("--m-grid", dest="m_grid")
    p.add_argument("--law", help="intensity law, e.g. linear:1, or list:E1,E2,... over the grid")
    add_common(p)

    p = sub.add_parser("train", help="gradient-descent training trace")
    p.add_argument("--m", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--intensity", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--family", choices=list(tr.COST_FAMILIES))
    add_common(p)

    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    command = args.command
    cfg = dict(_DEFAULTS[command])
    cfg["command"] = command
    file_path = getattr(args, "config", None)
    if file_path:
        try:
            with open(file_path) as handle:
                loaded = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: cannot read {file_path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config: file must contain a JSON object")
        loaded.pop("command", None)
        for key, value in loaded.items():
            if key not in cfg:
                raise ConfigError(f"config: unknown field {key!r} for command {command!r}")
            cfg[key] = value
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        cfg[key] = value
    return cfg


# -- small validators ---------------------------------------------------------


def _need(cfg, field, kind, low=None, high=None):
    """``cfg[field]`` as ``kind``: a float must be finite and an int exact (3.7 is
    not truncated to 3); anything else is a config error naming the field."""
    raw = cfg.get(field)
    if raw is None:
        raise ConfigError(f"{field}: required")
    try:
        value = kind(raw)
        if kind is float and not math.isfinite(value):
            raise ValueError
        if kind is int and not isinstance(raw, str) and value != raw:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        what = "finite float" if kind is float else kind.__name__
        raise ConfigError(f"{field}: expected {what}, got {raw!r}") from None
    if low is not None and value < low:
        raise ConfigError(f"{field}: must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ConfigError(f"{field}: must be <= {high}, got {value}")
    cfg[field] = value
    return value


def _parse_m_grid(text) -> list:
    try:
        parts = [int(s) for s in str(text).split(":")]
    except ValueError:
        raise ConfigError(f"m_grid: cannot parse {text!r}; expected start:stop[:step]") from None
    if len(parts) == 2:
        start, stop, step = parts[0], parts[1], 1
    elif len(parts) == 3:
        start, stop, step = parts
    else:
        raise ConfigError(f"m_grid: cannot parse {text!r}; expected start:stop[:step]")
    if start < 1 or stop < start or step < 1:
        raise ConfigError(f"m_grid: invalid range {text!r}")
    grid = list(range(start, stop + 1, step))
    if len(grid) < 6:
        raise ConfigError(f"m_grid: need at least 6 points, got {len(grid)}")
    return grid


def _parse_layers_law(text):
    """Layer count as a function of m: ``linear:a`` (round(a m), a finite),
    ``sqrt`` (ceil(sqrt(m))) or ``const:L`` (L an integer)."""
    text = str(text)
    kind, _, arg = text.partition(":")
    if text == "sqrt":
        return lambda m: math.ceil(math.sqrt(m))
    try:
        if kind == "linear" and math.isfinite(a := float(arg)):
            return lambda m: int(round(a * m))
        if kind == "const":
            n = int(arg)
            return lambda m: n
    except ValueError:
        pass
    raise ConfigError(f"layers_law: cannot parse {text!r}; expected linear:a | sqrt | const:L")


def _sweep_intensities(field, text, grid) -> list:
    """One intensity per grid point: the law ``text`` evaluated once per point or,
    for ``law``, an explicit ``list:E1,...``; a negative or non-finite value is a
    config error."""
    try:
        if field == "law" and text.startswith("list:"):
            values = [float(s) for s in text[len("list:"):].split(",")]
        else:
            law = cforms.intensity_law(text)
            values = [float(law(np.asarray(float(m)))) for m in grid]
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc
    if len(values) != len(grid):
        raise ConfigError(
            f"{field}: explicit list has {len(values)} entries but the grid has {len(grid)}"
        )
    for m, value in zip(grid, values):
        if not (math.isfinite(value) and value >= 0.0):
            raise ConfigError(f"{field}: intensity {value!r} at m={m} is negative or not finite")
    return values


def _closed_form(fn, *args):
    """Evaluate a closed form or classifier on validated inputs; any failure left is numerical."""
    try:
        return fn(*args)
    except ValueError as exc:  # e.g. a moment that underflows, or a Bessel argument out of range
        raise NumericalError(f"closed form: {exc}") from None
    except OverflowError:  # a float power past the largest double
        raise NumericalError(f"closed form: {fn.__name__} overflows") from None


def _finite(value, what) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NumericalError(f"{what} is not finite")
    return value


def _radius(energy) -> float:
    """The input state's radius sqrt(2 E), which passes the largest double near E = 9e307."""
    return _finite(math.sqrt(2 * energy), f"input radius sqrt(2E) at E={energy!r}")


# -- command handlers ----------------------------------------------------------


def _run_toy(cfg) -> tuple:
    m = _need(cfg, "m", int, low=1)
    s = _need(cfg, "s", float, low=0.0)
    samples = _need(cfg, "samples", int, low=est.MIN_SAMPLES)
    closed = _closed_form(cf.toy_grad_abs_expectation, s, m)
    family = est.ToyGradientFamily(m=m, s=s)
    moments = est.estimate_abs_grad(family, samples, RandomSource(cfg["seed"]), cfg["jobs"])
    rows = [
        [m, s, "closed_form", _finite(closed, "closed form"), 0.0],
        [m, s, "mc", _finite(moments.mean, "MC mean"), moments.std_error_mean],
    ]
    return ["m", "s", "kind", "value", "std_error"], rows, {"estimate": moments.as_dict()}


def _prop1_generator(cfg, m):
    kind = cfg["generator"]
    modes = cfg.get("modes")
    if modes is None:
        modes = {"global-phase": (), "phase-shifter": (0,)}.get(kind, (0, 1))
    elif not (isinstance(modes, list) and all(type(j) is int for j in modes)):
        raise ConfigError(f"modes: expected a list of ints, got {modes!r}")
    try:
        return make_generator(kind, tuple(modes), m)
    except ValueError as exc:
        raise ConfigError(f"modes: {exc}") from exc


def _run_prop1(cfg) -> tuple:
    m = _need(cfg, "m", int, low=1)
    energy = _need(cfg, "intensity", float, low=0.0)
    samples = _need(cfg, "samples", int, low=est.MIN_SAMPLES)
    gen = _prop1_generator(cfg, m)
    xi_min, xi_max = cforms.xi_bounds(gen)
    interval = _closed_form(cforms.second_moment_interval, gen, energy)
    u = MeanVector.of([math.sqrt(2 * energy)] + [0.0] * (2 * m - 1))
    family = est.CompilingGradientFamily(u, gen)
    moments = est.estimate_grad_moments(family, samples, RandomSource(cfg["seed"]), cfg["jobs"])
    rows = [[
        m,
        energy,
        xi_min,
        xi_max,
        interval.lo.value,
        interval.hi.value,
        _finite(moments.second_moment, "MC second moment"),
        moments.std_error_second,
    ]]
    columns = ["m", "E", "xi_min", "xi_max", "pred_lo", "pred_hi",
               "mc_second_moment", "mc_stderr"]
    return columns, rows, {"estimate": moments.as_dict()}


def _run_prop2(cfg) -> tuple:
    m = _need(cfg, "m", int, low=2)
    energy = _need(cfg, "intensity", float, low=0.0)
    samples = _need(cfg, "samples", int, low=est.MIN_SAMPLES)
    source = RandomSource(cfg["seed"])
    inst = source.substream(INSTANCE_STREAM)
    dim = 2 * m
    a = inst.standard_normal((dim, dim))
    ham = cf.QuadraticHamiltonian(a @ a.T / dim)
    gen = make_generator("two-mode-phase", (0, 1), m)
    o_plus = haar_orthogonal(m, inst)  # still O(2m); README "Conventions" says why
    eta_tilde = o_plus @ ham.eta @ o_plus.T
    b = cf.bk_matrix(gen, eta_tilde)
    u = uniform_sphere(m, _radius(energy), inst)
    pred = _closed_form(cforms.quadratic_second_moment, u, b)
    family = est.QuadraticGradientFamily(u=u, b=b)
    moments = est.estimate_grad_moments(family, samples, source, cfg["jobs"])
    rows = [[m, energy, _finite(pred, "prediction"),
             _finite(moments.second_moment, "MC second moment"),
             moments.std_error_second]]
    return ["m", "E", "prediction", "mc_second_moment", "mc_stderr"], rows, {"estimate": moments.as_dict()}


def _run_heterodyne(cfg) -> tuple:
    m = _need(cfg, "m", int, low=1)
    e0 = _need(cfg, "e0", float, low=0.0)
    e1 = _need(cfg, "e1", float, low=0.0)
    samples = _need(cfg, "samples", int, low=0)
    extra = {}
    row = [m, e0, e1, _closed_form(cforms.heterodyne_prefactor, m, e0, e1).log_value]
    columns = ["m", "e0", "e1", "log_prefactor"]
    if samples:
        if samples < est.MIN_SAMPLES:
            raise ConfigError(f"samples: must be 0 or >= {est.MIN_SAMPLES}, got {samples}")
        gen = make_generator("global-phase", (), m)
        u = MeanVector.of([math.sqrt(2 * e0)] + [0.0] * (2 * m - 1))
        n = MeanVector.of([0.0, math.sqrt(2 * e1)] + [0.0] * (2 * m - 2))
        family = est.MeasurementGradientFamily(u=u, n=n, gen=gen)
        moments = est.estimate_grad_moments(family, samples, RandomSource(cfg["seed"]), cfg["jobs"])
        row += [_finite(moments.second_moment, "MC second moment"), moments.std_error_second]
        columns += ["mc_second_moment", "mc_stderr"]
        extra["estimate"] = moments.as_dict()
    return columns, [row], extra


def _run_noise(cfg) -> tuple:
    grid = _parse_m_grid(cfg["m_grid"])
    k = _need(cfg, "k", float)
    if not 0.0 < k < 1.0:
        raise ConfigError(f"k: must lie strictly inside (0, 1), got {k}")
    e0s = _sweep_intensities("e0_law", cfg["e0_law"], grid)
    layers_law = _parse_layers_law(cfg["layers_law"])
    try:  # a * m, or 2 L in k^(2L), can pass the largest double
        layer_counts = [layers_law(m) for m in grid]
        for m, n_layers in zip(grid, layer_counts):
            if n_layers < 0:
                raise ConfigError(f"layers_law: layer count {n_layers} at m={m} is negative")
        e1s = [cf.attenuated_intensity(e0, k, n) for e0, n in zip(e0s, layer_counts)]
    except OverflowError:
        raise ConfigError(f"layers_law: {cfg['layers_law']!r} gives a layer count beyond the float range") from None
    verdict = _closed_form(cforms.classify_noise, grid, e0s, e1s)
    rows = [list(row) for row in zip(grid, e0s, layer_counts, e1s, verdict.fit.log_values)]
    extra = {"verdict": verdict.verdict, "fit_slope": verdict.fit.slope}
    return ["m", "e0", "n_layers", "e1", "log_prefactor"], rows, extra


def _run_regimes(cfg) -> tuple:
    grid = _parse_m_grid(cfg["m_grid"])
    law = _need(cfg, "law", str)
    energies = _sweep_intensities("law", law, grid)
    verdict = _closed_form(cforms.classify_regime, grid, energies)
    rows = [list(row) for row in zip(grid, energies, verdict.fit.log_values)]
    extra = {"law": law, "verdict": verdict.verdict, "fit_slope": verdict.fit.slope}
    return ["m", "E", "log_moment"], rows, extra


def _run_train(cfg) -> tuple:
    m = _need(cfg, "m", int, low=1)
    depth = _need(cfg, "layers", int, low=1)
    energy = _need(cfg, "intensity", float, low=0.0)
    lr = _need(cfg, "lr", float)
    max_iters = _need(cfg, "max_iters", int, low=0)
    tol = _need(cfg, "tol", float, low=0.0)
    family = cfg["family"]
    if family not in tr.COST_FAMILIES:
        raise ConfigError(f"family: unknown cost family {family!r}")
    try:
        config = tr.TrainConfig(lr=lr, max_iters=max_iters, tol=tol)
    except ValueError as exc:
        raise ConfigError(f"lr/max_iters/tol: {exc}") from exc
    source = RandomSource(cfg["seed"])
    inst = source.substream(INSTANCE_STREAM)
    circuit = random_circuit(m, depth, inst)
    theta0 = inst.uniform(-math.pi, math.pi, depth)
    circuit = circuit.with_theta(theta0)
    u = uniform_sphere(m, _radius(energy), inst)
    ham = None
    if family == "quadratic":
        dim = 2 * m
        a = inst.standard_normal((dim, dim))
        ham = cf.QuadraticHamiltonian(a @ a.T / dim)
    records = tr.train(circuit, family, u, config, hamiltonian=ham)
    rows = [[rec.iteration, rec.cost, rec.grad_norm] for rec in records]
    extra = {"final_cost": records[-1].cost, "iterations": records[-1].iteration,
             "backoffs": sum(rec.backoffs for rec in records), "final_lr": records[-1].lr}
    return ["iteration", "cost", "grad_norm"], rows, extra


_HANDLERS = {
    "toy": _run_toy,
    "prop1": _run_prop1,
    "prop2": _run_prop2,
    "heterodyne": _run_heterodyne,
    "noise": _run_noise,
    "regimes": _run_regimes,
    "train": _run_train,
}


def run_config(cfg: dict) -> tuple:
    """Run a full config dict; returns (columns, rows, extra_preamble)."""
    command = cfg.get("command")
    if command not in _HANDLERS:
        raise ConfigError(f"command: unknown command {cfg.get('command')!r}")
    _need(cfg, "seed", int, low=0, high=2**64 - 1)
    _need(cfg, "jobs", int, low=1)
    if cfg.get("format") not in ("csv", "json"):
        raise ConfigError(f"format: expected csv or json, got {cfg.get('format')!r}")
    return _HANDLERS[command](cfg)


# -- output writers -------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _config_echo(cfg: dict) -> str:
    clean = {k: v for k, v in cfg.items() if k != "output"}
    return json.dumps(clean, sort_keys=True)


def render_csv(cfg: dict, columns, rows, extra) -> str:
    lines = [
        f"# schema: {SCHEMA}",
        f"# version: {__version__}",
        f"# command: {cfg['command']}",
        f"# seed: {cfg['seed']}",
        f"# config: {_config_echo(cfg)}",
    ]
    lines += [f"# {key}: {_fmt(value)}" for key, value in extra.items()]
    lines.append(",".join(columns))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def render_jsonl(cfg: dict, columns, rows, extra) -> str:
    head = {"record": "config", "schema": SCHEMA, "version": __version__,
            "seed": cfg["seed"], "config": json.loads(_config_echo(cfg))}
    head.update(extra)
    lines = [json.dumps(head, sort_keys=True)]
    for row in rows:
        lines.append(json.dumps({"record": "row", **dict(zip(columns, row))}, sort_keys=True))
    return "\n".join(lines) + "\n"


def _output_path(cfg: dict) -> str:
    if cfg.get("output"):
        return cfg["output"]
    ext = "csv" if cfg["format"] == "csv" else "jsonl"
    base = f"{cfg['command']}_seed{cfg['seed']}.{ext}"
    return os.path.join(os.environ.get(ENV_OUTDIR, "."), base)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        columns, rows, extra = run_config(cfg)
        text = (
            render_csv(cfg, columns, rows, extra)
            if cfg["format"] == "csv"
            else render_jsonl(cfg, columns, rows, extra)
        )
        path = _output_path(cfg)
        with open(path, "w") as handle:
            handle.write(text)
        print(path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, tr.NonFiniteCostError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
