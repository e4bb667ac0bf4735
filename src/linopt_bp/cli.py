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

The sweeps evaluate their intensity law in one call over the grid (for
``noise`` also the layer count and E1 once per grid point), then write and
classify those values.  ``--law`` and ``--e0-law`` take one grammar, which
includes ``list:E1,...``, one intensity per grid point.

Every output file embeds the schema string, the full config (JSON) and the
seed as preamble records, so any file can be reproduced exactly from its own
header.  Exit codes: 0 success, 2 configuration error (such as a negative or
non-finite sweep intensity, or an ``--m-grid`` that stops above 2**53 or has
more than 2**20 points), 3 numerical failure: a sweep-point moment that is
exactly zero or underflows to zero, a nonzero prediction of ``toy`` or
``prop1`` that rounds to 0.0 in linear scale, a Bessel argument that overflows
or exceeds ``special_functions.MAX_ARGUMENT`` = 1e12, past which a closed
form's -4E + log I(4E) would lose about ulp(4E) nats, or a nonzero Monte Carlo
second moment whose sum of g^4 is 0, subnormal or infinite, so that its
standard error would read 0.0.  A sweep names the first such m, and an
underflowing prediction its log.  An exact zero at a single point (``toy --s
0``, ``prop1 --intensity 0``) is written as 0.0 and exits 0.  The default
output directory is taken from LINOPT_BP_OUTDIR when set.

Each option is declared once, as a field of its command in ``_COMMANDS``: the
flag is ``--`` plus the field name with ``_`` written as ``-``, and the field's
type or choices, default and bounds serve the parser, the config defaults and
the check that ``run_config`` makes on every field before the command runs.  A
``--config`` file's values are checked like flags: an int or float field
rejects a JSON boolean, and ``output`` must be a string.

``--jobs`` defaults to the number of CPUs this process may run on (its
affinity set, else ``os.cpu_count()``), and the estimators start at most that
many chunk workers whatever ``--jobs`` asks for.  The rows do not depend on
it: only the ``jobs`` value of the config record does.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

from . import __version__
from . import closed_forms as cforms
from . import cost_functions as cf
from . import estimators as est
from . import trainer as tr
from .linear_optics import make_generator, random_circuit
from .sampling import RandomSource, haar_orthogonal_batch, uniform_sphere

SCHEMA = "linopt-bp/7"
ENV_OUTDIR = "LINOPT_BP_OUTDIR"
INSTANCE_STREAM = 2**32  # substream index reserved for instance construction
# the largest mode count of a sweep: up to 2**53 the fit and the closed forms see
# every m as an exact double; and its most points: at about 10 us a point, 2**20
# points take about 10 s
MAX_GRID_M = 2**53
MAX_GRID_POINTS = 2**20


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


class NumericalError(RuntimeError):
    """A result left the representable range."""


# -- option schema -----------------------------------------------------------


class _Field:
    """One option of a command, declared once: its flag is ``--`` plus the name
    with ``_`` written as ``-``, its default fills the config, and ``check`` types
    its value before the command's handler runs."""

    def __init__(self, name, kind, default=None, help=None, low=None, high=None, optional=False):
        # kind: int, float, str, list (of ints) or a tuple of choices; an optional
        # field takes None as a value (output's default path, prop1's default modes)
        self.name, self.kind, self.default, self.help = name, kind, default, help
        self.low, self.high, self.optional = low, high, optional

    def check(self, raw):
        """``raw`` as this field's kind: a float must be finite and an int exact (3.7
        is not truncated to 3), neither may be a bool, a str or list must be one;
        anything else is a config error naming the field."""
        name, kind = self.name, self.kind
        if raw is None:
            if self.optional:
                return None
            raise ConfigError(f"{name}: required")
        if isinstance(kind, tuple):
            if raw not in kind:
                raise ConfigError(f"{name}: expected one of ({', '.join(kind)}), got {raw!r}")
            return raw
        if kind is str and not isinstance(raw, str):
            raise ConfigError(f"{name}: expected str, got {raw!r}")
        if kind is list and not (isinstance(raw, list) and all(type(j) is int for j in raw)):
            raise ConfigError(f"{name}: expected a list of ints, got {raw!r}")
        if kind is str or kind is list:
            return raw
        try:
            if isinstance(raw, bool):
                raise ValueError
            value = kind(raw)
            if kind is float and not math.isfinite(value):
                raise ValueError
            if kind is int and not isinstance(raw, str) and value != raw:
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            what = "finite float" if kind is float else kind.__name__
            raise ConfigError(f"{name}: expected {what}, got {raw!r}") from None
        if self.low is not None and value < self.low:
            raise ConfigError(f"{name}: must be >= {self.low}, got {value}")
        if self.high is not None and value > self.high:
            raise ConfigError(f"{name}: must be <= {self.high}, got {value}")
        return value


@functools.cache  # built on first use, once per process; parsing never mutates it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linopt-bp",
        description="Trainability experiments for random linear-optical circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, fields) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for field in fields:
            flags = ["--" + field.name.replace("_", "-")] + (["-o"] if field.name == "output" else [])
            if isinstance(field.kind, tuple):
                p.add_argument(*flags, choices=field.kind, help=field.help)
            elif field.kind is list:
                p.add_argument(*flags, type=int, nargs="*", help=field.help)
            else:
                p.add_argument(*flags, type=field.kind, help=field.help)
        p.add_argument("--config", help="JSON config file; explicit flags override it")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    command = args.command
    _, _, fields = _COMMANDS[command]
    cfg = {field.name: field.default for field in fields}
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
    if stop > MAX_GRID_M:
        raise ConfigError(f"m_grid: {text!r} stops above 2**53, past which mode counts are not exact doubles")
    if (stop - start) // step + 1 > MAX_GRID_POINTS:
        raise ConfigError(f"m_grid: {text!r} has more than 2**20 points")
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
    """The law ``text`` at each grid point; its errors are config errors naming ``field``."""
    try:
        return cforms.intensity_law(text, grid)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc


def _closed_form(fn, *args):
    """Evaluate a closed form or classifier on validated inputs; any failure left is numerical."""
    try:
        return fn(*args)
    except ValueError as exc:  # e.g. a moment that underflows, or a Bessel argument out of range
        raise NumericalError(f"closed form: {exc}") from None
    except OverflowError:  # a mode count past the float range (toy, prop1, heterodyne)
        raise NumericalError(f"closed form: {fn.__name__} overflows") from None


def _estimate(family, cfg, source) -> est.MomentEstimate:
    """The family's Monte Carlo moments over ``cfg``'s samples and jobs; a moment with
    no representable error bar is a numerical failure."""
    try:
        return est.estimate_grad_moments(family, cfg["samples"], source, cfg["jobs"])
    except ValueError as exc:
        raise NumericalError(f"Monte Carlo: {exc}") from None


def _linear(pred, what) -> float:
    """A log-scale prediction in linear scale; a nonzero one that rounds to 0.0 is
    a numerical failure naming its log, and an exact zero (log -inf) passes."""
    if pred.value == 0.0 and pred.log_value > -math.inf:
        raise NumericalError(f"{what} underflows to 0.0 (log {pred.log_value!r})")
    return pred.value


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
    m, s = cfg["m"], cfg["s"]
    closed = _linear(_closed_form(cf.toy_log_abs_expectation, s, m), "closed form")
    moments = _estimate(est.ToyGradientFamily(m=m, s=s), cfg, RandomSource(cfg["seed"]))
    rows = [
        [m, s, "closed_form", _finite(closed, "closed form"), 0.0],
        [m, s, "mc", _finite(moments.mean_abs, "MC mean"), moments.std_error_mean_abs],
    ]
    return ["m", "s", "kind", "value", "std_error"], rows, {"estimate": dataclasses.asdict(moments)}


def _prop1_generator(cfg, m):
    kind, modes = cfg["generator"], cfg["modes"]
    if modes is None:
        modes = {"global-phase": (), "phase-shifter": (0,)}.get(kind, (0, 1))
    try:
        return make_generator(kind, tuple(modes), m)
    except ValueError as exc:
        raise ConfigError(f"modes: {exc}") from exc


def _run_prop1(cfg) -> tuple:
    m, energy = cfg["m"], cfg["intensity"]
    gen = _prop1_generator(cfg, m)
    xi_min, xi_max = cforms.xi_bounds(gen)
    interval = _closed_form(cforms.second_moment_interval, gen, energy)
    pred_lo, pred_hi = _linear(interval.lo, "pred_lo"), _linear(interval.hi, "pred_hi")
    moments = _estimate(est.MeasurementGradientFamily(gen, energy, energy), cfg, RandomSource(cfg["seed"]))
    rows = [[
        m,
        energy,
        xi_min,
        xi_max,
        pred_lo,
        pred_hi,
        _finite(moments.second_moment, "MC second moment"),
        moments.std_error_second,
    ]]
    columns = ["m", "E", "xi_min", "xi_max", "pred_lo", "pred_hi",
               "mc_second_moment", "mc_stderr"]
    return columns, rows, {"estimate": dataclasses.asdict(moments)}


def _run_prop2(cfg) -> tuple:
    m, energy = cfg["m"], cfg["intensity"]
    source = RandomSource(cfg["seed"])
    inst = source.substream(INSTANCE_STREAM)
    dim = 2 * m
    a = inst.standard_normal((dim, dim))
    gen = make_generator("two-mode-phase", (0, 1), m)
    o_plus = haar_orthogonal_batch(m, 1, inst)[0]  # still O(2m); README "Conventions" says why
    ham = cf.QuadraticHamiltonian(o_plus @ (a @ a.T / dim) @ o_plus.T)  # eta~ = o_plus eta o_plus^T
    _radius(energy)  # the family draws w on the sphere of radius sqrt(2E)
    pred = _closed_form(cforms.quadratic_second_moment, gen, energy, ham)
    moments = _estimate(est.QuadraticGradientFamily(gen, energy, ham), cfg, source)
    rows = [[m, energy, _finite(pred, "prediction"),
             _finite(moments.second_moment, "MC second moment"),
             moments.std_error_second]]
    return ["m", "E", "prediction", "mc_second_moment", "mc_stderr"], rows, {"estimate": dataclasses.asdict(moments)}


def _run_heterodyne(cfg) -> tuple:
    m, e0, e1, samples = cfg["m"], cfg["e0"], cfg["e1"], cfg["samples"]
    extra = {}
    row = [m, e0, e1, _closed_form(cforms.heterodyne_prefactor, m, e0, e1).log_value]
    columns = ["m", "e0", "e1", "log_prefactor"]
    if samples:
        if samples < est.MIN_SAMPLES:
            raise ConfigError(f"samples: must be 0 or >= {est.MIN_SAMPLES}, got {samples}")
        gen = make_generator("global-phase", (), m)
        for energy in (e0, e1):  # at E1 = 0 the closed form is an exact zero at any E0
            _radius(energy)
        moments = _estimate(est.MeasurementGradientFamily(gen, e0, e1), cfg, RandomSource(cfg["seed"]))
        row += [_finite(moments.second_moment, "MC second moment"), moments.std_error_second]
        columns += ["mc_second_moment", "mc_stderr"]
        extra["estimate"] = dataclasses.asdict(moments)
    return columns, [row], extra


def _run_noise(cfg) -> tuple:
    grid = _parse_m_grid(cfg["m_grid"])
    k = cfg["k"]
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
    verdict = _closed_form(cforms.classify_regime, grid, e0s, e1s)
    rows = [list(row) for row in zip(grid, e0s, layer_counts, e1s, verdict.log_values)]
    extra = {"verdict": verdict.verdict, "fit_slope": verdict.slope}
    return ["m", "e0", "n_layers", "e1", "log_prefactor"], rows, extra


def _run_regimes(cfg) -> tuple:
    grid = _parse_m_grid(cfg["m_grid"])
    law = cfg["law"]
    energies = _sweep_intensities("law", law, grid)
    verdict = _closed_form(cforms.classify_regime, grid, energies, energies)
    rows = [list(row) for row in zip(grid, energies, verdict.log_values)]
    extra = {"law": law, "verdict": verdict.verdict, "fit_slope": verdict.slope}
    return ["m", "E", "log_moment"], rows, extra


def _run_train(cfg) -> tuple:
    m, depth, energy, family = cfg["m"], cfg["layers"], cfg["intensity"], cfg["family"]
    try:
        config = tr.TrainConfig(lr=cfg["lr"], max_iters=cfg["max_iters"], tol=cfg["tol"])
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


# -- command table ---------------------------------------------------------------

_SHARED = (  # every command's fields after its own, in flag order
    _Field("seed", int, 0, "64-bit seed recorded in the output", low=0, high=2**64 - 1),
    _Field("format", ("csv", "json"), "csv", "output format"),
    _Field("output", str, None, "output file path", optional=True),
    _Field("jobs", int, est.usable_cpus(),
           "chunk workers (default: the CPUs this process may run on; never more start)", low=1),
)

# command -> (help line, handler, fields); the parser, the config defaults and the
# checks in run_config are all read from here
_COMMANDS = {name: (help_line, run, fields + _SHARED) for name, help_line, run, fields in (
    ("toy", "toy-model |gradient| vs closed form", _run_toy, (
        _Field("m", int, 5, low=1),
        _Field("s", float, 0.5, "squared single-mode mean norm u1^2+u2^2", low=0.0),
        _Field("samples", int, 100_000, low=est.MIN_SAMPLES),
    )),
    ("prop1", "compiling gradient second moment vs closed form", _run_prop1, (
        _Field("m", int, 3, low=1),
        _Field("intensity", float, 1.0, "total input intensity E", low=0.0),
        _Field("samples", int, 100_000, low=est.MIN_SAMPLES),
        _Field("generator", ("global-phase", "phase-shifter", "two-mode-phase", "beamsplitter"),
               "global-phase"),
        _Field("modes", list, None, "mode indices for the generator", optional=True),
    )),
    ("prop2", "quadratic gradient second moment vs closed form", _run_prop2, (
        _Field("m", int, 2, low=2),
        _Field("intensity", float, 1.0, low=0.0),
        _Field("samples", int, 100_000, low=est.MIN_SAMPLES),
    )),
    ("heterodyne", "unequal-intensity moment prefactor", _run_heterodyne, (
        _Field("m", int, 4, low=1),
        _Field("e0", float, 1.0, low=0.0),
        _Field("e1", float, 0.5, low=0.0),
        _Field("samples", int, 0, "0 for closed form only", low=0),
    )),
    ("noise", "attenuation sweep with regime verdict", _run_noise, (
        _Field("m_grid", str, "4:64:4"),
        _Field("e0_law", str, "power:1,0.5",
               "intensity law for E0, e.g. power:1,0.5, or list:E1,E2,... over the grid"),
        _Field("k", float, 0.9, "attenuation factor in (0,1)"),
        _Field("layers_law", str, "linear:1", "linear:a | sqrt | const:L"),
    )),
    ("regimes", "intensity-law sweep with regime verdict", _run_regimes, (
        _Field("m_grid", str, "4:64:4"),
        _Field("law", str, None, "intensity law, e.g. linear:1, or list:E1,E2,... over the grid"),
    )),
    ("train", "gradient-descent training trace", _run_train, (
        _Field("m", int, 2, low=1),
        _Field("layers", int, 4, low=1),
        _Field("intensity", float, 0.5, low=0.0),
        _Field("lr", float, 1.0),
        _Field("max_iters", int, 2000, low=0),
        _Field("tol", float, 1e-8, low=0.0),
        _Field("family", tr.COST_FAMILIES, "compiling"),
    )),
)}


def run_config(cfg: dict) -> tuple:
    """Run a full config dict; returns (columns, rows, extra_preamble).  Every field
    of the command is checked, and replaced by its typed value, before its handler
    runs, so a config file's values are held to the same rules as flags."""
    command = cfg.get("command")
    if command not in _COMMANDS:
        raise ConfigError(f"command: unknown command {command!r}")
    _, run, fields = _COMMANDS[command]
    for field in fields:
        cfg[field.name] = field.check(cfg.get(field.name))
    return run(cfg)


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
    """One JSON object per line (RFC 8259, which has no infinities): a log of an
    exact zero, -inf in CSV, is written as null, and any other non-finite float
    is a ValueError rather than an invalid token."""
    head = {"record": "config", "schema": SCHEMA, "version": __version__,
            "seed": cfg["seed"], "config": json.loads(_config_echo(cfg))}
    head.update(extra)
    lines = [json.dumps(head, sort_keys=True, allow_nan=False)]
    for row in rows:
        record = {c: None if v == -math.inf else v for c, v in zip(columns, row)}
        lines.append(json.dumps({"record": "row", **record}, sort_keys=True, allow_nan=False))
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
