"""Batch front end: configuration, experiment dispatch, artifact I/O.

    bolab <command> [--config run.json] [flags...]

Commands: simulate, gauge-check, params, estimates, smoothing, lipschitz,
lemma21, nfe.  A command builds its inputs from the config and prints; its
reports come from ``bolab.experiments``, which decides every check.
``main`` embeds the resolved config in each report, writes it as JSON + CSV
into the output directory (--output-dir flag, config "output_dir", env
BOLAB_OUTPUT_DIR, or ./bolab-reports) and prints a one-line verdict
summary.  Exit codes: 0 every verdict passes (or the run is
descriptive-only), 1 a verdict failed or was inconclusive, 2 usage or
config error, 3 numerical failure.

Configuration is a JSON file whose sections and keys are the rows of
``_SPEC``: each row gives a key's dotted path, flag type, default, flag and
help.  ``DEFAULTS``, the type checks of config values (list entries
included; a number must be finite) and the flags are all derived from it.
Flags override file values, file values override per-command defaults.
Unknown keys are rejected with their field path; a key whose default is
null also accepts null, so the config embedded in a report replays as it
is.  Identical config + seed produce byte-identical CSV reports.

Whether a value is usable is the library's rule: a function refuses an
argument with ``spectral.ArgumentError``, and ``main`` maps its name to
the ``_SPEC`` path of that leaf (zero data to ``data.amplitude``, a mean
to ``grid.half_length``) and exits 2 naming the key, before any report.
"""

import argparse
import copy
import json
import math
import os
import sys

import numpy as np

from .dynamics import evolve_gauged
from .experiments import (CONSISTENCY_BOUND, ROUND_TRIP_BOUND,
                          gauge_check_experiment, integral_scaling_experiment,
                          lemma21_experiment, lipschitz_experiment, nfe_report,
                          params_report, rough_real_data, simulate_experiment,
                          smoothing_experiment, verify_operator_estimate)
from .gauge import gauge_forward
from .infr import infr_params
from .nfe import nfe_residual
from .spectral import ArgumentError, Grid, to_spectral

ENV_OUTPUT_DIR = "BOLAB_OUTPUT_DIR"
DATA_KINDS = ("gaussian-derivative", "rough-random")


class ConfigError(ValueError):
    """Bad configuration; the message carries the offending field path."""


def _floats(text):
    return [float(x) for x in text.split(",") if x.strip()]


def _ints(text):
    return [int(x) for x in text.split(",") if x.strip()]


def _names(text):
    return text.split(",")


# (dotted path, flag type, default, flag, help); a tuple flag type is the
# flag's choices.  Rows are in --help order.
_SPEC = (
    ("output_dir", str, None, "--output-dir", None),
    ("grid.n_points", int, 256, "--n-points", None),
    ("grid.half_length", float, 8.0 * np.pi, "--half-length", None),
    ("time.T", float, 0.25, "--T", None),
    ("time.dt", float, 1e-3, "--dt",
     "time step (smoothing: the N=512 reference step)"),
    ("time.snapshot_every", int, 10, "--snapshot-every", None),
    ("data.kind", DATA_KINDS, "gaussian-derivative", "--kind", None),
    ("data.seed", int, 42, "--seed", None),
    ("data.amplitude", float, 0.3, "--amplitude", None),
    ("data.regularity", float, 0.5, "--regularity", None),
    ("infr.s", float, 0.5, "--s", None),
    ("infr.eps", float, 0.0, "--eps", None),
    ("infr.N_threshold", float, 1000.0, "--n-threshold", None),
    ("infr.J_max", int, 2, "--j-max", None),
    ("experiment.alpha_list", _floats, [128.0, 256.0, 512.0, 1024.0],
     "--alpha-list", None),
    ("experiment.M_list", _floats, [16.0, 32.0, 64.0, 128.0], "--m-list", None),
    ("experiment.cutoff", float, 48.0, "--cutoff", None),
    ("experiment.resolutions", _ints, [128, 256], "--resolutions", None),
    ("experiment.trials", int, 4, "--trials", None),
    ("experiment.perturbation_size", float, 1e-3, "--perturbation-size", None),
    ("experiment.amplitudes", _floats, [0.05, 0.1, 0.2, 0.35, 0.5],
     "--amplitudes", None),
    ("experiment.terms", _names, ["Q+", "Q-", "C+", "C-"], "--terms", None),
    ("experiment.c_max", float, 10.0, "--c-max", None),
)


def _nest(pairs):
    """Nested config dict from (dotted path, value) pairs."""
    cfg = {}
    for path, value in pairs:
        node = cfg
        *heads, leaf = path.split(".")
        for head in heads:
            node = node.setdefault(head, {})
        node[leaf] = value
    return cfg


DEFAULTS = _nest((path, default) for path, _, default, _, _ in _SPEC)

# per-command overlays: defaults that make the bare command meaningful
COMMAND_DEFAULTS = {
    "estimates": {"grid": {"n_points": 128, "half_length": np.pi}},
    "smoothing": {"data": {"kind": "rough-random", "amplitude": 0.5},
                  "time": {"dt": 1e-4}, "infr": {"eps": 0.4},
                  "grid": {"half_length": np.pi}},
    "lipschitz": {"data": {"kind": "rough-random", "amplitude": 0.6},
                  "time": {"dt": 4e-4, "T": 0.5},
                  "grid": {"half_length": np.pi}},
    "lemma21": {"grid": {"n_points": 256, "half_length": np.pi},
                "time": {"T": 0.1, "dt": 5e-5}},
    # n = 128 keeps phases up to ~2 (kmax/2)^2 ~ 2000 attainable, so the
    # default N_threshold = 1000 leaves a populated nonresonant frontier;
    # dt keeps max_step x lattice_phase_cap below 0.5 for the trapezoid
    "nfe": {"grid": {"n_points": 128, "half_length": np.pi},
            "time": {"T": 0.02, "dt": 2.5e-5, "snapshot_every": 1},
            "data": {"kind": "rough-random", "amplitude": 0.05}},
}


# flag type -> (what a config value must be, its kind for _suits)
_EXPECT = {int: ("an integer", int), float: ("a number", float),
           str: ("a string", str),
           DATA_KINDS: (f"one of {', '.join(DATA_KINDS)}", DATA_KINDS),
           _ints: ("a list of integers", [int]),
           _floats: ("a list of numbers", [float]),
           _names: ("a list of strings", [str])}


def _suits(val, kind):
    """Whether ``val`` is of ``kind``: int, float (a finite number), str,
    [entry kind] for a list, or a tuple of the values it may take."""
    if isinstance(kind, tuple):
        return val in kind
    if isinstance(kind, list):
        return isinstance(val, list) and all(_suits(v, kind[0]) for v in val)
    if kind is float:
        return _suits(val, int) or (isinstance(val, float) and math.isfinite(val))
    return isinstance(val, kind) and not isinstance(val, bool)


_TYPES = {"command": str, **{path: ftype for path, ftype, _, _, _ in _SPEC}}
_NULLABLE = {path for path, _, default, _, _ in _SPEC if default is None}
_SECTIONS = {path.rpartition(".")[0] for path in _TYPES} - {""}
# the config key of an argument a library function refuses: the _SPEC path
# of its leaf or of the list it is an entry of (term); data.amplitude for
# zero data, grid.half_length for a mean (gaussian data decays in the box),
# time.dt for smoothing's reference step
_KEYS = {path.rpartition(".")[2]: path for path, _, _, _, _ in _SPEC}
_KEYS.update(u0="data.amplitude", traj="data.amplitude", u="grid.half_length",
             term="experiment.terms", base_dt="time.dt")


def _validate(node, path=""):
    if not isinstance(node, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    for key, val in node.items():
        here = f"{path}.{key}" if path else key
        if here in _SECTIONS:
            _validate(val, here)
        elif here not in _TYPES:
            raise ConfigError(f"{here}: unknown key")
        elif not (val is None and here in _NULLABLE):
            noun, kind = _EXPECT[_TYPES[here]]
            if not _suits(val, kind):
                raise ConfigError(f"{here}: expected {noun}, got {val!r}")


def _deep_merge(base, override):
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def resolve_config(command, file_cfg=None, flag_cfg=None):
    """Per-command defaults <- config file <- flags, validated strictly."""
    for layer in (file_cfg, flag_cfg):
        if layer:
            _validate(layer)
    cfg = _deep_merge(DEFAULTS, COMMAND_DEFAULTS.get(command, {}))
    cfg = _deep_merge(cfg, file_cfg or {})
    cfg = _deep_merge(cfg, flag_cfg or {})
    configured = cfg.pop("command", None)
    if configured is not None and configured != command:
        raise ConfigError(
            f"command: config says {configured!r} but {command!r} was invoked")
    cfg["command"] = command
    return cfg


def _build_grid(cfg):
    g = cfg["grid"]
    return Grid(g["n_points"], g["half_length"])


def _build_params(cfg):
    p = cfg["infr"]
    return infr_params(p["s"], p["eps"], N_threshold=p["N_threshold"])


def _build_data(grid, cfg):
    d = cfg["data"]
    if d["kind"] == "gaussian-derivative":
        samples = d["amplitude"] * -grid.x * np.exp(-grid.x ** 2 / 2.0)
        return to_spectral(samples, grid)
    return rough_real_data(grid, d["regularity"], d["seed"], d["amplitude"])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_simulate(cfg, outdir):
    t = cfg["time"]
    traj, rep = simulate_experiment(_build_data(_build_grid(cfg), cfg), t["T"],
                                    t["dt"], t["snapshot_every"])
    traj_dir = os.path.join(outdir, "trajectory")
    traj.save(traj_dir)
    print(f"trajectory ({len(traj)} snapshots) in {traj_dir}")
    return [("simulate", rep)]


def _cmd_gauge_check(cfg, outdir):
    t = cfg["time"]
    rep = gauge_check_experiment(_build_data(_build_grid(cfg), cfg), t["T"],
                                 t["dt"], cfg["infr"]["s"])
    lines = (("round-trip relative error", ROUND_TRIP_BOUND),
             ("gauge/direct consistency error", CONSISTENCY_BOUND))
    for (what, bound), row, ok in zip(lines, rep.samples, rep.checks.values()):
        print(f"{what} <= {bound:g}: {'PASS' if ok else 'FAIL'}"
              f" ({row['value']:.3e})")
    return [("gauge_check", rep)]


def _cmd_params(cfg, outdir):
    p = _build_params(cfg)
    for name, value in p.table():
        print(f"{name:<18} {value}")
    if not p.feasible:
        print(p.message)
    return [("params", params_report(p))]


def _cmd_estimates(cfg, outdir):
    infr, exp = cfg["infr"], cfg["experiment"]
    # the integrals own the cutoff rule; run them first so that a cutoff
    # they refuse stops the command before the operator sweeps
    integral = integral_scaling_experiment(infr["s"], infr["eps"], exp["cutoff"])
    g = cfg["grid"]
    out = []
    for name in exp["terms"]:
        stem = name.replace("+", "p").replace("-", "m")
        out.append((f"operator_{stem}", verify_operator_estimate(
            name, infr["s"], infr["eps"], exp["alpha_list"], exp["M_list"],
            trials=exp["trials"], grid_n=g["n_points"],
            half_length=g["half_length"])))
    return out + [("integral_scaling", integral)]


def _cmd_smoothing(cfg, outdir):
    t, infr, d, exp = cfg["time"], cfg["infr"], cfg["data"], cfg["experiment"]
    rep = smoothing_experiment(
        seed=d["seed"], s=infr["s"], eps=infr["eps"],
        T=t["T"], resolutions=exp["resolutions"], amplitude=d["amplitude"],
        base_dt=t["dt"], half_length=cfg["grid"]["half_length"])
    return [("smoothing", rep)]


def _cmd_lipschitz(cfg, outdir):
    t, d, exp = cfg["time"], cfg["data"], cfg["experiment"]
    rep = lipschitz_experiment(
        seed=d["seed"], s=cfg["infr"]["s"], T=t["T"],
        perturbation_size=exp["perturbation_size"],
        resolutions=exp["resolutions"], amplitude=d["amplitude"], dt=t["dt"],
        c_max=exp["c_max"], half_length=cfg["grid"]["half_length"])
    return [("lipschitz", rep)]


def _cmd_lemma21(cfg, outdir):
    rep = lemma21_experiment(
        cfg["experiment"]["amplitudes"], cfg["time"]["T"],
        n_points=cfg["grid"]["n_points"], dt=cfg["time"]["dt"],
        seed=cfg["data"]["seed"], half_length=cfg["grid"]["half_length"])
    return [("lemma21", rep)]


def _cmd_nfe(cfg, outdir):
    p = _build_params(cfg)
    t = cfg["time"]
    u0 = _build_data(_build_grid(cfg), cfg)
    traj = evolve_gauged(gauge_forward(u0), T=t["T"], dt=t["dt"],
                         rhs_mode="terms", snapshot_every=t["snapshot_every"])
    nr = nfe_residual(traj, cfg["infr"]["J_max"], p)
    print(nr.summary())
    return [("nfe", nfe_report(nr))]


_DISPATCH = {
    "simulate": _cmd_simulate,
    "gauge-check": _cmd_gauge_check,
    "params": _cmd_params,
    "estimates": _cmd_estimates,
    "smoothing": _cmd_smoothing,
    "lipschitz": _cmd_lipschitz,
    "lemma21": _cmd_lemma21,
    "nfe": _cmd_nfe,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="bolab",
        description="Benjamin-Ono spectral laboratory: simulations, gauge "
                    "checks, and scaling experiments with JSON/CSV reports.")
    p.add_argument("command", choices=_DISPATCH)
    p.add_argument("--config", help="JSON config file (flags override it)")
    for path, ftype, _, flag, help_text in _SPEC:
        kind = {"choices": ftype} if isinstance(ftype, tuple) else {"type": ftype}
        p.add_argument(flag, dest=path, help=help_text, **kind)
    return p


def _flags_to_config(namespace):
    return _nest((dest, value) for dest, value in vars(namespace).items()
                 if dest not in ("command", "config") and value is not None)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    try:
        file_cfg = None
        if args.config:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
            if not isinstance(file_cfg, dict):
                raise ConfigError("config: top level must be a JSON object")
        cfg = resolve_config(args.command, file_cfg, _flags_to_config(args))
    except (ConfigError, json.JSONDecodeError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    outdir = (cfg.get("output_dir") or os.environ.get(ENV_OUTPUT_DIR)
              or os.path.join(os.getcwd(), "bolab-reports"))
    try:
        results = _DISPATCH[cfg["command"]](cfg, outdir)
    except (ValueError, RuntimeError) as e:
        key = _KEYS.get(e.argument) if isinstance(e, ArgumentError) else None
        if key is None:
            print(f"numerical failure: {e}", file=sys.stderr)
            return 3
        print(f"config error: {key}: {e}", file=sys.stderr)
        return 2

    for stem, rep in results:
        rep.params["config"] = cfg
        rep.write(outdir, stem)
        print(rep.summary())
    print(f"reports in {outdir}")
    return int(any(rep.verdict != "pass" for _, rep in results))


if __name__ == "__main__":
    sys.exit(main())
