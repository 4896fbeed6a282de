"""CLI contract tests: config resolution, exit codes, artifacts, determinism.

All invocations go through ``cli.main`` in-process, at light scales.
"""

import ast
import json
import os
import pathlib

import pytest

import refusal_table
from bolab import cli
from bolab.cli import main, resolve_config, ConfigError


def run(tmp_path, *args):
    return main([*args, "--output-dir", str(tmp_path)])


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def test_unknown_key_rejected_with_path(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"grid": {"n_pointz": 64}}')
    assert run(tmp_path, "simulate", "--config", str(cfg)) == 2
    assert "grid.n_pointz: unknown key" in capsys.readouterr().err


def test_type_error_rejected_with_path(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"time": {"dt": "fast"}}')
    assert run(tmp_path, "simulate", "--config", str(cfg)) == 2
    assert "time.dt: expected a number" in capsys.readouterr().err


def test_command_mismatch_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"command": "params"}')
    assert run(tmp_path, "simulate", "--config", str(cfg)) == 2
    assert "command" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"data": {"seed": 1}, "infr": {"s": 1.0}}')
    assert run(tmp_path, "params", "--config", str(cfg), "--s", "0.5") == 0
    rep = json.loads((tmp_path / "params.json").read_text())
    assert rep["params"]["config"]["data"]["seed"] == 1   # from file
    assert rep["params"]["config"]["infr"]["s"] == 0.5    # flag wins


def test_resolve_config_validates_kind():
    # a term name is the library's rule (see test_unusable_value_is_config_error)
    with pytest.raises(ConfigError, match="data.kind: expected one of "):
        resolve_config("simulate", {"data": {"kind": "plane-wave"}})
    with pytest.raises(ConfigError, match="data.kind: expected one of "):
        resolve_config("simulate", None, {"data": {"kind": "plane-wave"}})


@pytest.mark.parametrize("j_max", ["0", "4"])
def test_nfe_j_max_out_of_range_is_config_error(tmp_path, capsys, j_max):
    # depths outside 1..3 are a usage error (exit 2), not a numerical one
    assert run(tmp_path, "nfe", "--j-max", j_max) == 2
    err = capsys.readouterr().err
    assert "infr.J_max" in err and "allow_expensive" not in err


# a value its command cannot use is a usage error (exit 2) naming its key:
# not a numerical failure (3), a traceback (1) or a silent run (0)
@pytest.mark.parametrize("args, key", [
    (("smoothing", "--resolutions", "100"), "experiment.resolutions"),
    (("lipschitz", "--resolutions", "100"), "experiment.resolutions"),
    (("lemma21", "--n-points", "100"), "grid.n_points"),
    (("estimates", "--n-points", "100"), "grid.n_points"),
    (("lipschitz", "--half-length", "1"), "grid.half_length"),
    (("params", "--eps", "0.9"), "infr.eps"),
    (("params", "--s", "-1"), "infr.s"),
    (("nfe", "--n-threshold", "0.5"), "infr.N_threshold"),
    (("simulate", "--dt", "0"), "time.dt"),
    (("gauge-check", "--dt", "0"), "time.dt"),
    (("simulate", "--dt", "-0.001", "--T", "0.01"), "time.dt"),
    (("gauge-check", "--T", "-0.1"), "time.T"),
    (("simulate", "--snapshot-every", "0"), "time.snapshot_every"),
    (("nfe", "--snapshot-every", "0"), "time.snapshot_every"),
    (("smoothing", "--resolutions", ""), "experiment.resolutions"),
    (("estimates", "--alpha-list", ""), "experiment.alpha_list"),
    (("estimates", "--m-list", ""), "experiment.M_list"),
    (("estimates", "--m-list", "0,16"), "experiment.M_list"),
    (("estimates", "--m-list", "16"), "experiment.M_list"),
    (("estimates", "--alpha-list", "128"), "experiment.alpha_list"),
    (("lemma21", "--amplitudes", ""), "experiment.amplitudes"),
    (("lemma21", "--amplitudes", "0,0.1"), "experiment.amplitudes"),
    (("estimates", "--trials", "0"), "experiment.trials"),
    (("estimates", "--cutoff", "1"), "experiment.cutoff"),
    (("lipschitz", "--perturbation-size", "0"), "experiment.perturbation_size"),
    (("lipschitz", "--perturbation-size", "1e-20", "--resolutions", "128",
      "--T", "0.01"), "experiment.perturbation_size"),
    (("lipschitz", "--perturbation-size", "1e-14", "--resolutions", "128,256",
      "--T", "0.01"), "experiment.perturbation_size"),
    (("smoothing", "--resolutions", "256,128"), "experiment.resolutions"),
    (("smoothing", "--resolutions", "128,128"), "experiment.resolutions"),
    (("estimates", "--terms", "Z+"), "experiment.terms"),
    (("gauge-check", "--amplitude", "0"), "data.amplitude"),
    (("smoothing", "--amplitude", "0"), "data.amplitude"),
    (("nfe", "--amplitude", "0"), "data.amplitude"),
    (("lipschitz", "--resolutions", ""), "experiment.resolutions"),
    (("simulate", "--T", "inf"), "time.T"),
    (("smoothing", "--T", "inf"), "time.T"),
    (("simulate", "--half-length", "nan"), "grid.half_length"),
    (("simulate", "--half-length", "inf"), "grid.half_length"),
    (("simulate", "--amplitude", "nan"), "data.amplitude"),
    (("params", "--s", "nan"), "infr.s"),
    (("nfe", "--n-threshold", "nan"), "infr.N_threshold"),
    (("nfe", "--n-threshold", "10"), "infr.J_max"),
    (("gauge-check", "--half-length", "6.283185307179586"), "grid.half_length"),
    (("lemma21", "--seed", "-1", "--T", "0.001"), "data.seed"),
    (("smoothing", "--seed", "-1"), "data.seed"),
    (("lipschitz", "--seed", "-1"), "data.seed"),
    (("nfe", "--seed", "-1"), "data.seed"),
    (("simulate", "--kind", "rough-random", "--seed", "-1"), "data.seed"),
    (("nfe", "--kind", "gaussian-derivative"), "grid.half_length"),
    # 1e298 steps: the march hung or its snapshot array could not be sized
    (("smoothing", "--dt", "1e-300"), "time.dt"),
    (("lipschitz", "--dt", "1e-300"), "time.dt"),
    (("lemma21", "--dt", "1e-300"), "time.dt"),
    (("gauge-check", "--dt", "1e-300"), "time.dt"),
    (("simulate", "--dt", "1e-300"), "time.dt"),
    (("nfe", "--dt", "1e-300"), "time.dt"),
    # smoothing's reference step, refused at N = 128 before any evolution
    (("smoothing", "--dt", "1e-9", "--resolutions", "128,256"), "time.dt"),
    (("nfe", "--s", "0.2"), "infr.s"),
    # infr_params owns the (s, eps) rule for every command that reads eps
    (("smoothing", "--eps", "-1"), "infr.eps"),
    (("estimates", "--eps", "0.9"), "infr.eps"),
    (("lipschitz", "--c-max", "0"), "experiment.c_max"),
    # every ratio starts at exactly 1, so a positive bound below 1 cannot pass
    (("lipschitz", "--c-max", "0.5"), "experiment.c_max"),
], ids=lambda v: "_".join(a.removeprefix("--") or "empty" for a in v)
    if isinstance(v, tuple) else v)
def test_unusable_value_is_config_error(tmp_path, capsys, args, key):
    assert run(tmp_path, *args) == 2
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not os.listdir(tmp_path)  # rejected before any report is written


# one value of each key's bad-value table, on a command that reads the key;
# tests/refusal_table.py runs the whole table on every command
_ONE_BAD_VALUE = {
    "grid.n_points": ("simulate", "3"),
    "grid.half_length": ("lipschitz", "1e-300"),
    "time.T": ("smoothing", "1e-300"),
    "time.dt": ("lemma21", "1e-300"),
    "time.snapshot_every": ("nfe", "0"),
    "data.kind": ("simulate", "bogus"),
    "data.seed": ("nfe", "-1"),
    "data.amplitude": ("gauge-check", "0"),
    "data.regularity": ("simulate", "nan"),
    "infr.s": ("smoothing", "-1"),
    "infr.eps": ("params", "-1"),
    "infr.N_threshold": ("nfe", "1e-300"),
    "infr.J_max": ("nfe", "0"),
    "experiment.alpha_list": ("estimates", "0"),
    "experiment.M_list": ("estimates", "-1"),
    "experiment.cutoff": ("estimates", "1e-300"),
    "experiment.resolutions": ("lipschitz", "nan"),
    "experiment.trials": ("estimates", "0"),
    "experiment.perturbation_size": ("lipschitz", "1e-300"),
    "experiment.amplitudes": ("lemma21", "0"),
    "experiment.terms": ("estimates", ""),
    "experiment.c_max": ("lipschitz", "0"),
}


def test_one_bad_value_per_key_is_from_the_table():
    assert list(_ONE_BAD_VALUE) == list(refusal_table.FLAGS)
    for path, (_, value) in _ONE_BAD_VALUE.items():
        assert (path, value) in refusal_table.TABLE, path


@pytest.mark.parametrize("path", _ONE_BAD_VALUE)
def test_one_bad_value_per_key(tmp_path, capsys, path):
    command, value = _ONE_BAD_VALUE[path]
    refusal_table.check_bad_value(tmp_path, capsys, command, path, value)


def test_spec_leaves_are_unique():
    # main names the key of a refused library argument by its leaf
    leaves = [path.rpartition(".")[2] for path, _, _, _, _ in cli._SPEC]
    assert len(set(leaves)) == len(leaves) == 23


def test_estimates_alphas_below_the_unrolling_bound_are_inconclusive(
        tmp_path, capsys):
    # at n = 32 only alpha = 64 reaches 2 xi_max = 32: no alpha fit, so the
    # alpha checks are inconclusive (exit 1), not a numerical failure (3)
    assert run(tmp_path, "estimates", "--alpha-list", "0,64", "--n-points",
               "32", "--terms", "Q+", "--trials", "1") == 1
    rep = json.loads((tmp_path / "operator_Qp.json").read_text())
    assert rep["checks"]["alpha_exponent_le_gamma"] == "inconclusive"
    assert rep["checks"]["weak_alpha_exponent_le_gamma0"] == "inconclusive"
    assert rep["checks"]["m_exponent_le_half"] == "inconclusive"
    assert "alpha_strong" not in rep["fits"]
    capsys.readouterr()


# a flag value, its parsed value, and config-file values of the wrong type
# (a non-finite number, or a list entry of the wrong type, included), per
# flag type
_NAN, _INF = float("nan"), float("inf")
_SAMPLES = {
    str: ("elsewhere", "elsewhere", (3,)),
    cli.DATA_KINDS: ("rough-random", "rough-random", (3,)),
    int: ("7", 7, (1.5, True)),
    float: ("0.75", 0.75, ("fast", _NAN, _INF, -_INF)),
    cli._floats: ("1.5,2.5", [1.5, 2.5],
                  ("1.5", ["a", 0.1], [0.1, _NAN], [_INF])),
    cli._ints: ("3,4", [3, 4], (3, [64.5], [64, "128"])),
    cli._names: ("Q+,C-", ["Q+", "C-"], ("Q+", ["Q+", 3])),
}


def _at(path, value):
    *heads, leaf = path.split(".")
    node = {leaf: value}
    for head in reversed(heads):
        node = {head: node}
    return node


@pytest.mark.parametrize("row", cli._SPEC, ids=lambda row: row[0])
def test_spec_row_flag_and_type(row):
    path, ftype, _, flag, _ = row
    text, value, wrongs = _SAMPLES[ftype]
    args = cli._build_parser().parse_args(["params", flag, text])
    got = resolve_config("params", None, cli._flags_to_config(args))
    want = resolve_config("params", _at(path, value))
    assert got == want
    assert got != resolve_config("params")
    for wrong in wrongs:
        with pytest.raises(ConfigError) as err:
            resolve_config("params", _at(path, wrong))
        assert str(err.value).startswith(f"{path}: expected ")


def test_embedded_config_replays(tmp_path, monkeypatch, capsys):
    # without --output-dir the report embeds output_dir: null
    monkeypatch.setenv("BOLAB_OUTPUT_DIR", str(tmp_path / "first"))
    assert main(["params"]) == 0
    embedded = json.loads((tmp_path / "first" / "params.json").read_text())
    assert embedded["params"]["config"]["output_dir"] is None
    cfg = tmp_path / "replay.json"
    cfg.write_text(json.dumps(embedded["params"]["config"]))
    monkeypatch.setenv("BOLAB_OUTPUT_DIR", str(tmp_path / "second"))
    assert main(["params", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert (tmp_path / "second" / "params.csv").read_bytes() == \
        (tmp_path / "first" / "params.csv").read_bytes()


def test_usage_error_exits_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# params / gauge-check / simulate
# ---------------------------------------------------------------------------

def test_params_prints_exponent_table(tmp_path, capsys):
    assert run(tmp_path, "params", "--s", "0.5", "--eps", "0") == 0
    out = capsys.readouterr().out
    for token in ("gamma", "0.5", "0.75", "0.25", "256.0"):
        assert token in out
    assert (tmp_path / "params.json").exists()
    assert (tmp_path / "params.csv").exists()


def test_params_reports_assumption_1_as_a_failed_check(tmp_path, capsys):
    # the (s, eps) that nfe refuses with exit 2 (see above) is a report with
    # a FAIL verdict here
    assert run(tmp_path, "params", "--s", "0.2") == 1
    assert "violate Assumption 1" in capsys.readouterr().out
    rep = json.loads((tmp_path / "params.json").read_text())
    assert rep["checks"]["feasible"] is False


def test_gauge_check_roundtrip_line(tmp_path, capsys):
    code = run(tmp_path, "gauge-check", "--T", "0.05")
    out = capsys.readouterr().out
    assert code == 0
    assert "round-trip relative error <= 1e-10: PASS" in out
    rep = json.loads((tmp_path / "gauge_check.json").read_text())
    assert rep["checks"]["round_trip_le_1e-10"] is True
    assert rep["checks"]["consistency_le_1e-6"] is True


def test_simulate_writes_trajectory_dir(tmp_path):
    code = run(tmp_path, "simulate", "--n-points", "128", "--T", "0.1",
               "--dt", "1e-3", "--snapshot-every", "20")
    assert code == 0
    manifest = json.loads((tmp_path / "trajectory" / "manifest.json").read_text())
    assert manifest["tag"] == "u"
    assert len(manifest["snapshots"]) == len(manifest["times"])
    rep = json.loads((tmp_path / "simulate.json").read_text())
    assert rep["params"]["l2_drift"] <= 1e-8       # BO conserves L2
    # the derivative structure of the nonlinearity keeps the mean at the
    # (denormal-tiny) value of the initial FFT, far below one roundoff leak
    assert rep["params"]["zero_mode_max"] < 1e-30


def test_simulate_unstable_dt_names_bound(tmp_path, capsys):
    code = run(tmp_path, "simulate", "--dt", "0.2", "--amplitude", "6.0",
               "--kind", "rough-random", "--n-points", "512", "--T", "1.0")
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "stability bound" in err


# ---------------------------------------------------------------------------
# experiment commands
# ---------------------------------------------------------------------------

def test_estimates_light_deterministic(tmp_path, capsys):
    args = ("estimates", "--terms", "Q+", "--alpha-list", "64,128,256",
            "--m-list", "8,16,32", "--trials", "2", "--n-points", "64")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--output-dir", str(a)]) == 0
    assert main([*args, "--output-dir", str(b)]) == 0
    capsys.readouterr()
    assert (a / "operator_Qp.csv").read_bytes() == \
        (b / "operator_Qp.csv").read_bytes()
    assert (a / "integral_scaling.csv").exists()


def test_estimates_empty_windows_exit_1(tmp_path, capsys):
    # inconclusive fits (nothing in the windows) must not exit 0
    code = run(tmp_path, "estimates", "--terms", "Q+",
               "--alpha-list", "1048576,2097152", "--m-list", "2,4",
               "--trials", "1", "--n-points", "16")
    capsys.readouterr()
    assert code == 1


def test_smoothing_cli_default_scale(tmp_path, capsys):
    assert run(tmp_path, "smoothing") == 0
    rep = json.loads((tmp_path / "smoothing.json").read_text())
    assert rep["checks"]["remainder_stable_eps0.4"] is True
    assert rep["checks"]["v0_rate_eps0.4"] is True
    assert rep["params"]["config"]["data"]["kind"] == "rough-random"
    capsys.readouterr()


def test_smoothing_cli_measures_at_its_eps(tmp_path, capsys):
    # the remainder is measured at --eps: every check and sample carries it
    code = run(tmp_path, "smoothing", "--eps", "0.2", "--resolutions", "64,128",
               "--T", "0.002")
    capsys.readouterr()
    assert code in (0, 1)  # verdicts at this scale are not the point
    rep = json.loads((tmp_path / "smoothing.json").read_text())
    assert rep["params"]["eps"] == 0.2
    assert rep["checks"] and all(name.endswith("_eps0.2")
                                 for name in rep["checks"])
    assert rep["samples"] and all(r["eps"] == 0.2 for r in rep["samples"])


def test_smoothing_cli_zero_remainder_exits_1(tmp_path, capsys):
    # a remainder sup of 0.0 leaves the stability check inconclusive; it
    # divided by zero and escaped as a traceback before
    code = run(tmp_path, "smoothing", "--resolutions", "256,512",
               "--T", "1e-300")
    capsys.readouterr()
    assert code == 1
    rep = json.loads((tmp_path / "smoothing.json").read_text())
    assert rep["checks"]["remainder_stable_eps0.4"] == "inconclusive"


def test_smoothing_cli_half_length_is_used(tmp_path, capsys):
    code = run(tmp_path, "smoothing", "--resolutions", "64,128", "--T", "0.002",
               "--half-length", "20")
    assert code in (0, 1)  # verdicts at this scale are not the point
    rep = json.loads((tmp_path / "smoothing.json").read_text())
    assert rep["params"]["config"]["grid"]["half_length"] == 20.0
    assert rep["params"]["half_length"] == 20.0
    capsys.readouterr()


def test_lipschitz_cli_light(tmp_path, capsys):
    code = run(tmp_path, "lipschitz", "--resolutions", "128", "--T", "0.1")
    assert code == 0
    rep = json.loads((tmp_path / "lipschitz.json").read_text())
    assert rep["checks"]["ratio_starts_at_one"] is True
    capsys.readouterr()


def test_lemma21_cli_light(tmp_path, capsys):
    code = run(tmp_path, "lemma21", "--amplitudes", "0.05,0.1,0.2",
               "--T", "0.02", "--n-points", "64", "--dt", "2e-4")
    assert code == 0
    rep = json.loads((tmp_path / "lemma21.json").read_text())
    assert rep["checks"]["small_h_power_near_2"] is True
    capsys.readouterr()


def test_nfe_cli_light(tmp_path, capsys):
    code = run(tmp_path, "nfe", "--n-points", "64", "--n-threshold", "150",
               "--dt", "1e-4")
    out = capsys.readouterr().out
    assert code == 0
    assert "nfe residuals" in out
    rep = json.loads((tmp_path / "nfe.json").read_text())
    assert rep["checks"]["residual_monotone"] is True
    assert rep["checks"]["deepest_below_depth1"] is True


@pytest.mark.parametrize("half_length, monotone", [
    ("4.71238898038469", "inconclusive"),  # 1.5 pi
    ("6.283185307179586", True),           # 2 pi
])
def test_nfe_residuals_inside_the_floor_are_inconclusive(
        tmp_path, capsys, half_length, monotone):
    # depth 2 is empty by the phase bound, so its residual is the quadrature
    # floor; at 1.5 pi depth 1 lies 6.4e-9 (relative) below it, at 2 pi
    # depth 1 is empty too and equals it.  Neither can be told apart.
    code = run(tmp_path, "nfe", "--half-length", half_length)
    capsys.readouterr()
    assert code == 1
    rep = json.loads((tmp_path / "nfe.json").read_text())
    r1, r2 = (row["value"] for row in rep["samples"])
    assert r2 == rep["params"]["quadrature_error"]
    assert abs(r1 - r2) <= 1e-8 * r2
    assert rep["checks"] == {"residual_monotone": monotone,
                             "deepest_below_depth1": "inconclusive"}
    assert rep["verdict"] == "inconclusive"


def test_env_var_default_output_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BOLAB_OUTPUT_DIR", str(tmp_path / "envout"))
    assert main(["params"]) == 0
    capsys.readouterr()
    assert (tmp_path / "envout" / "params.json").exists()


# ---------------------------------------------------------------------------
# one layer decides every verdict
# ---------------------------------------------------------------------------

_VERDICT_CALLS = {"check_fit", "check_order"}
_CHECKS_WRITES = {"update", "setdefault", "pop", "popitem", "clear"}


def _verdicts_decided(source):
    """Places in ``source`` that decide a check: a write to ``.checks`` (an
    item, the attribute or a mutating method), a ``check_fit`` or
    ``check_order`` call, or a use of the name ``EstimateReport``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Subscript, ast.Attribute)) \
                and not isinstance(node.ctx, ast.Load):
            target = node.value if isinstance(node, ast.Subscript) else node
            if isinstance(target, ast.Attribute) and target.attr == "checks":
                found.append(f"line {node.lineno}: writes .checks")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name, owner = node.func.attr, node.func.value
            if name in _VERDICT_CALLS or (
                    name in _CHECKS_WRITES and isinstance(owner, ast.Attribute)
                    and owner.attr == "checks"):
                found.append(f"line {node.lineno}: calls {name}")
        if "EstimateReport" in (getattr(node, "id", None),
                                getattr(node, "attr", None),
                                getattr(node, "name", None)):
            found.append(f"line {node.lineno}: names EstimateReport")
    return found


def test_verdict_detector_finds_each_kind():
    # a scan that finds nothing would pass vacuously
    source = """
from bolab.reports import EstimateReport
rep.checks["a"] = True
rep.checks["b"] += 1
del rep.checks["c"]
rep.checks = {}
rep.checks.update(d=False)
rep.check_fit("e", fit, holds)
rep.check_order("f", pairs, 0.0)
ok = rep.checks["a"] and all(rep.checks.values())
"""
    assert len(_verdicts_decided(source)) == 8


def test_cli_decides_no_verdict():
    # commands build inputs and print; bolab.experiments builds the reports
    # and decides their checks (as test_reachability keeps dead code out)
    source = pathlib.Path(cli.__file__).read_text()
    assert _verdicts_decided(source) == []


# ---------------------------------------------------------------------------
# every refused argument has a config key
# ---------------------------------------------------------------------------

# refused arguments that no command passes from the config: the integrals'
# M and mesh (the sweeps fix them)
_NOT_FROM_CONFIG = {"M", "mesh"}


def _refused_arguments():
    """(names, unresolved) of every ``ArgumentError`` raised in bolab: the
    first argument is a string constant, or a loop variable over a literal
    tuple of tuples that names it, as in ``dynamics.step_count``."""
    names, unresolved = set(), []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        loops = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.For) and isinstance(node.target, ast.Tuple) \
                    and isinstance(node.iter, (ast.Tuple, ast.List)):
                for i, var in enumerate(node.target.elts):
                    loops.setdefault(getattr(var, "id", None), set()).update(
                        item.elts[i].value for item in node.iter.elts
                        if isinstance(item, ast.Tuple)
                        and isinstance(item.elts[i], ast.Constant))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and "ArgumentError" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None))):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant):
                names.add(arg.value)
            elif isinstance(arg, ast.Name) and loops.get(arg.id):
                names |= loops[arg.id]
            else:
                unresolved.append(f"{path.name}:{node.lineno}")
    return names, unresolved


def test_every_refused_argument_has_a_config_key():
    # an ArgumentError whose name is no key of _KEYS exits 3 (numerical
    # failure), not 2 naming the key; a new refusal must not do so quietly
    names, unresolved = _refused_arguments()
    assert unresolved == []
    assert {"T", "dt", "n_points", "u", "traj"} <= names  # the scan reads
    assert names - set(cli._KEYS) == _NOT_FROM_CONFIG
