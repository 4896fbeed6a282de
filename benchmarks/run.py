"""The bolab benchmark: one workload per process, end-to-end or traced.

    python3 benchmarks/run.py --workload smoothing|lattice|exact-flow \
        --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/bolab``; the package is imported from
there, not from an installed copy.  A run drives ``bolab.cli.main``
in-process with generated config files, one command invocation per
operation, and repeats whole rounds of the workload's operations until
``--seconds`` have passed (at least two rounds, so that reports of the same
seed can be compared byte for byte).  Every operation's outputs are checked
(see ``checks.py``); an operation fails on a nonzero exit code or a failed
check.

``--trace 0`` prints the end-to-end metrics: the median round wall and CPU
time, the median of several timed set-ups in fresh processes, and the peak
resident set.  Round times are taken to a reference machine speed measured
while they run (``speed.py``); the raw times are printed as well.  ``--trace 1``
alternates untraced and traced rounds, prints the per-layer table of the
last traced round, the tracing overhead, and the per-layer metrics (medians
over traced rounds).  The last line of standard output is always the JSON
result; metric names and units come from ``BENCHMARK.json``.
"""

import os
import sys

# single-threaded numerics; must be set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import time
import traceback

import checks
import tracing
from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9
MIN_ROUNDS = 2

# Operations per workload: (command, config overrides).  The seed goes into
# data.seed of every config; commands that read no seed ignore it.
WORKLOADS = {
    # band-system flow on rough data, n = 256/512/1024: the padded FFT pair
    # and rhs_terms_total_coeffs do nearly all the work
    "smoothing": (
        ("smoothing", {"experiment": {"resolutions": [256, 512, 1024]},
                       "time": {"T": 0.03}}),
    ),
    # Python lattice sums: window replays (estimates) and tuple enumeration
    # plus residual quadrature (nfe); transforms only in nfe's integration
    "lattice": (
        ("estimates", {"experiment": {"trials": 1}}),
        ("nfe", {}),
    ),
    # many short exact-gauged and direct integrations at n <= 256, where
    # per-call overhead weighs as much as each transform
    "exact-flow": (
        ("gauge-check", {}),
        ("simulate", {}),
        ("lipschitz", {}),
        ("lemma21", {"time": {"T": 0.05}, "data": {"seed": 42}}),
    ),
}


def op_checks(command, outdir):
    """Command-specific output checks; a list of failure messages."""
    fails = checks.verdicts_pass(outdir)
    if command == "smoothing":
        fails += checks.smoothing_initial_norms(outdir)
    elif command == "estimates":
        fails += checks.quadrature_cell(outdir)
    elif command == "nfe":
        empty_fails, checked = checks.nfe_empty_depths(outdir)
        fails += empty_fails
        if not checked:
            fails.append("nfe: no depth is provably empty at this config")
    elif command == "simulate":
        fails += checks.trajectory_invariants(outdir)
    elif command == "lipschitz":
        fails += checks.lipschitz_starts_at_one(outdir)
    return fails


def library_checks(workload, seed):
    """Checks of program functions against direct sums; run once per run."""
    if workload == "smoothing":
        return checks.band_rhs_direct_sum(seed)
    if workload == "lattice":
        return checks.window_covers_all_phases(seed)
    return []


def _merge(base, over):
    out = dict(base)
    for key, val in over.items():
        out[key] = _merge(out.get(key, {}), val) if isinstance(val, dict) else val
    return out


def write_configs(workload, seed, directory):
    """One config file per operation; returns [(command, path)]."""
    os.makedirs(directory, exist_ok=True)
    ops = []
    for i, (command, overrides) in enumerate(WORKLOADS[workload]):
        cfg = _merge({"command": command, "data": {"seed": seed}}, overrides)
        path = os.path.join(directory, f"{i}-{command}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
        ops.append((command, path))
    return ops


def measure_setup(ops):
    """Median wall time of fresh processes that import bolab and resolve
    the workload's configs.

    Raw seconds: a 0.2-s start-up is mostly loader and file work, which the
    speed probe's kernel does not model, so it is not rescaled.
    """
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC]
    argv += [f"{command}={path}" for command, path in ops]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Runner:
    """Runs rounds of one workload and keeps the operation tallies."""

    def __init__(self, ops, workdir):
        from bolab.cli import main
        self.main = main
        self.ops = ops
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.first_csv = {}
        self.rounds = 0

    def _invoke(self, command, argv, tracer):
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if tracer is None:
                    return self.main(argv), sink
                with tracer.span(f"cli.{command}"):
                    return self.main(argv), sink
        except Exception:  # the benchmark keeps going; the op counts as failed
            return -1, io.StringIO(sink.getvalue() + traceback.format_exc())

    def round(self, tracer=None):
        """One timed round.  Returns its wall and CPU time at reference
        speed, the raw wall and CPU time, and the factor from raw span
        times to reference speed."""
        # fixed-width names: reports embed their output path, so report
        # sizes do not change with the round number
        base = os.path.join(self.workdir, f"round{self.rounds:04d}")
        dirs = [os.path.join(base, f"{i}-{command}")
                for i, (command, _) in enumerate(self.ops)]
        codes = []
        with SpeedProbe() as probe:
            cpu0 = _cpu()
            t0 = time.perf_counter()
            for (command, path), outdir in zip(self.ops, dirs):
                argv = [command, "--config", path, "--output-dir", outdir]
                codes.append(self._invoke(command, argv, tracer))
            wall = time.perf_counter() - t0
            cpu = _cpu() - cpu0
        timing = {"wall": probe.at_reference(wall), "cpu": probe.at_reference(cpu),
                  "raw_wall": wall, "raw_cpu": cpu, "factor": probe.factor(wall)}

        for i, ((command, _), outdir, (rc, log)) in enumerate(
                zip(self.ops, dirs, codes)):
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                tail = log.getvalue().strip().splitlines()[-5:]
                _note(f"{command}: exit code {rc}: " + " | ".join(tail))
                continue
            fails = op_checks(command, outdir)
            now = checks.csv_bytes(outdir)
            fails += checks.same_csv(self.first_csv.setdefault(i, now), now)
            if fails:
                self.failed += 1
                self.correct = False
                for msg in fails:
                    _note(f"{command}: check failed: {msg}")
        shutil.rmtree(base)
        self.rounds += 1
        return timing


def _note(msg):
    print(f"[bench] {msg}", file=sys.stderr, flush=True)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(correct, attempted, failed, values, units):
    """The JSON result; the metric set must equal the declared one."""
    if set(values) != set(units):
        raise SystemExit(
            f"metric names disagree with BENCHMARK.json: extra "
            f"{sorted(set(values) - set(units))}, missing "
            f"{sorted(set(units) - set(values))}")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def end_to_end_metrics(rounds, setup_s, peak_rss_kb):
    return {"wall_ref_s": statistics.median(r["wall"] for r in rounds),
            "setup_s": setup_s,
            "cpu_ref_s": statistics.median(r["cpu"] for r in rounds),
            "peak_rss_mb": peak_rss_kb / 1024.0}


def at_reference(values, units, factor):
    """Per-layer values of one round with times taken to reference speed."""
    scale = {"s": factor, "ms": factor, "us": factor, "1/s": 1.0 / factor}
    return {name: val * scale[units[name]] if units.get(name) in scale else val
            for name, val in values.items()}


def per_layer_values(per_round, plain_walls, traced_walls):
    """Low medians over traced rounds (a value some round had, so counts
    stay whole) plus the tracing overhead in percent."""
    values = {name: statistics.median_low(r[name] for r in per_round)
              for name in per_round[0]}
    base = statistics.median(plain_walls)
    values["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced_walls) - base) / base)
    return values


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_bolab():
    """Import bolab from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "bolab", "cli.py")):
        raise SystemExit(f"no bolab sources under {SRC}; run the benchmark "
                         "from a checkout of the repository")
    sys.path.insert(0, SRC)
    import bolab
    if os.path.dirname(os.path.abspath(bolab.__file__)) != os.path.join(SRC, "bolab"):
        raise SystemExit(f"imported bolab from {bolab.__file__}, not {SRC}")


def main(argv=None):
    args = parse_args(argv)
    import_bolab()
    units = declared_metrics(args.trace)
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid():08d}")
    try:
        ops = write_configs(args.workload, args.seed,
                            os.path.join(workdir, "configs"))
        setup_s = None if args.trace else measure_setup(ops)
        runner = Runner(ops, workdir)
        lib_fails = library_checks(args.workload, args.seed)
        for msg in lib_fails:
            _note(f"library check failed: {msg}")
        runner.correct = not lib_fails
        if args.trace:
            values = traced_rounds(runner, args, units)
        else:
            rounds = []
            start = time.perf_counter()
            while (len(rounds) < MIN_ROUNDS
                   or time.perf_counter() - start < args.seconds):
                rounds.append(runner.round())
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = end_to_end_metrics(rounds, setup_s, peak)
            for key in ("wall", "raw_wall", "raw_cpu"):
                print(f"{args.workload} rounds, {key}: "
                      + " ".join(f"{r[key]:.3f}" for r in rounds) + " s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, val in values.items():
        print(f"{name:<34} {val:>14.6g} {units.get(name, '?')}")
    print(f"operations: {runner.attempted} attempted, {runner.failed} failed"
          f"; outputs correct: {runner.correct}")
    print(result_line(runner.correct, runner.attempted, runner.failed,
                      values, units), flush=True)
    return 0


def traced_rounds(runner, args, units):
    """Alternate untraced and traced rounds; per-layer medians."""
    plain, traced, per_round = [], [], []
    last = None
    start = time.perf_counter()
    while (not plain or not traced
           or time.perf_counter() - start < args.seconds):
        if len(plain) <= len(traced):
            plain.append(runner.round()["wall"])
            continue
        tracer = tracing.Tracer()
        with tracer:
            timing = runner.round(tracer)
        traced.append(timing["wall"])
        table = tracing.SpanTable.of(tracer)
        raw = tracing.layer_metrics(table, tracer.counters)
        per_round.append(at_reference(raw, units, timing["factor"]))
        last = (tracer, table, timing["factor"])
    values = per_layer_values(per_round, plain, traced)
    tracer, table, factor = last
    print(f"raw times of the last traced round (x {factor:.4f} at reference "
          "speed):")
    print(tracing.format_table(table))
    if tracer.missing_hooks:
        print("targets not found (their metrics read 0): "
              + ", ".join(tracer.missing_hooks))
    base = statistics.median(plain)
    print(f"tracing overhead: traced round {statistics.median(traced):.3f} s "
          f"vs untraced {base:.3f} s ({values['trace.overhead_pct']:+.1f}%); "
          f"{len(traced)} traced, {len(plain)} untraced rounds")
    print("round walls, untraced: " + " ".join(f"{w:.3f}" for w in plain)
          + "; traced: " + " ".join(f"{w:.3f}" for w in traced))
    cost = tracing.span_cost()
    spans = len(tracer.start)
    print(f"span cost {1e6 * cost:.2f} us x {spans} spans = "
          f"{cost * spans:.3f} s ({100 * cost * spans / base:.1f}% of the "
          f"untraced round)")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz")
    tracer.save(path)
    print(f"spans of the last traced round: {path}")
    return values


if __name__ == "__main__":
    sys.exit(main())
