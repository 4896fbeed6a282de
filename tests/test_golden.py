"""Golden reports: every ``bolab`` command at a light config, byte for byte.

``tests/data/golden/<command>/`` holds the JSON and CSV reports that each
command in ``CASES`` writes.  The test regenerates them into ``tmp_path``
and compares every file byte for byte.  The only thing dropped, on both
sides, is the ``params.config.output_dir`` line of each JSON: it names the
directory the report was written to.  So a refactor that claims "same
reports" proves it here.

Regenerate the goldens from the repository root with

    PYTHONPATH=src python tests/test_golden.py

A change that moves rounding regenerates the goldens and records the
largest change in CHANGES.md.  Print it first, before regenerating, with

    PYTHONPATH=src python tests/test_golden.py --compare

which gives, per command, the largest change of any number between the
committed goldens and a fresh run.  The change is relative, except for the
cancellation-level numbers in ``_ABSOLUTE`` (``nfe``'s ``quadrature_error``
and residual samples, ``gauge-check``'s round-trip and consistency errors),
whose change is absolute.
"""

import contextlib
import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest

import bolab
from bolab.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"

CASES = {
    "params": (),
    "gauge-check": ("--T", "0.05"),
    "simulate": ("--n-points", "128", "--T", "0.1", "--snapshot-every", "20"),
    "estimates": ("--terms", "Q+,C-", "--alpha-list", "64,128,256",
                  "--m-list", "8,16,32", "--trials", "2", "--n-points", "64"),
    "smoothing": ("--resolutions", "256,512", "--T", "0.05"),
    "lipschitz": ("--resolutions", "128", "--T", "0.1"),
    "lemma21": ("--n-points", "128", "--T", "0.02"),
    "nfe": ("--T", "0.01"),
}

# params.config.output_dir: depth 3 of the indent-2, sorted-key report JSON
_OUTPUT_DIR = re.compile(rb'^ {6}"output_dir": .*\n', re.M)


def _reports(command, outdir):
    """{file name: bytes} of the reports one command writes to ``outdir``."""
    assert main([command, *CASES[command], "--output-dir", str(outdir)]) == 0
    out = {}
    for path in sorted(pathlib.Path(outdir).iterdir()):
        if path.suffix == ".csv":
            out[path.name] = path.read_bytes()
        elif path.suffix == ".json":
            text, count = _OUTPUT_DIR.subn(b"", path.read_bytes())
            assert count == 1, f"{path.name}: no params.config.output_dir"
            out[path.name] = text
    return out


@pytest.mark.parametrize("command", sorted(CASES))
def test_reports_match_golden(command, tmp_path, capsys):
    fresh = _reports(command, tmp_path)
    capsys.readouterr()
    golden_dir = GOLDEN / command
    golden = {p.name: p.read_bytes() for p in sorted(golden_dir.iterdir())}
    assert sorted(fresh) == sorted(golden)
    for name, data in golden.items():
        assert fresh[name] == data, f"{command}/{name} differs from golden"


# Runs the nfe golden case and also writes the raw bytes of every remainder
# vector of the residual quadrature, which the reports round away.
_NFE_WITH_REMAINDERS = """
import pathlib, sys
from bolab import cli, nfe
inner, raw = nfe._ibp_trapz, []
def spy(*args):
    out = inner(*args)
    raw.append(out.tobytes())
    return out
nfe._ibp_trapz = spy
code = cli.main(sys.argv[1:])
pathlib.Path("out", "remainders.bin").write_bytes(b"".join(raw))
sys.exit(code)
"""


def test_nfe_reports_do_not_depend_on_blas_threads(tmp_path):
    """The ``nfe`` golden case, run in fresh processes with one and with two
    OpenBLAS threads, writes the same report bytes and the same remainder
    vectors.  A BLAS product (``matmul``, ``einsum(optimize=True)``) in the
    residual quadrature sums in an order that depends on the thread count
    and the core type; the remainder bytes show it even where the reports'
    17 digits do not."""
    src = str(pathlib.Path(bolab.__file__).resolve().parent.parent)
    runs = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        subprocess.run(
            [sys.executable, "-c", _NFE_WITH_REMAINDERS,
             "nfe", *CASES["nfe"], "--output-dir", "out"],
            cwd=cwd, env=env, check=True, capture_output=True)
        runs.append({p.name: p.read_bytes()
                     for p in sorted((cwd / "out").iterdir())})
    assert sorted(runs[0]) == ["nfe.csv", "nfe.json", "remainders.bin"]
    assert runs[0]["remainders.bin"]
    for name in sorted(runs[0]):
        assert runs[0][name] == runs[1][name], f"{name} depends on the thread count"


# Cancellation-level numbers: small differences of large quantities, whose
# relative change says nothing.  Keyed by command, a test of (record, key):
# the record is the JSON object or the CSV row that holds the number.
_ABSOLUTE = {
    "nfe": lambda rec, key: key == "quadrature_error" or (
        key == "value" and rec.get("kind") == "residual"),
    "gauge-check": lambda rec, key: key == "value" and rec.get("kind") in (
        "round_trip_rel_error", "consistency_error"),
}


def _numbers(name, data):
    """{label: (record, key, value)} of every leaf of one report file: value
    is a float for a number and the text otherwise, record the JSON object
    or CSV row that holds it."""
    out = {}

    def walk(node, label, record, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{label}.{k}", node, k)
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{label}[{i}]", record, key)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out[label] = (record, key, float(node))
        else:
            out[label] = (record, key, repr(node))

    if name.endswith(".json"):
        walk(json.loads(data), name, {}, None)
        return out
    for i, row in enumerate(csv.DictReader(io.StringIO(data.decode()))):
        for key, text in row.items():
            try:
                value = float(text)
            except ValueError:
                value = text
            out[f"{name} row {i} {key}"] = (row, key, value)
    return out


def compare():
    """Print each command's largest change between the committed goldens
    and a fresh run.  Returns 1 if a report changed in anything but the
    value of a number, else 0."""
    status = 0
    for command in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                fresh = _reports(command, tmp)
        golden = {p.name: p.read_bytes()
                  for p in sorted((GOLDEN / command).iterdir())}
        if fresh == golden:
            print(f"{command}: byte-identical")
            continue
        absolute = _ABSOLUTE.get(command, lambda rec, key: False)
        worst = {"relative": (0.0, None), "absolute": (0.0, None)}
        if sorted(fresh) != sorted(golden):
            print(f"{command}: files {sorted(golden)} -> {sorted(fresh)}")
            status = 1
        for name in sorted(set(fresh) & set(golden)):
            old, new = _numbers(name, golden[name]), _numbers(name, fresh[name])
            for label in sorted(set(old) | set(new)):
                rec, key, a = old.get(label, (None, None, None))
                b = new.get(label, (None, None, None))[2]
                if not (isinstance(a, float) and isinstance(b, float)):
                    if a != b:
                        print(f"{command}: {label}: {a!r} -> {b!r}")
                        status = 1
                    continue
                if absolute(rec, key):
                    kind, change = "absolute", abs(a - b)
                else:
                    kind = "relative"
                    change = abs(a - b) / max(abs(a), abs(b), 1e-300)
                if change > worst[kind][0]:
                    worst[kind] = (change, label)
        parts = [f"largest {kind} change {change:.2g} at {label}"
                 for kind, (change, label) in worst.items() if label]
        print(f"{command}: " + ("; ".join(parts) or "numbers unchanged"))
    return status


def regenerate():
    for command in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            reports = _reports(command, tmp)
        target = GOLDEN / command
        target.mkdir(parents=True, exist_ok=True)
        for stale in target.iterdir():
            stale.unlink()
        for name, data in reports.items():
            (target / name).write_bytes(data)


if __name__ == "__main__":
    if sys.argv[1:] == ["--compare"]:
        sys.exit(compare())
    regenerate()
