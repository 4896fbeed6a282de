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
largest change in CHANGES.md.  The change is measured as relative, except
for ``nfe``'s ``quadrature_error`` (and its depth-0 sample), which is a
cancellation-level number and is measured as absolute.
"""

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
    regenerate()
