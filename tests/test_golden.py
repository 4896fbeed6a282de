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

import pathlib
import re
import tempfile

import pytest

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
