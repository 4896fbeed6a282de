"""Every config key of `cli._SPEC` against a table of bad values.

Each key takes the bad values of its flag type (`BAD_VALUES`), on each of
the eight commands at the light configs of the golden reports
(`test_golden.CASES`): 96 values, 768 runs, about a minute on one core.
A run must end within `BUDGET_S` with an exit in {0, 1, 2, 3} and no
exception escaping `cli.main`.  Exit 2 names a `_SPEC` row, as
"config error: <key>: " (or, for a value argparse cannot parse, as
"argument <flag>: ") and leaves no report directory.  A case that fails
is mended where its value is refused: the library function that owns the
argument, or `cli` for the form of a value.  None is skipped.

Tier-1 runs one bad value per key (`test_cli.test_one_bad_value_per_key`).
The full table runs on its own; pytest collects this file only when it is
named:

    PYTHONPATH=src python -m pytest -q tests/refusal_table.py
"""

import re
import signal

import pytest

from bolab import cli
from bolab.cli import main
from test_golden import CASES

# seconds a run may take; the slowest case of the table takes about 1 s
BUDGET_S = 30.0

_LIST = ("", "nan", "-1", "0", "inf")
BAD_VALUES = {float: ("0", "-1", "nan", "inf", "1e-300"), int: ("0", "-1", "3"),
              cli._ints: _LIST, cli._floats: _LIST, cli._names: _LIST,
              cli.DATA_KINDS: ("bogus",)}
# the flag of each key the table covers (all but output_dir), and its values
FLAGS = {path: flag for path, ftype, _, flag, _ in cli._SPEC if ftype is not str}
TABLE = [(path, value) for path, ftype, _, _, _ in cli._SPEC if path in FLAGS
         for value in BAD_VALUES[ftype]]


class OverBudget(BaseException):
    """Raised in a run past its budget; not an Exception, so `cli.main`
    lets it through."""


def _over_budget(signum, frame):
    raise OverBudget


def check_bad_value(tmp_path, capsys, command, path, value):
    """Run ``command`` at its golden config with the key ``path`` set to
    ``value`` on the command line, and check its exit as the module
    docstring states."""
    outdir = tmp_path / "reports"
    argv = [command, *CASES[command], FLAGS[path], value, "--output-dir", str(outdir)]
    previous = signal.signal(signal.SIGALRM, _over_budget)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        code = main(argv)
    except OverBudget:
        pytest.fail(f"bolab {' '.join(argv)}: over its {BUDGET_S:g}-s budget")
    except Exception as e:
        pytest.fail(f"bolab {' '.join(argv)}: {type(e).__name__} escaped: {e}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code == 2:
        named = (re.match(r"config error: ([\w.]+): ", err)
                 or re.search(r"error: argument (--[\w-]+): ", err))
        assert named and named[1] in {*FLAGS, *FLAGS.values()}, (argv, err)
        assert not outdir.exists(), argv


def case_id(value):
    return value or "empty"


@pytest.mark.parametrize("command", CASES)
@pytest.mark.parametrize("path, value", TABLE, ids=case_id)
def test_bad_value(tmp_path, capsys, command, path, value):
    check_bad_value(tmp_path, capsys, command, path, value)
