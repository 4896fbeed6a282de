"""Report plumbing for the quantitative experiments.

Every experiment returns an :class:`EstimateReport`: the resolved parameters,
the flat table of sampled values, named power-law fits (each carrying its own
log-log residual), named pass/fail checks, and an overall verdict.  A fit
whose residual exceeds ``RESIDUAL_CAP`` in log-log space is *inconclusive*
and can never support a pass: :meth:`EstimateReport.check_fit` is the one
place that turns a fit into a check, and it enforces that rule.  Likewise
:meth:`EstimateReport.check_order` calls a pair closer than its floor
*inconclusive*.

Reports serialize to JSON (full, self-contained) and CSV (flat samples table
with the fixed column schema: experiment, the union of per-sample parameter
keys, value, fit_exponent, fit_residual, verdict).  Writes are atomic
(temporary file in the target directory, then rename), and byte-identical
for identical inputs: floats are rendered with shortest round-trip repr and
key order is fixed.
"""

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .spectral import atomic_write

__all__ = ["RESIDUAL_CAP", "PowerFit", "fit_power", "overall_verdict",
           "EstimateReport"]

RESIDUAL_CAP = 0.2  # rms log-log residual above which a fit is inconclusive


@dataclass(frozen=True)
class PowerFit:
    """Least-squares power law y ~ exp(intercept) * x^exponent."""

    exponent: float
    intercept: float
    residual: float
    conclusive: bool

    def to_dict(self):
        return {"exponent": self.exponent, "intercept": self.intercept,
                "residual": self.residual, "conclusive": self.conclusive}


def fit_power(xs, ys):
    """Log-log least squares with an rms residual.

    Nonpositive samples cannot be fitted on a log scale, and samples at
    fewer than two distinct x values determine no slope; either way the fit
    comes back inconclusive with NaN exponent rather than raising, so sweeps
    that hit empty windows still produce a (failing-safe) report.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("fit_power needs two equal-length 1-D sample arrays")
    if len(xs) < 2:
        raise ValueError("fit_power needs at least two samples")
    if np.any(xs <= 0) or np.any(ys <= 0) or not np.isfinite([xs, ys]).all() \
            or xs.min() == xs.max():
        return PowerFit(math.nan, math.nan, math.inf, False)
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    rms = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return PowerFit(float(slope), float(intercept), rms, rms <= RESIDUAL_CAP)


def overall_verdict(checks):
    """Combine named checks: any False -> fail; else any 'inconclusive'
    -> inconclusive; else pass.  Empty checks are descriptive-only: pass."""
    vals = list(checks.values())
    if any(v is False for v in vals):
        return "fail"
    if any(v == "inconclusive" for v in vals):
        return "inconclusive"
    return "pass"


def _float_repr(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


@dataclass
class EstimateReport:
    """Self-contained record of one experiment run."""

    experiment: str
    params: dict
    samples: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def verdict(self):
        return overall_verdict(self.checks)

    # -- construction helpers ------------------------------------------------

    def add_sample(self, value, fit=None, **cell):
        row = dict(cell)
        row["value"] = float(value)
        if fit is not None:
            row["fit"] = fit
        self.samples.append(row)

    def fit_samples(self, name, key):
        """Fit value ~ key^p over the samples tagged with ``fit == name``."""
        rows = [r for r in self.samples if r.get("fit") == name]
        self.fits[name] = fit_power([r[key] for r in rows],
                                    [r["value"] for r in rows])
        return self.fits[name]

    def check_fit(self, check, fit, holds):
        """Set ``checks[check]`` to ``holds(fit.exponent)`` for a conclusive
        fit, and to "inconclusive" otherwise, whatever ``holds`` would say."""
        self.checks[check] = (bool(holds(fit.exponent)) if fit.conclusive
                              else "inconclusive")

    def check_order(self, check, pairs, floor, strict=False):
        """Set ``checks[check]`` for b <= a (b < a if ``strict``) on every
        pair (a, b) of the list ``pairs``: False when some b > a + floor, True when every b <= a
        (b < a - floor if ``strict``), and "inconclusive" otherwise."""
        above = any(b > a + floor for a, b in pairs)
        below = all(b < a - floor if strict else b <= a for a, b in pairs)
        self.checks[check] = (False if above else True if below
                              else "inconclusive")

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        return {
            "experiment": self.experiment,
            "params": self.params,
            "samples": self.samples,
            "fits": {k: f.to_dict() for k, f in self.fits.items()},
            "checks": self.checks,
            "notes": self.notes,
            "verdict": self.verdict,
        }

    def summary(self):
        bits = []
        for name, f in sorted(self.fits.items()):
            tag = "" if f.conclusive else " (inconclusive)"
            bits.append(f"{name}={f.exponent:.3f}{tag}")
        for name, v in sorted(self.checks.items()):
            if not isinstance(v, bool):
                bits.append(f"{name}={v}")
        inner = f" [{', '.join(bits)}]" if bits else ""
        return f"{self.experiment}: {self.verdict.upper()}{inner}"

    def json_text(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          allow_nan=True) + "\n"

    def csv_text(self):
        keys = sorted({k for r in self.samples for k in r}
                      - {"value", "fit"})
        cols = ["experiment"] + keys + ["value", "fit_exponent",
                                        "fit_residual", "verdict"]
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(cols)
        verdict = self.verdict
        for r in self.samples:
            f = self.fits.get(r.get("fit"))
            row = [self.experiment]
            row += [_float_repr(r.get(k, "")) for k in keys]
            row.append(_float_repr(r["value"]))
            row.append(_float_repr(f.exponent) if f else "")
            row.append(_float_repr(f.residual) if f else "")
            row.append(verdict)
            w.writerow(row)
        return buf.getvalue()

    def write(self, directory, stem=None):
        """Atomically write <stem>.json and <stem>.csv; returns the paths."""
        stem = stem or self.experiment
        os.makedirs(directory, exist_ok=True)
        paths = []
        for ext, text in ((".json", self.json_text()), (".csv", self.csv_text())):
            path = os.path.join(directory, stem + ext)
            atomic_write(path, text.encode())
            paths.append(path)
        return paths
