"""Report plumbing: power fits, verdict logic, atomic serialization."""

import json
import os
import warnings

import numpy as np
import pytest

from bolab.reports import (
    EstimateReport,
    PowerFit,
    fit_power,
    overall_verdict,
)


def report_from_dict(d):
    """The report that a written JSON describes (no command reads one back)."""
    return EstimateReport(d["experiment"], d["params"], list(d["samples"]),
                          {k: PowerFit(**f) for k, f in d["fits"].items()},
                          dict(d["checks"]), list(d["notes"]))


def test_fit_power_exact_law():
    xs = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    ys = 3.2 * xs ** 1.7
    f = fit_power(xs, ys)
    assert f.exponent == pytest.approx(1.7, abs=1e-12)
    assert f.intercept == pytest.approx(np.log(3.2), abs=1e-12)
    assert f.residual < 1e-12
    assert f.conclusive


def test_fit_power_noise_and_residual():
    rng = np.random.default_rng(0)
    xs = np.geomspace(1.0, 100.0, 20)
    ys = 5.0 * xs ** -0.8 * np.exp(rng.normal(0.0, 0.05, 20))
    f = fit_power(xs, ys)
    assert f.exponent == pytest.approx(-0.8, abs=0.1)
    assert 0 < f.residual < 0.2
    assert f.conclusive


def test_fit_power_inconclusive_cases():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    wild = np.array([1.0, 100.0, 1.0, 100.0])
    f = fit_power(xs, wild)
    assert f.residual > 0.2
    assert not f.conclusive

    with_zero = np.array([1.0, 0.0, 2.0, 3.0])
    f = fit_power(xs, with_zero)
    assert np.isnan(f.exponent)
    assert not f.conclusive

    # one distinct abscissa determines no slope: no RankWarning, no fit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xs in ([0.1, 0.1], [0.1, 0.1, 0.1]):
            f = fit_power(xs, np.linspace(0.02, 0.03, len(xs)))
            assert np.isnan(f.exponent) and not f.conclusive

    with pytest.raises(ValueError, match="two samples"):
        fit_power([1.0], [1.0])
    with pytest.raises(ValueError, match="equal-length"):
        fit_power([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("rms, conclusive", [(0.199, True), (0.201, False)])
def test_fit_power_residual_cap_is_0_2(rms, conclusive):
    # log-log residuals c (1, -2, 1) are orthogonal to the fitted line, so
    # the rms residual is c sqrt(2) exactly: just inside and just outside
    lx = np.array([0.0, 1.0, 2.0])
    ly = 0.5 + 1.5 * lx + rms / np.sqrt(2.0) * np.array([1.0, -2.0, 1.0])
    f = fit_power(np.exp(lx), np.exp(ly))
    assert f.residual == pytest.approx(rms, rel=1e-9)
    assert f.exponent == pytest.approx(1.5, abs=1e-9)
    assert f.conclusive is conclusive


def test_overall_verdict():
    assert overall_verdict({"a": True, "b": True}) == "pass"
    assert overall_verdict({"a": True, "b": False}) == "fail"
    assert overall_verdict({"a": True, "b": "inconclusive"}) == "inconclusive"
    assert overall_verdict({"a": False, "b": "inconclusive"}) == "fail"
    assert overall_verdict({}) == "pass"


def _small_report():
    rep = EstimateReport("demo", {"seed": 3, "s": 0.5})
    for M in [2.0, 4.0, 8.0]:
        rep.add_sample(0.7 * M ** 1.1, fit="m_sweep", M=M, alpha=0.0)
    rep.fit_samples("m_sweep", "M")
    rep.checks["m_exponent_ok"] = rep.fits["m_sweep"].exponent <= 1.15
    return rep


def test_check_fit_inconclusive_fit_never_passes():
    rep = EstimateReport("demo", params={})
    rep.check_fit("loose", PowerFit(1.0, 0.0, 0.5, False), lambda p: True)
    assert rep.checks["loose"] == "inconclusive"
    assert rep.verdict == "inconclusive"
    good = PowerFit(1.0, 0.0, 0.01, True)
    rep.check_fit("le_one", good, lambda p: p <= 1.0)
    rep.check_fit("lt_one", good, lambda p: p < 1.0)
    assert rep.checks["le_one"] is True and rep.checks["lt_one"] is False
    assert rep.verdict == "fail"


@pytest.mark.parametrize("a, b, strict, want", [
    (1.0, 1.0, False, True),            # equal: still ordered
    (1.0, 0.5, False, True),
    (1.0, 1.0 + 1e-3, False, "inconclusive"),
    (1.0, 1.0 + 1e-2, False, "inconclusive"),   # on the band edge
    (1.0, 1.0 + 2e-2, False, False),
    (1.0, 1.0, True, "inconclusive"),    # equal: not strictly below
    (1.0, 1.0 - 1e-2, True, "inconclusive"),    # on the band edge
    (1.0, 1.0 - 2e-2, True, True),
    (1.0, 1.0 + 2e-2, True, False),
])
def test_check_order_pair(a, b, strict, want):
    # floor 1e-2: b within it of a is not told apart from a
    rep = EstimateReport("demo", params={})
    rep.check_order("c", [(a, b)], 1e-2, strict=strict)
    got = rep.checks["c"]
    assert got == want and type(got) is type(want)


def test_check_order_combines_pairs():
    rep = EstimateReport("demo", params={})
    rep.check_order("ok", [(3.0, 2.0), (2.0, 2.0)], 0.1)
    rep.check_order("tie", [(3.0, 2.0), (2.0, 2.05)], 0.1)
    rep.check_order("bad", [(3.0, 3.05), (2.0, 2.5)], 0.1)
    rep.check_order("none", [], 0.1)
    assert rep.checks == {"ok": True, "tie": "inconclusive", "bad": False,
                          "none": True}
    assert rep.verdict == "fail"
    # a zero floor is the plain comparison, equality aside when strict
    rep.check_order("plain", [(1.0, 1.0 + 1e-15)], 0.0)
    rep.check_order("nan", [(1.0, float("nan"))], 0.1)
    assert rep.checks["plain"] is False and rep.checks["nan"] == "inconclusive"


def test_report_verdict_and_summary():
    rep = _small_report()
    assert rep.verdict == "pass"
    assert "demo: PASS" in rep.summary()
    assert "m_sweep=1.100" in rep.summary()

    rep.checks["other"] = False
    assert rep.verdict == "fail"

    rep.checks["other"] = "inconclusive"
    assert rep.verdict == "inconclusive"


def test_report_roundtrip_and_schema(tmp_path):
    rep = _small_report()
    jpath, cpath = rep.write(tmp_path, stem="demo")
    assert os.path.basename(jpath) == "demo.json"

    loaded = report_from_dict(json.loads(open(jpath).read()))
    assert loaded.verdict == rep.verdict
    assert loaded.summary() == rep.summary()
    assert loaded.fits["m_sweep"].exponent == rep.fits["m_sweep"].exponent
    assert loaded.samples == rep.samples

    lines = open(cpath).read().splitlines()
    assert lines[0] == "experiment,M,alpha,value,fit_exponent,fit_residual,verdict"
    assert len(lines) == 1 + 3
    first = lines[1].split(",")
    assert first[0] == "demo"
    assert float(first[1]) == 2.0
    assert first[-1] == "pass"

    # no temporary droppings, and rewrites are byte-identical
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    before = open(cpath, "rb").read() + open(jpath, "rb").read()
    rep.write(tmp_path, stem="demo")
    after = open(cpath, "rb").read() + open(jpath, "rb").read()
    assert before == after


def test_csv_handles_heterogeneous_cells(tmp_path):
    rep = EstimateReport("mixed", {})
    rep.add_sample(1.0, fit="a", M=2.0)
    rep.add_sample(2.0, N=512)  # un-fitted descriptive sample
    rep.fits["a"] = PowerFit(1.0, 0.0, 0.0, True)
    text = rep.csv_text()
    lines = text.splitlines()
    assert lines[0] == "experiment,M,N,value,fit_exponent,fit_residual,verdict"
    assert lines[2].split(",")[4] == ""  # no fit attached to the second row
