"""Self-test of the benchmark's tracer and metric names.

    python -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check_counts, read_report_rows  # noqa: E402

from ardlab import models, ode, stages  # noqa: E402


@pytest.fixture
def tracer():
    with Tracer(run_id="test") as t:
        yield t


def _metrics(t: Tracer) -> dict:
    spans = [{"name": n, "start": s, "end": e, "parent": p, "attrs": a or {}}
             for n, s, e, p, a in t.spans]
    return layer_metrics(spans, 1.0, 1.0, t.distinct_rows())


def test_heun_integrate_counts_fifteen_field_evaluations(tracer):
    x = np.ones((3, 2))
    ode.integrate(lambda x, t: -x, x, 1.0, 0.0, steps=8, method="heun")
    m = _metrics(tracer)
    assert m["ode.integrate.calls"] == 1
    assert m["ode.integrate.steps"] == 8
    # seven Heun steps of two evaluations, then the one-evaluation endpoint rule
    assert m["ode.field.calls"] == 15
    assert m["ode.field.rows"] == 15 * 3


def test_featurize_reports_rows_times_features(tracer):
    spec = models.FeatureSpec(m=64, chunk_dim=1, prefix_dim=1, seed=3)
    rng = np.random.default_rng(0)
    chunk, prefix = rng.standard_normal((10, 1)), rng.standard_normal((10, 1))
    models.featurize(spec, chunk, prefix, 0.5)
    models.featurize(spec, chunk, prefix, 0.5)
    m = _metrics(tracer)
    assert m["models.featurize.calls"] == 2
    assert m["models.featurize.rows"] == 20
    assert m["models.featurize.cells"] == 20 * 64
    # the second call featurized the same ten rows again
    assert m["models.featurize.distinct_row_ratio"] == pytest.approx(0.5)


def test_tracing_rebinds_imported_names_and_keeps_results():
    spec = models.FeatureSpec(m=16, chunk_dim=1, prefix_dim=0, seed=1)
    original = models.featurize
    plain = models.featurize(spec, np.ones((4, 1)), None, 0.3)
    with Tracer(run_id="test") as t:
        assert stages.featurize is models.featurize is not original
        assert stages.integrate is ode.integrate
        traced = stages.featurize(spec, np.ones((4, 1)), None, 0.3)
        assert t.spans[0][0] == "models.featurize"
    assert models.featurize is original and stages.featurize is original
    np.testing.assert_array_equal(plain, traced)


def test_self_time_excludes_child_spans():
    spans = [
        {"name": "stages.ode_distill", "start": 0.0, "end": 10.0, "parent": None,
         "attrs": {}},
        {"name": "models.featurize", "start": 1.0, "end": 7.0, "parent": 0,
         "attrs": {"rows": 5, "cells": 50}},
        {"name": "trace.bookkeeping", "start": 7.0, "end": 8.0, "parent": 0,
         "attrs": {}},
    ]
    m = layer_metrics(spans, 12.0, 11.5, 5)
    assert m["stages.ode_distill.self_s"] == pytest.approx(3.0)
    assert m["models.featurize.s"] == pytest.approx(6.0)
    assert m["trace.unattributed_s"] == pytest.approx(2.0)
    assert m["trace.overhead_s"] == pytest.approx(0.5)


class _FakeRunner:
    """Stands in for child processes: returns canned results, one per run,
    each workload run taking 2 s."""

    def __init__(self, digests=("ab",)):
        self.digests = list(digests)
        self.runs = 0

    def run(self, *, trace=False, setup_only=False):
        if setup_only:
            return {"setup_s": 0.1}
        self.runs += 1
        digest = self.digests[min(self.runs, len(self.digests)) - 1]
        result = {"setup_s": 0.1, "wall_s": 2.0, "cpu_s": 3.0, "peak_rss_mb": 50.0,
                  "worker_peak_rss_mb": 0.0,
                  "digests": {"p": {"report.csv": digest}}, "oracle_gap": 0.02,
                  "checks_evaluated": 4, "checks_failed": 1,
                  "failed_checks": ["p:x"], "problems": []}
        if trace:
            result.update(spans=[], distinct_rows=0)
        return result


def test_emitted_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    _, problems, metrics, units = run.timed(_FakeRunner(), seconds=1)
    assert not problems
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(units.items())
    assert set(metrics) == set(units)
    _, problems, metrics, units = run.traced(_FakeRunner())
    assert not problems
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(units.items())
    assert set(metrics) == set(units) == {name for name, _ in run.PER_LAYER}
    assert metrics["check_fail_ratio"] == pytest.approx(0.25)


def test_repeats_with_different_artifacts_are_incorrect():
    _, problems, _, _ = run.timed(_FakeRunner(digests=("ab", "cd")), 4)
    assert problems == ["repeat 2 wrote different p/report.csv"]
    _, problems, _, _ = run.traced(_FakeRunner(digests=("ab", "cd")))
    assert problems == ["traced run wrote different p/report.csv"]


def test_non_finite_report_value_makes_the_result_incorrect(tmp_path):
    report = tmp_path / "p" / "report.csv"
    report.parent.mkdir()
    report.write_text("report,metric,value\nchecks,ok,1\nkl,expected_kl,nan\n")
    rows, problems = read_report_rows(report)
    assert problems == ["p: non-finite kl.expected_kl"]
    assert check_counts(rows) == (1, 0)

    class _NanRunner(_FakeRunner):
        def run(self, *, trace=False, setup_only=False):
            result = super().run(trace=trace, setup_only=setup_only)
            if not setup_only:
                result.update(problems=problems, oracle_gap=float("nan"))
            return result

    _, found, metrics, _ = run.timed(_NanRunner(), 1)
    assert found == problems + ["a report has no checks or a non-finite oracle gap"]
    assert metrics["wall_s"] == 2.0
