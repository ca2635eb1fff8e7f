"""Tests for the regression gate's skip reporting.

CI asserts skip *reasons* (e.g. the 1-CPU parallel-scaling skip) off a
machine-readable JSON line rather than grepping prose.
"""

import json

import pytest

from benchmarks.perf import check_regression


@pytest.fixture()
def report(tmp_path):
    """A minimal recorded report with the parallel-scaling anchor."""
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps({
        "benchmarks": {
            "figure12_sweep_parallel": {
                "after_s": 1.0,
                "parallel_speedup_4w": 2.0,
                "cpu_count": 4.0,
            },
        },
    }))
    return path


def test_skipped_gates_emitted_as_json(report, monkeypatch, capsys):
    recorded = json.loads(report.read_text())["benchmarks"]
    monkeypatch.setattr(check_regression, "run_benchmarks",
                        lambda repeats: recorded)
    monkeypatch.setattr(check_regression.os, "cpu_count", lambda: 1)
    assert check_regression.main(["--report", str(report)]) == 0
    lines = capsys.readouterr().out.splitlines()
    payloads = [line for line in lines if line.startswith("{")]
    assert len(payloads) == 1
    skipped = json.loads(payloads[0])["skipped_gates"]
    assert len(skipped) == 1
    assert "1 CPU" in skipped[0]
    # The human-readable line still prints alongside the JSON record.
    assert any(line.startswith("skipped gate:") for line in lines)


def test_skipped_gates_empty_when_nothing_skipped(report, monkeypatch,
                                                  capsys):
    recorded = json.loads(report.read_text())["benchmarks"]
    monkeypatch.setattr(check_regression, "run_benchmarks",
                        lambda repeats: recorded)
    monkeypatch.setattr(check_regression.os, "cpu_count", lambda: 4)
    assert check_regression.main(["--report", str(report)]) == 0
    lines = capsys.readouterr().out.splitlines()
    payloads = [line for line in lines if line.startswith("{")]
    assert json.loads(payloads[0]) == {"skipped_gates": []}

