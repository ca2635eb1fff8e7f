"""Tier-1 gate: the recorded perf report obeys the harness's schema.

Runs :mod:`scripts.check_bench_schema` against the checked-in
``BENCH_perf.json`` (a malformed or stale entry would quietly corrupt
the opt-in regression gate) and pins the validator's own behaviour on
synthetic bad documents.
"""

import json
import pathlib
import sys

import pytest

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "scripts"))

import check_bench_schema  # noqa: E402


def _valid_document():
    """A minimal well-formed report covering every known anchor."""
    sys.path.insert(0, str(_REPO_ROOT))
    from benchmarks.perf.run_bench import KNOWN_BENCHMARKS

    benchmarks = {}
    for name in KNOWN_BENCHMARKS:
        entry = {"after_s": 1e-4}
        for field in check_bench_schema.ANCHOR_REQUIRED_FIELDS.get(name, ()):
            entry[field] = 1.0
        benchmarks[name] = entry
    return {
        "schema_version": 1,
        "generated_unix": 1.0,
        "host": {"python": "3", "numpy": "2", "machine": "x"},
        "protocol": "test",
        "benchmarks": benchmarks,
    }


def test_checked_in_report_is_valid():
    report = _REPO_ROOT / "BENCH_perf.json"
    if not report.exists():
        pytest.skip("no BENCH_perf.json recorded in this checkout")
    assert check_bench_schema.validate_report(report) == []


def test_valid_synthetic_document_passes():
    assert check_bench_schema.validate_document(_valid_document()) == []


def test_missing_top_level_key_flagged():
    document = _valid_document()
    del document["protocol"]
    problems = check_bench_schema.validate_document(document)
    assert any("protocol" in p for p in problems)


def test_nan_timing_flagged():
    document = _valid_document()
    document["benchmarks"]["figure12_sweep"]["after_s"] = float("nan")
    problems = check_bench_schema.validate_document(document)
    assert any("non-finite" in p for p in problems)


def test_negative_timing_flagged():
    document = _valid_document()
    document["benchmarks"]["figure12_sweep"]["seed_s"] = -1.0
    problems = check_bench_schema.validate_document(document)
    assert any("negative" in p for p in problems)


def test_zero_after_s_flagged():
    document = _valid_document()
    document["benchmarks"]["figure12_sweep"]["after_s"] = 0.0
    problems = check_bench_schema.validate_document(document)
    assert any("must be positive" in p for p in problems)


def test_unknown_and_missing_anchors_flagged():
    document = _valid_document()
    entry = document["benchmarks"].pop("figure12_sweep")
    document["benchmarks"]["renamed_anchor"] = entry
    problems = check_bench_schema.validate_document(document)
    assert any(p.startswith("renamed_anchor:") for p in problems)
    assert any(p.startswith("figure12_sweep:") for p in problems)


def test_non_numeric_field_flagged():
    document = _valid_document()
    document["benchmarks"]["figure12_sweep"]["after_s"] = "fast"
    problems = check_bench_schema.validate_document(document)
    assert any("must be a number" in p for p in problems)


def test_anchor_specific_required_field_flagged():
    document = _valid_document()
    del document["benchmarks"]["serve_coalesced_8x"]["coalesced_hit_rate"]
    problems = check_bench_schema.validate_document(document)
    assert any(
        "serve_coalesced_8x" in p and "coalesced_hit_rate" in p
        for p in problems
    )


def test_retired_field_flagged():
    document = _valid_document()
    document["benchmarks"]["figure12_sweep"]["before_s"] = 0.04
    problems = check_bench_schema.validate_document(document)
    assert any(
        "figure12_sweep" in p and "retired field 'before_s'" in p
        for p in problems
    )


def test_hit_rate_above_one_flagged():
    document = _valid_document()
    document["benchmarks"]["serve_coalesced_8x"]["coalesced_hit_rate"] = 1.5
    problems = check_bench_schema.validate_document(document)
    assert any("above 1.0" in p for p in problems)


def test_main_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_valid_document()))
    assert check_bench_schema.main([str(good)]) == 0
    bad = tmp_path / "bad.json"
    document = _valid_document()
    document["benchmarks"]["figure12_sweep"]["after_s"] = float("inf")
    bad.write_text(json.dumps(document))
    assert check_bench_schema.main([str(bad)]) == 1
    assert check_bench_schema.main([str(tmp_path / "absent.json")]) == 2
