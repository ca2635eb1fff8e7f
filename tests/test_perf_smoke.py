"""Tier-1 liveness check for the perf benchmark harness.

The real perf gate is opt-in (``-m perf``), so its anchor code could
silently rot between runs. ``run_bench.py --smoke`` runs every anchor
body once at reduced sizes; this test exercises that mode inside tier-1
so a broken anchor fails fast, without timing anything for real and
without touching ``BENCH_perf.json``.
"""

import sys

import pytest

sys.path.insert(0, str(__import__("pathlib").Path(__file__).resolve().parents[1]))

from benchmarks.perf.run_bench import (  # noqa: E402
    DEFAULT_OUTPUT,
    KNOWN_BENCHMARKS,
    run_benchmarks,
)
from repro.experiments.parallel import fork_available  # noqa: E402
from repro.sim.cache import clear_simulation_cache  # noqa: E402


@pytest.mark.skipif(
    not fork_available(),
    reason="the pool-backed anchors need the fork start method",
)
def test_smoke_runs_every_anchor(tmp_path, monkeypatch):
    before = DEFAULT_OUTPUT.read_bytes() if DEFAULT_OUTPUT.exists() else None
    clear_simulation_cache()
    results = run_benchmarks(repeats=1, smoke=True)
    clear_simulation_cache()
    # Every known anchor produced an entry with a positive measurement.
    assert set(results) == set(KNOWN_BENCHMARKS)
    for name, entry in results.items():
        assert entry["after_s"] > 0.0, name
    # The machine-independent gate fields exist and are in range even
    # at smoke sizes (their values are only *gated* in real runs).
    assert results["multicore_event_blocked_300"]["speedup_vs_reference_loop"] > 0
    assert results["dse_warm_cache"]["disk_hit_rate"] >= 0.0
    assert results["figure12_time_to_first_result"]["first_result_fraction"] > 0
    # The batching anchors measured both sides and derived their ratio.
    for name in ("grid_batched_48", "figure12_batched"):
        entry = results[name]
        assert entry["per_cell_s"] > 0.0, name
        assert entry["batched_speedup"] > 0.0, name
    assert results["grid_batched_48"]["cells"] == 48.0
    # The serve anchor measured both sides, and its coalescing rate is
    # a true rate even at smoke sizes.
    serve = results["serve_coalesced_8x"]
    assert serve["serial_s"] > 0.0
    assert 0.0 <= serve["coalesced_hit_rate"] <= 1.0
    assert serve["requests"] > 0.0
    # The cancellation anchor measured both sides; its reclaim share is
    # a true fraction even at smoke sizes.
    reclaim = results["serve_cancel_reclaim"]
    assert reclaim["full_s"] > 0.0
    assert 0.0 <= reclaim["reclaimed_fraction"] <= 1.0
    assert reclaim["cells"] > 0.0
    # The disk-tier anchors measured both sides and derived their
    # ratios.
    delta = results["disk_delta_commit"]
    assert delta["per_entry_s"] > 0.0
    assert delta["delta_commit_speedup"] > 0.0
    assert delta["entries"] > 0.0
    attach = results["disk_index_attach"]
    assert attach["stat_walk_s"] > 0.0
    assert attach["index_attach_speedup"] > 0.0
    assert attach["entries"] > 0.0
    # Smoke mode must not have rewritten the recorded report.
    after = DEFAULT_OUTPUT.read_bytes() if DEFAULT_OUTPUT.exists() else None
    assert before == after


def test_no_batch_env_escape(monkeypatch):
    """REPRO_NO_BATCH must route sweeps per-cell with identical records."""
    from repro.experiments.grid import run_grid
    from repro.experiments.sweepspec import batching_enabled
    from repro.sim.cache import simulation_cache_stats

    monkeypatch.setenv("REPRO_NO_BATCH", "1")
    assert batching_enabled() is False
    clear_simulation_cache()
    escaped = run_grid(tiles=48)
    # The per-cell path never pre-seeds, so every lookup is a cold miss.
    stats = simulation_cache_stats()
    assert (stats.hits, stats.misses) == (0, 48)
    monkeypatch.delenv("REPRO_NO_BATCH")
    assert batching_enabled() is True
    clear_simulation_cache()
    batched = run_grid(tiles=48)
    assert simulation_cache_stats().hits == 48
    assert escaped == batched
    clear_simulation_cache()
