"""Tests for the disk tier's persistent index and pack format (v2).

The load-bearing invariants: the manifest is *advisory* — a corrupt,
truncated, stale, or missing index rebuilds from the store and answers
membership identically — and a group-committed pack round-trips
bit-identically to loose per-entry files, in both directions, because
the pack payload *is* the loose pickle. Concurrent pack writers into
one schema directory must never lose or interleave entries.
"""

import os
import threading

import pytest

from repro.sim.cache import (
    clear_simulation_cache,
    configure_simulation_cache_dir,
    results_bit_equal,
    simulation_key,
)
from repro.sim.diskcache import (
    PACK_MIN_ENTRIES,
    DiskCache,
    key_digest,
    schema_fingerprint,
)
from repro.sim.diskindex import (
    INDEX_NAME,
    DiskCacheIndex,
    pack_dir,
    scan_pack,
    write_pack,
)
from repro.sim.pipeline import DRAM_EFFICIENCY, KernelTiming, simulate_tile_stream
from repro.sim.system import hbm_system


@pytest.fixture(autouse=True)
def _memory_only_after():
    yield
    configure_simulation_cache_dir(None)
    clear_simulation_cache()


def _entries(n, tiles=8, tag=100.0):
    """``n`` distinct (key, value) sim entries, cheap to compute."""
    system = hbm_system()
    out = []
    for i in range(n):
        timing = KernelTiming(bytes_per_tile=tag + i, dec_cycles=20.0)
        key = simulation_key(system, timing, tiles, DRAM_EFFICIENCY)
        out.append((key, simulate_tile_stream(system, timing, tiles, use_cache=False)))
    return out


def _store_packed(root, entries):
    disk = DiskCache(root)
    written = disk.store_batch(entries)
    assert written == len(entries)
    assert disk.stats().pack_commits >= 1, "delta did not group-commit"
    return disk


class TestIndexResilience:
    """A damaged manifest degrades to a rebuild, never a wrong answer."""

    @pytest.mark.parametrize("mode", ["garbage", "truncate", "stale"])
    def test_damaged_index_rebuilds_with_identical_answers(
        self, tmp_path, corrupt_cache_index, mode
    ):
        entries = _entries(PACK_MIN_ENTRIES, tag=200.0)
        loose = _entries(2, tag=300.0)
        disk = _store_packed(tmp_path, entries)
        for key, value in loose:
            assert disk.store(key, value)
        keys = [key for key, _ in entries + loose]
        absent = simulation_key(
            hbm_system(),
            KernelTiming(bytes_per_tile=999.0, dec_cycles=20.0),
            8,
            DRAM_EFFICIENCY,
        )
        before = [disk.contains(key) for key in keys] + [disk.contains(absent)]
        assert before == [True] * len(keys) + [False]

        corrupt_cache_index(tmp_path, mode)
        fresh = DiskCache(tmp_path)
        after = [fresh.contains(key) for key in keys] + [fresh.contains(absent)]
        assert after == before
        if mode != "truncate":
            # A truncated manifest only forces a rebuild when packed
            # records were lost; loose records degrade to a stat.
            assert fresh.index.rebuilt
        # The rebuild also restored loads, both formats.
        for key, value in entries + loose:
            assert results_bit_equal(fresh.load(key), value)

    def test_missing_index_rebuilds_from_walk(self, tmp_path):
        entries = _entries(PACK_MIN_ENTRIES, tag=210.0)
        disk = _store_packed(tmp_path, entries)
        (disk.schema_dir / INDEX_NAME).unlink()
        fresh = DiskCache(tmp_path)
        assert fresh.index.rebuilt
        assert all(fresh.contains(key) for key, _ in entries)
        for key, value in entries:
            assert results_bit_equal(fresh.load(key), value)

    def test_torn_manifest_tail_is_not_consumed(self, tmp_path):
        entries = _entries(3, tag=220.0)
        disk = DiskCache(tmp_path)
        for key, value in entries:
            assert disk.store(key, value)
        path = disk.schema_dir / INDEX_NAME
        # Simulate a crashed writer: a record sheared mid-line.
        with open(path, "ab") as handle:
            handle.write(b"E deadbeef")
        fresh = DiskCache(tmp_path)
        assert all(fresh.contains(key) for key, _ in entries)
        # The torn fragment is ignored, and later appends still work.
        extra_key, extra_value = _entries(1, tag=230.0)[0]
        assert fresh.store(extra_key, extra_value)
        assert DiskCache(tmp_path).contains(extra_key)

    def test_delete_record_wins_over_store_record(self, tmp_path):
        index = DiskCacheIndex.attach(tmp_path, schema_fingerprint())
        digest = "ab" * 32
        index.record_store(digest, 10, 1.0)
        assert index.contains(digest)
        index.record_remove(digest)
        assert not index.contains(digest)
        # A second reader replaying the manifest agrees.
        replay = DiskCacheIndex.attach(tmp_path, schema_fingerprint())
        assert not replay.contains(digest)
        assert not replay.rebuilt

    def test_touch_records_advance_recency_across_processes(self, tmp_path):
        index = DiskCacheIndex.attach(tmp_path, schema_fingerprint())
        digest = "cd" * 32
        index.record_store(digest, 10, 1.0)
        index.record_touch(digest, 5000.0)
        replay = DiskCacheIndex.attach(tmp_path, schema_fingerprint())
        assert replay.get(digest).atime == pytest.approx(5000.0)


class TestPackFormat:
    def test_packed_and_loose_loads_are_bit_identical(self, tmp_path):
        entries = _entries(PACK_MIN_ENTRIES, tag=240.0)
        packed = _store_packed(tmp_path / "packed", entries)
        loose = DiskCache(tmp_path / "loose")
        for key, value in entries:
            assert loose.store(key, value)
        assert loose.stats().pack_commits == 0
        for key, value in entries:
            from_pack = packed.load(key)
            from_loose = loose.load(key)
            assert results_bit_equal(from_pack, value)
            assert results_bit_equal(from_loose, value)
            assert results_bit_equal(from_pack, from_loose)

    def test_pack_payload_is_the_loose_pickle(self, tmp_path):
        entries = _entries(PACK_MIN_ENTRIES, tag=250.0)
        disk = _store_packed(tmp_path, entries)
        key, _value = entries[0]
        record = disk.index.get(key_digest(key))
        assert record is not None and record.packed
        loose = DiskCache(tmp_path / "loose")
        assert loose.store(key, entries[0][1])
        from repro.sim.diskindex import read_pack_payload

        payload = read_pack_payload(
            disk.schema_dir, record.pack, record.offset, record.length
        )
        assert payload == loose.entry_path(key).read_bytes()

    def test_small_delta_stays_loose(self, tmp_path):
        entries = _entries(PACK_MIN_ENTRIES - 1, tag=260.0)
        disk = DiskCache(tmp_path)
        assert disk.store_batch(entries) == len(entries)
        assert disk.stats().pack_commits == 0
        assert not list(pack_dir(disk.schema_dir).glob("*.pack"))

    def test_scan_pack_yields_intact_prefix_of_torn_pack(self, tmp_path):
        digests = [f"{i:064x}" for i in range(4)]
        payloads = [(d, os.urandom(64)) for d in digests]
        name, locations = write_pack(tmp_path, payloads)
        path = pack_dir(tmp_path) / name
        assert [d for d, _, _ in scan_pack(path)] == digests
        # Shear the file inside the last record's payload.
        data = path.read_bytes()
        path.write_bytes(data[: locations[-1][1] + 10])
        assert [d for d, _, _ in scan_pack(path)] == digests[:-1]


class TestConcurrentPackWriters:
    def test_two_writers_never_lose_or_interleave_entries(self, tmp_path):
        """Two caches group-committing into one store keep every entry.

        Models two processes (each with its own index handle) racing
        delta commits: pack files are distinct (random names), manifest
        appends are line-granular O_APPEND writes, so a fresh attach
        must see the union and load every entry intact.
        """
        first = _entries(PACK_MIN_ENTRIES, tag=400.0)
        second = _entries(PACK_MIN_ENTRIES, tag=500.0)
        caches = [DiskCache(tmp_path), DiskCache(tmp_path)]
        barrier = threading.Barrier(2)
        failures = []

        def commit(disk, entries):
            try:
                barrier.wait(timeout=10)
                assert disk.store_batch(entries) == len(entries)
            except Exception as error:  # pragma: no cover - diagnostic
                failures.append(error)

        threads = [
            threading.Thread(target=commit, args=(caches[0], first)),
            threading.Thread(target=commit, args=(caches[1], second)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures
        fresh = DiskCache(tmp_path)
        assert fresh.entry_count() == len(first) + len(second)
        for key, value in first + second:
            assert fresh.contains(key)
            assert results_bit_equal(fresh.load(key), value)
