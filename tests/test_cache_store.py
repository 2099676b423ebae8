"""Tests for the append-only analysis-cache segment store.

Covers the concurrent-writer protocol end-to-end: lock-free multi-writer
appends (including a real ≥4-process stress), incremental reads, the
torn-tail invisibility guarantee, corruption detection vs the explicit
``repair=True`` escape hatch, compaction, and warm-starting an
:class:`AnalysisCache` from a store (damaged segments included).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import struct

import pytest

from repro.analysis.cache import AnalysisCache
from repro.analysis.cache_store import SegmentStore, StoreCorruptionError
from repro.platform.tasks import Task, TaskSet


def _entry(tag, value=1.0):
    """A picklable (key, results) pair; keys are tuples like taskset_key."""
    return ((tag, round(value, 6)), {"task": value})


def _taskset(wcet_high=0.002):
    return TaskSet([
        Task(name="hi", period=0.01, wcet=wcet_high, priority=1),
        Task(name="lo", period=0.05, wcet=0.004, priority=2),
    ])


class TestSegmentStoreBasics:
    def test_creation_is_lazy(self, tmp_path):
        path = tmp_path / "store"
        store = SegmentStore(str(path))
        assert not path.exists()
        assert store.read_entries() == []
        assert store.append([]) == 0
        assert not path.exists()  # empty batch: no frame, no directory
        assert store.append([_entry("a")]) == 1
        assert (path / "MANIFEST.json").is_file()

    def test_append_read_roundtrip(self, tmp_path):
        store = SegmentStore(str(tmp_path / "store"))
        entries = [_entry("a"), _entry("b", 2.0)]
        assert store.append(entries) == 2
        reader = SegmentStore(str(tmp_path / "store"))
        assert sorted(reader.read_entries()) == sorted(entries)

    def test_multiple_writers_share_one_store(self, tmp_path):
        path = str(tmp_path / "store")
        writers = [SegmentStore(path) for _ in range(3)]
        for index, writer in enumerate(writers):
            writer.append([_entry(f"w{index}")])
        assert len(SegmentStore(path).read_entries()) == 3
        # Every writer owns its segment file: no shared-file interleaving.
        assert len(SegmentStore(path).segments()) == 3

    def test_read_new_is_incremental_per_handle(self, tmp_path):
        path = str(tmp_path / "store")
        writer, reader = SegmentStore(path), SegmentStore(path)
        writer.append([_entry("a")])
        assert reader.read_new() == [_entry("a")]
        assert reader.read_new() == []
        writer.append([_entry("b")])
        other = SegmentStore(path)
        assert reader.read_new() == [_entry("b")]
        # A fresh handle still sees everything.
        assert len(other.read_new()) == 2

    def test_entries_survive_writer_close(self, tmp_path):
        path = str(tmp_path / "store")
        with SegmentStore(path) as store:
            store.append([_entry("a")])
        assert SegmentStore(path).read_entries() == [_entry("a")]

    def test_writer_id_rejects_path_separators(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentStore(str(tmp_path), writer_id="../escape")


class TestDurabilityProtocol:
    def test_unindexed_tail_is_invisible(self, tmp_path):
        """Bytes past the indexed durable count — a torn in-flight append —
        are ignored by every reader."""
        path = str(tmp_path / "store")
        store = SegmentStore(path)
        store.append([_entry("acknowledged")])
        segment = store.segments()[0]
        with open(os.path.join(path, segment), "ab") as handle:
            handle.write(b"torn write of a crashed appen")  # no index update
        assert SegmentStore(path).read_entries() == [_entry("acknowledged")]

    def test_next_append_reindexes_the_whole_segment(self, tmp_path):
        """A crash after fsync but before the index rename leaves a durable
        tail that the writer's next successful append makes visible."""
        path = str(tmp_path / "store")
        store = SegmentStore(path)
        store.append([_entry("first")])
        store.append([_entry("second")])
        segment = store.segments()[0]
        index_path = os.path.join(path, f"idx-{store.writer_id}.json")
        full = json.loads(open(index_path, encoding="utf-8").read())
        # Rewind the index to just the first frame — the crash scenario.
        first_frame_end = os.path.getsize(os.path.join(path, segment)) // 2
        with open(os.path.join(path, segment), "rb") as handle:
            header = handle.read(12)
            _, length, _ = struct.unpack("<4sII", header)
            first_frame_end = 12 + length
        with open(index_path, "w", encoding="utf-8") as handle:
            json.dump({"segment": segment, "durable_bytes": first_frame_end},
                      handle)
        assert SegmentStore(path).read_entries() == [_entry("first")]
        store.append([_entry("third")])  # re-indexes the whole segment
        assert sorted(SegmentStore(path).read_entries()) == sorted(
            [_entry("first"), _entry("second"), _entry("third")])

    def test_malformed_index_hides_its_segment(self, tmp_path):
        path = str(tmp_path / "store")
        store = SegmentStore(path)
        store.append([_entry("a")])
        other = SegmentStore(path)
        other.append([_entry("b")])
        index_path = os.path.join(path, f"idx-{other.writer_id}.json")
        with open(index_path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert SegmentStore(path).read_entries() == [_entry("a")]


class TestCorruptionAndRepair:
    @staticmethod
    def _corrupt_first_payload_byte(path, segment):
        segment_path = os.path.join(path, segment)
        with open(segment_path, "r+b") as handle:
            handle.seek(12)  # first payload byte, after the frame header
            byte = handle.read(1)
            handle.seek(12)
            handle.write(bytes([byte[0] ^ 0xFF]))

    def test_corruption_inside_durable_prefix_raises(self, tmp_path):
        path = str(tmp_path / "store")
        store = SegmentStore(path)
        store.append([_entry("a")])
        self._corrupt_first_payload_byte(path, store.segments()[0])
        reader = SegmentStore(path)
        with pytest.raises(StoreCorruptionError, match="CRC mismatch"):
            reader.read_entries()
        with pytest.raises(StoreCorruptionError):
            reader.read_new()

    def test_repair_skips_damaged_segment_and_logs(self, tmp_path, caplog):
        path = str(tmp_path / "store")
        damaged, intact = SegmentStore(path), SegmentStore(path)
        damaged.append([_entry("lost")])
        intact.append([_entry("kept")])
        self._corrupt_first_payload_byte(path, f"seg-{damaged.writer_id}.log")
        reader = SegmentStore(path)
        with caplog.at_level("WARNING", logger="repro.analysis.cache_store"):
            entries = reader.read_entries(repair=True)
        assert entries == [_entry("kept")]
        assert reader.last_repair_skipped == 1
        assert any("repair skipped" in record.message
                   for record in caplog.records)

    def test_repair_keeps_valid_frames_before_the_damage(self, tmp_path):
        path = str(tmp_path / "store")
        store = SegmentStore(path)
        store.append([_entry("good")])
        store.append([_entry("bad")])
        segment = store.segments()[0]
        segment_path = os.path.join(path, segment)
        with open(segment_path, "rb") as handle:
            header = handle.read(12)
            _, length, _ = struct.unpack("<4sII", header)
        with open(segment_path, "r+b") as handle:
            offset = 12 + length + 12  # second frame's first payload byte
            handle.seek(offset)
            byte = handle.read(1)
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))
        reader = SegmentStore(path)
        entries = reader.read_entries(repair=True)
        assert _entry("good") in entries or entries == [_entry("good")]
        assert reader.last_repair_skipped == 1

    def test_foreign_bytes_are_bad_magic(self, tmp_path):
        path = str(tmp_path / "store")
        store = SegmentStore(path)
        store.append([_entry("a")])
        segment = store.segments()[0]
        with open(os.path.join(path, segment), "r+b") as handle:
            handle.write(b"JUNK")
        with pytest.raises(StoreCorruptionError, match="magic"):
            SegmentStore(path).read_entries()


class TestCompaction:
    def test_compact_merges_and_deletes_sources(self, tmp_path):
        path = str(tmp_path / "store")
        writers = [SegmentStore(path) for _ in range(3)]
        for index, writer in enumerate(writers):
            writer.append([_entry(f"w{index}"), _entry("shared")])
            writer.close()
        maintainer = SegmentStore(path)
        kept = maintainer.compact()
        assert kept == 4  # three distinct + one shared key
        assert len(maintainer.segments()) == 1
        assert sorted(SegmentStore(path).read_entries()) == sorted(
            [_entry("w0"), _entry("w1"), _entry("w2"), _entry("shared")])

    def test_compact_empty_store(self, tmp_path):
        assert SegmentStore(str(tmp_path / "store")).compact() == 0

    def test_writer_survives_its_own_compaction(self, tmp_path):
        path = str(tmp_path / "store")
        store = SegmentStore(path)
        store.append([_entry("before")])
        store.compact()
        store.append([_entry("after")])
        assert sorted(SegmentStore(path).read_entries()) == sorted(
            [_entry("before"), _entry("after")])

    def test_read_new_after_compaction_is_idempotent_not_lossy(self, tmp_path):
        path = str(tmp_path / "store")
        writer, reader = SegmentStore(path), SegmentStore(path)
        writer.append([_entry("a")])
        assert reader.read_new() == [_entry("a")]
        SegmentStore(path).compact()
        writer.append([_entry("b")])
        # The compacted segment re-exposes "a": harmless duplicate (merges
        # are idempotent) — what matters is that "b" is not lost.
        fresh = reader.read_new()
        assert _entry("b") in fresh


def _stress_writer(args):
    """Worker of the concurrent-append stress: one process, many batches."""
    path, writer_index, batches, batch_size = args
    store = SegmentStore(path)
    for batch in range(batches):
        store.append([_entry(f"w{writer_index}-b{batch}-i{item}")
                      for item in range(batch_size)])
        # Interleave reads with the other writers' appends: must never
        # raise and never see a torn frame.
        store.read_new()
    store.close()
    return writer_index


class TestConcurrentWriters:
    def test_four_process_append_stress_preserves_every_entry(self, tmp_path):
        path = str(tmp_path / "store")
        processes, batches, batch_size = 4, 6, 5
        with multiprocessing.Pool(processes=processes) as pool:
            finished = pool.map(_stress_writer,
                                [(path, index, batches, batch_size)
                                 for index in range(processes)])
        assert sorted(finished) == list(range(processes))
        entries = SegmentStore(path).read_entries()
        expected = {f"w{writer}-b{batch}-i{item}"
                    for writer in range(processes)
                    for batch in range(batches)
                    for item in range(batch_size)}
        assert {key[0] for key, _ in entries} == expected
        assert len(entries) == len(expected)  # no duplicates, no tearing

    def test_stress_survives_compaction_afterwards(self, tmp_path):
        path = str(tmp_path / "store")
        with multiprocessing.Pool(processes=4) as pool:
            pool.map(_stress_writer, [(path, index, 3, 4)
                                      for index in range(4)])
        maintainer = SegmentStore(path)
        kept = maintainer.compact()
        assert kept == 4 * 3 * 4
        assert len(maintainer.segments()) == 1
        assert len(SegmentStore(path).read_entries()) == kept


class TestCacheStoreIntegration:
    """AnalysisCache warm starts through a store, including its failures."""

    def test_warm_start_from_store_directory(self, tmp_path):
        source = AnalysisCache()
        expected = source.analyse(_taskset())
        store = SegmentStore(str(tmp_path / "store"))
        store.append(source.export_entries())
        warm = AnalysisCache()
        reader = SegmentStore(str(tmp_path / "store"))
        assert warm.merge_entries(reader.read_entries()) == 1
        assert warm.analyse(_taskset()) == expected
        assert (warm.hits, warm.misses) == (1, 0)

    def test_repair_reads_around_damaged_store_segment(self, tmp_path,
                                                       caplog):
        path = str(tmp_path / "store")
        source = AnalysisCache()
        source.analyse(_taskset())
        good, bad = SegmentStore(path), SegmentStore(path)
        good.append(source.export_entries())
        bad.append([_entry("doomed")])
        bad_segment = f"seg-{bad.writer_id}.log"
        with open(os.path.join(path, bad_segment), "r+b") as handle:
            handle.seek(12)
            byte = handle.read(1)
            handle.seek(12)
            handle.write(bytes([byte[0] ^ 0xFF]))
        reader = SegmentStore(path)
        with pytest.raises(StoreCorruptionError):
            reader.read_entries()
        with caplog.at_level("WARNING", logger="repro.analysis.cache_store"):
            entries = reader.read_entries(repair=True)
        assert reader.last_repair_skipped > 0
        assert any("repair skipped" in record.message
                   for record in caplog.records)
        warm = AnalysisCache()
        assert warm.merge_entries(entries) == 1
        assert warm.analyse(_taskset()) == source.analyse(_taskset())
