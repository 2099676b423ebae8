"""Append-only segment store: the analysis cache under concurrent writers.

A campaign (``Campaign(cache_store=...)``) persists its
:class:`~repro.analysis.cache.AnalysisCache` entries here so that whole
re-runs, resumed campaigns and the admission service's tenants reuse
previously derived busy-window analyses.  It is the repository's one
durable cache medium.  Several campaigns may write one store at the same
time, so a whole-file rewrite (last writer wins) will not do; a
:class:`SegmentStore` appends instead:

File layout (one store = one directory)
---------------------------------------
``MANIFEST.json``
    Store format marker, written atomically once at creation.
``seg-<writer>.log``
    One append-only segment file **per writer**.  A writer id embeds the
    pid plus a random token, so no two writer instances ever share a file —
    appends need no locks.  A segment is a sequence of *frames*; each frame
    is ``RSEG | payload-length | crc32 | pickled entry batch``.
``idx-<writer>.json``
    The writer's fsync'd index: the number of segment bytes that are
    *durable* (fully written and fsync'd).  Replaced atomically after every
    append, so readers never parse a frame that is still in flight.

Writer protocol
---------------
1. Build all frames of the batch in memory.
2. Append them to the writer's own segment file with a single ``write``,
   flush, ``fsync``.
3. Atomically replace the writer's index file with the new durable byte
   count (temp file + ``fsync`` + ``rename``).

A crash between (2) and (3) leaves a durable-but-unindexed tail: readers
ignore it (the entries were never acknowledged), and the writer's *next*
successful append re-indexes the whole segment, making the tail visible —
entries are content-addressed, so late visibility is always sound.

Readers are lock-free: they list the index files, read each segment's
durable prefix and CRC-check every frame.  A CRC or framing failure inside
the durable prefix is *real corruption* (bit rot, a torn disk, a foreign
file) and raises :class:`StoreCorruptionError` — unless ``repair=True``,
which skips the rest of the damaged segment and logs how much was dropped.

``compact()`` folds all durable segments into one fresh segment (duplicate
keys collapse — entries are content-addressed, so any copy is the right
one) and deletes the folded sources.  Compaction only touches segments that
were durable when it started: concurrent writers keep appending to their
own files, and readers that race a compaction simply re-read the surviving
(compacted) copy — :meth:`AnalysisCache.merge_entries` is idempotent.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import struct
import tempfile
import uuid
import zlib
from typing import Dict, Iterable, List, Optional, Tuple

logger = logging.getLogger(__name__)

#: Frame header: magic, payload length, crc32 of the payload.
_FRAME_HEADER = struct.Struct("<4sII")
_FRAME_MAGIC = b"RSEG"

_MANIFEST_NAME = "MANIFEST.json"
_STORE_FORMAT = 1

#: One persisted cache entry: ``(taskset_key, per-task results)`` — the
#: same shape :meth:`AnalysisCache.export_entries` produces.
StoredEntry = Tuple[Tuple, Dict[str, object]]


class StoreCorruptionError(ValueError):
    """A segment's durable prefix failed frame/CRC validation.

    Raised by the read paths when a store holds data that was acknowledged
    as durable but no longer parses — as opposed to a torn in-flight append,
    which is invisible by protocol (the index only ever points at fsync'd
    bytes).  Pass ``repair=True`` to skip damaged segments instead.
    """


def _atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via temp file + fsync + atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


class SegmentStore:
    """One writer handle plus lock-free reader over a store directory.

    Creating the instance is cheap and does not touch the disk; the
    directory, manifest and this writer's segment appear on the first
    :meth:`append`.  A single instance must not be shared across processes
    (each process opens its own — that is the whole point); within one
    process it is as thread-safe as the caller's serialization.
    """

    def __init__(self, path: str, writer_id: Optional[str] = None) -> None:
        self.path = os.path.abspath(path)
        self.writer_id = writer_id if writer_id is not None else \
            f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        if "/" in self.writer_id or "\\" in self.writer_id:
            raise ValueError("writer_id must not contain path separators")
        self._segment_name = f"seg-{self.writer_id}.log"
        self._handle = None
        self._durable_bytes = 0
        #: Per-segment bytes already consumed by :meth:`read_new`.
        self._read_offsets: Dict[str, int] = {}
        #: Segments skipped by the last ``repair=True`` read (for tests/logs).
        self.last_repair_skipped = 0

    # -- paths -------------------------------------------------------------

    def _segment_path(self, segment_name: str) -> str:
        return os.path.join(self.path, segment_name)

    def _index_path(self, segment_name: str) -> str:
        writer = segment_name[len("seg-"):-len(".log")]
        return os.path.join(self.path, f"idx-{writer}.json")

    def _ensure_store(self) -> None:
        os.makedirs(self.path, exist_ok=True)
        manifest = os.path.join(self.path, _MANIFEST_NAME)
        if not os.path.exists(manifest):
            _atomic_write(manifest, json.dumps(
                {"format": _STORE_FORMAT, "kind": "analysis-cache-segments"},
                sort_keys=True).encode("utf-8"))

    # -- writer ------------------------------------------------------------

    def append(self, entries: Iterable[StoredEntry]) -> int:
        """Durably append one batch of entries as a single frame.

        Returns the number of entries appended (0 for an empty batch — no
        frame, no fsync).  The entries are readable by every other store
        handle as soon as this method returns.
        """
        batch = list(entries)
        if not batch:
            return 0
        self._ensure_store()
        payload = pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL)
        frame = _FRAME_HEADER.pack(_FRAME_MAGIC, len(payload),
                                   zlib.crc32(payload)) + payload
        if self._handle is not None and not os.path.exists(
                self._segment_path(self._segment_name)):
            # Another handle compacted our segment away (its entries live on
            # in the compacted copy); writing on through the unlinked inode
            # would acknowledge entries no reader can ever see.  Roll to a
            # fresh segment instead.
            self.close()
            self._segment_name = \
                f"seg-{self.writer_id}-{uuid.uuid4().hex[:8]}.log"
        if self._handle is None:
            self._handle = open(self._segment_path(self._segment_name), "ab")
            self._durable_bytes = self._handle.tell()
        self._handle.write(frame)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._durable_bytes = self._handle.tell()
        _atomic_write(self._index_path(self._segment_name), json.dumps(
            {"segment": self._segment_name,
             "durable_bytes": self._durable_bytes},
            sort_keys=True).encode("utf-8"))
        return len(batch)

    def close(self) -> None:
        """Close this writer's segment handle (the store stays readable)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SegmentStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- reader ------------------------------------------------------------

    def _durable_segments(self) -> List[Tuple[str, int]]:
        """``(segment_name, durable_bytes)`` for every indexed segment,
        sorted by name for deterministic merge order."""
        if not os.path.isdir(self.path):
            return []
        segments: List[Tuple[str, int]] = []
        for name in sorted(os.listdir(self.path)):
            if not (name.startswith("idx-") and name.endswith(".json")):
                continue
            try:
                with open(os.path.join(self.path, name), "r",
                          encoding="utf-8") as stream:
                    index = json.load(stream)
                segment = index["segment"]
                durable = int(index["durable_bytes"])
            except (OSError, ValueError, KeyError, TypeError):
                # A torn index replacement cannot happen (atomic rename); a
                # malformed index file is foreign/corrupt and has no durable
                # claim to make — its segment is simply not visible.
                continue
            segments.append((segment, durable))
        return segments

    def _read_segment(self, segment_name: str, start: int, durable: int,
                      repair: bool) -> Tuple[List[StoredEntry], int]:
        """Entries in ``[start, durable)`` of one segment, plus the offset
        actually consumed (== ``durable`` unless a repair skipped the tail).
        """
        entries: List[StoredEntry] = []
        try:
            stream = open(self._segment_path(segment_name), "rb")
        except FileNotFoundError:
            # Compacted away between listing and reading; its entries live
            # on in the compacted segment.
            return entries, start
        with stream:
            stream.seek(start)
            offset = start
            while offset < durable:
                failure = None
                header = stream.read(_FRAME_HEADER.size)
                if len(header) < _FRAME_HEADER.size \
                        or offset + _FRAME_HEADER.size > durable:
                    failure = "truncated frame header inside durable prefix"
                else:
                    magic, length, crc = _FRAME_HEADER.unpack(header)
                    if magic != _FRAME_MAGIC:
                        failure = f"bad frame magic {magic!r}"
                    elif offset + _FRAME_HEADER.size + length > durable:
                        failure = "frame extends beyond durable prefix"
                    else:
                        payload = stream.read(length)
                        if len(payload) < length:
                            failure = "truncated frame payload"
                        elif zlib.crc32(payload) != crc:
                            failure = "frame CRC mismatch"
                if failure is not None:
                    message = (f"segment {segment_name!r} of store "
                               f"{self.path!r} is corrupt at byte {offset}: "
                               f"{failure}")
                    if not repair:
                        raise StoreCorruptionError(message)
                    self.last_repair_skipped += 1
                    logger.warning("%s — repair skipped the remaining %d "
                                   "durable bytes of this segment",
                                   message, durable - offset)
                    return entries, durable
                entries.extend(pickle.loads(payload))
                offset += _FRAME_HEADER.size + length
        return entries, durable

    def read_entries(self, repair: bool = False) -> List[StoredEntry]:
        """Every durable entry of the store, in deterministic segment order.

        With ``repair=True`` damaged segments contribute their valid prefix
        and the skip is logged (and counted in :attr:`last_repair_skipped`);
        without it, corruption raises :class:`StoreCorruptionError`.
        """
        self.last_repair_skipped = 0
        entries: List[StoredEntry] = []
        for segment, durable in self._durable_segments():
            segment_entries, _ = self._read_segment(segment, 0, durable,
                                                    repair)
            entries.extend(segment_entries)
        return entries

    def read_new(self, repair: bool = False) -> List[StoredEntry]:
        """Entries appended (by any writer) since this handle last read.

        The incremental complement of :meth:`read_entries`: per-segment
        byte offsets persist on the handle, so a long-lived reader absorbs
        only what other writers published since its last read.  A
        compaction makes the folded entries reappear under the compacted
        segment's name — re-reading them is harmless because cache merges
        are idempotent.
        """
        self.last_repair_skipped = 0
        entries: List[StoredEntry] = []
        for segment, durable in self._durable_segments():
            start = self._read_offsets.get(segment, 0)
            if durable <= start:
                continue
            segment_entries, consumed = self._read_segment(segment, start,
                                                           durable, repair)
            entries.extend(segment_entries)
            self._read_offsets[segment] = consumed
        return entries

    # -- maintenance -------------------------------------------------------

    def segments(self) -> List[str]:
        """The currently indexed segment names (diagnostics/tests)."""
        return [segment for segment, _ in self._durable_segments()]

    def compact(self, repair: bool = False) -> int:
        """Fold all durable segments into one; returns the entry count kept.

        Duplicate keys collapse to a single copy (entries are
        content-addressed — every copy is identical).  The folded source
        segments and their indexes are deleted only after the compacted
        segment is durable, so a crash mid-compaction leaves at worst both
        copies, never neither.

        Run compaction from a quiescent writer — e.g. between campaigns,
        when no campaign holds the store open.  A writer whose open segment
        gets folded detects the unlink on its next :meth:`append` and rolls
        to a fresh segment (nothing is corrupted either way); only an
        append that *races the unlink itself* — why quiescence is asked
        for — could land invisibly on the folded inode.  Entries appended
        to *new* segments while compaction runs are untouched.
        """
        sources = self._durable_segments()
        sources = [(segment, durable) for segment, durable in sources
                   if durable > 0]
        if not sources:
            return 0
        merged: Dict[Tuple, Dict[str, object]] = {}
        for segment, durable in sources:
            segment_entries, _ = self._read_segment(segment, 0, durable,
                                                    repair)
            for key, results in segment_entries:
                merged[key] = results
        compact_writer = SegmentStore(
            self.path, writer_id=f"compact-{uuid.uuid4().hex[:8]}")
        try:
            compact_writer.append(list(merged.items()))
        finally:
            compact_writer.close()
        for segment, _ in sources:
            if segment == compact_writer._segment_name:  # pragma: no cover
                continue
            for stale in (self._segment_path(segment),
                          self._index_path(segment)):
                try:
                    os.unlink(stale)
                except FileNotFoundError:  # pragma: no cover - racing unlink
                    pass
            self._read_offsets.pop(segment, None)
        if self._segment_name in {segment for segment, _ in sources}:
            # Our own pre-compaction segment was folded; future appends
            # start a fresh file rather than resurrecting the deleted name
            # (which would confuse handles holding read offsets for it).
            self.close()
            self._segment_name = f"seg-{os.getpid()}-{uuid.uuid4().hex[:8]}.log"
        return len(merged)


__all__ = ["SegmentStore", "StoreCorruptionError", "StoredEntry"]
