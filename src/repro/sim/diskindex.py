"""Persistent index + pack format for the disk cache tier (v2).

:mod:`repro.sim.diskcache` stores one pickled entry per file and, until
this module existed, answered every membership question with a ``stat``
and learned about its own contents only by walking the directory. Both
costs scale with the store: a warm attach over a few thousand entries
pays a few thousand ``stat`` calls, and a 48-entry sweep delta pays 48
``tmp+rename+fsync`` round-trips. This module supplies the two on-disk
structures that fix that:

The index manifest
------------------

``<schema_dir>/index.repri`` is a line-oriented, append-only manifest
mapping key digests to entry locations. The first line pins the format
and the schema generation::

    repri 1 <fingerprint>

and every following line is one record (space-separated fields):

``E <digest> <size> <mtime>``
    A loose one-file-per-entry ``.pkl`` entry of ``size`` bytes.
``P <digest> <size> <atime> <pack> <offset> <length>``
    An entry stored inside pack file ``packs/<pack>`` at
    ``offset``/``length``; ``atime`` is its last-access time (pack
    reads cannot refresh a per-entry file mtime, so recency lives
    here).
``T <digest> <atime>``
    A touch: the entry was read at ``atime`` (throttled — see
    :data:`TOUCH_INTERVAL_S`).
``D <digest>``
    The entry was removed (corrupt payload, pruned).

Appends are single ``write(2)`` calls on an ``O_APPEND`` descriptor, so
concurrent writer *processes* interleave at line granularity and a
group commit of N entries is one write. Readers parse complete lines
only: a torn trailing line (a crashed writer) is simply not consumed
yet, and a malformed line in the middle (two writers' lines sheared on
an exotic filesystem) is skipped. The index is **advisory**: the store
itself is the source of truth, and every consumer falls back to the
directory when the index disagrees — a lost record degrades to a
``stat``/read, never to a wrong answer. A missing, unreadable, foreign-
generation, or otherwise corrupt index is rebuilt wholesale from a
directory walk (:meth:`DiskCacheIndex.rebuild`).

The pack format
---------------

``<schema_dir>/packs/<name>.pack`` holds many entries in one file so a
whole sweep delta commits with one append and one ``fsync``. A pack
starts with the magic line ``RPKP1\\n`` followed by records::

    RPKR <64 hex digest chars> <8-byte big-endian payload length> <payload>

The payload is byte-identical to a loose entry file's pickle
(``{"format", "fingerprint", "key", "value"}``), which is what makes
cross-format bit-identity trivially true: a reader cannot tell where an
entry came from. Packs are written to a temp file, fsynced, and
published with an atomic rename, so a visible pack is always complete;
:func:`scan_pack` additionally stops at the first malformed record, so
even a torn copy of a pack yields its intact prefix.
"""

from __future__ import annotations

import os
import struct
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Bump when the manifest line format changes incompatibly.
INDEX_FORMAT_VERSION = 1

#: Manifest filename inside a schema directory.
INDEX_NAME = "index.repri"

#: Subdirectory of a schema directory holding pack files.
PACK_DIR_NAME = "packs"

#: Magic first line of a pack file.
PACK_MAGIC = b"RPKP1\n"

#: Per-record marker inside a pack.
PACK_RECORD_MAGIC = b"RPKR"

#: A touch record is appended only when the recorded last-access is at
#: least this much older than the new one — a hot entry read thousands
#: of times per sweep must not grow the manifest by thousands of lines.
TOUCH_INTERVAL_S = 60.0

_DIGEST_LEN = 64
_LENGTH_STRUCT = struct.Struct(">Q")
_RECORD_HEADER_LEN = len(PACK_RECORD_MAGIC) + _DIGEST_LEN + _LENGTH_STRUCT.size


@dataclass(frozen=True)
class IndexRecord:
    """Where one entry lives and when it was last used.

    ``pack`` is ``None`` for a loose one-file-per-entry ``.pkl``;
    otherwise the entry is ``length`` bytes at ``offset`` inside
    ``packs/<pack>``. ``atime`` is the best-known last-access time
    (store time until a touch record moves it).
    """

    size: int
    atime: float
    pack: Optional[str] = None
    offset: int = 0
    length: int = 0

    @property
    def packed(self) -> bool:
        return self.pack is not None


def _is_hex_digest(text: str) -> bool:
    if len(text) != _DIGEST_LEN:
        return False
    try:
        int(text, 16)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------
# Pack files
# ---------------------------------------------------------------------


def pack_dir(schema_dir: "Path | str") -> Path:
    """Where a schema directory keeps its pack files."""
    return Path(schema_dir) / PACK_DIR_NAME


def write_pack(
    schema_dir: "Path | str",
    items: Sequence[Tuple[str, bytes]],
) -> Tuple[str, List[Tuple[str, int, int]]]:
    """Group-commit ``(digest, payload)`` pairs into one new pack file.

    The whole pack is staged in a temp file, flushed with **one**
    ``fsync``, and published with an atomic rename — readers only ever
    see a complete pack. Returns the published pack's name and each
    entry's ``(digest, offset, length)`` location within it. Raises
    ``OSError`` on any filesystem failure (callers fall back to
    per-entry stores).
    """
    if not items:
        raise ValueError("write_pack needs at least one entry")
    directory = pack_dir(schema_dir)
    directory.mkdir(parents=True, exist_ok=True)
    locations: List[Tuple[str, int, int]] = []
    chunks: List[bytes] = [PACK_MAGIC]
    offset = len(PACK_MAGIC)
    for digest, payload in items:
        if not _is_hex_digest(digest):
            raise ValueError(f"not a pack digest: {digest!r}")
        header = (
            PACK_RECORD_MAGIC
            + digest.encode("ascii")
            + _LENGTH_STRUCT.pack(len(payload))
        )
        chunks.append(header)
        chunks.append(payload)
        locations.append((digest, offset + len(header), len(payload)))
        offset += len(header) + len(payload)
    name = f"{os.getpid()}-{os.urandom(6).hex()}.pack"
    fd, tmp_path = tempfile.mkstemp(
        prefix=".pack.", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            # Chunk by chunk: joining first would hold a second copy of
            # the whole pack in memory.
            handle.writelines(chunks)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, directory / name)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return name, locations


def read_pack_payload(
    schema_dir: "Path | str", pack: str, offset: int, length: int
) -> bytes:
    """The raw payload bytes of one packed entry.

    Raises ``OSError`` when the pack is missing/unreadable and
    ``ValueError`` when the region is out of range — callers treat
    both as a miss.
    """
    path = pack_dir(schema_dir) / pack
    with open(path, "rb") as handle:
        handle.seek(offset)
        payload = handle.read(length)
    if len(payload) != length:
        raise ValueError(
            f"pack {pack} truncated: wanted {length} bytes at {offset}"
        )
    return payload


def scan_pack(path: "Path | str") -> Iterator[Tuple[str, int, int]]:
    """Yield ``(digest, offset, length)`` for every intact record.

    Used by index rebuilds and pack compaction. Scanning is sequential
    and stops at the first malformed or truncated record, so the intact
    prefix of a damaged pack still contributes its entries.
    """
    try:
        path = Path(path)
        file_size = path.stat().st_size
        with open(path, "rb") as handle:
            if handle.read(len(PACK_MAGIC)) != PACK_MAGIC:
                return
            offset = len(PACK_MAGIC)
            while True:
                header = handle.read(_RECORD_HEADER_LEN)
                if len(header) < _RECORD_HEADER_LEN:
                    return
                if not header.startswith(PACK_RECORD_MAGIC):
                    return
                digest_bytes = header[
                    len(PACK_RECORD_MAGIC):len(PACK_RECORD_MAGIC) + _DIGEST_LEN
                ]
                try:
                    digest = digest_bytes.decode("ascii")
                except UnicodeDecodeError:
                    return
                if not _is_hex_digest(digest):
                    return
                (length,) = _LENGTH_STRUCT.unpack(header[-_LENGTH_STRUCT.size:])
                payload_offset = offset + _RECORD_HEADER_LEN
                if payload_offset + length > file_size:
                    return  # truncated payload (seek past EOF "succeeds")
                handle.seek(length, os.SEEK_CUR)
                yield digest, payload_offset, length
                offset = payload_offset + length
    except OSError:
        return


# ---------------------------------------------------------------------
# The index manifest
# ---------------------------------------------------------------------


class DiskCacheIndex:
    """In-memory view of one schema directory's manifest.

    Thread-safe; every filesystem operation is best-effort (an
    unwritable manifest degrades to an in-memory-only index — the
    consumers all fall back to the directory anyway). Use
    :meth:`attach` to load-or-rebuild in one step.
    """

    def __init__(self, schema_dir: "Path | str", fingerprint: str) -> None:
        self.schema_dir = Path(schema_dir)
        self.fingerprint = fingerprint
        self.path = self.schema_dir / INDEX_NAME
        self._lock = threading.Lock()
        self._records: Dict[str, IndexRecord] = {}
        #: Bytes of the manifest parsed so far; refresh() reads the tail.
        self._consumed = 0
        #: Whether load()/refresh() ever hit an unparseable header — the
        #: caller decides to rebuild.
        self.rebuilt = False

    # -- loading -------------------------------------------------------

    @classmethod
    def attach(
        cls, schema_dir: "Path | str", fingerprint: str
    ) -> "DiskCacheIndex":
        """Load the manifest, rebuilding from the directory if needed.

        A parseable manifest is additionally reconciled against the
        pack files on disk: loose entries forgotten by a truncated
        manifest degrade to a ``stat`` fallback, but packed entries
        have no per-file fallback, so a manifest that knows fewer
        records for a pack than the pack holds triggers a rebuild.
        """
        index = cls(schema_dir, fingerprint)
        if not index.load() or not index._packs_consistent():
            index.rebuild()
        return index

    def _packs_consistent(self) -> bool:
        """Whether every on-disk pack record is reflected in the view.

        Scans pack *headers* only (payloads are seeked over), so the
        check costs one short read per packed entry, not an unpickle.
        A pack holding **more** records than the index knows means the
        manifest lost history (truncation past the torn-tail case);
        fewer is legitimate — ``D`` records drop corrupt payloads
        without rewriting the pack. A rebuild may resurrect such
        dropped records, which is harmless: loads re-validate the
        payload and re-drop it.
        """
        try:
            packs = pack_dir(self.schema_dir)
            if not packs.is_dir():
                return True
            with self._lock:
                counts: Dict[str, int] = {}
                for record in self._records.values():
                    if record.pack is not None:
                        counts[record.pack] = counts.get(record.pack, 0) + 1
            for path in packs.glob("*.pack"):
                if sum(1 for _ in scan_pack(path)) > counts.get(path.name, 0):
                    return False
        except OSError:
            return False
        return True

    def load(self) -> bool:
        """Parse the manifest from scratch; ``False`` asks for a rebuild."""
        with self._lock:
            self._records.clear()
            self._consumed = 0
            try:
                with open(self.path, "rb") as handle:
                    data = handle.read()
            except OSError:
                return False
            if not self._parse(data, expect_header=True):
                return False
        return True

    def refresh(self) -> None:
        """Absorb records other writers appended since the last parse.

        Cheap when nothing changed (one ``stat``). A manifest that
        *shrank* (another process rebuilt or pruned it) is reparsed
        from scratch; one that vanished keeps the in-memory view.
        """
        try:
            size = os.stat(self.path).st_size
        except OSError:
            return
        with self._lock:
            if size == self._consumed:
                return
            if size < self._consumed:
                reload_needed = True
            else:
                reload_needed = False
                try:
                    with open(self.path, "rb") as handle:
                        handle.seek(self._consumed)
                        tail = handle.read()
                except OSError:
                    return
                self._parse(tail, expect_header=False)
        if reload_needed:
            if not self.load():
                self.rebuild()

    def _parse(self, data: bytes, expect_header: bool) -> bool:
        """Consume complete lines from ``data``; caller holds the lock.

        Returns ``False`` only for a bad/foreign header. The consumed
        offset advances past every complete line (parsed or skipped),
        never past a torn trailing fragment.
        """
        offset = 0
        header_pending = expect_header
        while True:
            newline = data.find(b"\n", offset)
            if newline < 0:
                break  # torn tail — not consumed, re-read next refresh
            line = data[offset:newline]
            offset = newline + 1
            try:
                fields = line.decode("utf-8").split()
            except UnicodeDecodeError:
                continue
            if header_pending:
                header_pending = False
                if fields != [
                    "repri", str(INDEX_FORMAT_VERSION), self.fingerprint,
                ]:
                    return False
                self._consumed += offset
                # restart accounting relative to the remaining data
                data = data[offset:]
                offset = 0
                continue
            self._apply(fields)
        self._consumed += offset
        # An empty or header-torn manifest proves nothing — rebuild.
        return not header_pending

    def _apply(self, fields: List[str]) -> None:
        """Fold one parsed record into the in-memory view."""
        try:
            kind = fields[0]
            if kind == "E" and len(fields) == 4:
                digest = fields[1]
                if not _is_hex_digest(digest):
                    return
                self._records[digest] = IndexRecord(
                    size=int(fields[2]), atime=float(fields[3])
                )
            elif kind == "P" and len(fields) == 7:
                digest = fields[1]
                if not _is_hex_digest(digest):
                    return
                self._records[digest] = IndexRecord(
                    size=int(fields[2]),
                    atime=float(fields[3]),
                    pack=fields[4],
                    offset=int(fields[5]),
                    length=int(fields[6]),
                )
            elif kind == "T" and len(fields) == 3:
                record = self._records.get(fields[1])
                if record is not None:
                    atime = float(fields[2])
                    if atime > record.atime:
                        self._records[fields[1]] = replace(
                            record, atime=atime
                        )
            elif kind == "D" and len(fields) == 2:
                self._records.pop(fields[1], None)
        except (ValueError, IndexError):
            return  # a sheared/foreign line — advisory data, skip it

    # -- queries -------------------------------------------------------

    def contains(self, digest: str) -> bool:
        with self._lock:
            return digest in self._records

    def get(self, digest: str) -> Optional[IndexRecord]:
        with self._lock:
            return self._records.get(digest)

    def entry_count(self) -> int:
        with self._lock:
            return len(self._records)

    def packed_count(self) -> int:
        with self._lock:
            return sum(1 for r in self._records.values() if r.packed)

    def snapshot(self) -> Dict[str, IndexRecord]:
        with self._lock:
            return dict(self._records)

    # -- appends -------------------------------------------------------

    def _append(self, blob: bytes) -> bool:
        """One ``O_APPEND`` write; creates the manifest (with header) if
        absent. Best-effort: an unwritable manifest leaves the
        in-memory view authoritative for this process."""
        header = (
            f"repri {INDEX_FORMAT_VERSION} {self.fingerprint}\n"
            .encode("ascii")
        )
        try:
            fd = os.open(
                self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
            )
            try:
                if os.fstat(fd).st_size == 0:
                    os.write(fd, header)
                    with_header = True
                else:
                    with_header = False
                os.write(fd, blob)
            finally:
                os.close(fd)
        except OSError:
            return False
        # Our own append is already reflected in memory; advance the
        # consumed offset so refresh() does not re-parse it.
        with self._lock:
            self._consumed += len(blob) + (len(header) if with_header else 0)
        return True

    def record_store(self, digest: str, size: int, mtime: float) -> None:
        """One loose entry landed on disk."""
        with self._lock:
            self._records[digest] = IndexRecord(size=size, atime=mtime)
        self._append(f"E {digest} {size} {mtime:.6f}\n".encode("ascii"))

    def record_pack(
        self,
        pack: str,
        locations: Sequence[Tuple[str, int, int]],
        atime: float,
    ) -> None:
        """One pack commit landed: N entries, **one** manifest append."""
        lines = []
        with self._lock:
            for digest, offset, length in locations:
                self._records[digest] = IndexRecord(
                    size=length, atime=atime,
                    pack=pack, offset=offset, length=length,
                )
                lines.append(
                    f"P {digest} {length} {atime:.6f} {pack} "
                    f"{offset} {length}\n"
                )
        self._append("".join(lines).encode("ascii"))

    def record_touch(self, digest: str, atime: float) -> None:
        """Refresh an entry's last-access time (throttled)."""
        with self._lock:
            record = self._records.get(digest)
            if record is None or atime - record.atime < TOUCH_INTERVAL_S:
                return
            self._records[digest] = replace(record, atime=atime)
        self._append(f"T {digest} {atime:.6f}\n".encode("ascii"))

    def record_remove(self, digest: str) -> None:
        """An entry was deleted (corrupt payload, external cleanup)."""
        with self._lock:
            if self._records.pop(digest, None) is None:
                return
        self._append(f"D {digest}\n".encode("ascii"))

    # -- rebuild -------------------------------------------------------

    def rebuild(self) -> int:
        """Reconstruct the manifest from a directory walk; entries found.

        Loose entries contribute their filename digest and file
        mtime/size; packs are scanned record-by-record (no unpickling).
        Last-access times already known in memory are preserved when
        newer than the walked mtime, so a rebuild after a corrupt tail
        does not forget which entries were hot. The new manifest is
        written atomically (temp + rename); a failed write leaves the
        in-memory view authoritative. Marks :attr:`rebuilt`.
        """
        with self._lock:
            previous = dict(self._records)
            records: Dict[str, IndexRecord] = {}
            for path in sorted(self.schema_dir.glob("*/*.pkl")):
                digest = path.stem
                if not _is_hex_digest(digest):
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                records[digest] = IndexRecord(
                    size=stat.st_size, atime=stat.st_mtime
                )
            packs = pack_dir(self.schema_dir)
            if packs.is_dir():
                for path in sorted(packs.glob("*.pack")):
                    try:
                        mtime = path.stat().st_mtime
                    except OSError:
                        continue
                    for digest, offset, length in scan_pack(path):
                        records[digest] = IndexRecord(
                            size=length, atime=mtime,
                            pack=path.name, offset=offset, length=length,
                        )
            for digest, record in records.items():
                old = previous.get(digest)
                if old is not None and old.atime > record.atime:
                    records[digest] = replace(record, atime=old.atime)
            self._records = records
            self._consumed = 0
            self.rebuilt = True
            return self._write_locked()

    def rewrite(self) -> int:
        """Persist the current in-memory view as a fresh manifest."""
        with self._lock:
            return self._write_locked()

    def _write_locked(self) -> int:
        """Atomic full rewrite of the manifest; caller holds the lock."""
        lines = [f"repri {INDEX_FORMAT_VERSION} {self.fingerprint}\n"]
        for digest in sorted(self._records):
            record = self._records[digest]
            if record.packed:
                lines.append(
                    f"P {digest} {record.size} {record.atime:.6f} "
                    f"{record.pack} {record.offset} {record.length}\n"
                )
            else:
                lines.append(
                    f"E {digest} {record.size} {record.atime:.6f}\n"
                )
        blob = "".join(lines).encode("ascii")
        try:
            self.schema_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                prefix=f".{INDEX_NAME}.", suffix=".tmp", dir=self.schema_dir
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_path, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            return len(self._records)  # in-memory view stays authoritative
        self._consumed = len(blob)
        return len(self._records)
