"""File-backed journal with per-record checksums.

The simulator keeps durable state in memory, but this codec provides a real
on-disk format so that the storage layer round-trips through actual files —
useful for the examples and for validating crash-recovery reads against
torn/corrupt tails.

Format: a fixed magic header, then a sequence of records, each
``[length:u32][crc32:u32][pickle payload]``.  Replay stops at a truncated
or corrupt *tail* record and cuts the file back to the last valid one,
mimicking how a real WAL recovers from a torn write; a bad record with
valid records after it is corruption and raises.
"""

import pickle
import struct
import zlib

from repro.common.errors import StorageError

_MAGIC = b"ZABJRNL1"
_HEADER = struct.Struct("<II")  # length, crc32


class FileJournal:
    """Append-only journal of (zxid, txn) records in a regular file."""

    def __init__(self, path):
        self.path = path
        self._file = None

    def open(self):
        """Open (creating if needed) and position at the end."""
        try:
            self._file = open(self.path, "r+b")
        except FileNotFoundError:
            self._file = open(self.path, "w+b")
            self._file.write(_MAGIC)
            self._file.flush()
        self._file.seek(0, 2)
        return self

    def close(self):
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self):
        return self.open()

    def __exit__(self, exc_type, exc, tb):
        self.close()

    def append(self, zxid, txn):
        """Durably append one record (write + flush + fsync-equivalent)."""
        if self._file is None:
            raise StorageError("journal is not open")
        payload = pickle.dumps((zxid, txn), protocol=pickle.HIGHEST_PROTOCOL)
        self._file.write(_HEADER.pack(len(payload), zlib.crc32(payload)))
        self._file.write(payload)
        self._file.flush()

    def replay(self):
        """Return the (zxid, txn) records; repair a damaged tail.

        A truncated or corrupt *last* record is normal after a crash:
        the file is cut back to the last valid record, so later appends
        land where the next replay reads them.  A corrupt record
        *followed by* a well-formed one cannot be a torn write and
        raises :class:`StorageError` instead of dropping valid records.
        """
        if self._file is None:
            raise StorageError("journal is not open")
        self._file.seek(0)
        magic = self._file.read(len(_MAGIC))
        if magic != _MAGIC:
            raise StorageError("bad journal magic in %s" % self.path)
        records = []
        valid_end = self._file.tell()
        while True:
            payload = self._read_record()
            if payload is None:
                break  # clean EOF, torn record, or corrupt record
            records.append(pickle.loads(payload))
            valid_end = self._file.tell()
        if self._read_record() is not None:
            raise StorageError(
                "corrupt record at byte %d of %s precedes valid records"
                % (valid_end, self.path)
            )
        # Drop the damaged tail (if any): appends continue just past the
        # last valid record.
        self._file.seek(valid_end)
        self._file.truncate()
        return records

    def _read_record(self):
        """The next record's payload, or None if it is short or corrupt
        (a complete record with a bad checksum is still consumed)."""
        header = self._file.read(_HEADER.size)
        if len(header) < _HEADER.size:
            return None
        length, crc = _HEADER.unpack(header)
        payload = self._file.read(length)
        if len(payload) < length or zlib.crc32(payload) != crc:
            return None
        return payload

    def rewrite(self, records):
        """Atomically replace the journal contents (used after TRUNC)."""
        if self._file is None:
            raise StorageError("journal is not open")
        self._file.seek(0)
        self._file.truncate()
        self._file.write(_MAGIC)
        for zxid, txn in records:
            payload = pickle.dumps(
                (zxid, txn), protocol=pickle.HIGHEST_PROTOCOL
            )
            self._file.write(_HEADER.pack(len(payload), zlib.crc32(payload)))
            self._file.write(payload)
        self._file.flush()
