"""Unified dataset IO: tar-shard packing, sequential shard reading, raw-list
access, and seed-deterministic chain operators over sample streams.

Shards are plain POSIX ustar archives (optionally gzipped) holding the
payloads of each record as adjacent `key.suffix` entries plus a `key.json`
metadata entry. Shard order can be randomized per epoch; within a shard
records are always read strictly sequentially with streaming decompression.

The archives are written and read here, 512-byte header by header, without
`tarfile`. The writer emits regular-file entries only: mode 0644, owner 0,
mtime 0, names of at most 100 UTF-8 bytes and sizes under 8 GiB. The reader
also takes archives from other writers: it joins a ustar name prefix,
honours pax `x` records `path` and `size`, skips pax `g` headers, takes a
GNU `L` entry as the next entry's name and skips directories and other
non-file entries. It requires the end-of-archive zero block, followed by
nothing but NULs, so a truncated shard never reads as a shorter one.
"""

from __future__ import annotations

import gzip
import io
import itertools
import json
import logging
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence
from urllib.parse import urlparse

from .errors import ConfigurationError, EngineError, ParseError, numbered_lines, parse_count, read_text, write_atomic

logger = logging.getLogger(__name__)

METADATA_SUFFIX = "json"
_MASK64 = (1 << 64) - 1


@dataclass
class SampleRecord:
    """One keyed sample: named byte payloads plus string metadata."""

    key: str
    payloads: dict[str, bytes]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.key:
            raise ConfigurationError("sample key must be nonempty")
        if "/" in self.key or "\\" in self.key:
            raise ConfigurationError(f"sample key {self.key!r} must not contain path separators")
        if not self.payloads:
            raise ConfigurationError(f"sample {self.key!r} has no payloads")
        if METADATA_SUFFIX in self.payloads:
            raise ConfigurationError(
                f"sample {self.key!r}: payload suffix {METADATA_SUFFIX!r} is reserved for metadata"
            )

    def total_bytes(self) -> int:
        return sum(len(data) for data in self.payloads.values())


class LocalStorage:
    """Filesystem backend; accepts plain paths and file:// URLs.

    Other URL schemes name remote backends this build does not ship and
    are rejected up front.
    """

    def open_read(self, locator: str) -> BinaryIO:
        path = locator
        if "://" in locator:
            parsed = urlparse(locator)
            if parsed.scheme != "file":
                raise ConfigurationError(
                    f"unsupported storage scheme {parsed.scheme!r} in {locator!r} (only file:// and local paths)"
                )
            path = parsed.path
        return open(path, "rb")


# -- deterministic shuffling ----------------------------------------------


class SplitMix64:
    """The 64-bit SplitMix generator; pinned so shuffles reproduce anywhere."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def seeded_shuffle(items: Sequence, seed: int) -> list:
    """Fisher-Yates driven by SplitMix64; same seed, same order, anywhere."""
    out = list(items)
    rng = SplitMix64(seed)
    for i in range(len(out) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


# -- packing ---------------------------------------------------------------

MANIFEST_NAME = "manifest.txt"


def pack_shards(
    samples: Iterable[SampleRecord],
    shard_size: int,
    out_dir: str | Path,
    *,
    compress: bool = False,
) -> list[str]:
    """Pack a sample stream into ceil(N / shard_size) tar shards.

    Entries of one record stay adjacent and records keep input order. A
    `manifest.txt` with `shard_path sample_count byte_size` lines is
    written next to the shards. Each shard and the manifest is replaced
    whole, so a failed pack leaves no file cut short, though a pack may
    stop between files. An earlier manifest is removed before the first
    shard is replaced, so a failed pack leaves no manifest rather than
    one that lists the new shards under the old counts. Shards left over
    from an earlier, larger pack stay in the directory, but the new
    manifest does not list them. Duplicate keys abort the pack. Returns
    the shard paths in order.
    """
    if shard_size < 1:
        raise ConfigurationError("shard_size must be >= 1")
    out_path = Path(out_dir)
    seen_keys: set[str] = set()
    manifest: list[str] = []
    locators: list[str] = []
    records = iter(samples)
    for first in records:  # each shard takes the next record and up to shard_size - 1 more
        out_path.mkdir(parents=True, exist_ok=True)
        if not locators:
            (out_path / MANIFEST_NAME).unlink(missing_ok=True)
        path = out_path / (f"shard_{len(locators):05d}.tar" + (".gz" if compress else ""))
        before = len(seen_keys)
        chunks = _tar_chunks(itertools.chain([first], itertools.islice(records, shard_size - 1)), seen_keys)
        write_atomic(path, _gzip_chunks(chunks) if compress else chunks)
        manifest.append(f"{path.name} {len(seen_keys) - before} {path.stat().st_size}\n")
        locators.append(str(path))
    if manifest:
        write_atomic(out_path / MANIFEST_NAME, ["".join(manifest).encode("utf-8")])
    return locators


def _tar_chunks(samples: Iterable[SampleRecord], seen_keys: set[str]) -> Iterator[bytes]:
    """The bytes of a tar archive of `samples`, a piece at a time. Each key
    goes into `seen_keys`; a key already there raises."""
    offset = 0
    for sample in samples:
        if sample.key in seen_keys:
            raise ConfigurationError(f"duplicate sample key {sample.key!r}")
        seen_keys.add(sample.key)
        meta = json.dumps(sample.metadata, sort_keys=True, ensure_ascii=False).encode("utf-8")
        for suffix, data in [*sorted(sample.payloads.items()), (METADATA_SUFFIX, meta)]:
            yield _ustar_header(f"{sample.key}.{suffix}", len(data))
            yield data
            pad = -len(data) % _BLOCK
            if pad:
                yield _ZERO_BLOCK[:pad]
            offset += _BLOCK + len(data) + pad
    end = 2 * _BLOCK
    yield bytes(end + -(offset + end) % _RECORD)


def _gzip_chunks(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """`chunks` gzipped, handed on as the compressor lets each piece out."""
    buffer = io.BytesIO()
    # mtime pinned so identical inputs give byte-identical shards
    with gzip.GzipFile(filename="", mode="wb", fileobj=buffer, mtime=0) as stream:
        for chunk in chunks:
            stream.write(chunk)
            if buffer.tell():
                yield buffer.getvalue()
                buffer.seek(0)
                buffer.truncate()
    yield buffer.getvalue()


def shard_list_from_manifest(path: str | Path) -> list[str]:
    """Shard paths from `shard_path sample_count byte_size` lines.

    Paths resolve against the manifest's directory; a shard named twice
    is rejected.
    """
    base = Path(path).parent
    source = str(path)
    locators: dict[str, str] = {}
    for lineno, line in numbered_lines(read_text(path)):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("expected 'shard_path sample_count byte_size'", source=source, line=lineno)
        try:
            for count in parts[1:]:
                parse_count(count)
        except ValueError:
            raise ParseError("counts must be non-negative ASCII integers", source=source, line=lineno) from None
        if parts[0] in locators:
            raise ParseError(f"shard {parts[0]!r} is listed twice", source=source, line=lineno)
        locators[parts[0]] = str(base / parts[0])
    return list(locators.values())


# -- reading ---------------------------------------------------------------


def read_shards(
    shards: Sequence[str],
    *,
    shuffle: bool = False,
    seed: int = 0,
    storage: LocalStorage | None = None,
    on_error: str = "fail",
) -> Iterator[SampleRecord]:
    """Stream records shard by shard.

    Shard visit order is identity, or a seeded Fisher-Yates permutation
    when `shuffle` is set; within a shard records come back strictly
    sequentially (one forward pass, one record buffered at a time).
    `on_error` is "fail" (default) or "skip" for shards that cannot be
    opened or read. A repeated locator or a bad `on_error` is rejected by
    the call itself, before the iterator is returned.
    """
    if on_error not in ("fail", "skip"):
        raise ConfigurationError(f"on_error must be 'fail' or 'skip', got {on_error!r}")
    locators = list(shards)
    if len(set(locators)) != len(locators):
        raise ConfigurationError("shard locators must be unique")
    if shuffle:
        locators = seeded_shuffle(locators, seed)
    return _iter_shards(locators, storage if storage is not None else LocalStorage(), on_error)


def _iter_shards(locators: list[str], storage: LocalStorage, on_error: str) -> Iterator[SampleRecord]:
    for locator in locators:
        try:
            with storage.open_read(locator) as stream:
                yield from _read_shard(stream, locator)
        except (OSError, EngineError) as exc:
            if on_error == "fail":
                raise
            logger.warning("skipping unreadable shard %s: %s", locator, exc)


def _read_shard(stream: BinaryIO, locator: str) -> Iterator[SampleRecord]:
    """Yield records from one shard stream; gzip is sniffed from the locator.

    A `key.json` entry must hold a JSON object of strings. An entry that
    breaks this or `SampleRecord`'s rules is a `ParseError` citing the shard.
    """
    if locator.endswith((".tar.gz", ".tgz")):
        stream = gzip.GzipFile(fileobj=stream, mode="rb")
    key: str | None = None
    payloads: dict[str, bytes] = {}
    metadata: dict[str, str] = {}

    def record() -> SampleRecord:
        try:
            return SampleRecord(key, payloads, metadata)
        except ConfigurationError as exc:
            raise ParseError(str(exc), source=locator) from exc

    for name, data in _ustar_entries(stream, locator):
        base, dot, suffix = name.rpartition(".")
        if not dot or not base:
            raise ParseError(f"entry {name!r} is not named key.suffix", source=locator)
        if base != key:
            if key is not None:
                yield record()
            key, payloads, metadata = base, {}, {}
        if suffix == METADATA_SUFFIX:
            try:
                metadata = json.loads(data.decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"corrupt shard after entry {name!r}: {exc}", source=locator) from exc
            if not isinstance(metadata, dict) or not all(isinstance(v, str) for v in metadata.values()):
                raise ParseError(f"entry {name!r} must hold a JSON object of string values", source=locator)
        else:
            payloads[suffix] = data
    if key is not None:
        yield record()


# -- ustar -------------------------------------------------------------------
#
# An entry is one 512-byte header, then its data padded with NULs to a
# 512-byte boundary. Two zero blocks end the archive, which is padded with
# NULs to tar's 10,240-byte record.

_BLOCK = 512
_RECORD = 20 * _BLOCK
_ZERO_BLOCK = bytes(_BLOCK)
_NAME_BYTES = 100
_SIZE_LIMIT = 8**11  # the size field holds 11 octal digits
# Header fields the writer never varies: mode 0644, uid and gid 0 (size
# follows), mtime 0 (checksum follows), then a regular file with no link
# target, the POSIX magic and version, and empty owner names, device
# numbers and name prefix.
_MODE_OWNER = b"0000644\0" b"0000000\0" b"0000000\0"
_MTIME = b"00000000000\0"
_TYPE_TO_END = b"0" + bytes(100) + b"ustar\x0000" + bytes(_BLOCK - 265)
_FIXED_SUM = sum(_MODE_OWNER) + sum(_MTIME) + sum(_TYPE_TO_END) + 8 * ord(" ")
_SIGNED_BYTES = struct.Struct("148b8x356b")  # every header byte but the checksum field

_FILE_TYPES = (b"0", b"\0", b"7")
# Hard and symbolic links, devices, directories and FIFOs: no data follows
# their header, whatever its size field says.
_NO_DATA_TYPES = (b"1", b"2", b"3", b"4", b"5", b"6")
# Pax extended and global headers and GNU long name and long link entries:
# their data describes the entry that follows.
_EXTENSION_TYPES = (b"x", b"g", b"L", b"K")
# A corrupt size field must not make one read allocate more than the
# stream holds, so larger entries are read in pieces of this size.
_READ_CHUNK = 1 << 20


class _BadArchive(Exception):
    """A malformed ustar stream; reported as a `ParseError` naming the shard."""


def _ustar_header(name: str, size: int) -> bytes:
    """The ustar header of a regular file `name` holding `size` bytes."""
    encoded = name.encode("utf-8")
    if len(encoded) > _NAME_BYTES:
        raise ConfigurationError(
            f"entry name {name!r} is {len(encoded)} UTF-8 bytes; a ustar name holds at most {_NAME_BYTES}"
        )
    if not 0 <= size < _SIZE_LIMIT:
        raise ConfigurationError(f"entry {name!r} holds {size} bytes; a ustar entry holds less than 8 GiB")
    size_field = b"%011o\0" % size
    checksum = _FIXED_SUM + sum(encoded) + sum(size_field)
    return b"".join(
        (encoded.ljust(_NAME_BYTES, b"\0"), _MODE_OWNER, size_field, _MTIME, b"%06o\0 " % checksum, _TYPE_TO_END)
    )


def _ustar_entries(stream: BinaryIO, locator: str) -> Iterator[tuple[str, bytes]]:
    """Yield (name, data) of each regular file in a ustar stream, in order.

    Reads strictly forward. Any malformed or missing part of the archive,
    its end-of-archive block included, raises a `ParseError` that names the
    last entry read.
    """
    read = stream.read
    last = "<start>"
    pax_name: str | None = None
    pax_size: int | None = None
    gnu_name: str | None = None
    try:
        while True:
            header = read(_BLOCK)
            if header == _ZERO_BLOCK:
                break
            if len(header) != _BLOCK:
                raise _BadArchive("truncated header" if header else "missing end-of-archive block")
            checksum = _octal(header[148:156])
            if checksum != sum(header) - sum(header[148:156]) + 256:
                if checksum != sum(_SIGNED_BYTES.unpack(header)) + 256:
                    raise _BadArchive("bad header checksum")
            size = _octal(header[124:136])
            kind = header[156:157]
            if kind in _EXTENSION_TYPES:
                data = _read_data(read, size)
                if kind == b"x":
                    fields = _pax_fields(data)
                    if b"path" in fields:
                        pax_name = fields[b"path"].decode("utf-8")
                    if b"size" in fields:
                        pax_size = _decimal(fields[b"size"])
                elif kind == b"L":
                    gnu_name = data.partition(b"\0")[0].decode("utf-8")
                continue
            raw_name = header[:_NAME_BYTES].partition(b"\0")[0]
            if kind == b"\0" and raw_name.endswith(b"/"):
                kind = b"5"  # an old-style directory
            if pax_name is not None:
                last = pax_name
            elif gnu_name is not None:
                last = gnu_name
            else:
                if header[257:263] == b"ustar\0" and header[345]:
                    raw_name = header[345:500].partition(b"\0")[0] + b"/" + raw_name
                last = raw_name.decode("utf-8")
            if pax_size is not None:
                size = pax_size
            pax_name = pax_size = gnu_name = None
            if kind in _NO_DATA_TYPES:
                continue
            data = _read_data(read, size)
            if kind in _FILE_TYPES:
                yield last, data
        if pax_name is not None or pax_size is not None or gnu_name is not None:
            raise _BadArchive("extension header without an entry")
        while True:
            rest = read(_RECORD)
            if not rest:
                break
            if rest.count(0) != len(rest):
                raise _BadArchive("archive continues with unreadable data")
    except (_BadArchive, UnicodeDecodeError, EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ParseError(f"corrupt shard after entry {last!r}: {exc}", source=locator) from exc


def _octal(field: bytes) -> int:
    try:
        value = int(field.partition(b"\0")[0].strip() or b"0", 8)
    except ValueError:
        value = -1
    if value < 0:
        raise _BadArchive(f"bad number {field!r} in header")
    return value


def _decimal(text: bytes) -> int:
    if not text.isdigit():
        raise _BadArchive(f"bad number {text!r} in pax header")
    return int(text)


def _read_data(read: Callable[[int], bytes], size: int) -> bytes:
    """`size` bytes of entry data; the NUL padding after them is skipped."""
    if size <= _READ_CHUNK:
        data = read(size)
    else:
        parts = []
        left = size
        while left:
            part = read(min(left, _READ_CHUNK))
            if not part:
                break
            parts.append(part)
            left -= len(part)
        data = b"".join(parts)
    pad = -size % _BLOCK
    if len(data) != size or (pad and len(read(pad)) != pad):
        raise _BadArchive("truncated entry data")
    return data


def _pax_fields(data: bytes) -> dict[bytes, bytes]:
    """The `length keyword=value\\n` records of a pax extended header."""
    fields = {}
    pos = 0
    while pos < len(data):
        space = data.find(b" ", pos)
        if space <= pos:
            raise _BadArchive("bad pax record")
        end = pos + _decimal(data[pos:space])
        keyword, equals, value = data[space + 1 : end].partition(b"=")
        if end > len(data) or data[end - 1 : end] != b"\n" or not keyword or not equals:
            raise _BadArchive("bad pax record")
        fields[keyword] = value[:-1]
        pos = end
    return fields


# -- raw (sample-level random access) ---------------------------------------


class RawSampleReader:
    """Direct small-dataset access: one record per manifest line, seekable.

    Manifest lines are `key payload_path [payload_path ...]`; the payload
    suffix is each file's extension. Relative paths resolve against the
    manifest's directory.
    """

    def __init__(self, entries: Sequence[tuple[str, Sequence[str]]], storage: LocalStorage | None = None):
        self.entries = [(key, list(paths)) for key, paths in entries]
        self.storage = storage if storage is not None else LocalStorage()
        self._pos = 0

    @classmethod
    def from_file(cls, path: str | Path, storage: LocalStorage | None = None) -> "RawSampleReader":
        base = Path(path).parent
        entries = []
        source = str(path)
        for lineno, line in numbered_lines(read_text(path), comments=True):
            parts = line.split()
            if len(parts) < 2:
                raise ParseError("expected 'key payload_path ...'", source=source, line=lineno)
            key = parts[0]
            paths = [p if ("://" in p or Path(p).is_absolute()) else str(base / p) for p in parts[1:]]
            entries.append((key, paths))
        return cls(entries, storage)

    def __len__(self) -> int:
        return len(self.entries)

    def record(self, index: int) -> SampleRecord:
        key, paths = self.entries[index]
        payloads = {}
        for locator in paths:
            suffix = Path(locator).suffix.lstrip(".") or "bin"
            try:
                with self.storage.open_read(locator) as handle:
                    payloads[suffix] = handle.read()
            except FileNotFoundError:
                raise FileNotFoundError(
                    f"sample {key!r}: missing payload file {locator}"
                ) from None
        return SampleRecord(key, payloads)

    def seek(self, index: int) -> None:
        if not 0 <= index <= len(self.entries):
            raise ConfigurationError(f"seek index {index} out of range (0..{len(self.entries)})")
        self._pos = index

    def read(self) -> SampleRecord:
        record = self.record(self._pos)
        self._pos += 1
        return record

    def __iter__(self) -> Iterator[SampleRecord]:
        while self._pos < len(self.entries):
            yield self.read()


# -- chain operations --------------------------------------------------------


class ChainOp:
    """A composable, seed-deterministic stream transformer over samples."""

    def apply(self, stream: Iterator) -> Iterator:
        raise NotImplementedError


class Filter(ChainOp):
    def __init__(self, predicate: Callable):
        self.predicate = predicate

    def apply(self, stream: Iterator) -> Iterator:
        return (item for item in stream if self.predicate(item))


class Map(ChainOp):
    def __init__(self, fn: Callable):
        self.fn = fn

    def apply(self, stream: Iterator) -> Iterator:
        return (self.fn(item) for item in stream)


class Shuffle(ChainOp):
    """Bounded-buffer streaming shuffle; exact given (buffer_size, seed)."""

    def __init__(self, buffer_size: int, seed: int = 0):
        if buffer_size < 1:
            raise ConfigurationError("shuffle buffer_size must be >= 1")
        self.buffer_size = buffer_size
        self.seed = seed

    def apply(self, stream: Iterator) -> Iterator:
        def run():
            rng = SplitMix64(self.seed)
            buffer: list = []
            for item in stream:
                if len(buffer) < self.buffer_size:
                    buffer.append(item)
                    continue
                j = rng.next_u64() % len(buffer)
                out, buffer[j] = buffer[j], item
                yield out
            while buffer:
                j = rng.next_u64() % len(buffer)
                out = buffer[j]
                buffer[j] = buffer[-1]
                buffer.pop()
                yield out

        return run()


class Batch(ChainOp):
    """Groups samples into lists; nothing may follow it in a chain."""

    def __init__(self, size: int):
        if size < 1:
            raise ConfigurationError("batch size must be >= 1")
        self.size = size

    def apply(self, stream: Iterator) -> Iterator:
        def run():
            batch: list = []
            for item in stream:
                batch.append(item)
                if len(batch) == self.size:
                    yield batch
                    batch = []
            if batch:
                yield batch

        return run()


def chain(ops: Sequence[ChainOp], stream: Iterator) -> Iterator:
    """Left-to-right composition; an op after a `Batch` fails before streaming."""
    for i, op in enumerate(ops[1:], 1):
        if isinstance(ops[i - 1], Batch):
            raise ConfigurationError(
                f"chain op {i} ({type(op).__name__}) consumes 'sample' but receives 'batch'"
            )
    out = stream
    for op in ops:
        out = op.apply(out)
    return out
