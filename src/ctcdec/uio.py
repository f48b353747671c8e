"""Unified dataset IO: tar-shard packing, sequential shard reading, raw-list
access, and seed-deterministic chain operators over sample streams.

Shards are plain POSIX ustar archives (optionally gzipped) holding the
payloads of each record as adjacent `key.suffix` entries plus a `key.json`
metadata entry. Shard order can be randomized per epoch; within a shard
records are always read strictly sequentially with streaming decompression.
"""

from __future__ import annotations

import gzip
import io
import json
import logging
import tarfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence
from urllib.parse import urlparse

from .errors import ConfigurationError, EngineError, ParseError

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
    written next to the shards. Duplicate keys abort the pack. Returns
    the shard paths in order.
    """
    if shard_size < 1:
        raise ConfigurationError("shard_size must be >= 1")
    out_path = Path(out_dir)
    seen_keys: set[str] = set()
    manifest: list[str] = []
    locators: list[str] = []

    writer: _ShardWriter | None = None
    try:
        for sample in samples:
            if sample.key in seen_keys:
                raise ConfigurationError(f"duplicate sample key {sample.key!r}")
            seen_keys.add(sample.key)
            if writer is None:
                out_path.mkdir(parents=True, exist_ok=True)
                writer = _ShardWriter(out_path, len(locators), compress)
            writer.add(sample)
            if writer.count >= shard_size:
                manifest.append(writer.close())
                locators.append(str(writer.path))
                writer = None
        if writer is not None:
            manifest.append(writer.close())
            locators.append(str(writer.path))
            writer = None
    finally:
        if writer is not None:
            writer.abort()

    if manifest:
        (out_path / MANIFEST_NAME).write_text("".join(manifest), encoding="utf-8")
    return locators


class _ShardWriter:
    def __init__(self, out_dir: Path, index: int, compress: bool):
        self.name = f"shard_{index:05d}.tar" + (".gz" if compress else "")
        self.path = out_dir / self.name
        self.count = 0
        self._raw = open(self.path, "wb")
        if compress:
            # mtime pinned so identical inputs give byte-identical shards
            self._stream: BinaryIO = gzip.GzipFile(filename="", mode="wb", fileobj=self._raw, mtime=0)
        else:
            self._stream = self._raw
        self._tar = tarfile.open(fileobj=self._stream, mode="w", format=tarfile.USTAR_FORMAT)

    def add(self, sample: SampleRecord) -> None:
        for suffix in sorted(sample.payloads):
            self._entry(f"{sample.key}.{suffix}", sample.payloads[suffix])
        meta = json.dumps(sample.metadata, sort_keys=True, ensure_ascii=False).encode("utf-8")
        self._entry(f"{sample.key}.{METADATA_SUFFIX}", meta)
        self.count += 1

    def _entry(self, name: str, data: bytes) -> None:
        info = tarfile.TarInfo(name)
        info.size = len(data)
        info.mtime = 0
        info.mode = 0o644
        info.uid = info.gid = 0
        info.uname = info.gname = ""
        self._tar.addfile(info, io.BytesIO(data))

    def close(self) -> str:
        """Finish the shard and return its manifest line."""
        self._tar.close()
        if self._stream is not self._raw:
            self._stream.close()
        self._raw.close()
        return f"{self.name} {self.count} {self.path.stat().st_size}\n"

    def abort(self) -> None:
        try:
            self._raw.close()
        finally:
            self.path.unlink(missing_ok=True)


def shard_list_from_manifest(path: str | Path) -> list[str]:
    """Shard paths from `shard_path sample_count byte_size` lines.

    Paths resolve against the manifest's directory; a shard named twice
    is rejected.
    """
    base = Path(path).parent
    source = str(path)
    locators: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ParseError("expected 'shard_path sample_count byte_size'", source=source, line=lineno)
        try:
            int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError("counts must be integers", source=source, line=lineno) from None
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
    sequentially (tar stream mode, one record buffered at a time).
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
        except (OSError, tarfile.TarError, EngineError) as exc:
            if on_error == "fail":
                raise
            logger.warning("skipping unreadable shard %s: %s", locator, exc)


def _read_shard(stream: BinaryIO, locator: str) -> Iterator[SampleRecord]:
    """Yield records from one tar stream; gzip is sniffed from the locator."""
    mode = "r|gz" if locator.endswith((".tar.gz", ".tgz")) else "r|"
    last_entry = "<start>"
    key: str | None = None
    payloads: dict[str, bytes] = {}
    metadata: dict[str, str] = {}
    try:
        with tarfile.open(fileobj=stream, mode=mode) as tar:
            for member in tar:
                last_entry = member.name
                if not member.isfile():
                    continue
                base, dot, suffix = member.name.rpartition(".")
                if not dot or not base:
                    raise ParseError(f"entry {member.name!r} is not named key.suffix", source=locator)
                if base != key:
                    if key is not None:
                        yield SampleRecord(key, payloads, metadata)
                    key, payloads, metadata = base, {}, {}
                handle = tar.extractfile(member)
                data = handle.read() if handle is not None else b""
                if suffix == METADATA_SUFFIX:
                    metadata = json.loads(data.decode("utf-8"))
                else:
                    payloads[suffix] = data
            # Stream-mode tarfile ends silently on a bad mid-archive header;
            # a well-formed archive leaves nothing but NUL padding here.
            trailer = tar.fileobj.read(tarfile.RECORDSIZE)  # type: ignore[union-attr]
            if trailer.strip(b"\0"):
                raise tarfile.ReadError("archive continues with unreadable data")
            if key is not None:
                yield SampleRecord(key, payloads, metadata)
    except (tarfile.TarError, EOFError, zlib.error, json.JSONDecodeError) as exc:
        raise ParseError(f"corrupt shard after entry {last_entry!r}: {exc}", source=locator) from exc


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
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
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
