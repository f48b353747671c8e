import gzip
import io
import os
import struct
import tarfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctcdec.errors import ConfigurationError, EngineError, ParseError
from ctcdec.uio import (
    Batch,
    Filter,
    LocalStorage,
    Map,
    RawSampleReader,
    SampleRecord,
    Shuffle,
    SplitMix64,
    chain,
    pack_shards,
    read_shards,
    seeded_shuffle,
    shard_list_from_manifest,
)
from ctcdec.uio import _ustar_entries, _ustar_header
from oracles import tarfile_info, tarfile_read_shard, tarfile_write_shard


def _records(n, payload_bytes=16):
    out = []
    for i in range(n):
        out.append(
            SampleRecord(
                key=f"utt{i:04d}",
                payloads={"wav": bytes([i % 256]) * payload_bytes, "txt": f"text {i}".encode()},
                metadata={"index": str(i)},
            )
        )
    return out


def _tarfile_header(name, size):
    return tarfile_info(name, size).tobuf(tarfile.USTAR_FORMAT, "utf-8", "surrogateescape")


def _with_checksum(header, signed=False):
    """`header` with its checksum field set to the unsigned or the signed byte sum."""
    total = sum(struct.unpack("148b8x356b" if signed else "148B8x356B", header)) + 8 * ord(" ")
    return header[:148] + b"%06o\0 " % total + header[156:]


def _manifest_counts(out_dir):
    lines = (out_dir / "manifest.txt").read_text(encoding="utf-8").splitlines()
    return [int(line.split()[1]) for line in lines]


class InstrumentedStorage(LocalStorage):
    """Counts opens and records every read offset to prove sequential access."""

    def __init__(self):
        self.opens = 0
        self.read_offsets: dict[str, list[int]] = {}

    def open_read(self, locator):
        self.opens += 1
        inner = super().open_read(locator)
        offsets = self.read_offsets.setdefault(locator, [])
        outer = self

        class Tracked(io.RawIOBase):
            def readable(self):
                return True

            def readinto(self, b):
                offsets.append(inner.tell())
                data = inner.read(len(b))
                b[: len(data)] = data
                return len(data)

            def seekable(self):
                return False

            def close(self):
                inner.close()
                super().close()

        return io.BufferedReader(Tracked())


class BytesStorage(LocalStorage):
    """Serves each locator from bytes held in memory."""

    def __init__(self, blobs):
        self.blobs = blobs

    def open_read(self, locator):
        return io.BytesIO(self.blobs[locator])


class TestSampleRecord:
    def test_key_with_separator_rejected(self):
        with pytest.raises(ConfigurationError):
            SampleRecord("a/b", {"wav": b"x"})

    def test_empty_payloads_rejected(self):
        with pytest.raises(ConfigurationError):
            SampleRecord("a", {})

    def test_json_suffix_reserved(self):
        with pytest.raises(ConfigurationError, match="reserved"):
            SampleRecord("a", {"json": b"{}"})


class TestPack:
    def test_three_samples_fit_one_big_shard(self, tmp_path):
        shards = pack_shards(_records(3), 1000, tmp_path)
        assert len(shards) == 1
        assert _manifest_counts(tmp_path) == [3]

    def test_ceiling_division_of_shard_sizes(self, tmp_path):
        shards = pack_shards(_records(5), 2, tmp_path)
        assert _manifest_counts(tmp_path) == [2, 2, 1]
        assert len(shards) == 3

    def test_empty_stream_writes_nothing(self, tmp_path):
        out = tmp_path / "none"
        shards = pack_shards([], 10, out)
        assert len(shards) == 0
        assert not out.exists() or not list(out.iterdir())

    def test_duplicate_key_names_offender(self, tmp_path):
        records = _records(2) + _records(1)
        with pytest.raises(ConfigurationError, match="utt0000"):
            pack_shards(records, 10, tmp_path)

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_failed_pack_leaves_earlier_files_whole(self, tmp_path, compress):
        """`e f g e` over `a b c d` replaces shard 0 and fails in shard 1. Shard 1
        keeps its bytes, and no manifest is left: the old one would read
        `e f c d`."""
        records = {key: SampleRecord(key, {"wav": key.encode()}) for key in "abcdefg"}
        pack_shards([records[key] for key in "abcd"], 2, tmp_path, compress=compress)
        shards = [f"shard_0000{i}.tar" + (".gz" if compress else "") for i in (0, 1)]
        before = (tmp_path / shards[1]).read_bytes()
        with pytest.raises(ConfigurationError, match="'e'"):
            pack_shards([records[key] for key in "efge"], 2, tmp_path, compress=compress)
        assert (tmp_path / shards[1]).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == shards

    def test_smaller_pack_lists_only_its_own_shards(self, tmp_path):
        pack_shards(_records(6), 2, tmp_path)
        shards = pack_shards(_records(2), 2, tmp_path)
        assert shard_list_from_manifest(tmp_path / "manifest.txt") == shards
        assert sorted(p.name for p in tmp_path.glob("shard_*")) == [f"shard_0000{i}.tar" for i in range(3)]

    def test_manifest_that_cannot_land_leaves_none(self, tmp_path, monkeypatch):
        pack_shards(_records(4), 2, tmp_path)
        replace = os.replace

        def replace_all_but_the_manifest(src, dst):
            if Path(dst).name == "manifest.txt":
                raise OSError("no room for the manifest")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_all_but_the_manifest)
        with pytest.raises(OSError, match="no room"):
            pack_shards(_records(6), 2, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"shard_0000{i}.tar" for i in range(3)]

    def test_record_entries_adjacent_and_ordered(self, tmp_path):
        pack_shards(_records(2), 10, tmp_path)
        with tarfile.open(tmp_path / "shard_00000.tar") as tar:
            names = tar.getnames()
        assert names == [
            "utt0000.txt", "utt0000.wav", "utt0000.json",
            "utt0001.txt", "utt0001.wav", "utt0001.json",
        ]

    def test_entry_name_over_100_bytes_names_key(self, tmp_path):
        key = "k" * 96  # "k...k.wav" is 100 bytes, "k...k.json" 101
        with pytest.raises(ConfigurationError, match=key):
            pack_shards([SampleRecord(key, {"wav": b"x"})], 10, tmp_path)
        assert list(tmp_path.iterdir()) == []
        longest = "k" * 95  # its metadata entry "k...k.json" is 100 bytes
        shards = pack_shards([SampleRecord(longest, {"wav": b"x"})], 10, tmp_path)
        assert [r.key for r in read_shards(shards)] == [longest]

    def test_entry_of_8_gib_rejected(self):
        largest = 8**11 - 1
        assert _ustar_header("a.wav", largest) == _tarfile_header("a.wav", largest)
        with pytest.raises(ConfigurationError, match="8 GiB"):
            _ustar_header("a.wav", 8**11)

    def test_packing_is_byte_deterministic(self, tmp_path):
        pack_shards(_records(4), 2, tmp_path / "a", compress=True)
        pack_shards(_records(4), 2, tmp_path / "b", compress=True)
        for name in ("shard_00000.tar.gz", "shard_00001.tar.gz", "manifest.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestRead:
    def test_round_trip_identity(self, tmp_path):
        records = _records(7)
        shards = pack_shards(records, 3, tmp_path)
        back = list(read_shards(shards))
        assert [r.key for r in back] == [r.key for r in records]
        for orig, got in zip(records, back):
            assert got.payloads == orig.payloads
            assert got.metadata == orig.metadata

    def test_gzip_round_trip(self, tmp_path):
        records = _records(4)
        shards = pack_shards(records, 2, tmp_path, compress=True)
        assert all(loc.endswith(".tar.gz") for loc in shards)
        back = list(read_shards(shards))
        assert [r.key for r in back] == [r.key for r in records]

    def test_identity_order_without_shuffle(self, tmp_path):
        shards = pack_shards(_records(5), 2, tmp_path)
        keys = [r.key for r in read_shards(shards)]
        assert keys == [f"utt{i:04d}" for i in range(5)]

    def test_seeded_shuffle_reorders_shards_reproducibly(self, tmp_path):
        shards = pack_shards(_records(6), 2, tmp_path)
        first = [r.key for r in read_shards(shards, shuffle=True, seed=9)]
        second = [r.key for r in read_shards(shards, shuffle=True, seed=9)]
        assert first == second
        # Order within each shard stays sequential.
        order = seeded_shuffle(shards, 9)
        expected = []
        for locator in order:
            base = shards.index(locator) * 2
            expected += [f"utt{base:04d}", f"utt{base + 1:04d}"]
        assert first == expected

    def test_reads_are_sequential_and_one_open_per_shard(self, tmp_path):
        shards = pack_shards(_records(20), 5, tmp_path)
        storage = InstrumentedStorage()
        consumed = sum(1 for _ in read_shards(shards, storage=storage))
        assert consumed == 20
        assert storage.opens == len(shards)
        for offsets in storage.read_offsets.values():
            assert offsets == sorted(offsets), "backward read within a shard"

    def test_unreadable_shard_policy(self, tmp_path):
        shards = pack_shards(_records(4), 2, tmp_path)
        broken = [shards[0], str(tmp_path / "missing.tar"), shards[1]]
        with pytest.raises(OSError):
            list(read_shards(broken))
        keys = [r.key for r in read_shards(broken, on_error="skip")]
        assert keys == [f"utt{i:04d}" for i in range(4)]

    def test_corrupt_shard_names_entry(self, tmp_path):
        shards = pack_shards(_records(3), 10, tmp_path)
        path = tmp_path / "shard_00000.tar"
        data = bytearray(path.read_bytes())
        data[1024:1040] = b"\xff" * 16  # clobber a header block
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="utt0000"):
            list(read_shards(shards))

    @pytest.mark.parametrize("metadata", [b"[1, 2]", b'{"a": 1}', b'{"a": {"b": "c"}}', b'"text"', b"null"])
    def test_metadata_not_a_string_map_rejected(self, metadata):
        good = _tar_with(tarfile.USTAR_FORMAT, [("u0.wav", b"w"), ("u0.json", b'{"a": "b"}')])
        bad = _tar_with(tarfile.USTAR_FORMAT, [("u1.wav", b"w"), ("u1.json", metadata)])
        storage = BytesStorage({"good.tar": good, "bad.tar": bad})
        with pytest.raises(ParseError, match=r"^bad\.tar: entry 'u1\.json' must hold a JSON object of string values$"):
            list(read_shards(["bad.tar"], storage=storage))
        records = list(read_shards(["bad.tar", "good.tar"], storage=storage, on_error="skip"))
        assert [(r.key, r.metadata) for r in records] == [("u0", {"a": "b"})]

    def test_deeply_nested_metadata_rejected(self):
        data = _tar_with(tarfile.USTAR_FORMAT, [("u1.wav", b"w"), ("u1.json", b"[" * 100_000)])
        with pytest.raises(ParseError, match="corrupt shard after entry 'u1.json'"):
            list(read_shards(["s.tar"], storage=BytesStorage({"s.tar": data})))

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([("d/u1.wav", b"w")], "sample key 'd/u1' must not contain path separators"),
            ([("u0.wav", b"w"), ("u1.json", b"{}")], "sample 'u1' has no payloads"),
        ],
        ids=["path_separator", "metadata_only"],
    )
    def test_entries_breaking_record_rules_are_parse_errors(self, entries, message):
        good = _tar_with(tarfile.USTAR_FORMAT, [("u9.wav", b"w")])
        storage = BytesStorage({"bad.tar": _tar_with(tarfile.USTAR_FORMAT, entries), "good.tar": good})
        with pytest.raises(ParseError) as info:
            list(read_shards(["bad.tar"], storage=storage))
        assert str(info.value) == f"bad.tar: {message}"
        records = list(read_shards(["bad.tar", "good.tar"], storage=storage, on_error="skip"))
        assert [r.key for r in records][-1] == "u9"

    def test_corrupt_gzip_shard_detected(self, tmp_path):
        shards = pack_shards(_records(3), 10, tmp_path, compress=True)
        path = tmp_path / "shard_00000.tar.gz"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # flip a bit mid-stream
        path.write_bytes(bytes(data))
        with pytest.raises((ParseError, OSError)):
            list(read_shards(shards))

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_every_cut_reads_all_records_or_raises(self, tmp_path, compress):
        records = _records(3)
        [locator] = pack_shards(records, 10, tmp_path, compress=compress)
        data = Path(locator).read_bytes()
        whole = []
        for cut in range(len(data) + 1):
            try:
                back = list(read_shards([locator], storage=BytesStorage({locator: data[:cut]})))
            except ParseError:
                continue
            assert back == records, f"cut at byte {cut}"
            whole.append(cut)
        if compress:
            assert whole == [len(data)]
        else:
            end_block = 9 * 1024  # nine entries of one header and one data block
            assert whole == list(range(end_block + 512, len(data) + 1))

    def test_gzip_shard_cut_to_three_bytes(self, tmp_path):
        shards = pack_shards(_records(4), 2, tmp_path, compress=True)
        path = Path(shards[0])
        path.write_bytes(path.read_bytes()[:3])
        with pytest.raises(ParseError, match="shard_00000.tar.gz"):
            list(read_shards(shards))
        assert [r.key for r in read_shards(shards, on_error="skip")] == ["utt0002", "utt0003"]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: data[:1024], "missing end-of-archive block"),
            (lambda data: data[:9216 + 100], "truncated header"),
            (lambda data: data[:600], "truncated entry data"),
            (lambda data: data[:-1] + b"x", "unreadable data"),
            (lambda data: data[:148] + b"0000000\0" + data[156:], "bad header checksum"),
            (lambda data: data[:148] + b"00x000\0 " + data[156:], "bad number"),
        ],
        ids=["cut_at_entry", "cut_in_end_block", "cut_in_data", "after_end", "checksum", "checksum_field"],
    )
    def test_malformed_archive_names_fault(self, tmp_path, edit, message):
        [locator] = pack_shards(_records(3), 10, tmp_path)
        data = edit(Path(locator).read_bytes())
        with pytest.raises(ParseError, match=message):
            list(read_shards([locator], storage=BytesStorage({locator: data})))

    def test_manifest_round_trip(self, tmp_path):
        pack_shards(_records(5), 2, tmp_path)
        shards = shard_list_from_manifest(tmp_path / "manifest.txt")
        assert len(shards) == 3
        assert [r.key for r in read_shards(shards)] == [f"utt{i:04d}" for i in range(5)]

    def test_repeated_locator_rejected_before_any_open(self, tmp_path):
        shards = pack_shards(_records(4), 2, tmp_path)
        storage = InstrumentedStorage()
        with pytest.raises(ConfigurationError, match="unique"):
            next(read_shards([shards[0], shards[1], shards[0]], storage=storage))
        assert storage.opens == 0

    @pytest.mark.parametrize(
        "shards,options,match",
        [(["a.tar", "b.tar", "a.tar"], {}, "unique"), (["a.tar"], {"on_error": "retry"}, "on_error")],
        ids=["repeated_locator", "bad_on_error"],
    )
    def test_bad_arguments_rejected_by_the_call(self, shards, options, match):
        storage = InstrumentedStorage()
        with pytest.raises(ConfigurationError, match=match):
            read_shards(shards, storage=storage, **options)  # no next(): the call itself checks
        assert storage.opens == 0

    def test_manifest_naming_a_shard_twice_rejected(self, tmp_path):
        pack_shards(_records(4), 2, tmp_path)
        manifest = tmp_path / "manifest.txt"
        first = manifest.read_text(encoding="utf-8").splitlines()[0]
        manifest.write_text(manifest.read_text(encoding="utf-8") + first + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"manifest\.txt:3.*shard_00000\.tar"):
            shard_list_from_manifest(manifest)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("shard_00000.tar two 10", "integers"),
            ("shard_00000.tar 2 1e3", "integers"),
            ("shard_00000.tar 2", "expected"),
        ],
    )
    def test_bad_manifest_line_cites_it(self, tmp_path, line, message):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"\n{line}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"manifest\.txt:2.*{message}"):
            shard_list_from_manifest(manifest)

    def test_epoch_coverage_exactly_once(self, tmp_path):
        records = _records(30)
        shards = pack_shards(records, 7, tmp_path)
        for seed in (0, 1, 2):
            keys = [r.key for r in read_shards(shards, shuffle=True, seed=seed)]
            assert sorted(keys) == [r.key for r in records]
            assert len(set(keys)) == len(records)


def _names_up_to_100_bytes():
    """Names of every byte length 1-100, ASCII and with 2- and 3-byte characters."""
    names = ["a" * n for n in range(1, 101)]
    for n in range(1, 101):
        head = "é語" * (n // 5)
        names.append(head + "b" * (n - len(head.encode("utf-8"))))
    assert sorted({len(name.encode("utf-8")) for name in names}) == list(range(1, 101))
    return names


_FORMATS = [tarfile.USTAR_FORMAT, tarfile.GNU_FORMAT, tarfile.PAX_FORMAT]


def _tar_with(format, entries, **options):
    """An archive `tarfile` writes: entries are (name, data) or (name, None) for a directory."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=format, **options) as tar:
        for name, data in entries:
            info = tarfile.TarInfo(name)
            info.mtime = 1_700_000_000.25  # a float mtime: PAX writes an extended header for it
            if data is None:
                info.type = tarfile.DIRTYPE
                tar.addfile(info)
            else:
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))
    return buf.getvalue()


@pytest.fixture(scope="module")
def packed_shards(tmp_path_factory):
    """One small shard per compression, as (locator, bytes)."""
    out = {}
    for compress in (False, True):
        [locator] = pack_shards(_records(3), 10, tmp_path_factory.mktemp("packed"), compress=compress)
        out[compress] = (locator, Path(locator).read_bytes())
    return out


class TestUstarAgainstTarfile:
    """The direct ustar code against Python's `tarfile` and the tarfile-based reference."""

    def test_header_bytes_match_tarfile(self):
        for name in _names_up_to_100_bytes():
            for size in (0, 1, 511, 512, 513, 1 << 20):
                assert _ustar_header(name, size) == _tarfile_header(name, size), (name, size)

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_shard_bytes_match_tarfile_writer(self, tmp_path, compress):
        records = []
        for i, key in enumerate(_names_up_to_100_bytes()):
            if len(key.encode("utf-8")) <= 95:  # "key.json" fits in 100 bytes
                payload = bytes([i % 256]) * (0, 1, 512, 1500)[i % 4]
                records.append(SampleRecord(key, {"wav": payload, "txt": key.encode()}, {"text": key}))
        shards = pack_shards(records, len(records), tmp_path / "direct", compress=compress)
        [shard] = shards
        reference = tmp_path / "reference.tar"
        tarfile_write_shard(reference, records, compress=compress)
        assert Path(shard).read_bytes() == reference.read_bytes()
        assert list(read_shards(shards)) == records

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    @pytest.mark.parametrize("format", _FORMATS, ids=["ustar", "gnu", "pax"])
    def test_reader_matches_tarfile_reader(self, format, compress):
        long_key = "k" * 146  # 150-byte names: a GNU long name, or a pax path
        entries = [("data", None), ("utt1.wav", b"\x01" * 1500), ("utt1.txt", b""), ("utt1.json", b'{"a": "\xc3\xa9"}')]
        entries += [("datos_é", None), ("ütt2.wav", b"\x02" * 512), ("ütt2.json", b"{}")]
        if format != tarfile.USTAR_FORMAT:
            entries += [(f"{long_key}.wav", b"\x03" * 100), (f"{long_key}.json", b"{}")]
        options = {"pax_headers": {"comment": "global"}} if format == tarfile.PAX_FORMAT else {}
        data = _tar_with(format, entries, **options)
        locator = "shard.tar.gz" if compress else "shard.tar"
        if compress:
            data = gzip.compress(data, mtime=0)
        got = list(read_shards([locator], storage=BytesStorage({locator: data})))
        expected = list(tarfile_read_shard(io.BytesIO(data), locator))
        assert got == expected
        assert [r.key for r in got] == ["utt1", "ütt2"] + ([long_key] if format != tarfile.USTAR_FORMAT else [])

    @pytest.mark.parametrize("format", _FORMATS, ids=["ustar", "gnu", "pax"])
    def test_entry_names_match_tarfile(self, format):
        # A 150-byte name with a "/" is split into ustar prefix and name.
        entries = [("d/", None), (f"{'p' * 60}/{'q' * 89}", b"long"), ("d/é.txt", b"x" * 700), ("e", b"")]
        data = _tar_with(format, entries)
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            expected = [(m.name, tar.extractfile(m).read()) for m in tar if m.isfile()]
        assert list(_ustar_entries(io.BytesIO(data), "shard.tar")) == expected
        assert [name for name, _ in expected] == [entries[1][0], "d/é.txt", "e"]

    def test_pax_size_record_overrides_header(self):
        info = tarfile.TarInfo("a.txt")  # its ustar header says 0 bytes
        info.pax_headers = {"size": "5"}
        data = info.tobuf(tarfile.PAX_FORMAT) + b"hello".ljust(512, b"\0") + bytes(1024)
        assert list(_ustar_entries(io.BytesIO(data), "shard.tar")) == [("a.txt", b"hello")]
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            assert [(m.name, tar.extractfile(m).read()) for m in tar] == [("a.txt", b"hello")]

    def test_huge_size_field_reads_in_pieces(self):
        requested = []

        class Recording(io.BytesIO):
            def read(self, n=-1):
                requested.append(n)
                return super().read(n)

        data = _ustar_header("a.wav", 8**11 - 1) + b"x" * 5000
        with pytest.raises(ParseError, match="truncated entry data"):
            list(_ustar_entries(Recording(data), "shard.tar"))
        assert 0 < max(requested) <= 1 << 20

    @pytest.mark.parametrize(
        "entry",
        [
            _with_checksum(_ustar_header("é.txt", 3), signed=True) + b"abc".ljust(512, b"\0"),
            _with_checksum(_ustar_header("d/", 0)[:156] + b"\0" + _ustar_header("d/", 0)[157:]),
            _with_checksum(_ustar_header("d", 512)[:156] + b"5" + _ustar_header("d", 512)[157:]),
        ],
        ids=["signed_checksum", "old_style_directory", "directory_with_size"],
    )
    def test_hand_made_entry_read_as_tarfile_reads_it(self, entry):
        data = entry + _ustar_header("e.txt", 1) + b"e".ljust(512, b"\0") + bytes(1024)
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            expected = [(m.name, tar.extractfile(m).read()) for m in tar if m.isfile()]
        assert list(_ustar_entries(io.BytesIO(data), "shard.tar")) == expected
        assert expected[-1] == ("e.txt", b"e")

    def test_extension_header_without_entry_rejected(self):
        info = tarfile.TarInfo("a.txt")
        info.pax_headers = {"path": "b.txt"}
        pax_only = info.tobuf(tarfile.PAX_FORMAT)[:-512]
        with pytest.raises(ParseError, match="without an entry"):
            list(_ustar_entries(io.BytesIO(pax_only + bytes(1024)), "shard.tar"))

    @given(
        compress=st.booleans(),
        edits=st.lists(
            st.tuples(st.one_of(st.integers(0, 3071), st.integers(0, 10239)), st.integers(0, 255)), max_size=6
        ),
        cut=st.one_of(st.none(), st.integers(0, 10240)),
    )
    def test_mutated_shard_raises_only_engine_or_os_errors(self, packed_shards, compress, edits, cut):
        locator, original = packed_shards[compress]
        data = bytearray(original)
        for pos, byte in edits:
            data[pos % len(data)] = byte
        storage = BytesStorage({locator: bytes(data[:cut])})
        try:
            list(read_shards([locator], storage=storage))
        except (EngineError, OSError):
            pass


class TestRawReader:
    def _manifest(self, tmp_path, n=3):
        lines = []
        for i in range(n):
            wav = tmp_path / f"s{i}.wav"
            txt = tmp_path / f"s{i}.txt"
            wav.write_bytes(b"wav" + bytes([i]))
            txt.write_text(f"line {i}")
            lines.append(f"s{i} {wav.name} {txt.name}")
        manifest = tmp_path / "raw.list"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return manifest

    def test_reads_in_order(self, tmp_path):
        reader = RawSampleReader.from_file(self._manifest(tmp_path))
        records = list(reader)
        assert [r.key for r in records] == ["s0", "s1", "s2"]
        assert records[1].payloads["txt"] == b"line 1"

    def test_seek_then_read(self, tmp_path):
        reader = RawSampleReader.from_file(self._manifest(tmp_path))
        reader.seek(1)
        assert reader.read().key == "s1"

    def test_missing_file_names_key_and_path(self, tmp_path):
        manifest = self._manifest(tmp_path)
        (tmp_path / "s1.wav").unlink()
        reader = RawSampleReader.from_file(manifest)
        with pytest.raises(FileNotFoundError, match="s1"):
            reader.record(1)

    def test_random_access_by_index(self, tmp_path):
        reader = RawSampleReader.from_file(self._manifest(tmp_path))
        assert reader.record(2).key == "s2"
        assert reader.record(0).key == "s0"


class TestChainOps:
    def test_empty_chain_is_identity(self):
        records = _records(4)
        assert list(chain([], iter(records))) == records

    def test_filter_then_batch(self):
        records = _records(5)
        out = list(chain([Filter(lambda r: True), Batch(2)], iter(records)))
        assert [len(b) for b in out] == [2, 2, 1]

    def test_shuffle_deterministic_across_runs(self):
        records = _records(12)
        a = [r.key for r in chain([Shuffle(buffer_size=4, seed=7)], iter(records))]
        b = [r.key for r in chain([Shuffle(buffer_size=4, seed=7)], iter(records))]
        assert a == b
        assert sorted(a) == [r.key for r in records]

    def test_incompatible_ops_rejected_before_streaming(self):
        with pytest.raises(ConfigurationError, match="Filter"):
            chain([Batch(2), Filter(lambda r: True)], iter(_records(2)))

    def test_map_transforms(self):
        out = list(chain([Map(lambda r: r.key)], iter(_records(2))))
        assert out == ["utt0000", "utt0001"]

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32))
    def test_shuffle_is_permutation(self, buffer_size, seed):
        keys = [f"k{i}" for i in range(17)]
        out = list(Shuffle(buffer_size, seed).apply(iter(keys)))
        assert sorted(out) == sorted(keys)


class TestStorage:
    def test_file_url_accepted(self, tmp_path):
        target = tmp_path / "x.bin"
        target.write_bytes(b"abc")
        storage = LocalStorage()
        with storage.open_read(f"file://{target}") as handle:
            assert handle.read() == b"abc"

    def test_remote_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="s3"):
            LocalStorage().open_read("s3://bucket/shard.tar")


def test_splitmix64_reference_vector():
    # Reference outputs for seed 1234567 (published SplitMix64 test vector).
    rng = SplitMix64(1234567)
    got = [rng.next_u64() for _ in range(3)]
    assert got == [6457827717110365317, 3203168211198807973, 9817491932198370423]
