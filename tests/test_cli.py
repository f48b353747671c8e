from pathlib import Path

import pytest

from ctcdec.cli import main

DATA = Path(__file__).parent / "data"


def _build(tmp_path, name="graph"):
    out = tmp_path / name
    code = main([
        "build-graph",
        "--units", str(DATA / "units.txt"),
        "--lexicon", str(DATA / "lexicon.txt"),
        "--arpa", str(DATA / "lm.arpa"),
        "--out", str(out),
    ])
    assert code == 0
    return out


class TestBuildGraph:
    def test_outputs_and_counts(self, tmp_path, capsys):
        out = _build(tmp_path)
        printed = capsys.readouterr().out
        for name in ("T", "L", "G", "TLG"):
            assert f"{name}:" in printed
            assert (out / f"{name}.fst").exists()
        assert (out / "tokens.txt").exists()
        assert (out / "words.txt").exists()

    def test_byte_deterministic_across_runs(self, tmp_path):
        a = _build(tmp_path, "a")
        b = _build(tmp_path, "b")
        for name in ("T.fst", "L.fst", "G.fst", "TLG.fst", "tokens.txt", "units.txt", "words.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_matches_committed_golden(self, tmp_path):
        out = _build(tmp_path)
        golden = DATA / "golden" / "TLG.fst"
        assert (out / "TLG.fst").read_bytes() == golden.read_bytes()

    def test_without_arpa_is_t_only(self, tmp_path, capsys):
        out = tmp_path / "nolm"
        code = main(["build-graph", "--units", str(DATA / "units.txt"), "--out", str(out)])
        assert code == 0
        assert (out / "T.fst").exists()
        assert (out / "tokens.txt").exists()
        assert not (out / "TLG.fst").exists()

    def test_malformed_lexicon_line_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.lex"
        bad.write_text("ab a b\nac a c\nbroken\n", encoding="utf-8")
        code = main([
            "build-graph",
            "--units", str(DATA / "units.txt"),
            "--lexicon", str(bad),
            "--arpa", str(DATA / "lm.arpa"),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert ":3:" in capsys.readouterr().err


class TestDecode:
    def test_with_lm_matches_golden(self, tmp_path):
        graph = _build(tmp_path)
        out = tmp_path / "nbest.txt"
        code = main([
            "decode", str(DATA / "utt1.post"),
            "--graph-dir", str(graph),
            "--output", str(out),
            "--nbest", "3", "--beam", "3",
        ])
        assert code == 0
        assert out.read_bytes() == (DATA / "golden" / "decode_lm.txt").read_bytes()
        assert "ab" in out.read_text().splitlines()[1]

    def test_lmfree_context_score_flips_top1(self, tmp_path, capsys):
        base = [
            "decode", str(DATA / "utt2.post"),
            "--units", str(DATA / "units.txt"),
            "--context-file", str(DATA / "phrases_ab.txt"),
        ]
        assert main(base + ["--context-score", "0"]) == 0
        unbiased = capsys.readouterr().out
        assert unbiased.splitlines()[1].split("\t")[1] == "c"
        assert main(base + ["--context-score", "5"]) == 0
        biased = capsys.readouterr().out
        assert biased.splitlines()[1].split("\t")[1] == "a b"

    def test_context_score_zero_bit_identical_to_no_context(self, tmp_path, capsys):
        args = ["decode", str(DATA / "utt2.post"), "--units", str(DATA / "units.txt")]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--context-file", str(DATA / "phrases_ab.txt"), "--context-score", "0"]) == 0
        with_zero = capsys.readouterr().out
        assert plain == with_zero

    def test_with_lm_word_level_biasing_flips_top1(self, tmp_path, capsys):
        graph = _build(tmp_path)
        capsys.readouterr()  # drop build-graph count lines
        base = ["decode", str(DATA / "utt1.post"), "--graph-dir", str(graph),
                "--context-file", str(DATA / "phrases.txt")]
        assert main(base + ["--context-score", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith("\tab")
        assert main(base + ["--context-score", "6"]) == 0
        top = capsys.readouterr().out.splitlines()[1]
        assert top.endswith("\tac")
        assert top.split()[3] == "6.000000"  # one boosted word

    @pytest.mark.parametrize("mode", ["lmfree", "graph"])
    def test_blank_skip_threshold_is_applied(self, tmp_path, capsys, mode):
        # Frame 1 has blank probability 0.6: a threshold of 0.5 drops it,
        # 1.0 keeps it. Dropping it must equal decoding without that frame.
        rows = ["0.05 0.85 0.05 0.05", "0.6 0.1 0.2 0.1", "0.05 0.05 0.85 0.05"]
        (tmp_path / "full").mkdir()
        (tmp_path / "cut").mkdir()
        full = tmp_path / "full" / "utt.post"
        cut = tmp_path / "cut" / "utt.post"
        full.write_text("3 4 prob\n" + "\n".join(rows) + "\n", encoding="utf-8")
        cut.write_text("2 4 prob\n" + "\n".join(rows[::2]) + "\n", encoding="utf-8")
        if mode == "graph":
            where = ["--graph-dir", str(_build(tmp_path))]
            capsys.readouterr()
        else:
            where = ["--units", str(DATA / "units.txt")]

        def decode(path, threshold):
            assert main(["decode", str(path), *where, "--blank-skip-threshold", threshold]) == 0
            return capsys.readouterr().out

        skipped = decode(full, "0.5")
        kept = decode(full, "1.0")
        assert skipped != kept
        assert skipped == decode(cut, "1.0")
        assert kept == decode(full, "0.98")

    def test_token_count_mismatch_names_both_counts(self, tmp_path, capsys):
        narrow = tmp_path / "narrow.post"
        narrow.write_text("1 2 prob\n0.5 0.5\n", encoding="utf-8")
        code = main(["decode", str(narrow), "--units", str(DATA / "units.txt")])
        assert code == 1
        err = capsys.readouterr().err
        assert "2" in err and "4" in err

    def test_beam_is_a_prefix_search_option_only(self, tmp_path, capsys):
        # WFST search never reads `beam`, so it must not bound `nbest` there.
        graph = _build(tmp_path)
        capsys.readouterr()
        assert main(["decode", str(DATA / "utt1.post"), "--graph-dir", str(graph), "--nbest", "20"]) == 0
        assert 1 < len(capsys.readouterr().out.splitlines()) <= 21
        assert main(["decode", str(DATA / "utt1.post"), "--units", str(DATA / "units.txt"), "--nbest", "20"]) == 1
        assert "beam (10) must be >= nbest (20)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode,flags,name",
        [
            ("graph", ["--score-beam", "nan"], "score_beam"),
            ("graph", ["--score-beam", "-1"], "score_beam"),
            ("graph", ["--lm-scale", "nan"], "lm_scale"),
            ("graph", ["--acoustic-scale", "inf"], "acoustic_scale"),
            ("graph", ["--word-penalty", "nan"], "word_penalty"),
            ("graph", ["--context-file", str(DATA / "phrases.txt"), "--context-score", "nan"], "boost"),
            ("lmfree", ["--context-file", str(DATA / "phrases_ab.txt"), "--context-score", "nan"], "boost"),
        ],
        ids=[
            "score-beam-nan", "score-beam-negative", "lm-scale-nan", "acoustic-scale-inf",
            "word-penalty-nan", "context-score-nan-graph", "context-score-nan-lmfree",
        ],
    )
    def test_non_finite_or_out_of_range_option_rejected(self, tmp_path, capsys, mode, flags, name):
        if mode == "graph":
            where = ["--graph-dir", str(_build(tmp_path))]
            capsys.readouterr()
        else:
            where = ["--units", str(DATA / "units.txt")]
        assert main(["decode", str(DATA / "utt1.post"), *where, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert name in captured.err

    def test_decode_plus_rescore_tables(self, tmp_path):
        l2r = tmp_path / "l2r.txt"
        r2l = tmp_path / "r2l.txt"
        l2r.write_text("-0.1 c\n-0.2 a b\n", encoding="utf-8")
        r2l.write_text("-0.1 c\n-0.2 b a\n", encoding="utf-8")
        out = tmp_path / "nbest.txt"
        code = main([
            "decode", str(DATA / "utt2.post"),
            "--units", str(DATA / "units.txt"),
            "--output", str(out),
            "--l2r-table", str(l2r), "--r2l-table", str(r2l),
        ])
        assert code == 0
        rescored = Path(str(out) + ".rescored")
        assert rescored.exists()
        assert rescored.read_text().startswith("# utt utt2")

    def test_config_file_overridden_by_flag(self, tmp_path, capsys):
        config = tmp_path / "decode.conf"
        config.write_text("context_score = 5\nnbest = 2\nbeam = 2\n", encoding="utf-8")
        base = [
            "decode", str(DATA / "utt2.post"),
            "--units", str(DATA / "units.txt"),
            "--context-file", str(DATA / "phrases_ab.txt"),
            "--config", str(config),
        ]
        assert main(base) == 0
        from_config = capsys.readouterr().out
        assert from_config.splitlines()[1].split("\t")[1] == "a b"
        assert len(from_config.splitlines()) == 3  # header + nbest 2
        assert main(base + ["--context-score", "0"]) == 0
        overridden = capsys.readouterr().out
        top = overridden.splitlines()[1].split("\t")
        assert top[1] != "a b"  # flag disabled the boost configured in the file
        assert top[0].split()[3] == "0.000000"  # zero context component

    def test_help_documents_every_option_with_default(self, capsys):
        with pytest.raises(SystemExit):
            import ctcdec.cli as cli

            cli.build_parser().parse_args(["decode", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for flag, default in [
            ("--beam", "10"),
            ("--nbest", "10"),
            ("--acoustic-scale", "1.0"),
            ("--lm-scale", "1.0"),
            ("--blank-skip-threshold", "0.98"),
            ("--context-score", "0.0"),
            ("--alpha", "0.3"),
            ("--ctc-weight", "0.5"),
            ("--word-penalty", "0.0"),
            ("--score-beam", "16.0"),
            ("--max-active", "7000"),
        ]:
            assert flag in text, flag
            assert f"default: {default}" in text, flag


class TestRescoreCommand:
    def test_round_trip(self, tmp_path, capsys):
        args = ["decode", str(DATA / "utt2.post"), "--units", str(DATA / "units.txt"),
                "--output", str(tmp_path / "nbest.txt")]
        assert main(args) == 0
        l2r = tmp_path / "l2r.txt"
        r2l = tmp_path / "r2l.txt"
        l2r.write_text("10.0 a b\n", encoding="utf-8")
        r2l.write_text("10.0 b a\n", encoding="utf-8")
        code = main([
            "rescore", str(tmp_path / "nbest.txt"),
            "--l2r-table", str(l2r), "--r2l-table", str(r2l),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].split("\t")[1] == "a b"  # boosted to the top

    def test_bad_config_value_is_parse_error(self, tmp_path, capsys):
        # `rescore` resolves its options like `decode`: a bad config value exits 2.
        nbest = tmp_path / "nbest.txt"
        assert main(["decode", str(DATA / "utt2.post"), "--units", str(DATA / "units.txt"),
                     "--output", str(nbest)]) == 0
        table = tmp_path / "table.txt"
        table.write_text("1.0 a b\n", encoding="utf-8")
        config = tmp_path / "rescore.conf"
        config.write_text("alpha = abc\n", encoding="utf-8")
        args = ["rescore", str(nbest), "--l2r-table", str(table), "--r2l-table", str(table)]
        assert main(args + ["--config", str(config)]) == 2
        assert "bad value for alpha" in capsys.readouterr().err
        assert main(args + ["--ctc-weight", "nan"]) == 1
        assert "ctc_weight" in capsys.readouterr().err


class TestShardCommands:
    def _raw_manifest(self, tmp_path, n=3):
        lines = []
        for i in range(n):
            wav = tmp_path / f"s{i}.wav"
            wav.write_bytes(b"audio%d" % i)
            txt = tmp_path / f"s{i}.txt"
            txt.write_text(f"words {i}")
            lines.append(f"s{i} {wav.name} {txt.name}")
        manifest = tmp_path / "raw.list"
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return manifest

    def test_pack_then_cat_lists_keys_in_order(self, tmp_path, capsys):
        manifest = self._raw_manifest(tmp_path)
        out = tmp_path / "shards"
        assert main(["pack", str(manifest), "--out", str(out), "--shard-size", "2"]) == 0
        capsys.readouterr()
        assert main(["cat-shards", str(out / "manifest.txt")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l.split()[0] for l in lines] == ["s0", "s1", "s2"]

    def test_pack_duplicate_key_fails(self, tmp_path, capsys):
        manifest = self._raw_manifest(tmp_path)
        text = manifest.read_text() + "s0 s0.wav s0.txt\n"
        manifest.write_text(text, encoding="utf-8")
        assert main(["pack", str(manifest), "--out", str(tmp_path / "x")]) == 1
        assert "s0" in capsys.readouterr().err

    def test_cat_corrupted_tar_fails_naming_entry(self, tmp_path, capsys):
        manifest = self._raw_manifest(tmp_path)
        out = tmp_path / "shards"
        assert main(["pack", str(manifest), "--out", str(out), "--shard-size", "10"]) == 0
        shard = out / "shard_00000.tar"
        data = bytearray(shard.read_bytes())
        data[3072:3096] = b"\xff" * 24  # clobber the header block of s1's first entry
        shard.write_bytes(bytes(data))
        capsys.readouterr()
        code = main(["cat-shards", str(shard)])
        assert code != 0
        assert "s0" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
