import io
import tarfile
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

    def test_nan_arpa_logprob_exits_2(self, tmp_path, capsys):
        arpa = tmp_path / "nan.arpa"
        arpa.write_text((DATA / "lm.arpa").read_text().replace("-0.5228787", "nan", 1), encoding="utf-8")
        code = main([
            "build-graph",
            "--units", str(DATA / "units.txt"),
            "--lexicon", str(DATA / "lexicon.txt"),
            "--arpa", str(arpa),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "NaN or +inf" in capsys.readouterr().err

    def test_arpa_without_lexicon_is_usage_error(self, tmp_path, capsys):
        args = ["build-graph", "--units", str(DATA / "units.txt"), "--arpa", str(DATA / "lm.arpa")]
        assert main([*args, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == "error: --arpa requires --lexicon\n"
        assert not (tmp_path / "x").exists()

    def test_negative_state_in_graph_exits_2(self, tmp_path, capsys):
        graph = _build(tmp_path)
        tlg = graph / "TLG.fst"
        lines = tlg.read_text(encoding="utf-8").splitlines()
        tlg.write_text("\n".join(lines + ["-2 0"]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["decode", str(DATA / "utt1.post"), "--graph-dir", str(graph)]) == 2
        assert f"TLG.fst:{len(lines) + 1}: " in capsys.readouterr().err


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

    @pytest.mark.parametrize("name", ["ab", "nosuchfile.txt"])
    def test_missing_context_file_is_an_error(self, tmp_path, capsys, monkeypatch, name):
        # A missing file is never read as phrase text: "ab" would bias "a b".
        monkeypatch.chdir(tmp_path)
        code = main([
            "decode", str(DATA / "utt1.post"), "--units", str(DATA / "units.txt"),
            "--context-file", name, "--context-score", "3",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert name in err and "No such file" in err

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

    @pytest.mark.parametrize("mode", ["lmfree", "graph"])
    @pytest.mark.parametrize(
        "bad,message",
        [
            ("0.5 0.5 0.0", "expected 4 values, found 3"),
            ("0.5 0.5 0.0 0.0 0.0", "expected 4 values, found 5"),
            ("0.5 0.5 0.0 1_0", "non-numeric posterior value"),
            ("0.5 nan 0.0 0.0", "posterior row 1 holds NaN or +inf"),
            ("0.5 inf 0.0 0.0", "posterior row 1 holds NaN or +inf"),
            ("0.5 0.2 0.0 0.0", "posterior row 1 is not normalized"),
        ],
    )
    def test_bad_posterior_line_exits_2_citing_it(self, tmp_path, capsys, mode, bad, message):
        post = tmp_path / "bad.post"
        post.write_text(f"3 4 prob\n0.97 0.01 0.01 0.01\n{bad}\n0.97 0.01 0.01 0.01\n", encoding="utf-8")
        where = ["--graph-dir", str(_build(tmp_path))] if mode == "graph" else ["--units", str(DATA / "units.txt")]
        capsys.readouterr()
        assert main(["decode", str(post), *where]) == 2
        assert f"{post}:3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("0 2000000000 1 1 0.0", "state id 2000000000 is too large"),
            ("0 1 1 1 0.0 x", "expected arc or final-state line"),
            ("0 1 1 1 1_0", "cannot read"),
        ],
    )
    def test_bad_graph_line_exits_2_citing_it(self, tmp_path, capsys, bad, message):
        graph = _build(tmp_path)
        tlg = graph / "TLG.fst"
        lines = tlg.read_text(encoding="utf-8").splitlines()
        lines.insert(2, bad)
        tlg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["decode", str(DATA / "utt1.post"), "--graph-dir", str(graph)]) == 2
        assert f"{tlg}:3: {message}" in capsys.readouterr().err

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

    def test_no_graph_dir_or_units_is_usage_error(self, capsys):
        assert main(["decode", str(DATA / "utt1.post")]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: decode needs --graph-dir or --units\n")

    @pytest.mark.parametrize("flag", ["--l2r-table", "--r2l-table"])
    def test_one_rescoring_table_is_usage_error(self, tmp_path, capsys, flag):
        table = tmp_path / "table.txt"
        table.write_text("1.0 a b\n", encoding="utf-8")
        assert main(["decode", str(DATA / "utt1.post"), "--units", str(DATA / "units.txt"), flag, str(table)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: rescoring needs both --l2r-table and --r2l-table\n")

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

    def test_unknown_config_key_is_parse_error(self, tmp_path, capsys):
        config = tmp_path / "decode.conf"
        config.write_text("nbest = 2\nbeem = 5\n", encoding="utf-8")
        code = main(["decode", str(DATA / "utt2.post"), "--units", str(DATA / "units.txt"),
                     "--config", str(config)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{config}:2: unknown option 'beem'" in captured.err

    def test_bad_config_value_names_file_and_line(self, tmp_path, capsys):
        config = tmp_path / "decode.conf"
        config.write_text("# search\nnbest = 2\nbeam = ten\n", encoding="utf-8")
        code = main(["decode", str(DATA / "utt2.post"), "--units", str(DATA / "units.txt"),
                     "--config", str(config)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{config}:3: bad value for beam: 'ten'" in captured.err

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

    def test_one_config_serves_decode_and_rescore(self, tmp_path, capsys):
        config = tmp_path / "both.conf"
        config.write_text("beam = 4\nnbest = 2\nalpha = 1\nctc_weight = 0\n", encoding="utf-8")
        nbest = tmp_path / "nbest.txt"
        assert main(["decode", str(DATA / "utt2.post"), "--units", str(DATA / "units.txt"),
                     "--config", str(config), "--output", str(nbest)]) == 0
        l2r, r2l = tmp_path / "l2r.txt", tmp_path / "r2l.txt"
        l2r.write_text("0.0 b\n-5.0 c\n", encoding="utf-8")
        r2l.write_text("-5.0 b\n0.0 c\n", encoding="utf-8")
        args = ["rescore", str(nbest), "--l2r-table", str(l2r), "--r2l-table", str(r2l)]
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines()[1].split("\t")[1] == "b"  # default fusion
        assert main(args + ["--config", str(config)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 3  # header + the 2 hypotheses decoded with the same file
        assert rows[1].split("\t")[:2] == ["1 0.000000 -1.548813 0.000000 0.000000", "c"]  # r2l alone

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_nbest_score_is_parse_error(self, tmp_path, capsys, bad):
        nbest = tmp_path / "nbest.txt"
        assert main(["decode", str(DATA / "utt2.post"), "--units", str(DATA / "units.txt"),
                     "--output", str(nbest)]) == 0
        lines = nbest.read_text(encoding="utf-8").splitlines(keepends=True)
        head, rest = lines[2].split("\t", 1)
        fields = head.split()
        fields[2] = bad  # the ctc score of rank 2
        lines[2] = " ".join(fields) + "\t" + rest
        nbest.write_text("".join(lines), encoding="utf-8")
        table = tmp_path / "table.txt"
        table.write_text("1.0 a b\n", encoding="utf-8")
        code = main(["rescore", str(nbest), "--l2r-table", str(table), "--r2l-table", str(table)])
        assert code == 2
        assert f"{nbest}:3: score is NaN or +inf" in capsys.readouterr().err

    @pytest.mark.parametrize("line, bad_rank, rank", [(3, "1", 2), (3, "3", 2), (5, "2", 1), (3, "2.0", 2)])
    def test_rank_must_be_the_position_in_its_section(self, tmp_path, capsys, line, bad_rank, rank):
        nbest = tmp_path / "nbest.txt"
        nbest.write_text(
            "# utt one\n1 -1 -1 0 0\ta\t\n2 -2 -2 0 0\tb\t\n# utt two\n1 -1 -1 0 0\ta\t\n",
            encoding="utf-8",
        )
        table = tmp_path / "table.txt"
        table.write_text("1.0 a\n", encoding="utf-8")
        args = ["rescore", str(nbest), "--l2r-table", str(table), "--r2l-table", str(table)]
        assert main(args) == 0  # ranks restart at 1 in each section
        capsys.readouterr()
        lines = nbest.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[line - 1] = bad_rank + lines[line - 1][1:]
        nbest.write_text("".join(lines), encoding="utf-8")
        assert main(args) == 2
        assert f"{nbest}:{line}: expected rank {rank}, found {bad_rank!r}" in capsys.readouterr().err

    def test_rank_field_of_score_numbers_is_rejected(self, tmp_path, capsys):
        nbest = tmp_path / "nbest.txt"
        nbest.write_text("# utt one\nfoo 1 2 3 4\ta\t\n", encoding="utf-8")
        table = tmp_path / "table.txt"
        table.write_text("1.0 a\n", encoding="utf-8")
        code = main(["rescore", str(nbest), "--l2r-table", str(table), "--r2l-table", str(table)])
        assert code == 2
        assert f"{nbest}:2: expected rank 1, found 'foo'" in capsys.readouterr().err


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

    def test_pack_key_too_long_for_ustar_fails_naming_it(self, tmp_path, capsys):
        key = "k" * 97
        (tmp_path / "long.wav").write_bytes(b"audio")
        manifest = tmp_path / "raw.list"
        manifest.write_text(f"{key} long.wav\n", encoding="utf-8")
        assert main(["pack", str(manifest), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert key in err and "100" in err
        assert "Traceback" not in err

    def test_cat_same_shard_twice_fails_before_listing(self, tmp_path, capsys):
        manifest = self._raw_manifest(tmp_path)
        out = tmp_path / "shards"
        assert main(["pack", str(manifest), "--out", str(out)]) == 0
        capsys.readouterr()
        shard = str(out / "shard_00000.tar")
        assert main(["cat-shards", shard, shard]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unique" in captured.err

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


    @pytest.mark.parametrize(
        "entries, message",
        [
            ([("u1.wav", b"w"), ("u1.json", b"[1, 2]")], "entry 'u1.json' must hold a JSON object of string values"),
            ([("u1.wav", b"w"), ("u1.json", b'{"a": 1}')], "entry 'u1.json' must hold a JSON object of string values"),
            ([("d/u1.wav", b"w")], "sample key 'd/u1' must not contain path separators"),
            ([("u1.json", b"{}")], "sample 'u1' has no payloads"),
        ],
        ids=["metadata_list", "metadata_int_value", "path_separator", "metadata_only"],
    )
    def test_cat_shard_with_bad_record_is_parse_error(self, tmp_path, capsys, entries, message):
        shard = tmp_path / "bad.tar"
        with tarfile.open(shard, "w", format=tarfile.USTAR_FORMAT) as tar:
            for name, data in entries:
                info = tarfile.TarInfo(name)
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))
        assert main(["cat-shards", str(shard)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{shard}: {message}" in captured.err
        assert "Traceback" not in captured.err

class TestTextInputBoundaries:
    """Inputs that are not UTF-8, and numbers outside ASCII, exit 2 citing their line."""

    @staticmethod
    def _exits_2(capsys, args, where):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert where in captured.err
        assert "Traceback" not in captured.err

    @staticmethod
    def _with_bad_byte(tmp_path, source: Path, line: int) -> Path:
        """A copy of `source` with byte 0xff at the start of `line`."""
        lines = source.read_bytes().splitlines(keepends=True)
        lines[line - 1] = b"\xff" + lines[line - 1]
        out = tmp_path / ("bad_" + source.name)
        out.write_bytes(b"".join(lines))
        return out

    def _nbest(self, tmp_path, capsys) -> Path:
        nbest = tmp_path / "nbest.txt"
        assert main(["decode", str(DATA / "utt2.post"), "--units", str(DATA / "units.txt"),
                     "--output", str(nbest)]) == 0
        capsys.readouterr()
        return nbest

    def _rescore(self, tmp_path, nbest: Path) -> list[str]:
        table = tmp_path / "table.txt"
        table.write_text("1.0 a b\n", encoding="utf-8")
        return ["rescore", str(nbest), "--l2r-table", str(table), "--r2l-table", str(table)]

    @pytest.mark.parametrize("name", ["posterior", "units"])
    def test_decode_input_not_utf8(self, tmp_path, capsys, name):
        post, units = DATA / "utt2.post", DATA / "units.txt"
        if name == "posterior":
            post = bad = self._with_bad_byte(tmp_path, post, 3)
        else:
            units = bad = self._with_bad_byte(tmp_path, units, 3)
        self._exits_2(capsys, ["decode", str(post), "--units", str(units)], f"{bad}:3: byte 0xff is not UTF-8")

    @pytest.mark.parametrize("name", ["units", "lexicon", "arpa"])
    def test_build_graph_input_not_utf8(self, tmp_path, capsys, name):
        paths = {"units": DATA / "units.txt", "lexicon": DATA / "lexicon.txt", "arpa": DATA / "lm.arpa"}
        bad = paths[name] = self._with_bad_byte(tmp_path, paths[name], 2)
        args = ["build-graph", "--out", str(tmp_path / "graph")]
        for flag, path in paths.items():
            args += ["--" + flag, str(path)]
        self._exits_2(capsys, args, f"{bad}:2: byte 0xff is not UTF-8")

    def test_rescore_nbest_not_utf8(self, tmp_path, capsys):
        bad = self._with_bad_byte(tmp_path, self._nbest(tmp_path, capsys), 3)
        self._exits_2(capsys, self._rescore(tmp_path, bad), f"{bad}:3: byte 0xff is not UTF-8")

    def test_cat_shards_manifest_not_utf8(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_bytes(b"a.tar 1 10\nb\xff.tar 1 10\n")
        self._exits_2(capsys, ["cat-shards", str(manifest)], f"{manifest}:2: byte 0xff is not UTF-8")

    @pytest.mark.parametrize("field, value, message", [
        (0, "\u0661", "expected rank 1, found '\u0661'"),
        (1, "-1_0.5", "non-numeric score"),
        (2, "\u0665", "non-numeric score"),
    ], ids=["arabic_indic_rank", "underscore_score", "arabic_indic_score"])
    def test_rescore_nbest_numbers_must_be_ascii(self, tmp_path, capsys, field, value, message):
        nbest = self._nbest(tmp_path, capsys)
        lines = nbest.read_text(encoding="utf-8").splitlines(keepends=True)
        head, rest = lines[1].split("\t", 1)
        fields = head.split()
        fields[field] = value
        lines[1] = " ".join(fields) + "\t" + rest
        nbest.write_text("".join(lines), encoding="utf-8")
        self._exits_2(capsys, self._rescore(tmp_path, nbest), f"{nbest}:2: {message}")

    @pytest.mark.parametrize("counts", ["-5 10", "\u0663 10", "1 1_0", "+1 10"])
    def test_cat_shards_manifest_counts_must_be_ascii_digits(self, tmp_path, capsys, counts):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"a.tar 1 10\nb.tar {counts}\n", encoding="utf-8")
        self._exits_2(capsys, ["cat-shards", str(manifest)],
                      f"{manifest}:2: counts must be non-negative ASCII integers")

    @pytest.mark.parametrize("line, old, new, message", [
        (6, "-0.3979400 ab", "-1_0 ab", "non-numeric log probability '-1_0'"),
        (6, "-0.3979400 ab", "-\u0660.\u0665 ab", "non-numeric log probability '-\u0660.\u0665'"),
        (7, "ac -0.3979400", "ac -0_5", "non-numeric backoff weight '-0_5'"),
        (5, "\\1-grams:", "\\\u0661-grams:", "bad section header '\\\\\u0661-grams:'"),
        (2, "ngram 1=5", "ngram 1=0_5", "bad count line 'ngram 1=0_5'"),
    ], ids=["underscore_logprob", "arabic_indic_logprob", "underscore_backoff", "arabic_indic_order",
            "underscore_count"])
    def test_build_graph_arpa_numbers_must_be_ascii(self, tmp_path, capsys, line, old, new, message):
        lines = (DATA / "lm.arpa").read_text(encoding="utf-8").splitlines(keepends=True)
        assert old in lines[line - 1]
        lines[line - 1] = lines[line - 1].replace(old, new)
        arpa = tmp_path / "lm.arpa"
        arpa.write_text("".join(lines), encoding="utf-8")
        self._exits_2(capsys, ["build-graph", "--units", str(DATA / "units.txt"), "--lexicon",
                               str(DATA / "lexicon.txt"), "--arpa", str(arpa), "--out", str(tmp_path / "graph")],
                      f"{arpa}:{line}: {message}")

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "-1", "+1"],
                             ids=["underscore", "arabic_indic", "minus", "plus"])
    def test_build_graph_unit_ids_must_be_ascii_digits(self, tmp_path, capsys, value):
        units = tmp_path / "units.txt"
        units.write_text(f"<blank> 0\na {value}\nb 2\nc 3\n", encoding="utf-8")
        self._exits_2(capsys, ["build-graph", "--units", str(units), "--out", str(tmp_path / "graph")],
                      f"{units}:2: bad symbol id {value!r}")
        assert not (tmp_path / "graph").exists()

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "-1", "+1"],
                             ids=["underscore", "arabic_indic", "minus", "plus"])
    def test_decode_graph_word_ids_must_be_ascii_digits(self, tmp_path, capsys, value):
        graph = _build(tmp_path)
        words = graph / "words.txt"
        lines = words.read_text(encoding="utf-8").splitlines(keepends=True)
        symbol, sym_id = lines[1].split()
        assert sym_id == "1"
        lines[1] = f"{symbol} {value}\n"
        words.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        self._exits_2(capsys, ["decode", str(DATA / "utt1.post"), "--graph-dir", str(graph)],
                      f"{words}:2: bad symbol id {value!r}")

    @pytest.mark.parametrize("key, value", [
        ("nbest", "1_0"), ("beam", "\uff12\uff10"), ("beam", "\u0662"), ("alpha", "0_5"), ("alpha", "\u0660.5"),
    ])
    def test_config_numbers_must_be_ascii(self, tmp_path, capsys, key, value):
        config = tmp_path / "decode.conf"
        config.write_text(f"nbest = 2\n{key} = {value}\n", encoding="utf-8")
        self._exits_2(capsys, ["decode", str(DATA / "utt2.post"), "--units", str(DATA / "units.txt"),
                               "--config", str(config)], f"{config}:2: bad value for {key}: {value!r}")

    @pytest.mark.parametrize("flag, value", [
        ("--nbest", "1_0"), ("--beam", "\uff12\uff10"), ("--alpha", "\u0660.5"), ("--score-beam", "1_6"),
    ])
    def test_numeric_flags_must_be_ascii(self, capsys, flag, value):
        args = ["decode", str(DATA / "utt2.post"), "--units", str(DATA / "units.txt"), flag, value]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid " in err and f"value: {value!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["pack", "raw.list", "--out", "shards", "--shard-size", "1_0"],
        ["build-graph", "--units", "units.txt", "--out", "graph", "--det-budget", "\u0661"],
    ], ids=["shard_size", "det_budget"])
    def test_integer_flags_must_be_ascii(self, capsys, args):
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"argument {args[-2]}: invalid int value: {args[-1]!r}" in err and "Traceback" not in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
