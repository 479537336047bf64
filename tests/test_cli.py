from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from helpers import interrupt_writes, temp_files
from sqgen import cli
from sqgen.corpus import read_prepared, split_dataset
from sqgen.decoding import greedy
from sqgen.model import BertPgn, save_checkpoint
from sqgen.qaeval import FLAG_NAMES
from sqgen.textproc import MERGE_SENTINEL, decode, load_vocab

CORPUS_LINES = [
    "what is the capital of france",
    "paris is the capital of france",
    "which river runs through cairo",
    "the nile runs through cairo",
    "what is the tallest mountain on earth",
    "everest is the tallest mountain on earth",
    "capital cities rivers mountains",
    "the storm closed roads across the coast",
]

NQ_RECORDS = [
    {
        "id": "r1",
        "title": "capital cities",
        "question": "what is the capital of france",
        "context": "paris is the capital of france",
        "short_spans": [[0, 5]],
        "p_tag": True,
    },
    {
        "id": "r2",
        "title": "rivers",
        "question": "which river runs through cairo",
        "context": "the nile runs through cairo",
        "short_spans": [[4, 8]],
        "p_tag": True,
    },
    {
        "id": "r3",
        "title": "mountains",
        "question": "what is the tallest mountain on earth",
        "context": "everest is the tallest mountain on earth",
        "short_spans": [[0, 7]],
        "p_tag": True,
    },
    {
        "id": "r4",
        "title": "skipped",
        "question": "does not matter here at all",
        "context": "nothing here",
        "short_spans": [[0, 7]],
        "p_tag": False,
    },
]

TINY_MODEL_FLAGS = [
    "--d-model", "16", "--n-heads", "2", "--encoder-layers", "1",
    "--decoder-lm-layers", "1", "--cross-layers", "1", "--ffn-dim", "32",
    "--max-context", "64", "--max-question", "16",
]


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """corpus -> vocab -> prepared examples -> trained checkpoint, via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "corpus": str(root / "corpus.txt"),
        "vocab": str(root / "vocab.txt"),
        "raw": str(root / "raw.jsonl"),
        "prepared": str(root / "prepared.jsonl"),
        "out_dir": str(root / "run"),
        "root": root,
    }
    (root / "corpus.txt").write_text("\n".join(CORPUS_LINES) + "\n", encoding="utf-8")
    assert cli.main(
        ["build-vocab", "--input", paths["corpus"], "--output", paths["vocab"],
         "--size", "120"]
    ) == cli.EXIT_OK
    write_jsonl(paths["raw"], NQ_RECORDS)
    assert cli.main(
        ["prepare", "--kind", "nq", "--input", paths["raw"], "--output",
         paths["prepared"], "--vocab", paths["vocab"],
         "--max-context", "64", "--max-question", "16"]
    ) == cli.EXIT_OK
    assert len(read_prepared(paths["prepared"])) == 3
    assert cli.main(
        ["train", "--data", paths["prepared"], "--dev", paths["prepared"],
         "--vocab", paths["vocab"], "--out-dir", paths["out_dir"],
         "--epochs", "2", "--batch-size", "2", "--seed", "0", *TINY_MODEL_FLAGS]
    ) == cli.EXIT_OK
    paths["checkpoint"] = str(root / "run" / "best.ckpt")
    return paths


class TestBuildVocab:
    def test_writes_vocab_and_manifest(self, workspace):
        vocab = load_vocab(workspace["vocab"])
        assert len(vocab) > 4
        manifest = json.loads(
            open(workspace["vocab"] + ".manifest.json", encoding="utf-8").read()
        )
        assert manifest["command"] == "build-vocab"
        assert manifest["inputs"] == [workspace["corpus"]]
        assert manifest["outputs"] == [workspace["vocab"]]
        assert manifest["settings"]["size"] == 120
        assert "started_utc" in manifest
        assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0.0

    def test_manifest_git_is_the_code_version_from_any_directory(self, tmp_path, monkeypatch):
        package = os.path.dirname(os.path.abspath(cli.__file__))
        try:
            done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=package,
                                  capture_output=True, text=True, timeout=30)
        except OSError:
            pytest.skip("no git")
        if done.returncode != 0:
            pytest.skip("the code is not in a git checkout")
        (tmp_path / "corpus.txt").write_text("\n".join(CORPUS_LINES) + "\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        argv = ["build-vocab", "--input", "corpus.txt", "--output", "vocab.txt", "--size", "60"]
        assert cli.main(argv) == 0
        manifest = json.loads((tmp_path / "vocab.txt.manifest.json").read_text(encoding="utf-8"))
        assert manifest["git"] == done.stdout.strip()

    def test_manifest_git_is_unknown_when_git_cannot_start(self, tmp_path, monkeypatch):
        (tmp_path / "corpus.txt").write_text("\n".join(CORPUS_LINES) + "\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PATH", str(tmp_path))  # holds no git to start
        argv = ["build-vocab", "--input", "corpus.txt", "--output", "vocab.txt", "--size", "60"]
        assert cli.main(argv) == 0
        manifest = json.loads((tmp_path / "vocab.txt.manifest.json").read_text(encoding="utf-8"))
        assert manifest["git"] == "unknown"

    def test_missing_input_exits_2(self, tmp_path):
        rc = cli.main(
            ["build-vocab", "--input", str(tmp_path / "nope.txt"),
             "--output", str(tmp_path / "v.txt")]
        )
        assert rc == cli.EXIT_INPUT

    def test_config_file_supplies_defaults_flags_win(self, tmp_path, workspace):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"size": 60}), encoding="utf-8")
        out = str(tmp_path / "v60.txt")
        assert cli.main(
            ["--config", str(cfg), "build-vocab", "--input", workspace["corpus"],
             "--output", out]
        ) == cli.EXIT_OK
        manifest = json.loads(open(out + ".manifest.json", encoding="utf-8").read())
        assert manifest["settings"]["size"] == 60

        out2 = str(tmp_path / "v80.txt")
        assert cli.main(
            ["--config", str(cfg), "build-vocab", "--input", workspace["corpus"],
             "--output", out2, "--size", "80"]
        ) == cli.EXIT_OK
        manifest2 = json.loads(open(out2 + ".manifest.json", encoding="utf-8").read())
        assert manifest2["settings"]["size"] == 80

    def test_malformed_config_exits_2(self, tmp_path, workspace):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]", encoding="utf-8")
        rc = cli.main(
            ["--config", str(cfg), "build-vocab", "--input", workspace["corpus"],
             "--output", str(tmp_path / "v.txt")]
        )
        assert rc == cli.EXIT_INPUT

    def test_config_that_is_not_json_exits_2_naming_the_file(
        self, tmp_path, workspace, capsys
    ):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"size": ', encoding="utf-8")
        rc = cli.main(
            ["--config", str(cfg), "build-vocab", "--input", workspace["corpus"],
             "--output", str(tmp_path / "v.txt")]
        )
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
        assert not (tmp_path / "v.txt").exists()


class TestPrepare:
    def test_keeps_taggable_records_and_reports_rejections(
        self, workspace, tmp_path, capsys
    ):
        out = str(tmp_path / "prep.jsonl")
        rc = cli.main(
            ["prepare", "--kind", "nq", "--input", workspace["raw"], "--output",
             out, "--vocab", workspace["vocab"],
             "--max-context", "64", "--max-question", "16"]
        )
        assert rc == cli.EXIT_OK
        err = capsys.readouterr().err
        assert "kept 3 / 4" in err
        assert '"no_paragraph_tag": 1' in err
        prepared = read_prepared(out)
        assert [ex.id for ex in prepared] == ["r1", "r2", "r3"]
        assert all(ex.answer_kind == "short" for ex in prepared)

    def test_drops_an_empty_question_and_reports_it(self, workspace, tmp_path, capsys):
        raw = str(tmp_path / "raw.jsonl")
        write_jsonl(raw, [NQ_RECORDS[0], dict(NQ_RECORDS[1], id="blank", question="  ")])
        out = str(tmp_path / "prep.jsonl")
        capsys.readouterr()
        assert cli.main(
            ["prepare", "--kind", "nq", "--input", raw, "--output", out,
             "--vocab", workspace["vocab"]]
        ) == cli.EXIT_OK
        assert "kept 1 / 2" in capsys.readouterr().err
        assert [ex.id for ex in read_prepared(out)] == ["r1"]
        manifest = json.loads(open(out + ".manifest.json", encoding="utf-8").read())
        assert manifest["settings"]["rejected"] == {"empty_question": 1}

    def test_manifest_counts(self, workspace):
        manifest = json.loads(
            open(workspace["prepared"] + ".manifest.json", encoding="utf-8").read()
        )
        assert manifest["settings"]["kept"] == 3
        assert manifest["settings"]["rejected"] == {"no_paragraph_tag": 1}
        assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0.0

    def test_news_strips_dateline_and_highlights(self, workspace, tmp_path):
        news = str(tmp_path / "news.jsonl")
        write_jsonl(
            news,
            [
                {
                    "id": "n1",
                    "article": "LONDON (CNN) -- The storm closed roads across "
                    "the coast. @highlight roads closed",
                    "highlights": "roads closed",
                }
            ],
        )
        out = str(tmp_path / "news_prep.jsonl")
        rc = cli.main(
            ["prepare", "--kind", "news", "--input", news, "--output", out,
             "--vocab", workspace["vocab"]]
        )
        assert rc == cli.EXIT_OK
        prepared = read_prepared(out)
        assert len(prepared) == 1
        ex = prepared[0]
        vocab = load_vocab(workspace["vocab"])
        text = decode(ex.context_ids, vocab)
        assert "cnn" not in text and "london" not in text
        assert "highlight" not in text
        assert text.startswith("the storm closed roads")
        assert ex.type_ids == [1] * len(ex.context_ids)
        assert ex.question_ids == []
        assert ex.answer_kind == "long"


class TestTrain:
    def test_writes_checkpoints_log_and_manifest(self, workspace):
        run = workspace["root"] / "run"
        assert (run / "best.ckpt").exists()
        assert (run / "epoch_001.ckpt").exists()
        assert (run / "epoch_002.ckpt").exists()
        log = read_lines(str(run / "train_log.csv"))
        assert log[0] == "epoch,train_loss,dev_perplexity,wall_seconds,grad_norm,tokens_per_s"
        assert len(log) == 3
        manifest = json.loads((run / "train.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["seed"] == 0
        assert manifest["settings"]["model"]["d_model"] == 16
        assert manifest["settings"]["train"]["epochs"] == 2
        assert (manifest["settings"]["train_examples"], manifest["settings"]["dev_examples"]) == (3, 3)
        assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0.0

    def test_epochs_zero_still_writes_initial_best(self, workspace, tmp_path):
        out_dir = str(tmp_path / "run0")
        rc = cli.main(
            ["train", "--data", workspace["prepared"], "--dev",
             workspace["prepared"], "--vocab", workspace["vocab"],
             "--out-dir", out_dir, "--epochs", "0", "--batch-size", "2",
             "--seed", "0", *TINY_MODEL_FLAGS]
        )
        assert rc == cli.EXIT_OK
        assert (tmp_path / "run0" / "best.ckpt").exists()
        assert not list((tmp_path / "run0").glob("epoch_*.ckpt"))
        assert read_lines(str(tmp_path / "run0" / "train_log.csv")) == [
            "epoch,train_loss,dev_perplexity,wall_seconds,grad_norm,tokens_per_s"
        ]

    def test_never_reads_a_checkpoint_back(self, workspace, tmp_path, monkeypatch):
        from sqgen import model

        reads = []
        monkeypatch.setattr(model, "load_checkpoint", lambda path: reads.append(path))
        rc = cli.main(
            ["train", "--data", workspace["prepared"], "--vocab", workspace["vocab"],
             "--out-dir", str(tmp_path / "run"), "--epochs", "1", "--batch-size", "2",
             *TINY_MODEL_FLAGS]
        )
        assert rc == cli.EXIT_OK
        assert (tmp_path / "run" / "best.ckpt").exists()
        assert reads == []

    @pytest.mark.parametrize("ffn_dim", ["0", "-1"])
    def test_ffn_dim_below_1_exits_2_naming_it(self, workspace, tmp_path, capsys, ffn_dim):
        rc = cli.main(
            ["train", "--data", workspace["prepared"], "--vocab", workspace["vocab"],
             "--out-dir", str(tmp_path / "run"), "--epochs", "0",
             *TINY_MODEL_FLAGS, "--ffn-dim", ffn_dim]
        )
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"error: ffn_dim must be >= 1, got {ffn_dim}\n"
        assert not (tmp_path / "run").exists()

    def test_zero_heads_exits_2(self, workspace, tmp_path, capsys):
        rc = cli.main(
            ["train", "--data", workspace["prepared"], "--vocab", workspace["vocab"],
             "--out-dir", str(tmp_path / "run"), "--epochs", "0",
             *TINY_MODEL_FLAGS, "--n-heads", "0"]
        )
        assert rc == cli.EXIT_INPUT
        assert capsys.readouterr().err == "error: d_model and n_heads must be >= 1\n"
        assert not (tmp_path / "run").exists()

    def test_nine_examples_without_dev_hold_one_out(self, workspace, tmp_path, capsys):
        from sqgen.training import perplexity

        rows = [json.loads(line) for line in read_lines(workspace["prepared"])]
        data = str(tmp_path / "nine.jsonl")
        write_jsonl(data, [dict(rows[i % 3], id=f"x{i}") for i in range(9)])
        run = tmp_path / "run"
        capsys.readouterr()
        assert cli.main(
            ["train", "--data", data, "--vocab", workspace["vocab"], "--out-dir", str(run),
             "--epochs", "1", "--batch-size", "4", "--seed", "0", *TINY_MODEL_FLAGS]
        ) == cli.EXIT_OK
        assert "train_examples 8 dev_examples 1" in capsys.readouterr().err
        settings = json.loads((run / "train.manifest.json").read_text())["settings"]
        assert (settings["train_examples"], settings["dev_examples"]) == (8, 1)
        held_out = split_dataset(read_prepared(data), seed=0).dev
        model = BertPgn.from_checkpoint(str(run / "epoch_001.ckpt"))
        log = csv.DictReader(read_lines(str(run / "train_log.csv")))
        assert float(next(log)["dev_perplexity"]) == perplexity(model, held_out)

    def test_one_example_without_dev_exits_2_naming_the_data(self, workspace, tmp_path, capsys):
        data = tmp_path / "one.jsonl"
        data.write_text(read_lines(workspace["prepared"])[0] + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(
            ["train", "--data", str(data), "--vocab", workspace["vocab"],
             "--out-dir", str(tmp_path / "run"), "--epochs", "0", *TINY_MODEL_FLAGS]
        ) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: ") and "--dev" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["one.jsonl"]

    def test_empty_dev_file_exits_2_naming_it(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(
            ["train", "--data", workspace["prepared"], "--dev", str(empty), "--vocab",
             workspace["vocab"], "--out-dir", str(tmp_path / "run"), "--epochs", "1",
             *TINY_MODEL_FLAGS]
        ) == cli.EXIT_INPUT
        assert capsys.readouterr().err == f"error: {empty}: no examples\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.jsonl"]

    def test_empty_dataset_exits_2(self, workspace, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        rc = cli.main(
            ["train", "--data", str(empty), "--vocab", workspace["vocab"],
             "--out-dir", str(tmp_path / "runx"), "--epochs", "1"]
        )
        assert rc == cli.EXIT_INPUT


class TestGenerate:
    def generate(self, workspace, output, *extra):
        return cli.main(
            ["generate", "--checkpoint", workspace["checkpoint"], "--data",
             workspace["prepared"], "--vocab", workspace["vocab"],
             "--output", output, "--max-question", "8", *extra]
        )

    def test_beam_one_matches_greedy_mode(self, workspace, tmp_path):
        beam_out = str(tmp_path / "beam.jsonl")
        greedy_out = str(tmp_path / "greedy.jsonl")
        assert self.generate(workspace, beam_out, "--mode", "beam", "--beam", "1") == cli.EXIT_OK
        assert self.generate(workspace, greedy_out, "--mode", "greedy") == cli.EXIT_OK
        assert read_lines(beam_out) == read_lines(greedy_out)

    def test_rows_cover_inputs_in_order(self, workspace, tmp_path):
        out = str(tmp_path / "gen.jsonl")
        assert self.generate(workspace, out, "--mode", "beam", "--beam", "2") == cli.EXIT_OK
        rows = [json.loads(line) for line in read_lines(out)]
        assert [r["id"] for r in rows] == ["r1", "r2", "r3"]
        for row in rows:
            assert set(row) == {"id", "question_text", "logprob"}
            assert isinstance(row["question_text"], str)
            assert row["logprob"] <= 0.0

    def test_nucleus_reproducible_for_fixed_seed(self, workspace, tmp_path):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        flags = ("--mode", "nucleus", "--top-p", "0.9", "--temperature", "1.0",
                 "--seed", "7")
        assert self.generate(workspace, a, *flags) == cli.EXIT_OK
        assert self.generate(workspace, b, *flags) == cli.EXIT_OK
        assert read_lines(a) == read_lines(b)

    def test_manifest_records_decoder_settings(self, workspace, tmp_path):
        out = str(tmp_path / "gen.jsonl")
        assert self.generate(workspace, out, "--mode", "beam", "--beam", "2") == cli.EXIT_OK
        manifest = json.loads(open(out + ".manifest.json", encoding="utf-8").read())
        assert manifest["settings"]["mode"] == "beam"
        assert manifest["settings"]["beam"] == 2
        assert manifest["settings"]["max_question"] == 8

    def test_manifest_records_wall_time_and_eos_count(self, workspace, tmp_path):
        out = str(tmp_path / "gen.jsonl")
        assert self.generate(workspace, out, "--mode", "greedy") == cli.EXIT_OK
        manifest = json.loads(open(out + ".manifest.json", encoding="utf-8").read())
        assert manifest["wall_seconds"] > 0.0
        assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0.0
        model = BertPgn.from_checkpoint(workspace["checkpoint"])
        finished = [
            greedy(model, model.encode_context(ex.context_ids, ex.type_ids), max_len=8).finished
            for ex in read_prepared(workspace["prepared"])
        ]
        assert manifest["settings"]["reached_eos"] == sum(finished)

    def _generate_with_oversized_last_context(self, workspace, tmp_path):
        rows = [json.loads(line) for line in read_lines(workspace["prepared"])]
        long = dict(rows[0], id="too_long", context_ids=[5] * 65, type_ids=[0] * 65)
        data = str(tmp_path / "with_long.jsonl")
        write_jsonl(data, rows + [long])
        return cli.main(
            ["generate", "--checkpoint", workspace["checkpoint"], "--data", data,
             "--vocab", workspace["vocab"], "--output", str(tmp_path / "gen.jsonl"),
             "--max-question", "8"]
        )

    def test_oversized_last_context_leaves_no_output(self, workspace, tmp_path):
        assert self._generate_with_oversized_last_context(workspace, tmp_path) == cli.EXIT_INPUT
        assert not (tmp_path / "gen.jsonl").exists()
        assert not (tmp_path / "gen.jsonl.manifest.json").exists()
        assert [p.name for p in tmp_path.iterdir()] == ["with_long.jsonl"]

    def test_failed_run_leaves_existing_files_alone(self, workspace, tmp_path):
        for name in ("gen.jsonl", "gen.jsonl.tmp"):
            (tmp_path / name).write_text(f"kept {name}\n", encoding="utf-8")
        assert self._generate_with_oversized_last_context(workspace, tmp_path) == cli.EXIT_INPUT
        for name in ("gen.jsonl", "gen.jsonl.tmp"):
            assert (tmp_path / name).read_text(encoding="utf-8") == f"kept {name}\n"

    @pytest.mark.parametrize("flags", [
        ("--mode", "nucleus", "--top-p", "5", "--temperature", "-1"),
        ("--mode", "nucleus", "--temperature", "-1"),
        ("--mode", "beam", "--beam", "0"),
        ("--mode", "greedy", "--max-question", "-1"),
    ])
    def test_bad_decode_setting_exits_2_even_on_empty_data(self, workspace, tmp_path, flags):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "gen.jsonl"
        rc = cli.main(
            ["generate", "--checkpoint", workspace["checkpoint"], "--data", str(empty),
             "--vocab", workspace["vocab"], "--output", str(out), *flags]
        )
        assert rc == cli.EXIT_INPUT
        assert [p.name for p in tmp_path.iterdir()] == ["empty.jsonl"]

    def test_nan_temperature_exits_2_before_decoding(self, workspace, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        assert self.generate(
            workspace, str(out), "--mode", "nucleus", "--temperature", "nan"
        ) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "error: temperature must be >= 0, got nan\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_max_question_past_the_checkpoint_exits_2_before_encoding(
        self, workspace, tmp_path, capsys, monkeypatch, given
    ):
        limit = BertPgn.from_checkpoint(workspace["checkpoint"]).config.max_question + 1
        cfg = tmp_path / "cfg.json"

        def run(max_question, out):
            argv = ["generate", "--checkpoint", workspace["checkpoint"], "--data",
                    workspace["prepared"], "--vocab", workspace["vocab"], "--output", str(out)]
            if given == "flag":
                return cli.main(argv + ["--max-question", str(max_question)])
            cfg.write_text(json.dumps({"max_question": max_question}), encoding="utf-8")
            return cli.main(["--config", str(cfg), *argv])

        assert run(limit, tmp_path / "ok.jsonl") == cli.EXIT_OK
        before = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        monkeypatch.setattr(BertPgn, "encode_context", None)  # calling it would raise TypeError
        assert run(limit + 1, tmp_path / "gen.jsonl") == cli.EXIT_INPUT
        where = "--max-question" if given == "flag" else f"{cfg}: max_question"
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", (
            f"error: {where} {limit + 1} exceeds max_question+1={limit} "
            f"of checkpoint {workspace['checkpoint']}\n"
        ))
        assert sorted(p.name for p in tmp_path.iterdir()) == before  # no output, manifest or .*.tmp

    def test_vocab_size_mismatch_exits_2(self, workspace, tmp_path):
        small = str(tmp_path / "small_vocab.txt")
        assert cli.main(
            ["build-vocab", "--input", workspace["corpus"], "--output", small,
             "--size", "60"]
        ) == cli.EXIT_OK
        assert len(load_vocab(small)) != len(load_vocab(workspace["vocab"]))
        rc = cli.main(
            ["generate", "--checkpoint", workspace["checkpoint"], "--data",
             workspace["prepared"], "--vocab", small,
             "--output", str(tmp_path / "gen.jsonl")]
        )
        assert rc == cli.EXIT_INPUT

    def test_nan_checkpoint_exits_3(self, workspace, tmp_path):
        model = BertPgn.from_checkpoint(workspace["checkpoint"])
        model.params["enc.word_emb"].data[:] = math.nan
        poisoned = str(tmp_path / "poisoned.ckpt")
        save_checkpoint(poisoned, model.config, model.params)
        rc = cli.main(
            ["generate", "--checkpoint", poisoned, "--data",
             workspace["prepared"], "--vocab", workspace["vocab"],
             "--output", str(tmp_path / "gen.jsonl")]
        )
        assert rc == cli.EXIT_NUMERIC

    @pytest.mark.parametrize("edit, message", [
        (lambda params: params.update({"out.bias": params.pop("out.b")}),
         "no array out.b, which the config needs"),
        (lambda params: params.update({"gate.b": np.zeros(2)}),
         r"array gate.b has shape \(2,\), the config needs \(1,\)"),
        (lambda params: params.update({"x": np.zeros(3)}),
         "array x is not a parameter of the config"),
    ])
    def test_checkpoint_arrays_off_the_config_exit_2(self, workspace, tmp_path, capsys,
                                                      edit, message):
        model = BertPgn.from_checkpoint(workspace["checkpoint"])
        params = {name: t.data for name, t in model.params.items()}
        edit(params)
        bad = str(tmp_path / "bad.ckpt")
        save_checkpoint(bad, model.config, params)
        capsys.readouterr()
        rc = cli.main(
            ["generate", "--checkpoint", bad, "--data", workspace["prepared"],
             "--vocab", workspace["vocab"], "--output", str(tmp_path / "gen.jsonl")]
        )
        assert rc == cli.EXIT_INPUT
        assert re.search(f"^error: {re.escape(bad)}: {message}$", capsys.readouterr().err, re.M)
        assert not (tmp_path / "gen.jsonl").exists()


@pytest.mark.parametrize("manifest", [
    "[1, 2]",
    '{"format": "sqgen-checkpoint", "version": 1, "config": {"vocab_size": 120}}',
    '{"format": "sqgen-checkpoint", "version": 1, "arrays": []}',
    '{"format": "sqgen-checkpoint", "version": 1, "config": {"vocab_size": 120, "n_heads": 0},'
    ' "arrays": []}',
    '{"format": "sqgen-checkpoint", "version": 1, "config": {"vocab_size": 120, "n_heads": -4},'
    ' "arrays": []}',
    '{"format": "sqgen-checkpoint", "version": 1, "config": {"vocab_size": 120, "ffn_dim": 0},'
    ' "arrays": []}',
    '{"format": "sqgen-checkpoint", "version": 1, "config": {"vocab_size": 120},'
    ' "arrays": [{"name": "enc.word_emb", "shape": [2, "x"]}]}',
    '{"format": "sqgen-checkpoint", "version": 1, "config": {"vocab_size": 120},'
    ' "arrays": [7]}',
    # edits of the workspace checkpoint's manifest, which loads without them
    pytest.param(lambda m: m.update(version=99), id="version_99"),
    pytest.param(lambda m: m.update(version="banana"), id="version_string"),
    pytest.param(lambda m: m.pop("version"), id="no_version"),
    pytest.param(lambda m: m.update(version=True), id="version_true"),
    pytest.param(lambda m: m.update(version=1.0), id="version_float"),
    pytest.param(lambda m: m["config"].update(use_decoder_lm="false"), id="use_lm_string"),
    pytest.param(lambda m: m["config"].update(use_decoder_lm=0), id="use_lm_0"),
    pytest.param(lambda m: m["config"].update(use_decoder_lm=None), id="use_lm_null"),
    pytest.param(lambda m: m["config"].update(encoder_layers=1.5), id="encoder_layers_float"),
    pytest.param(lambda m: m["config"].update(d_model=float(m["config"]["d_model"])),
                 id="d_model_integral_float"),
    pytest.param(lambda m: m["config"].update(use_pointer="no"), id="use_pointer_string"),
    pytest.param(lambda m: m["config"].update(max_question=True), id="max_question_true"),
])
def test_malformed_checkpoint_manifest_exits_2_naming_the_file(
    manifest, workspace, tmp_path, capsys
):
    ckpt = tmp_path / "bad.ckpt"
    if callable(manifest):
        head, _, blob = open(workspace["checkpoint"], "rb").read().partition(b"\n")
        edited = json.loads(head)
        manifest(edited)
        ckpt.write_bytes(json.dumps(edited).encode() + b"\n" + blob)
    else:
        ckpt.write_text(manifest + "\n", encoding="utf-8")
    rc = cli.main(
        ["generate", "--checkpoint", str(ckpt), "--data", workspace["prepared"],
         "--vocab", workspace["vocab"], "--output", str(tmp_path / "gen.jsonl")]
    )
    assert rc == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: ")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.ckpt"]


class TestEntryPoint:
    """`python -m sqgen.cli` and the installed `sqgen` script go through
    `cli.run()`, which exits with `main`'s code after freezing the
    collector: a process writes what an in-process `main` writes."""

    @staticmethod
    def process(argv, cwd):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "sqgen.cli", *argv], cwd=cwd, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
        )

    @staticmethod
    def generate_argv(workspace, data, output):
        return ["generate", "--checkpoint", workspace["checkpoint"], "--data", data,
                "--vocab", workspace["vocab"], "--output", output, "--max-question", "8",
                "--mode", "beam", "--beam", "2"]

    def test_generate_as_a_process_writes_the_rows_main_writes(self, workspace, tmp_path):
        by_process, in_process = str(tmp_path / "process.jsonl"), str(tmp_path / "main.jsonl")
        done = self.process(self.generate_argv(workspace, workspace["prepared"], by_process),
                            tmp_path)
        assert done.returncode == cli.EXIT_OK, done.stderr
        assert cli.main(self.generate_argv(workspace, workspace["prepared"], in_process)) == 0
        with open(by_process, "rb") as a, open(in_process, "rb") as b:
            assert a.read() == b.read()
        manifest = json.loads(open(by_process + ".manifest.json", encoding="utf-8").read())
        assert manifest["command"] == "generate"
        assert manifest["outputs"] == [by_process]

    def test_an_input_error_exits_2_naming_the_file(self, workspace, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        output = str(tmp_path / "gen.jsonl")
        done = self.process(self.generate_argv(workspace, str(bad), output), tmp_path)
        assert done.returncode == cli.EXIT_INPUT
        assert done.stderr.splitlines()[0].startswith(f"error: {bad}")
        assert "Traceback" not in done.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]

    def test_the_installed_script_is_run(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")
        with open(pyproject, "rb") as f:
            assert tomllib.load(f)["project"]["scripts"]["sqgen"] == "sqgen.cli:run"


class TestEvalGen:
    def make_candidates(self, workspace, path, texts=None):
        vocab = load_vocab(workspace["vocab"])
        rows = []
        for ex in read_prepared(workspace["prepared"]):
            text = decode(ex.question_ids, vocab)
            rows.append({"id": ex.id, "question_text": text})
        if texts:
            for row, text in zip(rows, texts):
                row["question_text"] = text
        write_jsonl(path, rows)

    def test_identity_candidates_score_100(self, workspace, tmp_path):
        cands = str(tmp_path / "cands.jsonl")
        self.make_candidates(workspace, cands)
        out = str(tmp_path / "report.json")
        per_ex = str(tmp_path / "per.csv")
        rc = cli.main(
            ["eval", "gen", "--candidates", cands, "--references",
             workspace["prepared"], "--vocab", workspace["vocab"],
             "--output", out, "--per-example", per_ex]
        )
        assert rc == cli.EXIT_OK
        report = json.loads(open(out, encoding="utf-8").read())
        assert report["n"] == 3
        assert report["bleu1"] == pytest.approx(100.0)
        assert report["bleu4"] == pytest.approx(100.0)
        assert report["rouge_l"] == pytest.approx(100.0)
        assert 0.0 < report["meteor_lite"] <= 100.0
        lines = read_lines(per_ex)
        assert lines[0] == "id,bleu1,bleu4,rouge_l,meteor_lite"
        assert len(lines) == 4

    def test_interrupted_report_keeps_the_previous_one(self, workspace, tmp_path, monkeypatch):
        cands = str(tmp_path / "cands.jsonl")
        out = tmp_path / "report.json"
        args = ["eval", "gen", "--candidates", cands, "--references",
                workspace["prepared"], "--vocab", workspace["vocab"], "--output", str(out)]
        self.make_candidates(workspace, cands)
        assert cli.main(args) == cli.EXIT_OK
        before = out.read_bytes()
        self.make_candidates(workspace, cands, texts=["what", "which", "where"])
        interrupt_writes(monkeypatch, writes=2)
        with pytest.raises(KeyboardInterrupt):
            cli.main(args)
        assert out.read_bytes() == before
        assert temp_files(tmp_path) == []

    def test_weaker_candidates_score_lower(self, workspace, tmp_path):
        cands = str(tmp_path / "cands.jsonl")
        self.make_candidates(
            workspace, cands,
            texts=["what is the capital city", "which river is long",
                   "what mountain is tall"],
        )
        out = str(tmp_path / "report.json")
        rc = cli.main(
            ["eval", "gen", "--candidates", cands, "--references",
             workspace["prepared"], "--vocab", workspace["vocab"], "--output", out]
        )
        assert rc == cli.EXIT_OK
        report = json.loads(open(out, encoding="utf-8").read())
        assert report["bleu1"] < 100.0
        assert report["bleu4"] < report["bleu1"]

    def test_missing_reference_exits_2(self, workspace, tmp_path):
        cands = str(tmp_path / "cands.jsonl")
        write_jsonl(cands, [{"id": "unknown", "question_text": "what is this"}])
        rc = cli.main(
            ["eval", "gen", "--candidates", cands, "--references",
             workspace["prepared"], "--vocab", workspace["vocab"],
             "--output", str(tmp_path / "report.json")]
        )
        assert rc == cli.EXIT_INPUT


class TestEvalQa:
    def run_eval(self, workspace, tmp_path, questions_rows, source="article"):
        news = str(tmp_path / "news.jsonl")
        write_jsonl(
            news,
            [
                {"id": "n1", "article": "(CNN) -- the storm closed roads across "
                 "the coast", "highlights": "roads closed"},
                {"id": "n2", "article": "(CNN) -- everest is the tallest mountain "
                 "on earth", "highlights": "tallest mountain"},
            ],
        )
        questions = str(tmp_path / "questions.jsonl")
        write_jsonl(questions, questions_rows)
        prefix = str(tmp_path / "qa")
        rc = cli.main(
            ["eval", "qa", "--questions", questions, "--contexts", news,
             "--vocab", workspace["vocab"], "--output-prefix", prefix,
             "--context-source", source, "--model-tag", "toy"]
        )
        return rc, prefix

    def test_overlapping_questions_read_answerable(self, workspace, tmp_path):
        rc, prefix = self.run_eval(
            workspace, tmp_path,
            [
                {"id": "n1", "question_text": "the storm closed roads across the coast"},
                {"id": "n2", "question_text": "everest is the tallest mountain on earth"},
            ],
        )
        assert rc == cli.EXIT_OK
        scatter = read_lines(prefix + "_scatter.csv")
        assert scatter[0] == "id,s_ans,s_gra,model_tag"
        assert len(scatter) == 3
        for line in scatter[1:]:
            rid, s_ans, s_gra, tag = line.split(",")
            assert rid in {"n1", "n2"}
            assert float(s_ans) > 0.0
            assert tag == "toy"
        means = read_lines(prefix + "_means.csv")
        assert means[0] == "model_tag,mean_s_ans,mean_s_gra,n"
        tag, mean_ans, _, n = means[1].split(",")
        assert tag == "toy" and n == "2"
        assert float(mean_ans) > 0.0
        svg = open(prefix + "_scatter.svg", encoding="utf-8").read()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")

    def test_disjoint_questions_read_unanswerable(self, workspace, tmp_path):
        rc, prefix = self.run_eval(
            workspace, tmp_path,
            [{"id": "n1", "question_text": "which river runs through cairo"}],
        )
        assert rc == cli.EXIT_OK
        scatter = read_lines(prefix + "_scatter.csv")
        assert float(scatter[1].split(",")[1]) < 0.0

    def test_interrupted_scatter_csv_keeps_the_previous_one(self, workspace, tmp_path, monkeypatch):
        rows = [{"id": "n1", "question_text": "the storm closed roads"},
                {"id": "n2", "question_text": "the tallest mountain"}]
        rc, prefix = self.run_eval(workspace, tmp_path, rows)
        assert rc == cli.EXIT_OK
        scatter = tmp_path / "qa_scatter.csv"
        before = scatter.read_bytes()
        write_jsonl(str(tmp_path / "questions.jsonl"), rows[::-1])
        interrupt_writes(monkeypatch, writes=2)
        with pytest.raises(KeyboardInterrupt):
            cli.main(
                ["eval", "qa", "--questions", str(tmp_path / "questions.jsonl"),
                 "--contexts", str(tmp_path / "news.jsonl"), "--vocab", workspace["vocab"],
                 "--output-prefix", prefix, "--model-tag", "toy"]
            )
        assert scatter.read_bytes() == before
        assert temp_files(tmp_path) == []

    def test_missing_context_exits_2(self, workspace, tmp_path):
        rc, _ = self.run_eval(
            workspace, tmp_path,
            [{"id": "missing", "question_text": "what is this"}],
        )
        assert rc == cli.EXIT_INPUT


class TestEvalCorrelate:
    def test_report_and_unanimity(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "id,s_ans,s_gra,model_tag\n"
            "hi,5.0,1.0,toy\n"
            "lo,-5.0,-1.0,toy\n",
            encoding="utf-8",
        )
        annotations = str(tmp_path / "annotations.jsonl")
        rows = []
        for article, vote in (("hi", True), ("lo", False)):
            for k in range(3):
                flags = dict.fromkeys(FLAG_NAMES, False)
                flags["span"] = vote
                rows.append(
                    {"article_id": article, "annotator_id": f"ann{k}", "flags": flags}
                )
        write_jsonl(annotations, rows)
        out = str(tmp_path / "corr.json")
        unanimity = str(tmp_path / "unanimity.json")
        rc = cli.main(
            ["eval", "correlate", "--scores", str(scores), "--annotations",
             annotations, "--output", out, "--unanimity-output", unanimity]
        )
        assert rc == cli.EXIT_OK
        report = json.loads(open(out, encoding="utf-8").read())
        assert report["span"]["answerability"] == pytest.approx(1.0)
        assert report["span"]["granularity"] == pytest.approx(1.0)
        assert report["context"]["answerability"] is None  # nobody set it
        ratios = json.loads(open(unanimity, encoding="utf-8").read())
        assert ratios["span"]["n_unanimous"] == 2
        assert ratios["span"]["true_pct"] == pytest.approx(50.0)

    def test_too_few_scored_articles_exits_2(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("id,s_ans,s_gra,model_tag\nhi,5.0,1.0,toy\n", encoding="utf-8")
        annotations = str(tmp_path / "annotations.jsonl")
        rows = [
            {"article_id": "hi", "annotator_id": f"ann{k}",
             "flags": dict.fromkeys(FLAG_NAMES, False)}
            for k in range(3)
        ]
        write_jsonl(annotations, rows)
        rc = cli.main(
            ["eval", "correlate", "--scores", str(scores), "--annotations",
             annotations, "--output", str(tmp_path / "corr.json")]
        )
        assert rc == cli.EXIT_INPUT


class TestScatterSvg:
    def test_empty_points_still_valid(self, tmp_path):
        path = str(tmp_path / "empty.svg")
        cli.scatter_svg(path, [], xlabel="x", ylabel="y", title="none")
        content = open(path, encoding="utf-8").read()
        assert content.startswith("<svg ")
        assert "<circle" not in content

    def test_points_drawn_within_frame(self, tmp_path):
        path = str(tmp_path / "plot.svg")
        rng = np.random.default_rng(0)
        points = [(float(x), float(y)) for x, y in rng.normal(size=(20, 2))]
        cli.scatter_svg(path, points, xlabel="x", ylabel="y")
        content = open(path, encoding="utf-8").read()
        assert content.count("<circle") == 20

    def test_empty_plot_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "empty.svg"
        cli.scatter_svg(str(path), [], xlabel="answerability", ylabel="granularity",
                        title="model")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9392f990a0d0456953f204f635e04bccfa088106066686b54e1656fee3118e7c"
        )

    def test_markup_in_title_and_labels_is_escaped(self, tmp_path):
        path = str(tmp_path / "plot.svg")
        cli.scatter_svg(path, [(0.0, 1.0)], xlabel="x<1", ylabel="y&z", title="a<b&c")
        root = ET.parse(path).getroot()
        texts = {el.text for el in root.iter("{http://www.w3.org/2000/svg}text")}
        assert {"x<1", "y&z", "a<b&c"} <= texts


NEWS_ROWS = [
    {"id": "n1", "article": "(CNN) -- the storm closed roads across the coast",
     "highlights": "roads closed"},
    {"id": "n2", "article": "(CNN) -- everest is the tallest mountain on earth",
     "highlights": "tallest mountain"},
]


def write_span_annotations(path, votes):
    """Three annotators per article, all setting only the `span` flag to the
    article's vote."""
    rows = []
    for article, vote in votes.items():
        for k in range(3):
            flags = dict.fromkeys(FLAG_NAMES, False)
            flags["span"] = vote
            rows.append({"article_id": article, "annotator_id": f"ann{k}", "flags": flags})
    write_jsonl(path, rows)


def command_argv(command, ws, t):
    """Inputs in the directory t and the argv that runs `command` on them
    (with the workspace's vocab, data and checkpoint), and the path its
    manifest is named after."""
    write_jsonl(t / "cands.jsonl", [{"id": "r1", "question_text": "what is the capital"}])
    write_jsonl(t / "news.jsonl", NEWS_ROWS)
    write_jsonl(t / "questions.jsonl", [{"id": "n1", "question_text": "the storm"}])
    (t / "scores.csv").write_text("id,s_ans,s_gra,model_tag\nhi,5.0,1.0,toy\nlo,-5.0,-1.0,toy\n",
                                  encoding="utf-8")
    write_span_annotations(t / "ann.jsonl", {"hi": True, "lo": False})
    vocab, data = ws["vocab"], ws["prepared"]
    cases = {
        "build-vocab": (["build-vocab", "--input", ws["corpus"], "--output", f"{t}/v.txt",
                         "--size", "120"], f"{t}/v.txt"),
        "prepare": (["prepare", "--kind", "nq", "--input", ws["raw"], "--output",
                     f"{t}/p.jsonl", "--vocab", vocab, "--max-context", "64"], f"{t}/p.jsonl"),
        "train": (["train", "--data", data, "--dev", data, "--vocab", vocab, "--out-dir",
                   f"{t}/run", "--epochs", "0", *TINY_MODEL_FLAGS], f"{t}/run/train"),
        "generate": (["generate", "--checkpoint", ws["checkpoint"], "--data", data, "--vocab",
                      vocab, "--output", f"{t}/g.jsonl", "--max-question", "4"], f"{t}/g.jsonl"),
        "eval gen": (["eval", "gen", "--candidates", f"{t}/cands.jsonl", "--references", data,
                      "--vocab", vocab, "--output", f"{t}/r.json"], f"{t}/r.json"),
        "eval qa": (["eval", "qa", "--questions", f"{t}/questions.jsonl", "--contexts",
                     f"{t}/news.jsonl", "--vocab", vocab, "--output-prefix", f"{t}/qa"],
                    f"{t}/qa_scatter.csv"),
        "eval correlate": (["eval", "correlate", "--scores", f"{t}/scores.csv", "--annotations",
                            f"{t}/ann.jsonl", "--output", f"{t}/c.json"], f"{t}/c.json"),
    }
    return cases[command]


@pytest.mark.parametrize(
    "command",
    ["build-vocab", "prepare", "train", "generate", "eval gen", "eval qa", "eval correlate"],
)
def test_manifest_records_the_argv_given_and_the_wall_time(command, workspace, tmp_path):
    argv, output = command_argv(command, workspace, tmp_path)
    assert cli.main(argv) == cli.EXIT_OK
    manifest = json.loads(open(output + ".manifest.json", encoding="utf-8").read())
    assert manifest["argv"] == argv
    assert manifest["command"] == command
    assert manifest["wall_seconds"] > 0.0


@pytest.mark.parametrize(
    "command",
    ["build-vocab", "prepare", "train", "generate", "eval gen", "eval qa", "eval correlate"],
)
def test_manifest_holds_exactly_the_ten_keys(command, workspace, tmp_path):
    argv, output = command_argv(command, workspace, tmp_path)
    assert cli.main(argv) == cli.EXIT_OK
    manifest = json.loads(open(output + ".manifest.json", encoding="utf-8").read())
    assert set(manifest) == {
        "command", "argv", "inputs", "outputs", "seed", "settings", "git", "started_utc",
        "wall_seconds", "peak_rss_mb",
    }
    assert isinstance(manifest["settings"], dict)


def test_comma_in_ids_and_tag_round_trips_through_qa_and_correlate(workspace, tmp_path):
    news, questions = str(tmp_path / "news.jsonl"), str(tmp_path / "questions.jsonl")
    write_jsonl(news, [dict(NEWS_ROWS[0], id="a,1"), dict(NEWS_ROWS[1], id="b")])
    write_jsonl(questions, [
        {"id": "a,1", "question_text": "the storm closed roads across the coast"},
        {"id": "b", "question_text": "which river runs through cairo"},
    ])
    prefix = str(tmp_path / "qa")
    assert cli.main(
        ["eval", "qa", "--questions", questions, "--contexts", news, "--vocab",
         workspace["vocab"], "--output-prefix", prefix, "--model-tag", "x,y"]
    ) == cli.EXIT_OK
    with open(prefix + "_scatter.csv", encoding="utf-8", newline="") as f:
        scatter = {row["id"]: row for row in csv.DictReader(f)}
    assert set(scatter) == {"a,1", "b"}
    assert {row["model_tag"] for row in scatter.values()} == {"x,y"}
    assert float(scatter["a,1"]["s_ans"]) > 0.0 > float(scatter["b"]["s_ans"])
    with open(prefix + "_means.csv", encoding="utf-8", newline="") as f:
        (means,) = csv.DictReader(f)
    assert (means["model_tag"], means["n"]) == ("x,y", "2")

    annotations, out = str(tmp_path / "ann.jsonl"), str(tmp_path / "corr.json")
    write_span_annotations(annotations, {"a,1": True, "b": False})
    assert cli.main(
        ["eval", "correlate", "--scores", prefix + "_scatter.csv", "--annotations",
         annotations, "--output", out]
    ) == cli.EXIT_OK
    report = json.loads(open(out, encoding="utf-8").read())
    assert report["span"]["answerability"] == pytest.approx(1.0)


def malformed_case(kind, ws, t):
    """A good row, the field a bad row breaks, and the argv reading the file
    t/in.jsonl as input of the given kind."""
    path = f"{t}/in.jsonl"
    if kind == "prepared":
        good = json.loads(read_lines(ws["prepared"])[0])
        argv = ["train", "--data", path, "--vocab", ws["vocab"], "--out-dir", f"{t}/run",
                *TINY_MODEL_FLAGS]
        return good, "context_ids", argv
    if kind == "news":
        argv = ["prepare", "--kind", "news", "--input", path, "--output", f"{t}/out.jsonl",
                "--vocab", ws["vocab"]]
        return NEWS_ROWS[0], "article", argv
    if kind == "nq":
        argv = ["prepare", "--kind", "nq", "--input", path, "--output", f"{t}/out.jsonl",
                "--vocab", ws["vocab"]]
        return NQ_RECORDS[0], "context", argv
    if kind in ("build-vocab nq", "build-vocab news"):
        # build-vocab streams the records: the good one is counted before
        # the bad one is read
        source = kind.split()[1]
        argv = ["build-vocab", "--kind", source, "--input", path, "--output", f"{t}/v.txt"]
        good, field = (NQ_RECORDS[0], "context") if source == "nq" else (NEWS_ROWS[0], "article")
        return good, field, argv
    argv = ["eval", "gen", "--candidates", path, "--references", ws["prepared"],
            "--vocab", ws["vocab"], "--output", f"{t}/out.json"]
    return {"id": "r1", "question_text": "what is the capital"}, "question_text", argv


@pytest.mark.parametrize(
    "kind", ["prepared", "nq", "news", "candidates", "build-vocab nq", "build-vocab news"]
)
@pytest.mark.parametrize(
    "defect", ["wrong_type", "missing", "not_an_object", "not_json", "not_utf8"]
)
def test_malformed_jsonl_row_exits_2_naming_file_and_line(
    kind, defect, workspace, tmp_path, capsys
):
    good, field, argv = malformed_case(kind, workspace, tmp_path)
    bad = {
        "wrong_type": json.dumps(dict(good, **{field: 5})),
        "missing": json.dumps({k: v for k, v in good.items() if k != field}),
        "not_an_object": "[1, 2]",
        "not_json": '{"id": ',
        "not_utf8": '{"id": "\udcff"}',  # written as the byte 0xff
    }[defect]
    path = tmp_path / "in.jsonl"
    path.write_bytes((json.dumps(good) + "\n\n" + bad + "\n").encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:3: ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


PREPARED_DEFECTS = {
    "id_not_below_vocab": lambda row: dict(row, context_ids=[99999] + row["context_ids"][1:]),
    "negative_id": lambda row: dict(row, context_ids=[-3] + row["context_ids"][1:]),
    "type_id_2": lambda row: dict(row, type_ids=[2] + row["type_ids"][1:]),
    "unequal_lengths": lambda row: dict(row, type_ids=row["type_ids"][:-1]),
    "context_too_long": lambda row: dict(row, context_ids=[5] * 675, type_ids=[0] * 675),
    "question_too_long": lambda row: dict(row, question_ids=[5] * 17),
    "empty_context": lambda row: dict(row, context_ids=[], type_ids=[]),
    "empty_question": lambda row: dict(row, question_ids=[]),
    "float_id": lambda row: dict(row, context_ids=[5.7] + row["context_ids"][1:]),
    "whole_float_id": lambda row: dict(row, question_ids=[5.0] + row["question_ids"][1:]),
    "bool_type_id": lambda row: dict(row, type_ids=[True] + row["type_ids"][1:]),
    "unknown_answer_kind": lambda row: dict(row, answer_kind="medium"),
    "numeric_answer_kind": lambda row: dict(row, answer_kind=3),
}
# generate reads no question, so these do not stop it
QUESTION_DEFECTS = ("question_too_long", "empty_question")


@pytest.mark.parametrize("role, defect", [
    (role, defect)
    for role in ("train --data", "train --dev", "generate --data")
    for defect in PREPARED_DEFECTS
    if role != "generate --data" or defect not in QUESTION_DEFECTS
])
def test_prepared_defect_exits_2_naming_file_and_example(
    role, defect, workspace, tmp_path, capsys
):
    rows = [json.loads(line) for line in read_lines(workspace["prepared"])]
    bad = str(tmp_path / "bad.jsonl")
    write_jsonl(bad, [rows[0], PREPARED_DEFECTS[defect](dict(rows[1], id="bad_row"))])
    good, vocab = workspace["prepared"], workspace["vocab"]
    train = ["--vocab", vocab, "--out-dir", str(tmp_path / "run"), "--epochs", "1",
             *TINY_MODEL_FLAGS]
    argv = {
        "train --data": ["train", "--data", bad, "--dev", good, *train],
        "train --dev": ["train", "--data", good, "--dev", bad, *train],
        "generate --data": ["generate", "--checkpoint", workspace["checkpoint"], "--data",
                            bad, "--vocab", vocab, "--output", str(tmp_path / "gen.jsonl")],
    }[role]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith(f"error: {bad}")
    assert "bad_row" in err.splitlines()[0]
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]


def test_malformed_scores_row_exits_2_naming_file_and_line(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("id,s_ans,s_gra,model_tag\nhi,5.0,1.0,toy\nlo,high,-1.0,toy\n",
                      encoding="utf-8")
    annotations = tmp_path / "ann.jsonl"
    write_span_annotations(annotations, {"hi": True, "lo": False})
    assert cli.main(
        ["eval", "correlate", "--scores", str(scores), "--annotations", str(annotations),
         "--output", str(tmp_path / "corr.json")]
    ) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {scores}:3: ")


def test_over_long_scores_field_exits_2_naming_file_and_line(tmp_path, capsys):
    scores = tmp_path / "scores_long.csv"
    scores.write_text('id,s_ans,s_gra,model_tag\n"' + "x" * 200_000 + '",5.0,1.0,toy\n',
                      encoding="utf-8")
    annotations = tmp_path / "ann.jsonl"
    write_span_annotations(annotations, {"hi": True, "lo": False})
    capsys.readouterr()
    assert cli.main(
        ["eval", "correlate", "--scores", str(scores), "--annotations", str(annotations),
         "--output", str(tmp_path / "corr.json")]
    ) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {scores}:2: field larger than field limit")
    assert "Traceback" not in err and out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ann.jsonl", "scores_long.csv"]


# Each maps a good nq record to one whose `p_tag` or `short_spans` is not the
# JSON type the reader takes.
NQ_TYPE_DEFECTS = {
    "p_tag_string": lambda rec: dict(rec, p_tag="false"),
    "p_tag_null": lambda rec: dict(rec, p_tag=None),
    "span_floats": lambda rec: dict(rec, short_spans=[[0.9, 5.7]]),
    "span_bool": lambda rec: dict(rec, short_spans=[[True, 5]]),
    "span_strings": lambda rec: dict(rec, short_spans=[["0", "5"]]),
}


@pytest.mark.parametrize("kind", ["nq", "build-vocab nq"])
@pytest.mark.parametrize("defect", list(NQ_TYPE_DEFECTS))
def test_nq_record_takes_only_json_types_for_p_tag_and_spans(
    kind, defect, workspace, tmp_path, capsys
):
    good, _, argv = malformed_case(kind, workspace, tmp_path)
    bad = NQ_TYPE_DEFECTS[defect](good)
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(good) + "\n\n" + json.dumps(bad) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    field = "p_tag" if defect.startswith("p_tag") else "short_spans"
    assert err.startswith(f"error: {path}:3: record {good['id']}: field '{field}' must be ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl"]


# Each defect maps the good file's lines to (line number, bad line): the bad
# line replaces that line, or is appended when the number is one past the end.
VOCAB_DEFECTS = {
    "merge_without_space": lambda lines: (len(lines) + 1, b"abc"),
    "not_utf8": lambda lines: (len(lines) + 1, b"a \xff"),
    "not_utf8_token": lambda lines: (5, b"\xe2\x96a"),
    "special_replaced": lambda lines: (1, b"x"),
    "token_with_space": lambda lines: (5, "\u2581a b".encode()),
    "repeated_token": lambda lines: (6, lines[4]),
}


@pytest.mark.parametrize("command", ["prepare", "generate", "eval gen"])
@pytest.mark.parametrize("defect", list(VOCAB_DEFECTS))
def test_malformed_vocab_exits_2_naming_file_and_line(defect, command, workspace, tmp_path,
                                                       capsys):
    vocab = tmp_path / "vocab.txt"
    lines = open(workspace["vocab"], "rb").read().splitlines()
    bad_line, bad = VOCAB_DEFECTS[defect](lines)
    lines[bad_line - 1 : bad_line] = [bad]
    vocab.write_bytes(b"\n".join(lines) + b"\n")
    out = str(tmp_path / "out.jsonl")
    argv = {
        "prepare": ["prepare", "--kind", "nq", "--input", workspace["raw"], "--output", out],
        "generate": ["generate", "--checkpoint", workspace["checkpoint"], "--data",
                     workspace["prepared"], "--output", out],
        # the vocabulary is read before the candidates
        "eval gen": ["eval", "gen", "--candidates", workspace["prepared"], "--references",
                     workspace["prepared"], "--output", out],
    }[command]
    capsys.readouterr()
    assert cli.main(argv + ["--vocab", str(vocab)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {vocab}:{bad_line}: ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab.txt"]


def test_non_utf8_text_corpus_exits_2_naming_file_and_line(tmp_path, capsys):
    corpus_txt = tmp_path / "corpus.txt"
    corpus_txt.write_bytes(b"what is the capital\nparis is \xff\n")
    capsys.readouterr()
    assert cli.main(
        ["build-vocab", "--kind", "text", "--input", str(corpus_txt),
         "--output", str(tmp_path / "v.txt")]
    ) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith(f"error: {corpus_txt}:2: ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt"]


def test_crlf_text_corpus_builds_the_same_vocab(workspace, tmp_path):
    crlf = tmp_path / "corpus_crlf.txt"
    crlf.write_bytes(open(workspace["corpus"], "rb").read().replace(b"\n", b"\r\n"))
    out = str(tmp_path / "v.txt")
    assert cli.main(
        ["build-vocab", "--kind", "text", "--input", str(crlf), "--output", out, "--size", "120"]
    ) == cli.EXIT_OK
    assert open(out, "rb").read() == open(workspace["vocab"], "rb").read()


def test_non_utf8_scores_csv_exits_2_naming_file_and_line(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_bytes(b"id,s_ans,s_gra,model_tag\nhi,5.0,1.0,toy\nlo,-5.0,-1.0,t\xff\n")
    annotations = tmp_path / "ann.jsonl"
    write_span_annotations(annotations, {"hi": True, "lo": False})
    capsys.readouterr()
    assert cli.main(
        ["eval", "correlate", "--scores", str(scores), "--annotations", str(annotations),
         "--output", str(tmp_path / "corr.json")]
    ) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.splitlines()[0].startswith(f"error: {scores}:3: ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ann.jsonl", "scores.csv"]


# Neither input exists, so only a check made before any read can name the setting.
PREPARE_MISSING_INPUTS = ["prepare", "--kind", "nq", "--input", "missing.jsonl",
                          "--vocab", "missing.txt"]


@pytest.mark.parametrize("flag, value", [
    ("--max-context", "-1"), ("--max-context", "0"), ("--max-question", "0"),
])
def test_prepare_length_below_1_from_a_flag_exits_2_naming_it(flag, value, tmp_path, capsys):
    out = tmp_path / "p.jsonl"
    capsys.readouterr()
    assert cli.main([*PREPARE_MISSING_INPUTS, "--output", str(out), flag, value]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    name = flag[2:].replace("-", "_")
    assert err.startswith(f"error: {name} must be >= 1, got {value}")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["max_context", "max_question"])
def test_prepare_length_below_1_from_config_exits_2_naming_it(key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: -1}), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(
        ["--config", str(cfg), *PREPARE_MISSING_INPUTS, "--output", str(tmp_path / "p.jsonl")]
    ) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be >= 1, got -1")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def subcommands(parser, prefix=""):
    """{'train': parser, 'eval gen': parser, ...} for every leaf subcommand."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(subcommands(sub, prefix + name + " ") or {prefix + name: sub})
    return found


def settings_taken():
    """(subcommand, setting) for each setting of the table that a subcommand takes."""
    return [
        (command, action.dest)
        for command, sub in subcommands(cli.build_parser()).items()
        for action in sub._actions
        if action.dest in cli.SETTINGS
    ]


def test_every_setting_is_taken_by_some_subcommand():
    assert {name for _, name in settings_taken()} == set(cli.SETTINGS)


def test_option_strings_of_each_subcommand_are_pinned():
    options = {
        command: sorted(o for action in sub._actions for o in action.option_strings)
        for command, sub in subcommands(cli.build_parser()).items()
    }
    assert options == {
        "build-vocab": ["--help", "--input", "--kind", "--output", "--size", "-h"],
        "prepare": ["--help", "--input", "--kind", "--max-context", "--max-question",
                    "--output", "--vocab", "-h"],
        "train": ["--batch-size", "--cross-layers", "--d-model", "--data",
                  "--decoder-lm-layers", "--dev", "--encoder-layers", "--epochs", "--ffn-dim",
                  "--help", "--lr", "--max-context", "--max-question", "--n-heads",
                  "--no-pointer", "--no-type-ids", "--out-dir", "--seed",
                  "--split-ratio", "--vocab", "-h"],
        "generate": ["--beam", "--checkpoint", "--data", "--help", "--max-question", "--mode",
                     "--no-length-normalize", "--output", "--seed", "--temperature", "--top-p",
                     "--vocab", "-h"],
        "eval gen": ["--candidates", "--help", "--output", "--per-example", "--references",
                     "--vocab", "-h"],
        "eval qa": ["--context-source", "--contexts", "--help", "--model-tag",
                    "--output-prefix", "--questions", "--vocab", "-h"],
        "eval correlate": ["--annotations", "--help", "--output", "--scores",
                           "--unanimity-output", "-h"],
    }


@pytest.mark.parametrize("command,key,value", [
    (command, key, value)
    for command, key in settings_taken()
    for value in ("3", True, None)
    + ((1.5, math.inf, math.nan) if cli.SETTINGS[key] is int else ())
])
def test_config_value_of_the_wrong_kind_exits_2_naming_file_and_key(
    command, key, value, workspace, tmp_path, capsys
):
    argv, _ = command_argv(command, workspace, tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert cli.main(["--config", str(cfg), *argv]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {cfg}: {key}: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_config_keys_the_subcommand_does_not_take_are_ignored(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beam": "3", "lr": None, "colour": "red", "size": 60}),
                   encoding="utf-8")
    out = str(tmp_path / "v.txt")
    assert cli.main(
        ["--config", str(cfg), "build-vocab", "--input", workspace["corpus"], "--output", out]
    ) == cli.EXIT_OK
    manifest = json.loads(open(out + ".manifest.json", encoding="utf-8").read())
    assert manifest["settings"]["size"] == 60


def test_config_numbers_take_the_setting_type(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 0.0, "lr": 1, "batch_size": 2}), encoding="utf-8")
    out_dir = tmp_path / "run"
    assert cli.main(
        ["--config", str(cfg), "train", "--data", workspace["prepared"], "--vocab",
         workspace["vocab"], "--out-dir", str(out_dir), *TINY_MODEL_FLAGS]
    ) == cli.EXIT_OK
    train = json.loads((out_dir / "train.manifest.json").read_text())["settings"]["train"]
    assert (train["epochs"], train["lr"], train["batch_size"]) == (0, 1.0, 2)
    assert isinstance(train["epochs"], int) and isinstance(train["lr"], float)


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("mode", ["train", "beam", "nucleus", "greedy"])
def test_negative_seed_exits_2_naming_it(mode, given, workspace, tmp_path, capsys):
    argv, _ = command_argv("train" if mode == "train" else "generate", workspace, tmp_path)
    if mode != "train":
        argv += ["--mode", mode]
    cfg = tmp_path / "cfg.json"
    if given == "flag":
        argv += ["--seed", "-1"]
        expected = "error: --seed must be >= 0, got -1\n"
    else:
        cfg.write_text(json.dumps({"seed": -1}), encoding="utf-8")
        argv = ["--config", str(cfg), *argv]
        expected = f"error: {cfg}: seed must be >= 0, got -1\n"
    before = sorted(p.name for p in tmp_path.rglob("*"))
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", expected)
    assert sorted(p.name for p in tmp_path.rglob("*")) == before  # no output, run dir or .*.tmp


# Each case: the command, the input file it rewrites (in command_argv's
# directory, or the text corpus), that file's new content, and what the
# message says after the file's name.
EMPTY_OR_UNMATCHED_INPUTS = {
    "empty corpus": ("build-vocab", "corpus.txt", "", ": corpus is empty"),
    "blank corpus": ("build-vocab", "corpus.txt", "\n  \n\t\n", ": corpus contains no words"),
    "no candidates": ("eval gen", "cands.jsonl", "\n", ": no candidate questions"),
    "unmatched candidate": ("eval gen", "cands.jsonl",
                            '{"id": "r1", "question_text": "what"}\n'
                            '{"id": "zzz", "question_text": "what"}\n',
                            ":2: candidate zzz has no reference question in "),
    "unmatched question": ("eval qa", "questions.jsonl",
                           '{"id": "zzz", "question_text": "the storm"}\n',
                           ":1: question zzz has no context in "),
    "empty context": ("eval qa", "news.jsonl",
                      '{"id": "n1", "article": "@highlight the storm", "highlights": "x"}\n',
                      ": article n1: empty context"),
    "one-token context": ("eval qa", "news.jsonl",
                          '{"id": "n1", "article": "(CNN) -- the", "highlights": "x"}\n',
                          ": article n1: need >= 2 context positions, got 1"),
    "short annotation set": ("eval correlate", "ann.jsonl",
                             "".join(json.dumps({"article_id": "a", "annotator_id": f"ann{k}",
                                                 "flags": dict.fromkeys(FLAG_NAMES, False)}) + "\n"
                                     for k in range(2)),
                             ": article a has 2 annotations, need exactly 3"),
    "one scored article": ("eval correlate", "scores.csv",
                           "id,s_ans,s_gra,model_tag\nhi,5.0,1.0,toy\n",
                           ": need scored annotations for at least 2 articles"),
}


@pytest.mark.parametrize("case", list(EMPTY_OR_UNMATCHED_INPUTS))
def test_empty_or_unmatched_input_exits_2_naming_the_file(case, workspace, tmp_path, capsys):
    command, name, content, message = EMPTY_OR_UNMATCHED_INPUTS[case]
    if command == "build-vocab":
        argv = ["build-vocab", "--kind", "text", "--input", str(tmp_path / name),
                "--output", str(tmp_path / "v.txt")]
    else:
        argv, _ = command_argv(command, workspace, tmp_path)
    (tmp_path / name).write_text(content, encoding="utf-8")
    before = sorted(p.name for p in tmp_path.rglob("*"))
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {tmp_path / name}{message}")
    assert "Traceback" not in err and out == ""
    assert sorted(p.name for p in tmp_path.rglob("*")) == before  # no output or .*.tmp


def rewrite_prepared(ws, path, **fields):
    """The workspace's prepared rows, the second renamed bad_row and given
    `fields`, written to `path`; returns `path` as a string."""
    rows = [json.loads(line) for line in read_lines(ws["prepared"])]
    write_jsonl(path, [rows[0], dict(rows[1], id="bad_row", **fields), *rows[2:]])
    return str(path)


def vocab_cut_to(ws, path, n_tokens):
    """The workspace's vocabulary cut to its first `n_tokens` tokens and no
    merges, written to `path`; returns `path` as a string."""
    tokens = read_lines(ws["vocab"])[:n_tokens]
    path.write_text("\n".join(tokens + [MERGE_SENTINEL]) + "\n", encoding="utf-8")
    return str(path)


# Each case: the command, the flag whose file the case swaps in, a function
# of (workspace, directory) that writes that file and returns its path, and
# what the message's first line names after the path ({checkpoint} is the
# workspace's checkpoint).
MISFIT_INPUTS = {
    "vocab size mismatch": (
        "generate", "--vocab", lambda ws, t: vocab_cut_to(ws, t / "small_vocab.txt", 10),
        "vocab of 10 does not match vocab_size=120 of checkpoint {checkpoint}",
    ),
    "reference id beyond vocab": (
        "eval gen", "--references",
        lambda ws, t: rewrite_prepared(ws, t / "refs.jsonl",
                                       question_ids=[len(load_vocab(ws["vocab"])) + 7]),
        "example bad_row: question id ",
    ),
    "PAD in question": (
        "train", "--data",
        lambda ws, t: rewrite_prepared(ws, t / "pad.jsonl", question_ids=[5, 0, 6]),
        "example bad_row: PAD (id 0) in question",
    ),
}


@pytest.mark.parametrize("case", list(MISFIT_INPUTS))
def test_input_that_does_not_fit_its_partner_exits_2_naming_the_file(
    case, workspace, tmp_path, capsys
):
    command, flag, write, named = MISFIT_INPUTS[case]
    argv, _ = command_argv(command, workspace, tmp_path)
    path = write(workspace, tmp_path)
    argv[argv.index(flag) + 1] = path
    before = sorted(p.name for p in tmp_path.rglob("*"))
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    first = err.splitlines()[0]
    assert first.startswith(f"error: {path}: ")
    assert named.format(checkpoint=workspace["checkpoint"]) in first
    assert "Traceback" not in err and out == ""
    # no output, manifest, .*.tmp or --out-dir
    assert sorted(p.name for p in tmp_path.rglob("*")) == before
