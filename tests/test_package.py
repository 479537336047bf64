"""The package's public names and what importing it, the text-only CLI
commands and the decoding commands load."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import sqgen

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sqgen.__file__)))
CORPUS = "what is the capital of france\nparis is the capital of france\n"
RECORD = {"id": "r1", "title": "capitals", "question": "what is the capital of france",
          "context": "paris is the capital of france", "short_spans": [[0, 5]], "p_tag": True}


def run_fresh(code: str, cwd) -> str:
    """Standard output of `code` run in a new interpreter that imports
    sqgen from this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestImportBoundary:
    def test_bare_import_loads_no_numpy_and_no_submodule(self, tmp_path):
        out = run_fresh(
            """
            import sys
            import sqgen
            print(sorted(m for m in sys.modules if m == "numpy" or m.startswith("sqgen.")))
            """,
            tmp_path,
        )
        assert out.strip() == "[]"

    def test_text_only_commands_run_without_numpy(self, tmp_path):
        (tmp_path / "corpus.txt").write_text(CORPUS, encoding="utf-8")
        (tmp_path / "raw.jsonl").write_text(json.dumps(RECORD) + "\n", encoding="utf-8")
        (tmp_path / "cands.jsonl").write_text(
            json.dumps({"id": "r1", "question_text": "what is the capital"}) + "\n",
            encoding="utf-8",
        )
        (tmp_path / "news.jsonl").write_text(
            json.dumps({"id": "r1", "article": "paris is the capital of france",
                        "highlights": "paris"}) + "\n",
            encoding="utf-8",
        )
        out = run_fresh(
            """
            import sys
            from sqgen import cli
            for argv in (
                ["build-vocab", "--input", "corpus.txt", "--output", "vocab.txt", "--size", "60"],
                ["prepare", "--kind", "nq", "--input", "raw.jsonl", "--output", "prep.jsonl",
                 "--vocab", "vocab.txt"],
                ["eval", "gen", "--candidates", "cands.jsonl", "--references", "prep.jsonl",
                 "--vocab", "vocab.txt", "--output", "gen.json", "--per-example", "gen.csv"],
                ["eval", "qa", "--questions", "cands.jsonl", "--contexts", "news.jsonl",
                 "--vocab", "vocab.txt", "--output-prefix", "qa"],
            ):
                print(cli.main(argv), "numpy" in sys.modules, "html" in sys.modules,
                      "datetime" in sys.modules)
            """,
            tmp_path,
        )
        # Only `eval qa` draws a plot, which escapes its labels with `html`.
        assert out.split("\n") == [
            "0 False False False", "0 False False False", "0 False False False",
            "0 False True False", "",
        ]
        assert json.loads((tmp_path / "gen.json").read_text(encoding="utf-8"))["n"] == 1
        assert (tmp_path / "qa_scatter.csv").read_text(encoding="utf-8").count("\n") == 2

    def test_decoding_commands_never_import_numpy_random(self, tmp_path, monkeypatch):
        from sqgen import cli

        (tmp_path / "corpus.txt").write_text(CORPUS, encoding="utf-8")
        (tmp_path / "raw.jsonl").write_text(
            "".join(json.dumps({**RECORD, "id": f"r{i}"}) + "\n" for i in range(2)),
            encoding="utf-8",
        )
        monkeypatch.chdir(tmp_path)
        for argv in (
            ["build-vocab", "--input", "corpus.txt", "--output", "vocab.txt", "--size", "60"],
            ["prepare", "--kind", "nq", "--input", "raw.jsonl", "--output", "prep.jsonl",
             "--vocab", "vocab.txt", "--max-context", "16", "--max-question", "8"],
            ["train", "--data", "prep.jsonl", "--vocab", "vocab.txt", "--out-dir", "run",
             "--epochs", "1", "--d-model", "8", "--n-heads", "2", "--encoder-layers", "1",
             "--decoder-lm-layers", "1", "--cross-layers", "1", "--ffn-dim", "8",
             "--max-context", "16", "--max-question", "8"],
        ):
            assert cli.main(argv) == 0
        # A new interpreter: pytest itself has numpy.random loaded.
        out = run_fresh(
            """
            import sys
            from sqgen import cli
            generate = ["generate", "--checkpoint", "run/best.ckpt", "--data", "prep.jsonl",
                        "--vocab", "vocab.txt", "--output", "gen.jsonl", "--mode"]
            for argv in (
                generate + ["beam"],
                generate + ["nucleus", "--temperature", "1.0", "--seed", "7"],
                generate + ["greedy"],
                ["eval", "gen", "--candidates", "gen.jsonl", "--references", "prep.jsonl",
                 "--vocab", "vocab.txt", "--output", "gen.json"],
            ):
                print(cli.main(argv), "numpy.random" in sys.modules)
            """,
            tmp_path,
        )
        assert out.split("\n") == ["0 False", "0 False", "0 False", "0 False", ""]


    def test_only_eval_gen_imports_genmetrics(self, tmp_path):
        (tmp_path / "corpus.txt").write_text(CORPUS, encoding="utf-8")
        (tmp_path / "raw.jsonl").write_text(json.dumps(RECORD) + "\n", encoding="utf-8")
        (tmp_path / "cands.jsonl").write_text(
            json.dumps({"id": "r1", "question_text": "what is the capital"}) + "\n",
            encoding="utf-8",
        )
        (tmp_path / "news.jsonl").write_text(
            json.dumps({"id": "r1", "article": "paris is the capital of france",
                        "highlights": "paris"}) + "\n",
            encoding="utf-8",
        )
        out = run_fresh(
            """
            import sys
            from sqgen import cli
            for argv in (
                ["build-vocab", "--input", "corpus.txt", "--output", "vocab.txt", "--size", "60"],
                ["prepare", "--kind", "nq", "--input", "raw.jsonl", "--output", "prep.jsonl",
                 "--vocab", "vocab.txt"],
                ["eval", "qa", "--questions", "cands.jsonl", "--contexts", "news.jsonl",
                 "--vocab", "vocab.txt", "--output-prefix", "qa"],
                ["eval", "gen", "--candidates", "cands.jsonl", "--references", "prep.jsonl",
                 "--vocab", "vocab.txt", "--output", "gen.json"],
            ):
                print(cli.main(argv), "sqgen.genmetrics" in sys.modules)
            """,
            tmp_path,
        )
        assert out.split("\n") == ["0 False", "0 False", "0 False", "0 True", ""]


class TestPublicNames:
    @pytest.mark.parametrize("name", [n for n in sqgen.__all__ if n != "__version__"])
    def test_each_name_is_its_submodule_object(self, name):
        owner = importlib.import_module(f"sqgen.{sqgen._EXPORTS[name]}")
        assert getattr(sqgen, name) is getattr(owner, name)

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from sqgen import *", namespace)
        assert set(sqgen.__all__) <= set(namespace)
        assert namespace["BertPgn"] is importlib.import_module("sqgen.model").BertPgn

    def test_readme_library_import_line(self):
        from sqgen import (BertPgn, ModelConfig, TrainConfig, beam_search,  # noqa: F401
                           decode, split_dataset, train)

        assert train is importlib.import_module("sqgen.training").train

    def test_dir_lists_public_names_before_any_is_loaded(self, tmp_path):
        out = run_fresh(
            """
            import sqgen
            print(set(sqgen.__all__) <= set(dir(sqgen)))
            """,
            tmp_path,
        )
        assert out.strip() == "True"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sqgen.no_such_name  # noqa: B018
        assert not hasattr(sqgen, "no_such_name")
