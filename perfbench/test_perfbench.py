"""Tests of the benchmark's own logic: seeded inputs, self-time arithmetic,
and that tracing changes no result."""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import synth  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times, train_step_ms  # noqa: E402
import workloads  # noqa: E402
from workloads import Command, Plan  # noqa: E402

from sqgen import cli, decoding  # noqa: E402


def _files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def _make_inputs(out: Path, seed: int) -> None:
    out.mkdir()
    synth.make_id_level(out, seed, n_train=3, n_dev=2, n_generate=2)
    synth.make_text(out, seed, n_nq=20, n_news=4)


def test_inputs_are_a_function_of_the_seed(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        _make_inputs(tmp_path / name, seed)
    a, b, c = (_files(tmp_path / n) for n in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert all(a[k] != c[k] for k in ("vocab.txt", "train.jsonl", "raw.jsonl", "news.jsonl"))


def test_seed_changes_content_not_size(tmp_path):
    assert sorted(synth.spread(150, 300, 7)) == [150, 175, 200, 225, 250, 275, 300]
    lengths = []
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        synth.make_id_level(tmp_path / str(seed), seed, n_train=5, n_dev=0, n_generate=0)
        rows = workloads.read_jsonl(tmp_path / str(seed) / "train.jsonl")
        lengths.append([(len(r["context_ids"]), len(r["question_ids"])) for r in rows])
    assert lengths[0] == lengths[1]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("root", 0.0, 10.0, None, ""),
        Span("a", 1.0, 4.0, 0, ""),
        Span("a.leaf", 2.0, 3.0, 1, ""),
        Span("b", 5.0, 9.0, 0, ""),
        Span("c", 8.0, 9.5, 0, ""),  # overlaps b: 8..9 is counted once
    ]
    assert self_times(spans) == [10.0 - 3.0 - 4.5, 2.0, 1.0, 4.0, 1.5]


def test_layer_metrics_on_a_hand_built_trace():
    spans = [
        Span("cli.train", 0.0, 10.0, None, "train"),
        Span("training.train", 0.5, 9.5, 0, "train"),
        Span("training.nll_loss", 1.0, 2.0, 1, "train"),
        Span("training.nll_loss", 2.0, 3.0, 1, "train"),
        Span("numerics.grad_map", 3.0, 4.0, 1, "train"),
        Span("training.adam_step", 4.0, 4.5, 1, "train"),
        Span("training.perplexity", 5.0, 6.0, 1, "train"),
        Span("training.nll_loss", 5.2, 5.8, 6, "train"),  # dev loss, not a step
        Span("decoding.greedy", 11.0, 12.0, None, "greedy"),
        Span("model.decode_step", 11.1, 11.2, 8, "greedy"),
        Span("model.decode_step", 11.3, 11.4, 8, "greedy"),
    ]
    assert train_step_ms(spans) == [3500.0]
    m = layer_metrics(spans, Tracer().counts)
    assert m["cli.train_self_s"] == 1.0
    assert abs(m["training.perplexity_s"] - 0.4) < 1e-12
    assert m["numerics.grad_map_calls"] == 1.0
    assert m["decoding.steps_per_question.greedy"] == 2.0
    assert m["decoding.steps_per_question.beam"] == 0.0


def test_tracing_changes_no_generated_output(tmp_path):
    synth.make_id_level(tmp_path, 3, n_train=0, n_dev=0, n_generate=2)
    vocab, contexts = str(tmp_path / "vocab.txt"), str(tmp_path / "contexts.jsonl")
    tiny = ["--d-model", "16", "--n-heads", "2", "--encoder-layers", "1",
            "--decoder-lm-layers", "1", "--cross-layers", "1", "--ffn-dim", "32"]
    assert cli.main(["train", "--data", contexts, "--vocab", vocab, "--out-dir",
                     str(tmp_path / "m"), "--epochs", "0"] + tiny) == 0
    commands = []
    for mode in ("beam", "nucleus", "greedy"):
        out = tmp_path / f"{mode}.jsonl"
        argv = ["generate", "--checkpoint", str(tmp_path / "m" / "best.ckpt"), "--data",
                contexts, "--vocab", vocab, "--output", str(out), "--mode", mode,
                "--max-question", "4"]
        commands.append(Command(mode, argv, lambda: 2, [out]))

    original = decoding.beam_search
    runner = run.Runner("generate", {}, tmp_path / "log", time.monotonic())
    metrics = run.trace("generate", runner, Plan([], [], commands, 6), tmp_path / "t")

    assert runner.tally.attempted == 9 and runner.tally.failures == []
    assert decoding.beam_search is original
    assert metrics["decoding.steps_per_question.greedy"] == 4.0
    assert metrics["decoding.steps_per_question.beam"] == 1 + 3 * 3
    assert metrics["model.decode_step_calls"] == 2 * (10 + 4 + 4)
    assert (tmp_path / "t.spans.jsonl").stat().st_size > 0
