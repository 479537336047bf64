"""The three benchmark workloads as `sqgen` command lines plus output checks.

Each workload is a `Plan`: commands that make its prerequisites, the same
commands on empty input (timed as set-up), and the pipeline whose passes are
measured. Every command comes with a check that validates what it wrote and
returns how many items it processed.

- `train`: the only workload that records a graph and runs backward and Adam,
  so `numerics`, `model` and `training` do most of the work and `decoding`
  and `textproc` do none.
- `generate`: beam 3, then nucleus with the CLI defaults, then greedy, over
  the same contexts from an untrained checkpoint. It runs `model` forward
  only, step by step, which `train` does not. The untrained model never
  reaches EOS, so the work per question is fixed.
- `text`: build-vocab, prepare, eval gen and eval qa. No model: `textproc`,
  `corpus`, `genmetrics`, `qaeval` and `cli` do all the work.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import synth
from sqgen.corpus import MAX_CONTEXT_TOKENS
from sqgen.model import load_checkpoint
from sqgen.textproc import load_vocab

VOCAB_SIZE = synth.VOCAB_SIZE

# train: one batch per epoch, so the graph held at the peak, and with it
# peak RSS, is the whole (seed-independent) set of context lengths.
N_TRAIN, N_DEV, EPOCHS, BATCH = 10, 4, 3, 10
# generate: few contexts per pass, so a run holds several passes; the traced
# run takes more, so the decode_step p99 has more than 10 samples beyond it.
N_CONTEXTS, N_CONTEXTS_TRACED, MAX_QUESTION, BEAM = 3, 16, 15, 3
# text
N_NQ, N_NEWS = 300, 400


class CheckFailed(Exception):
    """A command's output is missing, malformed or wrong."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Command:
    stage: str  # what its throughput is reported as; see STAGES
    argv: list[str]
    check: Callable[[], int]  # validates the outputs, returns items processed
    outputs: list[Path]  # hashed into the digest

    @property
    def cli(self) -> str:
        """The `sqgen` command, as named in the cli.<command>_self_s metrics."""
        words = self.argv[:2] if self.argv[0] == "eval" else self.argv[:1]
        return "_".join(words).replace("-", "_")


@dataclass
class Plan:
    prereq: list[Command]
    setup: list[Command]
    pipeline: list[Command]
    items: int  # work in one pipeline pass, the numerator of items_per_s


# stage -> (throughput metric, unit)
STAGES = {
    "train": ("train_tokens_per_s", "tokens/s"),
    "beam": ("beam_questions_per_s", "questions/s"),
    "nucleus": ("nucleus_questions_per_s", "questions/s"),
    "greedy": ("greedy_questions_per_s", "questions/s"),
    "vocab": ("vocab_merges_per_s", "merges/s"),
    "prepare": ("prepare_records_per_s", "records/s"),
    "eval_gen": ("eval_gen_rows_per_s", "rows/s"),
    "eval_qa": ("eval_qa_rows_per_s", "rows/s"),
}


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def check_vocab(path: Path) -> int:
    """The vocabulary reloads with VOCAB_SIZE entries; returns its merges."""
    vocab = load_vocab(str(path))
    expect(len(vocab) == VOCAB_SIZE, f"{path.name}: {len(vocab)} entries, not {VOCAB_SIZE}")
    return len(vocab.merges)


def check_checkpoint(path: Path) -> None:
    config, _ = load_checkpoint(str(path))
    expect(config.vocab_size == VOCAB_SIZE, f"{path.name}: vocab_size {config.vocab_size}")


def expect_ids(rows: list[dict], ids: list[str], what: str) -> None:
    got = [str(r["id"]) for r in rows]
    expect(got == ids, f"{what}: {len(got)} rows for {len(ids)} ids, or ids out of order")


# -- train ---------------------------------------------------------------------


def train_plan(work: Path, seed: int, traced: bool) -> Plan:
    synth.make_id_level(work, seed, n_train=N_TRAIN, n_dev=N_DEV, n_generate=0)
    vocab, data, dev = work / "vocab.txt", work / "train.jsonl", work / "dev.jsonl"
    tokens = sum(len(r["question_ids"]) + 1 for r in read_jsonl(data))  # + EOS

    def train(out: Path, epochs: int) -> Command:
        ckpts = [out / "best.ckpt"] + [out / f"epoch_{e:03d}.ckpt" for e in range(1, epochs + 1)]

        def check() -> int:
            log = read_csv(out / "train_log.csv")
            expect(len(log) == epochs, f"train_log.csv: {len(log)} epochs, not {epochs}")
            for row in log:
                expect(math.isfinite(float(row["dev_perplexity"])), "dev perplexity not finite")
            for path in ckpts:
                check_checkpoint(path)
            check_vocab(vocab)
            return tokens * epochs

        argv = ["train", "--data", str(data), "--dev", str(dev), "--vocab", str(vocab),
                "--out-dir", str(out), "--epochs", str(epochs), "--batch-size", str(BATCH),
                "--seed", str(seed)]
        return Command("train", argv, check, ckpts)

    return Plan(prereq=[], setup=[train(work / "setup", 0)],
                pipeline=[train(work / "run", EPOCHS)], items=tokens * EPOCHS)


# -- generate ------------------------------------------------------------------


def generate_plan(work: Path, seed: int, traced: bool) -> Plan:
    n = N_CONTEXTS_TRACED if traced else N_CONTEXTS
    synth.make_id_level(work, seed, n_train=0, n_dev=0, n_generate=n)
    vocab, contexts, empty = work / "vocab.txt", work / "contexts.jsonl", work / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    ckpt = work / "untrained" / "best.ckpt"
    ids = [r["id"] for r in read_jsonl(contexts)]

    def make_checkpoint() -> int:
        check_checkpoint(ckpt)
        return check_vocab(vocab)

    prereq = Command(
        "train",
        ["train", "--data", str(contexts), "--vocab", str(vocab), "--out-dir",
         str(ckpt.parent), "--epochs", "0", "--seed", str(seed)],
        make_checkpoint, [ckpt],
    )

    def generate(mode: str, data: Path, expected: list[str]) -> Command:
        out = work / f"{mode}_{data.stem}.jsonl"

        def check() -> int:
            rows = read_jsonl(out)
            expect_ids(rows, expected, out.name)
            for r in rows:
                expect(math.isfinite(r["logprob"]) and r["logprob"] <= 0.0,
                       f"{out.name}: logprob {r['logprob']} for {r['id']}")
                expect(isinstance(r["question_text"], str), f"{out.name}: no question_text")
            return len(rows)

        argv = ["generate", "--checkpoint", str(ckpt), "--data", str(data), "--vocab",
                str(vocab), "--output", str(out), "--mode", mode,
                "--max-question", str(MAX_QUESTION), "--beam", str(BEAM), "--seed", str(seed)]
        return Command(mode, argv, check, [out])

    modes = ("beam", "nucleus", "greedy")
    return Plan(
        prereq=[prereq],
        setup=[generate(m, empty, []) for m in modes],
        pipeline=[generate(m, contexts, ids) for m in modes],
        items=len(modes) * len(ids),
    )


# -- text ----------------------------------------------------------------------


def text_plan(work: Path, seed: int, traced: bool) -> Plan:
    synth.make_text(work, seed, n_nq=N_NQ, n_news=N_NEWS)
    raw = read_jsonl(work / "raw.jsonl")
    kept_ids = [r["id"] for r in raw if r["p_tag"]]
    cand_ids = [r["id"] for r in read_jsonl(work / "candidates.jsonl")]
    question_ids = [r["id"] for r in read_jsonl(work / "questions.jsonl")]
    p = lambda name: str(work / name)

    def build_vocab(src: str, out: Path, full: bool) -> Command:
        def check() -> int:
            return check_vocab(out) if full else len(load_vocab(str(out)).merges)

        argv = ["build-vocab", "--kind", "nq", "--input", src, "--output", str(out),
                "--size", str(VOCAB_SIZE)]
        return Command("vocab", argv, check, [out])

    def prepare(src: str, vocab: str, out: Path, expected: list[str]) -> Command:
        def check() -> int:
            rows = read_jsonl(out)
            expect_ids(rows, expected, out.name)
            for r in rows:
                expect(0 < len(r["context_ids"]) == len(r["type_ids"]) <= MAX_CONTEXT_TOKENS,
                       f"{out.name}: bad context for {r['id']}")
                expect(all(0 <= i < VOCAB_SIZE for i in r["context_ids"] + r["question_ids"]),
                       f"{out.name}: token id out of range in {r['id']}")
            return len(read_jsonl(Path(src)))

        argv = ["prepare", "--kind", "nq", "--input", src, "--output", str(out), "--vocab", vocab]
        return Command("prepare", argv, check, [out])

    def eval_gen(cands: str, refs: str, vocab: str, tag: str, expected: list[str]) -> Command:
        report, per_example = work / f"{tag}_report.json", work / f"{tag}_per_example.csv"

        def check() -> int:
            payload = json.loads(report.read_text(encoding="utf-8"))
            expect(payload["n"] == len(expected), f"{report.name}: n={payload['n']}")
            for key in ("bleu1", "bleu4", "rouge_l", "meteor_lite"):
                expect(0.0 <= payload[key] <= 100.0, f"{report.name}: {key}={payload[key]}")
            rows = read_csv(per_example)
            expect_ids(rows, expected, per_example.name)
            for r in rows:
                for key in ("bleu1", "bleu4", "rouge_l", "meteor_lite"):
                    expect(0.0 <= float(r[key]) <= 100.0, f"{per_example.name}: {key} of {r['id']}")
            return len(rows)

        argv = ["eval", "gen", "--candidates", cands, "--references", refs, "--vocab", vocab,
                "--output", str(report), "--per-example", str(per_example)]
        return Command("eval_gen", argv, check, [report, per_example])

    def eval_qa(questions: str, news: str, vocab: str, tag: str, expected: list[str]) -> Command:
        prefix = work / tag
        scatter = work / f"{tag}_scatter.csv"
        outputs = [scatter, work / f"{tag}_means.csv", work / f"{tag}_scatter.svg"]

        def check() -> int:
            rows = read_csv(scatter)
            expect_ids(rows, expected, scatter.name)
            for r in rows:
                expect(math.isfinite(float(r["s_ans"])) and math.isfinite(float(r["s_gra"])),
                       f"{scatter.name}: score not finite for {r['id']}")
            means = read_csv(outputs[1])
            expect(int(means[0]["n"]) == len(rows) if rows else not means,
                   f"{outputs[1].name}: wrong n")
            expect(outputs[2].stat().st_size > 0, f"{outputs[2].name}: empty")
            return len(rows)

        argv = ["eval", "qa", "--questions", questions, "--contexts", news, "--vocab", vocab,
                "--output-prefix", str(prefix)]
        return Command("eval_qa", argv, check, outputs)

    setup = [
        build_vocab(p("setup_raw.jsonl"), work / "setup_vocab.txt", full=False),
        prepare(p("empty.jsonl"), p("vocab8000.txt"), work / "setup_prepared.jsonl", []),
        eval_gen(p("setup_candidates.jsonl"), p("setup_references.jsonl"), p("vocab8000.txt"),
                 "setup", [synth.SETUP_ID]),
        eval_qa(p("empty.jsonl"), p("empty.jsonl"), p("vocab8000.txt"), "setup_qa", []),
    ]
    pipeline = [
        build_vocab(p("raw.jsonl"), work / "vocab.txt", full=True),
        prepare(p("raw.jsonl"), p("vocab.txt"), work / "prepared.jsonl", kept_ids),
        eval_gen(p("candidates.jsonl"), p("prepared.jsonl"), p("vocab.txt"), "gen", cand_ids),
        eval_qa(p("questions.jsonl"), p("news.jsonl"), p("vocab.txt"), "qa", question_ids),
    ]
    return Plan(prereq=[], setup=setup, pipeline=pipeline,
                items=len(raw) + len(cand_ids) + len(question_ids))


PLANS = {"train": train_plan, "generate": generate_plan, "text": text_plan}
