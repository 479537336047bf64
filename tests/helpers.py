"""Shared builders for the test suite: tiny corpora, toy models, stub models."""

from __future__ import annotations

import builtins
import hashlib
import random

import numpy as np

from sqgen.corpus import PreparedExample
from sqgen.model import BertPgn, ModelConfig

TOY = dict(
    vocab_size=20,
    d_model=16,
    n_heads=2,
    encoder_layers=1,
    decoder_lm_layers=1,
    cross_layers=1,
    ffn_dim=32,
    max_context=16,
    max_question=8,
)


def toy_model(seed: int = 0, **overrides) -> BertPgn:
    return BertPgn(ModelConfig(**{**TOY, **overrides}), seed=seed)


def params_digest(params) -> str:
    """sha256 over each parameter's name, shape and bytes, in dict order."""
    h = hashlib.sha256()
    for name, t in params.items():
        h.update(name.encode())
        h.update(repr(t.data.shape).encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


def copy_task(
    n_examples: int,
    vocab_size: int = 30,
    min_len: int = 8,
    max_len: int = 12,
    min_span: int = 2,
    max_span: int = 4,
    seed: int = 42,
) -> list[PreparedExample]:
    """Synthetic task: the question is exactly the tagged context run."""
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n_examples):
        length = int(rng.integers(min_len, max_len + 1))
        context = rng.integers(4, vocab_size, size=length).tolist()
        span = int(rng.integers(min_span, max_span + 1))
        start = int(rng.integers(0, length - span + 1))
        types = [0] * length
        for j in range(start, start + span):
            types[j] = 1
        examples.append(
            PreparedExample(
                id=f"copy{i}",
                context_ids=context,
                type_ids=types,
                question_ids=context[start : start + span],
                answer_kind="short",
            )
        )
    return examples


def zipf_corpus() -> list[str]:
    """1200 seeded lines of 5-15 words drawn with weight 1/rank from 2000
    random word types of 2-9 letters over 'a'..'p', so BPE sees a realistic
    count spread."""
    rng = random.Random(11)
    types = ["".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randint(2, 9)))
             for _ in range(2000)]
    weights = [1.0 / rank for rank in range(1, len(types) + 1)]
    return [" ".join(rng.choices(types, weights, k=rng.randint(5, 15))) for _ in range(1200)]


class _InterruptingFile:
    """A file open for writing whose write after the first `writes` raises
    KeyboardInterrupt, as a Ctrl-C in the middle of a save would."""

    def __init__(self, f, writes: int):
        self._f = f
        self._left = writes

    def write(self, data):
        if self._left == 0:
            raise KeyboardInterrupt
        self._left -= 1
        return self._f.write(data)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def interrupt_writes(monkeypatch, writes: int) -> None:
    """Until the test ends, every file opened for writing is interrupted
    after `writes` writes; files opened for reading are untouched."""
    real_open = builtins.open

    def fake_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        return _InterruptingFile(f, writes) if set(mode) & set("wxa+") else f

    monkeypatch.setattr(builtins, "open", fake_open)


def temp_files(directory) -> list:
    """Files a write in `directory` left behind under a temporary name."""
    return sorted(directory.glob(".*.tmp"))


class StubModel:
    """Protocol-only model for decoding tests: a deterministic random
    distribution for every (seed, prefix), full support, no special cases."""

    def __init__(self, vocab_size: int, seed: int = 0):
        self.vocab_size = vocab_size
        self.seed = seed

    def next_distribution(self, context, prefix_ids) -> np.ndarray:
        rng = np.random.default_rng([self.seed, len(prefix_ids), *prefix_ids])
        weights = rng.random(self.vocab_size) + 1e-3
        return weights / weights.sum()

    def next_distributions(self, context, prefixes) -> np.ndarray:
        return np.stack([self.next_distribution(context, p) for p in prefixes])


class TiedStubModel(StubModel):
    """Every token equally likely: exercises lowest-id tie-breaking."""

    def next_distribution(self, context, prefix_ids) -> np.ndarray:
        return np.full(self.vocab_size, 1.0 / self.vocab_size)


# frozen 20-pair sentence suite for metric-oracle equivalence
METRIC_SUITE: list[tuple[str, str]] = [
    ("the cat sat on the mat", "the cat sat on the mat"),
    ("the cat sat on the mat", "a cat was sitting on the mat"),
    ("the the the", "the cat"),
    ("a c e", "a b c d e"),
    ("completely different words here", "no overlap at all present"),
    ("one two three four", "one two three four five six"),
    ("one two three four five six", "one two three four"),
    ("repeated repeated repeated words", "repeated words repeated"),
    ("short", "short"),
    ("short", "a much longer reference sentence than that"),
    ("alpha beta gamma delta epsilon", "alpha gamma beta delta epsilon"),
    ("to be or not to be", "to be or not to be that is the question"),
    ("the quick brown fox jumps", "the quick brown dog jumps"),
    ("a a b b c c", "a b c a b c"),
    ("x y z", "z y x"),
    ("he said that she said", "she said that he said"),
    ("numbers one 2 three 4", "numbers one two three four"),
    ("same start different end", "same start another finish"),
    ("only one common token", "token"),
    ("a b c d e f g h", "a b c d e f g h i j"),
]
