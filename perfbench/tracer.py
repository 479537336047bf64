"""Spans and counts recorded from outside the program, and the per-layer
metrics derived from them.

`Tracer.install` replaces each public function named in `TRACED` at the
name its caller resolves, so the program itself is not edited: `training`
imports `save_checkpoint` by name, for example, so that name is wrapped in
`sqgen.training`; `decoding` reaches the model through
`model.next_distribution` -> `BertPgn.decode_step`, a class attribute.
Spans are kept in memory and written out at the end of the run.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from functools import wraps


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list
    item: str  # the command that caused it


# (module, attribute or Class.method, span name). A name wrapped in two
# modules is one layer reached by two call paths.
TRACED = [
    ("sqgen.numerics", "grad_map", "numerics.grad_map"),
    ("sqgen.model", "BertPgn.encode_context", "model.encode_context"),
    ("sqgen.model", "BertPgn.sequence_distributions", "model.sequence_distributions"),
    ("sqgen.model", "BertPgn.decode_step", "model.decode_step"),
    ("sqgen.model", "save_checkpoint", "model.save_checkpoint"),
    ("sqgen.training", "save_checkpoint", "model.save_checkpoint"),
    ("sqgen.model", "load_checkpoint", "model.load_checkpoint"),
    ("sqgen.training", "train", "training.train"),
    ("sqgen.training", "nll_loss", "training.nll_loss"),
    ("sqgen.training", "adam_step", "training.adam_step"),
    ("sqgen.training", "perplexity", "training.perplexity"),
    ("sqgen.decoding", "beam_search", "decoding.beam_search"),
    ("sqgen.decoding", "nucleus_sample", "decoding.nucleus_sample"),
    ("sqgen.decoding", "greedy", "decoding.greedy"),
    ("sqgen.decoding", "sample_step", "decoding.sample_step"),
    ("sqgen.textproc", "train_vocab", "textproc.train_vocab"),
    ("sqgen.textproc", "encode", "textproc.encode"),
    ("sqgen.textproc", "decode", "textproc.decode"),
    ("sqgen.textproc", "load_vocab", "textproc.load_vocab"),
    ("sqgen.textproc", "save_vocab", "textproc.save_vocab"),
    ("sqgen.corpus", "prepare_example", "corpus.prepare_example"),
    ("sqgen.corpus", "read_raw_records", "corpus.read_raw_records"),
    ("sqgen.corpus", "write_prepared", "corpus.write_prepared"),
    ("sqgen.corpus", "read_prepared", "corpus.read_prepared"),
    ("sqgen.genmetrics", "bleu", "genmetrics.bleu"),
    ("sqgen.genmetrics", "rouge_l", "genmetrics.rouge_l"),
    ("sqgen.genmetrics", "meteor_lite", "genmetrics.meteor_lite"),
    ("sqgen.genmetrics", "corpus_report", "genmetrics.corpus_report"),
    ("sqgen.qaeval", "qa_score", "qaeval.qa_score"),
    ("sqgen.qaeval", "LexicalOverlapScorer.score", "qaeval.scorer_score"),
    ("sqgen.qaeval", "best_span", "qaeval.best_span"),
    ("sqgen.cli", "write_manifest", "cli.write_manifest"),
]

# Generator functions: each step of the iteration is one span.
GENERATORS = {"corpus.read_raw_records"}


class Tracer:
    """Records spans and counts while installed; `restore` undoes `install`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.item = ""
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.item))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def leave(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        if name in GENERATORS:

            @wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer.enter(name)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.leave(idx)
                    yield value

            return traced_gen

        before, after = COUNTERS.get(name, (None, None))

        @wraps(fn)
        def traced(*args, **kwargs):
            taken = before(args) if before else None
            idx = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(idx)
            if after:
                after(tracer.counts, args, result, taken)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in TRACED:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))

    def restore(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def write(self, path, workload: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                row = {"i": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "workload": workload, "item": s.item}
                f.write(json.dumps(row) + "\n")


# -- counts taken at the same boundaries -----------------------------------------


def _count_encode(counts, args, result, cache_before):
    # Each word-cache miss adds one entry to the vocabulary's cache.
    counts["textproc.encode_words"] += len(args[0].split())
    counts["textproc.encode_misses"] += len(args[1]._word_cache) - cache_before


def _count_merges(counts, args, result, _):
    counts["textproc.merges"] += len(result.merges)


def _count_kept(counts, args, result, _):
    counts["corpus.kept"] += type(result).__name__ == "PreparedExample"


def _count_finished(counts, args, result, _):
    best = result[0] if isinstance(result, list) else result
    counts["decoding.finished"] += best.finished


# span name -> (taken before the call from its args, added up after it)
COUNTERS = {
    "textproc.encode": (lambda args: len(args[1]._word_cache), _count_encode),
    "textproc.train_vocab": (None, _count_merges),
    "corpus.prepare_example": (None, _count_kept),
    "decoding.beam_search": (None, _count_finished),
    "decoding.nucleus_sample": (None, _count_finished),
    "decoding.greedy": (None, _count_finished),
}


# -- derived metrics -------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def percentile(values: list[float], p: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# Span-backed metrics: metric name -> (span name, what to report).
SELF_S, CALLS = "self_s", "calls"
SPAN_METRICS = {
    "numerics.grad_map_s": ("numerics.grad_map", SELF_S),
    "numerics.grad_map_calls": ("numerics.grad_map", CALLS),
    "model.encode_context_s": ("model.encode_context", SELF_S),
    "model.encode_context_calls": ("model.encode_context", CALLS),
    "model.sequence_distributions_s": ("model.sequence_distributions", SELF_S),
    "model.decode_step_s": ("model.decode_step", SELF_S),
    "model.decode_step_calls": ("model.decode_step", CALLS),
    "model.save_checkpoint_s": ("model.save_checkpoint", SELF_S),
    "model.load_checkpoint_s": ("model.load_checkpoint", SELF_S),
    "training.nll_loss_s": ("training.nll_loss", SELF_S),
    "training.adam_step_s": ("training.adam_step", SELF_S),
    "training.adam_step_calls": ("training.adam_step", CALLS),
    "training.perplexity_s": ("training.perplexity", SELF_S),
    "decoding.beam_search_self_s": ("decoding.beam_search", SELF_S),
    "decoding.beam_search_calls": ("decoding.beam_search", CALLS),
    "decoding.nucleus_self_s": ("decoding.nucleus_sample", SELF_S),
    "decoding.sample_step_s": ("decoding.sample_step", SELF_S),
    "decoding.greedy_self_s": ("decoding.greedy", SELF_S),
    "textproc.train_vocab_s": ("textproc.train_vocab", SELF_S),
    "textproc.encode_s": ("textproc.encode", SELF_S),
    "textproc.encode_calls": ("textproc.encode", CALLS),
    "textproc.decode_s": ("textproc.decode", SELF_S),
    "textproc.load_vocab_s": ("textproc.load_vocab", SELF_S),
    "textproc.save_vocab_s": ("textproc.save_vocab", SELF_S),
    "corpus.prepare_example_s": ("corpus.prepare_example", SELF_S),
    "corpus.read_raw_records_s": ("corpus.read_raw_records", SELF_S),
    "corpus.write_prepared_s": ("corpus.write_prepared", SELF_S),
    "corpus.read_prepared_s": ("corpus.read_prepared", SELF_S),
    "genmetrics.bleu_s": ("genmetrics.bleu", SELF_S),
    "genmetrics.rouge_l_s": ("genmetrics.rouge_l", SELF_S),
    "genmetrics.meteor_lite_s": ("genmetrics.meteor_lite", SELF_S),
    "genmetrics.corpus_report_s": ("genmetrics.corpus_report", SELF_S),
    "qaeval.qa_score_s": ("qaeval.qa_score", SELF_S),
    "qaeval.scorer_score_s": ("qaeval.scorer_score", SELF_S),
    "qaeval.best_span_s": ("qaeval.best_span", SELF_S),
    "cli.write_manifest_s": ("cli.write_manifest", SELF_S),
}

# The command spans the benchmark opens around `sqgen.cli.main`.
CLI_COMMANDS = ("build_vocab", "prepare", "train", "generate", "eval_gen", "eval_qa")
DECODE_MODES = {"beam": "decoding.beam_search", "nucleus": "decoding.nucleus_sample",
                "greedy": "decoding.greedy"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Every per-layer metric the spans and counts give; a layer that did no
    work in this run reads 0."""
    selfs = self_times(spans)
    self_s: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    durations: dict[str, list[float]] = {}
    for s, own in zip(spans, selfs):
        self_s[s.name] += own
        calls[s.name] += 1
        durations.setdefault(s.name, []).append(s.end - s.start)

    m: dict[str, float] = {}
    for metric, (name, kind) in SPAN_METRICS.items():
        m[metric] = float(self_s[name] if kind == SELF_S else calls[name])
    for command in CLI_COMMANDS:
        m[f"cli.{command}_self_s"] = float(self_s[f"cli.{command}"])

    ms = lambda name: [d * 1e3 for d in durations.get(name, [])]
    m["model.decode_step_ms_p50"] = percentile(ms("model.decode_step"), 50)
    m["model.decode_step_ms_p99"] = percentile(ms("model.decode_step"), 99)
    m["decoding.beam_question_ms_p50"] = percentile(ms("decoding.beam_search"), 50)
    m["decoding.beam_question_ms_p90"] = percentile(ms("decoding.beam_search"), 90)
    steps = train_step_ms(spans)
    m["training.step_ms_p50"] = percentile(steps, 50)
    m["training.step_ms_p90"] = percentile(steps, 90)

    step_parent = Counter(
        spans[s.parent].name for s in spans
        if s.name == "model.decode_step" and s.parent is not None
    )
    for mode, name in DECODE_MODES.items():
        m[f"decoding.steps_per_question.{mode}"] = _ratio(step_parent[name], calls[name])
    questions = sum(calls[name] for name in DECODE_MODES.values())
    m["decoding.finished_share"] = _ratio(counts["decoding.finished"], questions)
    m["textproc.merges"] = float(counts["textproc.merges"])
    m["textproc.word_cache_hit_share"] = _ratio(
        counts["textproc.encode_words"] - counts["textproc.encode_misses"],
        counts["textproc.encode_words"],
    )
    m["corpus.kept_share"] = _ratio(counts["corpus.kept"], calls["corpus.prepare_example"])
    return m


def train_step_ms(spans: list[Span]) -> list[float]:
    """One training step per Adam update: from the first loss of its batch
    (an `nll_loss` called by `train` itself, not by `perplexity`) to the end
    of the update."""
    out = []
    batch_start = None
    for s in sorted(spans, key=lambda s: s.start):
        parent = spans[s.parent].name if s.parent is not None else None
        if s.name == "training.nll_loss" and parent == "training.train":
            batch_start = s.start if batch_start is None else batch_start
        elif s.name == "training.adam_step" and batch_start is not None:
            out.append((s.end - batch_start) * 1e3)
            batch_start = None
    return out
