"""Scoring generated questions with a span-predicting QA model.

A QA scorer maps (question, context) to start/end distributions over the
context positions plus a no-answer sentinel at position 0, and a 4-way
answer-type distribution. From those come two question-quality scores:

    answerability = ln(p_answer / p_no_answer)
    granularity   = ln(p_long_answer / p_short_answer)

positive answerability meaning the QA model can locate an answer, positive
granularity meaning the answer reads as a passage rather than a short span.
The module also carries the human-evaluation side: unanimity tallies over
3-annotator judgments and flag-vs-score Pearson correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from . import numerics as nm
from .model import ParamBuilder, _block
from .numerics import ConfigError, Tensor
from .textproc import BOS_ID, EOS_ID

EPSILON = 1e-12

QA_TYPES = ("undetermined", "long_answer", "short_answer", "yes_no")

FLAG_NAMES = (
    "context",  # question needs the passage to be understood
    "irrelevant",  # question unrelated to the passage
    "contradiction",  # question contradicts the passage
    "peripheral",  # asks about a minor detail
    "span",  # a short span answers it
    "entire",  # the whole passage answers it
    "none",  # nothing in the passage answers it
)


class ContextTooShort(ValueError):
    """Span search needs at least two context positions."""


class DegenerateInput(ValueError):
    """Correlation input too short or with zero variance."""


class InvalidAnnotationSet(ValueError):
    """Annotations are not exactly-3-per-article or are missing flags."""


class ScorerError(RuntimeError):
    """The QA scorer failed or returned malformed distributions."""


@dataclass
class QaOutput:
    """p_start/p_end over positions 0..n (0 = no-answer sentinel),
    type_probs over QA_TYPES."""

    p_start: np.ndarray
    p_end: np.ndarray
    type_probs: np.ndarray


@dataclass
class SpanResult:
    start: int
    end: int
    prob: float


@dataclass
class QaScores:
    span: SpanResult
    p_answer: float
    p_no_answer: float
    answerability: float
    granularity: float


class QaScorer(Protocol):
    def score(self, question_ids: list[int], context_ids: list[int]) -> QaOutput: ...


def best_span(p_start: np.ndarray, p_end: np.ndarray) -> SpanResult:
    """Maximize p_start(i)*p_end(j) over 1 <= i < j <= n; ties take the
    lexicographically smallest (i, j)."""
    p_start = np.asarray(p_start, dtype=np.float64)
    p_end = np.asarray(p_end, dtype=np.float64)
    n = p_start.size - 1
    if p_end.size != p_start.size:
        raise ConfigError("p_start and p_end sizes differ")
    if n < 2:
        raise ContextTooShort(f"need >= 2 context positions, got {n}")
    prod = p_start[1:, None] * p_end[None, 1:]  # (n, n); [i-1, j-1]
    invalid = np.tril(np.ones((n, n), dtype=bool))  # keeps only i < j
    prod[invalid] = -1.0
    flat = int(np.argmax(prod))  # first max in row-major = smallest (i, j)
    i, j = divmod(flat, n)
    return SpanResult(start=i + 1, end=j + 1, prob=float(prod[i, j]))


def no_answer_prob(output: QaOutput) -> float:
    return float(output.p_start[0] * output.p_end[0])


def answerability(p_answer: float, p_no_answer: float) -> float:
    return math.log(max(p_answer, EPSILON)) - math.log(max(p_no_answer, EPSILON))


def granularity(p_long: float, p_short: float) -> float:
    return math.log(max(p_long, EPSILON)) - math.log(max(p_short, EPSILON))


def _check_distribution(name: str, v: np.ndarray) -> None:
    if not np.isfinite(v).all() or np.any(v < -1e-12):
        raise ScorerError(f"{name} has negative or non-finite entries")
    if abs(float(v.sum()) - 1.0) > 1e-6:
        raise ScorerError(f"{name} sums to {float(v.sum())}, not 1")


def qa_score(scorer: QaScorer, question_ids: list[int], context_ids: list[int]) -> QaScores:
    """Run the scorer and reduce its distributions to the two scores."""
    try:
        out = scorer.score(list(question_ids), list(context_ids))
    except (ContextTooShort, ScorerError):
        raise
    except Exception as exc:  # scorer bugs surface as ScorerError
        raise ScorerError(f"scorer failed: {exc}") from exc
    _check_distribution("p_start", out.p_start)
    _check_distribution("p_end", out.p_end)
    _check_distribution("type_probs", out.type_probs)
    span = best_span(out.p_start, out.p_end)
    p_no = no_answer_prob(out)
    return QaScores(
        span=span,
        p_answer=span.prob,
        p_no_answer=p_no,
        answerability=answerability(span.prob, p_no),
        granularity=granularity(float(out.type_probs[1]), float(out.type_probs[2])),
    )


# -- correlation and human-evaluation tallies ---------------------------------


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise DegenerateInput(f"need two equal-length samples, got {x.size}/{y.size}")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float((dx * dx).sum())
    sy = float((dy * dy).sum())
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInput("zero variance")
    return float((dx * dy).sum() / math.sqrt(sx * sy))


def z_normalize(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    std = v.std()
    if std == 0.0:
        raise DegenerateInput("zero variance")
    return (v - v.mean()) / std


@dataclass
class AnnotationRecord:
    article_id: str
    annotator_id: str
    flags: dict[str, bool]


@dataclass
class UnanimityRow:
    n_unanimous: int
    true_pct: float
    false_pct: float


def _grouped(annotations: list[AnnotationRecord]) -> dict[str, list[AnnotationRecord]]:
    groups: dict[str, list[AnnotationRecord]] = {}
    for ann in annotations:
        missing = [f for f in FLAG_NAMES if f not in ann.flags]
        if missing:
            raise InvalidAnnotationSet(
                f"article {ann.article_id} annotator {ann.annotator_id} missing {missing}"
            )
        groups.setdefault(ann.article_id, []).append(ann)
    for article_id, group in groups.items():
        if len(group) != 3:
            raise InvalidAnnotationSet(
                f"article {article_id} has {len(group)} annotations, need exactly 3"
            )
        if len({a.annotator_id for a in group}) != 3:
            raise InvalidAnnotationSet(f"article {article_id} has duplicate annotators")
    return groups


def unanimity_ratios(
    annotations: list[AnnotationRecord],
    flags: tuple[str, ...] = FLAG_NAMES,
) -> dict[str, UnanimityRow]:
    """Per flag: of the articles where all 3 annotators agree, the percent
    unanimous-yes and unanimous-no. Split articles are excluded."""
    groups = _grouped(annotations)
    out: dict[str, UnanimityRow] = {}
    for flag in flags:
        yes = no = 0
        for group in groups.values():
            votes = [a.flags[flag] for a in group]
            if all(votes):
                yes += 1
            elif not any(votes):
                no += 1
        unanimous = yes + no
        out[flag] = UnanimityRow(
            n_unanimous=unanimous,
            true_pct=100.0 * yes / unanimous if unanimous else 0.0,
            false_pct=100.0 * no / unanimous if unanimous else 0.0,
        )
    return out


def correlation_report(
    scores: dict[str, tuple[float, float]],
    annotations: list[AnnotationRecord],
) -> dict[str, dict[str, float | None]]:
    """Pearson r of each flag (raw 0/1, one point per annotation) against the
    z-normalized answerability and granularity scores of the annotated
    articles. Degenerate columns (a flag nobody varied on) report None."""
    groups = _grouped(annotations)
    known = [aid for aid in groups if aid in scores]
    if len(known) < 2:
        raise DegenerateInput("need scored annotations for at least 2 articles")
    ans_z = dict(zip(known, z_normalize([scores[a][0] for a in known])))
    gra_z = dict(zip(known, z_normalize([scores[a][1] for a in known])))

    report: dict[str, dict[str, float | None]] = {}
    for flag in FLAG_NAMES:
        flags_col: list[float] = []
        ans_col: list[float] = []
        gra_col: list[float] = []
        for aid in known:
            for ann in groups[aid]:
                flags_col.append(1.0 if ann.flags[flag] else 0.0)
                ans_col.append(float(ans_z[aid]))
                gra_col.append(float(gra_z[aid]))
        row: dict[str, float | None] = {}
        for name, col in (("answerability", ans_col), ("granularity", gra_col)):
            try:
                row[name] = pearson(flags_col, col)
            except DegenerateInput:
                row[name] = None
        report[flag] = row
    return report


# -- scorer implementations ------------------------------------------------------


class LexicalOverlapScorer:
    """Deterministic stub scorer built from token overlap alone.

    With J the Jaccard overlap of question/context unigram sets and the
    longest common token run spanning context positions s..s+L-1 (0-based):

        p_start[0] = p_end[0] = 1 - J        (no-answer sentinel)
        p_start[s+1] += J,  p_end[min(s+L+1, n)] += J
        type_probs = [1-J, r*J, (1-r)*J, 0]  with r = L / n

    so heavy overlap reads as answerable, and a run covering most of the
    context reads as passage-style rather than span-style.
    """

    def score(self, question_ids: list[int], context_ids: list[int]) -> QaOutput:
        n = len(context_ids)
        if n == 0:
            raise ScorerError("empty context")
        q_set, c_set = set(question_ids), set(context_ids)
        union = q_set | c_set
        jaccard = len(q_set & c_set) / len(union) if union else 0.0

        p_start = np.zeros(n + 1)
        p_end = np.zeros(n + 1)
        p_start[0] = p_end[0] = 1.0 - jaccard
        run_len = 0
        if jaccard > 0.0:
            run_start, run_len = _longest_common_run(question_ids, context_ids)
            end_pos = min(run_start + run_len + 1, n)
            start_pos = min(run_start + 1, end_pos - 1) if n >= 2 else run_start + 1
            p_start[start_pos] += jaccard
            p_end[end_pos] += jaccard
        r = run_len / n
        type_probs = np.array([1.0 - jaccard, r * jaccard, (1.0 - r) * jaccard, 0.0])
        return QaOutput(p_start=p_start, p_end=p_end, type_probs=type_probs)


def _longest_common_run(question: list[int], context: list[int]) -> tuple[int, int]:
    """(context_start, length) of the longest common contiguous token run;
    ties take the earliest context start."""
    best_len, best_start = 0, 0
    prev = [0] * (len(context) + 1)
    for q_tok in question:
        cur = [0] * (len(context) + 1)
        for j, c_tok in enumerate(context, start=1):
            if q_tok == c_tok:
                cur[j] = prev[j - 1] + 1
                start = j - cur[j]
                if cur[j] > best_len or (cur[j] == best_len and start < best_start):
                    best_len, best_start = cur[j], start
        prev = cur
    return best_start, best_len


@dataclass
class QaConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    layers: int = 2
    ffn_dim: int = 128
    max_seq: int = 128

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )


@dataclass
class QaExample:
    """Gold span uses the sentinel convention: start=end=0 means no answer;
    otherwise 1-based context positions with start < end."""

    question_ids: list[int]
    context_ids: list[int]
    start: int
    end: int
    qa_type: int  # index into QA_TYPES


class JointQaScorer:
    """Small trainable joint model: one encoder stack over
    [BOS] question [EOS] context, with start/end heads over the sentinel
    (position 0) plus the context positions and a type head on position 0."""

    def __init__(self, config: QaConfig, params: dict[str, Tensor] | None = None, seed: int = 0):
        self.config = config
        self.params = params if params is not None else self._init_params(seed)

    def _init_params(self, seed: int) -> dict[str, Tensor]:
        c = self.config
        p = ParamBuilder(seed, c.d_model, c.ffn_dim)
        p.w("word_emb", (c.vocab_size, c.d_model))
        p.w("pos_emb", (c.max_seq, c.d_model))
        p.w("seg_emb", (2, c.d_model))
        for i in range(c.layers):
            p.block(f"b{i}")
        for head, width in (("start", 1), ("end", 1), ("type", len(QA_TYPES))):
            p.w(f"{head}.w", (c.d_model, width))
            p.b(f"{head}.b", (width,))
        return p.params

    def _forward(self, question_ids: list[int], context_ids: list[int]):
        """Returns (p_start, p_end, type_probs) tensors over sentinel+context."""
        c = self.config
        seq = [BOS_ID] + list(question_ids) + [EOS_ID] + list(context_ids)
        if len(seq) > c.max_seq:
            raise ScorerError(f"sequence of {len(seq)} exceeds max_seq={c.max_seq}")
        n_lead = len(question_ids) + 2
        seg = np.array([0] * n_lead + [1] * len(context_ids), dtype=np.intp)
        ids = np.asarray(seq, dtype=np.intp)

        x = (
            nm.embedding(self.params["word_emb"], ids)
            + nm.embedding(self.params["pos_emb"], np.arange(ids.size))
            + nm.embedding(self.params["seg_emb"], seg)
        )
        for i in range(c.layers):
            x, _ = _block(self.params, f"b{i}", x, c.n_heads)

        keep = np.concatenate([[0], np.arange(n_lead, ids.size)])  # sentinel + context
        h = x[keep]
        start_logits = nm.reshape(nm.linear(h, self.params["start.w"], self.params["start.b"]), (-1,))
        end_logits = nm.reshape(nm.linear(h, self.params["end.w"], self.params["end.b"]), (-1,))
        h0 = nm.reshape(x[0], (1, c.d_model))
        type_logits = nm.reshape(nm.linear(h0, self.params["type.w"], self.params["type.b"]), (-1,))
        return (
            nm.softmax(start_logits, axis=-1),
            nm.softmax(end_logits, axis=-1),
            nm.softmax(type_logits, axis=-1),
        )

    def score(self, question_ids: list[int], context_ids: list[int]) -> QaOutput:
        if not context_ids:
            raise ScorerError("empty context")
        with nm.no_grad():
            p_start, p_end, p_type = self._forward(question_ids, context_ids)
        return QaOutput(
            p_start=p_start.data.copy(),
            p_end=p_end.data.copy(),
            type_probs=p_type.data.copy(),
        )

    def loss(self, example: QaExample) -> Tensor:
        p_start, p_end, p_type = self._forward(example.question_ids, example.context_ids)
        total = (
            nm.log(p_start[example.start])
            + nm.log(p_end[example.end])
            + nm.log(p_type[example.qa_type])
        )
        return nm.neg(nm.reshape(total, ()))
