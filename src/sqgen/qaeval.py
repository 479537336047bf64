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

Scoring works on Python floats and takes lists or 1-D arrays alike, so
`eval qa` runs without NumPy; only `pearson` and `z_normalize`, which
`eval correlate` uses, import it.
"""


from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

if TYPE_CHECKING:
    import numpy as np

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
    type_probs over QA_TYPES; each a list of floats or a 1-D array."""

    p_start: Sequence[float]
    p_end: Sequence[float]
    type_probs: Sequence[float]


@dataclass
class SpanResult:
    start: int
    end: int
    prob: float


@dataclass
class QaScores:
    span: SpanResult
    p_no_answer: float
    answerability: float
    granularity: float


class QaScorer(Protocol):
    def score(self, question_ids: list[int], context_ids: list[int]) -> QaOutput: ...


def best_span(p_start: Sequence[float], p_end: Sequence[float]) -> SpanResult:
    """Maximize p_start(i)*p_end(j) over 1 <= i < j <= n; ties take the
    lexicographically smallest (i, j).

    O(n): with p_start(i) >= 0 the best j for a start i is the largest
    p_end(j) after it, with p_start(i) < 0 (entries down to -1e-12 pass
    `_check_distribution`) the smallest, and rounding a product is monotone
    in each factor, so one backward sweep of suffix extremes gives each row's
    exact maximum. The span is then the smallest i whose row reaches the top
    product and the smallest j > i that gives it, which is the first maximum
    of the full row-major scan.
    """
    if len(p_end) != len(p_start):
        raise ScorerError("p_start and p_end sizes differ")
    n = len(p_start) - 1
    if n < 2:
        raise ContextTooShort(f"need >= 2 context positions, got {n}")
    s = list(map(float, p_start))
    e = list(map(float, p_end))
    top, i = -math.inf, 0
    hi = lo = e[n]  # max and min of e[k+1..n]
    for k in range(n - 1, 0, -1):
        sk = s[k]
        row = sk * hi if sk >= 0.0 else sk * lo
        if row >= top:  # `>=` while k falls keeps the smallest k on a tie
            top, i = row, k
        ek = e[k]
        if ek > hi:
            hi = ek
        elif ek < lo:
            lo = ek
    if i == 0:
        raise ScorerError("no span product is a number")
    j = next(j for j in range(i + 1, n + 1) if s[i] * e[j] == top)
    return SpanResult(start=i, end=j, prob=s[i] * e[j])


def no_answer_prob(output: QaOutput) -> float:
    return float(output.p_start[0]) * float(output.p_end[0])


def answerability(p_answer: float, p_no_answer: float) -> float:
    return math.log(max(p_answer, EPSILON)) - math.log(max(p_no_answer, EPSILON))


def granularity(p_long: float, p_short: float) -> float:
    return math.log(max(p_long, EPSILON)) - math.log(max(p_short, EPSILON))


def _check_distribution(name: str, v: Sequence[float]) -> list[float]:
    """The entries of `v` as floats, once they are finite, none below
    -1e-12, and sum to 1 within 1e-6."""
    vals = list(map(float, v))
    if not all(map(math.isfinite, vals)) or min(vals, default=0.0) < -1e-12:
        raise ScorerError(f"{name} has negative or non-finite entries")
    total = math.fsum(vals)
    if abs(total - 1.0) > 1e-6:
        raise ScorerError(f"{name} sums to {total}, not 1")
    return vals


def qa_score(scorer: QaScorer, question_ids: list[int], context_ids: list[int]) -> QaScores:
    """Run the scorer and reduce its distributions to the two scores."""
    try:
        out = scorer.score(list(question_ids), list(context_ids))
    except (ContextTooShort, ScorerError):
        raise
    except Exception as exc:  # scorer bugs surface as ScorerError
        raise ScorerError(f"scorer failed: {exc}") from exc
    p_start = _check_distribution("p_start", out.p_start)
    p_end = _check_distribution("p_end", out.p_end)
    type_probs = _check_distribution("type_probs", out.type_probs)
    span = best_span(p_start, p_end)
    p_no = no_answer_prob(out)
    return QaScores(
        span=span,
        p_no_answer=p_no,
        answerability=answerability(span.prob, p_no),
        granularity=granularity(type_probs[1], type_probs[2]),
    )


# -- correlation and human-evaluation tallies ---------------------------------


def pearson(x, y) -> float:
    import numpy as np

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
    import numpy as np

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

        p_start = [0.0] * (n + 1)
        p_end = [0.0] * (n + 1)
        p_start[0] = p_end[0] = 1.0 - jaccard
        run_len = 0
        if jaccard > 0.0:
            run_start, run_len = _longest_common_run(question_ids, context_ids)
            end_pos = min(run_start + run_len + 1, n)
            start_pos = min(run_start + 1, end_pos - 1) if n >= 2 else run_start + 1
            p_start[start_pos] += jaccard
            p_end[end_pos] += jaccard
        r = run_len / n
        type_probs = [1.0 - jaccard, r * jaccard, (1.0 - r) * jaccard, 0.0]
        return QaOutput(p_start=p_start, p_end=p_end, type_probs=type_probs)


def _longest_common_run(question: list[int], context: list[int]) -> tuple[int, int]:
    """(context_start, length) of the longest common contiguous token run;
    ties take the earliest context start.

    The run-length DP over (question, context) cells visits only the cells
    whose tokens match: `at` lists each question token's context positions,
    and `ending` maps a context position to the length of the common run
    ending there at the previous question token. The maximum and the earliest
    start among runs of that length do not depend on the order cells are
    visited.
    """
    at: dict[int, list[int]] = {tok: [] for tok in question}
    for j, tok in enumerate(context):
        if tok in at:
            at[tok].append(j)
    best_len, best_start = 0, 0
    ending: dict[int, int] = {}
    for q_tok in question:
        prev, ending = ending, {}
        for j in at[q_tok]:
            length = ending[j] = prev.get(j - 1, 0) + 1
            start = j + 1 - length
            if length > best_len or (length == best_len and start < best_start):
                best_len, best_start = length, start
    return best_start, best_len
