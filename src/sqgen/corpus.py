"""Turning raw QA records and news articles into model-ready examples.

The context side of an example is a token id sequence paired with a 0/1
type id per token marking the answer region. Short answers are marked by
their character spans; a context with no short span is treated as one long
answer and tagged whole. Page titles ride along in front of the context,
untagged.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TypeVar

from . import files, textproc
from .textproc import Vocab

SHORT_ANSWER = "short"
LONG_ANSWER = "long"

OPEN_MARK = "[ "
CLOSE_MARK = " ]"

MAX_CONTEXT_TOKENS = 500
MAX_QUESTION_TOKENS = 50
MAX_NEWS_TOKENS = 490

NEWS_SOURCE_MARK = "(CNN)"
HIGHLIGHT_MARK = "@highlight"

T = TypeVar("T")


class InvalidSpans(ValueError):
    """Spans are out of bounds, inverted, overlapping, or context is empty."""


class InvalidRatio(ValueError):
    """Split ratio must sit strictly between 0 and 1."""


class TooFewToSplit(ValueError):
    """A split needs two examples: one to train on and one to hold out."""


@dataclass
class RawRecord:
    id: str
    title: str
    question: str
    context: str
    short_spans: list[tuple[int, int]] = field(default_factory=list)
    starts_with_paragraph_tag: bool = True


@dataclass
class PreparedExample:
    id: str
    context_ids: list[int]
    type_ids: list[int]
    question_ids: list[int]
    answer_kind: str


@dataclass
class Rejected:
    id: str
    reason: str


@dataclass
class DatasetSplit:
    train: list[PreparedExample]
    dev: list[PreparedExample]


@dataclass
class DatasetStats:
    n_examples: int
    n_unique_contexts: int
    questions_per_context_mean: float
    questions_per_context_max: int


def _validated_spans(record: RawRecord) -> list[tuple[int, int]]:
    if not record.context:
        raise InvalidSpans(f"record {record.id}: empty context")
    spans = sorted((int(s), int(e)) for s, e in record.short_spans)
    prev_end = 0
    for s, e in spans:
        if s < 0 or e > len(record.context) or s >= e:
            raise InvalidSpans(f"record {record.id}: bad span ({s},{e})")
        if s < prev_end:
            raise InvalidSpans(f"record {record.id}: overlapping span ({s},{e})")
        prev_end = e
    return spans


def bracket_answers(record: RawRecord) -> str:
    """Title plus context with the answer region wrapped in space-padded
    brackets; with no short spans the whole context is one bracketed long
    answer."""
    segments = _tagged_segments(record, _validated_spans(record))
    return record.title + " " + "".join(
        OPEN_MARK + text + CLOSE_MARK if tag else text for text, tag in segments[1:]
    )


def strip_markers(text: str) -> str:
    """Remove the bracket markers bracket_answers inserted."""
    return text.replace(OPEN_MARK, "").replace(CLOSE_MARK, "")


def _tagged_segments(record: RawRecord, spans: list[tuple[int, int]]) -> list[tuple[str, int]]:
    """(text, tag) pieces in context order; tag 1 inside the answer region.

    Empty pieces are harmless (they tokenize to nothing), so no filtering.
    """
    ctx = record.context
    segments: list[tuple[str, int]] = [(record.title, 0)]
    if not spans:
        segments.append((ctx, 1))
        return segments
    prev = 0
    for s, e in spans:
        segments.append((ctx[prev:s], 0))
        segments.append((ctx[s:e], 1))
        prev = e
    segments.append((ctx[prev:], 0))
    return segments


def prepare_example(
    record: RawRecord,
    vocab: Vocab,
    max_context: int = MAX_CONTEXT_TOKENS,
    max_question: int = MAX_QUESTION_TOKENS,
) -> PreparedExample | Rejected:
    """Bracket, tokenize, and tag one QA record.

    Returns Rejected (with a stable reason string) rather than raising for
    the data-quality filters; malformed spans are an error, not a filter.
    """
    spans = _validated_spans(record)
    if not record.starts_with_paragraph_tag:
        return Rejected(record.id, "no_paragraph_tag")

    context_ids: list[int] = []
    type_ids: list[int] = []
    for text, tag in _tagged_segments(record, spans):
        ids = textproc.encode(text, vocab)
        context_ids.extend(ids)
        type_ids.extend([tag] * len(ids))

    if sum(type_ids) == 0:
        return Rejected(record.id, "empty_answer")
    if len(context_ids) > max_context:
        return Rejected(record.id, "context_too_long")

    question_ids = textproc.encode(record.question, vocab)
    if not question_ids:
        return Rejected(record.id, "empty_question")
    if len(question_ids) > max_question:
        return Rejected(record.id, "question_too_long")

    kind = SHORT_ANSWER if spans else LONG_ANSWER
    return PreparedExample(record.id, context_ids, type_ids, question_ids, kind)


def clean_article(article: str) -> str:
    """Drop the highlights block and the leading dateline from a news article."""
    cut = article.find(HIGHLIGHT_MARK)
    if cut != -1:
        article = article[:cut]
    mark = article.find(NEWS_SOURCE_MARK)
    if mark != -1:
        article = article[mark + len(NEWS_SOURCE_MARK) :]
        article = article.lstrip()
        if article.startswith("--"):
            article = article[2:].lstrip()
    return article.strip()


def prepare_news(
    article: str,
    vocab: Vocab,
    article_id: str = "",
    max_tokens: int = MAX_NEWS_TOKENS,
) -> PreparedExample | Rejected:
    """One long-answer example per article: whole text tagged, no question."""
    cleaned = clean_article(article)
    if not cleaned:
        return Rejected(article_id, "empty")
    context_ids = textproc.encode(cleaned, vocab)
    if not context_ids:
        return Rejected(article_id, "empty")
    if len(context_ids) > max_tokens:
        return Rejected(article_id, "too_long")
    return PreparedExample(
        id=article_id,
        context_ids=context_ids,
        type_ids=[1] * len(context_ids),
        question_ids=[],
        answer_kind=LONG_ANSWER,
    )


def split_dataset(
    examples: list[PreparedExample], ratio: float = 0.9, seed: int = 0
) -> DatasetSplit:
    """Seeded shuffle, then the first min(ceil(ratio * N), N - 1) examples
    become train, so dev always holds at least one."""
    if not 0.0 < ratio < 1.0:
        raise InvalidRatio(f"ratio must be in (0,1), got {ratio}")
    if len(examples) < 2:
        raise TooFewToSplit(f"{len(examples)} example(s) leave none to hold out for dev")
    shuffled = list(examples)
    random.Random(seed).shuffle(shuffled)
    n_train = min(math.ceil(ratio * len(shuffled)), len(shuffled) - 1)
    return DatasetSplit(train=shuffled[:n_train], dev=shuffled[n_train:])


def dataset_stats(examples: list[PreparedExample]) -> DatasetStats:
    if not examples:
        return DatasetStats(0, 0, 0.0, 0)
    counts: dict[tuple[int, ...], int] = {}
    for ex in examples:
        key = tuple(ex.context_ids)
        counts[key] = counts.get(key, 0) + 1
    return DatasetStats(
        n_examples=len(examples),
        n_unique_contexts=len(counts),
        questions_per_context_mean=len(examples) / len(counts),
        questions_per_context_max=max(counts.values()),
    )


# -- wire formats ------------------------------------------------------------


def read_jsonl(path: str, build: Callable[[dict], T]) -> Iterator[T]:
    """Yield `build(obj)` for each JSON object line of a file; blank lines
    are skipped. A line that is not UTF-8, not JSON, not an object, or that
    `build` rejects with a KeyError, TypeError or ValueError raises a
    ValueError that starts with `path:line`."""
    for n, line in enumerate(files.read_lines(path), 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
            item = build(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise files.line_error(path, n, exc) from exc
        yield item


def text_field(obj: dict, key: str, default: str | None = None) -> str:
    """obj[key] (or `default` when absent and given), which must be a string."""
    value = obj[key] if default is None else obj.get(key, default)
    if not isinstance(value, str):
        raise TypeError(f"field {key!r} must be a string")
    return value


def _raw_record(obj: dict) -> RawRecord:
    """One nq record: `p_tag` must be a JSON boolean (true when absent) and
    `short_spans` a list of [start, end] pairs of JSON integers."""
    rid = str(obj["id"])
    p_tag = obj.get("p_tag", True)
    if type(p_tag) is not bool:
        raise TypeError(f"record {rid}: field 'p_tag' must be true or false")
    spans = obj.get("short_spans", [])
    if not isinstance(spans, list) or any(
        not isinstance(span, list) or len(span) != 2 or any(type(i) is not int for i in span)
        for span in spans
    ):
        raise TypeError(f"record {rid}: field 'short_spans' must be a list of integer pairs")
    return RawRecord(
        id=rid,
        title=text_field(obj, "title", ""),
        question=text_field(obj, "question", ""),
        context=text_field(obj, "context"),
        short_spans=[(s, e) for s, e in spans],
        starts_with_paragraph_tag=p_tag,
    )


def read_raw_records(path: str) -> Iterator[RawRecord]:
    return read_jsonl(path, _raw_record)


def read_news_records(path: str) -> Iterator[tuple[str, str, str]]:
    """Yield (id, article, highlights) from a news JSONL file."""
    return read_jsonl(
        path,
        lambda obj: (
            str(obj["id"]), text_field(obj, "article"), text_field(obj, "highlights", "")
        ),
    )


def write_prepared(examples: Iterable[PreparedExample], path: str) -> None:
    files.write_jsonl(path, (vars(ex) for ex in examples))


def _int_list(obj: dict, key: str) -> list[int]:
    """obj[key], which must be a list of JSON integers (not floats or bools)."""
    values = obj[key]
    if not isinstance(values, list) or any(type(i) is not int for i in values):
        raise TypeError(f"example {obj['id']}: field {key!r} must be a list of integers")
    return values


def _prepared_example(obj: dict) -> PreparedExample:
    ex = PreparedExample(
        id=str(obj["id"]),
        context_ids=_int_list(obj, "context_ids"),
        type_ids=_int_list(obj, "type_ids"),
        question_ids=_int_list(obj, "question_ids"),
        answer_kind=obj["answer_kind"],
    )
    if ex.answer_kind not in (SHORT_ANSWER, LONG_ANSWER):
        raise ValueError(
            f"example {ex.id}: answer_kind must be {SHORT_ANSWER!r} or {LONG_ANSWER!r}, "
            f"got {json.dumps(ex.answer_kind)}"
        )
    if len(ex.type_ids) != len(ex.context_ids):
        raise ValueError(
            f"example {ex.id}: {len(ex.type_ids)} type_ids for {len(ex.context_ids)} context_ids"
        )
    if not set(ex.type_ids) <= {0, 1}:
        raise ValueError(f"example {ex.id}: type_ids must be 0 or 1")
    if min(ex.context_ids + ex.question_ids, default=0) < 0:
        raise ValueError(f"example {ex.id}: negative token id")
    return ex


def read_prepared(path: str) -> list[PreparedExample]:
    return list(read_jsonl(path, _prepared_example))


def check_fits(
    examples: list[PreparedExample],
    path: str,
    vocab_size: int,
    max_context: int,
    max_question: int | None = None,
) -> None:
    """Raise a ValueError naming `path` and the example for the first example
    that holds a token id not below `vocab_size`, an empty context or one
    longer than `max_context`, or, when `max_question` is given (training
    needs a question, generation does not), an empty question, one longer
    than `max_question` or one holding PAD."""
    for ex in examples:
        top = max(ex.context_ids + ex.question_ids, default=0)
        if top >= vocab_size:
            reason = f"token id {top} is not below vocab_size={vocab_size}"
        elif not ex.context_ids:
            reason = "empty context"
        elif len(ex.context_ids) > max_context:
            reason = f"context of {len(ex.context_ids)} exceeds max_context={max_context}"
        elif max_question is not None and not ex.question_ids:
            reason = "empty question"
        elif max_question is not None and len(ex.question_ids) > max_question:
            reason = f"question of {len(ex.question_ids)} exceeds max_question={max_question}"
        elif max_question is not None and textproc.PAD_ID in ex.question_ids:
            reason = f"PAD (id {textproc.PAD_ID}) in question"
        else:
            continue
        raise ValueError(f"{path}: example {ex.id}: {reason}")
