from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import interrupt_writes, temp_files
from sqgen import corpus, textproc
from sqgen.corpus import (
    LONG_ANSWER,
    MAX_CONTEXT_TOKENS,
    MAX_NEWS_TOKENS,
    MAX_QUESTION_TOKENS,
    SHORT_ANSWER,
    DatasetSplit,
    InvalidRatio,
    InvalidSpans,
    PreparedExample,
    RawRecord,
    Rejected,
    TooFewToSplit,
    bracket_answers,
    clean_article,
    dataset_stats,
    prepare_example,
    prepare_news,
    split_dataset,
    strip_markers,
)


def record(**overrides) -> RawRecord:
    base = dict(
        id="r1",
        title="capital cities",
        question="what is the capital of france",
        context="paris is the capital of france",
        short_spans=[(0, 5)],  # "paris"
        starts_with_paragraph_tag=True,
    )
    base.update(overrides)
    return RawRecord(**base)


class TestBracketAnswers:
    def test_span_is_bracketed_and_title_prepended(self):
        text = bracket_answers(record())
        assert text == "capital cities [ paris ] is the capital of france"

    def test_no_spans_brackets_whole_context(self):
        text = bracket_answers(record(short_spans=[]))
        assert text == "capital cities [ paris is the capital of france ]"

    def test_multiple_spans(self):
        rec = record(
            context="paris and berlin are capitals",
            short_spans=[(0, 5), (10, 16)],
        )
        text = bracket_answers(rec)
        assert text == "capital cities [ paris ] and [ berlin ] are capitals"

    def test_empty_context_rejected(self):
        with pytest.raises(InvalidSpans):
            bracket_answers(record(context="", short_spans=[]))

    def test_overlapping_spans_rejected(self):
        with pytest.raises(InvalidSpans):
            bracket_answers(record(short_spans=[(0, 5), (3, 8)]))

    def test_out_of_range_span_rejected(self):
        with pytest.raises(InvalidSpans):
            bracket_answers(record(short_spans=[(0, 999)]))
        with pytest.raises(InvalidSpans):
            bracket_answers(record(short_spans=[(5, 5)]))

    def test_marker_round_trip(self):
        for rec in [
            record(),
            record(short_spans=[]),
            record(context="one two three four", short_spans=[(0, 3), (8, 13)]),
        ]:
            stripped = strip_markers(bracket_answers(rec))
            assert stripped == f"{rec.title} {rec.context}"


class TestPrepareExample:
    def test_short_answer_types_cover_exactly_the_span(self, tiny_vocab):
        rec = record()
        out = prepare_example(rec, tiny_vocab)
        assert isinstance(out, PreparedExample)
        assert out.answer_kind == SHORT_ANSWER
        assert len(out.context_ids) == len(out.type_ids)
        # tagged token span decodes back to the answer text
        tagged = [i for i, t in zip(out.context_ids, out.type_ids) if t == 1]
        assert textproc.decode(tagged, tiny_vocab) == "paris"
        # the untagged part includes the title
        assert sum(out.type_ids) >= 1

    def test_long_answer_tags_whole_context_but_not_title(self, tiny_vocab):
        rec = record(short_spans=[])
        out = prepare_example(rec, tiny_vocab)
        assert out.answer_kind == LONG_ANSWER
        tagged = [i for i, t in zip(out.context_ids, out.type_ids) if t == 1]
        assert textproc.decode(tagged, tiny_vocab) == rec.context
        untagged = [i for i, t in zip(out.context_ids, out.type_ids) if t == 0]
        assert textproc.decode(untagged, tiny_vocab) == rec.title

    def test_k_spans_make_k_runs(self, tiny_vocab):
        rec = record(
            context="paris and berlin are capitals",
            short_spans=[(0, 5), (10, 16)],
        )
        out = prepare_example(rec, tiny_vocab)
        runs = 0
        prev = 0
        for t in out.type_ids:
            if t == 1 and prev == 0:
                runs += 1
            prev = t
        assert runs == 2

    def test_no_paragraph_tag_rejected(self, tiny_vocab):
        out = prepare_example(record(starts_with_paragraph_tag=False), tiny_vocab)
        assert isinstance(out, Rejected)
        assert out.reason == "no_paragraph_tag"

    def test_context_length_boundary(self, tiny_vocab):
        ok = record(context="a " * 490 + "a", short_spans=[], title="t", question="what")
        kept = prepare_example(ok, tiny_vocab)
        assert isinstance(kept, PreparedExample)
        assert len(kept.context_ids) <= MAX_CONTEXT_TOKENS

        too_long = record(context="a " * MAX_CONTEXT_TOKENS + "a", short_spans=[], title="t")
        out = prepare_example(too_long, tiny_vocab)
        assert isinstance(out, Rejected)
        assert out.reason == "context_too_long"

    def test_exact_500_kept_501_rejected(self, tiny_vocab):
        # title "t" = 1 token, context of 499 single-token words -> exactly 500
        rec = record(title="a", context=" ".join(["a"] * 499), short_spans=[])
        kept = prepare_example(rec, tiny_vocab)
        assert isinstance(kept, PreparedExample)
        assert len(kept.context_ids) == 500

        rec = record(title="a", context=" ".join(["a"] * 500), short_spans=[])
        out = prepare_example(rec, tiny_vocab)
        assert isinstance(out, Rejected) and out.reason == "context_too_long"

    def test_question_boundary_50_kept_51_rejected(self, tiny_vocab):
        kept = prepare_example(record(question=" ".join(["a"] * 50)), tiny_vocab)
        assert isinstance(kept, PreparedExample)
        assert len(kept.question_ids) == MAX_QUESTION_TOKENS

        out = prepare_example(record(question=" ".join(["a"] * 51)), tiny_vocab)
        assert isinstance(out, Rejected) and out.reason == "question_too_long"

    @pytest.mark.parametrize("question", ["", "   "])
    def test_empty_question_rejected(self, tiny_vocab, question):
        out = prepare_example(record(question=question), tiny_vocab)
        assert out == Rejected("r1", "empty_question")

    def test_span_with_no_tokens_rejected(self, tiny_vocab):
        rec = record(context="  paris", short_spans=[(0, 1)])  # span over a space
        out = prepare_example(rec, tiny_vocab)
        assert isinstance(out, Rejected)
        assert out.reason == "empty_answer"

    def test_invalid_spans_propagate(self, tiny_vocab):
        with pytest.raises(InvalidSpans):
            prepare_example(record(short_spans=[(0, 5), (2, 9)]), tiny_vocab)


class TestPrepareNews:
    def test_dateline_stripped(self, tiny_vocab):
        article = "NEW DELHI, India (CNN) -- the story text here."
        assert clean_article(article) == "the story text here."
        out = prepare_news(article, tiny_vocab, article_id="n1")
        assert isinstance(out, PreparedExample)
        assert out.answer_kind == LONG_ANSWER
        assert out.question_ids == []
        assert all(t == 1 for t in out.type_ids)

    def test_no_dateline_untouched(self, tiny_vocab):
        assert clean_article("plain story body.") == "plain story body."

    def test_highlights_removed(self, tiny_vocab):
        article = "body text first.\n\n@highlight\n\none\n\n@highlight\n\ntwo"
        assert clean_article(article) == "body text first."

    def test_dateline_and_highlights_together(self):
        article = "LONDON, England (CNN) -- story body.\n\n@highlight\n\nsummary"
        assert clean_article(article) == "story body."

    def test_490_boundary(self, tiny_vocab):
        ok = prepare_news(" ".join(["a"] * MAX_NEWS_TOKENS), tiny_vocab, article_id="n")
        assert isinstance(ok, PreparedExample)
        assert len(ok.context_ids) == MAX_NEWS_TOKENS

        over = prepare_news(" ".join(["a"] * (MAX_NEWS_TOKENS + 1)), tiny_vocab, article_id="n")
        assert isinstance(over, Rejected) and over.reason == "too_long"

    def test_empty_after_cleaning_rejected(self, tiny_vocab):
        out = prepare_news("PARIS (CNN) -- ", tiny_vocab, article_id="n")
        assert isinstance(out, Rejected) and out.reason == "empty"

    def test_only_word_marks_after_cleaning_rejected(self, tiny_vocab):
        # the cleaned text is not empty, but it encodes to no tokens
        out = prepare_news("(CNN) -- ▁ ▁", tiny_vocab, article_id="n")
        assert out == Rejected("n", "empty")


class TestCheckFits:
    @staticmethod
    def fits(max_question=None, **overrides):
        fields = dict(id="e", context_ids=[4, 5], type_ids=[0, 1], question_ids=[6],
                      answer_kind=SHORT_ANSWER)
        ok = PreparedExample(**fields)
        corpus.check_fits([ok, PreparedExample(**dict(fields, **overrides))], "d.jsonl",
                          vocab_size=10, max_context=8, max_question=max_question)

    @pytest.mark.parametrize("max_question", [None, 4])
    def test_empty_context_rejected(self, max_question):
        with pytest.raises(ValueError, match=r"^d\.jsonl: example e: empty context$"):
            self.fits(max_question, context_ids=[], type_ids=[])

    def test_empty_question_rejected_when_training(self):
        with pytest.raises(ValueError, match=r"^d\.jsonl: example e: empty question$"):
            self.fits(4, question_ids=[])

    def test_empty_question_kept_when_generating(self):
        self.fits(None, question_ids=[])


class TestSplitDataset:
    def _examples(self, n):
        return [
            PreparedExample(id=f"e{i}", context_ids=[4 + i], type_ids=[1], question_ids=[4], answer_kind=SHORT_ANSWER)
            for i in range(n)
        ]

    def test_nine_to_one(self):
        split = split_dataset(self._examples(10), ratio=0.9, seed=1)
        assert len(split.train) == 9
        assert len(split.dev) == 1

    def test_partition(self):
        examples = self._examples(23)
        split = split_dataset(examples, ratio=0.9, seed=7)
        train_ids = {e.id for e in split.train}
        dev_ids = {e.id for e in split.dev}
        assert train_ids | dev_ids == {e.id for e in examples}
        assert train_ids & dev_ids == set()

    def test_deterministic(self):
        examples = self._examples(20)
        a = split_dataset(examples, seed=3)
        b = split_dataset(examples, seed=3)
        assert [e.id for e in a.train] == [e.id for e in b.train]
        assert [e.id for e in a.dev] == [e.id for e in b.dev]

    def test_bad_ratio(self):
        for ratio in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidRatio):
                split_dataset(self._examples(5), ratio=ratio)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_examples_rejected(self, n):
        with pytest.raises(TooFewToSplit):
            split_dataset(self._examples(n))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 60),
        ratio=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32),
    )
    def test_both_sides_hold_examples(self, n, ratio, seed):
        examples = self._examples(n)
        split = split_dataset(examples, ratio=ratio, seed=seed)
        assert split.train and split.dev
        assert sorted(e.id for e in split.train + split.dev) == sorted(e.id for e in examples)
        assert split_dataset(examples, ratio=ratio, seed=seed) == split
        if ratio * n <= n - 1:  # where ceil(ratio * N) already held one out
            shuffled = list(examples)
            random.Random(seed).shuffle(shuffled)
            k = math.ceil(ratio * n)
            assert (split.train, split.dev) == (shuffled[:k], shuffled[k:])


class TestDatasetStats:
    def test_empty(self):
        stats = dataset_stats([])
        assert (stats.n_examples, stats.n_unique_contexts) == (0, 0)
        assert stats.questions_per_context_mean == 0.0
        assert stats.questions_per_context_max == 0

    def test_three_questions_two_contexts(self):
        mk = lambda i, ctx: PreparedExample(
            id=f"q{i}", context_ids=ctx, type_ids=[1] * len(ctx), question_ids=[4], answer_kind=SHORT_ANSWER
        )
        stats = dataset_stats([mk(0, [5, 6]), mk(1, [5, 6]), mk(2, [7])])
        assert stats.n_examples == 3
        assert stats.n_unique_contexts == 2
        assert stats.questions_per_context_mean == pytest.approx(1.5)
        assert stats.questions_per_context_max == 2


class TestJsonlIo:
    def test_prepared_round_trip(self, tiny_vocab, tmp_path):
        examples = [
            PreparedExample(id="a", context_ids=[4, 5], type_ids=[0, 1], question_ids=[6], answer_kind=SHORT_ANSWER),
            PreparedExample(id="b", context_ids=[7], type_ids=[1], question_ids=[], answer_kind=LONG_ANSWER),
        ]
        path = tmp_path / "prep.jsonl"
        corpus.write_prepared(examples, str(path))
        back = corpus.read_prepared(str(path))
        assert back == examples

    def test_interrupted_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "prep.jsonl"
        old = PreparedExample(id="a", context_ids=[4], type_ids=[1], question_ids=[5], answer_kind=SHORT_ANSWER)
        new = PreparedExample(id="b", context_ids=[6], type_ids=[1], question_ids=[], answer_kind=LONG_ANSWER)
        corpus.write_prepared([old], str(path))
        before = path.read_bytes()
        interrupt_writes(monkeypatch, writes=1)
        with pytest.raises(KeyboardInterrupt):
            corpus.write_prepared([new, new], str(path))
        assert path.read_bytes() == before
        assert temp_files(tmp_path) == []

    @pytest.mark.parametrize("field, value, message", [
        ("context_ids", [4, 5.7], "field 'context_ids' must be a list of integers"),
        ("context_ids", [4, 5.0], "field 'context_ids' must be a list of integers"),
        ("question_ids", [True], "field 'question_ids' must be a list of integers"),
        ("type_ids", [0, False], "field 'type_ids' must be a list of integers"),
        ("type_ids", "01", "field 'type_ids' must be a list of integers"),
        ("answer_kind", "medium", "answer_kind must be 'short' or 'long', got \"medium\""),
        ("answer_kind", 1, "answer_kind must be 'short' or 'long', got 1"),
    ])
    def test_prepared_row_takes_only_integers_and_known_kinds(
        self, tmp_path, field, value, message
    ):
        good = {"id": "a", "context_ids": [4, 5], "type_ids": [0, 1],
                "question_ids": [6], "answer_kind": SHORT_ANSWER}
        path = tmp_path / "prep.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{field: value})) + "\n")
        with pytest.raises(ValueError) as info:
            corpus.read_prepared(str(path))
        assert str(info.value) == f"{path}:2: example a: {message}"

    def test_read_raw_records(self, tmp_path):
        rows = [
            {
                "id": "x",
                "title": "t",
                "question": "q",
                "context": "c is here",
                "short_spans": [[0, 1]],
                "p_tag": True,
            }
        ]
        path = tmp_path / "raw.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        records = list(corpus.read_raw_records(str(path)))
        assert len(records) == 1
        assert records[0].id == "x"
        assert records[0].short_spans == [(0, 1)]
        assert records[0].starts_with_paragraph_tag is True

    def test_read_news_records(self, tmp_path):
        path = tmp_path / "news.jsonl"
        path.write_text(json.dumps({"id": "n", "article": "body", "highlights": "h"}) + "\n")
        rows = list(corpus.read_news_records(str(path)))
        assert rows == [("n", "body", "h")]
