from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sqgen.numerics import ConfigError
from sqgen.qaeval import (
    FLAG_NAMES,
    AnnotationRecord,
    ContextTooShort,
    DegenerateInput,
    InvalidAnnotationSet,
    LexicalOverlapScorer,
    QaOutput,
    ScorerError,
    _check_distribution,
    _longest_common_run,
    answerability,
    best_span,
    correlation_report,
    granularity,
    no_answer_prob,
    pearson,
    qa_score,
    unanimity_ratios,
    z_normalize,
)


def one_hot(size: int, idx: int) -> np.ndarray:
    v = np.zeros(size)
    v[idx] = 1.0
    return v


def annotation(article: str, annotator: str, **true_flags: bool) -> AnnotationRecord:
    flags = dict.fromkeys(FLAG_NAMES, False)
    flags.update(true_flags)
    return AnnotationRecord(article_id=article, annotator_id=annotator, flags=flags)


class TestBestSpan:
    def test_one_hot(self):
        got = best_span(one_hot(7, 2), one_hot(7, 5))
        assert (got.start, got.end, got.prob) == (2, 5, 1.0)

    def test_uniform_ties_take_first_pair(self):
        n = 5
        p = np.full(n + 1, 1.0 / (n + 1))
        got = best_span(p, p)
        assert (got.start, got.end) == (1, 2)
        assert got.prob == pytest.approx(1.0 / (n + 1) ** 2)

    def test_frozen_small_case(self):
        got = best_span(np.array([0.1, 0.6, 0.3]), np.array([0.1, 0.2, 0.7]))
        assert (got.start, got.end) == (1, 2)
        assert got.prob == pytest.approx(0.42)

    def test_never_selects_sentinel_or_reversed_span(self):
        # Mass concentrated at the sentinel and at i > j must be ignored.
        p_start = np.array([0.9, 0.02, 0.08])
        p_end = np.array([0.9, 0.08, 0.02])
        got = best_span(p_start, p_end)
        assert (got.start, got.end) == (1, 2)
        assert got.prob == pytest.approx(0.02 * 0.02)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 31))
            p_start = rng.dirichlet(np.ones(n + 1))
            p_end = rng.dirichlet(np.ones(n + 1))
            got = best_span(p_start, p_end)
            want = oracles.best_span(p_start, p_end)
            assert (got.start, got.end) == want[:2]
            assert got.prob == pytest.approx(want[2], abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_on_ties_and_tiny_negatives(self, data):
        # Few distinct values make tied products common; -1e-12 is the
        # smallest entry `_check_distribution` admits.
        value = st.sampled_from([0.0, 0.25, 0.5, 1.0, -1e-12])
        n = data.draw(st.integers(2, 12), label="n")
        p_start = data.draw(st.lists(value, min_size=n + 1, max_size=n + 1), label="p_start")
        p_end = data.draw(st.lists(value, min_size=n + 1, max_size=n + 1), label="p_end")
        as_array = data.draw(st.booleans(), label="as_array")
        got = best_span(*(map(np.array, (p_start, p_end)) if as_array else (p_start, p_end)))
        assert (got.start, got.end, got.prob) == oracles.best_span(p_start, p_end)

    def test_short_context_rejected(self):
        with pytest.raises(ContextTooShort):
            best_span(np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            best_span(np.ones(4) / 4, np.ones(5) / 5)

    def test_no_comparable_product_rejected(self):
        with pytest.raises(ConfigError, match="no span product"):
            best_span([0.5, math.nan, 0.5], [0.5, 0.25, 0.25])


class TestCheckDistribution:
    @pytest.mark.parametrize("kind", [list, np.array])
    @pytest.mark.parametrize("bad, message", [
        ([0.5, math.nan, 0.5], "non-finite"),
        ([0.5, math.inf, 0.5], "non-finite"),
        ([1.5, -math.inf, 0.5], "non-finite"),
        ([1.0 + 1e-9, -1e-9, 0.0], "negative"),
        ([0.5, 0.25, 0.25 + 2e-6], "sums to"),
        ([], "sums to"),
    ])
    def test_rejects(self, kind, bad, message):
        with pytest.raises(ScorerError, match=message):
            _check_distribution("p", kind(bad))

    @pytest.mark.parametrize("kind", [list, np.array])
    def test_admits_tiny_negatives_and_returns_floats(self, kind):
        got = _check_distribution("p", kind([-1e-12, 0.25, 0.75 + 1e-12]))
        assert got == [-1e-12, 0.25, 0.75 + 1e-12]
        assert all(type(x) is float for x in got)


class TestScores:
    def test_no_answer_prob(self):
        out = QaOutput(
            p_start=np.array([0.3, 0.7, 0.0]),
            p_end=np.array([0.2, 0.0, 0.8]),
            type_probs=np.ones(4) / 4,
        )
        assert no_answer_prob(out) == pytest.approx(0.06)

    def test_equal_probs_score_zero(self):
        assert answerability(0.25, 0.25) == 0.0
        assert granularity(0.1, 0.1) == 0.0

    def test_log_ratio(self):
        assert answerability(0.9, 0.1) == pytest.approx(math.log(9.0))
        assert granularity(0.8, 0.2) == pytest.approx(math.log(4.0))

    def test_antisymmetric(self):
        assert answerability(0.7, 0.2) == pytest.approx(-answerability(0.2, 0.7))

    def test_zero_probs_clamped(self):
        assert answerability(0.0, 1.0) == pytest.approx(math.log(1e-12))
        assert answerability(0.0, 0.0) == 0.0


class TestPearson:
    def test_perfect_positive_and_negative(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_frozen_value(self):
        got = pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert got == pytest.approx(0.9819805060619659, abs=1e-9)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            assert pearson(x, y) == pytest.approx(oracles.pearson(x, y), abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        assert pearson(3.0 * x - 7.0, y) == pytest.approx(pearson(x, y), abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInput):
            pearson([1, 2], [1, 2, 3])
        with pytest.raises(DegenerateInput):
            pearson([1], [2])
        with pytest.raises(DegenerateInput):
            pearson([5, 5, 5], [1, 2, 3])


class TestZNormalize:
    def test_zero_mean_unit_std(self):
        z = z_normalize([1.0, 2.0, 3.0, 4.0])
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std() == pytest.approx(1.0, abs=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInput):
            z_normalize([2.0, 2.0, 2.0])


class UniformScorer:
    def score(self, question_ids, context_ids):
        n = len(context_ids)
        u = np.full(n + 1, 1.0 / (n + 1))
        return QaOutput(p_start=u, p_end=u, type_probs=np.ones(4) / 4)


class BrokenScorer:
    def score(self, question_ids, context_ids):
        raise ZeroDivisionError("boom")


class UnnormalizedScorer:
    def score(self, question_ids, context_ids):
        n = len(context_ids)
        bad = np.full(n + 1, 1.0)
        return QaOutput(p_start=bad, p_end=bad, type_probs=np.ones(4) / 4)


class TestQaScore:
    def test_uniform_scorer_scores_zero(self):
        scores = qa_score(UniformScorer(), [5, 6], [7, 8, 9, 10])
        assert scores.answerability == pytest.approx(0.0, abs=1e-12)
        assert scores.granularity == pytest.approx(0.0, abs=1e-12)
        assert scores.p_answer == pytest.approx(scores.p_no_answer)

    def test_span_respects_bounds(self):
        scores = qa_score(UniformScorer(), [5], list(range(4, 14)))
        assert 1 <= scores.span.start < scores.span.end <= 10

    def test_scorer_exception_wrapped(self):
        with pytest.raises(ScorerError, match="boom"):
            qa_score(BrokenScorer(), [5], [6, 7])

    def test_malformed_distribution_rejected(self):
        with pytest.raises(ScorerError, match="sums to"):
            qa_score(UnnormalizedScorer(), [5], [6, 7])

    def test_short_context_propagates(self):
        with pytest.raises(ContextTooShort):
            qa_score(UniformScorer(), [5], [6])


class TestLexicalOverlapScorer:
    def test_distributions_normalized(self):
        out = LexicalOverlapScorer().score([5, 6], [9, 5, 6, 7])
        assert math.fsum(out.p_start) == pytest.approx(1.0)
        assert math.fsum(out.p_end) == pytest.approx(1.0)
        assert math.fsum(out.type_probs) == pytest.approx(1.0)

    def test_no_overlap_reads_unanswerable(self):
        scores = qa_score(LexicalOverlapScorer(), [5, 6], [7, 8, 9])
        assert scores.answerability < 0.0

    def test_full_overlap_reads_answerable(self):
        scores = qa_score(LexicalOverlapScorer(), [5, 6, 7], [5, 6, 7])
        assert scores.answerability > 0.0
        assert (scores.span.start, scores.span.end) == (1, 3)

    def test_span_covers_common_run(self):
        # Common run 5 6 sits at context positions 2..3 (1-based).
        out = LexicalOverlapScorer().score([5, 6], [9, 5, 6, 7])
        assert out.p_start[2] == pytest.approx(0.5)  # jaccard {5,6}/{5,6,7,9}
        assert out.p_end[4] == pytest.approx(0.5)

    def test_whole_context_run_reads_passage_like(self):
        scores = qa_score(LexicalOverlapScorer(), [5, 6, 7], [5, 6, 7])
        assert scores.granularity > 0.0

    def test_short_run_reads_span_like(self):
        scores = qa_score(
            LexicalOverlapScorer(), [5, 6], [9, 5, 6, 7, 10, 11, 12, 13]
        )
        assert scores.granularity < 0.0

    def test_empty_context_rejected(self):
        with pytest.raises(ScorerError):
            LexicalOverlapScorer().score([5], [])


class TestLongestCommonRun:
    def test_earliest_of_the_longest_runs(self):
        # "5 6" occurs at context 1 and 4; "7 8 9" at 6 is longer.
        assert _longest_common_run([5, 6, 0, 7, 8, 9], [1, 5, 6, 2, 5, 6, 7, 8, 9]) == (6, 3)
        assert _longest_common_run([5, 6], [1, 5, 6, 2, 5, 6]) == (1, 2)
        assert _longest_common_run([5], [1, 2]) == (0, 0)

    @settings(max_examples=300, deadline=None)
    @given(
        question=st.lists(st.integers(0, 3), max_size=12),
        context=st.lists(st.integers(0, 3), max_size=16),
    )
    def test_matches_full_table(self, question, context):
        assert _longest_common_run(question, context) == oracles.longest_common_run(
            question, context
        )


def three_annotators(article: str, votes: tuple[bool, bool, bool], flag: str = "span"):
    return [
        annotation(article, f"ann{k}", **{flag: vote})
        for k, vote in enumerate(votes)
    ]


class TestUnanimity:
    def test_unanimous_yes_and_no(self):
        anns = three_annotators("a1", (True, True, True)) + three_annotators(
            "a2", (False, False, False)
        )
        rows = unanimity_ratios(anns)
        assert rows["span"].n_unanimous == 2
        assert rows["span"].true_pct == pytest.approx(50.0)
        assert rows["span"].false_pct == pytest.approx(50.0)

    def test_split_articles_excluded(self):
        anns = three_annotators("a1", (True, True, False)) + three_annotators(
            "a2", (True, True, True)
        )
        rows = unanimity_ratios(anns)
        assert rows["span"].n_unanimous == 1
        assert rows["span"].true_pct == pytest.approx(100.0)

    def test_no_unanimous_articles_reports_zero(self):
        rows = unanimity_ratios(three_annotators("a1", (True, False, True)))
        assert rows["span"].n_unanimous == 0
        assert rows["span"].true_pct == 0.0
        assert rows["span"].false_pct == 0.0

    def test_covers_every_flag_by_default(self):
        rows = unanimity_ratios(three_annotators("a1", (True, True, True)))
        assert set(rows) == set(FLAG_NAMES)

    def test_flag_subset(self):
        anns = three_annotators("a1", (True, True, True))
        rows = unanimity_ratios(anns, flags=("span", "none"))
        assert set(rows) == {"span", "none"}

    def test_wrong_annotator_count_rejected(self):
        anns = three_annotators("a1", (True, True, True))[:2]
        with pytest.raises(InvalidAnnotationSet, match="need exactly 3"):
            unanimity_ratios(anns)

    def test_duplicate_annotator_rejected(self):
        anns = three_annotators("a1", (True, True, True))
        anns[1].annotator_id = anns[0].annotator_id
        with pytest.raises(InvalidAnnotationSet, match="duplicate"):
            unanimity_ratios(anns)

    def test_missing_flag_rejected(self):
        anns = three_annotators("a1", (True, True, True))
        del anns[0].flags["none"]
        with pytest.raises(InvalidAnnotationSet, match="missing"):
            unanimity_ratios(anns)


class TestCorrelationReport:
    def test_perfectly_aligned_flag(self):
        anns = three_annotators("hi", (True, True, True)) + three_annotators(
            "lo", (False, False, False)
        )
        scores = {"hi": (5.0, 1.0), "lo": (-5.0, -1.0)}
        report = correlation_report(scores, anns)
        assert report["span"]["answerability"] == pytest.approx(1.0)
        assert report["span"]["granularity"] == pytest.approx(1.0)

    def test_anti_aligned_flag(self):
        anns = three_annotators("hi", (False, False, False), flag="none")
        anns += three_annotators("lo", (True, True, True), flag="none")
        scores = {"hi": (5.0, 1.0), "lo": (-5.0, -1.0)}
        report = correlation_report(scores, anns)
        assert report["none"]["answerability"] == pytest.approx(-1.0)

    def test_constant_flag_reports_none(self):
        anns = three_annotators("hi", (False, False, False)) + three_annotators(
            "lo", (False, False, False)
        )
        report = correlation_report({"hi": (5.0, 1.0), "lo": (-5.0, -1.0)}, anns)
        assert report["span"]["answerability"] is None

    def test_unscored_articles_ignored(self):
        anns = (
            three_annotators("hi", (True, True, True))
            + three_annotators("lo", (False, False, False))
            + three_annotators("unscored", (True, False, True))
        )
        report = correlation_report({"hi": (5.0, 1.0), "lo": (-5.0, -1.0)}, anns)
        assert report["span"]["answerability"] == pytest.approx(1.0)

    def test_too_few_scored_rejected(self):
        anns = three_annotators("only", (True, True, True))
        with pytest.raises(DegenerateInput):
            correlation_report({"only": (1.0, 2.0)}, anns)
