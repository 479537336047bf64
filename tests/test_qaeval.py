from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from helpers import params_digest
from sqgen import numerics as nm
from sqgen.numerics import ConfigError
from sqgen.qaeval import (
    FLAG_NAMES,
    AnnotationRecord,
    ContextTooShort,
    DegenerateInput,
    InvalidAnnotationSet,
    JointQaScorer,
    LexicalOverlapScorer,
    QaConfig,
    QaExample,
    QaOutput,
    ScorerError,
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
from sqgen.training import AdamState, TrainConfig, adam_step


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

    def test_short_context_rejected(self):
        with pytest.raises(ContextTooShort):
            best_span(np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            best_span(np.ones(4) / 4, np.ones(5) / 5)


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
        assert out.p_start.sum() == pytest.approx(1.0)
        assert out.p_end.sum() == pytest.approx(1.0)
        assert out.type_probs.sum() == pytest.approx(1.0)

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


class TestJointQaScorer:
    def test_config_validates_heads(self):
        with pytest.raises(ConfigError):
            QaConfig(vocab_size=20, d_model=10, n_heads=4)

    def test_seeded_init_bytes_are_pinned(self):
        cfg = QaConfig(vocab_size=20, d_model=16, n_heads=2, layers=2, ffn_dim=32)
        params = JointQaScorer(cfg, seed=0).params
        assert len(params) == 41
        assert params_digest(params) == (
            "4f2a8487d851b0e149669fde08cf42d73848e6a30afb0059113c988795dcbf7f"
        )

    def test_score_shapes_and_normalization(self):
        scorer = JointQaScorer(QaConfig(vocab_size=20, d_model=16, n_heads=2, layers=1, ffn_dim=32))
        out = scorer.score([5, 6], [7, 8, 9])
        assert out.p_start.shape == (4,)  # sentinel + 3 context positions
        assert out.p_end.shape == (4,)
        assert out.type_probs.shape == (4,)
        assert_allclose(out.p_start.sum(), 1.0, atol=1e-9)
        assert_allclose(out.p_end.sum(), 1.0, atol=1e-9)
        assert_allclose(out.type_probs.sum(), 1.0, atol=1e-9)

    def test_fit_learns_gold_span(self):
        cfg = QaConfig(vocab_size=20, d_model=16, n_heads=2, layers=1, ffn_dim=32)
        scorer = JointQaScorer(cfg, seed=0)
        example = QaExample([5, 6], [7, 8, 9, 10], start=2, end=4, qa_type=1)
        state, train_cfg = AdamState(), TrainConfig(lr=1e-3)
        for _ in range(150):
            loss = scorer.loss(example)
            adam_step(scorer.params, nm.grad_map(loss, scorer.params), state, train_cfg)
        assert loss.item() < 0.5
        scores = qa_score(scorer, example.question_ids, example.context_ids)
        assert (scores.span.start, scores.span.end) == (2, 4)
        assert scores.answerability > 0.0
        assert scores.granularity > 0.0  # trained toward the long-answer type

    def test_overlong_sequence_rejected(self):
        cfg = QaConfig(vocab_size=20, d_model=16, n_heads=2, layers=1, ffn_dim=32, max_seq=8)
        scorer = JointQaScorer(cfg, seed=0)
        with pytest.raises(ScorerError, match="max_seq"):
            scorer.score([5, 6, 7], [8, 9, 10, 11, 12])

    def test_empty_context_rejected(self):
        scorer = JointQaScorer(QaConfig(vocab_size=20, d_model=16, n_heads=2, layers=1, ffn_dim=32))
        with pytest.raises(ScorerError):
            scorer.score([5], [])
