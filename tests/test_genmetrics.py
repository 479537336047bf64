from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import METRIC_SUITE
from sqgen.genmetrics import (
    InvalidInput,
    MetricReport,
    bleu,
    corpus_report,
    meteor_lite,
    rouge_l,
    tokenize,
)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("The  Cat\tsat\n") == ["the", "cat", "sat"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   ") == []


class TestBleu:
    def test_identity_is_one(self):
        cand = [tokenize("the cat sat on the mat")]
        assert bleu(cand, [cand]) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert bleu([["a", "b"]], [[["c", "d"]]]) == 0.0

    def test_clipping(self):
        # "the the the" vs "the cat": clipped unigrams 1 of 3, BP = 1.
        got = bleu([["the", "the", "the"]], [[["the", "cat"]]], max_n=1)
        assert got == pytest.approx(1.0 / 3.0)

    def test_brevity_penalty_short_candidate(self):
        got = bleu([["a", "b"]], [[["a", "b", "c", "d"]]], max_n=1)
        assert got == pytest.approx(math.exp(1.0 - 4.0 / 2.0))

    def test_no_brevity_penalty_when_longer(self):
        got = bleu([["a", "b", "c"]], [[["a", "b"]]], max_n=1)
        assert got == pytest.approx(2.0 / 3.0)

    def test_closest_reference_length_ties_to_shorter(self):
        # len 3 candidate; refs of lens 2 and 4 both at distance 1 -> pick 2,
        # so no penalty applies (cand longer than chosen ref).
        refs = [[["a", "b"], ["a", "b", "c", "d"]]]
        got = bleu([["a", "b", "x"]], refs, max_n=1)
        assert got == pytest.approx(2.0 / 3.0)

    def test_multi_reference_clip_uses_max(self):
        # "b b" clips to 2 thanks to the second reference.
        got = bleu([["b", "b"]], [[["b"], ["b", "b"]]], max_n=1)
        assert got == pytest.approx(1.0)

    def test_corpus_pooling_not_averaging(self):
        # Precisions pool counts across examples: (1 + 0) / (1 + 1) = 0.5.
        cands = [["a"], ["x"]]
        refs = [[["a"]], [["y"]]]
        assert bleu(cands, refs, max_n=1) == pytest.approx(0.5)

    def test_empty_corpus_rejected(self):
        with pytest.raises(InvalidInput):
            bleu([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            bleu([["a"]], [])

    def test_empty_reference_group_rejected(self):
        with pytest.raises(InvalidInput):
            bleu([["a"]], [[]])

    def test_matches_oracle_on_suite(self):
        cands = [tokenize(c) for c, _ in METRIC_SUITE]
        refs = [[tokenize(r)] for _, r in METRIC_SUITE]
        for max_n in (1, 4):
            assert bleu(cands, refs, max_n=max_n) == pytest.approx(
                oracles.bleu(cands, refs, max_n=max_n), abs=1e-12
            )


class TestRougeL:
    def test_identity_is_one(self):
        toks = tokenize("the cat sat on the mat")
        assert rouge_l(toks, [toks]) == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert rouge_l(["a", "b"], [["c", "d"]]) == 0.0

    def test_frozen_subsequence_case(self):
        # LCS("a c e", "a b c d e") = 3; P = 1, R = 0.6.
        got = rouge_l(tokenize("a c e"), [tokenize("a b c d e")])
        assert got == pytest.approx(0.6710526315789473, abs=1e-12)

    def test_takes_best_reference(self):
        cand = tokenize("a c e")
        refs = [tokenize("z z z"), tokenize("a b c d e"), tokenize("a c e")]
        assert rouge_l(cand, refs) == pytest.approx(1.0)

    def test_empty_candidate_is_zero(self):
        assert rouge_l([], [["a"]]) == 0.0

    def test_no_references_rejected(self):
        with pytest.raises(InvalidInput):
            rouge_l(["a"], [])

    def test_order_matters(self):
        forward = rouge_l(tokenize("x y z"), [tokenize("x y z")])
        reversed_ = rouge_l(tokenize("z y x"), [tokenize("x y z")])
        assert reversed_ < forward

    def test_matches_oracle_on_suite(self):
        for cand_text, ref_text in METRIC_SUITE:
            cand, ref = tokenize(cand_text), tokenize(ref_text)
            assert rouge_l(cand, [ref]) == pytest.approx(
                oracles.rouge_l(cand, [ref]), abs=1e-12
            )


class TestMeteorLite:
    def test_single_token_identity(self):
        # One match, one chunk: F = 1, penalty = 0.5.
        assert meteor_lite(["cat"], ["cat"]) == pytest.approx(0.5)

    def test_long_identity(self):
        toks = tokenize("a b c d e f")
        expected = 1.0 - 0.5 * (1.0 / 6.0) ** 3
        assert meteor_lite(toks, toks) == pytest.approx(expected, abs=1e-12)

    def test_disjoint_is_zero(self):
        assert meteor_lite(["a", "b"], ["c", "d"]) == 0.0

    def test_empty_is_zero(self):
        assert meteor_lite([], ["a"]) == 0.0
        assert meteor_lite(["a"], []) == 0.0

    def test_scramble_penalized(self):
        cand = tokenize("a b c d")
        assert meteor_lite(tokenize("b a d c"), cand) < meteor_lite(cand, cand)

    def test_full_scramble_value(self):
        # Four matches in four chunks: F = 1, penalty = 0.5 * 1 = 0.5.
        assert meteor_lite(tokenize("b a d c"), tokenize("a b c d")) == pytest.approx(0.5)

    def test_recall_weighted_mean(self):
        # cand "a", ref "a b": P = 1, R = 0.5, F = 0.5/(0.9 + 0.05).
        f = 0.5 / (0.9 * 1.0 + 0.1 * 0.5)
        expected = f * (1.0 - 0.5 * 1.0)
        assert meteor_lite(["a"], ["a", "b"]) == pytest.approx(expected, abs=1e-12)

    def test_greedy_fallback_on_repetitive_input(self):
        # 8 copies of one word: 8!*1 alignments per choice exceeds the exact
        # enumeration budget; the greedy path still finds one chunk.
        toks = ["w"] * 8
        expected = 1.0 - 0.5 * (1.0 / 8.0) ** 3
        assert meteor_lite(toks, toks) == pytest.approx(expected, abs=1e-12)

    def test_chunk_minimizing_alignment(self):
        # "a b a" vs "a b": the alignment keeping "a b" contiguous gives 1
        # chunk; a worse assignment would give 2. matches = 2.
        got = meteor_lite(["a", "b", "a"], ["a", "b"])
        p, r = 2 / 3, 2 / 2
        f = p * r / (0.9 * p + 0.1 * r)
        expected = f * (1.0 - 0.5 * (1 / 2) ** 3)
        assert got == pytest.approx(expected, abs=1e-12)


class TestCorpusReport:
    def test_identity_corpus(self):
        cands = [tokenize(c) for c, _ in METRIC_SUITE]
        report = corpus_report(cands, [[c] for c in cands])
        assert report.bleu1 == pytest.approx(1.0)
        assert report.bleu4 == pytest.approx(1.0)
        assert report.rouge_l == pytest.approx(1.0)
        assert report.n_examples == len(METRIC_SUITE)

    def test_fields_bounded(self):
        cands = [tokenize(c) for c, _ in METRIC_SUITE]
        refs = [[tokenize(r)] for _, r in METRIC_SUITE]
        report = corpus_report(cands, refs)
        for name in ("bleu1", "bleu4", "rouge_l", "meteor_lite"):
            value = getattr(report, name)
            assert 0.0 <= value <= 1.0, name

    def test_bleu1_at_least_bleu4(self):
        cands = [tokenize(c) for c, _ in METRIC_SUITE]
        refs = [[tokenize(r)] for _, r in METRIC_SUITE]
        report = corpus_report(cands, refs)
        assert report.bleu1 >= report.bleu4

    def test_meteor_uses_best_reference(self):
        cand = tokenize("a b c")
        refs = [[tokenize("z z z"), tokenize("a b c")]]
        report = corpus_report([cand], refs)
        assert report.meteor_lite == pytest.approx(1.0 - 0.5 * (1 / 3) ** 3)

    def test_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            corpus_report([["a"]], [])

    def test_each_holds_the_per_example_scores_behind_the_means(self):
        cands = [tokenize(c) for c, _ in METRIC_SUITE]
        refs = [[tokenize(r), tokenize(c)[::-1]] for c, r in METRIC_SUITE]
        report = corpus_report(cands, refs)
        assert [row[2:] for row in report.each] == [
            (rouge_l(c, rs), max(meteor_lite(c, r) for r in rs)) for c, rs in zip(cands, refs)
        ]
        rouge_sum = meteor_sum = 0.0
        for _, _, rouge, meteor in report.each:
            rouge_sum += rouge
            meteor_sum += meteor
        assert report.rouge_l == rouge_sum / len(cands)
        assert report.meteor_lite == meteor_sum / len(cands)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_corpus_and_example_bleu_equal_bleu_exactly(self, data):
        # Few word types make repeated and clipped n-grams; lengths 0-7
        # include candidates shorter than every order.
        sentence = st.lists(st.sampled_from("abcd"), max_size=7)
        cands = data.draw(st.lists(sentence, min_size=1, max_size=5))
        refs = [data.draw(st.lists(sentence, min_size=1, max_size=3)) for _ in cands]
        report = corpus_report(cands, refs)
        assert report.bleu1 == bleu(cands, refs, max_n=1)
        assert report.bleu4 == bleu(cands, refs, max_n=4)
        assert [row[:2] for row in report.each] == [
            (bleu([c], [rs], max_n=1), bleu([c], [rs], max_n=4)) for c, rs in zip(cands, refs)
        ]

    def test_report_is_plain_dataclass(self):
        report = MetricReport(0.1, 0.2, 0.3, 0.4, 5)
        assert report.n_examples == 5
