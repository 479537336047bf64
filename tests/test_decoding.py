from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from helpers import StubModel, TiedStubModel, toy_model
from sqgen import decoding
from sqgen.decoding import (
    Hypothesis,
    InvalidDecodeConfig,
    Pcg64Stream,
    beam_search,
    greedy,
    nucleus_sample,
    sample_step,
)
from sqgen.textproc import BOS_ID, EOS_ID


class TestHypothesis:
    def test_starts_at_bos_with_zero_logprob(self):
        h = Hypothesis()
        assert h.ids == [BOS_ID]
        assert h.logprob == 0.0
        assert h.finished is False

    def test_normalized_divides_by_generated_tokens(self):
        h = Hypothesis(ids=[BOS_ID, 5, 6], logprob=-2.0)
        assert h.normalized() == pytest.approx(-1.0)
        assert Hypothesis().normalized() == 0.0  # no generated tokens yet


class TestGreedy:
    def test_deterministic(self):
        m = StubModel(vocab_size=8, seed=1)
        a = greedy(m, None, max_len=6)
        b = greedy(m, None, max_len=6)
        assert a.ids == b.ids and a.logprob == b.logprob

    def test_respects_max_len(self):
        m = StubModel(vocab_size=8, seed=2)
        h = greedy(m, None, max_len=4)
        assert len(h.ids) <= 5  # BOS + at most 4

    def test_stops_at_eos(self):
        class EosModel(StubModel):
            def next_distribution(self, context, prefix_ids):
                d = np.full(self.vocab_size, 1e-6)
                d[EOS_ID] = 1.0
                return d / d.sum()

        h = greedy(EosModel(8), None, max_len=10)
        assert h.ids == [BOS_ID, EOS_ID]
        assert h.finished is True

    def test_ties_break_to_lowest_id(self):
        h = greedy(TiedStubModel(6), None, max_len=3)
        assert h.ids == [BOS_ID, 0, 0, 0]

    def test_logprob_is_sum_of_step_logs(self):
        m = StubModel(vocab_size=8, seed=3)
        h = greedy(m, None, max_len=5)
        total = 0.0
        for t in range(1, len(h.ids)):
            dist = m.next_distribution(None, h.ids[:t])
            total += math.log(dist[h.ids[t]])
        assert h.logprob == pytest.approx(total, abs=1e-9)


class TestBeamSearch:
    def test_beam_one_equals_greedy(self):
        for seed in range(10):
            m = StubModel(vocab_size=9, seed=seed)
            g = greedy(m, None, max_len=6)
            b = beam_search(m, None, beam=1, max_len=6)
            assert b[0].ids == g.ids
            assert b[0].logprob == pytest.approx(g.logprob, abs=1e-12)

    def test_matches_exhaustive_enumeration(self):
        for seed in range(5):
            m = StubModel(vocab_size=3, seed=seed)
            ids, logprob = oracles.best_sequence(m, None, steps=2)
            hyps = beam_search(m, None, beam=9, max_len=2, length_normalize=False)
            assert hyps[0].ids == ids
            assert hyps[0].logprob == pytest.approx(logprob, abs=1e-9)

    def test_widening_never_hurts(self):
        for seed in range(5):
            m = StubModel(vocab_size=4, seed=seed)
            best = -np.inf
            for beam in range(1, 17):
                hyps = beam_search(m, None, beam=beam, max_len=2, length_normalize=False)
                top = max(h.logprob for h in hyps)
                assert top >= best - 1e-12
                best = max(best, top)

    def test_results_sorted_by_normalized_score(self):
        m = StubModel(vocab_size=8, seed=4)
        hyps = beam_search(m, None, beam=4, max_len=5)
        scores = [h.normalized() for h in hyps]
        assert scores == sorted(scores, reverse=True)

    def test_logprob_recomputes(self):
        m = StubModel(vocab_size=8, seed=5)
        for h in beam_search(m, None, beam=3, max_len=5):
            total = 0.0
            for t in range(1, len(h.ids)):
                dist = m.next_distribution(None, h.ids[:t])
                total += math.log(dist[h.ids[t]])
            assert h.logprob == pytest.approx(total, abs=1e-9)

    def test_finished_hypotheses_not_extended(self):
        class EosThenFlat(StubModel):
            def next_distribution(self, context, prefix_ids):
                d = np.full(self.vocab_size, 1.0)
                if len(prefix_ids) == 1:
                    d[EOS_ID] = 100.0  # finish the best path immediately
                return d / d.sum()

        hyps = beam_search(EosThenFlat(8), None, beam=2, max_len=5)
        finished = [h for h in hyps if h.finished]
        assert finished and all(h.ids[-1] == EOS_ID for h in finished)
        assert all(EOS_ID not in h.ids[1:-1] for h in hyps)

    def test_max_len_zero(self):
        hyps = beam_search(StubModel(8), None, beam=3, max_len=0)
        assert len(hyps) == 1
        assert hyps[0].ids == [BOS_ID]
        assert hyps[0].finished is False

    def test_invalid_beam(self):
        with pytest.raises(InvalidDecodeConfig):
            beam_search(StubModel(8), None, beam=0)

    def test_on_real_model_agrees_with_greedy(self):
        m = toy_model(seed=6)
        enc = m.encode_context([5, 6, 7], [0, 1, 0])
        g = greedy(m, enc, max_len=6)
        b = beam_search(m, enc, beam=1, max_len=6)
        assert b[0].ids == g.ids


class ZeroStubModel(StubModel):
    """StubModel with about half the tokens, seeded per prefix, at probability
    zero; a row can be all zeros."""

    def next_distribution(self, context, prefix_ids) -> np.ndarray:
        dist = super().next_distribution(context, prefix_ids)
        rng = np.random.default_rng([self.seed + 1, len(prefix_ids), *prefix_ids])
        dist[rng.random(self.vocab_size) < 0.5] = 0.0
        return dist


class TestBeamPruningOrder:
    @settings(max_examples=300, deadline=None)
    @given(
        model_cls=st.sampled_from([StubModel, TiedStubModel, ZeroStubModel]),
        vocab_size=st.integers(1, 10),
        beam=st.integers(1, 40),
        max_len=st.integers(0, 5),
        seed=st.integers(0, 1000),
        length_normalize=st.booleans(),
    )
    def test_matches_tuple_sort_reference(
        self, model_cls, vocab_size, beam, max_len, seed, length_normalize
    ):
        model = model_cls(vocab_size, seed=seed)
        got = beam_search(
            model, None, beam=beam, max_len=max_len, length_normalize=length_normalize
        )
        want = oracles.tuple_sort_beam_search(
            model, None, beam=beam, max_len=max_len, length_normalize=length_normalize
        )
        assert [(h.ids, h.logprob, h.finished) for h in got] == want


class TestSampleStep:
    def test_tiny_temperature_is_argmax(self):
        rng = np.random.default_rng(42)
        dist = np.array([0.2, 0.5, 0.3])
        assert sample_step(dist, top_p=1.0, temperature=1e-7, rng=rng) == 1

    def test_top_p_keeping_one_token_is_deterministic(self):
        dist = np.array([0.05, 0.9, 0.05])
        for seed in range(5):
            rng = np.random.default_rng(seed)
            assert sample_step(dist, top_p=0.5, temperature=1.0, rng=rng) == 1

    def test_nucleus_keeps_smallest_prefix_reaching_mass(self):
        dist = np.array([0.5, 0.3, 0.2])
        counts = np.zeros(3)
        rng = np.random.default_rng(42)
        for _ in range(20000):
            counts[sample_step(dist, top_p=0.6, temperature=1.0, rng=rng)] += 1
        assert counts[2] == 0  # third token cut
        assert_allclose(counts[:2] / counts.sum(), [0.625, 0.375], atol=0.01)

    def test_full_nucleus_matches_distribution(self):
        rng_dist = np.random.default_rng(7)
        dist = rng_dist.dirichlet(np.ones(12))
        counts = np.zeros(12)
        rng = np.random.default_rng(42)
        for _ in range(20000):
            counts[sample_step(dist, top_p=1.0, temperature=1.0, rng=rng)] += 1
        assert oracles.total_variation(counts / counts.sum(), dist) < 0.02

    def test_invalid_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidDecodeConfig):
            sample_step(np.array([1.0]), top_p=0.0, temperature=1.0, rng=rng)
        with pytest.raises(InvalidDecodeConfig):
            sample_step(np.array([1.0]), top_p=1.5, temperature=1.0, rng=rng)
        with pytest.raises(InvalidDecodeConfig):
            sample_step(np.array([1.0]), top_p=0.5, temperature=-1.0, rng=rng)
        with pytest.raises(InvalidDecodeConfig):
            sample_step(np.array([1.0]), top_p=0.5, temperature=math.nan, rng=rng)


class TestPcg64Stream:
    """`nucleus_sample`'s draws are NumPy's `default_rng(seed).random()`."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**130))
    @example(seed=0)
    @example(seed=2**31)
    @example(seed=2**32 - 1)
    @example(seed=2**32)
    @example(seed=2**40 + 7)
    @example(seed=2**64 + 3)
    @example(seed=2**73 + 12345)
    @example(seed=2**128)
    def test_first_draws_equal_numpy_bit_for_bit(self, seed):
        ours, numpy_rng = Pcg64Stream(seed), np.random.default_rng(seed)
        got = np.array([ours.random() for _ in range(200)])
        assert got.tobytes() == numpy_rng.random(200).tobytes()

    def test_negative_seed_raises_value_error(self):
        with pytest.raises(ValueError):
            np.random.default_rng(-1)
        with pytest.raises(ValueError):
            Pcg64Stream(-1)


class TestNucleusSample:
    def test_seed_reproducible(self):
        m = StubModel(vocab_size=8, seed=9)
        a = nucleus_sample(m, None, top_p=0.9, temperature=1.0, seed=5, max_len=6)
        b = nucleus_sample(m, None, top_p=0.9, temperature=1.0, seed=5, max_len=6)
        assert a.ids == b.ids and a.logprob == b.logprob

    def test_different_seeds_can_differ(self):
        m = StubModel(vocab_size=8, seed=9)
        outs = {
            tuple(nucleus_sample(m, None, top_p=1.0, temperature=2.0, seed=s, max_len=6).ids)
            for s in range(8)
        }
        assert len(outs) > 1

    def test_default_temperature_is_sharp(self):
        assert decoding.DEFAULT_TEMPERATURE == pytest.approx(0.1)

    def test_greedy_limit(self):
        m = StubModel(vocab_size=8, seed=9)
        g = greedy(m, None, max_len=6)
        s = nucleus_sample(m, None, top_p=1.0, temperature=1e-7, seed=0, max_len=6)
        assert s.ids == g.ids

    def test_logprob_uses_unfiltered_distribution(self):
        m = StubModel(vocab_size=8, seed=9)
        h = nucleus_sample(m, None, top_p=0.5, temperature=1.0, seed=1, max_len=4)
        total = 0.0
        for t in range(1, len(h.ids)):
            dist = m.next_distribution(None, h.ids[:t])
            total += math.log(dist[h.ids[t]])
        assert h.logprob == pytest.approx(total, abs=1e-9)


class TestSettingsChecked:
    """Every decoder checks its settings on entry, also when no step runs."""

    @pytest.mark.parametrize("decode", [
        lambda m: nucleus_sample(m, None, top_p=5.0, temperature=1.0, max_len=0),
        lambda m: nucleus_sample(m, None, top_p=0.0, temperature=1.0, max_len=0),
        lambda m: nucleus_sample(m, None, top_p=0.9, temperature=-1.0, max_len=0),
        lambda m: nucleus_sample(m, None, top_p=0.9, temperature=math.nan, max_len=0),
        lambda m: nucleus_sample(m, None, top_p=0.9, temperature=1.0, max_len=-1),
        lambda m: beam_search(m, None, beam=0, max_len=0),
        lambda m: beam_search(m, None, beam=2, max_len=-1),
        lambda m: greedy(m, None, max_len=-1),
    ])
    def test_out_of_range_setting_rejected_before_any_step(self, decode):
        with pytest.raises(InvalidDecodeConfig):
            decode(StubModel(8))

    def test_defaults_are_in_range(self):
        decoding.check_settings()


class TestSampleStepTieOrder:
    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.lists(st.sampled_from([0, 1, 2, 5]), min_size=1, max_size=50).filter(any),
        top_p=st.floats(0.0, 1.0, exclude_min=True),
        temperature=st.sampled_from([0.1, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sorted_reference(self, weights, top_p, temperature, seed):
        # few distinct values, so most tokens tie with others
        dist = np.asarray(weights, dtype=np.float64) / sum(weights)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = sample_step(dist, top_p, temperature, got_rng)
            want = oracles.sorted_sample_step(dist, top_p, temperature, want_rng)
            assert got == want


class TestSampleStepBeyondThePool:
    """Vocabularies of at least 32 tokens, where the sorted pool is a strict
    part of V, so the nucleus is found in the pool or by sorting every token."""

    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(32, 3000),
        values=st.lists(st.sampled_from([0, 1, 2, 5, 40]), min_size=1, max_size=5).filter(any),
        top_p=st.floats(0.0, 1.0, exclude_min=True),
        temperature=st.sampled_from([0.1, 1.0, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sorted_reference(self, size, values, top_p, temperature, seed):
        # few distinct values over many tokens, so ties straddle every cut
        weights = np.random.default_rng(seed).choice(values, size=size).astype(np.float64)
        if not weights.any():
            weights[-1] = 1.0
        dist = weights / weights.sum()
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = sample_step(dist, top_p, temperature, got_rng)
            want = oracles.sorted_sample_step(dist, top_p, temperature, want_rng)
            assert got == want

    @pytest.mark.parametrize("top_p", [0.05, 0.5, 0.9, 1.0])
    def test_flat_and_peaked_distributions_match_sorted_reference(self, top_p):
        rng = np.random.default_rng(0)
        flat = rng.uniform(0.9, 1.1, size=4000)
        peaked = 1.0 / np.arange(1, 4001) ** 1.1
        for weights in (flat, peaked[rng.permutation(4000)]):
            dist = weights / weights.sum()
            got_rng, want_rng = np.random.default_rng(1), np.random.default_rng(1)
            for _ in range(5):
                got = sample_step(dist, top_p, 1.0, got_rng)
                assert got == oracles.sorted_sample_step(dist, top_p, 1.0, want_rng)


class TestPinnedOutputs:
    """Ids and logprob bits of every decoder on one seeded toy model, as the
    commit before one-sort-key decoding produced them."""

    def test_toy_model_outputs_are_pinned(self):
        m = toy_model(seed=9)
        enc = lambda: m.encode_context([5, 6, 7, 8, 5, 9], [0, 1, 1, 0, 0, 0])
        hyps = (
            [greedy(m, enc(), max_len=8)]
            + beam_search(m, enc(), beam=3, max_len=8)
            + [nucleus_sample(m, enc(), top_p=0.9, temperature=1.0, seed=3, max_len=8)]
        )
        assert [(h.ids, h.logprob.hex(), h.finished) for h in hyps] == [
            ([2, 5, 5, 5, 5, 5, 5, 5, 5], "-0x1.ad81bf8c19c18p+3", False),
            ([2, 5, 5, 5, 5, 5, 5, 5, 5], "-0x1.ad81bf8c19c18p+3", False),
            ([2, 5, 5, 5, 8, 5, 5, 5, 5], "-0x1.bd719cd58621ap+3", False),
            ([2, 5, 5, 5, 5, 5, 5, 5, 7], "-0x1.bde2b83790b2ep+3", False),
            ([2, 5, 7, 10, 9, 5, 8, 8, 5], "-0x1.184acb6b8b13ep+4", False),
        ]
