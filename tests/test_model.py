from __future__ import annotations

import dataclasses
import json
import os
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from helpers import TOY, interrupt_writes, params_digest, temp_files, toy_model
from sqgen import numerics as nm
from sqgen.decoding import greedy
from sqgen.model import (
    BertPgn,
    CheckpointError,
    ConfigError,
    ContextTooLong,
    ModelConfig,
    QuestionTooLong,
    init_params,
    load_checkpoint,
    output_distribution,
    param_shapes,
    save_checkpoint,
)
from sqgen.numerics import Tensor


class TestModelConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(**{**TOY, "d_model": 10, "n_heads": 4})

    @pytest.mark.parametrize("d_model, n_heads", [(16, 0), (16, -4), (0, 4), (-16, 4)])
    def test_sizes_must_be_positive(self, d_model, n_heads):
        with pytest.raises(ConfigError):
            ModelConfig(**{**TOY, "d_model": d_model, "n_heads": n_heads})

    @pytest.mark.parametrize("ffn_dim", [0, -1])
    def test_ffn_dim_must_be_positive(self, ffn_dim):
        with pytest.raises(ConfigError, match=f"ffn_dim must be >= 1, got {ffn_dim}"):
            ModelConfig(**{**TOY, "ffn_dim": ffn_dim})

    def test_cross_layers_must_exist(self):
        with pytest.raises(ConfigError):
            ModelConfig(**{**TOY, "cross_layers": 0})

    @pytest.mark.parametrize("name", ["encoder_layers", "decoder_lm_layers"])
    def test_layer_counts_must_not_be_negative(self, name):
        with pytest.raises(ConfigError, match=f"^{name} must be >= 0$"):
            ModelConfig(**{**TOY, name: -1})

    @pytest.mark.parametrize("name", ["max_context", "max_question"])
    def test_lengths_must_be_positive(self, name):
        with pytest.raises(ConfigError, match="^max_context and max_question must be >= 1$"):
            ModelConfig(**{**TOY, name: 0})

    def test_vocab_must_hold_specials(self):
        with pytest.raises(ConfigError):
            ModelConfig(**{**TOY, "vocab_size": 4})


class TestEmbedInputs:
    def test_position_contribution_is_additive(self):
        m = toy_model()
        e = m.embed_inputs([5, 5], [0, 0]).data
        pos = m.params["enc.pos_emb"].data
        assert_allclose(e[1] - e[0], pos[1] - pos[0], atol=1e-12)

    def test_type_contribution_is_additive(self):
        m = toy_model()
        e0 = m.embed_inputs([5], [0]).data
        e1 = m.embed_inputs([5], [1]).data
        typ = m.params["enc.type_emb"].data
        assert_allclose(e1[0] - e0[0], typ[1] - typ[0], atol=1e-12)

    def test_no_type_ids_removes_contribution(self):
        m = toy_model(use_type_ids=False)
        e0 = m.embed_inputs([5], [0]).data
        e1 = m.embed_inputs([5], [1]).data
        assert_allclose(e0, e1, atol=0.0)
        assert "enc.type_emb" not in m.params

    def test_length_cap(self):
        m = toy_model()
        n = TOY["max_context"] + 1
        with pytest.raises(ContextTooLong):
            m.embed_inputs([5] * n, [0] * n)

    def test_validation(self):
        m = toy_model()
        with pytest.raises(ConfigError):
            m.embed_inputs([5, 6], [0])
        with pytest.raises(ConfigError):
            m.embed_inputs([], [])
        with pytest.raises(ConfigError):
            m.embed_inputs([5], [2])

    @pytest.mark.parametrize("ids", [[-1, 5, 6], [5, 6, 25], [5, TOY["vocab_size"], -2]])
    def test_id_outside_the_vocabulary_is_named(self, ids):
        # -1 would otherwise embed the table's last row, and 25 raise a bare IndexError
        bad = next(i for i in ids if not 0 <= i < TOY["vocab_size"])
        with pytest.raises(ConfigError, match=f"^token id {bad} is outside the vocabulary"):
            toy_model().encode_context(ids, [0, 1, 0])


class TestEncode:
    def test_zero_layers_is_identity(self):
        m = toy_model(encoder_layers=0)
        e = m.embed_inputs([5, 6, 7], [0, 1, 0])
        h = m.encode(e)
        assert_allclose(h.data, e.data, atol=0.0)

    def test_shape_preserved(self):
        m = toy_model()
        h = m.encode_context([5, 6, 7, 8], [0, 0, 1, 1]).h
        assert h.data.shape == (4, TOY["d_model"])

    def test_position_sensitivity(self):
        m = toy_model()
        a = m.encode_context([5, 6], [0, 0]).h.data
        b = m.encode_context([6, 5], [0, 0]).h.data
        assert np.abs(a - b).max() > 1e-6


class TestDecodeStep:
    def test_distributions_are_normalized(self):
        m = toy_model()
        enc = m.encode_context([5, 6, 7], [0, 1, 0])
        step = m.decode_step([2, 5], enc)
        assert step.final_dist.sum() == pytest.approx(1.0, abs=1e-6)
        assert step.vocab_dist.sum() == pytest.approx(1.0, abs=1e-6)
        assert step.copy_attn.sum() == pytest.approx(1.0, abs=1e-6)
        assert 0.0 < step.p_gen < 1.0
        assert step.copy_attn.shape == (3,)

    def test_causality_on_shared_prefix(self):
        m = toy_model()
        enc = m.encode_context([5, 6, 7, 8], [0, 1, 1, 0])
        short = m.sequence_distributions([2, 5, 6], enc).data
        long = m.sequence_distributions([2, 5, 6, 7, 9], enc).data
        assert_allclose(long[:3], short, atol=1e-9)

    @pytest.mark.parametrize("prefix", [[2, -1], [2, 5, TOY["vocab_size"]]])
    def test_id_outside_the_vocabulary_is_named(self, prefix):
        m = toy_model()
        enc = m.encode_context([5, 6, 7], [0, 1, 0])
        with pytest.raises(ConfigError, match=f"token id {prefix[-1]} is outside"):
            m.decode_step(prefix, enc)
        with pytest.raises(ConfigError, match=f"token id {prefix[-1]} is outside"):
            m.sequence_distributions(prefix, enc)

    def test_prefix_length_cap(self):
        m = toy_model()
        enc = m.encode_context([5, 6], [1, 0])
        with pytest.raises(QuestionTooLong):
            m.decode_step([2] + [5] * (TOY["max_question"] + 1), enc)

    def test_too_long_prefix_raises_before_any_pass_and_keeps_the_cache(self):
        m = toy_model()
        enc = m.encode_context([5, 6, 7], [0, 1, 0])
        for prefix in ([2], [2, 9]):
            m.decode_step(prefix, enc)
        before = set(enc.self_kv)
        decoder, calls = m._decoder, []

        def counting(*args):
            calls.append(args)
            return decoder(*args)

        m._decoder = counting
        limit = TOY["max_question"] + 1
        message = f"^prefix of {limit + 1} exceeds max_question\\+1={limit}$"
        with pytest.raises(QuestionTooLong, match=message):
            m.decode_step([2] + [5] * limit, enc)
        assert calls == []
        assert set(enc.self_kv) == before
        with pytest.raises(QuestionTooLong, match=message):  # the training path's wording
            m.sequence_distributions([2] + [5] * limit, enc)

    def test_empty_prefix_rejected(self):
        m = toy_model()
        enc = m.encode_context([5, 6], [1, 0])
        with pytest.raises(ConfigError):
            m.decode_step([], enc)

    def test_no_pointer_final_equals_vocab(self):
        m = toy_model(use_pointer=False)
        enc = m.encode_context([5, 6, 7], [0, 1, 0])
        step = m.decode_step([2, 5], enc)
        assert step.p_gen == 1.0
        assert np.array_equal(step.final_dist, step.vocab_dist)

    def test_ablations_are_strict_subnetworks(self):
        full = set(toy_model().params)
        no_ptr = set(toy_model(use_pointer=False).params)
        no_lm = set(toy_model(decoder_lm_layers=0).params)
        no_type = set(toy_model(use_type_ids=False).params)
        assert no_ptr < full and no_lm < full and no_type < full
        assert full - no_ptr == {"gate.w", "gate.b"}
        assert full - no_type == {"enc.type_emb"}
        assert all(name.startswith("lm.") for name in full - no_lm)


class TestNodeCensus:
    """The graph nodes one cache-hit decode step builds, by the op that made
    them: attention projects and merges heads in fused nodes, and the gate's
    (T, 1) output broadcasts in the mixture, so no reshape, transpose or
    matmul node is left in it."""

    @pytest.mark.parametrize("layers, total", [(1, 49), (2, 82)])
    def test_a_cache_hit_step(self, layers, total, monkeypatch):
        m = toy_model(seed=0, decoder_lm_layers=layers, cross_layers=layers)
        enc = m.encode_context([5, 6, 7, 8], [0, 1, 1, 0])
        m.decode_step([2], enc)
        m.decode_step([2, 9], enc)
        census, make = Counter(), Tensor._make

        def counting(data, parents, backward):
            census[sys._getframe(1).f_code.co_name] += 1
            return make(data, parents, backward)

        monkeypatch.setattr(Tensor, "_make", staticmethod(counting))
        m.decode_step([2, 9, 11], enc)
        assert sum(census.values()) == total
        # q, k, v of each self-attention and q of each cross-attention
        assert census["project_heads"] == 3 * layers + 4 * layers
        assert census["attend_out"] == census["attention_weights"] == 3 * layers
        assert census["linear"] == 2 * 2 * layers + 2  # FFNs, output, gate
        assert census["transpose"] == census["matmul"] == census["reshape"] == 0


class TestIncrementalDecoding:
    # Parents of each step's prefixes, step by step (cycled): duplicates,
    # swaps, and steps that shrink and regrow as hypotheses finish.
    PARENTS = [[0, 0, 0], [2, 0, 1], [1, 1], [1, 0, 0], [0, 2], [1, 0, 1]]

    def _context(self, m, rng):
        n = int(rng.integers(3, TOY["max_context"] + 1))
        return m.encode_context(
            rng.integers(4, TOY["vocab_size"], size=n).tolist(),
            rng.integers(0, 2, size=n).tolist(),
        )

    def _children(self, prefixes, t, rng):
        return [
            prefixes[i] + [int(rng.integers(TOY["vocab_size"]))]
            for i in self.PARENTS[t % len(self.PARENTS)]
        ]

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"use_pointer": False}, {"decoder_lm_layers": 0}],
        ids=["full", "no_pointer", "zero_lm_layers"],
    )
    def test_cached_steps_match_full_prefix_recompute(self, overrides):
        for seed in range(3):
            m = toy_model(seed=seed, **{"decoder_lm_layers": 2, "cross_layers": 2, **overrides})
            rng = np.random.default_rng(seed)
            enc = self._context(m, rng)
            prefixes, parents = [[2]], []
            for t in range(TOY["max_question"] + 1):
                for prefix in prefixes:
                    got = m.decode_step(prefix, enc).final_dist
                    with nm.no_grad():
                        want = m.sequence_distributions(prefix, enc).data[-1]
                    assert np.max(np.abs(got - want)) <= 1e-12
                assert set(enc.self_kv) == {tuple(p) for p in prefixes + parents}
                parents, prefixes = prefixes, self._children(prefixes, t, rng)

    def test_each_step_runs_one_new_token_per_prefix(self):
        m = toy_model(seed=5, decoder_lm_layers=2, cross_layers=2)
        enc = m.encode_context([5, 6, 7, 8, 9], [0, 1, 1, 0, 1])
        decoder, new_tokens = m._decoder, []

        def counting(ids, *args):
            new_tokens.append(np.size(ids))
            return decoder(ids, *args)

        m._decoder = counting
        rng = np.random.default_rng(5)
        prefixes = [[2]]
        for t in range(TOY["max_question"] + 1):
            new_tokens.clear()
            rows = m.next_distributions(enc, prefixes)
            assert new_tokens == [1] * len(prefixes)
            for prefix, row in zip(prefixes, rows):
                with nm.no_grad():
                    want = m.sequence_distributions(prefix, enc).data[-1]
                assert np.max(np.abs(row - want)) <= 1e-12
            prefixes = self._children(prefixes, t, rng)

    def test_cache_miss_matches_cached_step(self):
        m = toy_model(seed=4)
        enc = m.encode_context([5, 6, 7, 8], [0, 1, 1, 0])
        for prefix in ([2], [2, 9], [2, 9, 11]):
            cached = m.decode_step(prefix, enc).final_dist
        fresh = m.encode_context([5, 6, 7, 8], [0, 1, 1, 0])
        missed = m.decode_step([2, 9, 11], fresh).final_dist
        assert np.max(np.abs(cached - missed)) <= 1e-12

    def test_cache_miss_decodes_its_ancestors_one_token_at_a_time(self):
        m = toy_model(seed=4)
        enc = m.encode_context([5, 6, 7, 8], [0, 1, 1, 0])
        decoder, new_tokens = m._decoder, []

        def counting(ids, *args):
            new_tokens.append(np.size(ids))
            return decoder(ids, *args)

        m._decoder = counting
        m.decode_step([2, 9, 11, 5], enc)
        assert new_tokens == [1, 1, 1, 1]
        assert set(enc.self_kv) == {(2, 9, 11), (2, 9, 11, 5)}
        new_tokens.clear()
        m.decode_step([2, 9, 11, 6], enc)  # its parent is cached: no miss
        assert new_tokens == [1]

    def test_cache_miss_keeps_the_steps_other_prefixes(self):
        m = toy_model(seed=4)
        enc = m.encode_context([5, 6, 7, 8], [0, 1, 1, 0])
        for prefix in ([2], [2, 9], [2, 7], [2, 9, 11]):
            m.decode_step(prefix, enc)
        m.decode_step([2, 5, 6], enc)  # neither (2, 5) nor (2,) is cached
        assert (2, 9, 11) in enc.self_kv
        assert set(enc.self_kv) == {(2, 9), (2, 7), (2, 5), (2, 9, 11), (2, 5, 6)}

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"use_pointer": False}, {"decoder_lm_layers": 0}],
        ids=["full", "no_pointer", "zero_lm_layers"],
    )
    def test_cache_miss_gives_the_bytes_of_step_by_step_decoding(self, overrides):
        fields = ("final_dist", "vocab_dist", "copy_attn", "p_gen")
        for seed in range(5):
            m = toy_model(seed=seed, **overrides)
            rng = np.random.default_rng(seed)
            for length in range(1, TOY["max_question"] + 2):
                n = int(rng.integers(3, TOY["max_context"] + 1))
                context = (rng.integers(4, TOY["vocab_size"], size=n).tolist(),
                           rng.integers(0, 2, size=n).tolist())
                prefix = [2] + rng.integers(TOY["vocab_size"], size=length - 1).tolist()
                enc = m.encode_context(*context)
                for k in range(1, length + 1):
                    stepped = m.decode_step(prefix[:k], enc)
                missed = m.decode_step(prefix, m.encode_context(*context))
                for name in fields:
                    want = np.asarray(getattr(stepped, name)).tobytes()
                    assert np.asarray(getattr(missed, name)).tobytes() == want, (seed, length, name)


class TestGenerationGate:
    def test_zero_weights_give_half(self):
        m = toy_model()
        m.params["gate.w"].data[:] = 0.0
        m.params["gate.b"].data[:] = 0.0
        rows = nm.Tensor(np.ones((1, TOY["d_model"])))
        p = m.generation_gate(rows, rows).data[0, 0]
        assert p == pytest.approx(0.5)

    def test_large_bias_saturates(self):
        m = toy_model()
        m.params["gate.w"].data[:] = 0.0
        d = TOY["d_model"]
        m.params["gate.b"].data[:] = 30.0
        rows = nm.Tensor(np.zeros((1, d)))
        hi = m.generation_gate(rows, rows).data[0, 0]
        m.params["gate.b"].data[:] = -30.0
        lo = m.generation_gate(rows, rows).data[0, 0]
        assert hi == pytest.approx(1.0, abs=1e-12)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < lo and hi < 1.0


class TestOutputDistribution:
    def _step(self, m, enc, prefix=(2, 5)):
        return m.decode_step(list(prefix), enc)

    def test_pure_generation_endpoint(self):
        m = toy_model()
        enc = m.encode_context([5, 6], [1, 0])
        step = dataclasses.replace(self._step(m, enc), p_gen=1.0)
        final = output_distribution(step, enc.context_ids)
        assert np.array_equal(final, step.vocab_dist)

    def test_pure_copy_endpoint(self):
        m = toy_model()
        enc = m.encode_context([7, 9], [1, 0])
        step = dataclasses.replace(
            self._step(m, enc), p_gen=0.0, copy_attn=np.array([0.3, 0.7])
        )
        final = output_distribution(step, enc.context_ids)
        assert final[7] == pytest.approx(0.3)
        assert final[9] == pytest.approx(0.7)
        assert final.sum() == pytest.approx(1.0)
        assert np.count_nonzero(final) == 2

    def test_reproduces_the_decode_step_mixture(self):
        m = toy_model()
        enc = m.encode_context([5, 8, 5], [1, 0, 0])
        step = self._step(m, enc)
        assert np.array_equal(output_distribution(step, enc.context_ids), step.final_dist)

    def test_repeated_token_mass_accumulates(self):
        m = toy_model()
        enc = m.encode_context([5, 8, 5], [1, 0, 0])
        step = dataclasses.replace(
            self._step(m, enc), p_gen=0.0, copy_attn=np.array([0.2, 0.7, 0.1])
        )
        final = output_distribution(step, enc.context_ids)
        assert final[5] == pytest.approx(0.3)
        assert final[8] == pytest.approx(0.7)


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        m = toy_model(seed=5)
        path = str(tmp_path / "m.ckpt")
        m.save(path)
        back = BertPgn.from_checkpoint(path)
        assert back.config == m.config
        assert set(back.params) == set(m.params)
        for name in m.params:
            assert np.array_equal(back.params[name].data, m.params[name].data)

    def test_loaded_arrays_are_writable_and_independent(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        toy_model(seed=5).save(path)
        _, arrays = load_checkpoint(path)
        before = {name: a.copy() for name, a in arrays.items()}
        target = "enc.b0.attn.bq"
        arrays[target] += 1.0
        assert np.array_equal(arrays[target], before[target] + 1.0)
        for name, a in arrays.items():
            assert a.flags.writeable, name
            if name != target:
                assert a.tobytes() == before[name].tobytes(), name

    def test_save_is_deterministic(self, tmp_path):
        m = toy_model(seed=5)
        a = str(tmp_path / "a.ckpt")
        b = str(tmp_path / "b.ckpt")
        m.save(a)
        m.save(b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_truncated_blob_rejected(self, tmp_path):
        m = toy_model()
        path = str(tmp_path / "m.ckpt")
        m.save(path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_blob_that_shrinks_while_read_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        toy_model().save(str(path))
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        fstat = os.fstat

        def fstat_of_the_full_file(fd):  # as if the file lost 8 bytes after fstat
            st = fstat(fd)
            return os.stat_result((*st[:6], size, *st[7:]))

        monkeypatch.setattr(os, "fstat", fstat_of_the_full_file)
        with pytest.raises(CheckpointError, match="truncated blob while reading$"):
            load_checkpoint(str(path))

    def test_trailing_garbage_rejected(self, tmp_path):
        m = toy_model()
        path = str(tmp_path / "m.ckpt")
        m.save(path)
        with open(path, "ab") as f:
            f.write(b"\x00" * 8)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_interrupted_resave_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "best.ckpt"
        toy_model(seed=1).save(str(path))
        before = path.read_bytes()
        interrupt_writes(monkeypatch, writes=5)
        with pytest.raises(KeyboardInterrupt):
            toy_model(seed=2).save(str(path))
        assert path.read_bytes() == before
        assert temp_files(tmp_path) == []
        load_checkpoint(str(path))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(arrays=st.dictionaries(
        st.text(alphabet="abcxyz._0123456789", min_size=1, max_size=8),
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
        max_size=4,
    ))
    def test_round_trip_over_shapes_and_values(self, tmp_path, arrays):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, ModelConfig(**TOY), arrays)
        config, back = load_checkpoint(path)
        assert config == ModelConfig(**TOY)
        assert list(back) == sorted(arrays)
        for name, a in arrays.items():
            assert back[name].shape == a.shape
            assert back[name].tobytes() == a.tobytes()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncation_at_any_byte_rejected(self, tmp_path, data):
        path = tmp_path / "m.ckpt"
        arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4), "c": np.float64(2.5)}
        save_checkpoint(str(path), ModelConfig(**TOY), arrays)
        raw = path.read_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("head", [b"\xff\xfe{}\n", b"not json\n"],
                             ids=["not_utf8", "not_json"])
    def test_unreadable_manifest_rejected_naming_the_file(self, tmp_path, head):
        path = tmp_path / "m.ckpt"
        path.write_bytes(head)
        with pytest.raises(CheckpointError, match=f"^{path}: unreadable manifest$"):
            load_checkpoint(str(path))

    def test_manifest_arrays_must_be_a_list(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(str(path), ModelConfig(**TOY), {})
        manifest = json.loads(path.read_bytes())
        manifest["arrays"] = {}
        path.write_bytes(json.dumps(manifest).encode() + b"\n")
        with pytest.raises(CheckpointError, match=f"^{path}: manifest arrays is not a list$"):
            load_checkpoint(str(path))

    def test_unknown_config_key_rejected(self, tmp_path):
        m = toy_model()
        path = str(tmp_path / "m.ckpt")
        m.save(path)
        raw = open(path, "rb").read()
        head, _, blob = raw.partition(b"\n")
        manifest = json.loads(head)
        manifest["config"]["bogus_knob"] = 1
        open(path, "wb").write(json.dumps(manifest).encode() + b"\n" + blob)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("use_lm, layers", [(False, 0), (True, 2)])
    def test_legacy_use_decoder_lm_key_loads_the_same_model(self, tmp_path, use_lm, layers):
        """Older files carry `use_decoder_lm` beside `decoder_lm_layers`, and
        false meant no LM stack and no lm.* arrays whatever the layer count."""
        m = toy_model(seed=3, decoder_lm_layers=layers)
        plain = tmp_path / "plain.ckpt"
        m.save(str(plain))
        head, _, blob = plain.read_bytes().partition(b"\n")
        manifest = json.loads(head)
        assert "use_decoder_lm" not in manifest["config"]
        manifest["config"].update(decoder_lm_layers=2, use_decoder_lm=use_lm)
        legacy = tmp_path / "legacy.ckpt"
        legacy.write_bytes(json.dumps(manifest, sort_keys=True).encode() + b"\n" + blob)

        back = BertPgn.from_checkpoint(str(legacy))
        assert back.config == m.config
        _, want = load_checkpoint(str(plain))
        _, got = load_checkpoint(str(legacy))
        assert list(got) == list(want)
        assert all(got[name].tobytes() == want[name].tobytes() for name in want)
        assert any(name.startswith("lm.") for name in got) == use_lm
        fresh = BertPgn.from_checkpoint(str(plain))
        hyps = [
            greedy(model, model.encode_context([5, 6, 7, 8], [0, 1, 1, 0]),
                   max_len=TOY["max_question"])
            for model in (fresh, back)
        ]
        assert hyps[0] == hyps[1]

    def test_param_shapes_match_init_params(self):
        params = init_params(ModelConfig(**TOY), seed=9)
        shapes = param_shapes(ModelConfig(**TOY))
        assert list(shapes.items()) == [(name, t.shape) for name, t in params.items()]

    def test_arrays_off_the_config_rejected_naming_the_file(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, ModelConfig(**TOY), {"x": np.zeros(3)})
        with pytest.raises(CheckpointError, match=f"^{path}: no array enc.word_emb"):
            BertPgn.from_checkpoint(path)

    def test_init_deterministic_per_seed(self):
        a = init_params(ModelConfig(**TOY), seed=9)
        b = init_params(ModelConfig(**TOY), seed=9)
        c = init_params(ModelConfig(**TOY), seed=10)
        assert all(np.array_equal(a[k].data, b[k].data) for k in a)
        assert any(not np.array_equal(a[k].data, c[k].data) for k in a)

    def test_seeded_init_bytes_are_pinned(self):
        params = init_params(ModelConfig(**TOY), seed=9)
        assert len(params) == 67
        assert params_digest(params) == (
            "df4c4089138b2ee2943e980cf146c0036571eb201be83b46a4d914b4e51282e5"
        )

    @pytest.mark.parametrize("overrides, count, digest", [
        ({"use_pointer": False}, 65,
         "f3a062bfc384ac12b3067fff045fbdb7d89c875eff4b4989d326b1ecf33fc4dc"),
        ({"use_type_ids": False}, 66,
         "4e3d342f1328970a1c5757d4ef14bdc06c691f2582e97c1b18b5aff0520cb4cb"),
        ({"decoder_lm_layers": 0}, 51,
         "fa3fa928a1a8a4d1ed56cfe200e9e5d581064c6d8d32e87ac1756eea214e542c"),
        ({"encoder_layers": 0, "ffn_dim": 24}, 51,
         "3f674757d9dd22f442885faafa36ba7b9b65f5484bcb01306b83757e3dbd8db9"),
    ])
    def test_seeded_init_bytes_of_each_variant_are_pinned(self, overrides, count, digest):
        params = init_params(ModelConfig(**{**TOY, **overrides}), seed=9)
        assert len(params) == count
        assert params_digest(params) == digest
